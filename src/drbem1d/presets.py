"""Reproduction presets: parameter sweeps with the published reference errors.

Each benchmark drives one named sweep of the solver and, where the reference
source states numbers, carries them so the CSV can show side-by-side deviations.
The first sweep's reference omits its run parameters; the assumed values are
flagged in the emitted header.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .problems import (
    PdeProblem,
    make_fitzhugh_nagumo,
    make_generalized_fisher,
    make_generalized_fn,
)

# (1/h, 1/tau, l_inf, rms) with assumed rho = 3/4, [-10, 10], t_end = 1.
TABLE1_REFERENCE = (
    (4, 500, 2.8473e-05, 1.9553e-05),
    (8, 500, 8.0477e-06, 5.2319e-06),
    (16, 500, 2.7413e-06, 1.7839e-06),
    (32, 500, 1.4138e-06, 9.3950e-07),
    (64, 500, 1.0823e-06, 7.3079e-07),
    (4, 1000, 2.7938e-05, 1.9159e-05),
    (8, 1000, 7.5096e-06, 4.8528e-06),
    (16, 1000, 2.2037e-06, 1.4083e-06),
    (32, 1000, 8.7637e-07, 5.6270e-07),
    (64, 1000, 5.4445e-07, 3.5318e-07),
    (4, 2000, 2.7711e-05, 1.8996e-05),
    (8, 2000, 7.2794e-06, 4.6964e-06),
    (16, 2000, 1.9737e-06, 1.2544e-06),
    (32, 2000, 6.4648e-07, 4.0951e-07),
    (64, 2000, 3.1454e-07, 1.9998e-07),
)

# (1/h, l_inf, rms) at rho = 1, [-1, 1], tau = 1/1000, t = 1.
TABLE2_REFERENCE = (
    (4, 1.0914e-03, 9.5674e-04),
    (8, 3.4491e-04, 2.9281e-04),
    (16, 1.5805e-04, 1.2422e-04),
    (32, 1.1082e-04, 8.2027e-05),
    (64, 9.8895e-05, 7.1495e-05),
    (128, 9.5897e-05, 6.8814e-05),
)

# (1/tau, l_inf, rms) at rho = 1, [-1, 1], h = 1/128, t = 1.
TABLE3_REFERENCE = (
    (100, 9.5923e-04, 6.8834e-04),
    (200, 4.7752e-04, 3.4244e-04),
    (400, 2.3862e-04, 1.7109e-04),
    (800, 1.1965e-04, 8.5833e-05),
    (1600, 6.0287e-05, 4.3306e-05),
    (3200, 3.0634e-05, 2.2068e-05),
)

FIG5_ALPHAS = (1, 2, 3, 4, 5, 6)


@dataclass(frozen=True)
class BenchmarkRow:
    labels: tuple  # ((column, text), ...) identifying the row in the CSV
    problem: PdeProblem
    h: float
    tau: float
    reference_l_inf: Optional[float] = None
    reference_rms: Optional[float] = None


@dataclass(frozen=True)
class Benchmark:
    """A named sweep; its CSV label columns are the rows' label names, and the
    reference columns appear when any row carries a reference."""

    name: str
    t_end: float
    notes: tuple
    rows: tuple
    track_peak: bool = False


def table1_benchmark() -> Benchmark:
    problem = make_fitzhugh_nagumo(0.75, a=-10.0, b=10.0, horizon=1.0)
    rows = tuple(
        BenchmarkRow(
            labels=(("h", f"1/{hd}"), ("tau", f"1/{td}")),
            problem=problem,
            h=1.0 / hd,
            tau=1.0 / td,
            reference_l_inf=linf,
            reference_rms=rms,
        )
        for hd, td, linf, rms in TABLE1_REFERENCE
    )
    return Benchmark(
        name="table1",
        t_end=1.0,
        notes=(
            "ASSUMED parameters: rho = 0.75, domain [-10, 10], t_end = 1.0"
            " (the reference table does not state them); compare trends, not values",
        ),
        rows=rows,
    )


def table2_benchmark() -> Benchmark:
    problem = make_generalized_fn(1.0, a=-1.0, b=1.0, horizon=1.0)
    rows = tuple(
        BenchmarkRow(
            labels=(("h", f"1/{hd}"), ("tau", "1/1000")),
            problem=problem,
            h=1.0 / hd,
            tau=1.0e-3,
            reference_l_inf=linf,
            reference_rms=rms,
        )
        for hd, linf, rms in TABLE2_REFERENCE
    )
    return Benchmark(
        name="table2",
        t_end=1.0,
        notes=("rho = 1, domain [-1, 1], tau = 1/1000, errors at t = 1",),
        rows=rows,
    )


def table3_benchmark() -> Benchmark:
    problem = make_generalized_fn(1.0, a=-1.0, b=1.0, horizon=1.0)
    rows = tuple(
        BenchmarkRow(
            labels=(("h", "1/128"), ("tau", f"1/{td}")),
            problem=problem,
            h=1.0 / 128.0,
            tau=1.0 / td,
            reference_l_inf=linf,
            reference_rms=rms,
        )
        for td, linf, rms in TABLE3_REFERENCE
    )
    return Benchmark(
        name="table3",
        t_end=1.0,
        notes=("rho = 1, domain [-1, 1], h = 1/128, errors at t = 1",),
        rows=rows,
    )


def fig5_benchmark() -> Benchmark:
    rows = tuple(
        BenchmarkRow(
            labels=(("alpha", str(alpha)), ("h", "1/16"), ("tau", "1/1000")),
            problem=make_generalized_fisher(float(alpha), a=-2.0, b=2.0, horizon=1.0),
            h=1.0 / 16.0,
            tau=1.0e-3,
        )
        for alpha in FIG5_ALPHAS
    )
    return Benchmark(
        name="fig5",
        t_end=1.0,
        notes=(
            "the reference figure quotes time t = 10; the stated time domain is"
            " [0, 1], so t_end = 1.0 is used",
            "every front centre leaves [-2, 2] before t = 1: it moves at"
            " (alpha+4)/sqrt(2 alpha+4) and exits at t = 0.98, 0.94, 0.90, 0.87,"
            " 0.83, 0.80 for alpha = 1..6; the error grows with alpha at every"
            " time level through t = 0.831 but not at t = 1, where its ordering"
            " matches the finite-difference oracle's; l_inf_peak holds the"
            " maximum error over all time levels, which does grow monotonically"
            " with alpha",
        ),
        rows=rows,
        track_peak=True,
    )


BENCHMARKS = {
    "table1": table1_benchmark,
    "table2": table2_benchmark,
    "table3": table3_benchmark,
    "fig5": fig5_benchmark,
}
