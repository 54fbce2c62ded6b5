"""The benchmark's three workloads, built from a seed.

Each workload fixes a problem, a grid spacing, a time step and a level count.
Seed 0 gives the published uniform grid; any other seed moves every interior
node by a uniform draw of up to +-10% of the spacing, which keeps the nodes
ordered and the cost unchanged while exercising non-uniform spacing.  The
solver only ever sees the resulting ``Grid``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from drbem1d import (
    Grid,
    PdeProblem,
    StepConfig,
    make_fitzhugh_nagumo,
    make_generalized_fisher,
    make_generalized_fn,
)

JITTER = 0.1  # largest node shift, as a share of the spacing


@dataclass(frozen=True)
class Case:
    """One march: a problem on a grid, advanced `levels` steps of cfg.tau."""

    case_id: str
    problem: PdeProblem
    grid: Grid
    cfg: StepConfig
    levels: int
    track_peak: bool = False

    @property
    def t_end(self) -> float:
        return self.levels * self.cfg.tau


@dataclass(frozen=True)
class Workload:
    """Cases that run back to back; `tolerance` caps every case's final error."""

    name: str
    cases: tuple
    tolerance: float

    @property
    def grids(self) -> tuple:
        """Distinct grids of the cases, in first-use order (one operator set each)."""
        seen = {}
        for case in self.cases:
            seen.setdefault(id(case.grid), case.grid)
        return tuple(seen.values())


def seeded_grid(a, b, h, seed) -> Grid:
    grid = Grid.with_spacing(a, b, h)
    if seed == 0:
        return grid
    rng = np.random.default_rng(seed)
    nodes = grid.nodes.copy()
    nodes[1:-1] += rng.uniform(-JITTER, JITTER, nodes.size - 2) * grid.h
    return Grid(nodes)


# Final-time sup-norm error caps: the seed-0 error at this commit plus 10%.
# Only kink_const_n321 marches a whole published row, table1's (h = 1/16,
# tau = 1/2000), and its seed-0 error is 4x the published 1.9737e-06 (table1
# is run with assumed parameters, see presets.table1_benchmark), so that row
# cannot serve as its cap either.  The others march prefixes of their rows.
TOLERANCES = {
    "kink_const_n321": 8.85e-06,  # seed 0: 8.0407e-06 at t = 1
    "gfn_varying_n257": 5.92e-06,  # seed 0: 5.3835e-06 at t = 0.125
    "front_sweep_n65": 8.37e-05,  # seed 0: 7.6107e-05 (alpha = 4) at t = 1
}


def _kink_const(seed):
    # table1's row (rho = 3/4, h = 1/16, tau = 1/2000) to t = 1: constant
    # coefficients, so one factorization and a solve-bound march.  At N = 321
    # the dense operators (0.8 MB each) stay in a core's own cache; at the
    # heaviest row's N = 1281 (13 MB each) the march time followed other
    # tenants' use of the shared cache, too much for a steady benchmark.
    problem = make_fitzhugh_nagumo(0.75, a=-10.0, b=10.0, horizon=1.0)
    grid = seeded_grid(problem.a, problem.b, 1 / 16, seed)
    return (Case("rho0.75", problem, grid, StepConfig(tau=1 / 2000), levels=2000),)


def _gfn_varying(seed):
    # table3's finest row (rho = 1, h = 1/128, tau = 1/3200): cos(t)
    # coefficients force a dense refactorization at every level.
    problem = make_generalized_fn(1.0, a=-1.0, b=1.0, horizon=1.0)
    grid = seeded_grid(problem.a, problem.b, 1 / 128, seed)
    return (Case("rho1", problem, grid, StepConfig(tau=1 / 3200), levels=400),)


def _front_sweep(seed):
    # The whole fig5 sweep with per-level peak error: N = 65, so per-call
    # interpreter overhead, not flops, sets the time.
    grid = seeded_grid(-2.0, 2.0, 1 / 16, seed)
    return tuple(
        Case(f"alpha{alpha}", make_generalized_fisher(float(alpha), a=-2.0, b=2.0, horizon=1.0),
             grid, StepConfig(tau=1e-3), levels=1000, track_peak=True)
        for alpha in range(1, 7)
    )


_BUILDERS = {
    "kink_const_n321": _kink_const,
    "gfn_varying_n257": _gfn_varying,
    "front_sweep_n65": _front_sweep,
}

NAMES = tuple(_BUILDERS)


def make_workload(name: str, seed: int) -> Workload:
    if name not in _BUILDERS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    return Workload(name=name, cases=_BUILDERS[name](seed), tolerance=TOLERANCES[name])
