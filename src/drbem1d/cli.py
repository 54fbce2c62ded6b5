"""Command-line front end: config-driven runs, benchmark reproduction, self checks.

Exit codes: 0 success, 1 usage or configuration, 2 solver failure or out of memory,
3 I/O failure.
Log verbosity comes from the DRBEM1D_LOG environment variable (DEBUG..CRITICAL).
"""

from __future__ import annotations

import argparse
import csv
import logging
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .assembly import Grid
from .exceptions import ConfigError, DrbemError, SolverError
from .presets import BENCHMARKS, Benchmark
from .problems import (
    REGISTRY,
    PdeProblem,
    make_fisher,
    make_fitzhugh_nagumo,
    make_generalized_fisher,
    make_generalized_fn,
    residual_check,
    transcribed_fisher_wave,
)
from .reference import harmonic_identity_check, phi, psi
from .stepping import StepConfig, level_index, run, time_levels
from .verification import compute_errors, fd_oracle, sweep

log = logging.getLogger("drbem1d")

LOG_ENV = "DRBEM1D_LOG"

# names of the equation parameters, each one a float config key
PARAMETERS = tuple(dict.fromkeys(p for _, p in REGISTRY.values() if p is not None))


@dataclass
class RunConfig:
    """One solver run as its config describes it, with its problem and grid built."""

    equation: str
    params: dict
    problem: PdeProblem
    grid: Grid
    t_end: float
    step: StepConfig
    h: float | None = None
    n: int | None = None
    snapshots: tuple = ()  # empty: t_end alone
    output_path: str = "."
    compare_exact: bool = True
    run_oracle: bool = False

    def __post_init__(self):
        self.snapshots = self.snapshots or (self.t_end,)


def _finite(text):
    number = float(text)
    if not math.isfinite(number):
        raise ValueError(f"expected a finite number, got {text!r}")
    return number


def _bool(text):
    lowered = text.lower()
    if lowered in ("true", "yes", "1"):
        return True
    if lowered in ("false", "no", "0"):
        return False
    raise ValueError(f"expected true/false, got {text!r}")


def _finite_list(text):
    return tuple(_finite(part) for part in text.split(",") if part.strip())


# each config key and the converter of its value text
_SCHEMA = {
    "equation": str,
    **dict.fromkeys(PARAMETERS, _finite),
    "a": _finite,
    "b": _finite,
    "t_end": _finite,
    "h": _finite,
    "n": int,
    "tau": _finite,
    "epsilon": _finite,
    "max_iters": int,
    "snapshots": _finite_list,
    "output_path": str,
    "compare_exact": _bool,
    "run_oracle": _bool,
}


# the longest file name, in bytes, that common file systems (ext4, XFS, APFS) accept
NAME_MAX = 255


def _profile_name(t) -> str:
    """File name of the profile that `solve` writes for the state at time t."""
    return f"profile_t{t:.6f}.csv"


def parse_config(text: str) -> RunConfig:
    """Parse the key = value run format (one key per line, # comments) into its run.

    Every bad setting, the domain, the grid and the equation parameter included,
    raises ConfigError here, before anything is run or written.
    """
    raw = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError("expected 'key = value'", line=lineno)
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _SCHEMA:
            raise ConfigError(f"unknown key {key!r}", line=lineno)
        if key in raw:
            raise ConfigError(f"duplicate key {key!r}", line=lineno)
        if value.startswith('"'):
            closing = value.find('"', 1)
            if closing < 0:
                raise ConfigError("unterminated string", line=lineno, field=key)
            trailing = value[closing + 1 :].strip()
            if trailing and not trailing.startswith("#"):
                raise ConfigError("unexpected text after string", line=lineno, field=key)
            value = value[1:closing]
        else:
            value = value.split("#", 1)[0].strip()
            if not value:
                raise ConfigError("empty value", line=lineno, field=key)
        try:
            raw[key] = _SCHEMA[key](value)
        except ValueError as exc:
            raise ConfigError(str(exc), line=lineno, field=key) from exc

    equation = raw.pop("equation", None)
    if equation is None:
        raise ConfigError("missing required key", field="equation")
    if equation not in REGISTRY:
        raise ConfigError(
            f"unknown equation {equation!r}; choose one of {', '.join(REGISTRY)}",
            field="equation",
        )

    params = {name: raw.pop(name) for name in PARAMETERS if name in raw}
    wanted = REGISTRY[equation][1]
    for name in params:
        if name != wanted:
            owner = ", ".join(eq for eq, (_, p) in REGISTRY.items() if p == name)
            raise ConfigError(
                f"parameter {name!r} does not apply to {equation!r} (it belongs to {owner})",
                field=name,
            )
    if wanted is not None and wanted not in params:
        raise ConfigError(f"{equation!r} requires parameter {wanted!r}", field=wanted)

    for name in ("t_end", "tau"):
        if name not in raw:
            raise ConfigError("missing required key", field=name)
    if ("h" in raw) == ("n" in raw):
        raise ConfigError("give exactly one of 'h' or 'n'", field="h")
    domain = {name: raw.pop(name) for name in ("a", "b") if name in raw}
    try:
        step = StepConfig(raw.pop("tau"), raw.pop("epsilon", StepConfig.epsilon),
                          raw.pop("max_iters", StepConfig.max_corrector_iters))
        time_levels(step.tau, raw["t_end"], raw.get("snapshots"))
        horizon = raw["t_end"] if raw["t_end"] > 0.0 else step.tau
        problem = REGISTRY[equation][0](**params, **domain, horizon=horizon)
        if "h" in raw:
            grid = Grid.with_spacing(problem.a, problem.b, raw["h"])
        else:
            grid = Grid.uniform(problem.a, problem.b, raw["n"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    written = {}  # profile file name -> (level, snapshot time)
    field = "snapshots" if raw.get("snapshots") else "t_end"
    for t in raw.get("snapshots") or (raw["t_end"],):
        k = level_index(t, step.tau)
        name = _profile_name(k * step.tau)  # run's state time at level k
        if len(name) > NAME_MAX:  # an ASCII name: one byte a character
            raise ConfigError(f"time {t!r} would write a profile name of {len(name)} bytes, "
                              f"more than the {NAME_MAX} a file system accepts", field=field)
        level, first = written.setdefault(name, (k, t))
        if level != k:
            raise ConfigError(f"snapshots {first!r} and {t!r} would both write {name}",
                              field="snapshots")
    return RunConfig(equation=equation, params=params, problem=problem, grid=grid, step=step,
                     **raw)


def _cell(value) -> str:
    """A value's CSV cell: a float in scientific notation with 16 significant
    digits, an integer or text as it is, None empty."""
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.15e}"
    return str(value)


def _write_csv(path: Path, notes, rows):
    """Write an RFC 4180 table in ASCII with "\\n" line ends: each note as a raw
    "# " line, then a header of the first row's keys, then one line per row of
    named values, each cell as `_cell` gives it; a cell that holds a comma or a
    quote is quoted."""
    with path.open("w", encoding="ascii", newline="") as file:
        file.writelines(f"# {note}\n" for note in notes)
        writer = csv.DictWriter(file, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows({name: _cell(value) for name, value in row.items()} for row in rows)


def _config_notes(config: RunConfig):
    pieces = [f"equation = {config.equation}"]
    pieces += [f"{k} = {v:g}" for k, v in sorted(config.params.items())]
    pieces.append(f"domain = [{config.problem.a:g}, {config.problem.b:g}]")
    pieces.append(f"tau = {config.step.tau:g}")
    if config.h is not None:
        pieces.append(f"h = {config.h:g}")
    else:
        pieces.append(f"n = {config.n}")
    pieces.append(f"t_end = {config.t_end:g}")
    return ("generated by drbem1d solve", "; ".join(pieces))


def cmd_solve(config: RunConfig) -> int:
    """Run one configured problem; write per-snapshot profiles and a summary CSV."""
    problem, grid, step = config.problem, config.grid, config.step
    trajectory = run(problem, grid, step, config.t_end, snapshots=config.snapshots)
    oracles = [None] * len(trajectory.states)
    if config.run_oracle:
        oracle = fd_oracle(problem, grid, step, config.t_end, snapshots=config.snapshots)
        oracles = [s.u for s in oracle.states]

    out_dir = Path(config.output_path)
    out_dir.mkdir(parents=True, exist_ok=True)
    notes = _config_notes(config)

    iters = trajectory.level_iterations
    summary_rows = []
    for state, oracle in zip(trajectory.states, oracles):
        exact = None
        if config.compare_exact and problem.exact is not None:
            exact = np.asarray(problem.exact(grid.nodes, state.t), dtype=float)

        columns = {"x": grid.nodes, "u_numeric": state.u}
        if exact is not None:
            columns |= {"u_exact": exact, "abs_error": np.abs(exact - state.u)}
        if oracle is not None:
            columns["u_oracle"] = oracle
        _write_csv(out_dir / _profile_name(state.t), notes,
                   [dict(zip(columns, cells)) for cells in zip(*columns.values())])

        report = compute_errors(state.u, exact, time=state.t) if exact is not None else None
        k = level_index(state.t, step.tau)  # level k took iters[k - 1] passes
        row = {
            "t": state.t,
            "l_inf": report.l_inf if report else None,
            "rms": report.rms if report else None,
            "corrector_iters": iters[k - 1] if k > 0 else 0,
            "corrector_iters_max_to_t": max(iters[:k], default=0),
        }
        if oracle is not None:
            oracle_report = compute_errors(oracle, exact, time=state.t) if exact is not None else None
            row["l_inf_oracle"] = oracle_report.l_inf if oracle_report else None
            row["drbem_vs_oracle"] = compute_errors(state.u, oracle).l_inf
        summary_rows.append(row)

    _write_csv(out_dir / "summary.csv", notes, summary_rows)
    log.info("wrote %d profiles to %s", len(trajectory.states), out_dir)
    return 0


def _run_benchmark(bench: Benchmark, out_dir: Path) -> int:
    results = sweep([(row.problem, row.h, row.tau) for row in bench.rows], bench.t_end,
                    track_peak=bench.track_peak)

    with_reference = any(row.reference_l_inf is not None for row in bench.rows)
    csv_rows = []
    for row, res in zip(bench.rows, results):
        if res.failure is not None:
            log.error("benchmark row %s failed: %s", dict(row.labels), res.failure)
        cells = dict(row.labels) | {"l_inf": res.l_inf, "rms": res.rms, "observed_order": res.order}
        if bench.track_peak:
            cells["l_inf_peak"] = res.peak
        if with_reference:
            rel_dev = None
            if res.l_inf is not None and row.reference_l_inf:
                rel_dev = (res.l_inf - row.reference_l_inf) / row.reference_l_inf
            cells |= {"l_inf_reference": row.reference_l_inf, "rms_reference": row.reference_rms,
                      "l_inf_rel_dev": rel_dev}
        cells["iters_max"] = res.iters_max
        cells["status"] = "ok" if res.failure is None else f"error: {res.failure}"
        csv_rows.append(cells)

    notes = (f"generated by drbem1d reproduce {bench.name}",) + bench.notes
    _write_csv(out_dir / f"{bench.name}.csv", notes, csv_rows)
    return 2 if any(res.failure is not None for res in results) else 0


def cmd_reproduce(table: str, out_dir=".") -> int:
    """Run one named benchmark sweep and emit its CSV."""
    if table not in BENCHMARKS:
        raise ConfigError(f"unknown benchmark {table!r}; choose one of {sorted(BENCHMARKS)}")
    bench = BENCHMARKS[table]()
    out_path = Path(out_dir)
    out_path.mkdir(parents=True, exist_ok=True)
    status = _run_benchmark(bench, out_path)
    print(f"{bench.name}: wrote {out_path / (bench.name + '.csv')}")
    return status


def _check_lines():
    """Yield (name, ok, detail) for the invariant self-test battery."""
    # the first 20 points of the R2 low-discrepancy sequence in [0, 1)^2: evenly
    # spread samples without a random draw, so without numpy.random's import
    points = (0.5 + np.arange(1, 21)[:, None] * [0.7548776662466927, 0.5698402909980532]) % 1.0

    for n in (3, 9, 33):
        grid = Grid.uniform(0.0, 1.0, n)
        worst = max(harmonic_identity_check(grid, *pair) for pair in 6.0 * points[:10] - 3.0)
        yield f"harmonic identity (N={n})", worst <= 1e-12, f"max residual {worst:.2e}"

    radii = np.linspace(0.03, 2.97, 50)
    step = 1e-4
    second_diff = (psi(radii + step) - 2.0 * psi(radii) + psi(radii - step)) / step**2
    rel = float(np.max(np.abs(second_diff - phi(radii)) / np.abs(phi(radii))))
    yield "psi'' = phi (50 radii)", rel <= 1e-5, f"max rel defect {rel:.2e}"

    catalog = (
        ("fitzhugh_nagumo(0.75)", make_fitzhugh_nagumo(0.75, horizon=1.0)),
        ("generalized_fn(1)", make_generalized_fn(1.0)),
        ("generalized_fisher(1)", make_generalized_fisher(1.0)),
        ("generalized_fisher(2)", make_generalized_fisher(2.0)),
    )
    for name, problem in catalog:
        low, high = np.array([[problem.a + 0.1, 0.1], [problem.b - 0.1, 0.9 * problem.horizon]])
        worst = max(abs(residual_check(problem, problem.exact, x, t, 1e-3))
                    for x, t in low + (high - low) * points)
        yield f"exact-solution residual {name}", worst <= 1e-4, f"max |residual| {worst:.2e}"

    fisher = make_generalized_fisher(1.0)
    rejected = transcribed_fisher_wave(1.0)
    r_coarse = abs(residual_check(fisher, rejected, 0.3, 0.5, 1e-2))
    r_fine = abs(residual_check(fisher, rejected, 0.3, 0.5, 5e-3))
    stalls = r_fine > 1e-3 and r_coarse / max(r_fine, 1e-300) < 2.0
    yield (
        "transcribed fisher wave rejected",
        stalls,
        f"residual stalls at {r_fine:.2e} under refinement (validated wave accepted above)",
    )

    # run against the three-point oracle to t = 0.2 on 17 nodes, uniform and graded
    # (spacings 1/2 to 3/2 of uniform): fisher takes dpttrs, generalized_fn the
    # band's dgbtrf and dtbsv; the bound is criterion 6's C h_max^2, C = 0.1
    uniform = np.linspace(0.0, 1.0, 17)
    cfg, constants = StepConfig(tau=0.01), []
    for problem in (make_fisher(), make_generalized_fn(1.0)):
        for spacing in (uniform, uniform - np.sin(2.0 * np.pi * uniform) / (4.0 * np.pi)):
            grid = Grid(problem.a + (problem.b - problem.a) * spacing)
            distance = np.max(np.abs(run(problem, grid, cfg, 0.2).states[-1].u
                                     - fd_oracle(problem, grid, cfg, 0.2).states[-1].u))
            constants.append(distance / np.diff(grid.nodes).max() ** 2)
    yield ("run = fd_oracle within 0.1 h_max^2 (fisher, generalized_fn(1))", max(constants) <= 0.1,
           f"distance / h_max^2 {', '.join(f'{c:.2e}' for c in constants)} (uniform, graded each)")


def cmd_check() -> int:
    """Run the invariant self-test battery, printing one line per check."""
    failures = 0
    for name, ok, detail in _check_lines():
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
        if not ok:
            failures += 1
    print(f"{'all checks passed' if failures == 0 else f'{failures} check(s) FAILED'}")
    return 0 if failures == 0 else 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _read_config(path) -> str:
    """The text of a config file: UTF-8, a leading byte-order mark dropped."""
    data = Path(path).read_bytes()
    try:  # utf-8-sig, but with error offsets counted from the start of the file
        return data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text (byte 0x{data[exc.start]:02x} "
                          f"at offset {exc.start})") from None


def _build_parser() -> _Parser:
    parser = _Parser(prog="drbem1d", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run a problem described by a config file")
    p_solve.add_argument("config", help="path to a key = value run configuration")
    p_solve.set_defaults(handler=lambda args: cmd_solve(parse_config(_read_config(args.config))))

    p_repro = sub.add_parser("reproduce", help="run a named benchmark sweep")
    p_repro.add_argument("table", choices=sorted(BENCHMARKS))
    p_repro.add_argument("--out", default=".", help="output directory (default: .)")
    p_repro.set_defaults(handler=lambda args: cmd_reproduce(args.table, args.out))

    p_check = sub.add_parser("check", help="run the invariant self-test battery")
    p_check.set_defaults(handler=lambda args: cmd_check())
    return parser


def _setup_logging():
    level_name = os.environ.get(LOG_ENV, "WARNING").upper()
    level = getattr(logging, level_name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def main(argv=None) -> int:
    _setup_logging()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        # a failure is reported by its exit code and one line below, so numpy's
        # floating-point warnings (an exact solution that overflows, say) are noise
        with np.errstate(all="ignore"):
            return args.handler(args)
    except ConfigError as exc:
        print(f"drbem1d: {exc}", file=sys.stderr)
        return 1
    except SolverError as exc:
        print(f"drbem1d: solver failure: {exc}", file=sys.stderr)
        return 2
    except DrbemError as exc:
        print(f"drbem1d: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"drbem1d: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"drbem1d: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
