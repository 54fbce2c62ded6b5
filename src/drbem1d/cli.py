"""Command-line front end: config-driven runs, benchmark reproduction, self checks.

Exit codes: 0 success, 1 usage or configuration, 2 solver failure, 3 I/O failure.
Log verbosity comes from the DRBEM1D_LOG environment variable (DEBUG..CRITICAL).
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .assembly import assemble_drbem, harmonic_identity_check
from .exceptions import ConfigError, DrbemError, SolverError
from .presets import BENCHMARKS, Benchmark
from .problems import (
    REGISTRY,
    PdeProblem,
    default_domain,
    make_fitzhugh_nagumo,
    make_generalized_fisher,
    make_generalized_fn,
    residual_check,
    transcribed_fisher_wave,
)
from .rbf import Grid, assemble_interpolation, interpolation_coefficients, phi, psi
from .stepping import StepConfig, level_index, run
from .verification import compute_errors, fd_oracle, sweep

log = logging.getLogger("drbem1d")

LOG_ENV = "DRBEM1D_LOG"

# names of the equation parameters, each one a float config key
PARAMETERS = tuple(dict.fromkeys(p for _, p in REGISTRY.values() if p is not None))


@dataclass
class RunConfig:
    """Validated parameters of one solver run."""

    equation: str
    params: dict
    a: float
    b: float
    t_end: float
    tau: float
    h: float | None = None
    n: int | None = None
    epsilon: float = StepConfig.epsilon
    max_iters: int = StepConfig.max_corrector_iters
    snapshots: tuple = ()
    output_path: str = "."
    compare_exact: bool = True
    run_oracle: bool = False


_SCHEMA = {
    "equation": str,
    **dict.fromkeys(PARAMETERS, float),
    "a": float,
    "b": float,
    "t_end": float,
    "h": float,
    "n": int,
    "tau": float,
    "epsilon": float,
    "max_iters": int,
    "snapshots": "float_list",
    "output_path": str,
    "compare_exact": bool,
    "run_oracle": bool,
}


def _convert(key, value, lineno):
    kind = _SCHEMA[key]
    try:
        if kind is str:
            return value
        if kind is bool:
            lowered = value.lower()
            if lowered in ("true", "yes", "1"):
                return True
            if lowered in ("false", "no", "0"):
                return False
            raise ValueError(f"expected true/false, got {value!r}")
        if kind is int:
            return int(value)
        if kind is float:
            return float(value)
        if kind == "float_list":
            return tuple(float(part) for part in value.split(",") if part.strip())
    except ValueError as exc:
        raise ConfigError(str(exc), line=lineno, field=key) from exc
    raise AssertionError(f"unhandled schema kind for {key}")


def parse_config(text: str) -> RunConfig:
    """Parse and validate the key = value run format (one key per line, # comments)."""
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
        raw[key] = (_convert(key, value, lineno), lineno)

    def take(key, default=None):
        return raw.pop(key)[0] if key in raw else default

    equation = take("equation")
    if equation is None:
        raise ConfigError("missing required key", field="equation")
    if equation not in REGISTRY:
        raise ConfigError(
            f"unknown equation {equation!r}; choose one of {', '.join(REGISTRY)}",
            field="equation",
        )

    params = {name: take(name) for name in PARAMETERS if name in raw}
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

    t_end = take("t_end")
    tau = take("tau")
    for name, value in (("t_end", t_end), ("tau", tau)):
        if value is None:
            raise ConfigError("missing required key", field=name)
    if t_end < 0.0:
        raise ConfigError("t_end must be nonnegative", field="t_end")
    if tau <= 0.0:
        raise ConfigError("tau must be positive", field="tau")

    default_a, default_b = default_domain(equation)
    a = take("a", default_a)
    b = take("b", default_b)
    if not a < b:
        raise ConfigError(f"need a < b, got [{a}, {b}]", field="a")

    h = take("h")
    n = take("n")
    if (h is None) == (n is None):
        raise ConfigError("give exactly one of 'h' or 'n'", field="h")
    if h is not None and h <= 0.0:
        raise ConfigError("h must be positive", field="h")
    if n is not None and n < 3:
        raise ConfigError("n must be at least 3", field="n")

    epsilon = take("epsilon", StepConfig.epsilon)
    max_iters = take("max_iters", StepConfig.max_corrector_iters)
    if epsilon <= 0.0:
        raise ConfigError("epsilon must be positive", field="epsilon")
    if max_iters < 1:
        raise ConfigError("max_iters must be at least 1", field="max_iters")

    snapshots = take("snapshots", (t_end,))
    for s in snapshots:
        if s < 0.0 or s > t_end + 1e-12 * max(1.0, t_end):
            raise ConfigError(f"snapshot {s} outside [0, {t_end}]", field="snapshots")
        try:
            level_index(s, tau)
        except ValueError as exc:
            raise ConfigError(str(exc), field="snapshots") from exc
    try:
        level_index(t_end, tau)
    except ValueError as exc:
        raise ConfigError(str(exc), field="t_end") from exc

    output_path = take("output_path", ".")
    compare_exact = take("compare_exact", True)
    run_oracle = take("run_oracle", False)
    assert not raw, f"schema drift: {sorted(raw)}"

    return RunConfig(
        equation=equation,
        params=params,
        a=a,
        b=b,
        t_end=t_end,
        tau=tau,
        h=h,
        n=n,
        epsilon=epsilon,
        max_iters=max_iters,
        snapshots=tuple(snapshots),
        output_path=output_path,
        compare_exact=compare_exact,
        run_oracle=run_oracle,
    )


def build_problem(config: RunConfig) -> PdeProblem:
    factory = REGISTRY[config.equation][0]
    horizon = config.t_end if config.t_end > 0.0 else config.tau
    try:
        return factory(**config.params, a=config.a, b=config.b, horizon=horizon)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def build_grid(config: RunConfig) -> Grid:
    try:
        if config.h is not None:
            return Grid.with_spacing(config.a, config.b, config.h)
        return Grid.uniform(config.a, config.b, config.n)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _fmt(value) -> str:
    """Scientific notation with 16 significant digits; empty for missing values."""
    if value is None:
        return ""
    return f"{value:.15e}"


def _write_csv(path: Path, notes, columns, rows):
    lines = [f"# {note}" for note in notes]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(row))
    path.write_text("\n".join(lines) + "\n", encoding="ascii", newline="\n")


def _config_notes(config: RunConfig):
    pieces = [f"equation = {config.equation}"]
    pieces += [f"{k} = {v:g}" for k, v in sorted(config.params.items())]
    pieces.append(f"domain = [{config.a:g}, {config.b:g}]")
    pieces.append(f"tau = {config.tau:g}")
    if config.h is not None:
        pieces.append(f"h = {config.h:g}")
    else:
        pieces.append(f"n = {config.n}")
    pieces.append(f"t_end = {config.t_end:g}")
    return ("generated by drbem1d solve", "; ".join(pieces))


def cmd_solve(config: RunConfig) -> int:
    """Run one configured problem; write per-snapshot profiles and a summary CSV."""
    problem = build_problem(config)
    grid = build_grid(config)
    cfg = StepConfig(tau=config.tau, epsilon=config.epsilon,
                     max_corrector_iters=config.max_iters)
    snapshots = config.snapshots or (config.t_end,)
    trajectory = run(problem, grid, cfg, config.t_end, snapshots=snapshots)

    out_dir = Path(config.output_path)
    out_dir.mkdir(parents=True, exist_ok=True)
    notes = _config_notes(config)

    iters = trajectory.level_iterations
    summary_rows = []
    for state in trajectory.states:
        exact = None
        if config.compare_exact and problem.exact is not None:
            exact = np.asarray(problem.exact(grid.nodes, state.t), dtype=float)
        oracle = None
        if config.run_oracle:
            oracle = fd_oracle(problem, grid.n, config.tau, state.t,
                               epsilon=config.epsilon, max_iters=config.max_iters)

        columns = ["x", "u_numeric"]
        series = [grid.nodes, state.u]
        if exact is not None:
            columns += ["u_exact", "abs_error"]
            series += [exact, np.abs(exact - state.u)]
        if oracle is not None:
            columns.append("u_oracle")
            series.append(oracle)
        profile_rows = [
            [_fmt(col[i]) for col in series] for i in range(grid.n)
        ]
        _write_csv(out_dir / f"profile_t{state.t:.6f}.csv", notes, columns, profile_rows)

        report = compute_errors(state.u, exact, time=state.t) if exact is not None else None
        k = level_index(state.t, config.tau)  # level k took iters[k - 1] passes
        row = {
            "t": _fmt(state.t),
            "l_inf": _fmt(report.l_inf if report else None),
            "rms": _fmt(report.rms if report else None),
            "corrector_iters": str(iters[k - 1] if k > 0 else 0),
            "corrector_iters_max_to_t": str(max(iters[:k], default=0)),
        }
        if oracle is not None:
            oracle_report = compute_errors(oracle, exact, time=state.t) if exact is not None else None
            row["l_inf_oracle"] = _fmt(oracle_report.l_inf if oracle_report else None)
            row["drbem_vs_oracle"] = _fmt(
                float(np.max(np.abs(state.u[1:-1] - oracle[1:-1])))
            )
        summary_rows.append(row)

    summary_columns = list(summary_rows[0].keys())
    _write_csv(
        out_dir / "summary.csv",
        notes,
        summary_columns,
        [[row[c] for c in summary_columns] for row in summary_rows],
    )
    log.info("wrote %d profiles to %s", len(trajectory.states), out_dir)
    return 0


def _run_benchmark(bench: Benchmark, out_dir: Path) -> int:
    results = sweep([(row.problem, row.h, row.tau) for row in bench.rows], bench.t_end,
                    track_peak=bench.track_peak)

    with_reference = any(row.reference_l_inf is not None for row in bench.rows)
    columns = [name for name, _ in bench.rows[0].labels] + ["l_inf", "rms", "observed_order"]
    if bench.track_peak:
        columns.append("l_inf_peak")
    if with_reference:
        columns += ["l_inf_reference", "rms_reference", "l_inf_rel_dev"]
    columns += ["iters_max", "status"]

    csv_rows = []
    for row, res in zip(bench.rows, results):
        if res.failure is not None:
            log.error("benchmark row %s failed: %s", dict(row.labels), res.failure)
        cells = [text for _, text in row.labels]
        cells += [_fmt(res.l_inf), _fmt(res.rms), _fmt(res.order)]
        if bench.track_peak:
            cells.append(_fmt(res.peak))
        if with_reference:
            rel_dev = None
            if res.l_inf is not None and row.reference_l_inf:
                rel_dev = (res.l_inf - row.reference_l_inf) / row.reference_l_inf
            cells += [_fmt(row.reference_l_inf), _fmt(row.reference_rms), _fmt(rel_dev)]
        status = "ok" if res.failure is None else f"error: {res.failure}"
        cells += ["" if res.iters_max is None else str(res.iters_max), status]
        csv_rows.append(cells)

    notes = (f"generated by drbem1d reproduce {bench.name}",) + bench.notes
    _write_csv(out_dir / f"{bench.name}.csv", notes, columns, csv_rows)
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
    rng = np.random.default_rng(2024)

    for n in (3, 9, 33):
        worst = 0.0
        for _ in range(10):
            p, q = rng.uniform(-3.0, 3.0, size=2)
            grid = Grid.uniform(0.0, 1.0, n)
            ops = assemble_drbem(grid, assemble_interpolation(grid))
            worst = max(worst, harmonic_identity_check(ops, grid, p=p, q=q))
        yield f"harmonic identity (N={n})", worst <= 1e-12, f"max residual {worst:.2e}"

    radii = np.linspace(0.03, 2.97, 50)
    step = 1e-4
    second_diff = (psi(radii + step) - 2.0 * psi(radii) + psi(radii - step)) / step**2
    rel = float(np.max(np.abs(second_diff - phi(radii)) / np.abs(phi(radii))))
    yield "psi'' = phi (50 radii)", rel <= 1e-5, f"max rel defect {rel:.2e}"

    grid = Grid.uniform(-1.0, 1.0, 33)
    interp = assemble_interpolation(grid)
    data = rng.standard_normal(grid.n)
    coeffs = interpolation_coefficients(interp, data)
    reproduced = interp.phi_matrix @ coeffs
    rel = float(np.max(np.abs(reproduced - data)) / np.max(np.abs(data)))
    yield "interpolation exactness", rel <= 1e-10, f"max rel defect {rel:.2e}"

    catalog = (
        ("fitzhugh_nagumo(0.75)", make_fitzhugh_nagumo(0.75, horizon=1.0)),
        ("generalized_fn(1)", make_generalized_fn(1.0)),
        ("generalized_fisher(1)", make_generalized_fisher(1.0)),
        ("generalized_fisher(2)", make_generalized_fisher(2.0)),
    )
    for name, problem in catalog:
        worst = 0.0
        for _ in range(20):
            x = rng.uniform(problem.a + 0.1, problem.b - 0.1)
            t = rng.uniform(0.1, 0.9 * problem.horizon)
            worst = max(worst, abs(residual_check(problem, problem.exact, x, t, 1e-3)))
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


def _build_parser() -> _Parser:
    parser = _Parser(prog="drbem1d", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run a problem described by a config file")
    p_solve.add_argument("config", help="path to a key = value run configuration")

    p_repro = sub.add_parser("reproduce", help="run a named benchmark sweep")
    p_repro.add_argument("table", choices=sorted(BENCHMARKS))
    p_repro.add_argument("--out", default=".", help="output directory (default: .)")

    sub.add_parser("check", help="run the invariant self-test battery")
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
        if args.command == "solve":
            try:
                text = Path(args.config).read_text()
            except OSError as exc:
                print(f"drbem1d: {exc}", file=sys.stderr)
                return 3
            return cmd_solve(parse_config(text))
        if args.command == "reproduce":
            return cmd_reproduce(args.table, args.out)
        if args.command == "check":
            return cmd_check()
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"drbem1d: {exc}", file=sys.stderr)
        return 1
    except SolverError as exc:
        print(f"drbem1d: solver failure: {exc}", file=sys.stderr)
        return 2
    except DrbemError as exc:
        print(f"drbem1d: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"drbem1d: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
