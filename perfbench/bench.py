"""Repeats passes over one workload, gates every case, and reports the metrics.

End-to-end times are built from segments: each setup call, each level and each
error evaluation of a Clock-timed replay pass.  Per segment the fastest pass
counts, and the segments are summed.  A whole pass is too long for that: on a
shared host a core can run 1.6x slower for seconds at a time, so the median
pass time follows the host's slow share rather than the program, while each
segment's fastest reading repeats to a few percent.  The raw pass times are
kept in the run's record.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

from march import (BUILD, CORRECTOR, ERRORS, EXACT, INTERPOLATION, LEVEL, OPERATORS, REACTION,
                   Clock, Tracer, reference_pass, replay_pass, span_times, tail_percentile)
from workloads import make_workload

OUT = Path(__file__).resolve().parent / "out"

# metric -> span name; the span time is summed per traced pass, then the
# median over traced passes is reported.
SPAN_SECONDS = {
    "rbf.assemble_interpolation.s": INTERPOLATION,
    "assembly.assemble_drbem.s": OPERATORS,
    "stepping.build_level_system.s": BUILD,
    "problems.reaction.s": REACTION,
    "problems.exact.s": EXACT,
    "verification.compute_errors.s": ERRORS,
}
# metric -> span name; the number of spans in one traced pass.
SPAN_COUNTS = {
    "rbf.assemble_interpolation.calls": INTERPOLATION,
    "stepping.levels": LEVEL,
    "problems.reaction.calls": REACTION,
    "verification.compute_errors.calls": ERRORS,
}


def check_case(case, result, tolerance, reference=None) -> list:
    """Reasons the case fails the gate; `reference` is a result it must equal bit for bit."""
    if result.error is not None:
        return [result.error]
    reasons = []
    if not (np.all(np.isfinite(result.u)) and np.all(np.isfinite(result.errors))):
        reasons.append("non-finite state or error")
    if not result.errors[-1] <= tolerance:
        reasons.append(f"final error {result.errors[-1]:.6e} above tolerance {tolerance:.3e}")
    if len(result.passes) != case.levels:
        reasons.append(f"{len(result.passes)} levels counted, expected {case.levels}")
    if reference is not None and reference.error is None:
        if not np.array_equal(result.u, reference.u):
            reasons.append("final state differs from the reference pass")
        if result.errors != reference.errors:
            reasons.append("per-level errors differ from the reference pass")
        if result.passes != reference.passes:
            reasons.append("corrector passes per level differ from the reference pass")
    return reasons


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def _metric(value, unit):
    return {"value": value, "unit": unit}


def best_segments(passes):
    """Per segment, the fastest reading over the passes that completed every case."""
    complete = [p.segments for p in passes if all(c.error is None for c in p.cases)]
    return np.min(complete, axis=0) if complete else None


def end_to_end(workload, reference, timed, peak_rss_mb) -> dict:
    final_errors = [c.errors[-1] for c in reference.cases if c.error is None]
    best = best_segments(timed)
    wall_s = setup_s = levels_per_s = None
    if best is not None:
        wall_s = float(best.sum())
        setup_s = float(best[:2 * len(workload.grids)].sum())  # two setup calls per grid
        levels_per_s = reference.levels / (wall_s - setup_s)
    return {
        "wall_s": _metric(wall_s, "s"),
        "setup_s": _metric(setup_s, "s"),
        "levels_per_s": _metric(levels_per_s, "1/s"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
        "err_linf": _metric(max(final_errors, default=None), "abs"),
    }


def per_layer(timed, traced, tracers) -> dict:
    timings = [span_times(t.spans) for t in tracers]
    metrics = {
        name: _metric(_median(total[span] for total, _, _ in timings), "s")
        for name, span in SPAN_SECONDS.items()
    }
    calls = timings[0][2]
    metrics.update({name: _metric(calls[span], "count") for name, span in SPAN_COUNTS.items()})

    first = traced[0]
    level_passes = [n for c in first.cases for n in c.passes]
    passes = sum(level_passes)
    level_ms = [1e3 * (end - start) for t in tracers
                for name, start, end, _, _ in t.spans if name == LEVEL]
    tail_pct, tail_ms = tail_percentile(level_ms) if level_ms else (None, None)
    corrector_s = _median(total[CORRECTOR] for total, _, _ in timings)
    metrics.update({
        "assembly.operator_bytes": _metric(first.operator_bytes, "B"),
        "stepping.factorizations": _metric(first.factorizations, "count"),
        "stepping.level_bytes": _metric(first.level_bytes, "B"),
        "stepping.corrector_solve.self_s": _metric(
            _median(own[CORRECTOR] for _, own, _ in timings), "s"),
        "stepping.passes": _metric(passes, "count"),
        "stepping.passes_per_level": _metric(
            passes / len(level_passes) if level_passes else None, "count"),
        "stepping.passes_max": _metric(max(level_passes, default=None), "count"),
        "stepping.pass_us": _metric(1e6 * corrector_s / passes if passes else None, "us"),
        "stepping.level_ms_p50": _metric(_median(level_ms), "ms"),
        "stepping.level_ms_tail": _metric(tail_ms, "ms"),
        "stepping.level_ms_tail_pct": _metric(tail_pct, "%"),
        "stepping.level_samples": _metric(len(level_ms), "count"),
        "trace.overhead": _metric(
            _median(p.wall_s for p in traced) / _median(p.wall_s for p in timed) - 1.0,
            "ratio"),
    })
    return metrics


def environment(args, cores, thread_vars) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "nproc": cores,
        "blas_threads": {var: os.environ.get(var) for var in thread_vars},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _pass_record(kind, p) -> dict:
    return {
        "kind": kind,
        "wall_s": p.wall_s,
        "setup_s": p.setup_s,
        "levels": p.levels,
        "cases": [{"case": c.case_id, "final_error": c.errors[-1] if c.errors else None,
                   "passes": sum(c.passes), "error": c.error} for c in p.cases],
    }


def write_spans(path, tracers):
    """Spans as columns: pass, name and case (codes into `names` / `cases`), start,
    end, parent (index within the pass, -1 at the top)."""
    rows = [(i, *span) for i, t in enumerate(tracers) for span in t.spans]
    names = sorted({r[1] for r in rows})
    cases = sorted({r[5] for r in rows})
    name_code = {n: k for k, n in enumerate(names)}
    case_code = {c: k for k, c in enumerate(cases)}
    np.savez_compressed(
        path,
        names=np.array(names),
        cases=np.array(cases),
        pass_index=np.array([r[0] for r in rows], dtype=np.int32),
        name=np.array([name_code[r[1]] for r in rows], dtype=np.int16),
        start=np.array([r[2] for r in rows]),
        end=np.array([r[3] for r in rows]),
        parent=np.array([r[4] for r in rows], dtype=np.int32),
        case=np.array([case_code[r[5]] for r in rows], dtype=np.int16),
    )


def measure(args, cores, thread_vars) -> int:
    try:
        workload = make_workload(args.workload, args.seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    # The reference pass goes through run() itself and warms every cache up;
    # each replay after it, timed or traced, must reproduce it bit for bit.
    reference = reference_pass(workload)
    # Peak memory of one pass as a user runs it, before the replays add the
    # results the gate keeps, whose number depends on the host's speed.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    timed, traced, tracers = [], [], []
    start = perf_counter()
    while not timed or perf_counter() - start < args.seconds:
        timed.append(replay_pass(workload, Clock()))
        if args.trace:
            tracers.append(Tracer())
            traced.append(replay_pass(workload, tracers[-1]))

    checks = [("reference", reference, None)]
    checks += [(f"timed[{i}]", p, reference) for i, p in enumerate(timed)]
    checks += [(f"traced[{i}]", p, reference) for i, p in enumerate(traced)]
    failures = []
    for label, p, ref in checks:
        for j, (case, result) in enumerate(zip(workload.cases, p.cases)):
            reasons = check_case(case, result, workload.tolerance,
                                 ref.cases[j] if ref is not None else None)
            if reasons:
                failures.append(f"{label} {case.case_id}: {'; '.join(reasons)}")
    attempted = len(checks) * len(workload.cases)

    metrics = (per_layer(timed, traced, tracers) if args.trace
               else end_to_end(workload, reference, timed, peak_rss_mb))
    pass_median_s = _median(p.wall_s for p in timed)
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": metrics}
    env = environment(args, cores, thread_vars)

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    record = {"environment": env, "result": result, "failures": failures,
              "pass_median_s": pass_median_s,
              "passes": [_pass_record("reference", reference)]
              + [_pass_record("timed", p) for p in timed]
              + [_pass_record("traced", p) for p in traced]}
    (OUT / f"{stem}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    if args.trace:
        write_spans(OUT / f"{stem}.spans.npz", tracers)

    print("# environment " + json.dumps(env))
    for name, m in metrics.items():
        print(f"{name:36s} {m['value']!s:>24} {m['unit']}")
    print(f"# median pass time {pass_median_s:.6g} s over {len(timed)} timed passes"
          " (host noise included; not a metric)")
    print(f"{'fail_ratio':36s} {len(failures) / attempted:>24} ({len(failures)}/{attempted} cases)")
    for line in failures[:20]:
        print("FAILED " + line)
    print(json.dumps(result))
    return 0 if not failures else 1
