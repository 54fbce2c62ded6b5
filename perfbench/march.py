"""One pass over a workload through the public drbem1d API.

The reference pass is what a user runs: assemble the operators once per grid,
hand them to ``run``, and measure the errors of the states it returns.  The
replay pass does the same work but replays ``run``'s level loop through
``build_level_system`` and ``corrector_solve``, so that a recorder sees every
call: a ``Clock`` reads the time after each setup call, level and error
evaluation (the segments the end-to-end times are built from), and a
``Tracer`` keeps a span around every library call and times the reaction and
the exact solution through a ``dataclasses.replace`` copy of the problem.
Every replay must reproduce the reference pass bit for bit.
"""

from __future__ import annotations

import dataclasses
import math
import statistics
from collections import Counter, defaultdict
from time import perf_counter
from typing import Optional

import numpy as np

from drbem1d import (
    DrbemError,
    assemble_drbem,
    assemble_interpolation,
    build_level_system,
    compute_errors,
    corrector_solve,
    run,
)

INTERPOLATION = "rbf.assemble_interpolation"
OPERATORS = "assembly.assemble_drbem"
LEVEL = "stepping.level"
BUILD = "stepping.build_level_system"
CORRECTOR = "stepping.corrector_solve"
REACTION = "problems.reaction"
EXACT = "problems.exact"
ERRORS = "verification.compute_errors"


@dataclasses.dataclass
class CaseResult:
    """What one case produced; `error` names a library failure, None otherwise."""

    case_id: str
    u: Optional[np.ndarray] = None
    errors: list = dataclasses.field(default_factory=list)  # sup-norm error per recorded level
    passes: list = dataclasses.field(default_factory=list)  # corrector passes per level
    error: Optional[str] = None


@dataclasses.dataclass
class Pass:
    """One pass over every case of a workload."""

    wall_s: float
    setup_s: float
    levels: int
    cases: list
    factorizations: int = 0
    level_bytes: int = 0
    operator_bytes: int = 0
    segments: Optional[np.ndarray] = None  # seconds between Clock readings, from the start


def array_bytes(*roots) -> int:
    """nbytes of every distinct array reachable through dataclass fields and tuples."""
    seen = set()
    total = 0
    stack = list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            total += obj.nbytes
        elif isinstance(obj, (tuple, list)):
            stack.extend(obj)
        elif dataclasses.is_dataclass(obj):
            stack.extend(getattr(obj, f.name) for f in dataclasses.fields(obj))
    return total


def _failure(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def reference_pass(workload) -> Pass:
    start = perf_counter()
    ops, failed_grids = {}, {}
    for grid in workload.grids:
        try:
            ops[id(grid)] = assemble_drbem(grid, assemble_interpolation(grid))
        except DrbemError as exc:
            failed_grids[id(grid)] = _failure(exc)
    setup_s = perf_counter() - start

    results = []
    for case in workload.cases:
        result = CaseResult(case.case_id, error=failed_grids.get(id(case.grid)))
        results.append(result)
        if result.error is not None:
            continue
        tau = case.cfg.tau
        snapshots = [k * tau for k in range(1, case.levels + 1)] if case.track_peak else None
        try:
            traj = run(case.problem, case.grid, case.cfg, case.t_end,
                       snapshots=snapshots, ops=ops[id(case.grid)])
            result.errors = [
                compute_errors(s.u, case.problem.exact(case.grid.nodes, s.t), time=s.t).l_inf
                for s in traj.states
            ]
        except DrbemError as exc:
            result.error = _failure(exc)
            continue
        result.u = traj.states[-1].u
        result.passes = list(traj.level_iterations)
    wall_s = perf_counter() - start
    return Pass(wall_s, setup_s, sum(c.levels for c in workload.cases), results)


class Clock:
    """Clock readings after every setup call, level and error evaluation.

    Nothing is wrapped and no span is kept, so a replay under a Clock costs one
    clock reading per segment more than ``run`` does.
    """

    MARKED = frozenset({INTERPOLATION, OPERATORS, LEVEL, ERRORS})

    def __init__(self):
        self.marks = []
        self.case = ""

    def call(self, name, fn, *args, **kwargs):
        out = fn(*args, **kwargs)
        if name in self.MARKED:
            self.marks.append(perf_counter())
        return out

    def wrap(self, name, fn):
        return fn


class Tracer:
    """In-memory spans: (name, start, end, parent span index or -1, case id)."""

    def __init__(self):
        self.spans = []
        self.case = ""
        self._open = []

    def call(self, name, fn, *args, **kwargs):
        """fn(*args, **kwargs) inside a span; the span is listed before its children."""
        index = len(self.spans)
        self.spans.append(None)
        parent = self._open[-1] if self._open else -1
        self._open.append(index)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._open.pop()
            self.spans[index] = (name, start, end, parent, self.case)

    def wrap(self, name, fn):
        def timed(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return timed


def _level(tracer, problem, grid, ops, cfg, t_n, u, prev):
    system = tracer.call(BUILD, build_level_system, problem, grid, ops, cfg, t_n, u,
                         prev_system=prev)
    state, iters = tracer.call(CORRECTOR, corrector_solve, system, problem, cfg, u)
    return system, state, iters


def _replay(case, ops, tracer, out: Pass, result: CaseResult):
    """run()'s level loop, with each library call passed through the recorder."""
    problem = dataclasses.replace(
        case.problem,
        reaction=dataclasses.replace(
            case.problem.reaction,
            nonlinear=tracer.wrap(REACTION, case.problem.reaction.nonlinear),
        ),
        exact=tracer.wrap(EXACT, case.problem.exact),
    )
    grid, cfg = case.grid, case.cfg
    u = np.asarray(problem.initial(grid.nodes), dtype=float).copy()
    u[0] = float(problem.bc_left(0.0))
    u[-1] = float(problem.bc_right(0.0))
    system = None
    for k in range(1, case.levels + 1):
        t_n = k * cfg.tau
        prev = system
        system, state, iters = tracer.call(LEVEL, _level, tracer, problem, grid, ops, cfg, t_n,
                                           u, prev)
        result.passes.append(iters)
        if prev is None or system.factorization is not prev.factorization:
            out.factorizations += 1
        u = state.u
        if case.track_peak or k == case.levels:
            exact = problem.exact(grid.nodes, t_n)
            report = tracer.call(ERRORS, compute_errors, u, exact, time=t_n)
            result.errors.append(report.l_inf)
    result.u = u
    out.level_bytes = max(out.level_bytes, array_bytes(system))


def replay_pass(workload, tracer) -> Pass:
    """One pass through _replay; `tracer` is a Clock or a Tracer."""
    start = perf_counter()
    tracer.case = "setup"
    ops, interps, failed_grids = {}, [], {}
    for grid in workload.grids:
        try:
            interps.append(tracer.call(INTERPOLATION, assemble_interpolation, grid))
            ops[id(grid)] = tracer.call(OPERATORS, assemble_drbem, grid, interps[-1])
        except DrbemError as exc:
            failed_grids[id(grid)] = _failure(exc)
    setup_s = perf_counter() - start

    out = Pass(0.0, setup_s, sum(c.levels for c in workload.cases), [])
    out.operator_bytes = array_bytes(*interps, *ops.values())
    for case in workload.cases:
        result = CaseResult(case.case_id, error=failed_grids.get(id(case.grid)))
        out.cases.append(result)
        if result.error is not None:
            continue
        tracer.case = case.case_id
        try:
            tracer.call("case", _replay, case, ops[id(case.grid)], tracer, out, result)
        except DrbemError as exc:
            result.error = _failure(exc)
    out.wall_s = perf_counter() - start

    if isinstance(tracer, Clock):
        out.segments = np.diff([start, *tracer.marks])
    else:
        # Counted from the spans, independently of what corrector_solve returned.
        passes = span_passes(tracer.spans)
        for result in out.cases:
            result.passes = passes.get(result.case_id, [])
    return out


def span_passes(spans) -> dict:
    """Corrector passes per level and case, counted as reaction spans per corrector span."""
    slot = {}
    passes = defaultdict(list)
    for i, (name, _, _, _, case) in enumerate(spans):
        if name == CORRECTOR:
            slot[i] = len(passes[case])
            passes[case].append(0)
    for name, _, _, parent, case in spans:
        if name == REACTION and parent in slot:
            passes[case][slot[parent]] += 1
    return dict(passes)


def span_times(spans):
    """Per span name: summed duration, summed self time (duration minus child spans), count."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    total, own, calls = Counter(), Counter(), Counter()
    for i, (name, start, end, _, _) in enumerate(spans):
        total[name] += end - start
        own[name] += end - start - child[i]
        calls[name] += 1
    return total, own, calls


def tail_percentile(samples):
    """(percentile, value) at the highest of 50/90/99/99.9/... with >= 10 samples above it."""
    ordered = sorted(samples)
    n = len(ordered)
    best = (50.0, statistics.median(ordered))
    for pct in (90.0, 99.0, 99.9, 99.99):
        rank = math.ceil(pct / 100.0 * n)  # nearest-rank
        if n - rank < 10:
            break
        best = (pct, ordered[rank - 1])
    return best
