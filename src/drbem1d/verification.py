"""Error metrics, an independent finite-difference oracle, and convergence sweeps."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
from scipy.linalg import solve_banded

from .exceptions import ConvergenceError, DrbemError
from .problems import PdeProblem
from .rbf import Grid, assemble_interpolation
from .assembly import assemble_drbem
from .stepping import (StepConfig, initial_values, level_coefficients, level_index, run,
                       time_levels)


@dataclass(frozen=True)
class ErrorReport:
    """Interior-node error norms against a reference solution at one time."""

    l_inf: float
    rms: float
    n_interior: int
    time: float


def compute_errors(numeric, exact_at_nodes, time=math.nan) -> ErrorReport:
    """L-infinity and RMS errors over the interior nodes only.

    The endpoints carry imposed boundary values and are excluded; the RMS
    denominator is the number of compared (interior) nodes.
    """
    numeric = np.asarray(numeric, dtype=float)
    exact = np.asarray(exact_at_nodes, dtype=float)
    if numeric.shape != exact.shape:
        raise ValueError(f"length mismatch: {numeric.shape} vs {exact.shape}")
    if numeric.ndim != 1 or numeric.size < 3:
        raise ValueError("need at least 3 nodes")
    e = exact[1:-1] - numeric[1:-1]
    return ErrorReport(
        l_inf=float(np.max(np.abs(e))),
        rms=float(np.sqrt(np.mean(e * e))),
        n_interior=int(e.size),
        time=float(time),
    )


def fd_oracle(problem: PdeProblem, n_nodes, tau, t_end, epsilon=StepConfig.epsilon,
              max_iters=StepConfig.max_corrector_iters, snapshots=None):
    """Backward-Euler / three-point central-difference solution on a uniform grid.

    Completely independent of the boundary-integral pipeline; only the nonlinear
    policy is shared (linear reaction part implicit, remainder lagged under the
    same successive-solve stopping rule), so discrepancies between the two
    solvers isolate the spatial discretization.  The step settings, nodes, time
    levels, initial values and level coefficients follow the stepper's own rules.

    Returns the solution at t_end; given snapshot times (checked as `run`
    checks them), one march returns the list of solutions at the distinct
    snapshot levels in increasing time, as `run` orders its states.
    """
    tau = float(tau)
    StepConfig(tau=tau, epsilon=epsilon, max_corrector_iters=max_iters)  # ValueError if bad
    grid = Grid.uniform(problem.a, problem.b, n_nodes)
    x, n, h = grid.nodes, grid.n, grid.h
    n_levels, snap_levels = time_levels(tau, float(t_end), snapshots)

    u = initial_values(problem, x)
    captured = [u] if 0 in snap_levels else []

    lam = problem.reaction.linear_slope
    nonlinear = problem.reaction.nonlinear
    m = n - 2
    for k in range(1, n_levels + 1):
        t_n = k * tau
        nu_n, mu_n, eta_n = level_coefficients(problem, t_n)

        lower = -nu_n / (2.0 * h) - mu_n / (h * h)
        diag = 1.0 / tau + 2.0 * mu_n / (h * h) - eta_n * lam
        upper = nu_n / (2.0 * h) - mu_n / (h * h)
        banded = np.zeros((3, m))
        banded[0, 1:] = upper
        banded[1, :] = diag
        banded[2, :-1] = lower

        g_left = float(problem.bc_left(t_n))
        g_right = float(problem.bc_right(t_n))
        base = u[1:-1] / tau
        base[0] -= lower * g_left
        base[-1] -= upper * g_right

        u_tilde = u
        u_last = None
        diff = math.inf
        for _ in range(max_iters):
            rhs = base + eta_n * nonlinear(u_tilde[1:-1])
            interior = solve_banded((1, 1), banded, rhs)
            u_new = np.concatenate([[g_left], interior, [g_right]])
            if u_last is not None:
                diff = float(np.max(np.abs(u_new - u_last)))
                if diff <= epsilon:
                    u_last = u_new
                    break
            u_tilde = u_new
            u_last = u_new
        else:
            raise ConvergenceError(
                f"oracle corrector stalled at t = {t_n:g} (difference {diff:.3e})",
                time=t_n,
                last_diff=diff,
            )
        u = u_last
        if k in snap_levels:
            captured.append(u)
    return u if snapshots is None else captured


@dataclass(frozen=True)
class ConvergenceRow:
    """Errors of one sweep row at t_end, or the DrbemError that stopped the row.

    h is the spacing of the grid actually built; order is the observed order
    against the row before; peak (the largest error over every level) is filled
    only when the sweep tracks it.
    """

    h: float
    tau: float
    l_inf: Optional[float] = None
    rms: Optional[float] = None
    peak: Optional[float] = None
    iters_max: Optional[int] = None
    order: Optional[float] = None
    failure: Optional[DrbemError] = None


def observed_order(err_prev, err_cur, param_prev, param_cur) -> Optional[float]:
    """log(err ratio) / log(parameter ratio); None when either ratio degenerates."""
    if err_prev <= 0.0 or err_cur <= 0.0 or param_prev == param_cur:
        return None
    return float(math.log(err_prev / err_cur) / math.log(param_prev / param_cur))


def _pair_order(prev: Optional[ConvergenceRow], cur: ConvergenceRow) -> Optional[float]:
    """Observed order in whichever of h or tau changed; None next to a failed row,
    at the first row, and where both or neither changed."""
    if prev is None or prev.failure is not None or cur.failure is not None:
        return None
    if prev.tau == cur.tau and prev.h != cur.h:
        return observed_order(prev.l_inf, cur.l_inf, prev.h, cur.h)
    if prev.h == cur.h and prev.tau != cur.tau:
        return observed_order(prev.l_inf, cur.l_inf, prev.tau, cur.tau)
    return None


def sweep(rows, t_end, track_peak=False) -> list:
    """One solver run per (problem, h, tau) row, with errors against the exact solution.

    Operators are assembled once per (a, b, N) grid and shared, and every row
    runs the corrector at StepConfig's default tolerance and cap.  A DrbemError
    is recorded on its row and the sweep goes on; each result carries the
    observed order against the row before it.
    """
    ops_cache = {}
    results = []
    for problem, h, tau in rows:
        if problem.exact is None:
            raise ValueError("a sweep needs problems with an exact solution")
        grid = Grid.with_spacing(problem.a, problem.b, h)
        try:
            key = (problem.a, problem.b, grid.n)
            if key not in ops_cache:
                ops_cache[key] = (grid, assemble_drbem(grid, assemble_interpolation(grid)))
            grid, ops = ops_cache[key]
            cfg = StepConfig(tau=tau)
            snapshots = None
            if track_peak:
                snapshots = [k * tau for k in range(1, level_index(t_end, tau) + 1)]
            traj = run(problem, grid, cfg, t_end, snapshots=snapshots, ops=ops)
            report = compute_errors(traj.states[-1].u, problem.exact(grid.nodes, t_end),
                                    time=t_end)
            peak = None
            if track_peak:
                peak = max(compute_errors(s.u, problem.exact(grid.nodes, s.t)).l_inf
                           for s in traj.states)
            result = ConvergenceRow(h=grid.h, tau=tau, l_inf=report.l_inf, rms=report.rms,
                                    peak=peak, iters_max=max(traj.level_iterations, default=0))
        except DrbemError as exc:
            result = ConvergenceRow(h=grid.h, tau=tau, failure=exc)
        order = _pair_order(results[-1] if results else None, result)
        results.append(replace(result, order=order))
    return results


def convergence_study(problem: PdeProblem, h_list, tau_list, t_end) -> tuple:
    """One solver run per (tau, h) pair, with errors against the exact solution.

    Returns the ConvergenceRow records tau-major in the given order; each row's
    order refers to whichever of h or tau changed against the row before (None
    at group boundaries or when both changed).  The first row failure is raised.
    """
    rows = [(problem, float(h), float(tau)) for tau in tau_list for h in h_list]
    results = sweep(rows, float(t_end))
    for result in results:
        if result.failure is not None:
            raise result.failure
    return tuple(results)
