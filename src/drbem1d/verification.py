"""Error metrics, an independent finite-difference oracle, and convergence sweeps.

The oracle shares the stepper's nonlinear policy by running each level through
stepping.fixed_point, so it stops, diverges, stalls and meets a DomainError
exactly as `run` does, under its own label ("oracle corrector").
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
from scipy.linalg import LinAlgError, lapack, solve_banded

from .exceptions import DrbemError, SingularMatrixError
from .problems import PdeProblem
from .assembly import Grid
from .stepping import (SolverState, StepConfig, Trajectory, fixed_point, level_coefficients,
                       level_index, march, run)


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
    np.abs(e, out=e)
    # np.mean is this sum over the count, so the norms keep np.mean's bits
    return ErrorReport(
        l_inf=float(e.max()),
        rms=math.sqrt(np.add.reduce(e * e) / e.size),
        n_interior=e.size,
        time=float(time),
    )


def _oracle_singular(t_n) -> SingularMatrixError:
    return SingularMatrixError(f"oracle level matrix at t = {t_n:g} is singular")


def _tridiagonal_solver(lower, diag, upper, m, t_n):
    """rhs -> the solution of the m x m tridiagonal system with constant diagonals,
    factored once here (LAPACK gttrf) and solved per call (gttrs).  A singular
    matrix raises SingularMatrixError."""
    if m < 3:  # the gttrf wrapper cannot size du2 below three unknowns
        if m == 1 and diag == 0.0:  # solve_banded divides by a 1 x 1 matrix unchecked
            raise _oracle_singular(t_n)
        banded = np.array([[0.0] + [upper] * (m - 1), [diag] * m, [lower] * (m - 1) + [0.0]])

        def solve(rhs):
            try:
                return solve_banded((1, 1), banded, rhs, check_finite=False)
            except LinAlgError:  # gtsv met a zero pivot
                raise _oracle_singular(t_n) from None
        return solve
    dl, d, du, du2, ipiv, info = lapack.dgttrf(np.full(m - 1, lower), np.full(m, diag),
                                               np.full(m - 1, upper))
    if info > 0:
        raise _oracle_singular(t_n)
    return lambda rhs: lapack.dgttrs(dl, d, du, du2, ipiv, rhs, overwrite_b=1)[0]


def fd_oracle(problem: PdeProblem, n_nodes, cfg: StepConfig, t_end, snapshots=None) -> Trajectory:
    """Backward-Euler / three-point central-difference solution on a uniform grid.

    Completely independent of the boundary-integral pipeline; only the nonlinear
    policy is shared (linear reaction part implicit, remainder lagged under the
    same successive-solve stopping rule, stepping.fixed_point), so discrepancies
    between the two solvers isolate the spatial discretization.  It takes the
    StepConfig that `run` takes and marches through stepping.march, so its time
    levels, horizon, initial values, snapshots and Trajectory are `run`'s; its
    level coefficients and failures follow the stepper's own rules, and the
    iterate is the full node vector, so a DomainError names the node as `run`
    does.  The oracle solves for no flux: every state's fluxes are nan.
    """
    tau = cfg.tau
    grid = Grid.uniform(problem.a, problem.b, n_nodes)
    h, m = grid.h, grid.n - 2
    lam = problem.reaction.linear_slope
    nonlinear = problem.reaction.nonlinear

    def level(t_n, u):
        nu_n, mu_n, eta_n = level_coefficients(problem, t_n)

        lower = -nu_n / (2.0 * h) - mu_n / (h * h)
        diag = 1.0 / tau + 2.0 * mu_n / (h * h) - eta_n * lam
        upper = nu_n / (2.0 * h) - mu_n / (h * h)
        solve = _tridiagonal_solver(lower, diag, upper, m, t_n)

        g_left = float(problem.bc_left(t_n))
        g_right = float(problem.bc_right(t_n))
        base = u[1:-1] / tau
        base[0] -= lower * g_left
        base[-1] -= upper * g_right

        def oracle_pass(u_tilde):
            w = solve(base + eta_n * nonlinear(u_tilde[1:-1]))
            return (np.concatenate([[g_left], w, [g_right]]),)

        (u,), iters = fixed_point(oracle_pass, u, cfg, t_n, "oracle corrector")
        return SolverState(u=u, q_left=math.nan, q_right=math.nan, t=t_n), iters

    return march(problem, grid, cfg, t_end, snapshots, level)


@dataclass(frozen=True)
class ConvergenceRow:
    """Errors of one sweep row at t_end, or the DrbemError that stopped the row.

    h is the spacing of the grid actually built; order is the observed order
    against the row before; peak (the largest error over every level, level 0
    included) is filled only when the sweep tracks it.
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

    Each row runs on its own grid and operators, with the corrector at
    StepConfig's default tolerance and cap.  A DrbemError is recorded on its row
    and the sweep goes on; each result carries the observed order against the
    row before it.
    """
    results = []
    for problem, h, tau in rows:
        if problem.exact is None:
            raise ValueError("a sweep needs problems with an exact solution")
        grid = Grid.with_spacing(problem.a, problem.b, h)
        try:
            cfg = StepConfig(tau=tau)
            snapshots = None
            if track_peak:
                snapshots = [k * tau for k in range(level_index(t_end, tau) + 1)]
            traj = run(problem, grid, cfg, t_end, snapshots=snapshots)
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
