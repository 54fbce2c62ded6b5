"""Error metrics, a finite-difference oracle on `run`'s grid, and convergence sweeps.

The oracle shares stepping.march, stepping.fixed_point,
assembly.band_lu_factor_checked and assembly.band_lu_solver (two dtbsv sweeps,
or dgbtrs after a row swap) with the stepper, so it stops, diverges, stalls,
meets a DomainError and reports a singular level exactly as `run` does, under
its own labels ("oracle corrector", "oracle level matrix").  Its passes are
`run`'s pass on other operands: an identity band in place of T, so that the
pass's dgbmv rounds u_n / tau + eta F_n once, and the oracle's base, negated,
as the fixed right-hand side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .exceptions import DrbemError
from .problems import PdeProblem
from .assembly import Grid, band_lu_factor_checked, band_lu_solver
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
    np.absolute(e, e)
    # argmax finds the first nan, so l_inf is np.max's value, nan included, at
    # less cost; np.mean is the sum over the count, so the RMS keeps its bits.
    # Positional fields: keywords cost about 0.3 us a report
    l_inf = e.item(e.argmax())
    np.multiply(e, e, e)
    return ErrorReport(l_inf, math.sqrt(np.add.reduce(e) / e.size), e.size, float(time))


def fd_oracle(problem: PdeProblem, grid: Grid, cfg: StepConfig, t_end,
              snapshots=None) -> Trajectory:
    """Backward-Euler / three-point finite-difference solution on the grid `run` takes.

    On the grid's own spacings, u_xx is 2 [(u_{i+1} - u_i)/h_i - (u_i - u_{i-1})/h_{i-1}]
    / (h_{i-1} + h_i) and u_x the weighted central difference.  No DRBEM operator is
    shared: only the corrector pass and loop (stepping.fixed_point), the level loop
    (stepping.march, so time levels, horizon, initial values, snapshots and
    Trajectory are `run`'s) and the band kernel, the checked factorization and
    band_lu_solver's solve (two dtbsv sweeps, dgbtrs after a row swap), whose
    factors are carried over only while the coefficient triple stays the same:
    unlike build_level_system it refactors at any change and lags no drift, so
    it checks that lag too.  So discrepancies between the two solvers isolate the
    spatial discretization.  The reaction sees all N entries of a lag, the imposed
    end values included, as in `run`.  The oracle solves for no flux: every
    state's fluxes are nan.
    """
    tau, n = cfg.tau, grid.n
    h = np.diff(grid.nodes)
    h_l, h_r = h[:-1], h[1:]
    left, mid, right = h_l * (h_l + h_r), h_l * h_r, h_r * (h_l + h_r)
    # u_xx and u_x in Fortran-ordered gbtrf layout: interior row i's weights on u_{i+1},
    # u_i, u_{i-1} in rows 1, 2, 3 of columns i+1, i, i-1, so columns 2..N-1 are the band
    d2, d1 = np.zeros((2, grid.n, 4)).transpose(0, 2, 1)
    d2[1, 2:], d2[2, 1:-1], d2[3, :-2] = 2.0 / right, -2.0 / mid, 2.0 / left
    d1[1, 2:], d1[2, 1:-1], d1[3, :-2] = h_l / right, (h_r - h_l) / mid, -h_r / left
    lam, nonlinear = problem.reaction.linear_slope, problem.reaction.nonlinear
    factors = (None,)  # (coeffs, solve, lower, upper) of the last factored level
    # the pass's band: dgbmv adds eta F_n(u_tilde) to minus rhs_fixed with one
    # rounding, as base + eta F_n does, the zeros beside it changing nothing
    identity = np.zeros((3, n), order="F")
    identity[1] = 1.0

    def level(t_n, u):
        nonlocal factors
        nu_n, mu_n, eta_n = coeffs = level_coefficients(problem, t_n)
        if factors[0] != coeffs:
            # march's errstate lets an overflow through to the factor check
            band = nu_n * d1 - mu_n * d2
            band[2] += 1.0 / tau - eta_n * lam
            _, piv = band_lu_factor_checked(band[:, 1:-1], 1, 1,
                                            f"oracle level matrix at t = {t_n:g}")
            # the weights on the imposed values, g_left in row 2 and g_right in row N-1
            factors = (coeffs, band_lu_solver(band[:, 1:], piv, 1, 1),
                       band.item(3, 0), band.item(1, -1))
        _, solve, lower, upper = factors

        g_left, g_right = float(problem.bc_left(t_n)), float(problem.bc_right(t_n))
        # minus the base u_n / tau - (lower g_left, 0, ..., 0, upper g_right) on
        # the interior, with zero ends: rounding is symmetric, so each entry is
        # the base's entry negated, bit for bit
        rhs_fixed = np.zeros(n)
        minus_base = np.divide(u[1:-1], -tau, out=rhs_fixed[1:-1])
        minus_base[0] += lower * g_left
        minus_base[-1] += upper * g_right
        (u, _, _), iters = fixed_point(nonlinear, eta_n, identity, rhs_fixed, 0.0, solve,
                                       g_left, g_right, u, cfg, t_n, "oracle corrector")
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


# the levels whose peak error sweep takes in one array pass: O(PEAK_BLOCK N) memory
PEAK_BLOCK = 256


def _peak_error(problem: PdeProblem, nodes, states) -> tuple:
    """The largest interior |exact - u| over the states, and the exact values at
    the last state's time.

    exact is called once per state, at its own scalar time.  The differences
    of each block of PEAK_BLOCK states are taken in one array pass, each
    state's maximum being compute_errors' l_inf bit for bit; the peak is the
    largest of these, nan when any is.
    """
    row_max = np.empty(len(states))
    for start in range(0, len(states), PEAK_BLOCK):
        block = states[start:start + PEAK_BLOCK]
        exact = np.array([problem.exact(nodes, s.t) for s in block], dtype=float)
        if exact.shape != (len(block), nodes.size):
            raise ValueError(f"exact values of shape {exact.shape[1:]} on {nodes.size} nodes")
        e = np.subtract(exact[:, 1:-1], np.array([s.u for s in block])[:, 1:-1])
        np.absolute(e, e)
        np.maximum.reduce(e, axis=1, out=row_max[start:start + len(block)])
    return row_max.item(row_max.argmax()), exact[-1]


def sweep(rows, t_end, track_peak=False) -> list:
    """One solver run per (problem, h, tau) row, with errors against the exact solution.

    Each row runs on its own grid and operators, with the corrector at
    StepConfig's default tolerance and cap.  The row's l_inf and rms are
    compute_errors' report on the final state.  With track_peak, every level is
    a snapshot and the peak (level 0 included) comes from one array pass per
    block of levels, against the exact solution at each state's own time.  A
    DrbemError is recorded on its row and the sweep goes on; each result
    carries the observed order against the row before it.
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
            final = traj.states[-1]
            if track_peak:
                peak, exact = _peak_error(problem, grid.nodes, traj.states)
            else:
                peak, exact = None, problem.exact(grid.nodes, final.t)
            report = compute_errors(final.u, exact, time=final.t)
            result = ConvergenceRow(h=grid.h, tau=tau, l_inf=report.l_inf, rms=report.rms,
                                    peak=peak, iters_max=max(traj.level_iterations, default=0))
        except DrbemError as exc:
            result = ConvergenceRow(h=grid.h, tau=tau, failure=exc)
        order = _pair_order(results[-1] if results else None, result)
        results.append(replace(result, order=order))
    return results
