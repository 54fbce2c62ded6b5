"""Implicit time stepping of the collocation system with a lagged-nonlinearity corrector.

Each level is solved in the scheme's clamped-spline form (see
assembly.SplineOperators): the unknowns are [u_x(a), u_2, ..., u_{N-1}, u_x(b)],
the endpoint values are imposed from the boundary data, and the level matrix is
a band with two sub- and two superdiagonals.  It depends on the level only
through (nu, mu, eta)(t_n), never on the lagged iterate, so it is factored once
per level and reused across corrector passes, and carried over whole when the
coefficients are constant in time.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import blas, lapack

from .assembly import LEVEL_BAND, DrbemOperators, assemble_drbem
from .exceptions import ConvergenceError, SolverError
from .problems import PdeProblem
from .rbf import Grid, assemble_interpolation, band_lu_factor_checked

log = logging.getLogger(__name__)

MU_FLOOR = 1e-12
TIME_MULTIPLE_TOL = 1e-12


@dataclass
class StepConfig:
    """Time step size and corrector policy."""

    tau: float
    epsilon: float = 1e-10
    max_corrector_iters: int = 100

    def __post_init__(self):
        if not 0.0 < self.tau < math.inf:
            raise ValueError("tau must be positive and finite")
        if not self.epsilon > 0.0:
            raise ValueError("epsilon must be positive")
        if self.max_corrector_iters < 1:
            raise ValueError("max_corrector_iters must be at least 1")


@dataclass
class SolverState:
    """Solution snapshot at one time level; q_* are the solved endpoint fluxes."""

    u: np.ndarray
    q_left: float
    q_right: float
    t: float


@dataclass
class TimeLevelSystem:
    """Factored banded system of one time level.

    factorization holds the gbtrf factors of 6 Delta - T (s I + (nu/mu) P) on
    the unknowns [u_x(a), u_2, ..., u_{N-1}, u_x(b)]; dirichlet_columns are that
    matrix's columns on the imposed values u_1 and u_N.  rhs_fixed collects
    every term that does not involve the lagged iterate; the corrector adds only
    -(eta/mu) T F_n(u_tilde) per pass, T given by t_band.
    """

    factorization: tuple
    rhs_fixed: np.ndarray
    t_n: float
    nu_n: float
    mu_n: float
    eta_n: float
    g_left: float
    g_right: float
    t_band: np.ndarray
    dirichlet_columns: np.ndarray


def level_coefficients(problem: PdeProblem, t_n: float) -> tuple:
    """(nu, mu, eta) at t_n, rejecting a diffusion factor too small to divide by."""
    nu_n = float(problem.coeffs.nu(t_n))
    mu_n = float(problem.coeffs.mu(t_n))
    eta_n = float(problem.coeffs.eta(t_n))
    if not abs(mu_n) > MU_FLOOR:
        raise SolverError(f"diffusion coefficient mu({t_n:g}) = {mu_n:g} is unusably small")
    return nu_n, mu_n, eta_n


def build_level_system(
    problem: PdeProblem,
    grid: Grid,
    ops: DrbemOperators,
    cfg: StepConfig,
    t_n: float,
    u_prev,
    prev_system: Optional[TimeLevelSystem] = None,
) -> TimeLevelSystem:
    """Assemble (and factor) the level-n system given the previous-level solution.

    The collocation identity in spline form, 6 Delta(u, q) = T b, is rearranged
    with b = (u - u_prev)/(tau mu) + (nu/mu) P u - (eta/mu)(lambda u + F_n(u_tilde)):
    6 Delta - T (s I + (nu/mu) P) with s = 1/(tau mu) - eta lambda/mu is the
    matrix, the known endpoint values and the u_prev term move into rhs_fixed,
    and the lagged term stays per-iteration.  Every piece is O(N).

    When prev_system comes from the same run and the coefficient triple at t_n is
    unchanged (constant-coefficient problems), its factorization and Dirichlet
    columns are carried over and only the right-hand side is rebuilt.
    """
    tau = cfg.tau
    nu_n, mu_n, eta_n = level_coefficients(problem, t_n)

    n = grid.n
    u_prev = np.asarray(u_prev, dtype=float)
    if u_prev.shape != (n,):
        raise ValueError(f"u_prev must have shape ({n},), got {u_prev.shape}")

    g_left = float(problem.bc_left(t_n))
    g_right = float(problem.bc_right(t_n))

    spline = ops.spline
    if (
        prev_system is not None
        and (nu_n, mu_n, eta_n) == (prev_system.nu_n, prev_system.mu_n, prev_system.eta_n)
    ):
        factorization = prev_system.factorization
        dirichlet_columns = prev_system.dirichlet_columns
    else:
        lam = problem.reaction.linear_slope
        implicit_scale = 1.0 / (tau * mu_n) - eta_n * lam / mu_n
        weights = np.array([1.0, -implicit_scale, -nu_n / mu_n])
        # a non-finite coefficient times a zero entry is nan, which the factor
        # check reports as a singular level; numpy's warning would be noise
        with np.errstate(over="ignore", invalid="ignore"):
            band = weights @ spline.level_pieces.reshape(3, -1)
            dirichlet_columns = weights @ spline.dirichlet_pieces.reshape(3, -1)
        factorization = band_lu_factor_checked(
            band.reshape(-1, n), LEVEL_BAND, LEVEL_BAND, f"level matrix at t = {t_n:g}"
        )
        dirichlet_columns = dirichlet_columns.reshape(n, 2)

    rhs_fixed = (
        blas.dgbmv(n, n, 1, 1, -1.0 / (tau * mu_n), spline.t_band, u_prev)
        - dirichlet_columns @ np.array([g_left, g_right])
    )
    return TimeLevelSystem(
        factorization=factorization,
        rhs_fixed=rhs_fixed,
        t_n=t_n,
        nu_n=nu_n,
        mu_n=mu_n,
        eta_n=eta_n,
        g_left=g_left,
        g_right=g_right,
        t_band=spline.t_band,
        dirichlet_columns=dirichlet_columns,
    )


def _solve_with_lag(sys: TimeLevelSystem, problem: PdeProblem, u_tilde):
    n = sys.rhs_fixed.size
    rhs = blas.dgbmv(n, n, 1, 1, -sys.eta_n / sys.mu_n, sys.t_band,
                     problem.reaction.nonlinear(u_tilde), beta=1.0, y=sys.rhs_fixed)
    if not np.isfinite(rhs).all():
        raise ConvergenceError(
            f"corrector diverged at t = {sys.t_n:g}: non-finite values in the lagged "
            "right-hand side (tau too large, reaction too stiff, or bad initial data)",
            time=sys.t_n,
        )
    lu, piv = sys.factorization
    u, _ = lapack.dgbtrs(lu, LEVEL_BAND, LEVEL_BAND, rhs, piv, overwrite_b=1)
    q_left, q_right = float(u[0]), float(u[-1])
    u[0] = sys.g_left
    u[-1] = sys.g_right
    return u, q_left, q_right


def corrector_solve(sys: TimeLevelSystem, problem: PdeProblem, cfg: StepConfig, u_prev):
    """Fixed-point iteration on the lagged nonlinear term at one level.

    The lag is seeded with the previous-level solution and only successive solves
    are compared, so the minimum count is two; with a vanishing nonlinear part the
    second solve reproduces the first bit for bit and the loop exits at zero
    difference.  Returns the converged state and the number of solves.
    """
    u_tilde = np.asarray(u_prev, dtype=float)
    u_last = None
    diff = math.inf
    # a diverging iterate overflows inside the reaction; the finite check in
    # _solve_with_lag reports it as ConvergenceError, so numpy's warning is noise
    with np.errstate(over="ignore", invalid="ignore"):
        for iters in range(1, cfg.max_corrector_iters + 1):
            u_new, q_left, q_right = _solve_with_lag(sys, problem, u_tilde)
            if u_last is not None:
                diff = float(np.max(np.abs(u_new - u_last)))
                if diff <= cfg.epsilon:
                    state = SolverState(
                        u=u_new,
                        q_left=q_left,
                        q_right=q_right,
                        t=sys.t_n,
                    )
                    return state, iters
            u_tilde = u_new
            u_last = u_new
    raise ConvergenceError(
        f"corrector stalled at t = {sys.t_n:g}: difference {diff:.3e} after "
        f"{cfg.max_corrector_iters} iterations (tau too large or reaction too stiff)",
        time=sys.t_n,
        last_diff=diff,
    )


def back_substitution_gap(sys: TimeLevelSystem, problem: PdeProblem, state: SolverState) -> float:
    """Sup-norm change from one extra corrector pass seeded with the converged level.

    Measures how far the returned solution sits from the fixed point of the full
    nonlinear discrete system; a converged level should stay within a small
    multiple of the corrector tolerance.
    """
    u_again, _, _ = _solve_with_lag(sys, problem, state.u)
    return float(np.max(np.abs(u_again - state.u)))


@dataclass
class Trajectory:
    """States captured at the requested snapshot times plus per-level solve counts."""

    states: list
    level_iterations: list


def level_index(t, tau, name="time") -> int:
    """t / tau rounded to the nearest level, rejecting non-multiples."""
    k = int(round(t / tau))
    if abs(t - k * tau) > TIME_MULTIPLE_TOL * max(1.0, abs(t)):
        raise ValueError(f"{name} {t!r} is not an integer multiple of tau = {tau!r}")
    return k


def time_levels(tau, t_end, snapshots=None) -> tuple:
    """Level count to t_end and the set of snapshot levels (default: t_end alone).

    t_end must be nonnegative, and t_end and every snapshot time integer
    multiples of tau within rounding, with the snapshots in [0, t_end].
    """
    if not t_end >= 0.0:
        raise ValueError(f"t_end = {t_end} must be nonnegative")
    n_levels = level_index(t_end, tau, "t_end")
    snap_levels = set()
    for s in (t_end,) if snapshots is None else snapshots:
        k = level_index(float(s), tau, "snapshot")
        if not 0 <= k <= n_levels:
            raise ValueError(f"snapshot {s} outside [0, {t_end}]")
        snap_levels.add(k)
    return n_levels, snap_levels


def initial_values(problem: PdeProblem, x) -> np.ndarray:
    """Initial data sampled at the nodes x, with the t = 0 boundary values imposed."""
    u = np.array(problem.initial(x), dtype=float)
    if u.shape != x.shape:
        u = np.array([float(problem.initial(xi)) for xi in x])
    u[0] = float(problem.bc_left(0.0))
    u[-1] = float(problem.bc_right(0.0))
    return u


def run(
    problem: PdeProblem,
    grid: Grid,
    cfg: StepConfig,
    t_end: float,
    snapshots=None,
    ops: Optional[DrbemOperators] = None,
) -> Trajectory:
    """March from t = 0 to t_end, capturing states at the snapshot times.

    Snapshot times (default: t_end alone) must be integer multiples of tau within
    rounding.  Endpoint values are imposed exactly at every level.  Pass a
    pre-assembled operator set to share it across runs on the same grid.
    """
    if abs(grid.a - problem.a) > 1e-12 or abs(grid.b - problem.b) > 1e-12:
        raise ValueError(
            f"grid [{grid.a}, {grid.b}] does not span the problem interval "
            f"[{problem.a}, {problem.b}]"
        )
    n_levels, snap_levels = time_levels(cfg.tau, t_end, snapshots)
    if t_end > problem.horizon * (1.0 + 1e-12):
        raise ValueError(f"t_end = {t_end} exceeds the problem horizon {problem.horizon}")

    if ops is None:
        ops = assemble_drbem(grid, assemble_interpolation(grid))

    u = initial_values(problem, grid.nodes)

    states = []
    level_iterations = []
    if 0 in snap_levels:
        slope = ops.spline.slope(u)
        states.append(
            SolverState(
                u=u.copy(),
                q_left=float(slope[0]),
                q_right=float(slope[-1]),
                t=0.0,
            )
        )

    system = None
    for k in range(1, n_levels + 1):
        t_n = k * cfg.tau
        system = build_level_system(problem, grid, ops, cfg, t_n, u, prev_system=system)
        state, iters = corrector_solve(system, problem, cfg, u)
        level_iterations.append(iters)
        u = state.u
        if k in snap_levels:
            states.append(state)

    log.info(
        "run finished: %d levels, corrector iters max %s",
        n_levels,
        max(level_iterations, default=0),
    )
    return Trajectory(states=states, level_iterations=level_iterations)
