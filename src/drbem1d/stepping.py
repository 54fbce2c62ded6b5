"""Implicit time stepping of the collocation system with a fixed-point corrector.

Each level is solved in the scheme's clamped-spline form (see
assembly.DrbemOperators).  The fluxes u_x(a) and u_x(b) enter only the level
matrix's end rows, so every level eliminates them: the unknowns are u_2, ...,
u_{N-1}, the endpoint values are imposed, and the fluxes come back from the end
rows once the level has converged.  The matrix A(s, r) = 6 Delta - T (s I + r P)
depends on the level only through its weights s = 1/(tau mu) - eta lambda/mu
and r = nu/mu, never on the lagged iterate.  It is factored once, reused across
corrector passes, and carried over to the next level while r stays the same and
s stays within DRIFT_BOUND of the factored s_0 > 0 (whole when s = s_0, as with
constant coefficients).  A carried level solves A(s_0) u = R - (s_0 - s) T u,
which is A(s) u = R, by lagging the drift term with the reaction: its fixed
point is the level's own, and the lag adds a contraction of about
|s - s_0| / s_0.  Without advection (nu_n = 0) and with s > 0
the interior is the strictly diagonally dominant clamped-spline system
-(6 Delta - s T), which dpttrf factors; any other level, or one whose dpttrf
factors are not clean, factors its (2, 2) interior band with dgbtrf and solves
it with assembly.band_lu_solver's two dtbsv sweeps (dgbtrs after a row swap).

The nonlinear term is lagged: each pass solves with F_n at the previous
iterate, until two successive iterates agree within epsilon, the seed lag
counting as iterate 0, so a seed within epsilon of its first solve takes one
solve.  The seed of a level is the cubic extrapolation
4 (u_n + u_{n-2}) - (6 u_{n-1} + u_{n-3}) of the four levels before it; the
third level takes the quadratic 3 (u_n - u_{n-1}) + u_{n-2}, the second the
linear 2 u_n - u_{n-1}, and the first level, or a system built without a
previous one, u_n alone.  Only when the reaction rejects a lag with DomainError
does the level run again, from the seed kept at u_n wherever u_n >= 0 and the
extrapolation is negative, if that differs.  The seed changes only where,
within epsilon of the level's fixed point, the loop stops, not the fixed point
itself.

A corrector pass is the reaction F_n(u_tilde), one dgbmv that adds the
-(eta/mu) T F_n stencil to the level's fixed right-hand side (a second adds
the drift term on a carried level whose s moved), and one in-place
solve on the interior.  `fixed_point` is that pass and the loop around it in
one function: it takes the level's operands (the reaction, the band, the fixed
right-hand side, the drift, the interior solve and the imposed values), not a
closure built per level, so `run`, the one-level API (build_level_system and
corrector_solve) and verification.fd_oracle, which hands it an identity band,
share one pass and one stopping rule.  It takes the sup-norm gap between
successive iterates in place, as the entry of |gap| at its argmax: argmax
returns the first nan if there is one and the largest entry otherwise, so the
norm is np.maximum.reduce's, bit for bit, at a smaller fixed cost per call.
The gap doubles as the divergence guard, being non-finite exactly when an
iterate is, so no right-hand side is scanned.  A non-finite lag that the
reaction rejects before its gap is taken is reported the same way.
"""

from __future__ import annotations

import logging
import math
import numbers
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from ._linalg import blas, lapack
from .assembly import (LEVEL_BAND, PIVOT_FLOOR, DrbemOperators, Grid, assemble_drbem,
                       band_lu_factor_checked, band_lu_solver, same_nodes)
from .exceptions import ConvergenceError, DomainError, SolverError
from .problems import PdeProblem

log = logging.getLogger(__name__)

MU_FLOOR = 1e-12
TIME_MULTIPLE_TOL = 1e-12
# More time levels than this (5 hours at fig1's 18 us a level, 8 GB for
# level_iterations alone) is a mistyped tau, not a run anyone waits for.
MAX_LEVELS = 10**9
# A cap above this lets iterates that cycle at rounding level, which no epsilon
# below the cycle ends, run without a practical end; the shipped outputs take at
# most 6 passes a level, and the default cap is 100.
MAX_CORRECTOR_ITERS = 10_000
# A level keeps the previous level's factors while its s is within this share
# of the factored s_0.  The lagged drift then slows the corrector's contraction
# by at most about this ratio: at 1/32 table3's rows take as many solves as with
# a refactor at every level, LSODE's 0.3 takes 6% more (380 against 304 at
# tau = 1/100).
DRIFT_BOUND = 1.0 / 32.0


@dataclass
class StepConfig:
    """Time step size and corrector policy: a level stops when two successive
    iterates agree within epsilon, after at most max_corrector_iters solves (2 to
    MAX_CORRECTOR_ITERS)."""

    tau: float
    epsilon: float = 1e-10
    max_corrector_iters: int = 100

    def __post_init__(self):
        if not 0.0 < self.tau < math.inf:
            raise ValueError("tau must be positive and finite")
        if not 0.0 < self.epsilon < math.inf:
            raise ValueError("epsilon must be positive and finite")
        cap = self.max_corrector_iters
        if not (isinstance(cap, numbers.Integral) and cap >= 2):
            raise ValueError(f"max_corrector_iters = {cap!r} must be an integer of at least 2: "
                             "a level whose seed moves by more than epsilon in its first "
                             "solve stops only when two successive solves agree")
        if cap > MAX_CORRECTOR_ITERS:
            raise ValueError(f"max_corrector_iters = {cap!r} is more than {MAX_CORRECTOR_ITERS}: "
                             "iterates that cycle at rounding level would run that many "
                             "passes on each level")


@dataclass(slots=True)
class SolverState:
    """Solution snapshot at one time level; q_* are the solved endpoint fluxes.

    The t = 0 state's fluxes are nan: no level has solved for a flux there.
    """

    u: np.ndarray
    q_left: float
    q_right: float
    t: float


class LevelFactors(NamedTuple):
    """Everything a level takes from the weights = (s, r) of its level matrix
    A = 6 Delta - T (s I + r P), as they were when it was factored.

    factors are dpttrf's (d, e) or dgbtrf's (lu, piv) factors of -A on
    u_2..u_{N-1}, and solve(b) overwrites b with (-A)^{-1} b there and returns
    (b, 0): dpttrs, or on the band assembly.band_lu_solver's two dtbsv sweeps
    (dgbtrs after a row swap).
    ends holds -A's entries (1, 1), (1, 2), (1, 3), (N, N-2), (N, N-1) and
    (N, N) for the fluxes.  A's columns on the imposed values u_1 and u_N are
    nonzero only in its first three and last three rows (all of them below six
    nodes); dirichlet_rows holds their nonzero entries as three tuples: the rows
    with an entry on u_1 alone as (row index, entry), those with one on u_N
    alone likewise, and those with both as (row index, entry on u_1, entry on
    u_N).  Without advection that is two rows at each end with one entry each.
    t_band is the operators' T, which the corrector's
    -(eta/mu) T F_n stencil and drift term apply.  A level that carries the
    record over keeps all of it, ends and dirichlet_rows included: its drift
    term covers their change.
    """

    weights: tuple
    factors: tuple
    solve: Callable
    ends: tuple
    dirichlet_rows: tuple
    t_band: np.ndarray


@dataclass(slots=True)
class TimeLevelSystem:
    """Factored system of one time level.

    factorization is the LevelFactors the level solves with, shared by the
    levels of a run that carry it over by build_level_system's rule.  coeffs is
    the level's own (nu, mu, eta) and drift = s_0 - s, the factored s_0 less the
    level's own s: zero on the level that factored it and whenever s is
    unchanged.  rhs_fixed collects every term that does not involve the lagged
    iterate; the corrector adds only -T ((eta/mu) F_n(u_tilde) + drift u_tilde)
    per pass, eta/mu the level's own.  u_prev is the level the system was built
    from and earlier the levels before it, newest first: at most three, fewer
    where the run has no such level, none without a previous system.  All are
    references, not copies, and the corrector's first lag is extrapolated from
    them.
    """

    factorization: LevelFactors
    coeffs: tuple
    drift: float
    rhs_fixed: np.ndarray
    t_n: float
    g_left: float
    g_right: float
    u_prev: np.ndarray
    earlier: tuple = ()


# the entries (i, j) that LevelFactors.ends holds, at their places in gbtrf layout
_ENDS = tuple((2 * LEVEL_BAND + i - j, j)
              for i, j in ((0, 0), (0, 1), (0, 2), (-1, -3), (-1, -2), (-1, -1)))


def spd_factors(level_pieces, implicit_scale):
    """dpttrf's (factors, solve, ends) of 6 Delta - s T, as LevelFactors holds them;
    None on a non-positive leading minor, a non-finite factor or a pivot below
    PIVOT_FLOOR."""
    band = level_pieces[0] - implicit_scale * level_pieces[1]
    sup, diag = band[2 * LEVEL_BAND - 1], band[2 * LEVEL_BAND]
    # one interior node still takes one off-diagonal slot: the q_b column's zero
    d, e, info = lapack.dpttrf(-diag[1:-1], -sup[2:max(diag.size - 1, 3)], 1, 1)
    if info or not (np.isfinite(d).all() and np.isfinite(e).all() and d.min() >= PIVOT_FLOOR):
        return None
    return ((d, e), lambda b, dpttrs=lapack.dpttrs: dpttrs(d, e, b, 1),
            tuple(-band.item(ij) for ij in _ENDS))


def band_factors(level_pieces, weights, what):
    """dgbtrf's (factors, solve, ends) of the level matrix weights @ level_pieces,
    as LevelFactors holds them, the solve from assembly.band_lu_solver; a
    non-finite factor or a pivot below PIVOT_FLOOR raises SingularMatrixError
    naming `what`."""
    n = level_pieces.shape[-1]
    # Fortran-ordered pieces give a Fortran-ordered band, whose interior columns
    # dgbtrf factors in place
    band = (-weights @ level_pieces.transpose(0, 2, 1).reshape(3, -1)).reshape(n, -1).T
    ends = tuple(map(band.item, _ENDS))
    for ij in _ENDS:  # the interior rows are all that is factored
        band[ij] = 0.0
    lu, piv = band_lu_factor_checked(band[:, 1:-1], LEVEL_BAND, LEVEL_BAND, what)
    # the last column, whose entries are in ends, is the solver's spare one
    return (lu, piv), band_lu_solver(band[:, 1:], piv, LEVEL_BAND, LEVEL_BAND), ends


def _dirichlet_rows(columns) -> tuple:
    """LevelFactors.dirichlet_rows of the level matrix's (N, 2) columns on u_1 and
    u_N: the nonzero entries of their first three and last three rows."""
    n = columns.shape[0]
    rows = [(i, *columns[i].tolist()) for i in (0, 1, 2, *range(max(3, n - 3), n))]
    return (tuple((i, on_left) for i, on_left, on_right in rows if on_right == 0.0 != on_left),
            tuple((i, on_right) for i, on_left, on_right in rows if on_left == 0.0 != on_right),
            tuple(row for row in rows if row[1] != 0.0 and row[2] != 0.0))


def level_coefficients(problem: PdeProblem, t_n: float) -> tuple:
    """(nu, mu, eta) at t_n, rejecting a diffusion factor too small to divide by."""
    nu_n = float(problem.coeffs.nu(t_n))
    mu_n = float(problem.coeffs.mu(t_n))
    eta_n = float(problem.coeffs.eta(t_n))
    if not abs(mu_n) > MU_FLOOR:
        raise SolverError(f"diffusion coefficient mu({t_n:g}) = {mu_n:g} is unusably small")
    return nu_n, mu_n, eta_n


def _check_operators(ops: DrbemOperators, grid: Grid):
    """Raise ValueError unless ops was built on the grid's nodes."""
    if not same_nodes(ops.grid, grid):
        raise ValueError("operator set was built on a different node set")


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

    ops must have been built on the grid's nodes, as run checks; one built on
    other nodes raises ValueError, whether or not the level carries factors.
    prev_system's LevelFactors is carried over, and only the right-hand side
    rebuilt, when it was factored on ops (its t_band is ops.t_band), with r =
    nu/mu equal to this level's, and with s either equal to its s_0 (constant
    coefficients) or, for s_0 > 0, within DRIFT_BOUND * s_0 of it; the system's
    drift is then s_0 - s.  Any other level is factored afresh, with zero drift.
    prev_system's u_prev and the newer two of its earlier levels become this
    system's earlier levels, from which, with u_prev, corrector_solve
    extrapolates.
    """
    tau = cfg.tau
    coeffs = level_coefficients(problem, t_n)
    nu_n, mu_n, eta_n = coeffs

    n = grid.n
    u_prev = np.asarray(u_prev, dtype=float)
    if u_prev.shape != (n,):
        raise ValueError(f"u_prev must have shape ({n},), got {u_prev.shape}")

    g_left, g_right = float(problem.bc_left(t_n)), float(problem.bc_right(t_n))

    # identity first: run's levels, whose operators run checked once, pay no call
    if ops.grid is not grid:
        _check_operators(ops, grid)
    implicit_scale = 1.0 / (tau * mu_n) - eta_n * problem.reaction.linear_slope / mu_n
    ratio = nu_n / mu_n
    factorization = None if prev_system is None else prev_system.factorization
    if factorization is not None:
        s_0, r_0 = factorization.weights
        # no s_0 <= 0 meets the bound, only an unchanged s
        if not (factorization.t_band is ops.t_band and ratio == r_0
                and (implicit_scale == s_0 or abs(implicit_scale - s_0) <= DRIFT_BOUND * s_0)):
            factorization = None
    if factorization is None:
        weights = np.array([1.0, -implicit_scale, -ratio])
        # a non-finite coefficient times a zero entry is nan, which the factor
        # check reports as a singular level; numpy's warning would be noise
        with np.errstate(over="ignore", invalid="ignore"):
            # a product over every row: dgemv rounds the tail of its output
            # apart, so one over the six rows alone would move the (N, N) entry
            columns = (weights @ ops.dirichlet_pieces.reshape(3, -1)).reshape(n, 2)
            kernel = (
                nu_n == 0.0 < implicit_scale and spd_factors(ops.level_pieces, implicit_scale)
                or band_factors(ops.level_pieces, weights, f"level matrix at t = {t_n:g}"))
        factorization = LevelFactors((implicit_scale, ratio), *kernel,
                                     _dirichlet_rows(columns), ops.t_band)
    drift = factorization.weights[0] - implicit_scale

    rhs_fixed = blas.dgbmv(n, n, 1, 1, -1.0 / (tau * mu_n), factorization.t_band, u_prev)
    # scalar updates on the nonzero entries cost less than a product; a zero
    # entry's product would change only the sign of an exact zero, or make a row
    # nan where a non-finite boundary value already makes another one so
    left, right, both = factorization.dirichlet_rows
    for i, on_left in left:
        rhs_fixed[i] = rhs_fixed.item(i) - on_left * g_left
    for i, on_right in right:
        rhs_fixed[i] = rhs_fixed.item(i) - on_right * g_right
    for i, on_left, on_right in both:
        rhs_fixed[i] = rhs_fixed.item(i) - (on_left * g_left + on_right * g_right)
    earlier = () if prev_system is None else (prev_system.u_prev, *prev_system.earlier[:2])
    return TimeLevelSystem(factorization, coeffs, drift, rhs_fixed, t_n, g_left, g_right,
                           u_prev, earlier)


def _diverged(t_n, who) -> ConvergenceError:
    return ConvergenceError(
        f"{who} diverged at t = {t_n:g}: non-finite values in the lagged "
        "right-hand side (tau too large, reaction too stiff, or bad initial data)",
        time=t_n,
    )


def _domain_error(exc: DomainError, t_n, u_tilde, made_by, who) -> DomainError:
    """exc with the level time, the first negative node of the lag it met and,
    when that lag is an iterate and not the level's seed, the pass that made it."""
    text = f"{exc} at t = {t_n:g}"
    negative = np.flatnonzero(u_tilde < 0.0)
    if negative.size:
        i = negative[0]
        text += f": first negative node u[{i}] = {u_tilde[i]:.6g}"
    if made_by:
        text += f" in the iterate of {who} pass {made_by}"
    return DomainError(text)


def fixed_point(nonlinear, alpha, band, rhs_fixed, drift, solve_interior, g_left, g_right,
                lag, cfg: StepConfig, t_n, who):
    """Fixed-point iteration on the lagged nonlinear term at the level t_n.

    A pass maps the lag u_tilde to the next iterate: the reaction
    nonlinear(u_tilde), one dgbmv for alpha band F - rhs_fixed, the negated
    right-hand side, with band the (1, 1) band of an N x N matrix in gbmv layout,
    a second that adds drift band u_tilde when the drift is not zero, and
    solve_interior on its entries 2..N-1 in place.  The end entries r_left and
    r_right are kept and the imposed values g_left and g_right replace them.
    The seed lag is iterate 0, and the loop stops at the first solve within
    epsilon of the iterate it was lagged on: a seed already within epsilon of its
    first solve takes one solve, and with a vanishing nonlinear part the second
    solve reproduces the first bit for bit and the loop exits at zero difference.
    Returns (u, r_left, r_right) of the last pass and the number of solves.

    The gap's sup norm is the entry of |gap| at its argmax.  For floats argmax
    returns the first nan if there is one, so the norm is nan exactly when
    np.maximum.reduce's is, and equal to it otherwise.  A non-finite iterate
    raises ConvergenceError ("<who> diverged") at its gap, the first iterate's
    included; a non-finite seed does when the reaction rejects it.  A
    DomainError from the reaction on a finite lag is raised again naming t_n,
    the lag's first negative node and, when the lag is not the seed, the pass
    whose iterate it is.  The cap raises "<who> stalled".  numpy's
    overflow warnings on the way are noise, silenced by march's np.errstate
    around every level loop; a direct caller holds its own.
    """
    n = rhs_fixed.size
    epsilon = cfg.epsilon
    dgbmv, subtract, absolute = blas.dgbmv, np.subtract, np.absolute
    u_last = lag  # the lag of the pass under way
    try:
        for iters in range(1, cfg.max_corrector_iters + 1):
            # positional arguments: f2py parses keywords at a cost comparable to
            # the work.  incx = 1, offx = 0, beta = -1, y = rhs_fixed (copied)
            u = dgbmv(n, n, 1, 1, alpha, band, nonlinear(u_last), 1, 0, -1.0, rhs_fixed)
            if drift:
                # beta = 1, y = u, incy = 1, offy = 0, trans = 0, overwrite_y = 1
                dgbmv(n, n, 1, 1, drift, band, u_last, 1, 0, 1.0, u, 1, 0, 0, 1)
            solve_interior(u[1:-1])
            r_left, r_right = u.item(0), u.item(-1)
            u[0] = g_left
            u[-1] = g_right
            # non-finite exactly when an iterate is: the divergence guard.  argmax
            # finds the first nan, so this is np.maximum.reduce's value at less cost
            gap = subtract(u, u_last)
            absolute(gap, gap)
            diff = gap.item(gap.argmax())
            if not diff < math.inf:
                raise _diverged(t_n, who)
            if diff <= epsilon:
                return (u, r_left, r_right), iters
            u_last = u
    except DomainError as exc:
        # every iterate is gap-checked before it is a lag, so only a non-finite
        # seed (-inf, nan) reaches the reaction unchecked
        if not np.isfinite(u_last).all():
            raise _diverged(t_n, who) from exc
        # every pass makes a new array, so only the seed is the lag itself
        made_by = 0 if u_last is lag else iters - 1
        raise _domain_error(exc, t_n, u_last, made_by, who) from exc
    raise ConvergenceError(
        f"{who} stalled at t = {t_n:g}: difference {diff:.3e} after "
        f"{cfg.max_corrector_iters} iterations (tau too large or reaction too stiff)",
        time=t_n,
        last_diff=diff,
    )


def extrapolated_lag(u_prev, earlier=()) -> np.ndarray:
    """The polynomial through u_prev and the tuple of earlier levels (newest
    first, at most three), one step on: the cubic 4 (u_prev + u_2) -
    (6 u_1 + u_3) through four levels, the quadratic 3 (u_prev - u_1) + u_2
    through three, the line 2 u_prev - u_1 through two, and u_prev itself
    without an earlier level.
    It may be negative where u_prev is not; guarded_lag keeps such nodes at
    u_prev, and corrector_solve applies it only when the reaction rejects a lag."""
    # ufuncs called with a positional out: the operators' Python layer costs
    # about as much as the work on a few hundred nodes
    if len(earlier) == 3:
        u_1, u_2, u_3 = earlier
        # 4 (u_prev - 1.5 u_1 + u_2) - u_3 in place: one array allocated
        lag = np.multiply(u_1, -1.5)
        np.add(lag, u_prev, lag)
        np.add(lag, u_2, lag)
        np.multiply(lag, 4.0, lag)
        np.subtract(lag, u_3, lag)
    elif len(earlier) == 2:
        u_1, u_2 = earlier
        lag = np.subtract(u_prev, u_1)
        np.multiply(lag, 3.0, lag)
        np.add(lag, u_2, lag)
    elif earlier:
        lag = np.multiply(u_prev, 2.0)
        np.subtract(lag, earlier[0], lag)
    else:
        return u_prev
    return lag


def guarded_lag(lag, u_prev) -> Optional[np.ndarray]:
    """lag with u_prev at every node where u_prev >= 0 and lag is negative, so
    that the lag never leaves a reaction's domain of nonnegative values where
    u_prev is inside it; None when there is no such node."""
    kept = (lag < 0.0) & (u_prev >= 0.0)
    return np.where(kept, u_prev, lag) if kept.any() else None


def corrector_solve(sys: TimeLevelSystem, problem: PdeProblem, cfg: StepConfig, u_prev):
    """The level's fixed point: the converged state and the number of solves.

    The first lag is extrapolated_lag(sys.u_prev, sys.earlier): cubic from the
    fourth level of a run on, quadratic at the third, linear at the second, and
    sys.u_prev itself when the system was built without a previous one.  When
    that seed is within epsilon of the first solve, the level takes that one
    solve; otherwise the corrector runs until two successive solves agree.  When
    the reaction raises DomainError and guarded_lag changes the seed, the level
    runs once more from the guarded seed, and only that run's solves are counted.
    u_prev must be the level the system was built from, sys.u_prev itself or an
    array equal to it; any other raises ValueError.  Failures are fixed_point's,
    and as there, a caller outside march holds its own np.errstate.
    """
    # identity first: the run loop passes sys.u_prev itself and pays no O(N) check
    if u_prev is not sys.u_prev and not np.array_equal(u_prev, sys.u_prev):
        raise ValueError("u_prev is not the level the system was built from")
    factorization = sys.factorization
    # the level's own eta/mu, not the factored level's
    _, mu_n, eta_n = sys.coeffs
    seed = extrapolated_lag(sys.u_prev, sys.earlier)
    for rerun in (False, True):
        try:
            # the problem's reaction, called once a pass.  Positional operands: a
            # starred call costs 0.3 us
            (u, r_left, r_right), iters = fixed_point(
                problem.reaction.nonlinear, eta_n / mu_n, factorization.t_band, sys.rhs_fixed,
                sys.drift, factorization.solve, sys.g_left, sys.g_right, seed, cfg, sys.t_n,
                "corrector")
            break
        except DomainError:
            # the rare path: a reaction undefined below zero, such as u^3.5, met a
            # negative lag, so the seed keeps u_n wherever u_n >= 0, once
            seed = None if rerun else guarded_lag(seed, sys.u_prev)
            if seed is None:
                raise
    # the end rows of -A, whose right-hand side r is the pass's negated one
    b_11, b_12, b_13, b_nl, b_nm, b_nn = factorization.ends
    q_left = (r_left - b_12 * u.item(1) - b_13 * u.item(2)) / b_11
    q_right = (r_right - b_nm * u.item(-2) - b_nl * u.item(-3)) / b_nn
    return SolverState(u, q_left, q_right, sys.t_n), iters


@dataclass
class Trajectory:
    """States captured at the requested snapshot times plus per-level solve counts."""

    states: list
    level_iterations: list


def level_index(t, tau, name="time") -> int:
    """t / tau rounded to the nearest level, rejecting non-finite times and
    quotients, and non-multiples."""
    if not math.isfinite(t):
        raise ValueError(f"{name} {t!r} must be finite")
    quotient = t / tau
    if not math.isfinite(quotient):
        raise ValueError(f"{name} {t!r} over tau = {tau!r} is not a finite number of levels")
    k = int(round(quotient))
    if abs(t - k * tau) > TIME_MULTIPLE_TOL * max(1.0, abs(t)):
        raise ValueError(f"{name} {t!r} is not an integer multiple of tau = {tau!r}")
    return k


def time_levels(tau, t_end, snapshots=None) -> tuple:
    """Level count to t_end and the set of snapshot levels (default: t_end alone).

    t_end must be nonnegative, and t_end and every snapshot time finite integer
    multiples of tau within rounding, with the snapshots in [0, t_end] and at
    most MAX_LEVELS levels to t_end.
    """
    if not t_end >= 0.0:
        raise ValueError(f"t_end = {t_end} must be nonnegative")
    n_levels = level_index(t_end, tau, "t_end")
    if n_levels > MAX_LEVELS:
        raise ValueError(f"t_end = {t_end:g} over tau = {tau:g} gives {n_levels:.3g} time levels, "
                         f"more than the {MAX_LEVELS:.0e} a run may march")
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


def march(problem: PdeProblem, grid: Grid, cfg: StepConfig, t_end, snapshots, level) -> Trajectory:
    """The level loop of a solver: from t = 0 to t_end, capturing states at the snapshots.

    level(t_n, u) maps the previous level's values to the level's SolverState and
    its solve count.  The grid must span the problem interval, t_end and the
    snapshot times (default: t_end alone) are checked by time_levels, and t_end
    must be within the problem horizon.  The t = 0 state is the initial data
    sampled at the nodes, with nan fluxes.
    """
    if abs(grid.a - problem.a) > 1e-12 or abs(grid.b - problem.b) > 1e-12:
        raise ValueError(
            f"grid [{grid.a}, {grid.b}] does not span the problem interval "
            f"[{problem.a}, {problem.b}]"
        )
    n_levels, snap_levels = time_levels(cfg.tau, t_end, snapshots)
    if t_end > problem.horizon * (1.0 + 1e-12):
        raise ValueError(f"t_end = {t_end} exceeds the problem horizon {problem.horizon}")

    states = []
    level_iterations = []
    # boundary data that overflow, and iterates that diverge, reach the corrector
    # as non-finite values, which it reports as ConvergenceError, so numpy's
    # warning is noise; one errstate for the march costs less than one per level
    with np.errstate(over="ignore", invalid="ignore"):
        u = initial_values(problem, grid.nodes)
        if 0 in snap_levels:
            states.append(SolverState(u=u.copy(), q_left=math.nan, q_right=math.nan, t=0.0))
        for k in range(1, n_levels + 1):
            state, iters = level(k * cfg.tau, u)
            level_iterations.append(iters)
            u = state.u
            if k in snap_levels:
                states.append(state)

    log.info("march finished: %d levels, corrector iters max %s", n_levels,
             max(level_iterations, default=0))
    return Trajectory(states=states, level_iterations=level_iterations)


def run(problem: PdeProblem, grid: Grid, cfg: StepConfig, t_end: float, snapshots=None,
        ops: Optional[DrbemOperators] = None) -> Trajectory:
    """March from t = 0 to t_end, capturing states at the snapshot times.

    Snapshot times (default: t_end alone) must be integer multiples of tau within
    rounding.  Endpoint values are imposed exactly at every level.  Pass the
    grid's pre-assembled operator set to share it across runs (one built on
    other nodes raises ValueError); without one, the first level assembles it.
    The number of levels that factored their matrix is logged at INFO.
    """
    if ops is not None:
        _check_operators(ops, grid)
    system, factorizations = None, 0

    def level(t_n, u):
        nonlocal ops, system, factorizations
        if ops is None:
            ops = assemble_drbem(grid)
        prev = system
        system = build_level_system(problem, grid, ops, cfg, t_n, u, prev_system=prev)
        factorizations += prev is None or system.factorization is not prev.factorization
        return corrector_solve(system, problem, cfg, u)

    trajectory = march(problem, grid, cfg, t_end, snapshots, level)
    log.info("run finished: %d factorizations over %d levels", factorizations,
             len(trajectory.level_iterations))
    return trajectory
