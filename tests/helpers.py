"""Shared helpers for the test suite."""

import csv
import dataclasses
import importlib.util
import math
import tracemalloc
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
from hypothesis import strategies as st
from scipy.linalg import blas, lapack, lu_factor, lu_solve

from drbem1d.assembly import LEVEL_BAND, Grid, band_lu_factor_checked
from drbem1d.problems import make_generalized_fisher
from drbem1d.reference import (assemble_interpolation, endpoint_matrices, fundamental_solution,
                               fundamental_solution_dx, psi)
from drbem1d.stepping import (LevelFactors, TimeLevelSystem, fixed_point, initial_values,
                              level_coefficients)

# what tools/output_digest.py writes on the committed tree
GOLDEN = Path(__file__).resolve().parent / "golden"


def load_tool(name):
    """tools/<name>.py, imported by path."""
    path = Path(__file__).resolve().parents[1] / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_csv(path):
    """Read one of our CSVs: returns (comment lines, list of row dicts). The lines
    that are not "#" notes are read by csv.reader; a row whose cell count differs
    from the header's fails."""
    with path.open(newline="") as file:
        lines = list(file)
    notes = [line[1:].strip() for line in lines if line.startswith("#")]
    header, *rows = csv.reader(line for line in lines if not line.startswith("#"))
    for row in rows:
        assert len(row) in (0, len(header)), f"{path.name}: {row} under {header}"
    return notes, [dict(zip(header, row)) for row in rows if row]


def frac(text):
    """Parse '1/128' style labels to float."""
    return float(Fraction(text))


def psi_x(x, xj):
    """d/dx of psi(|x - xj|): odd about xj and zero there."""
    d = x - xj
    return d * (1.0 + np.abs(d) / 2.0)


def split_defect(reaction, u):
    """full(u) - linear_slope*u - nonlinear(u) of a ReactionTerm; zero when its
    split is consistent."""
    return reaction.full(u) - reaction.linear_slope * u - reaction.nonlinear(u)


def slope(ops, u):
    """P u, the scheme's nodal derivative of the data u on ops.grid: the mean of
    the slopes left and right of each node.

    Outside [a, b] the interpolant sum_j alpha_j (1 + |x - x_j|) has slope
    -+sum_j alpha_j = -+2 kappa (u_1 + u_N), so the end rows do not annihilate
    constants; that is the scheme's P, kept as it is.  h and kappa are
    assemble_drbem's, by the same formulas, so on a unit vector this gives the
    bits of ops.level_pieces.
    """
    grid = ops.grid
    kappa = 0.5 / (grid.b - grid.a + 2.0)
    u = np.asarray(u, dtype=float)
    s = np.diff(u) / np.diff(grid.nodes)
    outer = 2.0 * kappa * (u[0] + u[-1])
    return 0.5 * (np.concatenate([[-outer], s]) + np.append(s, outer))  # left + right


def moment_load(ops, u, q_left, q_right):
    """6 Delta(u, q) on ops.grid, six times the slope jump at each node: the
    clamped-spline right-hand side, with q the end slopes."""
    s = np.diff(np.asarray(u, dtype=float)) / np.diff(ops.grid.nodes)
    return 6.0 * (np.append(s, q_right) - np.concatenate([[q_left], s]))  # right - left


def back_substitution_gap(sys, problem, state):
    """Sup-norm change from one extra corrector pass seeded with the converged level.

    Measures how far the returned solution sits from the fixed point of the full
    nonlinear discrete system; a converged level should stay within a small
    multiple of the corrector tolerance.  The pass is fixed_point's on the
    level's operands, stopped after it by an infinite tolerance, so a non-finite
    pass raises as the corrector does.
    """
    _, mu, eta = sys.coeffs
    one_pass = SimpleNamespace(epsilon=math.inf, max_corrector_iters=1)
    with np.errstate(over="ignore", invalid="ignore"):
        (u_again, _, _), _ = fixed_point(
            problem.reaction.nonlinear, eta / mu, sys.factorization.t_band, sys.rhs_fixed,
            sys.drift, sys.factorization.solve, sys.g_left, sys.g_right, state.u, one_pass,
            sys.t_n, "corrector")
    return float(np.max(np.abs(u_again - state.u)))


def eager_e_matrix(grid, interp):
    """E = D Phi^{-1}, the dense DRBEM operator, written out from the public
    kernels: a transposed solve against interp's LU, not an explicit inverse.
    The package holds no E; this is the test oracle the spline form is held to.
    """
    x = grid.nodes
    a, b = grid.a, grid.b
    l_matrix = np.column_stack([-fundamental_solution(a, x), fundamental_solution(b, x)])
    h_matrix = np.column_stack([-fundamental_solution_dx(a, x), fundamental_solution_dx(b, x)])
    psi_boundary = np.vstack([psi(np.abs(a - x)), psi(np.abs(b - x))])
    psi_x_boundary = np.vstack([psi_x(a, x), psi_x(b, x)])
    free_terms = np.ones(grid.n)
    free_terms[0] = 0.5
    free_terms[-1] = 0.5
    psi_tilde = free_terms[:, None] * psi(np.abs(x[:, None] - x[None, :]))
    d_matrix = l_matrix @ psi_x_boundary - h_matrix @ psi_boundary + psi_tilde
    return interp.solve(d_matrix.T, transposed=True).T


def dense_level_solve(problem, ops, p_matrix, cfg, t_n, u_prev, lag):
    """One level on the dense N x N form the stepper solved before its spline form.

    The collocation identity L q + c*u - H g = E b with
    b = (u - u_prev)/(tau mu) + (nu/mu) P u - (eta/mu)(lambda u + F_n(u_tilde)),
    solved for [u_x(a), u_x(b), u_2, ..., u_{N-1}] by one LU and the lagged
    corrector from the first lag `lag`, which counts as iterate 0.  Returns (u,
    q_left, q_right, passes).
    A test reference only.
    """
    tau = cfg.tau
    nu, mu, eta = (float(f(t_n)) for f in (problem.coeffs.nu, problem.coeffs.mu,
                                           problem.coeffs.eta))
    n = u_prev.size
    g_left, g_right = float(problem.bc_left(t_n)), float(problem.bc_right(t_n))
    implicit_scale = 1.0 / (tau * mu) - eta * problem.reaction.linear_slope / mu
    l_matrix, h_matrix, free_terms = endpoint_matrices(ops.grid)
    e_m = eager_e_matrix(ops.grid, assemble_interpolation(ops.grid))
    w = np.diag(free_terms) - implicit_scale * e_m - (nu / mu) * e_m @ p_matrix
    factorization = lu_factor(np.column_stack([l_matrix[:, 0], l_matrix[:, 1], w[:, 1:n - 1]]))
    rhs_fixed = (h_matrix @ np.array([g_left, g_right])
                 - (e_m @ u_prev) / (tau * mu)
                 - w[:, 0] * g_left - w[:, -1] * g_right)

    u_tilde = u_last = lag
    for passes in range(1, cfg.max_corrector_iters + 1):
        rhs = rhs_fixed - (eta / mu) * (e_m @ problem.reaction.nonlinear(u_tilde))
        z = lu_solve(factorization, rhs)
        u_new = np.concatenate([[g_left], z[2:], [g_right]])
        if np.max(np.abs(u_new - u_last)) <= cfg.epsilon:
            return u_new, z[0], z[1], passes
        u_tilde = u_last = u_new
    raise AssertionError(f"dense reference corrector stalled at t = {t_n}")


def level_band(problem, ops, cfg, t_n):
    """The level matrix A = [1, -s, -nu/mu] applied to ops.level_pieces, on the
    unknowns [u_x(a), u_2, ..., u_{N-1}, u_x(b)] in gbtrf layout, and its
    Dirichlet columns likewise.  A test reference only."""
    nu, mu, eta = level_coefficients(problem, t_n)
    n = ops.grid.n
    implicit_scale = 1.0 / (cfg.tau * mu) - eta * problem.reaction.linear_slope / mu
    weights = np.array([1.0, -implicit_scale, -nu / mu])
    with np.errstate(over="ignore", invalid="ignore"):  # the factor check reports nan
        band = (weights @ ops.level_pieces.reshape(3, -1)).reshape(-1, n)
        dirichlet_columns = (weights @ ops.dirichlet_pieces.reshape(3, -1)).reshape(n, 2)
    return band, dirichlet_columns


def band_level_system(problem, ops, cfg, t_n, u_prev):
    """The level's system on the (2, 2) band with the fluxes among its unknowns,
    whatever its advection: gbtrf factors of level_band's A, and rhs_fixed with the
    full Dirichlet product, as the stepper built every level before it eliminated
    the fluxes.  Its LevelFactors holds the gbtrf factors and no solve, ends or
    dirichlet_rows: the product takes level_band's Dirichlet columns whole.  A
    test reference only.
    """
    n = u_prev.size
    coeffs = level_coefficients(problem, t_n)
    band, dirichlet_columns = level_band(problem, ops, cfg, t_n)
    factors = band_lu_factor_checked(band, LEVEL_BAND, LEVEL_BAND,
                                     f"level matrix at t = {t_n:g}")
    g_left, g_right = float(problem.bc_left(t_n)), float(problem.bc_right(t_n))
    rhs_fixed = (blas.dgbmv(n, n, 1, 1, -1.0 / (cfg.tau * coeffs[1]), ops.t_band, u_prev)
                 - dirichlet_columns @ np.array([g_left, g_right]))
    nu, mu, eta = coeffs
    weights = (1.0 / (cfg.tau * mu) - eta * problem.reaction.linear_slope / mu, nu / mu)
    factorization = LevelFactors(weights, factors, None, None, None, ops.t_band)
    return TimeLevelSystem(factorization, coeffs, 0.0, rhs_fixed, t_n, g_left, g_right, u_prev)


def dirichlet_columns(factorization, n):
    """The level matrix's (n, 2) columns on u_1 and u_N, rebuilt from
    factorization.dirichlet_rows, zero wherever it holds no entry."""
    columns = np.zeros((n, 2))
    left, right, both = factorization.dirichlet_rows
    for i, on_left in left:
        columns[i, 0] = on_left
    for i, on_right in right:
        columns[i, 1] = on_right
    for i, on_left, on_right in both:
        columns[i] = on_left, on_right
    return columns


def interior_band_factors(problem, ops, cfg, t_n):
    """gbtrf factors of -A on u_2..u_{N-1}, A from level_band, the interior band
    copied entry by entry.  A test reference only."""
    band, _ = level_band(problem, ops, cfg, t_n)
    kl = ku = LEVEL_BAND
    n = band.shape[1]
    interior = np.zeros((2 * kl + ku + 1, n - 2))
    for i in range(1, n - 1):
        for j in range(max(1, i - kl), min(n - 1, i + ku + 1)):
            interior[kl + ku + i - j, j - 1] = -band[kl + ku + i - j, j]
    return band_lu_factor_checked(interior, kl, ku, f"level matrix at t = {t_n:g}")


def reference_interior_corrector(sys, problem, cfg, lag):
    """The corrector as a plain loop of interior solves from the first lag `lag`:
    per pass one dgbmv for the negated right-hand side, a second for the lagged
    drift term sys.drift T u_tilde when the drift is not zero, and one dpttrs or
    dgbtrs, as sys.factorization.factors are dpttrf's or dgbtrf's, on its
    entries 2..N-1; successive iterates compared by np.max, `lag` counting as
    iterate 0, then each flux from its end row.
    Returns (u, q_left, q_right, passes).  A test reference only.
    """
    n = sys.rhs_fixed.size
    _, mu, eta = sys.coeffs
    factors = sys.factorization.factors
    b_11, b_12, b_13, b_nl, b_nm, b_nn = sys.factorization.ends  # of minus the level matrix
    u_tilde = u_last = np.asarray(lag, dtype=float)
    for passes in range(1, cfg.max_corrector_iters + 1):
        neg_rhs = blas.dgbmv(n, n, 1, 1, eta / mu, sys.factorization.t_band,
                             problem.reaction.nonlinear(u_tilde), beta=-1.0, y=sys.rhs_fixed)
        if sys.drift != 0.0:
            neg_rhs = blas.dgbmv(n, n, 1, 1, sys.drift, sys.factorization.t_band, u_tilde,
                                 beta=1.0, y=neg_rhs)
        if factors[0].ndim == 1:
            interior, _ = lapack.dpttrs(*factors, neg_rhs[1:-1])
        else:
            lu, piv = factors
            interior, _ = lapack.dgbtrs(lu, LEVEL_BAND, LEVEL_BAND, neg_rhs[1:-1], piv)
        u = np.concatenate([[sys.g_left], interior, [sys.g_right]])
        if float(np.max(np.abs(u - u_last))) <= cfg.epsilon:
            q_left = float((neg_rhs[0] - b_12 * u[1] - b_13 * u[2]) / b_11)
            q_right = float((neg_rhs[-1] - b_nm * u[-2] - b_nl * u[-3]) / b_nn)
            return u, q_left, q_right, passes
        u_tilde = u_last = u
    raise AssertionError(f"reference interior corrector stalled at t = {sys.t_n}")


def reference_corrector(sys, problem, cfg, lag):
    """The corrector as a plain loop of lagged band solves on band_level_system's
    factors from the first lag `lag`, as the stepper first ran it: per pass one
    dgbmv and one dgbtrs, the end entries read as fluxes and replaced by the
    boundary values, successive iterates compared by np.max, `lag` counting as
    iterate 0.  Returns (u, q_left, q_right, passes).  A test reference only.
    """
    n = sys.rhs_fixed.size
    _, mu, eta = sys.coeffs
    lu, piv = sys.factorization.factors
    u_tilde = u_last = np.asarray(lag, dtype=float)
    for passes in range(1, cfg.max_corrector_iters + 1):
        rhs = blas.dgbmv(n, n, 1, 1, -eta / mu, sys.factorization.t_band,
                         problem.reaction.nonlinear(u_tilde), beta=1.0, y=sys.rhs_fixed)
        u, _ = lapack.dgbtrs(lu, LEVEL_BAND, LEVEL_BAND, rhs, piv, overwrite_b=1)
        q_left, q_right = float(u[0]), float(u[-1])
        u[0], u[-1] = sys.g_left, sys.g_right
        if float(np.max(np.abs(u - u_last))) <= cfg.epsilon:
            return u, q_left, q_right, passes
        u_tilde = u_last = u
    raise AssertionError(f"reference corrector stalled at t = {sys.t_n}")


def reference_oracle(problem, grid, tau, t_end, epsilon=1e-10, max_iters=100):
    """fd_oracle's march on the grid's own spacings as a plain loop: each level's
    tridiagonal band written out row by row from the three-point stencils, and one
    dgbsv, a band factorization and a solve, per corrector pass.  Each level starts
    from u_n and stops when two successive solves agree, never at its first.
    Returns the final state and each level's pass count.  A test reference only."""
    x = grid.nodes
    u = initial_values(problem, x)
    lam, m = problem.reaction.linear_slope, grid.n - 2
    passes = []
    for k in range(1, int(round(t_end / tau)) + 1):
        t_n = k * tau
        nu, mu, eta = level_coefficients(problem, t_n)
        banded = np.zeros((4, m))  # gbsv layout: a zero workspace row, then the three diagonals
        for j in range(m):
            h_l, h_r = x[j + 1] - x[j], x[j + 2] - x[j + 1]
            span = h_l + h_r
            lower = nu * (-h_r / (h_l * span)) - mu * (2.0 / (h_l * span))
            diag = (nu * ((h_r - h_l) / (h_l * h_r)) - mu * (-2.0 / (h_l * h_r))
                    + (1.0 / tau - eta * lam))
            upper = nu * (h_l / (h_r * span)) - mu * (2.0 / (h_r * span))
            banded[2, j] = diag
            if j > 0:
                banded[3, j - 1] = lower
            else:
                lower_0 = lower
            if j < m - 1:
                banded[1, j + 1] = upper
            else:
                upper_last = upper
        g_left, g_right = float(problem.bc_left(t_n)), float(problem.bc_right(t_n))
        base = u[1:-1] / tau
        base[0] -= lower_0 * g_left
        base[-1] -= upper_last * g_right
        u_tilde, u_last = u, None
        for iters in range(1, max_iters + 1):
            rhs = base + eta * problem.reaction.nonlinear(u_tilde[1:-1])
            *_, interior, info = lapack.dgbsv(1, 1, banded, rhs)
            assert info == 0
            u_new = np.concatenate([[g_left], interior, [g_right]])
            if u_last is not None and float(np.max(np.abs(u_new - u_last))) <= epsilon:
                break
            u_tilde = u_last = u_new
        else:
            raise AssertionError(f"reference oracle stalled at t = {t_n}")
        u = u_new
        passes.append(iters)
    return u, passes


def jittered_grid(a, b, n, seed=0, jitter=0.1):
    """Grid.uniform(a, b, n) with each interior node moved by up to jitter * h."""
    nodes = np.linspace(a, b, n)
    h = (b - a) / (n - 1)
    nodes[1:-1] += jitter * h * np.random.default_rng(seed).uniform(-1.0, 1.0, n - 2)
    return Grid(nodes)


def tanh_graded_grid(a, b, n, beta=1.5):
    """n nodes on [a, b] clustered towards the middle: the image of a uniform
    s in [-1, 1] under tanh(beta s) / tanh(beta)."""
    s = np.tanh(beta * np.linspace(-1.0, 1.0, n)) / np.tanh(beta)
    nodes = a + 0.5 * (b - a) * (1.0 + s)
    nodes[0], nodes[-1] = a, b
    return Grid(nodes)


@st.composite
def graded_grids(draw):
    """A grid on [0, 1] of 4 to 40 nodes whose spacings differ by at most a factor of 4."""
    n = draw(st.integers(4, 40))
    spacings = np.array(draw(st.lists(st.floats(1.0, 4.0), min_size=n - 1, max_size=n - 1)))
    nodes = np.concatenate([[0.0], np.cumsum(spacings) / spacings.sum()])
    nodes[-1] = 1.0
    return Grid(nodes)


def bumped_generalized_fisher(alpha, height=-1.5, a=-2.0, b=2.0, horizon=1.0):
    """make_generalized_fisher whose initial data gains `height` at x = 0.5 and
    keeps its values at every node 0.25 or more away from it.  The default dips
    the initial data to about -1 there."""
    problem = make_generalized_fisher(alpha, a=a, b=b, horizon=horizon)
    return dataclasses.replace(
        problem,
        initial=lambda x: problem.initial(x) + height * np.exp(-(((x - 0.5) / 0.05) ** 2)),
    )


def traced(fn, *args, **kwargs):
    """fn's result and the peak bytes that tracemalloc sees while it runs."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
