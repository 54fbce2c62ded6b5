"""Grids and the collocation scheme's operators in banded clamped-spline form.

With the radial basis function phi(r) = 1 + r, the dual reciprocity scheme is
exactly clamped cubic-spline collocation, so every operator the time stepper
needs is a band written down in O(N) from its closed-form stencil in the node
spacings.  The dense E = D Phi^{-1} it replaces is a test oracle; `reference`
keeps the kernels and Phi, and nothing here imports it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._linalg import blas, lapack
from .exceptions import SingularMatrixError

# Pivots below this magnitude signal a degenerate node set.
PIVOT_FLOOR = 1e-14

# Sub- and superdiagonals of the level matrix in spline form.
LEVEL_BAND = 2
# The most nodes numpy can hold in one array of doubles.
MAX_NODES = np.iinfo(np.intp).max // 8


@dataclass(frozen=True)
class Grid:
    """Ordered collocation nodes x_1 < ... < x_N spanning the working interval."""

    nodes: np.ndarray

    def __post_init__(self):
        nodes = np.array(self.nodes, dtype=float)
        if nodes.ndim != 1 or nodes.size < 3:
            raise ValueError(f"a grid needs n >= 3 one-dimensional nodes, got shape {nodes.shape}")
        if not np.isfinite(nodes).all():
            raise ValueError("grid nodes must be finite")
        with np.errstate(over="ignore"):  # an overflowed spacing fails the span check
            h = np.diff(nodes)
        if not np.all(h > 0.0):
            raise ValueError("grid nodes must be strictly increasing")
        # the operators' entries grow like the span, 1 / h and h_max / h_min
        span, h_min = float(nodes[-1]) - float(nodes[0]), float(h.min())
        if not math.isfinite(16.0 * span + 16.0 * (1.0 + span) / h_min):
            raise ValueError(f"grid span {span:g} over spacing {h_min:g} is not finite")
        nodes.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)

    @classmethod
    def uniform(cls, a, b, n):
        if not float(n).is_integer():
            raise ValueError(f"node count n = {n!r} must be an integer")
        if not math.isfinite(float(b) - float(a)):
            raise ValueError(f"interval [{a}, {b}] must be finite")
        if not 3 <= int(n) <= MAX_NODES:
            raise ValueError(f"node count n = {n!r}: need n >= 3 and n <= {MAX_NODES}")
        return cls(np.linspace(float(a), float(b), int(n)))

    @classmethod
    def with_spacing(cls, a, b, h):
        """Uniform grid with nominal spacing h; (b - a) must be a whole number of cells."""
        if not 0.0 < h < math.inf:
            raise ValueError(f"spacing h = {h} must be positive and finite")
        cells = (float(b) - float(a)) / float(h)
        if not math.isfinite(cells):
            raise ValueError(f"interval [{a}, {b}] over spacing {h} is not a finite cell count")
        n_cells = int(round(cells))
        if n_cells < 2 or abs(cells - n_cells) > 1e-9 * max(1.0, abs(cells)):
            raise ValueError(f"spacing {h} does not evenly divide [{a}, {b}]")
        if not n_cells < MAX_NODES:
            raise ValueError(f"spacing h = {h} gives {cells:.3g} cells, more than an array holds")
        return cls.uniform(a, b, n_cells + 1)

    @property
    def n(self) -> int:
        return self.nodes.size

    @property
    def a(self) -> float:
        return float(self.nodes[0])

    @property
    def b(self) -> float:
        return float(self.nodes[-1])

    @property
    def h(self) -> float:
        """Nominal spacing (b - a)/(N - 1)."""
        return (self.b - self.a) / (self.n - 1)


def same_nodes(a: Grid, b: Grid) -> bool:
    """Whether two grids have the same nodes; identity first, so a grid
    compared with itself pays no O(N) check."""
    return a is b or np.array_equal(a.nodes, b.nodes)


def _check_factors(lu, pivots, what):
    """Raise SingularMatrixError naming `what` on a non-finite factor or a pivot
    (a diagonal entry of U) below PIVOT_FLOOR."""
    if not np.isfinite(lu).all():
        raise SingularMatrixError(f"{what} has non-finite LU factors")
    # the array's own min: np.min's Python wrapper costs twice the reduction
    smallest_pivot = float(abs(pivots).min())
    if not smallest_pivot >= PIVOT_FLOOR:
        raise SingularMatrixError(
            f"{what} is singular: pivot {smallest_pivot:.3e} below {PIVOT_FLOOR:.0e}"
        )


def band_lu_factor_checked(band, kl, ku, what):
    """LAPACK gbtrf factors (lu, piv) of a matrix with kl sub- and ku superdiagonals.

    `band` is in gbtrf's layout, shape (2 kl + ku + 1, N): entry (i, j) of the
    matrix sits at band[kl + ku + i - j, j], and the first kl rows are zero
    workspace for the fill-in.  A Fortran-ordered band is factored in place and
    any other is copied first.  A non-finite factor or a pivot below
    PIVOT_FLOOR raises SingularMatrixError naming `what`; no warning is emitted.
    band_lu_solver turns the factors into their solve.
    """
    # gbtrf's info > 0 (an exact zero pivot) is caught by the pivot floor
    lu, piv, _ = lapack.dgbtrf(band, kl, ku, overwrite_ab=1)
    _check_factors(lu, lu[kl + ku], what)
    return lu, piv


def band_lu_solver(factored, piv, kl, ku):
    """The in-place solve(b) -> (b, 0) of the matrix whose gbtrf factors are (lu, piv).

    `factored` is Fortran-ordered, shape (2 kl + ku + 1, m + 1): lu in its first
    m columns, as band_lu_factor_checked(factored[:, :-1], kl, ku, ...) leaves
    it, and one spare column after them, which no solve reads.  When gbtrf
    swapped no rows (piv is 0-based, so piv == arange(m)), it never wrote the kl
    fill-in rows, and the solve is two dtbsv sweeps over the factors in place: a
    unit lower one of width kl over L's multipliers, then an upper one of width
    ku over U.  That is dgbtrs's arithmetic in half its time, since dgbtrs
    makes one dger call per column of L.  After any row interchange the solve
    is dgbtrs.
    """
    ldab, m = factored.shape[0], factored.shape[1] - 1
    if not np.array_equal(piv, np.arange(m)):
        lu = factored[:, :-1]
        # trans = 0, n = ldb = m, overwrite_b = 1: in place on b
        return lambda b, dgbtrs=lapack.dgbtrs: dgbtrs(lu, kl, ku, b, piv, 0, m, ldab, m, 1)
    # dtbsv reads a triangular band of width k from the first k + 1 rows of an
    # array whose leading dimension is its row count.  Views of ldab rows that
    # start at L's and at U's diagonal row of the first column have the factors'
    # leading dimension; the spare column holds their overhang.
    flat = factored.ravel("F")
    lower = flat[kl + ku:kl + ku + ldab * m].reshape(m, ldab).T
    upper = flat[kl:kl + ldab * m].reshape(m, ldab).T

    def solve(b, dtbsv=blas.dtbsv):
        # incx = 1, offx = 0, lower = 1 then 0, trans = 0, unit diagonal = 1
        # then 0, overwrite_x = 1
        dtbsv(kl, lower, b, 1, 0, 1, 0, 1, 1)
        dtbsv(ku, upper, b, 1, 0, 0, 0, 0, 1)
        return b, 0

    return solve


@dataclass(frozen=True)
class DrbemOperators:
    """The collocation scheme's operators on one grid, in clamped cubic-spline form.

    With phi = 1 + r, premultiplying the collocation identity L q + c*u - H g = E b
    by T E^{-1} gives T b = 6 Delta(u, q) exactly: the interpolated load b is the
    nodal second derivative (moment) of the cubic spline through u with end
    slopes q = [u_x(a), u_x(b)] (de Boor, A Practical Guide to Splines, ch. IV).
    6 Delta, the moment matrix T, which gets h_i [2 1; 1 2] in rows and columns
    i, i+1 from each cell i, and P = Phi_x Phi^{-1}, the mean of the slopes left
    and right of each node, are tridiagonal stencils in the spacings; T P is
    pentadiagonal.  Outside [a, b] the interpolant sum_j alpha_j (1 + |x - x_j|)
    has slope -+2 kappa (u_1 + u_N), kappa = 1 / (2 (b - a + 2)), so P's end rows
    take kappa in their corners and do not annihilate constants.

    t_band is T in gbmv layout (one sub- and one superdiagonal), Fortran-ordered
    so that dgbmv reads it in place rather than copying it per call.  level_pieces
    holds 6 Delta, T and T P, in that order, on [u_x(a), u_2, ..., u_{N-1}, u_x(b)]
    in gbtrf layout with LEVEL_BAND sub- and superdiagonals (zero workspace rows
    first), each piece in Fortran order; dirichlet_pieces holds the same three on
    the imposed values u_1 and u_N.  Every entry is the stencils' image of a unit
    vector, formed by the operations, in the order, of apply_t and of the tests'
    slope and moment_load (tests/helpers.py).  A level matrix 6 Delta - T (s I +
    r P) is [1, -s, -r] applied to the pieces; the fluxes enter only its end
    rows, and the stepper factors its interior columns 2..N-1, which are
    contiguous.
    """

    grid: Grid
    t_band: np.ndarray
    level_pieces: np.ndarray
    dirichlet_pieces: np.ndarray

    def apply_t(self, v) -> np.ndarray:
        """T v, along the last axis of v."""
        t_band, v = self.t_band, np.asarray(v, dtype=float)
        out = t_band[1] * v
        out[..., :-1] += t_band[0, 1:] * v[..., 1:]
        out[..., 1:] += t_band[2, :-1] * v[..., :-1]
        return out


def assemble_drbem(grid: Grid, interp=None) -> DrbemOperators:
    """Build the operators on the grid in O(N), each band piece from its stencil.

    interp, a reference InterpolationOperator, is only checked against the
    grid's nodes (one on other nodes raises ValueError) and then dropped: no
    operator reads it.
    """
    if interp is not None and not same_nodes(interp.grid, grid):
        raise ValueError("interpolation operator was built on a different node set")

    n = grid.n
    h = np.diff(grid.nodes)
    kappa = 0.5 / (grid.b - grid.a + 2.0)
    t_band = np.zeros((3, n), order="F")  # dgbmv's own layout: read in place
    t_band[0, 1:] = t_band[2, :-1] = h
    t_band[1, :-1] = 2.0 * h
    t_band[1, 1:] += 2.0 * h
    d = t_band[1]
    level_pieces = np.zeros((3, n, 3 * LEVEL_BAND + 1)).transpose(0, 2, 1)
    dirichlet_pieces = np.zeros((3, n, 2))
    ops = DrbemOperators(grid=grid, t_band=t_band, level_pieces=level_pieces,
                         dirichlet_pieces=dirichlet_pieces)

    # Band column j holds entry (i, j) in row 2 LEVEL_BAND + i - j, so row k of
    # each view below holds entry (j - 2 + k, j) of the interior columns j, whose
    # unit vectors have the slopes up = 1/h[j-1] and down = -1/h[j] beside node j.
    up = 1.0 / h
    down = -up
    delta_rows, t_rows, tp_rows = level_pieces[:, LEVEL_BAND:, 1:-1]
    delta_rows[1:4] = 6.0 * up[:-1], 6.0 * (down[1:] - up[:-1]), 6.0 * up[1:]
    t_rows[1:4] = h[:-1], d[1:-1], h[1:]
    # P e_j above, on and below the diagonal; T P e_j summed as apply_t sums
    above, on, below = 0.5 * up[:-1], 0.5 * (up[:-1] + down[1:]), 0.5 * down[1:]
    tp_rows[0, 1:] = h[:-2] * above[1:]
    tp_rows[1] = d[:-2] * above + h[:-1] * on
    tp_rows[2] = d[1:-1] * on + h[1:] * below + h[:-1] * above
    tp_rows[3] = d[2:] * below + h[1:] * on
    tp_rows[4, :-1] = h[2:] * below[:-1]
    # the flux unknowns enter 6 Delta alone, in its end rows
    level_pieces[0, 2 * LEVEL_BAND, [0, -1]] = -6.0, 6.0

    # 6 Delta, T and T P on e_1 and e_N; only these P columns take kappa
    dirichlet_pieces[:2, :2, 0] = (6.0 * down[0], 6.0 * up[0]), (d[0], h[0])
    dirichlet_pieces[:2, -2:, 1] = (6.0 * up[-1], 6.0 * down[-1]), (h[-1], d[-1])
    outer = 2.0 * kappa
    corners = np.zeros((2, n))
    corners[0, :2], corners[0, -1] = (0.5 * (-outer + down[0]), 0.5 * down[0]), 0.5 * outer
    corners[1, 0], corners[1, -2:] = 0.5 * -outer, (0.5 * up[-1], 0.5 * (up[-1] + outer))
    dirichlet_pieces[2] = ops.apply_t(corners).T

    for arr in (t_band, level_pieces, dirichlet_pieces):
        arr.setflags(write=False)
    return ops
