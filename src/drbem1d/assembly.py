"""Grids and the collocation scheme's operators in banded clamped-spline form.

With the radial basis function phi(r) = 1 + r, the dual reciprocity scheme is
exactly clamped cubic-spline collocation, so every operator the time stepper
needs is a band built in O(N).  The dense formulation it replaces lives in
`reference`, which nothing here imports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

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


def _check_factors(lu, pivots, what):
    """Raise SingularMatrixError naming `what` on a non-finite factor or a pivot
    (a diagonal entry of U) below PIVOT_FLOOR."""
    if not np.isfinite(lu).all():
        raise SingularMatrixError(f"{what} has non-finite LU factors")
    smallest_pivot = float(np.min(np.abs(pivots)))
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
    """
    # gbtrf's info > 0 (an exact zero pivot) is caught by the pivot floor
    lu, piv, _ = lapack.dgbtrf(band, kl, ku, overwrite_ab=1)
    _check_factors(lu, lu[kl + ku], what)
    return lu, piv


# The slope helpers work in place on the array they return, so that building the
# operator record holds at most two N x k temporaries at a time.

def _slopes(h, u):
    """Cell slopes (u[i+1] - u[i]) / h[i] of the columns of u, shape (N, k)."""
    s = u[1:] - u[:-1]
    s /= h[:, None]
    return s


def _moment_load(h, u, q_left, q_right):
    """6 Delta(u, q): six times the slope jump at each node, q the end slopes."""
    s = _slopes(h, u)
    load = np.concatenate([s, q_right])  # right slopes; minus the left slopes:
    load[:1] -= q_left
    load[1:] -= s
    load *= 6.0
    return load


def _slope(h, kappa, u):
    """P u: the mean of the slopes left and right of each node.

    Outside [a, b] the interpolant sum_j alpha_j (1 + |x - x_j|) has slope
    -+sum_j alpha_j = -+2 kappa (u_1 + u_N), so the end rows do not annihilate
    constants; that is the scheme's P, kept as it is.
    """
    s = _slopes(h, u)
    outer = 2.0 * kappa * (u[:1] + u[-1:])
    mean = np.concatenate([-outer, s])  # left slopes; plus the right slopes:
    mean[:-1] += s
    mean[-1:] += outer
    mean *= 0.5
    return mean


def _apply_band(t_band, v):
    """T v for the columns of v, T a tridiagonal matrix in gbmv layout."""
    out = t_band[1][:, None] * v
    out[:-1] += t_band[0, 1:, None] * v[1:]
    out[1:] += t_band[2, :-1, None] * v[:-1]
    return out


@dataclass(frozen=True)
class DrbemOperators:
    """The collocation scheme's operators on one grid, in clamped cubic-spline form.

    With phi = 1 + r, premultiplying the collocation identity L q + c*u - H g = E b
    by T E^{-1} gives T b = 6 Delta(u, q) exactly: the interpolated load b is the
    nodal second derivative (moment) of the cubic spline through u with end
    slopes q = [u_x(a), u_x(b)] (de Boor, A Practical Guide to Splines, ch. IV).
    T, the moment matrix, gets h_i [2 1; 1 2] in rows and columns i, i+1 from
    each cell i; P = Phi_x Phi^{-1} is the stencil in `slope`.

    t_band is T in gbmv layout (one sub- and one superdiagonal).  level_pieces
    holds 6 Delta, T and T P, in that order, on [u_x(a), u_2, ..., u_{N-1}, u_x(b)]
    in gbtrf layout with LEVEL_BAND sub- and superdiagonals (zero workspace rows
    first), each piece in Fortran order; dirichlet_pieces holds the same three on
    the imposed values u_1 and u_N.  A level matrix 6 Delta - T (s I + r P) is
    therefore [1, -s, -r] applied to the pieces; the fluxes enter only its end
    rows, and the stepper factors its interior columns 2..N-1, which are
    contiguous in that order.  interp is the dense
    reference InterpolationOperator the caller passed, if any; only
    reference.e_matrix reads it.
    """

    grid: Grid
    h: np.ndarray
    kappa: float
    t_band: np.ndarray
    level_pieces: np.ndarray
    dirichlet_pieces: np.ndarray
    interp: object = None

    def slope(self, u) -> np.ndarray:
        """P u, the scheme's nodal derivative of the data u."""
        return _slope(self.h, self.kappa, np.asarray(u, dtype=float)[:, None])[:, 0]

    def moment_load(self, u, q_left, q_right) -> np.ndarray:
        """6 Delta(u, q), the clamped-spline right-hand side."""
        u = np.asarray(u, dtype=float)[:, None]
        return _moment_load(self.h, u, [[q_left]], [[q_right]])[:, 0]

    def apply_t(self, v) -> np.ndarray:
        """T v."""
        return _apply_band(self.t_band, np.asarray(v, dtype=float)[:, None])[:, 0]


def _gather_index(n, image_width):
    """Where each entry of a band piece sits in an N x image_width image of the
    probes: flat indices into the image, shaped as the transposed band (N, rows),
    and the mask of the entries that hold zeros.

    Row r of band column j holds entry (j + r - 2 LEVEL_BAND, j), found in image
    column j mod 5.  The fill-in rows and the rows outside the matrix hold
    zeros, and so do the flux columns: no probe covers them.
    """
    # int32 where it holds every index halves what the assembly keeps alive;
    # np.take widens it per call
    dtype = np.int32 if (n + LEVEL_BAND) * image_width <= np.iinfo(np.int32).max else np.intp
    j = np.arange(n, dtype=dtype)[:, None]
    index = j + np.arange(-2 * LEVEL_BAND, LEVEL_BAND + 1, dtype=dtype)
    zero = (index < 0) | (index >= n)
    zero[:, :LEVEL_BAND] = True
    index *= image_width
    index += j % (2 * LEVEL_BAND + 1)
    return index, zero


def _gather_band(level_piece, dirichlet_piece, image, gather):
    """Fill one Fortran-ordered band piece and its Dirichlet columns from its
    image of the probes, at the places _gather_index gives."""
    index, zero = gather
    # mode="clip" keeps the zero entries' indices in range; out= writes in place
    np.take(image, index, out=level_piece.T, mode="clip")
    level_piece.T[zero] = 0.0
    dirichlet_piece[:] = image[:, 2 * LEVEL_BAND + 1:]


def assemble_drbem(grid: Grid, interp=None) -> DrbemOperators:
    """Build the operators on the grid in O(N).

    interp, a reference InterpolationOperator on the same nodes, is only kept for
    reference.e_matrix; one on other nodes raises ValueError.
    """
    if interp is not None and not np.array_equal(interp.grid.nodes, grid.nodes):
        raise ValueError("interpolation operator was built on a different node set")

    n = grid.n
    h = np.diff(grid.nodes)
    kappa = 0.5 / (grid.b - grid.a + 2.0)
    t_band = np.zeros((3, n))
    t_band[0, 1:] = h
    t_band[1, :-1] = 2.0 * h
    t_band[1, 1:] += 2.0 * h
    t_band[2, :-1] = h

    # Columns five apart in a matrix with two sub- and two superdiagonals share
    # no row, so one product with the sum of the u columns of each residue class
    # mod 5 yields every column of the band (Curtis, Powell and Reid, 1974).
    # The columns of u_1 and u_N, which P also couples through its corners, are
    # probed on their own.
    width = 2 * LEVEL_BAND + 1
    j = np.arange(n)
    probes = np.zeros((n, width + 2))
    probes[j[1:-1], j[1:-1] % width] = 1.0
    probes[0, width] = probes[-1, width + 1] = 1.0
    no_flux = np.zeros((1, width + 2))
    # one N x 7 image at a time, each dropped once gathered
    level_pieces = np.empty((3, n, LEVEL_BAND + width)).transpose(0, 2, 1)
    dirichlet_pieces = np.empty((3, n, 2))
    gather = _gather_index(n, width + 2)
    _gather_band(level_pieces[0], dirichlet_pieces[0], _moment_load(h, probes, no_flux, no_flux),
                 gather)
    _gather_band(level_pieces[1], dirichlet_pieces[1], _apply_band(t_band, probes), gather)
    slopes = _slope(h, kappa, probes)
    del probes
    _gather_band(level_pieces[2], dirichlet_pieces[2], _apply_band(t_band, slopes), gather)
    # the flux unknowns enter 6 Delta alone, in its end rows
    level_pieces[0, 2 * LEVEL_BAND, 0] = -6.0
    level_pieces[0, 2 * LEVEL_BAND, -1] = 6.0

    for arr in (h, t_band, level_pieces, dirichlet_pieces):
        arr.setflags(write=False)
    return DrbemOperators(grid=grid, h=h, kappa=kappa, t_band=t_band,
                          level_pieces=level_pieces, dirichlet_pieces=dirichlet_pieces,
                          interp=interp)
