"""Boundary-integral machinery: point-source solution, endpoint matrices, and the
transfer matrix that moves interpolated interior data onto the endpoints."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .rbf import Grid, InterpolationOperator, assemble_interpolation, psi, psi_x


def fundamental_solution(x, xi):
    """Point-source solution of d2/dx2: |x - xi| / 2."""
    return 0.5 * np.abs(x - xi)


def fundamental_solution_dx(x, xi):
    """x-derivative sgn(x - xi) / 2, with the symmetric convention sgn(0) = 0."""
    return 0.5 * np.sign(x - xi)


# Sub- and superdiagonals of the level matrix in spline form.
LEVEL_BAND = 2


# The slope helpers work in place on the array they return, so that building the
# spline record holds at most two N x k temporaries at a time.

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
class SplineOperators:
    """The collocation scheme in clamped cubic-spline form: banded, O(N) throughout.

    With phi = 1 + r, premultiplying the identity L q + c*u - H g = E b by
    T E^{-1} gives T b = 6 Delta(u, q) exactly: the interpolated load b is the
    nodal second derivative (moment) of the cubic spline through u with end
    slopes q = [u_x(a), u_x(b)] (de Boor, A Practical Guide to Splines, ch. IV).
    T, the moment matrix, gets h_i [2 1; 1 2] in rows and columns i, i+1 from
    each cell i; P = Phi_x Phi^{-1} is the stencil in `slope`.

    t_band is T in gbmv layout (one sub- and one superdiagonal).  level_pieces
    holds 6 Delta, T and T P, in that order, on the level unknowns
    [u_x(a), u_2, ..., u_{N-1}, u_x(b)] in gbtrf layout with LEVEL_BAND sub- and
    superdiagonals (zero workspace rows first); dirichlet_pieces holds the same
    three on the imposed values u_1 and u_N.  A level matrix 6 Delta - T (s I +
    r P) is therefore [1, -s, -r] applied to the pieces.
    """

    h: np.ndarray
    kappa: float
    t_band: np.ndarray
    level_pieces: np.ndarray
    dirichlet_pieces: np.ndarray

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


def _gather_band(level_piece, dirichlet_piece, image):
    """Fill one piece's band rows and Dirichlet columns from its image of the probes.

    Row LEVEL_BAND + r of band column j holds entry (j + r - LEVEL_BAND, j),
    found in image column j mod 5.  Rows outside the matrix hold zeros, and so
    do the flux columns: no probe covers them.
    """
    n = image.shape[0]
    width = 2 * LEVEL_BAND + 1
    j = np.arange(n)
    index = j + np.arange(-LEVEL_BAND, LEVEL_BAND + 1)[:, None]
    outside = (index < 0) | (index >= n)
    index *= image.shape[1]
    index += j % width
    # mode="clip" keeps the outside entries' indices in range and spares a buffer
    np.take(image, index, out=level_piece[LEVEL_BAND:], mode="clip")
    level_piece[LEVEL_BAND:][outside] = 0.0
    dirichlet_piece[:] = image[:, width:]


def spline_operators(grid: Grid) -> SplineOperators:
    """Build the spline form of the operators on the grid in O(N)."""
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
    level_pieces = np.zeros((3, LEVEL_BAND + width, n))
    dirichlet_pieces = np.empty((3, n, 2))
    _gather_band(level_pieces[0], dirichlet_pieces[0], _moment_load(h, probes, no_flux, no_flux))
    _gather_band(level_pieces[1], dirichlet_pieces[1], _apply_band(t_band, probes))
    slopes = _slope(h, kappa, probes)
    del probes
    _gather_band(level_pieces[2], dirichlet_pieces[2], _apply_band(t_band, slopes))
    # the flux unknowns enter 6 Delta alone, in its end rows
    level_pieces[0, 2 * LEVEL_BAND, 0] = -6.0
    level_pieces[0, 2 * LEVEL_BAND, -1] = 6.0

    for arr in (h, t_band, level_pieces, dirichlet_pieces):
        arr.setflags(write=False)
    return SplineOperators(h=h, kappa=kappa, t_band=t_band, level_pieces=level_pieces,
                           dirichlet_pieces=dirichlet_pieces)


@dataclass(frozen=True)
class DrbemOperators:
    """Time-independent operators of the boundary-integral collocation scheme.

    Row i collocates at source node x_i.  l_matrix/h_matrix pair endpoint flux and
    value data, and free_terms holds the free-term coefficients c_i.  The time
    stepper uses only `spline`, the same scheme in banded form.  The dense
    e_matrix serves the self-checks and the assembly tests and is built on
    first read, from interp when one was given.
    """

    grid: Grid
    l_matrix: np.ndarray
    h_matrix: np.ndarray
    free_terms: np.ndarray
    spline: SplineOperators
    interp: Optional[InterpolationOperator] = None

    @cached_property
    def e_matrix(self) -> np.ndarray:
        """E = D Phi^{-1}: maps nodal inhomogeneity data to its endpoint-identity
        contribution.  An N x N array, built once, on first read."""
        grid = self.grid
        interp = self.interp if self.interp is not None else assemble_interpolation(grid)
        x = grid.nodes
        a, b = grid.a, grid.b
        psi_boundary = np.vstack([psi(np.abs(a - x)), psi(np.abs(b - x))])
        psi_x_boundary = np.vstack([psi_x(a, x), psi_x(b, x)])
        # psi_tilde: the free-term-weighted particular solutions at the sources.  D
        # maps kernel coefficients of an inhomogeneity to its endpoint-identity
        # contribution.
        psi_tilde = self.free_terms[:, None] * psi(np.abs(x[:, None] - x[None, :]))
        d_matrix = self.l_matrix @ psi_x_boundary - self.h_matrix @ psi_boundary + psi_tilde
        # a transposed solve against the stored factorization, not an explicit inverse
        e_matrix = interp.solve(d_matrix.T, transposed=True).T
        e_matrix.setflags(write=False)
        return e_matrix


def assemble_drbem(grid: Grid, interp: Optional[InterpolationOperator] = None) -> DrbemOperators:
    """Assemble the endpoint matrices and the spline form in O(N).

    E waits for its first read; pass interp to have it built from that
    operator's factorization instead of a new one.
    """
    if interp is not None and not np.array_equal(interp.grid.nodes, grid.nodes):
        raise ValueError("interpolation operator was built on a different node set")

    # the spline record first: its build is the peak of the assembly's memory
    spline = spline_operators(grid)
    x = grid.nodes
    n = grid.n
    a, b = grid.a, grid.b

    l_matrix = np.column_stack(
        [-fundamental_solution(a, x), fundamental_solution(b, x)]
    )
    h_matrix = np.column_stack(
        [-fundamental_solution_dx(a, x), fundamental_solution_dx(b, x)]
    )
    free_terms = np.ones(n)
    free_terms[0] = 0.5
    free_terms[-1] = 0.5

    for arr in (l_matrix, h_matrix, free_terms):
        arr.setflags(write=False)
    return DrbemOperators(
        grid=grid,
        l_matrix=l_matrix,
        h_matrix=h_matrix,
        free_terms=free_terms,
        spline=spline,
        interp=interp,
    )


def harmonic_identity_check(ops: DrbemOperators, grid: Grid, p=1.0, q=0.0) -> float:
    """Max endpoint-identity residual for the linear field u = p x + q.

    Linear fields have zero second derivative, so the identity
    L [u_x(a); u_x(b)] - H [u(a); u(b)] + c * u must vanish row by row;
    anything above roundoff flags a mis-assembled operator set.
    """
    u = p * grid.nodes + q
    flux = np.array([p, p], dtype=float)
    endpoint_values = np.array([u[0], u[-1]])
    residual = ops.l_matrix @ flux - ops.h_matrix @ endpoint_values + ops.free_terms * u
    return float(np.max(np.abs(residual)))
