"""The dense DRBEM formulation: the reference the banded spline form is checked against.

The kernel is phi(r) = 1 + r.  Its particular solution psi satisfies psi'' = phi,
which is what lets inhomogeneous terms be moved onto the interval endpoints
through the point-source solution |x - xi| / 2.  The kernel, the endpoint
matrices (N x 2) and the harmonic identity are O(N) and feed the `check`
battery; the one N x N piece, the interpolation operator, is read by the tests
and perfbench's setup.  Its Phi and Phi_x come from one N x N buffer of node
differences, so its build holds at most the three arrays it keeps (Phi, Phi_x
and getrf's LU) plus the factor check's finiteness mask.  psi's derivative
psi_x, which only the dense E needs, is kept with the tests' eager_e_matrix in
tests/helpers.py.  The package imports this module to export
assemble_interpolation, but no run-path function calls it.  dgetrf comes from
`_linalg`, like the run path's routines; only `InterpolationOperator.solve`
uses scipy.linalg's lu_solve, imported when it is called, so that importing
the package never runs scipy.linalg's init.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import lapack
from .assembly import Grid, _check_factors


def phi(r):
    """Kernel value 1 + r at distance r >= 0."""
    return 1.0 + r


def psi(r):
    """r**2/2 + r**3/6, the radial profile whose second derivative is phi."""
    return r * r / 2.0 + r**3 / 6.0


def fundamental_solution(x, xi):
    """Point-source solution of d2/dx2: |x - xi| / 2."""
    return 0.5 * np.abs(x - xi)


def fundamental_solution_dx(x, xi):
    """x-derivative sgn(x - xi) / 2, with the symmetric convention sgn(0) = 0."""
    return 0.5 * np.sign(x - xi)


@dataclass(frozen=True)
class InterpolationOperator:
    """Dense collocation matrices for the 1 + r kernel with a reusable factorization.

    phi_matrix[i, j] = phi(|x_i - x_j|) and phi_x_matrix[i, j] is the x-derivative
    of the j-th kernel at x_i, i.e. sgn(x_i - x_j) with sgn(0) = 0.
    """

    grid: Grid
    phi_matrix: np.ndarray
    phi_x_matrix: np.ndarray
    factorization: tuple

    def solve(self, rhs, transposed=False):
        """Apply the inverse of phi_matrix (or of its transpose) to vectors/columns."""
        # lu_solve's checks and errors; only this call pays scipy.linalg's init
        from scipy.linalg import lu_solve

        return lu_solve(self.factorization, rhs, trans=1 if transposed else 0)


def assemble_interpolation(grid: Grid) -> InterpolationOperator:
    """Build the kernel matrices over the grid and factor phi_matrix once.

    One buffer of node differences x_i - x_j gives phi_x_matrix as its sign and
    then becomes phi_matrix in place, with the bits of phi(|x_i - x_j|); the
    traced peak is phi_matrix, phi_x_matrix, the LU and the LU's finiteness
    mask, about 3.13 N**2 doubles.  The factors are LAPACK getrf's, the routine
    scipy's lu_factor wraps, so they are the same bits; a non-finite factor or a
    pivot below PIVOT_FLOOR raises SingularMatrixError.  Every array of the
    returned operator is read-only.
    """
    x = grid.nodes
    phi_matrix = np.subtract.outer(x, x)
    phi_x_matrix = np.sign(phi_matrix)
    # phi(|d|) in place: r + 1.0 is the same IEEE sum as phi's 1.0 + r
    np.abs(phi_matrix, out=phi_matrix)
    phi_matrix += 1.0
    # getrf's info > 0 (an exact zero pivot) is caught by the pivot floor
    lu, piv, _ = lapack.dgetrf(phi_matrix)
    _check_factors(lu, np.diag(lu), "interpolation matrix (degenerate node set)")
    # the operator is frozen and so are its arrays: a write to lu or piv would
    # change every later solve
    for arr in (phi_matrix, phi_x_matrix, lu, piv):
        arr.setflags(write=False)
    return InterpolationOperator(grid=grid, phi_matrix=phi_matrix, phi_x_matrix=phi_x_matrix,
                                 factorization=(lu, piv))


def endpoint_matrices(grid: Grid) -> tuple:
    """(L, H, c): the endpoint flux and value matrices (N x 2) and the free terms.

    Row i collocates at source node x_i; c_i is 1/2 at the endpoints and 1 inside.
    """
    x = grid.nodes
    a, b = grid.a, grid.b
    l_matrix = np.column_stack([-fundamental_solution(a, x), fundamental_solution(b, x)])
    h_matrix = np.column_stack([-fundamental_solution_dx(a, x), fundamental_solution_dx(b, x)])
    free_terms = np.ones(grid.n)
    free_terms[0] = 0.5
    free_terms[-1] = 0.5
    return l_matrix, h_matrix, free_terms


def harmonic_identity_check(grid: Grid, p=1.0, q=0.0) -> float:
    """Max endpoint-identity residual for the linear field u = p x + q.

    Linear fields have zero second derivative, so the identity
    L [u_x(a); u_x(b)] - H [u(a); u(b)] + c * u must vanish row by row;
    anything above roundoff flags mis-assembled endpoint matrices.
    """
    l_matrix, h_matrix, free_terms = endpoint_matrices(grid)
    u = p * grid.nodes + q
    flux = np.array([p, p], dtype=float)
    endpoint_values = np.array([u[0], u[-1]])
    residual = l_matrix @ flux - h_matrix @ endpoint_values + free_terms * u
    return float(np.max(np.abs(residual)))
