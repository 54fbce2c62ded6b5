"""Boundary-integral machinery: point-source solution, endpoint matrices, and the
transfer matrix that moves interpolated interior data onto the endpoints."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rbf import Grid, InterpolationOperator, psi, psi_x


def fundamental_solution(x, xi):
    """Point-source solution of d2/dx2: |x - xi| / 2."""
    return 0.5 * np.abs(x - xi)


def fundamental_solution_dx(x, xi):
    """x-derivative sgn(x - xi) / 2, with the symmetric convention sgn(0) = 0."""
    return 0.5 * np.sign(x - xi)


@dataclass(frozen=True)
class DrbemOperators:
    """Time-independent matrices of the boundary-integral collocation scheme.

    Row i collocates at source node x_i.  l_matrix/h_matrix pair endpoint flux and
    value data, and free_terms holds the free-term coefficients c_i.  e_matrix maps
    nodal inhomogeneity data to its endpoint-identity contribution, p_matrix
    differentiates nodal data, and ep_matrix = e_matrix @ p_matrix is kept so a
    time level costs O(N^2).
    """

    l_matrix: np.ndarray
    h_matrix: np.ndarray
    free_terms: np.ndarray
    e_matrix: np.ndarray
    p_matrix: np.ndarray
    ep_matrix: np.ndarray


def assemble_drbem(grid: Grid, interp: InterpolationOperator) -> DrbemOperators:
    """Assemble every matrix the time stepper needs, reusing interp's factorization."""
    if interp.grid is not grid and not np.array_equal(interp.grid.nodes, grid.nodes):
        raise ValueError("interpolation operator was built on a different node set")

    x = grid.nodes
    n = grid.n
    a, b = grid.a, grid.b

    l_matrix = np.column_stack(
        [-fundamental_solution(a, x), fundamental_solution(b, x)]
    )
    h_matrix = np.column_stack(
        [-fundamental_solution_dx(a, x), fundamental_solution_dx(b, x)]
    )

    psi_boundary = np.vstack([psi(np.abs(a - x)), psi(np.abs(b - x))])
    psi_x_boundary = np.vstack([psi_x(a, x), psi_x(b, x)])

    free_terms = np.ones(n)
    free_terms[0] = 0.5
    free_terms[-1] = 0.5
    # psi_tilde: the free-term-weighted particular solutions at the sources.  D maps
    # kernel coefficients of an inhomogeneity to its endpoint-identity contribution.
    psi_tilde = free_terms[:, None] * psi(np.abs(x[:, None] - x[None, :]))
    d_matrix = l_matrix @ psi_x_boundary - h_matrix @ psi_boundary + psi_tilde
    # E = D Phi^{-1} and P = Phi_x Phi^{-1}, via transposed solves against the
    # stored factorization rather than an explicit inverse.
    e_matrix = interp.solve(d_matrix.T, transposed=True).T
    p_matrix = interp.solve(interp.phi_x_matrix.T, transposed=True).T
    ep_matrix = e_matrix @ p_matrix

    for arr in (l_matrix, h_matrix, free_terms, e_matrix, p_matrix, ep_matrix):
        arr.setflags(write=False)
    return DrbemOperators(
        l_matrix=l_matrix,
        h_matrix=h_matrix,
        free_terms=free_terms,
        e_matrix=e_matrix,
        p_matrix=p_matrix,
        ep_matrix=ep_matrix,
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
