import numpy as np
import pytest

from drbem1d.assembly import (
    assemble_drbem,
    fundamental_solution,
    fundamental_solution_dx,
    harmonic_identity_check,
)
from drbem1d.rbf import Grid, assemble_interpolation, psi, psi_x


def build(nodes):
    grid = Grid(np.asarray(nodes, dtype=float))
    return grid, assemble_drbem(grid, assemble_interpolation(grid))


def psi_tilde(grid):
    """Free-term-weighted particular solutions psi(|x_i - x_j|) at the sources."""
    x = grid.nodes
    c = np.ones(grid.n)
    c[[0, -1]] = 0.5
    return c[:, None] * psi(np.abs(x[:, None] - x[None, :]))


def d_matrix(grid):
    """D = L psi_x(endpoints) - H psi(endpoints) + psi_tilde from the public kernels.

    D maps kernel coefficients of an inhomogeneity to its endpoint-identity
    contribution; the assembled E must equal D Phi^{-1}.
    """
    x, a, b = grid.nodes, grid.a, grid.b
    l_m = np.column_stack([-fundamental_solution(a, x), fundamental_solution(b, x)])
    h_m = np.column_stack([-fundamental_solution_dx(a, x), fundamental_solution_dx(b, x)])
    psi_b = np.vstack([psi(np.abs(a - x)), psi(np.abs(b - x))])
    psi_x_b = np.vstack([psi_x(a, x), psi_x(b, x)])
    return l_m @ psi_x_b - h_m @ psi_b + psi_tilde(grid)


def test_fundamental_solution_values():
    assert fundamental_solution(0.0, 0.0) == 0.0
    assert fundamental_solution(1.0, 0.0) == 0.5
    assert fundamental_solution(-2.0, 1.0) == 1.5


def test_fundamental_solution_dx_values():
    assert fundamental_solution_dx(1.0, 0.0) == 0.5
    assert fundamental_solution_dx(0.0, 1.0) == -0.5
    # symmetric convention at the source point itself
    assert fundamental_solution_dx(1.0, 1.0) == 0.0


def test_boundary_matrices_on_three_nodes():
    _, ops = build([0.0, 0.5, 1.0])
    np.testing.assert_allclose(
        ops.l_matrix, [[0.0, 0.5], [-0.25, 0.25], [-0.5, 0.0]], atol=0.0
    )
    np.testing.assert_allclose(
        ops.h_matrix, [[0.0, 0.5], [0.5, 0.5], [0.5, 0.0]], atol=0.0
    )


def test_free_terms_and_psi_tilde_row():
    grid, ops = build([0.0, 0.5, 1.0])
    np.testing.assert_array_equal(ops.free_terms, [0.5, 1.0, 0.5])
    # first row: 1/2 * psi at distances (0, 0.5, 1); test_d_matrix_composition
    # ties this psi_tilde to the assembled E
    expected = 0.5 * np.array([0.0, 0.5**2 / 2 + 0.5**3 / 6, 2.0 / 3.0])
    row = psi_tilde(grid)[0]
    np.testing.assert_allclose(row, expected, rtol=1e-15)
    assert row[1] == pytest.approx(0.0729166666666667, rel=1e-12)


def test_d_matrix_composition():
    # E Phi recomposes the D built from the public kernels
    grid, ops = build(np.linspace(-1.0, 2.0, 9))
    recomposed = ops.e_matrix @ assemble_interpolation(grid).phi_matrix
    assert np.max(np.abs(recomposed - d_matrix(grid))) <= 1e-12


def test_e_matrix_inverts_phi():
    # with data equal to a kernel column, E (Phi e_k) must reproduce D e_k
    grid, ops = build(np.linspace(0.0, 1.0, 9))
    interp = assemble_interpolation(grid)
    d_m = d_matrix(grid)
    scale = np.max(np.abs(d_m))
    for k in (0, 3, 8):
        lhs = ops.e_matrix @ interp.phi_matrix[:, k]
        rhs = d_m[:, k]
        assert np.max(np.abs(lhs - rhs)) < 1e-10 * scale


def test_ep_matrix_is_e_times_p():
    _, ops = build(np.linspace(0.0, 1.0, 7))
    np.testing.assert_allclose(ops.ep_matrix, ops.e_matrix @ ops.p_matrix, atol=1e-14)


@pytest.mark.parametrize("n", [3, 9, 33])
def test_harmonic_identity_uniform(n):
    rng = np.random.default_rng(n)
    grid, ops = build(np.linspace(0.0, 1.0, n))
    for _ in range(10):
        p, q = rng.uniform(-5.0, 5.0, size=2)
        assert harmonic_identity_check(ops, grid, p=p, q=q) <= 1e-12


def test_harmonic_identity_specific_fields():
    grid, ops = build([0.0, 0.5, 1.0])
    assert harmonic_identity_check(ops, grid, p=0.0, q=1.0) <= 1e-12
    assert harmonic_identity_check(ops, grid, p=1.0, q=0.0) <= 1e-12
    grid2, ops2 = build(np.linspace(-4.0, 7.0, 21))
    assert harmonic_identity_check(ops2, grid2, p=2.0, q=-3.0) <= 1e-12


def test_harmonic_identity_nonuniform():
    rng = np.random.default_rng(5)
    nodes = np.sort(rng.uniform(0.0, 2.0, size=15))
    nodes[0], nodes[-1] = 0.0, 2.0
    grid, ops = build(nodes)
    assert harmonic_identity_check(ops, grid, p=1.3, q=0.7) <= 1e-12


def test_quadratic_field_identity():
    # u = x^2 has constant curvature 2, which the 1 + r kernel reproduces exactly
    # between nodes, so the full identity holds to roundoff.
    # E (2 * 1) = D Phi^{-1} (2 * 1) = D alpha, alpha the kernel coefficients of u''.
    grid, ops = build(np.linspace(0.0, 1.0, 9))
    u = grid.nodes**2
    flux = np.array([2.0 * grid.a, 2.0 * grid.b])
    lhs = ops.l_matrix @ flux - ops.h_matrix @ np.array([u[0], u[-1]]) + ops.free_terms * u
    assert np.max(np.abs(lhs - ops.e_matrix @ (2.0 * np.ones(grid.n)))) <= 1e-8


def test_mismatched_grid_rejected():
    grid_a = Grid.uniform(0.0, 1.0, 5)
    grid_b = Grid.uniform(0.0, 1.0, 7)
    interp = assemble_interpolation(grid_a)
    with pytest.raises(ValueError):
        assemble_drbem(grid_b, interp)
