import math
import warnings

import numpy as np
import pytest
from scipy.linalg import lapack, lu_factor

from drbem1d.assembly import Grid, _check_factors, band_lu_factor_checked
from drbem1d.exceptions import SingularMatrixError
from drbem1d.reference import assemble_interpolation, phi, psi
from helpers import psi_x, traced

# kink_const_n321's grid, h = 1/16 on [-10, 10], and the same nodes with every
# interior one moved by up to a tenth of the spacing
KINK_NODES = Grid.with_spacing(-10.0, 10.0, 1.0 / 16.0).nodes
JITTERED_NODES = KINK_NODES + np.r_[0.0, 0.1 / 16.0 * np.random.default_rng(321).uniform(
    -1.0, 1.0, KINK_NODES.size - 2), 0.0]


def test_phi_values():
    assert phi(0.0) == 1.0
    assert phi(1.0) == 2.0
    assert phi(0.5) == 1.5


def test_psi_values():
    assert psi(0.0) == 0.0
    assert psi(1.0) == pytest.approx(2.0 / 3.0, rel=1e-15)
    # direct evaluation: 2^2/2 + 2^3/6 = 2 + 4/3
    assert psi(2.0) == pytest.approx(10.0 / 3.0, rel=1e-15)


def test_psi_x_values_and_odd_symmetry():
    assert psi_x(0.7, 0.7) == 0.0
    assert psi_x(1.0, 0.0) == pytest.approx(1.5, rel=1e-15)
    assert psi_x(-1.0, 0.0) == pytest.approx(-1.5, rel=1e-15)


def test_psi_x_matches_central_difference_of_psi():
    rng = np.random.default_rng(7)
    step = 1e-6
    for _ in range(25):
        x, xj = rng.uniform(-3.0, 3.0, size=2)
        fd = (psi(abs(x + step - xj)) - psi(abs(x - step - xj))) / (2.0 * step)
        assert psi_x(x, xj) == pytest.approx(fd, abs=1e-7)


def test_psi_second_derivative_is_phi():
    # analytic: psi''(r) = 1 + r; checked by second central differences
    radii = np.linspace(0.05, 2.95, 50)
    step = 1e-4
    second = (psi(radii + step) - 2.0 * psi(radii) + psi(radii - step)) / step**2
    assert np.max(np.abs(second - phi(radii)) / phi(radii)) < 1e-5


class TestGrid:
    def test_uniform(self):
        g = Grid.uniform(0.0, 1.0, 5)
        assert g.n == 5 and g.a == 0.0 and g.b == 1.0
        assert g.h == pytest.approx(0.25)

    @pytest.mark.parametrize("n", [3.9, 5.5, math.nan, math.inf])
    def test_uniform_rejects_a_non_integral_node_count(self, n):
        with pytest.raises(ValueError, match="node count"):
            Grid.uniform(0.0, 1.0, n)

    def test_uniform_accepts_an_integral_float(self):
        assert Grid.uniform(0.0, 1.0, 5.0).n == 5

    def test_with_spacing(self):
        g = Grid.with_spacing(-1.0, 1.0, 1.0 / 128.0)
        assert g.n == 257

    def test_with_spacing_rejects_non_divisor(self):
        with pytest.raises(ValueError):
            Grid.with_spacing(0.0, 1.0, 0.3)

    @pytest.mark.parametrize("h", [0.0, -0.25, math.nan, math.inf])
    def test_with_spacing_rejects_nonpositive_or_non_finite(self, h):
        with pytest.raises(ValueError, match="spacing h"):
            Grid.with_spacing(0.0, 1.0, h)

    def test_rejects_unsorted_and_tiny(self):
        with pytest.raises(ValueError):
            Grid(np.array([0.0, 0.5, 0.5, 1.0]))
        with pytest.raises(ValueError):
            Grid(np.array([0.0, 1.0]))

    @pytest.mark.parametrize("build", [
        lambda: Grid(np.array([0.0, 0.5, math.inf])),
        lambda: Grid(np.array([math.nan, 0.5, 1.0])),
        lambda: Grid.with_spacing(0.0, math.inf, 0.5),
        lambda: Grid.with_spacing(math.nan, 1.0, 0.5),
        lambda: Grid.with_spacing(-1e308, 1e308, 0.5),
        lambda: Grid.uniform(0.0, math.inf, 5),
        lambda: Grid.uniform(-math.inf, 0.0, 5),
        lambda: Grid.uniform(-1e308, 1e308, 5),
        lambda: Grid(np.array([-1e308, 0.0, 1e308])),
        lambda: Grid(np.array([0.0, 1e-320, 1.0])),
        lambda: Grid(np.array([-1e308, 9e307, 1e308])),
    ], ids=["inf-node", "nan-node", "spacing-inf-end", "spacing-nan-end", "spacing-overflow",
            "uniform-inf-end", "uniform-minus-inf-end", "uniform-overflow", "span-overflow",
            "reciprocal-spacing-overflow", "spacing-difference-overflow"])
    def test_rejects_non_finite_input_without_warning(self, build):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                build()

    def test_nodes_read_only(self):
        g = Grid.uniform(0.0, 1.0, 5)
        with pytest.raises(ValueError):
            g.nodes[0] = 3.0


def test_matrices_on_three_nodes():
    op = assemble_interpolation(Grid(np.array([0.0, 0.5, 1.0])))
    np.testing.assert_allclose(
        op.phi_matrix,
        [[1.0, 1.5, 2.0], [1.5, 1.0, 1.5], [2.0, 1.5, 1.0]],
        rtol=0.0, atol=0.0,
    )
    np.testing.assert_allclose(
        op.phi_x_matrix,
        [[0.0, -1.0, -1.0], [1.0, 0.0, -1.0], [1.0, 1.0, 0.0]],
        rtol=0.0, atol=0.0,
    )
    # on N = 321 nodes, the bits of the kernel written out with a node difference
    for x in (KINK_NODES, JITTERED_NODES):
        op = assemble_interpolation(Grid(x))
        d = x[:, None] - x[None, :]
        assert op.phi_matrix.tobytes() == phi(np.abs(d)).tobytes()
        assert op.phi_x_matrix.tobytes() == np.sign(d).tobytes()


def test_matrices_build_within_three_and_a_quarter_matrices():
    # Phi, Phi_x and the LU are kept, and the factor check's finiteness mask
    # is an eighth of a matrix; a second N x N temporary would read 4.13
    grid = Grid.with_spacing(-10.0, 10.0, 1.0 / 16.0)
    _, peak = traced(assemble_interpolation, grid)
    assert peak <= 3.25 * grid.n**2 * 8


def test_stored_arrays_are_read_only():
    # a write to the factors would silently change every later solve
    op = assemble_interpolation(Grid.uniform(-1.0, 1.0, 33))
    rhs = np.random.default_rng(5).standard_normal((33, 3))
    before = [op.solve(rhs, transposed=t).tobytes() for t in (False, True)]
    lu, piv = op.factorization
    for arr, index in ((op.phi_matrix, (0, 1)), (op.phi_x_matrix, (0, 1)), (lu, (0, 0)),
                       (piv, 0)):
        with pytest.raises(ValueError, match="read-only"):
            arr[index] = 2
    assert [op.solve(rhs, transposed=t).tobytes() for t in (False, True)] == before


def test_matrix_structure():
    op = assemble_interpolation(Grid.uniform(-2.0, 3.0, 17))
    assert np.array_equal(op.phi_matrix, op.phi_matrix.T)
    np.testing.assert_array_equal(np.diag(op.phi_matrix), np.ones(17))
    np.testing.assert_array_equal(np.diag(op.phi_x_matrix), np.zeros(17))


def test_factorization_round_trip():
    rng = np.random.default_rng(3)
    op = assemble_interpolation(Grid.uniform(0.0, 1.0, 33))
    for _ in range(5):
        v = rng.standard_normal(33)
        back = op.solve(op.phi_matrix @ v)
        assert np.max(np.abs(back - v)) < 1e-10 * max(1.0, np.max(np.abs(v)))


def test_interpolation_coefficients_unit_and_zero():
    grid = Grid(np.array([0.0, 0.5, 1.0]))
    op = assemble_interpolation(grid)
    for k in range(3):
        alpha = op.solve(op.phi_matrix[:, k])
        np.testing.assert_allclose(alpha, np.eye(3)[k], atol=1e-12)
    np.testing.assert_array_equal(op.solve(np.zeros(3)), np.zeros(3))


def test_interpolation_coefficients_against_dense_solve():
    # brute-force oracle: plain dense solve on the explicitly tabulated matrix
    grid = Grid(np.array([0.0, 0.5, 1.0]))
    op = assemble_interpolation(grid)
    values = np.array([1.0, 1.0, 1.0])
    expected = np.linalg.solve(
        np.array([[1.0, 1.5, 2.0], [1.5, 1.0, 1.5], [2.0, 1.5, 1.0]]), values
    )
    alpha = op.solve(values)
    np.testing.assert_allclose(alpha, expected, rtol=1e-12)
    np.testing.assert_allclose(op.phi_matrix @ alpha, values, atol=1e-12)


def test_interpolation_coefficients_length_mismatch():
    op = assemble_interpolation(Grid.uniform(0.0, 1.0, 5))
    with pytest.raises(ValueError):
        op.solve(np.ones(4))


def test_interpolation_exactness_at_nodes():
    rng = np.random.default_rng(11)
    op = assemble_interpolation(Grid.uniform(-1.0, 1.0, 41))
    data = rng.standard_normal(41)
    alpha = op.solve(data)
    reproduced = op.phi_matrix @ alpha
    assert np.max(np.abs(reproduced - data)) < 1e-10 * np.max(np.abs(data))


def test_nodal_derivative_error_shrinks_with_h():
    # Phi_x Phi^{-1} applied to samples of sin approximates cos; interior error
    # must fall monotonically as the spacing halves.
    errors = []
    for denom in (8, 16, 32):
        grid = Grid.with_spacing(0.0, 1.0, 1.0 / denom)
        op = assemble_interpolation(grid)
        p = op.solve(op.phi_x_matrix.T, transposed=True).T
        approx = p @ np.sin(grid.nodes)
        errors.append(np.max(np.abs(approx - np.cos(grid.nodes))[1:-1]))
    assert errors[0] > errors[1] > errors[2]


def test_degenerate_nodes_raise_singular():
    with pytest.raises(SingularMatrixError):
        assemble_interpolation(Grid(np.array([0.0, 1e-15, 2e-15])))


class TestLuFactorChecked:
    """The interpolation matrix's checked getrf factorization."""

    def test_factors_match_scipy_bit_for_bit(self):
        random_nodes = np.sort(np.random.default_rng(7).uniform(-1.0, 1.0, 40))
        for x in (random_nodes, KINK_NODES, JITTERED_NODES):
            op = assemble_interpolation(Grid(x))
            lu, piv = op.factorization
            phi_matrix = phi(np.abs(x[:, None] - x[None, :]))
            lu_ref, piv_ref = lu_factor(phi_matrix)
            assert op.phi_matrix.tobytes() == phi_matrix.tobytes()
            np.testing.assert_array_equal(lu, lu_ref)
            np.testing.assert_array_equal(piv, piv_ref)

    @pytest.mark.parametrize("matrix", [
        np.zeros((4, 4)), np.full((4, 4), math.nan), np.diag([1.0, math.inf, 1.0]),
    ], ids=["zero", "nan", "inf-pivot"])
    def test_singular_or_non_finite_raises_without_warning(self, matrix):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularMatrixError, match="test matrix"):
                lu, _, _ = lapack.dgetrf(matrix)
                _check_factors(lu, np.diag(lu), "test matrix")


class TestBandLuFactorChecked:
    @staticmethod
    def tridiagonal_band(lower, diag, upper):
        """gbtrf layout (kl = ku = 1) of the tridiagonal matrix, workspace row zero."""
        band = np.zeros((4, len(diag)))
        band[1, 1:] = upper
        band[2] = diag
        band[3, :-1] = lower
        return band

    def test_solves_like_the_dense_factors(self):
        rng = np.random.default_rng(7)
        lower, upper = rng.standard_normal(11), rng.standard_normal(11)
        diag = rng.standard_normal(12)
        matrix = np.diag(diag) + np.diag(lower, -1) + np.diag(upper, 1)
        lu, piv = band_lu_factor_checked(self.tridiagonal_band(lower, diag, upper), 1, 1,
                                         "test band")
        rhs = rng.standard_normal(12)
        x, _ = lapack.dgbtrs(lu, 1, 1, rhs, piv)
        np.testing.assert_allclose(matrix @ x, rhs, atol=1e-12)

    @pytest.mark.parametrize("diag", [
        [0.0, 0.0, 0.0, 0.0], [math.nan, 1.0, 1.0, 1.0], [1.0, math.inf, 1.0, 1.0],
    ], ids=["zero", "nan", "inf-pivot"])
    def test_singular_or_non_finite_raises_without_warning(self, diag):
        band = self.tridiagonal_band(np.zeros(3), np.array(diag), np.zeros(3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularMatrixError, match="test band"):
                band_lu_factor_checked(band, 1, 1, "test band")


@pytest.mark.parametrize("spacing", ["uniform", "jittered"])
@pytest.mark.parametrize("n", [9, 33])
def test_kernel_matrices_keep_their_bits(n, spacing):
    # Phi, Phi_x and the LU against the kernel matrices written out with a node
    # difference each
    x = np.linspace(-1.0, 2.0, n)
    if spacing == "jittered":
        x[1:-1] += 0.1 * (x[1] - x[0]) * np.random.default_rng(n).uniform(-1.0, 1.0, n - 2)
    op = assemble_interpolation(Grid(x))
    phi_matrix = phi(np.abs(x[:, None] - x[None, :]))
    phi_x_matrix = np.sign(x[:, None] - x[None, :])
    lu, piv, _ = lapack.dgetrf(phi_matrix)
    assert op.phi_matrix.tobytes() == phi_matrix.tobytes()
    assert op.phi_x_matrix.tobytes() == phi_x_matrix.tobytes()
    assert op.factorization[0].tobytes() == lu.tobytes()
    assert op.factorization[1].tobytes() == piv.tobytes()
