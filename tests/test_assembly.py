import ast
import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import drbem1d
from drbem1d.assembly import LEVEL_BAND, DrbemOperators, Grid, assemble_drbem
from drbem1d.reference import (
    assemble_interpolation,
    endpoint_matrices,
    fundamental_solution,
    fundamental_solution_dx,
    harmonic_identity_check,
    psi,
)
from helpers import eager_e_matrix, graded_grids, moment_load, psi_x, slope, traced


def build(nodes):
    grid = Grid(np.asarray(nodes, dtype=float))
    return grid, assemble_drbem(grid)


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
    l_matrix, h_matrix, _ = endpoint_matrices(Grid(np.array([0.0, 0.5, 1.0])))
    np.testing.assert_allclose(
        l_matrix, [[0.0, 0.5], [-0.25, 0.25], [-0.5, 0.0]], atol=0.0
    )
    np.testing.assert_allclose(
        h_matrix, [[0.0, 0.5], [0.5, 0.5], [0.5, 0.0]], atol=0.0
    )


def test_free_terms_and_psi_tilde_row():
    grid = Grid(np.array([0.0, 0.5, 1.0]))
    np.testing.assert_array_equal(endpoint_matrices(grid)[2], [0.5, 1.0, 0.5])
    # first row: 1/2 * psi at distances (0, 0.5, 1); test_d_matrix_composition
    # ties this psi_tilde to the assembled E
    expected = 0.5 * np.array([0.0, 0.5**2 / 2 + 0.5**3 / 6, 2.0 / 3.0])
    row = psi_tilde(grid)[0]
    np.testing.assert_allclose(row, expected, rtol=1e-15)
    assert row[1] == pytest.approx(0.0729166666666667, rel=1e-12)


def test_d_matrix_composition():
    # E Phi recomposes the D built from the public kernels
    grid = Grid(np.linspace(-1.0, 2.0, 9))
    interp = assemble_interpolation(grid)
    recomposed = eager_e_matrix(grid, interp) @ interp.phi_matrix
    assert np.max(np.abs(recomposed - d_matrix(grid))) <= 1e-12


def test_e_matrix_inverts_phi():
    # with data equal to a kernel column, E (Phi e_k) must reproduce D e_k
    grid = Grid(np.linspace(0.0, 1.0, 9))
    interp = assemble_interpolation(grid)
    d_m = d_matrix(grid)
    scale = np.max(np.abs(d_m))
    e_m = eager_e_matrix(grid, interp)
    for k in (0, 3, 8):
        lhs = e_m @ interp.phi_matrix[:, k]
        rhs = d_m[:, k]
        assert np.max(np.abs(lhs - rhs)) < 1e-10 * scale


def jittered_nodes(a, b, n, seed, jitter=0.1):
    """n nodes on [a, b], each interior one moved by up to `jitter` of the spacing."""
    nodes = np.linspace(a, b, n)
    nodes[1:-1] += jitter * (nodes[1] - nodes[0]) * np.random.default_rng(seed).uniform(
        -1.0, 1.0, n - 2)
    return nodes


@pytest.mark.parametrize("a, b, n", [(0.0, 1.0, 7), (-10.0, 10.0, 33), (-1.0, 1.0, 65)])
def test_closed_form_p_is_phi_x_phi_inverse(a, b, n):
    grid, ops = build(jittered_nodes(a, b, n, seed=n))
    interp = assemble_interpolation(grid)
    p_dense = interp.solve(interp.phi_x_matrix.T, transposed=True).T
    p_closed = np.column_stack([slope(ops, e) for e in np.eye(n)])
    assert np.max(np.abs(p_closed - p_dense)) <= 1e-12 * np.max(np.abs(p_dense))


def dense_level_operator(ops, s, r):
    """6 Delta - T (s I + r P) as an N x (N + 2) matrix on [u, q_a, q_b], column by
    column from the record's stencils."""
    n = ops.grid.n
    columns = [moment_load(ops, e, 0.0, 0.0) - ops.apply_t(s * e + r * slope(ops, e))
               for e in np.eye(n)]
    columns += [moment_load(ops, np.zeros(n), 1.0, 0.0),
                moment_load(ops, np.zeros(n), 0.0, 1.0)]
    return np.column_stack(columns)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 9, 33])
def test_band_pieces_hold_the_level_operator(n):
    # the pieces are built from their stencils; every entry of the level
    # operator must land in its band slot or its Dirichlet column
    grid, ops = build(jittered_nodes(-1.0, 2.0, n, seed=n))
    s, r = 7.3, -0.6
    full = dense_level_operator(ops, s, r)
    weights = np.array([1.0, -s, -r])
    band = np.tensordot(weights, ops.level_pieces, axes=1)
    assert np.all(band[:LEVEL_BAND] == 0.0)  # gbtrf's fill-in workspace
    unknowns = [n, *range(1, n - 1), n + 1]  # [q_a, u_2, ..., u_{N-1}, q_b]
    for j, source in enumerate(unknowns):
        rows = np.arange(max(0, j - LEVEL_BAND), min(n, j + LEVEL_BAND + 1))
        np.testing.assert_allclose(band[2 * LEVEL_BAND + rows - j, j], full[rows, source],
                                   rtol=1e-13, atol=1e-13 * np.max(np.abs(full)))
        outside = np.setdiff1d(np.arange(n), rows)
        assert np.all(full[outside, source] == 0.0)
    dirichlet = np.tensordot(weights, ops.dirichlet_pieces, axes=1)
    np.testing.assert_allclose(dirichlet, full[:, [0, n - 1]], rtol=1e-13,
                               atol=1e-13 * np.max(np.abs(full)))
    # the stepper keeps only the first and last three rows of the Dirichlet
    # columns, and factors the band's interior columns in place
    assert np.all(dirichlet[3:-3] == 0.0)
    assert all(piece.flags.f_contiguous for piece in ops.level_pieces)
    # dgbmv reads T in place only in its own, Fortran, layout
    assert ops.t_band.flags.f_contiguous


@pytest.mark.parametrize("jitter", [0.0, 0.1], ids=["uniform", "jittered"])
@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8, 9, 33])
def test_band_pieces_are_the_operators_on_unit_vectors(n, jitter):
    # each entry is formed by the operations, in the order, that the methods use
    # on a unit vector, so the pieces equal those images exactly
    grid, ops = build(jittered_nodes(-1.0, 2.0, n, seed=n, jitter=jitter))

    def images(u, q_left=0.0, q_right=0.0):  # 6 Delta, T and T P on [u, q]
        return moment_load(ops, u, q_left, q_right), ops.apply_t(u), ops.apply_t(slope(ops, u))

    zero, unit = np.zeros(n), np.eye(n)
    band_unknowns = [images(zero, 1.0), *map(images, unit[1:-1]), images(zero, 0.0, 1.0)]
    for j, column_images in enumerate(band_unknowns):
        rows = np.arange(max(0, j - LEVEL_BAND), min(n, j + LEVEL_BAND + 1))
        for piece, image in zip(ops.level_pieces, column_images):
            column = np.zeros(3 * LEVEL_BAND + 1)
            column[2 * LEVEL_BAND + rows - j] = image[rows]
            assert np.all(piece[:, j] == column)
            assert np.all(np.delete(image, rows) == 0.0)
    for k, e in enumerate(unit[[0, -1]]):
        for piece, image in zip(ops.dirichlet_pieces, images(e)):
            assert np.all(piece[:, k] == image)


def test_assembly_peaks_below_48_vectors():
    grid = Grid.uniform(-1.0, 1.0, 2049)
    # the record itself holds 30 vectors of N doubles
    _, peak = traced(assemble_drbem, grid)
    assert peak <= 48 * grid.n * 8


def test_spline_identity_in_extended_precision():
    """T E^{-1} (L q - H g + c*u) = 6 Delta(u, q) in 50-digit arithmetic: the
    spline form is the collocation scheme itself, not an approximation of it."""
    import mpmath

    mp = mpmath.MPContext()  # a private context: the global one keeps its precision
    mp.dps = 50
    rng = np.random.default_rng(17)
    x = [mp.mpf(float(v)) for v in jittered_nodes(-1.0, 2.0, 17, seed=17)]
    n = len(x)
    a, b = x[0], x[-1]
    h = [x[i + 1] - x[i] for i in range(n - 1)]
    psi_mp = lambda r: r * r / 2 + r**3 / 6
    psi_x_mp = lambda y, xj: (y - xj) * (1 + abs(y - xj) / 2)
    sign = lambda v: (v > 0) - (v < 0)
    c = [mp.mpf(1) / 2 if i in (0, n - 1) else mp.mpf(1) for i in range(n)]

    phi_m = mp.matrix(n, n)
    d_m = mp.matrix(n, n)
    for i in range(n):
        l_row = (-abs(a - x[i]) / 2, abs(b - x[i]) / 2)
        h_row = (-mp.mpf(sign(a - x[i])) / 2, mp.mpf(sign(b - x[i])) / 2)
        for j in range(n):
            phi_m[i, j] = 1 + abs(x[i] - x[j])
            d_m[i, j] = (l_row[0] * psi_x_mp(a, x[j]) + l_row[1] * psi_x_mp(b, x[j])
                         - h_row[0] * psi_mp(abs(a - x[j])) - h_row[1] * psi_mp(abs(b - x[j]))
                         + c[i] * psi_mp(abs(x[i] - x[j])))

    u = [mp.mpf(float(v)) for v in rng.standard_normal(n)]
    q = [mp.mpf(float(v)) for v in rng.standard_normal(2)]
    identity = mp.matrix(n, 1)
    for i in range(n):
        identity[i] = ((-abs(a - x[i]) / 2) * q[0] + (abs(b - x[i]) / 2) * q[1]
                       + mp.mpf(sign(a - x[i])) / 2 * u[0] - mp.mpf(sign(b - x[i])) / 2 * u[-1]
                       + c[i] * u[i])
    # E = D Phi^{-1}, so E^{-1} y = Phi D^{-1} y
    b_nodal = phi_m * mp.lu_solve(d_m, identity)

    slopes = [(u[i + 1] - u[i]) / h[i] for i in range(n - 1)]
    left = [q[0]] + slopes
    right = slopes + [q[1]]
    worst = mp.mpf(0)
    for i in range(n):
        t_row = (h[i - 1] * b_nodal[i - 1] if i > 0 else 0) + (
            2 * ((h[i - 1] if i > 0 else 0) + (h[i] if i < n - 1 else 0)) * b_nodal[i]
        ) + (h[i] * b_nodal[i + 1] if i < n - 1 else 0)
        worst = max(worst, abs(t_row - 6 * (right[i] - left[i])))
    assert worst <= mp.mpf("1e-30"), worst


@pytest.mark.parametrize("n", [3, 9, 33])
def test_harmonic_identity_uniform(n):
    rng = np.random.default_rng(n)
    grid = Grid(np.linspace(0.0, 1.0, n))
    for _ in range(10):
        p, q = rng.uniform(-5.0, 5.0, size=2)
        assert harmonic_identity_check(grid, p=p, q=q) <= 1e-12


def test_harmonic_identity_specific_fields():
    grid = Grid(np.array([0.0, 0.5, 1.0]))
    assert harmonic_identity_check(grid, p=0.0, q=1.0) <= 1e-12
    assert harmonic_identity_check(grid, p=1.0, q=0.0) <= 1e-12
    grid2 = Grid(np.linspace(-4.0, 7.0, 21))
    assert harmonic_identity_check(grid2, p=2.0, q=-3.0) <= 1e-12


def test_harmonic_identity_nonuniform():
    rng = np.random.default_rng(5)
    nodes = np.sort(rng.uniform(0.0, 2.0, size=15))
    nodes[0], nodes[-1] = 0.0, 2.0
    assert harmonic_identity_check(Grid(nodes), p=1.3, q=0.7) <= 1e-12


@settings(derandomize=True, deadline=None)
@given(graded_grids(), st.floats(-4.0, 4.0), st.floats(-4.0, 4.0))
def test_harmonic_identity_on_graded_grids(grid, p, q):
    assert harmonic_identity_check(grid, p=p, q=q) <= 1e-12


def test_quadratic_field_identity():
    # u = x^2 has constant curvature 2, which the 1 + r kernel reproduces exactly
    # between nodes, so the full identity holds to roundoff.
    # E (2 * 1) = D Phi^{-1} (2 * 1) = D alpha, alpha the kernel coefficients of u''.
    grid = Grid(np.linspace(0.0, 1.0, 9))
    l_matrix, h_matrix, free_terms = endpoint_matrices(grid)
    u = grid.nodes**2
    flux = np.array([2.0 * grid.a, 2.0 * grid.b])
    lhs = l_matrix @ flux - h_matrix @ np.array([u[0], u[-1]]) + free_terms * u
    e_m = eager_e_matrix(grid, assemble_interpolation(grid))
    assert np.max(np.abs(lhs - e_m @ (2.0 * np.ones(grid.n)))) <= 1e-8


def test_mismatched_grid_rejected():
    grid_a = Grid.uniform(0.0, 1.0, 5)
    grid_b = Grid.uniform(0.0, 1.0, 7)
    interp = assemble_interpolation(grid_a)
    with pytest.raises(ValueError):
        assemble_drbem(grid_b, interp)


def test_mismatched_nodes_rejected_at_assembly():
    # same node count, other nodes: the check runs at assembly, not when E is built
    grid = Grid.uniform(-1.0, 2.0, 9)
    interp = assemble_interpolation(Grid(jittered_nodes(-1.0, 2.0, 9, seed=9)))
    with pytest.raises(ValueError):
        assemble_drbem(grid, interp)


def test_interp_only_feeds_e():
    # an interpolation operator is only checked against the nodes: the operator
    # set built with one holds the bytes of one built without, and no N x N array
    grid = Grid(jittered_nodes(-1.0, 2.0, 33, seed=33))
    bare, fed = assemble_drbem(grid), assemble_drbem(grid, assemble_interpolation(grid))
    for field in dataclasses.fields(DrbemOperators):
        mine, theirs = getattr(bare, field.name), getattr(fed, field.name)
        if field.name == "grid":
            assert mine is grid and theirs is grid
            continue
        assert np.asarray(mine).tobytes() == np.asarray(theirs).tobytes(), field.name
        assert (grid.n, grid.n) not in (np.shape(mine), np.shape(theirs)), field.name


@pytest.mark.parametrize("spacing", ["uniform", "jittered"])
@pytest.mark.parametrize("n", [9, 33])
def test_spline_form_matches_the_dense_e(n, spacing):
    # T E^{-1} (L q - H g + c*u) = 6 Delta(u, q): the stepper's spline form against
    # the dense E it replaces
    nodes = np.linspace(-1.0, 2.0, n) if spacing == "uniform" else jittered_nodes(-1.0, 2.0, n,
                                                                                   seed=n)
    grid, ops = build(nodes)
    rng = np.random.default_rng(n)
    l_matrix, h_matrix, free_terms = endpoint_matrices(grid)
    e_m = eager_e_matrix(grid, assemble_interpolation(grid))
    for _ in range(5):
        u, q = rng.standard_normal(n), rng.standard_normal(2)
        identity = l_matrix @ q - h_matrix @ u[[0, -1]] + free_terms * u
        dense = ops.apply_t(np.linalg.solve(e_m, identity))
        closed = moment_load(ops, u, q[0], q[1])
        assert np.max(np.abs(dense - closed)) <= 1e-9 * np.max(np.abs(closed))


@pytest.mark.parametrize("with_interp", [False, True], ids=["bare", "fed"])
@pytest.mark.parametrize("spacing", ["uniform", "jittered"])
@pytest.mark.parametrize("n", [9, 33])
def test_e_matrix_on_first_read_is_the_eager_formula(n, spacing, with_interp, monkeypatch):
    # assembly builds no interpolation operator, fed or bare, and the E a reader
    # builds from the set's own grid is, byte for byte, the eager formula on the
    # operator the caller holds
    nodes = np.linspace(-1.0, 2.0, n) if spacing == "uniform" else jittered_nodes(-1.0, 2.0, n,
                                                                                   seed=n)
    grid = Grid(nodes)
    interp = assemble_interpolation(grid)
    builds = []

    def counted(g):
        builds.append(g)
        return assemble_interpolation(g)

    monkeypatch.setattr(drbem1d.reference, "assemble_interpolation", counted)
    ops = assemble_drbem(grid, interp if with_interp else None)
    assert builds == []
    e_m = eager_e_matrix(ops.grid, drbem1d.reference.assemble_interpolation(ops.grid))
    assert builds == [grid]
    expected = eager_e_matrix(grid, interp)
    assert e_m.shape == (n, n) and e_m.tobytes() == expected.tobytes()


RUN_PATH = ("assembly", "stepping", "verification", "problems", "presets")


@pytest.mark.parametrize("module", RUN_PATH)
def test_run_path_imports_no_reference(module):
    # the dense formulation stays behind `reference`: only cli (for check) and
    # the package's re-exports may import it
    source = Path(drbem1d.__file__).with_name(f"{module}.py")
    tree = ast.parse(source.read_text(), filename=str(source))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            imported.add(base)
            imported.update(f"{base}.{alias.name}" for alias in node.names)
    assert not [name for name in imported if "reference" in name.split(".")], module


def _names_from_drbem1d(source):
    """Every name a `from drbem1d import ...` in the Python source imports."""
    return {alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.level == 0
            and node.module == "drbem1d" for alias in node.names}


def test_public_names_cover_perfbench_and_the_readme():
    # perfbench and README's "Library use" import these from the package itself;
    # __all__ is what __init__ binds, no more and no less
    root = Path(__file__).resolve().parents[1]
    sources = {name: (root / "perfbench" / name).read_text()
               for name in ("march.py", "workloads.py", "test_perfbench.py")}
    readme = (root / "README.md").read_text().partition("## Library use")[2]
    sources["README.md"] = readme.partition("```python")[2].partition("```")[0]
    for name, source in sources.items():
        used = _names_from_drbem1d(source)
        assert used, name
        assert used <= set(drbem1d.__all__), (name, used - set(drbem1d.__all__))

    init = ast.parse(Path(drbem1d.__file__).read_text())
    bound = set()
    for node in init.body:
        if isinstance(node, ast.ImportFrom):
            bound.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Assign):
            bound.update(target.id for target in node.targets)
    assert sorted(drbem1d.__all__) == sorted(name for name in bound if not name.startswith("_"))


def test_dense_kernels_are_imported_from_reference():
    for name in ("InterpolationOperator", "fundamental_solution", "fundamental_solution_dx",
                 "harmonic_identity_check", "phi", "psi"):
        assert not hasattr(drbem1d, name), name
        assert callable(getattr(drbem1d.reference, name)), name
