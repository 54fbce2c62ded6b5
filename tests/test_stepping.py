import numpy as np
import pytest

from drbem1d.assembly import assemble_drbem
from drbem1d.exceptions import ConvergenceError, SolverError
from drbem1d.problems import CoefficientSet, PdeProblem, ReactionTerm, make_generalized_fn
from drbem1d.rbf import Grid, assemble_interpolation
from drbem1d.stepping import (
    StepConfig,
    back_substitution_gap,
    build_level_system,
    corrector_solve,
    level_index,
    run,
)
from drbem1d.verification import compute_errors


def zero_reaction():
    return ReactionTerm(0.0, lambda u: 0.0 * u, lambda u: 0.0 * u)


def heat_problem(p, q, a=0.0, b=1.0):
    """Pure diffusion with linear data: the steady state is u = p x + q."""
    return PdeProblem(
        coeffs=CoefficientSet.constant(0.0, 1.0, 0.0),
        reaction=zero_reaction(),
        a=a,
        b=b,
        horizon=10.0,
        initial=lambda x: p * x + q,
        bc_left=lambda t: p * a + q,
        bc_right=lambda t: p * b + q,
        exact=lambda x, t: p * x + q + 0.0 * x,
    )


def factored_matrix(factorization):
    """The matrix that scipy's lu_factor factored: L U with the row swaps undone."""
    lu, piv = factorization
    product = (np.tril(lu, -1) + np.eye(lu.shape[0])) @ np.triu(lu)
    for i in reversed(range(len(piv))):
        product[[i, piv[i]]] = product[[piv[i], i]]
    return product


def fisher_reaction():
    # F(u) = u(1 - u): slope 1, remainder -u^2
    return ReactionTerm(1.0, lambda u: -u * u, lambda u: u * (1.0 - u))


def assemble(grid):
    return assemble_drbem(grid, assemble_interpolation(grid))


class TestStepConfig:
    def test_defaults(self):
        cfg = StepConfig(tau=0.1)
        assert cfg.epsilon == 1e-10
        assert cfg.max_corrector_iters == 100

    @pytest.mark.parametrize("kwargs", [
        dict(tau=0.0), dict(tau=-1.0), dict(tau=0.1, epsilon=0.0),
        dict(tau=0.1, max_corrector_iters=0),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            StepConfig(**kwargs)


def test_level_index_rejects_non_multiples():
    assert level_index(0.25, 1e-3) == 250
    assert level_index(0.0, 1e-3) == 0
    with pytest.raises(ValueError):
        level_index(0.0005, 1e-3)


def test_steady_linear_profile_single_level():
    # harmonic steady state: the time-derivative load vanishes at the fixed point
    problem = heat_problem(1.0, 0.0)
    grid = Grid.uniform(0.0, 1.0, 9)
    ops = assemble(grid)
    cfg = StepConfig(tau=0.1)
    u_prev = grid.nodes.copy()
    system = build_level_system(problem, grid, ops, cfg, 0.1, u_prev)
    state, iters = corrector_solve(system, problem, cfg, u_prev)
    assert np.max(np.abs(state.u - grid.nodes)) < 1e-9
    assert iters == 2
    # the solved endpoint fluxes are the slope
    assert state.q_left == pytest.approx(1.0, abs=1e-9)
    assert state.q_right == pytest.approx(1.0, abs=1e-9)


def test_zero_data_gives_zero_solution():
    problem = heat_problem(0.0, 0.0)
    grid = Grid.uniform(0.0, 1.0, 9)
    cfg = StepConfig(tau=0.1)
    system = build_level_system(problem, grid, assemble(grid), cfg, 0.1, np.zeros(9))
    state, _ = corrector_solve(system, problem, cfg, np.zeros(9))
    assert np.max(np.abs(state.u)) < 1e-14


def test_vanishing_nonlinearity_converges_in_exactly_two_solves():
    # with F_n = 0 the right-hand side never changes, so the second solve equals
    # the first bit for bit; an absurdly small tolerance still converges
    problem = heat_problem(2.0, -3.0)
    grid = Grid.uniform(0.0, 1.0, 17)
    cfg = StepConfig(tau=0.05, epsilon=1e-300)
    traj = run(problem, grid, cfg, 0.25)
    assert traj.level_iterations == [2] * 5


def test_steady_harmonic_preserved_100_levels():
    problem = heat_problem(2.0, -3.0)
    grid = Grid.uniform(0.0, 1.0, 17)
    traj = run(problem, grid, StepConfig(tau=0.01), 1.0)
    final = traj.states[-1]
    assert np.max(np.abs(final.u - (2.0 * grid.nodes - 3.0))) < 1e-8


def test_hand_assembled_three_node_system():
    """Brute-force assembly of the 3-node level system, kept independent of the
    production path (explicit inverse, explicit formulas)."""
    nodes = np.array([0.0, 0.5, 1.0])
    tau, g = 0.1, 0.5
    u_prev = np.full(3, 0.5)

    phi_m = np.array([[1.0, 1.5, 2.0], [1.5, 1.0, 1.5], [2.0, 1.5, 1.0]])
    phix_m = np.array([[0.0, -1.0, -1.0], [1.0, 0.0, -1.0], [1.0, 1.0, 0.0]])
    l_m = np.array([[0.0, 0.5], [-0.25, 0.25], [-0.5, 0.0]])
    h_m = np.array([[0.0, 0.5], [0.5, 0.5], [0.5, 0.0]])
    psi = lambda r: r * r / 2.0 + r**3 / 6.0
    psi_d = lambda y, xj: (y - xj) * (1.0 + abs(y - xj) / 2.0)
    psi_b = np.array([[psi(abs(0.0 - x)) for x in nodes], [psi(abs(1.0 - x)) for x in nodes]])
    psix_b = np.array([[psi_d(0.0, x) for x in nodes], [psi_d(1.0, x) for x in nodes]])
    c = np.array([0.5, 1.0, 0.5])
    psi_t = c[:, None] * psi(np.abs(nodes[:, None] - nodes[None, :]))
    d_m = l_m @ psix_b - h_m @ psi_b + psi_t
    e_m = d_m @ np.linalg.inv(phi_m)

    # nu = 0, mu = 1, eta = 1, Fisher split: lambda = 1, F_n(u) = -u^2
    m_m = np.eye(3) / tau - np.eye(3)
    w_m = np.diag(c) - e_m @ m_m
    a_expected = np.column_stack([l_m[:, 0], l_m[:, 1], w_m[:, 1]])
    rhs_fixed_expected = (
        h_m @ np.array([g, g]) - (e_m @ u_prev) / tau - w_m[:, 0] * g - w_m[:, 2] * g
    )

    problem = PdeProblem(
        coeffs=CoefficientSet.constant(0.0, 1.0, 1.0),
        reaction=fisher_reaction(),
        a=0.0,
        b=1.0,
        horizon=1.0,
        initial=lambda x: 0.0 * x + g,
        bc_left=lambda t: g,
        bc_right=lambda t: g,
    )
    grid = Grid(nodes)
    cfg = StepConfig(tau=tau)
    system = build_level_system(problem, grid, assemble(grid), cfg, tau, u_prev)

    np.testing.assert_allclose(factored_matrix(system.factorization), a_expected, atol=1e-13)
    np.testing.assert_allclose(system.rhs_fixed, rhs_fixed_expected, atol=1e-13)

    # replicate the corrector with plain dense solves and compare the fixed point
    u_tilde = u_prev.copy()
    u_last = None
    for _ in range(100):
        rhs = rhs_fixed_expected - e_m @ (-u_tilde**2)
        z = np.linalg.solve(a_expected, rhs)
        u_new = np.array([g, z[2], g])
        if u_last is not None and np.max(np.abs(u_new - u_last)) <= 1e-10:
            break
        u_tilde = u_new
        u_last = u_new
    state, _ = corrector_solve(system, problem, cfg, u_prev)
    np.testing.assert_allclose(state.u, u_new, atol=1e-12)


def test_factorization_reuse_constant_vs_varying_coefficients():
    grid = Grid.uniform(0.0, 1.0, 9)
    ops = assemble(grid)
    cfg = StepConfig(tau=0.01)

    constant = heat_problem(1.0, 0.0)
    sys1 = build_level_system(constant, grid, ops, cfg, 0.01, grid.nodes)
    sys2 = build_level_system(constant, grid, ops, cfg, 0.02, grid.nodes, prev_system=sys1)
    assert sys2.w_left_col is sys1.w_left_col and sys2.w_right_col is sys1.w_right_col
    assert sys2.factorization is sys1.factorization

    varying = make_generalized_fn(1.0)
    grid_v = Grid.uniform(-1.0, 1.0, 9)
    ops_v = assemble(grid_v)
    u0 = np.asarray(varying.initial(grid_v.nodes))
    sys3 = build_level_system(varying, grid_v, ops_v, cfg, 0.01, u0)
    sys4 = build_level_system(varying, grid_v, ops_v, cfg, 0.02, u0, prev_system=sys3)
    assert sys4.factorization is not sys3.factorization


def test_dirichlet_values_imposed_exactly():
    problem = make_generalized_fn(1.0)
    grid = Grid.uniform(-1.0, 1.0, 9)
    traj = run(problem, grid, StepConfig(tau=0.01), 0.1,
               snapshots=[0.0, 0.05, 0.1])
    for state in traj.states:
        assert state.u[0] == float(problem.bc_left(state.t))
        assert state.u[-1] == float(problem.bc_right(state.t))


def test_run_zero_horizon_returns_sampled_initial():
    problem = make_generalized_fn(1.0)
    grid = Grid.uniform(-1.0, 1.0, 17)
    traj = run(problem, grid, StepConfig(tau=1e-3), 0.0)
    assert len(traj.states) == 1
    state = traj.states[0]
    assert state.t == 0.0
    np.testing.assert_allclose(state.u, problem.initial(grid.nodes), atol=1e-15)
    assert traj.level_iterations == []


def test_run_validates_inputs():
    problem = make_generalized_fn(1.0)
    grid = Grid.uniform(-1.0, 1.0, 9)
    with pytest.raises(ValueError):
        run(problem, Grid.uniform(0.0, 1.0, 9), StepConfig(tau=1e-3), 0.1)
    with pytest.raises(ValueError):
        run(problem, grid, StepConfig(tau=1e-3), 2.0)  # beyond horizon
    with pytest.raises(ValueError):
        run(problem, grid, StepConfig(tau=1e-3), 0.1, snapshots=[0.0505])
    with pytest.raises(ValueError):
        run(problem, grid, StepConfig(tau=1e-3), 0.1, snapshots=[0.2])


def test_run_reproduces_reference_error_on_coarse_grid():
    # published value for rho = 1, [-1, 1], h = 1/4, tau = 1/1000 at t = 1
    problem = make_generalized_fn(1.0)
    grid = Grid.with_spacing(-1.0, 1.0, 0.25)
    traj = run(problem, grid, StepConfig(tau=1e-3), 1.0)
    report = compute_errors(traj.states[-1].u, problem.exact(grid.nodes, 1.0), time=1.0)
    assert report.l_inf == pytest.approx(1.0914e-3, rel=0.25)
    assert max(traj.level_iterations) < 100


def test_near_zero_diffusion_rejected():
    problem = PdeProblem(
        coeffs=CoefficientSet.constant(0.0, 1e-13, 0.0),
        reaction=zero_reaction(),
        a=0.0,
        b=1.0,
        horizon=1.0,
        initial=lambda x: 0.0 * x,
        bc_left=lambda t: 0.0,
        bc_right=lambda t: 0.0,
    )
    grid = Grid.uniform(0.0, 1.0, 5)
    with pytest.raises(SolverError):
        build_level_system(problem, grid, assemble(grid), StepConfig(tau=0.1), 0.1, np.zeros(5))


def test_corrector_cap_raises_with_context():
    problem = heat_problem(1.0, 0.0)
    grid = Grid.uniform(0.0, 1.0, 5)
    cfg = StepConfig(tau=0.1, max_corrector_iters=1)
    system = build_level_system(problem, grid, assemble(grid), cfg, 0.1, grid.nodes)
    with pytest.raises(ConvergenceError) as excinfo:
        corrector_solve(system, problem, cfg, grid.nodes)
    assert excinfo.value.time == pytest.approx(0.1)


def test_back_substitution_gap_small_after_convergence():
    problem = make_generalized_fn(1.0)
    grid = Grid.uniform(-1.0, 1.0, 17)
    cfg = StepConfig(tau=1e-3)
    traj = run(problem, grid, cfg, 0.05, snapshots=[0.049, 0.05])
    prev, final = traj.states
    system = build_level_system(problem, grid, assemble(grid), cfg, 0.05, prev.u)
    state, _ = corrector_solve(system, problem, cfg, prev.u)
    np.testing.assert_allclose(state.u, final.u, atol=1e-13)
    assert back_substitution_gap(system, problem, state) <= 10.0 * cfg.epsilon
