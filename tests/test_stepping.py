import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import blas, lapack

from drbem1d import presets, stepping, verification
from drbem1d.assembly import (LEVEL_BAND, Grid, assemble_drbem, band_lu_factor_checked,
                              band_lu_solver)
from drbem1d.exceptions import ConvergenceError, DomainError, SingularMatrixError, SolverError
from drbem1d.problems import (REGISTRY, CoefficientSet, PdeProblem, ReactionTerm,
                              make_fisher, make_fitzhugh_nagumo, make_generalized_fisher,
                              make_generalized_fn)
from drbem1d.reference import assemble_interpolation
from drbem1d.stepping import (
    StepConfig,
    build_level_system,
    corrector_solve,
    extrapolated_lag,
    guarded_lag,
    initial_values,
    level_index,
    run,
)
from drbem1d.verification import compute_errors
from helpers import (back_substitution_gap, band_level_system, bumped_generalized_fisher,
                     dense_level_solve, dirichlet_columns, graded_grids, interior_band_factors,
                     level_band, reference_corrector, reference_interior_corrector, traced)


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


def band_factored_matrix(factorization, kl=LEVEL_BAND, ku=LEVEL_BAND):
    """The matrix LAPACK gbtrf factored, A = P_1 L_1 ... P_{N-1} L_{N-1} U: U from
    the band's top rows, then each column's multipliers and row swap undone."""
    lu, piv = factorization
    n = lu.shape[1]
    product = np.zeros((n, n))
    for j in range(n):
        for i in range(max(0, j - kl - ku), j + 1):
            product[i, j] = lu[kl + ku + i - j, j]
    for j in reversed(range(n - 1)):
        for i in range(j + 1, min(n, j + kl + 1)):
            product[i] += lu[kl + ku + i - j, j] * product[j]
        product[[j, piv[j]]] = product[[piv[j], j]]
    return product


def test_band_factored_matrix_undoes_pivoting():
    rng = np.random.default_rng(3)
    n = 9
    rows, cols = np.indices((n, n))
    inside = np.abs(rows - cols) <= 2
    matrix = np.where(inside, rng.standard_normal((n, n)), 0.0)
    band = np.zeros((7, n))
    band[(4 + rows - cols)[inside], cols[inside]] = matrix[inside]
    factorization = band_lu_factor_checked(band, 2, 2, "test band")
    assert np.any(factorization[1] != np.arange(n))  # this matrix pivots
    np.testing.assert_allclose(band_factored_matrix(factorization), matrix, atol=1e-14)


def takes_dpttrs(system):
    """Whether the level's factors are dpttrf's (d, e) rather than dgbtrf's (lu, piv)."""
    return system.factorization.factors[0].ndim == 1


def assert_same_factors(system, problem, ops, cfg, t_n):
    """The level's dgbtrf factors equal those of the reference interior band, entry
    for entry; a structural zero may differ in sign, (-w) @ pieces against -(w @ pieces)."""
    for got, want in zip(system.factorization.factors,
                         interior_band_factors(problem, ops, cfg, t_n), strict=True):
        np.testing.assert_array_equal(got, want)


def fisher_reaction():
    # F(u) = u(1 - u): slope 1, remainder -u^2
    return ReactionTerm(1.0, lambda u: -u * u, lambda u: u * (1.0 - u))


class TestStepConfig:
    def test_defaults(self):
        cfg = StepConfig(tau=0.1)
        assert cfg.epsilon == 1e-10
        assert cfg.max_corrector_iters == 100

    @pytest.mark.parametrize("kwargs", [
        dict(tau=0.0), dict(tau=-1.0), dict(tau=math.inf), dict(tau=0.1, epsilon=0.0),
        dict(tau=0.1, max_corrector_iters=0), dict(tau=0.1, epsilon=math.nan),
        # a level whose seed moves in its first solve needs two that agree, so a
        # cap below two could only stop the levels that barely move
        dict(tau=0.1, max_corrector_iters=1), dict(tau=0.1, max_corrector_iters=2.5),
        dict(tau=0.1, max_corrector_iters=2.0), dict(tau=0.1, max_corrector_iters="3"),
        # an infinite tolerance would stop every level after one solve
        dict(tau=0.1, epsilon=math.inf),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            StepConfig(**kwargs)

    def test_smallest_cap_is_two(self):
        assert StepConfig(tau=0.1, max_corrector_iters=2).max_corrector_iters == 2
        assert StepConfig(tau=0.1, max_corrector_iters=np.int64(2)).max_corrector_iters == 2
        with pytest.raises(ValueError, match="max_corrector_iters = 1 must be an integer of "
                                             "at least 2"):
            StepConfig(tau=0.1, max_corrector_iters=1)

    def test_largest_cap_is_max_corrector_iters(self):
        cap = stepping.MAX_CORRECTOR_ITERS
        assert StepConfig(tau=0.1, max_corrector_iters=cap).max_corrector_iters == cap
        with pytest.raises(ValueError, match=f"max_corrector_iters = {cap + 1} is more than "
                                             f"{cap}"):
            StepConfig(tau=0.1, max_corrector_iters=cap + 1)

    def test_infinite_tau_cannot_reach_run(self):
        # an infinite step would put every time at level 0: one t = 0 state, no error
        with pytest.raises(ValueError, match="tau must be positive and finite"):
            run(make_fisher(), Grid.uniform(-2.0, 2.0, 9), StepConfig(tau=math.inf), 0.5)


def test_level_index_rejects_non_multiples():
    assert level_index(0.25, 1e-3) == 250
    assert level_index(0.0, 1e-3) == 0
    with pytest.raises(ValueError):
        level_index(0.0005, 1e-3)


def test_level_index_rejects_a_non_finite_quotient():
    # t / tau overflows to inf, which no level count can round from
    with pytest.raises(ValueError, match="t_end 1e\\+300 over tau = 1e-300 is not a finite"):
        level_index(1e300, 1e-300, "t_end")
    with pytest.raises(ValueError, match="not a finite number of levels"):
        run(make_fisher(), Grid.uniform(-2.0, 2.0, 9), StepConfig(tau=1e-300), 1e300)


def test_overflowing_boundary_data_diverge_without_a_warning():
    # rho = 1e300 overflows the exact kink that gives generalized_fn's boundary
    # values at every t > 0: the run reports it as divergence, and numpy's
    # overflow warning, an error under this suite's filter, never escapes
    problem = make_generalized_fn(1e300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError, match="corrector diverged at t = 0.01"):
            run(problem, Grid.uniform(-1.0, 1.0, 9), StepConfig(tau=0.01), 0.05)
        with pytest.raises(ConvergenceError, match="oracle corrector diverged at t = 0.01"):
            verification.fd_oracle(problem, Grid.uniform(-1.0, 1.0, 9), StepConfig(tau=0.01),
                                   0.05)


def test_steady_linear_profile_single_level():
    # harmonic steady state: the time-derivative load vanishes at the fixed point
    problem = heat_problem(1.0, 0.0)
    grid = Grid.uniform(0.0, 1.0, 9)
    ops = assemble_drbem(grid)
    cfg = StepConfig(tau=0.1)
    u_prev = grid.nodes.copy()
    system = build_level_system(problem, grid, ops, cfg, 0.1, u_prev)
    state, iters = corrector_solve(system, problem, cfg, u_prev)
    assert np.max(np.abs(state.u - grid.nodes)) < 1e-9
    # the seed u_prev is the fixed point, so the first solve confirms it
    assert iters == 1
    # the solved endpoint fluxes are the slope
    assert state.q_left == pytest.approx(1.0, abs=1e-9)
    assert state.q_right == pytest.approx(1.0, abs=1e-9)


def test_no_flux_is_reported_before_the_first_level():
    # u = 2x + 1 is steady; each level solves for its slope 2 at both ends, but at
    # t = 0 no level has solved for a flux, so the state reports nan there
    problem = heat_problem(2.0, 1.0)
    traj = run(problem, Grid.uniform(0.0, 1.0, 9), StepConfig(tau=0.1), 0.2,
               snapshots=[0.0, 0.1, 0.2])
    initial, *levels = traj.states
    assert initial.t == 0.0 and math.isnan(initial.q_left) and math.isnan(initial.q_right)
    for state in levels:
        assert state.q_left == pytest.approx(2.0, abs=1e-9)
        assert state.q_right == pytest.approx(2.0, abs=1e-9)


def test_zero_data_gives_zero_solution():
    problem = heat_problem(0.0, 0.0)
    grid = Grid.uniform(0.0, 1.0, 9)
    cfg = StepConfig(tau=0.1)
    system = build_level_system(problem, grid, assemble_drbem(grid), cfg, 0.1, np.zeros(9))
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
    """The 3-node level system by hand, in spline form for the band and by
    brute-force dense DRBEM assembly (explicit inverse, explicit formulas) for
    the fixed point, both kept independent of the production path."""
    nodes = np.array([0.0, 0.5, 1.0])
    tau, g = 0.1, 0.5
    u_prev = np.full(3, 0.5)

    # nu = 0, mu = 1, eta = 1, Fisher split: lambda = 1, F_n(u) = -u^2, so
    # s = 1/tau - 1 = 9.  With h = 1/2: T = [[1, 1/2, 0], [1/2, 2, 1/2], [0, 1/2, 1]]
    # and 6 Delta(u, q) = [12 (u2 - u1) - 6 q_a, 12 (u1 - 2 u2 + u3), 6 q_b - 12 (u3 - u2)].
    t_m = np.array([[1.0, 0.5, 0.0], [0.5, 2.0, 0.5], [0.0, 0.5, 1.0]])
    delta6_u = np.array([[-12.0, 12.0, 0.0], [12.0, -24.0, 12.0], [0.0, 12.0, -12.0]])
    k_m = delta6_u - 9.0 * t_m  # the level matrix on (u1, u2, u3)
    # unknowns [q_a, u2, q_b]: the flux columns come from 6 Delta alone
    band_expected = np.array([[-6.0, 7.5, 0.0], [0.0, -42.0, 0.0], [0.0, 7.5, 6.0]])
    np.testing.assert_array_equal(band_expected[:, 1], k_m[:, 1])
    dirichlet_expected = k_m[:, [0, 2]]
    rhs_fixed_spline = -t_m @ u_prev / tau - dirichlet_expected @ np.array([g, g])

    phi_m = np.array([[1.0, 1.5, 2.0], [1.5, 1.0, 1.5], [2.0, 1.5, 1.0]])
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
    ops = assemble_drbem(grid)
    cfg = StepConfig(tau=tau)
    system = build_level_system(problem, grid, ops, cfg, tau, u_prev)
    band = band_level_system(problem, ops, cfg, tau, u_prev)

    # the stepper factors minus the one interior row and keeps minus the end
    # rows' entries; the band reference holds the whole matrix
    assert takes_dpttrs(system)
    np.testing.assert_allclose(system.factorization.factors[0], [-band_expected[1, 1]],
                               atol=1e-13)
    np.testing.assert_allclose(system.factorization.ends,
                               -band_expected[[0, 0, 0, 2, 2, 2], [0, 1, 2, 0, 1, 2]], atol=1e-13)
    np.testing.assert_allclose(band_factored_matrix(band.factorization.factors), band_expected,
                               atol=1e-13)
    # on three nodes the end rows are every row: the stepper's nonzero entries
    # and the band reference's whole columns
    for columns in (dirichlet_columns(system.factorization, 3),
                    level_band(problem, ops, cfg, tau)[1]):
        np.testing.assert_allclose(columns, dirichlet_expected, atol=1e-13)
    for level in (system, band):
        np.testing.assert_allclose(level.rhs_fixed, rhs_fixed_spline, atol=1e-13)

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
    u_band, *band_fluxes, _ = reference_corrector(band, problem, cfg, u_prev)
    for u, fluxes in ((state.u, [state.q_left, state.q_right]), (u_band, band_fluxes)):
        np.testing.assert_allclose(u, u_new, atol=1e-12)
        np.testing.assert_allclose(fluxes, z[:2], atol=1e-12)


def test_factorization_reuse_constant_vs_varying_coefficients():
    grid = Grid.uniform(0.0, 1.0, 9)
    ops = assemble_drbem(grid)
    cfg = StepConfig(tau=0.01)

    constant = heat_problem(1.0, 0.0)
    sys1 = build_level_system(constant, grid, ops, cfg, 0.01, grid.nodes)
    sys2 = build_level_system(constant, grid, ops, cfg, 0.02, grid.nodes, prev_system=sys1)
    assert sys2.factorization is sys1.factorization
    assert sys2.factorization.weights == (100.0, 0.0)
    assert sys2.coeffs == (0.0, 1.0, 0.0) and sys1.drift == sys2.drift == 0.0

    # cos(t) coefficients keep r = nu/mu = 1 while s = 1/(tau mu) - eta lambda/mu
    # drifts: the factors are carried, each level lagging its own drift s_0 - s,
    # until s leaves DRIFT_BOUND * s_0, and the next level refactors
    varying = make_generalized_fn(1.0)
    grid_v = Grid.uniform(-1.0, 1.0, 9)
    ops_v = assemble_drbem(grid_v)
    u0 = np.asarray(varying.initial(grid_v.nodes))

    def weights(t_n):
        nu, mu, eta = stepping.level_coefficients(varying, t_n)
        return 1.0 / (cfg.tau * mu) - eta * varying.reaction.linear_slope / mu, nu / mu

    sys3 = build_level_system(varying, grid_v, ops_v, cfg, 0.01, u0)
    sys4 = build_level_system(varying, grid_v, ops_v, cfg, 0.02, u0, prev_system=sys3)
    assert sys4.factorization is sys3.factorization
    assert sys3.factorization.weights == weights(0.01) and sys3.drift == 0.0
    assert sys4.coeffs == stepping.level_coefficients(varying, 0.02)
    assert sys4.drift == weights(0.01)[0] - weights(0.02)[0] != 0.0
    # cos(0.3) is 4.5% below cos(0.01): past the bound
    assert abs(weights(0.3)[0] - weights(0.01)[0]) > stepping.DRIFT_BOUND * weights(0.01)[0]
    sys5 = build_level_system(varying, grid_v, ops_v, cfg, 0.3, u0, prev_system=sys4)
    assert sys5.factorization is not sys4.factorization
    assert sys5.factorization.weights == weights(0.3) and sys5.drift == 0.0


def assert_built_afresh(system, fresh):
    """system took no factors over: its factors, end rows and right-hand side are
    fresh's, a build without a previous system, bit for bit, and it lags no drift."""
    got, want = system.factorization, fresh.factorization
    assert got is not want and got.weights == want.weights
    assert system.drift == fresh.drift == 0.0
    assert [a.tobytes() for a in got.factors] == [a.tobytes() for a in want.factors]
    assert (got.ends, got.dirichlet_rows) == (want.ends, want.dirichlet_rows)
    assert got.t_band is want.t_band
    assert system.rhs_fixed.tobytes() == fresh.rhs_fixed.tobytes()


def test_a_previous_system_of_another_tau_or_grid_is_not_carried_over():
    # same coefficient triple, other matrix: s = 1/tau - 1 halves with the
    # doubled tau, a jittered grid of the same size has another T, and a linear
    # slope of 10 moves s = 1/tau - lambda from 99 to 90, past DRIFT_BOUND
    problem = make_fisher()
    grid = Grid.uniform(problem.a, problem.b, 17)
    ops = assemble_drbem(grid)
    u = initial_values(problem, grid.nodes)
    cfg = StepConfig(tau=0.01)
    previous = build_level_system(problem, grid, ops, cfg, 0.02, u)
    # with all of them the same, the level takes the previous one's factors and drift
    again = build_level_system(problem, grid, ops, cfg, 0.03, u, prev_system=previous)
    assert again.factorization is previous.factorization and again.drift == 0.0

    steeper = dataclasses.replace(
        problem, reaction=dataclasses.replace(problem.reaction, linear_slope=10.0))
    system = build_level_system(steeper, grid, ops, cfg, 0.02, u, prev_system=previous)
    assert_built_afresh(system, build_level_system(steeper, grid, ops, cfg, 0.02, u))

    doubled = StepConfig(tau=0.02)
    system = build_level_system(problem, grid, ops, doubled, 0.02, u, prev_system=previous)
    assert_built_afresh(system, build_level_system(problem, grid, ops, doubled, 0.02, u))

    other = jittered(grid, seed=1)
    other_ops = assemble_drbem(other)
    system = build_level_system(problem, other, other_ops, cfg, 0.02, u, prev_system=previous)
    assert_built_afresh(system, build_level_system(problem, other, other_ops, cfg, 0.02, u))


def test_a_previous_system_of_a_nearby_tau_is_carried_with_its_drift_lagged():
    # fisher's s = 1/tau - 1 is 99 at tau = 0.01 and 98.0099... at 0.0101, within
    # DRIFT_BOUND * 99 of it: another tau keeps the factors and lags the drift
    problem = make_fisher()
    grid = Grid.uniform(problem.a, problem.b, 17)
    ops = assemble_drbem(grid)
    u = initial_values(problem, grid.nodes)
    previous = build_level_system(problem, grid, ops, StepConfig(tau=0.01), 0.02, u)
    assert previous.factorization.weights == (99.0, 0.0)
    cfg = StepConfig(tau=0.0101)
    system = build_level_system(problem, grid, ops, cfg, 0.0202, u, prev_system=previous)
    fresh = build_level_system(problem, grid, ops, cfg, 0.0202, u)
    assert system.factorization is previous.factorization
    assert system.drift == 99.0 - fresh.factorization.weights[0] == pytest.approx(0.990099)
    assert fresh.drift == 0.0 and system.coeffs == fresh.coeffs
    # the carried level reaches the fresh build's fixed point
    state, _ = corrector_solve(system, problem, cfg, u)
    want, _ = corrector_solve(fresh, problem, cfg, u)
    assert np.max(np.abs(state.u - want.u)) <= 3.0 * cfg.epsilon


def scripted_problem(nu, eta):
    """u_t + nu u_x = u_xx + eta (u - 0.01 u^2) on [0, 1], nu and eta taken at
    level k of tau = 0.01 from the k-th entries of the lists: s = 100 - eta and
    r = nu at that level.  The weak remainder keeps eta = 101 contracting."""
    def at(values):
        return lambda t: values[round(t / 0.01) - 1]

    return PdeProblem(
        coeffs=CoefficientSet(nu=at(nu), mu=lambda t: 1.0, eta=at(eta)),
        reaction=ReactionTerm(1.0, lambda u: -0.01 * u * u, lambda u: u - 0.01 * u * u),
        a=0.0,
        b=1.0,
        horizon=1.0,
        initial=lambda x: 0.25 * np.sin(np.pi * x),
        bc_left=lambda t: 0.0,
        bc_right=lambda t: 0.0,
    )


@pytest.mark.parametrize("nu, eta, carried", [
    ([0.0, 0.0], [0.0, -3.125], True),  # s: 100 -> 103.125, at the bound
    ([0.0, 0.0], [0.0, 3.125], True),  # s: 100 -> 96.875, at the bound below
    ([0.0, 0.0], [0.0, -3.125 * (1.0 + 2.0**-40)], False),  # just past it
    ([0.0, 0.25], [1.0, 1.0], False),  # s unchanged, r: 0 -> 0.25
    ([0.25, 0.25], [100.0, 100.001], False),  # s_0 = 0
    ([0.0, 0.0], [101.0, 101.001], False),  # s_0 = -1
    ([0.0, 0.0], [101.0, 101.0], True),  # s_0 = -1 and s unchanged: the same matrix
])
def test_a_level_refactors_where_its_weights_leave_the_carry_rule(nu, eta, carried):
    problem = scripted_problem(nu, eta)
    grid = Grid.uniform(0.0, 1.0, 17)
    ops = assemble_drbem(grid)
    cfg = StepConfig(tau=0.01)
    u = initial_values(problem, grid.nodes)
    first = build_level_system(problem, grid, ops, cfg, 0.01, u)
    system = build_level_system(problem, grid, ops, cfg, 0.02, u, prev_system=first)
    fresh = build_level_system(problem, grid, ops, cfg, 0.02, u)
    if not carried:
        assert_built_afresh(system, fresh)
        return
    assert system.factorization is first.factorization
    assert system.drift == first.factorization.weights[0] - fresh.factorization.weights[0]
    assert system.coeffs == fresh.coeffs
    # the carried level reaches the fresh build's fixed point
    state, _ = corrector_solve(system, problem, cfg, u)
    want, _ = corrector_solve(fresh, problem, cfg, u)
    assert np.max(np.abs(state.u - want.u)) <= 10.0 * cfg.epsilon


@pytest.mark.parametrize("name", ["growing_diffusion", "generalized_fn"])
def test_a_lagged_drift_lands_where_a_refactor_at_every_level_does(name, monkeypatch):
    # without advection, mu(t) = 1 + 0.2 t moves both s and eta/mu, so a level
    # that took eta/mu from the level that factored it would land 2.3e-3 away
    # by t = 1; generalized_fn carries its band factors on a jittered grid
    if name == "growing_diffusion":
        fisher = make_fisher()
        problem = dataclasses.replace(
            fisher, coeffs=CoefficientSet(nu=lambda t: 0.0, mu=lambda t: 1.0 + 0.2 * t,
                                          eta=lambda t: 1.0))
        grid = Grid.uniform(problem.a, problem.b, 33)
    else:
        problem = make_generalized_fn(1.0)
        grid = jittered(Grid.uniform(problem.a, problem.b, 33), seed=2)
    cfg = StepConfig(tau=0.01)
    ops = assemble_drbem(grid)
    u = initial_values(problem, grid.nodes)
    system, factored, drifted = None, 0, 0
    for k in range(1, 101):
        prev = system
        system = build_level_system(problem, grid, ops, cfg, k * cfg.tau, u, prev_system=prev)
        factored += prev is None or system.factorization is not prev.factorization
        drifted += system.drift != 0.0
        u = corrector_solve(system, problem, cfg, u)[0].u
    assert 1 < factored < 100 and drifted > 50
    # with a bound of zero every level whose s moves refactors and lags no drift
    monkeypatch.setattr(stepping, "DRIFT_BOUND", 0.0)
    want = run(problem, grid, cfg, 1.0).states[-1].u
    assert np.max(np.abs(u - want)) <= 1e-9


def test_run_logs_its_factorization_count(caplog):
    # table3's finest row to t = 0.125: cos(t) drifts by 0.8%, inside the bound
    bench = presets.BENCHMARKS["table3"]()
    row = min(bench.rows, key=lambda r: r.tau)
    assert (row.h, row.tau) == (1 / 128, 1 / 3200)
    grid = Grid.with_spacing(row.problem.a, row.problem.b, row.h)
    with caplog.at_level("INFO", logger="drbem1d.stepping"):
        run(row.problem, grid, StepConfig(tau=row.tau), 0.125)
    assert "run finished: 1 factorizations over 400 levels" in caplog.messages


def registry_problem(name):
    """The named problem at a representative parameter, on its default domain."""
    factory, param = REGISTRY[name]
    values = {"alpha": 2.5, "rho": 0.75}
    return factory(**({param: values[param]} if param else {}))


def jittered(grid, seed):
    """The grid with every interior node moved by up to 10% of its spacing."""
    nodes = grid.nodes.copy()
    nodes[1:-1] += 0.1 * grid.h * np.random.default_rng(seed).uniform(-1.0, 1.0, grid.n - 2)
    return Grid(nodes)


@pytest.mark.parametrize("spacing", ["uniform", "jittered"])
@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_banded_level_solve_matches_the_dense_reference(name, spacing):
    # each level is solved by the stepper, by the plain loop of its own solves, by
    # the full-band reference and by the dense form, all from the same previous
    # state and the stepper's own first lag, extrapolated from the levels before
    # (cubic from the fourth level on) and counted as iterate 0
    problem = registry_problem(name)
    grid = Grid.uniform(problem.a, problem.b, 33)
    if spacing == "jittered":
        grid = jittered(grid, seed=len(name))
    interp = assemble_interpolation(grid)
    ops = assemble_drbem(grid, interp)
    p_matrix = interp.solve(interp.phi_x_matrix.T, transposed=True).T
    cfg = StepConfig(tau=0.01)
    u = initial_values(problem, grid.nodes)
    system, earlier = None, ()
    for k in range(1, 11):
        t_n = k * cfg.tau
        prev, system = system, build_level_system(problem, grid, ops, cfg, t_n, u,
                                                  prev_system=system)
        # a carried level (generalized_fn's s drifts) keeps the factors of the
        # level that made them and lags its own drift from their s_0
        if prev is None or system.factorization is not prev.factorization:
            factored_at = t_n
        nu, mu, eta = system.coeffs
        implicit_scale = 1.0 / (cfg.tau * mu) - eta * problem.reaction.linear_slope / mu
        assert system.drift == system.factorization.weights[0] - implicit_scale
        assert system.u_prev is u and len(system.earlier) == len(earlier) == min(k - 1, 3)
        assert all(held is level for held, level in zip(system.earlier, earlier))
        lag = extrapolated_lag(u, earlier)
        assert (lag is u) == (k == 1)
        state, passes = corrector_solve(system, problem, cfg, u)
        band = band_level_system(problem, ops, cfg, t_n, u)
        u_band, *band_rest = reference_corrector(band, problem, cfg, lag)
        # every advection-free level takes dpttrs, every other the interior band
        assert takes_dpttrs(system) == (system.coeffs[0] == 0.0)
        if not takes_dpttrs(system):
            assert_same_factors(system, problem, ops, cfg, factored_at)
        # the corrector keeps the bits of the plain loop of its own solves
        plain = reference_interior_corrector(system, problem, cfg, lag)
        assert state.u.tobytes() == plain[0].tobytes()
        assert [state.q_left, state.q_right, passes] == list(plain[1:])
        u_ref, q_left, q_right, passes_ref = dense_level_solve(problem, ops, p_matrix, cfg,
                                                               t_n, u, lag)
        # fluxes relative to the solution's steepest slope: the kinks' tails
        # leave endpoint fluxes near 1e-4, below the dense form's own rounding
        slope_scale = max(abs(q_left), abs(q_right),
                          np.max(np.abs(np.diff(u_ref) / np.diff(grid.nodes))))
        for u_other, fluxes in ((u_band, band_rest[:2]), (u_ref, [q_left, q_right])):
            assert np.max(np.abs(state.u - u_other)) <= 1e-9 * np.max(np.abs(u_other))
            for q, q_other in zip((state.q_left, state.q_right), fluxes):
                assert abs(q - q_other) <= 1e-9 * slope_scale
        assert abs(passes - band_rest[2]) <= 1
        assert abs(passes - passes_ref) <= 1
        earlier, u = (u, *earlier[:2]), state.u


@pytest.mark.parametrize("spacing", ["uniform", "jittered"])
@pytest.mark.parametrize("n", [9, 33])
def test_interior_dpttrs_solves_a_fisher_level_like_the_band(n, spacing):
    # one Fisher level, where s = 1/tau - 1 > 0 and no advection, takes dpttrs;
    # the band factors of the same interior give the same state within rounding
    problem, cfg = make_generalized_fisher(1.0, -1.0, 2.0), StepConfig(tau=0.01)
    grid = Grid.uniform(problem.a, problem.b, n)
    if spacing == "jittered":
        grid = jittered(grid, seed=n)
    ops = assemble_drbem(grid)
    u = initial_values(problem, grid.nodes)
    system = build_level_system(problem, grid, ops, cfg, cfg.tau, u)
    scale = 1.0 / cfg.tau - 1.0  # s on this level, where mu = eta = lambda = 1
    spd = stepping.spd_factors(ops.level_pieces, scale)
    assert spd is not None
    band = stepping.band_factors(ops.level_pieces, np.array([1.0, -scale, 0.0]), "band matrix")
    states = []
    for factors, solve, ends in (spd, band):
        kernel = system.factorization._replace(factors=factors, solve=solve, ends=ends)
        states.append(corrector_solve(dataclasses.replace(system, factorization=kernel),
                                      problem, cfg, u)[0])
    got, want = ([s.q_left, s.q_right, *s.u] for s in states)
    assert np.max(np.abs(np.subtract(got, want))) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("spacing", ["uniform", "jittered"])
@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_extrapolated_and_lagged_seeds_reach_the_same_fixed_point(name, spacing):
    # the first lag decides only where, within epsilon of the level's fixed
    # point, the loop stops: each level from the extrapolated lag, and again from
    # u_n alone (a system built without a previous one), lands within 10 epsilon
    problem = registry_problem(name)
    grid = Grid.uniform(problem.a, problem.b, 33)
    if spacing == "jittered":
        grid = jittered(grid, seed=len(name))
    ops = assemble_drbem(grid)
    cfg = StepConfig(tau=0.01)
    u = initial_values(problem, grid.nodes)
    system = None
    for k in range(1, 11):
        t_n = k * cfg.tau
        system = build_level_system(problem, grid, ops, cfg, t_n, u, prev_system=system)
        lagged = build_level_system(problem, grid, ops, cfg, t_n, u)
        assert len(system.earlier) == min(k - 1, 3) and lagged.earlier == ()
        state, _ = corrector_solve(system, problem, cfg, u)
        lagged_state, _ = corrector_solve(lagged, problem, cfg, u)
        assert np.max(np.abs(state.u - lagged_state.u)) <= 10.0 * cfg.epsilon
        u = state.u


def test_corrector_solve_takes_only_the_level_its_system_was_built_from():
    problem = make_fisher()
    grid = Grid.uniform(problem.a, problem.b, 9)
    cfg = StepConfig(tau=0.01)
    u = initial_values(problem, grid.nodes)
    system = build_level_system(problem, grid, assemble_drbem(grid), cfg, cfg.tau, u)
    state, _ = corrector_solve(system, problem, cfg, u)
    again, _ = corrector_solve(system, problem, cfg, u.copy())  # equal is accepted
    assert np.array_equal(state.u, again.u)
    with pytest.raises(ValueError, match="not the level the system was built from"):
        corrector_solve(system, problem, cfg, u + 1.0)


def test_extrapolated_lag_keeps_nonnegative_nodes_nonnegative():
    # the extrapolation is the plain polynomial; guarded_lag, which corrector_solve
    # applies when the reaction rejects a lag, keeps u_prev where it is >= 0
    u_prev = np.array([1.0, 0.2, 0.0, -0.5, -0.1, 0.3])
    u_older = np.array([0.5, 0.6, 0.1, -0.2, -0.4, 0.1])
    # 2 u_prev - u_older = [1.5, -0.2, -0.1, -0.8, 0.2, 0.5]: nodes 1 and 2 fall
    # below zero from u_prev >= 0 and keep u_prev; node 3 was negative already
    lag = extrapolated_lag(u_prev, (u_older,))
    np.testing.assert_array_equal(lag, 2.0 * u_prev - u_older)
    np.testing.assert_array_equal(guarded_lag(lag, u_prev), [1.5, 0.2, 0.0, -0.8, 0.2, 0.5])
    np.testing.assert_array_equal(lag, 2.0 * u_prev - u_older)  # the guard copies
    np.testing.assert_array_equal(extrapolated_lag(u_prev, (u_prev,)), u_prev)
    assert guarded_lag(u_prev, u_prev) is None  # no node to keep
    # three levels, in binary fractions so that the arithmetic is exact:
    # 3 (u_prev - u_older) + u_oldest = [2, -0.625, -0.125, -0.625, 0.625, 1.25]
    u_prev = np.array([1.0, 0.25, 0.0, -0.5, -0.125, 0.375])
    u_older = np.array([0.5, 0.625, 0.125, -0.25, -0.5, 0.125])
    u_oldest = np.array([0.5, 0.5, 0.25, 0.125, -0.5, 0.5])
    lag = extrapolated_lag(u_prev, (u_older, u_oldest))
    np.testing.assert_array_equal(lag, [2.0, -0.625, -0.125, -0.625, 0.625, 1.25])
    np.testing.assert_array_equal(guarded_lag(lag, u_prev), [2.0, 0.25, 0.0, -0.625, 0.625, 1.25])
    np.testing.assert_array_equal(extrapolated_lag(u_prev, (u_prev, u_prev)), u_prev)
    # a quadratic in time is extrapolated exactly: u(t) = 1 + t + t^2 at t = 0, 1, 2
    np.testing.assert_array_equal(extrapolated_lag(np.array([7.0]), (np.array([3.0]),
                                                                     np.array([1.0]))), [13.0])
    # four levels: 4 (u_prev + u_oldest) - (6 u_older + u_3) = [2.75, -1.25, -0.25,
    # -0.25, 0.5, 2.25]; nodes 1 and 2 keep u_prev, node 3 was negative already
    u_3 = np.array([0.25, 0.5, 0.5, 0.25, 0.0, 0.5])
    lag = extrapolated_lag(u_prev, (u_older, u_oldest, u_3))
    np.testing.assert_array_equal(lag, [2.75, -1.25, -0.25, -0.25, 0.5, 2.25])
    np.testing.assert_array_equal(guarded_lag(lag, u_prev), [2.75, 0.25, 0.0, -0.25, 0.5, 2.25])
    np.testing.assert_array_equal(extrapolated_lag(u_prev, (u_prev, u_prev, u_prev)), u_prev)
    # and a cubic exactly: u(t) = 1 + t + t^2 + t^3 at t = 3, 2, 1, 0 gives 85 at t = 4
    np.testing.assert_array_equal(
        extrapolated_lag(np.array([40.0]), tuple(np.array([v]) for v in (15.0, 4.0, 1.0))),
        [85.0])
    assert extrapolated_lag(u_prev) is u_prev  # no earlier level: the seed is u_n


def test_table1_kink_takes_one_solve_from_the_fourth_level():
    # the h = 1/16, tau = 1/2000 row of table1 (N = 321, 2,000 levels): its cubic
    # seed is within epsilon of every level's first solve from the fourth level on
    bench = presets.BENCHMARKS["table1"]()
    row, = (r for r in bench.rows if (r.h, r.tau) == (1.0 / 16.0, 1.0 / 2000.0))
    grid = Grid.with_spacing(row.problem.a, row.problem.b, row.h)
    passes = run(row.problem, grid, StepConfig(tau=row.tau), bench.t_end).level_iterations
    assert grid.n == 321 and len(passes) == 2000
    assert set(passes[3:]) == {1}, passes[:3]


def test_fig5_levels_after_the_third_take_one_solve():
    # the cubic seed lands fig5's stiff fronts within epsilon of each level's
    # fixed point, so its first solve confirms it: past the start-up transient
    # (the first twelve levels) every level takes one solve, and no level after
    # the third more than two
    bench = presets.BENCHMARKS["fig5"]()
    first = bench.rows[0]
    grid = Grid.with_spacing(first.problem.a, first.problem.b, first.h)
    ops = assemble_drbem(grid)
    total = 0
    for row in bench.rows:
        assert (row.problem.a, row.problem.b, row.h, row.tau) == (
            first.problem.a, first.problem.b, 1.0 / 16.0, 1e-3)
        passes = run(row.problem, grid, StepConfig(tau=row.tau), bench.t_end,
                     ops=ops).level_iterations
        labels = dict(row.labels)
        assert len(passes) == 1000 and set(passes[12:]) == {1}, labels
        assert max(passes[3:]) <= 2, labels
        total += sum(passes)
    assert total <= 6_100


@pytest.mark.parametrize("height, tau", [(1.0, 0.05), (3.0, 0.01)])
def test_decaying_bump_under_a_fractional_power_marches(height, tau):
    # the bump decays, so the extrapolated seed dips below zero near it, where
    # u^3.5 has no real value; the reaction rejects it, and the level runs again
    # from the seed kept at u_n there: every state and pass count is that of a
    # loop whose every seed is guarded before its first solve
    problem = bumped_generalized_fisher(2.5, height=height)
    rejected = []

    def counted(u, nonlinear=problem.reaction.nonlinear):
        try:
            return nonlinear(u)
        except DomainError:
            rejected.append(u)
            raise

    problem = dataclasses.replace(
        problem, reaction=dataclasses.replace(problem.reaction, nonlinear=counted))
    grid = Grid.uniform(-2.0, 2.0, 65)
    ops = assemble_drbem(grid)
    cfg = StepConfig(tau=tau)
    levels = level_index(0.2, tau)
    traj = run(problem, grid, cfg, 0.2, snapshots=[k * tau for k in range(levels + 1)], ops=ops)
    assert len(traj.level_iterations) == levels
    assert np.isfinite(traj.states[-1].u).all()
    u, system, guarded_levels = initial_values(problem, grid.nodes), None, 0
    for k in range(1, levels + 1):
        system = build_level_system(problem, grid, ops, cfg, k * tau, u, prev_system=system)
        seed = extrapolated_lag(u, system.earlier)
        guarded = guarded_lag(seed, u)
        guarded_levels += guarded is not None
        u_ref, q_left, q_right, passes = reference_interior_corrector(
            system, problem, cfg, seed if guarded is None else guarded)
        state = traj.states[k]
        assert state.u.tobytes() == u_ref.tobytes()
        assert [state.q_left, state.q_right, traj.level_iterations[k - 1]] == [
            q_left, q_right, passes]
        u = state.u
    # each level whose guard moves the seed was rejected once by run and rerun
    assert guarded_levels == len(rejected) >= 1


def test_a_seed_negative_where_u_n_is_gives_the_guarded_seeds_message():
    # node 5 of the plain seed is negative from u_n >= 0 and node 10 from the
    # dip u_n = -1: the reaction rejects node 5 first, and the rerun from the
    # guarded seed rejects node 10, the message a guarded start always gave
    problem = bumped_generalized_fisher(2.5)
    grid = Grid.with_spacing(-2.0, 2.0, 0.25)
    u = initial_values(problem, grid.nodes)
    u_older = u.copy()
    u_older[5] = 2.0 * u[5] + 0.5
    cfg = StepConfig(tau=0.01)
    system = dataclasses.replace(
        build_level_system(problem, grid, assemble_drbem(grid), cfg, 0.01, u), earlier=(u_older,))
    seed = extrapolated_lag(u, (u_older,))
    assert u[5] >= 0.0 and np.flatnonzero(seed < 0.0).tolist() == [5, 10]
    assert np.flatnonzero(guarded_lag(seed, u) < 0.0).tolist() == [10]
    with pytest.raises(DomainError) as excinfo:
        corrector_solve(system, problem, cfg, u)
    assert str(excinfo.value) == (
        "negative base with non-integer exponent 3.5 at t = 0.01: first negative node "
        f"u[10] = {u[10]:.6g}")


REFACTORING = "generalized_fn with nu scaled by 1 + t"
GUARDED = "decaying bump under u^3.5"


@pytest.mark.parametrize("name", [*sorted(REGISTRY), REFACTORING, GUARDED])
def test_run_is_its_level_loop(name):
    # run's states and pass counts are those of the public level loop, bit for
    # bit: build_level_system with the previous system, then corrector_solve
    # from the previous level.  Constant coefficients carry the factors over
    # whole, generalized_fn lags the drift of its s from the factored one, its
    # advection scaled by 1 + t refactors at every level, and the decaying
    # bump's seed meets u^3.5 below zero, so its levels run again from the
    # guarded seed
    cfg, levels, rejected = StepConfig(tau=0.01), 12, []
    if name == REFACTORING:
        gfn = registry_problem("generalized_fn")
        problem = dataclasses.replace(gfn, coeffs=dataclasses.replace(
            gfn.coeffs, nu=lambda t, nu=gfn.coeffs.nu: (1.0 + t) * nu(t)))
    elif name == GUARDED:
        problem = bumped_generalized_fisher(2.5, height=3.0)

        def counted(u, nonlinear=problem.reaction.nonlinear):
            try:
                return nonlinear(u)
            except DomainError:
                rejected.append(u)
                raise

        problem = dataclasses.replace(
            problem, reaction=dataclasses.replace(problem.reaction, nonlinear=counted))
    else:
        problem = registry_problem(name)
    n = 65 if name == GUARDED else 33
    grid = jittered(Grid.uniform(problem.a, problem.b, n), seed=7)
    ops = assemble_drbem(grid)
    traj = run(problem, grid, cfg, levels * cfg.tau,
               snapshots=[k * cfg.tau for k in range(levels + 1)], ops=ops)
    assert (len(rejected) > 0) == (name == GUARDED)
    u = initial_values(problem, grid.nodes)
    assert traj.states[0].u.tobytes() == u.tobytes()
    system, passes, factored = None, [], 0
    for k in range(1, levels + 1):
        prev = system
        system = build_level_system(problem, grid, ops, cfg, k * cfg.tau, u, prev_system=prev)
        factored += prev is None or system.factorization is not prev.factorization
        state, iters = corrector_solve(system, problem, cfg, u)
        passes.append(iters)
        got = traj.states[k]
        assert got.u.tobytes() == state.u.tobytes()
        assert (got.q_left, got.q_right, got.t) == (state.q_left, state.q_right, state.t)
        u = state.u
    assert traj.level_iterations == passes
    assert (factored == levels) == (name == REFACTORING)


@pytest.mark.parametrize("n", [5, 7, 9, 33])
@pytest.mark.parametrize("name", ["fisher", "generalized_fn"])
def test_dirichlet_update_on_nonzero_entries_keeps_the_two_product_rows(name, n):
    # rhs_fixed takes only the nonzero entries of the level matrix's columns on
    # u_1 and u_N, byte for byte what each of the first three and last three
    # rows gave with both products (below seven nodes those rows overlap):
    # without advection (fisher) two rows at each end with one entry each
    problem = registry_problem(name)
    grid = jittered(Grid.uniform(problem.a, problem.b, n), seed=n)
    ops = assemble_drbem(grid)
    cfg = StepConfig(tau=0.01)
    u = initial_values(problem, grid.nodes)
    system = build_level_system(problem, grid, ops, cfg, cfg.tau, u)
    left, right, both = system.factorization.dirichlet_rows
    if name == "fisher":
        assert [i for i, _ in left] == [0, 1] and [i for i, _ in right] == [n - 2, n - 1]
        assert both == ()
    else:
        assert len(both) >= 2
    _, columns = level_band(problem, ops, cfg, cfg.tau)
    g_left, g_right = system.g_left, system.g_right
    assert g_left != 0.0 and g_right != 0.0
    want = blas.dgbmv(n, n, 1, 1, -1.0 / (cfg.tau * system.coeffs[1]), ops.t_band, u)
    for i in sorted({0, 1, 2, n - 3, n - 2, n - 1}):
        want[i] = want.item(i) - (columns.item(i, 0) * g_left + columns.item(i, 1) * g_right)
    assert system.rhs_fixed.tobytes() == want.tobytes()


@st.composite
def level_settings(draw):
    """A graded grid, previous values, (nu, mu, eta, lambda) and tau, with nu = 0 or
    not and s of either sign.  s stays above half of -pi^2, where the level matrix
    on [0, 1] turns singular."""
    grid = draw(graded_grids())
    n = grid.n
    u_prev = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)))
    nu = draw(st.one_of(st.just(0.0), st.floats(-1.0, 1.0)))
    mu, eta, tau = (draw(st.floats(lo, hi)) for lo, hi in ((0.5, 2.0), (0.5, 2.0), (0.01, 1.0)))
    s = draw(st.floats(-0.5 * np.pi**2, 200.0))
    lam = (1.0 / (tau * mu) - s) * mu / eta  # s = 1 / (tau mu) - eta lambda / mu
    return grid, u_prev, nu, mu, eta, lam, tau


@settings(derandomize=True, max_examples=40, deadline=None)
@given(graded_grids(), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), st.floats(0.5, 2.0),
       st.floats(0.01, 1.0))
def test_linear_field_stays_steady_on_graded_grids(grid, slope, offset, mu, tau):
    # without advection or reaction a line is the clamped spline of itself, so it
    # is every level's fixed point: run carries the first level's factors over
    # and each level's seed, the line itself, is within epsilon of its first solve
    problem = dataclasses.replace(heat_problem(slope, offset), horizon=20 * tau,
                                  coeffs=CoefficientSet.constant(0.0, mu, 1.0))
    traj = run(problem, grid, StepConfig(tau=tau), 20 * tau)
    line = slope * grid.nodes + offset
    assert np.max(np.abs(traj.states[-1].u - line)) <= 1e-12 * max(1.0, np.max(np.abs(line)))
    assert traj.level_iterations == [1] * 20


@settings(derandomize=True, max_examples=60, deadline=None)
@given(level_settings())
def test_level_solve_agrees_with_the_full_band(setting):
    grid, u_prev, nu, mu, eta, lam, tau = setting
    g_left, g_right = u_prev[0], u_prev[-1]
    problem = PdeProblem(
        coeffs=CoefficientSet.constant(nu, mu, eta),
        reaction=ReactionTerm(lam, lambda u: -0.1 * u**2, lambda u: lam * u - 0.1 * u**2),
        a=0.0,
        b=1.0,
        horizon=1.0,
        initial=lambda x: g_left + (g_right - g_left) * x,
        bc_left=lambda t: g_left,
        bc_right=lambda t: g_right,
    )
    ops = assemble_drbem(grid)
    cfg = StepConfig(tau=tau, epsilon=1e-13)
    system = build_level_system(problem, grid, ops, cfg, tau, u_prev)
    state, _ = corrector_solve(system, problem, cfg, u_prev)
    band = band_level_system(problem, ops, cfg, tau, u_prev)
    u_band, *band_fluxes, _ = reference_corrector(band, problem, cfg, u_prev)
    assert np.max(np.abs(state.u - u_band)) <= 1e-9 * np.max(np.abs(u_band))
    slope_scale = max(*map(abs, band_fluxes), np.max(np.abs(np.diff(u_band) / np.diff(grid.nodes))))
    for q, q_band in zip((state.q_left, state.q_right), band_fluxes):
        assert abs(q - q_band) <= 1e-9 * slope_scale


def test_level_solve_allocates_no_n_by_n_array():
    problem = make_generalized_fn(1.0)
    grid = Grid.uniform(-1.0, 1.0, 2049)
    ops = assemble_drbem(grid)
    cfg = StepConfig(tau=1e-3)
    u = initial_values(problem, grid.nodes)

    def one_level():
        system = build_level_system(problem, grid, ops, cfg, cfg.tau, u)
        corrector_solve(system, problem, cfg, u)

    # 64 vectors of N doubles; one N x N array would be 2049 times 8 vectors
    _, peak = traced(one_level)
    assert peak <= 64 * grid.n * 8


@pytest.mark.parametrize("name, spd", [("fitzhugh_nagumo", True), ("generalized_fn", False)])
def test_level_hands_its_kernels_operands_that_need_no_conversion(name, spd):
    # f2py copies an operand that is not in the kernel's own layout on every call
    problem = registry_problem(name)
    grid = jittered(Grid.uniform(problem.a, problem.b, 33), seed=5)
    cfg = StepConfig(tau=1e-3)
    u = initial_values(problem, grid.nodes)
    system = build_level_system(problem, grid, assemble_drbem(grid), cfg, cfg.tau, u)
    factorization = system.factorization
    assert takes_dpttrs(system) is spd
    assert factorization.t_band.flags.f_contiguous
    if spd:
        d, e = factorization.factors
        assert d.flags.contiguous and e.flags.contiguous
    else:
        assert factorization.factors[0].flags.f_contiguous  # dgbtrf's lu
    rhs = np.ones(grid.n)
    b = rhs[1:-1]  # the pass solves on its right-hand side's interior entries
    x, info = factorization.solve(b)
    assert info == 0 and np.shares_memory(x, b)


@pytest.mark.parametrize("levels", [1, 3, 5])
def test_run_allocates_no_n_by_n_array(levels):
    # the level test above with the operator assembly inside: run builds its own
    # operator set, which must hold no dense E, Phi or LU; from the second level
    # on, the previous level's factors are alive while the next are built, and
    # generalized_fn's advection, scaled by 1 + t here, moves r = nu/mu, so it
    # refactors at every level.  Both kernels: the band (advection) and dpttrs
    # (none)
    gfn = make_generalized_fn(1.0)
    refactoring = dataclasses.replace(
        gfn, coeffs=dataclasses.replace(gfn.coeffs, nu=lambda t: (1.0 + t) * math.cos(t)))
    for problem in (refactoring, make_fisher(-1.0, 1.0)):
        grid = Grid.uniform(-1.0, 1.0, 2049)
        cfg = StepConfig(tau=1e-3)
        _, peak = traced(run, problem, grid, cfg, levels * cfg.tau, ops=None)
        assert peak <= 64 * grid.n * 8


def test_run_marches_a_hundred_thousand_nodes():
    # one N x N array of doubles would take 80 GB here
    problem = make_fitzhugh_nagumo(0.75)
    grid = Grid.uniform(problem.a, problem.b, 100_001)
    cfg = StepConfig(tau=1e-3)
    t_end = 5 * cfg.tau
    trajectory, peak = traced(run, problem, grid, cfg, t_end)
    assert len(trajectory.level_iterations) == 5
    u = trajectory.states[-1].u
    assert np.isfinite(u).all()
    assert np.max(np.abs(u - problem.exact(grid.nodes, t_end))) <= 1e-7
    assert peak <= 256 * grid.n * 8


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
    for t_end in (-0.1, np.nan):
        with pytest.raises(ValueError):
            run(problem, grid, StepConfig(tau=1e-3), t_end)


def test_run_assembles_operators_only_when_a_level_is_solved(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return assemble_drbem(*args)

    monkeypatch.setattr(stepping, "assemble_drbem", counted)
    problem, grid, cfg = make_fisher(), Grid.uniform(-2.0, 2.0, 9), StepConfig(tau=0.1)
    for t_end, assembled in ((0.0, 0), (0.1, 1), (0.5, 2)):  # one call a run with a level
        run(problem, grid, cfg, t_end)
        assert len(calls) == assembled


def test_run_rejects_an_operator_set_built_on_other_nodes():
    problem, cfg = make_fisher(), StepConfig(tau=0.01)
    grid = Grid.uniform(-2.0, 2.0, 17)
    for foreign in (jittered(grid, seed=3), Grid.uniform(-2.0, 2.0, 9)):
        with pytest.raises(ValueError, match="operator set was built on a different node set"):
            run(problem, grid, cfg, 0.1, ops=assemble_drbem(foreign))
    # operators of an equal node set are the grid's own
    shared = run(problem, grid, cfg, 0.1, ops=assemble_drbem(Grid(grid.nodes.copy())))
    assert shared.states[-1].u.tobytes() == run(problem, grid, cfg, 0.1).states[-1].u.tobytes()


@pytest.mark.parametrize("foreign", ["moved nodes", "more nodes"])
def test_build_level_system_rejects_an_operator_set_built_on_other_nodes(foreign):
    # run's check on the one-level API: the same node count with the interior
    # moved would otherwise solve on the wrong spacings, and another count would
    # fail in numpy's reshape
    problem, cfg = make_fisher(), StepConfig(tau=0.01)
    grid = Grid.uniform(-2.0, 2.0, 9)
    if foreign == "moved nodes":
        nodes = grid.nodes.copy()
        nodes[1:-1] += 0.1 * np.sin(np.arange(1, 8))
        other = Grid(nodes)
    else:
        other = Grid.uniform(-2.0, 2.0, 11)
    u = initial_values(problem, grid.nodes)
    foreign_ops = assemble_drbem(other)
    with pytest.raises(ValueError, match="operator set was built on a different node set"):
        build_level_system(problem, grid, foreign_ops, cfg, 0.01, u)
    # so does a level that would carry factors made on those operators over
    previous = build_level_system(problem, other, foreign_ops, cfg, 0.01,
                                  initial_values(problem, other.nodes))
    with pytest.raises(ValueError, match="operator set was built on a different node set"):
        build_level_system(problem, grid, foreign_ops, cfg, 0.02, u, prev_system=previous)
    # operators of an equal node set are the grid's own
    own = build_level_system(problem, grid, assemble_drbem(grid), cfg, 0.01, u)
    equal = build_level_system(problem, grid, assemble_drbem(Grid(grid.nodes.copy())), cfg,
                               0.01, u)
    assert (corrector_solve(equal, problem, cfg, u)[0].u.tobytes()
            == corrector_solve(own, problem, cfg, u)[0].u.tobytes())


def test_build_level_system_rejects_a_previous_level_of_the_wrong_shape():
    problem = make_fisher()
    grid = Grid.uniform(problem.a, problem.b, 9)
    with pytest.raises(ValueError, match=r"u_prev must have shape \(9,\), got \(8,\)"):
        build_level_system(problem, grid, assemble_drbem(grid), StepConfig(tau=0.01), 0.01,
                           np.zeros(8))


def test_initial_values_samples_a_scalar_valued_initial_node_by_node():
    # u_0(x) = x written for one point at a time: the node array sums to a scalar
    problem = dataclasses.replace(heat_problem(1.0, 0.0), initial=lambda x: float(np.sum(x)))
    grid = Grid.uniform(0.0, 1.0, 5)
    assert initial_values(problem, grid.nodes).tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]


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
        build_level_system(problem, grid, assemble_drbem(grid), StepConfig(tau=0.1), 0.1,
                           np.zeros(5))


def test_non_finite_level_coefficient_is_singular():
    problem = PdeProblem(
        coeffs=CoefficientSet.constant(0.0, 1.0, np.inf),
        reaction=fisher_reaction(),
        a=0.0,
        b=1.0,
        horizon=1.0,
        initial=lambda x: 0.0 * x,
        bc_left=lambda t: 0.0,
        bc_right=lambda t: 0.0,
    )
    grid = Grid.uniform(0.0, 1.0, 5)
    with pytest.raises(SingularMatrixError):
        build_level_system(problem, grid, assemble_drbem(grid), StepConfig(tau=0.1), 0.1,
                           np.zeros(5))


def linear_problem(slope):
    """u_t = u_xx + slope u - u^3 on [0, 1] with small sine data and zero ends."""
    return PdeProblem(
        coeffs=CoefficientSet.constant(0.0, 1.0, 1.0),
        reaction=ReactionTerm(slope, lambda u: -u**3, lambda u: slope * u - u**3),
        a=0.0,
        b=1.0,
        horizon=1.0,
        initial=lambda x: 0.01 * np.sin(np.pi * x),
        bc_left=lambda t: 0.0,
        bc_right=lambda t: 0.0,
    )


# tau = 0.01: s = 100 - slope is zero, or so negative that -(6 Delta - s T) is indefinite
@pytest.mark.parametrize("slope", [100.0, 1e4])
def test_level_without_a_positive_implicit_scale_takes_the_band(slope):
    problem = linear_problem(slope)
    grid = Grid.uniform(0.0, 1.0, 17)
    ops = assemble_drbem(grid)
    cfg = StepConfig(tau=0.01)
    u = initial_values(problem, grid.nodes)
    system = build_level_system(problem, grid, ops, cfg, cfg.tau, u)
    assert not takes_dpttrs(system)
    band = band_level_system(problem, ops, cfg, cfg.tau, u)
    assert_same_factors(system, problem, ops, cfg, cfg.tau)
    assert system.rhs_fixed.tobytes() == band.rhs_fixed.tobytes()
    assert np.array_equal(dirichlet_columns(system.factorization, grid.n),
                          level_band(problem, ops, cfg, cfg.tau)[1])
    # bit for bit the interior band's plain loop, and the full band's fixed point
    state, passes = corrector_solve(system, problem, cfg, u)
    u_plain, *rest = reference_interior_corrector(system, problem, cfg, u)
    assert state.u.tobytes() == u_plain.tobytes()
    assert [state.q_left, state.q_right, passes] == rest
    u_band, *band_fluxes, _ = reference_corrector(band, problem, cfg, u)
    assert np.max(np.abs(state.u - u_band)) <= 1e-9 * np.max(np.abs(u_band))
    for q, q_band in zip((state.q_left, state.q_right), band_fluxes):
        assert abs(q - q_band) <= 1e-9 * max(map(abs, band_fluxes))


def assert_solves_like_dgbtrs(solve, lu, piv, kl, ku, seed):
    """solve(b) overwrites b with what dgbtrs gives on the factors (lu, piv), bit
    for bit, on twenty random right-hand sides."""
    rng = np.random.default_rng(seed)
    for _ in range(20):
        b = rng.standard_normal(lu.shape[1])
        want, info = lapack.dgbtrs(lu, kl, ku, b, piv)
        assert info == 0
        got, info = solve(b)
        assert info == 0 and np.shares_memory(got, b)
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("spacing", ["uniform", "jittered"])
@pytest.mark.parametrize("solver", ["run", "fd_oracle"])
def test_unswapped_band_factors_solve_like_dgbtrs_bit_for_bit(solver, spacing, monkeypatch):
    # generalized_fn's factored bands: run's (2, 2) level bands and fd_oracle's
    # (1, 1) ones, each solved by the two dtbsv sweeps, since no row is swapped;
    # every band is recorded as the level hands it over.  fd_oracle refactors at
    # every level; run only where s = 1/(tau mu) - eta lambda/mu has left
    # DRIFT_BOUND of the last factored s_0, which its march to t = 0.5 does
    # several times
    module, march_fn, width, cfg, levels = {
        "run": (stepping, run, LEVEL_BAND, StepConfig(tau=0.01), 50),
        "fd_oracle": (verification, verification.fd_oracle, 1, StepConfig(tau=1e-3), 5),
    }[solver]
    recorded = []

    def recording_solver(factored, piv, kl, ku):
        recorded.append((factored.copy(order="F"), piv.copy(), kl, ku))
        return band_lu_solver(factored, piv, kl, ku)

    monkeypatch.setattr(module, "band_lu_solver", recording_solver)
    problem = make_generalized_fn(0.75)
    grid = Grid.uniform(problem.a, problem.b, 33)
    if spacing == "jittered":
        grid = jittered(grid, seed=3)
    march_fn(problem, grid, cfg, levels * cfg.tau)
    factored = levels
    if solver == "run":
        factored, s_0 = 0, None
        for k in range(1, levels + 1):
            nu, mu, eta = stepping.level_coefficients(problem, k * cfg.tau)
            s = 1.0 / (cfg.tau * mu) - eta * problem.reaction.linear_slope / mu
            if s_0 is None or abs(s - s_0) > stepping.DRIFT_BOUND * s_0:
                factored, s_0 = factored + 1, s
        assert 3 <= factored < levels
    assert len(recorded) == factored
    for level, (factored, piv, kl, ku) in enumerate(recorded):
        assert (kl, ku) == (width, width)
        assert np.array_equal(piv, np.arange(grid.n - 2))
        assert_solves_like_dgbtrs(band_lu_solver(factored, piv, kl, ku), factored[:, :-1],
                                  piv, kl, ku, seed=level)


@pytest.mark.parametrize("kind", ["level", "tridiagonal"])
def test_band_factors_after_a_row_interchange_solve_like_dgbtrs(kind):
    # the sweeps ignore piv, so a band whose dgbtrf swaps rows needs dgbtrs: the
    # s = -900 level of linear_problem(1e3) on 17 nodes, whose (2, 2) band has
    # off-diagonals above its diagonal, and a (1, 1) band whose diagonal is small
    # beside its off-diagonals
    if kind == "level":
        problem, cfg = linear_problem(1e3), StepConfig(tau=0.01)
        grid = Grid.uniform(0.0, 1.0, 17)
        system = build_level_system(problem, grid, assemble_drbem(grid), cfg, cfg.tau,
                                    initial_values(problem, grid.nodes))
        (lu, piv), solve = system.factorization.factors, system.factorization.solve
        kl = LEVEL_BAND
    else:
        rng = np.random.default_rng(11)
        factored = np.zeros((4, 16), order="F")  # 15 columns and the spare one
        factored[1:] = rng.uniform(1.0, 2.0, (3, 16))
        factored[2] *= 0.01
        lu, piv = band_lu_factor_checked(factored[:, :-1], 1, 1, "test band")
        solve, kl = band_lu_solver(factored, piv, 1, 1), 1
    assert not np.array_equal(piv, np.arange(lu.shape[1]))
    assert_solves_like_dgbtrs(solve, lu, piv, kl, kl, seed=0)


@pytest.mark.parametrize("kind", ["non-finite", "pivot"])
def test_unusable_interior_factors_raise_the_band_error(kind):
    # eta = -inf makes s = +inf: on three nodes the one pivot is inf and the
    # off-diagonal slot nan; on a 1e16-wide grid without reaction, s = 1 / tau =
    # 1e-31 leaves pivots near 12 / h + 4 s h = 6e-15
    span, eta, tau, n = (1.0, -np.inf, 0.1, 3) if kind == "non-finite" else (1e16, 0.0, 1e31, 5)
    problem = PdeProblem(
        coeffs=CoefficientSet.constant(0.0, 1.0, eta),
        reaction=fisher_reaction(),
        a=0.0,
        b=span,
        horizon=tau,
        initial=lambda x: 0.0 * x,
        bc_left=lambda t: 0.0,
        bc_right=lambda t: 0.0,
    )
    grid = Grid.uniform(0.0, span, n)
    ops = assemble_drbem(grid)
    cfg = StepConfig(tau=tau)
    with pytest.raises(SingularMatrixError) as band_error:
        interior_band_factors(problem, ops, cfg, tau)
    with pytest.raises(SingularMatrixError) as error:
        build_level_system(problem, grid, ops, cfg, tau, np.zeros(n))
    assert str(error.value) == str(band_error.value)
    assert ("non-finite LU factors" if kind == "non-finite" else "is singular: pivot") in str(
        error.value)


def test_corrector_cap_raises_with_context():
    # the reaction keeps the second solve off the first (the heat problem alone
    # converges in exactly two), so the smallest cap stalls
    problem = reacting_heat_problem(fisher_reaction())
    grid = Grid.uniform(0.0, 1.0, 5)
    cfg = StepConfig(tau=0.1, max_corrector_iters=2)
    system = build_level_system(problem, grid, assemble_drbem(grid), cfg, 0.1, grid.nodes)
    with pytest.raises(ConvergenceError, match="corrector stalled at t = 0.1: difference "
                                               "6.929e-04 after 2 iterations") as excinfo:
        corrector_solve(system, problem, cfg, grid.nodes)
    assert excinfo.value.time == pytest.approx(0.1)
    assert excinfo.value.last_diff == pytest.approx(6.929e-4, rel=1e-3)


def scripted_fixed_point(iterate, cap=100):
    """fixed_point on seven nodes whose pass from a lag gives iterate(lag): its
    solve writes that on the interior, and the seed, the reaction, the band, the
    right-hand side, the drift and the end values are all zero."""
    n, lags = 7, []

    def nonlinear(lag):
        lags.append(lag)
        return np.zeros(n)

    def solve(b):
        b[:] = iterate(lags[-1])[1:-1]
        return b, 0

    return stepping.fixed_point(nonlinear, 1.0, np.zeros((3, n), order="F"), np.zeros(n), 0.0,
                                solve, 0.0, 0.0, np.zeros(n),
                                StepConfig(tau=0.1, max_corrector_iters=cap), 0.1, "corrector")


@pytest.mark.parametrize("planted", [
    {3: np.nan}, {5: np.nan}, {2: np.inf, 4: np.nan}, {1: -np.inf}, {4: -np.inf, 5: np.nan}],
    ids=["nan-3", "nan-5", "inf-before-nan", "-inf", "-inf-before-nan"])
def test_the_gap_reports_a_non_finite_iterate_at_any_interior_node(planted):
    # the gap's norm is the entry of |gap| at its argmax, which finds the first
    # nan: every non-finite entry diverges, wherever it sits, an inf before a nan
    # included; the finite entries are nonpositive, so a signed maximum would
    # read 0 and pass a -inf iterate as converged
    values = np.array([0.0, -4.0, -3.0, -2.0, -1.0, -5.0, 0.0])
    for node, value in planted.items():
        values[node] = value
    with pytest.raises(ConvergenceError, match="corrector diverged at t = 0.1"):
        scripted_fixed_point(lambda u: values.copy())


def test_a_stall_reports_the_gaps_sup_norm():
    # each pass gives 2 lag + b: the iterates are b and 3 b, so the last gap,
    # 2 b, is largest in magnitude at its negative entry
    b = np.array([0.0, 0.5, -3.0, 1.25, -0.75, 2.0, 0.0])
    with pytest.raises(ConvergenceError, match=r"difference 6.000e\+00 after 2") as excinfo:
        scripted_fixed_point(lambda u: 2.0 * u + b, cap=2)
    assert excinfo.value.last_diff == np.max(np.abs(3.0 * b - b)) == 6.0


def counted_reaction(reaction, calls):
    """reaction whose remainder appends to calls each time it is called."""
    def nonlinear(u):
        calls.append(1)
        return reaction.nonlinear(u)
    return dataclasses.replace(reaction, nonlinear=nonlinear)


def rejecting_reaction(calls):
    """A reaction term whose remainder rejects every lag with DomainError."""
    def nonlinear(u):
        calls.append(1)
        raise DomainError("rejected lag")
    return ReactionTerm(0.0, nonlinear, nonlinear)


@pytest.mark.parametrize("solver", ["corrector_solve", "fd_oracle"])
@pytest.mark.parametrize("cap", [2, 3])
def test_a_failing_level_calls_the_reaction_once_a_pass(solver, cap):
    # the loop's own failures are reported from what it already holds: a
    # stalled level has called the reaction once for each of its passes, and a
    # rejected seed, finite or not, once; no pass is run again for a message
    grid = Grid.uniform(0.0, 1.0, 5)
    cfg = StepConfig(tau=0.1, max_corrector_iters=cap, epsilon=1e-14)

    def level(problem):
        if solver == "fd_oracle":
            return verification.fd_oracle(problem, grid, cfg, 0.1)
        u = initial_values(problem, grid.nodes)
        system = build_level_system(problem, grid, assemble_drbem(grid), cfg, 0.1, u)
        with np.errstate(invalid="ignore"):
            return corrector_solve(system, problem, cfg, u)

    calls = []
    with pytest.raises(ConvergenceError, match=f"stalled at t = 0.1: .* after {cap} iterations"):
        level(reacting_heat_problem(counted_reaction(fisher_reaction(), calls)))
    assert len(calls) == cap
    # the seed is u_n = x, finite, and then nan at the middle node
    for seed, error, text in ((lambda x: x, DomainError, "rejected lag at t = 0.1"),
                              (lambda x: np.where(abs(x - 0.5) < 0.1, np.nan, x),
                               ConvergenceError, "diverged at t = 0.1")):
        calls = []
        problem = dataclasses.replace(reacting_heat_problem(rejecting_reaction(calls)),
                                      initial=seed)
        with pytest.raises(error, match=text):
            level(problem)
        assert len(calls) == 1
    if solver == "fd_oracle":
        return
    # a seed negative where u_n = x is not: the guarded seed runs the level once
    # more, and that run's rejection, which names no negative node, is raised
    calls = []
    problem = reacting_heat_problem(rejecting_reaction(calls))
    u = initial_values(problem, grid.nodes)
    u_older = u.copy()
    u_older[2] = 2.0 * u[2] + 0.5
    system = dataclasses.replace(
        build_level_system(problem, grid, assemble_drbem(grid), cfg, 0.1, u), earlier=(u_older,))
    seed = extrapolated_lag(u, (u_older,))
    assert seed[2] < 0.0 <= u[2] and guarded_lag(seed, u).min() >= 0.0
    with pytest.raises(DomainError) as excinfo:
        corrector_solve(system, problem, cfg, u)
    assert str(excinfo.value) == "rejected lag at t = 0.1"
    assert len(calls) == 2


def test_back_substitution_gap_small_after_convergence():
    problem = make_generalized_fn(1.0)
    grid = Grid.uniform(-1.0, 1.0, 17)
    cfg = StepConfig(tau=1e-3)
    traj = run(problem, grid, cfg, 0.05, snapshots=[0.049, 0.05])
    prev, final = traj.states
    system = build_level_system(problem, grid, assemble_drbem(grid), cfg, 0.05, prev.u)
    state, _ = corrector_solve(system, problem, cfg, prev.u)
    np.testing.assert_allclose(state.u, final.u, atol=1e-13)
    assert back_substitution_gap(system, problem, state) <= 10.0 * cfg.epsilon


def nan_first_reaction(calls):
    """A reaction term whose remainder is nan on the first call and 0 after it."""
    def nonlinear(u):
        calls.append(1)
        return np.full_like(u, np.nan) if len(calls) == 1 else 0.0 * u
    return ReactionTerm(0.0, nonlinear, nonlinear)


def reacting_heat_problem(reaction):
    problem = heat_problem(1.0, 0.0)
    return dataclasses.replace(problem, coeffs=CoefficientSet.constant(0.0, 1.0, 1.0),
                               reaction=reaction)


@pytest.mark.parametrize("cap", [2, 100])
def test_nan_reaction_on_the_first_pass_diverges(cap):
    # the first iterate is nan and its gap to the seed reports it, at the smallest
    # cap as at a large one, so no pass after the first is spent on it
    calls = []
    problem = reacting_heat_problem(nan_first_reaction(calls))
    grid = Grid.uniform(0.0, 1.0, 9)
    cfg = StepConfig(tau=0.1, max_corrector_iters=cap)
    system = build_level_system(problem, grid, assemble_drbem(grid), cfg, 0.1, grid.nodes)
    with pytest.raises(ConvergenceError, match="corrector diverged at t = 0.1") as excinfo:
        corrector_solve(system, problem, cfg, grid.nodes)
    assert excinfo.value.time == pytest.approx(0.1)
    assert len(calls) == 1


def test_back_substitution_gap_raises_on_a_non_finite_pass():
    problem = reacting_heat_problem(fisher_reaction())
    grid = Grid.uniform(0.0, 1.0, 9)
    cfg = StepConfig(tau=0.1)
    system = build_level_system(problem, grid, assemble_drbem(grid), cfg, 0.1, grid.nodes)
    state, _ = corrector_solve(system, problem, cfg, grid.nodes)
    assert back_substitution_gap(system, problem, state) <= 10.0 * cfg.epsilon
    poisoned = dataclasses.replace(problem, reaction=nan_first_reaction([]))
    with pytest.raises(ConvergenceError, match="corrector diverged"):
        back_substitution_gap(system, poisoned, state)


def test_negative_base_names_the_level_and_the_node():
    # alpha = 2.5 lags u^3.5, which has no real value at the dip below 0 (node 10)
    problem = bumped_generalized_fisher(2.5)
    grid = Grid.with_spacing(-2.0, 2.0, 0.25)
    assert np.flatnonzero(initial_values(problem, grid.nodes) < 0.0).tolist() == [10]
    with pytest.raises(DomainError, match=r"exponent 3\.5 at t = 0\.01: first negative "
                                          r"node u\[10\] = -1\.0"):
        run(problem, grid, StepConfig(tau=0.01), 0.05)


def test_negative_iterate_names_the_pass_that_made_it():
    # the 1e80 spike is positive data; the first pass's iterate swings to -2e278
    # at node 1, and the second pass's reaction rejects that iterate, not the data
    problem = bumped_generalized_fisher(2.5, height=1e80)
    grid = Grid.with_spacing(-2.0, 2.0, 0.25)
    assert initial_values(problem, grid.nodes).min() >= 0.0
    with pytest.raises(DomainError) as excinfo:
        run(problem, grid, StepConfig(tau=1.0), 1.0)
    assert str(excinfo.value) == (
        "negative base with non-integer exponent 3.5 at t = 1: first negative node "
        "u[1] = -2.34375e+278 in the iterate of corrector pass 1")



@pytest.mark.parametrize("cap", [2, 100])
def test_overflow_seen_by_the_reaction_first_diverges(cap):
    # u^3.5 of the 1e88 spike overflows: the first iterate holds -inf and nan,
    # which the next pass's reaction meets before any gap is taken
    problem = bumped_generalized_fisher(2.5, height=1e88)
    grid = Grid.with_spacing(-2.0, 2.0, 0.25)
    with pytest.raises(ConvergenceError, match="corrector diverged at t = 1"):
        run(problem, grid, StepConfig(tau=1.0, max_corrector_iters=cap), 1.0)


def reflected(problem):
    """problem under x -> a + b - x: nu negated and the data reflected."""
    c, a, b = problem.coeffs, problem.a, problem.b
    return dataclasses.replace(problem, coeffs=dataclasses.replace(c, nu=lambda t: -c.nu(t)),
                               initial=lambda x: problem.initial(a + b - x),
                               bc_left=problem.bc_right, bc_right=problem.bc_left,
                               exact=lambda x, t: problem.exact(a + b - x, t))


# epsilon near rounding: the bistable pair splits its reaction differently, so
# their correctors meet only near the common fixed point
MIRROR_CFG = StepConfig(tau=0.01, epsilon=1e-14)
# mirror gaps over max |u|, in machine epsilons; measured at most 20 (run) and
# 8 (fd_oracle) on the grids below
MIRROR_BOUND = {"run": 64, "fd_oracle": 32}
MIRROR_SOLVERS = {"run": run, "fd_oracle": verification.fd_oracle}


def mirror_gaps(solver, unit_grid):
    """The two mirror invariants' gaps at t = 0.1 over max |u|, in machine
    epsilons, with unit_grid's nodes mapped to each problem's interval, which is
    symmetric about 0: generalized_fn(1) against its reflection on the reflected
    grid, and fitzhugh_nagumo(0.75) against 1 - fitzhugh_nagumo(0.25) there."""
    fn = make_generalized_fn(1.0)
    pairs = ((fn, reflected(fn), lambda v: v),
             (make_fitzhugh_nagumo(0.75, horizon=1.0), make_fitzhugh_nagumo(0.25, horizon=1.0),
              lambda v: 1.0 - v))
    gaps = []
    for problem, mirrored, back in pairs:
        nodes = problem.a + (problem.b - problem.a) * unit_grid.nodes
        u = MIRROR_SOLVERS[solver](problem, Grid(nodes), MIRROR_CFG, 0.1).states[-1].u
        v = MIRROR_SOLVERS[solver](mirrored, Grid(-nodes[::-1]), MIRROR_CFG, 0.1).states[-1].u
        gaps.append(float(np.max(np.abs(u - back(v[::-1])) / np.max(np.abs(u)))
                          / np.finfo(float).eps))
    return gaps


@pytest.mark.parametrize("solver", ["run", "fd_oracle"])
@pytest.mark.parametrize("n", [9, 33])
def test_mirror_invariants_hold_to_rounding_on_uniform_grids(solver, n):
    # no second form of the operators: the scheme is symmetric under reflection
    # of the node set, with nu negated, and the bistable reaction under u -> 1 - u
    gaps = mirror_gaps(solver, Grid.uniform(0.0, 1.0, n))
    assert max(gaps) <= MIRROR_BOUND[solver], gaps


@pytest.mark.parametrize("solver", ["run", "fd_oracle"])
@settings(derandomize=True, deadline=None, max_examples=10)
@given(graded_grids())
def test_mirror_invariants_hold_to_rounding_on_graded_grids(solver, grid):
    gaps = mirror_gaps(solver, grid)
    assert max(gaps) <= MIRROR_BOUND[solver], (grid.nodes, gaps)
