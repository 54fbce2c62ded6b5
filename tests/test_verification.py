import dataclasses
import math
import warnings

import numpy as np
import pytest

from helpers import (bumped_generalized_fisher, jittered_grid, reference_oracle,
                     tanh_graded_grid)

from drbem1d.exceptions import ConvergenceError, DomainError, SingularMatrixError
from drbem1d.problems import (
    REGISTRY,
    CoefficientSet,
    PdeProblem,
    ReactionTerm,
    make_fisher,
    make_generalized_fisher,
    make_generalized_fn,
)
from drbem1d.assembly import Grid, band_lu_factor_checked, band_lu_solver
from drbem1d.presets import fig5_benchmark
from drbem1d.stepping import StepConfig, level_coefficients, level_index, run
from drbem1d.verification import (
    PEAK_BLOCK,
    compute_errors,
    fd_oracle,
    observed_order,
    sweep,
)


def test_compute_errors_keeps_the_numpy_reductions_bits():
    # l_inf is nan exactly when |e| holds one, and np.max's value otherwise,
    # whichever non-finite values sit at which interior nodes, in which order
    rng = np.random.default_rng(7)
    plants = ((), (np.nan,), (np.inf,), (-np.inf,), (np.inf, np.nan), (np.nan, -np.inf),
              (-np.inf, np.inf, np.nan))
    for n in (3, 4, 65, 1001):
        for planted in plants:
            numeric, exact = rng.standard_normal((2, n))
            k = min(len(planted), n - 2)
            numeric[np.sort(rng.choice(np.arange(1, n - 1), k, replace=False))] = planted[:k]
            e = exact[1:-1] - numeric[1:-1]
            report = compute_errors(numeric, exact)
            if np.isnan(e).any():
                assert math.isnan(report.l_inf) and math.isnan(report.rms)
            else:
                assert report.l_inf == float(np.max(np.abs(e)))
                assert report.rms == float(np.sqrt(np.mean(e * e)))


def test_compute_errors_hand_case():
    # interior errors (0.1, -0.2, 0.05): worst 0.2, mean square 0.0175
    numeric = np.array([9.0, 1.0 - 0.1, 2.0 + 0.2, 3.0 - 0.05, 9.0])
    exact = np.array([9.0, 1.0, 2.0, 3.0, 9.0])
    report = compute_errors(numeric, exact, time=1.0)
    assert report.l_inf == pytest.approx(0.2, rel=1e-12)
    assert report.rms == pytest.approx(math.sqrt(0.0175), rel=1e-12)
    assert report.n_interior == 3
    assert report.time == 1.0


def test_compute_errors_exact_match_and_single_interior():
    v = np.array([1.0, 2.0, 3.0])
    report = compute_errors(v, v)
    assert report.l_inf == 0.0 and report.rms == 0.0
    report = compute_errors(np.array([0.0, 0.3, 0.0]), np.zeros(3))
    assert report.l_inf == report.rms == pytest.approx(0.3)


def test_compute_errors_validation():
    with pytest.raises(ValueError):
        compute_errors(np.ones(4), np.ones(5))
    with pytest.raises(ValueError):
        compute_errors(np.ones(2), np.ones(2))


def test_rms_never_exceeds_l_inf():
    rng = np.random.default_rng(0)
    for _ in range(20):
        e = rng.standard_normal(rng.integers(3, 40))
        report = compute_errors(e, np.zeros_like(e))
        assert report.rms <= report.l_inf + 1e-15


def interior_pass_level(problem, grid, cfg, t_n, u):
    """One fd_oracle level from u as the oracle ran it on the interior alone: its
    three-point band, factored by band_lu_factor_checked, and per pass
    np.multiply(F_n(u_tilde[1:-1]), eta), then += the base u_n / tau less the
    imposed values' terms, then band_lu_solver's solve, until two successive
    iterates agree, u counting as iterate 0.  Returns (u, passes).  A test
    reference only."""
    tau, n = cfg.tau, grid.n
    h = np.diff(grid.nodes)
    h_l, h_r = h[:-1], h[1:]
    left, mid, right = h_l * (h_l + h_r), h_l * h_r, h_r * (h_l + h_r)
    d2, d1 = np.zeros((2, n, 4)).transpose(0, 2, 1)
    d2[1, 2:], d2[2, 1:-1], d2[3, :-2] = 2.0 / right, -2.0 / mid, 2.0 / left
    d1[1, 2:], d1[2, 1:-1], d1[3, :-2] = h_l / right, (h_r - h_l) / mid, -h_r / left
    nu, mu, eta = level_coefficients(problem, t_n)
    band = nu * d1 - mu * d2
    band[2] += 1.0 / tau - eta * problem.reaction.linear_slope
    _, piv = band_lu_factor_checked(band[:, 1:-1], 1, 1, "test band")
    solve = band_lu_solver(band[:, 1:], piv, 1, 1)
    g_left, g_right = float(problem.bc_left(t_n)), float(problem.bc_right(t_n))
    base = u[1:-1] / tau
    base[0] -= band.item(3, 0) * g_left
    base[-1] -= band.item(1, -1) * g_right
    u_last = u
    for passes in range(1, cfg.max_corrector_iters + 1):
        u_new = np.empty(n)
        u_new[0], u_new[-1] = g_left, g_right
        w = np.multiply(problem.reaction.nonlinear(u_last[1:-1]), eta, out=u_new[1:-1])
        w += base
        solve(w)
        if float(np.max(np.abs(u_new - u_last))) <= cfg.epsilon:
            return u_new, passes
        u_last = u_new
    raise AssertionError(f"interior pass level stalled at t = {t_n}")


class TestFdOracle:
    def test_preserves_steady_linear_profile(self):
        problem = PdeProblem(
            coeffs=CoefficientSet.constant(0.0, 1.0, 0.0),
            reaction=ReactionTerm(0.0, lambda u: 0.0 * u, lambda u: 0.0 * u),
            a=0.0,
            b=1.0,
            horizon=10.0,
            initial=lambda x: 2.0 * x - 3.0,
            bc_left=lambda t: -3.0,
            bc_right=lambda t: -1.0,
        )
        # the three-point stencils are exact on a line at any spacing
        for grid in (Grid.uniform(0.0, 1.0, 17), tanh_graded_grid(0.0, 1.0, 17)):
            u = fd_oracle(problem, grid, StepConfig(tau=0.01), 1.0).states[-1].u
            assert np.max(np.abs(u - (2.0 * grid.nodes - 3.0))) < 1e-8

    def test_fisher_front_converges_under_refinement(self):
        # at these resolutions the backward-Euler error dominates, so refinement
        # must shrink h and tau together to show convergence
        problem = make_generalized_fisher(1.0)
        errors = []
        for n, tau in ((65, 1e-3), (129, 5e-4)):
            grid = Grid.uniform(problem.a, problem.b, n)
            u = fd_oracle(problem, grid, StepConfig(tau=tau), 1.0).states[-1].u
            errors.append(compute_errors(u, problem.exact(grid.nodes, 1.0)).l_inf)
        assert errors[0] < 1e-2
        assert errors[1] < 0.7 * errors[0]

    def test_cross_run_comparison_with_main_solver(self):
        # on the coarse reference grid the oracle happens to carry a much smaller
        # constant (measured ratio ~21x), so the comparison asserts mutual
        # consistency rather than a tight magnitude match
        problem = make_generalized_fn(1.0)
        grid = Grid.with_spacing(-1.0, 1.0, 0.25)
        traj = run(problem, grid, StepConfig(tau=1e-3), 1.0)
        exact = problem.exact(grid.nodes, 1.0)
        u_fd = fd_oracle(problem, grid, StepConfig(tau=1e-3), 1.0).states[-1].u
        err_main = compute_errors(traj.states[-1].u, exact).l_inf
        err_fd = compute_errors(u_fd, exact).l_inf
        assert err_main < 5e-3 and err_fd < 5e-3
        mutual = np.max(np.abs(traj.states[-1].u[1:-1] - u_fd[1:-1]))
        assert mutual <= err_main + err_fd + 1e-12
        assert 1.0 / 30.0 < err_main / err_fd < 30.0

    def test_snapshots_share_one_march(self):
        problem = make_generalized_fn(1.0)
        grid = Grid.uniform(problem.a, problem.b, 17)
        cfg = StepConfig(tau=0.01)
        marched = [s.u for s in fd_oracle(problem, grid, cfg, 0.1,
                                          snapshots=[0.1, 0.0, 0.05, 0.05]).states]
        assert len(marched) == 3  # distinct levels, in increasing time
        for u, t in zip(marched, (0.0, 0.05, 0.1)):
            np.testing.assert_array_equal(u, fd_oracle(problem, grid, cfg, t).states[-1].u)

    @pytest.mark.parametrize("spacing", ["uniform", "jitter"])
    @pytest.mark.parametrize("name, params, n, tau, t_end", [
        ("generalized_fisher", {"alpha": 2.5}, 65, 1e-3, 0.3),
        ("generalized_fn", {"rho": 1.0}, 33, 1e-3, 0.3),
        ("fitzhugh_nagumo", {"rho": 0.75}, 81, 1e-2, 1.0),
        ("fisher", {}, 3, 0.01, 0.2),
        ("fisher", {}, 4, 0.01, 0.2),
    ], ids=["gfisher-n65", "gfn-n33", "fhn-n81", "fisher-n3", "fisher-n4"])
    def test_matches_a_dgbsv_per_pass_bit_for_bit(self, name, params, n, tau, t_end, spacing):
        problem = REGISTRY[name][0](**params)
        if spacing == "uniform":
            grid = Grid.uniform(problem.a, problem.b, n)
        else:  # interior nodes moved by up to 10% of h
            grid = jittered_grid(problem.a, problem.b, n, seed=n)
        u = fd_oracle(problem, grid, StepConfig(tau=tau), t_end).states[-1].u
        assert u.tobytes() == reference_oracle(problem, grid, tau, t_end)[0].tobytes()

    @pytest.mark.parametrize("spacing", ["uniform", "graded"])
    @pytest.mark.parametrize("name", ["fisher", "generalized_fn"])
    def test_a_level_is_its_hand_written_interior_pass(self, name, spacing):
        # each level of the oracle, whose passes are the stepper's on an
        # identity band, from the oracle's own previous state: the pass that
        # wrote eta F_n(u_tilde) on the interior, added the base and solved,
        # bit for bit, with the same pass count; fisher has no advection,
        # generalized_fn(1) has
        problem = make_fisher() if name == "fisher" else make_generalized_fn(1.0)
        grid = (Grid.uniform(problem.a, problem.b, 33) if spacing == "uniform"
                else tanh_graded_grid(problem.a, problem.b, 33))
        cfg = StepConfig(tau=0.01)
        traj = fd_oracle(problem, grid, cfg, 0.05, snapshots=[k * 0.01 for k in range(6)])
        for k in range(1, 6):
            u, passes = interior_pass_level(problem, grid, cfg, k * cfg.tau,
                                            traj.states[k - 1].u)
            assert traj.states[k].u.tobytes() == u.tobytes()
            assert traj.level_iterations[k - 1] == passes

    @pytest.mark.parametrize("name, params, n, tau, t_end", [
        ("generalized_fisher", {"alpha": 2.0}, 65, 1e-3, 0.3),
        ("fitzhugh_nagumo", {"rho": 0.75}, 81, 1e-2, 1.0),
    ], ids=["fig5-front", "kink"])
    def test_keeps_the_two_solve_stop_on_a_moving_front(self, name, params, n, tau, t_end):
        # the oracle seeds each level with u_n, which a moving front leaves about
        # tau |u_t| from the first solve, far above epsilon: no level stops at its
        # first solve, and states and pass counts are those of the rule that never
        # compared the first solve with the seed
        problem = REGISTRY[name][0](**params)
        grid = Grid.uniform(problem.a, problem.b, n)
        traj = fd_oracle(problem, grid, StepConfig(tau=tau), t_end)
        u, passes = reference_oracle(problem, grid, tau, t_end)
        assert traj.states[-1].u.tobytes() == u.tobytes()
        assert traj.level_iterations == passes and min(passes) >= 2

    @pytest.mark.parametrize("n, mu", [(3, -1.0 / 8.0), (4, -1.0 / 9.0), (5, -1.0 / 32.0)])
    def test_singular_level_matrix_raises_singular_matrix_error(self, n, mu):
        # tau = 1/2 and eta lambda = 1 leave 2 mu / h^2 times the second
        # difference, which these mu make singular on [0, 1]
        problem = PdeProblem(
            coeffs=CoefficientSet.constant(0.0, mu, 1.0),
            reaction=ReactionTerm(1.0, lambda u: 0.0 * u, lambda u: u),
            a=0.0,
            b=1.0,
            horizon=1.0,
            initial=lambda x: 0.0 * x + 1.0,
            bc_left=lambda t: 1.0,
            bc_right=lambda t: 1.0,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularMatrixError, match="oracle level matrix at t = 0.5"):
                fd_oracle(problem, Grid.uniform(0.0, 1.0, n), StepConfig(tau=0.5), 0.5)

    @pytest.mark.parametrize("cap", [2, 100])
    def test_overflow_seen_by_the_reaction_first_diverges(self, cap):
        # the first iterate holds -inf, which u^3.5 rejects before any gap is taken
        problem = bumped_generalized_fisher(2.5, height=1e88)
        grid = Grid.uniform(problem.a, problem.b, 17)
        with pytest.raises(ConvergenceError, match="oracle corrector diverged at t = 1"):
            fd_oracle(problem, grid, StepConfig(tau=1.0, max_corrector_iters=cap), 1.0)

    # bad step settings are refused by the StepConfig that both solvers take, and
    # a bad node count by the Grid
    @pytest.mark.parametrize("n_nodes, tau, t_end, epsilon", [
        (2, 0.01, 0.1, 1e-10), (17, 0.0, 0.1, 1e-10), (17, 0.01, 0.1, math.nan),
        (17, 0.01, -0.1, 1e-10), (17, 0.01, 0.105, 1e-10), (3.9, 0.01, 0.1, 1e-10),
        (17, math.inf, 0.1, 1e-10), (17, 0.01, 0.1, math.inf), (17, 0.01, 1.5, 1e-10),
    ])
    def test_rejects_what_the_stepper_rejects(self, n_nodes, tau, t_end, epsilon):
        problem = make_generalized_fisher(1.0)
        with pytest.raises(ValueError):
            fd_oracle(problem, Grid.uniform(problem.a, problem.b, n_nodes),
                      StepConfig(tau=tau, epsilon=epsilon), t_end)

    def test_keeps_the_horizon_and_snapshot_rules_of_run(self):
        problem, cfg = make_generalized_fn(1.0), StepConfig(tau=0.1)  # horizon 1.0
        grid = Grid.uniform(problem.a, problem.b, 17)
        for solver in (fd_oracle, run):
            with pytest.raises(ValueError, match="t_end = 1.5 exceeds the problem horizon 1.0"):
                solver(problem, grid, cfg, 1.5)
        traj = fd_oracle(problem, grid, cfg, 0.3, snapshots=[0.0, 0.2])
        assert [s.t for s in traj.states] == [0.0, 0.2]
        assert len(traj.level_iterations) == 3 and min(traj.level_iterations) >= 2
        for state in traj.states:  # the oracle solves for no flux
            assert math.isnan(state.q_left) and math.isnan(state.q_right)


def nan_first_fisher():
    """make_generalized_fisher(1.0) whose lagged remainder is nan on the first call."""
    problem = make_generalized_fisher(1.0)
    calls = []

    def nonlinear(u):
        calls.append(1)
        return np.full_like(u, np.nan) if len(calls) == 1 else 0.0 * u

    return dataclasses.replace(
        problem, reaction=ReactionTerm(1.0, nonlinear, problem.reaction.full))


def unmarched_fisher():
    """make_fisher() whose coefficients fail the test as soon as a level is built."""
    def no_level(t):
        raise AssertionError(f"a level was marched at t = {t:g}")

    return dataclasses.replace(make_fisher(), coeffs=CoefficientSet(no_level, no_level, no_level))


DIVERGED = ("{who} diverged at t = 0.1: non-finite values in the lagged right-hand side "
            "(tau too large, reaction too stiff, or bad initial data)")


@pytest.mark.parametrize("solver, who", [(run, "corrector"),
                                         (fd_oracle, "oracle corrector")],
                         ids=["run", "fd_oracle"])
@pytest.mark.parametrize("make_problem, tau, t_end, cap, error, text", [
    # alpha = 2.5 lags u^3.5, which has no real value at the dip below 0 (node 10)
    (lambda: bumped_generalized_fisher(2.5), 0.01, 0.05, 100, DomainError,
     "negative base with non-integer exponent 3.5 at t = 0.01: first negative node "
     "u[10] = -1.02213"),
    (nan_first_fisher, 0.1, 0.1, 2, ConvergenceError, DIVERGED),
    (nan_first_fisher, 0.1, 0.1, 100, ConvergenceError, DIVERGED),
    # the two solvers' stalls differ only in the difference they report
    # (2.065e-03 by run, 2.034e-03 by fd_oracle)
    (lambda: make_generalized_fisher(1.0), 0.1, 0.1, 2, ConvergenceError,
     "{who} stalled at t = 0.1: difference {diff} after 2 iterations "
     "(tau too large or reaction too stiff)"),
], ids=["negative-base", "nan-first-reaction-cap-2", "nan-first-reaction", "cap-of-two"])
def test_run_and_the_oracle_share_the_failure_contract(solver, who, make_problem, tau, t_end,
                                                       cap, error, text):
    # both march 17 nodes on [-2, 2] under one StepConfig; only the solver label differs
    problem = make_problem()
    cfg = StepConfig(tau=tau, max_corrector_iters=cap)
    with pytest.raises(error) as excinfo:
        solver(problem, Grid.uniform(problem.a, problem.b, 17), cfg, t_end)
    assert type(excinfo.value) is error
    diff = getattr(excinfo.value, "last_diff", None)
    if diff is not None:  # a stall: the two solvers' differences agree only roughly
        assert 1e-3 < diff < 1e-2
        text = text.replace("{diff}", f"{diff:.3e}")
    assert str(excinfo.value) == text.format(who=who)


SOLVERS = pytest.mark.parametrize("solver", [run, fd_oracle], ids=["run", "fd_oracle"])


@SOLVERS
@pytest.mark.parametrize("t_end, snapshots, text", [
    (math.inf, None, "t_end inf must be finite"),
    (0.1, [math.inf], "snapshot inf must be finite"),
    (0.1, [0.0, math.nan], "snapshot nan must be finite"),
    (0.1, [-math.inf], "snapshot -inf must be finite"),
], ids=["inf-t_end", "inf-snapshot", "nan-snapshot", "minus-inf-snapshot"])
def test_non_finite_times_raise_value_error(solver, t_end, snapshots, text):
    with pytest.raises(ValueError, match=f"^{text}$"):
        solver(unmarched_fisher(), Grid.uniform(-2.0, 2.0, 9), StepConfig(tau=0.01), t_end,
               snapshots)


@SOLVERS
def test_a_level_count_past_the_bound_is_refused_before_the_march(solver):
    # 0.1 / 1e-300 levels would march for ever; no level may be built
    with pytest.raises(ValueError, match=r"1e\+299 time levels, more than the 1e\+09"):
        solver(unmarched_fisher(), Grid.uniform(-2.0, 2.0, 9), StepConfig(tau=1e-300), 0.1)


def test_observed_order_helper():
    assert observed_order(4.0, 1.0, 0.2, 0.1) == pytest.approx(2.0)
    assert observed_order(4.0, 1.0, 0.1, 0.1) is None
    assert observed_order(0.0, 1.0, 0.2, 0.1) is None


class TestConvergenceStudy:
    def test_requires_exact_solution(self):
        problem = PdeProblem(
            coeffs=CoefficientSet.constant(0.0, 1.0, 0.0),
            reaction=ReactionTerm(0.0, lambda u: 0.0 * u, lambda u: 0.0 * u),
            a=0.0,
            b=1.0,
            horizon=1.0,
            initial=lambda x: 0.0 * x,
            bc_left=lambda t: 0.0,
            bc_right=lambda t: 0.0,
        )
        with pytest.raises(ValueError):
            sweep([(problem, 0.25, 0.1)], 1.0)

    def test_zero_steps_give_zero_error_rows(self):
        problem = make_generalized_fn(1.0)
        rows = sweep([(problem, 0.25, 1e-3), (problem, 0.125, 1e-3)], 0.0)
        assert all(row.l_inf == 0.0 and row.rms == 0.0 for row in rows)

    def test_zero_steps_track_the_peak_at_level_zero(self):
        # the initial data are the exact solution at t = 0, so level 0's error is 0
        problem = make_generalized_fn(1.0)
        rows = sweep([(problem, 0.25, 1e-3), (problem, 0.125, 1e-3)], 0.0, track_peak=True)
        assert all(row.failure is None and row.peak == row.l_inf == 0.0 for row in rows)

    def test_peak_covers_every_level(self):
        problem = make_generalized_fn(1.0)
        (row,) = sweep([(problem, 0.25, 0.01)], 0.1, track_peak=True)
        grid = Grid.with_spacing(problem.a, problem.b, 0.25)
        times = [k * 0.01 for k in range(11)]
        traj = run(problem, grid, StepConfig(tau=0.01), 0.1, snapshots=times)
        assert row.peak == max(compute_errors(s.u, problem.exact(grid.nodes, s.t)).l_inf
                               for s in traj.states)

    @pytest.mark.parametrize("name", ["fig5", "past-one-block"])
    def test_peak_is_the_largest_per_state_report_bit_for_bit(self, name):
        # every fig5 row, and a row of PEAK_BLOCK + 1 states, whose last block
        # holds one state: the array pass gives compute_errors' bits
        if name == "fig5":
            bench = fig5_benchmark()
            rows, t_end = [(r.problem, r.h, r.tau) for r in bench.rows], bench.t_end
        else:
            rows, t_end = [(make_generalized_fn(1.0), 0.25, 1e-3)], PEAK_BLOCK * 1e-3
        for (problem, h, tau), row in zip(rows, sweep(rows, t_end, track_peak=True)):
            grid = Grid.with_spacing(problem.a, problem.b, h)
            times = [k * tau for k in range(level_index(t_end, tau) + 1)]
            states = run(problem, grid, StepConfig(tau=tau), t_end, snapshots=times).states
            assert len(states) > PEAK_BLOCK and len(states) % PEAK_BLOCK != 0
            reports = [compute_errors(s.u, problem.exact(grid.nodes, s.t), time=s.t)
                       for s in states]
            assert row.peak.hex() == max(r.l_inf for r in reports).hex()
            assert (row.l_inf.hex(), row.rms.hex()) == (reports[-1].l_inf.hex(),
                                                        reports[-1].rms.hex())

    def test_spatial_refinement_against_reference(self):
        # published errors: 1.0914e-3 at h = 1/4 and 3.4491e-4 at h = 1/8
        problem = make_generalized_fn(1.0)
        rows = sweep([(problem, 0.25, 1e-3), (problem, 0.125, 1e-3)], 1.0)
        assert rows[0].l_inf == pytest.approx(1.0914e-3, rel=0.25)
        assert rows[1].l_inf == pytest.approx(3.4491e-4, rel=0.25)
        assert rows[0].order is None
        assert rows[1].order == pytest.approx(
            math.log2(rows[0].l_inf / rows[1].l_inf), rel=1e-12
        )

    def test_temporal_refinement_shows_first_order(self):
        problem = make_generalized_fn(1.0)
        rows = sweep([(problem, 1.0 / 16.0, 0.02), (problem, 1.0 / 16.0, 0.01)], 1.0)
        assert rows[0].tau == 0.02
        order = rows[1].order
        assert order is not None and 0.5 < order < 1.5

    def test_rows_are_tau_major(self):
        problem = make_generalized_fn(1.0)
        rows = sweep([(problem, 0.25, 0.05), (problem, 0.125, 0.05),
                      (problem, 0.25, 0.025), (problem, 0.125, 0.025)], 0.1)
        assert all(row.failure is None for row in rows)
        taus = [row.tau for row in rows]
        assert taus == [0.05, 0.05, 0.025, 0.025]
        # order is None across the tau-group boundary (both parameters change)
        assert rows[2].order is None
