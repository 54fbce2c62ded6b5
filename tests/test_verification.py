import math

import numpy as np
import pytest

from drbem1d.exceptions import ConvergenceError
from drbem1d.problems import (
    CoefficientSet,
    PdeProblem,
    ReactionTerm,
    make_generalized_fisher,
    make_generalized_fn,
)
from drbem1d.rbf import Grid
from drbem1d.stepping import StepConfig, run
from drbem1d.verification import (
    compute_errors,
    convergence_study,
    fd_oracle,
    observed_order,
)


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
        u = fd_oracle(problem, 17, 0.01, 1.0)
        x = np.linspace(0.0, 1.0, 17)
        assert np.max(np.abs(u - (2.0 * x - 3.0))) < 1e-8

    def test_fisher_front_converges_under_refinement(self):
        # at these resolutions the backward-Euler error dominates, so refinement
        # must shrink h and tau together to show convergence
        problem = make_generalized_fisher(1.0)
        errors = []
        for n, tau in ((65, 1e-3), (129, 5e-4)):
            u = fd_oracle(problem, n, tau, 1.0)
            x = np.linspace(problem.a, problem.b, n)
            errors.append(compute_errors(u, problem.exact(x, 1.0)).l_inf)
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
        u_fd = fd_oracle(problem, grid.n, 1e-3, 1.0)
        err_main = compute_errors(traj.states[-1].u, exact).l_inf
        err_fd = compute_errors(u_fd, exact).l_inf
        assert err_main < 5e-3 and err_fd < 5e-3
        mutual = np.max(np.abs(traj.states[-1].u[1:-1] - u_fd[1:-1]))
        assert mutual <= err_main + err_fd + 1e-12
        assert 1.0 / 30.0 < err_main / err_fd < 30.0

    def test_cap_of_one_cannot_converge(self):
        problem = make_generalized_fisher(1.0)
        with pytest.raises(ConvergenceError):
            fd_oracle(problem, 17, 0.1, 0.1, max_iters=1)


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
            convergence_study(problem, [0.25], [0.1], 1.0)

    def test_zero_steps_give_zero_error_rows(self):
        problem = make_generalized_fn(1.0)
        rows = convergence_study(problem, [0.25, 0.125], [1e-3], 0.0)
        assert all(row.l_inf == 0.0 and row.rms == 0.0 for row in rows)

    def test_spatial_refinement_against_reference(self):
        # published errors: 1.0914e-3 at h = 1/4 and 3.4491e-4 at h = 1/8
        problem = make_generalized_fn(1.0)
        rows = convergence_study(problem, [0.25, 0.125], [1e-3], 1.0)
        assert rows[0].l_inf == pytest.approx(1.0914e-3, rel=0.25)
        assert rows[1].l_inf == pytest.approx(3.4491e-4, rel=0.25)
        assert rows[0].order is None
        assert rows[1].order == pytest.approx(
            math.log2(rows[0].l_inf / rows[1].l_inf), rel=1e-12
        )

    def test_temporal_refinement_shows_first_order(self):
        problem = make_generalized_fn(1.0)
        rows = convergence_study(problem, [1.0 / 16.0], [0.02, 0.01], 1.0)
        assert rows[0].tau == 0.02
        order = rows[1].order
        assert order is not None and 0.5 < order < 1.5

    def test_rows_are_tau_major(self):
        problem = make_generalized_fn(1.0)
        rows = convergence_study(problem, [0.25, 0.125], [0.05, 0.025], 0.1)
        taus = [row.tau for row in rows]
        assert taus == [0.05, 0.05, 0.025, 0.025]
        # order is None across the tau-group boundary (both parameters change)
        assert rows[2].order is None
