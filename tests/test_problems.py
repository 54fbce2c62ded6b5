import math

import numpy as np
import pytest

from drbem1d.problems import (
    CoefficientSet,
    PdeProblem,
    ReactionTerm,
    make_allen_cahn,
    make_fisher,
    make_fitzhugh_nagumo,
    make_generalized_fisher,
    make_generalized_fn,
    make_newell_whitehead,
    residual_check,
    transcribed_fisher_wave,
)
from helpers import split_defect

INTEGER_ALPHA_CATALOG = [
    ("fitzhugh_nagumo_0.75", lambda: make_fitzhugh_nagumo(0.75, horizon=1.0)),
    ("fitzhugh_nagumo_-1", lambda: make_fitzhugh_nagumo(-1.0, horizon=1.0)),
    ("newell_whitehead", lambda: make_newell_whitehead(horizon=1.0)),
    ("generalized_fn_1", lambda: make_generalized_fn(1.0)),
    ("generalized_fn_1.5", lambda: make_generalized_fn(1.5)),
    ("fisher", make_fisher),
    ("allen_cahn", make_allen_cahn),
    ("generalized_fisher_3", lambda: make_generalized_fisher(3.0)),
]


def test_fitzhugh_nagumo_wave_midpoint():
    problem = make_fitzhugh_nagumo(0.75)
    assert problem.exact(0.0, 0.0) == pytest.approx(0.5, abs=1e-15)


def test_fitzhugh_nagumo_equilibria_at_rho_minus_one():
    reaction = make_fitzhugh_nagumo(-1.0).reaction
    assert reaction.full(0.0) == 0.0
    assert reaction.full(1.0) == 0.0


def test_fitzhugh_nagumo_coefficients():
    problem = make_fitzhugh_nagumo(0.75)
    assert problem.coeffs.nu(0.3) == 0.0
    assert problem.coeffs.mu(0.3) == 1.0
    assert problem.coeffs.eta(0.3) == 1.0
    assert problem.reaction.linear_slope == -0.75


def test_generalized_fn_wave_values():
    problem = make_generalized_fn(1.0)
    assert problem.exact(0.0, 0.0) == pytest.approx(0.5, abs=1e-15)
    # tanh saturates: the far field approaches rho
    far = make_generalized_fn(1.5, a=-200.0, b=200.0).exact(200.0, 0.0)
    assert far == pytest.approx(1.5, abs=1e-12)


def test_generalized_fn_time_dependent_coefficients():
    problem = make_generalized_fn(1.0)
    t = 0.4
    assert problem.coeffs.nu(t) == pytest.approx(math.cos(t), rel=1e-15)
    assert problem.coeffs.mu(t) == pytest.approx(math.cos(t), rel=1e-15)
    assert problem.coeffs.eta(t) == pytest.approx(2.0 * math.cos(t), rel=1e-15)


def test_generalized_fn_rejects_horizon_past_diffusion_zero():
    with pytest.raises(ValueError):
        make_generalized_fn(1.0, horizon=math.pi / 2.0)
    with pytest.raises(ValueError):
        make_generalized_fn(1.0, horizon=2.0)


def test_generalized_fisher_reaction():
    assert make_generalized_fisher(1.0).reaction.full(1.0) == 0.0
    reaction = make_generalized_fisher(2.0).reaction
    u = np.linspace(-2.0, 2.0, 17)
    np.testing.assert_allclose(reaction.nonlinear(u), -u**3, atol=1e-14)


def test_generalized_fisher_rejects_bad_alpha():
    with pytest.raises(ValueError):
        make_generalized_fisher(0.0)
    with pytest.raises(ValueError):
        make_generalized_fisher(-1.0)
    with pytest.raises(ValueError):
        make_generalized_fisher(math.nan)


def test_non_integer_alpha_negative_base_is_domain_error():
    reaction = make_generalized_fisher(1.5).reaction
    assert reaction.full(0.25) == pytest.approx(0.25 * (1.0 - 0.25**1.5), rel=1e-14)
    with pytest.raises(ValueError):
        reaction.full(-0.1)


@pytest.mark.parametrize("name,factory", INTEGER_ALPHA_CATALOG[:6] + [INTEGER_ALPHA_CATALOG[7]])
def test_reaction_split_consistency(name, factory):
    reaction = factory().reaction
    u = np.linspace(-2.0, 2.0, 81)
    assert np.max(np.abs(split_defect(reaction, u))) <= 1e-12


@pytest.mark.parametrize("rho", [-1.0, 0.25, 0.75, 1.0])
def test_bistable_remainder_is_the_cubic(rho):
    # u u ((1 + rho) - u) is (1 + rho) u^2 - u^3 up to rounding
    reaction = make_fitzhugh_nagumo(rho, horizon=1.0).reaction
    u = np.linspace(-0.5, 1.5, 201)
    cubic = (1.0 + rho) * u * u - u**3
    bound = 4.0 * np.finfo(float).eps * np.maximum(1.0, np.abs(u)) ** 3
    assert np.all(np.abs(reaction.nonlinear(u) - cubic) <= bound)
    assert np.max(np.abs(split_defect(reaction, u))) <= 1e-12


def test_reaction_nonlinear_vanishes_at_zero_with_zero_slope():
    delta = 1e-6
    for _, factory in INTEGER_ALPHA_CATALOG[:6]:
        fn = factory().reaction.nonlinear
        assert fn(0.0) == 0.0
        assert abs(fn(delta) - fn(-delta)) / (2.0 * delta) <= 1e-6
    # non-integer alpha: one-sided slope, still vanishing
    fn = make_generalized_fisher(1.5).reaction.nonlinear
    assert fn(0.0) == 0.0
    assert abs(fn(1e-8) / 1e-8) <= 1e-3


@pytest.mark.parametrize("name,factory", INTEGER_ALPHA_CATALOG)
def test_initial_boundary_compatibility(name, factory):
    problem = factory()
    assert abs(problem.initial(problem.a) - problem.bc_left(0.0)) <= 1e-10
    assert abs(problem.initial(problem.b) - problem.bc_right(0.0)) <= 1e-10


def test_incompatible_problem_rejected():
    with pytest.raises(ValueError):
        PdeProblem(
            coeffs=CoefficientSet.constant(0.0, 1.0, 1.0),
            reaction=ReactionTerm(0.0, lambda u: 0.0 * u, lambda u: 0.0 * u),
            a=0.0,
            b=1.0,
            horizon=1.0,
            initial=lambda x: 0.0 * x,
            bc_left=lambda t: 1.0,
            bc_right=lambda t: 0.0,
        )
    with pytest.raises(ValueError):
        make_fitzhugh_nagumo(0.5, a=1.0, b=-1.0)


def test_compatibility_check_warns_nothing_when_endpoint_values_overflow():
    # no np.errstate here, and the suite turns RuntimeWarning into an error: the
    # check judges overflowed endpoint values by their gap, as a library caller
    # would get them, and emits no warning
    assert make_generalized_fn(1e300, b=1e300).b == 1e300  # both sides overflow alike
    with pytest.raises(ValueError, match="gaps 0.000e[+]00, inf"):
        PdeProblem(
            coeffs=CoefficientSet.constant(0.0, 1.0, 1.0),
            reaction=ReactionTerm(0.0, lambda u: 0.0 * u, lambda u: 0.0 * u),
            a=0.0,
            b=1.0,
            horizon=1.0,
            initial=lambda x: np.float64(1e308) * (10.0 * x),
            bc_left=lambda t: 0.0,
            bc_right=lambda t: 1.0,
        )


def test_initial_data_nan_at_an_endpoint_rejected():
    # a nan gap compares False with any tolerance, so only a check that the gap
    # is within it rejects the problem
    with pytest.raises(ValueError, match="gaps nan, nan"):
        PdeProblem(
            coeffs=CoefficientSet.constant(0.0, 1.0, 1.0),
            reaction=ReactionTerm(0.0, lambda u: 0.0 * u, lambda u: 0.0 * u),
            a=0.0,
            b=1.0,
            horizon=1.0,
            initial=lambda x: np.nan * x,
            bc_left=lambda t: 0.0,
            bc_right=lambda t: 5.0,
        )


@pytest.mark.parametrize("horizon", [0.0, -1.0, math.nan])
def test_nonpositive_horizon_rejected(horizon):
    with pytest.raises(ValueError, match="horizon must be positive"):
        make_fisher(horizon=horizon)

class TestResidualCheck:
    def test_constant_equilibria_are_exact(self):
        fisher = make_fisher()
        zero = lambda x, t: 0.0 * x
        one = lambda x, t: 0.0 * x + 1.0
        assert residual_check(fisher, zero, 0.1, 0.5, 1e-3) == 0.0
        assert residual_check(fisher, one, 0.1, 0.5, 1e-3) == 0.0

    def test_frozen_values_and_refinement_factor(self):
        # oracle-frozen values for the rho = 3/4 kink at (x, t) = (0.3, 0.5)
        problem = make_fitzhugh_nagumo(0.75, horizon=1.0)
        coarse = residual_check(problem, problem.exact, 0.3, 0.5, 1e-2)
        fine = residual_check(problem, problem.exact, 0.3, 0.5, 5e-3)
        assert coarse == pytest.approx(3.230483167776521e-08, rel=1e-6)
        assert fine == pytest.approx(8.08638405541684e-09, rel=1e-6)
        assert abs(coarse / fine) >= 3.9

    def test_generalized_fn_wave_satisfies_its_pde(self):
        problem = make_generalized_fn(1.0)
        coarse = abs(residual_check(problem, problem.exact, 0.3, 0.5, 1e-2))
        fine = abs(residual_check(problem, problem.exact, 0.3, 0.5, 5e-3))
        assert coarse / fine >= 3.5
        assert fine < 1e-5

    def test_opposite_reaction_sign_leaves_order_one_residual(self):
        # flipping the reaction sign must break the wave: this pins the catalog's
        # sign convention to the residual-validated one
        problem = make_generalized_fn(1.0)
        flipped = PdeProblem(
            coeffs=problem.coeffs,
            reaction=ReactionTerm(
                linear_slope=-problem.reaction.linear_slope,
                nonlinear=lambda u: -problem.reaction.nonlinear(u),
                full=lambda u: -problem.reaction.full(u),
            ),
            a=problem.a,
            b=problem.b,
            horizon=problem.horizon,
            initial=problem.initial,
            bc_left=problem.bc_left,
            bc_right=problem.bc_right,
            exact=problem.exact,
        )
        assert abs(residual_check(flipped, problem.exact, 0.3, 0.5, 1e-3)) > 0.1

    def test_stencil_domain_guards(self):
        problem = make_fisher()
        with pytest.raises(ValueError):
            residual_check(problem, problem.exact, -2.0, 0.5, 1e-2)
        with pytest.raises(ValueError):
            residual_check(problem, problem.exact, 0.0, 1e-4, 1e-2)
        with pytest.raises(ValueError):
            residual_check(problem, problem.exact, 0.0, 0.5, -1e-3)


@pytest.mark.parametrize("name,factory", INTEGER_ALPHA_CATALOG)
def test_catalog_residuals_small_everywhere(name, factory):
    problem = factory()
    rng = np.random.default_rng(abs(hash(name)) % 2**32)
    step = 1e-3
    for _ in range(20):
        x = rng.uniform(problem.a + 2.5 * step, problem.b - 2.5 * step)
        t = rng.uniform(0.05 * problem.horizon, 0.95 * problem.horizon)
        assert abs(residual_check(problem, problem.exact, x, t, step)) < 1e-4


def test_transcribed_fisher_wave_fails_residual():
    # the commonly transcribed front (sqrt(alpha + 4), offset inside the tanh)
    # leaves an O(1e-2) residual that refinement does not shrink
    fisher = make_fisher()
    candidate = transcribed_fisher_wave(1.0)
    coarse = abs(residual_check(fisher, candidate, 0.3, 0.5, 1e-2))
    fine = abs(residual_check(fisher, candidate, 0.3, 0.5, 5e-3))
    assert fine > 1e-3
    assert coarse / fine < 2.0
