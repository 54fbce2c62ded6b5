"""Problem catalog for u_t + nu(t) u_x - mu(t) u_xx - eta(t) F(u) = 0 on [a, b] x [0, T].

Each named constructor carries a traveling-wave solution used as ground truth; the
reaction sign conventions below are the ones those waves actually satisfy, which
residual_check verifies to stencil order.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .exceptions import DomainError

COMPATIBILITY_TOL = 1e-10


@dataclass(frozen=True)
class CoefficientSet:
    """Time-dependent advection (nu), diffusion (mu) and reaction (eta) factors."""

    nu: Callable[[float], float]
    mu: Callable[[float], float]
    eta: Callable[[float], float]

    @classmethod
    def constant(cls, nu, mu, eta):
        return cls(
            nu=lambda t, v=float(nu): v,
            mu=lambda t, v=float(mu): v,
            eta=lambda t, v=float(eta): v,
        )


@dataclass(frozen=True)
class ReactionTerm:
    """Reaction F(u) split into linear_slope * u plus a nonlinear remainder.

    The remainder must vanish (with zero slope) at u = 0 so the linear part is
    entirely in linear_slope; the stepper treats the linear part implicitly and
    lags only the remainder.
    """

    linear_slope: float
    nonlinear: Callable
    full: Callable

    def split_defect(self, u):
        """full(u) - linear_slope*u - nonlinear(u); zero when the split is consistent."""
        return self.full(u) - self.linear_slope * u - self.nonlinear(u)


@dataclass(frozen=True)
class PdeProblem:
    """Dirichlet initial-boundary value problem on [a, b] x [0, horizon]."""

    coeffs: CoefficientSet
    reaction: ReactionTerm
    a: float
    b: float
    horizon: float
    initial: Callable
    bc_left: Callable
    bc_right: Callable
    exact: Optional[Callable] = None

    def __post_init__(self):
        if not self.a < self.b:
            raise ValueError(f"need a < b, got [{self.a}, {self.b}]")
        if not self.horizon > 0.0:
            raise ValueError("horizon must be positive")
        left_gap = abs(float(self.initial(self.a)) - float(self.bc_left(0.0)))
        right_gap = abs(float(self.initial(self.b)) - float(self.bc_right(0.0)))
        if left_gap > COMPATIBILITY_TOL or right_gap > COMPATIBILITY_TOL:
            raise ValueError(
                "initial data and boundary values disagree at t = 0 "
                f"(gaps {left_gap:.3e}, {right_gap:.3e})"
            )


def _power(u, p):
    """u**p, restricted to u >= 0 when p is not an integer."""
    p = float(p)
    if p.is_integer():
        return u**p
    if np.any(np.asarray(u) < 0.0):
        raise DomainError(f"negative base with non-integer exponent {p}")
    return u**p


def _from_exact(coeffs, reaction, a, b, horizon, exact):
    return PdeProblem(
        coeffs=coeffs,
        reaction=reaction,
        a=float(a),
        b=float(b),
        horizon=float(horizon),
        initial=lambda x: exact(x, 0.0),
        bc_left=lambda t: exact(float(a), t),
        bc_right=lambda t: exact(float(b), t),
        exact=exact,
    )


def _bistable(rho) -> ReactionTerm:
    """F(u) = -u(1 - u)(rho - u): slope -rho implicit, (1 + rho) u^2 - u^3 lagged."""
    return ReactionTerm(
        linear_slope=-rho,
        nonlinear=lambda u: (1.0 + rho) * u * u - u**3,
        full=lambda u: -u * (1.0 - u) * (rho - u),
    )


def make_fitzhugh_nagumo(rho, a=-10.0, b=10.0, horizon=100.0) -> PdeProblem:
    """Bistable kink problem u_t = u_xx - u(1 - u)(rho - u).

    The tanh kink below travels at (2 rho - 1)/sqrt(2).  rho = -1 turns the
    reaction into +u(1 - u^2), the real Newell-Whitehead form.
    """
    rho = float(rho)
    speed = (2.0 * rho - 1.0) / math.sqrt(2.0)
    width = 2.0 * math.sqrt(2.0)

    def exact(x, t):
        return 0.5 + 0.5 * np.tanh((x - speed * t) / width)

    reaction = _bistable(rho)
    return _from_exact(CoefficientSet.constant(0.0, 1.0, 1.0), reaction, a, b, horizon, exact)


def make_newell_whitehead(a=-10.0, b=10.0, horizon=100.0) -> PdeProblem:
    """u_t = u_xx + u(1 - u^2), i.e. the bistable problem at rho = -1."""
    return make_fitzhugh_nagumo(-1.0, a=a, b=b, horizon=horizon)


def make_generalized_fn(rho, a=-1.0, b=1.0, horizon=1.0) -> PdeProblem:
    """Kink problem with oscillating coefficients:
    u_t + cos(t) u_x - cos(t) u_xx + 2 cos(t) u(1 - u)(rho - u) = 0.

    The kink rho/2 + rho/2 tanh(rho/2 (x - (3 - rho) sin t)) satisfies this
    equation identically (with the reaction sign as written; the opposite sign
    leaves an O(1) residual).  The diffusion factor cos(t) vanishes at pi/2, so
    the horizon must stay below that.
    """
    rho = float(rho)
    if not 0.0 < float(horizon) < math.pi / 2.0:
        raise ValueError(
            "horizon must lie in (0, pi/2): the diffusion factor cos(t) vanishes at pi/2"
        )

    def exact(x, t):
        return rho / 2.0 + rho / 2.0 * np.tanh(rho / 2.0 * (x - (3.0 - rho) * np.sin(t)))

    reaction = _bistable(rho)
    coeffs = CoefficientSet(
        nu=lambda t: math.cos(t),
        mu=lambda t: math.cos(t),
        eta=lambda t: 2.0 * math.cos(t),
    )
    return _from_exact(coeffs, reaction, a, b, horizon, exact)


def make_generalized_fisher(alpha, a=-2.0, b=2.0, horizon=1.0) -> PdeProblem:
    """Monostable front problem u_t = u_xx + u(1 - u^alpha) on [-2, 2] x [0, 1].

    alpha = 1 is the classic logistic case and alpha = 2 the cubic (Allen-Cahn)
    case.  The front below uses the wave number alpha/(2 sqrt(2 alpha + 4)) and
    speed (alpha + 4)/sqrt(2 alpha + 4); substituting the profile into the PDE
    pins both values, and residual_check confirms them to stencil order.
    """
    alpha = float(alpha)
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")
    root = math.sqrt(2.0 * alpha + 4.0)
    wavenumber = alpha / (2.0 * root)
    speed = (alpha + 4.0) / root

    def exact(x, t):
        return (0.5 + 0.5 * np.tanh(-wavenumber * (x - speed * t))) ** (2.0 / alpha)

    reaction = ReactionTerm(
        linear_slope=1.0,
        nonlinear=lambda u: -_power(u, alpha + 1.0),
        full=lambda u: u * (1.0 - _power(u, alpha)),
    )
    return _from_exact(CoefficientSet.constant(0.0, 1.0, 1.0), reaction, a, b, horizon, exact)


def make_fisher(a=-2.0, b=2.0, horizon=1.0) -> PdeProblem:
    """u_t = u_xx + u(1 - u)."""
    return make_generalized_fisher(1.0, a=a, b=b, horizon=horizon)


def make_allen_cahn(a=-2.0, b=2.0, horizon=1.0) -> PdeProblem:
    """u_t = u_xx + u(1 - u^2)."""
    return make_generalized_fisher(2.0, a=a, b=b, horizon=horizon)


# Named equations: factory and the one parameter it takes (None for none).  Each
# default domain is its factory's (a, b) keyword defaults; see default_domain.
REGISTRY = {
    "fisher": (make_fisher, None),
    "generalized_fisher": (make_generalized_fisher, "alpha"),
    "allen_cahn": (make_allen_cahn, None),
    "newell_whitehead": (make_newell_whitehead, None),
    "fitzhugh_nagumo": (make_fitzhugh_nagumo, "rho"),
    "generalized_fn": (make_generalized_fn, "rho"),
}


def default_domain(equation):
    """(a, b) keyword defaults of the named equation's factory."""
    params = inspect.signature(REGISTRY[equation][0]).parameters
    return params["a"].default, params["b"].default


def transcribed_fisher_wave(alpha):
    """Commonly transcribed front formula with sqrt(alpha + 4) and an in-argument
    offset of 1/2.  It does not satisfy u_t = u_xx + u(1 - u^alpha): the residual
    stalls at O(1e-2) under stencil refinement.  Kept so the self-test can
    demonstrate the rejection; the catalog uses the validated wave instead.
    """
    alpha = float(alpha)
    root = math.sqrt(alpha + 4.0)
    wavenumber = alpha / (2.0 * root)
    speed = (alpha + 4.0) / root

    def field(x, t):
        return (0.5 * np.tanh(-wavenumber * (x - speed * t) + 0.5) + 0.5) ** (2.0 / alpha)

    return field


def residual_check(problem: PdeProblem, field, x, t, step, x_step=None, t_step=None) -> float:
    """PDE residual of a space-time field at one point, by difference stencils.

    Uses five-point (fourth-order) stencils in x and a central (second-order)
    stencil in t, so the value of a true solution shrinks at those orders as the
    steps shrink.  x_step / t_step override the shared step for one direction,
    which lets the two orders be measured independently.
    """
    sx = float(step if x_step is None else x_step)
    st = float(step if t_step is None else t_step)
    if sx <= 0.0 or st <= 0.0:
        raise ValueError("stencil steps must be positive")
    if x - 2.0 * sx < problem.a or x + 2.0 * sx > problem.b:
        raise ValueError(f"x stencil around {x} leaves [{problem.a}, {problem.b}]")
    if t - 2.0 * st <= 0.0 or t + 2.0 * st >= problem.horizon:
        raise ValueError(f"t stencil around {t} leaves (0, {problem.horizon})")

    f = field
    u_x = (-f(x + 2 * sx, t) + 8 * f(x + sx, t) - 8 * f(x - sx, t) + f(x - 2 * sx, t)) / (12 * sx)
    u_xx = (
        -f(x + 2 * sx, t) + 16 * f(x + sx, t) - 30 * f(x, t)
        + 16 * f(x - sx, t) - f(x - 2 * sx, t)
    ) / (12 * sx * sx)
    u_t = (f(x, t + st) - f(x, t - st)) / (2 * st)

    c = problem.coeffs
    return float(
        u_t + c.nu(t) * u_x - c.mu(t) * u_xx - c.eta(t) * problem.reaction.full(f(x, t))
    )
