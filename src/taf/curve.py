"""The genus-2 curve family y^2 = x(x^4 - 2*alpha*x^2 + beta) and its charts.

The affine chart at infinity is v^2 = u(1 - 2*alpha*u^2 + beta*u^4) via
x = 1/u, y = v/u^3; the origin of that chart is the branch point at
infinity.  Near it the curve is a graph u = u(v), the distinguished
differential du/2v expands as dv/(1 - 6*alpha*u^2 + 5*beta*u^4), and
integrating gives the curve logarithm.  A second local parameter t with
u = t^2, v = t*sqrt(1 - 2*alpha*t^4 + beta*t^8) produces the Legendre form
of the same logarithm (see `legendre.log_phiL`).

The curve-automorphism identities and the quintic derivative identity are
checked exactly in the in-house ring: the equation is a map from exponent
pairs (x, y) to coefficients in Q[alpha, beta].
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod

from .exact import ALPHA, BETA, GaussianRational, I, InputError, ONE, ZERO
from .series import TruncSeries, compose, integrate, revert, series_div, sqrt_unit

# Smoothness of the quintic model requires beta*(alpha^2 - beta) != 0.


def smoothness_violation(a0: Fraction, b0: Fraction) -> str | None:
    """Name of the vanishing smoothness factor, or None if smooth."""
    if b0 == 0:
        return "beta"
    if a0 * a0 - b0 == 0:
        return "alpha^2 - beta"
    return None


# ---------------------------------------------------------------------------
# Chart solve and logarithms
# ---------------------------------------------------------------------------


def _quintic_value(u: TruncSeries) -> TruncSeries:
    """u - 2*alpha*u^3 + beta*u^5 evaluated on a series."""
    u2 = u * u
    u3 = u2 * u
    u5 = u3 * u2
    return u + u3.scale(ALPHA.scale(-2)) + u5.scale(BETA)


def _quintic_derivative(u: TruncSeries) -> TruncSeries:
    """1 - 6*alpha*u^2 + 5*beta*u^4 evaluated on a series."""
    n = u.order
    u2 = u * u
    u4 = u2 * u2
    return TruncSeries.one(n) + u2.scale(ALPHA.scale(-6)) + u4.scale(BETA.scale(5))


def quintic_derivative_precheck() -> bool:
    """1 - 6*alpha*u^2 + 5*beta*u^4 = d/du [u - 2*alpha*u^3 + beta*u^5]."""
    u = TruncSeries.identity(6)
    return _quintic_value(u).differentiate() == _quintic_derivative(u).truncate(5)


def solve_u_of_v(N: int) -> TruncSeries:
    """The unique series u(v) with u - 2*alpha*u^3 + beta*u^5 = v^2 through
    order N; only exponents = 2 (mod 4) occur.

    Newton iteration on the quintic, seeded at u = v^2.
    """
    if N < 2:
        raise InputError("order must be >= 2")
    v_squared = TruncSeries.monomial(ONE, 2, N)
    u = v_squared
    while True:
        residual = _quintic_value(u) - v_squared
        if residual.is_zero():
            break
        u = u - series_div(residual, _quintic_derivative(u))
    return u


def log_phi(N: int) -> TruncSeries:
    """The curve logarithm: integral of dv/(1 - 6*alpha*u(v)^2 + 5*beta*u(v)^4)
    through order N; odd-4 with linear coefficient 1."""
    if N < 1:
        raise InputError("order must be >= 1")
    if N < 2:
        return TruncSeries.identity(N)
    u = solve_u_of_v(N - 1)
    integrand = series_div(TruncSeries.one(N - 1), _quintic_derivative(u))
    return integrate(integrand)


def v_of_t(N: int) -> TruncSeries:
    """v(t) = t * (1 - 2*alpha*t^4 + beta*t^8)^(1/2) through order N; all
    coefficient denominators are powers of 2."""
    if N < 1:
        raise InputError("order must be >= 1")
    base = TruncSeries(
        {
            0: ONE,
            4: ALPHA.scale(-2),
            8: BETA,
        }.get(k, ZERO)
        for k in range(N)
    )
    root = sqrt_unit(TruncSeries(base.coeffs, N - 1))
    return TruncSeries([ZERO] + root.coeffs, N)


def t_of_v(N: int) -> TruncSeries:
    """Compositional inverse of v(t): t(v) = v + alpha*v^5 + O(v^9)."""
    return revert(v_of_t(N))


def on_curve_check(N: int) -> bool:
    """The parametrization (u, v) = (t^2, v(t)) satisfies the chart equation
    v^2 = u(1 - 2*alpha*u^2 + beta*u^4) exactly through order 2N."""
    order = 2 * N
    v = v_of_t(order)
    u = TruncSeries.monomial(ONE, 2, order)
    lhs = v * v
    rhs = _quintic_value(u)
    return (lhs - rhs).truncate(order).is_zero()


def solve_residual_check(N: int) -> bool:
    """Defining property of u(v): substituting back into the chart equation
    vanishes identically through order N."""
    u = solve_u_of_v(N)
    v_squared = TruncSeries.monomial(ONE, 2, N)
    return (_quintic_value(u) - v_squared).is_zero()


def log_phi_consistency(N: int) -> bool:
    """log_phi = log_phiL o t(v) exactly through order N (the isomorphism of
    the two parametrizations)."""
    from .legendre import log_phiL

    return log_phi(N) == compose(log_phiL(N), t_of_v(N))


# ---------------------------------------------------------------------------
# Normal form
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NormalForm:
    """Rescaled model of a smooth member of the family."""

    kind: str  # "bolza" or "generic"
    j: Fraction | None
    equation: str


def curve_normal_form(a0: Fraction | int, b0: Fraction | int) -> NormalForm:
    """Normal form of the member at rational (alpha, beta) = (a0, b0):
    the Bolza curve Y^2 = X^5 + X at a0 = 0, otherwise
    Y^2 = X^5 + X^3 + j*X with j = b0/(4*a0^2), j not in {0, 1/4}."""
    a0, b0 = Fraction(a0), Fraction(b0)
    bad = smoothness_violation(a0, b0)
    if bad is not None:
        raise InputError(f"singular member: {bad} = 0")
    if a0 == 0:
        return NormalForm("bolza", None, "Y^2 = X^5 + X")
    j = b0 / (4 * a0 * a0)
    # Smoothness rules out the degenerate j values.
    assert j != 0 and j != Fraction(1, 4)
    return NormalForm("generic", j, f"Y^2 = X^5 + X^3 + ({j})*X")


# ---------------------------------------------------------------------------
# Automorphism checks
# ---------------------------------------------------------------------------

# y^2 - x*(x^4 - 2*alpha*x^2 + beta) as {(x exponent, y exponent): coefficient}.
_EQUATION = {(0, 2): ONE, (5, 0): -ONE, (3, 0): ALPHA.scale(2), (1, 0): -BETA}


def order4_check(unit=I) -> bool:
    """(x, y) -> (-x, unit*y) maps the curve equation to -1 times itself
    (same vanishing locus) exactly when unit = +-i: it multiplies the term
    c*x^a*y^b by (-1)^a*unit^b, which must be -1 for every term."""
    unit = GaussianRational.coerce(unit)
    return all(prod([unit] * b, start=(-1) ** a) == -1 for a, b in _EQUATION)


def order4_square_is_involution() -> bool:
    """Applying the order-4 map twice gives the hyperelliptic involution:
    the coordinate multipliers (-1, i) square to (1, -1)."""
    mx, my = GaussianRational(-1), I
    return mx * mx == 1 and my * my == -1


def inversion_check() -> bool:
    """(x, y) -> (g^2/x, -g^3*y/x^3) preserves the equation modulo g^4 = beta.

    Times x^6/g^2, the image of c*x^a*y^b is
    (-1)^b*c*g^(2a+3b-2)*x^(6-a-3b)*y^b; every g-power must be a power of
    g^4 = beta, and the image must be g^4 = beta times the equation."""
    image = {}
    for (a, b), c in _EQUATION.items():
        g_exp = 2 * a + 3 * b - 2
        if g_exp < 0 or g_exp % 4:
            return False
        key = (6 - a - 3 * b, b)
        image[key] = image.get(key, ZERO) + (c * BETA ** (g_exp // 4)).scale((-1) ** b)
    image = {k: c for k, c in image.items() if not c.is_zero()}
    return image == {k: c * BETA for k, c in _EQUATION.items()}


def automorphism_checks() -> bool:
    """All curve-automorphism identities and the quintic derivative identity."""
    return (
        order4_check()
        and order4_square_is_involution()
        and inversion_check()
        and quintic_derivative_precheck()
    )
