"""The genus-2 curve family y^2 = x(x^4 - 2*alpha*x^2 + beta) and its charts.

The affine chart at infinity is v^2 = u(1 - 2*alpha*u^2 + beta*u^4) via
x = 1/u, y = v/u^3; the origin of that chart is the branch point at
infinity.  Near it the curve is a graph u = u(v), the reversion of the
quintic at v^2, and the curve logarithm, the integral of the distinguished
differential du/2v, is read off u(v) coefficient by coefficient.  A second
local parameter t with u = t^2, v = t*sqrt(1 - 2*alpha*t^4 + beta*t^8)
produces the Legendre form of the same logarithm (see `legendre.log_phiL`).

The automorphisms (the order-4 map behind the Z[i]-action, and the inversion)
are checked exactly on the equation as a map {(x, y) exponents: coefficient in
Q[alpha, beta]}; they run as the non-gating criterion `curve-automorphisms`.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod

from .exact import ALPHA, BETA, GaussianRational, I, InputError, ONE, ZERO
from .series import TruncSeries, compose, revert, sqrt_unit

# ---------------------------------------------------------------------------
# Chart solve and logarithms
# ---------------------------------------------------------------------------


def solve_u_of_v(N: int) -> TruncSeries:
    """The unique series u(v) with u - 2*alpha*u^3 + beta*u^5 = v^2 through
    order N; only exponents = 2 (mod 4) occur.

    u(v) = w^-1(v^2) for the quintic w(u): the reversion of w through order
    N // 2, with every exponent doubled.
    """
    if N < 2:
        raise InputError("order must be >= 2")
    quintic = {(1,): ONE, (3,): ALPHA.scale(-2), (5,): BETA}
    r = revert(TruncSeries.from_terms(quintic, N // 2))
    return TruncSeries.from_terms({(2 * k,): c for (k,), c in r.terms.items()}, N)


def log_phi(N: int) -> TruncSeries:
    """The curve logarithm, the integral of du/2v, through order N; odd-4
    with linear coefficient 1.

    Differentiating w(u(v)) = v^2 gives du/2v = u'(v)/(2v) dv, so it is read
    off u = solve_u_of_v(N + 1): the coefficient of v^(m-1) is
    m/(2(m-1)) * u_m.
    """
    if N < 1:
        raise InputError("order must be >= 1")
    u = solve_u_of_v(N + 1)
    terms = {(m - 1,): c.scale(Fraction(m, 2 * (m - 1))) for (m,), c in u.terms.items()}
    return TruncSeries.from_terms(terms, N)


def v_of_t(N: int) -> TruncSeries:
    """v(t) = t * (1 - 2*alpha*t^4 + beta*t^8)^(1/2) through order N; all
    coefficient denominators are powers of 2."""
    if N < 1:
        raise InputError("order must be >= 1")
    base = {(0,): ONE, (4,): ALPHA.scale(-2), (8,): BETA}
    root = sqrt_unit(TruncSeries.from_terms(base, N - 1))
    return TruncSeries.from_terms({(k + 1,): c for (k,), c in root.terms.items()}, N)


def t_of_v(N: int) -> TruncSeries:
    """Compositional inverse of v(t): t(v) = v + alpha*v^5 + O(v^9)."""
    return revert(v_of_t(N))


def log_phi_consistency(N: int) -> bool:
    """log_phi = log_phiL o t(v) exactly through order N (the isomorphism of
    the two parametrizations)."""
    from .legendre import log_phiL

    return log_phi(N) == compose(log_phiL(N), t_of_v(N))


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
