"""Formal group laws from logarithms over Q[alpha, beta].

A law is built as F(x, y) = exp(log(x) + log(y)) with exp the compositional
inverse of the logarithm; the unit, commutativity, and associativity axioms
are verified at construction and a failure aborts rather than returning a
bad law.  Associativity is checked on the full truncated triple composite
in a small trivariate layer.

`euler_law` expands the closed form

    (x*sqrt(1 - 2*alpha*y^4) + y*sqrt(1 - 2*alpha*x^4)) / (1 + 2*alpha*x^2*y^2)

directly; setting beta = 0 in the law of the Legendre-genus logarithm must
reproduce it exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exact import ALPHA, GradedPoly, InputError, ONE, ZERO
from .legendre import log_phiL
from .series import (
    BiTruncSeries,
    TruncSeries,
    bi_compose_outer,
    bi_compose_slots,
    bi_from_univariate,
    bi_inverse_unit,
    revert,
    sqrt_unit,
)
from .curve import log_phi, t_of_v


class ConsistencyError(RuntimeError):
    """A constructed law failed its own axioms; never returned to callers."""


# ---------------------------------------------------------------------------
# Trivariate helper for the associativity axiom
# ---------------------------------------------------------------------------


def _tri_mul(f, g, order):
    out = {}
    for k1, c1 in f.items():
        a1, b1, c1_ = k1
        for k2, c2 in g.items():
            a, b, c = a1 + k2[0], b1 + k2[1], c1_ + k2[2]
            if a + b + c > order:
                continue
            s = out.get((a, b, c), ZERO) + c1 * c2
            if s.is_zero():
                out.pop((a, b, c), None)
            else:
                out[(a, b, c)] = s
    return out


def _tri_substitute(law: BiTruncSeries, first: dict, second: dict, order: int) -> dict:
    """law(first, second) where first/second are trivariate term maps."""
    max_a = max((a for a, _ in law.terms), default=0)
    max_b = max((b for _, b in law.terms), default=0)
    one = {(0, 0, 0): ONE}
    pow1 = [one]
    for _ in range(max_a):
        pow1.append(_tri_mul(pow1[-1], first, order))
    pow2 = [one]
    for _ in range(max_b):
        pow2.append(_tri_mul(pow2[-1], second, order))
    out: dict = {}
    for (a, b), c in law.terms.items():
        prod = _tri_mul(pow1[a], pow2[b], order)
        for k, v in prod.items():
            s = out.get(k, ZERO) + c * v
            if s.is_zero():
                out.pop(k, None)
            else:
                out[k] = s
    return out


def _associativity_holds(law: BiTruncSeries) -> bool:
    n = law.order
    x = {(1, 0, 0): ONE}
    y = {(0, 1, 0): ONE}
    z = {(0, 0, 1): ONE}
    f_xy = _tri_substitute(law, x, y, n)
    f_yz = _tri_substitute(law, y, z, n)
    lhs = _tri_substitute(law, f_xy, z, n)
    rhs = _tri_substitute(law, x, f_yz, n)
    return lhs == rhs


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FormalGroupLaw:
    law: BiTruncSeries
    log: TruncSeries
    order: int


def _unit_axiom_holds(law: BiTruncSeries) -> bool:
    return (
        law.set_y() == TruncSeries.identity(law.order)
        and law.set_x() == TruncSeries.identity(law.order)
    )


def _log_additivity_holds(law: BiTruncSeries, log: TruncSeries) -> bool:
    n = law.order
    lhs = bi_compose_outer(log, law)
    rhs = bi_from_univariate(log, 0, n) + bi_from_univariate(log, 1, n)
    return lhs == rhs


def build_fgl(log: TruncSeries) -> FormalGroupLaw:
    """F(x, y) = exp(log(x) + log(y)) through total order N, with the FGL
    axioms verified at construction."""
    if not log.coeffs[0].is_zero() or log.coeffs[1] != ONE:
        raise InputError("logarithm must be normalized: x + higher-order terms")
    n = log.order
    exp = revert(log)
    lsum = bi_from_univariate(log, 0, n) + bi_from_univariate(log, 1, n)
    law = bi_compose_outer(exp, lsum)
    if not _unit_axiom_holds(law):
        raise ConsistencyError("unit axiom failed")
    if law != law.swap():
        raise ConsistencyError("commutativity failed")
    if not _log_additivity_holds(law, log):
        raise ConsistencyError("logarithm additivity failed")
    if not _associativity_holds(law):
        raise ConsistencyError("associativity failed")
    return FormalGroupLaw(law=law, log=log, order=n)


def fgl_phi(N: int) -> FormalGroupLaw:
    """The law of the curve logarithm."""
    return build_fgl(log_phi(N))


def fgl_phiL(N: int) -> FormalGroupLaw:
    """The law of the Legendre-genus logarithm."""
    return build_fgl(log_phiL(N))


# ---------------------------------------------------------------------------
# Euler's law and the isomorphism
# ---------------------------------------------------------------------------


def euler_law(N: int) -> BiTruncSeries:
    """Bivariate expansion of the closed form
    (x*sqrt(1 - 2a*y^4) + y*sqrt(1 - 2a*x^4)) / (1 + 2a*x^2*y^2)."""
    if N < 1:
        raise InputError("order must be >= 1")
    base = TruncSeries(
        [ONE if k == 0 else ALPHA.scale(-2) if k == 4 else ZERO for k in range(N + 1)],
        N,
    )
    root = sqrt_unit(base)  # sqrt(1 - 2a x^4)
    root_x = bi_from_univariate(root, 0, N)
    root_y = bi_from_univariate(root, 1, N)
    x = BiTruncSeries.variable(0, N)
    y = BiTruncSeries.variable(1, N)
    numerator = x * root_y + y * root_x
    denominator = BiTruncSeries({(0, 0): ONE, (2, 2): ALPHA.scale(2)}, N)
    return numerator * bi_inverse_unit(denominator)


def beta_zero_law(N: int) -> BiTruncSeries:
    """The Legendre-genus law with beta set to 0."""
    return fgl_phiL(N).law.map_coeffs(GradedPoly.set_beta_zero)


def euler_discrepancy(N: int) -> BiTruncSeries:
    """beta_zero_law - euler_law; zero iff the closed form matches exactly."""
    return beta_zero_law(N) - euler_law(N)


def iso_check(N: int, reparametrize: bool = True) -> bool:
    """t(F_phi(x, y)) = F_phiL(t(x), t(y)) through order N with t = t(v);
    with `reparametrize` False the identity substitution is used instead
    (a negative control: the laws differ at order 5 when alpha != 0)."""
    if N < 1:
        raise InputError("order must be >= 1")
    f_phi = fgl_phi(N).law
    f_phiL = fgl_phiL(N).law
    t = t_of_v(N) if reparametrize else TruncSeries.identity(N)
    lhs = bi_compose_outer(t, f_phi)
    rhs = bi_compose_slots(f_phiL, t, t)
    return lhs == rhs
