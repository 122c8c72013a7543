"""Formal group laws from logarithms over Q[alpha, beta].

A law is built as F(x, y) = exp(log(x) + log(y)) with exp the compositional
inverse of the logarithm; the unit, commutativity, and associativity axioms
are verified at construction and a failure aborts rather than returning a
bad law.  Associativity is checked on one truncated triple composite,
G(x, y, z) = F(F(x, y), z), built with the sparse substitution kernel of
`series` on three-variable maps: for a commutative F,
F(x, F(y, z)) = G(y, z, x), so F is associative iff G equals its cyclic
shift.

Each law is built and verified once per process: `fgl_phi(N)` and
`fgl_phiL(N)` are memoised per N, a construction that fails raises and so is
never cached, and `fgl_phi.__wrapped__(N)` builds and verifies afresh.

`euler_law` expands the closed form

    (x*sqrt(1 - 2*alpha*y^4) + y*sqrt(1 - 2*alpha*x^4)) / (1 + 2*alpha*x^2*y^2)

directly; setting beta = 0 in the law of the Legendre-genus logarithm must
reproduce it exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .exact import ALPHA, GradedPoly, InputError, ONE, ZERO
from .legendre import log_phiL
from .series import (
    BiTruncSeries,
    TruncSeries,
    bi_compose_outer,
    bi_compose_slots,
    bi_from_univariate,
    revert,
    sqrt_unit,
    _is_normalized,
    _substitute,
)
from .curve import log_phi, t_of_v


class ConsistencyError(RuntimeError):
    """A constructed law failed its own axioms; never returned to callers."""


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


def _associativity_holds(law: BiTruncSeries) -> bool:
    """F(F(x, y), z) = F(x, F(y, z)) through total degree N in three variables.

    With G(x, y, z) = F(F(x, y), z) and F commutative,
    F(x, F(y, z)) = F(F(y, z), x) = G(y, z, x); so, given commutativity,
    F is associative iff G equals its cyclic shift, which takes the term
    c*x^i*y^j*z^k of G to c*x^k*y^i*z^j.  A non-commutative F is refused.
    """
    if law != law.swap():
        return False
    f_xy = {(a, b, 0): c for (a, b), c in law.terms.items()}
    g = _substitute(law.terms, f_xy, {(0, 0, 1): ONE}, law.order)
    return g == {(k, i, j): c for (i, j, k), c in g.items()}


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
    if not _is_normalized(log):
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


@lru_cache(maxsize=8)
def fgl_phi(N: int) -> FormalGroupLaw:
    """The law of the curve logarithm, built and verified once per process
    for each N; `fgl_phi.__wrapped__(N)` builds it afresh."""
    return build_fgl(log_phi(N))


@lru_cache(maxsize=8)
def fgl_phiL(N: int) -> FormalGroupLaw:
    """The law of the Legendre-genus logarithm, built and verified once per
    process for each N; `fgl_phiL.__wrapped__(N)` builds it afresh."""
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
    # 1/(1 + t) at t = 2a*x^2*y^2, as the geometric series sum (-t)^k; t has
    # total degree 4, so the terms past k = N/4 truncate to zero.
    geometric = TruncSeries([(-1) ** k for k in range(N // 4 + 1)], N)
    t = BiTruncSeries({(2, 2): ALPHA.scale(2)}, N)
    return numerator * bi_compose_outer(geometric, t)


def beta_zero_law(N: int) -> BiTruncSeries:
    """The Legendre-genus law with beta set to 0."""
    return fgl_phiL(N).law.map_coeffs(GradedPoly.set_beta_zero)


def iso_check(N: int) -> bool:
    """t(F_phi(x, y)) = F_phiL(t(x), t(y)) through order N with t = t(v)."""
    if N < 1:
        raise InputError("order must be >= 1")
    f_phi = fgl_phi(N).law
    f_phiL = fgl_phiL(N).law
    t = t_of_v(N)
    lhs = bi_compose_outer(t, f_phi)
    rhs = bi_compose_slots(f_phiL, t, t)
    return lhs == rhs
