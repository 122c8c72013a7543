"""Formal group laws from logarithms over Q[alpha, beta].

A law is F(x, y) = L^-1(L(x) + L(y)) for a logarithm L = x + ...; it is built
from its invariant differential dx/L'(x) = w(x) dx, w = 1/L' = sum_m w_m x^m
with w_0 = 1 (Hazewinkel, *Formal Groups and Applications*, 1978), by a
linear recurrence: nothing is reverted and nothing is composed.
Commutativity and additivity L(F(x, y)) = L(x) + L(y) are verified at
construction, and a failure aborts rather than returning a bad law; they
imply the unit axiom and associativity (below).

The recurrence.  The vector field w(x) d/dx - w(y) d/dy kills L(x) + L(y),
since w L' = 1, so it kills every series in L(x) + L(y), F among them:

    w(x) * dF/dx = w(y) * dF/dy,    F(0, y) = y.

With P = dF/dx and Q = dF/dy, the coefficient of x^a y^b reads

    P[a,b] = Q[a,b] + sum_{m>=1} w_m * (Q[a,b-m] - P[a-m,b]),

then F[a+1,b] = P[a,b]/(a+1) and Q[a+1,b-1] = b * F[a+1,b].  Along each
diagonal a + b = s, from a = 0 up, the right side needs only Q[a,b], made
one step before on the diagonal (Q[0,s] is 1 at s = 0 and 0 beyond, from
F(0, y) = y), and lower diagonals.  So F(0, y) = y fixes each diagonal of
the solution, the solution is unique, and it is L^-1(L(x) + L(y)).  Each
coefficient costs one `exact._dot`.  F(0, y) = y holds by construction, but
commutativity does not, and the additivity check compares the recurrence
with a different algorithm, the sparse Horner composition L(F(x, y)) on
`series._product_step`.

The unit axiom needs no check of its own.  F(0, y) = y by construction, and
at y = 0 additivity reads L(F(x, 0)) = L(x) + L(0) = L(x); L = x + ... is
invertible, so F(x, 0) = x through order N.

Additivity is checked after commutativity, so F is symmetric, and so is
L(F(x, y)): a univariate series composed with a symmetric one.  It is
composed in e1 = x + y, e2 = xy (`series.to_elementary`), where F has about
half its terms, and compared there with L(x) + L(y), built in x, y.  A
failure expands L(F) back to x, y and names the first coefficient where the
two differ.

Associativity follows: L = x + ..., so additivity through order N gives
F = L^-1(L(x) + L(y)) mod deg N+1, and then
F(F(x, y), z) = L^-1(L(x) + L(y) + L(z)) = F(x, F(y, z)) mod deg N+1.

Each law is built and verified once per process: `fgl_phi(N)` and
`fgl_phiL(N)` are memoised per N, a construction that fails raises and so is
never cached, and `fgl_phi.__wrapped__(N)` builds and verifies afresh.

`euler_law` expands the closed form

    (x*sqrt(1 - 2*alpha*y^4) + y*sqrt(1 - 2*alpha*x^4)) / (1 + 2*alpha*x^2*y^2)

term by term, each term of the square root placed on two keys with no
bivariate product; setting beta = 0 in the law of the Legendre-genus
logarithm must reproduce it exactly.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .exact import ALPHA, GradedPoly, InputError, ONE, _dot, _graded
from .legendre import log_phiL
from .series import (
    BiTruncSeries,
    TruncSeries,
    bi_compose_outer,
    bi_compose_slots,
    from_elementary,
    series_div,
    sqrt_unit,
    to_elementary,
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


def _additivity_discrepancy(law: BiTruncSeries, log: TruncSeries) -> str:
    """"" if L(F(x, y)) = L(x) + L(y) through the law's order, for a
    commutative law F; else the first (a, b), in sorted order, where the two
    sides differ, and both values.  Both sides are symmetric, so L(F) is
    composed in e1 = x + y, e2 = xy (`series.to_elementary`), and the sum,
    built in x, y, is taken there; L(F) is expanded back only on failure."""
    n = law.order
    in_x = BiTruncSeries.from_terms({(k, 0): c for (k,), c in log.terms.items()}, n)
    lsum = in_x + in_x.swap()
    lhs = bi_compose_outer(log, to_elementary(law))
    if lhs == to_elementary(lsum):
        return ""
    return _first_difference("L(F)", from_elementary(lhs), "L(x) + L(y)", lsum)


def _law_from_differential(w: TruncSeries, n: int) -> BiTruncSeries:
    """The solution F through total order n of w(x)*dF/dx = w(y)*dF/dy with
    F(0, y) = y, for w = 1 + O(x) known through order n - 1: one `_dot` per
    coefficient P[a,b] = Q[a,b] + sum_{m>=1} w_m*(Q[a,b-m] - P[a-m,b]), on
    each diagonal a + b = s from a = 0 up (see the module docstring)."""
    tail = [(m, c, -c) for (m,), c in sorted(w.terms.items()) if m]
    law = {(0, 1): ONE}
    p, q = {}, {(0, 0): ONE}  # the nonzero P[a,b] = dF/dx and Q[a,b] = dF/dy
    for s in range(n):
        for a in range(s + 1):
            b = s - a
            pairs = [(ONE, q[a, b])] if (a, b) in q else []
            for m, c, neg in tail:
                if m > s:
                    break
                if (a, b - m) in q:
                    pairs.append((c, q[a, b - m]))
                if (a - m, b) in p:
                    pairs.append((neg, p[a - m, b]))
            pab = _dot(pairs)
            if pab.vec:
                p[a, b] = pab
                law[a + 1, b] = fab = _graded(pab.deg, pab.den * (a + 1), pab.vec)
                if b:
                    vec = [b * c for c in fab.vec]
                    q[a + 1, b - 1] = _graded(fab.deg, fab.den, vec)
    return BiTruncSeries.from_terms(law, n)


def build_fgl(log: TruncSeries) -> FormalGroupLaw:
    """F(x, y) = L^-1(L(x) + L(y)) through total order N, with commutativity
    and additivity verified.

    F is the unique solution of w(x)*dF/dx = w(y)*dF/dy with F(0, y) = y for
    w = 1/L' (`_law_from_differential`): w(x) d/dx - w(y) d/dy kills
    L(x) + L(y) and so L^-1(L(x) + L(y)), and F(0, y) = y fixes the
    recurrence on each diagonal.  The unit axiom follows: F(0, y) = y by
    construction, and at y = 0 additivity gives L(F(x, 0)) = L(x), so
    F(x, 0) = x through order N, L = x + ... being invertible.  So does
    associativity: L = x + ..., so additivity gives
    F = L^-1(L(x) + L(y)) mod deg N+1, and then
    F(F(x, y), z) = L^-1(L(x) + L(y) + L(z)) = F(x, F(y, z)) mod deg N+1."""
    if not _is_normalized(log):
        raise InputError("logarithm must be normalized: x + higher-order terms")
    n = log.order
    w = series_div(TruncSeries.one(n - 1), log.differentiate())
    law = _law_from_differential(w, n)
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
    (x*sqrt(1 - 2a*y^4) + y*sqrt(1 - 2a*x^4)) / (1 + 2a*x^2*y^2), with no
    bivariate product: the term r_m x^m of sqrt(1 - 2a*x^4) times
    (-2a*x^2*y^2)^k lands at x^(1+2k) y^(m+2k) and its mirror alone, as
    4 | m makes 1 + 2k odd and m + 2k even."""
    if N < 1:
        raise InputError("order must be >= 1")
    step = ALPHA.scale(-2)
    out = {}
    root = sqrt_unit(TruncSeries.from_terms({(0,): ONE, (4,): step}, N))
    for (m,), c in root.terms.items():
        for k in range((N - 1 - m) // 4 + 1):
            out[1 + 2 * k, m + 2 * k] = out[m + 2 * k, 1 + 2 * k] = c * step**k
    return BiTruncSeries.from_terms(out, N)


def beta_zero_law(N: int) -> BiTruncSeries:
    """The Legendre-genus law with beta set to 0."""
    return fgl_phiL(N).law.map_coeffs(GradedPoly.set_beta_zero)


def iso_check(N: int) -> bool:
    """t(F_phi(x, y)) = F_phiL(t(x), t(y)) through order N with t = t(v).

    It follows from log_phi = log_phiL o t (`curve.log_phi_consistency`):
    t o log_phi^-1 = log_phiL^-1, so t(F_phi(x, y)) = log_phiL^-1(log_phiL(t(x))
    + log_phiL(t(y))) = F_phiL(t(x), t(y)).

    F_phi is commutative, so the left side is composed in e1 = x + y,
    e2 = xy (`series.to_elementary`).  The right side stays the slot
    substitution `series.bi_compose_slots` while the benchmark's tracer
    reports it by name; both slots hold t, so it reads one table of powers
    of t.  It is compared in the same coordinates once it is seen to be
    symmetric, as the left side is."""
    if N < 1:
        raise InputError("order must be >= 1")
    f_phi = fgl_phi(N).law
    f_phiL = fgl_phiL(N).law
    t = t_of_v(N)
    lhs = bi_compose_outer(t, to_elementary(f_phi))
    rhs = bi_compose_slots(f_phiL, t, t)
    return rhs == rhs.swap() and lhs == to_elementary(rhs)
