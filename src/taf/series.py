"""Truncated formal power series over the graded ring Q[alpha, beta].

A `TruncSeries` stores coefficients c_0..c_N (inclusive order N); everything
beyond x^N is O(x^{N+1}).  Truncation orders are explicit: combining two
series of different orders is an error, never an implicit min.

A `BiTruncSeries` is its two-variable sibling truncated at total degree N,
used for formal group laws.

Every product of coefficients is one `exact._dot` per output coefficient.
`_truncated_product` and `_substitute` work on sparse {exponent tuple:
GradedPoly} maps in any number of variables: two for `BiTruncSeries`, three
for the associativity check of `fgl`.

Reversion and square roots use Newton iteration (the working order doubles
each step), which keeps high-order exact-rational runs fast.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Callable, Mapping, Sequence, Union

from .exact import GradedPoly, InputError, ONE, ZERO, _dot

Coeff = Union[GradedPoly, int, Fraction]


def _co(c: Coeff) -> GradedPoly:
    return GradedPoly.coerce(c)


class TruncSeries:
    """c_0 + c_1 x + .. + c_N x^N + O(x^{N+1}) with GradedPoly coefficients."""

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs: Sequence[Coeff], order: int | None = None):
        cs = [_co(c) for c in coeffs]
        if order is None:
            order = len(cs) - 1
        if order < 0:
            raise InputError("truncation order must be >= 0")
        if len(cs) > order + 1:
            cs = cs[: order + 1]
        cs += [ZERO] * (order + 1 - len(cs))
        object.__setattr__(self, "coeffs", cs)
        object.__setattr__(self, "order", order)

    def __setattr__(self, name, value):
        raise AttributeError("TruncSeries is immutable")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(order: int) -> "TruncSeries":
        return TruncSeries([], order)

    @staticmethod
    def one(order: int) -> "TruncSeries":
        return TruncSeries([ONE], order)

    @staticmethod
    def identity(order: int) -> "TruncSeries":
        """The series x."""
        return TruncSeries([ZERO, ONE], order)

    @staticmethod
    def monomial(coeff: Coeff, k: int, order: int) -> "TruncSeries":
        cs = [ZERO] * (order + 1)
        if k <= order:
            cs[k] = _co(coeff)
        return TruncSeries(cs, order)

    # -- basics -------------------------------------------------------------

    def __getitem__(self, k: int) -> GradedPoly:
        if 0 <= k <= self.order:
            return self.coeffs[k]
        raise IndexError(f"coefficient {k} beyond truncation order {self.order}")

    def _check(self, other: "TruncSeries") -> None:
        if self.order != other.order:
            raise InputError(
                f"mixed truncation orders {self.order} and {other.order}"
            )

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def is_odd4(self) -> bool:
        """True iff c_k = 0 unless k = 1 (mod 4)."""
        return all(
            c.is_zero() for k, c in enumerate(self.coeffs) if k % 4 != 1
        )

    def truncate(self, order: int) -> "TruncSeries":
        if order > self.order:
            raise InputError("cannot truncate upward")
        return TruncSeries(self.coeffs[: order + 1], order)

    def extend_zero(self, order: int) -> "TruncSeries":
        """Reinterpret with a higher order, padding with zero coefficients.

        Only valid when the caller knows the extra coefficients vanish
        (e.g. a plain polynomial); used for exact substitution checks.
        """
        if order < self.order:
            raise InputError("use truncate to lower the order")
        return TruncSeries(self.coeffs, order)

    # -- ring ops -----------------------------------------------------------

    def __add__(self, other: "TruncSeries"):
        self._check(other)
        return TruncSeries(
            [a + b for a, b in zip(self.coeffs, other.coeffs)], self.order
        )

    def __neg__(self):
        return TruncSeries([-c for c in self.coeffs], self.order)

    def __sub__(self, other: "TruncSeries"):
        return self + (-other)

    def __mul__(self, other: "TruncSeries"):
        self._check(other)
        a = [(i, c) for i, c in enumerate(self.coeffs) if not c.is_zero()]
        b, n = other.coeffs, self.order
        return TruncSeries(
            [_dot([(c, b[k - i]) for i, c in a if i <= k]) for k in range(n + 1)], n
        )

    def scale(self, c: Coeff) -> "TruncSeries":
        g = _co(c)
        return TruncSeries([g * a for a in self.coeffs], self.order)

    def __eq__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.order, tuple(self.coeffs)))

    # -- calculus -----------------------------------------------------------

    def differentiate(self) -> "TruncSeries":
        """Term-wise d/dx; output order N-1."""
        if self.order == 0:
            return TruncSeries.zero(0)
        return TruncSeries(
            [self.coeffs[k].scale(k) for k in range(1, self.order + 1)],
            self.order - 1,
        )

    def __str__(self):
        parts = [
            f"({c})*x^{k}" if k else f"({c})"
            for k, c in enumerate(self.coeffs)
            if not c.is_zero()
        ]
        return (" + ".join(parts) or "0") + f" + O(x^{self.order + 1})"

    def __repr__(self):
        return f"TruncSeries({self.coeffs!r}, order={self.order})"

    def to_json_list(self) -> list[dict]:
        return [c.to_json_dict() for c in self.coeffs]


def integrate(f: TruncSeries) -> TruncSeries:
    """Term-wise integral with zero constant; output order N+1."""
    out = [ZERO]
    for k, c in enumerate(f.coeffs):
        out.append(c.scale(Fraction(1, k + 1)))
    return TruncSeries(out, f.order + 1)


def compose(f: TruncSeries, g: TruncSeries) -> TruncSeries:
    """f(g(x)) through order N; g must have zero constant term."""
    f._check(g)
    if not g.coeffs[0].is_zero():
        raise InputError("inner series must have zero constant term")
    n = f.order
    # Horner from the top coefficient down.
    result = TruncSeries.zero(n)
    for c in reversed(f.coeffs):
        result = result * g + TruncSeries.monomial(c, 0, n)
    return result


def series_div(f: TruncSeries, g: TruncSeries) -> TruncSeries:
    """Exact quotient f/g through order N; g needs a nonzero rational constant."""
    f._check(g)
    g0 = g.coeffs[0]
    if g0.is_zero():
        raise InputError("division by a series with zero constant term")
    c0 = g0.coefficient(0, 0)
    if g0 != GradedPoly.const(c0):
        raise InputError("constant term of the divisor must be a scalar")
    inv0 = Fraction(1, 1) / c0
    n = f.order
    out: list[GradedPoly] = []
    for k in range(n + 1):
        acc = _dot([(out[i], g.coeffs[k - i]) for i in range(k)])
        out.append((f.coeffs[k] - acc).scale(inv0))
    return TruncSeries(out, n)


def sqrt_unit(f: TruncSeries) -> TruncSeries:
    """The square root with constant term 1 of a series with f(0) = 1.

    Newton iteration g <- (g + f/g)/2, doubling the correct order each step.
    """
    if f.coeffs[0] != ONE:
        raise InputError("sqrt_unit needs constant term 1")
    n = f.order
    g = TruncSeries.one(0)
    k = 0
    while k < n:
        k = min(2 * k + 1, n)
        fk = f.truncate(k)
        gk = g.extend_zero(k)
        g = (gk + series_div(fk, gk)).scale(Fraction(1, 2))
    return g


def revert(f: TruncSeries) -> TruncSeries:
    """Compositional inverse of f = x + O(x^2) with unit linear coefficient.

    Newton iteration g <- g - (f(g) - x)/f'(g), order doubling per step.
    """
    if not f.coeffs[0].is_zero() or f.coeffs[1] != ONE:
        raise InputError("revert needs f = x + higher-order terms")
    n = f.order
    fp = f.differentiate()
    g = TruncSeries.identity(1)
    k = 1
    while k < n:
        k = min(2 * k + 1, n)
        fk = f.truncate(k)
        gk = g.extend_zero(k)
        num = compose(fk, gk) - TruncSeries.identity(k)
        # f' is known through order n-1; the padded coefficient only touches
        # the quotient beyond order k because num starts above x^(k/2).
        fpk = fp.truncate(k) if k <= fp.order else fp.extend_zero(k)
        den = compose(fpk, gk)
        g = gk - series_div(num, den)
    return g


# ---------------------------------------------------------------------------
# Sparse series in any number of variables
# ---------------------------------------------------------------------------

Terms = Mapping[tuple[int, ...], GradedPoly]


def _truncated_product(a: Terms, b: Terms, n: int) -> dict[tuple[int, ...], GradedPoly]:
    """a * b with every term of total degree above n dropped; no stored zeros."""
    b_items = [(kb, sum(kb), cb) for kb, cb in b.items()]
    groups: dict[tuple[int, ...], list] = {}
    for ka, ca in a.items():
        room = n - sum(ka)
        for kb, db, cb in b_items:
            if db <= room:
                groups.setdefault(tuple(map(operator.add, ka, kb)), []).append((ca, cb))
    return {k: c for k, pairs in groups.items() if not (c := _dot(pairs)).is_zero()}


def _substitute(
    law: Mapping[tuple[int, int], GradedPoly], first: Terms, second: Terms, n: int
) -> dict[tuple[int, ...], GradedPoly]:
    """law(first, second) through total degree n for sparse maps of one arity.

    Summed as first^a * (sum_b law[a, b] * second^b) over the rows a of the
    law, each row added into the output as soon as it is formed.
    """
    rows: dict[int, list] = {}
    for (a, b), c in law.items():
        rows.setdefault(a, []).append((b, c))
    # The arity comes from the inner series; two zero series count as bivariate.
    one = {tuple(0 for _ in next(iter(first or second), (0, 0))): ONE}
    pow1, pow2 = [one], [one]
    while len(pow1) <= max(rows, default=0):
        pow1.append(_truncated_product(pow1[-1], first, n))
    while len(pow2) <= max((b for _, b in law), default=0):
        pow2.append(_truncated_product(pow2[-1], second, n))
    out: dict[tuple[int, ...], GradedPoly] = {}
    for a, row in rows.items():
        groups: dict[tuple[int, ...], list] = {}
        for b, c in row:
            for k, v in pow2[b].items():
                groups.setdefault(k, []).append((c, v))
        inner = {k: _dot(pairs) for k, pairs in groups.items()}
        for k, v in _truncated_product(pow1[a], inner, n).items():
            out[k] = out[k] + v if k in out else v
    return {k: v for k, v in out.items() if not v.is_zero()}


# ---------------------------------------------------------------------------
# Two variables
# ---------------------------------------------------------------------------


class BiTruncSeries:
    """Bivariate series truncated at total degree N; sparse (a, b) -> GradedPoly."""

    __slots__ = ("terms", "order")

    def __init__(
        self,
        terms: Mapping[tuple[int, int], Coeff] | None = None,
        order: int = 0,
    ):
        clean: dict[tuple[int, int], GradedPoly] = {}
        if terms:
            for (a, b), c in terms.items():
                if a < 0 or b < 0:
                    raise InputError(f"negative bidegree ({a}, {b})")
                g = _co(c)
                if a + b <= order and not g.is_zero():
                    clean[(a, b)] = g
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "order", order)

    def __setattr__(self, name, value):
        raise AttributeError("BiTruncSeries is immutable")

    @staticmethod
    def zero(order: int) -> "BiTruncSeries":
        return BiTruncSeries({}, order)

    @staticmethod
    def variable(slot: int, order: int) -> "BiTruncSeries":
        """slot 0 -> x, slot 1 -> y."""
        key = (1, 0) if slot == 0 else (0, 1)
        return BiTruncSeries({key: ONE}, order)

    def coefficient(self, a: int, b: int) -> GradedPoly:
        return self.terms.get((a, b), ZERO)

    def _check(self, other: "BiTruncSeries") -> None:
        if self.order != other.order:
            raise InputError(
                f"mixed truncation orders {self.order} and {other.order}"
            )

    def __add__(self, other: "BiTruncSeries"):
        self._check(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            s = out.get(k, ZERO) + c
            if s.is_zero():
                out.pop(k, None)
            else:
                out[k] = s
        return BiTruncSeries(out, self.order)

    def __neg__(self):
        return BiTruncSeries({k: -c for k, c in self.terms.items()}, self.order)

    def __sub__(self, other: "BiTruncSeries"):
        return self + (-other)

    def __mul__(self, other: "BiTruncSeries"):
        self._check(other)
        return BiTruncSeries(
            _truncated_product(self.terms, other.terms, self.order), self.order
        )

    def scale(self, c: Coeff) -> "BiTruncSeries":
        g = _co(c)
        return BiTruncSeries({k: g * v for k, v in self.terms.items()}, self.order)

    def __eq__(self, other):
        if not isinstance(other, BiTruncSeries):
            return NotImplemented
        return self.order == other.order and self.terms == other.terms

    def __hash__(self):
        return hash((self.order, frozenset(self.terms.items())))

    def swap(self) -> "BiTruncSeries":
        return BiTruncSeries(
            {(b, a): c for (a, b), c in self.terms.items()}, self.order
        )

    def set_x(self) -> TruncSeries:
        """Restrict to x = 0: the univariate series in y."""
        n = self.order
        out = [ZERO] * (n + 1)
        for (a, b), c in self.terms.items():
            if a == 0:
                out[b] = c
        return TruncSeries(out, n)

    def set_y(self) -> TruncSeries:
        """Restrict to y = 0: the univariate series in x."""
        n = self.order
        out = [ZERO] * (n + 1)
        for (a, b), c in self.terms.items():
            if b == 0:
                out[a] = c
        return TruncSeries(out, n)

    def map_coeffs(
        self, fn: Callable[[GradedPoly], GradedPoly]
    ) -> "BiTruncSeries":
        return BiTruncSeries({k: fn(c) for k, c in self.terms.items()}, self.order)

    def __str__(self):
        parts = [
            f"({self.terms[k]})*x^{k[0]}*y^{k[1]}"
            for k in sorted(self.terms, key=lambda k: (k[0] + k[1], k[1]))
        ]
        return (" + ".join(parts) or "0") + f" + O(deg {self.order + 1})"

    def to_json_list(self) -> list[dict]:
        return [
            {"a": a, "b": b, "poly": c.to_json_dict()}
            for (a, b), c in sorted(self.terms.items())
        ]


def bi_from_univariate(f: TruncSeries, slot: int, order: int) -> BiTruncSeries:
    """Lift a univariate series into slot 0 (x) or 1 (y) of a bivariate one."""
    terms = {}
    for k, c in enumerate(f.coeffs):
        if k > order:
            break
        key = (k, 0) if slot == 0 else (0, k)
        terms[key] = c
    return BiTruncSeries(terms, order)


def bi_compose_outer(f: TruncSeries, g: BiTruncSeries) -> BiTruncSeries:
    """f(g(x, y)) for univariate f and bivariate g with no constant term.

    Horner over the support k_0 < .. < k_m of f only: r <- c_{k_m}, then
    r <- r*g^(k_{i+1} - k_i) + c_{k_i} down to i = 0, and last r*g^(k_0).
    The powers of g are built on demand by squaring.  An f with only
    x^{4k+1} terms (the logarithms and their inverses) costs g^2, g^4, one
    step per term and one final product, instead of one product per
    coefficient.
    """
    if not g.coefficient(0, 0).is_zero():
        raise InputError("inner series must have zero constant term")
    n = g.order
    if f.order != n:
        raise InputError(f"mixed truncation orders {f.order} and {n}")
    powers = {1: g.terms}

    def power(e: int) -> dict[tuple[int, ...], GradedPoly]:
        if e not in powers:
            half = power(e // 2)
            sq = _truncated_product(half, half, n)
            powers[e] = _truncated_product(sq, g.terms, n) if e % 2 else sq
        return powers[e]

    support = [k for k, c in enumerate(f.coeffs) if not c.is_zero()]
    if not support:
        return BiTruncSeries.zero(n)
    result = {(0, 0): f.coeffs[support[-1]]}
    for lo, hi in zip(reversed(support[:-1]), reversed(support[1:])):
        result = _truncated_product(result, power(hi - lo), n)
        result[(0, 0)] = f.coeffs[lo]
    if support[0]:
        result = _truncated_product(result, power(support[0]), n)
    return BiTruncSeries(result, n)


def bi_compose_slots(
    f: BiTruncSeries, gx: TruncSeries, gy: TruncSeries
) -> BiTruncSeries:
    """f(gx(x), gy(y)) for univariate gx, gy with zero constant terms."""
    n = f.order
    if gx.order != n or gy.order != n:
        raise InputError("mixed truncation orders in slot substitution")
    if not gx.coeffs[0].is_zero() or not gy.coeffs[0].is_zero():
        raise InputError("slot series must have zero constant terms")
    x, y = bi_from_univariate(gx, 0, n), bi_from_univariate(gy, 1, n)
    return BiTruncSeries(_substitute(f.terms, x.terms, y.terms, n), n)
