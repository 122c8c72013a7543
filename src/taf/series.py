"""Truncated formal power series over the graded ring Q[alpha, beta].

Every series is one sparse map {exponent tuple: GradedPoly} truncated at
total degree N (inclusive), with no stored zeros; everything beyond is
O(deg N+1).  A `TruncSeries` uses 1-tuples (c_0..c_N in x), a
`BiTruncSeries` 2-tuples (the formal group laws), and the associativity
check of `fgl` works on plain 3-tuple maps.  Truncation orders are explicit:
combining two series of different orders is an error, never an implicit min.

Every product of coefficients is one `exact._dot` per output coefficient,
through `_truncated_product` and `_substitute`, which take maps of any arity.
`compose` and `bi_compose_outer` share one sparse Horner, `_compose_outer`.

Reversion is the one Newton iteration (the working order doubles each
step); square roots run on J.C.P. Miller's power recurrence in one pass.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Union

from .exact import GradedPoly, InputError, ONE, ZERO, _dot

Coeff = Union[GradedPoly, int, Fraction]
Terms = Mapping[tuple[int, ...], GradedPoly]


class _Series:
    """The terms {exponent tuple: GradedPoly} of total degree at most `order`;
    the ring operations shared by `TruncSeries` and `BiTruncSeries`."""

    __slots__ = ("terms", "order")

    def __init__(self, terms: Mapping[tuple[int, ...], Coeff] | None = None, order=0):
        if order < 0:
            raise InputError("truncation order must be >= 0")
        clean: dict[tuple[int, ...], GradedPoly] = {}
        for k, c in (terms or {}).items():
            if min(k) < 0:
                raise InputError(f"negative exponent {k}")
            g = GradedPoly.coerce(c)
            if sum(k) <= order and not g.is_zero():
                clean[k] = g
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "order", order)

    @classmethod
    def from_terms(cls, terms: Mapping[tuple[int, ...], Coeff], order: int):
        """The series with the given term map, dropping zeros and terms of
        total degree above `order`."""
        out = object.__new__(cls)
        _Series.__init__(out, terms, order)
        return out

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _check(self, other: "_Series") -> None:
        if self.order != other.order:
            raise InputError(f"mixed truncation orders {self.order} and {other.order}")

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out[k] + c if k in out else c
        return self.from_terms(out, self.order)

    def __neg__(self):
        return self.from_terms({k: -c for k, c in self.terms.items()}, self.order)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        return self.from_terms(
            _truncated_product(self.terms, other.terms, self.order), self.order
        )

    def scale(self, c: Coeff):
        g = GradedPoly.coerce(c)
        return self.from_terms({k: g * v for k, v in self.terms.items()}, self.order)

    def map_coeffs(self, fn: Callable[[GradedPoly], GradedPoly]):
        return self.from_terms({k: fn(c) for k, c in self.terms.items()}, self.order)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.order == other.order and self.terms == other.terms

    def __hash__(self):
        return hash((self.order, frozenset(self.terms.items())))


class TruncSeries(_Series):
    """c_0 + c_1 x + .. + c_N x^N + O(x^{N+1}) with GradedPoly coefficients."""

    __slots__ = ()
    arity = 1
    # Bound here, not inherited: perfbench's tracer wraps each class's own methods.
    __add__, __sub__, __neg__ = _Series.__add__, _Series.__sub__, _Series.__neg__
    __mul__, scale = _Series.__mul__, _Series.scale

    def __init__(self, coeffs: Iterable[Coeff], order: int | None = None):
        cs = list(coeffs)
        if order is None:
            order = len(cs) - 1
        super().__init__({(k,): c for k, c in enumerate(cs)}, order)

    @staticmethod
    def one(order: int) -> "TruncSeries":
        return TruncSeries.monomial(ONE, 0, order)

    @staticmethod
    def identity(order: int) -> "TruncSeries":
        """The series x."""
        return TruncSeries.monomial(ONE, 1, order)

    @staticmethod
    def monomial(coeff: Coeff, k: int, order: int) -> "TruncSeries":
        return TruncSeries.from_terms({(k,): coeff}, order)

    @property
    def coeffs(self) -> list[GradedPoly]:
        """The dense list c_0..c_N, built on each access."""
        return [self.terms.get((k,), ZERO) for k in range(self.order + 1)]

    def __getitem__(self, k: int) -> GradedPoly:
        if 0 <= k <= self.order:
            return self.terms.get((k,), ZERO)
        raise IndexError(f"coefficient {k} beyond truncation order {self.order}")

    def truncate(self, order: int) -> "TruncSeries":
        if order > self.order:
            raise InputError("cannot truncate upward")
        return TruncSeries.from_terms(self.terms, order)

    def extend_zero(self, order: int) -> "TruncSeries":
        """Reinterpret with a higher order, padding with zero coefficients.

        Only valid when the caller knows the extra coefficients vanish
        (e.g. a plain polynomial); used for exact substitution checks.
        """
        if order < self.order:
            raise InputError("use truncate to lower the order")
        return TruncSeries.from_terms(self.terms, order)

    def differentiate(self) -> "TruncSeries":
        """Term-wise d/dx; output order N-1 (0 for N = 0)."""
        return TruncSeries.from_terms(
            {(k - 1,): c.scale(k) for (k,), c in self.terms.items() if k},
            max(self.order - 1, 0),
        )

    def __str__(self):
        terms = sorted(self.terms.items())
        parts = [f"({c})*x^{k}" if k else f"({c})" for (k,), c in terms]
        return (" + ".join(parts) or "0") + f" + O(x^{self.order + 1})"

    def __repr__(self):
        return f"TruncSeries({self.coeffs!r}, order={self.order})"

    def to_json_list(self) -> list[dict]:
        return [c.to_json_dict() for c in self.coeffs]


def integrate(f: TruncSeries) -> TruncSeries:
    """Term-wise integral with zero constant; output order N+1."""
    return TruncSeries.from_terms(
        {(k + 1,): c.scale(Fraction(1, k + 1)) for (k,), c in f.terms.items()},
        f.order + 1,
    )


def _is_normalized(f: TruncSeries) -> bool:
    """f = x + O(x^2): order at least 1, no constant term, linear term 1."""
    return f.order >= 1 and f.truncate(1) == TruncSeries.identity(1)


def compose(f: TruncSeries, g: TruncSeries) -> TruncSeries:
    """f(g(x)) through order N; g must have zero constant term."""
    return TruncSeries.from_terms(_compose_outer(f, g), f.order)


def series_div(f: TruncSeries, g: TruncSeries) -> TruncSeries:
    """Exact quotient f/g through order N; g needs a nonzero rational constant."""
    f._check(g)
    g0 = g[0]
    if g0.is_zero():
        raise InputError("division by a series with zero constant term")
    c0 = g0.coefficient(0, 0)
    if g0 != GradedPoly.const(c0):
        raise InputError("constant term of the divisor must be a scalar")
    inv0 = Fraction(1, 1) / c0
    fc = f.coeffs
    tail = sorted((j, c) for (j,), c in g.terms.items() if j)
    out: list[GradedPoly] = []
    for k in range(f.order + 1):
        acc = _dot([(out[k - j], c) for j, c in tail if j <= k])
        out.append((fc[k] - acc).scale(inv0))
    return TruncSeries(out, f.order)


def sqrt_unit(f: TruncSeries) -> TruncSeries:
    """The square root g with g_0 = 1 of a series f with f_0 = 1, by J.C.P.
    Miller's power recurrence (Knuth, TAOCP vol. 2, section 4.7), as in
    `exact._miller_power`: k*g_k = sum_{i >= 1} (3i/2 - k)*f_i*g_(k-i)."""
    if f[0] != ONE:
        raise InputError("sqrt_unit needs constant term 1")
    tail = sorted((i, c) for (i,), c in f.terms.items() if i)
    g = [ONE]
    for k in range(1, f.order + 1):
        acc = _dot([(c.scale(3 * i - 2 * k), g[k - i]) for i, c in tail if i <= k])
        g.append(acc.scale(Fraction(1, 2 * k)))
    return TruncSeries(g, f.order)


def revert(f: TruncSeries) -> TruncSeries:
    """Compositional inverse of f = x + O(x^2) with unit linear coefficient.

    Newton iteration g <- g - (f(g) - x)/f'(g), order doubling per step.
    """
    if not _is_normalized(f):
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
# Sparse kernels on term maps of any arity
# ---------------------------------------------------------------------------


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


def _compose_outer(f: TruncSeries, g: _Series) -> dict[tuple[int, ...], GradedPoly]:
    """The terms of f(g) for univariate f and g of any arity with no constant
    term, through their common order.

    Horner over the support k_0 < .. < k_m of f only: r <- c_{k_m}, then
    r <- r*g^(k_{i+1} - k_i) + c_{k_i} down to i = 0, and last r*g^(k_0).
    The powers of g are built on demand by squaring.  An f with only
    x^{4k+1} terms (the logarithms and their inverses) costs g^2, g^4, one
    step per term and one final product, instead of one product per
    coefficient.
    """
    f._check(g)
    origin = (0,) * g.arity
    if origin in g.terms:
        raise InputError("inner series must have zero constant term")
    n = g.order
    powers = {1: g.terms}

    def power(e: int) -> Terms:
        if e not in powers:
            half = power(e // 2)
            sq = _truncated_product(half, half, n)
            powers[e] = _truncated_product(sq, g.terms, n) if e % 2 else sq
        return powers[e]

    support = sorted(k for (k,) in f.terms)
    if not support:
        return {}
    result = {origin: f.terms[(support[-1],)]}
    for lo, hi in zip(reversed(support[:-1]), reversed(support[1:])):
        result = _truncated_product(result, power(hi - lo), n)
        result[origin] = f.terms[(lo,)]
    if support[0]:
        result = _truncated_product(result, power(support[0]), n)
    return result


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


class BiTruncSeries(_Series):
    """Bivariate series truncated at total degree N; sparse (a, b) -> GradedPoly."""

    __slots__ = ()
    arity = 2
    # Bound here, not inherited: perfbench's tracer wraps each class's own methods.
    __add__, __sub__, __neg__ = _Series.__add__, _Series.__sub__, _Series.__neg__
    __mul__, scale = _Series.__mul__, _Series.scale

    @staticmethod
    def variable(slot: int, order: int) -> "BiTruncSeries":
        """slot 0 -> x, slot 1 -> y."""
        key = (1, 0) if slot == 0 else (0, 1)
        return BiTruncSeries({key: ONE}, order)

    def coefficient(self, a: int, b: int) -> GradedPoly:
        return self.terms.get((a, b), ZERO)

    def swap(self) -> "BiTruncSeries":
        terms = {(b, a): c for (a, b), c in self.terms.items()}
        return BiTruncSeries(terms, self.order)

    def set_x(self) -> TruncSeries:
        """Restrict to x = 0: the univariate series in y."""
        terms = {(b,): c for (a, b), c in self.terms.items() if a == 0}
        return TruncSeries.from_terms(terms, self.order)

    def set_y(self) -> TruncSeries:
        """Restrict to y = 0: the univariate series in x."""
        terms = {(a,): c for (a, b), c in self.terms.items() if b == 0}
        return TruncSeries.from_terms(terms, self.order)

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
    return BiTruncSeries(
        {((k, 0) if slot == 0 else (0, k)): c for (k,), c in f.terms.items()}, order
    )


def bi_compose_outer(f: TruncSeries, g: BiTruncSeries) -> BiTruncSeries:
    """f(g(x, y)) for univariate f and bivariate g with no constant term."""
    return BiTruncSeries(_compose_outer(f, g), g.order)


def bi_compose_slots(
    f: BiTruncSeries, gx: TruncSeries, gy: TruncSeries
) -> BiTruncSeries:
    """f(gx(x), gy(y)) for univariate gx, gy with zero constant terms."""
    n = f.order
    if gx.order != n or gy.order != n:
        raise InputError("mixed truncation orders in slot substitution")
    if (0,) in gx.terms or (0,) in gy.terms:
        raise InputError("slot series must have zero constant terms")
    x, y = bi_from_univariate(gx, 0, n), bi_from_univariate(gy, 1, n)
    return BiTruncSeries(_substitute(f.terms, x.terms, y.terms, n), n)
