"""Truncated formal power series over the graded ring Q[alpha, beta].

Every series is one sparse map {exponent tuple: GradedPoly} truncated at
total degree N (inclusive), with no stored zeros; everything beyond is
O(deg N+1).  A `TruncSeries` uses 1-tuples (c_0..c_N in x), a
`BiTruncSeries` 2-tuples (the formal group laws).  Truncation orders are
explicit: combining two series of different orders is an error, never an
implicit min.

Every product of maps of any arity is one `_product_step` on lifted forms
(`_lift`: one denominator, integer lists): Kronecker substitution on whole
terms, one big-int multiply-add per pair of terms.  A chain of products,
the sparse Horner `_compose_outer` that `compose` and `bi_compose_outer`
share and the substitution into a law `_substitute`, stays lifted from step
to step and builds `GradedPoly`s (`_terms`) only where it ends.  Division
and square roots make one `exact._dot` per output coefficient.

Reversion is the one Newton iteration (the working order doubles each
step); square roots run on J.C.P. Miller's power recurrence in one pass.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Iterable, Mapping, Union

from .exact import GradedPoly, InputError, ONE, ZERO, _dot, _graded, _pack, _unpack

Coeff = Union[GradedPoly, int, Fraction]
Terms = Mapping[tuple[int, ...], GradedPoly]

MAX_ORDER = 64  # the CLI's cap on -N: `taf iso-check -N 64` takes 17 s, 2 cores


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
    return _sum_of_products([(a, b)], n)


def _sum_of_products(pairs, n: int) -> dict[tuple[int, ...], GradedPoly]:
    """The sum of a * b over the pairs (a, b) of term maps of one arity,
    through total degree n; no stored zeros: each map lifted once, one
    `_product_step`, one `_graded` per output term."""
    arity = len(next((k for pair in pairs for m in pair for k in m), ()))
    maps = {id(m): m for pair in pairs for m in pair}
    lifted = {i: _lift(m, n) for i, m in maps.items()}
    step = _product_step([(lifted[id(a)], lifted[id(b)]) for a, b in pairs], n, arity)
    return _terms(step, n, arity)


def _codec(arity: int, n: int) -> tuple[list[int], int]:
    """The weights of a key's digits and of its Legendre degree in a term's
    code, whose lowest base-(n + 1) digit is the total degree."""
    return [(n + 1) ** i for i in range(1, arity + 1)], (n + 1) ** (arity + 1)


def _lift(m: Terms, n: int):
    """The lifted form of a term map through total degree n: (den, terms, top,
    size) with den the lcm of the denominators, terms the (total degree,
    code, integer list) of each nonzero term over den sorted by total degree,
    and top and size the largest |entry| and the longest list.  The code is
    the total degree, then the key in base-(n + 1) digits, then the Legendre
    degree, so that the codes of kept terms add without carry."""
    weights, pad = _codec(len(next(iter(m), ())), n)
    items = sorted((t, k, c) for k, c in m.items() if c.vec and (t := sum(k)) <= n)
    den = lcm(*[c.den for _, _, c in items])
    terms, top, size = [], 0, 0
    for t, k, c in items:
        v = c.vec if c.den == den else [x * (den // c.den) for x in c.vec]
        top, size = max(top, max(v), -min(v)), max(size, len(v))
        terms.append((t, t + sum(map(operator.mul, k, weights)) + c.deg * pad, v))
    return den, terms, top, size


def _product_step(pairs, n: int, arity: int):
    """The lifted form of the sum of a * b over the pairs (a, b) of lifted
    forms of one arity, through total degree n.

    Each list becomes one int of w-byte digits (`exact._pack`), so a pair
    of terms is one big-int multiply-add.  Each digit is bounded by the sum
    over the pairs of top_a * top_b * lift * list length * min(#a, #b), and w
    holds that.  All-zero lists are dropped, and a key reached at two
    Legendre degrees raises `InputError`.  One gcd of the denominator with
    every entry reduces the output, so its denominator stays the lcm of the
    true ones along a chain of steps.
    """
    pad = _codec(arity, n)[1]
    den = lcm(*(a[0] * b[0] for a, b in pairs))
    bound = sum(
        ta * tb * den // (da * db) * min(sa, sb) * min(len(a), len(b))
        for (da, a, ta, sa), (db, b, tb, sb) in pairs
    )
    w = bound.bit_length() // 8 + 1  # bytes per digit, so 8w - 1 >= bits(bound)
    forms = {id(m): m for pair in pairs for m in pair}
    packed = {i: [(t, c, _pack(v, w)) for t, c, v in m[1]] for i, m in forms.items()}
    acc: dict[int, int] = {}
    for a, b in pairs:
        lift, ys = den // (a[0] * b[0]), packed[id(b)]
        for t, code, x in packed[id(a)]:
            room, x = n - t, x * lift
            for u, code_b, y in ys:
                if u > room:
                    break
                k = code + code_b
                acc[k] = acc.get(k, 0) + x * y
    terms, degs, g, top, size = [], {}, den, 0, 0
    for code, x in acc.items():
        deg, enc = divmod(code, pad)
        if degs.setdefault(enc, deg) != deg:
            raise InputError(f"mixed Legendre degrees {degs[enc]} and {deg}")
        if x:
            v = _unpack(x, deg // 2 + 1, w)
            g = gcd(g, *v) if g > 1 else 1
            top, size = max(top, max(v), -min(v)), max(size, len(v))
            terms.append((enc % (n + 1), code, v))
    terms.sort()
    if g > 1:
        terms = [(t, code, [c // g for c in v]) for t, code, v in terms]
    return den // g, terms, top // g, size


def _terms(lifted, n: int, arity: int) -> dict[tuple[int, ...], GradedPoly]:
    """The term map of a lifted form: one `_graded` per term."""
    weights, pad = _codec(arity, n)
    den, terms, _, _ = lifted
    out = {}
    for _, code, v in terms:
        deg, enc = divmod(code, pad)
        out[tuple([enc // u % (n + 1) for u in weights])] = _graded(deg, den, v)
    return out


def _compose_outer(f: TruncSeries, g: _Series) -> dict[tuple[int, ...], GradedPoly]:
    """The terms of f(g) for univariate f and g of any arity with no constant
    term, through their common order.

    Horner over the support k_0 < .. < k_m of f only: r <- c_{k_m}, then
    r <- r*g^(k_{i+1} - k_i) + c_{k_i} down to i = 0, and last r*g^(k_0).
    The powers of g are built on demand by squaring.  An f with only
    x^{4k+1} terms (the logarithms and their inverses) costs g^2, g^4, one
    step per term and one final product, instead of one product per
    coefficient.  g is lifted once and every step stays lifted, c_{k_i}
    added as one more pair (c_{k_i}, 1); only r is converted back.
    """
    f._check(g)
    origin = (0,) * g.arity
    if origin in g.terms:
        raise InputError("inner series must have zero constant term")
    n, arity = g.order, g.arity
    powers = {1: _lift(g.terms, n)}

    def power(e: int):
        if e not in powers:
            half = power(e // 2)
            sq = _product_step([(half, half)], n, arity)
            powers[e] = _product_step([(sq, powers[1])], n, arity) if e % 2 else sq
        return powers[e]

    support = sorted(k for (k,) in f.terms)
    if not support:
        return {}
    const = [_lift({origin: f.terms[(k,)]}, n) for k in support]
    one, result = _lift({origin: ONE}, n), const[-1]
    for i in reversed(range(len(support) - 1)):
        gap = power(support[i + 1] - support[i])
        result = _product_step([(result, gap), (const[i], one)], n, arity)
    if support[0]:
        result = _product_step([(result, power(support[0]))], n, arity)
    return _terms(result, n, arity)


def _substitute(
    law: Mapping[tuple[int, int], GradedPoly], first: Terms, second: Terms, n: int
) -> dict[tuple[int, ...], GradedPoly]:
    """law(first, second) through total degree n for sparse maps of one arity:
    sum_a first^a * row_a with row_a = sum_b law[a, b] * second^b.  first,
    second and the law's coefficients are lifted once; each power, each row
    and the whole sum is one `_product_step`."""
    # The arity comes from the inner series; two zero series count as bivariate.
    origin = tuple(0 for _ in next(iter(first or second), (0, 0)))
    arity = len(origin)
    rows: dict[int, list] = {}
    for (a, b), c in law.items():
        rows.setdefault(a, []).append((_lift({origin: c}, n), b))
    one, x, y = _lift({origin: ONE}, n), _lift(first, n), _lift(second, n)
    pow1, pow2 = [one], [one]
    while len(pow1) <= max(rows, default=0):
        pow1.append(_product_step([(pow1[-1], x)], n, arity))
    while len(pow2) <= max((b for _, b in law), default=0):
        pow2.append(_product_step([(pow2[-1], y)], n, arity))
    sums = [
        (pow1[a], _product_step([(c, pow2[b]) for c, b in row], n, arity))
        for a, row in rows.items()
    ]
    return _terms(_product_step(sums, n, arity), n, arity)


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
