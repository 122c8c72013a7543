"""Truncated-series engine: strict orders, composition, reversion, roots."""

import random
from fractions import Fraction
from math import comb, lcm
from typing import Mapping

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import taf.series as series
from taf.curve import v_of_t
from taf.exact import ALPHA, BETA, GradedPoly, InputError, ONE, ZERO, _graded
from taf.fgl import fgl_phi, fgl_phiL
from taf.series import (
    BiTruncSeries,
    TruncSeries,
    bi_compose_outer,
    Terms,
    bi_compose_slots,
    compose,
    from_elementary,
    integrate,
    revert,
    series_div,
    sqrt_unit,
    to_elementary,
    _compose_outer,
    _lift,
    _product_step,
    _terms,
    _waring,
)
from test_exact import graded_polys, pairwise_product

fractions = st.fractions(min_value=-20, max_value=20, max_denominator=6)


@st.composite
def trunc_series(draw, order=6, normalized=False):
    cs = [GradedPoly.const(draw(fractions)) for _ in range(order + 1)]
    if normalized:
        cs[0], cs[1] = ZERO, ONE
    return TruncSeries(cs, order)


@st.composite
def sparse_normalized_series(draw):
    """x plus terms x^(1 + d*k) alone, for d in 1..4: f/x has exponents in
    steps of d, as the chart's quintic (d = 2) and v(t) (d = 4) have."""
    d, order = draw(st.sampled_from([1, 2, 3, 4])), draw(st.integers(1, 13))
    terms = {(1,): ONE}
    for k in range(1 + d, order + 1, d):
        terms[(k,)] = GradedPoly.const(draw(fractions))
    return TruncSeries.from_terms(terms, order)


def newton_sqrt_unit(f):
    """The Newton iteration g <- (g + f/g)/2 that `sqrt_unit` ran before
    Miller's recurrence, doubling the correct order each step; kept as the
    reference."""
    g = TruncSeries.one(0)
    k = 0
    while k < f.order:
        k = min(2 * k + 1, f.order)
        gk = TruncSeries.from_terms(g.terms, k)
        g = (gk + series_div(f.truncate(k), gk)).scale(Fraction(1, 2))
    return g


def newton_revert(f):
    """The Newton iteration g <- g - (f(g) - x)/f'(g) that `revert` ran
    before Lagrange inversion, doubling the correct order each step; kept as
    the reference.  Padding g and f' with zeros to order k only touches the
    quotient beyond order k, because f(g) - x starts above x^(k/2)."""
    n = f.order
    fp = f.differentiate()
    g = TruncSeries.identity(1)
    k = 1
    while k < n:
        k = min(2 * k + 1, n)
        gk = TruncSeries.from_terms(g.terms, k)
        num = compose(f.truncate(k), gk) - TruncSeries.identity(k)
        den = compose(TruncSeries.from_terms(fp.terms, k), gk)
        g = gk - series_div(num, den)
    return g


def product_step(pairs, n):
    """The sum of a * b over the pairs (a, b) of term maps of one arity,
    through total degree n: each map `_lift`ed once (a map shared by pairs
    too), one `_product_step`, and `_terms`."""
    arity = len(next((k for pair in pairs for m in pair for k in m), ()))
    lifted = {id(m): _lift(m, n) for pair in pairs for m in pair}
    step = _product_step([(lifted[id(a)], lifted[id(b)]) for a, b in pairs], n, arity)
    return _terms(step, n, arity)


class TestTruncSeries:
    @given(trunc_series(), trunc_series(), trunc_series())
    @settings(max_examples=40)
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    def test_mixed_orders_rejected(self):
        with pytest.raises(InputError):
            TruncSeries.one(3) + TruncSeries.one(4)
        with pytest.raises(InputError):
            TruncSeries.one(3) * TruncSeries.one(4)

    def test_truncate_and_extend(self):
        f = TruncSeries([1, 2, 3], 2)
        assert f.truncate(1) == TruncSeries([1, 2], 1)
        assert f.truncate(2) == f
        with pytest.raises(InputError):
            f.truncate(5)

    def test_calculus_inverse(self):
        f = TruncSeries([1, 2, 3, 4], 3)
        assert integrate(f).differentiate() == f

    def test_integrate_raises_order(self):
        assert integrate(TruncSeries.one(5)).order == 6


class TestComposeRevert:
    @given(trunc_series(normalized=True))
    @settings(max_examples=30, deadline=None)
    def test_revert_roundtrip(self, f):
        g = revert(f)
        assert compose(f, g) == TruncSeries.identity(f.order)
        assert compose(g, f) == TruncSeries.identity(f.order)

    @given(trunc_series(order=9, normalized=True))
    @settings(max_examples=30, deadline=None)
    def test_revert_matches_newton(self, f):
        assert revert(f) == newton_revert(f)

    @pytest.mark.parametrize("n", [13, 21, 29, 45, 64])
    def test_revert_of_program_inputs_matches_newton(self, n):
        # The quintic u - 2*alpha*u^3 + beta*u^5 of the chart solve, and v(t).
        quintic = {(1,): ONE, (3,): ALPHA.scale(-2), (5,): BETA}
        f = TruncSeries.from_terms(quintic, n)
        assert revert(f) == newton_revert(f)
        assert revert(v_of_t(n)) == newton_revert(v_of_t(n))

    @given(sparse_normalized_series())
    @settings(max_examples=40, deadline=None)
    def test_revert_of_sparse_series_matches_newton(self, f):
        assert revert(f) == newton_revert(f)

    def test_revert_skips_the_coefficients_that_are_zero(self, monkeypatch):
        # v(t) = t + O(t^5) has exponents 1 + 4k: three products build h^4,
        # and one more each gives h^m for m = 5, 9, .., 61, not 63 in all.
        f, products, mul = v_of_t(64), [], TruncSeries.__mul__

        def counted(a, b):
            products.append(a.order)
            return mul(a, b)

        monkeypatch.setattr(TruncSeries, "__mul__", counted)
        revert(f)
        assert products == [63] * (3 + 15)

    def test_revert_rejects_unnormalized(self):
        with pytest.raises(InputError):
            revert(TruncSeries([1, 1], 1))
        with pytest.raises(InputError):
            revert(TruncSeries([0, 2, 1], 2))
        with pytest.raises(InputError):
            revert(TruncSeries([0], 0))

    def test_compose_rejects_constant_inner(self):
        with pytest.raises(InputError):
            compose(TruncSeries.one(3), TruncSeries.one(3))

    def test_geometric_series(self):
        # 1/(1 - x) = 1 + x + x^2 + ...
        one_minus_x = TruncSeries([ONE, GradedPoly.const(-1)], 5)
        q = series_div(TruncSeries.one(5), one_minus_x)
        assert q == TruncSeries([ONE] * 6, 5)

    def test_series_div_rejects_nonscalar_constant(self):
        with pytest.raises(InputError):
            series_div(TruncSeries.one(2), TruncSeries([ALPHA], 2))
        with pytest.raises(InputError):
            series_div(TruncSeries.one(2), TruncSeries([], 2))

    @given(trunc_series())
    @settings(max_examples=30, deadline=None)
    def test_sqrt_squares_back(self, f):
        g = TruncSeries([ONE] + f.coeffs[1:], f.order)
        r = sqrt_unit(g)
        assert r * r == g

    @given(trunc_series())
    @settings(max_examples=30, deadline=None)
    def test_sqrt_matches_newton(self, f):
        g = TruncSeries([ONE] + f.coeffs[1:], f.order)
        assert sqrt_unit(g) == newton_sqrt_unit(g)

    @pytest.mark.parametrize(
        "base",
        [
            {0: ONE, 4: ALPHA.scale(-2), 8: BETA},  # curve.v_of_t
            {0: ONE, 4: ALPHA.scale(-2)},  # fgl.euler_law
            {0: ONE, 1: ALPHA.scale(-2), 2: BETA},  # legendre.generating_check
        ],
        ids=["v_of_t", "euler_law", "generating_check"],
    )
    def test_sqrt_of_program_inputs_matches_newton(self, base):
        for n in (0, 1, 4, 8, 13, 29, 40):
            f = TruncSeries.from_terms({(k,): c for k, c in base.items()}, n)
            assert sqrt_unit(f) == newton_sqrt_unit(f), n

    def test_sqrt_known_expansion(self):
        # sqrt(1 + x) = 1 + x/2 - x^2/8 + x^3/16 - ...
        f = TruncSeries([1, 1], 3)
        r = sqrt_unit(f)
        assert [c.coefficient(0, 0) for c in r.coeffs] == [
            Fraction(1),
            Fraction(1, 2),
            Fraction(-1, 8),
            Fraction(1, 16),
        ]


def test_traced_methods_in_each_class_body():
    # perfbench's tracer wraps each class's own ring methods; an inherited one
    # would fail every traced worker.
    for cls in (TruncSeries, BiTruncSeries):
        for name in ("__add__", "__sub__", "__neg__", "__mul__", "scale"):
            assert name in vars(cls), (cls.__name__, name)


def bi_from_univariate(f: TruncSeries, slot: int, order: int) -> BiTruncSeries:
    """Lift a univariate series into slot 0 (x) or 1 (y) of a bivariate one."""
    return BiTruncSeries(
        {((k, 0) if slot == 0 else (0, k)): c for (k,), c in f.terms.items()}, order
    )


class TestBivariate:
    def test_symmetric_product(self):
        x = BiTruncSeries.variable(0, 4)
        y = BiTruncSeries.variable(1, 4)
        assert (x + y) * (x + y) == x * x + (x * y).scale(2) + y * y
        assert (x * y).swap() == x * y

    def test_restrictions(self):
        x = BiTruncSeries.variable(0, 3)
        y = BiTruncSeries.variable(1, 3)
        f = x + y + x * y
        assert f.set_y() == TruncSeries.identity(3)
        assert f.set_x() == TruncSeries.identity(3)

    def test_compose_outer_matches_univariate(self):
        f = TruncSeries([0, 1, 2, 3], 3)
        g = TruncSeries.identity(3)
        bi = bi_from_univariate(g, 0, 3)
        assert bi_compose_outer(f, bi).set_y() == compose(f, g)

    def test_compose_slots(self):
        # f(x, y) = x*y under x -> 2x, y -> 3y picks up a factor 6.
        f = BiTruncSeries({(1, 1): ONE}, 4)
        gx = TruncSeries.identity(4).scale(GradedPoly.const(2))
        gy = TruncSeries.identity(4).scale(GradedPoly.const(3))
        assert bi_compose_slots(f, gx, gy) == f.scale(GradedPoly.const(6))
        # Zero slot series leave only the constant term of f.
        g = BiTruncSeries({(0, 0): BETA, (1, 2): ALPHA}, 4)
        zero = TruncSeries([], 4)
        assert bi_compose_slots(g, zero, zero) == BiTruncSeries({(0, 0): BETA}, 4)

    def test_compose_slots_refusals(self):
        f = BiTruncSeries({(1, 1): ONE}, 4)
        x = TruncSeries.identity(4)
        with pytest.raises(InputError, match="mixed truncation orders"):
            bi_compose_slots(f, x, TruncSeries.identity(3))
        with pytest.raises(InputError, match="mixed truncation orders"):
            bi_compose_slots(f, TruncSeries.identity(5), x)
        with pytest.raises(InputError, match="zero constant terms"):
            bi_compose_slots(f, x, TruncSeries([1, 1], 4))
        with pytest.raises(InputError, match="zero constant terms"):
            bi_compose_slots(f, TruncSeries([ALPHA, 1], 4), x)



def tri_mul(f, g, order):
    """The trivariate product the lifted kernel replaced, generalised to
    maps of any arity and kept as the reference: one partial sum per pair of
    terms, coefficient products by the pairwise Fraction reference."""
    out = {}
    for k1, c1 in f.items():
        for k2, c2 in g.items():
            k = tuple(a + b for a, b in zip(k1, k2))
            if sum(k) > order:
                continue
            s = out.get(k, ZERO) + pairwise_product(c1, c2)
            if s.is_zero():
                out.pop(k, None)
            else:
                out[k] = s
    return out


def small_coeffs(d: int) -> list[GradedPoly]:
    """Few distinct coefficients of Legendre degree d, so that sums cancel
    often."""
    a = ALPHA**d
    b = ALPHA ** (d - 2) * BETA if d >= 2 else a.scale(3)
    return [a, -a, b, a + b, a.scale(Fraction(1, 2))]


def graded_maps(arity, shift=0):
    """Sparse maps whose coefficient at k has Legendre degree sum(k) + shift,
    so that every product of two maps is a sum of like degrees."""
    keys = st.tuples(*[st.integers(0, 3)] * arity)
    picks = st.dictionaries(keys, st.integers(0, 4), max_size=6)
    return picks.map(
        lambda m: {k: small_coeffs(sum(k) + shift)[i] for k, i in m.items()}
    )


class TestTruncatedProduct:
    @pytest.mark.parametrize("arity", [1, 2, 3])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_reference(self, arity, data):
        a = data.draw(graded_maps(arity))
        b = data.draw(graded_maps(arity, shift=1))
        n = data.draw(st.integers(0, 3 * arity))
        got = product_step([(a, b)], n)
        assert got == tri_mul(a, b, n)
        assert all(not c.is_zero() and sum(k) <= n for k, c in got.items())

    @pytest.mark.parametrize("arity", [1, 2, 3])
    def test_cancellation_and_top_degree(self, arity):
        # (1 + x)(1 - x) = 1 - x^2: the x terms cancel and nothing is stored
        # for them; x^2 sits exactly at degree n = 2 and is dropped at n = 1.
        one, x, xx = (tuple([e] + [0] * (arity - 1)) for e in (0, 1, 2))
        plus, minus = {one: ONE, x: ONE}, {one: ONE, x: -ONE}
        assert product_step([(plus, minus)], 2) == {one: ONE, xx: -ONE}
        assert product_step([(plus, minus)], 1) == {one: ONE}
        assert product_step([(plus, minus)], 2) == tri_mul(plus, minus, 2)


def sum_reference(pairs, n):
    """The sum of `tri_mul` over the pairs, by `GradedPoly` addition."""
    out = {}
    for a, b in pairs:
        for k, c in tri_mul(a, b, n).items():
            s = out.get(k, ZERO) + c
            if s.is_zero():
                out.pop(k, None)
            else:
                out[k] = s
    return out


# Entries at and next to powers of two up to 2^200, where a digit one bit or
# one byte too narrow shows.
edge_entries = st.builds(
    lambda k, d, sign: sign * ((1 << k) + d),
    st.integers(0, 200),
    st.sampled_from([-1, 0, 1]),
    st.sampled_from([-1, 1]),
)


@st.composite
def wide_maps(draw, arity, shift):
    """A map whose coefficient at k has Legendre degree sum(k) + shift, with
    edge entries over denominators that differ within the map, and some
    stored `ZERO`s, which the kernel must skip."""
    keys = st.tuples(*[st.integers(0, 3)] * arity)
    out = {}
    for k in draw(st.lists(keys, max_size=5, unique=True)):
        d = sum(k) + shift
        size = d // 2 + 1
        vec = draw(st.lists(edge_entries | st.just(0), min_size=size, max_size=size))
        den = draw(st.sampled_from([1, 2, 3, 12, 2**64 + 1]))
        out[k] = ZERO if draw(st.integers(0, 5)) == 0 else _graded(d, den, vec)
    return out


def constant_map(entries):
    """{(i,): entries[i]} with the entries as constants."""
    return {(i,): GradedPoly.const(c) for i, c in enumerate(entries)}


class TestSumOfProducts:
    @pytest.mark.parametrize("arity", [1, 2, 3])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_reference(self, arity, data):
        # Several pairs, each repeated up to three times, so that many pairs
        # land on one key; every pair's degrees add to the same total.
        n = data.draw(st.integers(0, 3 * arity))
        total = data.draw(st.integers(0, 2))
        pairs = []
        for _ in range(data.draw(st.integers(1, 3))):
            s = data.draw(st.integers(0, total))
            a = data.draw(wide_maps(arity, s))
            b = data.draw(wide_maps(arity, total - s))
            pairs += [(a, b)] * data.draw(st.integers(1, 3))
        got = product_step(pairs, n)
        assert got == sum_reference(pairs, n)
        assert all(not c.is_zero() and sum(k) <= n for k, c in got.items())

    def test_digits_at_the_bound(self):
        # Every entry at its largest and every product aligned, so that an
        # output digit equals the bound the width must hold, from k = 0 to
        # 200: one pair of terms, many pairs on one key, long lists, many
        # terms on one key, and pairs over different denominators.
        for k in range(201):
            top = 1 << k
            one = constant_map([1])
            long = {(0,): _graded(16, 1, [top] * 9)}
            cases = [
                [(constant_map([top]), one)],
                [(constant_map([-top]), one)],
                [(constant_map([top]), one)] * 3,
                [(constant_map([top]), one)] * 257,
                [(long, {(0,): _graded(16, 1, [1] * 9)})],
                [(constant_map([top] * 5), constant_map([1] * 5))],
                [
                    (constant_map([Fraction(top, 3)]), one),
                    (constant_map([Fraction(top, 5)]), one),
                ],
                [(constant_map([Fraction(top, 3), Fraction(top, 5)]), one)],
            ]
            for pairs in cases:
                assert product_step(pairs, 8) == sum_reference(pairs, 8), k

    @pytest.mark.parametrize("arity", [2, 3])
    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_keys_at_total_degree_n(self, arity, n):
        # x_0^n and x_1 have distinct keys, which a base of n would merge.
        unit = tuple([0] * arity)
        top = tuple([n] + [0] * (arity - 1))
        x1 = tuple([0, 1] + [0] * (arity - 2))
        pairs = [({unit: ONE}, {top: ONE, x1: ONE.scale(2)})]
        assert product_step(pairs, n) == {top: ONE, x1: ONE.scale(2)}

    def test_zero_coefficients_are_skipped(self):
        assert product_step([({(0,): ZERO}, {(0,): ONE})], 3) == {}
        pairs = [({(0,): ZERO, (1,): ONE}, {(0,): ONE, (2,): ZERO})]
        assert product_step(pairs, 3) == {(1,): ONE}

    def test_mixed_degrees_raise(self):
        # Key (1,) is reached at Legendre degrees 0 and 1, within one pair or
        # across two; it raises as `_dot` does, even where one degree's
        # products cancel.
        a, b = {(0,): ONE, (1,): ALPHA}, {(0,): ONE, (1,): ONE}
        with pytest.raises(InputError):
            product_step([(a, b)], 2)
        x, y = {(1,): ONE}, {(0,): ONE}
        cancel = [(y, x), (y, {(1,): -ONE}), ({(1,): ALPHA}, y)]
        with pytest.raises(InputError):
            product_step(cancel, 2)


def dense_compose(f, g):
    """The dense Horner loop `compose` ran before it shared the sparse one of
    `bi_compose_outer`, kept as the reference: one product per coefficient."""
    n = f.order
    result = TruncSeries([], n)
    for c in reversed(f.coeffs):
        result = result * g + TruncSeries.monomial(c, 0, n)
    return result


def dense_compose_outer(f, g):
    """The Horner loop `bi_compose_outer` ran before it skipped the zero
    coefficients of f, kept as the reference: one bivariate product per
    coefficient."""
    n = g.order
    result = BiTruncSeries({}, n)
    for c in reversed(f.coeffs):
        result = result * g + BiTruncSeries({(0, 0): c}, n)
    return result


# Graded so that f(g) sums like degrees: f's coefficient at x^k has degree
# k, and g's at x^a y^b has degree a + b - 1.


OUTER_KINDS = ["gaps", "constant", "linear", "high", "top", "zero", "dense"]


def outer_series(kind, n, rng):
    """A univariate f of order n whose support has the given shape: "gaps"
    draws it from 1..n, "constant" and "linear" put 0 and 1 before a draw
    from above them, and "high" draws it from 2..n."""
    if kind == "zero":
        support = []
    elif kind == "top":
        support = [n]
    elif kind == "dense":
        support = range(n + 1)
    else:
        rest = range(2 if kind in ("linear", "high") else 1, n + 1)
        support = sorted(rng.sample(rest, min(len(rest), max(1, n // 3))))
        if kind == "constant":
            support = [0] + support
        elif kind == "linear":
            support = [1] + support
    coeffs = [rng.choice(small_coeffs(k)) for k in range(n + 1)]
    return TruncSeries([c if k in support else ZERO for k, c in enumerate(coeffs)], n)


def inner_series(kind, n, rng, arity=2, low=1):
    """A univariate or bivariate g of order n with terms of total degree
    `low` and above only (none if low > n)."""
    if arity == 1:
        keys = [(d,) for d in range(low, n + 1)]
    else:
        keys = [(a, d - a) for d in range(low, n + 1) for a in range(d + 1)]
    if kind == "sparse":
        keys = rng.sample(keys, min(3, len(keys)))
    terms = {k: rng.choice(small_coeffs(sum(k) - 1)) for k in keys}
    return (TruncSeries, BiTruncSeries)[arity - 1].from_terms(terms, n)


class TestSparseHorner:
    @pytest.mark.parametrize("n", [1, 5, 13])
    @pytest.mark.parametrize("f_kind", ["gaps", "constant", "top", "zero", "dense"])
    @pytest.mark.parametrize("g_kind", ["sparse", "dense"])
    def test_matches_dense_horner(self, n, f_kind, g_kind):
        rng = random.Random(f"{n}-{f_kind}-{g_kind}")
        f = outer_series(f_kind, n, rng)
        g = inner_series(g_kind, n, rng)
        assert bi_compose_outer(f, g) == dense_compose_outer(f, g)

    @pytest.mark.parametrize("n", [1, 5, 13])
    @pytest.mark.parametrize("f_kind", ["gaps", "constant", "top", "zero", "dense"])
    @pytest.mark.parametrize("g_kind", ["sparse", "dense"])
    def test_univariate_matches_dense_compose(self, n, f_kind, g_kind):
        rng = random.Random(f"{n}-{f_kind}-{g_kind}-x")
        f = outer_series(f_kind, n, rng)
        g = inner_series(g_kind, n, rng, arity=1)
        assert compose(f, g) == dense_compose(f, g)

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_random_supports(self, data):
        n = data.draw(st.integers(1, 9))
        support = data.draw(st.sets(st.integers(0, n), max_size=4))
        coeffs = [data.draw(st.sampled_from(small_coeffs(k))) for k in range(n + 1)]
        f = TruncSeries([c if k in support else ZERO for k, c in enumerate(coeffs)], n)
        keys = st.tuples(st.integers(0, n), st.integers(0, n)).filter(
            lambda k: 1 <= sum(k) <= n
        )
        picks = data.draw(st.dictionaries(keys, st.integers(0, 4), max_size=4))
        g = BiTruncSeries({k: small_coeffs(sum(k) - 1)[i] for k, i in picks.items()}, n)
        assert bi_compose_outer(f, g) == dense_compose_outer(f, g)
        g1 = g.set_x() + g.set_y()
        assert compose(f, g1) == dense_compose(f, g1)

    def test_odd4_logarithm(self):
        # The case it is built for: an x^{4k+1} series composed with x + y.
        f = TruncSeries([ALPHA if k % 4 == 1 else ZERO for k in range(14)], 13)
        g = BiTruncSeries.variable(0, 13) + BiTruncSeries.variable(1, 13)
        assert bi_compose_outer(f, g) == dense_compose_outer(f, g)
        g1 = TruncSeries([0, 1, 0, 0, 0, 1], 13)
        assert compose(f, g1) == dense_compose(f, g1)

    def test_rejects_constant_inner_and_mixed_orders(self):
        with pytest.raises(InputError):
            bi_compose_outer(TruncSeries.identity(3), BiTruncSeries({(0, 0): ONE}, 3))
        with pytest.raises(InputError):
            bi_compose_outer(TruncSeries.identity(3), BiTruncSeries.variable(0, 4))


def productwise_compose_outer(f, g):
    """The sparse Horner `_compose_outer` ran before its steps stayed lifted,
    kept as the reference: every product one `product_step` on term
    maps, and c_{k_i} set at the origin between products."""
    n, origin = g.order, (0,) * g.arity
    powers = {1: g.terms}

    def power(e):
        if e not in powers:
            sq = product_step([(power(e // 2), power(e // 2))], n)
            powers[e] = product_step([(sq, g.terms)], n) if e % 2 else sq
        return powers[e]

    support = sorted(k for (k,) in f.terms)
    if not support:
        return {}
    result = {origin: f.terms[(support[-1],)]}
    for lo, hi in zip(reversed(support[:-1]), reversed(support[1:])):
        result = product_step([(result, power(hi - lo))], n)
        result[origin] = f.terms[(lo,)]
    if support[0]:
        result = product_step([(result, power(support[0]))], n)
    return result


# The substitution into a law that `series` ran before `bi_compose_slots`
# read tables of univariate powers; the associativity oracle of test_fgl
# runs it on three-variable keys.
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


def productwise_substitute(law, first, second, n):
    """law(first, second) with every power, row product and sum formed on term
    maps by `product_step` and `GradedPoly` addition."""
    one = {tuple(0 for _ in next(iter(first or second), (0, 0))): ONE}
    pow1, pow2 = [one], [one]
    while len(pow1) <= max((a for a, _ in law), default=0):
        pow1.append(product_step([(pow1[-1], first)], n))
    while len(pow2) <= max((b for _, b in law), default=0):
        pow2.append(product_step([(pow2[-1], second)], n))
    pairs = [
        ({k: c * v for k, v in pow1[a].items()}, pow2[b]) for (a, b), c in law.items()
    ]
    return sum_reference(pairs, n)


@st.composite
def nonzero_maps(draw, arity, n):
    """A map with no stored zeros, a key at total degree n and keys above it,
    whose coefficients have edge entries over denominators that differ."""
    keys = st.tuples(*[st.integers(0, n + 1)] * arity)
    out = {}
    for k in [(n,) + (0,) * (arity - 1)] + draw(st.lists(keys, max_size=5)):
        d = draw(st.integers(0, 4))
        vec = draw(st.lists(edge_entries, min_size=d // 2 + 1, max_size=d // 2 + 1))
        vec[0] = vec[0] or 1
        out[k] = _graded(d, draw(st.sampled_from([1, 2, 3, 12, 2**64 + 1])), vec)
    return out


def assert_canonical(lifted, n, arity):
    """den is the lcm of the true denominators, top the largest |entry|, size
    the longest list, and the terms are sorted by total degree with no
    all-zero list."""
    den, terms, top, size = lifted
    true = _terms(lifted, n, arity).values()
    assert den == lcm(*(c.den for c in true))
    assert top == max((abs(x) for _, _, v in terms for x in v), default=0)
    assert size == max((len(v) for _, _, v in terms), default=0)
    assert [t for t, _, _ in terms] == sorted(t for t, _, _ in terms)
    assert all(any(v) for _, _, v in terms)


class TestLiftedChains:
    @pytest.mark.parametrize("arity", [1, 2, 3])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_terms_of_lift_round_trip(self, arity, data):
        n = data.draw(st.integers(0, 6))
        m = data.draw(nonzero_maps(arity, n))
        lifted = _lift(m, n)
        assert _terms(lifted, n, arity) == {k: c for k, c in m.items() if sum(k) <= n}
        assert_canonical(lifted, n, arity)

    @pytest.mark.parametrize("n", [1, 5, 13])
    @pytest.mark.parametrize("f_kind", OUTER_KINDS)
    @pytest.mark.parametrize("arity", [1, 2])
    def test_compose_outer_matches_productwise(self, n, f_kind, arity):
        rng = random.Random(f"{n}-{f_kind}-{arity}-lifted")
        f = outer_series(f_kind, n, rng)
        g = inner_series("dense", n, rng, arity)
        assert _compose_outer(f, g) == productwise_compose_outer(f, g)

    @pytest.mark.parametrize("n", [5, 13])
    @pytest.mark.parametrize("f_kind", OUTER_KINDS)
    @pytest.mark.parametrize("arity", [1, 2])
    @pytest.mark.parametrize("low", [2, 4, None], ids=["v2", "v4", "g0"])
    def test_capped_levels_match_productwise(self, n, f_kind, arity, low):
        # The oracle runs every Horner level through n; the kernel caps level
        # i at n - v*k_i for g of lowest total degree v, and drops the k_i
        # with v*k_i > n (all but k = 0 when g = 0).
        rng = random.Random(f"{n}-{f_kind}-{arity}-{low}-capped")
        f = outer_series(f_kind, n, rng)
        g = inner_series("dense", n, rng, arity, low or n + 1)
        assert _compose_outer(f, g) == productwise_compose_outer(f, g)

    @pytest.mark.parametrize("n", [1, 5, 9])
    def test_substitute_matches_productwise(self, n):
        rng = random.Random(f"{n}-substitute")
        law = inner_series("dense", n, rng).terms
        for first, second in [
            (inner_series("dense", n, rng).terms, inner_series("sparse", n, rng).terms),
            ({(1, 0, 0): ONE}, {(a, b, 0): c for (a, b), c in law.items()}),
            ({}, {}),
        ]:
            got = _substitute(law, first, second, n)
            assert got == productwise_substitute(law, first, second, n)

    def test_mixed_degrees_raise_inside_each_chain(self):
        # A key reached at Legendre degrees 0 and 1 by one product step: the
        # last Horner product of g + g^2 with g = x + alpha*x^2, the final
        # sum of x + y at y = alpha*x, and the row y + y^2 at y = g.
        g = {(1, 0): ONE, (2, 0): ALPHA}
        x, y = {(1, 0): ONE}, {(1, 0): ALPHA}
        with pytest.raises(InputError, match="mixed Legendre degrees"):
            _compose_outer(TruncSeries([0, 1, 1], 2), BiTruncSeries(g, 2))
        with pytest.raises(InputError, match="mixed Legendre degrees"):
            _substitute({(1, 0): ONE, (0, 1): ONE}, x, y, 2)
        with pytest.raises(InputError, match="mixed Legendre degrees"):
            _substitute({(0, 1): ONE, (0, 2): ONE}, x, g, 2)

    @pytest.mark.parametrize("n", [6, 13])
    def test_chain_with_content_in_every_step(self, n, monkeypatch):
        # f = sum x^k / 2^k composed with g = 2x + 2x^2, and the law
        # sum x^a y^b / 2^(a+b) at (2x, 2y): the entries of each step share a
        # factor 2 with its denominator, and pairs of one step are over
        # different denominators.  Every step's output must be canonical.
        steps = []
        real = series._product_step

        def checked(pairs, k, a, cap=None):
            out = real(pairs, k, a, cap)
            assert_canonical(out, k, a)
            steps.append(out)
            return out

        monkeypatch.setattr(series, "_product_step", checked)
        # `_substitute` above reads the kernel from this module's globals.
        monkeypatch.setitem(globals(), "_product_step", checked)
        f = TruncSeries([Fraction(1, 2**k) for k in range(n + 1)], n)
        g = TruncSeries([0, 2, 2], n)
        assert _compose_outer(f, g) == productwise_compose_outer(f, g)
        assert _compose_outer(f, g) == (
            compose(TruncSeries([1] * (n + 1), n), TruncSeries([0, 1, 1], n)).terms
        )
        law = {
            (a, b): GradedPoly.const(Fraction(1, 2 ** (a + b)))
            for a in range(n + 1)
            for b in range(n + 1 - a)
        }
        x, y = {(1, 0): GradedPoly.const(2)}, {(0, 1): GradedPoly.const(2)}
        expected = {k: ONE for k in law}
        composed = len(steps)
        assert _substitute(law, x, y, n) == expected
        assert composed and len(steps) > composed


@st.composite
def symmetric_maps(draw, n):
    """A symmetric bivariate series of order n whose coefficients at total
    degree s all have Legendre degree s + shift, so that products sum like
    degrees; the terms with a >= b are drawn and mirrored."""
    shift = draw(st.integers(0, 2))
    keys = st.tuples(st.integers(0, n), st.integers(0, n)).filter(
        lambda k: k[0] >= k[1] and sum(k) <= n
    )
    terms = {}
    for a, b in draw(st.lists(keys, max_size=8)):
        terms[a, b] = terms[b, a] = draw(graded_polys(a + b + shift))
    return BiTruncSeries.from_terms(terms, n)


def expand_elementary(g):
    """The series sum c * (x + y)^i * (xy)^j over the terms c*e1^i*e2^j of g
    (key (i + j, j)), by the binomial theorem on `GradedPoly`s: the
    definition of the coordinates, kept as the reference."""
    out = {}
    for (p, j), c in g.terms.items():
        i = p - j
        for a in range(i + 1):
            k = (a + j, i - a + j)
            out[k] = out.get(k, ZERO) + c.scale(comb(i, a))
    return BiTruncSeries.from_terms(out, g.order)


def elementary_sum(f: TruncSeries) -> BiTruncSeries:
    """f(x) + f(y) in elementary coordinates (`to_elementary`), with no
    product: sum_k f_k p_k by Waring's formula, p_0 = 2.  `series` wrote
    L(x) + L(y) so before it built the sum in x, y and converted it."""
    out = {}
    for (k,), c in f.terms.items():
        for j, w in enumerate(_waring(k) if k else [2]):
            out[k - j, j] = c.scale(w)
    return BiTruncSeries.from_terms(out, f.order)


class TestElementaryCoordinates:
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_round_trip_and_products(self, data):
        n = data.draw(st.integers(0, 12))
        f, g = data.draw(symmetric_maps(n)), data.draw(symmetric_maps(n))
        e = to_elementary(f)
        assert expand_elementary(e) == f
        assert from_elementary(e) == f
        assert all(p >= j for p, j in e.terms)
        # Keys add under products: the coordinates are a ring map.
        assert to_elementary(f * g) == e * to_elementary(g)

    @pytest.mark.parametrize("build", [fgl_phi, fgl_phiL])
    @pytest.mark.parametrize("n", [13, 21, 29])
    def test_laws_round_trip(self, build, n):
        law = build(n).law
        e = to_elementary(law)
        assert from_elementary(e) == law
        assert expand_elementary(e) == law

    def test_waring_power_sums(self):
        # x^k + y^k in elementary coordinates, for every k <= 64: Waring's
        # formula against the converted power sum, and p_0 = 2.
        n = 64
        for k in range(n + 1):
            p_k = BiTruncSeries({(k, 0): ONE}, n) + BiTruncSeries({(0, k): ONE}, n)
            waring = elementary_sum(TruncSeries.monomial(ONE, k, n))
            assert waring == to_elementary(p_k), k

    def test_power_sums_of_a_series(self):
        f = TruncSeries([ZERO, ONE, ZERO, ALPHA, BETA.scale(Fraction(1, 3))], 4)
        sum_xy = bi_from_univariate(f, 0, 4) + bi_from_univariate(f, 1, 4)
        assert from_elementary(elementary_sum(f)) == sum_xy

    def test_mixed_degrees_raise(self):
        # Terms of one total degree at two Legendre degrees have no common
        # integer list.
        f = BiTruncSeries({(2, 0): ONE, (0, 2): ONE, (1, 1): ALPHA}, 2)
        with pytest.raises(InputError, match="mixed Legendre degrees"):
            to_elementary(f)
        with pytest.raises(InputError, match="mixed Legendre degrees"):
            from_elementary(BiTruncSeries({(2, 0): ONE, (1, 1): ALPHA}, 2))
