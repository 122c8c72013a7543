"""Truncated-series engine: strict orders, composition, reversion, roots."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taf.exact import ALPHA, BETA, GradedPoly, InputError, ONE, ZERO
from taf.series import (
    BiTruncSeries,
    TruncSeries,
    bi_compose_outer,
    bi_compose_slots,
    bi_from_univariate,
    compose,
    integrate,
    revert,
    series_div,
    sqrt_unit,
    _truncated_product,
)
from test_exact import pairwise_product

fractions = st.fractions(min_value=-20, max_value=20, max_denominator=6)


@st.composite
def trunc_series(draw, order=6, normalized=False):
    cs = [GradedPoly.const(draw(fractions)) for _ in range(order + 1)]
    if normalized:
        cs[0], cs[1] = ZERO, ONE
    return TruncSeries(cs, order)


def newton_sqrt_unit(f):
    """The Newton iteration g <- (g + f/g)/2 that `sqrt_unit` ran before
    Miller's recurrence, doubling the correct order each step; kept as the
    reference."""
    g = TruncSeries.one(0)
    k = 0
    while k < f.order:
        k = min(2 * k + 1, f.order)
        gk = g.extend_zero(k)
        g = (gk + series_div(f.truncate(k), gk)).scale(Fraction(1, 2))
    return g


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
        assert f.extend_zero(4).order == 4
        with pytest.raises(InputError):
            f.truncate(5)
        with pytest.raises(InputError):
            f.extend_zero(1)

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



def tri_mul(f, g, order):
    """The trivariate product `_truncated_product` replaced, generalised to
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
        got = _truncated_product(a, b, n)
        assert got == tri_mul(a, b, n)
        assert all(not c.is_zero() and sum(k) <= n for k, c in got.items())

    @pytest.mark.parametrize("arity", [1, 2, 3])
    def test_cancellation_and_top_degree(self, arity):
        # (1 + x)(1 - x) = 1 - x^2: the x terms cancel and nothing is stored
        # for them; x^2 sits exactly at degree n = 2 and is dropped at n = 1.
        one, x, xx = (tuple([e] + [0] * (arity - 1)) for e in (0, 1, 2))
        plus, minus = {one: ONE, x: ONE}, {one: ONE, x: -ONE}
        assert _truncated_product(plus, minus, 2) == {one: ONE, xx: -ONE}
        assert _truncated_product(plus, minus, 1) == {one: ONE}
        assert _truncated_product(plus, minus, 2) == tri_mul(plus, minus, 2)


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


def outer_series(kind, n, rng):
    """A univariate f of order n whose support has the given shape."""
    if kind == "zero":
        support = []
    elif kind == "top":
        support = [n]
    elif kind == "dense":
        support = range(n + 1)
    else:
        support = sorted(rng.sample(range(1, n + 1), max(1, n // 3)))
        if kind == "constant":
            support = [0] + support
    coeffs = [rng.choice(small_coeffs(k)) for k in range(n + 1)]
    return TruncSeries([c if k in support else ZERO for k, c in enumerate(coeffs)], n)


def inner_series(kind, n, rng, arity=2):
    """A univariate or bivariate g of order n with no constant term."""
    if arity == 1:
        keys = [(d,) for d in range(1, n + 1)]
    else:
        keys = [(a, d - a) for d in range(1, n + 1) for a in range(d + 1)]
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
