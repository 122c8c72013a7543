"""Ring and field axioms of the exact coefficient layer."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taf.chromatic import hazewinkel_v
from taf.exact import (
    ALPHA,
    BETA,
    DELTA_G,
    GaussianRational,
    GradedPoly,
    I,
    InputError,
    ModPoly,
    ONE,
    ZERO,
    dehom_gcd,
    is_p_integral,
    is_prime,
    reduce_mod_p,
    reduce_mod_v1,
    _dot,
    _kron_mul,
)

fractions = st.fractions(min_value=-50, max_value=50, max_denominator=12)


def pairwise_product(a: GradedPoly, b: GradedPoly) -> GradedPoly:
    """The term-by-term Fraction product that `_dot` replaced, kept as the
    reference: one partial sum per pair of terms, zeros popped as they appear."""
    out = {}
    for (i1, j1), c1 in a.terms.items():
        for (i2, j2), c2 in b.terms.items():
            k = (i1 + i2, j1 + j2)
            s = out.get(k, Fraction(0)) + c1 * c2
            if s:
                out[k] = s
            else:
                out.pop(k, None)
    return GradedPoly(out)


def schoolbook_mul(a: list, b: list, n: int) -> list:
    """The dense double loop that `_kron_mul` replaced in
    `QExpansion.__mul__` and `_divides_power_of`, kept as the reference:
    the first n coefficients of a*b, one partial sum per pair below n."""
    out = [0] * n
    for i, x in enumerate(a[:n]):
        if x:
            for j, y in enumerate(b[: n - i]):
                out[i + j] += x * y
    return out


def stepwise_reduce_mod_v1(a: ModPoly, v1: ModPoly) -> ModPoly:
    """The division loop `reduce_mod_v1` replaced, kept as the reference:
    one ModPoly multiply and subtraction per leading alpha-row of a."""
    p, d = v1.p, v1.alpha_degree()
    lead_inv = pow(v1.terms[(d, 0)], -1, p)
    rem = a
    while not rem.is_zero() and rem.alpha_degree() >= d:
        e = rem.alpha_degree()
        top = {(i - d, j): c for (i, j), c in rem.terms.items() if i == e}
        factor = ModPoly(p, {k: c * lead_inv for k, c in top.items()})
        rem = rem - factor * v1
    return rem


@st.composite
def gaussian_rationals(draw):
    return GaussianRational(draw(fractions), draw(fractions))


@st.composite
def graded_polys(draw):
    n = draw(st.integers(0, 5))
    terms = {}
    for _ in range(n):
        key = (draw(st.integers(0, 4)), draw(st.integers(0, 3)))
        terms[key] = draw(fractions)
    return GradedPoly(terms)


class TestGaussianRational:
    @given(gaussian_rationals(), gaussian_rationals(), gaussian_rationals())
    @settings(max_examples=60)
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == GaussianRational(0)

    @given(gaussian_rationals())
    @settings(max_examples=60)
    def test_inverse(self, a):
        if a.is_zero():
            with pytest.raises(ZeroDivisionError):
                a.inv()
        else:
            assert a * a.inv() == GaussianRational(1)

    @given(gaussian_rationals(), gaussian_rationals())
    @settings(max_examples=60)
    def test_conjugation_and_norm(self, a, b):
        assert (a * b).conj() == a.conj() * b.conj()
        assert (a * b).norm() == a.norm() * b.norm()
        assert a.norm() >= 0

    def test_i_squared(self):
        assert I * I == GaussianRational(-1)

    def test_gaussian_integer_predicate(self):
        assert GaussianRational(3, -2).is_gaussian_integer()
        assert not GaussianRational(Fraction(1, 2), 0).is_gaussian_integer()

    def test_immutability(self):
        with pytest.raises(AttributeError):
            I.re = Fraction(1)


class TestGradedPoly:
    @given(graded_polys(), graded_polys(), graded_polys())
    @settings(max_examples=60)
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * ONE == a
        assert a + ZERO == a
        assert a - a == ZERO

    @given(st.lists(st.tuples(graded_polys(), graded_polys()), max_size=6))
    @settings(max_examples=60)
    def test_dot_is_sum_of_pairwise_products(self, pairs):
        expected = ZERO
        for a, b in pairs:
            expected = expected + pairwise_product(a, b)
        got = _dot(pairs)
        assert got == expected
        assert all(got.terms.values())

    def test_dot_cancels_to_zero(self):
        assert _dot([(ALPHA, BETA), (BETA, -ALPHA)]).terms == {}
        assert _dot([]) == ZERO

    @given(graded_polys(), st.integers(0, 4))
    @settings(max_examples=40)
    def test_power_is_repeated_product(self, a, n):
        expected = ONE
        for _ in range(n):
            expected = expected * a
        assert a**n == expected

    @pytest.mark.parametrize("n", [0, 1, 2, 13, 54])
    @pytest.mark.parametrize(
        "g",
        [
            GradedPoly({(2, 0): Fraction(3, 2), (0, 1): Fraction(-5, 6)}),
            GradedPoly({(1, 0): Fraction(-2, 3), (0, 1): Fraction(5, 4), (0, 0): 7}),
            ZERO,
        ],
        ids=["homogeneous", "non-homogeneous", "zero"],
    )
    def test_power_matches_repeated_fraction_product(self, g, n):
        # The power runs on integer numerators; the oracle is the pairwise
        # Fraction product.
        expected = ONE
        for _ in range(n):
            expected = pairwise_product(expected, g)
        assert g**n == expected

    @pytest.mark.parametrize("g", [ALPHA, ZERO, DELTA_G])
    def test_negative_power_rejected(self, g):
        with pytest.raises(InputError):
            g ** -1

    @given(graded_polys(), fractions, fractions)
    @settings(max_examples=40)
    def test_evaluate_is_ring_map(self, a, x, y):
        b = ALPHA + BETA
        assert (a * b).evaluate(x, y) == a.evaluate(x, y) * b.evaluate(x, y)
        assert (a + b).evaluate(x, y) == a.evaluate(x, y) + b.evaluate(x, y)

    def test_zero_degree_raises(self):
        with pytest.raises(InputError):
            ZERO.legendre_degree()

    def test_grading(self):
        assert ALPHA.legendre_degree() == 1
        assert BETA.legendre_degree() == 2
        assert (ALPHA * BETA).weight() == 12
        assert (ALPHA**2 + BETA).is_homogeneous()
        assert not (ALPHA + BETA).is_homogeneous()

    def test_delta_g(self):
        assert DELTA_G.scale(256) == ALPHA * ALPHA - BETA

    def test_substitutions(self):
        p = ALPHA * BETA + ALPHA**3 + BETA**2
        assert p.set_beta_zero() == ALPHA**3
        assert p.alpha_part() == BETA**2

    @given(graded_polys())
    @settings(max_examples=40)
    def test_json_roundtrip(self, a):
        assert GradedPoly.from_json_dict(a.to_json_dict()) == a

    def test_negative_exponent_rejected(self):
        with pytest.raises(InputError):
            GradedPoly({(-1, 0): 1})


def _boundary(k: int, sign: int, offset: int) -> int:
    return sign * (2**k + offset)


# Coefficients that sit on a digit boundary (+-2^k, +-(2^k +- 1)), small
# ones, and arbitrary 200-bit ones.
kron_coeffs = st.one_of(
    st.builds(
        _boundary, st.integers(0, 200), st.sampled_from([1, -1]), st.integers(-1, 1)
    ),
    st.integers(-3, 3),
    st.integers(-(2**200), 2**200),
)


class TestKronMul:
    @given(
        st.lists(kron_coeffs, max_size=12),
        st.lists(kron_coeffs, max_size=12),
        st.integers(0, 30),
    )
    @settings(max_examples=200)
    def test_matches_schoolbook(self, a, b, n):
        # n runs both below and above len(a) + len(b) - 1.
        assert _kron_mul(a, b, n) == schoolbook_mul(a, b, n)

    @given(
        st.lists(st.integers(-(2**70), -1), min_size=1, max_size=12),
        st.lists(st.integers(-(2**70), -1), min_size=1, max_size=12),
    )
    @settings(max_examples=60)
    def test_all_negative(self, a, b):
        n = len(a) + len(b) - 1
        assert _kron_mul(a, b, n) == schoolbook_mul(a, b, n)

    @pytest.mark.parametrize("k", [0, 1, 7, 8, 15, 16, 31, 32, 63, 64, 199, 200])
    def test_digit_boundaries(self, k):
        values = [_boundary(k, s, d) for s in (1, -1) for d in (-1, 0, 1)]
        for x in values:
            for y in values:
                for a, b in (([x], [y]), ([x, y, x], [y, x]), ([x] * 5, [-y] * 4)):
                    n = len(a) + len(b) - 1
                    assert _kron_mul(a, b, n) == schoolbook_mul(a, b, n)

    def test_zero_and_length_one(self):
        assert _kron_mul([0, 0, 0], [5, -7], 4) == [0, 0, 0, 0]
        assert _kron_mul([], [5], 2) == [0, 0]
        assert _kron_mul([3], [], 1) == [0]
        assert _kron_mul([1, 2], [3], 0) == []
        assert _kron_mul([-6], [7], 1) == [-42]
        assert _kron_mul([-6], [7], 3) == [-42, 0, 0]
        assert _kron_mul([1, 1], [1, -1], 2) == [1, 0]


class TestPrimality:
    def test_small_values(self):
        primes = [n for n in range(60) if is_prime(n)]
        assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


class TestModLayer:
    def test_p_integrality(self):
        p = GradedPoly({(1, 0): Fraction(1, 5)})
        assert not is_p_integral(p, 5)
        assert is_p_integral(p, 13)
        with pytest.raises(InputError):
            reduce_mod_p(p, 5)

    def test_reduce_mod_p(self):
        p = GradedPoly({(2, 0): Fraction(1, 2), (0, 1): 7})
        r = reduce_mod_p(p, 5)
        assert r == ModPoly(5, {(2, 0): 3, (0, 1): 2})

    def test_reduce_mod_v1_euclidean(self):
        # Divide a^2*b + a + b by v1 = a over F_5: remainder b.
        p = ModPoly(5, {(2, 1): 1, (1, 0): 1, (0, 1): 1})
        v1 = ModPoly(5, {(1, 0): 1})
        assert reduce_mod_v1(p, v1) == ModPoly(5, {(0, 1): 1})

    @given(st.data())
    @settings(max_examples=80)
    def test_reduce_mod_v1_matches_stepwise_division(self, data):
        p = data.draw(st.sampled_from([2, 3, 5, 13]))
        d = data.draw(st.integers(0, 4))
        keys = st.tuples(st.integers(0, 9), st.integers(0, 4))
        coeffs = st.integers(0, p - 1)
        a = ModPoly(p, data.draw(st.dictionaries(keys, coeffs, max_size=12)))
        lower = st.tuples(st.integers(0, max(d - 1, 0)), st.integers(0, 4))
        tail = data.draw(st.dictionaries(lower, coeffs, max_size=6))
        tail = {k: c for k, c in tail.items() if k[0] < d}
        v1 = ModPoly(p, {**tail, (d, 0): data.draw(st.integers(1, p - 1))})
        r = reduce_mod_v1(a, v1)
        assert r == stepwise_reduce_mod_v1(a, v1)
        assert r.is_zero() or r.alpha_degree() < d

    @pytest.mark.parametrize("p", [5, 13, 29, 53])
    def test_reduce_mod_v1_on_hazewinkel_generators(self, p):
        v1, v2 = (reduce_mod_p(hazewinkel_v(n, p), p) for n in (1, 2))
        for a in (v2, v1 * v2 + v2, v1):
            assert reduce_mod_v1(a, v1) == stepwise_reduce_mod_v1(a, v1)

    def test_reduce_mod_v1_rejects_nonscalar_lead(self):
        v1 = ModPoly(5, {(1, 1): 1})
        with pytest.raises(InputError):
            reduce_mod_v1(ModPoly(5, {(2, 0): 1}), v1)

    def test_dehom_gcd(self):
        # (x^2 - 1)*x and (x - 1) share the factor x - 1 over F_5.
        a = ModPoly(5, {(3, 0): 1, (1, 0): 4})
        b = ModPoly(5, {(1, 0): 1, (0, 0): 4})
        assert dehom_gcd(a, b) == [4, 1]

    def test_power_is_reduction_of_exact_power(self):
        g = GradedPoly({(1, 0): Fraction(3, 2), (0, 1): -4, (0, 0): 1})
        a = reduce_mod_p(g, 7)
        for n in (0, 1, 2, 7, 10):
            assert a**n == reduce_mod_p(g**n, 7)
        with pytest.raises(InputError):
            a**-1

    def test_mixed_characteristic_rejected(self):
        with pytest.raises(InputError):
            ModPoly(5, {(0, 0): 1}) + ModPoly(13, {(0, 0): 1})
