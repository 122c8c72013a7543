"""Ring and field axioms of the exact coefficient layer."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
)

fractions = st.fractions(min_value=-50, max_value=50, max_denominator=12)


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
        # The power runs on integer numerators; the oracle is Fraction `*`.
        expected = ONE
        for _ in range(n):
            expected = expected * g
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
        assert (ALPHA * BETA).topological_degree() == 24
        assert (ALPHA**2 + BETA).is_homogeneous()
        assert not (ALPHA + BETA).is_homogeneous()

    def test_delta_g(self):
        assert DELTA_G.scale(256) == ALPHA * ALPHA - BETA

    def test_substitutions(self):
        p = ALPHA * BETA + ALPHA**3 + BETA**2
        assert p.set_beta_zero() == ALPHA**3
        assert p.alpha_part() == BETA**2
        assert p.dehomogenize() == {1: Fraction(1), 3: Fraction(1), 0: Fraction(1)}

    @given(graded_polys())
    @settings(max_examples=40)
    def test_json_roundtrip(self, a):
        assert GradedPoly.from_json_dict(a.to_json_dict()) == a

    def test_negative_exponent_rejected(self):
        with pytest.raises(InputError):
            GradedPoly({(-1, 0): 1})


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
