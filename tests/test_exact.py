"""Ring and field axioms of the exact coefficient layer."""

from fractions import Fraction
from math import isqrt, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taf.chromatic import ell, hazewinkel_v
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
    require_prime,
    _dot,
    _kron_mul,
    _miller_power,
    _poly_mod,
    _power,
)
from taf.legendre import legendre

fractions = st.fractions(min_value=-50, max_value=50, max_denominator=12)


def sparse_int_mul(a: dict, b: dict) -> dict:
    """The sparse product `GradedPoly.__pow__` and `ModPoly.__mul__` ran
    before they convolved integer lists, kept as the reference: the product
    of two {(i, j): int} polynomials, one partial sum per pair of terms,
    zeros dropped."""
    out: dict[tuple[int, int], int] = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            k = (i1 + i2, j1 + j2)
            out[k] = out.get(k, 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


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


def alpha_degree(g) -> int:
    """The highest power of alpha in a nonzero GradedPoly or ModPoly."""
    return g.legendre_degree() - 2 * next(j for j, c in enumerate(g.vec) if c)


def evaluate(g: GradedPoly, a: Fraction, b: Fraction) -> Fraction:
    """g at alpha = a, beta = b."""
    return sum((c * a**i * b**j for (i, j), c in g.terms.items()), Fraction(0))


def stepwise_reduce_mod_v1(a: ModPoly, v1: ModPoly) -> ModPoly:
    """The division loop `reduce_mod_v1` replaced, kept as the reference:
    one ModPoly multiply and subtraction per leading alpha-row of a."""
    p, d = v1.p, alpha_degree(v1)
    lead_inv = pow(v1.terms[(d, 0)], -1, p)
    rem = a
    while not rem.is_zero() and alpha_degree(rem) >= d:
        e = alpha_degree(rem)
        top = {(i - d, j): c for (i, j), c in rem.terms.items() if i == e}
        factor = ModPoly(p, {k: c * lead_inv for k, c in top.items()})
        rem = rem - factor * v1
    return rem


def from_json_dict(d: dict) -> GradedPoly:
    """The GradedPoly a `to_json_dict` payload describes."""
    rows = ((t["i"], t["j"], int(t["num"]), int(t["den"])) for t in d["terms"])
    return GradedPoly({(i, j): Fraction(num, den) for i, j, num, den in rows})


def fraction_json_dict(g: GradedPoly) -> dict:
    """The payload `to_json_dict` built from `Fraction` terms before
    `_rows`, kept as the reference."""
    return {
        "terms": [
            {"i": i, "j": j, "num": str(c.numerator), "den": str(c.denominator)}
            for (i, j), c in sorted(g.terms.items())
        ]
    }


def fraction_str(g: GradedPoly) -> str:
    """The `str` rendered from `Fraction` terms before `_rows`, kept as the
    reference."""
    parts = []
    for (i, j), c in g.terms.items():
        powers = (("a", i), ("b", j))
        m = "*".join(v if e == 1 else f"{v}^{e}" for v, e in powers if e)
        if not m:
            parts.append(str(c))
        elif c in (1, -1):
            parts.append(m if c == 1 else f"-{m}")
        else:
            parts.append(f"{c}*{m}")
    return " + ".join(parts).replace("+ -", "- ") or "0"


@st.composite
def two_adic_polys(
    draw, es=st.integers(0, 2400), ms=st.sampled_from([1, 29, 29**3])
):
    """A GradedPoly over den = 2^e * m with e up to 2,400 bits (v_2 at p = 97
    has a 2,349-bit den) and m in {1, 29, 29^3}, or drawn from the given
    strategies.  Entries have either sign and up to 4 factors of 29 and
    e + 8 of 2, so some have more of either than den and some share only
    part of den."""
    e = draw(es)
    m = draw(ms)
    d = draw(st.integers(0, 12))
    entry = st.builds(
        lambda sign, u, a, k: (sign * u * 29**a) << k,
        st.sampled_from([1, -1]),
        st.integers(0, 2**70),
        st.integers(0, 4),
        st.integers(0, e + 8),
    )
    vec = draw(st.lists(entry, min_size=d // 2 + 1, max_size=d // 2 + 1))
    return GradedPoly({(d - 2 * j, j): Fraction(c, m << e) for j, c in enumerate(vec)})


@st.composite
def gaussian_rationals(draw):
    return GaussianRational(draw(fractions), draw(fractions))


@st.composite
def graded_polys(draw, degree=None):
    """A homogeneous polynomial: a random Legendre degree d (or the given
    one), then a random list of d//2 + 1 Fractions, the coefficients of
    alpha^(d-2j) beta^j."""
    d = draw(st.integers(0, 12)) if degree is None else degree
    vec = draw(st.lists(fractions, min_size=d // 2 + 1, max_size=d // 2 + 1))
    return GradedPoly({(d - 2 * j, j): c for j, c in enumerate(vec)})


@st.composite
def product_pairs(draw):
    """Up to six pairs (a, b) whose products all have one Legendre degree,
    at most 20, so that both factors can have many entries."""
    total = draw(st.integers(0, 20))
    splits = draw(st.lists(st.integers(0, total), max_size=6))
    return [(draw(graded_polys(d)), draw(graded_polys(total - d))) for d in splits]


@st.composite
def mod_polys(draw, p, max_degree):
    """A homogeneous polynomial over F_p of Legendre degree <= max_degree."""
    d = draw(st.integers(0, max_degree))
    size = d // 2 + 1
    vec = draw(st.lists(st.integers(0, p - 1), min_size=size, max_size=size))
    return ModPoly(p, {(d - 2 * j, j): c for j, c in enumerate(vec)})


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
    @given(
        st.integers(0, 8).flatmap(lambda d: st.tuples(*[graded_polys(d)] * 3)),
        graded_polys(),
    )
    @settings(max_examples=60)
    def test_ring_axioms(self, abc, e):
        # a, b, c share a degree, so that they can be added; e has any.
        a, b, c = abc
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * e) * c == a * (e * c)
        assert e * (b + c) == e * b + e * c
        assert a * ONE == a
        assert a + ZERO == a
        assert a - a == ZERO

    @given(product_pairs())
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

    def test_dot_skips_zero_factors_and_rejects_mixed_degrees(self):
        assert _dot([(ALPHA, ZERO), (ZERO, ONE), (BETA, ONE)]) == BETA
        with pytest.raises(InputError):
            _dot([(ALPHA, ALPHA), (ALPHA, ONE)])

    @given(graded_polys(), st.integers(0, 4))
    @settings(max_examples=40)
    def test_power_is_repeated_product(self, a, n):
        expected = ONE
        for _ in range(n):
            expected = expected * a
        assert a**n == expected

    @given(graded_polys(), st.integers(0, 9))
    @settings(max_examples=60)
    def test_power_matches_sparse_int_power(self, g, n):
        # The power before the integer lists: numerators over the common
        # denominator, multiplied as sparse maps, divided by den^n at the end.
        terms = g.terms
        den = lcm(*(c.denominator for c in terms.values()))
        base = {k: c.numerator * (den // c.denominator) for k, c in terms.items()}
        num = {(0, 0): 1}
        for _ in range(n):
            num = sparse_int_mul(num, base)
        assert g**n == GradedPoly({k: Fraction(c, den**n) for k, c in num.items()})

    @pytest.mark.parametrize("n", [0, 1, 2, 13, 54])
    @pytest.mark.parametrize(
        "terms",
        [
            {(2, 0): Fraction(3, 2), (0, 1): Fraction(-5, 6)},
            {(1, 0): Fraction(-2, 3), (0, 1): Fraction(5, 4), (0, 0): 7},
            {},
        ],
        ids=["homogeneous", "non-homogeneous", "zero"],
    )
    def test_power_matches_repeated_fraction_product(self, terms, n):
        # The power runs on integer lists; the oracle is the pairwise
        # Fraction product.  A non-homogeneous term map is refused.
        if len({i + 2 * j for i, j in terms}) > 1:
            with pytest.raises(InputError):
                GradedPoly(terms)
            return
        g = GradedPoly(terms)
        expected = ONE
        for _ in range(n):
            expected = pairwise_product(expected, g)
        assert g**n == expected

    @pytest.mark.parametrize("g", [ALPHA, ZERO, DELTA_G])
    def test_negative_power_rejected(self, g):
        with pytest.raises(InputError):
            g ** -1

    @given(
        st.integers(0, 8).flatmap(lambda d: st.tuples(*[graded_polys(d)] * 2)),
        graded_polys(),
        fractions,
        fractions,
    )
    @settings(max_examples=40)
    def test_evaluate_is_ring_map(self, ab, e, x, y):
        a, b = ab
        assert evaluate(a * e, x, y) == evaluate(a, x, y) * evaluate(e, x, y)
        assert evaluate(a + b, x, y) == evaluate(a, x, y) + evaluate(b, x, y)

    def test_zero_degree_raises(self):
        with pytest.raises(InputError):
            ZERO.legendre_degree()

    def test_grading(self):
        assert ALPHA.legendre_degree() == 1
        assert BETA.legendre_degree() == 2
        assert (ALPHA**2 + BETA).legendre_degree() == 2
        with pytest.raises(InputError):
            ALPHA + BETA

    def test_non_homogeneous_input_rejected(self):
        with pytest.raises(InputError):
            GradedPoly({(1, 0): 1, (0, 0): 1})
        for bad in (lambda: ALPHA + 1, lambda: BETA - ALPHA, lambda: 1 - ALPHA):
            with pytest.raises(InputError):
                bad()
        assert ALPHA + ZERO == ALPHA and ZERO - BETA == -BETA
        # A map whose mixed-degree terms are all zero is homogeneous.
        assert GradedPoly({(1, 0): 2, (0, 0): 0}) == ALPHA.scale(2)

    def test_fields_are_canonical(self):
        # One layout per polynomial: den is the least common denominator.
        g = GradedPoly({(2, 0): Fraction(1, 2), (0, 1): Fraction(1, 3)})
        assert (g.deg, g.den, g.vec) == (2, 6, [3, 2])
        h = g.scale(6) - ALPHA**2 * 3
        assert (h.deg, h.den, h.vec) == (2, 1, [0, 2])
        assert h == BETA.scale(2) and hash(h) == hash(BETA.scale(2))
        assert (ZERO.deg, ZERO.den, ZERO.vec) == (None, 1, [])

    def test_delta_g(self):
        assert DELTA_G.scale(256) == ALPHA * ALPHA - BETA

    def test_substitutions(self):
        p = ALPHA**2 * BETA + ALPHA**4 + BETA**2
        assert p.set_beta_zero() == ALPHA**4
        assert p.alpha_part() == BETA**2
        assert (ALPHA * BETA).alpha_part() == ZERO

    @given(graded_polys())
    @settings(max_examples=40)
    def test_json_roundtrip(self, a):
        assert from_json_dict(a.to_json_dict()) == a

    @given(two_adic_polys())
    @settings(max_examples=150)
    def test_rendering_matches_fractions(self, g):
        assert g.to_json_dict() == fraction_json_dict(g)
        assert str(g) == fraction_str(g)

    @pytest.mark.parametrize(
        "es,ms",
        [
            (st.just(0), st.just(1)),
            (st.just(0), st.sampled_from([29, 29**3])),
            (st.integers(1, 2400), st.just(1)),
            (st.integers(1, 2400), st.sampled_from([29, 29**3])),
        ],
        ids=["den-1", "odd", "power-of-2", "mixed"],
    )
    @given(data=st.data())
    @settings(max_examples=40)
    def test_rows_match_fractions_for_each_kind_of_den(self, es, ms, data):
        # `_rows` skips the shift where den is odd and the gcd where den is a
        # power of two, and both where the entries already share no factor.
        g = data.draw(two_adic_polys(es, ms))
        assert g.to_json_dict() == fraction_json_dict(g)
        assert str(g) == fraction_str(g)

    @pytest.mark.parametrize(
        "make",
        [
            pytest.param(lambda: ZERO, id="zero"),
            pytest.param(lambda: -ONE, id="minus-one"),
            pytest.param(lambda: DELTA_G, id="delta-g"),
            # den 2^5 * 29^3; the entries' gcds with den are 2^5 (of 2^9),
            # 29^2, 2 * 29^3 and 1.
            pytest.param(
                lambda: GradedPoly(
                    {
                        (6, 0): Fraction(2**9, 2**5 * 29**3),
                        (4, 1): Fraction(-3 * 29**2, 2**5 * 29**3),
                        (2, 2): Fraction(2 * 29**3, 2**5 * 29**3),
                        (0, 3): Fraction(7, 2**5 * 29**3),
                    }
                ),
                id="den-2^5-29^3",
            ),
            pytest.param(lambda: legendre(50), id="P_50"),
            pytest.param(lambda: ell(2, 29), id="ell_2-29"),
            pytest.param(lambda: hazewinkel_v(2, 97), id="v_2-97"),
        ],
    )
    def test_program_values_render_as_fractions(self, make):
        g = make()
        assert g.to_json_dict() == fraction_json_dict(g)
        assert str(g) == fraction_str(g)

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


def full_mul(a: list[int], b: list[int]) -> list[int]:
    """The whole product of two dense integer polynomials."""
    return _kron_mul(a, b, len(a) + len(b) - 1)


def square_and_multiply_power(f: list[int], n: int) -> list[int]:
    """The power `GradedPoly.__pow__` ran before J.C.P. Miller's recurrence,
    kept as the reference: square-and-multiply on `_kron_mul`."""
    return _power([1], f, n, full_mul)


@st.composite
def power_bases(draw):
    """An integer list: up to two leading and two trailing zeros around a
    body of one to four entries, each zero or a `kron_coeffs` value."""
    body = draw(st.lists(st.one_of(st.just(0), kron_coeffs), min_size=1, max_size=4))
    lead, trail = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    return [0] * lead + body + [0] * trail


class TestMillerPower:
    # The reference, not the recurrence, takes up to seconds on the largest
    # cases (200-bit entries to the 100th power), hence no deadline.
    @given(power_bases(), st.integers(0, 100))
    @settings(max_examples=60, deadline=None)
    def test_matches_square_and_multiply(self, f, n):
        assert _miller_power(f, n) == square_and_multiply_power(f, n)

    @given(
        st.integers(0, 4),
        kron_coeffs.filter(bool),
        st.integers(0, 4),
        st.integers(0, 100),
    )
    @settings(max_examples=40, deadline=None)
    def test_single_nonzero_entry(self, lead, c, trail, n):
        f = [0] * lead + [c] + [0] * trail
        assert _miller_power(f, n) == square_and_multiply_power(f, n)

    @pytest.mark.parametrize("n", [0, 1, 2, 5])
    @pytest.mark.parametrize("f", [[], [0], [0, 0, 0], [2, 0, -3], [0, -1, 0, 1, 0]])
    def test_small_cases(self, f, n):
        assert _miller_power(f, n) == square_and_multiply_power(f, n)

    def test_zero_and_negative_powers(self):
        # GradedPoly's negative powers: TestGradedPoly.test_negative_power_rejected.
        assert ZERO**0 == ONE
        assert ZERO**5 == ZERO
        with pytest.raises(InputError):
            _miller_power([1, 2], -3)


class TestPrimality:
    def test_small_values(self):
        primes = [n for n in range(60) if is_prime(n)]
        assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]

    def test_agrees_with_trial_division(self):
        def by_trial_division(n):
            return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))

        assert all(is_prime(n) == by_trial_division(n) for n in range(10**5))

    @pytest.mark.parametrize(
        "n",
        [
            561,  # a Carmichael number
            3825123056546413051,  # a strong pseudoprime to the bases 2..23
            318665857834031151167461,  # ... and to every base 2..37
        ],
    )
    def test_strong_pseudoprimes_are_composite(self, n):
        assert not is_prime(n)

    def test_large_prime(self):
        assert is_prime(2**61 - 1)

    @pytest.mark.parametrize("n", [3317044064679887385961981, 2**127 - 1])
    def test_refused_beyond_exact_range(self, n):
        with pytest.raises(InputError):
            require_prime(n)


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
        # Divide a^4 + a^2*b by v1 = a^2 - b over F_5: a^2 = b, so the
        # remainder is 2*b^2; by v1 = a it is b^2.
        p = ModPoly(5, {(4, 0): 1, (2, 1): 1, (0, 2): 1})
        v1 = ModPoly(5, {(2, 0): 1, (0, 1): -1})
        assert reduce_mod_v1(p - ModPoly(5, {(0, 2): 1}), v1) == ModPoly(5, {(0, 2): 2})
        assert reduce_mod_v1(p, ModPoly(5, {(1, 0): 1})) == ModPoly(5, {(0, 2): 1})

    @given(st.data())
    @settings(max_examples=80)
    def test_reduce_mod_v1_matches_stepwise_division(self, data):
        p = data.draw(st.sampled_from([2, 3, 5, 13]))
        a = data.draw(mod_polys(p, 18))
        v1 = data.draw(mod_polys(p, 8))
        if v1.is_zero() or (v1.deg, 0) not in v1.terms:
            # Zero, or an alpha-leading coefficient with a beta factor.
            with pytest.raises(InputError):
                reduce_mod_v1(a, v1)
            return
        r = reduce_mod_v1(a, v1)
        assert r == stepwise_reduce_mod_v1(a, v1)
        assert r.is_zero() or alpha_degree(r) < v1.deg

    @pytest.mark.parametrize("p", [5, 13, 29, 53])
    def test_reduce_mod_v1_on_hazewinkel_generators(self, p):
        v1, v2 = (reduce_mod_p(hazewinkel_v(n, p), p) for n in (1, 2))
        shift = reduce_mod_p(ALPHA**v1.deg, p)
        for a in (v2, v1 * v2 + shift * v2, v1):
            assert reduce_mod_v1(a, v1) == stepwise_reduce_mod_v1(a, v1)

    def test_reduce_mod_v1_rejects_nonscalar_lead(self):
        v1 = ModPoly(5, {(1, 1): 1})
        with pytest.raises(InputError):
            reduce_mod_v1(ModPoly(5, {(2, 0): 1}), v1)

    def test_poly_mod_reduces_its_input(self):
        # x^3 + 5 = x^3 mod (5, x + 1) is -1 = 4; unreduced entries that are
        # never touched by the division are reduced too.
        assert _poly_mod([5, 0, 0, 1], [1, 1], 5) == [4]
        assert _poly_mod([10, 7], [0, 0, 1], 5) == [0, 2]
        assert _poly_mod([5, 0, 5], [0, 1], 5) == []

    def test_dehom_gcd(self):
        # At beta = 1, (x^2 - 1)*x and (x^2 - 1)*(x^2 + 4) share the factor
        # x^2 - 1 over F_5.
        a = ModPoly(5, {(3, 0): 1, (1, 1): 4})
        b = ModPoly(5, {(4, 0): 1, (2, 1): 3, (0, 2): 1})
        assert dehom_gcd(a, b) == [4, 0, 1]
        assert dehom_gcd(a, ModPoly(5, {(2, 0): 1, (0, 1): 1})) == [1]

    def test_power_is_reduction_of_exact_power(self):
        g = GradedPoly({(3, 0): Fraction(3, 2), (1, 1): -4})
        a = reduce_mod_p(g, 7)
        for n in (0, 1, 2, 7, 10):
            assert a**n == reduce_mod_p(g**n, 7)
        with pytest.raises(InputError):
            a**-1

    @given(st.data())
    @settings(max_examples=60)
    def test_mul_matches_sparse_int_mul(self, data):
        p = data.draw(st.sampled_from([2, 5, 13, 97]))
        a, b = data.draw(mod_polys(p, 12)), data.draw(mod_polys(p, 12))
        assert a * b == ModPoly(p, sparse_int_mul(a.terms, b.terms))

    def test_mixed_characteristic_rejected(self):
        with pytest.raises(InputError):
            ModPoly(5, {(0, 0): 1}) + ModPoly(13, {(0, 0): 1})

    def test_non_homogeneous_input_rejected(self):
        with pytest.raises(InputError):
            ModPoly(5, {(1, 0): 1, (0, 0): 1})
        with pytest.raises(InputError):
            ModPoly(5, {(1, 0): 1}) + ModPoly(5, {(0, 1): 1})
        # Terms that vanish mod p do not count.
        assert ModPoly(5, {(1, 0): 1, (0, 0): 5}) == ModPoly(5, {(1, 0): 1})
