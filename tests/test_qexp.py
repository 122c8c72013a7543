"""Theta expansions, anchors, numeric evaluation, automorphy."""

import cmath
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taf.chromatic import UnsupportedPrimeError, hazewinkel_v
from taf.exact import ZERO, GradedPoly, InputError, _kron_mul
from taf import qexp
from taf.legendre import legendre
from taf.qexp import (
    GeneratorForms,
    QExpansion,
    anchor_check,
    eval_form,
    forms,
    genus_qexp_consistency,
    integrality_and_identity,
    j_invariant,
    substitute_forms,
    theta_fourth_powers,
    transform_check,
)

from test_exact import graded_polys, schoolbook_mul


def schoolbook_qmul(x: QExpansion, y: QExpansion) -> QExpansion:
    """The Fraction double loop `QExpansion.__mul__` used to run, kept as
    the reference for the packed product."""
    x._check(y)
    return QExpansion(schoolbook_mul(x.coeffs, y.coeffs, x.order + 1), x.order)


def termwise_substitute(poly: GradedPoly, f: GeneratorForms, K: int) -> QExpansion:
    """The term-by-term evaluation `substitute_forms` replaced, on
    schoolbook products: one alpha^i * beta^j product per term."""
    one = QExpansion([1], K)
    acc = QExpansion([0], K)
    for (i, j), c in poly.terms.items():
        term = one
        for _ in range(i):
            term = schoolbook_qmul(term, f.alpha)
        for _ in range(j):
            term = schoolbook_qmul(term, f.beta)
        acc = acc + term.scale(c)
    return acc


def product_theta_fourth_powers(K: int) -> tuple[QExpansion, QExpansion]:
    """(theta2^4, theta4^4) through s^K as fourth powers of the theta series,
    16*s*(sum_{n>=0} s^(n(n+1)))^4 and (1 + 2*sum_{n>=1} (-1)^n s^(n^2))^4:
    the construction `theta_fourth_powers` replaced, kept as its oracle."""
    tri = [0] * K  # through s^(K-1); the outer factor s shifts by 1
    n = 0
    while n * (n + 1) < K:
        tri[n * (n + 1)] += 1
        n += 1
    tri_q = QExpansion(tri, K - 1) ** 4
    theta2_4 = QExpansion([0] + [16 * c for c in tri_q.vec], K)
    sq = [1] + [0] * K
    n = 1
    while n * n <= K:
        sq[n * n] += 2 * (-1) ** n
        n += 1
    return theta2_4, QExpansion(sq, K) ** 4


def derived_forms(K: int) -> GeneratorForms:
    """The five forms from the product construction, alpha, beta and Delta
    derived from delta' and eps' as `forms` did before it built them in
    X = theta2^4 and Y = theta4^4, kept as its oracle."""
    t2, t4 = product_theta_fourth_powers(K)
    delta_prime = (t2 - t4).scale(Fraction(1, 8))
    eps_prime = (t2 * t4).scale(Fraction(-1, 16))
    d2 = delta_prime * delta_prime
    alpha = (eps_prime - d2.scale(Fraction(1, 2))).scale(-128)
    beta = (d2 * d2).scale(4096)
    delta_g = (eps_prime * (eps_prime - d2)).scale(64)
    return GeneratorForms(delta_prime, eps_prime, alpha, beta, delta_g)


class TestQExpansion:
    def test_arithmetic(self):
        a = QExpansion([1, 2, 3], 2)
        b = QExpansion([0, 1], 2)
        assert a + b == QExpansion([1, 3, 3], 2)
        assert a * b == QExpansion([0, 1, 2], 2)
        assert a**2 == a * a
        with pytest.raises(InputError):
            a**-1

    def test_index_outside_the_order_raises(self):
        f = forms(10)
        assert f.alpha[10] == f.alpha.coeffs[10]
        for k in (-1, 11):
            with pytest.raises(IndexError):
                f.alpha[k]

    def test_mixed_orders_rejected(self):
        with pytest.raises(InputError):
            QExpansion([1], 1) + QExpansion([1], 2)
        with pytest.raises(InputError):
            QExpansion([1], 1) * QExpansion([1], 2)

    def test_fraction_product_matches_schoolbook(self):
        a = QExpansion([Fraction(1, 6), Fraction(-3, 4), 0, Fraction(5, 9)], 5)
        b = QExpansion([Fraction(-2, 3), 7, Fraction(1, 10)], 5)
        assert a * b == schoolbook_qmul(a, b)
        assert a * a == schoolbook_qmul(a, a)
        assert a * QExpansion([0], 5) == QExpansion([0], 5)

    def test_integrality_predicates(self):
        f = QExpansion([Fraction(1, 2), 1], 1)
        assert not f.has_integer_coeffs()
        assert f.is_p_integral(5)
        assert not f.is_p_integral(2)


# Coefficients as callers pass them: ints, and Fractions built from pairs not
# in lowest terms (Fraction(5, 10) is 1/2).
rationals = st.one_of(
    st.integers(-40, 40),
    st.builds(Fraction, st.integers(-40, 40), st.integers(1, 60)),
)
rational_lists = st.lists(rationals, max_size=8)


def fraction_reference(coeffs: list, order: int) -> list[Fraction]:
    """The coefficients of s^0..s^order as a plain Fraction list."""
    cs = [Fraction(c) for c in coeffs[: order + 1]]
    return cs + [Fraction(0)] * (order + 1 - len(cs))


def assert_canonical(x: QExpansion) -> None:
    """den > 0, gcd(den, *vec) = 1, and order + 1 integer entries."""
    assert x.den > 0 and math.gcd(x.den, *x.vec) == 1
    assert len(x.vec) == x.order + 1 and all(type(c) is int for c in x.vec)


class TestLayout:
    """(order, den, vec) against a Fraction-list reference for every
    operation and predicate."""

    @given(rational_lists, rational_lists, st.integers(0, 7), rationals)
    @settings(max_examples=200, deadline=None)
    def test_operations_match_fraction_lists(self, a, b, order, c):
        x, y = QExpansion(a, order), QExpansion(b, order)
        ra, rb = fraction_reference(a, order), fraction_reference(b, order)
        cases = [
            (x, ra),
            (x + y, [u + v for u, v in zip(ra, rb)]),
            (x - y, [u - v for u, v in zip(ra, rb)]),
            (-x, [-u for u in ra]),
            (x.scale(c), [c * u for u in ra]),
            (x * y, schoolbook_mul(ra, rb, order + 1)),
        ]
        for got, ref in cases:
            assert_canonical(got)
            assert got.coeffs == ref
            assert [got[k] for k in range(order + 1)] == ref
            assert all(type(got[k]) is Fraction for k in range(order + 1))
            assert got.is_zero() == (not any(ref))
            assert got.has_integer_coeffs() == all(u.denominator == 1 for u in ref)
            for p in (2, 3, 5, 7):
                assert got.is_p_integral(p) == all(u.denominator % p for u in ref)
        assert x * y == schoolbook_qmul(x, y)

    @given(rational_lists, rational_lists, st.integers(0, 7), st.integers(1, 12))
    @settings(max_examples=200, deadline=None)
    def test_equal_exactly_when_fields_are(self, a, b, order, m):
        x, y = QExpansion(a, order), QExpansion(b, order)
        same_fields = (x.den, x.vec) == (y.den, y.vec)
        assert (x == y) == same_fields == (x.coeffs == y.coeffs)
        # The same series from an integer list over a denominator that is
        # not in lowest terms, and from Fractions over a denominator.
        lifted = QExpansion([m * c for c in x.vec], order, m * x.den)
        over_m = QExpansion(a, order, m)
        assert lifted == x and hash(lifted) == hash(x)
        assert over_m.coeffs == [u / m for u in fraction_reference(a, order)]
        for z in (lifted, over_m):
            assert_canonical(z)

    def test_zero_has_denominator_one(self):
        z = QExpansion([Fraction(0, 7), 0], 3)
        assert (z.den, z.vec) == (1, [0, 0, 0, 0])
        assert z.is_zero() and z == QExpansion([], 3)


def divisor_sums(K: int, f) -> list[int]:
    """[sum of f(d) over the divisors d of n, for n = 0..K] by a sieve; the
    entry at n = 0 is 0."""
    out = [0] * (K + 1)
    for d in range(1, K + 1):
        fd = f(d)
        for n in range(d, K + 1, d):
            out[n] += fd
    return out


# Every order from the smallest valid one to 200, and two large ones.
ORACLE_ORDERS = [*range(1, 201), 300, 1000]


class TestThetaOracle:
    """The closed forms against the product construction, and Jacobi's
    divisor sums and the Eisenstein series of alpha against both, sieved
    here apart from `theta_fourth_powers`, through K = 1000."""

    K = 1000

    def test_jacobi_theta2_fourth_power(self):
        # theta2^4 = 16 * sum_{n odd} sigma(n) s^n
        K = self.K
        sigma = divisor_sums(K, lambda d: d)
        expected = QExpansion([16 * sigma[n] if n % 2 else 0 for n in range(K + 1)], K)
        assert product_theta_fourth_powers(K)[0] == expected
        assert theta_fourth_powers(K)[0] == expected

    def test_jacobi_theta4_fourth_power(self):
        # theta4^4 = 1 + sum (-1)^n r_4(n) s^n, r_4(n) = 8 * sum_{d | n, 4 !| d} d
        K = self.K
        r4 = divisor_sums(K, lambda d: 8 * d if d % 4 else 0)
        expected = QExpansion([1] + [(-1) ** n * r4[n] for n in range(1, K + 1)], K)
        assert product_theta_fourth_powers(K)[1] == expected
        assert theta_fourth_powers(K)[1] == expected

    def test_theta_fourth_powers_match_products(self):
        for K in ORACLE_ORDERS:
            assert theta_fourth_powers(K) == product_theta_fourth_powers(K), K

    def test_forms_match_derivation(self):
        for K in ORACLE_ORDERS[1:]:
            assert forms.__wrapped__(K) == derived_forms(K), K

    def test_eisenstein_alpha(self):
        # alpha = (E4(tau/2) - 14 E4(tau) + 16 E4(2 tau)) / 3, where
        # E4(tau/2) = 1 + 240 * sum sigma_3(n) s^n, E4(tau) the same in s^2
        # and E4(2 tau) in s^4.
        K = self.K
        sigma3 = divisor_sums(K, lambda d: d**3)

        def e4(step):
            return [1] + [
                0 if n % step else 240 * sigma3[n // step] for n in range(1, K + 1)
            ]

        expected = [
            Fraction(x - 14 * y + 16 * z, 3) for x, y, z in zip(e4(1), e4(2), e4(4))
        ]
        assert forms(K).alpha == QExpansion(expected, K) == derived_forms(K).alpha


class TestThetaSeries:
    def test_theta2_leading(self):
        t2, _ = theta_fourth_powers(10)
        # 16*s*(1 + s^2 + ...)^4 = 16s + 64s^3 + ...
        assert t2[0] == 0
        assert t2[1] == 16
        assert t2[2] == 0
        assert t2[3] == 64

    def test_theta4_leading(self):
        _, t4 = theta_fourth_powers(10)
        # (1 - 2s + 2s^4 - ...)^4 = 1 - 8s + 24s^2 - 32s^3 + ...
        assert t4[0] == 1
        assert t4[1] == -8
        assert t4[2] == 24
        assert t4[3] == -32

    def test_numeric_theta_crosscheck(self):
        # Compare the exact series against direct theta sums at tau = 2i.
        tau = 2j
        s = cmath.exp(1j * cmath.pi * tau)
        th2 = 2 * sum(s ** ((n + 0.5) ** 2) for n in range(40))
        th4 = 1 + 2 * sum((-1) ** n * s ** (n * n) for n in range(1, 40))
        t2, t4 = theta_fourth_powers(60)
        v2 = sum(complex(c) * s**k for k, c in enumerate(t2.coeffs))
        v4 = sum(complex(c) * s**k for k, c in enumerate(t4.coeffs))
        assert abs(v2 - th2**4) < 1e-12
        assert abs(v4 - th4**4) < 1e-12


class TestForms:
    def test_anchors(self):
        assert anchor_check(50)

    def test_integrality_and_identity(self):
        assert integrality_and_identity(50)

    def test_wrong_theta_constant_fails_the_gate(self, monkeypatch):
        # Negative control: with theta2^4 halved both checks fail, although
        # alpha^2 - beta - 2^8*Delta still vanishes, as it does for any
        # theta2^4 and theta4^4.  `forms` looks `theta_fourth_powers` up when
        # it runs.  Other tests share the cached forms: clear it around.
        real = theta_fourth_powers
        monkeypatch.setattr(
            qexp,
            "theta_fourth_powers",
            lambda K: (real(K)[0].scale(Fraction(1, 2)), real(K)[1]),
        )
        forms.cache_clear()
        try:
            f = forms(30)
            assert (f.alpha * f.alpha - f.beta - f.delta_g.scale(256)).is_zero()
            assert not anchor_check(30)
            assert not integrality_and_identity(30)
        finally:
            forms.cache_clear()

    def test_beta_is_fourth_power(self):
        f = forms(30)
        d8 = f.delta_prime.scale(8)
        assert f.beta == (d8 * d8 * d8 * d8).scale(Fraction(1, 1))

    @pytest.mark.parametrize("K", [2, 3, 60])
    def test_forms_match_schoolbook_products(self, K, monkeypatch):
        got = forms.__wrapped__(K)
        with monkeypatch.context() as m:
            m.setattr(QExpansion, "__mul__", schoolbook_qmul)
            expected = forms.__wrapped__(K)
        assert got == expected

    def test_alpha_first_coefficients(self):
        a = forms(10).alpha
        assert a[0] == 1


class TestEvaluation:
    def test_rejects_lower_half_plane(self):
        with pytest.raises(InputError):
            eval_form(forms(10).alpha, complex(0, -1))

    def test_trunc_bound_small_high_in_plane(self):
        r = eval_form(forms(40).alpha, 3j)
        assert r.trunc_bound < 1e-10

    def test_zeros(self):
        a = eval_form(forms(40).alpha, complex(1, math.sqrt(2)))
        b = eval_form(forms(40).beta, 1j)
        assert abs(a.value) < 1e-6
        assert abs(b.value) < 1e-6

    def test_transform_residuals(self):
        r = transform_check(2j, K=60)
        assert r.residual_c4 < 1e-6
        assert r.residual_s < 1e-6

    def test_j_invariant_pole_and_value(self):
        assert j_invariant(complex(1, math.sqrt(2))) is None
        assert abs(j_invariant(1j)) < 1e-12  # beta vanishes at i


class TestGenusConsistency:
    def test_substitute_constant(self):
        from taf.exact import GradedPoly

        assert substitute_forms(GradedPoly.const(3), 10) == QExpansion([3], 10)

    def test_substitute_zero(self):
        assert substitute_forms(ZERO, 10) == QExpansion([0], 10)

    @given(graded_polys())
    @settings(max_examples=40, deadline=None)
    def test_substitute_matches_termwise(self, poly):
        K = 12
        assert substitute_forms(poly, K) == termwise_substitute(poly, forms(K), K)

    def test_substitute_on_fractional_forms(self, monkeypatch):
        # alpha and beta have integer coefficients; give them denominators
        # so that every scaling in the integer Horner scheme is exercised.
        K = 8
        f = forms(K)
        shifted = GeneratorForms(
            f.delta_prime,
            f.eps_prime,
            f.alpha.scale(Fraction(1, 3)),
            (f.beta + QExpansion([0, Fraction(1, 2)], K)).scale(Fraction(5, 4)),
            f.delta_g,
        )
        monkeypatch.setattr(qexp, "forms", lambda K: shifted)
        for poly in (
            GradedPoly({(5, 0): Fraction(2, 7), (3, 1): -1, (1, 2): Fraction(3, 5)}),
            GradedPoly({(4, 0): 4, (2, 1): Fraction(2, 7), (0, 2): -1}),
            GradedPoly({(2, 1): Fraction(3, 5)}),
        ):
            assert substitute_forms(poly, K) == termwise_substitute(poly, shifted, K)

    @pytest.mark.parametrize("k,products", [(5, 5), (6, 6)])
    def test_substitute_builds_only_used_powers(self, monkeypatch, k, products):
        # P_k has the terms alpha^(k-2j) beta^j, j <= k/2: the table needs
        # alpha^2 and the k/2 - 1 (or (k-1)/2) steps of one parity, then
        # Horner makes one product per power of beta.
        K = 12
        f = forms(K)
        calls = []

        def counted(a, b, n):
            calls.append(n)
            return _kron_mul(a, b, n)

        monkeypatch.setattr(qexp, "_kron_mul", counted)
        poly = legendre(k)
        assert substitute_forms(poly, K) == termwise_substitute(poly, f, K)
        assert len(calls) == products

    @pytest.mark.parametrize("p", [5, 13, 17, 29])
    def test_p_integral_expansions(self, p):
        assert genus_qexp_consistency(p, 40)
        # The check can fail: v_1 / p is not p-integral at the cusp.
        v1_over_p = hazewinkel_v(1, p).scale(Fraction(1, p))
        assert not substitute_forms(v1_over_p, 40).is_p_integral(p)

    @pytest.mark.parametrize("p", [3, 7])
    def test_non_split_primes_refused(self, p):
        with pytest.raises(UnsupportedPrimeError):
            genus_qexp_consistency(p, 40)
