"""Theta expansions, anchors, numeric evaluation, automorphy."""

import cmath
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings

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
