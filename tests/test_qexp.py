"""Theta expansions, anchors, numeric evaluation, automorphy."""

import cmath
import math
from fractions import Fraction

import pytest

from taf.exact import InputError
from taf.qexp import (
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


class TestQExpansion:
    def test_arithmetic(self):
        a = QExpansion([1, 2, 3], 2)
        b = QExpansion([0, 1], 2)
        assert a + b == QExpansion([1, 3, 3], 2)
        assert a * b == QExpansion([0, 1, 2], 2)
        assert a**2 == a * a
        with pytest.raises(InputError):
            a**-1

    def test_mixed_orders_rejected(self):
        with pytest.raises(InputError):
            QExpansion([1], 1) + QExpansion([1], 2)

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

    @pytest.mark.parametrize("p", [5, 13])
    def test_p_integral_expansions(self, p):
        assert genus_qexp_consistency(p, 40)
