"""Curve chart solve, logarithms, and exact automorphism identities."""

from fractions import Fraction

import pytest

from taf.curve import (
    NormalForm,
    automorphism_checks,
    curve_normal_form,
    log_phi,
    log_phi_consistency,
    on_curve_check,
    order4_check,
    smoothness_violation,
    solve_residual_check,
    solve_u_of_v,
    t_of_v,
    v_of_t,
)
from taf.exact import ALPHA, BETA, I, InputError, ONE
from taf.series import TruncSeries, compose


class TestChartSolve:
    def test_displayed_coefficients(self):
        u = solve_u_of_v(13)
        assert u[2] == ONE
        assert u[6] == ALPHA.scale(2)
        assert u[10] == ALPHA * ALPHA * 12 - BETA

    def test_only_exponents_2_mod_4(self):
        u = solve_u_of_v(13)
        for k, c in enumerate(u.coeffs):
            if k % 4 != 2:
                assert c.is_zero()

    def test_defining_equation(self):
        assert solve_residual_check(17)


class TestLogarithms:
    def test_leading_terms(self):
        s = log_phi(9)
        assert s[1] == ONE
        assert s[5] == ALPHA.scale(Fraction(6, 5))

    def test_odd4(self):
        assert log_phi(13).is_odd4()

    def test_consistency_with_legendre_log(self):
        assert log_phi_consistency(13)

    def test_reparametrization(self):
        t = t_of_v(9)
        assert t[1] == ONE
        assert t[5] == ALPHA
        # t and v are mutually inverse through the full order.
        assert compose(v_of_t(13), t_of_v(13)) == TruncSeries.identity(13)

    def test_v_of_t_denominators_are_powers_of_two(self):
        for c in v_of_t(13).coeffs:
            for coeff in c.terms.values():
                d = coeff.denominator
                assert d & (d - 1) == 0

    def test_differential_and_on_curve(self):
        assert on_curve_check(13)


class TestNormalForm:
    def test_smoothness(self):
        assert smoothness_violation(Fraction(1), Fraction(0)) == "beta"
        assert smoothness_violation(Fraction(2), Fraction(4)) == "alpha^2 - beta"
        assert smoothness_violation(Fraction(1), Fraction(2)) is None

    def test_bolza_point(self):
        nf = curve_normal_form(0, 1)
        assert nf == NormalForm("bolza", None, "Y^2 = X^5 + X")

    def test_generic_member(self):
        nf = curve_normal_form(1, 2)
        assert nf.kind == "generic"
        assert nf.j == Fraction(1, 2)

    def test_singular_rejected(self):
        with pytest.raises(InputError):
            curve_normal_form(1, 1)


class TestAutomorphisms:
    def test_all_symbolic_identities(self):
        assert automorphism_checks()

    def test_order4_needs_i(self):
        # A wrong root of unity breaks the identity (negative control).
        assert not order4_check(unit=1)
        assert not order4_check(-1)
        assert order4_check(-I)
