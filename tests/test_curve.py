"""Curve chart solve, logarithms, and exact automorphism identities."""

from fractions import Fraction
from math import prod

import pytest

from taf.arithgroups import GaussianRational, I
from taf.curve import (
    _EQUATION,
    inversion_check,
    log_phi,
    log_phi_consistency,
    order4_check,
    solve_u_of_v,
    t_of_v,
)
from taf.exact import ALPHA, BETA, InputError, ONE
from taf.series import TruncSeries, compose, integrate, revert, series_div, sqrt_unit


def quintic_value(u):
    """u - 2*alpha*u^3 + beta*u^5 evaluated on a series."""
    u2 = u * u
    u3 = u2 * u
    u5 = u3 * u2
    return u + u3.scale(ALPHA.scale(-2)) + u5.scale(BETA)


def quintic_derivative(u):
    """1 - 6*alpha*u^2 + 5*beta*u^4 evaluated on a series."""
    u2 = u * u
    return (
        TruncSeries.one(u.order)
        + u2.scale(ALPHA.scale(-6))
        + (u2 * u2).scale(BETA.scale(5))
    )


def newton_u_of_v(N):
    """The Newton iteration on the quintic, seeded at u = v^2, that
    `solve_u_of_v` ran before it became a reversion; kept as the reference."""
    v_squared = TruncSeries.monomial(ONE, 2, N)
    u = v_squared
    while not (residual := quintic_value(u) - v_squared).is_zero():
        u = u - series_div(residual, quintic_derivative(u))
    return u


def v_of_t(N):
    """v(t) = t * (1 - 2*alpha*t^4 + beta*t^8)^(1/2) through order N, whose
    reversion `t_of_v` computed before it was read off the chart solve; kept
    as the reference."""
    base = {(0,): ONE, (4,): ALPHA.scale(-2), (8,): BETA}
    root = sqrt_unit(TruncSeries.from_terms(base, N - 1))
    return TruncSeries.from_terms({(k + 1,): c for (k,), c in root.terms.items()}, N)


def integrated_log_phi(N):
    """The curve logarithm as `log_phi` computed it before it was read off
    u(v): the integral of 1/(1 - 6*alpha*u^2 + 5*beta*u^4); the reference."""
    if N < 3:  # log_phi = x + O(x^5)
        return TruncSeries.identity(N)
    u = newton_u_of_v(N - 1)
    return integrate(series_div(TruncSeries.one(N - 1), quintic_derivative(u)))


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
        # Substituting u(v) back into the chart equation vanishes through v^17.
        u = solve_u_of_v(17)
        assert quintic_value(u) == TruncSeries.monomial(ONE, 2, 17)

    def test_matches_newton_on_the_quintic(self):
        for N in range(2, 42):
            assert solve_u_of_v(N) == newton_u_of_v(N), N
        with pytest.raises(InputError):
            solve_u_of_v(1)

    def test_the_chart_is_solved_once_per_order(self):
        # log_phi and t_of_v each read u = solve_u_of_v(22), and the
        # consistency check runs both again: one solve in all.
        solve_u_of_v.cache_clear()
        log_phi(21)
        t_of_v(21)
        assert log_phi_consistency(21)
        assert solve_u_of_v.cache_info().misses == 1
        u = solve_u_of_v.__wrapped__(22)
        assert u == solve_u_of_v(22) and u is not solve_u_of_v(22)

    def test_a_refused_order_raises_on_every_call(self):
        for _ in range(2):
            with pytest.raises(InputError):
                solve_u_of_v(1)


class TestLogarithms:
    def test_leading_terms(self):
        s = log_phi(9)
        assert s[1] == ONE
        assert s[5] == ALPHA.scale(Fraction(6, 5))

    def test_odd4(self):
        assert all(k % 4 == 1 for (k,) in log_phi(13).terms)

    def test_low_orders_are_truncations(self):
        # log_phi = x + O(x^5): orders 1 and 2 need no chart solve.
        full = log_phi(9)
        for N in range(1, 9):
            assert log_phi(N) == full.truncate(N)

    def test_matches_the_integral_of_the_differential(self):
        for N in range(1, 42):
            assert log_phi(N) == integrated_log_phi(N), N

    def test_consistency_with_legendre_log(self):
        assert log_phi_consistency(13)

    def test_reparametrization(self):
        t = t_of_v(9)
        assert t[1] == ONE
        assert t[5] == ALPHA
        # t and v are mutually inverse through the full order.
        assert compose(v_of_t(13), t_of_v(13)) == TruncSeries.identity(13)

    @pytest.mark.parametrize("N", [1, 2, 3, 5, 13, 21, 29, 45, 64])
    def test_t_of_v_is_the_reversion_of_v_of_t(self, N):
        # t = v * sqrt(u(v)/v^2) from the chart solve, against a second
        # Lagrange reversion, of v(t).
        assert t_of_v(N) == revert(v_of_t(N))

    def test_t_of_v_reverts_only_the_quintic(self, monkeypatch):
        # The chart solve's reversion, of w(u) = u - 2*alpha*u^3 + beta*u^5
        # through order (21 + 1) // 2, is the only one t_of_v runs.
        import taf.curve as curve

        calls = []
        monkeypatch.setattr(curve, "revert", lambda f: calls.append(f) or revert(f))
        solve_u_of_v.cache_clear()  # an order solved before reverts nothing
        t_of_v(21)
        quintic = {(1,): ONE, (3,): ALPHA.scale(-2), (5,): BETA}
        assert calls == [TruncSeries.from_terms(quintic, 11)]

    def test_t_of_v_rejects_order_zero(self):
        with pytest.raises(InputError):
            t_of_v(0)

    def test_v_of_t_denominators_are_powers_of_two(self):
        for c in v_of_t(13).coeffs:
            for coeff in c.terms.values():
                d = coeff.denominator
                assert d & (d - 1) == 0

    def test_differential_and_on_curve(self):
        # (u, v) = (t^2, v(t)) satisfies v^2 = u(1 - 2*alpha*u^2 + beta*u^4)
        # exactly through t^26.
        v = v_of_t(26)
        assert v * v == quintic_value(TruncSeries.monomial(ONE, 2, 26))


class TestAutomorphisms:
    def test_all_symbolic_identities(self):
        assert order4_check()
        assert inversion_check()

    def test_order4_needs_i(self):
        # y -> i^e*y: the units i and -i = i^3 keep the equation up to sign;
        # 1 = i^0 and -1 = i^2 break it (negative controls).
        assert order4_check(1) and order4_check(3)
        assert not order4_check(0) and not order4_check(2)

    @pytest.mark.parametrize("e", range(8))
    def test_order4_matches_the_map_in_q_i(self, e):
        # The map applied in Q(i), as the check ran before it read exponents.
        unit = prod([I] * e, start=GaussianRational(1))
        image = [prod([unit] * b, start=(-1) ** a) for a, b in _EQUATION]
        assert order4_check(e) is all(c == -1 for c in image)
