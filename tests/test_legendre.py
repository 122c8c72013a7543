"""Legendre polynomials: closed form vs recurrence and generating function,
genus logarithm."""

from fractions import Fraction

import pytest

from taf.exact import ALPHA, BETA, GradedPoly, InputError, ONE
from taf.legendre import (
    MAX_INDEX,
    cp_coefficient,
    generating_check,
    legendre,
    log_phiL,
)


def recurrence_table(K):
    """P_0..P_K from (k+1) P_{k+1} = (2k+1) alpha P_k - k beta P_{k-1}."""
    table = [ONE, ALPHA]
    for m in range(1, K):
        nxt = ALPHA * table[m].scale(2 * m + 1) - BETA * table[m - 1].scale(m)
        table.append(nxt.scale(Fraction(1, m + 1)))
    return table[: K + 1]


class TestLegendre:
    def test_first_values(self):
        assert legendre(0) == ONE
        assert legendre(1) == ALPHA
        assert legendre(2) == GradedPoly(
            {(2, 0): Fraction(3, 2), (0, 1): Fraction(-1, 2)}
        )

    def test_p6(self):
        expected = GradedPoly(
            {
                (6, 0): Fraction(231, 16),
                (4, 1): Fraction(-315, 16),
                (2, 2): Fraction(105, 16),
                (0, 3): Fraction(-5, 16),
            }
        )
        assert legendre(6) == expected

    def test_homogeneous_of_degree_k(self):
        for k in range(12):
            p = legendre(k) if k else ONE
            assert {i + 2 * j for i, j in p.terms} == {k}
            if k:
                assert p.legendre_degree() == k

    def test_classical_specialization(self):
        # P_k(1, 1) = 1 for every k (classical P_k(1) = 1).
        for k in range(10):
            assert legendre(k).evaluate(1, 1) == 1

    def test_closed_form_matches_recurrence(self):
        for k, expected in enumerate(recurrence_table(200)):
            assert legendre(k) == expected, k

    def test_generating_function_oracle(self):
        assert generating_check(20)

    def test_negative_index_rejected(self):
        with pytest.raises(InputError):
            legendre(-1)

    def test_index_above_the_limit_rejected(self):
        with pytest.raises(InputError):
            legendre(MAX_INDEX + 1)


class TestGenus:
    def test_cp_coefficients(self):
        assert cp_coefficient(0) == ONE
        assert cp_coefficient(4) == ALPHA
        assert cp_coefficient(1).is_zero()
        assert cp_coefficient(6).is_zero()
        assert cp_coefficient(8) == legendre(2)

    def test_log_is_odd4(self):
        s = log_phiL(13)
        assert s.is_odd4()
        assert s[1] == ONE
        assert s[5] == ALPHA.scale(Fraction(1, 5))
        assert s[9] == legendre(2).scale(Fraction(1, 9))
        assert s[13] == legendre(3).scale(Fraction(1, 13))

    def test_derivative_is_generating_series_in_x4(self):
        d = log_phiL(13).differentiate()
        for k in range(13):
            assert d[k] == cp_coefficient(k)
