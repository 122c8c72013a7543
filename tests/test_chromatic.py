"""Hazewinkel generators, integrality, congruences, Landweber ladder."""

import itertools
from fractions import Fraction
from math import comb

import pytest

from taf.chromatic import (
    UnsupportedPrimeError,
    _hazewinkel_pass,
    binomial_valuation,
    cor1_check,
    cor2_check,
    ell,
    hazewinkel_v,
    key_lemma_check,
    landweber_check,
    _divides_power_of,
)
from taf.cli import main
from taf.exact import (
    ALPHA,
    GradedPoly,
    InputError,
    _graded,
    _poly_mod,
    _power,
    is_p_integral,
)
from taf.legendre import legendre
from test_exact import full_mul


class TestGenerators:
    def test_v1_closed_form(self):
        for p in (5, 13, 17, 29):
            assert hazewinkel_v(1, p) == legendre((p - 1) // 4)

    def test_v1_at_5_is_alpha(self):
        assert hazewinkel_v(1, 5) == ALPHA

    def test_v2_closed_form(self):
        for p in (5, 13):
            lp = legendre((p - 1) // 4)
            lp2 = legendre((p * p - 1) // 4)
            expected = (lp2 - lp ** (p + 1)).scale(Fraction(1, p))
            assert hazewinkel_v(2, p) == expected

    def test_recursion_identity(self):
        # p*ell_2 = v_2 + ell_1 * v_1^p, rearranged.
        p = 13
        lhs = ell(2, p).scale(p)
        rhs = hazewinkel_v(2, p) + ell(1, p) * hazewinkel_v(1, p) ** p
        assert lhs == rhs

    def test_split_prime_required(self):
        for bad in (3, 7, 11):
            with pytest.raises(UnsupportedPrimeError):
                hazewinkel_v(1, bad)

    def test_ell_not_integral_but_v_is(self):
        p = 5
        assert not is_p_integral(ell(1, p).scale(Fraction(1, p)), p)
        assert is_p_integral(hazewinkel_v(2, p), p)


class TestPowerKernel:
    @pytest.mark.parametrize(
        "p, n", [(p, 2) for p in (5, 13, 17, 29, 37, 41, 53)] + [(5, 3), (13, 3)]
    )
    def test_generators_match_square_and_multiply(self, p, n, monkeypatch):
        # v_1..v_n at the ladder primes, against the same recursion with
        # `GradedPoly.__pow__` replaced by the square-and-multiply power it
        # ran before J.C.P. Miller's recurrence.
        fast = _hazewinkel_pass(n, p)[0]
        calls = []

        def square_and_multiply(g, e):
            calls.append(e)
            vec = _power([1], g.vec, e, full_mul)
            return _graded((g.deg or 0) * e, g.den**e, vec)

        monkeypatch.setattr(GradedPoly, "__pow__", square_and_multiply)
        # The cached pass would never reach the patched power: run it afresh.
        assert _hazewinkel_pass.__wrapped__(n, p)[0] == fast
        assert calls


LADDER_PRIMES = (5, 13, 17, 29, 37, 41, 53)


class TestPassCache:
    # `_hazewinkel_pass` runs once per process for each (n, p).

    @pytest.mark.parametrize("p, n", [(p, 2) for p in LADDER_PRIMES] + [(5, 3)])
    def test_cached_pass_equals_a_fresh_one(self, p, n):
        assert _hazewinkel_pass(n, p) == _hazewinkel_pass.__wrapped__(n, p)

    @pytest.mark.parametrize("p", LADDER_PRIMES)
    def test_reports_hand_out_fresh_lists(self, p):
        vs, ells = _hazewinkel_pass.__wrapped__(2, p)
        report = key_lemma_check(p)
        report.v[0] = ALPHA
        report.ell.clear()
        ladder = landweber_check(p)
        assert ladder.v == list(vs) and ladder.ell == list(ells)
        ladder.v.append(ALPHA)
        ladder.ell[1] = ALPHA
        again = key_lemma_check(p)
        assert again.v == list(vs) and again.ell == list(ells)
        assert hazewinkel_v(2, p) == vs[1]

    @pytest.mark.parametrize("p", (5, 13, 29, 37, 53))
    def test_ladder_cor2_and_key_lemma_share_one_pass(self, p):
        _hazewinkel_pass.cache_clear()
        landweber_check(p)
        cor2_check(p)
        key_lemma_check(p, 2)
        info = _hazewinkel_pass.cache_info()
        assert (info.misses, info.hits) == (1, 2)

    def test_ladder_jobs_fit_the_cache(self):
        # landweber at seven primes, cor2 at five, vgens -p 5 -n 3 and cor1:
        # eight distinct passes, each run once, and none evicted by a second
        # round.
        _hazewinkel_pass.cache_clear()
        for _ in range(2):
            for p in LADDER_PRIMES:
                landweber_check(p)
            for p in (5, 13, 29, 37, 53):
                cor2_check(p)
            key_lemma_check(5, 3)
            assert cor1_check()
            assert _hazewinkel_pass.cache_info().misses == 8

    def test_selftest_runs_one_pass_per_prime(self, capsys):
        # The closed forms and the q-expansion check read v_1 and v_2 from
        # the n = 2 pass; a pass of their own for v_1 would make this 7.
        # The five: n = 2 at p = 5, 13, 29 and 37, and n = 3 at p = 5.
        _hazewinkel_pass.cache_clear()
        assert main(["selftest"]) == 0
        capsys.readouterr()
        assert _hazewinkel_pass.cache_info().misses == 5

    def test_refused_inputs_raise_on_every_call(self):
        landweber_check(17)
        for _ in range(3):
            with pytest.raises(UnsupportedPrimeError):
                key_lemma_check(7)  # 7 = 3 (mod 4): inert
            with pytest.raises(UnsupportedPrimeError):
                _hazewinkel_pass(2, 11)
            with pytest.raises(InputError):
                key_lemma_check(5, 0)
            with pytest.raises(InputError):
                hazewinkel_v(0, 13)
            with pytest.raises(UnsupportedPrimeError):
                cor2_check(17)  # 17 = 1 (mod 8)


class TestIntegrality:
    def test_desk_scale_key_lemma(self):
        for p in (5, 13, 29, 37):
            assert key_lemma_check(p, 2).all_integral()

    def test_height_three_at_5(self):
        assert key_lemma_check(5, 3).all_integral()


class TestValuation:
    def test_binomial_valuation_matches_direct(self):
        for p in (5, 13):
            for n, k in [(10, 4), (30, 15), (126, 63)]:
                c = comb(n, k)
                direct = 0
                while c % p == 0:
                    c //= p
                    direct += 1
                assert binomial_valuation(p, n, k) == direct


class TestCorollaries:
    def test_cor1(self):
        assert cor1_check()

    @pytest.mark.parametrize("p", [5, 13, 29, 37])
    def test_cor2(self, p):
        r = cor2_check(p)
        assert r.valuation == 1
        assert r.alpha_divides_v1
        assert r.congruence_mod_alpha
        assert r.v2_mod_p_v1_nonzero
        assert r.passes()

    def test_cor2_rejects_wrong_class(self):
        with pytest.raises(UnsupportedPrimeError):
            cor2_check(17)  # 17 = 1 (mod 8)


class TestLandweber:
    @pytest.mark.parametrize("p", [5, 13])
    def test_ladder(self, p):
        r = landweber_check(p).landweber
        assert r.v1_nonzero_mod_p
        assert r.v2_nonzero_mod_p_v1
        assert r.height2_cozero_check

    def test_report_serializes(self):
        d = landweber_check(5).to_json_dict()
        assert d["prime"] == 5
        assert d["landweber"]["v1_nonzero_mod_p"] is True

    def test_divides_power_of_matches_direct_power(self):
        # Step (c) calls this only for a non-constant gcd(v_1, v_2), which no
        # split p <= 97 has; check it against (x^2 - 1)^n from the binomial
        # theorem for every monic g of degree 1 to 3 over F_5.
        p = 5
        seen = set()
        for deg in (1, 2, 3):
            for low in itertools.product(range(p), repeat=deg):
                g = list(low) + [1]
                for n in range(1, 5):
                    direct = [0] * (2 * n + 1)
                    for k in range(n + 1):
                        direct[2 * k] = comb(n, k) * (-1) ** (n - k) % p
                    expected = not _poly_mod(direct, g, p)
                    assert _divides_power_of(g, [p - 1, 0, 1], n, p) == expected
                    seen.add(expected)
        assert seen == {True, False}
