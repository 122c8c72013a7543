"""Formal group laws: axioms, Euler's closed form, the isomorphism."""

import pytest

import taf.fgl as fgl
from taf.exact import ALPHA, InputError, ONE
from taf.fgl import (
    ConsistencyError,
    _associativity_holds,
    _log_additivity_holds,
    beta_zero_law,
    build_fgl,
    euler_law,
    fgl_phi,
    fgl_phiL,
    iso_check,
)
from taf.series import BiTruncSeries, TruncSeries, _substitute


def two_sided_associativity(law):
    """The check `_associativity_holds` made before it used commutativity,
    kept as the reference: both triple composites, compared directly."""
    n = law.order
    x, y, z = ({e: ONE} for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    f_xy = _substitute(law.terms, x, y, n)
    f_yz = _substitute(law.terms, y, z, n)
    return _substitute(law.terms, f_xy, z, n) == _substitute(law.terms, x, f_yz, n)


class TestConstruction:
    def test_additive_law(self):
        f = build_fgl(TruncSeries.identity(7))
        assert f.law.coefficient(1, 0) == 1
        assert f.law.coefficient(0, 1) == 1
        assert len(f.law.terms) == 2

    def test_rejects_unnormalized_log(self):
        with pytest.raises(InputError):
            build_fgl(TruncSeries([1, 1], 1))

    def test_axioms_enforced_at_construction(self):
        # Construction itself runs unit, commutativity, and associativity;
        # these laws exist iff the axioms hold.
        fgl_phi(13)
        fgl_phiL(13)

    @pytest.mark.parametrize("d", range(2, 10))
    def test_construction_checks_reject_a_perturbed_law(self, d):
        # F + alpha*(x^(d-1)*y + x*y^(d-1)) is still commutative and keeps the
        # unit, but it is neither associative nor linearised by the log.
        f = fgl_phiL(9)
        law = f.law + BiTruncSeries({(d - 1, 1): ALPHA}, 9)
        law = law + BiTruncSeries({(1, d - 1): ALPHA}, 9)
        assert law == law.swap()
        assert _associativity_holds(f.law) and _log_additivity_holds(f.law, f.log)
        assert not _associativity_holds(law)
        assert not _log_additivity_holds(law, f.log)

    @pytest.mark.parametrize("build", [fgl_phi, fgl_phiL])
    @pytest.mark.parametrize("n", [1, 5, 9, 13])
    def test_cyclic_associativity_matches_two_sided(self, build, n):
        law = build(n).law
        assert _associativity_holds(law) and two_sided_associativity(law)

    @pytest.mark.parametrize("d", range(2, 10))
    def test_cyclic_check_refuses_what_two_sided_refuses(self, d):
        # The commutative perturbations of the test above.
        law = fgl_phiL(9).law + BiTruncSeries({(d - 1, 1): ALPHA}, 9)
        law = law + BiTruncSeries({(1, d - 1): ALPHA}, 9)
        assert not _associativity_holds(law) and not two_sided_associativity(law)

    @pytest.mark.parametrize("d", range(3, 10))
    def test_non_commutative_law_is_refused(self, d):
        # F + alpha*x^(d-1)*y breaks commutativity, so the cyclic argument
        # does not apply; the two-sided check refuses it as well.
        law = fgl_phiL(9).law + BiTruncSeries({(d - 1, 1): ALPHA}, 9)
        assert law != law.swap()
        assert not _associativity_holds(law) and not two_sided_associativity(law)

    def test_log_linearizes_the_law(self):
        f = fgl_phiL(9)
        # F(x, 0) = x exactly.
        assert f.law.set_y() == TruncSeries.identity(9)

    def test_consistency_error_is_loud(self):
        assert issubclass(ConsistencyError, RuntimeError)


class TestMemoisation:
    def test_one_build_per_process(self, monkeypatch):
        fgl_phi.cache_clear()
        fgl_phiL.cache_clear()
        logs = []
        build = fgl.build_fgl
        monkeypatch.setattr(
            fgl, "build_fgl", lambda log: logs.append(log) or build(log)
        )
        first = fgl_phi(9)
        assert fgl_phi(9) is first
        assert len(logs) == 1
        assert fgl_phiL(9) is fgl_phiL(9)
        assert len(logs) == 2
        assert fgl_phi.__wrapped__(9).law == first.law
        assert len(logs) == 3

    def test_failed_construction_is_not_cached(self, monkeypatch):
        fgl_phi.cache_clear()
        fgl_phiL.cache_clear()
        monkeypatch.setattr(fgl, "_associativity_holds", lambda law: False)
        for _ in range(2):
            with pytest.raises(ConsistencyError, match="associativity"):
                fgl_phi(5)
        monkeypatch.undo()
        assert fgl_phi(5).order == 5


class TestEulerLaw:
    def test_degree5_part(self):
        law = euler_law(13)
        assert law.coefficient(4, 1) == -ALPHA
        assert law.coefficient(3, 2) == ALPHA.scale(-2)
        assert law.coefficient(2, 3) == ALPHA.scale(-2)
        assert law.coefficient(1, 4) == -ALPHA
        assert law.coefficient(1, 0) == 1
        assert law.coefficient(0, 1) == 1

    def test_beta_zero_law_matches_closed_form(self):
        assert beta_zero_law(13) == euler_law(13)

    def test_no_beta_survives(self):
        for c in beta_zero_law(9).terms.values():
            assert all(j == 0 for _, j in c.terms)


class TestIsomorphism:
    def test_reparametrization_intertwines_laws(self):
        assert iso_check(13)

    def test_identity_substitution_fails(self):
        # Negative control: without t(v) the two laws differ at order 5.
        assert not iso_check(13, reparametrize=False)
