"""Formal group laws: axioms, Euler's closed form, the isomorphism."""

import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import taf.fgl as fgl
import taf.series as series
from taf.exact import ALPHA, InputError, ONE, _dot
from taf.fgl import (
    ConsistencyError,
    _additivity_discrepancy,
    beta_zero_law,
    build_fgl,
    euler_law,
    fgl_phi,
    fgl_phiL,
    iso_check,
)
from taf.curve import log_phi, t_of_v
from taf.legendre import log_phiL
from taf.series import (
    BiTruncSeries,
    TruncSeries,
    _substitute,
    bi_compose_outer,
    bi_compose_slots,
    bi_from_univariate,
    revert,
)
from test_exact import graded_polys
from test_series import tri_mul


def grouped_product(a, b, n):
    """The truncated product before `_sum_of_products`: the pairs of terms
    grouped by key, and one `_dot` per key."""
    groups = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            k = tuple(map(operator.add, ka, kb))
            if sum(k) <= n:
                groups.setdefault(k, []).append((ca, cb))
    return {k: c for k, pairs in groups.items() if not (c := _dot(pairs)).is_zero()}


def rowwise_substitute(law, first, second, n):
    """The substitution `_substitute` made before its rows became sums of
    products, kept as a reference that shares no code with the kernel: each
    row formed by one `_dot` per key and added into the output as soon as it
    is formed."""
    rows = {}
    for (a, b), c in law.items():
        rows.setdefault(a, []).append((b, c))
    one = {tuple(0 for _ in next(iter(first or second), (0, 0))): ONE}
    pow1, pow2 = [one], [one]
    while len(pow1) <= max(rows, default=0):
        pow1.append(grouped_product(pow1[-1], first, n))
    while len(pow2) <= max((b for _, b in law), default=0):
        pow2.append(grouped_product(pow2[-1], second, n))
    out = {}
    for a, row in rows.items():
        groups = {}
        for b, c in row:
            for k, v in pow2[b].items():
                groups.setdefault(k, []).append((c, v))
        inner = {k: _dot(pairs) for k, pairs in groups.items()}
        for k, v in grouped_product(pow1[a], inner, n).items():
            out[k] = out[k] + v if k in out else v
    return {k: v for k, v in out.items() if not v.is_zero()}


def _associativity_holds(law):
    """F(F(x, y), z) = F(x, F(y, z)) through total degree N in three
    variables: the oracle of the construction, which proves associativity
    from log additivity instead of checking it.

    With G(x, y, z) = F(F(x, y), z) and F commutative,
    F(x, F(y, z)) = F(F(y, z), x) = G(y, z, x); so, given commutativity,
    F is associative iff G equals its cyclic shift, which takes the term
    c*x^i*y^j*z^k of G to c*x^k*y^i*z^j.  A non-commutative F is refused.
    """
    if law != law.swap():
        return False
    f_xy = {(a, b, 0): c for (a, b), c in law.terms.items()}
    g = _substitute(law.terms, f_xy, {(0, 0, 1): ONE}, law.order)
    return g == {(k, i, j): c for (i, j, k), c in g.items()}


def two_sided_associativity(law):
    """The check `_associativity_holds` made before it used commutativity,
    kept as the reference: both triple composites, compared directly."""
    n = law.order
    x, y, z = ({e: ONE} for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    f_xy = rowwise_substitute(law.terms, x, y, n)
    f_yz = rowwise_substitute(law.terms, y, z, n)
    lhs = rowwise_substitute(law.terms, f_xy, z, n)
    return lhs == rowwise_substitute(law.terms, x, f_yz, n)


def perturbation(d: int, mirror: bool) -> BiTruncSeries:
    """alpha^k * x^(t-s) * y^s, and its mirror x^s * y^(t-s) if asked, with
    t = 4k + 1: d = 2..5 give s = 1..4 at t = 5, and d = 6..9 give s = 1..4
    at t = 9.  A law's coefficient at total degree t has Legendre degree
    (t - 1)/4, so the perturbed law mixes no degrees: its only fault is the
    perturbation."""
    k, s = (d - 2) // 4 + 1, (d - 2) % 4 + 1
    t = 4 * k + 1
    terms = {(t - s, s): ALPHA**k}
    if mirror:
        terms[(s, t - s)] = ALPHA**k
    return BiTruncSeries(terms, 9)


def perturb_construction(monkeypatch, extra):
    """Make the construction's recurrence return the law plus the series
    `extra`; the checks are left alone."""
    recurrence = fgl._law_from_differential
    monkeypatch.setattr(
        fgl, "_law_from_differential", lambda w, n: recurrence(w, n) + extra
    )


def oracle_law(log):
    """The construction before the recurrence, kept as the oracle: revert the
    logarithm (Newton), then compose exp with L(x) + L(y) by sparse Horner."""
    n = log.order
    lsum = bi_from_univariate(log, 0, n) + bi_from_univariate(log, 1, n)
    return bi_compose_outer(revert(log), lsum)


@st.composite
def normalized_logs(draw):
    """x + sum_k c_k x^(s*k + 1) through order n, for a step s of 1, 2 or 4
    and c_k homogeneous of Legendre degree e*k: the grading that makes the
    law's coefficient at total degree t homogeneous of degree e*(t - 1)/s."""
    s = draw(st.sampled_from([1, 2, 4]))
    e = draw(st.integers(0, 2))
    n = draw(st.integers(3, 13 if s == 4 else 8))
    coeffs = {(1,): ONE}
    for k in range(1, (n - 1) // s + 1):
        coeffs[(s * k + 1,)] = draw(graded_polys(e * k))
    return TruncSeries.from_terms(coeffs, n)


class TestConstruction:
    def test_additive_law(self):
        f = build_fgl(TruncSeries.identity(7))
        assert f.law.coefficient(1, 0) == 1
        assert f.law.coefficient(0, 1) == 1
        assert len(f.law.terms) == 2

    def test_rejects_unnormalized_log(self):
        with pytest.raises(InputError):
            build_fgl(TruncSeries([1, 1], 1))
        with pytest.raises(InputError):
            build_fgl(TruncSeries([0], 0))

    def test_axioms_enforced_at_construction(self):
        # Construction itself runs unit, commutativity, and log additivity;
        # these laws exist iff the checks hold.
        fgl_phi(13)
        fgl_phiL(13)

    @pytest.mark.parametrize("build", [fgl_phi, fgl_phiL])
    @pytest.mark.parametrize("n", [13, 21, 29])
    def test_built_laws_are_associative(self, build, n):
        # The construction proves associativity from additivity; the
        # three-variable oracle confirms it.
        assert _associativity_holds(build(n).law)

    @pytest.mark.parametrize("d", range(2, 10))
    def test_build_refuses_a_perturbed_law(self, d, fresh_laws, monkeypatch):
        # The construction's recurrence returns F plus a mirrored
        # perturbation: commutative, with the unit, but not associative, and
        # the build must refuse it at the additivity check.
        good = fgl_phiL(9)
        fgl_phiL.cache_clear()
        perturb_construction(monkeypatch, perturbation(d, mirror=True))
        with pytest.raises(ConsistencyError, match="additivity failed: first at"):
            build_fgl(good.log)
        with pytest.raises(ConsistencyError, match="additivity"):
            fgl_phiL(9)
        assert fgl_phiL.cache_info().currsize == 0
        law = good.law + perturbation(d, mirror=True)
        assert law == law.swap() and law.set_y() == good.law.set_y()
        assert not _associativity_holds(law)

    def test_additivity_failure_names_its_first_discrepancy(self, monkeypatch):
        # d = 2 adds alpha*x^4*y + alpha*x*y^4; sorted, (1, 4) comes first.
        good = fgl_phiL(9)
        perturb_construction(monkeypatch, perturbation(2, mirror=True))
        with pytest.raises(ConsistencyError) as err:
            build_fgl(good.log)
        assert str(err.value) == (
            "logarithm additivity failed: first at x^1*y^4, L(F) has a,"
            " L(x) + L(y) has 0"
        )

    @pytest.mark.parametrize("n", [21, 45])
    @pytest.mark.parametrize("s", [1, 10])
    def test_additivity_names_a_perturbation_at_the_top_degree(self, n, s, monkeypatch):
        # The check caps its Horner levels below n, deepest at total degree
        # n: the law's coefficients at x^s*y^(n-s) and its mirror, each
        # moved by alpha^((n-1)/4), must still be refused and named there.
        good = fgl_phiL(n)
        delta = ALPHA ** ((n - 1) // 4)
        extra = BiTruncSeries({(s, n - s): delta, (n - s, s): delta}, n)
        perturb_construction(monkeypatch, extra)
        with pytest.raises(ConsistencyError) as err:
            build_fgl(good.log)
        assert str(err.value) == (
            f"logarithm additivity failed: first at x^{s}*y^{n - s},"
            f" L(F) has {delta}, L(x) + L(y) has 0"
        )

    def test_failed_additivity_composes_once(self, monkeypatch):
        # The failed check names its discrepancy from the composite L(F(x, y))
        # it compared, without composing the logarithm with the law again; the
        # construction itself composes nothing.
        good = fgl_phiL(9)
        perturb_construction(monkeypatch, perturbation(2, mirror=True))
        outer = []

        def counted(f, g):
            outer.append("L(F)" if f == good.log else f)
            return bi_compose_outer(f, g)

        monkeypatch.setattr(fgl, "bi_compose_outer", counted)
        with pytest.raises(ConsistencyError, match="additivity failed: first at"):
            build_fgl(good.log)
        assert outer == ["L(F)"]

    @pytest.mark.parametrize(
        "extra,message",
        [
            # An x^2 term: F(x, 0) is no longer x.
            (
                {(2, 0): ONE},
                "unit axiom failed: first at x^2*y^0, F has 1, x + y has 0",
            ),
            # x*y^2 without its partner x^2*y: F(x, y) != F(y, x).
            (
                {(1, 2): ONE},
                "commutativity failed: first at x^1*y^2, F(x, y) has 1,"
                " F(y, x) has 0",
            ),
        ],
        ids=["unit", "commutativity"],
    )
    def test_axiom_failure_names_its_first_discrepancy(
        self, extra, message, fresh_laws, monkeypatch
    ):
        good = fgl_phiL(9)
        perturb_construction(monkeypatch, BiTruncSeries(extra, 9))
        with pytest.raises(ConsistencyError) as err:
            build_fgl(good.log)
        assert str(err.value) == message

    @pytest.mark.parametrize("d", range(2, 10))
    def test_construction_checks_reject_a_perturbed_law(self, d):
        # F plus a mirrored perturbation is still commutative and keeps the
        # unit, but it is neither associative nor linearised by the log.
        f = fgl_phiL(9)
        law = f.law + perturbation(d, mirror=True)
        assert law == law.swap()
        assert _associativity_holds(f.law) and not _additivity_discrepancy(f.law, f.log)
        assert not _associativity_holds(law)
        assert _additivity_discrepancy(law, f.log)

    @pytest.mark.parametrize("t", [2, 3, 4, 6, 7, 8])
    def test_construction_checks_reject_a_mis_graded_law(self, t):
        # alpha at total degree t != 1 mod 4 has the wrong Legendre degree
        # for a law coefficient.  Below t = 4 the checks' first sums mix
        # degrees and raise; above, a composite differs at a lower degree
        # before any sum mixes, and the check returns False.
        f = fgl_phiL(9)
        law = f.law + BiTruncSeries({(t - 1, 1): ALPHA, (1, t - 1): ALPHA}, 9)
        checks = (
            lambda: _associativity_holds(law),
            lambda: not _additivity_discrepancy(law, f.log),
        )
        for check in checks:
            if t < 4:
                with pytest.raises(InputError):
                    check()
            else:
                assert not check()

    @pytest.mark.parametrize("build", [fgl_phi, fgl_phiL])
    @pytest.mark.parametrize("n", [1, 5, 9, 13])
    def test_cyclic_associativity_matches_two_sided(self, build, n):
        law = build(n).law
        assert _associativity_holds(law) and two_sided_associativity(law)

    @pytest.mark.parametrize("d", range(2, 10))
    def test_cyclic_check_refuses_what_two_sided_refuses(self, d):
        # The commutative perturbations of the test above.
        law = fgl_phiL(9).law + perturbation(d, mirror=True)
        assert not _associativity_holds(law) and not two_sided_associativity(law)

    @pytest.mark.parametrize("d", range(3, 10))
    def test_non_commutative_law_is_refused(self, d):
        # An unmirrored perturbation breaks commutativity, so the cyclic
        # argument does not apply; the two-sided check refuses it as well.
        law = fgl_phiL(9).law + perturbation(d, mirror=False)
        assert law != law.swap()
        assert not _associativity_holds(law) and not two_sided_associativity(law)

    def test_log_linearizes_the_law(self):
        f = fgl_phiL(9)
        # F(x, 0) = x exactly.
        assert f.law.set_y() == TruncSeries.identity(9)

    def test_consistency_error_is_loud(self):
        assert issubclass(ConsistencyError, RuntimeError)


class TestRecurrence:
    # The law from the invariant differential, against the oracle that
    # reverts the logarithm and composes.
    @pytest.mark.parametrize("log", [log_phi, log_phiL])
    @pytest.mark.parametrize("n", [13, 21, 29, 45])
    def test_laws_match_the_oracle(self, log, n):
        assert build_fgl(log(n)).law == oracle_law(log(n))

    @given(normalized_logs())
    @settings(max_examples=40, deadline=None)
    def test_random_logs_match_the_oracle(self, log):
        assert build_fgl(log).law == oracle_law(log)

    @pytest.mark.parametrize("m", [4, 8, 12])
    def test_dropping_a_term_of_w_is_refused(self, m, monkeypatch):
        # Negative control: the recurrence without w_m builds the law of
        # another logarithm.  Its x-linear part is w(y), so the law first
        # differs from the oracle at x*y^m, and L(F) there is -w_m.
        log = log_phiL(13)
        recurrence = fgl._law_from_differential
        built, dropped = [], []

        def without_w_m(w, n):
            dropped.append(w[m])
            terms = {k: c for k, c in w.terms.items() if k != (m,)}
            built.append(recurrence(TruncSeries.from_terms(terms, w.order), n))
            return built[-1]

        monkeypatch.setattr(fgl, "_law_from_differential", without_w_m)
        with pytest.raises(ConsistencyError) as err:
            build_fgl(log)
        assert not dropped[0].is_zero()
        oracle = oracle_law(log).terms
        differ = built[0].terms.items() ^ oracle.items()
        assert min(k for k, _ in differ) == (1, m)
        assert str(err.value) == (
            f"logarithm additivity failed: first at x^1*y^{m},"
            f" L(F) has {-dropped[0]}, L(x) + L(y) has 0"
        )


@pytest.fixture
def fresh_laws():
    """Empty law caches before and after the test, so that no law built
    under a patched kernel outlives it."""
    fgl_phi.cache_clear()
    fgl_phiL.cache_clear()
    yield
    fgl_phi.cache_clear()
    fgl_phiL.cache_clear()


class TestProductKernel:
    @pytest.mark.parametrize("build", [fgl_phi, fgl_phiL])
    @pytest.mark.parametrize("n", [9, 13])
    def test_laws_match_the_pairwise_product(self, build, n, fresh_laws, monkeypatch):
        # The laws checked on the packed `_product_step`, against a build
        # whose additivity check runs every product step on the pairwise
        # reference `tri_mul`: each pair converted to term maps, multiplied
        # through the step's degree cap, and the sum lifted back.
        fast = build(n).law
        build.cache_clear()
        caps = []

        def reference(pairs, k, arity, cap=None):
            cap = k if cap is None else cap
            caps.append(cap)
            total = {}
            for a, b in pairs:
                a, b = series._terms(a, k, arity), series._terms(b, k, arity)
                for key, c in tri_mul(a, b, cap).items():
                    total[key] = total[key] + c if key in total else c
            return series._lift(total, k)

        monkeypatch.setattr(series, "_product_step", reference)
        assert build(n).law == fast
        assert n in caps and min(caps) < n

    @pytest.mark.parametrize("build", [fgl_phi, fgl_phiL])
    @pytest.mark.parametrize("n", [5, 9, 13])
    def test_substitutions_match_rowwise(self, build, n):
        # The substitutions into a law, against the row-by-row reference:
        # F(F(x, y), z) of the associativity oracle, and
        # F(t(x), t(y)) of the isomorphism check.
        law = build(n).law.terms
        f_xy = {(a, b, 0): c for (a, b), c in law.items()}
        z = {(0, 0, 1): ONE}
        assert _substitute(law, f_xy, z, n) == rowwise_substitute(law, f_xy, z, n)
        t = t_of_v(n)
        tx = bi_from_univariate(t, 0, n).terms
        ty = bi_from_univariate(t, 1, n).terms
        assert _substitute(law, tx, ty, n) == rowwise_substitute(law, tx, ty, n)


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
        monkeypatch.setattr(
            fgl, "_additivity_discrepancy", lambda law, log: ": first at x^1*y^4"
        )
        for _ in range(2):
            with pytest.raises(ConsistencyError, match="additivity"):
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
        x = TruncSeries.identity(13)
        lhs = bi_compose_outer(x, fgl_phi(13).law)
        assert lhs != bi_compose_slots(fgl_phiL(13).law, x, x)
