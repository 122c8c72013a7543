"""The acceptance criteria: the paper's claims as named, timed checks.

Each criterion is a check `(N, K) -> (ok, detail)` over the series order N
and the q-expansion order K, with a runtime ceiling in seconds.  `taf
selftest` runs the gating criteria in registry order; the acceptance tests
run every criterion at N = 13, K = 50 and hold each gating one to its
ceiling.  Tolerances are exact equality unless a check states otherwise.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import sqrt
from typing import Callable, NamedTuple

from .arithgroups import embedding_suite, reduce_to_fundamental_domain
from .chromatic import (
    cor1_check,
    cor2_check,
    hazewinkel_v,
    key_lemma_check,
    landweber_check,
)
from .curve import (
    inversion_check,
    log_phi,
    log_phi_consistency,
    order4_check,
    solve_u_of_v,
)
from .exact import ALPHA, BETA, GradedPoly, ONE
from .fgl import beta_zero_law, euler_law, fgl_phi, fgl_phiL
from .legendre import generating_check, legendre
from .qexp import (
    anchor_check,
    eval_form,
    forms,
    genus_qexp_consistency,
    integrality_and_identity,
    transform_check,
)


# The smallest orders every gating criterion can check; selftest refuses less.
MIN_ORDER = 10  # chart-solve reads u[10] of solve_u_of_v(N)
MIN_QORDER = 2  # qexp-anchors builds forms(K), which needs K >= 2


class Criterion(NamedTuple):
    name: str
    check: Callable[[int, int], tuple[bool, str]]
    ceiling_s: float
    gating: bool = True


def _chart_solve(N, K):
    u = solve_u_of_v(N)
    ok = u[2] == ONE and u[6] == ALPHA.scale(2) and u[10] == ALPHA * ALPHA * 12 - BETA
    return ok, "u(v) coefficients at v^2, v^6, v^10"


def _logarithm(N, K):
    ok = log_phi(9)[5] == ALPHA.scale(Fraction(6, 5)) and log_phi_consistency(N)
    return ok, "log_phi v^5 term and chart consistency"


def _legendre_anchors(N, K):
    p6 = GradedPoly(
        {
            (6, 0): Fraction(231, 16),
            (4, 1): Fraction(-315, 16),
            (2, 2): Fraction(105, 16),
            (0, 3): Fraction(-5, 16),
        }
    )
    ok = legendre(1) == ALPHA and legendre(6) == p6 and generating_check(20)
    return ok, "P_1, P_6, generating function through u^20"


def _hazewinkel_closed_forms(N, K):
    ok = True
    for p in (5, 13):
        lp = legendre((p - 1) // 4)
        lp2 = legendre((p * p - 1) // 4)
        ok &= hazewinkel_v(1, p) == lp
        ok &= hazewinkel_v(2, p) == (lp2 - lp ** (p + 1)).scale(Fraction(1, p))
    return ok, "v_1, v_2 closed forms at p = 5, 13"


def _integrality(N, K):
    ok = all(key_lemma_check(p, 2).all_integral() for p in (5, 13, 29, 37))
    ok &= key_lemma_check(5, 3).all_integral()
    return ok, "p-integrality of v_n (n <= 2 at 4 primes; n = 3 at p = 5)"


def _corollary_1(N, K):
    ok = cor1_check() and landweber_check(5).landweber.passes()
    return ok, "mod-(5, v_1) congruences and the regularity ladder"


def _corollary_2(N, K):
    ok = all(cor2_check(p).passes() for p in (5, 13, 29, 37))
    return ok, "valuation-1 binomial and mod-(alpha) congruence"


def _euler_law(N, K):
    law = euler_law(N)
    disc = beta_zero_law(N) - law
    deg5 = {
        (4, 1): -ALPHA,
        (3, 2): ALPHA.scale(-2),
        (2, 3): ALPHA.scale(-2),
        (1, 4): -ALPHA,
    }
    ok = not disc.terms and all(law.coefficient(*ab) == c for ab, c in deg5.items())
    if disc.terms:
        return ok, f"discrepancy: {disc}"
    return ok, "closed form vs beta = 0 law, with the degree-5 part pinned"


def _fgl_axioms(N, K):
    # Construction verifies unit, commutativity, associativity and raises
    # on any failure; returning means both laws are lawful.
    fgl_phi(N)
    fgl_phiL(N)
    return True, "unit, commutativity, associativity (construction aborts on failure)"


def _qexp_anchors(N, K):
    ok = anchor_check(K) and integrality_and_identity(K)
    return ok, "theta anchors, integrality, alpha^2 - beta - 2^8*Delta = 0"


def _zeros(N, K):
    a = eval_form(forms(40).alpha, complex(1, sqrt(2))).value
    b = eval_form(forms(40).beta, complex(0, 1)).value
    ok = abs(a) < 1e-6 and abs(b) < 1e-6
    return ok, "alpha(1 + i*sqrt(2)) and beta(i) vanish"


def _transformation(N, K):
    r = transform_check(complex(0, 2), K=60)
    ok = r.residual_c4 < 1e-6 and r.residual_s < 1e-6
    return ok, "weight-4 automorphy residuals at tau = 2i"


def _genus_consistency(N, K):
    ok = all(genus_qexp_consistency(p, 40) for p in (5, 13))
    return ok, "p-integral expansions of v_1, v_2 at p = 5, 13"


def _embeddings(N, K):
    failed = [name for name, ok in embedding_suite().items() if not ok]
    if failed:
        return False, f"failed: {', '.join(failed)}"
    return True, "full exact embedding suite"


def _reduction(N, K):
    rng = random.Random(7)
    for _ in range(100):
        tau = complex(rng.uniform(-40, 40), rng.uniform(0.05, 20))
        if not reduce_to_fundamental_domain(tau).certificate_ok(tau):
            return False, f"failed at {tau}"
    return True, "100 random points with exact certificates"


def _experimental_p17(N, K):
    lw = landweber_check(17).landweber
    outcome = (lw.v1_nonzero_mod_p, lw.v2_nonzero_mod_p_v1, lw.height2_cozero_check)
    return lw.passes(), f"landweber p=17 (non-gating): (a,b,c) = {outcome}"


def _curve_automorphisms(N, K):
    ok = order4_check() and inversion_check()
    return ok, "order-4 map (x, y) -> (-x, i*y) and inversion modulo g^4 = beta"


CRITERIA = (
    Criterion("chart-solve", _chart_solve, 1),
    Criterion("logarithm", _logarithm, 5),
    Criterion("legendre-anchors", _legendre_anchors, 1),
    Criterion("hazewinkel-closed-forms", _hazewinkel_closed_forms, 10),
    Criterion("integrality", _integrality, 60),
    Criterion("corollary-1", _corollary_1, 5),
    Criterion("corollary-2", _corollary_2, 120),
    Criterion("euler-law", _euler_law, 10),
    Criterion("fgl-axioms", _fgl_axioms, 30),
    Criterion("qexp-anchors", _qexp_anchors, 5),
    Criterion("zeros", _zeros, 1),
    Criterion("transformation", _transformation, 1),
    Criterion("genus-consistency", _genus_consistency, 30),
    Criterion("embeddings", _embeddings, 5),
    Criterion("reduction", _reduction, 5),
    # p = 17 is the one p = 1 (mod 8) case; Corollary 2 does not cover it.
    Criterion("experimental-p17", _experimental_p17, 600, gating=False),
    Criterion("curve-automorphisms", _curve_automorphisms, 1, gating=False),
)
