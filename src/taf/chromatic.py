"""Hazewinkel-generator images, integrality, and the Landweber checks.

For a split prime p = 1 (mod 4) the logarithm coefficient at x^(p^n) is
ell_n = P_((p^n - 1)/4) / p^n, and the Hazewinkel recursion

    p * ell_n = sum_{i=0}^{n-1} ell_i * v_{n-i}^(p^i),   ell_0 = 1,

defines the generator images v_n as elements of Q[alpha, beta].  The
integrality statement says each v_n is p-integral; the Landweber ladder at
desk scale checks v_1 != 0 mod p, v_2 != 0 mod (p, v_1), and that the
common zero locus of v_1, v_2 over F_p-bar is contained in the vanishing
locus of the cusp form (alpha^2 - beta)/2^8, i.e. the lines alpha = +-beta-
normalized x = +-1 after dehomogenizing at beta = 1.  All three run on the
beta = 1 lists over F_p of `exact.dehom_mod_p`.

Each prime's pass of the recursion runs once per process: `_hazewinkel_pass`
is memoised per (n, p), so `landweber_check`, `cor2_check`, `cor1_check` and
`hazewinkel_v` at one prime share v_1 and v_2.  It keeps at most 8 passes,
since one at p = 173 holds about 14 MB; a refused input raises and so is
never cached, and `_hazewinkel_pass.__wrapped__(n, p)` runs the pass afresh.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import NamedTuple

from .exact import (
    ALPHA,
    BETA,
    DELTA_G,
    GradedPoly,
    InputError,
    ModPoly,
    dehom_mod_p,
    is_p_integral,
    require_prime,
    _gcd_mod_p,
    _kron_mul,
    _poly_mod,
    _power,
)
from .legendre import legendre


class UnsupportedPrimeError(InputError):
    """The prime is outside the split congruence class the pipeline needs."""


def _require_split(p: int) -> None:
    require_prime(p)
    if p % 4 != 1:
        raise UnsupportedPrimeError(
            f"p = {p} is not 1 (mod 4): the odd-4 logarithm has zero "
            f"coefficient at x^p and the generator pipeline degenerates"
        )


def ell(n: int, p: int) -> GradedPoly:
    """Logarithm coefficient at x^(p^n): P_((p^n - 1)/4) / p^n."""
    _require_split(p)
    if n < 1:
        raise InputError("generator index must be >= 1")
    return legendre((p**n - 1) // 4).scale(Fraction(1, p**n))


@lru_cache(maxsize=8)
def _hazewinkel_pass(
    n: int, p: int
) -> tuple[tuple[GradedPoly, ...], tuple[GradedPoly, ...]]:
    """v_1..v_n and ell_1..ell_n from one pass of the recursion, run once per
    process for each (n, p); tuples, so no caller can change the cached
    pass."""
    if n < 1:
        raise InputError("generator index must be >= 1")
    ells = [ell(m, p) for m in range(1, n + 1)]
    vs: list[GradedPoly] = []
    for m in range(1, n + 1):
        acc = ells[m - 1].scale(p)
        for i in range(1, m):
            acc = acc - ells[i - 1] * vs[m - i - 1] ** (p**i)
        vs.append(acc)
    return tuple(vs), tuple(ells)


def hazewinkel_v(n: int, p: int) -> GradedPoly:
    """Image of the n-th Hazewinkel generator, from the recursion
    p*ell_n = sum_{i<n} ell_i * v_{n-i}^(p^i)."""
    return _hazewinkel_pass(n, p)[0][-1]


def binomial_valuation(p: int, n: int, k: int) -> int:
    """Exact p-adic valuation of C(n, k) via Legendre's factorial formula."""
    require_prime(p)

    def fact_val(m: int) -> int:
        total = 0
        q = p
        while q <= m:
            total += m // q
            q *= p
        return total

    return fact_val(n) - fact_val(k) - fact_val(n - k)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


class LandweberVerdicts(NamedTuple):
    """The verdicts (a), (b), (c) of `landweber_check`.  (a) is True whenever
    the verdicts are built, since `_poly_mod` first refuses a v_1 that is 0
    mod p; it is kept because `landweber` prints it."""

    v1_nonzero_mod_p: bool
    v2_nonzero_mod_p_v1: bool
    height2_cozero_check: bool

    def passes(self) -> bool:
        return (
            self.v1_nonzero_mod_p
            and self.v2_nonzero_mod_p_v1
            and self.height2_cozero_check
        )


class VGenReport(NamedTuple):
    prime: int
    v: list[GradedPoly]
    ell: list[GradedPoly]
    integrality: list[bool]
    details: list[str]
    landweber: LandweberVerdicts | None = None

    def all_integral(self) -> bool:
        return all(self.integrality)

    def to_json_dict(self) -> dict:
        """The JSON payload, with v_n and ell_n as `GradedPoly` leaves."""
        d = {
            "prime": self.prime,
            "v": self.v,
            "ell": self.ell,
            "integrality": self.integrality,
            "details": self.details,
        }
        if self.landweber is not None:
            d["landweber"] = self.landweber._asdict()
        return d


def key_lemma_check(p: int, n_max: int = 2) -> VGenReport:
    """Compute v_1..v_n_max and record per-generator p-integrality."""
    vs, ells = _hazewinkel_pass(n_max, p)
    verdicts = [is_p_integral(v, p) for v in vs]
    details = [
        f"v_{n}: degree {v.legendre_degree()}, "
        f"{'p-integral' if ok else 'NOT p-integral'}"
        for n, (v, ok) in enumerate(zip(vs, verdicts), start=1)
    ]
    return VGenReport(
        prime=p, v=list(vs), ell=list(ells), integrality=verdicts, details=details
    )


# ---------------------------------------------------------------------------
# Corollary-level checks
# ---------------------------------------------------------------------------


def cor1_check() -> bool:
    """At p = 5 with v_1 = alpha: v_2, -beta^3, (alpha^2 - beta)^3, and the
    cube of the cusp form all agree mod (5, v_1), each reduction computed
    independently.  A class mod (5, v_1) is compared as its Legendre degree
    and the remainder of its beta = 1 list by v_1's: all four have degree 6,
    and -beta^3 = 4*beta^3 over F_5 is [4]."""
    p = 5
    v1 = dehom_mod_p(ALPHA, p)
    polys = (hazewinkel_v(2, p), (ALPHA * ALPHA - BETA) ** 3, DELTA_G**3)
    return all((a.deg, _poly_mod(dehom_mod_p(a, p), v1, p)) == (6, [4]) for a in polys)


class Cor2Result(NamedTuple):
    prime: int
    binomial: int
    valuation: int
    alpha_divides_v1: bool
    congruence_mod_alpha: bool
    v2_mod_p_v1_nonzero: bool

    def passes(self) -> bool:
        return (
            self.valuation == 1
            and self.alpha_divides_v1
            and self.congruence_mod_alpha
            and self.v2_mod_p_v1_nonzero
        )


def cor2_check(p: int) -> Cor2Result:
    """For p = 5 (mod 8): alpha | v_1, the binomial coefficient
    C((p^2-1)/4, (p^2-1)/8) has p-valuation exactly 1, and

        p*v_2 = C((p^2-1)/4, (p^2-1)/8) * (-beta/4)^((p^2-1)/8)  (mod (alpha))

    holds exactly over Q; together these force v_2 != 0 mod (p, v_1).

    alpha | v_1 always holds: v_1 = P_a with a = (p-1)/4 odd, and P_a is odd
    in alpha, so that field checks `legendre`'s grading, not the paper."""
    _require_split(p)
    if p % 8 != 5:
        raise UnsupportedPrimeError(
            f"p = {p} is not 5 (mod 8): the binomial-valuation argument needs it"
        )
    n, k = (p * p - 1) // 4, (p * p - 1) // 8
    binom = comb(n, k)
    val = binomial_valuation(p, n, k)

    (v1, v2), _ = _hazewinkel_pass(2, p)
    alpha_divides = v1.alpha_part().is_zero()

    lhs = v2.scale(p).alpha_part()
    rhs = GradedPoly({(0, k): Fraction(binom) * Fraction(-1, 4) ** k})
    congruence = lhs == rhs

    nonzero = bool(_poly_mod(dehom_mod_p(v2, p), dehom_mod_p(v1, p), p))

    return Cor2Result(
        prime=p,
        binomial=binom,
        valuation=val,
        alpha_divides_v1=alpha_divides,
        congruence_mod_alpha=congruence,
        v2_mod_p_v1_nonzero=nonzero,
    )


def _divides_power_of(g: list[int], base: list[int], power: int, p: int) -> bool:
    """Does the monic univariate g divide base^power over F_p?"""
    # base^power mod g via square-and-multiply on dense lists.
    def mul(a, b):
        return _poly_mod(_kron_mul(a, b, len(a) + len(b) - 1), g, p)

    return not _power(_poly_mod([1], g, p), _poly_mod(base, g, p), power, mul)


def landweber_check(p: int) -> VGenReport:
    """The regularity ladder at desk scale, on the beta = 1 lists over F_p
    (`dehom_mod_p`): (a) v_1 != 0 mod p; (b) v_2 != 0 mod (p, v_1); (c) the
    common roots of v_1(x, 1) and v_2(x, 1) over F_p-bar lie on the
    cusp-form locus x^2 = 1: their gcd divides (x^2 - 1)^deg.

    (b) divides by v_1 in alpha over F_p[beta], which needs v_1's
    alpha-leading coefficient v_1(1, 0) to be a unit; `_poly_mod` refuses v_1
    otherwise, with `InputError`.  So no common zero lies on the ray beta = 0,
    and (c) has nothing to check there.  A v_1 that is 0 mod p is refused the
    same way, so (a) is True whenever the verdicts are built."""
    report = key_lemma_check(p, 2)
    v1, v2 = (dehom_mod_p(v, p) for v in report.v)
    r = _poly_mod(v2, v1, p)
    g = _gcd_mod_p(v1, r, p)  # gcd(v_1, v_2) = gcd(v_1, v_2 mod v_1)
    verdicts = LandweberVerdicts(
        v1_nonzero_mod_p=any(v1),
        v2_nonzero_mod_p_v1=bool(r),
        height2_cozero_check=_divides_power_of(g, [p - 1, 0, 1], len(g) - 1, p),
    )
    d = report.v[1].deg  # the remainder, homogenized at v_2's degree
    r_hom = ModPoly(p, {(i, (d - i) // 2): c for i, c in enumerate(r)})
    details = [
        *report.details,
        f"v_2 mod ({p}, v_1) = {r_hom}",
        f"gcd(v_1(x,1), v_2(x,1)) over F_{p}: {g}",
    ]
    return report._replace(landweber=verdicts, details=details)
