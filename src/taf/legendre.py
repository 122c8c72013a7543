"""Homogeneous Legendre polynomials P_k(alpha, beta) and the genus built on them.

The two-variable P_k are the coefficients of the generating function

    (1 - 2*alpha*u + beta*u^2)^(-1/2) = sum_k P_k(alpha, beta) u^k,

equivalently the unique degree-k homogenizations (beta tracking x -> alpha)
of the classical P_k(x): P_k(x, 1) is the classical polynomial.  Each is
computed directly from the closed form

    P_k = 2^-k sum_{j <= k/2} t_j alpha^(k-2j) beta^j,
    t_j = (-1)^j C(k, j) C(2k - 2j, k),

term by term through the exact ratio
t_{j+1} / t_j = -(k-j)(k-2j)(k-2j-1) / ((j+1)(2k-2j)(2k-2j-1)), and
memoised per index.  An index above MAX_INDEX is refused up front: the
largest index any check uses is 6,097 (v_3 at p = 29), and the Hazewinkel
recursion raises P_k to powers that grow with the index.  At run time the
generating function expanded with the series kernel is the independent
oracle (`generating_check`); the three-term recurrence
(k+1) P_{k+1} = (2k+1) alpha P_k - k beta P_{k-1} is kept in the tests as a
second reference.

The genus phi_L takes the value P_{l/4}(alpha, beta) on CP^l when 4 | l and
zero otherwise; its logarithm is the term-wise integral of sum P_k x^{4k}.
"""

from __future__ import annotations

from functools import cache
from math import comb

from .exact import ALPHA, BETA, GradedPoly, InputError, ONE, ZERO, _graded
from .series import TruncSeries, integrate, series_div, sqrt_unit


MAX_INDEX = 10_000


@cache
def legendre(k: int) -> GradedPoly:
    """The homogeneous Legendre polynomial P_k(alpha, beta), in closed form."""
    if k < 0:
        raise InputError("Legendre index must be >= 0")
    if k > MAX_INDEX:
        raise InputError(f"Legendre index {k} is above the limit {MAX_INDEX}")
    t = comb(2 * k, k)
    vec = [t]
    for j in range(k // 2):
        t = -t * (k - j) * (k - 2 * j) * (k - 2 * j - 1)
        t //= (j + 1) * (2 * k - 2 * j) * (2 * k - 2 * j - 1)
        vec.append(t)
    return _graded(k, 2**k, vec)


def generating_check(K: int) -> bool:
    """Expand (1 - 2*alpha*u + beta*u^2)^(-1/2) through u^K via the series
    kernel and compare with the closed form term by term."""
    if K < 0:
        raise InputError("order must be >= 0")
    base = TruncSeries([ONE, ALPHA.scale(-2), BETA], K)
    expansion = series_div(TruncSeries.one(K), sqrt_unit(base))
    return all(expansion[k] == legendre(k) for k in range(K + 1))


def cp_coefficient(l: int) -> GradedPoly:
    """Genus value on CP^l: P_{l/4}(alpha, beta) when 4 | l, else 0."""
    if l < 0:
        raise InputError("index must be >= 0")
    if l % 4 != 0:
        return ZERO
    return legendre(l // 4)


def log_phiL(N: int) -> TruncSeries:
    """The logarithm with derivative sum_k P_k x^{4k}: an odd-4 series
    sum_k P_k x^{4k+1}/(4k+1) through order N."""
    if N < 1:
        raise InputError("order must be >= 1")
    deriv = TruncSeries(
        [cp_coefficient(k) for k in range(N)], N - 1
    )
    return integrate(deriv)
