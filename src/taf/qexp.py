"""Exact Fourier expansions at the cusp and their numeric evaluation.

Everything is a series in s = q^(1/2) = e^(pi*i*tau) with rational
coefficients.  The theta fourth powers X = theta2^4 and Y = theta4^4 are
Jacobi's divisor sums,

    X = 16*sum_{n odd} sigma(n) s^n
    Y = 1 + sum_{n>=1} (-1)^n r_4(n) s^n,   r_4(n) = 8*sum_{d | n, 4 !| d} d,

and the generator forms are polynomials in them:

    delta' = (X - Y)/8              eps'  = -X*Y/16
    alpha  = X^2 + 6*X*Y + Y^2      beta  = (X - Y)^4
    Delta  = X*Y*(X + Y)^2/16       (the normalized cusp form)

The tests keep the products X = 16*s*(sum_{n>=0} s^(n(n+1)))^4 and
Y = (1 + 2*sum_{n>=1} (-1)^n s^(n^2))^4, with alpha, beta and Delta derived
from delta' and eps', as the oracle of both.  Leading-term anchors
(delta' = -1/8 + O(s), eps' = -s + O(s^2), alpha = 1 + O(s),
Delta = s + O(s^2)) pin the theta conventions; a mismatch fails there.

A series is kept as `GradedPoly` keeps a polynomial: one denominator and
an integer list, in lowest terms (see `QExpansion`).  So a product is one
`exact._kron_mul` of the two lists, the packed-integer kernel, over the
product of the denominators, and `substitute_forms` works on the integer
lists of the forms and of the polynomial until one reduction at the end.

Numeric evaluation is double-precision Horner in s with a geometric tail
bound; used for the zero checks, the automorphy residuals, and j = beta/(4*alpha^2).
"""

from __future__ import annotations

import cmath
import operator
from fractions import Fraction
from functools import lru_cache
from math import fmod, lcm
from typing import NamedTuple

from .exact import GradedPoly, InputError, _kron_mul, _lowest, _power
from .chromatic import _require_split, hazewinkel_v


class QExpansion:
    """Truncated series in s = q^(1/2) over Q, in `GradedPoly`'s layout.

    Stored as (order, den, vec): vec[k] / den is the coefficient of s^k,
    k <= order, in lowest terms (den > 0 and gcd(den, *vec) = 1).  So equal
    series have equal fields, and den is the lcm of the reduced
    denominators: integral means den = 1, p-integral that p does not divide
    den.  The constructor takes int or Fraction coefficients over a positive
    den, pads or truncates them to order + 1 and lifts them once."""

    __slots__ = ("order", "den", "vec")

    def __init__(self, coeffs, order: int, den: int = 1):
        if order < 0:
            raise InputError("truncation order must be >= 0")
        cs = coeffs[: order + 1]
        lift = lcm(*(c.denominator for c in cs))
        vec = [c.numerator * (lift // c.denominator) for c in cs]
        den, vec = _lowest(den * lift, vec + [0] * (order + 1 - len(vec)))
        for name, value in (("order", order), ("den", den), ("vec", vec)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("QExpansion is immutable")

    @property
    def coeffs(self) -> list[Fraction]:
        """The coefficients of s^0..s^order, built on each access."""
        return [Fraction(c, self.den) for c in self.vec]

    def __getitem__(self, k: int) -> Fraction:
        if 0 <= k <= self.order:
            return Fraction(self.vec[k], self.den)
        raise IndexError(f"coefficient {k} beyond truncation order {self.order}")

    def _check(self, other: "QExpansion") -> None:
        if self.order != other.order:
            raise InputError(f"mixed truncation orders {self.order} and {other.order}")

    def __add__(self, other: "QExpansion"):
        self._check(other)
        den = lcm(self.den, other.den)
        fa, fb = den // self.den, den // other.den
        vec = [fa * x + fb * y for x, y in zip(self.vec, other.vec)]
        return QExpansion(vec, self.order, den)

    def __neg__(self):
        return QExpansion([-c for c in self.vec], self.order, self.den)

    def __sub__(self, other: "QExpansion"):
        return self + (-other)

    def __mul__(self, other: "QExpansion"):
        self._check(other)
        vec = _kron_mul(self.vec, other.vec, self.order + 1)
        return QExpansion(vec, self.order, self.den * other.den)

    def __pow__(self, m: int):
        return _power(QExpansion([1], self.order), self, m, operator.mul)

    def scale(self, c) -> "QExpansion":
        f = Fraction(c)
        vec = [f.numerator * x for x in self.vec]
        return QExpansion(vec, self.order, self.den * f.denominator)

    def __eq__(self, other):
        if not isinstance(other, QExpansion):
            return NotImplemented
        return (self.order, self.den, self.vec) == (other.order, other.den, other.vec)

    def __hash__(self):
        return hash((self.order, self.den, tuple(self.vec)))

    def is_zero(self) -> bool:
        return not any(self.vec)

    def has_integer_coeffs(self) -> bool:
        return self.den == 1

    def is_p_integral(self, p: int) -> bool:
        return self.den % p != 0

    def __str__(self):
        parts = [f"{c}*s^{k}" if k else str(c) for k, c in enumerate(self.coeffs) if c]
        return (" + ".join(parts) or "0") + f" + O(s^{self.order + 1})"

    def to_json_list(self) -> list[dict]:
        return [
            {"num": str(c.numerator), "den": str(c.denominator)}
            for c in self.coeffs
        ]


# ---------------------------------------------------------------------------
# Theta constants and the generator forms
# ---------------------------------------------------------------------------


def theta_fourth_powers(K: int) -> tuple[QExpansion, QExpansion]:
    """(theta2^4, theta4^4) through s^K, integral, from one sieve: r4[n]
    sums the divisors d of n with 4 !| d, which is sigma(n) for odd n."""
    if K < 1:
        raise InputError("order must be >= 1")
    r4 = [0] * (K + 1)
    for d in range(1, K + 1):
        if d % 4:
            for n in range(d, K + 1, d):
                r4[n] += d
    theta2_4 = [16 * r if n % 2 else 0 for n, r in enumerate(r4)]
    theta4_4 = [1] + [-8 * r if n % 2 else 8 * r for n, r in enumerate(r4) if n]
    return QExpansion(theta2_4, K), QExpansion(theta4_4, K)


class GeneratorForms(NamedTuple):
    delta_prime: QExpansion
    eps_prime: QExpansion
    alpha: QExpansion
    beta: QExpansion
    delta_g: QExpansion


@lru_cache(maxsize=8)
def forms(K: int) -> GeneratorForms:
    """The five generator expansions through s^K, as polynomials in
    X = theta2^4 and Y = theta4^4 (see the module docstring)."""
    if K < 2:
        raise InputError("order must be >= 2")
    x, y = theta_fourth_powers(K)
    xy, diff, total = x * y, x - y, x + y
    diff2, total2 = diff * diff, total * total
    delta_prime = diff.scale(Fraction(1, 8))
    eps_prime = xy.scale(Fraction(-1, 16))
    alpha = total2 + xy.scale(4)  # X^2 + 6*X*Y + Y^2
    beta = diff2 * diff2
    delta_g = (xy * total2).scale(Fraction(1, 16))
    return GeneratorForms(delta_prime, eps_prime, alpha, beta, delta_g)


def anchor_check(K: int) -> bool:
    """The hard leading-term anchors pinning the theta conventions."""
    f = forms(K)
    return (
        f.delta_prime[0] == Fraction(-1, 8)
        and f.eps_prime[0] == 0
        and f.eps_prime[1] == -1
        and f.alpha[0] == 1
        and f.delta_g[0] == 0
        and f.delta_g[1] == 1
    )


def integrality_and_identity(K: int) -> bool:
    """alpha, Delta, 8*delta', eps' integer-coefficient through s^K and the
    exact relation alpha^2 - beta - 2^8*Delta = 0.

    Both halves are structural once X = theta2^4 is 0 (mod 16) and
    Y = theta4^4 is integral, as the sieve builds them: 8*delta', eps', alpha
    and Delta are then integral polynomials in X/16 and Y, and the relation
    holds for any X and Y.  So it checks the product kernel and reduction."""
    f = forms(K)
    integral = (
        f.alpha.has_integer_coeffs()
        and f.delta_g.has_integer_coeffs()
        and f.delta_prime.scale(8).has_integer_coeffs()
        and f.eps_prime.has_integer_coeffs()
    )
    residual = f.alpha * f.alpha - f.beta - f.delta_g.scale(256)
    return integral and residual.is_zero()


# ---------------------------------------------------------------------------
# Numeric evaluation
# ---------------------------------------------------------------------------


class EvalResult(NamedTuple):
    value: complex
    trunc_bound: float


def _require_upper_half_plane(tau: complex) -> None:
    if not cmath.isfinite(tau):
        raise InputError("tau must be finite")
    if tau.imag <= 0:
        raise InputError("tau must lie in the upper half-plane")


def eval_form(form: QExpansion, tau: complex) -> EvalResult:
    """Horner evaluation at s = e^(pi*i*tau) with a geometric tail estimate;
    s has period 2 in tau, and Re tau is read modulo 2 by the exact `fmod`."""
    _require_upper_half_plane(tau)
    s = cmath.exp(1j * cmath.pi * complex(fmod(tau.real, 2), tau.imag))
    r = abs(s)
    if r >= 1:
        raise InputError("evaluation point has |s| >= 1 (divergent)")
    den, value = form.den, 0j
    for c in reversed(form.vec):
        value = value * s + c / den
    tail = abs(form.vec[-1] / den) * r ** form.order / (1 - r)
    return EvalResult(value=value, trunc_bound=tail)


class TransformResiduals(NamedTuple):
    residual_c4: float
    residual_s: float


def transform_check(tau: complex, K: int = 60) -> TransformResiduals:
    """Numeric weight-4 automorphy residuals of alpha under the two maps
    tau -> (1+tau)/(1-tau) (automorphy factor -(1-tau)^4/4) and
    tau -> -1/tau (factor tau^4)."""
    _require_upper_half_plane(tau)
    a = forms(K).alpha
    t_c4 = (1 + tau) / (1 - tau)
    t_s = -1 / tau
    for image in (t_c4, t_s):
        if image.imag <= 0:
            raise InputError("image point left the upper half-plane")
    v = eval_form(a, tau).value
    v_c4 = eval_form(a, t_c4).value
    v_s = eval_form(a, t_s).value
    res_c4 = abs(v_c4 + (1 - tau) ** 4 / 4 * v)
    res_s = abs(v_s - tau**4 * v)
    return TransformResiduals(residual_c4=res_c4, residual_s=res_s)


# |alpha(tau)| below this reads as a zero of alpha, a pole of j.
_POLE_TOL = 1e-8


def j_invariant(tau: complex, K: int = 40):
    """j = beta/(4*alpha^2); returns None (a pole signal) when alpha
    vanishes numerically at tau."""
    f = forms(K)
    a = eval_form(f.alpha, tau).value
    if abs(a) < _POLE_TOL:
        return None
    b = eval_form(f.beta, tau).value
    return b / (4 * a * a)


# ---------------------------------------------------------------------------
# Genus / q-expansion consistency
# ---------------------------------------------------------------------------


def substitute_forms(poly: GradedPoly, K: int) -> QExpansion:
    """Evaluate a homogeneous polynomial in alpha, beta on the generator
    expansions.

    Works on integer numerators throughout: poly of degree d is
    (sum_j c_j alpha^(d-2j) beta^j) / D, and with alpha = A/a, beta = B/b,
    row_j = c_j * a^(2j) * A^(d-2j) and Horner in beta,
    r <- r*B + b^(J-j) * row_j for J = d//2, give D * a^d * b^J * poly.
    The powers of A are one chain in steps of A^2."""
    if poly.is_zero():
        return QExpansion([], K)
    f = forms(K)
    n = K + 1
    d, vec = poly.deg, poly.vec
    J = d // 2
    da, a = f.alpha.den, f.alpha.vec
    db, b = f.beta.den, f.beta.vec
    pow_a = {0: [1] + [0] * K, 1: a}
    if d > 1:
        pow_a[2] = _kron_mul(a, a, n)
    for i in range(4 - d % 2, d + 1, 2):
        pow_a[i] = _kron_mul(pow_a[i - 2], pow_a[2], n)
    acc = [vec[J] * da ** (2 * J) * x for x in pow_a[d - 2 * J]]
    for j in range(J - 1, -1, -1):
        lift = vec[j] * da ** (2 * j) * db ** (J - j)
        acc = [x + lift * y for x, y in zip(_kron_mul(acc, b, n), pow_a[d - 2 * j])]
    return QExpansion(acc, K, poly.den * da**d * db**J)


def genus_qexp_consistency(p: int, K: int = 40) -> bool:
    """The expansions of v_1 and v_2 are p-integral through s^K, for a
    split prime p (1 mod 4)."""
    _require_split(p)
    for n in (1, 2):
        expansion = substitute_forms(hazewinkel_v(n, p), K)
        if not expansion.is_p_integral(p):
            return False
    return True
