"""Exact Fourier expansions at the cusp and their numeric evaluation.

Everything is a series in s = q^(1/2) = e^(pi*i*tau) with rational
coefficients.  The two theta fourth powers are

    theta2^4 = 16*s * (sum_{n>=0} s^(n(n+1)))^4,
    theta4^4 = (1 + 2*sum_{n>=1} (-1)^n s^(n^2))^4,

and the generator forms are assembled from them:

    delta' = (theta2^4 - theta4^4)/8        eps'   = -theta2^4*theta4^4/16
    alpha  = -2^7*(eps' - delta'^2/2)       beta   = 2^12*delta'^4
    Delta  = 2^6*eps'*(eps' - delta'^2)     (the normalized cusp form)

The theta conventions are validated against hard leading-term anchors
(delta' = -1/8 + O(s), eps' = -s + O(s^2), alpha = 1 + O(s),
Delta = s + O(s^2)); a convention mismatch fails loudly there.

Every product runs on `exact._kron_mul`, the packed-integer kernel: a
product scales both factors to integer numerators over one common
denominator, and `substitute_forms` works on the integer list of a
homogeneous polynomial until one division at the end.

Numeric evaluation is double-precision Horner in s with a geometric tail
bound; used for the zero checks, the automorphy residuals, and j = beta/(4*alpha^2).
"""

from __future__ import annotations

import cmath
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .exact import GradedPoly, InputError, _kron_mul, _power
from .chromatic import _require_split, hazewinkel_v


class QExpansion:
    """Truncated series in s = q^(1/2) with Fraction coefficients."""

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs, order: int | None = None):
        cs = [Fraction(c) for c in coeffs]
        if order is None:
            order = len(cs) - 1
        if order < 0:
            raise InputError("truncation order must be >= 0")
        if len(cs) > order + 1:
            cs = cs[: order + 1]
        cs += [Fraction(0)] * (order + 1 - len(cs))
        object.__setattr__(self, "coeffs", cs)
        object.__setattr__(self, "order", order)

    def __setattr__(self, name, value):
        raise AttributeError("QExpansion is immutable")

    def __getitem__(self, k: int) -> Fraction:
        if 0 <= k <= self.order:
            return self.coeffs[k]
        raise IndexError(f"coefficient {k} beyond truncation order {self.order}")

    def _check(self, other: "QExpansion") -> None:
        if self.order != other.order:
            raise InputError(
                f"mixed truncation orders {self.order} and {other.order}"
            )

    def __add__(self, other: "QExpansion"):
        self._check(other)
        return QExpansion(
            [a + b for a, b in zip(self.coeffs, other.coeffs)], self.order
        )

    def __neg__(self):
        return QExpansion([-c for c in self.coeffs], self.order)

    def __sub__(self, other: "QExpansion"):
        return self + (-other)

    def _numerators(self) -> tuple[int, list[int]]:
        """(d, [d*c for c in coeffs]) for the least common denominator d."""
        den = lcm(*(c.denominator for c in self.coeffs))
        return den, [c.numerator * (den // c.denominator) for c in self.coeffs]

    def __mul__(self, other: "QExpansion"):
        self._check(other)
        da, a = self._numerators()
        db, b = other._numerators()
        den = da * db
        return QExpansion(
            [Fraction(c, den) for c in _kron_mul(a, b, self.order + 1)],
            self.order,
        )

    def __pow__(self, m: int):
        return _power(QExpansion([1], self.order), self, m, operator.mul)

    def scale(self, c) -> "QExpansion":
        f = Fraction(c)
        return QExpansion([f * a for a in self.coeffs], self.order)

    def __eq__(self, other):
        if not isinstance(other, QExpansion):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.order, tuple(self.coeffs)))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def has_integer_coeffs(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs)

    def is_p_integral(self, p: int) -> bool:
        return all(c.denominator % p != 0 for c in self.coeffs)

    def __str__(self):
        parts = [
            f"{c}*s^{k}" if k else str(c)
            for k, c in enumerate(self.coeffs)
            if c != 0
        ]
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
    """(theta2^4, theta4^4) through s^K; both have integer coefficients."""
    if K < 1:
        raise InputError("order must be >= 1")
    # sum_{n>=0} s^(n(n+1)) through s^(K-1) (the outer factor s shifts by 1)
    tri = [0] * K
    n = 0
    while n * (n + 1) < K:
        tri[n * (n + 1)] += 1
        n += 1
    tri_q = QExpansion(tri, K - 1) ** 4
    theta2_4 = QExpansion([0] + [16 * c for c in tri_q.coeffs], K)

    sq = [0] * (K + 1)
    sq[0] = 1
    n = 1
    while n * n <= K:
        sq[n * n] += 2 * (-1) ** n
        n += 1
    theta4_4 = QExpansion(sq, K) ** 4
    return theta2_4, theta4_4


@dataclass(frozen=True)
class GeneratorForms:
    delta_prime: QExpansion
    eps_prime: QExpansion
    alpha: QExpansion
    beta: QExpansion
    delta_g: QExpansion


@lru_cache(maxsize=8)
def forms(K: int) -> GeneratorForms:
    """The five generator expansions through s^K."""
    if K < 2:
        raise InputError("order must be >= 2")
    t2, t4 = theta_fourth_powers(K)
    delta_prime = (t2 - t4).scale(Fraction(1, 8))
    eps_prime = (t2 * t4).scale(Fraction(-1, 16))
    d2 = delta_prime * delta_prime
    alpha = (eps_prime - d2.scale(Fraction(1, 2))).scale(-128)
    beta = (d2 * d2).scale(4096)
    delta_g = (eps_prime * (eps_prime - d2)).scale(64)
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
    exact relation alpha^2 - beta - 2^8*Delta = 0."""
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


@dataclass(frozen=True)
class EvalResult:
    value: complex
    trunc_bound: float


def _require_upper_half_plane(tau: complex) -> None:
    if not cmath.isfinite(tau):
        raise InputError("tau must be finite")
    if tau.imag <= 0:
        raise InputError("tau must lie in the upper half-plane")


def eval_form(form: QExpansion, tau: complex) -> EvalResult:
    """Horner evaluation at s = e^(pi*i*tau) with a geometric tail estimate."""
    _require_upper_half_plane(tau)
    s = cmath.exp(1j * cmath.pi * tau)
    r = abs(s)
    if r >= 1:
        raise InputError("evaluation point has |s| >= 1 (divergent)")
    value = 0j
    for c in reversed(form.coeffs):
        value = value * s + complex(c)
    tail = abs(complex(form.coeffs[-1])) * r ** form.order / (1 - r)
    return EvalResult(value=value, trunc_bound=tail)


@dataclass(frozen=True)
class TransformResiduals:
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
    da, a = f.alpha._numerators()
    db, b = f.beta._numerators()
    pow_a = {0: [1] + [0] * K, 1: a}
    if d > 1:
        pow_a[2] = _kron_mul(a, a, n)
    for i in range(4 - d % 2, d + 1, 2):
        pow_a[i] = _kron_mul(pow_a[i - 2], pow_a[2], n)
    acc = [vec[J] * da ** (2 * J) * x for x in pow_a[d - 2 * J]]
    for j in range(J - 1, -1, -1):
        lift = vec[j] * da ** (2 * j) * db ** (J - j)
        acc = [x + lift * y for x, y in zip(_kron_mul(acc, b, n), pow_a[d - 2 * j])]
    return QExpansion([Fraction(c, poly.den * da**d * db**J) for c in acc], K)


def genus_qexp_consistency(p: int, K: int = 40) -> bool:
    """The expansions of v_1 and v_2 are p-integral through s^K, for a
    split prime p (1 mod 4)."""
    _require_split(p)
    for n in (1, 2):
        expansion = substitute_forms(hazewinkel_v(n, p), K)
        if not expansion.is_p_integral(p):
            return False
    return True
