"""Exact coefficient arithmetic: Q, Q(i), and the graded ring Q[alpha, beta].

Rationals are `fractions.Fraction` (always canonical: reduced, positive
denominator).  A `GradedPoly` is a sparse bivariate polynomial in the ring
generators alpha and beta, stored as a dict mapping exponent pairs (i, j)
-- meaning alpha^i * beta^j -- to nonzero Fraction coefficients.

The grading assigns degree 1 to alpha and degree 2 to beta ("Legendre
degree"); weight is 4x that and topological degree 8x.  The zero polynomial
is the empty term map and has no degree: degree queries on it raise.

Mod-p reductions live in `ModPoly` (coefficients in {1, .., p-1}), with
division by a polynomial in the alpha-variable and a univariate gcd used by
the height-two checks.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import lcm
from typing import Mapping, Union

Scalar = Union[int, Fraction]


class InputError(ValueError):
    """Raised when an operation's input contract is violated."""


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality test (desk-scale inputs)."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def require_prime(p: int) -> None:
    if not is_prime(p):
        raise InputError(f"{p} is not prime")


# ---------------------------------------------------------------------------
# Gaussian rationals
# ---------------------------------------------------------------------------


class GaussianRational:
    """An element of Q(i), exact field arithmetic on Fraction parts."""

    __slots__ = ("re", "im")

    def __init__(self, re: Scalar = 0, im: Scalar = 0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    @staticmethod
    def coerce(x: "GaussianRational | Scalar") -> "GaussianRational":
        if isinstance(x, GaussianRational):
            return x
        return GaussianRational(x)

    def __add__(self, other):
        o = GaussianRational.coerce(other)
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-GaussianRational.coerce(other))

    def __rsub__(self, other):
        return GaussianRational.coerce(other) + (-self)

    def __mul__(self, other):
        o = GaussianRational.coerce(other)
        return GaussianRational(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def conj(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def norm(self) -> Fraction:
        """re^2 + im^2, a non-negative rational, zero only at 0."""
        return self.re * self.re + self.im * self.im

    def inv(self) -> "GaussianRational":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("inverse of zero in Q(i)")
        return GaussianRational(self.re / n, -self.im / n)

    def __truediv__(self, other):
        return self * GaussianRational.coerce(other).inv()

    def __rtruediv__(self, other):
        return GaussianRational.coerce(other) * self.inv()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = GaussianRational(other)
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def is_gaussian_integer(self) -> bool:
        return self.re.denominator == 1 and self.im.denominator == 1

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}*i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re} {sign} {abs(self.im)}*i"


I = GaussianRational(0, 1)


# ---------------------------------------------------------------------------
# The graded polynomial ring
# ---------------------------------------------------------------------------


class GradedPoly:
    """Sparse exact polynomial in alpha, beta over Q.

    Terms map (i, j) -> Fraction with no stored zeros; alpha has degree 1
    and beta degree 2 in the Legendre grading.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[tuple[int, int], Scalar] | None = None):
        clean: dict[tuple[int, int], Fraction] = {}
        if terms:
            for (i, j), c in terms.items():
                if i < 0 or j < 0:
                    raise InputError(f"negative exponent pair ({i}, {j})")
                f = Fraction(c)
                if f != 0:
                    clean[(i, j)] = f
        object.__setattr__(self, "_terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("GradedPoly is immutable")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def const(c: Scalar) -> "GradedPoly":
        return GradedPoly({(0, 0): c})

    @staticmethod
    def coerce(x: "GradedPoly | Scalar") -> "GradedPoly":
        if isinstance(x, GradedPoly):
            return x
        return GradedPoly.const(x)

    # -- queries ------------------------------------------------------------

    @property
    def terms(self) -> dict[tuple[int, int], Fraction]:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def legendre_degree(self) -> int:
        """Max of i + 2j over the support; undefined (raises) for zero."""
        if not self._terms:
            raise InputError("degree of the zero polynomial is undefined")
        return max(i + 2 * j for i, j in self._terms)

    def is_homogeneous(self) -> bool:
        if not self._terms:
            return True
        degs = {i + 2 * j for i, j in self._terms}
        return len(degs) == 1

    def weight(self) -> int:
        return 4 * self.legendre_degree()

    def topological_degree(self) -> int:
        return 8 * self.legendre_degree()

    def coefficient(self, i: int, j: int) -> Fraction:
        return self._terms.get((i, j), Fraction(0))

    def alpha_degree(self) -> int:
        if not self._terms:
            raise InputError("degree of the zero polynomial is undefined")
        return max(i for i, _ in self._terms)

    # -- ring arithmetic ----------------------------------------------------

    def __add__(self, other):
        o = GradedPoly.coerce(other)
        out = dict(self._terms)
        for k, c in o._terms.items():
            s = out.get(k, Fraction(0)) + c
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return GradedPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return GradedPoly({k: -c for k, c in self._terms.items()})

    def __sub__(self, other):
        return self + (-GradedPoly.coerce(other))

    def __rsub__(self, other):
        return GradedPoly.coerce(other) + (-self)

    def __mul__(self, other):
        o = GradedPoly.coerce(other)
        if not self._terms or not o._terms:
            return ZERO
        out: dict[tuple[int, int], Fraction] = {}
        for (i1, j1), c1 in self._terms.items():
            for (i2, j2), c2 in o._terms.items():
                k = (i1 + i2, j1 + j2)
                s = out.get(k, Fraction(0)) + c1 * c2
                if s:
                    out[k] = s
                else:
                    out.pop(k, None)
        return GradedPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        """Square-and-multiply on integer numerators over one common
        denominator den: self^n = (den * self)^n / den^n."""
        terms = self._terms
        den = lcm(*(c.denominator for c in terms.values()))
        base = {k: c.numerator * (den // c.denominator) for k, c in terms.items()}
        num = _power({(0, 0): 1}, base, n, _int_mul)
        scale = den**n
        return GradedPoly({k: Fraction(c, scale) for k, c in num.items()})

    def scale(self, c: Scalar) -> "GradedPoly":
        f = Fraction(c)
        if f == 0:
            return ZERO
        return GradedPoly({k: v * f for k, v in self._terms.items()})

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = GradedPoly.const(other)
        if not isinstance(other, GradedPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    # -- substitutions ------------------------------------------------------

    def set_beta_zero(self) -> "GradedPoly":
        return GradedPoly({k: c for k, c in self._terms.items() if k[1] == 0})

    def alpha_part(self) -> "GradedPoly":
        """Terms with no alpha factor dropped; the image mod the ideal (alpha)."""
        return GradedPoly({k: c for k, c in self._terms.items() if k[0] == 0})

    def evaluate(self, a: Scalar, b: Scalar) -> Fraction:
        a, b = Fraction(a), Fraction(b)
        return sum(
            (c * a**i * b**j for (i, j), c in self._terms.items()),
            Fraction(0),
        )

    def dehomogenize(self) -> dict[int, Fraction]:
        """p(x, 1) as a sparse univariate map degree -> coefficient."""
        out: dict[int, Fraction] = {}
        for (i, _j), c in self._terms.items():
            out[i] = out.get(i, Fraction(0)) + c
        return {k: v for k, v in out.items() if v}

    # -- rendering ----------------------------------------------------------

    def __str__(self):
        if not self._terms:
            return "0"
        parts = []
        for (i, j) in sorted(self._terms, key=lambda k: (-k[0], -k[1])):
            c = self._terms[(i, j)]
            mono = []
            if i == 1:
                mono.append("a")
            elif i > 1:
                mono.append(f"a^{i}")
            if j == 1:
                mono.append("b")
            elif j > 1:
                mono.append(f"b^{j}")
            m = "*".join(mono)
            if not m:
                parts.append(str(c))
            elif c == 1:
                parts.append(m)
            elif c == -1:
                parts.append(f"-{m}")
            else:
                parts.append(f"{c}*{m}")
        s = " + ".join(parts)
        return s.replace("+ -", "- ")

    def __repr__(self):
        return f"GradedPoly({self._terms!r})"

    # -- serialization ------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "terms": [
                {"i": i, "j": j, "num": str(c.numerator), "den": str(c.denominator)}
                for (i, j), c in sorted(self._terms.items())
            ]
        }

    @staticmethod
    def from_json_dict(d: dict) -> "GradedPoly":
        return GradedPoly(
            {
                (t["i"], t["j"]): Fraction(int(t["num"]), int(t["den"]))
                for t in d["terms"]
            }
        )


def _power(one, base, n: int, mul):
    """base^n by square-and-multiply from the identity `one`."""
    if n < 0:
        raise InputError("negative power")
    result = one
    while n:
        if n & 1:
            result = mul(result, base)
        n >>= 1
        if n:
            base = mul(base, base)
    return result


def _int_mul(a: dict, b: dict) -> dict:
    """Product of two sparse {(i, j): int} polynomials, zeros dropped."""
    out: dict[tuple[int, int], int] = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            k = (i1 + i2, j1 + j2)
            out[k] = out.get(k, 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


ZERO = GradedPoly()
ONE = GradedPoly.const(1)
ALPHA = GradedPoly({(1, 0): 1})
BETA = GradedPoly({(0, 1): 1})

# Delta_G = (alpha^2 - beta) / 2^8, the normalized cusp form as a ring element.
DELTA_G = (ALPHA * ALPHA - BETA).scale(Fraction(1, 256))


def is_p_integral(a: GradedPoly, p: int) -> bool:
    """True iff every coefficient denominator is coprime to p."""
    require_prime(p)
    return all(c.denominator % p != 0 for c in a._terms.values())


# ---------------------------------------------------------------------------
# Mod-p layer
# ---------------------------------------------------------------------------


class ModPoly:
    """Sparse polynomial in alpha, beta over F_p; coefficients in {1, .., p-1}."""

    __slots__ = ("p", "_terms")

    def __init__(self, p: int, terms: Mapping[tuple[int, int], int] | None = None):
        require_prime(p)
        object.__setattr__(self, "p", p)
        clean: dict[tuple[int, int], int] = {}
        if terms:
            for k, c in terms.items():
                c %= p
                if c:
                    clean[k] = c
        object.__setattr__(self, "_terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("ModPoly is immutable")

    @property
    def terms(self) -> dict[tuple[int, int], int]:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def _check(self, other: "ModPoly") -> None:
        if self.p != other.p:
            raise InputError("mixed characteristics")

    def __add__(self, other: "ModPoly"):
        self._check(other)
        out = dict(self._terms)
        for k, c in other._terms.items():
            out[k] = (out.get(k, 0) + c) % self.p
        return ModPoly(self.p, out)

    def __neg__(self):
        return ModPoly(self.p, {k: -c for k, c in self._terms.items()})

    def __sub__(self, other: "ModPoly"):
        return self + (-other)

    def __mul__(self, other: "ModPoly"):
        self._check(other)
        return ModPoly(self.p, _int_mul(self._terms, other._terms))

    def __pow__(self, n: int):
        return _power(ModPoly(self.p, {(0, 0): 1}), self, n, operator.mul)

    def __eq__(self, other):
        if not isinstance(other, ModPoly):
            return NotImplemented
        return self.p == other.p and self._terms == other._terms

    def __hash__(self):
        return hash((self.p, frozenset(self._terms.items())))

    def alpha_degree(self) -> int:
        if not self._terms:
            raise InputError("degree of the zero polynomial is undefined")
        return max(i for i, _ in self._terms)

    def set_beta_zero(self) -> "ModPoly":
        return ModPoly(self.p, {k: c for k, c in self._terms.items() if k[1] == 0})

    def dehomogenize(self) -> list[int]:
        """Dense coefficient list of p(x, 1) over F_p, low degree first."""
        if not self._terms:
            return []
        deg = self.alpha_degree()
        out = [0] * (deg + 1)
        for (i, _j), c in self._terms.items():
            out[i] = (out[i] + c) % self.p
        while out and out[-1] == 0:
            out.pop()
        return out

    def __str__(self):
        if not self._terms:
            return "0"
        parts = []
        for (i, j) in sorted(self._terms, key=lambda k: (-k[0], -k[1])):
            c = self._terms[(i, j)]
            mono = []
            if i:
                mono.append("a" if i == 1 else f"a^{i}")
            if j:
                mono.append("b" if j == 1 else f"b^{j}")
            m = "*".join(mono)
            parts.append(f"{c}*{m}" if m and c != 1 else (m or str(c)))
        return " + ".join(parts)

    def __repr__(self):
        return f"ModPoly({self.p}, {self._terms!r})"


def reduce_mod_p(a: GradedPoly, p: int) -> ModPoly:
    """Coefficient-wise reduction into F_p; requires p-integrality."""
    if not is_p_integral(a, p):
        raise InputError(f"polynomial is not {p}-integral")
    terms = {}
    for k, c in a.terms.items():
        terms[k] = c.numerator * pow(c.denominator, -1, p) % p
    return ModPoly(p, terms)


def reduce_mod_v1(a: ModPoly, v1: ModPoly) -> ModPoly:
    """Remainder of a on division by v1 in the variable alpha over F_p[beta].

    Requires the alpha-leading coefficient of v1 to be an invertible scalar
    (no beta factor); the remainder has alpha-degree below that of v1.
    """
    if v1.is_zero():
        raise InputError("division by the zero polynomial")
    p = v1.p
    if a.p != p:
        raise InputError("mixed characteristics")
    d = v1.alpha_degree()
    lead = {j: c for (i, j), c in v1.terms.items() if i == d}
    if set(lead) != {0}:
        raise InputError("alpha-leading coefficient of v1 is not scalar")
    lead_inv = pow(lead[0], -1, p)
    rem = a
    while not rem.is_zero() and rem.alpha_degree() >= d:
        e = rem.alpha_degree()
        top = {(i - d, j): c for (i, j), c in rem.terms.items() if i == e}
        factor = ModPoly(p, {k: c * lead_inv for k, c in top.items()})
        rem = rem - factor * v1
    return rem


def _poly_mod(a: list[int], b: list[int], p: int) -> list[int]:
    """a mod b for dense univariate F_p coefficient lists (low first)."""
    a = a[:]
    while len(a) >= len(b) and any(a):
        while a and a[-1] == 0:
            a.pop()
        if len(a) < len(b):
            break
        shift = len(a) - len(b)
        factor = a[-1] * pow(b[-1], -1, p) % p
        for i, c in enumerate(b):
            a[shift + i] = (a[shift + i] - factor * c) % p
        while a and a[-1] == 0:
            a.pop()
    while a and a[-1] == 0:
        a.pop()
    return a


def dehom_gcd(a: ModPoly, b: ModPoly) -> list[int]:
    """Monic gcd of a(x, 1) and b(x, 1) over F_p, dense low-first coefficients."""
    if a.is_zero() and b.is_zero():
        raise InputError("gcd of two zero polynomials")
    p = a.p
    if b.p != p:
        raise InputError("mixed characteristics")
    u, v = a.dehomogenize(), b.dehomogenize()
    while v:
        u, v = v, _poly_mod(u, v, p)
    inv = pow(u[-1], -1, p)
    return [c * inv % p for c in u]
