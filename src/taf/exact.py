"""Exact coefficient arithmetic: Q, Q(i), and the graded ring Q[alpha, beta].

Rationals are `fractions.Fraction` (always canonical: reduced, positive
denominator).  The grading gives alpha degree 1 and beta degree 2 ("Legendre
degree"); weight is 4x that and topological degree 8x.

Every element of Q[alpha, beta] the pipeline builds is homogeneous, and a
`GradedPoly` must be: one of Legendre degree d is stored as
(d, den, [c_0, .., c_{d//2}]), meaning (sum_j c_j alpha^(d-2j) beta^j) / den
with integer c_j and den the least common denominator.  The list is the
beta = 1 dehomogenization in steps of x^2, so a product is a convolution of
lists.  Zero has the empty list and no degree: degree queries on it raise.
Non-homogeneous input raises `InputError`, from the constructor and from a
sum or `_dot` that mixes degrees.  `ModPoly` is the same list mod p.

The private kernels are `_dot`, `_miller_power`, `_power` and `_kron_mul`.
`_kron_mul` multiplies dense integer lists by Kronecker substitution, one
big-int multiply of lists packed by `_pack`; `series._product_step` packs
whole series terms with the same codec.  `_dot` sums the convolutions of a
list of pairs over one common denominator by a plain loop.
`GradedPoly.__pow__` runs on `_miller_power`, J.C.P. Miller's power
recurrence, whose exact integer divisions keep a high power of a short list
(v_1^p) free of long-by-long products.  `ModPoly.__mul__`, the q-expansions
and the dense F_p lists run on `_kron_mul`, and `_power` is
square-and-multiply for any product type.
Division by v_1 in alpha and the height-two gcd work on the beta = 1 lists
over F_p (`_poly_mod`).
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import gcd, lcm
from typing import Mapping, Union

Scalar = Union[int, Fraction]


class InputError(ValueError):
    """Raised when an operation's input contract is violated."""


# Miller-Rabin on the first 13 prime bases is exact below this bound
# (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases", 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin on the bases 2, 3, .., 41: exact for every
    n below 3,317,044,064,679,887,385,961,981, and `InputError` at or above
    that bound."""
    if n >= _MR_BOUND:
        raise InputError(f"{n} is beyond the exact range of the primality test")
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def require_prime(p: int) -> None:
    if not is_prime(p):
        raise InputError(f"{p} is not prime")


# ---------------------------------------------------------------------------
# Gaussian rationals
# ---------------------------------------------------------------------------


class GaussianRational:
    """An element of Q(i), exact field arithmetic on Fraction parts.

    It reads as `int` and `Fraction` do (`real`, `imag`, `conjugate()`,
    zero falsy), so code that takes all three reads entries one way, and it
    equals and hashes as its real part when its imaginary part is 0.
    """

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

    @property
    def real(self) -> Fraction:
        return self.re

    @property
    def imag(self) -> Fraction:
        return self.im

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def __bool__(self):
        return self.re != 0 or self.im != 0

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
        return hash((self.re, self.im)) if self.im else hash(self.re)

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


def _layout(terms: Mapping[tuple[int, int], int]) -> tuple[int, list[int]]:
    """(d, [c_0..c_{d//2}]) of a homogeneous {(i, j): c} map; d = 0 if empty."""
    bad = [k for k in terms if min(k) < 0]
    if bad:
        raise InputError(f"negative exponent pair {bad[0]}")
    degs = sorted({i + 2 * j for i, j in terms})
    if len(degs) > 1:
        raise InputError(f"not homogeneous: terms of Legendre degrees {degs}")
    deg = degs[0] if degs else 0
    vec = [0] * (deg // 2 + 1)
    for (_i, j), c in terms.items():
        vec[j] = c
    return deg, vec


def _make(cls, deg: int | None, vec: list[int], **fields):
    """An instance of cls with the given fields; an all-zero vec makes zero,
    and a short one is padded to deg // 2 + 1 entries."""
    if any(vec):
        vec = vec + [0] * (deg // 2 + 1 - len(vec))
    else:
        deg, vec = None, []
    out = object.__new__(cls)
    for name, value in {"deg": deg, "vec": vec, **fields}.items():
        object.__setattr__(out, name, value)
    return out


class _Homogeneous:
    """What GradedPoly and ModPoly share: a homogeneous polynomial of
    Legendre degree `deg` whose integer list vec holds the coefficient of
    alpha^(deg-2j) beta^j at j (over `den` in GradedPoly); zero has deg None
    and vec [].  `__str__` renders the (i, j, num, den) rows of `_rows`."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def is_zero(self) -> bool:
        return not self.vec

    def legendre_degree(self) -> int:
        """The degree i + 2j of every term; undefined (raises) for zero."""
        if not self.vec:
            raise InputError("degree of the zero polynomial is undefined")
        return self.deg

    def _same_degree(self, other: "_Homogeneous") -> None:
        if self.deg != other.deg:
            raise InputError(f"mixed Legendre degrees {self.deg} and {other.deg}")

    def __str__(self):
        parts = []
        for i, j, num, den in self._rows():
            powers = (("a", i), ("b", j))
            m = "*".join(v if e == 1 else f"{v}^{e}" for v, e in powers if e)
            c = str(num) if den == "1" else f"{num}/{den}"
            if not m:
                parts.append(c)
            elif c in ("1", "-1"):
                parts.append(m if c == "1" else f"-{m}")
            else:
                parts.append(f"{c}*{m}")
        return " + ".join(parts).replace("+ -", "- ") or "0"


def _lowest(den: int, vec: list[int]) -> tuple[int, list[int]]:
    """vec / den in lowest terms, as `GradedPoly` and `QExpansion` keep it."""
    g = gcd(den, *vec)
    return (den, vec) if g == 1 else (den // g, [c // g for c in vec])


def _graded(deg: int | None, den: int, vec: list[int]) -> "GradedPoly":
    """The GradedPoly (sum_j vec[j] alpha^(deg-2j) beta^j) / den, in lowest
    terms."""
    den, vec = _lowest(den, vec)
    return _make(GradedPoly, deg, vec, den=den)


class GradedPoly(_Homogeneous):
    """Homogeneous exact polynomial in alpha, beta over Q.

    Stored as (deg, den, vec): vec[j] / den is the coefficient of
    alpha^(deg-2j) beta^j.  The fields are canonical (den > 0 and
    gcd(den, *vec) = 1), so equal polynomials have equal fields; zero has
    den 1.  A term map {(i, j): c} is accepted only if every nonzero term has
    the same i + 2j; otherwise the constructor raises `InputError`.
    """

    __slots__ = ("deg", "den", "vec")

    def __new__(cls, terms: Mapping[tuple[int, int], Scalar] | None = None):
        clean = {k: f for k, c in (terms or {}).items() if (f := Fraction(c))}
        den = lcm(*(f.denominator for f in clean.values()))
        deg, vec = _layout(
            {k: f.numerator * (den // f.denominator) for k, f in clean.items()}
        )
        return _graded(deg, den, vec)

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
        """{(i, j): coefficient of alpha^i beta^j} over the nonzero terms."""
        d, den = self.deg, self.den
        return {(d - 2 * j, j): Fraction(c, den) for j, c in enumerate(self.vec) if c}

    def coefficient(self, i: int, j: int) -> Fraction:
        if i < 0 or j < 0 or i + 2 * j != self.deg:
            return Fraction(0)
        return Fraction(self.vec[j], self.den)

    # -- ring arithmetic ----------------------------------------------------

    def __add__(self, other):
        o = GradedPoly.coerce(other)
        if not (self.vec and o.vec):
            return self if o.is_zero() else o
        self._same_degree(o)
        den = lcm(self.den, o.den)
        fa, fb = den // self.den, den // o.den
        vec = [fa * x + fb * y for x, y in zip(self.vec, o.vec)]
        return _graded(self.deg, den, vec)

    __radd__ = __add__

    def __neg__(self):
        return _graded(self.deg, self.den, [-c for c in self.vec])

    def __sub__(self, other):
        return self + (-GradedPoly.coerce(other))

    def __rsub__(self, other):
        return GradedPoly.coerce(other) + (-self)

    def __mul__(self, other):
        return _dot([(self, GradedPoly.coerce(other))])

    __rmul__ = __mul__

    def __pow__(self, n: int):
        """self^n = vec^n / den^n, with vec^n by J.C.P. Miller's recurrence
        (`_miller_power`): no squaring of a long list."""
        return _graded((self.deg or 0) * n, self.den**n, _miller_power(self.vec, n))

    def scale(self, c: Scalar) -> "GradedPoly":
        f = Fraction(c)
        vec = [x * f.numerator for x in self.vec]
        return _graded(self.deg, self.den * f.denominator, vec)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = GradedPoly.const(other)
        if not isinstance(other, GradedPoly):
            return NotImplemented
        return (self.deg, self.den, self.vec) == (other.deg, other.den, other.vec)

    def __hash__(self):
        return hash((self.deg, self.den, tuple(self.vec)))

    # -- substitutions ------------------------------------------------------

    def set_beta_zero(self) -> "GradedPoly":
        return _graded(self.deg, self.den, self.vec[:1])

    def alpha_part(self) -> "GradedPoly":
        """The term with no alpha factor, beta^(deg/2), alone: the image mod
        the ideal (alpha), zero when no such term is present."""
        if not self.vec or self.deg % 2:
            return ZERO
        return _graded(self.deg, self.den, [0] * (len(self.vec) - 1) + self.vec[-1:])

    # -- rendering and serialization ----------------------------------------

    def __repr__(self):
        return f"GradedPoly({self.terms!r})"

    def _rows(self) -> list[tuple[int, int, int, str]]:
        """(i, j, num, den) for each nonzero term, j ascending: the
        coefficient of alpha^i beta^j is num/den in lowest terms, with den a
        decimal string and no `Fraction` built.

        With den = 2^e * m and m odd, gcd(c, den) is gcd(c, m) shifted left
        by min(tz(c), e), tz(c) the trailing zeros of c.  m is 1 for P_k and
        v_n and p^n for ell_n, so no gcd of two long integers runs; e is 0
        for an odd den.  Each step runs only where it can divide, and den's
        string is made once per distinct gcd."""
        den, d = self.den, self.deg
        if den == 1:
            return [(d - 2 * j, j, c, "1") for j, c in enumerate(self.vec) if c]
        e = (den & -den).bit_length() - 1
        m = den >> e
        dens: dict[tuple[int, int], str] = {}
        rows = []
        for j, c in enumerate(self.vec):
            if c:
                t = min((c & -c).bit_length() - 1, e) if e else 0
                h = gcd(c, m) if m > 1 else 1
                s = dens.get((t, h))
                if s is None:
                    s = dens[t, h] = str((den >> t) // h)
                if t:
                    c >>= t
                rows.append((d - 2 * j, j, c // h if h > 1 else c, s))
        return rows

    def to_json_dict(self) -> dict:
        """The JSON of a polynomial: its rows, j descending.  `cli` writes
        this text from `_rows` without building the dict."""
        return {
            "terms": [
                {"i": i, "j": j, "num": str(num), "den": den}
                for i, j, num, den in reversed(self._rows())
            ]
        }


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


def _miller_power(f: list[int], n: int) -> list[int]:
    """f^n for a dense integer list f (low degree first), (len(f) - 1) * n + 1
    entries as n products would give, by J.C.P. Miller's power recurrence
    (Knuth, TAOCP vol. 2, section 4.7).

    With the s zeros below f's lowest nonzero entry dropped, f_0 != 0, and
    g = f^n satisfies f * g' = n * f' * g, so

        k * f_0 * g_k = sum_{i >= 1} ((n + 1) * i - k) * f_i * g_(k-i),

    a division that is exact over Z; the result is x^(s*n) * g.  Each g_k
    costs one product f_i * g_(k-i) per nonzero f_i, so a short f to a high
    power never multiplies two long entries of g.  A long f to a small power
    pays len(f) products per entry where a Kronecker square pays one
    multiply: P_702^2 takes about ten times as long as `_power` takes.
    Over F_p the division fails once p | k, so `ModPoly` keeps `_power`."""
    if n < 0:
        raise InputError("negative power")
    if not n:
        return [1]
    support = [i for i, c in enumerate(f) if c]
    if not support:
        return [0] * ((len(f) - 1) * n + 1)
    s = support[0]
    f0 = f[s]
    steps = [(i - s, f[i]) for i in support[1:]]
    top = (support[-1] - s) * n
    g = [f0**n] + [0] * top
    for k in range(1, top + 1):
        acc = 0
        for i, c in steps:
            if i > k:
                break
            acc += ((n + 1) * i - k) * c * g[k - i]
        g[k] = acc // (k * f0)
    return [0] * (s * n) + g + [0] * ((len(f) - 1 - support[-1]) * n)


def _dot(pairs) -> GradedPoly:
    """Sum of a * b over GradedPoly pairs (a, b): the convolutions of their
    integer lists, each lifted to one common denominator and summed, by a
    plain loop over the nonzero entries.  It serves short or lopsided pairs
    (ell_i by a power of v_1), where packing costs more than it saves."""
    products = [
        (a.deg + b.deg, a.den * b.den, a.vec, b.vec)
        for a, b in pairs
        if a.vec and b.vec
    ]
    if not products:
        return ZERO
    deg = products[0][0]
    den = lcm(*(d for _, d, _, _ in products))
    acc = [0] * (deg // 2 + 1)
    for d, pden, u, v in products:
        if d != deg:
            raise InputError(f"sum of products of Legendre degrees {deg} and {d}")
        lift = den // pden
        for i, x in enumerate(u):
            if x:
                x *= lift
                for j, y in enumerate(v, i):
                    acc[j] += x * y
    return _graded(deg, den, acc)


def _kron_mul(a: list[int], b: list[int], n: int) -> list[int]:
    """First n coefficients of the product of two dense integer polynomials
    (coefficient lists, low degree first): one multiply of the lists packed
    into w-byte digits that hold every product coefficient."""
    n = max(n, 0)
    a, b = a[:n], b[:n]
    bound = a and b and max(map(abs, a)) * max(map(abs, b)) * min(len(a), len(b))
    if not bound:
        return [0] * n
    w = bound.bit_length() // 8 + 1  # bytes per digit, so 8w - 1 >= bits(bound)
    return _unpack(_pack(a, w) * _pack(b, w), n, w)


def _biases(m: int, w: int) -> int:
    """The int whose m base-2^(8w) digits are each 2^(8w-1)."""
    return int.from_bytes((1 << (8 * w - 1)).to_bytes(w, "little") * m, "little")


def _pack(v: list[int], w: int) -> int:
    """sum_i v[i] * 2^(8wi) for v[i] in [-2^(8w-1), 2^(8w-1)): by shifts for a
    short list, else (a shift per entry being quadratic) by one
    `int.from_bytes` of the entries plus 2^(8w-1)."""
    if len(v) <= 16:
        x = 0
        for c in reversed(v):
            x = (x << 8 * w) + c
        return x
    bias = 1 << (8 * w - 1)
    raw = b"".join([(c + bias).to_bytes(w, "little") for c in v])
    return int.from_bytes(raw, "little") - _biases(len(v), w)


def _unpack(x: int, m: int, w: int) -> list[int]:
    """The m lowest entries of x as `_pack` writes them, if every digit of x
    lies in [-2^(8w-1), 2^(8w-1)): by shifts, or by one `int.to_bytes`."""
    bias = 1 << (8 * w - 1)
    if m <= 16:
        out = []
        for _ in range(m):
            out.append(((x + bias) & (2 * bias - 1)) - bias)
            x = (x - out[-1]) >> 8 * w
        return out
    raw = ((x + _biases(m, w)) & ((1 << 8 * w * m) - 1)).to_bytes(m * w, "little")
    return [int.from_bytes(raw[i : i + w], "little") - bias for i in range(0, m * w, w)]


ZERO = GradedPoly()
ONE = GradedPoly.const(1)
ALPHA = GradedPoly({(1, 0): 1})
BETA = GradedPoly({(0, 1): 1})

# Delta_G = (alpha^2 - beta) / 2^8, the normalized cusp form as a ring element.
DELTA_G = (ALPHA * ALPHA - BETA).scale(Fraction(1, 256))


def is_p_integral(a: GradedPoly, p: int) -> bool:
    """True iff every coefficient denominator is coprime to p."""
    require_prime(p)
    return a.den % p != 0


# ---------------------------------------------------------------------------
# Mod-p layer
# ---------------------------------------------------------------------------


def _modpoly(p: int, deg: int | None, vec: list[int]) -> "ModPoly":
    return _make(ModPoly, deg, [c % p for c in vec], p=p)


class ModPoly(_Homogeneous):
    """Homogeneous polynomial in alpha, beta over F_p: the GradedPoly layout
    (deg, vec) with no denominator and vec[j] in {0, .., p-1}."""

    __slots__ = ("p", "deg", "vec")

    def __new__(cls, p: int, terms: Mapping[tuple[int, int], int] | None = None):
        require_prime(p)
        return _modpoly(p, *_layout({k: c for k, c in (terms or {}).items() if c % p}))

    @property
    def terms(self) -> dict[tuple[int, int], int]:
        d = self.deg
        return {(d - 2 * j, j): c for j, c in enumerate(self.vec) if c}

    def _rows(self) -> list[tuple[int, int, int, str]]:
        return [(i, j, c, "1") for (i, j), c in self.terms.items()]

    def _check(self, other: "ModPoly") -> None:
        if self.p != other.p:
            raise InputError("mixed characteristics")

    def __add__(self, other: "ModPoly"):
        self._check(other)
        if not (self.vec and other.vec):
            return self if other.is_zero() else other
        self._same_degree(other)
        return _modpoly(self.p, self.deg, [x + y for x, y in zip(self.vec, other.vec)])

    def __neg__(self):
        return _modpoly(self.p, self.deg, [-c for c in self.vec])

    def __sub__(self, other: "ModPoly"):
        return self + (-other)

    def __mul__(self, other: "ModPoly"):
        self._check(other)
        deg = (self.deg or 0) + (other.deg or 0)
        return _modpoly(self.p, deg, _kron_mul(self.vec, other.vec, deg // 2 + 1))

    def __pow__(self, n: int):
        return _power(_modpoly(self.p, 0, [1]), self, n, operator.mul)

    def __eq__(self, other):
        if not isinstance(other, ModPoly):
            return NotImplemented
        return (self.p, self.deg, self.vec) == (other.p, other.deg, other.vec)

    def __hash__(self):
        return hash((self.p, self.deg, tuple(self.vec)))

    def set_beta_zero(self) -> "ModPoly":
        return _modpoly(self.p, self.deg, self.vec[:1])

    def __repr__(self):
        return f"ModPoly({self.p}, {self.terms!r})"


def _dehomogenize(a: ModPoly) -> list[int]:
    """Dense coefficient list of a(x, 1) over F_p, low degree first, with no
    trailing zeros."""
    if not a.vec:
        return []
    out = [0] * (a.deg + 1)
    out[a.deg :: -2] = a.vec
    while not out[-1]:
        out.pop()
    return out


def reduce_mod_p(a: GradedPoly, p: int) -> ModPoly:
    """Coefficient-wise reduction into F_p; requires p-integrality."""
    if not is_p_integral(a, p):
        raise InputError(f"polynomial is not {p}-integral")
    inv = pow(a.den, -1, p)
    return _modpoly(p, a.deg, [c * inv for c in a.vec])


def reduce_mod_v1(a: ModPoly, v1: ModPoly) -> ModPoly:
    """Remainder of a on division by v1 in the variable alpha over F_p[beta].

    Requires the alpha-leading coefficient of v1 to be an invertible scalar
    (no beta factor); the remainder has alpha-degree below that of v1.  With
    that leading coefficient, division commutes with setting beta = 1: the
    remainder is the univariate one of a(x, 1) by v1(x, 1), homogenized
    again at the degree of a.
    """
    if v1.is_zero():
        raise InputError("division by the zero polynomial")
    p = v1.p
    if a.p != p:
        raise InputError("mixed characteristics")
    if not v1.vec[0]:
        raise InputError("alpha-leading coefficient of v1 is not scalar")
    if a.is_zero():
        return a
    r = _poly_mod(_dehomogenize(a), _dehomogenize(v1), p)
    r += [0] * (a.deg + 1 - len(r))
    return _modpoly(p, a.deg, r[a.deg :: -2])


def _poly_mod(a: list[int], b: list[int], p: int) -> list[int]:
    """a mod b over F_p for dense integer coefficient lists (low first), with
    b's last entry nonzero mod p; the remainder is reduced into
    {0, .., p-1} and has no trailing zeros."""
    a = [c % p for c in a]
    top = len(b) - 1
    inv = pow(b[-1], -1, p)
    for e in range(len(a) - 1, top - 1, -1):
        factor = a[e] * inv % p
        if factor:
            for i, c in enumerate(b, e - top):
                a[i] = (a[i] - factor * c) % p
    r = a[:top]
    while r and not r[-1]:
        r.pop()
    return r


def dehom_gcd(a: ModPoly, b: ModPoly) -> list[int]:
    """Monic gcd of a(x, 1) and b(x, 1) over F_p, dense low-first coefficients."""
    if a.is_zero() and b.is_zero():
        raise InputError("gcd of two zero polynomials")
    p = a.p
    if b.p != p:
        raise InputError("mixed characteristics")
    u, v = _dehomogenize(a), _dehomogenize(b)
    while v:
        u, v = v, _poly_mod(u, v, p)
    inv = pow(u[-1], -1, p)
    return [c * inv % p for c in u]
