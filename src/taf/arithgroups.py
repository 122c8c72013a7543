"""Exact matrix machinery: U(1,1; Z[i]), the Cayley transform, and the
embeddings into Sp(2; Z).

All algebra is exact, so membership certificates are exact.  Q(i) is
`GaussianRational`, defined here since no other module uses it, so
`import taf` does not load it.  A `Mat` entry is stored in the narrowest
of three forms: an `int` when it is a rational integer, a `Fraction`
when it is real, and a `GaussianRational` only when its imaginary part
is nonzero.  So the integer 4x4 matrices of Sp(2; Z) multiply on Python
ints, and Q(i) arithmetic runs only on complex entries.  The standard
embedding sends

    g = Re(g) + i*Im(g)  ->  ( Re(g)      Im(g)*H  )
                             ( -H*Im(g)   H*Re(g)*H )

with H = diag(1, -1); its image is cut out inside Sp(2; Z) by commutation
with J = ((0, -H), (H, 0)) after the off-diagonal sign twist sigma.  The
Cayley transform by g0 = (1, i; i, 1)/sqrt(2) moves the unit-ball picture
to the upper half-plane; conjugating the standard embedding by the fixed
symplectic matrix T below yields the twisted embedding whose induced map
on parameters is tau -> ((tau/2, 1/2), (1/2, tau/2)).

T is pinned down (up to the pointwise stabilizer of the image family,
which acts trivially on the embedded group) by two exact conditions: it
carries every ball-model period matrix to the corresponding half-plane
one, and it conjugates J to the fixed order-four matrix K4 below.  Both
conditions are re-verified in the test suite, and the twisted J-identity
on the period matrices (1, Omega_tau) is checked with K4 itself.

One matrix type, `Mat`, holds every shape: the 2x2 group elements, the
4x4 symplectic matrices and the 2x4 period matrices (1, Omega) multiply
with the same product, and a mismatch of shapes raises `InputError`.  One
Gauss-Jordan pass gives both the determinant and the inverse, and the
fixed matrices are inverted once, at import.

Fundamental-domain reduction runs in Q(i) as well: a float input point is
converted exactly, the greedy walk tests |tau -+ 1|^2 >= 2 in Q, and the
certificate is an exact equality, with no tolerance and no step cap.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import isfinite
from typing import NamedTuple

from .exact import InputError, Scalar


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


I = GaussianRational(0, 1)
GR = GaussianRational


def _entry(x):
    """x as an int if it is a rational integer, as a Fraction if it is real,
    and as a GaussianRational otherwise: the one form a `Mat` stores."""
    kind = type(x)
    if kind is int:
        return x
    if kind is GR:
        if x.im:
            return x
        x = x.re
    elif kind is not Fraction:
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


class Mat:
    """Dense matrix over Q(i) of any shape; immutable.

    Every row has the same length, and `shape` is (rows, columns).  `+` and
    `-` need equal shapes, `A * B` needs as many columns in A as rows in B,
    and `det` and `inv` need a square matrix; each raises `InputError`
    otherwise, as the constructor does on ragged rows.  `det` and `inv`
    share one Gauss-Jordan pass.  Entries are stored as `_entry` gives
    them, so equal matrices have equal rows and equal hashes.
    """

    __slots__ = ("rows",)

    def __init__(self, rows):
        rs = tuple(tuple(map(_entry, row)) for row in rows)
        if len({len(r) for r in rs}) > 1:
            raise InputError("matrix rows must have equal lengths")
        object.__setattr__(self, "rows", rs)

    def __setattr__(self, name, value):
        raise AttributeError("Mat is immutable")

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.rows), len(self.rows[0]) if self.rows else 0

    @staticmethod
    def identity(n: int) -> "Mat":
        return Mat([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def _entrywise(self, other: "Mat", op) -> "Mat":
        if self.shape != other.shape:
            raise InputError(f"shapes {self.shape} and {other.shape} differ")
        return Mat(map(op, r1, r2) for r1, r2 in zip(self.rows, other.rows))

    def __add__(self, other: "Mat"):
        return self._entrywise(other, operator.add)

    def __sub__(self, other: "Mat"):
        return self._entrywise(other, operator.sub)

    def __neg__(self):
        return Mat([[-a for a in r] for r in self.rows])

    def __mul__(self, other):
        if not isinstance(other, Mat):
            return self.scale(other)
        if self.shape[1] != other.shape[0]:
            raise InputError(f"cannot multiply {self.shape} by {other.shape}")
        cols = tuple(zip(*other.rows))
        return Mat([sum(map(operator.mul, r, c)) for c in cols] for r in self.rows)

    def scale(self, c) -> "Mat":
        c = _entry(c)
        return Mat([[c * a for a in r] for r in self.rows])

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def transpose(self) -> "Mat":
        return Mat(zip(*self.rows))

    def conj_transpose(self) -> "Mat":
        return Mat([a.conjugate() for a in c] for c in zip(*self.rows))

    def _gauss_jordan(self) -> tuple[GR, "Mat | None"]:
        """(det, inverse) from one Gauss-Jordan pass over Q(i); the inverse
        is None when the determinant is 0."""
        n, m = self.shape
        if n != m:
            raise InputError(f"a {n}x{m} matrix is not square")
        a = [list(r) for r in self.rows]
        b = [[int(i == j) for j in range(n)] for i in range(n)]
        det = 1
        for col in range(n):
            pivot = next((r for r in range(col, n) if a[r][col]), None)
            if pivot is None:
                return GR(0), None
            if pivot != col:
                a[col], a[pivot] = a[pivot], a[col]
                b[col], b[pivot] = b[pivot], b[col]
                det = -det
            p = a[col][col]
            det = det * p
            inv_p = p.inv() if type(p) is GR else _entry(Fraction(1, p))
            a[col] = [x * inv_p for x in a[col]]
            b[col] = [x * inv_p for x in b[col]]
            for r in range(n):
                if r != col and a[r][col]:
                    f = a[r][col]
                    a[r] = [x - f * y for x, y in zip(a[r], a[col])]
                    b[r] = [x - f * y for x, y in zip(b[r], b[col])]
        return GR.coerce(det), Mat(b)

    def inv(self) -> "Mat":
        """Exact inverse over Q(i); `InputError` when singular."""
        inverse = self._gauss_jordan()[1]
        if inverse is None:
            raise InputError("singular matrix")
        return inverse

    def det(self) -> GR:
        """Exact determinant over Q(i)."""
        return self._gauss_jordan()[0]

    def block(self, i0: int, j0: int, size: int) -> "Mat":
        return Mat(r[j0 : j0 + size] for r in self.rows[i0 : i0 + size])

    def is_gaussian_integral(self) -> bool:
        return all(
            a.real.denominator == 1 and a.imag.denominator == 1
            for r in self.rows
            for a in r
        )

    def is_rational_integral(self) -> bool:
        return all(not a.imag and a.real.denominator == 1 for r in self.rows for a in r)

    def apply(self, vec):
        return [sum(map(operator.mul, r, vec)) for r in self.rows]

    def to_json(self):
        return [
            [
                {
                    "re_num": str(a.real.numerator),
                    "re_den": str(a.real.denominator),
                    "im_num": str(a.imag.numerator),
                    "im_den": str(a.imag.denominator),
                }
                for a in row
            ]
            for row in self.rows
        ]

    def __repr__(self):
        return "Mat([" + ", ".join(str(list(map(str, r))) for r in self.rows) + "])"


def hstack(a: Mat, b: Mat) -> Mat:
    """(a, b): two matrices with as many rows side by side."""
    if a.shape[0] != b.shape[0]:
        raise InputError(f"cannot put {a.shape} beside {b.shape}")
    return Mat(x + y for x, y in zip(a.rows, b.rows))


def block4(a: Mat, b: Mat, c: Mat, d: Mat) -> Mat:
    """((a, b), (c, d))."""
    return Mat(hstack(a, b).rows + hstack(c, d).rows)


# -- fixed matrices ---------------------------------------------------------

H = Mat([[1, 0], [0, -1]])
# The standard symplectic form (0, 1; -1, 0) and J = (0, -H; H, 0).
J0 = Mat([[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]])
J = Mat([[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]])

# The twisted-embedding conjugator (see module docstring).
T_MATRIX = Mat([[0, 1, 0, 0], [1, 0, 0, 0], [1, 0, 0, 1], [0, 1, 1, 0]])
_T_MATRIX_INV = T_MATRIX.inv()

# sigma(T) J sigma(T)^{-1}: the order-four matrix acting on the half-plane
# family of period matrices.
K4 = Mat([[0, 1, 1, 0], [-1, 0, 0, -1], [0, 0, 0, 1], [0, 0, -1, 0]])

# Generators: the unit-ball group and their Cayley images.
U_GEN_PARABOLIC = Mat([[GR(1, 1), 1], [1, GR(1, -1)]])  # (1+i, 1; 1, 1-i)
U_GEN_ROTATION = Mat([[I, 0], [0, -I]])  # diag(i, -i)
U_GEN_C4 = Mat([[I, 0], [0, 1]])  # diag(i, 1)

G_GEN_TRANSLATION = Mat([[1, 2], [0, 1]])
G_GEN_S = Mat([[0, 1], [-1, 0]])
G_GEN_C4 = Mat([[1, 1], [-1, 1]]).scale(GR(Fraction(1, 2), Fraction(1, 2)))
_T_INV = Mat([[1, -2], [0, 1]])
_C4_INV = Mat([[1, -1], [1, 1]]).scale(GR(Fraction(1, 2), Fraction(-1, 2)))
_G_GENERATORS = (G_GEN_TRANSLATION, _T_INV, G_GEN_S, -G_GEN_S, G_GEN_C4, _C4_INV)

# sqrt(2)*g0 and sqrt(2)*g0^{-1}, for the Cayley element g0 = (1, i; i, 1)/sqrt(2).
_G0 = Mat([[1, I], [I, 1]])
_G0_INV = Mat([[1, -I], [-I, 1]])


def sigma(m: Mat) -> Mat:
    """Sign twist on the off-diagonal 2x2 blocks of a 4x4 matrix."""
    return block4(
        m.block(0, 0, 2), -m.block(0, 2, 2), -m.block(2, 0, 2), m.block(2, 2, 2)
    )


def is_symplectic(m: Mat) -> bool:
    return m.transpose() * J0 * m == J0


def in_u11(g: Mat) -> bool:
    """Membership in U(1,1; Z[i]): Gaussian-integer entries preserving H."""
    return g.is_gaussian_integral() and g.conj_transpose() * H * g == H


def in_gamma_theta(m: Mat) -> bool:
    """Integer entries, det 1, and ab = cd = 0 (mod 2); `InputError` unless
    m is 2x2."""
    if m.shape != (2, 2):
        raise InputError(f"Gamma_theta membership needs a 2x2 matrix, not {m.shape}")
    if not m.is_rational_integral():
        return False
    (a, b), (c, d) = m.rows
    if a * d - b * c != 1:
        return False
    return (a * b) % 2 == 0 and (c * d) % 2 == 0


def in_g(gamma: Mat) -> bool:
    """Membership in G = g0 U(1,1; Z[i]) g0^{-1}, decided exactly via the
    inverse Cayley transform (the sqrt(2) factors cancel)."""
    return in_u11(cayley_inverse(gamma))


# ---------------------------------------------------------------------------
# Embeddings
# ---------------------------------------------------------------------------


def rho(g: Mat) -> Mat:
    """Standard embedding U(1,1; Z[i]) -> Sp(2; Z)."""
    if not in_u11(g):
        raise InputError("input is not in U(1,1; Z[i])")
    return rho_unchecked(g)


def rho_unchecked(g: Mat) -> Mat:
    """The block formula of the module docstring, read off the entries of a
    2x2 g: with Re(g) = (a, b; c, d) and Im(g) = (e, f; k, l), Im(g)*H
    negates the second column, H*Im(g) the second row, and H*Re(g)*H the
    off-diagonal entries."""
    (a, b), (c, d) = ([x.real for x in r] for r in g.rows)
    (e, f), (k, l) = ([x.imag for x in r] for r in g.rows)
    return Mat([[a, b, e, -f], [c, d, k, -l], [-e, -f, a, -b], [k, l, -c, d]])


def cayley(g: Mat) -> Mat:
    """g0 g g0^{-1}, exactly: (1, i; i, 1) g (1, -i; -i, 1) / 2."""
    return (_G0 * g * _G0_INV).scale(Fraction(1, 2))


def cayley_inverse(gamma: Mat) -> Mat:
    """g0^{-1} gamma g0, exactly: (1, -i; -i, 1) gamma (1, i; i, 1) / 2."""
    return (_G0_INV * gamma * _G0).scale(Fraction(1, 2))


def iota(gamma: Mat) -> Mat:
    """Twisted embedding G -> Sp(2; Z): T rho(g0^{-1} gamma g0) T^{-1}."""
    pre = cayley_inverse(gamma)
    if not in_u11(pre):
        raise InputError("input is not in G = g0 U(1,1; Z[i]) g0^{-1}")
    return T_MATRIX * rho_unchecked(pre) * _T_MATRIX_INV


# ---------------------------------------------------------------------------
# Period matrices and the exact identities
# ---------------------------------------------------------------------------


def omega_ball(z: GR) -> Mat:
    """Ball-model period matrix i/(1-z^2) * ((1+z^2, 2z), (2z, 1+z^2));
    needs |z| < 1."""
    z = GR.coerce(z)
    if z.norm() >= 1:
        raise InputError("ball parameter needs |z| < 1")
    factor = I / (GR(1) - z * z)
    return Mat([[1 + z * z, 2 * z], [2 * z, 1 + z * z]]).scale(factor)


def omega_halfplane(tau: GR) -> Mat:
    """Half-plane period matrix ((tau/2, 1/2), (1/2, tau/2)); needs im > 0."""
    tau = GR.coerce(tau)
    if tau.im <= 0:
        raise InputError("tau must lie in the upper half-plane")
    half = GR(Fraction(1, 2))
    return Mat([[tau * half, half], [half, tau * half]])


def r_matrix(z: GR) -> Mat:
    """R_z = -i * Omega_z * H, the determinant -1 involution fixing the
    negative line of the ball point."""
    return (omega_ball(z) * H).scale(-I)


def _siegel_image(m: Mat, omega: Mat) -> tuple[Mat, Mat]:
    """(A*Omega + B)(C*Omega + D)^{-1} and (C*Omega + D)^{-1} for a 4x4 m
    over a 2x2 Omega; one elimination both finds the point degenerate or
    not and inverts."""
    if m.shape != (4, 4):
        raise InputError(f"the action needs a 4x4 matrix, not {m.shape}")
    denom = m.block(2, 0, 2) * omega + m.block(2, 2, 2)
    inverse = denom._gauss_jordan()[1]
    if inverse is None:
        raise InputError("degenerate point: C*Omega + D is singular")
    return (m.block(0, 0, 2) * omega + m.block(0, 2, 2)) * inverse, inverse


def siegel_action(m: Mat, omega: Mat) -> Mat:
    """(A*Omega + B)(C*Omega + D)^{-1} for a 4x4 over a 2x2."""
    return _siegel_image(m, omega)[0]


def extended_action(m: Mat, omega: Mat, vec) -> tuple[Mat, list]:
    """The action on (Omega, w): fractional-linear on Omega and
    ((C*Omega + D)^tr)^{-1} on the vector."""
    image, inverse = _siegel_image(m, omega)
    return image, inverse.transpose().apply(vec)


def j_identities(z: GR) -> bool:
    """The exact J-identities at a ball point: (1, Omega_z) J = (Omega_z H, -H)
    = i R_z (1, Omega_z), R_z (z, 1)^tr = -(z, 1)^tr, det R_z = -1, and the
    twisted analog (1, Omega_tau) K4 = (0, 1; -1, 0) (1, Omega_tau)."""
    z = GR.coerce(z)
    omega = omega_ball(z)
    period = hstack(Mat.identity(2), omega)
    lhs = period * J
    if lhs != hstack(omega * H, -H):
        return False
    rz = r_matrix(z)
    if lhs != rz.scale(I) * period:
        return False
    if rz.apply([z, GR(1)]) != [-z, GR(-1)]:
        return False
    if rz.det() != GR(-1):
        return False
    # Twisted version at the Cayley image of z.
    tau = (z + I) / (GR(1) + I * z)
    period_tau = hstack(Mat.identity(2), omega_halfplane(tau))
    return period_tau * K4 == Mat([[0, 1], [-1, 0]]) * period_tau


def eq2_check(image: Mat) -> bool:
    """sigma(image) commutes with J; holds for image = rho(g), g in
    U(1,1; Z[i])."""
    sg = sigma(image)
    return sg * J == J * sg


def eq6_check() -> bool:
    """sigma(T) J sigma(T)^{-1} equals the fixed order-four matrix."""
    st = sigma(T_MATRIX)
    return st * J * st.inv() == K4


def cayley_compatibility(z: GR) -> bool:
    """T carries the ball period matrix at z to the half-plane one at the
    Cayley image of z."""
    z = GR.coerce(z)
    tau = (z + I) / (GR(1) + I * z)
    return siegel_action(T_MATRIX, omega_ball(z)) == omega_halfplane(tau)


def equivariance_check(gamma: Mat, tau: GR, w: GR) -> bool:
    """Prop-2-style diagram: iota(gamma) acting on (Omega_tau, (iw, w))
    equals the image of (gamma.tau, w/(c*tau + d))."""
    tau, w = GR.coerce(tau), GR.coerce(w)
    m = iota(gamma)
    lhs_omega, lhs_vec = extended_action(m, omega_halfplane(tau), [I * w, w])
    a, b = gamma[0, 0], gamma[0, 1]
    c, d = gamma[1, 0], gamma[1, 1]
    denom = c * tau + d
    tau2 = (a * tau + b) / denom
    w2 = w / denom
    return lhs_omega == omega_halfplane(tau2) and lhs_vec == [I * w2, w2]


# ---------------------------------------------------------------------------
# Generator correspondences and the embedding suite
# ---------------------------------------------------------------------------

# Expected twisted-embedding images of the three generators of G.
IOTA_IMAGE_TRANSLATION = Mat(
    [[1, 0, 1, 0], [0, 1, 0, 1], [0, 0, 1, 0], [0, 0, 0, 1]]
)
IOTA_IMAGE_S = Mat(
    [[0, -1, 1, 0], [-1, 0, 0, 1], [-2, 0, 0, 1], [0, -2, 1, 0]]
)
IOTA_IMAGE_C4 = Mat(
    [[1, 0, 0, 0], [-1, 0, 0, 1], [-1, -1, 1, 1], [1, -1, 0, 0]]
)


def generator_correspondence_check() -> bool:
    """The Cayley transform sends the three ball-model generators to the
    three half-plane generators, and the determinant-1 half-plane
    generators land in the theta group."""
    pairs = [
        (U_GEN_PARABOLIC, G_GEN_TRANSLATION),
        (U_GEN_ROTATION, G_GEN_S),
        (U_GEN_C4, G_GEN_C4),
    ]
    if any(cayley(u) != g for u, g in pairs):
        return False
    if any(not in_u11(u) for u, _ in pairs):
        return False
    return in_gamma_theta(G_GEN_TRANSLATION) and in_gamma_theta(G_GEN_S)


def iota_image_check() -> bool:
    """The twisted embedding hits the expected integer symplectic matrices
    on the three generators."""
    pairs = [
        (G_GEN_TRANSLATION, IOTA_IMAGE_TRANSLATION),
        (G_GEN_S, IOTA_IMAGE_S),
        (G_GEN_C4, IOTA_IMAGE_C4),
    ]
    for gen, expected in pairs:
        image = iota(gen)
        if image != expected:
            return False
        if not (image.is_rational_integral() and is_symplectic(image)):
            return False
    return True


def random_group_element(rng, length: int = 6) -> Mat:
    """A random word in the generators of G (exact entries)."""
    m = Mat.identity(2)
    for _ in range(length):
        m = m * _G_GENERATORS[rng.randrange(len(_G_GENERATORS))]
    return m


def random_ball_point(rng) -> GR:
    """A random exact point of the open unit ball (rational re/im)."""
    while True:
        z = GR(Fraction(rng.randint(-7, 7), 10), Fraction(rng.randint(-7, 7), 10))
        if z.norm() < 1:
            return z


def random_halfplane_point(rng) -> GR:
    """A random exact upper-half-plane point."""
    return GR(
        Fraction(rng.randint(-12, 12), rng.randint(1, 5)),
        Fraction(rng.randint(1, 12), rng.randint(1, 4)),
    )


def embedding_suite() -> dict[str, bool]:
    """Every exact identity of the embedding layer at once, with ten random
    exact sample points drawn from a generator seeded with 0."""
    import random

    rng = random.Random(0)
    results = {
        "generator_correspondence": generator_correspondence_check(),
        "iota_images": iota_image_check(),
        "eq6": eq6_check(),
        "t_integral_symplectic": T_MATRIX.is_rational_integral()
        and is_symplectic(T_MATRIX),
    }
    ok_eq2 = ok_rho = ok_j = ok_cayley = ok_equiv = True
    for _ in range(10):
        gamma = random_group_element(rng)
        image = rho(cayley_inverse(gamma))
        ok_eq2 &= eq2_check(image)
        ok_rho &= is_symplectic(image) and image.is_rational_integral()
        z = random_ball_point(rng)
        ok_j &= j_identities(z)
        ok_cayley &= cayley_compatibility(z)
        tau = random_halfplane_point(rng)
        w = GR(Fraction(rng.randint(-5, 5), 3), Fraction(rng.randint(1, 5), 2))
        ok_equiv &= equivariance_check(gamma, tau, w)
    results["eq2"] = ok_eq2
    results["rho_symplectic_integral"] = ok_rho
    results["j_identities"] = ok_j
    results["cayley_compatibility"] = ok_cayley
    results["equivariance"] = ok_equiv
    return results


# ---------------------------------------------------------------------------
# Fundamental-domain reduction
# ---------------------------------------------------------------------------


def _exact_point(tau) -> GR:
    """tau as a point of Q(i).  A finite float is a dyadic rational, so a
    complex converts exactly; it is not reread as a decimal."""
    if isinstance(tau, complex):
        if not (isfinite(tau.real) and isfinite(tau.imag)):
            raise InputError("tau must be finite")
        return GR(tau.real, tau.imag)
    return GR.coerce(tau)


def _act(m: Mat, tau: GR) -> GR:
    """The fractional-linear action (a*tau + b)/(c*tau + d), exactly."""
    return (m[0, 0] * tau + m[0, 1]) / (m[1, 0] * tau + m[1, 1])


def in_fundamental_domain(tau) -> bool:
    """Membership in the closed domain Im tau > 0, |Re tau| <= 1,
    |tau - 1|^2 >= 2, |tau + 1|^2 >= 2, decided exactly in Q(i)."""
    tau = _exact_point(tau)
    return (
        tau.im > 0
        and abs(tau.re) <= 1
        and (tau - 1).norm() >= 2
        and (tau + 1).norm() >= 2
    )


class ReductionResult(NamedTuple):
    tau_reduced: GR
    word: tuple[str, ...]
    matrix: Mat  # element of G with matrix . tau = tau_reduced

    def certificate_ok(self, tau_input) -> bool:
        """Exact: the matrix lies in G, carries tau_input to tau_reduced in
        Q(i), and tau_reduced lies in the closed domain."""
        return (
            in_g(self.matrix)
            and _act(self.matrix, _exact_point(tau_input)) == self.tau_reduced
            and in_fundamental_domain(self.tau_reduced)
        )


def reduce_to_fundamental_domain(tau) -> ReductionResult:
    """Greedy reduction into the fundamental domain of the Cayley-transformed
    group, exactly in Q(i).  Translate Re tau into [-1, 1] with one power
    T^k (tau -> tau + 2k); while tau lies inside an isometric circle
    |tau -+ 1| = sqrt(2), apply C^{+-1} and translate again.  The word lists
    the generator powers in the order they were applied.

    The walk ends without a step cap (Ford, Automorphic Functions, 1929):
    C^{+-1} multiplies Im tau by the exact factor 2/|tau -+ 1|^2 > 1 and T^k
    keeps it, while G is discrete, so the orbit of tau has only finitely
    many imaginary parts above Im tau."""
    current = _exact_point(tau)
    if current.im <= 0:
        raise InputError("tau must lie in the upper half-plane")
    word: list[str] = []
    acc = Mat.identity(2)
    while True:
        k = -round(current.re / 2)
        if k:
            gen, name = Mat([[1, 2 * k], [0, 1]]), f"T^{k}"
        elif (current - 1).norm() < 2:
            gen, name = G_GEN_C4, "C"
        elif (current + 1).norm() < 2:
            gen, name = _C4_INV, "C^-1"
        else:
            return ReductionResult(tau_reduced=current, word=tuple(word), matrix=acc)
        current = _act(gen, current)
        acc = gen * acc
        word.append(name)
