"""Exact matrix identities: U(1,1; Z[i]), Cayley, embeddings, reduction."""

import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taf.arithgroups import (
    G_GEN_C4,
    GaussianRational,
    G_GEN_S,
    G_GEN_TRANSLATION,
    H,
    I,
    IOTA_IMAGE_C4,
    IOTA_IMAGE_S,
    IOTA_IMAGE_TRANSLATION,
    J,
    J0,
    K4,
    Mat,
    T_MATRIX,
    U_GEN_C4,
    U_GEN_PARABOLIC,
    U_GEN_ROTATION,
    block4,
    cayley,
    cayley_inverse,
    embedding_suite,
    eq2_check,
    eq6_check,
    equivariance_check,
    extended_action,
    generator_correspondence_check,
    hstack,
    in_fundamental_domain,
    in_g,
    in_gamma_theta,
    in_u11,
    iota,
    iota_image_check,
    is_symplectic,
    j_identities,
    omega_ball,
    omega_halfplane,
    r_matrix,
    random_ball_point,
    random_group_element,
    random_halfplane_point,
    reduce_to_fundamental_domain,
    rho,
    rho_unchecked,
    siegel_action,
    sigma,
)
from taf.exact import InputError
from test_exact import fractions

GR = GaussianRational


def mul_2x4(rows, m: Mat):
    """The 2x4-by-4x4 index loop that `Mat` products replaced in
    `j_identities`, kept as the reference."""
    return [
        [
            sum((rows[i][k] * m.rows[k][j] for k in range(4)), GR(0))
            for j in range(4)
        ]
        for i in range(2)
    ]


def mul_2x2_2x4(m: Mat, rows):
    """The 2x2-by-2x4 index loop that `Mat` products replaced, kept as the
    reference."""
    return [
        [
            sum((m.rows[i][k] * rows[k][j] for k in range(2)), GR(0))
            for j in range(4)
        ]
        for i in range(2)
    ]


def index_apply(m: Mat, vec):
    """The square matrix-vector index loop, kept as the reference."""
    n = len(vec)
    return [sum((m.rows[i][j] * vec[j] for j in range(n)), GR(0)) for i in range(n)]


def hand_cayley(g: Mat) -> Mat:
    """The hand-expanded Cayley entries that the product form replaced, kept
    as the reference: (a, b; c, d) -> ((a+ic-ib+d, -ia+c+b+id),
    (ia+c+b-id, a-ic+ib+d))/2."""
    a, b, c, d = g[0, 0], g[0, 1], g[1, 0], g[1, 1]
    half = GR(Fraction(1, 2))
    return Mat(
        [
            [a + I * c - I * b + d, -I * a + c + b + I * d],
            [I * a + c + b - I * d, a - I * c + I * b + d],
        ]
    ).scale(half)


def leibniz_det(m: Mat) -> GR:
    """The permutation-sum determinant, the reference for elimination."""
    n = m.shape[0]
    total = GR(0)
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = GR(-1 if inversions % 2 else 1)
        for i, j in enumerate(perm):
            term = term * m[i, j]
        total = total + term
    return total


def random_mat(rng, rows: int, cols: int) -> Mat:
    """Random Gaussian-rational entries, zero about one time in five."""

    def entry():
        if rng.random() < 0.2:
            return 0
        den = rng.randint(1, 3)
        return GR(Fraction(rng.randint(-4, 4), den), Fraction(rng.randint(-4, 4), den))

    return Mat([[entry() for _ in range(cols)] for _ in range(rows)])


class GaussianMat:
    """The matrix of this layer as it was before entries took their
    narrowest form: every entry a GaussianRational, every product, the
    Gauss-Jordan pass and the conjugate transpose on Q(i).  Kept as the
    oracle of `Mat`."""

    def __init__(self, rows):
        self.rows = [[GR.coerce(x) for x in r] for r in rows]

    def __mul__(self, other):
        cols = list(zip(*other.rows))
        return GaussianMat(
            [sum((a * b for a, b in zip(r, c)), GR(0)) for c in cols]
            for r in self.rows
        )

    def conj_transpose(self):
        return GaussianMat([[a.conjugate() for a in c] for c in zip(*self.rows)])

    def gauss_jordan(self):
        """(det, inverse rows), the inverse None when the det is 0."""
        n = len(self.rows)
        a = [list(r) for r in self.rows]
        b = [[GR(1) if i == j else GR(0) for j in range(n)] for i in range(n)]
        det = GR(1)
        for col in range(n):
            pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
            if pivot is None:
                return GR(0), None
            if pivot != col:
                a[col], a[pivot] = a[pivot], a[col]
                b[col], b[pivot] = b[pivot], b[col]
                det = -det
            det = det * a[col][col]
            inv_p = a[col][col].inv()
            a[col] = [x * inv_p for x in a[col]]
            b[col] = [x * inv_p for x in b[col]]
            for r in range(n):
                if r != col and a[r][col] != 0:
                    f = a[r][col]
                    a[r] = [x - f * y for x, y in zip(a[r], a[col])]
                    b[r] = [x - f * y for x, y in zip(b[r], b[col])]
        return det, b


def is_canonical(x) -> bool:
    """An int, a Fraction that is no integer, or a GaussianRational that is
    not real."""
    kind = type(x)
    return (
        kind is int
        or (kind is Fraction and x.denominator != 1)
        or (kind is GR and x.im != 0)
    )


def assert_matches(m: Mat, rows):
    """m has the oracle's entries, each stored in its canonical form."""
    assert len(m.rows) == len(rows)
    for got, want in zip(m.rows, rows):
        assert list(got) == want
        assert all(map(is_canonical, got))


_SMALL = st.integers(-4, 4)
_REALS = st.one_of(_SMALL, st.builds(Fraction, _SMALL, st.integers(1, 3)))
# Ints, Fractions and Gaussian rationals, some of them real or integral.
_ENTRIES = st.one_of(_REALS, st.builds(GR, _REALS, _REALS))


@st.composite
def square_pairs(draw):
    """Two n x n rows of mixed entries, n from 1 to 3."""
    n = draw(st.integers(1, 3))
    row = st.lists(_ENTRIES, min_size=n, max_size=n)
    square = st.lists(row, min_size=n, max_size=n)
    return draw(square), draw(square)


@st.composite
def gaussian_rationals(draw):
    return GaussianRational(draw(fractions), draw(fractions))


def rho_by_blocks(g: Mat) -> Mat:
    """rho(g) as block4 of Re(g) = (g + conj g)/2 and Im(g) = (g - conj g)/2i
    with the twist H: the formula `rho_unchecked` reads off entries."""
    conj = Mat([a.conjugate() for a in r] for r in g.rows)
    half = GR(Fraction(1, 2))
    re = (g + conj).scale(half)
    im = (g - conj).scale(half / I)
    return block4(re, im * H, -(H * im), H * re * H)


def negated_entry(m: Mat, i: int, j: int) -> Mat:
    rows = [list(r) for r in m.rows]
    rows[i][j] = -rows[i][j]
    return Mat(rows)


def swapping_mat(seed: int, n: int) -> Mat:
    """A random n x n matrix with a zero in the corner, so that elimination
    swaps rows."""
    rows = [list(r) for r in random_mat(random.Random(seed), n, n).rows]
    rows[0][0] = 0
    return Mat(rows)


# Square matrices whose elimination swaps rows: the first by an odd number
# of swaps, the singular one ends without a pivot, the rest are random.
PIVOTING = [
    Mat([[0, 1, 2], [1, 0, 3], [4, 5, 6]]),
    Mat([[0, 0, 1, 0], [0, 1, 0, 0], [I, 0, 0, 2], [0, 0, 0, 1]]),
    Mat([[0, 1, 2], [0, 3, 4], [5, 6, 7]]),
    Mat([[0, 1, 1], [0, 2, 2], [3, 4, 5]]),
    *(swapping_mat(seed, n) for n in (3, 4) for seed in range(4)),
]

# Each call mixes shapes that do not fit together.
SHAPE_ERRORS = {
    "add": lambda: Mat([[1, 2], [3, 4]]) + Mat([[1]]),
    "sub": lambda: Mat([[1, 2], [3, 4]]) - Mat([[1, 2]]),
    "mul": lambda: Mat([[1, 2], [3, 4]]) * T_MATRIX,
    "inv": lambda: Mat([[1, 2, 3], [4, 5, 6]]).inv(),
    "det": lambda: Mat([[1, 2, 3], [4, 5, 6]]).det(),
    "ragged": lambda: Mat([[1, 2], [3]]),
    "hstack": lambda: hstack(Mat.identity(2), T_MATRIX),
    "siegel": lambda: siegel_action(Mat([[1, 2], [3, 4]]), Mat.identity(2)),
    "extended": lambda: extended_action(
        Mat([[1, 2], [3, 4]]), Mat.identity(2), [GR(1), GR(1)]
    ),
    "gamma_theta_4x4": lambda: in_gamma_theta(Mat.identity(4)),
    "gamma_theta_2x1": lambda: in_gamma_theta(Mat([[1], [0]])),
}


class TestGaussianRational:
    @given(gaussian_rationals(), gaussian_rationals(), gaussian_rationals())
    @settings(max_examples=60)
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == GaussianRational(0)

    @given(gaussian_rationals())
    @settings(max_examples=60)
    def test_inverse(self, a):
        if not a:
            with pytest.raises(ZeroDivisionError):
                a.inv()
        else:
            assert a * a.inv() == GaussianRational(1)

    @given(gaussian_rationals(), gaussian_rationals())
    @settings(max_examples=60)
    def test_conjugation_and_norm(self, a, b):
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()
        assert (a * b).norm() == a.norm() * b.norm()
        assert a.norm() >= 0

    def test_i_squared(self):
        assert I * I == GaussianRational(-1)

    @given(gaussian_rationals())
    @settings(max_examples=60)
    def test_reads_as_int_and_fraction_do(self, a):
        assert (a.real, a.imag) == (a.re, a.im)
        assert a.conjugate() == GaussianRational(a.re, -a.im)
        assert bool(a) == (a.re != 0 or a.im != 0)

    @pytest.mark.parametrize("value", [3, Fraction(1, 2), 0])
    def test_a_real_value_equals_and_hashes_as_its_real_part(self, value):
        z = GaussianRational(value)
        assert z == value and value == z
        assert hash(z) == hash(value)
        assert len({z, value}) == 1
        assert bool(z) == bool(value)

    def test_zero_is_falsy(self):
        assert not GaussianRational(0)
        assert GaussianRational(0, 1) and GaussianRational(Fraction(1, 2))
        assert len({GaussianRational(3), 3}) == 1
        assert GaussianRational(3, 1) != 3

    def test_immutability(self):
        with pytest.raises(AttributeError):
            I.re = Fraction(1)


class TestMat:
    def test_inverse(self):
        m = Mat([[1, 2], [3, 5]])
        assert m * m.inv() == Mat.identity(2)

    def test_det(self):
        assert Mat([[1, 2], [3, 5]]).det() == GR(-1)
        assert Mat([[I, 0], [0, I]]).det() == GR(-1)

    def test_singular_rejected(self):
        with pytest.raises(InputError):
            Mat([[1, 2], [2, 4]]).inv()

    def test_conj_transpose(self):
        m = Mat([[I, 1], [0, -I]])
        assert m.conj_transpose() == Mat([[-I, 0], [1, I]])

    @pytest.mark.parametrize("name", sorted(SHAPE_ERRORS))
    def test_shape_mismatch_raises(self, name):
        with pytest.raises(InputError):
            SHAPE_ERRORS[name]()

    def test_rectangular_products_match_index_loops(self):
        rng = random.Random(13)
        for _ in range(10):
            a, b = random_mat(rng, 2, 4), random_mat(rng, 2, 2)
            m, v = random_mat(rng, 4, 4), random_mat(rng, 4, 1)
            assert a * m == Mat(mul_2x4(a.rows, m))
            assert b * a == Mat(mul_2x2_2x4(b, a.rows))
            column = [r[0] for r in v.rows]
            assert m * v == Mat([[x] for x in index_apply(m, column)])
            assert m.apply(column) == index_apply(m, column)
            assert (a * m).shape == (2, 4) and (m * v).shape == (4, 1)
            assert a.transpose().shape == (4, 2)
            assert a.transpose().transpose() == a
            assert hstack(b, a) == Mat(x + y for x, y in zip(b.rows, a.rows))
            assert hstack(b, a).shape == (2, 6)

    def test_gaussian_integral_predicate(self):
        assert Mat([[GR(3, -2), 1]]).is_gaussian_integral()
        assert not Mat([[GR(Fraction(1, 2), 0)]]).is_gaussian_integral()
        assert not Mat([[GR(1, Fraction(1, 3))]]).is_gaussian_integral()
        assert Mat([[3, -1]]).is_rational_integral()
        assert not Mat([[I]]).is_rational_integral()
        assert not Mat([[Fraction(1, 2)]]).is_rational_integral()

    def test_equal_values_make_equal_matrices(self):
        forms = [Mat([[x, 0], [0, x]]) for x in (GR(3), Fraction(3), 3)]
        assert all(m == forms[0] and hash(m) == hash(forms[0]) for m in forms)
        assert len(set(forms)) == 1
        assert all(type(a) is int for r in forms[0].rows for a in r)
        assert Mat([[GR(Fraction(1, 2))]]).rows == ((Fraction(1, 2),),)

    @given(square_pairs())
    @settings(max_examples=80, deadline=None)
    def test_canonical_entries_match_the_gaussian_oracle(self, pair):
        a, b = pair
        m, oracle = Mat(a), GaussianMat(a)
        assert_matches(m, oracle.rows)
        assert_matches(m * Mat(b), (oracle * GaussianMat(b)).rows)
        assert_matches(m.conj_transpose(), oracle.conj_transpose().rows)
        assert m == Mat(oracle.rows) and hash(m) == hash(Mat(oracle.rows))
        det, inverse = oracle.gauss_jordan()
        assert m.det() == det and type(m.det()) is GR
        if inverse is None:
            with pytest.raises(InputError):
                m.inv()
        else:
            assert_matches(m.inv(), inverse)

    @pytest.mark.parametrize("m", PIVOTING)
    def test_det_and_inverse_with_row_swaps(self, m):
        det = m.det()
        assert det == leibniz_det(m)
        if not det:
            with pytest.raises(InputError):
                m.inv()
        else:
            n = m.shape[0]
            assert m * m.inv() == Mat.identity(n)
            assert m.inv() * m == Mat.identity(n)


class TestMembership:
    def test_generators_in_u11(self):
        for g in (U_GEN_PARABOLIC, U_GEN_ROTATION, U_GEN_C4):
            assert in_u11(g)

    def test_nonmember(self):
        assert not in_u11(Mat([[1, 1], [0, 1]]))  # does not preserve H
        assert not in_u11(Mat([[GR(Fraction(1, 2)), 0], [0, 2]]))

    def test_gamma_theta(self):
        assert in_gamma_theta(G_GEN_TRANSLATION)
        assert in_gamma_theta(G_GEN_S)
        assert not in_gamma_theta(Mat([[1, 1], [0, 1]]))  # ab odd
        assert not in_gamma_theta(G_GEN_C4)  # not integral

    def test_in_g_via_inverse_cayley(self):
        for g in (G_GEN_TRANSLATION, G_GEN_S, G_GEN_C4):
            assert in_g(g)


class TestCayley:
    def test_generator_correspondence(self):
        assert cayley(U_GEN_PARABOLIC) == G_GEN_TRANSLATION
        assert cayley(U_GEN_ROTATION) == G_GEN_S
        assert cayley(U_GEN_C4) == G_GEN_C4
        assert generator_correspondence_check()

    def test_cayley_roundtrip(self):
        rng = random.Random(3)
        for _ in range(5):
            gamma = random_group_element(rng)
            assert cayley(cayley_inverse(gamma)) == gamma

    def test_cayley_matches_hand_expansion(self):
        rng = random.Random(17)
        for _ in range(10):
            g = cayley_inverse(random_group_element(rng))
            assert cayley(g) == hand_cayley(g)
            m = random_mat(rng, 2, 2)
            assert cayley(m) == hand_cayley(m)

    def test_cayley_is_homomorphism(self):
        lhs = cayley(U_GEN_PARABOLIC * U_GEN_ROTATION)
        rhs = cayley(U_GEN_PARABOLIC) * cayley(U_GEN_ROTATION)
        assert lhs == rhs


class TestEmbeddings:
    def test_rho_symplectic_integral(self):
        for g in (U_GEN_PARABOLIC, U_GEN_ROTATION, U_GEN_C4):
            m = rho(g)
            assert m.is_rational_integral()
            assert is_symplectic(m)

    def test_rho_matches_the_block_formula(self):
        # The eight matrices E_ij and i*E_ij are an R-basis of M_2(C).
        basis = [
            Mat([[c if (r, s) == (i, j) else 0 for s in range(2)] for r in range(2)])
            for i in range(2)
            for j in range(2)
            for c in (1, I)
        ]
        rng = random.Random(31)
        words = [cayley_inverse(random_group_element(rng)) for _ in range(50)]
        for g in basis + words:
            assert rho_unchecked(g) == rho_by_blocks(g)

    def test_one_flipped_sign_of_rho_fails(self):
        rng = random.Random(37)
        group = [U_GEN_PARABOLIC, U_GEN_ROTATION, U_GEN_C4]
        group += [cayley_inverse(random_group_element(rng)) for _ in range(5)]
        images = [rho(g) for g in group]
        for i in range(4):
            for j in range(4):
                flipped = [negated_entry(m, i, j) for m in images if m[i, j]]
                assert flipped, (i, j)
                assert any(
                    not (eq2_check(m) and is_symplectic(m)) for m in flipped
                ), (i, j)

    def test_symplectic_side_holds_integers(self):
        for m in (iota(G_GEN_S), rho(U_GEN_PARABOLIC), T_MATRIX, J, K4, J0):
            assert all(type(a) is int for r in m.rows for a in r)

    def test_rho_is_homomorphism(self):
        g1, g2 = U_GEN_PARABOLIC, U_GEN_ROTATION
        assert rho(g1 * g2) == rho(g1) * rho(g2)

    def test_eq2(self):
        rng = random.Random(5)
        for _ in range(10):
            g = cayley_inverse(random_group_element(rng))
            assert eq2_check(rho(g))

    def test_iota_generator_images(self):
        assert iota(G_GEN_TRANSLATION) == IOTA_IMAGE_TRANSLATION
        assert iota(G_GEN_S) == IOTA_IMAGE_S
        assert iota(G_GEN_C4) == IOTA_IMAGE_C4
        assert iota_image_check()

    def test_iota_is_homomorphism_with_integral_image(self):
        rng = random.Random(11)
        for _ in range(5):
            a = random_group_element(rng, 4)
            b = random_group_element(rng, 4)
            assert iota(a * b) == iota(a) * iota(b)
            m = iota(a)
            assert m.is_rational_integral() and is_symplectic(m)

    def test_eq6_and_t(self):
        assert eq6_check()
        assert T_MATRIX.is_rational_integral()
        assert is_symplectic(T_MATRIX)

    def test_sigma_is_involution(self):
        assert sigma(sigma(J)) == J


class TestPeriodMatrices:
    def test_omega_ball_symmetric(self):
        z = GR(Fraction(1, 3), Fraction(1, 4))
        o = omega_ball(z)
        assert o == o.transpose()

    def test_ball_needs_interior_point(self):
        with pytest.raises(InputError):
            omega_ball(GR(1, 0))

    def test_halfplane_needs_upper(self):
        with pytest.raises(InputError):
            omega_halfplane(GR(0, -1))

    def test_r_matrix_properties(self):
        z = GR(Fraction(1, 5), Fraction(2, 5))
        r = r_matrix(z)
        assert r.det() == GR(-1)
        assert r.apply([z, GR(1)]) == [-z, GR(-1)]

    def test_j_identities_random(self):
        rng = random.Random(2)
        for _ in range(10):
            assert j_identities(random_ball_point(rng))

    def test_j_identities_need_k4(self, monkeypatch):
        z = GR(Fraction(1, 5), Fraction(2, 5))
        assert j_identities(z)
        monkeypatch.setattr("taf.arithgroups.K4", J)
        assert not j_identities(z)

    def test_degenerate_point_is_refused(self):
        # J0 has C = -1 and D = 0, so C*Omega + D = -Omega is singular here.
        omega = Mat([[1, 1], [1, 1]])
        with pytest.raises(InputError, match="degenerate point"):
            extended_action(J0, omega, [GR(1), GR(1)])
        with pytest.raises(InputError, match="degenerate point"):
            siegel_action(J0, omega)

    def test_equivariance_random(self):
        rng = random.Random(9)
        for _ in range(10):
            gamma = random_group_element(rng)
            tau = random_halfplane_point(rng)
            w = GR(Fraction(1, 2), Fraction(1, 3))
            assert equivariance_check(gamma, tau, w)

    def test_full_suite(self):
        assert all(embedding_suite().values())


class TestReduction:
    def test_random_points(self):
        rng = random.Random(7)
        for _ in range(100):
            tau = complex(rng.uniform(-40, 40), rng.uniform(0.05, 20))
            r = reduce_to_fundamental_domain(tau)
            assert in_fundamental_domain(r.tau_reduced)
            assert r.certificate_ok(tau)

    @pytest.mark.parametrize(
        "re,im",
        [(0.3, 1e-7), (0.5, 1e-12), (1e7, 1), (-3162.3, 0.05), (1e300, 1e-300)],
    )
    def test_hard_points_certify(self, re, im):
        # Near the real segment, far out along it, and at the float extremes.
        tau = complex(re, im)
        r = reduce_to_fundamental_domain(tau)
        assert in_fundamental_domain(r.tau_reduced)
        assert r.certificate_ok(tau)

    def test_tampered_certificates_are_refused(self):
        tau = complex(7.3, 0.2)
        r = reduce_to_fundamental_domain(tau)
        assert r.certificate_ok(tau)
        wrong_matrix = r._replace(matrix=G_GEN_TRANSLATION * r.matrix)
        assert not wrong_matrix.certificate_ok(tau)
        moved = r._replace(tau_reduced=r.tau_reduced + GR(Fraction(1, 2**60)))
        assert in_fundamental_domain(moved.tau_reduced)
        assert not moved.certificate_ok(tau)
        # Same action, but 2 * matrix is not in G.
        assert not r._replace(matrix=r.matrix.scale(2)).certificate_ok(tau)
        # Exact and in G, but the point was never reduced.
        unreduced = r._replace(
            tau_reduced=GR(7.3, 0.2), word=(), matrix=Mat.identity(2)
        )
        assert not unreduced.certificate_ok(tau)

    def test_fixed_point_is_identity(self):
        r = reduce_to_fundamental_domain(3j)
        assert r.word == ()
        assert r.matrix == Mat.identity(2)

    def test_rejects_lower_half_plane(self):
        with pytest.raises(InputError):
            reduce_to_fundamental_domain(complex(0, -1))
