"""Exact arithmetic for a genus-2 formal-group / automorphic-forms pipeline.

Subpackages:

- `exact`: rationals, Gaussian rationals, the graded ring Q[alpha, beta],
  and its mod-p layer.
- `series`: truncated power series (one and two variables) with exact
  coefficients; composition, reversion, square roots.
- `legendre`: homogeneous Legendre polynomials and the genus logarithm.
- `curve`: the hyperelliptic family, its chart solve, the curve
  logarithm, and exact automorphism identities.
- `fgl`: formal group laws built from logarithms, the Euler closed form,
  and the isomorphism check.
- `chromatic`: Hazewinkel-generator images, p-integrality, and the
  Landweber regularity ladder.
- `qexp`: exact theta-based Fourier expansions and numeric evaluation.
- `arithgroups`: U(1,1; Z[i]), the Cayley transform, symplectic
  embeddings, and fundamental-domain reduction.
- `criteria`: the acceptance criteria behind `taf selftest` and the
  acceptance tests.
"""

__version__ = "0.1.0"

from .exact import (  # noqa: F401
    ALPHA,
    BETA,
    DELTA_G,
    GaussianRational,
    GradedPoly,
    InputError,
    ModPoly,
    ONE,
    ZERO,
    is_p_integral,
)
from .series import BiTruncSeries, TruncSeries  # noqa: F401
from .legendre import legendre, log_phiL  # noqa: F401
from .curve import log_phi, solve_u_of_v, t_of_v, v_of_t  # noqa: F401
from .fgl import build_fgl, euler_law, fgl_phi, fgl_phiL, iso_check  # noqa: F401
from .chromatic import (  # noqa: F401
    UnsupportedPrimeError,
    cor1_check,
    cor2_check,
    hazewinkel_v,
    key_lemma_check,
    landweber_check,
)
from .qexp import forms, j_invariant, transform_check  # noqa: F401
from .arithgroups import (  # noqa: F401
    Mat,
    cayley,
    iota,
    reduce_to_fundamental_domain,
    rho,
)
