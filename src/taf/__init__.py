"""Exact arithmetic for a genus-2 formal-group / automorphic-forms pipeline.

Subpackages:

- `exact`: the graded ring Q[alpha, beta] over the rationals, and its
  mod-p layer.
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
- `arithgroups`: the Gaussian rationals Q(i), U(1,1; Z[i]), the Cayley
  transform, symplectic embeddings, and fundamental-domain reduction.
- `criteria`: the acceptance criteria behind `taf selftest` and the
  acceptance tests.

`qexp`, `arithgroups` and `criteria` load on first use: `import taf` does not
import them, and the names re-exported here from `qexp` and `arithgroups`
(`forms`, `Mat`, ...) import their module when first read.
"""

__version__ = "0.1.0"

from .exact import (  # noqa: F401
    ALPHA,
    BETA,
    DELTA_G,
    GradedPoly,
    InputError,
    ModPoly,
    ONE,
    ZERO,
    is_p_integral,
)
from .series import BiTruncSeries, TruncSeries  # noqa: F401
from .legendre import legendre, log_phiL  # noqa: F401
from .curve import log_phi, solve_u_of_v, t_of_v  # noqa: F401
from .fgl import build_fgl, euler_law, fgl_phi, fgl_phiL, iso_check  # noqa: F401
from .chromatic import (  # noqa: F401
    UnsupportedPrimeError,
    cor1_check,
    cor2_check,
    hazewinkel_v,
    key_lemma_check,
    landweber_check,
)

# name -> the module that defines it, imported when the name is first read
# (PEP 562).
_LAZY = {
    "forms": "qexp",
    "j_invariant": "qexp",
    "transform_check": "qexp",
    "GaussianRational": "arithgroups",
    "Mat": "arithgroups",
    "cayley": "arithgroups",
    "iota": "arithgroups",
    "reduce_to_fundamental_domain": "arithgroups",
    "rho": "arithgroups",
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f"{__name__}.{_LAZY[name]}"), name)
