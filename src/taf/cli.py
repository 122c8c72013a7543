"""Command-line front end: every computation and verification, with
configurable orders, primes, and text/JSON output.

Each subcommand is one row of `_COMMANDS`: its handler, its help and its
arguments besides `--format`.  A handler takes the parsed arguments, runs the
computation, and returns `(ok, lines, payload)`: the verdict, and two
zero-argument callables that build the text lines and the JSON payload.
`main` alone calls the one `--format` asks for, writes its output, and maps
`ok` to the exit code, so neither rendering of a long result is built for
nothing.  A refusal is raised by the handler, before it returns.

Exit codes: 0 success, 1 verification failure, 2 usage error.  The orders
default to N = 13 (-N, at most `series.MAX_ORDER`) and K = 50 (-K, at most
`MAX_QORDER`); `main` refuses a larger one before any handler runs.
`selftest` runs the gating criteria of `taf.criteria`.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys
import time

from json.encoder import encode_basestring_ascii as _quote

from . import __version__
from .chromatic import cor1_check, cor2_check, key_lemma_check, landweber_check
from .curve import log_phi
from .exact import InputError
from .fgl import beta_zero_law, euler_law, fgl_phi, iso_check
from .legendre import legendre, log_phiL
from .series import MAX_ORDER

# `qexp`, `arithgroups` and `criteria` are imported by the handlers that use
# them, so a command that needs none of them does not load them.

_FORM_NAMES = ("alpha", "beta", "delta-prime", "eps-prime", "delta-g")

# The cap on -K, here so that checking it loads no `qexp`: `qexpand -K 10000
# --format json` takes 1.1 s and 46 MB, and the cost grows with K.
MAX_QORDER = 10_000


def _verdict(ok: bool) -> str:
    return "PASS" if ok else "FAIL"


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns (ok, text lines, JSON payload), the last
# two as zero-argument callables
# ---------------------------------------------------------------------------


def _cmd_legendre(args):
    p = legendre(args.k)
    return (
        True,
        lambda: [f"P_{args.k} = {p}"],
        lambda: {"k": args.k, "poly": p.to_json_dict()},
    )


def _cmd_ulog(args):
    s = log_phi(args.order)
    return (
        True,
        lambda: [f"log_phi = {s}"],
        lambda: {"order": s.order, "coeffs": s.to_json_list()},
    )


def _cmd_llog(args):
    s = log_phiL(args.order)
    return (
        True,
        lambda: [f"log_phiL = {s}"],
        lambda: {"order": s.order, "coeffs": s.to_json_list()},
    )


def _cmd_fgl(args):
    f = fgl_phi(args.order)
    return (
        True,
        lambda: [f"F_phi(x, y) = {f.law}"],
        lambda: {"order": f.order, "law": f.law.to_json_list()},
    )


def _cmd_euler(args):
    law = euler_law(args.order)
    disc = beta_zero_law(args.order) - law
    match = not disc.terms

    def lines():
        if match:
            return [f"F_E(x, y) = {law}", "beta=0 law matches the closed form exactly"]
        return [f"F_E(x, y) = {law}", f"DISCREPANCY: {disc}"]

    def payload():
        return {
            "order": law.order,
            "law": law.to_json_list(),
            "matches_beta_zero_law": match,
            "discrepancy": disc.to_json_list(),
        }

    return match, lines, payload


def _cmd_iso_check(args):
    ok = iso_check(args.order)
    return (
        ok,
        lambda: [f"isomorphism through order {args.order}: {_verdict(ok)}"],
        lambda: {"order": args.order, "pass": ok},
    )


def _cmd_vgens(args):
    report = key_lemma_check(args.prime, args.n)

    def lines():
        out = [f"prime {report.prime}"]
        for n, (v, ok) in enumerate(zip(report.v, report.integrality), start=1):
            out.append(f"v_{n} = {v}")
            out.append(f"  {args.prime}-integral: {ok}")
        return out

    return report.all_integral(), lines, report.to_json_dict


def _cmd_cor1(args):
    ok = cor1_check()
    lines = [
        "v_2 = 4*b^3 (mod (5, v_1))",
        "(a^2 - b)^3 = 4*b^3 (mod (5, v_1))",
        "v_2 = Delta_G^3 (mod (5, v_1))",
        f"all three reductions agree: {_verdict(ok)}",
    ]
    return ok, lambda: lines, lambda: {"pass": ok}


def _cmd_cor2(args):
    r = cor2_check(args.prime)
    lines = [
        f"prime {r.prime}",
        f"binomial C({(r.prime**2 - 1) // 4}, {(r.prime**2 - 1) // 8}) "
        f"has {r.prime}-adic valuation {r.valuation}",
        f"alpha | v_1: {r.alpha_divides_v1}",
        f"p*v_2 congruence mod (alpha): {r.congruence_mod_alpha}",
        f"v_2 nonzero mod (p, v_1): {r.v2_mod_p_v1_nonzero}",
        f"overall: {_verdict(r.passes())}",
    ]

    def payload():
        return r._asdict() | {"binomial": str(r.binomial), "pass": r.passes()}

    return r.passes(), lambda: lines, payload


def _cmd_landweber(args):
    report = landweber_check(args.prime)
    lw = report.landweber
    ok = lw.passes()
    lines = [
        f"prime {report.prime}",
        f"(a) v_1 != 0 mod p: {lw.v1_nonzero_mod_p}",
        f"(b) v_2 != 0 mod (p, v_1): {lw.v2_nonzero_mod_p_v1}",
        f"(c) height-2 cozero locus check: {lw.height2_cozero_check}",
        *report.details,
        f"overall: {_verdict(ok)}",
    ]
    return ok, lambda: lines, lambda: report.to_json_dict() | {"pass": ok}


def _cmd_qexpand(args):
    from .qexp import anchor_check, forms, integrality_and_identity

    K = args.qorder
    f = forms(K)
    ok = anchor_check(K) and integrality_and_identity(K)

    def lines():
        return [
            f"delta' = {f.delta_prime}",
            f"eps'   = {f.eps_prime}",
            f"alpha  = {f.alpha}",
            f"beta   = {f.beta}",
            f"Delta  = {f.delta_g}",
            f"anchors + integrality + identity: {_verdict(ok)}",
        ]

    def payload():
        coeffs = {name: form.to_json_list() for name, form in f._asdict().items()}
        return {"qorder": K, **coeffs, "pass": ok}

    return ok, lines, payload


def _cmd_eval_tau(args):
    from .qexp import eval_form, forms

    form = getattr(forms(args.qorder), args.form.replace("-", "_"))
    result = eval_form(form, complex(args.re, args.im))
    v = result.value
    lines = [
        f"{args.form}({args.re} + {args.im}i) = {v.real:.12g} + {v.imag:.12g}i",
        f"truncation bound: {result.trunc_bound:.3e}",
    ]
    payload = {"re": v.real, "im": v.imag, "trunc_bound": result.trunc_bound}
    return True, lambda: lines, lambda: payload


def _cmd_jg(args):
    from .qexp import j_invariant

    j = j_invariant(complex(args.re, args.im), K=args.qorder)
    if j is None:
        return True, lambda: ["pole (alpha vanishes here)"], lambda: {"pole": True}
    lines = [f"j({args.re} + {args.im}i) = {j.real:.12g} + {j.imag:.12g}i"]
    return True, lambda: lines, lambda: {"pole": False, "re": j.real, "im": j.imag}


def _cmd_transform_check(args):
    from .qexp import transform_check

    r = transform_check(complex(args.re, args.im), K=args.qorder)
    ok = r.residual_c4 < args.tolerance and r.residual_s < args.tolerance
    lines = [
        f"order-4 residual: {r.residual_c4:.3e}",
        f"inversion residual: {r.residual_s:.3e}",
        f"both < {args.tolerance:g}: {_verdict(ok)}",
    ]
    payload = r._asdict() | {"tolerance": args.tolerance, "pass": ok}
    return ok, lambda: lines, lambda: payload


def _cmd_reduce(args):
    from .arithgroups import reduce_to_fundamental_domain

    tau = complex(args.re, args.im)
    result = reduce_to_fundamental_domain(tau)
    ok = result.certificate_ok(tau)
    try:
        re, im = float(result.tau_reduced.re), float(result.tau_reduced.im)
    except OverflowError:
        raise InputError("the reduced point does not fit a float") from None
    lines = [
        f"reduced point: {re:.12g} + {im:.12g}i",
        f"word: {' '.join(result.word) or '(identity)'}",
        f"certificate (exact group membership, point mapping, domain): "
        f"{_verdict(ok)}",
    ]
    payload = {
        "tau_reduced": {"re": re, "im": im},
        "word": " ".join(result.word),
        "matrix": result.matrix.to_json(),
        "certificate": ok,
    }
    return ok, lambda: lines, lambda: payload


def _cmd_verify_embeddings(args):
    from .arithgroups import embedding_suite

    results = embedding_suite()
    ok = all(results.values())
    lines = [f"{name}: {_verdict(v)}" for name, v in results.items()]
    lines.append(f"overall: {_verdict(ok)}")
    return ok, lambda: lines, lambda: results | {"pass": ok}


def _cmd_selftest(args):
    from .criteria import CRITERIA, MIN_ORDER, MIN_QORDER

    if args.order < MIN_ORDER or args.qorder < MIN_QORDER:
        raise InputError(f"selftest needs N >= {MIN_ORDER} and K >= {MIN_QORDER}")
    entries, lines = [], []
    for criterion in CRITERIA:
        if not criterion.gating:
            continue
        t0 = time.perf_counter()
        try:
            ok, detail = criterion.check(args.order, args.qorder)
        except Exception as exc:  # a crash is a failure with the traceback head
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        entries.append(
            {
                "name": criterion.name,
                "status": "pass" if ok else "fail",
                "detail": detail,
                "elapsed_s": time.perf_counter() - t0,
                "ceiling_s": criterion.ceiling_s,
            }
        )
        lines.append(f"[{_verdict(ok)}] {criterion.name}: {detail}")
    all_ok = all(e["status"] == "pass" for e in entries)
    lines.append(f"overall: {_verdict(all_ok)}")
    return all_ok, lambda: lines, lambda: entries


# ---------------------------------------------------------------------------
# JSON output
# ---------------------------------------------------------------------------

_INF = float("inf")


def _scalar_text(o) -> str | None:
    """The JSON text of a str, int, float, bool or None, as `json` writes
    it; None for anything else."""
    if isinstance(o, str):
        return _quote(o)
    if isinstance(o, int):  # a bool is an int, and json writes it as a word
        return "true" if o is True else "false" if o is False else int.__repr__(o)
    if isinstance(o, float):
        if o != o:
            return "NaN"
        if o == _INF:
            return "Infinity"
        return "-Infinity" if o == -_INF else float.__repr__(o)
    return "null" if o is None else None


def _key_text(key) -> str:
    text = _scalar_text(key)
    if text is None:
        raise TypeError(
            f"keys must be str, int, float, bool or None, not {type(key).__name__}"
        )
    return text if isinstance(key, str) else _quote(text)


# The text of the commonest scalars by exact type, which spares a Python
# call per value; any other value goes through `_scalar_text`.
_TEXT_BY_TYPE = {str: _quote, int: int.__repr__}


def _append_json(o, nl: str, parts: list[str]) -> None:
    """Append the JSON text of the dict, list or tuple `o`, whose lines
    start with `nl` (a newline and the indent), to `parts`.  A container
    whose values are all scalars, such as a term row, ends as one part, so
    the list stays short."""
    if isinstance(o, dict):
        brackets, values = "{}", o.values()
        heads = [(_quote(k) if type(k) is str else _key_text(k)) + ": " for k in o]
    elif isinstance(o, (list, tuple)):
        brackets, heads, values = "[]", [""] * len(o), o
    else:
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")
    if not heads:
        parts.append(brackets)
        return
    start, inner, leaf = len(parts), nl + "  ", True
    sep = brackets[0] + inner
    for head, value in zip(heads, values):
        text = _TEXT_BY_TYPE.get(type(value), _scalar_text)(value)
        if text is None:
            leaf = False
            parts.append(sep + head)
            _append_json(value, inner, parts)
        else:
            parts.append(sep + head + text)
        sep = "," + inner
    parts.append(nl + brackets[1])
    if leaf:
        parts[start:] = ["".join(parts[start:])]


def _json_parts(doc) -> list[str]:
    """The parts whose concatenation is `json.dumps(doc, indent=2)`, byte for
    byte, to be written one after another and never joined, so a large
    document is not held as one more whole copy.  With `indent` set, `json`
    encodes in pure Python and yields every token apart, and `json.dump`
    writes each one."""
    text = _scalar_text(doc)
    if text is not None:
        return [text]
    parts: list[str] = []
    _append_json(doc, "\n", parts)
    return parts


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _arg(*flags, **kwargs):
    return flags, kwargs


_FORMAT = _arg(
    "--format", choices=("text", "json"), default="text", help="output format"
)
_ORDER = _arg("-N", "--order", type=int, default=13, help="series truncation order")
_QORDER = _arg(
    "-K", "--qorder", type=int, default=50, help="q-expansion truncation order"
)
_PRIME = _arg("-p", "--prime", type=int, required=True, help="prime")
_POINT = (_arg("re", type=float), _arg("im", type=float))

# name -> (handler, help, arguments besides --format).  A handler returns
# (ok, lines, payload), the last two zero-argument callables of which main
# calls only the one for --format.  Handlers look library functions up when
# they run, in this module's globals or, for a module imported inside the
# handler, in that module, so a wrapper later bound to those names (a
# per-layer tracer) sees every call.
_COMMANDS = {
    "legendre": (_cmd_legendre, "print P_k", [_arg("k", type=int)]),
    "ulog": (_cmd_ulog, "the curve logarithm", [_ORDER]),
    "llog": (_cmd_llog, "the Legendre-genus logarithm", [_ORDER]),
    "fgl": (_cmd_fgl, "the curve formal group law", [_ORDER]),
    "euler": (_cmd_euler, "Euler's law vs the beta = 0 law", [_ORDER]),
    "iso-check": (_cmd_iso_check, "law isomorphism check", [_ORDER]),
    "vgens": (
        _cmd_vgens,
        "Hazewinkel generator images",
        [_PRIME, _arg("-n", type=int, default=2, help="compute v_1..v_n")],
    ),
    "cor1": (_cmd_cor1, "the three mod-(5, v_1) congruences", []),
    "cor2": (_cmd_cor2, "the p = 5 (mod 8) congruence", [_PRIME]),
    "landweber": (_cmd_landweber, "the regularity ladder", [_PRIME]),
    "qexpand": (_cmd_qexpand, "generator q-expansions", [_QORDER]),
    "eval-tau": (
        _cmd_eval_tau,
        "evaluate a form numerically",
        [_QORDER, _arg("form", choices=_FORM_NAMES), *_POINT],
    ),
    "jg": (_cmd_jg, "the j-invariant beta/(4*alpha^2)", [_QORDER, *_POINT]),
    "transform-check": (
        _cmd_transform_check,
        "numeric automorphy residuals of alpha",
        [
            *_POINT,
            _arg("-K", "--qorder", type=int, default=60),
            _arg("--tolerance", type=float, default=1e-6),
        ],
    ),
    "reduce": (_cmd_reduce, "fundamental-domain reduction", _POINT),
    "verify-embeddings": (_cmd_verify_embeddings, "the exact embedding suite", []),
    "selftest": (_cmd_selftest, "full invariant suite", [_ORDER, _QORDER]),
}


class _Parser(argparse.ArgumentParser):
    """An argument parser that reads "-7.6e-05" as a negative number, not as
    an option: argparse's own pattern for negative numbers has no exponent.
    Subparsers are built with the class of their parent."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$"
        )


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="taf",
        description="Exact computations and verifications for the genus-2 "
        "formal-group / automorphic-forms pipeline.",
    )
    parser.add_argument("--version", action="version", version=f"taf {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, help_text, arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flags, kwargs in (_FORMAT, *arguments):
            p.add_argument(*flags, **kwargs)
        p.set_defaults(handler=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    # The parser is built once, on the first call, and reused: parse_args
    # keeps no state between calls, and a build of every subcommand and its
    # options takes milliseconds, a large share of a short command.
    args = _build_parser().parse_args(argv)
    # Exact output may pass CPython's 4,300-digit limit on int-to-str; the
    # limit (3.10.7 and later) is lifted here, not on importing the library.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    try:
        if (n := getattr(args, "order", 0)) > MAX_ORDER:
            raise InputError(f"series order {n} is above the limit {MAX_ORDER}")
        if (k := getattr(args, "qorder", 0)) > MAX_QORDER:
            raise InputError(f"q-expansion order {k} is above the limit {MAX_QORDER}")
        ok, lines, payload = args.handler(args)
        if args.format == "json":
            sys.stdout.writelines(_json_parts(payload()))
            sys.stdout.write("\n")
        else:
            for line in lines():
                print(line)
        sys.stdout.flush()
        return 0 if ok else 1
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # stdout closed early (`| head`): silence the flush at interpreter exit.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
