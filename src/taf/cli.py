"""Command-line front end: every computation and verification, with
configurable orders, primes, and text/JSON output.

Exit codes: 0 success, 1 verification failure, 2 usage error.  The default
series order N is 13 (override with -N); the default q-expansion order K is
50.  `selftest` runs the gating criteria of `taf.criteria`.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
import time

from . import __version__
from .arithgroups import embedding_suite, reduce_to_fundamental_domain
from .chromatic import cor1_check, cor2_check, key_lemma_check, landweber_check
from .criteria import CRITERIA
from .curve import log_phi
from .exact import InputError
from .fgl import beta_zero_law, euler_law, fgl_phi, iso_check
from .legendre import legendre, log_phiL
from .qexp import (
    anchor_check,
    eval_form,
    forms,
    integrality_and_identity,
    j_invariant,
    transform_check,
)

_FORM_NAMES = ("alpha", "beta", "delta-prime", "eps-prime", "delta-g")


def _emit(args, text_lines, payload) -> None:
    if args.format == "json":
        json.dump(payload, sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        for line in text_lines:
            print(line)


def _get_form(name: str, K: int):
    f = forms(K)
    return {
        "alpha": f.alpha,
        "beta": f.beta,
        "delta-prime": f.delta_prime,
        "eps-prime": f.eps_prime,
        "delta-g": f.delta_g,
    }[name]


# ---------------------------------------------------------------------------
# Subcommand handlers (each returns the exit status)
# ---------------------------------------------------------------------------


def _cmd_legendre(args) -> int:
    p = legendre(args.k)
    _emit(args, [f"P_{args.k} = {p}"], {"k": args.k, "poly": p.to_json_dict()})
    return 0


def _cmd_ulog(args) -> int:
    s = log_phi(args.order)
    _emit(args, [f"log_phi = {s}"], {"order": s.order, "coeffs": s.to_json_list()})
    return 0


def _cmd_llog(args) -> int:
    s = log_phiL(args.order)
    _emit(args, [f"log_phiL = {s}"], {"order": s.order, "coeffs": s.to_json_list()})
    return 0


def _cmd_fgl(args) -> int:
    f = fgl_phi(args.order)
    _emit(
        args,
        [f"F_phi(x, y) = {f.law}"],
        {"order": f.order, "law": f.law.to_json_list()},
    )
    return 0


def _cmd_euler(args) -> int:
    law = euler_law(args.order)
    disc = beta_zero_law(args.order) - law
    match = not disc.terms
    lines = [f"F_E(x, y) = {law}"]
    if match:
        lines.append("beta=0 law matches the closed form exactly")
    else:
        lines.append(f"DISCREPANCY: {disc}")
    _emit(
        args,
        lines,
        {
            "order": law.order,
            "law": law.to_json_list(),
            "matches_beta_zero_law": match,
            "discrepancy": disc.to_json_list(),
        },
    )
    return 0 if match else 1


def _cmd_iso_check(args) -> int:
    ok = iso_check(args.order)
    _emit(
        args,
        [f"isomorphism through order {args.order}: {'PASS' if ok else 'FAIL'}"],
        {"order": args.order, "pass": ok},
    )
    return 0 if ok else 1


def _cmd_vgens(args) -> int:
    report = key_lemma_check(args.prime, args.n)
    lines = [f"prime {report.prime}"]
    for n, (v, ok) in enumerate(zip(report.v, report.integrality), start=1):
        lines.append(f"v_{n} = {v}")
        lines.append(f"  {args.prime}-integral: {ok}")
    _emit(args, lines, report.to_json_dict())
    return 0 if report.all_integral() else 1


def _cmd_cor1(args) -> int:
    ok = cor1_check()
    lines = [
        "v_2 = 4*b^3 (mod (5, v_1))",
        "(a^2 - b)^3 = 4*b^3 (mod (5, v_1))",
        "v_2 = Delta_G^3 (mod (5, v_1))",
        f"all three reductions agree: {'PASS' if ok else 'FAIL'}",
    ]
    _emit(args, lines, {"pass": ok})
    return 0 if ok else 1


def _cmd_cor2(args) -> int:
    r = cor2_check(args.prime)
    lines = [
        f"prime {r.prime}",
        f"binomial C({(r.prime**2 - 1) // 4}, {(r.prime**2 - 1) // 8}) "
        f"has {r.prime}-adic valuation {r.valuation}",
        f"alpha | v_1: {r.alpha_divides_v1}",
        f"p*v_2 congruence mod (alpha): {r.congruence_mod_alpha}",
        f"v_2 nonzero mod (p, v_1): {r.v2_mod_p_v1_nonzero}",
        f"overall: {'PASS' if r.passes() else 'FAIL'}",
    ]
    _emit(
        args,
        lines,
        {
            "prime": r.prime,
            "binomial": str(r.binomial),
            "valuation": r.valuation,
            "alpha_divides_v1": r.alpha_divides_v1,
            "congruence_mod_alpha": r.congruence_mod_alpha,
            "v2_mod_p_v1_nonzero": r.v2_mod_p_v1_nonzero,
            "pass": r.passes(),
        },
    )
    return 0 if r.passes() else 1


def _cmd_landweber(args) -> int:
    report = landweber_check(args.prime)
    lw = report.landweber
    ok = lw.v1_nonzero_mod_p and lw.v2_nonzero_mod_p_v1 and lw.height2_cozero_check
    lines = [
        f"prime {report.prime}",
        f"(a) v_1 != 0 mod p: {lw.v1_nonzero_mod_p}",
        f"(b) v_2 != 0 mod (p, v_1): {lw.v2_nonzero_mod_p_v1}",
        f"(c) height-2 cozero locus check: {lw.height2_cozero_check}",
        *report.details,
        f"overall: {'PASS' if ok else 'FAIL'}",
    ]
    _emit(args, lines, report.to_json_dict() | {"pass": ok})
    return 0 if ok else 1


def _cmd_qexpand(args) -> int:
    K = args.qorder
    f = forms(K)
    ok = anchor_check(K) and integrality_and_identity(K)
    lines = [
        f"delta' = {f.delta_prime}",
        f"eps'   = {f.eps_prime}",
        f"alpha  = {f.alpha}",
        f"beta   = {f.beta}",
        f"Delta  = {f.delta_g}",
        f"anchors + integrality + identity: {'PASS' if ok else 'FAIL'}",
    ]
    _emit(
        args,
        lines,
        {
            "qorder": K,
            "delta_prime": f.delta_prime.to_json_list(),
            "eps_prime": f.eps_prime.to_json_list(),
            "alpha": f.alpha.to_json_list(),
            "beta": f.beta.to_json_list(),
            "delta_g": f.delta_g.to_json_list(),
            "pass": ok,
        },
    )
    return 0 if ok else 1


def _cmd_eval_tau(args) -> int:
    tau = complex(args.re, args.im)
    result = eval_form(_get_form(args.form, args.qorder), tau)
    v = result.value
    lines = [
        f"{args.form}({args.re} + {args.im}i) = {v.real:.12g} + {v.imag:.12g}i",
        f"truncation bound: {result.trunc_bound:.3e}",
    ]
    _emit(
        args,
        lines,
        {"re": v.real, "im": v.imag, "trunc_bound": result.trunc_bound},
    )
    return 0


def _cmd_jg(args) -> int:
    tau = complex(args.re, args.im)
    j = j_invariant(tau, K=args.qorder)
    if j is None:
        _emit(args, ["pole (alpha vanishes here)"], {"pole": True})
        return 0
    lines = [f"j({args.re} + {args.im}i) = {j.real:.12g} + {j.imag:.12g}i"]
    _emit(args, lines, {"pole": False, "re": j.real, "im": j.imag})
    return 0


def _cmd_transform_check(args) -> int:
    tau = complex(args.re, args.im)
    r = transform_check(tau, K=args.qorder)
    ok = r.residual_c4 < args.tolerance and r.residual_s < args.tolerance
    lines = [
        f"order-4 residual: {r.residual_c4:.3e}",
        f"inversion residual: {r.residual_s:.3e}",
        f"both < {args.tolerance:g}: {'PASS' if ok else 'FAIL'}",
    ]
    _emit(
        args,
        lines,
        {
            "residual_c4": r.residual_c4,
            "residual_s": r.residual_s,
            "tolerance": args.tolerance,
            "pass": ok,
        },
    )
    return 0 if ok else 1


def _cmd_reduce(args) -> int:
    tau = complex(args.re, args.im)
    result = reduce_to_fundamental_domain(tau)
    ok = result.certificate_ok(tau)
    re, im = float(result.tau_reduced.re), float(result.tau_reduced.im)
    lines = [
        f"reduced point: {re:.12g} + {im:.12g}i",
        f"word: {' '.join(result.word) or '(identity)'}",
        f"certificate (exact group membership, point mapping, domain): "
        f"{'PASS' if ok else 'FAIL'}",
    ]
    _emit(
        args,
        lines,
        {
            "tau_reduced": {"re": re, "im": im},
            "word": " ".join(result.word),
            "matrix": result.matrix.to_json(),
            "certificate": ok,
        },
    )
    return 0 if ok else 1


def _cmd_verify_embeddings(args) -> int:
    results = embedding_suite()
    ok = all(results.values())
    lines = [f"{name}: {'PASS' if v else 'FAIL'}" for name, v in results.items()]
    lines.append(f"overall: {'PASS' if ok else 'FAIL'}")
    _emit(args, lines, results | {"pass": ok})
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# Selftest
# ---------------------------------------------------------------------------


def _cmd_selftest(args) -> int:
    entries = []
    all_ok = True
    for criterion in CRITERIA:
        if not criterion.gating:
            continue
        t0 = time.perf_counter()
        try:
            ok, detail = criterion.check(args.order, args.qorder)
        except Exception as exc:  # a crash is a failure with the traceback head
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        all_ok &= ok
        entries.append(
            {
                "name": criterion.name,
                "status": "pass" if ok else "fail",
                "detail": detail,
                "elapsed_s": elapsed,
                "ceiling_s": criterion.ceiling_s,
            }
        )
        if args.format == "text":
            print(f"[{'PASS' if ok else 'FAIL'}] {criterion.name}: {detail}")
    if args.format == "json":
        json.dump(entries, sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        print(f"overall: {'PASS' if all_ok else 'FAIL'}")
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


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

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    order = argparse.ArgumentParser(add_help=False)
    order.add_argument(
        "-N", "--order", type=int, default=13, help="series truncation order"
    )
    qorder = argparse.ArgumentParser(add_help=False)
    qorder.add_argument(
        "-K", "--qorder", type=int, default=50, help="q-expansion truncation order"
    )
    prime = argparse.ArgumentParser(add_help=False)
    prime.add_argument("-p", "--prime", type=int, required=True, help="prime")

    p = sub.add_parser("legendre", parents=[common], help="print P_k")
    p.add_argument("k", type=int)
    p.set_defaults(handler=_cmd_legendre)

    sub.add_parser(
        "ulog", parents=[common, order], help="the curve logarithm"
    ).set_defaults(handler=_cmd_ulog)
    sub.add_parser(
        "llog", parents=[common, order], help="the Legendre-genus logarithm"
    ).set_defaults(handler=_cmd_llog)
    sub.add_parser(
        "fgl", parents=[common, order], help="the curve formal group law"
    ).set_defaults(handler=_cmd_fgl)
    sub.add_parser(
        "euler", parents=[common, order], help="Euler's law vs the beta = 0 law"
    ).set_defaults(handler=_cmd_euler)
    sub.add_parser(
        "iso-check", parents=[common, order], help="law isomorphism check"
    ).set_defaults(handler=_cmd_iso_check)

    p = sub.add_parser(
        "vgens", parents=[common, prime], help="Hazewinkel generator images"
    )
    p.add_argument("-n", type=int, default=2, help="compute v_1..v_n")
    p.set_defaults(handler=_cmd_vgens)

    sub.add_parser(
        "cor1", parents=[common], help="the three mod-(5, v_1) congruences"
    ).set_defaults(handler=_cmd_cor1)
    sub.add_parser(
        "cor2", parents=[common, prime], help="the p = 5 (mod 8) congruence"
    ).set_defaults(handler=_cmd_cor2)
    sub.add_parser(
        "landweber", parents=[common, prime], help="the regularity ladder"
    ).set_defaults(handler=_cmd_landweber)

    sub.add_parser(
        "qexpand", parents=[common, qorder], help="generator q-expansions"
    ).set_defaults(handler=_cmd_qexpand)

    p = sub.add_parser(
        "eval-tau", parents=[common, qorder], help="evaluate a form numerically"
    )
    p.add_argument("form", choices=_FORM_NAMES)
    p.add_argument("re", type=float)
    p.add_argument("im", type=float)
    p.set_defaults(handler=_cmd_eval_tau)

    p = sub.add_parser(
        "jg", parents=[common, qorder], help="the j-invariant beta/(4*alpha^2)"
    )
    p.add_argument("re", type=float)
    p.add_argument("im", type=float)
    p.set_defaults(handler=_cmd_jg)

    p = sub.add_parser(
        "transform-check",
        parents=[common],
        help="numeric automorphy residuals of alpha",
    )
    p.add_argument("re", type=float)
    p.add_argument("im", type=float)
    p.add_argument("-K", "--qorder", type=int, default=60)
    p.add_argument("--tolerance", type=float, default=1e-6)
    p.set_defaults(handler=_cmd_transform_check)

    p = sub.add_parser(
        "reduce", parents=[common], help="fundamental-domain reduction"
    )
    p.add_argument("re", type=float)
    p.add_argument("im", type=float)
    p.set_defaults(handler=_cmd_reduce)

    sub.add_parser(
        "verify-embeddings", parents=[common], help="the exact embedding suite"
    ).set_defaults(handler=_cmd_verify_embeddings)

    sub.add_parser(
        "selftest", parents=[common, order, qorder], help="full invariant suite"
    ).set_defaults(handler=_cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    # The parser is built once, on the first call, and reused: parse_args
    # keeps no state between calls, and a build of every subcommand and its
    # options takes milliseconds, a large share of a short command.
    args = _build_parser().parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # stdout closed early (`| head`): silence the flush at interpreter exit.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
