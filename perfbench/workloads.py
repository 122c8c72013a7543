"""The benchmark's workloads: job lists, seeded inputs, and output checks.

A job is a JSON-serialisable dict sent to a worker process:

- ``{"id", "argv", "kind"}`` runs ``taf.cli.main(argv + ["--format", "json"])``;
- ``{"id", "call", "kind"}`` runs a public library function, for work the
  CLI cannot express (``call`` is ``[module, function, args, kwargs]``).

``kind`` names the fields of the output that carry the mathematical payload.
The worker digests only those fields (``payload_of``), so fields a later
version adds to a JSON document do not read as a changed answer.  The parent
judges each result against ``references.json`` (``judge``).  Reductions are
not compared with a stored value, because another valid word may reduce the
same point: they must land in the closed fundamental domain, and whether the
program's certificate passed is counted apart.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from pathlib import Path

REFERENCES = Path(__file__).with_name("references.json")

# The closed fundamental domain is |Re| <= 1, |tau - 1| >= sqrt 2 and
# |tau + 1| >= sqrt 2; this slack absorbs the rounding of a point that the
# program computes in floating point.
DOMAIN_EPS = 1e-9


def _cli(job_id: str, kind: str, *argv: str) -> dict:
    return {"id": job_id, "kind": kind, "argv": list(argv)}


def _laws() -> list[dict]:
    n = "21"
    return [
        _cli("fgl-21", "fgl", "fgl", "-N", n),
        _cli("llog-21", "llog", "llog", "-N", n),
        _cli("euler-21", "euler", "euler", "-N", n),
        _cli("iso-check-21", "pass", "iso-check", "-N", n),
    ]


def _ladder() -> list[dict]:
    jobs = [
        _cli(f"landweber-{p}", "landweber", "landweber", "-p", str(p))
        for p in (5, 13, 17, 29, 37, 41, 53)
    ]
    jobs += [
        _cli(f"cor2-{p}", "cor2", "cor2", "-p", str(p)) for p in (5, 13, 29, 37, 53)
    ]
    jobs.append(_cli("vgens-5-3", "vgens", "vgens", "-p", "5", "-n", "3"))
    jobs.append(_cli("cor1", "pass", "cor1"))
    return jobs


def _stratified(rng: random.Random, n: int) -> list[float]:
    """n numbers in [0, 1), one in each of n equal bins, in random order.

    Stratifying keeps the spread of the inputs' properties, and so of the
    run's cost and failure count, nearly the same from seed to seed."""
    xs = [(i + rng.random()) / n for i in range(n)]
    rng.shuffle(xs)
    return xs


def reduction_points(seed: int) -> list[tuple[float, float]]:
    """The 200 points the cusp workload reduces, in three strata:

    - 100 like the selftest's: Re in +-40, Im in [0.05, 20];
    - 50 with Im log-uniform in [1e-8, 1e-2] near the real segment, where
      floating-point drift fails some certificates;
    - 50 with |Re| log-uniform in [1e2, 10^3.5], where translation runs one
      exact step at a time.  Larger |Re| (1e6 and up) does not finish.
    """
    rng = random.Random(seed)
    points = [
        (rng.uniform(-40, 40), 0.05 + 19.95 * u) for u in _stratified(rng, 100)
    ]
    points += [
        (rng.uniform(-1, 1), 10 ** (-8 + 6 * u)) for u in _stratified(rng, 50)
    ]
    points += [
        (rng.choice((-1, 1)) * 10 ** (2 + 1.5 * u), rng.uniform(0.05, 20))
        for u in _stratified(rng, 50)
    ]
    return points


def _cusp(seed: int) -> list[dict]:
    jobs = [
        _cli("qexpand-300", "qexpand", "qexpand", "-K", "300"),
        {
            "id": "genus-qexp-13-100",
            "kind": "value",
            "call": ["taf.qexp", "genus_qexp_consistency", [13], {"K": 100}],
        },
        _cli("transform-check-0-2", "pass", "transform-check", "0", "2"),
    ]
    jobs += [
        _cli(f"reduce-{i}", "reduce", "reduce", repr(re), repr(im))
        for i, (re, im) in enumerate(reduction_points(seed))
    ]
    jobs.append(_cli("verify-embeddings", "flags", "verify-embeddings"))
    return jobs


def _selftest() -> list[dict]:
    return [_cli("selftest", "selftest", "selftest")]


WORKLOADS = {
    "laws": lambda seed: _laws(),
    "ladder": lambda seed: _ladder(),
    "cusp": _cusp,
    "selftest": lambda seed: _selftest(),
}


def jobs_for(workload: str, seed: int) -> list[dict]:
    return WORKLOADS[workload](seed)


# ---------------------------------------------------------------------------
# Payloads (computed in the worker) and judging (in the parent)
# ---------------------------------------------------------------------------


def payload_of(kind: str, doc):
    """The mathematical payload of one job's output document."""
    if kind == "fgl":
        return doc["law"]
    if kind == "llog":
        return doc["coeffs"]
    if kind == "euler":
        return [doc["law"], doc["matches_beta_zero_law"], doc["discrepancy"]]
    if kind == "pass":
        return doc["pass"]
    if kind == "landweber":
        return [doc["v"], doc["integrality"], doc["landweber"], doc["pass"]]
    if kind == "vgens":
        return [doc["v"], doc["integrality"]]
    if kind == "cor2":
        keys = (
            "binomial",
            "valuation",
            "alpha_divides_v1",
            "congruence_mod_alpha",
            "v2_mod_p_v1_nonzero",
            "pass",
        )
        return [doc[k] for k in keys]
    if kind == "qexpand":
        keys = ("delta_prime", "eps_prime", "alpha", "beta", "delta_g", "pass")
        return [doc[k] for k in keys]
    if kind == "flags":
        return {k: v for k, v in doc.items() if isinstance(v, bool)}
    if kind == "selftest":
        return [[e["name"], e["status"]] for e in doc]
    if kind == "value":
        return doc
    raise ValueError(f"unknown payload kind {kind!r}")


def digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def result_of(kind: str, doc) -> dict:
    """What the worker sends back for one finished job."""
    if kind == "reduce":
        tau = doc["tau_reduced"]
        return {"certificate": doc["certificate"], "tau": [tau["re"], tau["im"]]}
    return {"digest": digest(payload_of(kind, doc))}


def in_closed_domain(re: float, im: float, eps: float = DOMAIN_EPS) -> bool:
    return (
        im > 0
        and abs(re) <= 1 + eps
        and math.hypot(re - 1, im) >= math.sqrt(2) - eps
        and math.hypot(re + 1, im) >= math.sqrt(2) - eps
    )


def load_references(path: Path = REFERENCES) -> dict[str, str]:
    with open(path) as fh:
        return json.load(fh)


# Verdicts of ``judge``.
OK = "ok"
UNCERTIFIED = "uncertified"
FAILED = "failed"
WRONG = "wrong"


def judge(job: dict, reply: dict | None, references: dict[str, str]) -> str:
    """The verdict on one job.

    - ``WRONG``: the program gave an answer and it is wrong: a digest that
      differs from the reference, or a reduced point outside the closed
      domain.
    - ``FAILED``: no answer: an exception, unreadable output, a job that
      never finished (``reply`` is None) or a nonzero exit code that the
      output does not explain.
    - ``UNCERTIFIED``: a reduction whose point lies in the domain but whose
      certificate the program refused (it then exits with 1), which floating-
      point drift causes near the real axis.
    - ``OK``: everything else.
    """
    if reply is None or reply.get("error") is not None:
        return FAILED
    result = reply["result"]
    if job["kind"] == "reduce":
        if not in_closed_domain(*result["tau"]):
            return WRONG
        if result["certificate"]:
            return OK if reply["rc"] == 0 else FAILED
        return UNCERTIFIED if reply["rc"] == 1 else FAILED
    if references.get(job["id"]) != result["digest"]:
        return WRONG
    return OK if reply["rc"] == 0 else FAILED
