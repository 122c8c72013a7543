"""Self-tests of the benchmark: its checks can fail, its counts repeat, and
its hang guard fires.

From the root of a checkout:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
RUN_PY = str(Path(__file__).with_name("run.py"))


@pytest.fixture(autouse=True)
def _checkout_root(monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(run, "ROOT", ROOT)


def _job(job_id: str) -> dict:
    for name in workloads.WORKLOADS:
        for job in workloads.jobs_for(name, seed=1):
            if job["id"] == job_id:
                return job
    raise KeyError(job_id)


def _traced(workload: str, seed: int) -> dict:
    done = subprocess.run(
        [sys.executable, RUN_PY, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def test_perturbed_reference_fails():
    job = _job("vgens-5-3")
    reply = run.run_worker([job], trace=False, limit_s=60).replies[0]
    references = workloads.load_references()
    assert workloads.judge(job, reply, references) == workloads.OK
    digest = references[job["id"]]
    perturbed = dict(references, **{job["id"]: digest[:-1] + ("0" if digest[-1] != "0" else "1")})
    assert workloads.judge(job, reply, perturbed) == workloads.WRONG


def test_perturbed_payload_fails():
    job = _job("llog-21")
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from taf.cli import main

        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(job["argv"] + ["--format", "json"]) == 0
    finally:
        sys.path.remove(str(ROOT / "src"))
    doc = json.loads(out.getvalue())
    references = workloads.load_references()
    good = {"rc": 0, "error": None, "result": workloads.result_of(job["kind"], doc)}
    assert workloads.judge(job, good, references) == workloads.OK
    term = doc["coeffs"][5]["terms"][0]
    term["num"] = str(int(term["num"]) + 1)
    bad = {"rc": 0, "error": None, "result": workloads.result_of(job["kind"], doc)}
    assert workloads.judge(job, bad, references) == workloads.WRONG


def test_reduction_outside_domain_is_wrong():
    job = _job("reduce-0")
    inside = {"rc": 0, "error": None, "result": {"certificate": True, "tau": [0.0, 2.0]}}
    outside = {"rc": 0, "error": None, "result": {"certificate": True, "tau": [0.5, 0.5]}}
    refused = {"rc": 1, "error": None, "result": {"certificate": False, "tau": [0.0, 2.0]}}
    crashed = {"rc": 0, "error": "RuntimeError: did not converge", "result": None}
    assert workloads.judge(job, inside, {}) == workloads.OK
    assert workloads.judge(job, outside, {}) == workloads.WRONG
    assert workloads.judge(job, refused, {}) == workloads.UNCERTIFIED
    assert workloads.judge(job, crashed, {}) == workloads.FAILED


def test_refused_certificates_lower_ok_frac_but_do_not_fail():
    # About 1 in 5 points of the small-Im stratum fails its certificate.
    result, _ = run.run("cusp", seed=1, seconds=1, trace=False)
    assert result["correct"] and result["failed"] == 0
    assert 0.9 < result["metrics"]["ok_frac"]["value"] < 1


def test_inputs_follow_the_seed():
    assert workloads.reduction_points(5) == workloads.reduction_points(5)
    assert workloads.reduction_points(5) != workloads.reduction_points(6)


@pytest.mark.parametrize("workload,seed", [("selftest", 1), ("cusp", 3)])
def test_counts_repeat_exactly(workload, seed):
    counts = (
        "calls", "steps", "hits", "misses", "max_index", "newton_steps",
        "max_bits", "cert_fail", "reuse", "output_bytes",
    )
    first, second = _traced(workload, seed), _traced(workload, seed)
    names = [n for n in first["metrics"] if n.rsplit(".", 1)[-1] in counts]
    assert len(names) > 20
    for name in names:
        assert first["metrics"][name] == second["metrics"][name], name


def test_hang_guard_kills_and_fails_unfinished_jobs():
    # `taf reduce 1e7 1` translates one exact step at a time and does not
    # finish in minutes.
    hang = {"id": "hang", "kind": "reduce", "argv": ["reduce", "1e7", "1"]}
    jobs = [_job("cor1"), hang, _job("cor1")]
    t0 = time.perf_counter()
    rep = run.run_worker(jobs, trace=False, limit_s=5)
    assert time.perf_counter() - t0 < 8
    assert rep.done is None
    verdicts = [workloads.judge(j, r, workloads.load_references()) for j, r in zip(jobs, rep.replies)]
    assert verdicts == [workloads.OK, workloads.FAILED, workloads.FAILED]


def test_benchmark_json_lists_the_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["per_layer"] == tracing.METRICS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    result, _ = run.run("selftest", seed=1, seconds=1, trace=False)
    assert [m["name"] for m in spec["end_to_end"]] == list(result["metrics"])
    assert result["correct"] and result["failed"] == 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "laws", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
