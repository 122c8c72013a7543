"""The taf benchmark: run one workload and print its metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload laws --seed 1 --seconds 32 --trace 0

Each repetition is a fresh worker process (``worker.py``) that imports taf
and runs the workload's job list in order, one job after another: a closed
loop with one client.  Workers run one at a time.  The run repeats the job
list while another repetition fits in ``--seconds``, and reports medians.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (spawn to
``import taf.cli`` done, the median over every worker of the run, including
a few that only import), ``run_s`` (the whole job list after set-up),
``peak_rss_mb`` (the largest ``ru_maxrss`` of the run's workers) and
``ok_frac`` (operations that finished correctly and, for a reduction, with
the program's certificate passing, over attempted ones).
``--trace 1`` alternates untraced and traced workers and reports the
per-layer metrics of ``tracing.METRICS`` from the traced ones.

``setup_s`` and ``run_s`` are seconds at a fixed reference speed.  The host
this benchmark was defined on drifts in speed by up to 2x within seconds.
Each worker times a fixed computation (``worker.reference_s``) before and
after its jobs, and its set-up time is scaled by ``REF_S`` over the mean of
the two.  While a job runs, the worker samples a shorter reference every
50 ms (``worker.SpeedSampler``), and the job's time, less the sampling, is
scaled by ``REF_SAMPLE_S`` over the samples' harmonic mean.  This scaling
more than halves the run-to-run spread of ``run_s``.  The raw medians are
printed with the metadata.  Traced workers sample too, and their per-layer
times are scaled by the worker's ratio of scaled to raw job time.

Every job's output is checked (see ``workloads.judge``).  ``failed`` in the
result counts operations that gave no answer or a wrong one; a reduction
whose certificate the program refuses lands in the domain, so it lowers
``ok_frac`` but is not counted as failed.  Each worker runs under a
wall-clock guard: a worker still running when the run's time limit comes is
killed and its unfinished operations count as failed.

The last line of stdout is the result; the line before it holds run
metadata (commit, Python, nproc, the size of ``src/taf``, host steal time).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import queue
import resource
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import tracing
import workloads

ROOT = Path.cwd()
WORKER = Path(__file__).resolve().with_name("worker.py")

# A run must end within 180 s; a worker still running at this point of the
# run is killed.
RUN_LIMIT_S = 165.0
# Import-only workers started before the first repetition, for a steadier
# setup_s; one more runs before each repetition.
SETUP_PROBES = 3
# The reference computation's time on the 2-core box the benchmark was
# defined on, in its usual state; times are reported at this speed.
REF_S = 0.09
# The same for the speed sample, ``worker.SAMPLE_ITERATIONS`` iterations of
# that computation.
REF_SAMPLE_S = 0.003


class WorkerRun:
    """The outcome of one worker process."""

    def __init__(self, n_jobs: int):
        self.setup_s: float | None = None
        self.jobs_s = 0.0
        self.replies: list[dict | None] = [None] * n_jobs
        self.done: dict | None = None
        self.ref_s: list[float] = []

    def scale(self) -> float:
        """Factor that takes this worker's times to the reference speed."""
        return REF_S / statistics.mean(self.ref_s) if self.ref_s else 1.0

    def job_times(self, scaled: bool) -> list[float]:
        """Each job's time; the first unfinished job gets the time the worker
        ran before it was killed or died, the later ones 0.  Scaled times
        are at the reference speed."""
        times = [reply["s"] if reply else 0.0 for reply in self.replies]
        if None in self.replies:
            times[self.replies.index(None)] = max(0.0, self.jobs_s - sum(times))
        if not scaled:
            return times
        return [
            t * REF_SAMPLE_S / reply["speed_s"] if reply else t * self.scale()
            for t, reply in zip(times, self.replies)
        ]


def _pump(stream, lines: queue.Queue) -> None:
    for line in stream:
        lines.put(line)
    lines.put(None)


def _next_message(lines: queue.Queue, deadline: float):
    """The worker's next message, None at the end of its output; raises
    TimeoutError at the deadline."""
    remaining = deadline - time.perf_counter()
    if remaining <= 0:
        raise TimeoutError
    try:
        line = lines.get(timeout=remaining)
    except queue.Empty:
        raise TimeoutError from None
    return None if line is None else json.loads(line)


def run_worker(jobs: list[dict], trace: bool, limit_s: float) -> WorkerRun:
    """Run one worker on ``jobs``, killing it after ``limit_s`` seconds."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    env.pop("TAF_DEFAULT_ORDER", None)  # the workloads fix their own sizes
    env["PYTHONHASHSEED"] = "0"
    out = WorkerRun(len(jobs))
    t0 = time.perf_counter()
    deadline = t0 + limit_s
    proc = subprocess.Popen(
        [sys.executable, str(WORKER)],
        cwd=ROOT,
        env=env,
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
    )
    lines: queue.Queue = queue.Queue()
    reader = threading.Thread(target=_pump, args=(proc.stdout, lines), daemon=True)
    reader.start()
    try:
        if _next_message(lines, deadline) != {"ready": True}:
            return out
        ready = time.perf_counter()
        out.setup_s = ready - t0
        proc.stdin.write(json.dumps({"jobs": jobs, "trace": trace}))
        proc.stdin.close()
        while (msg := _next_message(lines, deadline)) is not None:
            if "ref_s" in msg:
                out.ref_s.append(msg["ref_s"])
            if msg.get("done"):
                out.done = msg
                out.jobs_s = msg["run_s"]
                break
            if "i" in msg:
                out.replies[msg["i"]] = msg
        else:
            out.jobs_s = time.perf_counter() - ready
    except BrokenPipeError:  # the worker died before reading its jobs
        pass
    except TimeoutError:
        out.jobs_s = time.perf_counter() - (t0 + (out.setup_s or 0.0))
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        reader.join()
        proc.stdout.close()
    return out


# ---------------------------------------------------------------------------
# Metadata
# ---------------------------------------------------------------------------


def _commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _src_lines() -> int:
    return sum(
        1
        for path in sorted((ROOT / "src" / "taf").glob("*.py"))
        for line in path.read_text().splitlines()
        if line.strip()
    )


def cpu_ticks() -> tuple[int, int] | None:
    """(steal, total) jiffies from the first line of /proc/stat."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def metadata(before, after) -> dict:
    meta = {
        "commit": _commit(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "src_taf_lines": _src_lines(),
        "steal_before": before and before[0],
        "steal_after": after and after[0],
    }
    if before and after and after[1] > before[1]:
        meta["steal_share"] = (after[0] - before[0]) / (after[1] - before[1])
    return meta


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------


def run(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    """One run: the result line, and the raw (unscaled) timing medians."""
    jobs = workloads.jobs_for(workload, seed)
    references = workloads.load_references()
    start = time.perf_counter()

    def remaining() -> float:
        return RUN_LIMIT_S - (time.perf_counter() - start)

    def worker(job_list: list[dict], traced: bool) -> WorkerRun:
        out = run_worker(job_list, traced, remaining())
        if out.setup_s is None:
            raise RuntimeError("a worker could not import taf")
        return out

    # The host's speed drifts, so set-up probes are spread over the run, one
    # before each repetition.  Nothing starts once the run limit is reached,
    # which only a worker killed by the guard can cause.
    probes = [worker([], False) for _ in range(0 if trace else SETUP_PROBES)]
    reps: list[tuple[bool, WorkerRun]] = []
    modes = (False, True) if trace else (False,)
    longest = 0.0
    while remaining() > 0:
        group_start = time.perf_counter()
        if not trace:
            probes.append(worker([], False))
        for mode in modes:
            if remaining() > 0:
                reps.append((mode, worker(jobs, mode)))
        now = time.perf_counter()
        longest = max(longest, now - group_start)
        if now - start + longest > seconds:
            break

    verdicts = Counter(
        workloads.judge(job, reply, references)
        for _, rep in reps
        for job, reply in zip(jobs, rep.replies)
    )
    attempted = sum(verdicts.values())
    failed = verdicts[workloads.FAILED] + verdicts[workloads.WRONG]

    untraced = [rep for mode, rep in reps if not mode]
    started = probes + untraced
    raw = {
        "setup_s": statistics.median(w.setup_s for w in started),
        "run_s": _job_list_s(untraced, scaled=False),
        "ref_s": statistics.median(r for w in started for r in w.ref_s),
    }
    if trace:
        untraced_s = _job_list_s(untraced, scaled=True)
        metrics = _per_layer([rep for mode, rep in reps if mode], untraced_s)
    else:
        rss_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        metrics = {
            "setup_s": (statistics.median(w.setup_s * w.scale() for w in started), "s"),
            "run_s": (_job_list_s(untraced, scaled=True), "s"),
            "peak_rss_mb": (rss_kib / 1024, "MB"),
            "ok_frac": (verdicts[workloads.OK] / attempted, "frac"),
        }
    result = {
        "correct": not verdicts[workloads.WRONG],
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, raw


def _job_list_s(reps: list[WorkerRun], scaled: bool) -> float:
    """The job list's time: each job's median over the repetitions, summed.

    Per-job medians shed slow phases of the host that are shorter than one
    repetition."""
    per_rep = [rep.job_times(scaled) for rep in reps]
    return sum(statistics.median(times) for times in zip(*per_rep))


def _per_layer(traced: list[WorkerRun], untraced_run_s: float) -> dict:
    """The per-layer metrics: each the median over the traced workers, with
    times at the reference speed, like ``untraced_run_s``."""
    finished = [rep for rep in traced if rep.done]
    units = {m["name"]: m["unit"] for m in tracing.METRICS}
    if not finished:
        print("no traced worker finished; per-layer metrics read 0", file=sys.stderr)
        return {name: (0, unit) for name, unit in units.items()}
    reports = []
    for rep in finished:
        factor = sum(rep.job_times(scaled=True)) / sum(rep.job_times(scaled=False))
        report = rep.done["trace"]
        reports.append(
            {k: v * factor if units[k] == "s" else v for k, v in report.items()}
        )
    out = {
        name: (statistics.median(r[name] for r in reports), units[name])
        for name in reports[0]
    }
    traced_s = _job_list_s(finished, scaled=True)
    covered = out["cli.main.self_s"][0] + sum(
        out[f"{layer}.self_s"][0] for layer in tracing.LAYERS if layer != "cli"
    )
    out["trace.run_s"] = (traced_s, "s")
    out["trace.overhead_s"] = (traced_s - untraced_run_s, "s")
    out["trace.uncovered_s"] = (traced_s - covered, "s")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "taf" / "__init__.py").is_file():
        print("error: run from the root of a taf checkout (no src/taf)", file=sys.stderr)
        return 2
    before = cpu_ticks()
    try:
        result, raw = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"meta": metadata(before, cpu_ticks()) | {"raw": raw}}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
