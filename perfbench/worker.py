"""One benchmark worker: a fresh Python process that imports taf and runs a
job list in order.

Protocol, one JSON object per line on stdout:

1. ``{"ready": true}`` as soon as ``import taf.cli`` completes; the parent
   times set-up from spawning the process to reading this line.
2. The parent then writes ``{"jobs": [...], "trace": bool}`` to stdin.
3. ``{"ref_s"}``: the time of the reference computation (``reference_s``).
4. One ``{"i", "s", "speed_s", "rc", "error", "result"}`` line per finished
   job, so a parent that kills a hung worker knows which jobs finished.
   ``speed_s`` is how long a speed sample took while the job ran: the
   harmonic mean of its samples (``SpeedSampler``).
5. ``{"done": true, "run_s", "ref_s", "trace"}`` at the end, with the
   reference timed again.

The CLI's own output is captured per job and never reaches the protocol
stream.  Run from the root of a checkout with ``src`` on ``PYTHONPATH``.
"""

import sys

if __name__ == "__main__":
    # The set-up being timed is what the ``taf`` entry point imports, so it
    # comes before the worker's own imports.
    import taf.cli  # noqa: F401

    sys.stdout.write('{"ready": true}\n')
    sys.stdout.flush()

import contextlib  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from fractions import Fraction  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


def _send(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


# The speed sample: a short reference computation, timed every
# SAMPLE_EVERY_S seconds while a job runs.
SAMPLE_ITERATIONS = 400
SAMPLE_EVERY_S = 0.05


def reference_s(iterations: int = 12000) -> float:
    """Time a fixed computation of the kind taf spends its time on: Fraction
    products and sums stored in a dict.

    The host's speed drifts by up to 2x over minutes.  Timed in the same
    process next to the jobs, this computation slows with them, so the
    parent can express times at a fixed reference speed.  The collector is
    off so that the heap the jobs leave behind does not change its cost."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        out = {}
        for i in range(1, iterations):
            key = (i % 31, i % 5)
            out[key] = Fraction(i, i + 1) * Fraction(2 * i + 1, 3 * i + 2) + Fraction(key[0], 7)
        return time.perf_counter() - t0
    finally:
        gc.enable()


class SpeedSampler:
    """Samples the host's speed while a job runs.

    The host's speed changes by up to 2x within seconds, faster than one
    reference computation per worker can follow.  A timer signal runs a
    short reference computation every ``SAMPLE_EVERY_S`` seconds of a job;
    the job's time is reported without the samples' time, together with
    the samples' harmonic mean, by which the parent scales it: each sample
    stands for an equal slice of the job, and the work done in a slice is
    proportional to the speed, one over the sample."""

    def __init__(self):
        # (start, end, reference time) of each sample
        self.samples: list[tuple[float, float, float]] = []
        self.spent = 0.0
        signal.signal(signal.SIGALRM, self._on_alarm)

    def clock(self) -> float:
        """A clock that stops while a sample runs, for the tracer."""
        spent = self.spent  # read first: a sample may run between the two reads
        return time.perf_counter() - spent

    def _on_alarm(self, signum, frame) -> None:
        # On a host so slow that a sample outlasts the interval, skip a
        # sample rather than sample without end.
        if time.perf_counter() - self.samples[-1][1] > SAMPLE_EVERY_S / 2:
            self.sample()

    def sample(self) -> None:
        start = time.perf_counter()
        ref_s = reference_s(SAMPLE_ITERATIONS)
        end = time.perf_counter()
        self.samples.append((start, end, ref_s))
        self.spent += end - start

    def start(self) -> None:
        """Arm the timer, sampling first if the last sample is stale, so that
        a job too short to be sampled has a recent one."""
        if not self.samples or time.perf_counter() - self.samples[-1][1] > SAMPLE_EVERY_S:
            self.sample()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self, t0: float, t1: float) -> tuple[float, float]:
        """Disarm the timer; (time spent sampling, the samples' harmonic mean)
        for a job that ran from t0 to t1."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        inside = [s for s in self.samples if s[0] >= t0 and s[1] <= t1]
        if not inside:
            return 0.0, [s for s in self.samples if s[1] <= t0][-1][2]
        spent = sum(end - start for start, end, _ in inside)
        return spent, statistics.harmonic_mean(ref_s for *_, ref_s in inside)


def _run_job(job: dict, tracer, sampler) -> tuple[float, dict]:
    """Time one job; the checks on its output run outside the timed region."""
    out, err = io.StringIO(), io.StringIO()
    rc, error, value = 0, None, None
    sampler.start()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if "argv" in job:
                cli = importlib.import_module("taf.cli")
                rc = cli.main(job["argv"] + ["--format", "json"])
            else:
                module, name, args, kwargs = job["call"]
                value = getattr(importlib.import_module(module), name)(*args, **kwargs)
    except SystemExit as exc:  # argparse rejects bad arguments this way
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a crash is a failed job, reported with its type
        error = f"{type(exc).__name__}: {exc}"
    t1 = time.perf_counter()
    sampling_s, speed_s = sampler.stop(t0, t1)
    elapsed = t1 - t0 - sampling_s
    reply = {"speed_s": speed_s, "rc": rc, "error": error, "result": None}
    text = out.getvalue()
    if tracer is not None:
        tracer.output_bytes += len(text.encode())
    if error is None:
        try:
            doc = json.loads(text) if "argv" in job else value
            reply["result"] = workloads.result_of(job["kind"], doc)
        except (ValueError, KeyError, TypeError) as exc:
            reply["error"] = (
                f"unreadable output ({type(exc).__name__}: {exc}) "
                + err.getvalue().strip()[-200:]
            )
    return elapsed, reply


def main() -> None:
    request = json.loads(sys.stdin.read())
    sampler = SpeedSampler()
    tracer = tracing.Tracer(sampler.clock) if request["trace"] else None
    if tracer is not None:
        tracer.install()
    _send({"ref_s": reference_s()})
    run_s = 0.0
    for i, job in enumerate(request["jobs"]):
        elapsed, reply = _run_job(job, tracer, sampler)
        run_s += elapsed
        _send({"i": i, "s": elapsed, **reply})
    _send(
        {
            "done": True,
            "run_s": run_s,
            "ref_s": reference_s(),
            "trace": tracer.report() if tracer is not None else None,
        }
    )


if __name__ == "__main__":
    main()
