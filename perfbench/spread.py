"""Run a set of benchmark runs and report each end-to-end metric's spread.

From the root of a checkout:

    python3 perfbench/spread.py --runs 10 --workloads laws ladder cusp selftest

For every workload it runs ``run.py`` once per seed (1..runs), then prints
each metric's median, quartiles and spread (the distance between the first
and third quartile as a share of the median) beside the metric's bound from
BENCHMARK.json, and ``fail_frac`` (failed over attempted operations).  With
``--runs 1`` it is the one command that prints every end-to-end metric of
every workload.  The set's metadata (commit, Python, nproc, the size of
``src/taf``, host steal before and after) is printed with it; ``--out``
also writes everything as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import run
import workloads


def one_run(workload: str, seed: int, seconds: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("run.py")),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=200, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]],
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    before = run.cpu_ticks()
    report = {}
    for workload in args.workloads:
        results = [one_run(workload, seed, args.seconds)
                   for seed in range(args.first_seed, args.first_seed + args.runs)]
        rows = {name: summarize([r["metrics"][name]["value"] for r in results])
                for name in bounds}
        rows["fail_frac"] = summarize([r["failed"] / r["attempted"] for r in results])
        units = dict(results[0]["metrics"]) | {"fail_frac": {"unit": "frac"}}
        print(f"{workload}: correct={all(r['correct'] for r in results)} "
              f"failed={sum(r['failed'] for r in results)}/{sum(r['attempted'] for r in results)}")
        for name, row in rows.items():
            bound = bounds.get(name)
            flag = "" if bound is None else f"  bound {bound:.2f}" + ("  OVER" if row["spread"] > bound else "")
            print(f"  {name:12s} {row['median']:10.4f} {units[name]['unit']:5s} "
                  f"[{row['q1']:.4f}, {row['q3']:.4f}]  spread {row['spread']:.3f}{flag}")
        report[workload] = {"runs": results, "summary": rows}
    meta = run.metadata(before, run.cpu_ticks())
    print(json.dumps({"meta": meta}))
    if args.out:
        args.out.write_text(json.dumps({"meta": meta, "workloads": report}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
