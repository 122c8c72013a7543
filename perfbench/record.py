"""Record references.json: the digest of every job's mathematical payload.

Run once, from the root of a checkout whose outputs are trusted:

    python3 perfbench/record.py

Reductions are left out; they are judged by certificate and domain instead.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def main() -> int:
    references = {}
    for name in sorted(workloads.WORKLOADS):
        jobs = [j for j in workloads.jobs_for(name, seed=0) if j["kind"] != "reduce"]
        rep = run.run_worker(jobs, trace=False, limit_s=600)
        for job, reply in zip(jobs, rep.replies):
            if reply is None or reply["error"] is not None or reply["rc"] != 0:
                print(f"error: {job['id']} did not succeed: {reply}", file=sys.stderr)
                return 1
            references[job["id"]] = reply["result"]["digest"]
    with open(workloads.REFERENCES, "w") as fh:
        json.dump(references, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(references)} references in {workloads.REFERENCES}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
