#!/usr/bin/env python3
"""Folds per-bench --json outputs into one BENCH_speed.json.

Each gated bench (bench_churn_incremental, bench_window_parallel,
bench_detection_latency) writes a {"bench", "metrics", "gates"} object when invoked
with --json=FILE.  This script merges those files into a single machine-readable
record of the perf trajectory:

    python3 scripts/collect_bench.py --out BENCH_speed.json out/bench_*.json

Exit status is 1 when any input is missing/malformed or any *enforced* gate failed
(gates skipped on small hosts are recorded with "enforced": false and do not fail
the collection).

The summary also records the host the numbers came from: "nproc" (the CPUs this
process may run on) and "load_average" (1, 5 and 15 minute averages read when the
collection runs), so a skipped core-count gate or a noisy timing can be read in
context.
"""

import argparse
import json
import os
import sys


def host_facts():
    """CPU count available to this process and the current load average."""
    try:
        nproc = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        nproc = os.cpu_count() or 1
    try:
        load = [round(value, 2) for value in os.getloadavg()]
    except (AttributeError, OSError):
        load = None
    return {"nproc": nproc, "load_average": load}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_speed.json", help="merged output file")
    parser.add_argument("inputs", nargs="+", help="per-bench --json output files")
    args = parser.parse_args()

    benches = []
    failed = []
    skipped = []
    total_gates = 0
    for path in args.inputs:
        try:
            with open(path, encoding="utf-8") as f:
                record = json.load(f)
        except (OSError, json.JSONDecodeError) as err:
            print(f"collect_bench: cannot read {path}: {err}", file=sys.stderr)
            return 1
        if "bench" not in record or "metrics" not in record or "gates" not in record:
            print(f"collect_bench: {path} is not a bench --json record", file=sys.stderr)
            return 1
        benches.append(record)
        for gate in record["gates"]:
            total_gates += 1
            label = f"{record['bench']}/{gate['name']}"
            if not gate["enforced"]:
                skipped.append(label)
            elif not gate["passed"]:
                failed.append(label)

    merged = {
        "benches": benches,
        "summary": {
            "total_gates": total_gates,
            "failed_gates": failed,
            "skipped_gates": skipped,
            **host_facts(),
        },
    }
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(merged, f, indent=2)
        f.write("\n")

    print(
        f"collect_bench: {len(benches)} benches, {total_gates} gates "
        f"({len(failed)} failed, {len(skipped)} skipped) -> {args.out}"
    )
    for label in failed:
        print(f"collect_bench: FAILED gate {label}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
