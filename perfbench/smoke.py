#!/usr/bin/env python3
"""Fast self-test of the benchmark: small topologies, two measured windows per workload.

    python3 perfbench/smoke.py      (from the repository root)

For every workload it runs the untraced (--trace 0) and the traced (--trace 1) mode and
asserts that:
  - every metric prints by name with its unit, and the result line carries exactly the
    BENCHMARK.json metrics of that mode, each with its declared unit;
  - every output check passes (exit 0, correct, no failed window);
  - the traced replica's window-end suspect sets equal the untraced run's (the runs print a
    digest of them; the untraced smoke run uses the workload's own thread count, so this also
    covers the 2-thread report plane against the single-threaded replica).
Exits 1 on any failure.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True

import run  # noqa: E402  (build helpers, perfbench/run.py)

# End-to-end metrics printed beyond the result line's BENCHMARK.json set, per workload.
EXTRA_E2E = ["window_ms_p90", "detect_s_p50", "false_positive_ratio", "wire_kb_per_window",
             "log_kb_per_window", "failed_share"]
EXTRA_BY_WORKLOAD = {"full-planes": ["gray_accuracy"], "churn-replay": ["replay_window_ms_p50"]}


def run_mode(binary, work_dir, workload, trace):
    command = [binary, "--workload=" + workload, "--seed=7", "--trace=%d" % trace, "--smoke",
               "--work-dir=" + work_dir]
    result = subprocess.run(command, capture_output=True, text=True, timeout=300)
    return result.returncode, result.stdout.splitlines()


def check_mode(status, lines, expected, extra):
    problems = []
    if status != 0:
        problems.append("exit status %d" % status)
    if not lines or not lines[-1].startswith("{"):
        return problems + ["no result line"], None
    result = json.loads(lines[-1])
    if result.get("correct") is not True or result.get("failed") != 0 or \
            result.get("attempted", 0) < 1:
        problems.append("output checks failed: " + lines[-1][:200])
    failing = [line for line in lines if line.startswith("check ") and "FAILED" in line]
    problems += failing
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        problems.append("result metrics differ from BENCHMARK.json: missing %s, extra %s" % (
            sorted(set(expected) - set(metrics)), sorted(set(metrics) - set(expected))))
    printed = {}
    for line in lines:
        parts = line.split()
        if len(parts) >= 4 and parts[0] == "metric":
            printed[parts[1]] = parts[3]
    for name, unit in list(expected.items()) + [(name, None) for name in extra]:
        if name not in printed:
            problems.append("metric %s not printed" % name)
        elif unit is not None and (printed[name] != unit or metrics.get(name, {}).get("unit") != unit):
            problems.append("metric %s unit %s, expected %s" % (name, printed[name], unit))
    digest = next((line.split()[1] for line in lines if line.startswith("suspect_digest ")), None)
    if digest is None:
        problems.append("no suspect digest")
    return problems, digest


def main():
    root = os.getcwd()
    run.check_sources(root)
    binary = run.build(root)
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    failures = 0
    for workload in [w["name"] for w in bench["workloads"]]:
        work_dir = os.path.join(run.build_dir(root), "smoke", workload)
        problems = []
        digests = []
        for trace, expected in ((0, e2e), (1, per_layer)):
            extra = EXTRA_E2E + EXTRA_BY_WORKLOAD.get(workload, []) if trace == 0 else []
            status, lines = run_mode(binary, work_dir, workload, trace)
            mode_problems, digest = check_mode(status, lines, expected, extra)
            problems += ["trace %d: %s" % (trace, p) for p in mode_problems]
            digests.append(digest)
        if digests[0] != digests[1]:
            problems.append("traced suspect sets differ from untraced (%s vs %s)" % tuple(digests))
        print("smoke %-14s %s" % (workload, "PASS" if not problems else "FAIL"))
        for problem in problems:
            print("  " + problem)
        failures += bool(problems)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
