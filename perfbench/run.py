#!/usr/bin/env python3
"""Repository benchmark entry point.

Run from the repository root:

    python3 perfbench/run.py --workload steady-direct --seed 1 --seconds 30 --trace 0

Builds perfbench/ (its own CMake package over the repository's src/) into the build
directory on first use, prints the host facts, runs one workload, and relays its output. The
last line of standard output is the result JSON: end-to-end metrics with --trace 0, per-layer
metrics of the traced run with --trace 1 (followed, before the JSON, by a per-layer self-time
summary of the span dump). Exit status: 0 when every output check passed, 3 when one failed
(the result line is still printed), anything else on an error (no result line).

The build directory is $CARGO_TARGET_DIR when set, else .bench_build; window logs and span
dumps are written under it, nowhere else.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # the checkout stays clean: nothing is written outside the build dir

import spans  # noqa: E402  (span-dump summary, perfbench/spans.py)

WORKLOADS = ("steady-direct", "full-planes", "churn-replay")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir(root):
    return os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def check_sources(root):
    """The benchmark builds the program from the checkout; without its sources it cannot run."""
    src = os.path.join(root, "src")
    if not os.path.isdir(os.path.join(src, "detector")) or not os.path.isfile(
            os.path.join(root, "perfbench", "CMakeLists.txt")):
        fail("no program sources under %s (run from the repository root)" % root)


def build(root):
    """Configures (once) and builds the benchmark binary; build output goes to stderr."""
    out = build_dir(root)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"), "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            fail("build step failed: " + " ".join(step), 1)
    return os.path.join(out, "perfbench")


def cmake_cache(out, key):
    try:
        with open(os.path.join(out, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def source_digest(root):
    """sha256 over the program and benchmark sources: identifies the code when git cannot."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cc", ".h", ".py", ".txt")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, root).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return digest.hexdigest()[:16]


def commit(root):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        result = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=root, env=env,
                                capture_output=True, text=True, timeout=10)
        if result.returncode == 0:
            return result.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "none (not a git checkout)"


def host_facts(root, out):
    compiler = cmake_cache(out, "CMAKE_CXX_COMPILER")
    version = "unknown"
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True, text=True,
                                 timeout=10).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.SubprocessError):
        pass
    return [
        ("nproc", str(os.cpu_count())),
        ("build_type", cmake_cache(out, "CMAKE_BUILD_TYPE")),
        ("compiler", version),
        ("commit", commit(root)),
        ("source_digest", source_digest(root)),
    ]


def load_average():
    return "%.2f %.2f %.2f" % os.getloadavg()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    check_sources(root)
    binary = build(root)
    out = build_dir(root)

    for key, value in host_facts(root, out):
        print("host %s: %s" % (key, value))
    print("host load_average_before: " + load_average())
    sys.stdout.flush()

    work_dir = os.path.join(out, "work", "%s-seed%d-trace%d-%d" % (
        args.workload, args.seed, args.trace, os.getpid()))
    command = [binary, "--workload=" + args.workload, "--seed=%d" % args.seed,
               "--seconds=%g" % args.seconds, "--trace=%d" % args.trace,
               "--work-dir=" + work_dir]
    try:
        result = subprocess.run(command, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S, 1)
    sys.stderr.write(result.stderr)
    lines = result.stdout.rstrip("\n").splitlines()
    if result.returncode not in (0, 3) or not lines or not lines[-1].startswith("{"):
        print("\n".join(lines))
        fail("benchmark binary exited with status %d" % result.returncode, 1)
    print("\n".join(lines[:-1]))
    if args.trace == 1:
        for line in lines:
            if line.startswith("spans "):
                print(spans.summary_table([line.split(" ", 1)[1]]))
    print("host load_average_after: " + load_average())
    print(lines[-1])
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
