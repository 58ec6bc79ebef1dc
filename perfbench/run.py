#!/usr/bin/env python3
"""Repository benchmark: build the harness from source, run one workload.

Usage (from the repository root):
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (which builds the gact library from the repository's own
CMakeLists.txt) into .bench_build/perfbench, runs one workload in its own
process, and prints its lines followed by one JSON result line. With
--trace 1 the spans of the traced run are written to
.bench_build/traces/. See perfbench/README.md for the workloads and
metrics.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "traces")
BINARY = os.path.join(BUILD_DIR, "gact_perfbench")
WORKLOADS = ("heavy-solve", "grid-sweep", "serve-mix", "fuzz-campaign")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def run_quiet(cmd, timeout):
    """Run a build step; show its output only when it fails."""
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:])
        fail("build step failed: " + " ".join(cmd))


def build():
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", BUILD_DIR,
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], BUILD_TIMEOUT_S)
    run_quiet(["cmake", "--build", BUILD_DIR, "--target", "gact_perfbench",
               "-j", jobs], BUILD_TIMEOUT_S)


def commit():
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.exists(ref_file):
            with open(ref_file) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest():
    """sha256 of the library sources and build file: names the code
    measured when the checkout carries no git metadata."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for base, _, files in os.walk(os.path.join(ROOT, "src")):
        paths += [os.path.join(base, name) for name in files]
    for path in sorted(paths):
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def expected_metrics(trace):
    """Metric names and units BENCHMARK.json lists for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build()
    expected = expected_metrics(args.trace)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(TRACE_DIR, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            TRACE_DIR, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        fail("%s exited %d without a result" % (args.workload, proc.returncode))
    result = json.loads(lines[-1])

    metrics = result["metrics"]
    unknown = sorted(set(metrics) - set(expected))
    if unknown:
        fail("metrics not listed in BENCHMARK.json: " + ", ".join(unknown))
    missing = sorted(set(expected) - set(metrics))
    if missing and not args.trace:
        fail("end-to-end metrics missing: " + ", ".join(missing))
    # A traced workload reports the layers it runs; the layers it never
    # enters spent no time and did no work in it.
    for name in missing:
        metrics[name] = {"value": 0, "unit": expected[name]}
    for name, unit in expected.items():
        if metrics[name]["unit"] != unit:
            fail("%s reported in %s, listed in %s" %
                 (name, metrics[name]["unit"], unit))

    print("host commit=%s source_digest=%s" % (commit(), source_digest()))
    for line in lines[:-1]:
        print(line)
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": {n: metrics[n] for n in expected}}))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
