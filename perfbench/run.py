#!/usr/bin/env python3
"""Build and run the ORIANNA repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

Run from the repository root. The first run configures and builds the
benchmark package (perfbench/CMakeLists.txt, which compiles the
libraries under src/) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench. Each run prints every metric of the workload
by name and unit, then, as its last line, one JSON object with the
keys correct, attempted, failed and metrics. The metrics are the
BENCHMARK.json end_to_end list with --trace 0 and its per_layer list
with --trace 1. The exit status is 0 only when every operation and
output check passed.

--workload all runs every workload once and prints a table of every
end-to-end metric per workload.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, ValueError) as error:
        fail("cannot read %s: %s" % (path, error))


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configure once, then build incrementally; returns the binary."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs,
                  "--target", "orianna_perfbench"])
    for step in steps:
        # Build chatter goes to stderr: stdout carries the result.
        status = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if status.returncode != 0:
            fail("build step failed: " + " ".join(step))
    return os.path.join(out, "orianna_perfbench")


def commit():
    # Only a checkout that is itself a git repository is asked, so
    # git never searches directories above it.
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        status = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return status.stdout.strip() if status.returncode == 0 else "unknown"


def run_workload(binary, workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, record dict or None)."""
    out_dir = os.path.join(build_dir(), "out")
    os.makedirs(out_dir, exist_ok=True)
    command = [binary, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--out-dir", out_dir, "--commit", commit()]
    try:
        status = subprocess.run(command, capture_output=True, text=True,
                                timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail("workload %s did not finish in %d s" % (workload,
                                                     RUN_TIMEOUT_S))
    sys.stderr.write(status.stderr)
    record = None
    for line in status.stdout.splitlines():
        if line.startswith("RECORD "):
            record = json.loads(line[len("RECORD "):])
        else:
            print(line)
    return status.returncode, record


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    seconds = args.seconds if args.seconds else spec["run_seconds"]
    if args.workload != "all" and args.workload not in names:
        fail("unknown workload %r (have: %s)" % (args.workload,
                                                 ", ".join(names)))
    binary = build()

    if args.workload == "all":
        rows = {}
        exit_code = 0
        for name in names:
            code, record = run_workload(binary, name, args.seed, seconds, 0)
            if code != 0 or record is None:
                exit_code = 1
            if record is not None:
                rows[name] = record["end_to_end"]
        metrics = sorted({m for row in rows.values() for m in row})
        print("%-24s" % "metric" + "".join("%18s" % n for n in rows))
        for metric in metrics:
            cells = ""
            for row in rows.values():
                cell = row.get(metric)
                cells += "%18s" % ("-" if cell is None else "%.6g %s" % (
                    cell["value"], cell["unit"]))
            print("%-24s" % metric + cells)
        sys.exit(exit_code)

    code, record = run_workload(binary, args.workload, args.seed, seconds,
                                args.trace)
    if record is None:
        fail("workload %s produced no record (exit %d)" % (args.workload,
                                                            code))
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    source = record["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for metric in wanted:
        value = source.get(metric["name"])
        if value is None:
            fail("workload %s did not report %s" % (args.workload,
                                                    metric["name"]))
        metrics[metric["name"]] = value
    correct = code == 0 and record["failed"] == 0
    print(json.dumps({"correct": correct,
                      "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
