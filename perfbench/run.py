#!/usr/bin/env python3
"""Window-to-epoch and query-to-answer benchmark: builds the perfbench binary, runs
one workload, prints every figure with its unit and sample count, and ends
with one JSON line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root.  The binary is built in Release from the
repository's own CMake files (see attach.cmake) under $CARGO_TARGET_DIR
(default .bench_build).  With --trace 0 the last line carries the
end-to-end metrics named in BENCHMARK.json, with --trace 1 the per-layer
ones.  Exit status: 0 measured and correct, 1 failed or incorrect, 2 refused.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("stream_publish", "durable_restart", "query_storm", "query_under_publish")
# A run must end within 180 s; the build before the first run has its own budget.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    """Configures (once) and builds the perfbench target; returns the binary."""
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = [
            "cmake", "-S", ROOT, "-B", build_dir,
            "-DCMAKE_BUILD_TYPE=Release",
            "-DCMAKE_PROJECT_INCLUDE=" + os.path.join(HERE, "attach.cmake"),
        ]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    jobs = str(len(os.sched_getaffinity(0)))
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    with open(log_path, "w") as log:
        for step in steps:
            try:
                done = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=max(1.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                fail(f"build timed out; see {log_path}")
            if done.returncode != 0:
                with open(log_path) as text:
                    sys.stderr.write(text.read()[-4000:])
                fail(f"build step failed: {' '.join(step)}")
    return os.path.join(build_dir, "perfbench", "perfbench")


def print_table(report, selected):
    context = report["context"]
    print(f"perfbench {context['workload']} seed {context['seed']} trace {context['trace']}")
    print("  " + " ".join(f"{k}={v}" for k, v in context.items()
                          if k not in ("workload", "seed", "trace")))
    print(f"  {'metric':<30} {'value':>18} {'unit':<6} {'samples':>10}  gated")
    for m in report["metrics"]:
        mark = "*" if m["name"] in selected else ""
        value = m["value"]
        shown = f"{value:>18.6g}" if isinstance(value, (int, float)) else f"{'n/a':>18}"
        print(f"  {m['name']:<30} {shown} {m['unit']:<6} {m['samples']:>10}  {mark}")
    classes = ", ".join(f"{name} {c['failed']}/{c['attempted']}"
                        for name, c in report["classes"].items())
    print(f"  failed/attempted: {report['failed']}/{report['attempted']} ({classes})")
    for failure in report["failures"]:
        print(f"  FAILURE {failure}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0", 2)

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(spec_path) as spec_file:
            spec = json.load(spec_file)
    except (OSError, ValueError) as error:
        fail(f"cannot read {spec_path}: {error}")
    wanted = spec["per_layer" if args.trace == "1" else "end_to_end"]

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_root = os.path.join(ROOT, build_root)
    binary = build(os.path.join(build_root, "perfbench"))
    out_dir = os.path.join(build_root, "perfbench-out",
                           f"{args.workload}-seed{args.seed}-trace{args.trace}")
    os.makedirs(out_dir, exist_ok=True)

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace, "--out", out_dir]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"perfbench did not finish within {RUN_TIMEOUT_S} s")
    if done.returncode != 0:
        fail(f"perfbench exited with status {done.returncode}", 2 if done.returncode == 2 else 1)
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("perfbench printed no report")
    report = json.loads(lines[-1])
    with open(os.path.join(out_dir, "report.json"), "w") as out:
        json.dump(report, out, indent=1)

    measured = {m["name"]: m for m in report["metrics"]}
    metrics = {}
    for metric in wanted:
        got = measured.get(metric["name"])
        if got is None:
            fail(f"perfbench did not report {metric['name']}")
        if not isinstance(got["value"], (int, float)):
            fail(f"{metric['name']} has no finite value")
        if got["unit"] != metric["unit"]:
            fail(f"{metric['name']} is in {got['unit']}, BENCHMARK.json says {metric['unit']}")
        metrics[metric["name"]] = {"value": got["value"], "unit": got["unit"]}

    print_table(report, metrics)
    correct = report["failed"] == 0 and report["attempted"] > 0
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
