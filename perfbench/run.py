#!/usr/bin/env python3
"""Build and run the CAFQA benchmark, then print its result.

Run from the repository root:

    python3 perfbench/run.py --workload <h2o_sweep|cr2_bond|serve_mix> \
        --seed <n> --seconds <s> --trace <0|1>

The script builds the `perfbench` package (release, offline) into
`$CARGO_TARGET_DIR` (default `perfbench/target`), runs it, measures the
run's peak resident set size from outside the process, and prints two
lines: the full run record (every metric with its unit and sample count,
plus host and source stamps) and, last, the result object

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding exactly the `end_to_end` metrics of BENCHMARK.json (`--trace 0`)
or its `per_layer` metrics (`--trace 1`). Any failure to build, run or
report exits non-zero without printing a result.
"""

import argparse
import json
import os
import subprocess
import sys
import threading

# Seconds the measured process may run before it is killed.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        with open("BENCHMARK.json", encoding="utf-8") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    manifest = os.path.join("perfbench", "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        stdout=sys.stderr,
        check=False,
    )
    if build.returncode != 0:
        fail(f"build failed with exit code {build.returncode}")
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join("perfbench", "target")
    binary = os.path.join(target, "release", "perfbench")

    command = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", str(args.trace),
    ]
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    killer = threading.Timer(RUN_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        output = proc.stdout.read()
        # wait4 reaps the child and returns its own resource usage, so
        # the peak RSS is the benchmark process's, not the build's.
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        fail(f"benchmark exited with code {proc.returncode}")
    lines = [line for line in output.splitlines() if line.strip()]
    if not lines:
        fail("benchmark printed no record")
    try:
        record = json.loads(lines[-1])
    except ValueError as e:
        fail(f"unreadable run record: {e}")

    # ru_maxrss is in KiB on Linux.
    record["metrics"]["peak_rss_mb"] = {
        "value": usage.ru_maxrss / 1024.0,
        "unit": "MB",
        "samples": 1,
    }
    metrics = {}
    for metric in wanted:
        measured = record["metrics"].get(metric["name"])
        if measured is None:
            fail(f"metric {metric['name']} missing from the run record")
        if measured["unit"] != metric["unit"]:
            fail(f"metric {metric['name']} has unit {measured['unit']}, not {metric['unit']}")
        if measured["value"] is None:
            fail(f"metric {metric['name']} is not a finite number")
        metrics[metric["name"]] = {"value": measured["value"], "unit": metric["unit"]}

    print(json.dumps(record))
    result = {
        "correct": bool(record["correct"]),
        "attempted": int(record["attempted"]),
        "failed": int(record["failed"]),
        "metrics": metrics,
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
