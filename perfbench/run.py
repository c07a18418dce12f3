#!/usr/bin/env python3
"""Repository benchmark: builds perfbench/ from source, runs one workload,
checks its outputs and prints the result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The last line of standard output is one JSON
object {"correct", "attempted", "failed", "metrics"}: with --trace 0 the
end-to-end metrics of BENCHMARK.json, with --trace 1 its per-layer
metrics. The line before it is the run's full record (machine fingerprint,
workload-specific figures, sample counts, digests); the same record is
appended to .bench_out/perfbench.jsonl. Build output goes to standard
error. See perfbench/README.md.
"""

import argparse
import json
import math
import os
import platform
import re
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build"
BINARY = BUILD_DIR / "raptee_perfbench"
DIGESTS = HERE / "digests.txt"
RECORDS = ROOT / ".bench_out" / "perfbench.jsonl"
RUN_TIMEOUT_S = 170

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def valid_metric_name(name):
    return isinstance(name, str) and NAME_RE.match(name) is not None


def valid_unit(unit):
    return isinstance(unit, str) and UNIT_RE.match(unit) is not None


def load_spec(path=ROOT / "BENCHMARK.json"):
    with open(path) as f:
        return json.load(f)


def check_metrics(metrics, declared):
    """Problems with a run's metrics against the declared list: every
    declared name present with its unit, a finite number, nothing else."""
    problems = []
    want = {m["name"]: m["unit"] for m in declared}
    for name, unit in want.items():
        if name not in metrics:
            problems.append(f"missing metric {name}")
            continue
        entry = metrics[name]
        if entry.get("unit") != unit:
            problems.append(f"{name}: unit {entry.get('unit')!r}, declared {unit!r}")
        value = entry.get("value")
        if not isinstance(value, (int, float)) or isinstance(value, bool) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r} is not a finite number")
    for name in metrics:
        if name not in want:
            problems.append(f"undeclared metric {name}")
        if not valid_metric_name(name):
            problems.append(f"invalid metric name {name!r}")
    return problems


def fingerprint():
    """What later comparisons must match: like is compared only with like."""
    model, flags = "unknown", set()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                key, _, value = line.partition(":")
                key = key.strip()
                if key == "model name" and model == "unknown":
                    model = value.strip()
                elif key == "flags" and not flags:
                    flags = set(value.split())
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": model,
        "sha_ni": "sha_ni" in flags,
        "aes_ni": "aes" in flags,
        "vaes": "vaes" in flags,
        "machine": platform.machine(),
    }


def build():
    """Configures (once) and builds the benchmark binary; False on failure."""
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "raptee_perfbench",
                  "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            return False
    return BINARY.exists()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    try:
        spec = load_spec()
    except (OSError, ValueError) as e:
        print(f"perfbench: cannot read BENCHMARK.json: {e}", file=sys.stderr)
        return 1
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        print(f"perfbench: unknown workload {args.workload!r}; one of {workloads}",
              file=sys.stderr)
        return 2
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1

    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--digests", str(DIGESTS)]
    started = time.monotonic()
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {args.workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    wall_s = time.monotonic() - started
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print(f"perfbench: {args.workload} exited {done.returncode}", file=sys.stderr)
        return 1
    out = json.loads(lines[-1])

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    problems = check_metrics(out["metrics"], declared)
    if problems:
        for p in problems:
            print(f"perfbench: {p}", file=sys.stderr)
        return 1

    record = dict(out["record"])
    record["fingerprint"] = fingerprint()
    record["wall_s"] = wall_s
    record["metrics"] = out["metrics"]
    record["correct"] = out["correct"]
    record["attempted"] = out["attempted"]
    record["failed"] = out["failed"]
    record["failed_share"] = out["failed"] / max(out["attempted"], 1)
    RECORDS.parent.mkdir(exist_ok=True)
    with open(RECORDS, "a") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({"correct": bool(out["correct"]), "attempted": int(out["attempted"]),
                      "failed": int(out["failed"]), "metrics": out["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
