#!/usr/bin/env python3
"""Build and run the repo benchmark.

    python3 dsbench/run.py --workload fleet|replay|serve --seed N \
        --seconds S --trace 0|1

Run from the repository root. Builds the library sources in ../src together
with the dsbench program (dsbench/CMakeLists.txt) into
$CARGO_TARGET_DIR/dsbench, or .bench_build/dsbench when that variable is
unset, then runs one workload. The program's last stdout line is one JSON
object; this script checks it against BENCHMARK.json (every declared metric
present with its declared unit, no undeclared ones), fills per-layer metrics
the workload does not attribute with 0, and prints it as the last line.
Build output goes to stderr. Exits non-zero, without a result line, when the
build fails, the program fails or its output does not match BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def die(msg):
    print(f"dsbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    build_dir = os.path.join(base if os.path.isabs(base) else os.path.join(ROOT, base), "dsbench")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", "2"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            die("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "dsbench")


def check(result, spec, traced):
    declared = spec["per_layer" if traced else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    metrics = result.get("metrics", {})
    extra = sorted(set(metrics) - set(units))
    if extra:
        die("metrics missing from BENCHMARK.json: " + ", ".join(extra))
    for name, unit in units.items():
        if name not in metrics:
            if not traced:
                die(f"end-to-end metric {name} was not reported")
            metrics[name] = {"value": 0, "unit": unit}
        elif metrics[name].get("unit") != unit:
            die(f"metric {name} has unit {metrics[name].get('unit')}, declared {unit}")
    result["metrics"] = {m["name"]: metrics[m["name"]] for m in declared}
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        die(f"unknown workload {args.workload}")

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{args.workload} exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        die(f"{args.workload} exited with status {proc.returncode}")
    result = check(json.loads(lines[-1]), spec, args.trace == "1")
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
