#!/usr/bin/env python3
"""Build and run the end-to-end FUME benchmark (see fumebench/README.md).

    python3 fumebench/run.py --workload audit-adult --seed 1 --seconds 25 --trace 0
    python3 fumebench/run.py --smoke

Run from the repository root. The first call configures and builds the
library and the benchmark program from source into
$CARGO_TARGET_DIR/fumebench (default .bench_build/fumebench); later calls
only rebuild what changed. The last stdout line is the run's JSON result.
The exit status is non-zero when the build fails, an exactness check fails,
or the result lacks a metric that BENCHMARK.json names.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("audit-adult", "stream-adult", "serve-adult")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(target), "fumebench")


def build():
    """Configures (once) and builds the program; returns its path or None."""
    out = build_dir()
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"] + generator)
    steps.append(["cmake", "--build", out, "-j", "4", "--target", "fumebench"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return None
    return os.path.join(out, "fumebench")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def validate(result, expected):
    """Problems with a result line: missing, extra, non-finite metrics."""
    problems = []
    for key in ("correct", "attempted", "failed", "metrics"):
        if key not in result:
            problems.append(f"result lacks '{key}'")
    metrics = result.get("metrics", {})
    for name, unit in expected.items():
        m = metrics.get(name)
        if m is None:
            problems.append(f"missing metric {name}")
        elif not isinstance(m.get("value"), (int, float)) or not math.isfinite(m["value"]):
            problems.append(f"metric {name} is not a finite number")
        elif m.get("unit") != unit:
            problems.append(f"metric {name} has unit {m.get('unit')!r}, want {unit!r}")
    for name in metrics:
        if name not in expected:
            problems.append(f"unexpected metric {name}")
    return problems


def run_one(binary, workload, seed, seconds, trace, smoke, expected):
    """Runs one workload; returns (exit code, stdout lines, parsed result)."""
    workdir = os.path.join(build_dir(), "work")
    os.makedirs(workdir, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--workdir", workdir] + (["--smoke"] if smoke else [])
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload}: no result within {RUN_TIMEOUT_S} s")
        return 1, [], None
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        log(f"{workload}: no result line (exit {proc.returncode})")
        return proc.returncode or 1, lines, None
    problems = validate(result, expected)
    for p in problems:
        log(f"{workload}: {p}")
    code = proc.returncode or (1 if problems else 0)
    return code, lines, None if problems else result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at a tiny size, traced and "
                             "untraced; asserts every named metric is "
                             "present, finite and has its unit")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required (or pass --smoke)")

    binary = build()
    if binary is None:
        return 2
    try:
        expected = load_spec()
    except (OSError, ValueError, KeyError) as e:
        log(f"cannot read BENCHMARK.json: {e}")
        return 2

    if args.smoke:
        status = 0
        for workload in WORKLOADS:
            for trace in (False, True):
                code, _, result = run_one(binary, workload, args.seed, 1,
                                          trace, True, expected[trace])
                ok = code == 0 and result is not None and result["correct"]
                log(f"smoke {workload} trace={int(trace)}: "
                    f"{'ok' if ok else 'FAILED'}")
                status = status or (0 if ok else 1)
        return status

    code, lines, result = run_one(binary, args.workload, args.seed,
                                  args.seconds, bool(args.trace), False,
                                  expected[bool(args.trace)])
    for line in lines[:-1]:
        print(line)
    if result is not None:
        print(lines[-1])
    return code


if __name__ == "__main__":
    sys.exit(main())
