#!/usr/bin/env python3
"""Serving benchmark for the rigpm query daemon.

Builds perfbench_serve (perfbench/CMakeLists.txt: the library from src/ plus
the load generator, Release) and runs one workload with it:

    python3 perfbench/run.py --workload cold_sim --seed 1 --seconds 10 --trace 0

Run from the repository root. Build output goes to $CARGO_TARGET_DIR (default
.bench_build), each run works in a fresh directory under .bench_tmp that is
removed afterwards, and a traced run (--trace 1) writes its spans to
.bench_trace/<workload>.jsonl. RIGPM_* environment knobs are not passed on:
every size, limit and seed comes from the arguments and the benchmark code.

The last line of stdout is the result JSON; its metrics are the end_to_end
metrics of BENCHMARK.json for --trace 0 and the per_layer ones for --trace 1.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build():
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_root, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench_serve")


def expected_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"build failed: {e}", file=sys.stderr)
        return 1

    env = {k: v for k, v in os.environ.items() if not k.startswith("RIGPM_")}
    tmp_root = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix="run-", dir=tmp_root)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--run-dir", run_dir]
    if args.trace:
        trace_dir = os.path.join(ROOT, ".bench_trace")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(trace_dir, args.workload + ".jsonl")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        print(f"run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stdout.write(proc.stdout)
        print("no result line", file=sys.stderr)
        return 1
    got = set(result["metrics"])
    want = expected_metrics(args.trace)
    if got != want:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        print(f"metric set differs from BENCHMARK.json: missing "
              f"{sorted(want - got)}, extra {sorted(got - want)}",
              file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
