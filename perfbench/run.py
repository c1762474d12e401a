#!/usr/bin/env python3
"""The repository benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. It builds perfbench (the C++ program in
perfbench/src, linked against the library built from this checkout's own
CMake definitions) into .bench_build/perfbench with CMAKE_BUILD_TYPE=Release,
runs the workload in a process of its own, and prints two JSON lines: a
record of the run (nproc, PPR_THREADS, compiler, build type,
PPR_FAULT_INJECTION, commit, seed, sample counts and the metrics of that
workload only) and, last, the result:

    {"correct": true, "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1 reports
its per-layer metrics from a run that spends half its window untraced and
half traced, and writes the traced half's spans to
.bench_build/perfbench/traces/<workload>-<seed>.json.

Every run checks the served results (see perfbench/src/workloads.cc); a
violation, a failed build or a failed set-up prints no result and exits
non-zero. The benchmark's own tests:

    cmake --build .bench_build/perfbench --target perfbench_tests
    .bench_build/perfbench/perfbench_tests
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
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 175
SETTLE_S = 60


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def mtime(path):
    return os.stat(path).st_mtime_ns if os.path.exists(path) else None


def build():
    """Configures once, then (re)builds perfbench; output goes to stderr.

    After a build that compiled anything, waits SETTLE_S: on a shared 4-vCPU
    VM the first runs after a full-width compile measured up to 25 % slower
    than the runs that followed.
    """
    before = mtime(BINARY)
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configuring the build failed")
    step = ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        fail("building perfbench failed")
    if mtime(BINARY) != before:
        time.sleep(SETTLE_S)


def commit():
    """HEAD of the checkout when it is a git work tree itself, else None.

    The ceiling keeps git from searching the checkout's parent directories.
    """
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             env=env)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
        spec = json.load(spec_file)
    rows = spec["per_layer"] if trace else spec["end_to_end"]
    return {row["name"]: row["unit"] for row in rows}, spec


def check_result(result, trace):
    """The result line must carry exactly the metrics BENCHMARK.json names."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result line has keys %s" % sorted(result))
    if result["correct"] is not True or result["attempted"] < 1:
        fail("result is not a correct run with attempted >= 1")
    expected, _ = expected_metrics(trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        fail("metrics %s do not match BENCHMARK.json %s"
             % (sorted(got.items()), sorted(expected.items())))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    trace = args.trace == "1"
    _, spec = expected_metrics(trace)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %r" % args.workload, 2)

    build()
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace]
    if trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(
            traces, "%s-%d.json" % (args.workload, args.seed))]
    try:
        run = subprocess.run(command, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("the run did not finish within %d s" % RUN_TIMEOUT_S)
    sys.stderr.write(run.stderr)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or len(lines) != 2:
        sys.stderr.write(run.stdout)
        fail("perfbench exited with %d" % run.returncode,
             run.returncode or 1)
    record = json.loads(lines[0])
    result = json.loads(lines[1])
    check_result(result, trace)
    record["record"]["commit"] = commit()
    print(json.dumps(record))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
