#!/usr/bin/env python3
"""Runs one workload of the end-to-end rekey benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Builds the benchmark (perfbench/CMakeLists.txt, which compiles ../src) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench, relative to the
checkout root), clears every REKEY_* environment override, runs the
perfbench binary and relays its output. The last line printed is the run's
JSON result. --self-test builds and runs the probe transparency test
instead. Exits non-zero, without a result line, when the build or the run
fails.
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
WORKLOADS = ("wire-32k", "wire-32k-lossy", "wire-1m", "pipeline-1m")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build(out, target):
    """Configures (once) and builds `target`; build output goes to stderr."""
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S).returncode:
            shutil.rmtree(out, ignore_errors=True)  # retry configure next time
            return False
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    cmd = ["cmake", "--build", out, "--target", target, "-j", jobs]
    left = max(1.0, deadline - time.monotonic())
    return subprocess.run(cmd, stdout=sys.stderr, timeout=left).returncode == 0


def clean_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("REKEY_")}
    dropped = sorted(k for k in os.environ if k.startswith("REKEY_"))
    if dropped:
        log("cleared " + " ".join(dropped))
    return env


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    out = build_dir()
    target = "perfbench_probe_test" if args.self_test else "perfbench"
    try:
        if not build(out, target):
            log("build failed")
            return 1
    except subprocess.TimeoutExpired:
        log("build timed out")
        return 1
    binary = os.path.join(out, target)

    if args.self_test:
        return subprocess.run([binary], env=clean_env(), timeout=RUN_TIMEOUT_S).returncode

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(out, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, env=clean_env(), cwd=ROOT,
                              stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run timed out after %d s" % RUN_TIMEOUT_S)
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        log("perfbench exited with %d" % proc.returncode)
        return 1
    try:
        result = json.loads(lines[-1])
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            raise ValueError("unexpected keys %s" % sorted(result))
    except ValueError as e:
        sys.stdout.write(proc.stdout)
        log("no result line: %s" % e)
        return 1
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
