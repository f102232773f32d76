#!/usr/bin/env python3
"""Fit-path and serving benchmark: one workload per run.

    python3 perfbench/run.py --workload sram_table4 --seed 0 --seconds 20 --trace 0

Run from the repository root. Builds the library and the harness from source
into .bench_build/perfbench (first run only), runs the workload in a child
process, checks every output, and prints the metrics; the last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

An operation (a fit, or a request frame on serve_socket) that fails an output
check is counted in "failed" and makes "correct" false.

--trace 0 prints the end-to-end metrics with tracing off (RSM_OBS_LEVEL=0);
--trace 1 runs traced (RSM_OBS_LEVEL=1, Chrome traces under
.bench_build/perfbench/traces/) and prints the per-layer metrics. Exit status
is 0 whenever a result was printed, 2 when the benchmark could not run (no
result). See perfbench/README.md for the workloads.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__
import metrics  # noqa: E402

WORKLOADS = ("sram_table4", "opamp_quadratic", "serve_socket")
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
HARNESS_TIMEOUT_S = 165
RAW_FILE = "raw.json"  # the harness writes it in its working directory


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def jobs():
    return str(max(1, min(4, os.cpu_count() or 1)))


def build():
    """Configures once, then brings the two binaries up to date."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs(),
                  "--target", "perfbench_harness", "perfbench_triad"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=False)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")


def run_triad():
    done = subprocess.run([str(BUILD_DIR / "perfbench_triad")], capture_output=True,
                          text=True, timeout=60, check=False)
    if done.returncode != 0:
        fail(f"bandwidth probe failed: {done.stderr.strip()}")
    probe = json.loads(done.stdout.strip().splitlines()[-1])
    print(f"mem.triad: {probe['triad_gbps']:.2f} GB/s over 3 arrays of "
          f"{probe['array_mib']:.0f} MiB each (last-level cache "
          f"{probe['llc_mib']:.0f} MiB), {probe['threads']} threads")
    return probe["triad_gbps"]


def run_harness(args, run_dir):
    env = dict(os.environ)
    env["RSM_OBS_LEVEL"] = "1" if args.trace else "0"
    env.pop("RSM_TRACE_EXPORT", None)
    if args.trace:
        traces = BUILD_DIR / "traces" / f"{args.workload}-seed{args.seed}"
        shutil.rmtree(traces, ignore_errors=True)
        traces.mkdir(parents=True)
        env["RSM_TRACE_EXPORT"] = str(traces / "trace.json")
    cmd = [str(BUILD_DIR / "perfbench_harness"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    sys.stdout.flush()
    try:
        done = subprocess.run(cmd, cwd=run_dir, env=env, timeout=HARNESS_TIMEOUT_S,
                              check=False)
    except subprocess.TimeoutExpired:
        fail(f"harness did not finish within {HARNESS_TIMEOUT_S} s")
    if done.returncode not in (0, 1):
        fail(f"harness exited with status {done.returncode}")
    with open(run_dir / RAW_FILE, encoding="utf-8") as f:
        return json.load(f)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be >= 0")

    build()
    triad_gbps = run_triad() if args.trace else None
    run_dir = BUILD_DIR / f"run-{args.workload}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        raw = run_harness(args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    # Summary lines: figures behind the metrics, printed but not gated.
    if args.workload == "serve_socket":
        attempted, failed = metrics.count_serve_operations(raw)
        end_to_end = metrics.serve_end_to_end
        for label, key in (("eval latency (us)", "eval_us"), ("eval_batch latency (ms)", "batch_ms")):
            print(f"{label}: {metrics.describe_latency(raw[key])}")
        print("server: " + ", ".join(f"{k} {v}" for k, v in raw["server"].items()))
    else:
        attempted, failed = metrics.count_fit_operations(raw["passes"])
        end_to_end = metrics.fit_end_to_end
        for method, (seconds, error) in metrics.per_method(raw["passes"][0]).items():
            print(f"{method}: fits {seconds:.4g} s, mean test error {100 * error:.4g} %")
    values = metrics.per_layer(raw, triad_gbps) if args.trace else end_to_end(raw)
    units = metrics.PER_LAYER_UNITS if args.trace else metrics.END_TO_END_UNITS
    for name, value in values.items():
        print(f"{name:32s} {value:14.6g} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
