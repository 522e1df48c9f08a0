#!/usr/bin/env python3
"""Builds the benchmark binary from the checkout's sources (Release) and
runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run it from the root of a checkout. The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); traced runs
write their span file and per-op table to .bench_out/. Standard output ends
with the run's meta line and, last, its result line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
With --trace 1 the metrics are the per-layer ones, and an offline workload
runs again in a second process with a pool of PARALLEL_THREADS threads for
base.parallel_eff. Every workload reports exactly the metrics
BENCHMARK.json lists for the mode, in their units; a run that does not
fails.
"""

import argparse
import json
import math
import os
import subprocess
import sys

WORKLOADS = ("offline_masked_c32", "offline_dense_r224", "serve_friendly",
             "serve_hostile")
# Every measured run sets ANTIDOTE_THREADS=1: the offline caller computes
# on its own thread, and the serving workers (two) each run their batches
# on theirs next to the generator thread. On a shared 4-vCPU host a pool of
# 3 threads turned the host's CPU steal into up to 0.41 spread (IQR over
# median) of the offline p95 and 0.26 of its throughput, against 0.09 and
# 0.12 at one thread. The pool is measured in traced offline runs only, by
# a second process at PARALLEL_THREADS.
PARALLEL_THREADS = 3
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(root):
    source = os.path.join(root, "perfbench")
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(root, "src"))):
        fail(f"no library sources next to {source}")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = os.path.join(target, "perfbench")
    jobs = str(os.cpu_count() or 1)
    steps = [["cmake", "-S", source, "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", build_dir, "--target", "perfbench",
              "-j", jobs]]
    for step in steps:
        built = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if built.returncode:
            fail("build failed: " + " ".join(step))
    return os.path.join(build_dir, "perfbench")


def check_metrics(root, metrics, trace):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        manifest = json.load(f)
    wanted = {m["name"]: m["unit"]
              for m in manifest["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in metrics.items()}
    if got != wanted:
        fail("metrics differ from BENCHMARK.json: missing "
             f"{sorted(set(wanted) - set(got))}, extra "
             f"{sorted(set(got) - set(wanted))}, units "
             f"{sorted(n for n in got if n in wanted and got[n] != wanted[n])}")
    for name, m in metrics.items():
        if not math.isfinite(m["value"]):
            fail(f"{name} is {m['value']}")


def run(binary, args, threads, seconds, trace, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    env = dict(os.environ, ANTIDOTE_THREADS=str(threads))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", out_dir]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        fail(f"{args.workload} exited with {proc.returncode}")
    return json.loads(lines[-2])["meta"], json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    binary = build(root)
    nproc = os.cpu_count() or 1
    out_dir = os.path.abspath(".bench_out")
    meta, result = run(binary, args, 1, args.seconds, args.trace, out_dir)

    if args.trace:
        # Parallel efficiency: untraced throughput of a second process with
        # a pool of `wide` threads over `wide` times this run's one-thread
        # throughput. The serving workloads leave the pool unused, so the
        # ratio is 1 there.
        eff = 1.0
        wide = min(PARALLEL_THREADS, nproc)
        if args.workload.startswith("offline_") and wide > 1:
            meta_w, result_w = run(binary, args, wide, args.seconds / 4, 1,
                                   os.path.join(out_dir, f"threads{wide}"))
            result["correct"] = result["correct"] and result_w["correct"]
            result["attempted"] += result_w["attempted"]
            result["failed"] += result_w["failed"]
            eff = meta_w["untraced_images_per_s"] / (
                wide * meta["untraced_images_per_s"])
            meta[f"images_per_s.{wide}threads"] = meta_w[
                "untraced_images_per_s"]
        result["metrics"]["base.parallel_eff"] = {"value": eff,
                                                  "unit": "ratio"}

    check_metrics(root, result["metrics"], args.trace)
    print(json.dumps({"meta": meta}))
    print(json.dumps({key: result[key]
                      for key in ("correct", "attempted", "failed",
                                  "metrics")}))


if __name__ == "__main__":
    main()
