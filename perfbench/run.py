#!/usr/bin/env python3
"""Builds the perfbench binary from this checkout and runs one workload.

    python3 perfbench/run.py --workload serve_percall|serve_splice|verify_sweep \
        --seed N --seconds S --trace 0|1

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench,
relative to the checkout root); build output goes to stderr.

On a shared host, how fast one process of the benchmark runs depends on the
CPU it lands on and on other tenants' load: two processes side by side differ
by up to a quarter, for seconds to minutes. So the untraced run (--trace 0) is
split over many short processes run one after the other, each measuring an
equal share of --seconds with its own seed derived from --seed. ops_per_s and
the latency percentiles are trimmed means over the processes, setup_s and
peak_rss_mib the medians. The traced run (--trace 1) is one process.

Each process's summary is printed (a failed process in full), then one JSON
line with the verdict and the metrics, whose names are checked against
BENCHMARK.json. Exits non-zero when the build fails, a process fails, or any
output check fails.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Seconds one untraced process measures. A process must hold enough latency
# samples for its p99: serve_percall certifies about 2,000 requests a second,
# and a sweep shard, about 220 a second, is one sample.
PROCESS_SECONDS = {"serve_percall": 2.0, "serve_splice": 1.0, "verify_sweep": 10.0}
MEAN_METRICS = ("ops_per_s", "latency_p50_us", "latency_p99_us")
RUN_TIMEOUT_S = 170


def build(src: Path, build_dir: Path) -> Path:
    if not any((build_dir / f).exists() for f in ("build.ninja", "Makefile")):
        cmd = ["cmake", "-S", str(src), "-B", str(build_dir), "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(build_dir), "-j", "4"], check=True,
                   stdout=sys.stderr)
    return build_dir / "perfbench"


def expected_metrics(root: Path, trace: int):
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_process(cmd, deadline):
    """Runs one benchmark process; returns (exit code, stdout, result or None)."""
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3, "", None
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        result["metrics"]
    except (ValueError, KeyError, TypeError):
        return proc.returncode or 4, proc.stdout, None
    return proc.returncode, proc.stdout, result


def trimmed_mean(values):
    """Mean of the values without the highest and lowest fifth (at least one
    each way from four values on): a process whose CPU was taken for a while
    does not move it, and unlike a median it moves smoothly when processes
    fall into a fast and a slow group."""
    values = sorted(values)
    cut = max(1, len(values) // 5) if len(values) >= 4 else 0
    return statistics.mean(values[cut:len(values) - cut])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(PROCESS_SECONDS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 120:
        ap.error("--seed must be >= 0 and --seconds in (0, 120]")

    src = Path(__file__).resolve().parent
    root = src.parent
    build_root = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build_root.is_absolute():
        build_root = root / build_root
    build_dir = build_root / "perfbench"
    try:
        binary = build(src, build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2

    span_dir = build_dir / "spans"
    span_dir.mkdir(parents=True, exist_ok=True)
    want = expected_metrics(root, args.trace)
    deadline = time.monotonic() + RUN_TIMEOUT_S
    if args.trace:
        plan = [(args.seed, args.seconds)]
    else:
        n = max(1, round(args.seconds / PROCESS_SECONDS[args.workload]))
        plan = [((args.seed * 1000003 + i) % 2**64, args.seconds / n) for i in range(n)]

    results = []
    for seed, seconds in plan:
        cmd = [str(binary), "--workload", args.workload, "--seed", str(seed),
               "--seconds", repr(seconds), "--trace", str(args.trace),
               "--out", str(span_dir)]
        code, out, result = run_process(cmd, deadline)
        if len(plan) == 1 or result is None or code != 0 or not result["correct"]:
            sys.stdout.write(out)  # a single process, or one that failed, in full
        if result is None:
            print(f"perfbench: process with seed {seed} exited with {code} and no result",
                  file=sys.stderr)
            return code or 1
        if list(result["metrics"]) != want:
            print(f"perfbench: metrics {list(result['metrics'])} differ from BENCHMARK.json "
                  f"{want}", file=sys.stderr)
            return 4
        if len(plan) > 1:
            values = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
            print(f"process seed={seed} seconds={seconds:g} correct={result['correct']} "
                  f"{values}")
        results.append((code, result))

    if len(results) == 1:
        code, result = results[0]
        sys.stdout.flush()
        return 0 if code == 0 and result["correct"] else code or 1

    metrics = {}
    for name in want:
        values = [r["metrics"][name]["value"] for _, r in results]
        agg = trimmed_mean if name in MEAN_METRICS else statistics.median
        metrics[name] = {"value": agg(values), "unit": results[0][1]["metrics"][name]["unit"]}
    correct = all(code == 0 and r["correct"] for code, r in results)
    attempted = sum(r["attempted"] for _, r in results)
    failed = sum(r["failed"] for _, r in results)
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"processes={len(results)}: trimmed means of {', '.join(MEAN_METRICS)}, "
          "medians of the rest")
    print(f"  {'failed_frac':<40} {failed / attempted if attempted else 1.0:18.6f} frac")
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:18.6f} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    sys.stdout.flush()
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
