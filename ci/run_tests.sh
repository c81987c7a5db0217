#!/usr/bin/env bash
# CI entry point: builds and runs the tier-1 test suite three ways —
#   1. the default RelWithDebInfo configuration
#   2. an ASan+UBSan instrumented build (catches the class of bug the
#      refinement harness cannot: UB that happens to compute the right
#      answer, e.g. dereferencing map.end())
#   3. a TSan instrumented build of the multithreaded checking paths: the
#      parallel sharded sweep harness and InvariantRegistry::RunAll with
#      8 workers
# plus quick smoke runs of the incremental-refinement and parallel-sweep
# benchmarks.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS=$(nproc 2>/dev/null || echo 4)

# Golden regeneration is a local, deliberate act (see tests/sweep_golden_test.cc).
# If the variable leaks into a CI run, every golden assertion would be
# bypassed and the run would "pass" by fiat — refuse before building anything.
if [[ -n "${ATMO_SWEEP_GOLDEN_REGEN:-}" ]]; then
  echo "error: ATMO_SWEEP_GOLDEN_REGEN is set. Regenerate goldens locally," >&2
  echo "review the tests/sweep_golden_data.h diff, and commit it; CI only" >&2
  echo "verifies the committed golden. Unset the variable and re-run." >&2
  exit 1
fi

echo "=== build + ctest (default config) ==="
# CMAKE_EXPORT_COMPILE_COMMANDS gives clang-tidy (below) a compilation
# database from the build CI actually ran — no second configure pass.
cmake -B build-ci -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
cmake --build build-ci -j "$JOBS"
# Failing tests dump flight-recorder forensics here; the workflow uploads
# the directory as an artifact when the run fails.
export ATMO_OBS_DUMP_DIR="$PWD/obs-dumps"
mkdir -p "$ATMO_OBS_DUMP_DIR"
ctest --test-dir build-ci --output-on-failure -j "$JOBS"

echo "=== averif_lint (verification-discipline checker, strict) ==="
# The lint binary was built as part of the default config above; run it over
# the real tree. --strict turns a missing rule-input file (e.g. a renamed
# syscall_specs.cc) into a finding, so a refactor cannot silently disable a
# rule. The baseline file is the accepted-findings ledger (committed as []:
# the tree is clean); --baseline keeps CI green on known findings while any
# NEW finding still fails the run. Non-zero exit fails CI.
./build-ci/tools/averif_lint --root . --strict --baseline ci/averif_lint_baseline.json

echo "=== clang-tidy (if available) ==="
# The tidy profile lives in .clang-tidy; the curated check set is green by
# construction, so any warning is a regression. Runs only where clang-tidy
# exists (the GitHub lint job installs it; minimal dev boxes may not have it).
if command -v clang-tidy >/dev/null 2>&1; then
  # Tidy only the sources this change touched: diff against the merge base
  # with the main branch (override with ATMO_TIDY_BASE; full sweep when no
  # base resolves, e.g. a shallow clone without origin/main). The compilation
  # database comes from the build-ci configure above.
  TIDY_BASE="${ATMO_TIDY_BASE:-origin/main}"
  TIDY_SOURCES=()
  if MERGE_BASE=$(git merge-base "$TIDY_BASE" HEAD 2>/dev/null); then
    mapfile -t TIDY_SOURCES < <(git diff --name-only --diff-filter=d "$MERGE_BASE" HEAD \
      -- 'src/*.cc' 'src/**/*.cc' 'tools/*.cc' 'tools/**/*.cc' | sort -u)
    echo "clang-tidy: ${#TIDY_SOURCES[@]} changed source(s) vs $MERGE_BASE"
  else
    mapfile -t TIDY_SOURCES < <(find src tools -name '*.cc' | sort)
    echo "clang-tidy: no merge base for $TIDY_BASE; full sweep (${#TIDY_SOURCES[@]} files)"
  fi
  if [[ ${#TIDY_SOURCES[@]} -gt 0 ]]; then
    clang-tidy -p build-ci --quiet "${TIDY_SOURCES[@]}"
  fi
else
  echo "clang-tidy not found; skipping (CI lint job runs it)"
fi

echo "=== clang thread-safety build (if available) ==="
# Compiles the tree with Clang's thread-safety analysis promoted to an error.
# The annotations in src/vstd/thread_annotations.h are no-ops under GCC, so
# only a Clang build can actually check them.
if command -v clang++ >/dev/null 2>&1; then
  cmake -B build-ci-tsafety -S . \
    -DCMAKE_CXX_COMPILER=clang++ \
    -DCMAKE_CXX_FLAGS="-Wthread-safety -Werror=thread-safety" >/dev/null
  cmake --build build-ci-tsafety -j "$JOBS"
else
  echo "clang++ not found; skipping (CI lint job runs it)"
fi

echo "=== build + ctest (ASan + UBSan) ==="
cmake -B build-ci-asan -S . \
  -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all -fno-omit-frame-pointer" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined" >/dev/null
cmake --build build-ci-asan -j "$JOBS"
ctest --test-dir build-ci-asan --output-on-failure -j "$JOBS"
# The lint fixture suite ran under ASan as part of the ctest sweep above
# (averif_lint_test drives the analyzer over every seeded-violation tree);
# also push the instrumented analyzer itself through the full real tree —
# the call-graph passes do the bulk of their pointer work only at that scale.
./build-ci-asan/tools/averif_lint --root . --strict --baseline ci/averif_lint_baseline.json

echo "=== build + targeted tests (TSan, parallel checking paths) ==="
cmake -B build-ci-tsan -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-omit-frame-pointer" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread" >/dev/null
cmake --build build-ci-tsan -j "$JOBS" --target parallel_sweep_test kernel_test obs_test
./build-ci-tsan/tests/parallel_sweep_test
./build-ci-tsan/tests/kernel_test --gtest_filter='*SuiteParallelRunMatchesSerial*'
# The obs concurrency surface: 8 shard-like threads on the thread-local
# CopyProbe/AllocProbe counters, 8 threads racing the trace-id sampler's
# shared relaxed atomics.
./build-ci-tsan/tests/obs_test --gtest_filter='ProbeConcurrencyTest.*:SamplerTest.*'

echo "=== ATMO_OBS_DISABLED compile check + probe shells ==="
# The observability kill switch must keep compiling: probes become shells
# that link and read zero (AllocProbe/CopyProbe), CopyPayload still moves
# bytes. Building obs_test is the compile check; running the shell test
# asserts the zero-counter contract from the disabled side.
cmake -B build-ci-obsoff -S . -DCMAKE_CXX_FLAGS="-DATMO_OBS_DISABLED" >/dev/null
cmake --build build-ci-obsoff -j "$JOBS" --target obs_test
# SamplerTest shares one body with the enabled build: here it asserts the
# disabled shells return zeros (no ids, no counts).
./build-ci-obsoff/tests/obs_test --gtest_filter='ProbeShellTest.*:SamplerTest.*'

echo "=== bench smoke (scaled down) ==="
ATMO_BENCH_QUICK=1 ./build-ci/bench/bench_incremental_refinement
# O(|dirty| · log frames) per checked step (DESIGN.md §8): allocations per
# checked step — a deterministic counter — may grow at most
# max_frames_alloc_growth from the 16K- to the 256K-frame machine. The
# audit compares the cached Ψ with concrete state instead of rebuilding it,
# so its allocations per audit may grow at most
# max_frames_audit_alloc_growth over the same sweep. Wf by induction reads
# only what a step wrote, so LocalWf's entries per checked step may grow at
# most max_frames_wf_entries_growth. Time per step, per audit and per Wf
# check is printed by the bench as information only.
python3 - <<'EOF'
import json, sys
report = json.load(open("BENCH_incremental_refinement.json"))
floors = json.load(open("ci/perf_floors.json"))["incremental_refinement"]
sweep = report["frames_sweep"]
span = f"from {sweep[0]['frames']} to {sweep[-1]['frames']} frames"
for what, key, growth_key, cap_key in (
        ("allocs/checked step", "allocs_per_checked_step", "frames_alloc_growth",
         "max_frames_alloc_growth"),
        ("allocs/audit", "allocs_per_audit", "frames_audit_alloc_growth",
         "max_frames_audit_alloc_growth"),
        ("LocalWf entries/checked step", "local_wf_entries_per_step",
         "frames_wf_entries_growth", "max_frames_wf_entries_growth")):
    cap = floors[cap_key]
    growth = report[growth_key]
    rows = ", ".join(f'{r["frames"]}: {r[key]:.1f}' for r in sweep)
    if growth > cap:
        sys.exit(f"bench_incremental_refinement: {what} grew {growth:.2f}x {span} "
                 f"(max {cap}x; {rows})")
    print(f"frames sweep OK ({what} {rows}; growth {growth:.2f}x <= {cap}x)")
EOF
# The parallel sweep runs in full mode (under a second on 4 CPUs): quick
# mode runs each configuration for about 50 ms, too short to resolve its
# scaling. On a host with at least 4 CPUs the 4-worker speedup must reach
# min_speedup_4w; full-mode runs on a shared 4-CPU host read 2.41-3.48, so
# the floor sits below the lowest and catches lost parallelism (shards
# serialized on a lock read about 1x), not host noise.
./build-ci/bench/bench_parallel_sweep
python3 - <<'EOF'
import json, sys
report = json.load(open("BENCH_parallel_sweep.json"))
floor = json.load(open("ci/perf_floors.json"))["parallel_sweep"]["min_speedup_4w"]
speedup = report["speedup_4w"]
if report["quick"] or report["host_cpus"] < 4:
    print(f"parallel sweep: speedup_4w {speedup:.2f}x not gated "
          f"(quick={report['quick']}, {report['host_cpus']} CPUs)")
elif speedup < floor:
    sys.exit(f"bench_parallel_sweep: 4-worker speedup {speedup:.2f}x < {floor}x "
             f"on {report['host_cpus']} CPUs")
else:
    print(f"parallel sweep OK (speedup_4w {speedup:.2f}x >= {floor}x)")
EOF
ATMO_BENCH_QUICK=1 ./build-ci/bench/bench_table3_syscall_latency
# The syscall-latency gate must emit parseable JSON that says the flatness
# requirements held (map-2M and alloc-1G medians flat across machine sizes).
python3 - <<'EOF'
import json, sys
with open("BENCH_table3_syscall_latency.json") as f:
    report = json.load(f)
if not report.get("all_ok"):
    for op in report.get("ops", []):
        print(f'  {op["op"]}: growth={op.get("growth")} ok={op.get("ok")}',
              file=sys.stderr)
    sys.exit("bench_table3_syscall_latency: flatness gate failed (all_ok=false)")
print(f'table3 gate OK ({len(report["ops"])} ops, quick={report["quick"]})')
EOF

echo "=== end-to-end throughput floors (quick mode) ==="
# The batched-syscall-ring bench must clear the absolute floors in
# ci/perf_floors.json: end-to-end req/s per config, the batched
# checked-syscalls/s rate, and the batched-vs-per-call amortization ratio.
# Floors sit at ~10% of measured quick-mode numbers, so tripping one means
# an order-of-magnitude regression (e.g. batching silently degraded to
# per-call checking), not host noise.
ATMO_BENCH_QUICK=1 ./build-ci/bench/bench_end_to_end
python3 - <<'EOF'
import json, sys

with open("BENCH_end_to_end.json") as f:
    report = json.load(f)
floors = json.load(open("ci/perf_floors.json"))["end_to_end"]

failures = []
rates = {c["config"]: c["req_per_sec"] for c in report["configs"]}
for config, floor in floors["req_per_sec"].items():
    got = rates.get(config)
    if got is None:
        failures.append(f"config {config!r} missing from BENCH_end_to_end.json")
    elif got < floor:
        failures.append(f"{config}: {got:.0f} req/s < floor {floor}")

batched = report["batched_checked_syscalls_per_sec"]
if batched < floors["batched_checked_syscalls_per_sec"]:
    failures.append(f"batched checked-syscalls/s {batched:.0f} < floor "
                    f'{floors["batched_checked_syscalls_per_sec"]}')
# The amortization ratio is the median over alternating fixed-duration
# per-call/batched rep pairs; the per-pair ratios ride along for diagnosis.
speedup = report["batched_vs_percall_speedup"]
if speedup < floors["min_speedup_batched_vs_percall"]:
    pairs = ", ".join(f"{r:.2f}" for r in report["batched_vs_percall_pair_ratios"])
    failures.append(f"batched/percall amortization {speedup:.2f}x < "
                    f'{floors["min_speedup_batched_vs_percall"]}x (median of pairs {pairs})')
# Allocation-free hot path (DESIGN.md §14): the arena-backed per-call
# checker may make at most max_heap_allocs_per_checked_step global-heap
# allocations per checked step (a deterministic counter). The arena-off
# count and the ratio stay in the JSON as information. Skipped when the
# counting hook is compiled out.
if report.get("alloc_counting_active"):
    allocs = report["heap_allocs_per_checked_step"]
    if allocs > floors["max_heap_allocs_per_checked_step"]:
        failures.append(
            f"{allocs:.2f} heap allocs per checked step > "
            f'{floors["max_heap_allocs_per_checked_step"]} '
            f'(arena-off run: {report["noarena_heap_allocs_per_checked_step"]:.1f})')
# Zero-copy splice gate (DESIGN.md §15): the splice config must answer
# requests without staging a single payload byte through memcpy. This is a
# deterministic counter, not a rate, so the bound is exact.
splice = next((c for c in report["configs"] if c["config"] == "splice"), None)
if splice is None:
    failures.append("config 'splice' missing from BENCH_end_to_end.json")
else:
    cap = floors["splice_max_bytes_copied_per_request"]
    if splice["bytes_copied_per_request"] > cap:
        failures.append(
            f'splice: {splice["bytes_copied_per_request"]:.2f} payload bytes '
            f"copied per request (max {cap}: the splice path must be zero-copy)")
    if splice["spliced_responses"] == 0:
        failures.append("splice: no responses actually took the splice path")
# Observability cost gate (DESIGN.md §17), on counters of the traced splice
# run: always-on sampled tracing (1/N token-bucket sampler +
# category-filtered flight recorder) may store at most
# max_trace_events_per_request events per request, and the sampler must
# account for every received frame (sampled + dropped = frames) while
# sampling one in N (within one of frames/N). The traced-vs-untraced req/s
# difference, obs_overhead_pct, is printed as information: it has read from
# -23% to +16% on unchanged code, so a gate on it flips on noise.
per_request = report["trace_events_per_request"]
if per_request > floors["max_trace_events_per_request"]:
    failures.append(
        f"sampled tracing stores {per_request:.4f} events per request > "
        f'{floors["max_trace_events_per_request"]} '
        f'(period 1/{report["trace_sample_period"]})')
frames = report["trace_rx_frames"]
sampled = report["trace_sampler_sampled"]
dropped = report["trace_sampler_dropped"]
period = report["trace_sample_period"]
if sampled + dropped != frames:
    failures.append(f"sampler accounted {sampled} sampled + {dropped} dropped "
                    f"for {frames} received frames")
if period == 0 or abs(sampled - frames / period) > 1:
    failures.append(f"sampler traced {sampled} of {frames} frames, not one in {period}")
print(f"obs: {per_request:.4f} trace events per request, {sampled}/{frames} frames "
      f"sampled at 1/{period}; traced-vs-untraced req/s "
      f'{report["obs_overhead_pct"]:.2f}% (information)')
# Latency attribution must account for the whole request: the splice
# config's per-stage p50s (rx/app/tx/deliver/check partition the sampled
# request exactly) must sum to within tolerance of the end-to-end p50.
if splice is not None:
    breakdown = splice["stage_breakdown"]
    stage_sum = sum(s["p50_ns"] for name, s in breakdown.items() if name != "e2e")
    e2e_p50 = breakdown.get("e2e", {}).get("p50_ns", 0)
    if e2e_p50 <= 0:
        failures.append("splice stage_breakdown lacks a usable e2e p50")
    else:
        drift = abs(stage_sum - e2e_p50) / e2e_p50 * 100.0
        if drift > floors["stage_p50_sum_tolerance_pct"]:
            failures.append(
                f"splice stage p50s sum to {stage_sum} ns vs e2e p50 "
                f"{e2e_p50} ns ({drift:.1f}% apart, max "
                f'{floors["stage_p50_sum_tolerance_pct"]}%: stages no longer '
                f"partition the request)")
if not report["all_ok"]:
    failures.append("a configuration finished with total_wf not ok")

for f_ in failures:
    print(f"  FLOOR VIOLATION: {f_}", file=sys.stderr)
if failures:
    sys.exit("bench_end_to_end: throughput floor gate failed")
print(f"end-to-end floors OK (batched {batched:.0f} checked sys/s, "
      f"{speedup:.1f}x amortization, quick={report['quick']})")
EOF

echo "=== zero-copy packet pipeline floors (quick mode) ==="
# bench_packet_pipeline runs the same Maglev work through the copying RX/TX
# path and the zero-copy borrow path. Floors: absolute Mpps per config plus
# a hard zero on heap allocations inside each measured loop — the zero-copy
# pipeline's whole point (DESIGN.md §14).
ATMO_BENCH_QUICK=1 ./build-ci/bench/bench_packet_pipeline
python3 - <<'EOF'
import json, sys

with open("BENCH_packet_pipeline.json") as f:
    report = json.load(f)
floors = json.load(open("ci/perf_floors.json"))["packet_pipeline"]

failures = []
rates = {r["config"]: r["ops_per_sec"] for r in report["rows"]}
for config, floor in floors["ops_per_sec"].items():
    got = rates.get(config)
    if got is None:
        failures.append(f"config {config!r} missing from BENCH_packet_pipeline.json")
    elif got < floor:
        failures.append(f"{config}: {got:.0f} pkts/s < floor {floor}")
for config, allocs in report["loop_heap_allocs"].items():
    if allocs > floors["max_loop_heap_allocs"]:
        failures.append(f"{config}: {allocs} heap allocs in the measured loop "
                        f'(max {floors["max_loop_heap_allocs"]})')

for f_ in failures:
    print(f"  FLOOR VIOLATION: {f_}", file=sys.stderr)
if failures:
    sys.exit("bench_packet_pipeline: floor gate failed")
print(f"packet-pipeline floors OK ({', '.join(f'{c} {r/1e6:.2f} Mpps' for c, r in rates.items())}, "
      f"0 loop heap allocs)")
EOF

echo "=== obs smoke (traced sweep + exporter validation) ==="
# A tiny traced sweep with an injected refinement failure must produce
# (a) a Perfetto-loadable Chrome trace, (b) a metrics snapshot, and (c) a
# forensics dump whose tail contains the failing syscall's closed span.
rm -f traced_sweep_trace.json traced_sweep_metrics.json \
  "$ATMO_OBS_DUMP_DIR"/sweep_failure_shard*.json
./build-ci/examples/traced_sweep --fail
python3 - <<'EOF'
import json, os, sys

with open("traced_sweep_trace.json") as f:
    trace = json.load(f)
events = trace["traceEvents"]
assert isinstance(events, list) and events, "empty traceEvents"
for e in events:
    # s/t/f are the Chrome flow phases the stitched request exporter emits.
    assert e["ph"] in ("B", "E", "i", "C", "M", "s", "t", "f"), f"bad phase: {e}"
    required = {"name", "ph", "pid"} if e["ph"] == "M" else {"name", "ph", "ts", "pid", "tid"}
    assert required <= e.keys(), f"bad event: {e}"
phases = {e["ph"] for e in events}
assert {"B", "E", "i"} <= phases, f"missing span/instant events: {phases}"

with open("traced_sweep_metrics.json") as f:
    metrics = json.load(f)
assert {"counters", "gauges", "histograms"} <= metrics.keys()
assert metrics["counters"]["sweep.total_steps"] > 0

dump = os.path.join(os.environ["ATMO_OBS_DUMP_DIR"], "sweep_failure_shard1.json")
with open(dump) as f:
    forensics = json.load(f)
token = forensics["otherData"]["replay_token"]
assert token["shard"] == 1 and token["step"] == 120, token
tail = forensics["traceEvents"]
sys_ends = [e for e in tail if e["ph"] == "E" and e["name"].startswith("sys.")]
assert sys_ends, "forensic tail lacks the failing syscall's closing span"
failing = sys_ends[-1]["name"]
assert any(e["ph"] == "B" and e["name"] == failing for e in tail), \
    f"no matching enter event for {failing}"
print(f"obs smoke OK ({len(events)} trace events, failing span {failing})")
EOF

echo "=== bench + trace schema check ==="
# Every BENCH_*.json summary and OBS_*.json trace the run produced must
# match its schema (strict JSON, per-config stage breakdowns, Perfetto-
# loadable flow events); see tools/bench_schema_check.
./tools/bench_schema_check

echo "CI OK"
