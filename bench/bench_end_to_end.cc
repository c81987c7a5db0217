// End-to-end batched-syscall benchmark: ~10^6 simulated clients through
// Maglev into httpd + kv-store backends over the simulated NIC, with every
// request paying one verified kernel syscall. Configurations differ only in
// how that syscall is certified:
//
//   percall        — one RefinementChecker::Step per request (the PR-4
//                    trace-scale discipline applied per call)
//   batched-bN     — requests submitted to a syscall ring via the
//                    shared-memory fast path; one checked kRingEnter
//                    transition certifies N inner calls (DESIGN.md §13)
//   batched-b32-sc — same, but each submit is its own checked kRingSubmit
//                    syscall (shows what the shm fast path buys)
//
// The >=5x amortization gate runs on the syscall-only microbench
// (CheckedSyscallRate): identical rotating mmap/munmap trace, identical
// checker options, per-call vs batch-256 — so the comparison is pure
// checking overhead, not diluted by app/driver work. The gated ratio is the
// median over alternating per-call/batched rep pairs of fixed duration. In
// full mode the gate is enforced via the exit code; quick mode (CI) reports
// the numbers and ci/run_tests.sh enforces the floors in
// ci/perf_floors.json, this ratio's among them.

#include <algorithm>
#include <cstdlib>
#include <vector>

#include "bench/end_to_end.h"
#include "src/obs/alloc_hook.h"
#include "src/obs/exporters.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/sampler.h"

int main() {
  using namespace atmo::bench;

  std::printf("=== End-to-end: batched syscall rings under load ===\n");
  std::printf("~1M simulated clients -> Maglev -> httpd/kv-store over SimNic;\n");
  std::printf("one verified mmap/munmap per request, per-call vs ring-batched\n\n");

  std::uint64_t target = ScaledOps(400000);
  const char* quick = std::getenv("ATMO_BENCH_QUICK");

  BenchJson json("end_to_end");
  PrintHeader("end-to-end request rate", "K req/s");

  std::vector<E2EResult> results;
  auto run = [&](const char* name, std::uint64_t requests, std::uint32_t batch,
                 bool shm_submit, bool splice = false) {
    E2EOptions opt;
    opt.requests = requests;
    opt.batch = batch;
    opt.shm_submit = shm_submit;
    opt.splice = splice;
    E2EResult r = RunEndToEnd(name, opt);
    json.Record(r.row, "K");
    results.push_back(r);
  };

  // Per-call checking is the slow path; keep its row affordable.
  run("percall", target / 4, 0, true);
  run("batched-b32-syscall-submit", target, 32, false);
  run("batched-b32", target, 32, true);
  run("batched-b256", target, 256, true);

  // Zero-copy splice path: responses transmitted in place from pre-rendered
  // DMA slices, kernel work as one borrow-grant rendezvous per RX burst
  // (DESIGN.md §15). bytes_copied_per_request must be exactly 0.
  //
  // Measured in both modes: with causal tracing live (token-bucket sampler
  // at its runtime period + a flight recorder on the serving thread — this
  // is the reported "splice" row and the source of the OBS trace artifact)
  // and with observability off (sampler period 0, no recorder). The CI gate
  // on what always-on tracing costs reads counters, which host noise cannot
  // move: the flight-recorder events stored per request of the traced run,
  // and the sampler's accounting over it (every received frame sampled or
  // dropped, one in `period` sampled). The req/s ratio of the two modes
  // (obs_overhead_pct) is information only: on unchanged code it has read
  // from -23% to +16%. One discarded warmup run, then the modes alternate —
  // first-run cache warming and slow drift (thermal, scheduler) hit both
  // sides equally instead of biasing whichever mode runs first — and each
  // side reports its best of three.
  std::uint64_t sample_period = atmo::obs::TraceSamplePeriod();
  if (sample_period == 0) {
    sample_period = 64;  // tracing off via env: still measure the default cost
  }
  E2EOptions splice_opt;
  splice_opt.requests = target;
  splice_opt.batch = 0;
  splice_opt.splice = true;
  atmo::obs::FlightRecorder recorder(1 << 15, atmo::obs::ClockMode::kReal, 0);
  // Always-on tracing keeps only the request-stage stamps; the checker's
  // per-step spans skip the ring store (one compare), which keeps the
  // stored events per request near the stage count over the period.
  recorder.SetCategoryFilter(atmo::obs::kCatRequest);
  E2EResult splice_traced;
  std::vector<atmo::obs::TraceEvent> trace_events;
  double traced_best = -1.0;
  double untraced_best = -1.0;
  std::uint64_t traced_recorded = 0;
  std::uint64_t traced_sampled = 0;
  std::uint64_t traced_dropped = 0;
  atmo::obs::SetEnabled(false);
  atmo::obs::SetTraceSamplePeriod(0);
  RunEndToEnd("splice-warmup", splice_opt);
  for (int rep = 0; rep < 6; ++rep) {
    if (rep % 2 == 0) {
      atmo::obs::SetEnabled(true);
      atmo::obs::SetTraceSamplePeriod(sample_period);
      recorder.Clear();
      atmo::obs::ScopedThreadRecorder install(&recorder);
      std::uint64_t sampled0 = atmo::obs::SamplerSampledCount();
      std::uint64_t dropped0 = atmo::obs::SamplerDroppedCount();
      E2EResult r = RunEndToEnd("splice", splice_opt);
      if (r.row.ops_per_sec > traced_best) {
        traced_best = r.row.ops_per_sec;
        splice_traced = r;
        trace_events = recorder.Snapshot();
        traced_recorded = recorder.recorded();
        traced_sampled = atmo::obs::SamplerSampledCount() - sampled0;
        traced_dropped = atmo::obs::SamplerDroppedCount() - dropped0;
      }
    } else {
      atmo::obs::SetEnabled(false);
      atmo::obs::SetTraceSamplePeriod(0);
      E2EResult r = RunEndToEnd("splice-untraced", splice_opt);
      untraced_best = std::max(untraced_best, r.row.ops_per_sec);
    }
  }
  atmo::obs::SetEnabled(false);
  atmo::obs::SetTraceSamplePeriod(sample_period);
  json.Record(splice_traced.row, "K");
  results.push_back(splice_traced);
  double obs_overhead_pct =
      untraced_best > 0 ? (1.0 - traced_best / untraced_best) * 100.0 : 0.0;
  double trace_events_per_request =
      splice_traced.row.ops > 0
          ? static_cast<double>(traced_recorded) / static_cast<double>(splice_traced.row.ops)
          : 0.0;

  // Syscall-only amortization microbench: the >=5x gate's numbers. One
  // ratio of two short timed runs moves with host noise by as much as the
  // gate's margin, so per-call and batched reps of equal fixed duration
  // alternate — drift and co-tenant load hit both halves of a pair alike —
  // and the gate reads the median of the per-pair ratios.
  constexpr int kSpeedupPairs = 5;
  const double rep_seconds = quick ? 0.2 : 1.0;
  std::vector<double> percall_rates;
  std::vector<double> batched_rates;
  std::vector<double> pair_ratios;
  atmo::CheckStats batched_stats;
  for (int pair = 0; pair < kSpeedupPairs; ++pair) {
    double percall = CheckedSyscallRate(256, 0, nullptr, true, rep_seconds);
    double batched = CheckedSyscallRate(8 * 256, 256, &batched_stats, true, rep_seconds);
    percall_rates.push_back(percall);
    batched_rates.push_back(batched);
    pair_ratios.push_back(percall > 0 ? batched / percall : 0.0);
  }
  auto median = [](std::vector<double> values) {
    std::sort(values.begin(), values.end());
    return values[values.size() / 2];
  };
  double percall_rate = median(percall_rates);
  double batched_rate = median(batched_rates);
  double speedup = median(pair_ratios);
  bool gate_pass = speedup >= 5.0;

  // Allocation gate (DESIGN.md §14): heap allocations per checked step of
  // the arena-backed per-call run, a deterministic counter bounded by
  // max_heap_allocs_per_checked_step in ci/perf_floors.json. Per-call is the
  // right denominator — in batched mode one checked step covers 256 inner
  // syscalls, so the concrete kernel's own allocations dominate. The same
  // trace with the spec arenas off is reported beside it (rate, heap
  // allocations, ratio) as information: what the arenas save on checked
  // steps that path-copy O(|dirty| · log n) nodes. Both runs certify a
  // fixed number of syscalls, so the counts do not depend on host speed.
  std::uint64_t micro_ops = ScaledOps(400000);
  atmo::CheckStats percall_stats;
  CheckedSyscallRate(micro_ops / 4, 0, &percall_stats);
  atmo::CheckStats noarena_stats;
  double noarena_rate =
      CheckedSyscallRate(micro_ops / 4, 0, &noarena_stats, /*use_arena=*/false);
  bool alloc_counting = atmo::obs::HeapCountingActive();
  auto per_step = [](std::uint64_t count, const atmo::CheckStats& stats) {
    return stats.steps > 0 ? static_cast<double>(count) / stats.steps : 0.0;
  };
  double arena_allocs_per_step = per_step(percall_stats.heap_allocs, percall_stats);
  double arena_served_per_step = per_step(percall_stats.arena_allocs, percall_stats);
  double noarena_allocs_per_step = per_step(noarena_stats.heap_allocs, noarena_stats);
  double alloc_reduction =
      arena_allocs_per_step > 0 ? noarena_allocs_per_step / arena_allocs_per_step : 0.0;

  std::printf("\nchecked-syscall rate (syscall-only trace, same checker options):\n");
  std::printf("  per-call     : %12.0f checked syscalls/s\n", percall_rate);
  std::printf("  batched-b256 : %12.0f checked syscalls/s (%llu drains)\n", batched_rate,
              static_cast<unsigned long long>(batched_stats.batch_drains));
  std::printf("  amortization : %.2fx %s (gate: >=5x; median of %d pairs:", speedup,
              gate_pass ? "PASS" : "FAIL", kSpeedupPairs);
  for (double ratio : pair_ratios) {
    std::printf(" %.2f", ratio);
  }
  std::printf(")\n");
  std::printf("  heap allocs / checked step: %.1f with arenas (+ %.1f arena-served), "
              "%.1f without (%.1fx)\n",
              arena_allocs_per_step, arena_served_per_step, noarena_allocs_per_step,
              alloc_reduction);
  std::printf("  per-call rate without arenas: %12.0f checked syscalls/s (%.2fx with)\n",
              noarena_rate, noarena_rate > 0 ? percall_rate / noarena_rate : 0.0);

  bool all_ok = true;
  for (const E2EResult& r : results) {
    all_ok = all_ok && r.all_ok;
  }

  // The zero-copy claim is deterministic (a counter, not a rate), so it is
  // a hard gate even in quick mode.
  const E2EResult& splice = results.back();
  bool splice_zero_copy = splice.bytes_copied == 0 && splice.spliced_responses > 0;
  std::printf("\nsplice path: %llu/%llu responses spliced, %llu payload bytes copied %s\n",
              static_cast<unsigned long long>(splice.spliced_responses),
              static_cast<unsigned long long>(splice.row.ops),
              static_cast<unsigned long long>(splice.bytes_copied),
              splice_zero_copy ? "(PASS: zero-copy)" : "(FAIL)");
  std::printf("observability: %.4f trace events stored per request (%llu over %llu); "
              "sampler %llu sampled + %llu dropped of %llu frames (1/%llu)\n",
              trace_events_per_request, static_cast<unsigned long long>(traced_recorded),
              static_cast<unsigned long long>(splice_traced.row.ops),
              static_cast<unsigned long long>(traced_sampled),
              static_cast<unsigned long long>(traced_dropped),
              static_cast<unsigned long long>(splice_traced.rx_frames),
              static_cast<unsigned long long>(sample_period));
  std::printf("  traced %.0f vs untraced %.0f req/s -> %.2f%% overhead (information)\n",
              traced_best, untraced_best, obs_overhead_pct);
  for (const auto& stage : splice.stage_breakdown) {
    std::printf("  stage %-10s p50 %8llu ns  p95 %8llu ns  p99 %8llu ns  (%llu samples)\n",
                stage.stage.c_str(), static_cast<unsigned long long>(stage.p50_ns),
                static_cast<unsigned long long>(stage.p95_ns),
                static_cast<unsigned long long>(stage.p99_ns),
                static_cast<unsigned long long>(stage.count));
  }

  json.Write([&](atmo::obs::JsonWriter* w) {
    w->KV("clients", std::uint64_t{1} << 20);
    w->Key("configs").BeginArray();
    for (const E2EResult& r : results) {
      w->BeginObject();
      w->KV("config", r.row.config);
      w->KV("req_per_sec", r.row.ops_per_sec, "%.1f");
      w->KV("inner_syscalls", r.inner_syscalls);
      w->KV("checked_syscalls_per_sec", r.checked_syscalls_per_sec, "%.1f");
      w->KV("p50_ns", r.p50_ns);
      w->KV("p99_ns", r.p99_ns);
      w->KV("httpd_responses", r.httpd_responses);
      w->KV("kv_responses", r.kv_responses);
      w->KV("batch_drains", r.batch_drains);
      w->KV("bytes_copied", r.bytes_copied);
      w->KV("bytes_copied_per_request", r.bytes_copied_per_request, "%.2f");
      w->KV("spliced_responses", r.spliced_responses);
      w->KV("sampled_requests", r.sampled_requests);
      w->Key("stage_breakdown").BeginObject();
      for (const auto& stage : r.stage_breakdown) {
        w->Key(stage.stage.c_str()).BeginObject();
        w->KV("count", stage.count);
        w->KV("p50_ns", stage.p50_ns);
        w->KV("p95_ns", stage.p95_ns);
        w->KV("p99_ns", stage.p99_ns);
        w->EndObject();
      }
      w->EndObject();
      w->KV("all_ok", r.all_ok);
      w->EndObject();
    }
    w->EndArray();
    w->KV("percall_checked_syscalls_per_sec", percall_rate, "%.1f");
    w->KV("batched_checked_syscalls_per_sec", batched_rate, "%.1f");
    w->KV("batched_vs_percall_speedup", speedup, "%.3f");
    w->Key("batched_vs_percall_pair_ratios").BeginArray();
    for (double ratio : pair_ratios) {
      w->Double(ratio, "%.3f");
    }
    w->EndArray();
    w->KV("speedup_rep_seconds", rep_seconds, "%.2f");
    w->KV("speedup_gate_pass", gate_pass);
    w->KV("alloc_counting_active", alloc_counting);
    w->KV("heap_allocs_per_checked_step", arena_allocs_per_step, "%.2f");
    w->KV("arena_allocs_per_checked_step", arena_served_per_step, "%.2f");
    w->KV("noarena_heap_allocs_per_checked_step", noarena_allocs_per_step, "%.2f");
    w->KV("alloc_reduction_vs_noarena", alloc_reduction, "%.2f");
    w->KV("noarena_percall_checked_syscalls_per_sec", noarena_rate, "%.1f");
    w->KV("splice_zero_copy", splice_zero_copy);
    w->KV("splice_traced_req_per_sec", traced_best, "%.1f");
    w->KV("splice_untraced_req_per_sec", untraced_best, "%.1f");
    w->KV("obs_overhead_pct", obs_overhead_pct, "%.3f");
    w->KV("trace_sample_period", sample_period);
    w->KV("trace_events_recorded", std::uint64_t{trace_events.size()});
    w->KV("trace_events_per_request", trace_events_per_request, "%.4f");
    w->KV("trace_rx_frames", splice_traced.rx_frames);
    w->KV("trace_sampler_sampled", traced_sampled);
    w->KV("trace_sampler_dropped", traced_dropped);
    w->KV("all_ok", all_ok);
  });

  // Causal-trace artifact: the traced splice run's flight-recorder events,
  // stitched into per-request tracks with flow arrows (loads in Perfetto).
  std::string trace_doc = atmo::obs::StitchedRequestTraceJson(trace_events, "end_to_end");
  if (atmo::obs::WriteTextFile("OBS_end_to_end.trace.json", trace_doc + "\n")) {
    std::printf("wrote OBS_end_to_end.trace.json\n");
  }

  if (!all_ok) {
    std::fprintf(stderr, "end_to_end: a configuration finished with total_wf not ok\n");
    return 1;
  }
  if (!splice_zero_copy) {
    std::fprintf(stderr, "end_to_end: splice path copied payload bytes\n");
    return 1;
  }
  // Full mode enforces the amortization gate here; in quick mode
  // run_tests.sh gates the same median against ci/perf_floors.json.
  if (!quick && !gate_pass) {
    std::fprintf(stderr, "end_to_end: batched amortization below the 5x gate\n");
    return 1;
  }
  return 0;
}
