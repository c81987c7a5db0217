// Parallel sharded trace exploration scaling (DESIGN.md "Parallel sharded
// sweeps"; the runtime analog of Table 2's 1-thread vs 8-thread columns).
//
// The same 16-shard sweep (one private Kernel + RefinementChecker per
// shard, seeds split from one master seed) runs at 1/2/4/8 workers and we
// report aggregate checked-steps/s. Shards share no mutable state, so
// throughput should scale with cores until the machine runs out of them;
// on a 1-vCPU host the curve is ~flat. Every configuration must produce the
// bit-identical merged report; the exit code enforces that on any host.
// The 4-worker scaling gate lives in ci/run_tests.sh. Writes a machine-readable
// summary to BENCH_parallel_sweep.json.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "bench/pipeline.h"
#include "src/obs/exporters.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/json_writer.h"
#include "src/verif/obs_export.h"
#include "src/verif/sweep_harness.h"

namespace atmo {
namespace bench {
namespace {

constexpr std::uint64_t kMasterSeed = 0xa7005fee;
constexpr std::uint64_t kShards = 16;

struct Config {
  unsigned workers;
  SweepReport report;
};

void AppendConfigJson(obs::JsonWriter* w, const Config& c) {
  w->BeginObject();
  w->KV("workers", c.workers);
  w->KV("steps", c.report.total_steps);
  w->KV("steps_per_sec", c.report.steps_per_sec, "%.1f");
  w->KV("wall_seconds", c.report.wall_seconds, "%.4f");
  w->KV("coverage_cells", c.report.coverage.NonZeroCells());
  w->KV("all_ok", c.report.AllOk());
  w->EndObject();
}

}  // namespace
}  // namespace bench
}  // namespace atmo

int main() {
  using namespace atmo;
  using namespace atmo::bench;

  bool quick = std::getenv("ATMO_BENCH_QUICK") != nullptr;
  // ATMO_TRACE=1 makes every shard run with a flight recorder installed.
  bool traced = obs::EnabledFromEnv();
  std::uint64_t steps_per_shard = ScaledOps(3000);
  unsigned hc = std::thread::hardware_concurrency();
  unsigned host_cpus = HostCpus();

  std::printf("=== Parallel sharded sweep: %llu shards x %llu steps, %u CPUs available ===\n",
              static_cast<unsigned long long>(kShards),
              static_cast<unsigned long long>(steps_per_shard), host_cpus);
  PrintHeader("checked randomized syscall traces", "K steps/s");

  Config configs[4] = {{1, {}}, {2, {}}, {4, {}}, {8, {}}};
  for (Config& c : configs) {
    SweepHarness::Options options;
    options.master_seed = kMasterSeed;
    options.shards = kShards;
    options.steps_per_shard = steps_per_shard;
    options.workers = c.workers;
    SweepHarness harness(options);
    std::string name = std::to_string(c.workers) + " worker" + (c.workers > 1 ? "s" : "");
    Row row = RunTimed(name, kShards * steps_per_shard, [&](std::uint64_t) {
      c.report = harness.Run();
      return c.report.total_steps;
    });
    PrintRow(row, "K");
  }

  // Determinism across worker counts is a correctness requirement on every
  // host, multi-core or not.
  bool deterministic = true;
  for (int i = 1; i < 4; ++i) {
    deterministic = deterministic && configs[0].report.SameOutcome(configs[i].report);
  }
  bool all_ok = true;
  for (const Config& c : configs) {
    all_ok = all_ok && c.report.AllOk();
  }

  double speedup_2w = configs[1].report.steps_per_sec / configs[0].report.steps_per_sec;
  double speedup_4w = configs[2].report.steps_per_sec / configs[0].report.steps_per_sec;
  double speedup_8w = configs[3].report.steps_per_sec / configs[0].report.steps_per_sec;

  obs::JsonWriter w;
  w.BeginObject();
  w.KV("bench", "parallel_sweep");
  w.KV("master_seed", kMasterSeed);
  w.KV("shards", kShards);
  w.KV("steps_per_shard", steps_per_shard);
  w.KV("hardware_concurrency", hc);
  w.KV("host_cpus", host_cpus);
  w.KV("quick", quick);
  w.Key("configs").BeginArray();
  for (const Config& c : configs) {
    AppendConfigJson(&w, c);
  }
  w.EndArray();
  w.KV("speedup_2w", speedup_2w, "%.2f");
  w.KV("speedup_4w", speedup_4w, "%.2f");
  w.KV("speedup_8w", speedup_8w, "%.2f");
  // On a single schedulable CPU the workers time-slice one core, the curve
  // is ~flat by construction and the speedup numbers say nothing about the
  // harness — flag them so downstream tooling doesn't compare them.
  w.KV("scaling_valid", host_cpus > 1);
  w.KV("deterministic_across_workers", deterministic);
  w.KV("all_ok", all_ok);
  w.EndObject();
  obs::WriteTextFile("BENCH_parallel_sweep.json", w.str() + "\n");
  std::printf("\nwrote BENCH_parallel_sweep.json\n");

  // With ATMO_TRACE=1 the sweeps above ran traced (per-shard virtual-clock
  // recorders); export the last configuration's merged trace + a metrics
  // snapshot for Perfetto / dashboards.
  if (traced) {
    WriteSweepTrace(configs[3].report, "OBS_parallel_sweep_trace.json");
    obs::MetricsRegistry registry;
    ExportSweepMetrics(configs[3].report, &registry);
    obs::WriteTextFile("OBS_parallel_sweep_metrics.json", obs::MetricsJson(registry) + "\n");
    std::printf("wrote OBS_parallel_sweep_trace.json, OBS_parallel_sweep_metrics.json\n");
  }
  std::printf("speedup: 2w %.2fx, 4w %.2fx, 8w %.2fx (1-worker baseline %.0f steps/s)\n",
              speedup_2w, speedup_4w, speedup_8w, configs[0].report.steps_per_sec);
  std::printf("deterministic across worker counts: %s\n", deterministic ? "PASS" : "FAIL");

  if (!deterministic || !all_ok) {
    return 1;
  }
  // The scaling gate (ci/perf_floors.json min_speedup_4w) is applied by
  // ci/run_tests.sh to a full-mode run on a host with at least 4 CPUs; a
  // quick-mode run is too short to resolve it, and on one CPU the workers
  // time-slice one core.
  if (host_cpus == 1) {
    std::printf(
        "scaling not gated: 1 CPU available, workers time-slice one core "
        "(scaling_valid=false in BENCH_parallel_sweep.json)\n");
  }
  return 0;
}
