// verify_sweep: randomized syscall traces driven through SweepHarness, every
// step certified by a per-shard refinement checker.

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "perfbench/report.h"
#include "src/verif/sweep_harness.h"

namespace atmo::perfbench {
namespace {

// One SweepHarness::Run is 16 shards of 256 steps on 2 workers (half the
// host's 4 CPUs); runs repeat with fresh master seeds until time is up.
// 16 shards per run keep the idle tail of the last shard small next to the
// run.
constexpr std::uint64_t kShardsPerRun = 16;
constexpr std::uint64_t kStepsPerShard = 256;
constexpr unsigned kWorkers = 2;
constexpr int kSetupReps = 31;

SweepHarness::Options SweepOptions(std::uint64_t master_seed) {
  SweepHarness::Options o;
  o.master_seed = master_seed;
  o.shards = kShardsPerRun;
  o.steps_per_shard = kStepsPerShard;
  o.workers = kWorkers;
  o.ring_ops = true;
  o.grant_ops = true;
  o.obs_ops = true;
  return o;
}

// The per-shard set-up RunShard repeats for every shard: boot the fixture
// and take the first checked step (whose capture is a full abstraction).
double ShardSetUpSeconds(const SweepHarness::Options& o) {
  double t0 = NowSeconds();
  TraceFixture f = TraceFixture::Boot();
  RefinementChecker checker(&f.kernel, o.checker);
  f.SetupIpcAndDma();
  TraceGen gen(SweepHarness::ShardSeed(o.master_seed, 0));
  gen.ring_ops = o.ring_ops;
  gen.grant_ops = o.grant_ops;
  gen.obs_ops = o.obs_ops;
  TraceGen::Cmd cmd = gen.Gen(f);
  checker.Step(f.thrds[cmd.thread_idx], cmd.call);
  return NowSeconds() - t0;
}

struct SweepTotals {
  std::uint64_t runs = 0;
  std::uint64_t steps = 0;
  std::uint64_t shards = 0;
  double wall_s = 0;       // from before Run() to after its bookkeeping
  double run_s = 0;        // inside Run()
  double shard_wall_s = 0;  // summed over shards
  double queue_wait_s = 0;  // summed over shards
  std::vector<double> max_over_mean;  // per run
  CheckStats stats;
};

void Add(SweepTotals* t, const SweepReport& report, double run_s, double wall_s) {
  ++t->runs;
  t->steps += report.total_steps;
  t->shards += report.shards.size();
  t->run_s += run_s;
  t->wall_s += wall_s;
  double sum = 0;
  double max = 0;
  for (const ShardResult& shard : report.shards) {
    sum += shard.wall_seconds;
    max = std::max(max, shard.wall_seconds);
    t->queue_wait_s += shard.queue_wait_seconds;
  }
  t->shard_wall_s += sum;
  if (sum > 0) {
    t->max_over_mean.push_back(max / (sum / static_cast<double>(report.shards.size())));
  }
  const CheckStats& s = report.stats;
  t->stats.steps += s.steps;
  t->stats.abstraction_ns += s.abstraction_ns;
  t->stats.spec_ns += s.spec_ns;
  t->stats.wf_ns += s.wf_ns;
  t->stats.audit_ns += s.audit_ns;
  t->stats.full_abstractions += s.full_abstractions;
  t->stats.dirty_entries += s.dirty_entries;
  t->stats.max_dirty_entries = std::max(t->stats.max_dirty_entries, s.max_dirty_entries);
  t->stats.heap_allocs += s.heap_allocs;
  t->stats.arena_allocs += s.arena_allocs;
}

double PerStep(double v, const SweepTotals& t) {
  return t.stats.steps == 0 ? 0.0 : v / static_cast<double>(t.stats.steps);
}

}  // namespace

void RunSweep(const RunOptions& options, Result* result) {
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    setup_s.push_back(ShardSetUpSeconds(SweepOptions(options.seed)));
  }

  SweepTotals untraced;
  SweepTotals traced;
  CoverageMatrix coverage;
  std::optional<SweepReport> first;
  std::vector<SpanRecord> spans;
  const std::size_t kKeepSpans = 20000;
  std::vector<Window> windows(MeasureWindows(options.seconds));
  const std::uint64_t epoch_ns = NowNs();
  const auto window_ns = static_cast<std::uint64_t>(options.seconds / windows.size() * 1e9);
  std::uint64_t run = 0;

  for (Window& window : windows) {
    const std::uint64_t window_start = NowNs();
    std::uint64_t window_steps = 0;
    do {
      // With --trace 1, odd runs are the traced ones; the spans are the
      // benchmark's call into the harness and the shards it reports back.
      const bool traced_run = options.trace && (run & 1) == 1;
      const std::uint64_t t0 = NowNs();
      SweepReport report =
          SweepHarness(SweepOptions(SweepHarness::ShardSeed(options.seed, run))).Run();
      const std::uint64_t t1 = NowNs();

      for (const ShardResult& shard : report.shards) {
        if (!shard.ok) {
          result->failed += shard.steps;
          result->Fail("run " + std::to_string(run) + " shard " + std::to_string(shard.shard) +
                       " step " + std::to_string(shard.token ? shard.token->step : 0) + ": " +
                       shard.failure);
        }
        window.latency_ns.Add(static_cast<std::uint64_t>(shard.wall_seconds * 1e9));
      }
      result->attempted += report.total_steps;
      window_steps += report.total_steps;
      coverage.Merge(report.coverage);
      if (traced_run && spans.size() + report.shards.size() < kKeepSpans) {
        auto parent = static_cast<std::int32_t>(spans.size());
        spans.push_back(SpanRecord{kSweepRun, -1, static_cast<double>(t0 - epoch_ns),
                                   static_cast<double>(t1 - epoch_ns)});
        for (const ShardResult& shard : report.shards) {
          double claimed = static_cast<double>(t0 - epoch_ns) + shard.queue_wait_seconds * 1e9;
          spans.push_back(
              SpanRecord{kSweepShard, parent, claimed, claimed + shard.wall_seconds * 1e9});
        }
      }
      Add(traced_run ? &traced : &untraced, report, static_cast<double>(t1 - t0) / 1e9,
          static_cast<double>(NowNs() - t0) / 1e9);
      if (!first.has_value()) {
        first = std::move(report);
      }
      ++run;
    } while (NowNs() - window_start < window_ns);
    window.ops_per_s = static_cast<double>(window_steps) /
                       (static_cast<double>(NowNs() - window_start) / 1e9);
  }
  // --- Output check: the first run again, same seed, same outcome ----------
  if (first.has_value()) {
    SweepReport again = SweepHarness(SweepOptions(SweepHarness::ShardSeed(options.seed, 0))).Run();
    if (!first->SameOutcome(again)) {
      result->Fail("two sweeps of one master seed disagree (coverage, verdicts or step counts)");
    }
  } else {
    result->Fail("no sweep completed");
  }
  std::uint64_t ops_hit = 0;
  std::uint64_t error_steps = 0;
  for (std::size_t op = 0; op < kSysOpCount; ++op) {
    std::uint64_t hits = 0;
    for (std::size_t err = 0; err < kSysErrorCount; ++err) {
      hits += coverage.counts[op][err];
      auto e = static_cast<SysError>(err);
      if (e != SysError::kOk && e != SysError::kBlocked) {
        error_steps += coverage.counts[op][err];
      }
    }
    ops_hit += hits > 0 ? 1 : 0;
  }
  const std::uint64_t all_steps = untraced.steps + traced.steps;
  result->notes.push_back("runs=" + std::to_string(untraced.runs + traced.runs) +
                          " steps=" + std::to_string(all_steps) +
                          " sysops_covered=" + std::to_string(ops_hit) + "/" +
                          std::to_string(kSysOpCount) +
                          " op_error_cells=" + std::to_string(coverage.NonZeroCells()));

  if (!options.trace) {
    ReportWindows(windows, result);
    result->Set("setup_s", Median(setup_s));
    result->Set("peak_rss_mib", PeakRssMib());
    return;
  }

  // --- Per-layer metrics from the traced runs' SweepReports ----------------
  const SweepTotals& t = traced;
  const double phases_ns = static_cast<double>(t.stats.abstraction_ns + t.stats.spec_ns +
                                               t.stats.wf_ns + t.stats.audit_ns);
  const double shard_ns_total = t.shard_wall_s * 1e9;
  const double worker_ns = kWorkers * t.wall_s * 1e9;  // worker time available
  result->Set("core.exec_ns_per_step", PerStep(shard_ns_total - phases_ns, t));
  auto per_step = [&](std::uint64_t v) { return PerStep(static_cast<double>(v), t); };
  result->Set("verif.abstraction_ns_per_step", per_step(t.stats.abstraction_ns));
  result->Set("verif.spec_ns_per_step", per_step(t.stats.spec_ns));
  result->Set("verif.wf_ns_per_step", per_step(t.stats.wf_ns));
  result->Set("verif.audit_ns_per_step", per_step(t.stats.audit_ns));
  result->Set("verif.dirty_entries_per_step", per_step(t.stats.dirty_entries));
  result->Set("verif.max_dirty_entries", static_cast<double>(t.stats.max_dirty_entries));
  result->Set("verif.full_abstractions", static_cast<double>(t.stats.full_abstractions));
  result->Set("verif.heap_allocs_per_step", per_step(t.stats.heap_allocs));
  result->Set("verif.arena_allocs_per_step", per_step(t.stats.arena_allocs));
  result->Set("sweep.queue_wait_s",
              t.shards == 0 ? 0.0 : t.queue_wait_s / static_cast<double>(t.shards));
  result->Set("sweep.shard_wall_max_over_mean", Median(t.max_over_mean));
  result->Set("sweep.worker_busy_frac", t.shard_wall_s / (kWorkers * t.run_s));
  result->Set("sweep.error_step_frac",
              static_cast<double>(error_steps) / static_cast<double>(coverage.Total()));
  result->Set("sweep.coverage_cells", static_cast<double>(coverage.NonZeroCells()));
  // Worker time split: checker phases (verif), the rest of each shard
  // (kernel exec, trace generation, boot: core), workers idle inside Run()
  // (sweep), and outside any Run() (unattributed).
  result->Set("verif.self_frac", phases_ns / worker_ns);
  result->Set("core.self_frac", (shard_ns_total - phases_ns) / worker_ns);
  result->Set("sweep.self_frac", (kWorkers * t.run_s * 1e9 - shard_ns_total) / worker_ns);
  result->Set("obs.unattributed_frac", 1.0 - t.run_s / t.wall_s);
  const double untraced_rate = static_cast<double>(untraced.steps) / untraced.wall_s;
  const double traced_rate = static_cast<double>(traced.steps) / traced.wall_s;
  result->Set("obs.tracing_overhead_frac", 1.0 - traced_rate / untraced_rate);

  if (!options.out_dir.empty()) {
    std::string path = options.out_dir + "/" + options.workload + "-seed" +
                       std::to_string(options.seed) + ".spans.json";
    if (!WriteSpanFile(path, spans)) {
      result->Fail("cannot write " + path);
    } else {
      result->notes.push_back("spans written to " + path);
    }
  }
}

}  // namespace atmo::perfbench
