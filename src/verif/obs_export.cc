#include "src/verif/obs_export.h"

#include "src/obs/exporters.h"
#include "src/obs/json_writer.h"

namespace atmo {

void ExportCheckStats(const CheckStats& stats, obs::MetricsRegistry* registry,
                      const std::string& prefix) {
  registry->counter(prefix + "steps").Add(stats.steps);
  registry->counter(prefix + "wf_checks").Add(stats.wf_checks);
  registry->counter(prefix + "audit_passes").Add(stats.audit_passes);
  registry->counter(prefix + "full_abstractions").Add(stats.full_abstractions);
  registry->counter(prefix + "delta_abstractions").Add(stats.delta_abstractions);
  registry->counter(prefix + "dirty_entries").Add(stats.dirty_entries);
  registry->counter(prefix + "abstraction_ns").Add(stats.abstraction_ns);
  registry->counter(prefix + "spec_ns").Add(stats.spec_ns);
  registry->counter(prefix + "wf_ns").Add(stats.wf_ns);
  registry->counter(prefix + "audit_ns").Add(stats.audit_ns);
  registry->counter(prefix + "batch_drains").Add(stats.batch_drains);
  registry->counter(prefix + "batched_entries").Add(stats.batched_entries);
  registry->counter(prefix + "heap_allocs").Add(stats.heap_allocs);
  registry->counter(prefix + "arena_allocs").Add(stats.arena_allocs);
  registry->gauge(prefix + "max_dirty_entries")
      .Set(static_cast<double>(stats.max_dirty_entries));
  if (stats.steps != 0) {
    registry->gauge(prefix + "heap_allocs_per_step")
        .Set(static_cast<double>(stats.heap_allocs) /
             static_cast<double>(stats.steps));
  }
}

void ExportSweepMetrics(const SweepReport& report, obs::MetricsRegistry* registry) {
  ExportCheckStats(report.stats, registry);
  registry->counter("sweep.total_steps").Add(report.total_steps);
  registry->counter("sweep.shards").Add(report.shards.size());
  registry->counter("sweep.coverage_cells").Add(report.coverage.NonZeroCells());
  registry->gauge("sweep.workers").Set(static_cast<double>(report.workers));
  registry->gauge("sweep.wall_seconds").Set(report.wall_seconds);
  registry->gauge("sweep.steps_per_sec").Set(report.steps_per_sec);
  obs::Histogram& steps = registry->histogram("sweep.shard_steps");
  obs::Histogram& wall = registry->histogram("sweep.shard_wall_us");
  obs::Histogram& wait = registry->histogram("sweep.shard_queue_wait_us");
  for (const ShardResult& shard : report.shards) {
    steps.Observe(shard.steps);
    wall.Observe(static_cast<std::uint64_t>(shard.wall_seconds * 1e6));
    wait.Observe(static_cast<std::uint64_t>(shard.queue_wait_seconds * 1e6));
    if (!shard.ok) {
      registry->counter("sweep.shards_failed").Add(1);
    }
  }
}

std::vector<obs::TraceEvent> MergedSweepTrace(const SweepReport& report) {
  std::vector<obs::TraceEvent> events;
  for (const ShardResult& shard : report.shards) {
    events.insert(events.end(), shard.trace.begin(), shard.trace.end());
  }
  return events;
}

bool WriteSweepTrace(const SweepReport& report, const std::string& path) {
  return obs::WriteTextFile(path, obs::ChromeTraceJson(MergedSweepTrace(report)));
}

std::string SweepFailureForensicsJson(const ShardResult& result, std::size_t tail) {
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("traceEvents").BeginArray();
  std::size_t begin = result.trace.size() > tail ? result.trace.size() - tail : 0;
  for (std::size_t i = begin; i < result.trace.size(); ++i) {
    obs::AppendTraceEvent(&w, result.trace[i]);
  }
  w.EndArray();
  w.Key("otherData").BeginObject();
  w.KV("shard", result.shard);
  w.KV("seed", result.seed);
  w.KV("steps", result.steps);
  w.KV("ok", result.ok);
  w.KV("failure", result.failure.c_str());
  if (result.token) {
    w.Key("replay_token").BeginObject();
    w.KV("master_seed", result.token->master_seed);
    w.KV("shard", result.token->shard);
    w.KV("step", result.token->step);
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  return w.str();
}

bool WriteSweepFailureForensics(const ShardResult& result, std::size_t tail,
                                const std::string& path) {
  return obs::WriteTextFile(path, SweepFailureForensicsJson(result, tail));
}

}  // namespace atmo
