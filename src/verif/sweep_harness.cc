#include "src/verif/sweep_harness.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <optional>
#include <thread>
#include <utility>

#include "src/obs/flight_recorder.h"
#include "src/verif/obs_export.h"
#include "src/vstd/check.h"

namespace atmo {

namespace {

// Summed counters; max_dirty_entries is the max over shards.
void MergeStats(CheckStats* into, const CheckStats& from) {
  into->steps += from.steps;
  into->abstraction_ns += from.abstraction_ns;
  into->spec_ns += from.spec_ns;
  into->wf_ns += from.wf_ns;
  into->audit_ns += from.audit_ns;
  into->wf_checks += from.wf_checks;
  into->total_wf_runs += from.total_wf_runs;
  into->local_wf_entries += from.local_wf_entries;
  into->audit_passes += from.audit_passes;
  into->full_abstractions += from.full_abstractions;
  into->delta_abstractions += from.delta_abstractions;
  into->dirty_entries += from.dirty_entries;
  into->max_dirty_entries = std::max(into->max_dirty_entries, from.max_dirty_entries);
  into->batch_drains += from.batch_drains;
  into->batched_entries += from.batched_entries;
  into->heap_allocs += from.heap_allocs;
  into->arena_allocs += from.arena_allocs;
}

}  // namespace

void CoverageMatrix::Merge(const CoverageMatrix& other) {
  // Saturating add: a cell pinned at UINT64_MAX stays there instead of
  // wrapping (merging reports from absurdly long campaigns must not make
  // coverage counts go backwards).
  for (std::size_t op = 0; op < kSysOpCount; ++op) {
    for (std::size_t err = 0; err < kSysErrorCount; ++err) {
      std::uint64_t& cell = counts[op][err];
      std::uint64_t add = other.counts[op][err];
      cell = add > ~cell ? ~std::uint64_t{0} : cell + add;
    }
  }
}

std::uint64_t CoverageMatrix::Total() const {
  std::uint64_t total = 0;
  for (std::size_t op = 0; op < kSysOpCount; ++op) {
    for (std::size_t err = 0; err < kSysErrorCount; ++err) {
      std::uint64_t add = counts[op][err];
      total = add > ~total ? ~std::uint64_t{0} : total + add;
    }
  }
  return total;
}

std::uint64_t CoverageMatrix::NonZeroCells() const {
  std::uint64_t cells = 0;
  for (std::size_t op = 0; op < kSysOpCount; ++op) {
    for (std::size_t err = 0; err < kSysErrorCount; ++err) {
      cells += counts[op][err] != 0 ? 1 : 0;
    }
  }
  return cells;
}

void SweepProgress::RecordShard(const ShardResult& result) {
  MutexLock lock(&mu_);
  ++shards_completed_;
  steps_completed_ += result.steps;
  if (!result.ok) {
    ++shards_failed_;
    if (result.token && (!first_failure_ || result.token->shard < first_failure_->shard)) {
      first_failure_ = result.token;
    }
  }
}

SweepProgress::Snapshot SweepProgress::TakeSnapshot() const {
  MutexLock lock(&mu_);
  Snapshot snap;
  snap.shards_completed = shards_completed_;
  snap.shards_failed = shards_failed_;
  snap.steps_completed = steps_completed_;
  snap.first_failure = first_failure_;
  return snap;
}

bool SweepReport::AllOk() const {
  for (const ShardResult& shard : shards) {
    if (!shard.ok) {
      return false;
    }
  }
  return true;
}

std::vector<ReplayToken> SweepReport::Failures() const {
  std::vector<ReplayToken> tokens;
  for (const ShardResult& shard : shards) {
    if (shard.token) {
      tokens.push_back(*shard.token);
    }
  }
  return tokens;
}

bool SweepReport::SameOutcome(const SweepReport& other) const {
  if (!(coverage == other.coverage) || total_steps != other.total_steps ||
      shards.size() != other.shards.size()) {
    return false;
  }
  for (std::size_t i = 0; i < shards.size(); ++i) {
    const ShardResult& a = shards[i];
    const ShardResult& b = other.shards[i];
    if (a.seed != b.seed || a.steps != b.steps || a.ok != b.ok ||
        a.token != b.token || !(a.coverage == b.coverage)) {
      return false;
    }
  }
  return true;
}

std::uint64_t SweepHarness::ShardSeed(std::uint64_t master_seed, std::uint64_t shard) {
  // The (shard+1)-th value of the splitmix64 stream seeded by master_seed;
  // +1 keeps shard 0 from degenerating to SplitMix64(master_seed + 0).
  std::uint64_t seed = SplitMix64(master_seed + shard * kSplitMix64Gamma);
  return seed != 0 ? seed : kSplitMix64Gamma;  // xorshift state must be nonzero
}

ShardResult SweepHarness::RunShard(std::uint64_t shard, bool force_trace) const {
  ShardResult result;
  result.shard = shard;
  result.seed = ShardSeed(options_.master_seed, shard);

  // Per-shard flight recorder: virtual clock (timestamps count recorded
  // events, not wall time) so a traced sweep stays bit-identical across
  // worker counts; tid = shard index gives each shard its own Perfetto
  // track. The recorder is installed only on this thread for the duration
  // of the shard, so shards never share one.
  const bool traced = force_trace || options_.trace || obs::Enabled();
  std::optional<obs::FlightRecorder> recorder;
  std::optional<obs::ScopedThreadRecorder> install;
  if (traced) {
    recorder.emplace(options_.trace_capacity, obs::ClockMode::kVirtual,
                     static_cast<std::uint32_t>(shard));
    install.emplace(&*recorder);
  }
  ATMO_OBS_INSTANT_ARG(obs::kCatSweep, "shard.start", "seed", result.seed);

  TraceFixture f = TraceFixture::Boot();
  RefinementChecker checker(&f.kernel, options_.checker);
  f.SetupIpcAndDma();
  TraceGen gen(result.seed);
  gen.ring_ops = options_.ring_ops;
  gen.grant_ops = options_.grant_ops;
  gen.obs_ops = options_.obs_ops;

  std::uint64_t step = 0;
  try {
    for (; step < options_.steps_per_shard; ++step) {
      if (options_.fault_hook) {
        options_.fault_hook(&f, shard, step);
      }
      TraceGen::Cmd cmd = gen.Gen(f);
      SyscallRet ret = checker.Step(f.thrds[cmd.thread_idx], cmd.call);
      result.coverage.Record(cmd.call.op, ret.error);
      gen.Observe(cmd.call, ret);
      // Drain pending inbound payloads so rendezvous can repeat.
      if (ret.ok() && (cmd.call.op == SysOp::kSend || cmd.call.op == SysOp::kRecv)) {
        for (int ti = 0; ti < TraceFixture::kThreads; ++ti) {
          if (f.kernel.HasInbound(f.thrds[ti])) {
            f.kernel.TakeInbound(f.thrds[ti]);
          }
        }
      }
    }
  } catch (const CheckViolation& violation) {
    // The kernel may be arbitrarily inconsistent after a failed obligation:
    // stop this shard and hand back the coordinates of the failing step.
    result.ok = false;
    result.failure = violation.what();
    result.token = ReplayToken{options_.master_seed, shard, step};
  }
  result.steps = checker.steps_checked();
  result.stats = checker.stats();
  ATMO_OBS_INSTANT_ARG(obs::kCatSweep, "shard.finish", "steps", result.steps);
  if (recorder) {
    result.trace = recorder->Snapshot();
  }
  return result;
}

void SweepHarness::MaybeDumpForensics(const ShardResult& result) const {
  if (result.ok || result.trace.empty()) {
    return;
  }
  const char* dir = std::getenv("ATMO_OBS_DUMP_DIR");
  if (dir == nullptr || dir[0] == '\0') {
    return;
  }
  std::string path = std::string(dir) + "/sweep_failure_shard" +
                     std::to_string(result.shard) + ".json";
  WriteSweepFailureForensics(result, options_.forensics_tail, path);
}

SweepReport SweepHarness::Run() const {
  SweepReport report;
  report.shards.resize(options_.shards);
  report.workers = static_cast<unsigned>(
      std::min<std::uint64_t>(std::max(options_.workers, 1u), std::max<std::uint64_t>(options_.shards, 1)));

  auto wall_start = std::chrono::steady_clock::now();

  // Check violations must throw (not abort) so a failing shard is contained
  // to its worker. Installed once, before any worker exists, and restored
  // after the last join — the handler itself is never touched concurrently.
  ScopedThrowOnCheckFailure throw_guard;

  // Internal progress tracker (mutex-guarded, see thread_annotations.h);
  // first_failure in the report is derived from it after the join.
  SweepProgress progress;
  std::atomic<std::uint64_t> next{0};
  auto worker = [&] {
    for (;;) {
      std::uint64_t shard = next.fetch_add(1);
      if (shard >= options_.shards) {
        return;
      }
      // Queue wait = sweep start -> claim; both timing fields live outside
      // the deterministic portion of the report (SameOutcome ignores them).
      auto claimed = std::chrono::steady_clock::now();
      report.shards[shard] = RunShard(shard, /*force_trace=*/false);
      auto finished = std::chrono::steady_clock::now();
      report.shards[shard].queue_wait_seconds =
          std::chrono::duration<double>(claimed - wall_start).count();
      report.shards[shard].wall_seconds =
          std::chrono::duration<double>(finished - claimed).count();
      progress.RecordShard(report.shards[shard]);
      if (options_.progress != nullptr) {
        options_.progress->RecordShard(report.shards[shard]);
      }
    }
  };

  if (report.workers <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(report.workers);
    for (unsigned i = 0; i < report.workers; ++i) {
      pool.emplace_back(worker);
    }
    for (std::thread& t : pool) {
      t.join();
    }
  }

  // Merge in shard order: independent of which worker ran which shard.
  for (const ShardResult& shard : report.shards) {
    report.coverage.Merge(shard.coverage);
    MergeStats(&report.stats, shard.stats);
    report.total_steps += shard.steps;
  }
  // Failure forensics: every failing traced shard dumps its trace tail +
  // replay token when ATMO_OBS_DUMP_DIR points somewhere.
  for (const ShardResult& shard : report.shards) {
    MaybeDumpForensics(shard);
  }
  report.first_failure = progress.TakeSnapshot().first_failure;
  report.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();
  report.steps_per_sec =
      report.wall_seconds > 0.0 ? static_cast<double>(report.total_steps) / report.wall_seconds
                                : 0.0;
  return report;
}

ShardResult SweepHarness::Replay(const ReplayToken& token) const {
  ATMO_CHECK(token.master_seed == options_.master_seed,
             "replay token was minted by a sweep with a different master seed");
  ATMO_CHECK(token.shard < options_.shards, "replay token shard out of range");
  ScopedThrowOnCheckFailure throw_guard;
  // Tracing is forced so the reproduced failure ships with its trace even
  // when the original sweep ran untraced.
  ShardResult result = RunShard(token.shard, /*force_trace=*/true);
  MaybeDumpForensics(result);
  return result;
}

}  // namespace atmo
