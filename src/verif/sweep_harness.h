// Parallel sharded trace exploration — the runtime analog of the paper's
// parallel verification (Table 2's 8-thread column).
//
// The paper's whole-kernel re-verification is fast because it decomposes
// into independent per-function SMT queries that run on all cores. The
// runtime substitute decomposes the same way: a sweep is N independent
// trace *shards*, each a deterministic randomized syscall trace (TraceGen)
// driven through its own private Kernel + RefinementChecker. Shards share
// no mutable state — worker threads pull shard indices off an atomic
// counter, run each shard to completion in isolation, and write the result
// into that shard's pre-allocated slot. Per-shard seeds derive from one
// master seed via splitmix64, so the merged report is a pure function of
// (master_seed, shards, steps_per_shard, checker options): 1 worker and 8
// workers produce bit-identical coverage, verdicts and step counts.
//
// A check failure inside a shard (spec, total_wf, or audit violation) is
// caught at the shard boundary and recorded as a ReplayToken — (master
// seed, shard, step) — which Replay() reruns single-threaded to reproduce
// the exact failing trace for debugging.

#ifndef ATMO_SRC_VERIF_SWEEP_HARNESS_H_
#define ATMO_SRC_VERIF_SWEEP_HARNESS_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "src/core/syscall.h"
#include "src/obs/trace_event.h"
#include "src/verif/refinement_checker.h"
#include "src/verif/trace_gen.h"
#include "src/vstd/thread_annotations.h"

namespace atmo {

// Syscall-op × error-code hit counts: which regions of the verified surface
// a sweep actually exercised (both success and every error path). The
// dimensions are the row counts of the op and error tables in
// src/core/syscall.h.
struct CoverageMatrix {
  std::uint64_t counts[kSysOpCount][kSysErrorCount] = {};

  void Record(SysOp op, SysError error) {
    ++counts[static_cast<std::size_t>(op)][static_cast<std::size_t>(error)];
  }
  void Merge(const CoverageMatrix& other);
  std::uint64_t Total() const;
  std::uint64_t NonZeroCells() const;

  friend bool operator==(const CoverageMatrix&, const CoverageMatrix&) = default;
};

// Everything needed to rerun one failing trace single-threaded: the shard's
// trace is a pure function of the master seed and shard index, and `step`
// is where the check violation fired.
struct ReplayToken {
  std::uint64_t master_seed = 0;
  std::uint64_t shard = 0;
  std::uint64_t step = 0;

  friend bool operator==(const ReplayToken&, const ReplayToken&) = default;
};

struct ShardResult {
  std::uint64_t shard = 0;
  std::uint64_t seed = 0;    // splitmix64-derived trace seed
  std::uint64_t steps = 0;   // checked steps completed
  bool ok = true;
  std::string failure;       // check-violation message when !ok
  std::optional<ReplayToken> token;
  CoverageMatrix coverage;
  CheckStats stats;
  // Flight-recorder snapshot when the shard ran traced (Options::trace,
  // process-wide obs enable, or Replay). Virtual-clock timestamps, so the
  // trace is a pure function of the shard seed — excluded from SameOutcome
  // anyway, like the wall-clock fields below.
  std::vector<obs::TraceEvent> trace;
  double wall_seconds = 0.0;        // time inside RunShard
  double queue_wait_seconds = 0.0;  // sweep start -> worker claimed shard
};

// Live, cross-thread view of a sweep in flight. This is the only mutable
// state the workers share besides the shard counter, so it carries the full
// thread-safety contract: every field is GUARDED_BY the mutex and Clang's
// -Wthread-safety analysis rejects any unlocked access at compile time.
//
// Determinism note: completion counters depend on scheduling, so nothing
// here feeds the deterministic portion of SweepReport except first_failure,
// which is ordered by shard index (not completion time) — the lowest-index
// failing shard wins regardless of which worker finishes first.
class SweepProgress {
 public:
  struct Snapshot {
    std::uint64_t shards_completed = 0;
    std::uint64_t shards_failed = 0;
    std::uint64_t steps_completed = 0;
    std::optional<ReplayToken> first_failure;  // lowest failing shard index
  };

  void RecordShard(const ShardResult& result) ATMO_EXCLUDES(mu_);
  Snapshot TakeSnapshot() const ATMO_EXCLUDES(mu_);

 private:
  mutable Mutex mu_;
  std::uint64_t shards_completed_ ATMO_GUARDED_BY(mu_) = 0;
  std::uint64_t shards_failed_ ATMO_GUARDED_BY(mu_) = 0;
  std::uint64_t steps_completed_ ATMO_GUARDED_BY(mu_) = 0;
  std::optional<ReplayToken> first_failure_ ATMO_GUARDED_BY(mu_);
};

struct SweepReport {
  std::vector<ShardResult> shards;  // indexed by shard, merge order fixed
  CoverageMatrix coverage;          // elementwise sum over shards
  CheckStats stats;                 // summed counters (max for max_dirty)
  std::uint64_t total_steps = 0;
  unsigned workers = 0;
  double wall_seconds = 0.0;
  double steps_per_sec = 0.0;
  // Lowest-shard-index failure, from SweepProgress; deterministic across
  // worker counts (equal to Failures().front() by construction).
  std::optional<ReplayToken> first_failure;

  bool AllOk() const;
  std::vector<ReplayToken> Failures() const;
  // True when the deterministic portion of two reports agrees: coverage,
  // verdicts, per-shard step counts and seeds. Wall-clock and ns counters
  // are excluded — they legitimately vary across runs and worker counts.
  bool SameOutcome(const SweepReport& other) const;
};

class SweepHarness {
 public:
  // Called before each generated step; lets tests break a kernel at a
  // chosen (shard, step) to prove the parallel harness catches it and the
  // replay token reproduces it.
  using FaultHook =
      std::function<void(TraceFixture* fixture, std::uint64_t shard, std::uint64_t step)>;

  struct Options {
    std::uint64_t master_seed = 1;
    std::uint64_t shards = 8;
    std::uint64_t steps_per_shard = 1000;
    unsigned workers = 1;
    // Trace-scale checker defaults: sampled total_wf, periodic audit, and a
    // preallocated chunk per shard arena so shards never grow chunks from
    // the global heap mid-trace (the percpu/prealloc idiom, DESIGN.md §14).
    RefinementChecker::Options checker{
        .check_wf_every = 16, .audit_every = 64, .incremental = true,
        .use_arena = true,
        .arena_reserve_bytes = SpecArena::kDefaultChunkBytes};
    FaultHook fault_hook;
    // Mix syscall-ring ops (setup/submit/enter) into the generated traces.
    // Off by default so the long-standing sweep goldens keep their exact
    // byte-for-byte traces; ring-aware sweeps opt in (see
    // tests/syscall_ring_test.cc and TraceGen::Options).
    bool ring_ops = false;
    // Mix zero-copy page-grant ops (borrow/move grant sends, kGrantReturn)
    // into the generated traces; same golden-stability opt-in as ring_ops.
    bool grant_ops = false;
    // Mix kObsQuery introspection calls (mixed-validity destination VAs)
    // into the generated traces; same golden-stability opt-in as ring_ops.
    bool obs_ops = false;
    // Optional external progress tracker: workers record each completed
    // shard into it, so another thread can poll TakeSnapshot() while the
    // sweep runs. Run() also maintains an internal one to derive
    // SweepReport::first_failure.
    SweepProgress* progress = nullptr;
    // Force flight-recorder tracing for every shard regardless of the
    // process-wide obs enable flag. Shard recorders always run the virtual
    // clock, so traces are bit-identical across worker counts.
    bool trace = false;
    std::size_t trace_capacity = 2048;  // per-shard ring capacity
    std::size_t forensics_tail = 64;    // events kept in a failure dump
  };

  explicit SweepHarness(Options options) : options_(std::move(options)) {}

  // Runs all shards across min(workers, shards) threads and merges the
  // per-shard results in shard order (merging is race-free by construction:
  // each worker writes only its claimed shard's slot, and the merge happens
  // after every worker joined).
  SweepReport Run() const;

  // Reruns one shard single-threaded with tracing forced on, so every
  // replayed failure comes back with a flight-recorder trace attached even
  // when the original sweep ran untraced.
  ShardResult Replay(const ReplayToken& token) const;

  static std::uint64_t ShardSeed(std::uint64_t master_seed, std::uint64_t shard);

  const Options& options() const { return options_; }

 private:
  ShardResult RunShard(std::uint64_t shard, bool force_trace) const;
  // When ATMO_OBS_DUMP_DIR is set, writes a forensics JSON for a failing
  // traced shard next to its replay token.
  void MaybeDumpForensics(const ShardResult& result) const;

  Options options_;
};

}  // namespace atmo

#endif  // ATMO_SRC_VERIF_SWEEP_HARNESS_H_
