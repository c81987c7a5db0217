// Refinement checker — the executable analog of Verus's refinement theorem.
//
// Wraps a Kernel and re-proves, after every step, that the concrete
// transition refines the abstract specification:
//
//   1. capture Ψ  = Abstract(kernel)          (abstraction function)
//   2. run the concrete Dispatch / Exec
//   3. capture Ψ' = Abstract(kernel)
//   4. check DispatchSpec / SyscallSpec(Ψ, Ψ', t, call, ret) — failure
//      atomicity, the op's frame profile, then the op's own effect
//   5. establish total_wf(kernel)              (well-formedness theorem)
//
// Step 5 runs every `check_wf_every` steps and establishes Wf by induction
// (DESIGN.md §8): Wf held at the last passed check, whose Ψ the checker
// keeps as the base (an O(1) snapshot); every capture since drained the
// subsystems' write logs into the checker's write set; Kernel::LocalWf then
// checks only what was written and what it relates to. A Wf check runs the
// whole TotalWf() in four cases: the first check after construction, the
// first check after a write log overflowed, the first check at or after
// each audit, and every check in full-rebuild mode. So `audit_every` paces
// both defence-in-depth passes; with audit_every = 0 no check after the
// first (and after an overflow) is a TotalWf, and a write behind every log
// (a raw PTE store) is never found.
//
// Incremental mode (the default) maintains Ψ across steps: each capture
// patches the cached snapshot in place at exactly the entries the
// subsystems logged as dirty (Kernel::AbstractDelta), so the per-step cost
// is O(|dirty| · log n) instead of O(machine). Soundness of the dirty logs
// is defended in depth by a periodic audit: every `audit_every` steps the
// checker requires the incrementally maintained Ψ to equal Abstract(),
// decided by comparing each cached component with the concrete state in
// one ordered pass (Kernel::AbstractionMismatch), without rebuilding Ψ.
//
// A spec, invariant, or audit failure is routed through ATMO_CHECK — the
// same channel as permission violations — so tests can assert that
// deliberately broken kernels (or corrupted dirty sets) are caught.

#ifndef ATMO_SRC_VERIF_REFINEMENT_CHECKER_H_
#define ATMO_SRC_VERIF_REFINEMENT_CHECKER_H_

#include <cstdint>
#include <memory>
#include <optional>

#include "src/core/kernel.h"
#include "src/spec/syscall_specs.h"
#include "src/vstd/arena.h"

namespace atmo {

// Per-phase cost counters, maintained by every checker regardless of mode.
// All times are wall-clock nanoseconds from std::chrono::steady_clock.
struct CheckStats {
  std::uint64_t steps = 0;
  std::uint64_t abstraction_ns = 0;  // time in Abstract()/AbstractDelta()
  std::uint64_t spec_ns = 0;         // time in DispatchSpec/SyscallSpec (frame check included)
  std::uint64_t wf_ns = 0;           // time in Wf checks (TotalWf and LocalWf)
  std::uint64_t audit_ns = 0;        // time in full-Abstract audit passes
  std::uint64_t wf_checks = 0;       // number of Wf checks
  std::uint64_t total_wf_runs = 0;   // of them, those that ran TotalWf()
  // Entries LocalWf read: written frames and their neighbours, objects,
  // mappings diffed or re-checked. A deterministic work counter: it must
  // not grow with the machine (the frames sweep's gate).
  std::uint64_t local_wf_entries = 0;
  std::uint64_t audit_passes = 0;    // number of audits performed
  std::uint64_t full_abstractions = 0;   // full Abstract() captures
  std::uint64_t delta_abstractions = 0;  // AbstractDelta() captures
  std::uint64_t dirty_entries = 0;       // cumulative drained dirty entries
  std::uint64_t max_dirty_entries = 0;   // largest single drained dirty set
  std::uint64_t batch_drains = 0;        // successful kRingEnter transitions
  std::uint64_t batched_entries = 0;     // inner syscalls covered by them
  // Allocation telemetry (DESIGN.md §14). heap_allocs is the number of
  // ::operator new calls observed inside Step() — the numerator of the
  // allocations-per-checked-step number gated in CI. arena_allocs mirrors
  // the checker's SpecArena stats (0 when use_arena is off).
  std::uint64_t heap_allocs = 0;
  std::uint64_t arena_allocs = 0;
};

class RefinementChecker {
 public:
  struct Options {
    // Wf is established every N steps (specs are still checked on every
    // step). 1 = always, 0 = never.
    std::uint64_t check_wf_every = 1;
    // Every N steps, require the incrementally maintained Ψ to equal
    // Abstract(), and make the next Wf check a whole TotalWf (defence in
    // depth against a missing dirty mark or a write behind the logs). 0 =
    // never. Ignored in full-rebuild mode, where every Wf check is a
    // TotalWf.
    std::uint64_t audit_every = 16;
    // false: rebuild Ψ from scratch at every capture (the pre-optimization
    // behaviour, kept as the differential-testing oracle).
    bool incremental = true;
    // Route the cached Ψ's path copies and the spec-check temporaries
    // through a per-checker SpecArena, which recycles released nodes
    // through its free lists (DESIGN.md §14). false = global heap, kept as
    // the measurement baseline for the allocations-per-step gate.
    bool use_arena = true;
  };

  RefinementChecker(Kernel* kernel, const Options& options)
      : kernel_(kernel), options_(options) {}
  // Back-compatible constructor: incremental with default audit cadence.
  explicit RefinementChecker(Kernel* kernel, std::uint64_t check_wf_every = 1)
      : RefinementChecker(kernel, Options{.check_wf_every = check_wf_every}) {}

  // Runs one kernel step under full refinement checking.
  SyscallRet Step(ThrdPtr t, const Syscall& call);

  std::uint64_t steps_checked() const { return stats_.steps; }
  const CheckStats& stats() const { return stats_; }
  const Options& options() const { return options_; }
  // The cached Ψ (incremental mode, after at least one Step); tests use it
  // to cross-validate against a full Abstract().
  const AbstractKernel* cached() const { return cached_ ? &*cached_ : nullptr; }
  Kernel* kernel() { return kernel_; }

  // Arena introspection for tests and benches. Null when use_arena is off
  // or before the first Step.
  const SpecArena* arena() const { return arena_.get(); }

 private:
  // Drains the kernel's dirty logs and brings cached_ up to the current Ψ —
  // by patching it in place when incremental, by full rebuild otherwise —
  // and adds the drain to the Wf write set.
  void Capture();
  // Establishes Wf after a step (Step 5), by LocalWf or TotalWf.
  void CheckWf(SysOp op);
  // A copy of cached_ that later captures leave untouched.
  AbstractKernel Snapshot() const;

  Kernel* kernel_;
  Options options_;
  CheckStats stats_;
  std::optional<AbstractKernel> cached_;
  // Where every node the checker writes goes (null = heap). It is never
  // reset: nodes a step releases return to its free lists for the next.
  std::shared_ptr<SpecArena> arena_;
  // The audit's free-list scratch (Kernel::AbstractionMismatch).
  FrameBitmap audit_marks_;
  // Each capture's drained dirty set, refilled in place.
  DirtySet dirty_;
  // Wf by induction: the Ψ of the last passed Wf check, and everything
  // written since (the write set; both keep their capacity between checks).
  std::optional<AbstractKernel> wf_base_;
  DirtySet wf_written_;
  PageAllocator::Writes wf_writes_;
  LocalWfScratch local_wf_scratch_;
  // The next Wf check runs TotalWf: no base yet, a log overflowed, or an
  // audit ran. While it is set there is no write set to keep.
  bool total_wf_due_ = true;
};

}  // namespace atmo

#endif  // ATMO_SRC_VERIF_REFINEMENT_CHECKER_H_
