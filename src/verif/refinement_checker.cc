#include "src/verif/refinement_checker.h"

#include <chrono>
#include <string>

#include "src/obs/alloc_hook.h"
#include "src/obs/flight_recorder.h"
#include "src/spec/frame_profile.h"
#include "src/vstd/check.h"
#include "src/vstd/thread_annotations.h"

namespace atmo {

namespace {

std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

void RefinementChecker::Capture() {
  // Drain in both modes: the logs are append-only and must not grow without
  // bound across a long full-rebuild run.
  DirtySet dirty = kernel_->DrainDirty();
  // Nodes written while patching Ψ land in the checker's arena (or the
  // heap when use_arena is off — ArenaScope(nullptr) is the heap).
  ArenaScope arena_scope(arena_);
  std::uint64_t t0 = NowNs();
  if (options_.incremental && cached_ && !dirty.overflow) {
    std::uint64_t entries = dirty.TotalEntries();
    stats_.dirty_entries += entries;
    if (entries > stats_.max_dirty_entries) {
      stats_.max_dirty_entries = entries;
    }
    ++stats_.delta_abstractions;
    ATMO_OBS_SPAN_ARG(obs::kCatCheck, "check.abstract_delta", "dirty_entries", entries);
    kernel_->AbstractDelta(&*cached_, dirty);
  } else {
    ++stats_.full_abstractions;
    ATMO_OBS_SPAN(obs::kCatCheck, "check.abstract_full");
    cached_ = kernel_->Abstract();
  }
  stats_.abstraction_ns += NowNs() - t0;
}

AbstractKernel RefinementChecker::Snapshot() const {
  // O(1) per tree: the copy shares every node with cached_, and the next
  // capture path-copies only what it changes. SpecSeq copies land in the
  // arena with the rest of the capture.
  ArenaScope arena_scope(arena_);
  return *cached_;
}

SyscallRet RefinementChecker::Step(ThrdPtr t, const Syscall& call)
    ATMO_HOT_PATH(hot-path-alloc) {
  if (options_.use_arena && arena_ == nullptr) {
    // Made on the stepping thread: a pool serves only its owner thread from
    // its free lists (src/vstd/arena.h).
    arena_ = std::make_shared<SpecArena>(options_.arena_reserve_bytes);
  }
  obs::AllocProbe heap_probe;
  // Flight-recorder span for the whole checked syscall; the trailing 'E'
  // event carries the error name (or closes bare on a check violation).
  obs::ObsSpan sys_span(obs::kCatSyscall, SysOpTraceLabel(call.op));
  Capture();
  AbstractKernel pre = Snapshot();
  kernel_->Dispatch(t);
  Capture();
  AbstractKernel mid = Snapshot();

  std::uint64_t t0 = NowNs();
  SpecResult dispatch = [&] {
    ATMO_OBS_SPAN(obs::kCatCheck, "check.spec");
    // Spec checks build transient expected-Ψ values (functional insert /
    // remove copies); those belong in the arena with the snapshots.
    ArenaScope arena_scope(arena_);
    return DispatchSpec(pre, mid, t);
  }();
  stats_.spec_ns += NowNs() - t0;
  ATMO_CHECK(dispatch.ok, "dispatch refinement failed: " + dispatch.detail);

  SyscallRet ret = kernel_->Exec(t, call);
  Capture();  // *cached_ is Ψ' from here on

  t0 = NowNs();
  SpecResult spec = [&] {
    ATMO_OBS_SPAN(obs::kCatCheck, "check.spec");
    ArenaScope arena_scope(arena_);
    return SyscallSpec(mid, *cached_, t, call, ret);
  }();
  // The declarative frame-condition table (frame_profile.h) is checked in
  // the same pass: components outside the op's profile must be untouched.
  std::string frame = [&] {
    ATMO_OBS_SPAN(obs::kCatCheck, "check.frame");
    ArenaScope arena_scope(arena_);
    return FrameProfileViolation(mid, *cached_, FrameProfileFor(call.op));
  }();
  stats_.spec_ns += NowNs() - t0;
  ATMO_CHECK(spec.ok, std::string("syscall refinement failed (") + SysOpName(call.op) +
                          ", ret " + SysErrorName(ret.error) + "): " + spec.detail);
  ATMO_CHECK(frame.empty(), std::string("frame profile violated (") + SysOpName(call.op) +
                                ", ret " + SysErrorName(ret.error) +
                                "): out-of-frame component changed: " + frame);

  ++stats_.steps;
  if (call.op == SysOp::kRingEnter && ret.ok()) {
    // One checked transition just covered ret.value inner syscalls — the
    // batch amortization this pair of counters quantifies.
    ++stats_.batch_drains;
    stats_.batched_entries += ret.value;
  }
  if (options_.check_wf_every != 0 && stats_.steps % options_.check_wf_every == 0) {
    t0 = NowNs();
    InvResult wf = [&] {
      ATMO_OBS_SPAN(obs::kCatCheck, "check.wf");
      // Invariant evaluation builds transient spec views of every
      // subsystem (O(state) map/set temporaries, all dead by the time the
      // InvResult returns) — the largest per-step allocation source after
      // the snapshots themselves, so it belongs in the arena too.
      ArenaScope arena_scope(arena_);
      return kernel_->TotalWf();
    }();
    stats_.wf_ns += NowNs() - t0;
    ++stats_.wf_checks;
    ATMO_CHECK(wf.ok, std::string("total_wf failed after ") + SysOpName(call.op) + ": " +
                          wf.detail);
  }
  if (options_.incremental && options_.audit_every != 0 &&
      stats_.steps % options_.audit_every == 0) {
    t0 = NowNs();
    // No drain here: anything mutated since the post-capture belongs to the
    // next step's delta. The audit demands that the cache equal Abstract()
    // of the state it describes, compared component by component against
    // concrete state; no second Ψ is built.
    const char* mismatch = [&] {
      ATMO_OBS_SPAN(obs::kCatCheck, "check.audit");
      // The O(objects) components' entry values are built to be compared.
      ArenaScope arena_scope(arena_);
      return kernel_->AbstractionMismatch(*cached_, &audit_marks_);
    }();
    stats_.audit_ns += NowNs() - t0;
    ++stats_.audit_passes;
    ATMO_CHECK(mismatch == nullptr,
               std::string("incremental-abstraction audit failed after ") + SysOpName(call.op) +
                   ": cached Ψ diverged from Abstract() in component " + mismatch);
  }
  stats_.heap_allocs += heap_probe.allocs();
  if (arena_ != nullptr) {
    stats_.arena_allocs = arena_->stats().allocs;
  }
  sys_span.SetResult("error", SysErrorName(ret.error));
  return ret;
}

}  // namespace atmo
