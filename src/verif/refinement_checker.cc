#include "src/verif/refinement_checker.h"

#include <chrono>
#include <string>

#include "src/obs/alloc_hook.h"
#include "src/obs/flight_recorder.h"
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
  // bound across a long full-rebuild run. dirty_ keeps its capacity, so a
  // drain under the high-water mark allocates nothing.
  const bool keep_writes = !total_wf_due_;
  kernel_->DrainDirty(&dirty_, keep_writes ? &wf_writes_ : nullptr);
  if (keep_writes && !dirty_.Empty()) {
    wf_written_.Append(dirty_);
    if (wf_written_.overflow || wf_writes_.overflow ||
        wf_written_.TotalEntries() + wf_writes_.Size() > DirtyLog::kCap) {
      total_wf_due_ = true;  // the write set is not exhaustive
    }
  }
  // Nodes written while patching Ψ land in the checker's arena (or the
  // heap when use_arena is off — ArenaScope(nullptr) is the heap).
  ArenaScope arena_scope(arena_);
  std::uint64_t t0 = NowNs();
  if (options_.incremental && cached_ && !dirty_.overflow) {
    std::uint64_t entries = dirty_.TotalEntries();
    stats_.dirty_entries += entries;
    if (entries > stats_.max_dirty_entries) {
      stats_.max_dirty_entries = entries;
    }
    ++stats_.delta_abstractions;
    ATMO_OBS_SPAN_ARG(obs::kCatCheck, "check.abstract_delta", "dirty_entries", entries);
    kernel_->AbstractDelta(&*cached_, dirty_);
  } else {
    ++stats_.full_abstractions;
    ATMO_OBS_SPAN(obs::kCatCheck, "check.abstract_full");
    cached_ = kernel_->Abstract();
  }
  stats_.abstraction_ns += NowNs() - t0;
}

void RefinementChecker::CheckWf(SysOp op) {
  const bool total = !options_.incremental || total_wf_due_;
  std::uint64_t t0 = NowNs();
  InvResult wf = [&] {
    ATMO_OBS_SPAN(obs::kCatCheck, "check.wf");
    // TotalWf builds transient spec views of every subsystem (O(state)
    // map/set temporaries, all dead by the time the InvResult returns), and
    // LocalWf smaller ones, so they belong in the arena too.
    ArenaScope arena_scope(arena_);
    if (total) {
      return kernel_->TotalWf();
    }
    wf_written_.Normalize();
    wf_writes_.KeepOldest();
    return kernel_->LocalWf(*wf_base_, wf_written_, wf_writes_, &local_wf_scratch_,
                            &stats_.local_wf_entries);
  }();
  stats_.wf_ns += NowNs() - t0;
  ++stats_.wf_checks;
  stats_.total_wf_runs += total ? 1 : 0;
  ATMO_CHECK(wf.ok, std::string("total_wf failed after ") + SysOpName(op) +
                        (total ? ": " : " (LocalWf): ") + wf.detail);
  // Wf holds now: the next check inducts from here. (Full-rebuild mode
  // keeps no base: each of its checks is a TotalWf.) LocalWf reads the
  // frames' base state from the allocator's records, not from Ψ, so the
  // base drops the frame components: the nodes the next steps replace in
  // them are not kept alive until the next check.
  if (options_.incremental) {
    wf_base_ = Snapshot();
    wf_base_->pages = {};
    wf_base_->free_pages_4k = {};
    wf_base_->free_pages_2m = {};
    wf_base_->free_pages_1g = {};
    wf_written_.Clear();
    wf_writes_.Clear();
    total_wf_due_ = false;
  }
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
    // averif-lint: allow(hot-path-alloc) — once per checker, at its first Step, so that the arena belongs to the stepping thread
    arena_ = std::make_shared<SpecArena>();
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
  // SyscallSpec checks failure atomicity, then the op's frame profile
  // (frame_profile.h), then the op's own effect.
  SpecResult spec = [&] {
    ATMO_OBS_SPAN(obs::kCatCheck, "check.spec");
    ArenaScope arena_scope(arena_);
    return SyscallSpec(mid, *cached_, t, call, ret);
  }();
  stats_.spec_ns += NowNs() - t0;
  ATMO_CHECK(spec.ok, std::string("syscall refinement failed (") + SysOpName(call.op) +
                          ", ret " + SysErrorName(ret.error) + "): " + spec.detail);

  ++stats_.steps;
  if (call.op == SysOp::kRingEnter && ret.ok()) {
    // One checked transition just covered ret.value inner syscalls — the
    // batch amortization this pair of counters quantifies.
    ++stats_.batch_drains;
    stats_.batched_entries += ret.value;
  }
  const bool audit =
      options_.incremental && options_.audit_every != 0 && stats_.steps % options_.audit_every == 0;
  // The first Wf check at or after an audit is a TotalWf.
  total_wf_due_ = total_wf_due_ || audit;
  if (options_.check_wf_every != 0 && stats_.steps % options_.check_wf_every == 0) {
    CheckWf(call.op);
  }
  if (audit) {
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
