// Per-syscall specifications (Listing 1: syscall_mmap_spec and friends).
//
// Each predicate relates the abstract state before (Ψ) and after (Ψ') one
// kernel step, the invoking thread, the syscall arguments and the return
// value. The refinement harness (src/verif) evaluates SyscallSpec after
// every Kernel::Exec and fails verification if it does not hold.
//
// SyscallSpec is the one place for the obligations every syscall shares,
// checked in this order:
//   1. blocking — `ret.error == kBlocked ==> MayBlock(op)` (the may_block
//      column of ATMO_SYSOPS); any other op fails with "<name> never
//      blocks";
//   2. failure atomicity — `ret.error ∉ {kOk, kBlocked} ==> Ψ' == Ψ`;
//   3. the op's frame profile — every component of Ψ outside
//      FrameProfileFor(op) (the frame column of ATMO_SYSOPS, see
//      src/spec/frame_profile.h) is unchanged;
//   4. the value of a successful return, for the value classes that need
//      no state (kZero, kPageCount, kRecordSize: the value column); any
//      other value fails with "<name> return value is outside its class";
//   5. the op's own effect, a file-local predicate in syscall_specs.cc that
//      states only what the profile cannot: the exact change inside the
//      profile's components, and the ones a particular path leaves alone.
// Output determinism — the return value is a function of (Ψ, t, call) — is
// checked separately by the noninterference harness, which replays.

#ifndef ATMO_SRC_SPEC_SYSCALL_SPECS_H_
#define ATMO_SRC_SPEC_SYSCALL_SPECS_H_

#include <string>

#include "src/core/syscall.h"
#include "src/spec/abstract_state.h"

namespace atmo {

struct SpecResult {
  bool ok = true;
  std::string detail;

  static SpecResult Fail(std::string d) { return SpecResult{false, std::move(d)}; }
};

// Scheduler dispatch: `t` is put on the CPU (Kernel::Dispatch).
SpecResult DispatchSpec(const AbstractKernel& pre, const AbstractKernel& post, ThrdPtr t);

// Checks one syscall transition. `pre` must be the abstract state
// immediately after Dispatch (t is current). An out-of-frame change fails
// with "frame profile violated: out-of-frame component changed: <name>".
SpecResult SyscallSpec(const AbstractKernel& pre, const AbstractKernel& post, ThrdPtr t,
                       const Syscall& call, const SyscallRet& ret);

}  // namespace atmo

#endif  // ATMO_SRC_SPEC_SYSCALL_SPECS_H_
