// Per-syscall specifications (Listing 1: syscall_mmap_spec and friends).
//
// Each predicate relates the abstract state before (Ψ) and after (Ψ') one
// kernel step, the invoking thread, the syscall arguments and the return
// value. The refinement harness (src/verif) evaluates the matching
// predicate after every Kernel::Exec and fails verification if it does not
// hold.
//
// Two cross-cutting obligations hold for every syscall:
//   * failure atomicity — `ret.error ∉ {kOk, kBlocked} ==> Ψ' == Ψ`;
//   * output determinism — the return value is a function of (Ψ, t, call),
//     which the noninterference harness checks separately by replaying.

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

// Dispatches on call.op. `pre` must be the abstract state immediately after
// Dispatch (t is current).
SpecResult SyscallSpec(const AbstractKernel& pre, const AbstractKernel& post, ThrdPtr t,
                       const Syscall& call, const SyscallRet& ret);

// Individual specs (exposed for targeted tests and Fig 2 timing).
SpecResult YieldSpec(const AbstractKernel& pre, const AbstractKernel& post, ThrdPtr t,
                     const SyscallRet& ret);
SpecResult MmapSpec(const AbstractKernel& pre, const AbstractKernel& post, ThrdPtr t,
                    const Syscall& call, const SyscallRet& ret);
SpecResult MunmapSpec(const AbstractKernel& pre, const AbstractKernel& post, ThrdPtr t,
                      const Syscall& call, const SyscallRet& ret);
SpecResult NewContainerSpec(const AbstractKernel& pre, const AbstractKernel& post, ThrdPtr t,
                            const Syscall& call, const SyscallRet& ret);
SpecResult NewProcessSpec(const AbstractKernel& pre, const AbstractKernel& post, ThrdPtr t,
                          const SyscallRet& ret);
SpecResult NewThreadSpec(const AbstractKernel& pre, const AbstractKernel& post, ThrdPtr t,
                         const Syscall& call, const SyscallRet& ret);
SpecResult NewEndpointSpec(const AbstractKernel& pre, const AbstractKernel& post, ThrdPtr t,
                           const Syscall& call, const SyscallRet& ret);
SpecResult UnbindEndpointSpec(const AbstractKernel& pre, const AbstractKernel& post, ThrdPtr t,
                              const Syscall& call, const SyscallRet& ret);
SpecResult SendSpec(const AbstractKernel& pre, const AbstractKernel& post, ThrdPtr t,
                    const Syscall& call, const SyscallRet& ret);
SpecResult RecvSpec(const AbstractKernel& pre, const AbstractKernel& post, ThrdPtr t,
                    const Syscall& call, const SyscallRet& ret);
SpecResult CallSpec(const AbstractKernel& pre, const AbstractKernel& post, ThrdPtr t,
                    const Syscall& call, const SyscallRet& ret);
SpecResult ReplySpec(const AbstractKernel& pre, const AbstractKernel& post, ThrdPtr t,
                     const Syscall& call, const SyscallRet& ret);
SpecResult ExitSpec(const AbstractKernel& pre, const AbstractKernel& post, ThrdPtr t,
                    const SyscallRet& ret);
SpecResult KillProcessSpec(const AbstractKernel& pre, const AbstractKernel& post, ThrdPtr t,
                           const Syscall& call, const SyscallRet& ret);
SpecResult KillContainerSpec(const AbstractKernel& pre, const AbstractKernel& post, ThrdPtr t,
                             const Syscall& call, const SyscallRet& ret);
SpecResult IommuCreateDomainSpec(const AbstractKernel& pre, const AbstractKernel& post,
                                 ThrdPtr t, const SyscallRet& ret);
// kIommuAttachDevice (attach = true) and kIommuDetachDevice.
SpecResult IommuDeviceSpec(const AbstractKernel& pre, const AbstractKernel& post,
                           const Syscall& call, const SyscallRet& ret, bool attach);
SpecResult IommuMapDmaSpec(const AbstractKernel& pre, const AbstractKernel& post,
                           const Syscall& call, const SyscallRet& ret);
SpecResult IommuUnmapDmaSpec(const AbstractKernel& pre, const AbstractKernel& post,
                             const Syscall& call, const SyscallRet& ret);
SpecResult RingSetupSpec(const AbstractKernel& pre, const AbstractKernel& post, ThrdPtr t,
                         const Syscall& call, const SyscallRet& ret);
SpecResult RingSubmitSpec(const AbstractKernel& pre, const AbstractKernel& post, ThrdPtr t,
                          const Syscall& call, const SyscallRet& ret);
// One kRingEnter is ONE checked transition covering the whole drained batch.
// The spec pins the ring's own evolution exactly (drain count, SQ tail
// retained, CQ append order) and leaves the drained entries' effects on the
// rest of Ψ to the frame profile, TotalWf, the audit and the differential
// oracle (tests/ring_batch_differential_test.cc) — that division of labor is
// the batch amortization (DESIGN.md §13).
SpecResult RingEnterSpec(const AbstractKernel& pre, const AbstractKernel& post, ThrdPtr t,
                         const Syscall& call, const SyscallRet& ret);
// kGrantReturn: the inverse relabeling of a kBorrow page grant — the
// borrower's read-only view disappears, the lender's original rights are
// restored, and the page's borrow mark clears. A pure Ψ relabeling: no
// bytes move and nothing is released.
SpecResult GrantReturnSpec(const AbstractKernel& pre, const AbstractKernel& post, ThrdPtr t,
                           const Syscall& call, const SyscallRet& ret);

// kObsQuery: counter snapshot into a caller-mapped page. Ψ does not model
// page byte contents, so success requires Ψ' == Ψ exactly, plus a
// writable/user mapping based at the destination VA in the pre state.
SpecResult ObsQuerySpec(const AbstractKernel& pre, const AbstractKernel& post, ThrdPtr t,
                        const Syscall& call, const SyscallRet& ret);

}  // namespace atmo

#endif  // ATMO_SRC_SPEC_SYSCALL_SPECS_H_
