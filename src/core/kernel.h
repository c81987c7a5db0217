// The Atmosphere microkernel facade (§3).
//
// Owns every subsystem and exposes the system-call interface. All kernel
// entry runs under the (modelled) big lock: Step() is one atomic transition
// of the kernel state machine. Step is split into Dispatch (the scheduler
// puts the invoking thread on the CPU) and Exec (the call itself) so the
// refinement harness can check each phase against its own specification.
//
// Failure atomicity: every return other than kOk/kBlocked leaves the
// abstract state unchanged — syscalls pre-validate everything (including
// exact quota/node costs) or roll back.

#ifndef ATMO_SRC_CORE_KERNEL_H_
#define ATMO_SRC_CORE_KERNEL_H_

#include <memory>
#include <optional>
#include <string>

#include "src/core/syscall.h"
#include "src/core/syscall_ring.h"
#include "src/core/vm_manager.h"
#include "src/hw/mmu.h"
#include "src/hw/phys_mem.h"
#include "src/iommu/iommu_manager.h"
#include "src/pmem/page_allocator.h"
#include "src/proc/invariants.h"
#include "src/proc/process_manager.h"
#include "src/spec/abstract_state.h"
#include "src/vstd/dirty_set.h"

namespace atmo {

struct BootConfig {
  std::uint64_t frames = 16384;        // 64 MiB machine by default
  std::uint64_t reserved_frames = 16;  // kernel image / boot structures
};

// Kernel::LocalWf's working storage. Each check clears it and keeps its
// capacity, so a caller that keeps one (the refinement checker) makes no
// heap allocation for it once the vectors have grown to the checks' size.
struct LocalWfScratch {
  ObjectScope scope;              // the objects the check re-checks
  std::vector<CtnrPtr> charged;   // containers whose charged frames moved
  std::vector<PagePtr> frames;    // frames the memory-safety clauses re-check
  std::vector<std::uint64_t> free_run;  // PageAllocator::LocalWf's head run
};

class Kernel {
 public:
  static std::optional<Kernel> Boot(const BootConfig& config);

  Kernel(Kernel&&) noexcept = default;
  Kernel& operator=(Kernel&&) noexcept = default;

  // --- Syscall interface (the verified surface) ---
  // Puts `t` on the CPU: if another thread is current it is preempted to
  // the run-queue tail; `t` must be current already or runnable.
  void Dispatch(ThrdPtr t);
  // Executes `call` on behalf of the current thread (must be `t`).
  SyscallRet Exec(ThrdPtr t, const Syscall& call);
  // Dispatch + Exec.
  SyscallRet Step(ThrdPtr t, const Syscall& call);

  // --- Syscall rings (DESIGN.md §13) ---
  // Drains up to `call.ring_budget` entries (0 = no limit) from a ring's SQ
  // and executes them back-to-back; the kRingEnter case of Exec lands here.
  // One call is ONE checked transition covering the whole batch — that is
  // the amortization. On a kRingDrainAtomic ring, any failing entry rolls
  // the entire batch back (Ψ' == Ψ, SQ retained) and returns kWouldFault.
  SyscallRet ExecBatch(ThrdPtr t, const Syscall& call);
  // Shared-memory submission fast path: the same validation and SQ push as
  // SysOp::kRingSubmit without a syscall transition, modelling user space
  // writing an SQE into the mapped SQ (io_uring's submission model). The
  // mutation lands in the ring dirty log and is absorbed at the checker's
  // next capture, like any other external mutation (e.g. TakeInbound).
  SyscallRet RingPushDirect(ThrdPtr t, const Syscall& submit);
  // Pops up to `max` completions (modelling user space reading the mapped
  // CQ). Returns the number written to `out`; 0 on a foreign/unknown ring.
  std::size_t RingReap(ThrdPtr t, std::uint64_t ring_id, RingCqEntry* out, std::size_t max);

  // Message delivered to a blocked-then-woken thread, readable on resume
  // (modelling the thread's registers/IPC buffer after the kernel returns).
  // Clears the inbound flag.
  std::optional<IpcPayload> TakeInbound(ThrdPtr t);
  bool HasInbound(ThrdPtr t) const;

  // --- Trusted boot environment (runs before user threads exist; §5
  // items 8-9 — the unverified init path) ---
  PmResult<CtnrPtr> BootCreateContainer(CtnrPtr parent, std::uint64_t quota,
                                        std::uint64_t cpu_mask);
  PmResult<ProcPtr> BootCreateProcess(CtnrPtr ctnr);
  PmResult<ThrdPtr> BootCreateThread(ProcPtr proc);

  // --- Subsystem access (read paths for invariants/spec; the harness and
  // devices use these, user code goes through syscalls) ---
  const PhysMem& mem() const { return *mem_; }
  PhysMem& mem_mut() { return *mem_; }
  const PageAllocator& alloc() const { return alloc_; }
  const ProcessManager& pm() const { return pm_; }
  const VmManager& vm() const { return vm_; }
  const IommuManager& iommu() const { return iommu_; }
  IommuManager& iommu_mut() { return iommu_; }
  const SyscallRingTable& rings() const { return rings_; }
  const Mmu& mmu() const { return mmu_; }
  CtnrPtr root_container() const { return pm_.root_container(); }
  // Mutable access for the verification harness and failure-injection
  // tests; user code must go through syscalls.
  ProcessManager& pm_mut() { return pm_; }
  PageAllocator& alloc_mut() { return alloc_; }
  VmManager& vm_mut() { return vm_; }
  SyscallRingTable& rings_mut() { return rings_; }

  // --- Verification surface ---
  // Abstraction function: concrete state -> Ψ.
  AbstractKernel Abstract() const;
  // The refinement audit: decides psi == Abstract() without building Ψ, by
  // comparing each component of psi with the source Abstract() builds it
  // from: a map with its ascending stream (one ordered pass over both), a
  // free set with its marked free list (word by word). Returns the name of
  // the first component that differs, or nullptr when they are equal.
  // `marks` is scratch, kept by the caller so repeated audits do not
  // allocate.
  const char* AbstractionMismatch(const AbstractKernel& psi, FrameBitmap* marks) const;
  // Drains every subsystem's mutation log into `out` (cleared first, its
  // capacity kept): the set of objects whose abstract view may differ from
  // the last drained snapshot. The allocator's write records (the frame
  // metadata, counters and list heads as they were before their first write
  // since the last drain) are appended to `writes` unless it is null.
  void DrainDirty(DirtySet* out, PageAllocator::Writes* writes = nullptr);
  // Incremental abstraction: patches `psi` (a faithful Ψ of the concrete
  // state as of the previous drain) in place at exactly the dirty entries,
  // making it Abstract() in O(|dirty| · log n) instead of O(machine). Falls
  // back to a full Abstract() when the dirty log overflowed.
  void AbstractDelta(AbstractKernel* psi, const DirtySet& dirty) const;
  // total_wf(): conjunction of every subsystem invariant plus the global
  // memory-safety and leak-freedom arguments (§4.2).
  InvResult TotalWf() const;
  // total_wf() by induction (DESIGN.md §8). Given that TotalWf() held in
  // the state `base` abstracts (its frame components — `pages` and the
  // free sets — are not read: `writes` holds the frames' base state), and
  // that `written` (sorted, deduplicated)
  // and `writes` (KeepOldest applied) hold everything written since, decides
  // TotalWf() now from what was written and what it relates to: no clause
  // reads every frame, free-list node or mapping. Adds the entries it reads
  // (written frames and their neighbours, objects, mappings) to `*entries`.
  // Writes behind every log (raw PTE stores, test peers) are TotalWf's and
  // the audit's to find.
  // `scratch` is working storage the caller keeps between checks, so that
  // a check allocates nothing on the heap once its vectors are warm.
  InvResult LocalWf(const AbstractKernel& base, const DirtySet& written,
                    const PageAllocator::Writes& writes, LocalWfScratch* scratch,
                    std::uint64_t* entries) const;
  // Global memory argument alone: subsystem page closures are pairwise
  // disjoint and their union is exactly the allocator's allocated set;
  // mapped frames are exactly the VM subsystem's held frames.
  InvResult MemorySafetyWf() const;

  // Deep copy of the whole kernel, memory image included, with empty dirty
  // logs: the kRingDrainAtomic snapshot (ExecBatch), the noninterference
  // harness and tests.
  Kernel CloneForVerification() const;

 private:
  Kernel() = default;

  // Syscall implementations.
  SyscallRet SysYield();
  SyscallRet SysMmap(ThrdPtr t, const Syscall& call);
  SyscallRet SysMunmap(ThrdPtr t, const Syscall& call);
  SyscallRet SysNewContainer(ThrdPtr t, const Syscall& call);
  SyscallRet SysNewProcess(ThrdPtr t);
  SyscallRet SysNewThread(ThrdPtr t, const Syscall& call);
  SyscallRet SysNewEndpoint(ThrdPtr t, const Syscall& call);
  SyscallRet SysUnbindEndpoint(ThrdPtr t, const Syscall& call);
  SyscallRet SysSend(ThrdPtr t, const Syscall& call);
  SyscallRet SysRecv(ThrdPtr t, const Syscall& call);
  SyscallRet SysCall(ThrdPtr t, const Syscall& call);
  SyscallRet SysReply(ThrdPtr t, const Syscall& call);
  SyscallRet SysExit(ThrdPtr t);
  SyscallRet SysKillProcess(ThrdPtr t, const Syscall& call);
  SyscallRet SysKillContainer(ThrdPtr t, const Syscall& call);
  SyscallRet SysIommuCreateDomain(ThrdPtr t);
  SyscallRet SysIommuAttachDevice(ThrdPtr t, const Syscall& call);
  SyscallRet SysIommuDetachDevice(ThrdPtr t, const Syscall& call);
  SyscallRet SysIommuMapDma(ThrdPtr t, const Syscall& call);
  SyscallRet SysIommuUnmapDma(ThrdPtr t, const Syscall& call);
  SyscallRet SysRingSetup(ThrdPtr t, const Syscall& call);
  SyscallRet SysRingSubmit(ThrdPtr t, const Syscall& call);
  SyscallRet SysGrantReturn(ThrdPtr t, const Syscall& call);
  SyscallRet SysObsQuery(ThrdPtr t, const Syscall& call);
  // Shared body of kSend (is_call = false) and kCall (is_call = true):
  // resolve the outbound payload, then deliver to a waiting receiver or
  // stage-and-block on the endpoint.
  SyscallRet SendPath(ThrdPtr t, const Syscall& call, bool is_call);

  // Resolves sender-side grant references in `*payload` IN PLACE into
  // physical object pointers; validates authority (including the exclusive-
  // mapping discipline for kMove/kBorrow grants). Returns false + error on
  // failure (callers drop the partially-resolved payload). In place so the
  // send paths stage exactly one payload copy per delivery instead of
  // copying through an optional return (DESIGN.md §14).
  bool ResolveOutboundPayload(ThrdPtr sender, IpcPayload* payload, SysError* error);
  // Checks a resolved payload can be applied to `receiver` (dest slots
  // free, quota available) without mutating anything. `sender` is
  // re-validated for kMove/kBorrow grants — a staged sender may have lost
  // its exclusive mapping while blocked.
  bool CanDeliver(const IpcPayload& payload, ThrdPtr sender, ThrdPtr receiver,
                  SysError* error) const;
  // Applies a resolved payload to `receiver`: maps page grants (unmapping
  // or downgrading the sender's side for kMove/kBorrow in the same
  // transition), installs caps, moves domain ownership, fills the inbound
  // buffer. Must follow a successful CanDeliver.
  void Deliver(const IpcPayload& payload, ThrdPtr sender, ThrdPtr receiver);
  // Shared tail of the send-shaped paths (SysSend/SysCall/SysReply) and
  // SysRecv: delivery of an already-resolved payload to a known receiver.
  bool DeliverResolved(const IpcPayload& resolved, ThrdPtr sender, ThrdPtr receiver,
                       SysError* error);

  // Kill machinery.
  bool ProcIsAncestorOf(ProcPtr ancestor, ProcPtr descendant) const;
  void ClearReplyRefs(ThrdPtr gone);
  void KillProcessTree(ProcPtr root);
  void KillOneProcess(ProcPtr proc);

  std::unique_ptr<PhysMem> mem_;
  Mmu mmu_{nullptr};
  PageAllocator alloc_{1, 1};
  ProcessManager pm_;
  VmManager vm_{nullptr};
  IommuManager iommu_{nullptr};
  SyscallRingTable rings_;
};

}  // namespace atmo

#endif  // ATMO_SRC_CORE_KERNEL_H_
