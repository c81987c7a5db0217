#include "src/core/kernel.h"

#include <algorithm>
#include <set>
#include <type_traits>
#include <vector>

#include "src/obs/flight_recorder.h"
#include "src/obs/sampler.h"
#include "src/pagetable/refinement.h"
#include "src/vstd/check.h"
#include "src/vstd/thread_annotations.h"

namespace atmo {

namespace {

SysError FromProcError(ProcError error) {
  switch (error) {
    case ProcError::kOk:
      return SysError::kOk;
    case ProcError::kNoMemory:
      return SysError::kNoMemory;
    case ProcError::kQuotaExceeded:
      return SysError::kQuotaExceeded;
    case ProcError::kCapacity:
      return SysError::kCapacity;
    case ProcError::kInvalid:
      return SysError::kInvalid;
  }
  return SysError::kInvalid;
}

SyscallRet Err(SysError error) { return SyscallRet{error, 0}; }
SyscallRet Ok(std::uint64_t value = 0) { return SyscallRet{SysError::kOk, value}; }

}  // namespace

// ---------------------------------------------------------------------------
// Boot
// ---------------------------------------------------------------------------

std::optional<Kernel> Kernel::Boot(const BootConfig& config) {
  Kernel k;
  k.mem_ = std::make_unique<PhysMem>(config.frames);
  k.mmu_ = Mmu(k.mem_.get());
  k.alloc_ = PageAllocator(config.frames, config.reserved_frames);
  k.vm_ = VmManager(k.mem_.get());
  k.iommu_ = IommuManager(k.mem_.get());

  std::uint64_t root_quota = config.frames - config.reserved_frames;
  std::optional<ProcessManager> pm = ProcessManager::Boot(&k.alloc_, root_quota);
  if (!pm.has_value()) {
    return std::nullopt;
  }
  k.pm_ = std::move(*pm);
  return k;
}

PmResult<CtnrPtr> Kernel::BootCreateContainer(CtnrPtr parent, std::uint64_t quota,
                                              std::uint64_t cpu_mask) {
  return pm_.NewContainer(&alloc_, parent, quota, cpu_mask);
}

PmResult<ProcPtr> Kernel::BootCreateProcess(CtnrPtr ctnr) {
  PmResult<ProcPtr> proc = pm_.NewProcess(&alloc_, ctnr, kNullPtr);
  if (!proc.ok()) {
    return proc;
  }
  if (!pm_.ChargePages(ctnr, 1)) {
    pm_.RemoveProcess(&alloc_, proc.value);
    return PmResult<ProcPtr>::Err(ProcError::kQuotaExceeded);
  }
  if (!vm_.CreateAddressSpace(&alloc_, proc.value, ctnr)) {
    pm_.UnchargePages(ctnr, 1);
    pm_.RemoveProcess(&alloc_, proc.value);
    return PmResult<ProcPtr>::Err(ProcError::kNoMemory);
  }
  return proc;
}

PmResult<ThrdPtr> Kernel::BootCreateThread(ProcPtr proc) {
  return pm_.NewThread(&alloc_, proc);
}

// ---------------------------------------------------------------------------
// Dispatch / Step
// ---------------------------------------------------------------------------

void Kernel::Dispatch(ThrdPtr t) {
  ATMO_CHECK(pm_.ThreadExists(t), "Dispatch of unknown thread");
  if (pm_.current() == t) {
    return;
  }
  ATMO_CHECK(pm_.GetThread(t).state == ThreadState::kRunnable,
             "Dispatch of a thread that is neither current nor runnable");
  if (pm_.current() != kNullPtr) {
    pm_.PreemptCurrent();
  }
  pm_.DispatchSpecific(t);
}

SyscallRet Kernel::Step(ThrdPtr t, const Syscall& call) {
  // Syscall enter/exit span: the span's RAII 'E' event fires even when a
  // proof obligation inside throws, so a forensic trace always brackets the
  // failing syscall. RefinementChecker::Step (which calls Dispatch/Exec
  // itself) records the equivalent span on the checked path.
  obs::ObsSpan span(obs::kCatSyscall, SysOpTraceLabel(call.op));
  Dispatch(t);
  SyscallRet ret = Exec(t, call);
  span.SetResult("error", SysErrorName(ret.error));
  return ret;
}

SyscallRet Kernel::Exec(ThrdPtr t, const Syscall& call) {
  ATMO_CHECK(pm_.current() == t, "Exec caller is not the current thread");
  switch (call.op) {
    case SysOp::kYield:
      return SysYield();
    case SysOp::kMmap:
      return SysMmap(t, call);
    case SysOp::kMunmap:
      return SysMunmap(t, call);
    case SysOp::kNewContainer:
      return SysNewContainer(t, call);
    case SysOp::kNewProcess:
      return SysNewProcess(t);
    case SysOp::kNewThread:
      return SysNewThread(t, call);
    case SysOp::kNewEndpoint:
      return SysNewEndpoint(t, call);
    case SysOp::kUnbindEndpoint:
      return SysUnbindEndpoint(t, call);
    case SysOp::kSend:
      return SysSend(t, call);
    case SysOp::kRecv:
      return SysRecv(t, call);
    case SysOp::kCall:
      return SysCall(t, call);
    case SysOp::kReply:
      return SysReply(t, call);
    case SysOp::kExit:
      return SysExit(t);
    case SysOp::kKillProcess:
      return SysKillProcess(t, call);
    case SysOp::kKillContainer:
      return SysKillContainer(t, call);
    case SysOp::kIommuCreateDomain:
      return SysIommuCreateDomain(t);
    case SysOp::kIommuAttachDevice:
      return SysIommuAttachDevice(t, call);
    case SysOp::kIommuDetachDevice:
      return SysIommuDetachDevice(t, call);
    case SysOp::kIommuMapDma:
      return SysIommuMapDma(t, call);
    case SysOp::kIommuUnmapDma:
      return SysIommuUnmapDma(t, call);
    case SysOp::kRingSetup:
      return SysRingSetup(t, call);
    case SysOp::kRingSubmit:
      return SysRingSubmit(t, call);
    case SysOp::kRingEnter:
      return ExecBatch(t, call);
    case SysOp::kGrantReturn:
      return SysGrantReturn(t, call);
    case SysOp::kObsQuery:
      return SysObsQuery(t, call);
  }
  return Err(SysError::kInvalid);
}

std::optional<IpcPayload> Kernel::TakeInbound(ThrdPtr t) {
  if (!pm_.ThreadExists(t)) {
    return std::nullopt;
  }
  Thread& thread = pm_.MutableThread(t);
  if (!thread.has_inbound) {
    return std::nullopt;
  }
  thread.has_inbound = false;
  return thread.ipc_buf;
}

bool Kernel::HasInbound(ThrdPtr t) const {
  return pm_.ThreadExists(t) && pm_.GetThread(t).has_inbound;
}

// ---------------------------------------------------------------------------
// Simple syscalls
// ---------------------------------------------------------------------------

SyscallRet Kernel::SysYield() {
  pm_.Yield();
  return Ok();
}

SyscallRet Kernel::SysMmap(ThrdPtr t, const Syscall& call) {
  const Thread& thread = pm_.GetThread(t);
  ProcPtr proc = thread.owning_proc;
  CtnrPtr ctnr = thread.owning_ctnr;
  const VaRange& range = call.va_range;

  if (range.count < 1 || range.count > kMaxMmapCount) {
    return Err(SysError::kInvalid);
  }
  const PageTable& table = vm_.TableOf(proc);
  for (std::uint64_t i = 0; i < range.count; ++i) {
    if (table.CanMap(range.At(i), range.size) != MapError::kOk) {
      return Err(SysError::kInvalid);
    }
  }

  // Exact cost: data frames plus fresh table nodes (deduplicated across the
  // batch), charged up front so the loop below cannot fail. Single-page
  // calls (the hot path) skip the dedup set entirely.
  std::uint64_t fresh_nodes = 0;
  if (range.count == 1) {
    fresh_nodes = table.FreshNodesFor(range.base, range.size, nullptr);
  } else {
    std::set<std::uint64_t> virtual_nodes;
    for (std::uint64_t i = 0; i < range.count; ++i) {
      fresh_nodes += table.FreshNodesFor(range.At(i), range.size, &virtual_nodes);
    }
  }
  std::uint64_t data_frames = range.count * PageFrames4K(range.size);
  if (!pm_.ChargePages(ctnr, data_frames + fresh_nodes)) {
    return Err(SysError::kQuotaExceeded);
  }

  std::vector<PageAlloc> pages;
  // averif-lint: allow(hot-path-alloc) — mmap staging vector is per-call scratch on a map-management op, not the ring fast path; freed on return and bounded by the dynamic AllocProbe gate
  pages.reserve(range.count);
  for (std::uint64_t i = 0; i < range.count; ++i) {
    std::optional<PageAlloc> page = alloc_.AllocPage(range.size, ctnr);
    if (!page.has_value()) {
      for (PageAlloc& rollback : pages) {
        alloc_.FreePage(rollback.ptr, std::move(rollback.perm));
      }
      pm_.UnchargePages(ctnr, data_frames + fresh_nodes);
      return Err(SysError::kNoMemory);
    }
    // averif-lint: allow(hot-path-alloc) — same per-call staging vector; reserve above sized it, push_back only fills
    pages.push_back(std::move(*page));
  }
  if (alloc_.FreeCount(PageSize::k4K) < fresh_nodes) {
    for (PageAlloc& rollback : pages) {
      alloc_.FreePage(rollback.ptr, std::move(rollback.perm));
    }
    pm_.UnchargePages(ctnr, data_frames + fresh_nodes);
    return Err(SysError::kNoMemory);
  }

  for (std::uint64_t i = 0; i < range.count; ++i) {
    vm_.MapFreshPage(&alloc_, proc, range.At(i), std::move(pages[i]), call.map_perm);
  }
  return Ok(range.count);
}

SyscallRet Kernel::SysMunmap(ThrdPtr t, const Syscall& call) {
  const Thread& thread = pm_.GetThread(t);
  ProcPtr proc = thread.owning_proc;
  const VaRange& range = call.va_range;

  if (range.count < 1 || range.count > kMaxMmapCount) {
    return Err(SysError::kInvalid);
  }
  const PageTable& table = vm_.TableOf(proc);
  for (std::uint64_t i = 0; i < range.count; ++i) {
    if (!table.MappingAt(range.At(i), range.size).has_value()) {
      return Err(SysError::kInvalid);
    }
  }

  for (std::uint64_t i = 0; i < range.count; ++i) {
    std::optional<VmManager::UnmapResult> result = vm_.Unmap(&alloc_, proc, range.At(i));
    ATMO_CHECK(result.has_value(), "pre-validated munmap failed");
    if (result->released) {
      pm_.UnchargePages(result->released_owner, result->released_frames);
    }
  }
  return Ok(range.count);
}

SyscallRet Kernel::SysNewContainer(ThrdPtr t, const Syscall& call) {
  CtnrPtr parent = pm_.GetThread(t).owning_ctnr;
  PmResult<CtnrPtr> result = pm_.NewContainer(&alloc_, parent, call.quota, call.cpu_mask);
  if (!result.ok()) {
    return Err(FromProcError(result.error));
  }
  return Ok(result.value);
}

SyscallRet Kernel::SysNewProcess(ThrdPtr t) {
  const Thread& thread = pm_.GetThread(t);
  PmResult<ProcPtr> proc = pm_.NewProcess(&alloc_, thread.owning_ctnr, thread.owning_proc);
  if (!proc.ok()) {
    return Err(FromProcError(proc.error));
  }
  CtnrPtr ctnr = thread.owning_ctnr;
  if (!pm_.ChargePages(ctnr, 1)) {
    pm_.RemoveProcess(&alloc_, proc.value);
    return Err(SysError::kQuotaExceeded);
  }
  if (!vm_.CreateAddressSpace(&alloc_, proc.value, ctnr)) {
    pm_.UnchargePages(ctnr, 1);
    pm_.RemoveProcess(&alloc_, proc.value);
    return Err(SysError::kNoMemory);
  }
  return Ok(proc.value);
}

SyscallRet Kernel::SysNewThread(ThrdPtr t, const Syscall& call) {
  const Thread& thread = pm_.GetThread(t);
  ProcPtr target = call.target == kNullPtr ? thread.owning_proc : call.target;
  if (!pm_.ProcessExists(target)) {
    return Err(SysError::kInvalid);
  }
  if (pm_.GetProcess(target).owning_container != thread.owning_ctnr) {
    return Err(SysError::kDenied);
  }
  PmResult<ThrdPtr> result = pm_.NewThread(&alloc_, target);
  if (!result.ok()) {
    return Err(FromProcError(result.error));
  }
  return Ok(result.value);
}

SyscallRet Kernel::SysNewEndpoint(ThrdPtr t, const Syscall& call) {
  PmResult<EdptPtr> result = pm_.NewEndpoint(&alloc_, t, call.edpt_idx);
  if (!result.ok()) {
    return Err(FromProcError(result.error));
  }
  return Ok(result.value);
}

SyscallRet Kernel::SysUnbindEndpoint(ThrdPtr t, const Syscall& call) {
  // Pre-validate so the failure path stays atomic: the slot must hold a
  // live endpoint, and if this is the endpoint's last reference its wait
  // queue must be empty (otherwise waiters would dangle — the caller must
  // drain or let peers exit first).
  const Thread& thread = pm_.GetThread(t);
  if (call.edpt_idx >= kMaxEdptDescriptors || thread.endpoints[call.edpt_idx] == kNullPtr) {
    return Err(SysError::kInvalid);
  }
  EdptPtr edpt = thread.endpoints[call.edpt_idx];
  const Endpoint& e = pm_.GetEndpoint(edpt);
  if (e.rf_count == 1 && !e.queue.empty()) {
    return Err(SysError::kInvalid);
  }
  ProcError err = pm_.UnbindEndpoint(&alloc_, t, call.edpt_idx);
  ATMO_CHECK(err == ProcError::kOk, "pre-validated unbind failed");
  return Ok();
}

// ---------------------------------------------------------------------------
// IPC
// ---------------------------------------------------------------------------

bool Kernel::ResolveOutboundPayload(ThrdPtr sender, IpcPayload* payload, SysError* error) {
  const Thread& thread = pm_.GetThread(sender);

  if (payload->page.has_value()) {
    VAddr va = payload->page->page;  // sender virtual address on input
    const PageTable& table = vm_.TableOf(thread.owning_proc);
    std::optional<MapEntry> entry = table.MappingAt(va, payload->page->size);
    if (!entry.has_value()) {
      *error = SysError::kInvalid;
      return false;
    }
    // Rights cannot be amplified through a grant.
    if ((payload->page->perm.writable && !entry->perm.writable) ||
        (!payload->page->perm.no_execute && entry->perm.no_execute)) {
      *error = SysError::kDenied;
      return false;
    }
    // A borrowed page is never grantable, in any mode: neither the lender
    // (downgraded) nor the borrower (holding a loan) may fan it out — a
    // live borrow has exactly its two recorded mappings.
    if (vm_.IsBorrowed(entry->addr)) {
      *error = SysError::kDenied;
      return false;
    }
    if (payload->page->mode != GrantMode::kShare) {
      // Move/borrow additionally require exclusive ownership of the frame:
      // a single CPU mapping (the sender's). This is what rejects
      // double-grants — after a borrow the count is 2 and the record is
      // live; after a move the sender no longer maps the page at all.
      if (alloc_.MapCount(entry->addr) != 1) {
        *error = SysError::kDenied;
        return false;
      }
      // A borrow lends a read-only view by construction.
      if (payload->page->mode == GrantMode::kBorrow && payload->page->perm.writable) {
        *error = SysError::kInvalid;
        return false;
      }
    }
    payload->page->src_va = va;         // sender side, needed again at Deliver
    payload->page->page = entry->addr;  // physical from here on
  }

  if (payload->endpoint.has_value()) {
    std::uint64_t src_idx = payload->endpoint->endpoint;  // descriptor index on input
    if (src_idx >= kMaxEdptDescriptors || thread.endpoints[src_idx] == kNullPtr ||
        payload->endpoint->dest_index >= kMaxEdptDescriptors) {
      *error = SysError::kInvalid;
      return false;
    }
    payload->endpoint->endpoint = thread.endpoints[src_idx];
  }

  if (payload->iommu.has_value()) {
    IommuDomainId domain = payload->iommu->domain_id;
    if (!iommu_.DomainExists(domain) || iommu_.DomainOwner(domain) != thread.owning_ctnr) {
      *error = SysError::kDenied;
      return false;
    }
  }

  *error = SysError::kOk;
  return true;
}

bool Kernel::CanDeliver(const IpcPayload& payload, ThrdPtr sender, ThrdPtr receiver,
                        SysError* error) const {
  const Thread& thread = pm_.GetThread(receiver);

  if (payload.page.has_value()) {
    const PageGrant& grant = *payload.page;
    // A staged grant can go stale while the sender is blocked: the frame may
    // have been freed (any mode) or its exclusivity lost (move/borrow). The
    // resolve-time checks are repeated here against the current state.
    if (alloc_.StateOf(grant.page) != PageState::kMapped || vm_.IsBorrowed(grant.page)) {
      *error = SysError::kWouldFault;
      return false;
    }
    if (grant.mode != GrantMode::kShare) {
      ProcPtr sproc = pm_.GetThread(sender).owning_proc;
      std::optional<MapEntry> src = vm_.Resolve(sproc, grant.src_va);
      if (!src.has_value() || src->addr != grant.page || src->size != grant.size ||
          alloc_.MapCount(grant.page) != 1) {
        *error = SysError::kWouldFault;
        return false;
      }
    }
    const PageTable& table = vm_.TableOf(thread.owning_proc);
    if (table.CanMap(grant.dest_va, grant.size) != MapError::kOk) {
      *error = SysError::kWouldFault;
      return false;
    }
    std::uint64_t nodes = table.FreshNodesFor(grant.dest_va, grant.size, nullptr);
    const Container& ctnr = pm_.GetContainer(thread.owning_ctnr);
    if (ctnr.mem_used + nodes > ctnr.mem_quota || alloc_.FreeCount(PageSize::k4K) < nodes) {
      *error = SysError::kWouldFault;
      return false;
    }
  }

  if (payload.endpoint.has_value()) {
    if (thread.endpoints[payload.endpoint->dest_index] != kNullPtr) {
      *error = SysError::kWouldFault;
      return false;
    }
  }

  if (payload.iommu.has_value()) {
    IommuDomainId domain = payload.iommu->domain_id;
    std::uint64_t pages = iommu_.DomainPageCount(domain);
    const Container& ctnr = pm_.GetContainer(thread.owning_ctnr);
    if (iommu_.DomainOwner(domain) != thread.owning_ctnr &&
        ctnr.mem_used + pages > ctnr.mem_quota) {
      *error = SysError::kWouldFault;
      return false;
    }
  }

  *error = SysError::kOk;
  return true;
}

void Kernel::Deliver(const IpcPayload& payload, ThrdPtr sender, ThrdPtr receiver) {
  Thread& rthread = pm_.MutableThread(receiver);
  CtnrPtr rctnr = rthread.owning_ctnr;
  ProcPtr rproc = rthread.owning_proc;

  if (payload.page.has_value()) {
    const PageGrant& grant = *payload.page;
    std::uint64_t nodes = vm_.TableOf(rproc).FreshNodesFor(grant.dest_va, grant.size, nullptr);
    bool charged = pm_.ChargePages(rctnr, nodes);
    ATMO_CHECK(charged, "pre-validated page grant charge failed");
    MapError err = vm_.MapSharedPage(&alloc_, rproc, grant.dest_va, grant.page, grant.size,
                                     grant.perm);
    ATMO_CHECK(err == MapError::kOk, "pre-validated page grant map failed");
    if (grant.mode == GrantMode::kMove) {
      // Zero-copy transfer: the sender's mapping disappears in the same
      // transition. The map count went 1 -> 2 at MapSharedPage, so this
      // unmap (2 -> 1) can never release the frame; ownership and charge
      // stay with the original container, exactly as for a share grant.
      ProcPtr sproc = pm_.GetThread(sender).owning_proc;
      std::optional<VmManager::UnmapResult> un = vm_.Unmap(&alloc_, sproc, grant.src_va);
      ATMO_CHECK(un.has_value() && !un->released, "pre-validated move grant unmap failed");
    } else if (grant.mode == GrantMode::kBorrow) {
      // Zero-copy loan: the sender keeps the page but is downgraded to
      // read-only until the borrower returns (kGrantReturn) or unmaps it.
      ProcPtr sproc = pm_.GetThread(sender).owning_proc;
      vm_.BeginBorrow(&alloc_, grant.page, sproc, grant.src_va, rproc, grant.dest_va,
                      grant.size);
    }
  }

  if (payload.endpoint.has_value()) {
    ProcError err = pm_.BindEndpoint(receiver, payload.endpoint->dest_index,
                                     payload.endpoint->endpoint);
    ATMO_CHECK(err == ProcError::kOk, "pre-validated endpoint grant failed");
  }

  if (payload.iommu.has_value()) {
    IommuDomainId domain = payload.iommu->domain_id;
    CtnrPtr old_owner = iommu_.DomainOwner(domain);
    if (old_owner != rctnr) {
      std::uint64_t pages = iommu_.DomainPageCount(domain);
      pm_.TransferCharge(old_owner, rctnr, pages);
      for (PagePtr page : iommu_.DomainPageClosure(domain)) {
        alloc_.SetOwner(page, rctnr);
      }
      iommu_.SetDomainOwner(domain, rctnr);
    }
  }

  Thread& r = pm_.MutableThread(receiver);
  r.ipc_buf = payload;
  r.has_inbound = true;
  if (payload.trace_id != 0) {
    ATMO_OBS_INSTANT_ARG(obs::kCatRequest, "stage.deliver", "trace_id", payload.trace_id);
  }
}

bool Kernel::DeliverResolved(const IpcPayload& resolved, ThrdPtr sender, ThrdPtr receiver,
                             SysError* error) {
  if (!CanDeliver(resolved, sender, receiver, error)) {
    return false;
  }
  Deliver(resolved, sender, receiver);
  return true;
}

// Shared body of kSend and kCall — they differ only in what happens after a
// successful delivery (return vs. park for the reply) and which blocked
// state a queued sender takes. kRecv and kReply reuse DeliverResolved.
SyscallRet Kernel::SendPath(ThrdPtr t, const Syscall& call, bool is_call) {
  const Thread& thread = pm_.GetThread(t);
  if (call.edpt_idx >= kMaxEdptDescriptors || thread.endpoints[call.edpt_idx] == kNullPtr) {
    return Err(SysError::kInvalid);
  }
  EdptPtr edpt = thread.endpoints[call.edpt_idx];

  SysError error;
  IpcPayload resolved = call.payload;  // the one staged copy per delivery
  if (!ResolveOutboundPayload(t, &resolved, &error)) {
    return Err(error);
  }

  const Endpoint& e = pm_.GetEndpoint(edpt);
  if (e.queue_kind == EdptQueueKind::kReceivers) {
    ThrdPtr receiver = e.queue.Front();
    if (!DeliverResolved(resolved, t, receiver, &error)) {
      return Err(error);
    }
    pm_.PopWaiter(edpt);
    if (is_call) {
      pm_.MutableThread(receiver).reply_to = t;
    }
    pm_.MakeRunnable(receiver);
    if (is_call) {
      pm_.BlockCurrentForReply();
      return Err(SysError::kBlocked);
    }
    return Ok();
  }

  if (e.queue.full()) {
    return Err(SysError::kCapacity);
  }
  pm_.MutableThread(t).ipc_buf = resolved;  // staged, resolved form
  pm_.BlockCurrentOn(edpt, is_call ? ThreadState::kBlockedCall : ThreadState::kBlockedSend);
  return Err(SysError::kBlocked);
}

SyscallRet Kernel::SysSend(ThrdPtr t, const Syscall& call) { return SendPath(t, call, false); }

SyscallRet Kernel::SysRecv(ThrdPtr t, const Syscall& call) {
  const Thread& thread = pm_.GetThread(t);
  if (call.edpt_idx >= kMaxEdptDescriptors || thread.endpoints[call.edpt_idx] == kNullPtr) {
    return Err(SysError::kInvalid);
  }
  EdptPtr edpt = thread.endpoints[call.edpt_idx];

  const Endpoint& e = pm_.GetEndpoint(edpt);
  if (e.queue_kind == EdptQueueKind::kSenders) {
    ThrdPtr sender = e.queue.Front();
    // Borrowed, not copied: sender != t (the queue holds blocked threads,
    // t is running) and Deliver never creates or erases threads, so the
    // reference stays valid through delivery.
    const IpcPayload& staged = pm_.GetThread(sender).ipc_buf;
    SysError error;
    if (!DeliverResolved(staged, sender, t, &error)) {
      return Err(error);
    }
    pm_.PopWaiter(edpt);
    if (pm_.GetThread(sender).state == ThreadState::kBlockedSend) {
      pm_.MakeRunnable(sender);
    } else {
      // The sender used call(): it stays parked awaiting our reply.
      ATMO_CHECK(pm_.GetThread(sender).state == ThreadState::kBlockedCall,
                 "sender queue held a non-sender");
      pm_.MutableThread(t).reply_to = sender;
    }
    return Ok();
  }

  if (e.queue.full()) {
    return Err(SysError::kCapacity);
  }
  pm_.BlockCurrentOn(edpt, ThreadState::kBlockedRecv);
  return Err(SysError::kBlocked);
}

SyscallRet Kernel::SysCall(ThrdPtr t, const Syscall& call) { return SendPath(t, call, true); }

SyscallRet Kernel::SysReply(ThrdPtr t, const Syscall& call) {
  ThrdPtr caller = pm_.GetThread(t).reply_to;
  if (caller == kNullPtr || !pm_.ThreadExists(caller)) {
    return Err(SysError::kInvalid);
  }
  const Thread& cthread = pm_.GetThread(caller);
  if (cthread.state != ThreadState::kBlockedCall || cthread.waiting_on != kNullPtr) {
    return Err(SysError::kInvalid);
  }

  SysError error;
  IpcPayload resolved = call.payload;  // the one staged copy per delivery
  if (!ResolveOutboundPayload(t, &resolved, &error)) {
    return Err(error);
  }
  if (!DeliverResolved(resolved, t, caller, &error)) {
    return Err(error);
  }
  pm_.MutableThread(t).reply_to = kNullPtr;
  pm_.MakeRunnable(caller);
  return Ok();
}

SyscallRet Kernel::SysGrantReturn(ThrdPtr t, const Syscall& call) {
  ProcPtr proc = pm_.GetThread(t).owning_proc;
  VAddr va = call.va_range.base;
  std::optional<MapEntry> entry = vm_.Resolve(proc, va);
  if (!entry.has_value()) {
    return Err(SysError::kInvalid);
  }
  const VmManager::BorrowRecord* rec = vm_.BorrowOf(entry->addr);
  if (rec == nullptr || rec->borrower != proc || rec->borrower_va != va) {
    return Err(SysError::kDenied);  // mapped, but not the borrower side of a loan
  }
  // The borrower-side unmap revokes the borrow: the record is dropped and
  // the lender's original rights are restored in the same transition. The
  // lender still maps the frame, so the unmap (2 -> 1) can never release
  // it and no ownership or charge moves.
  std::optional<VmManager::UnmapResult> un = vm_.Unmap(&alloc_, proc, va);
  ATMO_CHECK(un.has_value() && !un->released, "pre-validated grant return failed");
  return Ok();
}

SyscallRet Kernel::SysObsQuery(ThrdPtr t, const Syscall& call) {
  ProcPtr proc = pm_.GetThread(t).owning_proc;
  VAddr va = call.va_range.base;
  std::optional<MapEntry> entry = vm_.Resolve(proc, va);
  if (!entry.has_value() || (va & (PageBytes(entry->size) - 1)) != 0) {
    // Unmapped, or an interior address: the destination must be a mapping
    // base so the spec can name the touched slot in Ψ.
    return Err(SysError::kInvalid);
  }
  if (!entry->perm.writable || !entry->perm.user) {
    return Err(SysError::kDenied);
  }
  // Compose the snapshot on the stack — this runs inside ExecBatch's
  // hot-path-alloc closure, so no containers may be built here.
  ObsQueryRecord rec;
  rec.magic = kObsQueryMagic;
  rec.version = kObsQueryVersion;
  rec.mapped_pages = vm_.TableOf(proc).MappingCount();
  for (const auto& kv : vm_.borrows()) {
    if (kv.second.lender == proc) {
      ++rec.borrows_lent;
    }
    if (kv.second.borrower == proc) {
      ++rec.borrows_held;
    }
  }
  for (const auto& kv : rings_.rings()) {
    if (kv.second.owner_proc() == proc) {
      rec.ring_sq_depth += kv.second.SqSize();
      rec.ring_cq_depth += kv.second.CqSize();
    }
  }
  rec.dropped_samples = obs::SamplerDroppedCount();
  mem_->HwWriteBytes(entry->addr, &rec, sizeof(rec));
  return Ok(sizeof(rec));
}

// ---------------------------------------------------------------------------
// Exit / kill
// ---------------------------------------------------------------------------

void Kernel::ClearReplyRefs(ThrdPtr gone) {
  for (const auto& [t_ptr, perm] : pm_.thrd_perms()) {
    if (perm.value().reply_to == gone) {
      pm_.MutableThread(t_ptr).reply_to = kNullPtr;
    }
  }
}

SyscallRet Kernel::SysExit(ThrdPtr t) {
  ClearReplyRefs(t);
  pm_.RemoveThread(&alloc_, t);
  return Ok();
}

bool Kernel::ProcIsAncestorOf(ProcPtr ancestor, ProcPtr descendant) const {
  ProcPtr cur = pm_.GetProcess(descendant).parent;
  while (cur != kNullPtr) {
    if (cur == ancestor) {
      return true;
    }
    cur = pm_.GetProcess(cur).parent;
  }
  return false;
}

void Kernel::KillOneProcess(ProcPtr proc) {
  // Threads first (copy the list; removal mutates it).
  std::vector<ThrdPtr> threads;
  for (ThrdPtr thrd : pm_.GetProcess(proc).threads) {
    // averif-lint: allow(hot-path-alloc) — process teardown is a cold control-plane op
    threads.push_back(thrd);
  }
  for (ThrdPtr thrd : threads) {
    ClearReplyRefs(thrd);
    pm_.RemoveThread(&alloc_, thrd);
  }
  // Address space: release every mapping, free the table.
  CtnrPtr ctnr = pm_.GetProcess(proc).owning_container;
  VmManager::DestroyStats stats = vm_.DestroyAddressSpace(&alloc_, proc);
  for (const auto& [owner, frames] : stats.released_frames) {
    pm_.UnchargePages(owner, frames);
  }
  pm_.UnchargePages(ctnr, stats.table_nodes);
  pm_.RemoveProcess(&alloc_, proc);
}

void Kernel::KillProcessTree(ProcPtr root) {
  // Depth-first collection, then destroy leaves-first.
  std::vector<ProcPtr> order;
  std::vector<ProcPtr> stack{root};
  while (!stack.empty()) {
    ProcPtr cur = stack.back();
    stack.pop_back();
    // averif-lint: allow(hot-path-alloc) — process-tree kill is a cold control-plane op
    order.push_back(cur);
    for (ProcPtr child : pm_.GetProcess(cur).children) {
      // averif-lint: allow(hot-path-alloc) — process-tree kill is a cold control-plane op
      stack.push_back(child);
    }
  }
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    KillOneProcess(*it);
  }
}

SyscallRet Kernel::SysKillProcess(ThrdPtr t, const Syscall& call) {
  ProcPtr target = call.target;
  const Thread& thread = pm_.GetThread(t);
  if (!pm_.ProcessExists(target)) {
    return Err(SysError::kInvalid);
  }
  // Authority (§3): the parent process can terminate its direct and
  // indirect children within the same container.
  if (pm_.GetProcess(target).owning_container != thread.owning_ctnr ||
      !ProcIsAncestorOf(thread.owning_proc, target)) {
    return Err(SysError::kDenied);
  }
  KillProcessTree(target);
  return Ok();
}

SyscallRet Kernel::SysKillContainer(ThrdPtr t, const Syscall& call) {
  CtnrPtr target = call.target;
  const Thread& thread = pm_.GetThread(t);
  if (!pm_.ContainerExists(target)) {
    return Err(SysError::kInvalid);
  }
  // Authority (§3): parents can terminate direct and indirect children.
  if (!pm_.GetContainer(target).path.contains(thread.owning_ctnr)) {
    return Err(SysError::kDenied);
  }

  // Deepest-first over the doomed subtree so every container's parent is
  // still alive when its leftovers are harvested.
  std::vector<CtnrPtr> doomed;
  for (CtnrPtr c : pm_.SubtreeContainers(target)) {
    // averif-lint: allow(hot-path-alloc) — container kill is a cold control-plane op
    doomed.push_back(c);
  }
  std::sort(doomed.begin(), doomed.end(), [this](CtnrPtr a, CtnrPtr b) {
    return pm_.GetContainer(a).depth > pm_.GetContainer(b).depth;
  });

  for (CtnrPtr c : doomed) {
    // 1. Kill every process tree in this container.
    while (!pm_.GetContainer(c).owned_procs.empty()) {
      ProcPtr proc = pm_.GetContainer(c).owned_procs.Front();
      while (pm_.GetProcess(proc).parent != kNullPtr) {
        proc = pm_.GetProcess(proc).parent;
      }
      KillProcessTree(proc);
    }
    CtnrPtr parent = pm_.GetContainer(c).parent;

    // 2. Endpoints that outlive the container (references held outside the
    // doomed subtree) are re-attributed to the parent.
    std::vector<EdptPtr> surviving;
    for (const auto& [e_ptr, perm] : pm_.edpt_perms()) {
      if (perm.value().owning_ctnr == c) {
        // averif-lint: allow(hot-path-alloc) — container kill is a cold control-plane op
        surviving.push_back(e_ptr);
      }
    }
    for (EdptPtr e : surviving) {
      pm_.MutableEndpoint(e).owning_ctnr = parent;
      alloc_.SetOwner(e, parent);
      pm_.TransferCharge(c, parent, 1);
    }

    // 3. Shared pages still mapped elsewhere: ownership and charge move to
    // the parent (the paper's "resources passed outside the container are
    // not revoked").
    for (PagePtr page : alloc_.MappedPages()) {
      if (alloc_.OwnerOf(page) == c) {
        alloc_.SetOwner(page, parent);
        pm_.TransferCharge(c, parent, PageFrames4K(alloc_.SizeClassOf(page)));
      }
    }

    // 4. IOMMU domains: detach devices, transfer ownership to the parent.
    for (IommuDomainId domain : iommu_.DomainsOwnedBy(c)) {
      std::vector<DeviceId> devices;
      for (const auto& [device, dom] : iommu_.device_attachments()) {
        if (dom == domain) {
          // averif-lint: allow(hot-path-alloc) — container kill is a cold control-plane op
          devices.push_back(device);
        }
      }
      for (DeviceId device : devices) {
        iommu_.DetachDevice(device);
      }
      std::uint64_t pages = iommu_.DomainPageCount(domain);
      pm_.TransferCharge(c, parent, pages);
      for (PagePtr page : iommu_.DomainPageClosure(domain)) {
        alloc_.SetOwner(page, parent);
      }
      iommu_.SetDomainOwner(domain, parent);
    }

    // 5. The container object itself; remaining quota returns to parent.
    pm_.RemoveContainer(&alloc_, c);
  }
  return Ok();
}

// ---------------------------------------------------------------------------
// IOMMU syscalls
// ---------------------------------------------------------------------------

SyscallRet Kernel::SysIommuCreateDomain(ThrdPtr t) {
  CtnrPtr ctnr = pm_.GetThread(t).owning_ctnr;
  if (!pm_.ChargePages(ctnr, 1)) {
    return Err(SysError::kQuotaExceeded);
  }
  IommuDomainId domain = iommu_.CreateDomain(&alloc_, ctnr);
  if (domain == kNoIommuDomain) {
    pm_.UnchargePages(ctnr, 1);
    return Err(SysError::kNoMemory);
  }
  return Ok(domain);
}

SyscallRet Kernel::SysIommuAttachDevice(ThrdPtr t, const Syscall& call) {
  CtnrPtr ctnr = pm_.GetThread(t).owning_ctnr;
  if (!iommu_.DomainExists(call.iommu_domain) ||
      iommu_.DomainOwner(call.iommu_domain) != ctnr) {
    return Err(SysError::kDenied);
  }
  if (!iommu_.AttachDevice(call.iommu_domain, call.device)) {
    return Err(SysError::kInvalid);
  }
  return Ok();
}

SyscallRet Kernel::SysIommuDetachDevice(ThrdPtr t, const Syscall& call) {
  CtnrPtr ctnr = pm_.GetThread(t).owning_ctnr;
  IommuDomainId domain = iommu_.DomainOf(call.device);
  if (domain == kNoIommuDomain || iommu_.DomainOwner(domain) != ctnr) {
    return Err(SysError::kDenied);
  }
  iommu_.DetachDevice(call.device);
  return Ok();
}

SyscallRet Kernel::SysIommuMapDma(ThrdPtr t, const Syscall& call) {
  const Thread& thread = pm_.GetThread(t);
  CtnrPtr ctnr = thread.owning_ctnr;
  IommuDomainId domain = call.iommu_domain;
  if (!iommu_.DomainExists(domain) || iommu_.DomainOwner(domain) != ctnr) {
    return Err(SysError::kDenied);
  }
  // The DMA window exposes a page the caller itself has mapped.
  std::optional<MapEntry> entry = vm_.Resolve(thread.owning_proc, call.dma_va);
  if (!entry.has_value()) {
    return Err(SysError::kInvalid);
  }
  const PageTable& table = vm_.TableOf(thread.owning_proc);
  if (!table.MappingAt(call.dma_va, entry->size).has_value()) {
    return Err(SysError::kInvalid);  // must reference the mapping base
  }
  if (iommu_.CanMapDma(domain, call.iova, entry->size) != MapError::kOk) {
    return Err(SysError::kInvalid);
  }
  std::uint64_t nodes = iommu_.FreshNodesForDma(domain, call.iova, entry->size);
  if (!pm_.ChargePages(ctnr, nodes)) {
    return Err(SysError::kQuotaExceeded);
  }
  if (alloc_.FreeCount(PageSize::k4K) < nodes) {
    pm_.UnchargePages(ctnr, nodes);
    return Err(SysError::kNoMemory);
  }
  MapError err = iommu_.MapDma(&alloc_, domain, call.iova, entry->addr, entry->size,
                               MapEntryPerm{.writable = call.map_perm.writable &&
                                                        entry->perm.writable,
                                            .user = true,
                                            .no_execute = true});
  ATMO_CHECK(err == MapError::kOk, "pre-validated DMA map failed");
  // Pin the frame: device visibility counts as a mapping.
  alloc_.IncMapCount(entry->addr);
  return Ok();
}

SyscallRet Kernel::SysIommuUnmapDma(ThrdPtr t, const Syscall& call) {
  CtnrPtr ctnr = pm_.GetThread(t).owning_ctnr;
  IommuDomainId domain = call.iommu_domain;
  if (!iommu_.DomainExists(domain) || iommu_.DomainOwner(domain) != ctnr) {
    return Err(SysError::kDenied);
  }
  // Peek first for atomic failure. The domain was just checked to exist,
  // but guard the lookup anyway: dereferencing end() is UB.
  auto it = iommu_.domains().find(domain);
  if (it == iommu_.domains().end() || !it->second.Resolve(call.iova).has_value()) {
    return Err(SysError::kInvalid);
  }
  std::optional<MapEntry> entry = iommu_.UnmapDma(domain, call.iova);
  ATMO_CHECK(entry.has_value(), "pre-validated DMA unmap failed");
  // Unpin; if the device held the last reference, release the frame through
  // the VM subsystem's stored permission.
  if (alloc_.DecMapCount(entry->addr) == 0) {
    pm_.UnchargePages(alloc_.OwnerOf(entry->addr), PageFrames4K(entry->size));
    vm_.ReclaimDevicePinnedFrame(&alloc_, entry->addr);
  }
  return Ok();
}

// ---------------------------------------------------------------------------
// Syscall rings (DESIGN.md §13)
// ---------------------------------------------------------------------------

SyscallRet Kernel::SysRingSetup(ThrdPtr t, const Syscall& call) {
  if (!RingCapacityValid(call.ring_entries)) {
    return Err(SysError::kInvalid);
  }
  if (rings_.Count() >= SyscallRingTable::kCapacity) {
    return Err(SysError::kCapacity);
  }
  const Thread& thread = pm_.GetThread(t);
  std::uint64_t id =
      rings_.Setup(t, thread.owning_proc, thread.owning_ctnr, call.ring_entries, call.ring_flags);
  ATMO_CHECK(id != 0, "pre-validated ring setup failed");
  return Ok(id);
}

SyscallRet Kernel::SysRingSubmit(ThrdPtr t, const Syscall& call) {
  if (!rings_.Exists(call.ring_id)) {
    return Err(SysError::kInvalid);
  }
  const SyscallRing& ring = rings_.Get(call.ring_id);
  if (ring.owner() != t) {
    return Err(SysError::kDenied);
  }
  if (!RingSubmittable(call.ring_op)) {
    return Err(SysError::kInvalid);
  }
  if (ring.SqFull()) {
    return Err(SysError::kCapacity);
  }
  bool pushed = rings_.SqPush(call.ring_id, RingSqEntry{RingInnerCall(call), call.ring_user_data});
  ATMO_CHECK(pushed, "pre-validated ring submit failed");
  return Ok(ring.SqSize());
}

SyscallRet Kernel::RingPushDirect(ThrdPtr t, const Syscall& submit) {
  return SysRingSubmit(t, submit);
}

std::size_t Kernel::RingReap(ThrdPtr t, std::uint64_t ring_id, RingCqEntry* out, std::size_t max) {
  if (!rings_.Exists(ring_id) || rings_.Get(ring_id).owner() != t) {
    return 0;
  }
  std::size_t n = 0;
  while (n < max && rings_.CqPop(ring_id, &out[n])) {
    ++n;
  }
  return n;
}

SyscallRet Kernel::ExecBatch(ThrdPtr t, const Syscall& call)
    ATMO_HOT_PATH(hot-path-alloc) {
  ATMO_CHECK(pm_.current() == t, "ExecBatch caller is not the current thread");
  if (!rings_.Exists(call.ring_id)) {
    return Err(SysError::kInvalid);
  }
  {
    const SyscallRing& ring = rings_.Get(call.ring_id);
    if (ring.owner() != t) {
      return Err(SysError::kDenied);
    }
  }
  // Effective drain count: bounded by the SQ depth, the CQ's free space and
  // the caller's budget. An oversized batch is split — the remainder stays
  // queued for the next kRingEnter.
  std::uint64_t n;
  bool atomic;
  {
    const SyscallRing& ring = rings_.Get(call.ring_id);
    n = ring.SqSize();
    std::uint64_t cq_free = ring.capacity() - ring.CqSize();
    n = std::min(n, cq_free);
    if (call.ring_budget != 0) {
      n = std::min<std::uint64_t>(n, call.ring_budget);
    }
    atomic = ring.atomic();
  }
  // One drain-stage stamp per batch (not per entry): the ring amortizes the
  // kernel crossing, so the causal chain of every request whose syscall was
  // queued in this SQ shares this drain point.
  ATMO_OBS_INSTANT_ARG(obs::kCatRequest, "stage.ring_drain", "batch", n);
  // Batch-level failure atomicity (kRingDrainAtomic): snapshot the whole
  // kernel and restore it if any entry fails. The restored clone has fresh
  // (empty) dirty logs, which is exactly right under the checker's
  // drain-at-every-capture discipline: the batch's net mutation is zero
  // relative to the last drain. (Callers maintaining external delta
  // snapshots without the checker must treat a kWouldFault drain as a full
  // rebuild point — see DESIGN.md §13.)
  std::optional<Kernel> snapshot;
  if (atomic && n > 0) {
    snapshot = CloneForVerification();
  }
  for (std::uint64_t i = 0; i < n; ++i) {
    RingSqEntry entry;
    bool popped = rings_.SqPop(call.ring_id, &entry);
    ATMO_CHECK(popped, "ring SQ drained out from under the batch");
    SyscallRet ret = Exec(t, entry.call);
    ATMO_CHECK(ret.error != SysError::kBlocked, "submittable op blocked inside a batch");
    if (atomic && !ret.ok()) {
      *this = std::move(*snapshot);
      return Err(SysError::kWouldFault);
    }
    bool completed = rings_.CqPush(call.ring_id, RingCqEntry{entry.user_data, ret});
    ATMO_CHECK(completed, "ring CQ filled up inside a sized batch");
  }
  return Ok(n);
}

// ---------------------------------------------------------------------------
// Verification surface
// ---------------------------------------------------------------------------

namespace {

AbsContainer AbstractContainer(const Container& c) {
  AbsContainer ac;
  ac.parent = c.parent;
  ac.children = c.children.View();
  ac.depth = c.depth;
  ac.path = c.path;
  ac.subtree = c.subtree;
  ac.mem_quota = c.mem_quota;
  ac.mem_used = c.mem_used;
  ac.cpu_mask = c.cpu_mask;
  ac.procs = c.owned_procs.View();
  ac.threads = c.owned_threads;
  return ac;
}

AbsProcess AbstractProcess(const Process& p) {
  AbsProcess ap;
  ap.ctnr = p.owning_container;
  ap.parent = p.parent;
  ap.children = p.children.View();
  ap.threads = p.threads.View();
  return ap;
}

AbsThread AbstractThread(const Thread& t) {
  AbsThread at;
  at.proc = t.owning_proc;
  at.ctnr = t.owning_ctnr;
  at.state = t.state;
  at.endpoints = t.endpoints;
  at.ipc_buf = t.ipc_buf;
  at.has_inbound = t.has_inbound;
  at.waiting_on = t.waiting_on;
  at.reply_to = t.reply_to;
  return at;
}

AbsEndpoint AbstractEndpoint(const Endpoint& e) {
  AbsEndpoint ae;
  ae.queue = e.queue.View();
  ae.queue_kind = e.queue_kind;
  ae.rf_count = e.rf_count;
  ae.owner = e.owning_ctnr;
  return ae;
}

// Shared by Abstract() and AbstractDelta(): a page's abstract view includes
// the borrow relabeling (lender/borrower and the right to restore) so the
// spec can state kBorrow/kGrantReturn as pure ownership relabelings of Ψ.
AbsPageInfo AbstractPage(const PageAllocator& alloc, const VmManager& vm, PagePtr page,
                         PageState state) {
  AbsPageInfo info{state, alloc.SizeClassOf(page), alloc.OwnerOf(page),
                   state == PageState::kMapped ? alloc.MapCount(page) : 0};
  if (const VmManager::BorrowRecord* rec = vm.BorrowOf(page)) {
    info.borrowed = true;
    info.borrow = AbsPageBorrow{rec->lender, rec->lender_va, rec->lender_perm.writable,
                                rec->borrower, rec->borrower_va};
  }
  return info;
}

AbsIommuDomain AbstractIommuDomain(const IommuManager& iommu, IommuDomainId id,
                                   const PageTable& table) {
  AbsIommuDomain ad;
  ad.owner = iommu.DomainOwner(id);
  ad.mappings = table.AddressSpace();
  for (const auto& [device, dom] : iommu.device_attachments()) {
    if (dom == id) {
      ad.devices.add(device);
    }
  }
  return ad;
}

AbsSyscallRing AbstractRing(const SyscallRing& r) {
  AbsSyscallRing ar;
  ar.owner = r.owner();
  ar.owner_proc = r.owner_proc();
  ar.owner_ctnr = r.owner_ctnr();
  ar.capacity = r.capacity();
  ar.flags = r.flags();
  for (std::size_t i = 0; i < r.SqSize(); ++i) {
    ar.sq.append(r.SqAt(i));
  }
  for (std::size_t i = 0; i < r.CqSize(); ++i) {
    ar.cq.append(r.CqAt(i));
  }
  return ar;
}

SpecSeq<ThrdPtr> RunQueueView(const ProcessManager& pm) {
  SpecSeq<ThrdPtr> out;
  for (ThrdPtr t : pm.run_queue()) {
    out.append(t);
  }
  return out;
}

// Writes `v` into `m[k]` only when it differs; a skipped write leaves the
// map sharing its nodes with earlier snapshots, so later comparisons skip
// it (the delta-abstraction equality fast path depends on untouched maps
// staying shared).
template <typename K, typename V>
void SetIfChanged(SpecMap<K, V>* m, const K& k, const V& v) {
  if (m->contains(k) && m->at(k) == v) {
    return;
  }
  m->set(k, v);
}

// The abstraction function, one collection component of Ψ at a time: calls
// component(name, &AbstractKernel::field, source) in declaration order, and
// stops at the first false. For a SpecMap component `source` streams its
// entries from concrete state in ascending key order
// (src/vstd/persistent_tree.h); for a free set (a FrameSet) it is the
// size class's free list marked into `marks`
// (PageAllocator::MarkFreeList). Abstract() builds each component from its
// source; the audit compares each cached component with it.
template <typename Component>
bool ForEachComponent(const Kernel& k, FrameBitmap* marks, Component component) {
  const ProcessManager& pm = k.pm();
  const PageAllocator& alloc = k.alloc();
  const VmManager& vm = k.vm();
  auto objects = [](const auto& perms, auto abstract) {
    return [perms = &perms, abstract](auto emit) {
      for (const auto& [ptr, perm] : *perms) {
        if (!emit(ptr, abstract(perm.value()))) {
          return false;
        }
      }
      return true;
    };
  };
  auto free_pages = [&alloc, marks](PageSize size) -> const FrameBitmap& {
    alloc.MarkFreeList(size, marks);
    return *marks;
  };
  return component("containers", &AbstractKernel::containers,
                   objects(pm.cntr_perms(), AbstractContainer)) &&
         component("procs", &AbstractKernel::procs, objects(pm.proc_perms(), AbstractProcess)) &&
         component("threads", &AbstractKernel::threads,
                   objects(pm.thrd_perms(), AbstractThread)) &&
         component("endpoints", &AbstractKernel::endpoints,
                   objects(pm.edpt_perms(), AbstractEndpoint)) &&
         component("address_spaces", &AbstractKernel::address_spaces,
                   [&](auto emit) {
                     for (const auto& [proc, perm] : pm.proc_perms()) {
                       if (vm.HasAddressSpace(proc) && !emit(proc, vm.AddressSpaceOf(proc))) {
                         return false;
                       }
                     }
                     return true;
                   }) &&
         component("pages", &AbstractKernel::pages,
                   [&](auto emit) {
                     return alloc.ForEachInUsePage([&](PagePtr page, PageState state) {
                       return emit(page, AbstractPage(alloc, vm, page, state));
                     });
                   }) &&
         component("free_pages_4k", &AbstractKernel::free_pages_4k, free_pages(PageSize::k4K)) &&
         component("free_pages_2m", &AbstractKernel::free_pages_2m, free_pages(PageSize::k2M)) &&
         component("free_pages_1g", &AbstractKernel::free_pages_1g, free_pages(PageSize::k1G)) &&
         component("iommu_domains", &AbstractKernel::iommu_domains,
                   [&](auto emit) {
                     for (const auto& [id, table] : k.iommu().domains()) {
                       if (!emit(id, AbstractIommuDomain(k.iommu(), id, table))) {
                         return false;
                       }
                     }
                     return true;
                   }) &&
         component("rings", &AbstractKernel::rings, [&](auto emit) {
           for (const auto& [id, ring] : k.rings().rings()) {
             if (!emit(id, AbstractRing(ring))) {
               return false;
             }
           }
           return true;
         });
}

}  // namespace

AbstractKernel Kernel::Abstract() const {
  AbstractKernel a;
  a.root_container = pm_.root_container();
  FrameBitmap marks;
  ForEachComponent(*this, &marks, [&a](const char*, auto field, const auto& source) {
    using Collection = std::remove_reference_t<decltype(a.*field)>;
    if constexpr (std::is_same_v<Collection, FrameSet>) {
      a.*field = FrameSet::FromBitmap(source);
    } else {
      a.*field = Collection::FromSorted(source);
    }
    return true;
  });
  a.run_queue = RunQueueView(pm_);
  a.current = pm_.current();
  return a;
}

const char* Kernel::AbstractionMismatch(const AbstractKernel& psi, FrameBitmap* marks) const {
  if (psi.root_container != pm_.root_container()) {
    return "root_container";
  }
  const char* mismatch = nullptr;
  ForEachComponent(*this, marks, [&](const char* name, auto field, const auto& source) {
    bool equal;
    if constexpr (std::is_same_v<std::remove_cvref_t<decltype(psi.*field)>, FrameSet>) {
      equal = (psi.*field).EqualsBitmap(source);
    } else {
      equal = (psi.*field).EqualsSorted(source);
    }
    if (!equal) {
      mismatch = name;
    }
    return equal;
  });
  if (mismatch != nullptr) {
    return mismatch;
  }
  if (!(psi.run_queue == RunQueueView(pm_))) {
    return "run_queue";
  }
  if (psi.current != pm_.current()) {
    return "current";
  }
  return nullptr;
}

void Kernel::DrainDirty(DirtySet* out, PageAllocator::Writes* writes) {
  out->Clear();
  pm_.DrainDirty(out);
  alloc_.DrainWrites(&out->pages, &out->overflow, writes);
  vm_.DrainDirtyInto(&out->spaces, &out->overflow);
  iommu_.DrainDirtyInto(&out->iommu_domains, &out->overflow);
  rings_.DrainDirtyInto(&out->rings, &out->overflow);
}

void Kernel::AbstractDelta(AbstractKernel* psi, const DirtySet& dirty) const {
  if (dirty.overflow) {
    *psi = Abstract();  // log overflowed: the dirty set is not exhaustive
    return;
  }
  AbstractKernel& a = *psi;

  for (CtnrPtr c : dirty.ctnrs) {
    if (pm_.ContainerExists(c)) {
      SetIfChanged(&a.containers, c, AbstractContainer(pm_.GetContainer(c)));
    } else {
      a.containers.erase(c);
    }
  }

  for (ProcPtr p : dirty.procs) {
    if (pm_.ProcessExists(p)) {
      SetIfChanged(&a.procs, p, AbstractProcess(pm_.GetProcess(p)));
    } else {
      a.procs.erase(p);
      a.address_spaces.erase(p);
    }
  }

  for (ThrdPtr t : dirty.thrds) {
    if (pm_.ThreadExists(t)) {
      SetIfChanged(&a.threads, t, AbstractThread(pm_.GetThread(t)));
    } else {
      a.threads.erase(t);
    }
  }

  for (EdptPtr e : dirty.edpts) {
    if (pm_.EndpointExists(e)) {
      SetIfChanged(&a.endpoints, e, AbstractEndpoint(pm_.GetEndpoint(e)));
    } else {
      a.endpoints.erase(e);
    }
  }

  for (ProcPtr p : dirty.spaces) {
    if (vm_.HasAddressSpace(p)) {
      SetIfChanged(&a.address_spaces, p, vm_.AddressSpaceOf(p));
    } else {
      a.address_spaces.erase(p);
    }
  }

  for (PagePtr page : dirty.pages) {
    switch (alloc_.StateOf(page)) {
      case PageState::kAllocated:
        SetIfChanged(&a.pages, page, AbstractPage(alloc_, vm_, page, PageState::kAllocated));
        a.free_pages_4k.erase(page);
        a.free_pages_2m.erase(page);
        a.free_pages_1g.erase(page);
        break;
      case PageState::kMapped:
        SetIfChanged(&a.pages, page, AbstractPage(alloc_, vm_, page, PageState::kMapped));
        a.free_pages_4k.erase(page);
        a.free_pages_2m.erase(page);
        a.free_pages_1g.erase(page);
        break;
      case PageState::kFree: {
        a.pages.erase(page);
        PageSize size = alloc_.SizeClassOf(page);
        (size == PageSize::k4K ? a.free_pages_4k
         : size == PageSize::k2M ? a.free_pages_2m
                                 : a.free_pages_1g)
            .add(page);
        if (size != PageSize::k4K) a.free_pages_4k.erase(page);
        if (size != PageSize::k2M) a.free_pages_2m.erase(page);
        if (size != PageSize::k1G) a.free_pages_1g.erase(page);
        break;
      }
      case PageState::kMerged:
      case PageState::kUnavailable:
        // Tail of a superpage (or reserved): no standalone abstract entry.
        a.pages.erase(page);
        a.free_pages_4k.erase(page);
        a.free_pages_2m.erase(page);
        a.free_pages_1g.erase(page);
        break;
    }
  }

  for (IommuDomainId id : dirty.iommu_domains) {
    auto it = iommu_.domains().find(id);
    if (it != iommu_.domains().end()) {
      SetIfChanged(&a.iommu_domains, id, AbstractIommuDomain(iommu_, id, it->second));
    } else {
      a.iommu_domains.erase(id);
    }
  }

  for (std::uint64_t id : dirty.rings) {
    if (rings_.Exists(id)) {
      SetIfChanged(&a.rings, id, AbstractRing(rings_.Get(id)));
    } else {
      a.rings.erase(id);
    }
  }

  if (dirty.scheduler) {
    SpecSeq<ThrdPtr> rq = RunQueueView(pm_);
    if (!(rq == a.run_queue)) {
      a.run_queue = rq;
    }
    a.current = pm_.current();
  }
}

namespace {

// MemorySafetyWf's obligations. The subsystems' page closures and the
// CPU + IOMMU mapping tally are built up front; the allocator's side of
// each obligation arrives through Visit(), once per in-use page in frame
// order, from a pass TotalWf shares with QuotaTally. Verdict() reports the
// first failed obligation in the order they are stated.
class MemorySafetyObligations {
 public:
  explicit MemorySafetyObligations(const Kernel& k) : k_(k) {
    SpecSet<PagePtr> pm_closure = k.pm().PageClosure();
    SpecSet<PagePtr> vm_closure = k.vm().PageClosure();
    SpecSet<PagePtr> io_closure = k.iommu().PageClosure();
    // Pairwise disjointness (type safety: one owner per page).
    disjoint_ = pm_closure.IsDisjointFrom(vm_closure) && pm_closure.IsDisjointFrom(io_closure) &&
                vm_closure.IsDisjointFrom(io_closure);
    closures_ = pm_closure.Union(vm_closure).Union(io_closure);
    next_closure_ = closures_.begin();
    // Global map counts: CPU mappings + IOMMU mappings.
    for (const auto& [proc, table] : k.vm().tables()) {
      for (const auto& [va, entry] : table.AddressSpace()) {
        counts_.set(entry.addr, CountOf(entry.addr) + 1);
      }
      mappings_ += table.MappingCount();
    }
    for (const auto& [id, table] : k.iommu().domains()) {
      for (const auto& [iova, entry] : table.AddressSpace()) {
        counts_.set(entry.addr, CountOf(entry.addr) + 1);
      }
      mappings_ += table.MappingCount();
    }
  }
  MemorySafetyObligations(const MemorySafetyObligations&) = delete;
  MemorySafetyObligations& operator=(const MemorySafetyObligations&) = delete;

  void Visit(PagePtr page, PageState state) {
    if (state == PageState::kAllocated) {
      // Leak freedom: the allocated pages, ascending, meet the union of the
      // closures in step.
      closures_agree_ = closures_agree_ && next_closure_ != closures_.end() &&
                        *next_closure_ == page;
      if (closures_agree_) {
        ++next_closure_;
      }
      return;
    }
    // Mapped: the VM subsystem holds the frame's permission, and its map
    // count is the tally.
    ++mapped_;
    held_agree_ = held_agree_ && k_.vm().HoldsFrame(page);
    tally_agrees_ = tally_agrees_ && k_.alloc().MapCount(page) == CountOf(page);
    tallied_ += CountOf(page);
  }

  InvResult Verdict() const {
    if (!disjoint_) {
      return InvResult::Fail("subsystem page closures overlap");
    }
    // The union of the closures is exactly the allocated set.
    if (!closures_agree_ || next_closure_ != closures_.end()) {
      return InvResult::Fail("page closures differ from the allocator's allocated set");
    }
    // Mapped frames are exactly the VM subsystem's held permissions: every
    // mapped page is held, and there are as many of each.
    if (!held_agree_ || mapped_ != k_.vm().HeldFrameCount()) {
      return InvResult::Fail("held frame permissions differ from the mapped set");
    }
    if (!tally_agrees_) {
      return InvResult::Fail("map count disagrees with mapping tally");
    }
    // Every mapping targets a mapped page: the tallies of the mapped pages
    // add up to all mappings. (LocalWf's tally deltas start from it.)
    if (tallied_ != mappings_) {
      return InvResult::Fail("a mapping targets a page that is not mapped");
    }
    return InvResult{};
  }

 private:
  std::uint32_t CountOf(PagePtr page) const {
    return counts_.contains(page) ? counts_.at(page) : 0;
  }

  const Kernel& k_;
  bool disjoint_ = false;
  SpecSet<PagePtr> closures_;
  decltype(closures_.begin()) next_closure_;
  // A spec map, so that under the checker's ArenaScope the tally lives in
  // its arena.
  SpecMap<PagePtr, std::uint32_t> counts_;
  bool closures_agree_ = true;
  std::size_t mapped_ = 0;
  bool held_agree_ = true;
  bool tally_agrees_ = true;
  std::uint64_t mappings_ = 0;  // CPU + IOMMU mappings
  std::uint64_t tallied_ = 0;   // of them, those that target a mapped page
};

}  // namespace

InvResult Kernel::MemorySafetyWf() const {
  MemorySafetyObligations memory(*this);
  alloc_.ForEachInUsePage([&](PagePtr page, PageState state) {
    memory.Visit(page, state);
    return true;
  });
  return memory.Verdict();
}

InvResult Kernel::TotalWf() const {
  InvResult r = ProcessManagerWf(pm_);
  if (!r.ok) {
    return r;
  }
  // One pass over the allocator's in-use pages feeds both frame-table
  // obligations: QuotaWf's per-owner tally and MemorySafetyWf's three.
  // Their verdicts keep their places in the order below.
  QuotaTally quota;
  MemorySafetyObligations memory(*this);
  alloc_.ForEachInUsePage([&](PagePtr page, PageState state) {
    quota.Count(alloc_, page);
    memory.Visit(page, state);
    return true;
  });
  r = quota.Verdict(pm_);
  if (!r.ok) {
    return r;
  }
  if (!alloc_.Wf()) {
    return InvResult::Fail("page allocator ill-formed");
  }
  if (!vm_.Wf(*mem_, alloc_)) {
    return InvResult::Fail("virtual-memory subsystem ill-formed");
  }
  if (!iommu_.Wf()) {
    return InvResult::Fail("IOMMU subsystem ill-formed");
  }
  if (!rings_.Wf()) {
    return InvResult::Fail("syscall-ring table ill-formed");
  }
  // Page-table refinement for every address space.
  for (const auto& [proc, table] : vm_.tables()) {
    RefinementReport flat = FlatRefinementCheck(table, *mem_);
    if (!flat.ok) {
      return InvResult::Fail("page-table refinement: " + flat.detail);
    }
    RefinementReport cross = MmuCrossCheck(table, mmu_);
    if (!cross.ok) {
      return InvResult::Fail("MMU cross-check: " + cross.detail);
    }
  }
  // And for every IOMMU domain: a device DMAs through exactly its mappings.
  for (const auto& [id, table] : iommu_.domains()) {
    RefinementReport flat = FlatRefinementCheck(table, *mem_);
    if (!flat.ok) {
      return InvResult::Fail("IOMMU page-table refinement: " + flat.detail);
    }
  }
  return memory.Verdict();
}

namespace {

template <typename T>
void SortUnique(std::vector<T>* v) {
  std::sort(v->begin(), v->end());
  v->erase(std::unique(v->begin(), v->end()), v->end());
}

template <typename T>
bool SortedContains(const std::vector<T>& v, const T& x) {
  return std::binary_search(v.begin(), v.end(), x);
}

bool InUse(PageState state) {
  return state == PageState::kAllocated || state == PageState::kMapped;
}

// A tally kept as deltas from the base. A spec map, so that under the
// checker's ArenaScope it lives in its arena.
using Deltas = SpecMap<std::uint64_t, std::int64_t>;

void Add(Deltas* deltas, std::uint64_t key, std::int64_t delta) {
  const std::int64_t* was = deltas->find(key);
  deltas->set(key, (was != nullptr ? *was : 0) + delta);
}

std::int64_t DeltaOf(const Deltas& deltas, std::uint64_t key) {
  const std::int64_t* delta = deltas.find(key);
  return delta != nullptr ? *delta : 0;
}

// The objects whose per-object predicates LocalWf re-checks: the written
// ones and every object a relation ties to one of them, at either end, in
// the base state or now. A relation with no written end holds by Wf(base).
void LocalScope(const ProcessManager& pm, const AbstractKernel& base, const DirtySet& written,
                ObjectScope* out) {
  ObjectScope& scope = *out;
  for (std::vector<std::uint64_t>* ids : {&scope.ctnrs, &scope.procs, &scope.thrds, &scope.edpts}) {
    ids->clear();
  }
  auto add = [](std::vector<std::uint64_t>* ids, std::uint64_t id) {
    if (id != kNullPtr) {
      ids->push_back(id);
    }
  };
  auto add_all = [&add](std::vector<std::uint64_t>* ids, const auto& range) {
    for (std::uint64_t id : range) {
      add(ids, id);
    }
  };
  for (CtnrPtr c : written.ctnrs) {
    add(&scope.ctnrs, c);
    if (const AbsContainer* was = base.containers.find(c)) {
      // Its children, its subtree and its path (the tree clauses), and the
      // processes and threads it owned (their slot and ghost-set clauses).
      add(&scope.ctnrs, was->parent);
      add_all(&scope.ctnrs, was->children);
      add_all(&scope.ctnrs, was->subtree);
      add_all(&scope.ctnrs, was->path);
      add_all(&scope.procs, was->procs);
      add_all(&scope.thrds, was->threads);
    }
    if (pm.ContainerExists(c)) {
      const Container& now = pm.GetContainer(c);
      add_all(&scope.ctnrs, now.subtree);
      add_all(&scope.procs, now.owned_procs);
      add_all(&scope.thrds, now.owned_threads);
    } else {
      // A dead container: endpoints it owned must not outlive it.
      for (const auto& [e, perm] : pm.edpt_perms()) {
        if (perm.value().owning_ctnr == c) {
          add(&scope.edpts, e);
        }
      }
    }
  }
  for (ProcPtr p : written.procs) {
    add(&scope.procs, p);
    if (const AbsProcess* was = base.procs.find(p)) {
      add(&scope.procs, was->parent);
      add_all(&scope.procs, was->children);
      add(&scope.ctnrs, was->ctnr);
      add_all(&scope.thrds, was->threads);
    }
    if (pm.ProcessExists(p)) {
      const Process& now = pm.GetProcess(p);
      add(&scope.procs, now.parent);
      add_all(&scope.procs, now.children);
      add(&scope.ctnrs, now.owning_container);
      add_all(&scope.thrds, now.threads);
    }
  }
  for (ThrdPtr t : written.thrds) {
    add(&scope.thrds, t);
    if (const AbsThread* was = base.threads.find(t)) {
      add(&scope.procs, was->proc);
      add(&scope.ctnrs, was->ctnr);
      add_all(&scope.edpts, was->endpoints);
      add(&scope.edpts, was->waiting_on);
    }
    if (pm.ThreadExists(t)) {
      const Thread& now = pm.GetThread(t);
      add(&scope.procs, now.owning_proc);
      add(&scope.ctnrs, now.owning_ctnr);
      add_all(&scope.edpts, now.endpoints);
      add(&scope.edpts, now.waiting_on);
    }
  }
  for (EdptPtr e : written.edpts) {
    add(&scope.edpts, e);
    if (const AbsEndpoint* was = base.endpoints.find(e)) {
      add_all(&scope.thrds, was->queue);
    }
    if (pm.EndpointExists(e)) {
      add_all(&scope.thrds, pm.GetEndpoint(e).queue);
    }
  }
  if (written.scheduler) {
    add_all(&scope.thrds, base.run_queue);
    add_all(&scope.thrds, pm.run_queue());
    add(&scope.thrds, base.current);
    add(&scope.thrds, pm.current());
  }
  for (std::vector<std::uint64_t>* ids : {&scope.ctnrs, &scope.procs, &scope.thrds, &scope.edpts}) {
    SortUnique(ids);
  }
}

}  // namespace

InvResult Kernel::LocalWf(const AbstractKernel& base, const DirtySet& written,
                          const PageAllocator::Writes& writes, LocalWfScratch* scratch,
                          std::uint64_t* entries) const {
  // Process manager: per-object predicates over the scope, and relations
  // from their scoped end; the scheduler clause reads the run queue.
  LocalScope(pm_, base, written, &scratch->scope);
  const ObjectScope& scope = scratch->scope;
  *entries += scope.ctnrs.size() + scope.procs.size() + scope.thrds.size() + scope.edpts.size();
  InvResult r = ProcessManagerWf(pm_, &scope);
  if (!r.ok) {
    return r;
  }
  // Endpoint reference counts as deltas: a written thread moves the count
  // of each endpoint its descriptor table gained or lost.
  Deltas ref_delta;
  auto count_refs = [&ref_delta](const auto& endpoints, std::int64_t sign) {
    for (EdptPtr e : endpoints) {
      if (e != kNullPtr) {
        Add(&ref_delta, e, sign);
      }
    }
  };
  for (ThrdPtr t : written.thrds) {
    if (const AbsThread* was = base.threads.find(t)) {
      count_refs(was->endpoints, -1);
    }
    if (pm_.ThreadExists(t)) {
      count_refs(pm_.GetThread(t).endpoints, +1);
    }
  }
  for (EdptPtr e : scope.edpts) {
    const AbsEndpoint* was = base.endpoints.find(e);
    const std::uint64_t refs = (was != nullptr ? was->rf_count : 0) + DeltaOf(ref_delta, e);
    if (pm_.EndpointExists(e) && pm_.GetEndpoint(e).rf_count != refs) {
      return InvResult::Fail("rf_count of " + Hex(e) + " disagrees with descriptors");
    }
    if (!pm_.EndpointExists(e) && refs != 0) {
      return InvResult::Fail("descriptor references freed endpoint " + Hex(e));
    }
  }

  // Quota: each container's charged frames moved by the written frames'
  // change of owner, size or in-use state; the quotas still sum to the boot
  // reservation.
  Deltas charged_delta;
  for (const PageAllocator::FrameRecord& rec : writes.frames) {
    const PagePtr page = rec.frame * kPageSize4K;
    if (InUse(rec.before.state)) {
      Add(&charged_delta, rec.before.owner,
          -static_cast<std::int64_t>(PageFrames4K(rec.before.size)));
    }
    if (InUse(alloc_.StateOf(page))) {
      Add(&charged_delta, alloc_.OwnerOf(page),
          static_cast<std::int64_t>(PageFrames4K(alloc_.SizeClassOf(page))));
    }
  }
  std::vector<CtnrPtr>& charged = scratch->charged;
  charged.assign(written.ctnrs.begin(), written.ctnrs.end());
  for (const auto& [owner, delta] : charged_delta) {
    charged.push_back(owner);
  }
  SortUnique(&charged);
  std::int64_t quota_moved = 0;
  for (CtnrPtr c : charged) {
    ++*entries;
    const AbsContainer* was = base.containers.find(c);
    const std::uint64_t owned = (was != nullptr ? was->mem_used : 0) + DeltaOf(charged_delta, c);
    if (pm_.ContainerExists(c)) {
      const Container& now = pm_.GetContainer(c);
      if (now.mem_used > now.mem_quota) {
        return InvResult::Fail("container " + Hex(c) + " exceeds its memory quota");
      }
      if (owned != now.mem_used) {
        return InvResult::Fail("container " + Hex(c) + " mem_used (" +
                               std::to_string(now.mem_used) + ") != allocator attribution (" +
                               std::to_string(owned) + ")");
      }
      quota_moved += static_cast<std::int64_t>(now.mem_quota);
    } else if (c != kNullPtr && owned != 0) {
      return InvResult::Fail("pages attributed to dead container " + Hex(c));
    }
    if (was != nullptr) {
      quota_moved -= static_cast<std::int64_t>(was->mem_quota);
    }
  }
  if (quota_moved != 0) {
    return InvResult::Fail("total container quota differs from boot reservation");
  }

  if (const char* clause = alloc_.LocalWf(writes, &scratch->free_run, entries)) {
    return InvResult::Fail(std::string("page allocator ill-formed: ") + clause);
  }

  // Virtual memory: the written spaces' structure, and the borrow records
  // with a written end or page. Their mapping changes are diffed against
  // the base Ψ below.
  for (ProcPtr p : written.spaces) {
    if (vm_.HasAddressSpace(p)) {
      *entries += vm_.TableOf(p).node_perms().size();
      if (!vm_.TableOf(p).StructureWf(*mem_)) {
        return InvResult::Fail("virtual-memory subsystem ill-formed");
      }
    }
  }
  for (const auto& [page, rec] : vm_.borrows()) {
    if (SortedContains(written.spaces, rec.lender) ||
        SortedContains(written.spaces, rec.borrower) ||
        writes.Find(page / kPageSize4K) != nullptr) {
      ++*entries;
      if (!vm_.BorrowWf(page, rec, alloc_)) {
        return InvResult::Fail("virtual-memory subsystem ill-formed");
      }
    }
  }
  for (IommuDomainId id : written.iommu_domains) {
    auto it = iommu_.domains().find(id);
    if (it != iommu_.domains().end() && !it->second.StructureWf(*mem_)) {
      return InvResult::Fail("IOMMU subsystem ill-formed");
    }
  }
  *entries += written.rings.size();
  if (!rings_.LocalWf(written.rings)) {
    return InvResult::Fail("syscall-ring table ill-formed");
  }
  // Page-table refinement for the written address spaces and domains.
  for (ProcPtr p : written.spaces) {
    if (!vm_.HasAddressSpace(p)) {
      continue;
    }
    const PageTable& table = vm_.TableOf(p);
    *entries += table.MappingCount();
    RefinementReport flat = FlatRefinementCheck(table, *mem_);
    if (!flat.ok) {
      return InvResult::Fail("page-table refinement: " + flat.detail);
    }
    RefinementReport cross = MmuCrossCheck(table, mmu_);
    if (!cross.ok) {
      return InvResult::Fail("MMU cross-check: " + cross.detail);
    }
  }
  for (IommuDomainId id : written.iommu_domains) {
    auto it = iommu_.domains().find(id);
    if (it == iommu_.domains().end()) {
      continue;
    }
    *entries += it->second.MappingCount();
    RefinementReport flat = FlatRefinementCheck(it->second, *mem_);
    if (!flat.ok) {
      return InvResult::Fail("IOMMU page-table refinement: " + flat.detail);
    }
  }

  // Memory safety. The mapping tally moves by each written store's
  // difference from the base Ψ.
  Deltas tally_delta;
  auto diff = [&](const SpecMap<VAddr, MapEntry>& was, const SpecMap<VAddr, MapEntry>& now) {
    using Entry = SpecMap<VAddr, MapEntry>::Entry;
    SpecMap<VAddr, MapEntry>::ForEachDifference(was, now, [&](const Entry* old_entry,
                                                              const Entry* new_entry) {
      ++*entries;
      if (old_entry != nullptr) {
        Add(&tally_delta, old_entry->second.addr, -1);
      }
      if (new_entry != nullptr) {
        Add(&tally_delta, new_entry->second.addr, +1);
      }
      return true;
    });
  };
  const SpecMap<VAddr, MapEntry> empty;
  for (ProcPtr p : written.spaces) {
    const SpecMap<VAddr, MapEntry>* was = base.address_spaces.find(p);
    diff(was != nullptr ? *was : empty,
         vm_.HasAddressSpace(p) ? vm_.TableOf(p).AddressSpace() : empty);
  }
  for (IommuDomainId id : written.iommu_domains) {
    const AbsIommuDomain* was = base.iommu_domains.find(id);
    auto it = iommu_.domains().find(id);
    diff(was != nullptr ? was->mappings : empty,
         it != iommu_.domains().end() ? it->second.AddressSpace() : empty);
  }
  // The frames whose closure membership, allocator state or tally may have
  // moved: written frames, written objects' pages, written tables' nodes
  // and mapping targets.
  std::vector<PagePtr>& frames = scratch->frames;
  frames.clear();
  for (const PageAllocator::FrameRecord& rec : writes.frames) {
    frames.push_back(rec.frame * kPageSize4K);
  }
  for (const std::vector<std::uint64_t>* objects :
       {&written.ctnrs, &written.procs, &written.thrds, &written.edpts}) {
    frames.insert(frames.end(), objects->begin(), objects->end());
  }
  for (ProcPtr p : written.spaces) {
    if (vm_.HasAddressSpace(p)) {
      for (const auto& [node, perm] : vm_.TableOf(p).node_perms()) {
        frames.push_back(node);
      }
    }
  }
  for (IommuDomainId id : written.iommu_domains) {
    auto it = iommu_.domains().find(id);
    if (it != iommu_.domains().end()) {
      for (const auto& [node, perm] : it->second.node_perms()) {
        frames.push_back(node);
      }
    }
  }
  for (const auto& [page, delta] : tally_delta) {
    frames.push_back(page);
  }
  SortUnique(&frames);
  bool disjoint = true;
  bool closures_agree = true;
  bool held_agree = true;
  bool tally_agrees = true;
  bool targets_mapped = true;
  for (PagePtr page : frames) {
    ++*entries;
    auto holds_node = [page](const auto& id_and_table) {
      return id_and_table.second.node_perms().count(page) != 0;
    };
    const std::int64_t closures =
        (pm_.cntr_perms().contains(page) || pm_.proc_perms().contains(page) ||
         pm_.thrd_perms().contains(page) || pm_.edpt_perms().contains(page)) +
        std::count_if(vm_.tables().begin(), vm_.tables().end(), holds_node) +
        std::count_if(iommu_.domains().begin(), iommu_.domains().end(), holds_node);
    const PageState state = alloc_.StateOf(page);
    const PageAllocator::FrameRecord* rec = writes.Find(page / kPageSize4K);
    disjoint = disjoint && closures <= 1;
    closures_agree = closures_agree && (closures == 1) == (state == PageState::kAllocated);
    held_agree =
        held_agree && (rec == nullptr || (state == PageState::kMapped) == vm_.HoldsFrame(page));
    // By Wf(base), a mapped page's tally was its map count and any other
    // page's was 0.
    const bool was_mapped =
        rec != nullptr ? rec->before.state == PageState::kMapped : state == PageState::kMapped;
    const std::uint64_t was_count =
        !was_mapped ? 0 : rec != nullptr ? rec->before.map_count : alloc_.MapCount(page);
    const std::uint64_t count = was_count + DeltaOf(tally_delta, page);
    if (state == PageState::kMapped) {
      tally_agrees = tally_agrees && alloc_.MapCount(page) == count;
    } else {
      targets_mapped = targets_mapped && count == 0;
    }
  }
  // The verdicts in MemorySafetyWf's order.
  if (!disjoint) {
    return InvResult::Fail("subsystem page closures overlap");
  }
  if (!closures_agree) {
    return InvResult::Fail("page closures differ from the allocator's allocated set");
  }
  if (!held_agree) {
    return InvResult::Fail("held frame permissions differ from the mapped set");
  }
  if (!tally_agrees) {
    return InvResult::Fail("map count disagrees with mapping tally");
  }
  if (!targets_mapped) {
    return InvResult::Fail("a mapping targets a page that is not mapped");
  }
  return InvResult{};
}

Kernel Kernel::CloneForVerification() const {
  Kernel out;
  // averif-lint: allow(hot-path-alloc) — reached from ExecBatch only by the kRingDrainAtomic snapshot, an O(state) copy by design that only atomic rings take (TraceGen and tests)
  out.mem_ = std::make_unique<PhysMem>(mem_->CloneForVerification());
  out.mmu_ = Mmu(out.mem_.get());
  out.alloc_ = alloc_.CloneForVerification();
  out.pm_ = pm_.CloneForVerification();
  out.vm_ = vm_.CloneForVerification(out.mem_.get());
  out.iommu_ = iommu_.CloneForVerification(out.mem_.get());
  out.rings_ = rings_.CloneForVerification();
  return out;
}

}  // namespace atmo
