#include "src/proc/process_manager.h"

#include <algorithm>

#include "src/pmem/object_alloc.h"
#include "src/vstd/check.h"

namespace atmo {

const char* ProcErrorName(ProcError error) {
  switch (error) {
    case ProcError::kOk:
      return "ok";
    case ProcError::kNoMemory:
      return "no-memory";
    case ProcError::kQuotaExceeded:
      return "quota-exceeded";
    case ProcError::kCapacity:
      return "capacity";
    case ProcError::kInvalid:
      return "invalid";
  }
  return "?";
}

const char* ThreadStateName(ThreadState state) {
  switch (state) {
    case ThreadState::kRunning:
      return "running";
    case ThreadState::kRunnable:
      return "runnable";
    case ThreadState::kBlockedSend:
      return "blocked-send";
    case ThreadState::kBlockedRecv:
      return "blocked-recv";
    case ThreadState::kBlockedCall:
      return "blocked-call";
  }
  return "?";
}

std::optional<ProcessManager> ProcessManager::Boot(PageAllocator* alloc,
                                                   std::uint64_t root_quota) {
  ATMO_CHECK(root_quota >= 1, "root container needs at least one page of quota");
  std::optional<PageAlloc> page = alloc->AllocPage4K(kNullPtr);
  if (!page.has_value()) {
    return std::nullopt;
  }

  ProcessManager pm;
  Container root;
  root.parent = kNullPtr;
  root.depth = 0;
  root.mem_quota = root_quota;
  root.mem_used = 1;  // the root container's own metadata page
  root.cpu_mask = ~0ull;

  PlacedObject<Container> placed = PlaceObject(std::move(page->perm), std::move(root));
  pm.root_container_ = page->ptr;
  pm.initial_quota_ = root_quota;
  pm.cntr_perms_.TrackedInsert(std::move(placed.perm));
  alloc->SetOwner(page->ptr, page->ptr);
  return pm;
}

bool ProcessManager::ChargePages(CtnrPtr c, std::uint64_t pages) {
  Container& ctnr = cntr_perms_.GetMut(c);
  if (ctnr.mem_used + pages > ctnr.mem_quota) {
    return false;
  }
  ctnr.mem_used += pages;
  return true;
}

void ProcessManager::UnchargePages(CtnrPtr c, std::uint64_t pages) {
  Container& ctnr = cntr_perms_.GetMut(c);
  ATMO_CHECK(ctnr.mem_used >= pages, "container memory accounting underflow");
  ctnr.mem_used -= pages;
}

std::optional<PageAlloc> ProcessManager::AllocObjectPage(PageAllocator* alloc,
                                                         CtnrPtr charge_to, ProcError* error) {
  if (!ChargePages(charge_to, 1)) {
    *error = ProcError::kQuotaExceeded;
    return std::nullopt;
  }
  std::optional<PageAlloc> page = alloc->AllocPage4K(charge_to);
  if (!page.has_value()) {
    UnchargePages(charge_to, 1);
    *error = ProcError::kNoMemory;
    return std::nullopt;
  }
  *error = ProcError::kOk;
  return page;
}

void ProcessManager::FreeObjectPage(PageAllocator* alloc, CtnrPtr charged_to, PagePtr page,
                                    FramePerm perm) {
  alloc->FreePage(page, std::move(perm));
  if (charged_to != kNullPtr && cntr_perms_.contains(charged_to)) {
    UnchargePages(charged_to, 1);
  }
}

// ---------------------------------------------------------------------------
// Object lifecycle
// ---------------------------------------------------------------------------

PmResult<CtnrPtr> ProcessManager::NewContainer(PageAllocator* alloc, CtnrPtr parent,
                                               std::uint64_t quota, std::uint64_t cpu_mask) {
  if (!cntr_perms_.contains(parent) || quota < 1 || cpu_mask == 0) {
    return PmResult<CtnrPtr>::Err(ProcError::kInvalid);
  }
  {
    const Container& p = cntr_perms_.Get(parent);
    if (p.children.full()) {
      return PmResult<CtnrPtr>::Err(ProcError::kCapacity);
    }
    if ((cpu_mask & ~p.cpu_mask) != 0) {
      return PmResult<CtnrPtr>::Err(ProcError::kInvalid);
    }
    // The parent passes a subset of its own reservation: it must retain
    // enough headroom for pages it has already charged.
    if (p.mem_quota < quota || p.mem_quota - quota < p.mem_used) {
      return PmResult<CtnrPtr>::Err(ProcError::kQuotaExceeded);
    }
  }

  std::optional<PageAlloc> page = alloc->AllocPage4K(kNullPtr);
  if (!page.has_value()) {
    return PmResult<CtnrPtr>::Err(ProcError::kNoMemory);
  }
  CtnrPtr child_ptr = page->ptr;

  Container child;
  child.parent = parent;
  child.mem_quota = quota;
  child.mem_used = 1;  // its own metadata page, charged against its fresh quota
  child.cpu_mask = cpu_mask;

  {
    Container& p = cntr_perms_.GetMut(parent);
    p.mem_quota -= quota;
    child.slot_in_parent = p.children.PushBack(child_ptr);
    child.depth = p.depth + 1;
    child.path = p.path.push(parent);
  }

  // new_container_ensures: the subtree of the new container's direct and
  // indirect parents is extended by the child (Listing 3, lines 15-19).
  for (CtnrPtr ancestor : child.path) {
    cntr_perms_.GetMut(ancestor).subtree.add(child_ptr);
  }

  PlacedObject<Container> placed = PlaceObject(std::move(page->perm), std::move(child));
  cntr_perms_.TrackedInsert(std::move(placed.perm));
  alloc->SetOwner(child_ptr, child_ptr);
  return PmResult<CtnrPtr>::Ok(child_ptr);
}

PmResult<ProcPtr> ProcessManager::NewProcess(PageAllocator* alloc, CtnrPtr ctnr,
                                             ProcPtr parent) {
  if (!cntr_perms_.contains(ctnr)) {
    return PmResult<ProcPtr>::Err(ProcError::kInvalid);
  }
  if (parent != kNullPtr) {
    if (!proc_perms_.contains(parent) || proc_perms_.Get(parent).owning_container != ctnr) {
      return PmResult<ProcPtr>::Err(ProcError::kInvalid);
    }
    if (proc_perms_.Get(parent).children.full()) {
      return PmResult<ProcPtr>::Err(ProcError::kCapacity);
    }
  }
  if (cntr_perms_.Get(ctnr).owned_procs.full()) {
    return PmResult<ProcPtr>::Err(ProcError::kCapacity);
  }

  ProcError error;
  std::optional<PageAlloc> page = AllocObjectPage(alloc, ctnr, &error);
  if (!page.has_value()) {
    return PmResult<ProcPtr>::Err(error);
  }
  ProcPtr proc_ptr = page->ptr;

  Process proc;
  proc.owning_container = ctnr;
  proc.parent = parent;
  proc.slot_in_container = cntr_perms_.GetMut(ctnr).owned_procs.PushBack(proc_ptr);
  if (parent != kNullPtr) {
    proc.slot_in_parent = proc_perms_.GetMut(parent).children.PushBack(proc_ptr);
  }

  PlacedObject<Process> placed = PlaceObject(std::move(page->perm), std::move(proc));
  proc_perms_.TrackedInsert(std::move(placed.perm));
  return PmResult<ProcPtr>::Ok(proc_ptr);
}

PmResult<ThrdPtr> ProcessManager::NewThread(PageAllocator* alloc, ProcPtr proc) {
  if (!proc_perms_.contains(proc)) {
    return PmResult<ThrdPtr>::Err(ProcError::kInvalid);
  }
  if (proc_perms_.Get(proc).threads.full()) {
    return PmResult<ThrdPtr>::Err(ProcError::kCapacity);
  }
  CtnrPtr ctnr = proc_perms_.Get(proc).owning_container;

  ProcError error;
  std::optional<PageAlloc> page = AllocObjectPage(alloc, ctnr, &error);
  if (!page.has_value()) {
    return PmResult<ThrdPtr>::Err(error);
  }
  ThrdPtr thrd_ptr = page->ptr;

  Thread thrd;
  thrd.owning_proc = proc;
  thrd.owning_ctnr = ctnr;
  thrd.state = ThreadState::kRunnable;
  thrd.slot_in_proc = proc_perms_.GetMut(proc).threads.PushBack(thrd_ptr);
  cntr_perms_.GetMut(ctnr).owned_threads.add(thrd_ptr);

  PlacedObject<Thread> placed = PlaceObject(std::move(page->perm), std::move(thrd));
  thrd_perms_.TrackedInsert(std::move(placed.perm));
  // averif-lint: allow(hot-path-alloc) — thread spawn is a cold control-plane op
  run_queue_.push_back(thrd_ptr);
  sched_dirty_ = true;
  return PmResult<ThrdPtr>::Ok(thrd_ptr);
}

PmResult<EdptPtr> ProcessManager::NewEndpoint(PageAllocator* alloc, ThrdPtr thrd, EdptIdx idx) {
  if (!thrd_perms_.contains(thrd) || idx >= kMaxEdptDescriptors) {
    return PmResult<EdptPtr>::Err(ProcError::kInvalid);
  }
  if (thrd_perms_.Get(thrd).endpoints[idx] != kNullPtr) {
    return PmResult<EdptPtr>::Err(ProcError::kInvalid);
  }
  CtnrPtr ctnr = thrd_perms_.Get(thrd).owning_ctnr;

  ProcError error;
  std::optional<PageAlloc> page = AllocObjectPage(alloc, ctnr, &error);
  if (!page.has_value()) {
    return PmResult<EdptPtr>::Err(error);
  }
  EdptPtr edpt_ptr = page->ptr;

  Endpoint edpt;
  edpt.rf_count = 1;
  edpt.owning_ctnr = ctnr;

  PlacedObject<Endpoint> placed = PlaceObject(std::move(page->perm), std::move(edpt));
  edpt_perms_.TrackedInsert(std::move(placed.perm));
  thrd_perms_.GetMut(thrd).endpoints[idx] = edpt_ptr;
  return PmResult<EdptPtr>::Ok(edpt_ptr);
}

ProcError ProcessManager::BindEndpoint(ThrdPtr thrd, EdptIdx idx, EdptPtr edpt) {
  if (!thrd_perms_.contains(thrd) || !edpt_perms_.contains(edpt) ||
      idx >= kMaxEdptDescriptors) {
    return ProcError::kInvalid;
  }
  Thread& t = thrd_perms_.GetMut(thrd);
  if (t.endpoints[idx] != kNullPtr) {
    return ProcError::kInvalid;
  }
  t.endpoints[idx] = edpt;
  ++edpt_perms_.GetMut(edpt).rf_count;
  return ProcError::kOk;
}

ProcError ProcessManager::UnbindEndpoint(PageAllocator* alloc, ThrdPtr thrd, EdptIdx idx) {
  if (!thrd_perms_.contains(thrd) || idx >= kMaxEdptDescriptors) {
    return ProcError::kInvalid;
  }
  Thread& t = thrd_perms_.GetMut(thrd);
  EdptPtr edpt = t.endpoints[idx];
  if (edpt == kNullPtr) {
    return ProcError::kInvalid;
  }
  t.endpoints[idx] = kNullPtr;

  Endpoint& e = edpt_perms_.GetMut(edpt);
  ATMO_CHECK(e.rf_count > 0, "endpoint reference count underflow");
  if (--e.rf_count == 0) {
    ATMO_CHECK(e.queue.empty(), "endpoint with waiters lost its last reference");
    CtnrPtr charged = e.owning_ctnr;
    FramePerm frame = UnplaceObject(edpt_perms_.TrackedRemove(edpt));
    FreeObjectPage(alloc, charged, edpt, std::move(frame));
  }
  return ProcError::kOk;
}

void ProcessManager::RemoveThread(PageAllocator* alloc, ThrdPtr thrd) {
  ATMO_CHECK(thrd_perms_.contains(thrd), "RemoveThread of unknown thread");

  // Detach from wherever the thread is parked.
  switch (thrd_perms_.Get(thrd).state) {
    case ThreadState::kRunnable:
      DequeueRunnable(thrd);
      break;
    case ThreadState::kRunning:
      ATMO_CHECK(current_ == thrd, "running thread is not the current thread");
      current_ = kNullPtr;
      sched_dirty_ = true;
      break;
    case ThreadState::kBlockedSend:
    case ThreadState::kBlockedRecv:
    case ThreadState::kBlockedCall: {
      EdptPtr waiting_on = thrd_perms_.Get(thrd).waiting_on;
      if (waiting_on != kNullPtr) {
        RemoveWaiter(waiting_on, thrd);
      }
      break;
    }
  }

  // Drop every endpoint reference (may free endpoints).
  for (EdptIdx idx = 0; idx < kMaxEdptDescriptors; ++idx) {
    if (thrd_perms_.Get(thrd).endpoints[idx] != kNullPtr) {
      UnbindEndpoint(alloc, thrd, idx);
    }
  }

  const Thread& t = thrd_perms_.Get(thrd);
  proc_perms_.GetMut(t.owning_proc).threads.Remove(t.slot_in_proc);
  cntr_perms_.GetMut(t.owning_ctnr).owned_threads.erase(thrd);
  CtnrPtr charged = t.owning_ctnr;

  FramePerm frame = UnplaceObject(thrd_perms_.TrackedRemove(thrd));
  FreeObjectPage(alloc, charged, thrd, std::move(frame));
}

void ProcessManager::RemoveProcess(PageAllocator* alloc, ProcPtr proc) {
  ATMO_CHECK(proc_perms_.contains(proc), "RemoveProcess of unknown process");
  const Process& p = proc_perms_.Get(proc);
  ATMO_CHECK(p.threads.empty(), "RemoveProcess with live threads");
  ATMO_CHECK(p.children.empty(), "RemoveProcess with live child processes");

  cntr_perms_.GetMut(p.owning_container).owned_procs.Remove(p.slot_in_container);
  if (p.parent != kNullPtr) {
    proc_perms_.GetMut(p.parent).children.Remove(p.slot_in_parent);
  }
  CtnrPtr charged = p.owning_container;

  FramePerm frame = UnplaceObject(proc_perms_.TrackedRemove(proc));
  FreeObjectPage(alloc, charged, proc, std::move(frame));
}

void ProcessManager::RemoveContainer(PageAllocator* alloc, CtnrPtr ctnr) {
  ATMO_CHECK(cntr_perms_.contains(ctnr), "RemoveContainer of unknown container");
  ATMO_CHECK(ctnr != root_container_, "the root container cannot be removed");
  const Container& c = cntr_perms_.Get(ctnr);
  ATMO_CHECK(c.owned_procs.empty(), "RemoveContainer with live processes");
  ATMO_CHECK(c.children.empty(), "RemoveContainer with live child containers");
  ATMO_CHECK(c.mem_used == 1, "RemoveContainer with outstanding charged pages (leak)");

  CtnrPtr parent = c.parent;
  std::uint64_t quota = c.mem_quota;
  std::uint32_t slot = c.slot_in_parent;
  SpecSeq<CtnrPtr> path = c.path;

  // Unlink and shrink every ancestor's subtree.
  cntr_perms_.GetMut(parent).children.Remove(slot);
  for (CtnrPtr ancestor : path) {
    cntr_perms_.GetMut(ancestor).subtree.erase(ctnr);
  }
  // Resources return to the parent (§3: harvest on termination).
  cntr_perms_.GetMut(parent).mem_quota += quota;

  FramePerm frame = UnplaceObject(cntr_perms_.TrackedRemove(ctnr));
  alloc->FreePage(ctnr, std::move(frame));
}

void ProcessManager::TransferCharge(CtnrPtr from, CtnrPtr to, std::uint64_t pages) {
  Container& src = cntr_perms_.GetMut(from);
  ATMO_CHECK(src.mem_used >= pages, "TransferCharge underflow on source container");
  src.mem_used -= pages;
  cntr_perms_.GetMut(to).mem_used += pages;
}

// ---------------------------------------------------------------------------
// Scheduler
// ---------------------------------------------------------------------------

void ProcessManager::DispatchSpecific(ThrdPtr thrd) {
  ATMO_CHECK(current_ == kNullPtr, "DispatchSpecific while a thread is running");
  Thread& t = thrd_perms_.GetMut(thrd);
  ATMO_CHECK(t.state == ThreadState::kRunnable, "DispatchSpecific of non-runnable thread");
  DequeueRunnable(thrd);
  t.state = ThreadState::kRunning;
  current_ = thrd;
  sched_dirty_ = true;
}

void ProcessManager::PreemptCurrent() {
  ATMO_CHECK(current_ != kNullPtr, "PreemptCurrent with no current thread");
  thrd_perms_.GetMut(current_).state = ThreadState::kRunnable;
  // averif-lint: allow(hot-path-alloc) — run-queue vector retains capacity; push_back allocates only until the high-water thread count
  run_queue_.push_back(current_);
  current_ = kNullPtr;
  sched_dirty_ = true;
}

void ProcessManager::BlockCurrentForReply() {
  ATMO_CHECK(current_ != kNullPtr, "BlockCurrentForReply with no current thread");
  Thread& t = thrd_perms_.GetMut(current_);
  t.state = ThreadState::kBlockedCall;
  t.waiting_on = kNullPtr;
  t.wait_slot = kStaticListNil;
  current_ = kNullPtr;
  sched_dirty_ = true;
}

void ProcessManager::DequeueRunnable(ThrdPtr thrd) {
  auto it = std::find(run_queue_.begin(), run_queue_.end(), thrd);
  ATMO_CHECK(it != run_queue_.end(), "runnable thread absent from the run queue");
  run_queue_.erase(it);
  sched_dirty_ = true;
}

void ProcessManager::MakeRunnable(ThrdPtr thrd) {
  Thread& t = thrd_perms_.GetMut(thrd);
  ATMO_CHECK(t.state != ThreadState::kRunnable && t.state != ThreadState::kRunning,
             "MakeRunnable of a thread that is already schedulable");
  t.state = ThreadState::kRunnable;
  t.waiting_on = kNullPtr;
  t.wait_slot = kStaticListNil;
  // averif-lint: allow(hot-path-alloc) — run-queue vector retains capacity (see PreemptCurrent)
  run_queue_.push_back(thrd);
  sched_dirty_ = true;
}

void ProcessManager::Yield() {
  ATMO_CHECK(current_ != kNullPtr, "Yield with no current thread");
  ThrdPtr prev = current_;
  thrd_perms_.GetMut(prev).state = ThreadState::kRunnable;
  // averif-lint: allow(hot-path-alloc) — run-queue vector retains capacity (see PreemptCurrent)
  run_queue_.push_back(prev);
  current_ = kNullPtr;
  sched_dirty_ = true;
  ScheduleNext();
}

ThrdPtr ProcessManager::ScheduleNext() {
  ATMO_CHECK(current_ == kNullPtr, "ScheduleNext while a thread is running");
  if (run_queue_.empty()) {
    return kNullPtr;
  }
  ThrdPtr next = run_queue_.front();
  run_queue_.pop_front();
  thrd_perms_.GetMut(next).state = ThreadState::kRunning;
  current_ = next;
  sched_dirty_ = true;
  return next;
}

// ---------------------------------------------------------------------------
// Endpoint blocking
// ---------------------------------------------------------------------------

void ProcessManager::BlockCurrentOn(EdptPtr edpt, ThreadState blocked_state) {
  ATMO_CHECK(current_ != kNullPtr, "BlockCurrentOn with no current thread");
  ATMO_CHECK(blocked_state == ThreadState::kBlockedSend ||
                 blocked_state == ThreadState::kBlockedRecv ||
                 blocked_state == ThreadState::kBlockedCall,
             "BlockCurrentOn with a non-blocked state");
  Endpoint& e = edpt_perms_.GetMut(edpt);
  EdptQueueKind kind = blocked_state == ThreadState::kBlockedRecv ? EdptQueueKind::kReceivers
                                                                  : EdptQueueKind::kSenders;
  if (e.queue.empty()) {
    e.queue_kind = kind;
  } else {
    ATMO_CHECK(e.queue_kind == kind, "mixed sender/receiver endpoint queue");
  }
  ThrdPtr thrd = current_;
  Thread& t = thrd_perms_.GetMut(thrd);
  t.state = blocked_state;
  t.waiting_on = edpt;
  t.wait_slot = e.queue.PushBack(thrd);
  current_ = kNullPtr;
  sched_dirty_ = true;
}

ThrdPtr ProcessManager::PopWaiter(EdptPtr edpt) {
  Endpoint& e = edpt_perms_.GetMut(edpt);
  ATMO_CHECK(!e.queue.empty(), "PopWaiter on empty endpoint queue");
  ThrdPtr thrd = e.queue.PopFront();
  if (e.queue.empty()) {
    e.queue_kind = EdptQueueKind::kEmpty;
  }
  Thread& t = thrd_perms_.GetMut(thrd);
  t.waiting_on = kNullPtr;
  t.wait_slot = kStaticListNil;
  return thrd;
}

void ProcessManager::RemoveWaiter(EdptPtr edpt, ThrdPtr thrd) {
  Endpoint& e = edpt_perms_.GetMut(edpt);
  Thread& t = thrd_perms_.GetMut(thrd);
  ATMO_CHECK(t.waiting_on == edpt, "RemoveWaiter thread is not waiting on this endpoint");
  ATMO_CHECK(e.queue.At(t.wait_slot) == thrd, "endpoint queue reverse index corrupt");
  e.queue.Remove(t.wait_slot);
  if (e.queue.empty()) {
    e.queue_kind = EdptQueueKind::kEmpty;
  }
  t.waiting_on = kNullPtr;
  t.wait_slot = kStaticListNil;
}

// ---------------------------------------------------------------------------
// Ghost / spec
// ---------------------------------------------------------------------------

SpecSet<CtnrPtr> ProcessManager::SubtreeContainers(CtnrPtr c) const {
  // averif-lint: allow(hot-path-alloc) — subtree walk feeds container kill — cold teardown path
  return cntr_perms_.Get(c).subtree.insert(c);
}

SpecSet<ProcPtr> ProcessManager::SubtreeProcs(CtnrPtr c) const {
  SpecSet<ProcPtr> out;
  for (CtnrPtr ctnr : SubtreeContainers(c)) {
    for (ProcPtr proc : cntr_perms_.Get(ctnr).owned_procs) {
      out.add(proc);
    }
  }
  return out;
}

SpecSet<ThrdPtr> ProcessManager::SubtreeThreads(CtnrPtr c) const {
  SpecSet<ThrdPtr> out;
  for (CtnrPtr ctnr : SubtreeContainers(c)) {
    out = out.Union(cntr_perms_.Get(ctnr).owned_threads);
  }
  return out;
}

SpecSet<PagePtr> ProcessManager::PageClosure() const {
  SpecSet<PagePtr> out = cntr_perms_.Dom();
  out = out.Union(proc_perms_.Dom());
  out = out.Union(thrd_perms_.Dom());
  out = out.Union(edpt_perms_.Dom());
  return out;
}

void ProcessManager::DrainDirty(DirtySet* out) {
  cntr_perms_.DrainDirtyInto(&out->ctnrs, &out->overflow);
  proc_perms_.DrainDirtyInto(&out->procs, &out->overflow);
  thrd_perms_.DrainDirtyInto(&out->thrds, &out->overflow);
  edpt_perms_.DrainDirtyInto(&out->edpts, &out->overflow);
  out->scheduler = out->scheduler || sched_dirty_;
  sched_dirty_ = false;
}

ProcessManager ProcessManager::CloneForVerification() const {
  ProcessManager out;
  out.root_container_ = root_container_;
  out.initial_quota_ = initial_quota_;
  out.cntr_perms_ = cntr_perms_.CloneForVerification();
  out.proc_perms_ = proc_perms_.CloneForVerification();
  out.thrd_perms_ = thrd_perms_.CloneForVerification();
  out.edpt_perms_ = edpt_perms_.CloneForVerification();
  out.run_queue_ = run_queue_;
  out.current_ = current_;
  return out;  // with empty mutation logs and a clean scheduler mark
}

}  // namespace atmo
