// Process manager: containers, processes, threads, endpoints, scheduler
// (Listing 2).
//
// The subsystem owns the permissions to *all* kernel objects it manages in
// flat maps — the paper's central design choice. Object creation allocates a
// 4 KiB page (charged against the owning container's quota), places the
// object, and inserts its permission into the flat map; teardown reverses
// the exchange and frees the page. All structural ghost state (container
// `path`/`subtree`, per-container thread sets) is maintained eagerly so the
// non-recursive tree invariants (src/proc/invariants.h) can be checked
// against the flat maps at any time.

#ifndef ATMO_SRC_PROC_PROCESS_MANAGER_H_
#define ATMO_SRC_PROC_PROCESS_MANAGER_H_

#include <deque>
#include <optional>

#include "src/pmem/page_allocator.h"
#include "src/proc/objects.h"
#include "src/vstd/dirty_set.h"
#include "src/vstd/permission_map.h"
#include "src/vstd/spec_set.h"
#include "src/vstd/types.h"

namespace atmo {

enum class ProcError {
  kOk = 0,
  kNoMemory,       // page allocator exhausted
  kQuotaExceeded,  // container memory reservation exhausted
  kCapacity,       // embedded collection full (children/threads/descriptors)
  kInvalid,        // bad handle / slot / state
};

const char* ProcErrorName(ProcError error);

template <typename T>
struct PmResult {
  ProcError error = ProcError::kOk;
  T value{};

  bool ok() const { return error == ProcError::kOk; }
  static PmResult Ok(T v) { return PmResult{ProcError::kOk, v}; }
  static PmResult Err(ProcError e) { return PmResult{e, T{}}; }
};

class ProcessManager {
 public:
  // Boot: creates the root container owning the machine's full memory
  // reservation (`root_quota` pages) and all CPUs.
  static std::optional<ProcessManager> Boot(PageAllocator* alloc, std::uint64_t root_quota);

  ProcessManager(ProcessManager&&) noexcept = default;
  ProcessManager& operator=(ProcessManager&&) noexcept = default;

  CtnrPtr root_container() const { return root_container_; }
  std::uint64_t initial_quota() const { return initial_quota_; }

  // --- Object accessors (verification failures on dangling handles) ---
  bool ContainerExists(CtnrPtr c) const { return cntr_perms_.contains(c); }
  bool ProcessExists(ProcPtr p) const { return proc_perms_.contains(p); }
  bool ThreadExists(ThrdPtr t) const { return thrd_perms_.contains(t); }
  bool EndpointExists(EdptPtr e) const { return edpt_perms_.contains(e); }
  const Container& GetContainer(CtnrPtr c) const { return cntr_perms_.Get(c); }
  const Process& GetProcess(ProcPtr p) const { return proc_perms_.Get(p); }
  const Thread& GetThread(ThrdPtr t) const { return thrd_perms_.Get(t); }
  const Endpoint& GetEndpoint(EdptPtr e) const { return edpt_perms_.Get(e); }

  // --- Quota accounting ---
  // Charges `pages` 4 KiB pages to `c`; false (no change) if over quota.
  bool ChargePages(CtnrPtr c, std::uint64_t pages);
  void UnchargePages(CtnrPtr c, std::uint64_t pages);

  // --- Object lifecycle ---
  // Creates a child container, carving `quota` pages and `cpu_mask` out of
  // the parent's reservation. The container's own metadata page is charged
  // to the child.
  PmResult<CtnrPtr> NewContainer(PageAllocator* alloc, CtnrPtr parent, std::uint64_t quota,
                                 std::uint64_t cpu_mask);
  // Creates a process in `ctnr`; `parent` is kNullPtr for the container's
  // initial process, otherwise a process of the same container.
  PmResult<ProcPtr> NewProcess(PageAllocator* alloc, CtnrPtr ctnr, ProcPtr parent);
  // Creates a thread in `proc`, initially runnable (enqueued).
  PmResult<ThrdPtr> NewThread(PageAllocator* alloc, ProcPtr proc);
  // Creates an endpoint and binds it into `thrd`'s descriptor slot `idx`.
  PmResult<EdptPtr> NewEndpoint(PageAllocator* alloc, ThrdPtr thrd, EdptIdx idx);

  // Binds an existing endpoint into a descriptor slot (rf_count++).
  ProcError BindEndpoint(ThrdPtr thrd, EdptIdx idx, EdptPtr edpt);
  // Clears a descriptor slot (rf_count--). When the count reaches zero the
  // endpoint object is destroyed and its page freed.
  ProcError UnbindEndpoint(PageAllocator* alloc, ThrdPtr thrd, EdptIdx idx);

  // Destroys a thread: dequeues it from scheduler/endpoint queues, unbinds
  // all descriptors, unlinks from its process, frees its page.
  void RemoveThread(PageAllocator* alloc, ThrdPtr thrd);
  // Destroys a process with no threads and no child processes.
  void RemoveProcess(PageAllocator* alloc, ProcPtr proc);
  // Destroys a container with no processes and no child containers. Its
  // remaining quota returns to the parent (resource harvesting, §3).
  void RemoveContainer(PageAllocator* alloc, CtnrPtr ctnr);

  // Moves `pages` of charged usage from one container to another without a
  // quota check (container-kill harvesting; transient over-quota on the
  // destination is resolved when the dying child's quota returns).
  void TransferCharge(CtnrPtr from, CtnrPtr to, std::uint64_t pages);

  // --- Scheduler (round-robin, single modelled CPU under the big lock) ---
  ThrdPtr current() const { return current_; }
  // Puts a specific runnable thread on the CPU (syscall dispatch).
  void DispatchSpecific(ThrdPtr thrd);
  // Preempts the current thread to the run-queue tail.
  void PreemptCurrent();
  // The current thread blocks awaiting a direct reply (call() rendezvous
  // complete): state kBlockedCall, not queued on any endpoint.
  void BlockCurrentForReply();
  // Makes a blocked/new thread runnable (enqueues it).
  void MakeRunnable(ThrdPtr thrd);
  // current yields: goes to the tail, next head runs.
  void Yield();
  // Picks the next runnable thread when there is no current (boot, or the
  // current thread just blocked/exited). Returns kNullPtr if idle.
  ThrdPtr ScheduleNext();

  // --- Blocking on endpoints (used by the IPC layer) ---
  // Blocks the current thread on `edpt` with the given blocked state.
  void BlockCurrentOn(EdptPtr edpt, ThreadState blocked_state);
  // Pops the head waiter (queue must be non-empty). Does not change the
  // thread's state — the IPC layer completes the transfer and wakes it.
  ThrdPtr PopWaiter(EdptPtr edpt);
  // O(1) removal of a specific waiter (thread kill while blocked).
  void RemoveWaiter(EdptPtr edpt, ThrdPtr thrd);

  // Mutable object access for the IPC layer and the kernel facade.
  Thread& MutableThread(ThrdPtr t) { return thrd_perms_.GetMut(t); }
  Endpoint& MutableEndpoint(EdptPtr e) { return edpt_perms_.GetMut(e); }
  Container& MutableContainer(CtnrPtr c) { return cntr_perms_.GetMut(c); }
  Process& MutableProcess(ProcPtr p) { return proc_perms_.GetMut(p); }

  // --- Ghost / spec access ---
  const PermissionMap<Container>& cntr_perms() const { return cntr_perms_; }
  const PermissionMap<Process>& proc_perms() const { return proc_perms_; }
  const PermissionMap<Thread>& thrd_perms() const { return thrd_perms_; }
  const PermissionMap<Endpoint>& edpt_perms() const { return edpt_perms_; }
  const std::deque<ThrdPtr>& run_queue() const { return run_queue_; }

  // All threads owned by `c` or any container in its subtree — the paper's
  // T_A construction, non-recursive thanks to the subtree ghost set.
  SpecSet<ThrdPtr> SubtreeThreads(CtnrPtr c) const;
  // All processes owned by `c` or its subtree (P_A).
  SpecSet<ProcPtr> SubtreeProcs(CtnrPtr c) const;
  // All containers in `c`'s subtree including `c` itself (C_A).
  SpecSet<CtnrPtr> SubtreeContainers(CtnrPtr c) const;

  // Pages backing the objects this subsystem owns (§4.2 page_closure).
  SpecSet<PagePtr> PageClosure() const;

  // Drains this subsystem's mutation logs (object permissions + scheduler)
  // into `out` for incremental abstraction.
  void DrainDirty(DirtySet* out);

  // Deep copy for the verification harness, with empty mutation logs.
  ProcessManager CloneForVerification() const;

  // Creates an empty manager; only Boot() produces a usable one. Public so
  // aggregates (Kernel) can default-construct before boot.
  ProcessManager() = default;

 private:
  // Allocates + charges one object page; refunds on failure.
  std::optional<PageAlloc> AllocObjectPage(PageAllocator* alloc, CtnrPtr charge_to,
                                           ProcError* error);
  void FreeObjectPage(PageAllocator* alloc, CtnrPtr charged_to, PagePtr page, FramePerm perm);
  void DequeueRunnable(ThrdPtr thrd);

  CtnrPtr root_container_ = kNullPtr;
  std::uint64_t initial_quota_ = 0;
  PermissionMap<Container> cntr_perms_;
  PermissionMap<Process> proc_perms_;
  PermissionMap<Thread> thrd_perms_;
  PermissionMap<Endpoint> edpt_perms_;

  std::deque<ThrdPtr> run_queue_;
  ThrdPtr current_ = kNullPtr;
  // Set whenever run_queue_ or current_ changes (incremental abstraction).
  bool sched_dirty_ = false;
};

}  // namespace atmo

#endif  // ATMO_SRC_PROC_PROCESS_MANAGER_H_
