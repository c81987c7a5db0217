// System-call interface of the Atmosphere microkernel (§3).
//
// A syscall is a plain record (modelling the register file at kernel entry).
// Kernel::Step(thread, syscall) executes one invocation atomically under the
// big lock. Failure is atomic: any return other than kOk/kBlocked leaves the
// abstract kernel state unchanged — the per-syscall specifications in
// src/spec assert exactly that.

#ifndef ATMO_SRC_CORE_SYSCALL_H_
#define ATMO_SRC_CORE_SYSCALL_H_

#include <cstddef>
#include <cstdint>
#include <iterator>

#include "src/ipc/message.h"
#include "src/vstd/types.h"

namespace atmo {

// The rendezvous IPC ops' shared profile: everything a delivered payload can
// reach, except process structure.
#define ATMO_FRAME_IPC                                                                     \
  (.threads = true, .containers = true, .endpoints = true, .address_spaces = true,         \
   .pages = true, .free_sets = true, .iommu = true, .scheduler = true)

// The syscall table: one row per operation, in enumerator order.
//
//   X(op, "name", ring_submittable, returns_object, (frame profile))
//
//   op                the SysOp enumerator.
//   "name"            SysOpName (spec-failure messages, bench keys); the
//                     trace label is "sys." "name", so the two cannot differ.
//   ring_submittable  may be deferred onto a syscall ring by kRingSubmit
//                     (src/core/syscall_ring.h). Excluded, deliberately:
//                     blocking IPC (a CQ entry cannot represent a thread
//                     parked on an endpoint); kYield (the batch already runs
//                     with the owner on the CPU); kExit and the kills (they
//                     could remove the draining thread or the ring's owner
//                     mid-batch); ring ops themselves (no nesting).
//   returns_object    the return value is a fresh kernel address, whose value
//                     depends on allocator placement — a channel the paper's
//                     model excludes by construction (cf. Hyperkernel's
//                     caller-chosen handles). The noninterference harness
//                     compares such values as "created vs not created" only.
//   frame profile     designated initializers of the FrameProfile naming the
//                     components of Ψ the op may change on any outcome;
//                     expanded only in src/spec/frame_profile.h, which holds
//                     the derivation notes shared by many rows.
//
// Adding a syscall is one row here plus one arm in Kernel::Exec and one in
// SyscallSpec; -Werror=switch and -Werror=switch-enum make a missing arm a
// compile error.
#define ATMO_SYSOPS(X)                                                                     \
  X(kYield, "yield", false, false, (.threads = true, .scheduler = true))                   \
  /* map fresh pages into the caller's address space */                                   \
  X(kMmap, "mmap", true, false,                                                            \
    (.containers = true, .address_spaces = true, .pages = true, .free_sets = true))        \
  /* remove mappings from the caller's address space */                                   \
  X(kMunmap, "munmap", true, false,                                                        \
    (.containers = true, .address_spaces = true, .pages = true, .free_sets = true))        \
  /* child container of the caller's container */                                         \
  X(kNewContainer, "new_container", true, true,                                            \
    (.containers = true, .pages = true, .free_sets = true))                                \
  /* child process of the caller's process */                                             \
  X(kNewProcess, "new_process", true, true,                                                \
    (.containers = true, .procs = true, .address_spaces = true, .pages = true,             \
     .free_sets = true))                                                                   \
  /* thread in the caller's (or a same-container) process */                              \
  X(kNewThread, "new_thread", true, true,                                                  \
    (.threads = true, .containers = true, .procs = true, .pages = true,                    \
     .free_sets = true, .scheduler = true))                                                \
  /* endpoint bound to a caller descriptor slot */                                        \
  X(kNewEndpoint, "new_endpoint", true, true,                                              \
    (.threads = true, .containers = true, .endpoints = true, .pages = true,                \
     .free_sets = true))                                                                   \
  /* drop a caller descriptor (frees the endpoint at zero) */                             \
  X(kUnbindEndpoint, "unbind_endpoint", true, false,                                       \
    (.threads = true, .containers = true, .endpoints = true, .pages = true,                \
     .free_sets = true))                                                                   \
  /* Rendezvous IPC: send (blocks if no receiver), receive (blocks if no                  \
     sender), send then block for the reply, reply to the thread that called us. */       \
  X(kSend, "send", false, false, ATMO_FRAME_IPC)                                           \
  X(kRecv, "recv", false, false, ATMO_FRAME_IPC)                                           \
  X(kCall, "call", false, false, ATMO_FRAME_IPC)                                           \
  X(kReply, "reply", false, false, ATMO_FRAME_IPC)                                         \
  /* terminate the calling thread */                                                      \
  X(kExit, "exit", false, false,                                                           \
    (.threads = true, .containers = true, .procs = true, .endpoints = true,                \
     .pages = true, .free_sets = true, .scheduler = true))                                 \
  /* terminate a descendant process subtree */                                            \
  X(kKillProcess, "kill_process", false, false,                                            \
    (.threads = true, .containers = true, .procs = true, .endpoints = true,                \
     .address_spaces = true, .pages = true, .free_sets = true, .scheduler = true))         \
  /* terminate a descendant container subtree, harvest */                                 \
  X(kKillContainer, "kill_container", false, false,                                        \
    (.threads = true, .containers = true, .procs = true, .endpoints = true,                \
     .address_spaces = true, .pages = true, .free_sets = true, .iommu = true,              \
     .scheduler = true))                                                                   \
  X(kIommuCreateDomain, "iommu_create_domain", true, true,                                 \
    (.containers = true, .pages = true, .free_sets = true, .iommu = true))                 \
  X(kIommuAttachDevice, "iommu_attach_device", true, false, (.iommu = true))               \
  X(kIommuDetachDevice, "iommu_detach_device", true, false, (.iommu = true))               \
  X(kIommuMapDma, "iommu_map_dma", true, false,                                            \
    (.containers = true, .pages = true, .free_sets = true, .iommu = true))                 \
  X(kIommuUnmapDma, "iommu_unmap_dma", true, false,                                        \
    (.containers = true, .pages = true, .free_sets = true, .iommu = true))                 \
  /* Create a submission/completion ring owned by the caller. The fresh ring             \
     id is global-counter shaped, so it counts as an object pointer. */                   \
  X(kRingSetup, "ring_setup", false, true, (.rings = true))                                \
  /* enqueue one deferred syscall onto a ring's SQ */                                     \
  X(kRingSubmit, "ring_submit", false, false, (.rings = true))                             \
  /* Drain the SQ: execute entries back-to-back, fill the CQ. One checked                 \
     transition covers a whole drained batch, so the profile is the union of             \
     every submittable op's profile (everything but the scheduler-only bits              \
     kNewThread already brings in) plus the ring itself. This width is the               \
     amortization tradeoff: per-entry tightness is recovered by the                      \
     differential oracle (tests/ring_batch_differential_test.cc). */                      \
  X(kRingEnter, "ring_enter", false, false,                                                \
    (.threads = true, .containers = true, .procs = true, .endpoints = true,                \
     .address_spaces = true, .pages = true, .free_sets = true, .iommu = true,              \
     .rings = true, .scheduler = true))                                                    \
  /* Return a borrowed page (va_range.base = borrower VA): borrower unmap +               \
     lender rights restore, i.e. two address spaces and the page's borrow                 \
     relabeling. The lender still maps the frame, so the return can never                \
     release it — no container charge or free-set edge. */                               \
  X(kGrantReturn, "grant_return", true, false, (.address_spaces = true, .pages = true))    \
  /* Snapshot the caller's obs counters into a writable page (va_range.base =             \
     destination VA, must be a mapping base). Not submittable: a deferred                 \
     query would report counters as of an unpredictable drain point, which                \
     defeats its purpose and would entangle the ring spec with observability              \
     state. Returns sizeof(ObsQueryRecord), a constant. Its profile is the                \
     tightest in the table: the snapshot lands in page byte contents, which Ψ             \
     does not model, so at abstract level the syscall touches nothing at all. */         \
  X(kObsQuery, "obs_query", false, false, ())

enum class SysOp : std::uint8_t {
#define ATMO_SYSOP_ENUMERATOR(op, ...) op,
  ATMO_SYSOPS(ATMO_SYSOP_ENUMERATOR)
#undef ATMO_SYSOP_ENUMERATOR
};

// The table's data columns; FrameProfileFor (src/spec/frame_profile.h) is the
// fifth. Indexed by the enumerator value.
struct SysOpRow {
  const char* name;
  const char* trace_label;
  bool ring_submittable;
  bool returns_object;
};

inline constexpr SysOpRow kSysOpRows[] = {
#define ATMO_SYSOP_ROW(op, name, ring_submittable, returns_object, frame) \
  {name, "sys." name, ring_submittable, returns_object},
    ATMO_SYSOPS(ATMO_SYSOP_ROW)
#undef ATMO_SYSOP_ROW
};

inline constexpr std::size_t kSysOpCount = std::size(kSysOpRows);

// The answers for a value outside the enumeration: the op arrives in a
// register, so a hostile caller can name any byte.
inline constexpr SysOpRow kUnknownSysOpRow = {"?", "sys.unknown", false, false};

constexpr const SysOpRow& SysOpRowOf(SysOp op) {
  auto index = static_cast<std::size_t>(op);
  return index < kSysOpCount ? kSysOpRows[index] : kUnknownSysOpRow;
}

constexpr const char* SysOpName(SysOp op) { return SysOpRowOf(op).name; }

// Span name for the syscall-level trace events around Kernel::Step and
// RefinementChecker::Step; the "sys." prefix keeps per-op spans greppable in
// a mixed trace.
constexpr const char* SysOpTraceLabel(SysOp op) { return SysOpRowOf(op).trace_label; }

constexpr bool RingSubmittable(SysOp op) { return SysOpRowOf(op).ring_submittable; }

constexpr bool ReturnsObjectPointer(SysOp op) { return SysOpRowOf(op).returns_object; }

// Record layout kObsQuery writes at the destination VA. Plain u64 words so
// user code (and the differential test) can read it back with HwReadBytes
// without any packing concerns. The snapshot is advisory telemetry — it is
// *about* the kernel, not part of Ψ, which is exactly why ObsQuerySpec can
// demand Ψ' == Ψ (the abstraction carries no memory byte contents).
struct ObsQueryRecord {
  std::uint64_t magic = 0;            // kObsQueryMagic
  std::uint64_t version = 0;          // kObsQueryVersion
  std::uint64_t mapped_pages = 0;     // mappings in the caller's address space
  std::uint64_t borrows_lent = 0;     // outstanding loans where caller is lender
  std::uint64_t borrows_held = 0;     // outstanding loans where caller is borrower
  std::uint64_t ring_sq_depth = 0;    // queued submissions across caller-owned rings
  std::uint64_t ring_cq_depth = 0;    // unreaped completions across caller-owned rings
  std::uint64_t dropped_samples = 0;  // trace requests the obs sampler declined

  friend bool operator==(const ObsQueryRecord&, const ObsQueryRecord&) = default;
};

inline constexpr std::uint64_t kObsQueryMagic = 0x4154'4d4f'4f42'5351ull;  // "ATMOOBSQ"
inline constexpr std::uint64_t kObsQueryVersion = 1;

// Contiguous virtual range of `count` pages of uniform size (VaRange4K in
// the paper generalized over page sizes).
struct VaRange {
  VAddr base = 0;
  std::uint64_t count = 0;
  PageSize size = PageSize::k4K;

  std::uint64_t bytes() const { return count * PageBytes(size); }
  VAddr At(std::uint64_t i) const { return base + i * PageBytes(size); }

  friend bool operator==(const VaRange&, const VaRange&) = default;
};

// Upper bound on pages per mmap/munmap — keeps single syscalls short under
// the big lock (the paper's §4.3 discussion notes long-running calls leak
// timing; bounding region size is the fix it proposes).
inline constexpr std::uint64_t kMaxMmapCount = 512;

struct Syscall {
  SysOp op = SysOp::kYield;

  // kMmap / kMunmap
  VaRange va_range;
  MapEntryPerm map_perm;

  // kNewContainer
  std::uint64_t quota = 0;
  std::uint64_t cpu_mask = ~0ull;

  // kNewThread (target process; kNullPtr = caller's process),
  // kKillProcess / kKillContainer (target object)
  Ptr target = kNullPtr;

  // IPC: descriptor index and payload. Grant fields are interpreted on the
  // sender side: PageGrant.page is the *sender virtual address* of the page
  // to grant; EndpointGrant.endpoint is the *sender descriptor index* to
  // delegate. The kernel resolves them to physical object pointers during
  // the transfer.
  EdptIdx edpt_idx = 0;
  IpcPayload payload;

  // IOMMU ops.
  std::uint64_t iommu_domain = 0;
  std::uint32_t device = 0;
  VAddr iova = 0;
  VAddr dma_va = 0;  // caller VA of the page to expose to the device

  // Syscall rings (kRingSetup / kRingSubmit / kRingEnter). A submitted entry
  // reuses this same register file for the deferred call's arguments:
  // `ring_op` names the inner op and the kernel rewrites `op := ring_op`
  // (clearing the ring fields) when the entry is drained — see
  // RingInnerCall() in src/core/syscall_ring.h.
  std::uint64_t ring_id = 0;        // kRingSubmit / kRingEnter: target ring
  std::uint32_t ring_entries = 0;   // kRingSetup: SQ/CQ capacity (power of two)
  std::uint32_t ring_flags = 0;     // kRingSetup: RingFlags bits
  SysOp ring_op = SysOp::kYield;    // kRingSubmit: the deferred op
  std::uint64_t ring_user_data = 0; // kRingSubmit: echoed in the completion
  std::uint32_t ring_budget = 0;    // kRingEnter: max entries (0 = no limit)

  friend bool operator==(const Syscall&, const Syscall&) = default;
};

// Syscall outcomes, one row per error code in enumerator order:
// X(error, "name").
#define ATMO_SYSERRORS(X)                                               \
  X(kOk, "ok")                                                          \
  /* the caller blocked; result delivered on wake-up */                 \
  X(kBlocked, "blocked")                                                \
  /* physical memory exhausted */                                       \
  X(kNoMemory, "no-memory")                                             \
  /* container reservation exhausted */                                 \
  X(kQuotaExceeded, "quota-exceeded")                                   \
  /* a bounded kernel structure is full */                              \
  X(kCapacity, "capacity")                                              \
  /* malformed arguments / dangling handle */                           \
  X(kInvalid, "invalid")                                                \
  /* caller lacks authority over the target */                          \
  X(kDenied, "denied")                                                  \
  /* transfer could not be applied to the peer */                       \
  X(kWouldFault, "would-fault")

enum class SysError : std::uint8_t {
#define ATMO_SYSERROR_ENUMERATOR(error, name) error,
  ATMO_SYSERRORS(ATMO_SYSERROR_ENUMERATOR)
#undef ATMO_SYSERROR_ENUMERATOR
};

inline constexpr const char* kSysErrorNames[] = {
#define ATMO_SYSERROR_NAME(error, name) name,
    ATMO_SYSERRORS(ATMO_SYSERROR_NAME)
#undef ATMO_SYSERROR_NAME
};

inline constexpr std::size_t kSysErrorCount = std::size(kSysErrorNames);

constexpr const char* SysErrorName(SysError error) {
  auto index = static_cast<std::size_t>(error);
  return index < kSysErrorCount ? kSysErrorNames[index] : "?";
}

struct SyscallRet {
  SysError error = SysError::kOk;
  std::uint64_t value = 0;  // created object pointer / domain id / count

  bool ok() const { return error == SysError::kOk; }
  friend bool operator==(const SyscallRet&, const SyscallRet&) = default;
};

}  // namespace atmo

#endif  // ATMO_SRC_CORE_SYSCALL_H_
