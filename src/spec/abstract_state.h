// Abstract kernel state Ψ (§2, §4).
//
// The microkernel is modelled as a state machine over this structure: plain
// functional maps and sets describing every kernel object, every address
// space, and the allocator's page attribution. Kernel::Abstract() is the
// abstraction function from the concrete, pointer-centric implementation to
// this state; the per-syscall specifications (src/spec/syscall_specs.h)
// relate Ψ before and Ψ' after each step.
//
// Everything here has value semantics and extensional equality, which is
// what lets the harness state the paper's strongest frame condition
// directly: `ret is an error ==> Ψ' == Ψ`.

#ifndef ATMO_SRC_SPEC_ABSTRACT_STATE_H_
#define ATMO_SRC_SPEC_ABSTRACT_STATE_H_

#include <array>
#include <cstdint>

#include "src/core/syscall_ring.h"
#include "src/ipc/message.h"
#include "src/pmem/page_allocator.h"
#include "src/proc/objects.h"
#include "src/vstd/spec_map.h"
#include "src/vstd/spec_seq.h"
#include "src/vstd/spec_set.h"
#include "src/vstd/types.h"

namespace atmo {

struct AbsContainer {
  CtnrPtr parent = kNullPtr;
  SpecSeq<CtnrPtr> children;  // ordered as the concrete list
  std::uint64_t depth = 0;
  SpecSeq<CtnrPtr> path;
  SpecSet<CtnrPtr> subtree;
  std::uint64_t mem_quota = 0;
  std::uint64_t mem_used = 0;
  std::uint64_t cpu_mask = 0;
  SpecSeq<ProcPtr> procs;
  SpecSet<ThrdPtr> threads;

  friend bool operator==(const AbsContainer&, const AbsContainer&) = default;
};

struct AbsProcess {
  CtnrPtr ctnr = kNullPtr;
  ProcPtr parent = kNullPtr;
  SpecSeq<ProcPtr> children;
  SpecSeq<ThrdPtr> threads;

  friend bool operator==(const AbsProcess&, const AbsProcess&) = default;
};

struct AbsThread {
  ProcPtr proc = kNullPtr;
  CtnrPtr ctnr = kNullPtr;
  ThreadState state = ThreadState::kRunnable;
  std::array<EdptPtr, kMaxEdptDescriptors> endpoints{};
  IpcPayload ipc_buf;
  bool has_inbound = false;
  EdptPtr waiting_on = kNullPtr;
  ThrdPtr reply_to = kNullPtr;

  friend bool operator==(const AbsThread&, const AbsThread&) = default;
};

struct AbsEndpoint {
  SpecSeq<ThrdPtr> queue;
  EdptQueueKind queue_kind = EdptQueueKind::kEmpty;
  std::uint64_t rf_count = 0;
  CtnrPtr owner = kNullPtr;

  friend bool operator==(const AbsEndpoint&, const AbsEndpoint&) = default;
};

// Abstract view of a live read-only borrow (an IPC kBorrow grant): page
// ownership is *relabeled* in Ψ — the lender keeps the frame but is marked
// downgraded, the borrower holds a read-only view — with no byte-level copy
// anywhere in the spec (DESIGN.md §15).
struct AbsPageBorrow {
  ProcPtr lender = kNullPtr;
  VAddr lender_va = 0;
  bool lender_writable = false;  // right restored when the borrow ends
  ProcPtr borrower = kNullPtr;
  VAddr borrower_va = 0;

  friend bool operator==(const AbsPageBorrow&, const AbsPageBorrow&) = default;
};

struct AbsPageInfo {
  PageState state = PageState::kFree;
  PageSize size = PageSize::k4K;
  CtnrPtr owner = kNullPtr;
  std::uint32_t map_count = 0;
  bool borrowed = false;  // exactly when `borrow` is meaningful
  AbsPageBorrow borrow;

  friend bool operator==(const AbsPageInfo&, const AbsPageInfo&) = default;
};

struct AbsIommuDomain {
  CtnrPtr owner = kNullPtr;
  SpecMap<VAddr, MapEntry> mappings;
  SpecSet<std::uint32_t> devices;

  friend bool operator==(const AbsIommuDomain&, const AbsIommuDomain&) = default;
};

// A syscall ring's abstract view: the SQ and CQ as plain sequences in FIFO
// order (oldest first) — the concrete head/tail indices and slot layout are
// implementation detail the abstraction erases.
struct AbsSyscallRing {
  ThrdPtr owner = kNullPtr;
  ProcPtr owner_proc = kNullPtr;
  CtnrPtr owner_ctnr = kNullPtr;
  std::uint32_t capacity = 0;
  std::uint32_t flags = 0;
  SpecSeq<RingSqEntry> sq;
  SpecSeq<RingCqEntry> cq;

  friend bool operator==(const AbsSyscallRing&, const AbsSyscallRing&) = default;
};

struct AbstractKernel {
  CtnrPtr root_container = kNullPtr;
  SpecMap<CtnrPtr, AbsContainer> containers;
  SpecMap<ProcPtr, AbsProcess> procs;
  SpecMap<ThrdPtr, AbsThread> threads;
  SpecMap<EdptPtr, AbsEndpoint> endpoints;
  // Per-process abstract address space: a copy of the page table's
  // mapping store (sharing it), proven equal to the MMU's view by the
  // refinement checkers.
  SpecMap<ProcPtr, SpecMap<VAddr, MapEntry>> address_spaces;
  // Allocator view: in-use unit pages (allocated + mapped) and the free
  // sets per size class.
  SpecMap<PagePtr, AbsPageInfo> pages;
  SpecSet<PagePtr> free_pages_4k;
  SpecSet<PagePtr> free_pages_2m;
  SpecSet<PagePtr> free_pages_1g;
  // IOMMU view.
  SpecMap<std::uint64_t, AbsIommuDomain> iommu_domains;
  // Syscall rings.
  SpecMap<std::uint64_t, AbsSyscallRing> rings;
  // Scheduler.
  SpecSeq<ThrdPtr> run_queue;
  ThrdPtr current = kNullPtr;

  friend bool operator==(const AbstractKernel&, const AbstractKernel&) = default;

  // --- Accessors mirroring the paper's notation ---
  const AbsThread& get_thread(ThrdPtr t) const { return threads.at(t); }
  const AbsProcess& get_proc(ProcPtr p) const { return procs.at(p); }
  const AbsContainer& get_cntr(CtnrPtr c) const { return containers.at(c); }
  const AbsEndpoint& get_endpoint(EdptPtr e) const { return endpoints.at(e); }
  const AbsSyscallRing& get_ring(std::uint64_t id) const { return rings.at(id); }
  const SpecMap<VAddr, MapEntry>& get_address_space(ProcPtr p) const {
    return address_spaces.at(p);
  }
  // A page is free when its own base is on a free list of any size class,
  // or when it lies inside a larger free unit (the allocator may service a
  // smaller request by splitting a free 2M/1G unit, so any frame covered by
  // one is as good as free).
  bool page_is_free(PagePtr p) const {
    return free_pages_4k.contains(p) || free_pages_2m.contains(p) ||
           free_pages_1g.contains(p) ||
           free_pages_2m.contains(p & ~(kPageSize2M - 1)) ||
           free_pages_1g.contains(p & ~(kPageSize1G - 1));
  }
};

}  // namespace atmo

#endif  // ATMO_SRC_SPEC_ABSTRACT_STATE_H_
