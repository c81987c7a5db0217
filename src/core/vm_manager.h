// Virtual-memory management: per-process address spaces.
//
// The subsystem owns the memory of all page tables (§4.2) and, flatly, the
// frame permissions of every *mapped* user page. The map-count bookkeeping
// in the page allocator is the authority on sharing; this subsystem holds
// each mapped frame's linear permission until the last unmapping returns it
// to the allocator. `tables_` is the only proc -> table record, and each
// table's mapping store is the only record of its address space.

#ifndef ATMO_SRC_CORE_VM_MANAGER_H_
#define ATMO_SRC_CORE_VM_MANAGER_H_

#include <map>
#include <optional>
#include <set>
#include <unordered_map>

#include "src/hw/mmu.h"
#include "src/hw/phys_mem.h"
#include "src/pagetable/page_table.h"
#include "src/pmem/page_allocator.h"
#include "src/vstd/dirty_set.h"
#include "src/vstd/spec_map.h"
#include "src/vstd/spec_set.h"
#include "src/vstd/types.h"

namespace atmo {

class VmManager {
 public:
  explicit VmManager(PhysMem* mem) : mem_(mem) {}

  VmManager(VmManager&&) noexcept = default;
  VmManager& operator=(VmManager&&) noexcept = default;

  // Address-space lifecycle. Creation allocates the root table node
  // (charged to `owner` at the allocator level; quota is the kernel's job).
  bool CreateAddressSpace(PageAllocator* alloc, ProcPtr proc, CtnrPtr owner);
  // Unmaps every remaining mapping (releasing frames whose map count drops
  // to zero) and frees the table nodes. Returns the number of table node
  // pages freed and, via `released`, the set of user frames freed with the
  // 4K-frame count each released page uncharges from its owner.
  struct DestroyStats {
    std::uint64_t table_nodes = 0;
    // (owner container at release time, frames released) aggregated.
    std::map<CtnrPtr, std::uint64_t> released_frames;
  };
  DestroyStats DestroyAddressSpace(PageAllocator* alloc, ProcPtr proc);

  bool HasAddressSpace(ProcPtr proc) const { return tables_.count(proc) != 0; }
  const PageTable& TableOf(ProcPtr proc) const;
  SpecMap<VAddr, MapEntry> AddressSpaceOf(ProcPtr proc) const;
  std::optional<MapEntry> Resolve(ProcPtr proc, VAddr va) const;

  // Number of fresh table nodes a Map of `va` would allocate (exact, by
  // simulating the descent). Used for exact quota pre-charging.
  std::uint64_t NodesNeededFor(ProcPtr proc, VAddr va, PageSize size) const;

  // Maps a freshly allocated page (already in allocated state, permission
  // passed in) at `va`; transitions it to mapped. The caller has verified
  // va is free and nodes are available, so this cannot fail.
  void MapFreshPage(PageAllocator* alloc, ProcPtr proc, VAddr va, PageAlloc page,
                    MapEntryPerm perm);
  // Maps an already-mapped page into another (or the same) address space —
  // sharing via IPC page grant. Increments the map count.
  MapError MapSharedPage(PageAllocator* alloc, ProcPtr proc, VAddr va, PagePtr page,
                         PageSize size, MapEntryPerm perm);
  // Unmaps `va`. If the frame's map count drops to zero the frame is
  // returned to the allocator and `released_owner`/`released_frames` are
  // set so the kernel can uncharge the owning container. Unmapping either
  // side of a live borrow ends the borrow: the borrower side restores the
  // lender's original rights, the lender side merely drops the record (the
  // borrower keeps an ordinary read-only shared mapping).
  struct UnmapResult {
    MapEntry entry;
    bool released = false;
    CtnrPtr released_owner = kNullPtr;
    std::uint64_t released_frames = 0;
  };
  std::optional<UnmapResult> Unmap(PageAllocator* alloc, ProcPtr proc, VAddr va);

  // --- Read-only page borrows (IPC kBorrow grants; DESIGN.md §15) ---
  // A live borrow: the lender kept a read-only downgrade of its mapping,
  // the borrower holds a read-only view installed by the grant. Exactly one
  // record per page (borrows are exclusive), keyed by the physical page.
  struct BorrowRecord {
    ProcPtr lender = kNullPtr;
    VAddr lender_va = 0;
    MapEntryPerm lender_perm;  // original rights, restored at revocation
    ProcPtr borrower = kNullPtr;
    VAddr borrower_va = 0;
    PageSize size = PageSize::k4K;

    friend bool operator==(const BorrowRecord&, const BorrowRecord&) = default;
  };
  bool IsBorrowed(PagePtr page) const { return borrows_.count(page) != 0; }
  const BorrowRecord* BorrowOf(PagePtr page) const;
  const std::map<PagePtr, BorrowRecord>& borrows() const { return borrows_; }

  // Rewrites the rights of an existing mapping in place. Allocation-free:
  // Unmap retains intermediate table nodes, so the remap at the same VA
  // allocates no nodes and the map count is untouched.
  void UpdatePerm(PageAllocator* alloc, ProcPtr proc, VAddr va, MapEntryPerm perm);

  // Establishes a borrow of `page`: downgrades the lender's mapping at
  // `lender_va` to read-only (recording the original rights) and registers
  // the record. The borrower's read-only mapping must already be installed
  // (MapSharedPage); the page must not already be borrowed.
  void BeginBorrow(PageAllocator* alloc, PagePtr page, ProcPtr lender, VAddr lender_va,
                   ProcPtr borrower, VAddr borrower_va, PageSize size);

  // Releases a frame whose last reference was a device (IOMMU) pin: no CPU
  // mapping remains and the map count has reached zero. Returns the held
  // permission to the allocator.
  // averif-lint: allow(dirty-log) — the only abstract-state change is the
  // page's return to the free lists, which ReclaimUnmapped records in the
  // allocator's own dirty log; frame_perms_ is concrete bookkeeping with no
  // Ψ component of its own (no (proc, va) mapping changes here).
  void ReclaimDevicePinnedFrame(PageAllocator* alloc, PagePtr page);

  // --- Ghost / invariants ---
  // Pages used by the page tables themselves (page_closure of this
  // subsystem; mapped user frames are owned by the address spaces and
  // accounted separately).
  SpecSet<PagePtr> PageClosure() const;
  // Held user-frame permissions. Their domain must equal the allocator's
  // mapped set, which Kernel::MemorySafetyWf checks.
  bool HoldsFrame(PagePtr page) const { return frame_perms_.count(page) != 0; }
  std::size_t HeldFrameCount() const { return frame_perms_.size(); }
  // Every table is structurally well-formed, every mapping targets a
  // mapped frame, and every borrow record matches its two mappings. Held
  // frames == mapped pages and exact map counts (CPU + IOMMU references)
  // are global: Kernel::MemorySafetyWf.
  bool Wf(const PhysMem& mem, const PageAllocator& alloc) const;

  const std::map<ProcPtr, PageTable>& tables() const { return tables_; }

  // Drains the set of processes whose abstract address space may have
  // changed since the last drain (incremental abstraction). Released user
  // frames are tracked by the page allocator's own dirty log.
  void DrainDirtyInto(std::set<ProcPtr>* out, bool* overflow) { dirty_.DrainInto(out, overflow); }

  VmManager CloneForVerification(PhysMem* mem) const;
  // Pooled clone: overwrite `out` in place, reusing its table map nodes
  // and per-table storage (DESIGN.md §14).
  void CloneForVerificationInto(VmManager* out, PhysMem* mem) const;

 private:
  friend struct VmManagerTestPeer;

  // Table lookup used by every syscall; nullptr when absent.
  PageTable* FindTable(ProcPtr proc);
  const PageTable* FindTable(ProcPtr proc) const;

  PhysMem* mem_;
  // One table per process. Ordered, so ProcPtr-keyed iteration is
  // deterministic; a lookup is O(log processes).
  std::map<ProcPtr, PageTable> tables_;
  // Flat: all mapped user frames. Hashed — only ever probed by frame base.
  std::unordered_map<PagePtr, FramePerm> frame_perms_;
  // Live read-only borrows, one per page. Every entry matches two live
  // mappings (Wf cross-checks both sides); Unmap drops/revokes records so
  // they can never dangle.
  std::map<PagePtr, BorrowRecord> borrows_;
  DirtyLog dirty_;
};

}  // namespace atmo

#endif  // ATMO_SRC_CORE_VM_MANAGER_H_
