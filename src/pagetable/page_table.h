// 4-level page table with flat permission storage (§6.2).
//
// The concrete page table is a tree of 4 KiB node frames living in simulated
// physical memory — the same bits the MMU walker reads. Following the
// paper's key design choice, the tracked permissions of *all* PML levels are
// stored in one flat map at the page-table root, together with per-node
// ghost metadata (level + virtual-address base). The abstract state is one
// map from mapping base to MapEntry, all page sizes together (an entry
// carries its size, and bases of different sizes cannot collide in a
// well-formed table). It is the table's only mapping store: lookups read
// it, Ψ shares it, and the refinement checkers
// (src/pagetable/refinement.h) compare it against what the MMU resolves.
//
// Page-table updates are modelled write-by-write: every 8-byte store to a
// node can be observed through a write observer, which lets tests check the
// paper's §4.2 consistency property — a step that does not modify a leaf
// entry leaves the abstract address space unchanged, and a step that does
// changes exactly one entry.

#ifndef ATMO_SRC_PAGETABLE_PAGE_TABLE_H_
#define ATMO_SRC_PAGETABLE_PAGE_TABLE_H_

#include <functional>
#include <map>
#include <optional>
#include <set>
#include <span>

#include "src/hw/mmu.h"
#include "src/hw/phys_mem.h"
#include "src/pmem/page_allocator.h"
#include "src/vstd/spec_map.h"
#include "src/vstd/spec_set.h"
#include "src/vstd/types.h"

namespace atmo {

enum class MapError {
  kOk = 0,
  kAlreadyMapped,   // the exact virtual page is already mapped
  kConflict,        // a superpage / table node occupies the slot
  kOutOfMemory,     // could not allocate an intermediate node
  kMisaligned,      // va/pa not aligned to the mapping size
  kNotMapped,       // unmap of an absent mapping
};

const char* MapErrorName(MapError error);

// Ghost metadata for one page-table node (flat storage).
struct PtNodeInfo {
  int level = 0;      // 4 = PML4 (root) ... 1 = PT
  VAddr va_base = 0;  // first virtual address covered by this node

  friend bool operator==(const PtNodeInfo&, const PtNodeInfo&) = default;
};

// The one node reader of every page-table scan (StructureWf and both
// refinement checkers): a node's 512 entries as hardware sees them, read as
// one frame span instead of 512 HwReadU64 calls. An untouched frame reads
// as all-zero, as HwReadU64 reads it. Nodes are frame-aligned by
// construction (a node's FramePerm is minted aligned; an entry's target is
// masked to a frame); ReadPtNode checks it.
using PtNodeEntries = std::span<const std::uint64_t, kPtEntriesPerNode>;
PtNodeEntries ReadPtNode(const PhysMem& mem, PAddr node);

// Entries per 64-byte cache line of a node.
inline constexpr std::uint64_t kPtEntriesPerLine = 8;

// Calls visit(index, pte) for each present entry of a node in index order,
// stopping at the first false; returns whether it ran to the end. Most
// entries are empty, so the scan goes a cache line at a time and skips a
// line none of whose 8 entries has the present bit.
template <typename Visit>
bool ForEachPresentPte(PtNodeEntries entries, Visit visit) {
  for (std::uint64_t line = 0; line < kPtEntriesPerNode; line += kPtEntriesPerLine) {
    const std::uint64_t* pte = entries.data() + line;
    std::uint64_t any = 0;
    for (std::uint64_t i = 0; i < kPtEntriesPerLine; ++i) {
      any |= pte[i];
    }
    if ((any & kPtePresent) == 0) {
      continue;
    }
    for (std::uint64_t i = 0; i < kPtEntriesPerLine; ++i) {
      if ((pte[i] & kPtePresent) != 0 && !visit(line + i, pte[i])) {
        return false;
      }
    }
  }
  return true;
}

class PageTable {
 public:
  // Allocates the root node. Returns nullopt on OOM.
  static std::optional<PageTable> New(PhysMem* mem, PageAllocator* alloc, CtnrPtr owner);

  PageTable(PageTable&&) noexcept = default;
  PageTable& operator=(PageTable&&) noexcept = default;

  PAddr cr3() const { return cr3_; }
  // The container charged for the table: EnsureChild tags every node it
  // allocates with it.
  CtnrPtr owner() const { return owner_; }
  // Re-attributes the table (IOMMU domain delegation and container-kill
  // harvest, IommuManager::SetDomainOwner). Existing node frames keep their
  // allocator owner; the caller moves them and their charge.
  void SetOwner(CtnrPtr owner) { owner_ = owner; }

  // Installs `pa` at `va` with the given size and rights. Allocates
  // intermediate nodes from `alloc` as needed (charged to the table owner).
  MapError Map(PageAllocator* alloc, VAddr va, PAddr pa, PageSize size, MapEntryPerm perm);

  // Dry-run of Map: reports the error Map would return (kOk, kMisaligned,
  // kConflict, kAlreadyMapped) without mutating anything or consulting the
  // allocator (node allocation is handled by the caller's cost accounting).
  MapError CanMap(VAddr va, PageSize size) const;

  // Number of fresh intermediate nodes a Map at `va` would allocate,
  // assuming the nodes in `virtual_nodes` (keys: level * 2^52 | base) have
  // already been "created" by earlier maps of the same batch; newly counted
  // nodes are added to the set. Enables exact batched cost pre-computation.
  // `virtual_nodes` may be null for single-mapping queries (no dedup
  // needed, no allocation on the syscall fast path).
  std::uint64_t FreshNodesFor(VAddr va, PageSize size,
                              std::set<std::uint64_t>* virtual_nodes) const;

  // Removes the mapping at `va` (any size); returns what was mapped.
  // Intermediate nodes are kept (they are reclaimed in Destroy()).
  std::optional<MapEntry> Unmap(VAddr va);

  // Software resolve through the kernel's own view (not the MMU).
  std::optional<MapEntry> Resolve(VAddr va) const;

  // The mapping based exactly at `va`, if it has the given size.
  std::optional<MapEntry> MappingAt(VAddr va, PageSize size) const;

  // --- Ghost state ---
  // The mapping store: the process's abstract address space, keyed by
  // mapping base. Copies share it in O(1).
  const SpecMap<VAddr, MapEntry>& AddressSpace() const { return mappings_; }
  std::size_t MappingCount() const { return mappings_.size(); }

  const std::map<PAddr, FramePerm>& node_perms() const { return node_perms_; }
  const SpecMap<PAddr, PtNodeInfo>& node_info() const { return node_info_; }

  // Pages used by this data structure and everything it owns (§4.2
  // page_closure): the node frames. Mapped target pages are owned by the
  // address space, not the table.
  SpecSet<PagePtr> PageClosure() const;

  // Structural well-formedness: node ghost metadata is consistent, every
  // non-leaf present entry points to exactly one registered child node of
  // the next level, leaves are aligned, and cr3 is the only root. The
  // mapping store is compared with the leaves by the refinement checkers.
  bool StructureWf(const PhysMem& mem) const;

  // Frees every node frame back to the allocator, consuming permissions.
  // All mappings must have been unmapped first (leak freedom: target pages
  // would otherwise lose their accounting).
  void Destroy(PageAllocator* alloc);

  // After-write hook for consistency tests (§4.2). Called after every
  // 8-byte store to a node frame.
  void SetWriteObserver(std::function<void()> observer) { write_observer_ = std::move(observer); }

  // Deep copy for the verification harness; node frames themselves live in
  // PhysMem and are cloned by the harness alongside.
  PageTable CloneForVerification(PhysMem* mem) const;
  // Pooled clone: overwrite `out` (a previously cloned or default-shell
  // table) in place, reusing its node-permission map nodes. `mem` must
  // already hold this table's node frames (the caller clones PhysMem
  // first), so no frame bytes move here.
  void CloneForVerificationInto(PageTable* out, PhysMem* mem) const;
  // Shell for pooled-clone pools: no root, no permissions; only usable as
  // a CloneForVerificationInto destination.
  PageTable() : mem_(nullptr), cr3_(kNullPtr), owner_(kNullPtr) {}

 private:
  friend struct PageTableTestPeer;

  PageTable(PhysMem* mem, PAddr cr3, FramePerm root_perm, CtnrPtr owner);

  std::uint64_t ReadEntry(PAddr node, std::uint64_t index) const;
  void WriteEntry(PAddr node, std::uint64_t index, std::uint64_t pte);

  // Ensures a child node exists at (node, index); returns its address or
  // nullopt on OOM. `child_level` is node's level - 1.
  std::optional<PAddr> EnsureChild(PageAllocator* alloc, PAddr node, std::uint64_t index,
                                   int child_level, VAddr child_base);

  PhysMem* mem_;
  PAddr cr3_;
  CtnrPtr owner_;
  std::map<PAddr, FramePerm> node_perms_;  // flat permission storage
  SpecMap<PAddr, PtNodeInfo> node_info_;   // flat ghost metadata
  SpecMap<VAddr, MapEntry> mappings_;      // mapping base -> entry, every size
  std::function<void()> write_observer_;
};

}  // namespace atmo

#endif  // ATMO_SRC_PAGETABLE_PAGE_TABLE_H_
