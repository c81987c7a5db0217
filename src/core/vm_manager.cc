#include "src/core/vm_manager.h"

#include <utility>
#include <vector>

#include "src/vstd/check.h"

namespace atmo {

namespace {

constexpr int LeafLevel(PageSize size) {
  switch (size) {
    case PageSize::k4K:
      return 1;
    case PageSize::k2M:
      return 2;
    case PageSize::k1G:
      return 3;
  }
  return 1;
}

}  // namespace

PageTable* VmManager::FindTable(ProcPtr proc) {
  auto it = tables_.find(proc);
  return it == tables_.end() ? nullptr : &it->second;
}

const PageTable* VmManager::FindTable(ProcPtr proc) const {
  auto it = tables_.find(proc);
  return it == tables_.end() ? nullptr : &it->second;
}

bool VmManager::CreateAddressSpace(PageAllocator* alloc, ProcPtr proc, CtnrPtr owner) {
  ATMO_CHECK(!HasAddressSpace(proc), "address space already exists for process");
  std::optional<PageTable> table = PageTable::New(mem_, alloc, owner);
  if (!table.has_value()) {
    return false;
  }
  // averif-lint: allow(hot-path-alloc) — address-space creation is a cold spawn-path op
  tables_.emplace(proc, std::move(*table));
  dirty_.Mark(proc);
  return true;
}

VmManager::DestroyStats VmManager::DestroyAddressSpace(PageAllocator* alloc, ProcPtr proc) {
  PageTable* table = FindTable(proc);
  ATMO_CHECK(table != nullptr, "DestroyAddressSpace of unknown process");
  dirty_.Mark(proc);
  DestroyStats stats;

  std::vector<VAddr> vas;
  for (const auto& [va, entry] : table->AddressSpace()) {
    // averif-lint: allow(hot-path-alloc) — address-space teardown is a cold control-plane op
    vas.push_back(va);
  }
  for (VAddr va : vas) {
    std::optional<UnmapResult> result = Unmap(alloc, proc, va);
    ATMO_CHECK(result.has_value(), "address-space teardown failed to unmap");
    if (result->released) {
      stats.released_frames[result->released_owner] += result->released_frames;
    }
  }
  stats.table_nodes = table->PageClosure().size();
  table->Destroy(alloc);
  tables_.erase(proc);
  return stats;
}

const PageTable& VmManager::TableOf(ProcPtr proc) const {
  const PageTable* table = FindTable(proc);
  ATMO_CHECK(table != nullptr, "TableOf unknown process");
  return *table;
}

SpecMap<VAddr, MapEntry> VmManager::AddressSpaceOf(ProcPtr proc) const {
  return TableOf(proc).AddressSpace();
}

std::optional<MapEntry> VmManager::Resolve(ProcPtr proc, VAddr va) const {
  const PageTable* table = FindTable(proc);
  if (table == nullptr) {
    return std::nullopt;
  }
  return table->Resolve(va);
}

std::uint64_t VmManager::NodesNeededFor(ProcPtr proc, VAddr va, PageSize size) const {
  const PageTable& table = TableOf(proc);
  // Simulate the descent against hardware bits: count absent levels.
  int leaf = LeafLevel(size);
  PAddr node = table.cr3();
  std::uint64_t needed = 0;
  for (int level = 4; level > leaf; --level) {
    if (needed > 0) {
      // Everything below the first absent node is absent too.
      ++needed;
      continue;
    }
    std::uint64_t pte = mem_->HwReadU64(node + VaIndex(va, level) * 8);
    if ((pte & kPtePresent) == 0) {
      ++needed;
    } else {
      node = pte & kPteAddrMask;
    }
  }
  return needed;
}

void VmManager::MapFreshPage(PageAllocator* alloc, ProcPtr proc, VAddr va, PageAlloc page,
                             MapEntryPerm perm) {
  PageTable* table = FindTable(proc);
  ATMO_CHECK(table != nullptr, "MapFreshPage into unknown process");
  PageSize size = page.perm.size();
  alloc->MarkMapped(page.ptr);
  MapError err = table->Map(alloc, va, page.ptr, size, perm);
  ATMO_CHECK(err == MapError::kOk, "pre-validated map failed");
  dirty_.Mark(proc);
  // averif-lint: allow(hot-path-alloc) — per-mapping bookkeeping entry, created once per fresh page on a map-management op; bounded by the dynamic AllocProbe gate
  frame_perms_.emplace(page.ptr, std::move(page.perm));
}

MapError VmManager::MapSharedPage(PageAllocator* alloc, ProcPtr proc, VAddr va, PagePtr page,
                                  PageSize size, MapEntryPerm perm) {
  PageTable* table = FindTable(proc);
  if (table == nullptr) {
    return MapError::kNotMapped;
  }
  ATMO_CHECK(alloc->StateOf(page) == PageState::kMapped,
             "MapSharedPage of a page that is not mapped");
  MapError err = table->Map(alloc, va, page, size, perm);
  if (err != MapError::kOk) {
    return err;
  }
  dirty_.Mark(proc);
  alloc->IncMapCount(page);
  return MapError::kOk;
}

const VmManager::BorrowRecord* VmManager::BorrowOf(PagePtr page) const {
  auto it = borrows_.find(page);
  return it == borrows_.end() ? nullptr : &it->second;
}

void VmManager::UpdatePerm(PageAllocator* alloc, ProcPtr proc, VAddr va, MapEntryPerm perm) {
  PageTable* table = FindTable(proc);
  ATMO_CHECK(table != nullptr, "UpdatePerm in unknown process");
  std::optional<MapEntry> entry = table->Unmap(va);
  ATMO_CHECK(entry.has_value(), "UpdatePerm of an unmapped address");
  // Re-map at the same VA: every intermediate node survived the Unmap, so
  // this allocates nothing and cannot fail; the map count never moved.
  MapError err = table->Map(alloc, va, entry->addr, entry->size, perm);
  ATMO_CHECK(err == MapError::kOk, "UpdatePerm remap failed");
  dirty_.Mark(proc);
}

void VmManager::BeginBorrow(PageAllocator* alloc, PagePtr page, ProcPtr lender, VAddr lender_va,
                            ProcPtr borrower, VAddr borrower_va, PageSize size) {
  ATMO_CHECK(borrows_.count(page) == 0, "page is already borrowed");
  const PageTable* table = FindTable(lender);
  ATMO_CHECK(table != nullptr, "borrow from unknown lender");
  std::optional<MapEntry> entry = table->Resolve(lender_va);
  ATMO_CHECK(entry.has_value() && entry->addr == page, "borrow source mapping mismatch");
  BorrowRecord rec;
  rec.lender = lender;
  rec.lender_va = lender_va;
  rec.lender_perm = entry->perm;
  rec.borrower = borrower;
  rec.borrower_va = borrower_va;
  rec.size = size;
  MapEntryPerm ro = entry->perm;
  ro.writable = false;
  UpdatePerm(alloc, lender, lender_va, ro);
  // averif-lint: allow(hot-path-alloc) — per-grant bookkeeping entry; grant setup is control plane for the zero-copy data path, which itself stays allocation-free
  borrows_.emplace(page, rec);
  // Ψ's per-page borrow fields piggyback on the allocator dirty log: the
  // grant that called us just ran IncMapCount(page), which marked the page.
}

std::optional<VmManager::UnmapResult> VmManager::Unmap(PageAllocator* alloc, ProcPtr proc,
                                                       VAddr va) {
  PageTable* table = FindTable(proc);
  if (table == nullptr) {
    return std::nullopt;
  }
  std::optional<MapEntry> entry = table->Unmap(va);
  if (!entry.has_value()) {
    return std::nullopt;
  }
  dirty_.Mark(proc);
  UnmapResult result;
  result.entry = *entry;
  PagePtr page = entry->addr;
  // A vanished mapping ends any borrow of the page. The borrower side is a
  // return/revocation: the lender gets its original rights back. The lender
  // side just forgets the record — the borrower's view degenerates into an
  // ordinary read-only shared mapping.
  auto bit = borrows_.find(page);
  if (bit != borrows_.end()) {
    const BorrowRecord rec = bit->second;
    if (proc == rec.borrower && va == rec.borrower_va) {
      borrows_.erase(bit);
      UpdatePerm(alloc, rec.lender, rec.lender_va, rec.lender_perm);
    } else if (proc == rec.lender && va == rec.lender_va) {
      borrows_.erase(bit);
    }
  }
  if (alloc->DecMapCount(page) == 0) {
    result.released = true;
    result.released_owner = alloc->OwnerOf(page);
    result.released_frames = PageFrames4K(entry->size);
    auto perm_it = frame_perms_.find(page);
    ATMO_CHECK(perm_it != frame_perms_.end(), "mapped frame permission missing");
    FramePerm perm = std::move(perm_it->second);
    frame_perms_.erase(perm_it);
    alloc->ReclaimUnmapped(page, std::move(perm));
  }
  return result;
}

// Dirty-log note: the only abstract-state change here is the page's return
// to the free lists, which ReclaimUnmapped records in the allocator's own
// dirty log (waiver on the declaration in vm_manager.h).
void VmManager::ReclaimDevicePinnedFrame(PageAllocator* alloc, PagePtr page) {
  ATMO_CHECK(alloc->MapCount(page) == 0, "reclaim of a frame that is still referenced");
  auto it = frame_perms_.find(page);
  ATMO_CHECK(it != frame_perms_.end(), "device-pinned frame permission missing");
  FramePerm perm = std::move(it->second);
  frame_perms_.erase(it);
  alloc->ReclaimUnmapped(page, std::move(perm));
}

SpecSet<PagePtr> VmManager::PageClosure() const {
  SpecSet<PagePtr> out;
  for (const auto& [proc, table] : tables_) {
    out = out.Union(table.PageClosure());
  }
  return out;
}

bool VmManager::Wf(const PhysMem& mem, const PageAllocator& alloc) const {
  // Per-table structural invariants.
  for (const auto& [proc, table] : tables_) {
    if (!table.StructureWf(mem)) {
      return false;
    }
  }
  // No address space maps a frame that is not in the mapped state. Held
  // frames == mapped pages and exact map-count accounting (CPU + IOMMU
  // references) are checked globally by Kernel::MemorySafetyWf, which sees
  // both subsystems.
  for (const auto& [proc, table] : tables_) {
    for (const auto& [va, entry] : table.AddressSpace()) {
      if (alloc.StateOf(entry.addr) != PageState::kMapped) {
        return false;
      }
    }
  }
  for (const auto& [page, rec] : borrows_) {
    if (!BorrowWf(page, rec, alloc)) {
      return false;
    }
  }
  return true;
}

bool VmManager::BorrowWf(PagePtr page, const BorrowRecord& rec, const PageAllocator& alloc) const {
  // A borrow record matches two live read-only mappings of its page: the
  // lender's downgraded entry and the borrower's view. Unmap drops or
  // revokes records, so a dangling record is a discipline violation.
  if (alloc.StateOf(page) != PageState::kMapped) {
    return false;
  }
  const PageTable* lender = FindTable(rec.lender);
  const PageTable* borrower = FindTable(rec.borrower);
  if (lender == nullptr || borrower == nullptr) {
    return false;
  }
  std::optional<MapEntry> le = lender->Resolve(rec.lender_va);
  std::optional<MapEntry> be = borrower->Resolve(rec.borrower_va);
  if (!le.has_value() || le->addr != page || le->size != rec.size || le->perm.writable) {
    return false;
  }
  return be.has_value() && be->addr == page && be->size == rec.size && !be->perm.writable;
}

VmManager VmManager::CloneForVerification(PhysMem* mem) const {
  VmManager out(mem);
  for (const auto& [proc, table] : tables_) {
    // averif-lint: allow(hot-path-alloc) — reached from ExecBatch only by the kRingDrainAtomic snapshot, an O(state) copy by design that only atomic rings take (TraceGen and tests)
    out.tables_.emplace_hint(out.tables_.end(), proc, table.CloneForVerification(mem));
  }
  for (const auto& [page, perm] : frame_perms_) {
    // averif-lint: allow(hot-path-alloc) — reached from ExecBatch only by the kRingDrainAtomic snapshot, an O(state) copy by design that only atomic rings take (TraceGen and tests)
    out.frame_perms_.emplace(page, perm.CloneForVerification());
  }
  out.borrows_ = borrows_;
  return out;  // with an empty mutation log
}

}  // namespace atmo
