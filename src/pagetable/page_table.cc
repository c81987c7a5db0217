#include "src/pagetable/page_table.h"

#include <array>
#include <utility>

#include "src/vstd/check.h"

namespace atmo {

namespace {

// Bytes covered by one entry of a node at `level` (level 1 entry = 4K page).
constexpr std::uint64_t EntrySpan(int level) {
  return 1ull << (12 + 9 * (level - 1));
}

// Leaf level for a mapping of the given size.
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

PtNodeEntries ReadPtNode(const PhysMem& mem, PAddr node) {
  static constexpr std::array<std::uint64_t, kPtEntriesPerNode> kUntouched{};
  ATMO_CHECK(node % kPageSize4K == 0, "page-table node not frame-aligned");
  const std::uint8_t* frame = mem.HwFrameSpanIfTouched(node / kPageSize4K);
  if (frame == nullptr) {
    return PtNodeEntries(kUntouched);
  }
  // The frame's backing store is an array of u64 words: no aliasing.
  return PtNodeEntries(reinterpret_cast<const std::uint64_t*>(frame), kPtEntriesPerNode);
}

const char* MapErrorName(MapError error) {
  switch (error) {
    case MapError::kOk:
      return "ok";
    case MapError::kAlreadyMapped:
      return "already-mapped";
    case MapError::kConflict:
      return "conflict";
    case MapError::kOutOfMemory:
      return "out-of-memory";
    case MapError::kMisaligned:
      return "misaligned";
    case MapError::kNotMapped:
      return "not-mapped";
  }
  return "?";
}

PageTable::PageTable(PhysMem* mem, PAddr cr3, FramePerm root_perm, CtnrPtr owner)
    : mem_(mem), cr3_(cr3), owner_(owner) {
  mem_->ZeroPage(root_perm);
  // averif-lint: allow(hot-path-alloc) — page-table construction (root node) happens at address-space creation — control plane
  node_perms_.emplace(cr3, std::move(root_perm));
  node_info_.set(cr3, PtNodeInfo{.level = 4, .va_base = 0});
}

std::optional<PageTable> PageTable::New(PhysMem* mem, PageAllocator* alloc, CtnrPtr owner) {
  std::optional<PageAlloc> root = alloc->AllocPage4K(owner);
  if (!root.has_value()) {
    return std::nullopt;
  }
  return PageTable(mem, root->ptr, std::move(root->perm), owner);
}

std::uint64_t PageTable::ReadEntry(PAddr node, std::uint64_t index) const {
  auto it = node_perms_.find(node);
  ATMO_CHECK(it != node_perms_.end(), "page-table read of unowned node");
  return mem_->ReadU64(it->second, node + index * 8);
}

void PageTable::WriteEntry(PAddr node, std::uint64_t index, std::uint64_t pte) {
  auto it = node_perms_.find(node);
  ATMO_CHECK(it != node_perms_.end(), "page-table write of unowned node");
  mem_->WriteU64(it->second, node + index * 8, pte);
  if (write_observer_) {
    write_observer_();
  }
}

std::optional<PAddr> PageTable::EnsureChild(PageAllocator* alloc, PAddr node,
                                            std::uint64_t index, int child_level,
                                            VAddr child_base) {
  std::uint64_t pte = ReadEntry(node, index);
  if ((pte & kPtePresent) != 0) {
    return pte & kPteAddrMask;
  }
  std::optional<PageAlloc> page = alloc->AllocPage4K(owner_);
  if (!page.has_value()) {
    return std::nullopt;
  }
  mem_->ZeroPage(page->perm);
  PAddr child = page->ptr;
  // averif-lint: allow(hot-path-alloc) — allocates only when an intermediate node is first needed; steady-state walks hit existing nodes
  node_perms_.emplace(child, std::move(page->perm));
  node_info_.set(child, PtNodeInfo{.level = child_level, .va_base = child_base});
  // Intermediate entries carry maximal rights; effective rights come from
  // the leaf (the MMU intersects along the walk).
  MapEntryPerm wide{.writable = true, .user = true, .no_execute = false};
  WriteEntry(node, index, MakePte(child, wide, /*leaf_superpage=*/false));
  return child;
}

MapError PageTable::Map(PageAllocator* alloc, VAddr va, PAddr pa, PageSize size,
                        MapEntryPerm perm) {
  std::uint64_t bytes = PageBytes(size);
  if (va % bytes != 0 || pa % bytes != 0) {
    return MapError::kMisaligned;
  }
  if (VaIndex(va, 4) >= kPtEntriesPerNode) {
    return MapError::kMisaligned;  // beyond the modelled 48-bit space
  }

  int leaf = LeafLevel(size);
  PAddr node = cr3_;
  for (int level = 4; level > leaf; --level) {
    std::uint64_t index = VaIndex(va, level);
    std::uint64_t pte = ReadEntry(node, index);
    if ((pte & kPtePresent) != 0 && (pte & kPtePageSize) != 0) {
      return MapError::kConflict;  // an existing superpage covers this range
    }
    VAddr child_base = (va / (EntrySpan(level - 1) * kPtEntriesPerNode)) *
                       (EntrySpan(level - 1) * kPtEntriesPerNode);
    std::optional<PAddr> child = EnsureChild(alloc, node, index, level - 1, child_base);
    if (!child.has_value()) {
      return MapError::kOutOfMemory;
    }
    node = *child;
  }

  std::uint64_t leaf_index = VaIndex(va, leaf);
  std::uint64_t existing = ReadEntry(node, leaf_index);
  if ((existing & kPtePresent) != 0) {
    // At superpage levels a present non-PS entry is a child table: conflict.
    if (leaf > 1 && (existing & kPtePageSize) == 0) {
      return MapError::kConflict;
    }
    return MapError::kAlreadyMapped;
  }

  WriteEntry(node, leaf_index, MakePte(pa, perm, /*leaf_superpage=*/leaf > 1));
  mappings_.set(va, MapEntry{.addr = pa, .size = size, .perm = perm});
  return MapError::kOk;
}

MapError PageTable::CanMap(VAddr va, PageSize size) const {
  std::uint64_t bytes = PageBytes(size);
  if (va % bytes != 0 || VaIndex(va, 4) >= kPtEntriesPerNode) {
    return MapError::kMisaligned;
  }
  int leaf = LeafLevel(size);
  PAddr node = cr3_;
  for (int level = 4; level > leaf; --level) {
    std::uint64_t pte = mem_->HwReadU64(node + VaIndex(va, level) * 8);
    if ((pte & kPtePresent) == 0) {
      return MapError::kOk;  // chain absent from here: fresh nodes suffice
    }
    if ((pte & kPtePageSize) != 0) {
      return MapError::kConflict;
    }
    node = pte & kPteAddrMask;
  }
  std::uint64_t existing = mem_->HwReadU64(node + VaIndex(va, leaf) * 8);
  if ((existing & kPtePresent) != 0) {
    if (leaf > 1 && (existing & kPtePageSize) == 0) {
      return MapError::kConflict;
    }
    return MapError::kAlreadyMapped;
  }
  return MapError::kOk;
}

std::uint64_t PageTable::FreshNodesFor(VAddr va, PageSize size,
                                       std::set<std::uint64_t>* virtual_nodes) const {
  int leaf = LeafLevel(size);
  PAddr node = cr3_;
  std::uint64_t fresh = 0;
  bool below_fresh = false;
  for (int level = 4; level > leaf; --level) {
    // Key identifying the child node slot this level would descend into.
    std::uint64_t child_span = EntrySpan(level - 1) * kPtEntriesPerNode;
    std::uint64_t key = (static_cast<std::uint64_t>(level - 1) << 52) | (va / child_span);
    if (below_fresh) {
      // averif-lint: allow(hot-path-alloc) — per-call scratch set for fresh-node charge accounting on map ops; bounded by the dynamic AllocProbe gate
      if (virtual_nodes == nullptr || virtual_nodes->insert(key).second) {
        ++fresh;
      }
      continue;
    }
    std::uint64_t pte = mem_->HwReadU64(node + VaIndex(va, level) * 8);
    if ((pte & kPtePresent) == 0) {
      below_fresh = true;
      // averif-lint: allow(hot-path-alloc) — same per-call charge-accounting scratch set
      if (virtual_nodes == nullptr || virtual_nodes->insert(key).second) {
        ++fresh;
      }
    } else {
      node = pte & kPteAddrMask;
    }
  }
  return fresh;
}

std::optional<MapEntry> PageTable::Unmap(VAddr va) {
  const MapEntry* found = mappings_.find(va);
  if (found == nullptr) {
    return std::nullopt;
  }
  MapEntry out = *found;

  int leaf = LeafLevel(out.size);
  PAddr node = cr3_;
  for (int level = 4; level > leaf; --level) {
    std::uint64_t pte = ReadEntry(node, VaIndex(va, level));
    ATMO_CHECK((pte & kPtePresent) != 0 && (pte & kPtePageSize) == 0,
               "ghost map refers to a mapping the concrete table lacks");
    node = pte & kPteAddrMask;
  }
  std::uint64_t leaf_index = VaIndex(va, leaf);
  std::uint64_t pte = ReadEntry(node, leaf_index);
  ATMO_CHECK((pte & kPtePresent) != 0, "ghost map refers to an absent leaf");
  WriteEntry(node, leaf_index, 0);
  mappings_.erase(va);
  return out;
}

std::optional<MapEntry> PageTable::Resolve(VAddr va) const {
  // Resolution through the mapping store; refinement (checked separately)
  // guarantees this equals what the MMU would see. One probe per size
  // class, aligned down to that class's base.
  for (PageSize size : {PageSize::k4K, PageSize::k2M, PageSize::k1G}) {
    if (std::optional<MapEntry> entry = MappingAt(va & ~(PageBytes(size) - 1), size)) {
      return entry;
    }
  }
  return std::nullopt;
}

std::optional<MapEntry> PageTable::MappingAt(VAddr va, PageSize size) const {
  const MapEntry* entry = mappings_.find(va);
  if (entry == nullptr || entry->size != size) {
    return std::nullopt;
  }
  return *entry;
}

SpecSet<PagePtr> PageTable::PageClosure() const {
  SpecSet<PagePtr> out;
  for (const auto& [addr, perm] : node_perms_) {
    out.add(addr);
  }
  return out;
}

bool PageTable::StructureWf(const PhysMem& mem) const {
  // Ghost metadata domain equals the permission map domain, root included.
  if (node_perms_.size() != node_info_.size() || !node_perms_.count(cr3_)) {
    return false;
  }
  if (!node_info_.contains(cr3_) || node_info_.at(cr3_).level != 4 ||
      node_info_.at(cr3_).va_base != 0) {
    return false;
  }

  SpecMap<PAddr, int> ref_count;
  for (const auto& [addr, perm] : node_perms_) {
    if (!node_info_.contains(addr)) {
      return false;
    }
    const PtNodeInfo& info = node_info_.at(addr);
    if (info.level < 1 || info.level > 4) {
      return false;
    }
    bool node_ok = ForEachPresentPte(ReadPtNode(mem, addr), [&](std::uint64_t index,
                                                                std::uint64_t pte) {
      PAddr target = pte & kPteAddrMask;
      bool superpage_leaf = (info.level == 3 || info.level == 2) && (pte & kPtePageSize) != 0;
      if (info.level == 1 || superpage_leaf) {
        // Leaf: alignment by level.
        return target % EntrySpan(info.level) == 0;
      }
      if ((pte & kPtePageSize) != 0) {
        return false;  // PS bit outside PDPT/PD
      }
      // Non-leaf: must reference a registered node of the next level whose
      // va_base matches this slot.
      if (!node_info_.contains(target)) {
        return false;
      }
      const PtNodeInfo& child = node_info_.at(target);
      VAddr slot_base = info.va_base + index * EntrySpan(info.level);
      if (child.level != info.level - 1 || child.va_base != slot_base) {
        return false;
      }
      ref_count.set(target, (ref_count.contains(target) ? ref_count.at(target) : 0) + 1);
      return true;
    });
    if (!node_ok) {
      return false;
    }
  }

  // Acyclicity / tree shape: the root is never referenced; every other node
  // is referenced exactly once.
  if (ref_count.contains(cr3_)) {
    return false;
  }
  for (const auto& [addr, perm] : node_perms_) {
    if (addr == cr3_) {
      continue;
    }
    if (!ref_count.contains(addr) || ref_count.at(addr) != 1) {
      return false;
    }
  }
  return true;
}

void PageTable::Destroy(PageAllocator* alloc) {
  ATMO_CHECK(MappingCount() == 0, "Destroy of page table with live mappings (leak)");
  while (!node_perms_.empty()) {
    auto it = node_perms_.begin();
    PAddr addr = it->first;
    FramePerm perm = std::move(it->second);
    node_perms_.erase(it);
    alloc->FreePage(addr, std::move(perm));
  }
  node_info_ = SpecMap<PAddr, PtNodeInfo>();
  cr3_ = kNullPtr;
}

PageTable PageTable::CloneForVerification(PhysMem* mem) const {
  PageTable out(mem, cr3_, node_perms_.at(cr3_).CloneForVerification(), owner_);
  // The private constructor zeroes the root frame in `mem`; for a clone the
  // caller passes a PhysMem snapshot, so restore is unnecessary only if the
  // snapshot was taken after construction. To keep this safe, copy the root
  // bytes back from our own memory image.
  mem->HwWriteBytes(cr3_, ReadPtNode(*mem_, cr3_).data(), kPageSize4K);
  out.node_perms_.clear();
  for (const auto& [addr, perm] : node_perms_) {
    // averif-lint: allow(hot-path-alloc) — no ring drain runs a fresh clone. The
    // finding's last edge is a may-call: VmManager::CloneForVerificationInto's
    // `perm.CloneForVerification()` copies a FramePerm, a receiver the call graph
    // cannot type, so it links every CloneForVerification, this one included.
    out.node_perms_.emplace(addr, perm.CloneForVerification());
  }
  out.node_info_ = node_info_;
  out.mappings_ = mappings_;
  return out;
}

void PageTable::CloneForVerificationInto(PageTable* out, PhysMem* mem) const {
  out->mem_ = mem;
  out->cr3_ = cr3_;
  out->owner_ = owner_;
  // Sorted merge walk over the node-permission map: overwrite common
  // entries in place (FramePerm move-assign into the reused node), erase
  // stale ones, insert missing ones with a hint. Steady-state reuse
  // performs no node allocations.
  auto dit = out->node_perms_.begin();
  for (const auto& [addr, perm] : node_perms_) {
    while (dit != out->node_perms_.end() && dit->first < addr) {
      dit = out->node_perms_.erase(dit);
    }
    if (dit != out->node_perms_.end() && dit->first == addr) {
      dit->second = perm.CloneForVerification();
      ++dit;
    } else {
      // averif-lint: allow(hot-path-alloc) — emplace_hint refills recycled page-table nodes; allocation only on growth past the pooled high-water mark
      out->node_perms_.emplace_hint(dit, addr, perm.CloneForVerification());
    }
  }
  out->node_perms_.erase(dit, out->node_perms_.end());
  // Persistent spec maps: O(1) root shares.
  out->node_info_ = node_info_;
  out->mappings_ = mappings_;
  out->write_observer_ = nullptr;
}

}  // namespace atmo
