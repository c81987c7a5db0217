#include "src/pagetable/refinement.h"

#include <sstream>

namespace atmo {

namespace {

constexpr std::uint64_t EntrySpan(int level) {
  return 1ull << (12 + 9 * (level - 1));
}

PageSize LevelSize(int level) {
  switch (level) {
    case 1:
      return PageSize::k4K;
    case 2:
      return PageSize::k2M;
    default:
      return PageSize::k1G;
  }
}

RefinementReport Fail(const std::string& detail) {
  return RefinementReport{.ok = false, .detail = detail};
}

std::string Hex(std::uint64_t v) {
  std::ostringstream out;
  out << "0x" << std::hex << v;
  return out.str();
}

// Effective rights of a leaf found below intermediate entries that all carry
// maximal rights (the kernel writes intermediates that way; StructureWf plus
// this check keep the model honest by re-deriving rights from the bits).
MapEntryPerm EffectivePerm(std::uint64_t leaf_pte) { return PtePerm(leaf_pte); }

}  // namespace

// ---------------------------------------------------------------------------
// Flat checker
// ---------------------------------------------------------------------------

RefinementReport FlatRefinementCheck(const PageTable& pt, const PhysMem& mem) {
  // Every leaf found in the store under its own size, plus equal counts,
  // gives map equality without building any intermediate map.
  const SpecMap<VAddr, MapEntry>& store = pt.AddressSpace();
  std::size_t leaves = 0;

  for (const auto& [addr, perm] : pt.node_perms()) {
    if (!pt.node_info().contains(addr)) {
      return Fail("node " + Hex(addr) + " missing flat ghost metadata");
    }
    const PtNodeInfo& info = pt.node_info().at(addr);
    RefinementReport fault;
    bool node_ok = ForEachPresentPte(ReadPtNode(mem, addr), [&](std::uint64_t index,
                                                                std::uint64_t pte) {
      bool superpage_leaf = (info.level == 2 || info.level == 3) && (pte & kPtePageSize) != 0;
      if (info.level != 1 && !superpage_leaf) {
        return true;  // interior entry; structure checked by StructureWf
      }
      VAddr va = info.va_base + index * EntrySpan(info.level);
      const MapEntry* entry = store.find(va);
      if (entry == nullptr || entry->size != LevelSize(info.level)) {
        fault = Fail("concrete leaf at va " + Hex(va) + " absent from abstract map");
        return false;
      }
      if (entry->addr != (pte & kPteAddrMask)) {
        fault = Fail("abstract/concrete address mismatch at va " + Hex(va));
        return false;
      }
      if (!(entry->perm == EffectivePerm(pte))) {
        fault = Fail("abstract/concrete permission mismatch at va " + Hex(va));
        return false;
      }
      ++leaves;
      return true;
    });
    if (!node_ok) {
      return fault;
    }
  }

  if (leaves != store.size()) {
    return Fail("abstract map contains entries the concrete table lacks");
  }
  return RefinementReport{};
}

// ---------------------------------------------------------------------------
// Recursive checker (NrOS-style)
// ---------------------------------------------------------------------------

namespace {

// Recursive interpretation of the subtree rooted at `node`: builds the
// mapping of every child, then merges child maps into the node's map — the
// executable analog of a recursive spec interpreted with per-level
// unrolling. Deliberately takes and returns maps by value.
SpecMap<VAddr, MapEntry> InterpNode(const PhysMem& mem, PAddr node, int level, VAddr base) {
  SpecMap<VAddr, MapEntry> out;
  ForEachPresentPte(ReadPtNode(mem, node), [&](std::uint64_t index, std::uint64_t pte) {
    VAddr slot_base = base + index * EntrySpan(level);
    PAddr target = pte & kPteAddrMask;
    bool superpage_leaf = (level == 2 || level == 3) && (pte & kPtePageSize) != 0;
    if (level == 1 || superpage_leaf) {
      out = out.insert(slot_base,
                       MapEntry{.addr = target, .size = LevelSize(level), .perm = PtePerm(pte)});
    } else {
      // Interior: interpret the child subtree, then merge (functional
      // update per binding — the cost the flat design avoids).
      for (const auto& [va, entry] : InterpNode(mem, target, level - 1, slot_base)) {
        out = out.insert(va, entry);
      }
    }
    return true;
  });
  return out;
}

}  // namespace

RefinementReport RecursiveRefinementCheck(const PageTable& pt, const PhysMem& mem) {
  if (!(InterpNode(mem, pt.cr3(), 4, 0) == pt.AddressSpace())) {
    return Fail("recursive interpretation disagrees with abstract map");
  }
  return RefinementReport{};
}

// ---------------------------------------------------------------------------
// MMU cross-check
// ---------------------------------------------------------------------------

RefinementReport MmuCrossCheck(const PageTable& pt, const Mmu& mmu) {
  for (const auto& [va, entry] : pt.AddressSpace()) {
    std::uint64_t bytes = PageBytes(entry.size);
    for (std::uint64_t probe : {std::uint64_t{0}, bytes / 2, bytes - 1}) {
      std::optional<WalkResult> walk = mmu.Walk(pt.cr3(), va + probe);
      if (!walk.has_value()) {
        return Fail("MMU faults on mapped va " + Hex(va + probe));
      }
      if (walk->page_base != entry.addr || walk->size != entry.size) {
        return Fail("MMU resolves different frame at va " + Hex(va + probe));
      }
      if (!(walk->perm == entry.perm)) {
        return Fail("MMU resolves different rights at va " + Hex(va + probe));
      }
    }
    // Probe the neighbouring page on each side: must either be a distinct
    // mapping or fault — never resolve into this entry's frame from outside.
    const VAddr kInvalid = ~VAddr{0};
    for (VAddr outside : {va == 0 ? kInvalid : va - 1, va + bytes}) {
      if (outside == kInvalid) {
        continue;
      }
      std::optional<WalkResult> walk = mmu.Walk(pt.cr3(), outside);
      if (walk.has_value() && !pt.Resolve(outside).has_value()) {
        return Fail("MMU resolves unmapped va " + Hex(outside));
      }
    }
  }
  return RefinementReport{};
}

}  // namespace atmo
