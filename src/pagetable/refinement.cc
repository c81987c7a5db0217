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
  // Count leaves seen per size class; combined with per-entry containment
  // this gives map equality without building any intermediate map.
  std::size_t leaves_4k = 0;
  std::size_t leaves_2m = 0;
  std::size_t leaves_1g = 0;

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
      PageSize size = LevelSize(info.level);
      const SpecMap<VAddr, MapEntry>& ghost = pt.mapping(size);
      if (!ghost.contains(va)) {
        fault = Fail("concrete leaf at va " + Hex(va) + " absent from abstract map");
        return false;
      }
      const MapEntry& entry = ghost.at(va);
      if (entry.addr != (pte & kPteAddrMask)) {
        fault = Fail("abstract/concrete address mismatch at va " + Hex(va));
        return false;
      }
      if (!(entry.perm == EffectivePerm(pte))) {
        fault = Fail("abstract/concrete permission mismatch at va " + Hex(va));
        return false;
      }
      switch (info.level) {
        case 1:
          ++leaves_4k;
          break;
        case 2:
          ++leaves_2m;
          break;
        default:
          ++leaves_1g;
          break;
      }
      return true;
    });
    if (!node_ok) {
      return fault;
    }
  }

  if (leaves_4k != pt.mapping_4k().size() || leaves_2m != pt.mapping_2m().size() ||
      leaves_1g != pt.mapping_1g().size()) {
    return Fail("abstract map contains entries the concrete table lacks");
  }
  return RefinementReport{};
}

// ---------------------------------------------------------------------------
// Recursive checker (NrOS-style)
// ---------------------------------------------------------------------------

namespace {

struct InterpMaps {
  SpecMap<VAddr, MapEntry> map_4k;
  SpecMap<VAddr, MapEntry> map_2m;
  SpecMap<VAddr, MapEntry> map_1g;
};

// Recursive interpretation of the subtree rooted at `node`: builds the
// mapping of every child, then merges child maps into the node's map — the
// executable analog of a recursive spec interpreted with per-level
// unrolling. Deliberately takes and returns maps by value.
InterpMaps InterpNode(const PhysMem& mem, PAddr node, int level, VAddr base) {
  InterpMaps out;
  ForEachPresentPte(ReadPtNode(mem, node), [&](std::uint64_t index, std::uint64_t pte) {
    VAddr slot_base = base + index * EntrySpan(level);
    PAddr target = pte & kPteAddrMask;
    bool superpage_leaf = (level == 2 || level == 3) && (pte & kPtePageSize) != 0;
    if (level == 1) {
      out.map_4k = out.map_4k.insert(
          slot_base, MapEntry{.addr = target, .size = PageSize::k4K, .perm = PtePerm(pte)});
    } else if (superpage_leaf) {
      MapEntry entry{.addr = target, .size = LevelSize(level), .perm = PtePerm(pte)};
      if (level == 2) {
        out.map_2m = out.map_2m.insert(slot_base, entry);
      } else {
        out.map_1g = out.map_1g.insert(slot_base, entry);
      }
    } else {
      // Interior: interpret the child subtree, then merge (functional
      // update per binding — the cost the flat design avoids).
      InterpMaps child = InterpNode(mem, target, level - 1, slot_base);
      for (const auto& [va, entry] : child.map_4k) {
        out.map_4k = out.map_4k.insert(va, entry);
      }
      for (const auto& [va, entry] : child.map_2m) {
        out.map_2m = out.map_2m.insert(va, entry);
      }
      for (const auto& [va, entry] : child.map_1g) {
        out.map_1g = out.map_1g.insert(va, entry);
      }
    }
    return true;
  });
  return out;
}

}  // namespace

RefinementReport RecursiveRefinementCheck(const PageTable& pt, const PhysMem& mem) {
  InterpMaps interp = InterpNode(mem, pt.cr3(), 4, 0);
  if (!(interp.map_4k == pt.mapping_4k())) {
    return Fail("recursive interpretation disagrees with abstract 4K map");
  }
  if (!(interp.map_2m == pt.mapping_2m())) {
    return Fail("recursive interpretation disagrees with abstract 2M map");
  }
  if (!(interp.map_1g == pt.mapping_1g())) {
    return Fail("recursive interpretation disagrees with abstract 1G map");
  }
  return RefinementReport{};
}

// ---------------------------------------------------------------------------
// MMU cross-check
// ---------------------------------------------------------------------------

RefinementReport MmuCrossCheck(const PageTable& pt, const Mmu& mmu) {
  SpecMap<VAddr, MapEntry> space = pt.AddressSpace();
  for (const auto& [va, entry] : space) {
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
