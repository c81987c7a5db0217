// Page-table refinement checkers: flat vs recursive (§6.2).
//
// Both checkers validate the same theorem — the table's mapping store,
// AddressSpace(), equals what the MMU resolves:
//
//   forall l4i,l3i,l2i,l1i in [0,512), with va = index2va(l4i,l3i,l2i,l1i):
//     (AddressSpace().contains(va) && AddressSpace()[va].size == 4K)
//       <==> resolve_mapping_4k(l4i,l3i,l2i,l1i).is_Some()
//   and where present the resolved (address, permission) pair is equal
//   (and likewise for 2M and 1G entries, resolved at their levels).
//
// They differ in *how* — mirroring the proof-structure difference between
// Atmosphere and NrOS that the paper's Table 2 quantifies:
//
//  * FlatRefinementCheck exploits the flat permission storage: it iterates
//    the node map directly, knows each node's level and va-base from the
//    flat ghost metadata, looks every present leaf up in the store, and
//    finishes with a leaf-count argument. No intermediate structures are
//    built — the analog of the paper's 30-line non-recursive proof.
//
//  * RecursiveRefinementCheck follows recursive ownership: it knows only
//    cr3 and interprets the tree by recursive descent, materializing the
//    mapping of every subtree level by level and merging child maps upward
//    into one map it compares with the store (the analog of NrOS's
//    per-level unrolled interpretation, ~200 lines of proof). The merge
//    work at every interior node is what makes it asymptotically and
//    practically slower.

#ifndef ATMO_SRC_PAGETABLE_REFINEMENT_H_
#define ATMO_SRC_PAGETABLE_REFINEMENT_H_

#include <string>

#include "src/hw/mmu.h"
#include "src/pagetable/page_table.h"

namespace atmo {

struct RefinementReport {
  bool ok = true;
  std::string detail;  // first discrepancy, for diagnostics
};

// Flat checker (Atmosphere-style).
RefinementReport FlatRefinementCheck(const PageTable& pt, const PhysMem& mem);

// Recursive checker (NrOS-style hierarchical ownership).
RefinementReport RecursiveRefinementCheck(const PageTable& pt, const PhysMem& mem);

// Sampled MMU cross-check: for every abstract mapping, run the *hardware*
// walker at the mapping base and at a probe offset inside the page, and for
// a set of probe addresses outside the map verify the walker faults. Used by
// tests and as part of the full-kernel invariant suite.
RefinementReport MmuCrossCheck(const PageTable& pt, const Mmu& mmu);

}  // namespace atmo

#endif  // ATMO_SRC_PAGETABLE_REFINEMENT_H_
