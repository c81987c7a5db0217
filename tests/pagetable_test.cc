// Page-table tests: map/unmap across page sizes, structural invariants,
// flat/recursive refinement checkers, MMU cross-checks, and the §4.2
// write-by-write consistency property.

#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "src/hw/mmu.h"
#include "src/pagetable/page_table.h"
#include "src/pagetable/refinement.h"
#include "src/pmem/page_allocator.h"
#include "src/vstd/check.h"

namespace atmo {
namespace {

constexpr MapEntryPerm kRw{.writable = true, .user = true, .no_execute = false};
constexpr MapEntryPerm kRo{.writable = false, .user = true, .no_execute = false};
constexpr MapEntryPerm kRx{.writable = false, .user = true, .no_execute = false};

class PageTableTest : public ::testing::Test {
 protected:
  // 64 MiB machine, 1 reserved frame.
  PageTableTest() : mem_(16384), alloc_(16384, 1), mmu_(&mem_) {
    auto pt = PageTable::New(&mem_, &alloc_, kNullPtr);
    pt_.emplace(std::move(*pt));
  }

  void ExpectAllChecksPass() {
    EXPECT_TRUE(pt_->StructureWf(mem_));
    RefinementReport flat = FlatRefinementCheck(*pt_, mem_);
    EXPECT_TRUE(flat.ok) << flat.detail;
    RefinementReport rec = RecursiveRefinementCheck(*pt_, mem_);
    EXPECT_TRUE(rec.ok) << rec.detail;
    RefinementReport mmu = MmuCrossCheck(*pt_, mmu_);
    EXPECT_TRUE(mmu.ok) << mmu.detail;
  }

  void TearDown() override {
    if (pt_.has_value() && pt_->cr3() != kNullPtr) {
      // Unmap everything so Destroy's leak check passes.
      std::vector<VAddr> vas;
      for (const auto& [va, entry] : pt_->AddressSpace()) {
        vas.push_back(va);
      }
      for (VAddr va : vas) {
        pt_->Unmap(va);
      }
      pt_->Destroy(&alloc_);
    }
  }

  PhysMem mem_;
  PageAllocator alloc_;
  Mmu mmu_;
  std::optional<PageTable> pt_;
};

TEST_F(PageTableTest, EmptyTableIsWellFormedAndRefines) {
  EXPECT_EQ(pt_->MappingCount(), 0u);
  ExpectAllChecksPass();
}

TEST_F(PageTableTest, MapThenMmuResolves) {
  ASSERT_EQ(pt_->Map(&alloc_, 0x400000, 0x1000000, PageSize::k4K, kRw), MapError::kOk);
  auto walk = mmu_.Walk(pt_->cr3(), 0x400123);
  ASSERT_TRUE(walk.has_value());
  EXPECT_EQ(walk->paddr, 0x1000123u);
  EXPECT_EQ(walk->size, PageSize::k4K);
  EXPECT_TRUE(walk->perm.writable);
  ExpectAllChecksPass();
}

TEST_F(PageTableTest, ReadOnlyRightsReachTheMmu) {
  ASSERT_EQ(pt_->Map(&alloc_, 0x400000, 0x1000000, PageSize::k4K, kRo), MapError::kOk);
  EXPECT_FALSE(mmu_.Permits(pt_->cr3(), 0x400000, Mmu::Access::kWrite, true));
  EXPECT_TRUE(mmu_.Permits(pt_->cr3(), 0x400000, Mmu::Access::kRead, true));
  ExpectAllChecksPass();
}

TEST_F(PageTableTest, UnmapRemovesTranslation) {
  ASSERT_EQ(pt_->Map(&alloc_, 0x400000, 0x1000000, PageSize::k4K, kRw), MapError::kOk);
  auto removed = pt_->Unmap(0x400000);
  ASSERT_TRUE(removed.has_value());
  EXPECT_EQ(removed->addr, 0x1000000u);
  EXPECT_FALSE(mmu_.Walk(pt_->cr3(), 0x400000).has_value());
  EXPECT_FALSE(pt_->Resolve(0x400000).has_value());
  ExpectAllChecksPass();
}

TEST_F(PageTableTest, UnmapAbsentReturnsNullopt) {
  EXPECT_FALSE(pt_->Unmap(0x400000).has_value());
}

TEST_F(PageTableTest, DoubleMapIsAlreadyMapped) {
  ASSERT_EQ(pt_->Map(&alloc_, 0x400000, 0x1000000, PageSize::k4K, kRw), MapError::kOk);
  EXPECT_EQ(pt_->Map(&alloc_, 0x400000, 0x2000000, PageSize::k4K, kRw),
            MapError::kAlreadyMapped);
  // Original mapping intact.
  EXPECT_EQ(pt_->Resolve(0x400000)->addr, 0x1000000u);
  ExpectAllChecksPass();
}

TEST_F(PageTableTest, MisalignedMapRejected) {
  EXPECT_EQ(pt_->Map(&alloc_, 0x400100, 0x1000000, PageSize::k4K, kRw), MapError::kMisaligned);
  EXPECT_EQ(pt_->Map(&alloc_, 0x400000, 0x1000100, PageSize::k4K, kRw), MapError::kMisaligned);
  EXPECT_EQ(pt_->Map(&alloc_, kPageSize4K, 0, PageSize::k2M, kRw), MapError::kMisaligned);
  EXPECT_EQ(pt_->MappingCount(), 0u);
}

TEST_F(PageTableTest, Map2MSuperpage) {
  ASSERT_EQ(pt_->Map(&alloc_, kPageSize2M, 2 * kPageSize2M, PageSize::k2M, kRw), MapError::kOk);
  auto walk = mmu_.Walk(pt_->cr3(), kPageSize2M + 0x12345);
  ASSERT_TRUE(walk.has_value());
  EXPECT_EQ(walk->size, PageSize::k2M);
  EXPECT_EQ(walk->paddr, 2 * kPageSize2M + 0x12345);
  ExpectAllChecksPass();
}

TEST_F(PageTableTest, Map1GSuperpage) {
  ASSERT_EQ(pt_->Map(&alloc_, kPageSize1G, 0, PageSize::k1G, kRw), MapError::kOk);
  auto walk = mmu_.Walk(pt_->cr3(), kPageSize1G + 0xabcde);
  ASSERT_TRUE(walk.has_value());
  EXPECT_EQ(walk->size, PageSize::k1G);
  EXPECT_EQ(walk->paddr, 0xabcdeu);
  ExpectAllChecksPass();
}

TEST_F(PageTableTest, SuperpageConflictsWith4KInRange) {
  ASSERT_EQ(pt_->Map(&alloc_, kPageSize2M, 2 * kPageSize2M, PageSize::k2M, kRw), MapError::kOk);
  // A 4K map inside the superpage range hits the PS entry at PD level.
  EXPECT_EQ(pt_->Map(&alloc_, kPageSize2M + kPageSize4K, 0x1000000, PageSize::k4K, kRw),
            MapError::kConflict);
  ExpectAllChecksPass();
}

TEST_F(PageTableTest, FourKTableConflictsWithSuperpageMap) {
  // Map a 4K page; then a 2M map over the same region finds a child table.
  ASSERT_EQ(pt_->Map(&alloc_, kPageSize2M + kPageSize4K, 0x1000000, PageSize::k4K, kRw),
            MapError::kOk);
  EXPECT_EQ(pt_->Map(&alloc_, kPageSize2M, 2 * kPageSize2M, PageSize::k2M, kRw),
            MapError::kConflict);
  ExpectAllChecksPass();
}

TEST_F(PageTableTest, MixedSizesCoexistInDisjointRanges) {
  ASSERT_EQ(pt_->Map(&alloc_, 0x400000ull - kPageSize4K, 0x1000000, PageSize::k4K, kRw),
            MapError::kOk);
  ASSERT_EQ(pt_->Map(&alloc_, kPageSize2M * 3, 2 * kPageSize2M, PageSize::k2M, kRw),
            MapError::kOk);
  ASSERT_EQ(pt_->Map(&alloc_, kPageSize1G * 2, kPageSize1G, PageSize::k1G, kRo), MapError::kOk);
  EXPECT_EQ(pt_->mapping_4k().size(), 1u);
  EXPECT_EQ(pt_->mapping_2m().size(), 1u);
  EXPECT_EQ(pt_->mapping_1g().size(), 1u);
  EXPECT_EQ(pt_->AddressSpace().size(), 3u);
  ExpectAllChecksPass();
}

TEST_F(PageTableTest, OtherMappingsUnchangedByMapAndUnmap) {
  // The paper's hardest page-table lemma: a map/unmap changes exactly one
  // abstract entry and leaves all others untouched.
  ASSERT_EQ(pt_->Map(&alloc_, 0x400000, 0x1000000, PageSize::k4K, kRw), MapError::kOk);
  ASSERT_EQ(pt_->Map(&alloc_, 0x600000, 0x1200000, PageSize::k4K, kRo), MapError::kOk);
  SpecMap<VAddr, MapEntry> before = pt_->AddressSpace();

  ASSERT_EQ(pt_->Map(&alloc_, 0x800000, 0x1400000, PageSize::k4K, kRx), MapError::kOk);
  SpecMap<VAddr, MapEntry> after = pt_->AddressSpace();
  using VaMap = SpecMap<VAddr, MapEntry>;
  EXPECT_TRUE(VaMap::AgreeExceptAt(before, after, 0x800000));
  EXPECT_TRUE(after.contains(0x800000));

  ASSERT_TRUE(pt_->Unmap(0x400000).has_value());
  SpecMap<VAddr, MapEntry> after2 = pt_->AddressSpace();
  EXPECT_TRUE(VaMap::AgreeExceptAt(after, after2, 0x400000));
  EXPECT_FALSE(after2.contains(0x400000));
  ExpectAllChecksPass();
}

TEST_F(PageTableTest, PageClosureTracksNodes) {
  SpecSet<PagePtr> closure0 = pt_->PageClosure();
  EXPECT_EQ(closure0.size(), 1u) << "root only";
  ASSERT_EQ(pt_->Map(&alloc_, 0x400000, 0x1000000, PageSize::k4K, kRw), MapError::kOk);
  EXPECT_EQ(pt_->PageClosure().size(), 4u) << "root + PDPT + PD + PT";
  ASSERT_EQ(pt_->Map(&alloc_, 0x401000, 0x1001000, PageSize::k4K, kRw), MapError::kOk);
  EXPECT_EQ(pt_->PageClosure().size(), 4u) << "same chain reused";
  // Closure pages are exactly allocator-allocated pages owned by the table.
  EXPECT_TRUE(pt_->PageClosure().ForAll(
      [&](PagePtr p) { return alloc_.StateOf(p) == PageState::kAllocated; }));
}

TEST_F(PageTableTest, DestroyReturnsAllNodes) {
  std::uint64_t free_before = alloc_.FreeCount(PageSize::k4K);
  ASSERT_EQ(pt_->Map(&alloc_, 0x400000, 0x1000000, PageSize::k4K, kRw), MapError::kOk);
  ASSERT_TRUE(pt_->Unmap(0x400000).has_value());
  pt_->Destroy(&alloc_);
  EXPECT_EQ(alloc_.FreeCount(PageSize::k4K), free_before + 1) << "root returned too";
  EXPECT_TRUE(alloc_.Wf());
}

TEST_F(PageTableTest, DestroyWithLiveMappingsIsLeakViolation) {
  ScopedThrowOnCheckFailure guard;
  ASSERT_EQ(pt_->Map(&alloc_, 0x400000, 0x1000000, PageSize::k4K, kRw), MapError::kOk);
  EXPECT_THROW(pt_->Destroy(&alloc_), CheckViolation);
  ASSERT_TRUE(pt_->Unmap(0x400000).has_value());
  pt_->Destroy(&alloc_);
}

TEST_F(PageTableTest, OomDuringMapReportsOutOfMemory) {
  // Drain the allocator, then try to map somewhere needing fresh nodes.
  std::vector<PageAlloc> hog;
  while (auto page = alloc_.AllocPage4K(kNullPtr)) {
    hog.push_back(std::move(*page));
  }
  EXPECT_EQ(pt_->Map(&alloc_, 0x400000, 0x1000000, PageSize::k4K, kRw),
            MapError::kOutOfMemory);
  EXPECT_EQ(pt_->MappingCount(), 0u);
  for (PageAlloc& page : hog) {
    alloc_.FreePage(page.ptr, std::move(page.perm));
  }
  ExpectAllChecksPass();
}

// §4.2 consistency of page-table updates: observe every 8-byte store and
// check that the hardware-visible address space either stays identical
// (non-leaf write) or changes by exactly one entry (leaf write).
TEST_F(PageTableTest, WriteByWriteConsistency) {
  auto hardware_space = [&] {
    // Derive the mapping purely from hardware bits by probing the union of
    // "before" and "after" candidate addresses.
    SpecMap<VAddr, PAddr> out;
    for (VAddr va : {0x400000ull, 0x401000ull, 0x600000ull}) {
      if (auto walk = mmu_.Walk(pt_->cr3(), va)) {
        out.set(va, walk->page_base);
      }
    }
    return out;
  };

  std::vector<SpecMap<VAddr, PAddr>> snapshots;
  snapshots.push_back(hardware_space());
  pt_->SetWriteObserver([&] { snapshots.push_back(hardware_space()); });

  ASSERT_EQ(pt_->Map(&alloc_, 0x400000, 0x1000000, PageSize::k4K, kRw), MapError::kOk);
  ASSERT_EQ(pt_->Map(&alloc_, 0x401000, 0x1001000, PageSize::k4K, kRw), MapError::kOk);
  ASSERT_TRUE(pt_->Unmap(0x400000).has_value());
  pt_->SetWriteObserver(nullptr);

  int changes = 0;
  for (std::size_t i = 1; i < snapshots.size(); ++i) {
    const auto& prev = snapshots[i - 1];
    const auto& cur = snapshots[i];
    if (prev == cur) {
      continue;  // intermediate-node write: address space unchanged
    }
    ++changes;
    // A leaf write changes exactly one entry.
    int diff = 0;
    for (VAddr va : {0x400000ull, 0x401000ull, 0x600000ull}) {
      bool in_prev = prev.contains(va);
      bool in_cur = cur.contains(va);
      if (in_prev != in_cur || (in_prev && in_cur && prev.at(va) != cur.at(va))) {
        ++diff;
      }
    }
    EXPECT_EQ(diff, 1) << "snapshot " << i << " changed more than one entry";
  }
  EXPECT_EQ(changes, 3) << "two maps + one unmap = three leaf writes";
}

// Refinement checkers must detect deliberately corrupted state.
TEST_F(PageTableTest, CheckersDetectConcreteBitFlip) {
  ASSERT_EQ(pt_->Map(&alloc_, 0x400000, 0x1000000, PageSize::k4K, kRw), MapError::kOk);
  // Flip the leaf's target address behind the kernel's back (hardware
  // write, bypassing permissions — simulating a bug).
  auto walk = mmu_.Walk(pt_->cr3(), 0x400000);
  ASSERT_TRUE(walk.has_value());
  // Find the L1 node: walk manually three levels down.
  PAddr node = pt_->cr3();
  for (int level = 4; level > 1; --level) {
    node = mem_.HwReadU64(node + VaIndex(0x400000, level) * 8) & kPteAddrMask;
  }
  std::uint64_t leaf = mem_.HwReadU64(node + VaIndex(0x400000, 1) * 8);
  mem_.HwWriteU64(node + VaIndex(0x400000, 1) * 8,
                  (leaf & ~kPteAddrMask) | 0x2000000);

  EXPECT_FALSE(FlatRefinementCheck(*pt_, mem_).ok);
  EXPECT_FALSE(RecursiveRefinementCheck(*pt_, mem_).ok);
  EXPECT_FALSE(MmuCrossCheck(*pt_, mmu_).ok);

  // Restore so TearDown can unmap cleanly.
  mem_.HwWriteU64(node + VaIndex(0x400000, 1) * 8, leaf);
}

TEST_F(PageTableTest, CheckersDetectMissingConcreteLeaf) {
  ASSERT_EQ(pt_->Map(&alloc_, 0x400000, 0x1000000, PageSize::k4K, kRw), MapError::kOk);
  PAddr node = pt_->cr3();
  for (int level = 4; level > 1; --level) {
    node = mem_.HwReadU64(node + VaIndex(0x400000, level) * 8) & kPteAddrMask;
  }
  std::uint64_t leaf = mem_.HwReadU64(node + VaIndex(0x400000, 1) * 8);
  mem_.HwWriteU64(node + VaIndex(0x400000, 1) * 8, 0);
  EXPECT_FALSE(FlatRefinementCheck(*pt_, mem_).ok);
  EXPECT_FALSE(RecursiveRefinementCheck(*pt_, mem_).ok);
  mem_.HwWriteU64(node + VaIndex(0x400000, 1) * 8, leaf);
}

// Line-boundary corruptions. The node scans read a node a cache line (8
// entries) at a time and skip a line with no present entry, so a corruption
// is planted at either edge of a line and at either end of the node: slots
// 0, 7, 8 and 511. StructureWf or the flat checker must reject it, and the
// recursive checker, which knows only cr3, must reach the flat verdict.
enum class LineCorruption {
  kStrayLeaf,          // present PT leaf absent from the abstract map
  kWritableFlip,       // writable bit flipped on a mapped PT leaf
  kPml4PageSize,       // PS bit on an interior PML4 entry
  kUnregisteredChild,  // PD entry pointing at a frame that is no node
  kPtBit7,             // bit 7 on a mapped PT leaf: PAT there, not PS
};

const char* LineCorruptionName(LineCorruption c) {
  switch (c) {
    case LineCorruption::kStrayLeaf:
      return "StrayLeaf";
    case LineCorruption::kWritableFlip:
      return "WritableFlip";
    case LineCorruption::kPml4PageSize:
      return "Pml4PageSize";
    case LineCorruption::kUnregisteredChild:
      return "UnregisteredChild";
    case LineCorruption::kPtBit7:
      return "PtBit7";
  }
  return "?";
}

class PageTableLineTest
    : public PageTableTest,
      public ::testing::WithParamInterface<std::tuple<LineCorruption, std::uint64_t>> {
 protected:
  // Start of one PT node's range: PML4 slot 0, PDPT slot 0, PD slot 2.
  static constexpr VAddr kBase = 0x400000;
  static constexpr PAddr kTarget = 0x1000000;
  // A frame no table owns; never written, so it reads as an empty node.
  static constexpr PAddr kUnregisteredNode = 0x3000000;

  // The node at `level` on the hardware walk to `va` (4 = the root).
  PAddr NodeAt(int level, VAddr va) {
    PAddr node = pt_->cr3();
    for (int l = 4; l > level; --l) {
      node = mem_.HwReadU64(node + VaIndex(va, l) * 8) & kPteAddrMask;
    }
    return node;
  }
};

TEST_P(PageTableLineTest, ScansSeeCorruptionAtLineBoundaries) {
  const auto [corruption, slot] = GetParam();
  PAddr entry = 0;  // the corrupted entry's address
  std::uint64_t bad = 0;
  switch (corruption) {
    case LineCorruption::kStrayLeaf: {
      // A mapping in another slot brings the PT node into existence.
      VAddr other = kBase + (slot + 1) % kPtEntriesPerNode * kPageSize4K;
      ASSERT_EQ(pt_->Map(&alloc_, other, kTarget, PageSize::k4K, kRw), MapError::kOk);
      entry = NodeAt(1, kBase) + slot * 8;
      bad = MakePte(kTarget + kPageSize4K, kRw, /*leaf_superpage=*/false);
      break;
    }
    case LineCorruption::kWritableFlip:
    case LineCorruption::kPtBit7: {
      VAddr va = kBase + slot * kPageSize4K;
      ASSERT_EQ(pt_->Map(&alloc_, va, kTarget, PageSize::k4K, kRw), MapError::kOk);
      entry = NodeAt(1, va) + slot * 8;
      bad = mem_.HwReadU64(entry) ^
            (corruption == LineCorruption::kWritableFlip ? kPteWritable : kPtePageSize);
      break;
    }
    case LineCorruption::kPml4PageSize: {
      VAddr va = (slot << 39) | kBase;
      ASSERT_EQ(pt_->Map(&alloc_, va, kTarget, PageSize::k4K, kRw), MapError::kOk);
      entry = pt_->cr3() + slot * 8;
      bad = mem_.HwReadU64(entry) | kPtePageSize;
      break;
    }
    case LineCorruption::kUnregisteredChild: {
      // kBase takes PD slot 2; the corrupted slots are all free.
      ASSERT_EQ(pt_->Map(&alloc_, kBase, kTarget, PageSize::k4K, kRw), MapError::kOk);
      entry = NodeAt(2, kBase) + slot * 8;
      MapEntryPerm wide{.writable = true, .user = true, .no_execute = false};
      bad = MakePte(kUnregisteredNode, wide, /*leaf_superpage=*/false);
      break;
    }
  }
  ExpectAllChecksPass();

  const std::uint64_t saved = mem_.HwReadU64(entry);
  mem_.HwWriteU64(entry, bad);
  bool structure = pt_->StructureWf(mem_);
  RefinementReport flat = FlatRefinementCheck(*pt_, mem_);
  RefinementReport rec = RecursiveRefinementCheck(*pt_, mem_);
  if (corruption == LineCorruption::kPtBit7) {
    // The walker ignores bit 7 at level 1, and so does every checker.
    EXPECT_TRUE(structure);
    EXPECT_TRUE(flat.ok) << flat.detail;
    EXPECT_TRUE(MmuCrossCheck(*pt_, mmu_).ok);
  } else {
    EXPECT_FALSE(structure && flat.ok);
  }
  EXPECT_EQ(rec.ok, flat.ok) << "flat: " << flat.detail << "; recursive: " << rec.detail;

  mem_.HwWriteU64(entry, saved);  // restore so TearDown unmaps cleanly
  ExpectAllChecksPass();
}

INSTANTIATE_TEST_SUITE_P(
    Slots, PageTableLineTest,
    ::testing::Combine(::testing::Values(LineCorruption::kStrayLeaf,
                                         LineCorruption::kWritableFlip,
                                         LineCorruption::kPml4PageSize,
                                         LineCorruption::kUnregisteredChild,
                                         LineCorruption::kPtBit7),
                       ::testing::Values(std::uint64_t{0}, std::uint64_t{7}, std::uint64_t{8},
                                         std::uint64_t{511})),
    [](const ::testing::TestParamInfo<PageTableLineTest::ParamType>& info) {
      return std::string(LineCorruptionName(std::get<0>(info.param))) + "_slot" +
             std::to_string(std::get<1>(info.param));
    });

// Parameterized sweep: random map/unmap sequences at mixed sizes keep all
// four checkers green (flat, recursive, structural, MMU).
class PageTableSweepTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(PageTableSweepTest, RandomOpsAllCheckersGreen) {
  std::uint64_t state = GetParam() * 0x9e3779b97f4a7c15ull + 0x243f6a8885a308d3ull;
  auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };

  PhysMem mem(16384);
  PageAllocator alloc(16384, 1);
  Mmu mmu(&mem);
  auto pt = PageTable::New(&mem, &alloc, kNullPtr);
  ASSERT_TRUE(pt.has_value());

  std::vector<VAddr> mapped;
  for (int step = 0; step < 120; ++step) {
    if (mapped.size() < 24 && next() % 3 != 0) {
      PageSize size = next() % 8 == 0 ? PageSize::k2M : PageSize::k4K;
      std::uint64_t bytes = PageBytes(size);
      VAddr va = (next() % 64) * kPageSize2M + (size == PageSize::k4K
                                                     ? (next() % 512) * kPageSize4K
                                                     : 0);
      va = va / bytes * bytes;
      PAddr pa = ((next() % 1024) * kPageSize4K) / bytes * bytes;
      MapEntryPerm perm{.writable = next() % 2 == 0, .user = true,
                        .no_execute = next() % 4 == 0};
      if (pt->Map(&alloc, va, pa, size, perm) == MapError::kOk) {
        mapped.push_back(va);
      }
    } else if (!mapped.empty()) {
      std::size_t pick = next() % mapped.size();
      ASSERT_TRUE(pt->Unmap(mapped[pick]).has_value());
      mapped.erase(mapped.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    if (step % 10 == 0) {
      ASSERT_TRUE(pt->StructureWf(mem)) << "step " << step;
      RefinementReport flat = FlatRefinementCheck(*pt, mem);
      ASSERT_TRUE(flat.ok) << "step " << step << ": " << flat.detail;
      RefinementReport rec = RecursiveRefinementCheck(*pt, mem);
      ASSERT_TRUE(rec.ok) << "step " << step << ": " << rec.detail;
      RefinementReport cross = MmuCrossCheck(*pt, mmu);
      ASSERT_TRUE(cross.ok) << "step " << step << ": " << cross.detail;
    }
  }
  for (VAddr va : mapped) {
    ASSERT_TRUE(pt->Unmap(va).has_value());
  }
  pt->Destroy(&alloc);
  EXPECT_TRUE(alloc.Wf());
}

INSTANTIATE_TEST_SUITE_P(Seeds, PageTableSweepTest,
                         ::testing::Values(1u, 7u, 23u, 55u, 101u, 202u));

}  // namespace
}  // namespace atmo
