// Differential test for the size-segregated page allocator (DESIGN.md §10).
//
// The indexed allocator must be observationally identical to the scan-based
// semantics it replaced: the coalescing min-heaps pick the lowest provably
// full group/region, which is exactly what a low-to-high scan of the page
// array finds. To check this, two allocator instances are driven through a
// long randomized schedule of alloc/free/split operations at all three size
// classes, through exhaustion and heavy fragmentation:
//
//   dut — the production allocation paths (AllocPage4K/2M/1G), which use the
//         coalescing index and never scan meta_.
//   ref — a reference model that makes every coalescing decision by scanning
//         the page array low-to-high (Merge2MAnywhere for 2M; a full-region
//         pre-check scan for 1G, mutating only when the whole region is
//         provably free so failure paths stay atomic).
//
// Both must agree on every operation's success/failure, return the same page
// address, and expose identical ghost views; Wf() (and the retained
// multi-pass WfReference()) must stay green throughout.
//
// The same file carries the Wf/WfReference verdict-identity test: the
// single-pass rewrite of Wf() must return the same verdict as the reference
// implementation on a battery of corrupted-state fixtures.

#include <cstdint>
#include <optional>
#include <random>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/pmem/page_allocator.h"
#include "src/vstd/types.h"

namespace atmo {

// White-box access for the reference model (free-list heads, the private
// AllocFrom pop) and for the corruption fixtures of the Wf equivalence test.
struct PageAllocatorTestPeer {
  static constexpr std::uint64_t kNil = PageAllocator::kNilFrame;

  static std::uint64_t FreeHead(const PageAllocator& a, PageSize size) {
    return a.ListFor(size).head;
  }
  static std::optional<PageAlloc> AllocFrom(PageAllocator* a, PageSize size, CtnrPtr owner) {
    return a->AllocFrom(size, owner);
  }

  static auto& Meta(PageAllocator* a, std::uint64_t frame) { return a->meta_[frame]; }
  static auto& List(PageAllocator* a, PageSize size) { return a->ListFor(size); }
  static std::vector<std::uint32_t>& FreeIn2M(PageAllocator* a) { return a->free_in_2m_; }
  static std::vector<std::uint64_t>& FreeEq1G(PageAllocator* a) { return a->free_eq_1g_; }
  static std::vector<std::uint8_t>& InMergeable2M(PageAllocator* a) { return a->in_mergeable_2m_; }
  static std::vector<std::uint8_t>& InMergeable1G(PageAllocator* a) { return a->in_mergeable_1g_; }
  static std::vector<std::uint64_t>& Mergeable2M(PageAllocator* a) { return a->mergeable_2m_; }
  static std::vector<std::uint64_t>& Mergeable1G(PageAllocator* a) { return a->mergeable_1g_; }
};

namespace {

using Peer = PageAllocatorTestPeer;

constexpr std::uint64_t kFramesPer2M = kPageSize2M / kPageSize4K;
constexpr std::uint64_t kFramesPer1G = kPageSize1G / kPageSize4K;
constexpr std::uint64_t kNil = Peer::kNil;

PagePtr PtrOfFrame(std::uint64_t frame) { return frame * kPageSize4K; }

// --- Scan-based reference model ---------------------------------------------
//
// Mirrors the decision procedure of the indexed paths, with every "is there a
// coalescible group/region?" question answered by scanning the page array
// low-to-high instead of consulting the heaps.

// Lowest fully free 1G region, found by a span-skipping scan. Unlike
// Merge1GAnywhere this checks the whole region before mutating anything, so
// a failed search leaves the allocator untouched (as the indexed path does).
std::optional<PagePtr> RefCoalesce1G(PageAllocator* a) {
  const std::uint64_t total = a->total_frames();
  for (std::uint64_t head = 0; head + kFramesPer1G <= total; head += kFramesPer1G) {
    bool full = true;
    std::uint64_t frame = head;
    while (frame < head + kFramesPer1G) {
      PagePtr p = PtrOfFrame(frame);
      if (a->StateOf(p) == PageState::kFree && a->SizeClassOf(p) == PageSize::k4K) {
        ++frame;
      } else if (frame % kFramesPer2M == 0 && a->StateOf(p) == PageState::kFree &&
                 a->SizeClassOf(p) == PageSize::k2M) {
        frame += kFramesPer2M;
      } else {
        full = false;
        break;
      }
    }
    if (!full) {
      continue;
    }
    // Merge constituents low-to-high, then the region itself — the same
    // mutation order the indexed path performs.
    for (std::uint64_t unit = head; unit < head + kFramesPer1G; unit += kFramesPer2M) {
      PagePtr p = PtrOfFrame(unit);
      if (a->StateOf(p) == PageState::kFree && a->SizeClassOf(p) == PageSize::k2M) {
        continue;
      }
      if (!a->TryMerge2M(p)) {
        return std::nullopt;  // impossible for a fully free region; fail loudly
      }
    }
    if (!a->TryMerge1G(PtrOfFrame(head))) {
      return std::nullopt;
    }
    return PtrOfFrame(head);
  }
  return std::nullopt;
}

std::optional<PagePtr> RefTakeFree2MUnit(PageAllocator* a) {
  if (Peer::FreeHead(*a, PageSize::k2M) != kNil) {
    return PtrOfFrame(Peer::FreeHead(*a, PageSize::k2M));
  }
  // Merge2MAnywhere already is the low-to-high scan, and TryMerge2M checks
  // before mutating, so failure paths stay atomic.
  if (std::optional<PagePtr> merged = a->Merge2MAnywhere(); merged.has_value()) {
    return merged;
  }
  std::optional<PagePtr> big = Peer::FreeHead(*a, PageSize::k1G) != kNil
                                   ? std::optional<PagePtr>(
                                         PtrOfFrame(Peer::FreeHead(*a, PageSize::k1G)))
                                   : RefCoalesce1G(a);
  if (!big.has_value()) {
    return std::nullopt;
  }
  a->Split1G(*big);
  return PtrOfFrame(Peer::FreeHead(*a, PageSize::k2M));
}

std::optional<PageAlloc> RefAlloc4K(PageAllocator* a, CtnrPtr owner) {
  if (Peer::FreeHead(*a, PageSize::k4K) == kNil) {
    std::optional<PagePtr> unit = RefTakeFree2MUnit(a);
    if (!unit.has_value()) {
      return std::nullopt;
    }
    a->Split2M(*unit);
  }
  return Peer::AllocFrom(a, PageSize::k4K, owner);
}

std::optional<PageAlloc> RefAlloc2M(PageAllocator* a, CtnrPtr owner) {
  if (!RefTakeFree2MUnit(a).has_value()) {
    return std::nullopt;
  }
  return Peer::AllocFrom(a, PageSize::k2M, owner);
}

std::optional<PageAlloc> RefAlloc1G(PageAllocator* a, CtnrPtr owner) {
  if (Peer::FreeHead(*a, PageSize::k1G) == kNil && !RefCoalesce1G(a).has_value()) {
    return std::nullopt;
  }
  return Peer::AllocFrom(a, PageSize::k1G, owner);
}

// --- Randomized differential driver -----------------------------------------

enum class Op { kAlloc4K, kAlloc2M, kAlloc1G, kFree, kSplit2M, kSplit1G };

struct OpWeights {
  int alloc_4k, alloc_2m, alloc_1g, free_op, split_2m, split_1g;
  int Total() const { return alloc_4k + alloc_2m + alloc_1g + free_op + split_2m + split_1g; }
};

Op PickOp(std::mt19937_64& rng, const OpWeights& w) {
  int roll = static_cast<int>(rng() % static_cast<std::uint64_t>(w.Total()));
  if ((roll -= w.alloc_4k) < 0) return Op::kAlloc4K;
  if ((roll -= w.alloc_2m) < 0) return Op::kAlloc2M;
  if ((roll -= w.alloc_1g) < 0) return Op::kAlloc1G;
  if ((roll -= w.free_op) < 0) return Op::kFree;
  if ((roll -= w.split_2m) < 0) return Op::kSplit2M;
  return Op::kSplit1G;
}

class DifferentialDriver {
 public:
  DifferentialDriver(std::uint64_t total_frames, std::uint64_t reserved_frames,
                     std::uint64_t seed)
      : dut_(total_frames, reserved_frames),
        ref_(total_frames, reserved_frames),
        rng_(seed) {}

  PageAllocator& dut() { return dut_; }
  PageAllocator& ref() { return ref_; }

  // Runs one operation on both allocators and asserts agreement on the
  // result and on the O(1) free counters.
  void Step(const OpWeights& weights) {
    Op op = PickOp(rng_, weights);
    switch (op) {
      case Op::kAlloc4K:
        Alloc(dut_.AllocPage4K(kNullPtr), RefAlloc4K(&ref_, kNullPtr));
        break;
      case Op::kAlloc2M:
        Alloc(dut_.AllocPage2M(kNullPtr), RefAlloc2M(&ref_, kNullPtr));
        break;
      case Op::kAlloc1G:
        Alloc(dut_.AllocPage1G(kNullPtr), RefAlloc1G(&ref_, kNullPtr));
        break;
      case Op::kFree: {
        if (live_.empty()) {
          break;
        }
        std::size_t idx = static_cast<std::size_t>(rng() % live_.size());
        auto [dut_page, ref_page] = std::move(live_[idx]);
        live_[idx] = std::move(live_.back());
        live_.pop_back();
        dut_.FreePage(dut_page.ptr, std::move(dut_page.perm));
        ref_.FreePage(ref_page.ptr, std::move(ref_page.perm));
        break;
      }
      case Op::kSplit2M: {
        std::uint64_t head = Peer::FreeHead(dut_, PageSize::k2M);
        ASSERT_EQ(head, Peer::FreeHead(ref_, PageSize::k2M));
        if (head == kNil) {
          break;
        }
        dut_.Split2M(PtrOfFrame(head));
        ref_.Split2M(PtrOfFrame(head));
        break;
      }
      case Op::kSplit1G: {
        std::uint64_t head = Peer::FreeHead(dut_, PageSize::k1G);
        ASSERT_EQ(head, Peer::FreeHead(ref_, PageSize::k1G));
        if (head == kNil) {
          break;
        }
        dut_.Split1G(PtrOfFrame(head));
        ref_.Split1G(PtrOfFrame(head));
        break;
      }
    }
    for (PageSize size : {PageSize::k4K, PageSize::k2M, PageSize::k1G}) {
      ASSERT_EQ(dut_.FreeCount(size), ref_.FreeCount(size));
    }
  }

  // Full abstract-view comparison plus structural invariants on both sides.
  void CheckDeep() {
    ASSERT_TRUE(dut_.Wf());
    ASSERT_TRUE(dut_.WfReference());
    ASSERT_TRUE(ref_.Wf());
    for (PageSize size : {PageSize::k4K, PageSize::k2M, PageSize::k1G}) {
      ASSERT_TRUE(dut_.FreePages(size) == ref_.FreePages(size));
    }
    ASSERT_TRUE(dut_.AllocatedPages() == ref_.AllocatedPages());
    ASSERT_TRUE(dut_.InUseFrames() == ref_.InUseFrames());
  }

  std::size_t live_count() const { return live_.size(); }
  std::uint64_t rng() { return rng_(); }

 private:
  void Alloc(std::optional<PageAlloc> dut_result, std::optional<PageAlloc> ref_result) {
    ASSERT_EQ(dut_result.has_value(), ref_result.has_value());
    if (dut_result.has_value()) {
      ASSERT_EQ(dut_result->ptr, ref_result->ptr);
      live_.emplace_back(std::move(*dut_result), std::move(*ref_result));
    }
  }

  PageAllocator dut_;
  PageAllocator ref_;
  std::mt19937_64 rng_;
  std::vector<std::pair<PageAlloc, PageAlloc>> live_;
};

// 20k randomized operations at all three size classes against a machine with
// three 1G regions (region 0 crippled by the reserved boot frames, so 1G
// coalescing must pick regions 1-2). Phases of different op mixes drive the
// allocator through fill, 2M/1G exhaustion, heavy fragmentation and drains.
TEST(PmemDifferentialTest, RandomizedOpsMatchScanReference) {
  DifferentialDriver driver(3 * kFramesPer1G, 5, /*seed=*/0xa7305eedull);

  const OpWeights kPhases[] = {
      {30, 10, 2, 18, 3, 2},   // fill with churn
      {10, 30, 10, 5, 2, 1},   // alloc-heavy: drive 2M/1G exhaustion
      {5, 5, 1, 40, 5, 3},     // drain
      {20, 10, 3, 25, 5, 3},   // balanced churn
      {2, 5, 25, 10, 2, 8},    // 1G stress: coalesce/split cycling
      {5, 3, 1, 45, 4, 2},     // drain again
      {40, 5, 1, 35, 10, 1},   // fine-grained 4K fragmentation
      {15, 15, 5, 20, 5, 5},   // mixed tail
  };
  constexpr int kOpsPerPhase = 2500;

  for (const OpWeights& phase : kPhases) {
    for (int op = 0; op < kOpsPerPhase; ++op) {
      ASSERT_NO_FATAL_FAILURE(driver.Step(phase));
      if (op % 256 == 0) {
        ASSERT_TRUE(driver.dut().Wf());
        ASSERT_TRUE(driver.dut().WfReference());
      }
    }
    ASSERT_NO_FATAL_FAILURE(driver.CheckDeep());
  }
}

// Small machine (two usable 2M groups, no room for any 1G page): exhaustion
// at every size class is hit constantly and Wf/WfReference run on every op.
TEST(PmemDifferentialTest, SmallMachineChurnWithPerOpWf) {
  DifferentialDriver driver(3 * kFramesPer2M, kFramesPer2M, /*seed=*/0x51a11ull);

  const OpWeights kChurn{30, 20, 5, 35, 8, 2};
  for (int op = 0; op < 4000; ++op) {
    ASSERT_NO_FATAL_FAILURE(driver.Step(kChurn));
    ASSERT_TRUE(driver.dut().Wf());
    ASSERT_TRUE(driver.dut().WfReference());
    if (op % 250 == 0) {
      ASSERT_NO_FATAL_FAILURE(driver.CheckDeep());
    }
  }
  ASSERT_NO_FATAL_FAILURE(driver.CheckDeep());
}

// --- Wf vs WfReference verdict identity --------------------------------------
//
// The single-pass Wf() must agree with the retained multi-pass reference on
// corrupted states, not just on healthy ones. Each fixture clones a richly
// populated allocator, applies one targeted corruption through the test
// peer, and requires both predicates to reject it.

class WfEquivalenceTest : public ::testing::Test {
 protected:
  // 5 groups of 2M; group 0 reserved. Build a state with: free 4K pages,
  // one allocated 4K page, one mapped 4K page, one allocated 2M page (group
  // 1, coalesced), one free on-list 2M page (group 2), a fully free flagged
  // group (group 3) and a partially allocated group (group 4).
  WfEquivalenceTest() : base_(5 * kFramesPer2M, kFramesPer2M) {
    alloc_4k_ = base_.AllocPage4K(kNullPtr);
    mapped_4k_ = base_.AllocPage4K(kNullPtr);
    base_.MarkMapped(mapped_4k_->ptr);
    alloc_2m_ = base_.AllocPage2M(kNullPtr);
    auto free_2m = base_.AllocPage2M(kNullPtr);
    free_2m_ptr_ = free_2m->ptr;
    base_.FreePage(free_2m->ptr, std::move(free_2m->perm));
  }

  // Runs both predicates on a mutated clone and checks they agree on the
  // expected verdict.
  template <typename Corrupt>
  void ExpectBoth(bool ok, const char* what, Corrupt&& corrupt) {
    PageAllocator clone = base_.CloneForVerification();
    corrupt(&clone);
    EXPECT_EQ(clone.Wf(), ok) << what;
    EXPECT_EQ(clone.WfReference(), ok) << what;
  }
  template <typename Corrupt>
  void ExpectBothReject(const char* what, Corrupt&& corrupt) {
    ExpectBoth(false, what, std::forward<Corrupt>(corrupt));
  }

  PageAllocator base_;
  std::optional<PageAlloc> alloc_4k_;
  std::optional<PageAlloc> mapped_4k_;
  std::optional<PageAlloc> alloc_2m_;
  PagePtr free_2m_ptr_ = 0;
};

TEST_F(WfEquivalenceTest, CleanStateAcceptedByBoth) {
  EXPECT_TRUE(base_.Wf());
  EXPECT_TRUE(base_.WfReference());
  PageAllocator clone = base_.CloneForVerification();
  EXPECT_TRUE(clone.Wf());
  EXPECT_TRUE(clone.WfReference());
}

TEST_F(WfEquivalenceTest, CorruptedStatesRejectedByBoth) {
  const std::uint64_t alloc_frame = alloc_4k_->ptr / kPageSize4K;
  const std::uint64_t mapped_frame = mapped_4k_->ptr / kPageSize4K;
  const std::uint64_t free_2m_frame = free_2m_ptr_ / kPageSize4K;

  ExpectBothReject("off-list free page breaks the coalescing counters",
                   [&](PageAllocator* a) {
                     Peer::Meta(a, alloc_frame).state = PageState::kFree;
                   });
  ExpectBothReject("free-list cycle", [&](PageAllocator* a) {
    std::uint64_t head = Peer::FreeHead(*a, PageSize::k4K);
    Peer::Meta(a, head).next = head;
  });
  ExpectBothReject("free-list count drift", [&](PageAllocator* a) {
    ++Peer::List(a, PageSize::k4K).count;
  });
  ExpectBothReject("on-list 2M unit with a detached tail", [&](PageAllocator* a) {
    Peer::Meta(a, free_2m_frame + 7).merged_head = free_2m_frame + 1;
  });
  ExpectBothReject("allocated 2M unit with a detached tail", [&](PageAllocator* a) {
    std::uint64_t head = alloc_2m_->ptr / kPageSize4K;
    Peer::Meta(a, head + 3).state = PageState::kAllocated;
  });
  ExpectBothReject("mapped page with zero map count", [&](PageAllocator* a) {
    Peer::Meta(a, mapped_frame).map_count = 0;
  });
  ExpectBothReject("stale 2M group counter", [&](PageAllocator* a) {
    ++Peer::FreeIn2M(a)[free_2m_frame / kFramesPer2M];
  });
  ExpectBothReject("stale 1G region counter", [&](PageAllocator* a) {
    ++Peer::FreeEq1G(a)[0];
  });
  ExpectBothReject("flag set without a heap entry", [&](PageAllocator* a) {
    std::size_t group = 1;
    if (Peer::InMergeable2M(a)[group]) {
      group = 2;
    }
    Peer::InMergeable2M(a)[group] = 1;
  });
  ExpectBothReject("heap entry without a flag", [&](PageAllocator* a) {
    for (std::size_t group = 0; group < Peer::InMergeable2M(a).size(); ++group) {
      if (!Peer::InMergeable2M(a)[group]) {
        Peer::Mergeable2M(a).push_back(group);
        return;
      }
    }
  });
  ExpectBothReject("full group lost its mergeable flag", [&](PageAllocator* a) {
    for (std::size_t group = 0; group < Peer::FreeIn2M(a).size(); ++group) {
      if (Peer::FreeIn2M(a)[group] == kFramesPer2M) {
        Peer::InMergeable2M(a)[group] = 0;
        auto& heap = Peer::Mergeable2M(a);
        for (std::size_t i = 0; i < heap.size(); ++i) {
          if (heap[i] == group) {
            heap.erase(heap.begin() + static_cast<std::ptrdiff_t>(i));
            break;
          }
        }
        return;
      }
    }
    FAIL() << "fixture requires a fully free group";
  });
  ExpectBothReject("unavailable frame outside the reserved prefix",
                   [&](PageAllocator* a) {
                     std::uint64_t head = Peer::FreeHead(*a, PageSize::k4K);
                     Peer::Meta(a, head).state = PageState::kUnavailable;
                   });
}

// Wf counts each run of free 4K frames inside a 2M group once. Splitting the
// free 2M unit makes one run of free 4K frames from its group across the
// next group boundary to the last frame of the machine; the fixtures move
// counters across that boundary, cut the run short at the end, and plant
// frames of the wrong size class or state inside it.
TEST_F(WfEquivalenceTest, FreeRunFixturesAgreeWithReference) {
  const std::uint64_t run_start = free_2m_ptr_ / kPageSize4K;  // group 3
  const std::uint64_t boundary = run_start + kFramesPer2M;     // group 4
  const std::uint64_t last = base_.total_frames() - 1;
  const std::uint64_t g = run_start / kFramesPer2M;
  auto split = [&](PageAllocator* a) { a->Split2M(free_2m_ptr_); };
  ASSERT_EQ(last + 1, boundary + kFramesPer2M) << "the run must end at the last frame";

  ExpectBoth(true, "free run across a group boundary to the last frame", split);
  ExpectBoth(true, "run ends inside its group at allocated frames", [&](PageAllocator* a) {
    split(a);
    // The split pushed its frames low to high, so these take the top of
    // the group: the run stops 100 frames short of the boundary.
    for (int i = 0; i < 100; ++i) {
      std::optional<PageAlloc> page = a->AllocPage4K(kNullPtr);
      ASSERT_TRUE(page.has_value());
      ASSERT_EQ(page->ptr / kPageSize4K, boundary - 1 - static_cast<std::uint64_t>(i));
    }
  });
  ExpectBothReject("crossing run's frames counted in the group before the boundary",
                   [&](PageAllocator* a) {
                     split(a);
                     ++Peer::FreeIn2M(a)[g];
                     --Peer::FreeIn2M(a)[g + 1];
                   });
  ExpectBothReject("crossing run's frames counted in the group after the boundary",
                   [&](PageAllocator* a) {
                     split(a);
                     --Peer::FreeIn2M(a)[g];
                     ++Peer::FreeIn2M(a)[g + 1];
                   });
  ExpectBothReject("last group's counters miss the run's final frame", [&](PageAllocator* a) {
    split(a);
    --Peer::FreeIn2M(a)[last / kFramesPer2M];
    --Peer::FreeEq1G(a)[0];
  });
  ExpectBothReject("last frame leaves the free state at the end of the run",
                   [&](PageAllocator* a) {
                     split(a);
                     Peer::Meta(a, last).state = PageState::kAllocated;
                   });
  ExpectBothReject("last frame of the run claims the 2M size class", [&](PageAllocator* a) {
    split(a);
    Peer::Meta(a, last).size = PageSize::k2M;
  });
  for (std::uint64_t frame : {boundary - 1, boundary, boundary + 7}) {
    ExpectBothReject("frame inside the run claims the 2M size class", [&](PageAllocator* a) {
      split(a);
      Peer::Meta(a, frame).size = PageSize::k2M;
    });
    ExpectBothReject("frame inside the run claims the 1G size class", [&](PageAllocator* a) {
      split(a);
      Peer::Meta(a, frame).size = PageSize::k1G;
    });
    ExpectBothReject("frame inside the run is allocated", [&](PageAllocator* a) {
      split(a);
      Peer::Meta(a, frame).state = PageState::kAllocated;
    });
    ExpectBothReject("frame inside the run is merged into the allocated 2M unit",
                     [&](PageAllocator* a) {
                       split(a);
                       Peer::Meta(a, frame).state = PageState::kMerged;
                       Peer::Meta(a, frame).merged_head = alloc_2m_->ptr / kPageSize4K;
                     });
  }
}

}  // namespace
}  // namespace atmo
