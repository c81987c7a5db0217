// Allocation-free hot paths (DESIGN.md §14): SpecArena stress tests and the
// checker arena's steady-state recycling.
//
// The arena's safety argument is lifetime-based, not convention-based:
// every live block co-owns the arena's chunks, Reset() refuses while
// anything is live, and cross-thread frees are counted instead of
// recycled. Each of those defenses is exercised here, including the
// failure directions.

#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/kernel.h"
#include "src/obs/alloc_hook.h"
#include "src/verif/refinement_checker.h"
#include "src/verif/trace_gen.h"
#include "src/vstd/arena.h"
#include "src/vstd/spec_map.h"
#include "src/vstd/spec_seq.h"
#include "src/vstd/spec_set.h"

namespace atmo {
namespace {

// ---------------------------------------------------------------------------
// SpecArena mechanics
// ---------------------------------------------------------------------------

TEST(SpecArenaTest, AllocateRecycleReset) {
  SpecArena arena;
  void* a = arena.Allocate(24);   // class 32
  void* b = arena.Allocate(100);  // class 128
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(arena.live(), 2u);
  EXPECT_EQ(arena.stats().allocs, 2u);

  SpecArena::Deallocate(a);
  EXPECT_EQ(arena.live(), 1u);
  // Same size class comes back off the free list, not the bump cursor.
  void* a2 = arena.Allocate(24);
  EXPECT_EQ(a2, a);
  EXPECT_EQ(arena.stats().freelist_hits, 1u);

  SpecArena::Deallocate(a2);
  SpecArena::Deallocate(b);
  EXPECT_EQ(arena.live(), 0u);
  EXPECT_TRUE(arena.Reset());
  EXPECT_EQ(arena.stats().resets, 1u);

  // Post-reset allocations bump from the start of the first chunk again.
  void* c = arena.Allocate(24);
  EXPECT_EQ(c, a);
  SpecArena::Deallocate(c);
}

TEST(SpecArenaTest, ResetRefusedWhileLive) {
  SpecArena arena;
  void* p = arena.Allocate(64);
  EXPECT_FALSE(arena.Reset());
  EXPECT_EQ(arena.stats().refused_resets, 1u);
  SpecArena::Deallocate(p);
  EXPECT_TRUE(arena.Reset());
}

TEST(SpecArenaTest, OversizeFallsBackToHeap) {
  SpecArena arena;
  // Above kMaxClassBytes: served by the heap, not the arena (live stays 0,
  // so a Reset is still legal while the block is outstanding).
  void* big = arena.Allocate(SpecArena::kMaxClassBytes + 1);
  ASSERT_NE(big, nullptr);
  EXPECT_EQ(arena.stats().heap_fallbacks, 1u);
  EXPECT_EQ(arena.live(), 0u);
  EXPECT_TRUE(arena.Reset());
  SpecArena::Deallocate(big);  // routed to the heap by the block header
}

TEST(SpecArenaTest, ChunkGrowthAndReuse) {
  // Minimum chunk size: each chunk holds only a few 4K-class blocks, so a
  // burst of allocations must grow the arena, and a Reset must make the
  // grown capacity reusable without further growth.
  SpecArena arena(/*chunk_bytes=*/SpecArena::kMaxClassBytes + 64);
  std::vector<void*> blocks;
  for (int i = 0; i < 16; ++i) {
    blocks.push_back(arena.Allocate(SpecArena::kMaxClassBytes));
  }
  std::uint64_t grown_chunks = arena.stats().chunks;
  EXPECT_GE(grown_chunks, 16u);

  for (void* p : blocks) {
    SpecArena::Deallocate(p);
  }
  ASSERT_TRUE(arena.Reset());
  for (int round = 0; round < 3; ++round) {
    blocks.clear();
    for (int i = 0; i < 16; ++i) {
      blocks.push_back(arena.Allocate(SpecArena::kMaxClassBytes));
    }
    for (void* p : blocks) {
      SpecArena::Deallocate(p);
    }
    ASSERT_TRUE(arena.Reset());
  }
  EXPECT_EQ(arena.stats().chunks, grown_chunks);  // capacity reused, not regrown
}

TEST(SpecArenaTest, FirstChunkHoldsABurst) {
  // Nothing is reserved up front; the first Allocate adds one chunk of
  // chunk_bytes, and a burst that fits in it must not add another.
  SpecArena arena(3 * SpecArena::kDefaultChunkBytes);
  EXPECT_EQ(arena.reserved(), 0u);
  std::vector<void*> blocks;
  for (int i = 0; i < 100; ++i) {
    blocks.push_back(arena.Allocate(1024));
  }
  EXPECT_EQ(arena.stats().chunks, 1u);
  EXPECT_GE(arena.reserved(), 3u * SpecArena::kDefaultChunkBytes);
  for (void* p : blocks) {
    SpecArena::Deallocate(p);
  }
}

TEST(SpecArenaTest, ForeignFreeCountedNotRecycled) {
  SpecArena arena;
  void* p = arena.Allocate(64);
  std::thread other([p] { SpecArena::Deallocate(p); });
  other.join();
  EXPECT_EQ(arena.foreign_frees(), 1u);
  // The block was NOT recycled: live stays nonzero, so Reset refuses (a
  // skipped recycle) instead of handing the block's memory out again.
  EXPECT_EQ(arena.live(), 1u);
  EXPECT_FALSE(arena.Reset());
  void* q = arena.Allocate(64);
  EXPECT_NE(q, p);
  SpecArena::Deallocate(q);
}

// ---------------------------------------------------------------------------
// ArenaScope + spec-collection integration
// ---------------------------------------------------------------------------

TEST(ArenaScopeTest, ScopesNestAndRestore) {
  auto a = std::make_shared<SpecArena>();
  auto b = std::make_shared<SpecArena>();
  EXPECT_EQ(SpecArena::Current(), nullptr);
  {
    ArenaScope sa(a);
    EXPECT_EQ(SpecArena::Current().get(), a.get());
    {
      ArenaScope sb(b);
      EXPECT_EQ(SpecArena::Current().get(), b.get());
      {
        ArenaScope heap(nullptr);  // explicit heap window inside a scope
        EXPECT_EQ(SpecArena::Current(), nullptr);
      }
      EXPECT_EQ(SpecArena::Current().get(), b.get());
    }
    EXPECT_EQ(SpecArena::Current().get(), a.get());
  }
  EXPECT_EQ(SpecArena::Current(), nullptr);
}

TEST(ArenaScopeTest, SpecCollectionsDrawFromScopedArena) {
  auto arena = std::make_shared<SpecArena>();
  {
    ArenaScope scope(arena);
    SpecMap<int, int> m;
    m.set(1, 10);
    m.set(2, 20);
    SpecSet<int> s;
    s.add(7);
    SpecSeq<int> q{1, 2, 3};
    EXPECT_GT(arena->stats().allocs, 0u);
    EXPECT_EQ(m.at(2), 20);
    EXPECT_TRUE(s.contains(7));
    EXPECT_EQ(q.at(2), 3);
  }
  // Everything built in the scope died with it: the arena is recyclable.
  EXPECT_EQ(arena->live(), 0u);
  EXPECT_TRUE(arena->Reset());
}

TEST(ArenaScopeTest, EscapedRepKeepsArenaAliveAndBlocksReset) {
  auto arena = std::make_shared<SpecArena>();
  SpecMap<int, int> escaped;
  {
    ArenaScope scope(arena);
    SpecMap<int, int> m;
    m.set(1, 10);
    escaped = m;  // shares the arena-backed node beyond the scope
  }
  EXPECT_GT(arena->live(), 0u);
  EXPECT_FALSE(arena->Reset());  // refused, not use-after-reset
  EXPECT_EQ(escaped.at(1), 10);  // the escaped rep is fully usable

  // A uniquely-owned escaped map mutates in place and keeps drawing from
  // the arena its root was born in — no dangling, no heap migration.
  std::uint64_t live_before = arena->live();
  escaped.set(2, 20);
  EXPECT_EQ(escaped.at(2), 20);
  EXPECT_GT(arena->live(), live_before);

  // A *shared* map mutated outside any scope path-copies onto the heap: the
  // arena serves none of the new nodes, and the nodes off the path stay
  // shared with `escaped`.
  SpecMap<int, int> shared_copy = escaped;
  std::uint64_t allocs_before = arena->stats().allocs;
  shared_copy.set(3, 30);
  EXPECT_EQ(arena->stats().allocs, allocs_before);
  EXPECT_EQ(shared_copy.at(3), 30);
  EXPECT_EQ(escaped.contains(3), false);

  // Persistence: dropping `escaped` leaves the copy intact.
  escaped = SpecMap<int, int>{};
  EXPECT_EQ(shared_copy, (SpecMap<int, int>{{1, 10}, {2, 20}, {3, 30}}));

  // Dropping the last map that reaches an arena node makes the arena
  // recyclable again.
  shared_copy = SpecMap<int, int>{};
  EXPECT_EQ(arena->live(), 0u);
  EXPECT_TRUE(arena->Reset());
  EXPECT_EQ(arena.use_count(), 1);  // nothing co-owns the arena any more
}

TEST(ArenaScopeTest, NodesOutliveTheArenaObjectAndMayDieOnAnotherThread) {
  SpecMap<int, int> m;
  {
    auto arena = std::make_shared<SpecArena>();
    ArenaScope scope(arena);
    for (int i = 0; i < 100; ++i) {
      m.set(i, i);
    }
  }  // the SpecArena object is gone; m's nodes keep its chunks alive
  EXPECT_EQ(m.at(42), 42);
  std::thread other([m = std::move(m)]() mutable {
    m.set(100, 100);  // beside a foreign arena's root: served by the heap
    EXPECT_EQ(m.size(), 101u);
    EXPECT_EQ(m.at(7), 7);
    m = SpecMap<int, int>{};  // foreign frees release the last chunk owners
  });
  other.join();
}

// ---------------------------------------------------------------------------
// Checker arena recycling across audits
// ---------------------------------------------------------------------------

TEST(CheckerArenaTest, ArenasRecycleAcrossAuditsAndAgreeWithHeapChecker) {
  TraceFixture arena_f = TraceFixture::Boot();
  TraceFixture heap_f = TraceFixture::Boot();
  RefinementChecker::Options arena_opt{.check_wf_every = 16, .audit_every = 32,
                                       .incremental = true, .use_arena = true};
  RefinementChecker::Options heap_opt{.check_wf_every = 16, .audit_every = 32,
                                      .incremental = true, .use_arena = false};
  RefinementChecker arena_c(&arena_f.kernel, arena_opt);
  RefinementChecker heap_c(&heap_f.kernel, heap_opt);
  for (TraceFixture* f : {&arena_f, &heap_f}) {
    f->SetupIpcAndDma();
  }

  constexpr int kSteps = 3000;
  constexpr int kSteadyStep = 1000;
  std::uint64_t steady_reserved = 0;
  TraceGen gen;
  for (int i = 0; i < kSteps; ++i) {
    TraceGen::Cmd cmd = gen.Gen(arena_f);
    SyscallRet r_arena = arena_c.Step(arena_f.thrds[cmd.thread_idx], cmd.call);
    SyscallRet r_heap = heap_c.Step(heap_f.thrds[cmd.thread_idx], cmd.call);
    ASSERT_EQ(r_arena.error, r_heap.error) << "step " << i;
    if (i + 1 == kSteadyStep) {
      steady_reserved = arena_c.arena()->reserved();
    }
    gen.Observe(cmd.call, r_arena);
    if (r_arena.error == SysError::kOk &&
        (cmd.call.op == SysOp::kSend || cmd.call.op == SysOp::kRecv)) {
      for (int ti = 0; ti < TraceFixture::kThreads; ++ti) {
        if (arena_f.kernel.HasInbound(arena_f.thrds[ti])) {
          arena_f.kernel.TakeInbound(arena_f.thrds[ti]);
          heap_f.kernel.TakeInbound(heap_f.thrds[ti]);
        }
      }
    }
    if (i % 256 == 0 || i == kSteps - 1) {
      ASSERT_TRUE(arena_f.kernel.Abstract() == heap_f.kernel.Abstract()) << "step " << i;
      ASSERT_TRUE(*arena_c.cached() == arena_f.kernel.Abstract()) << "step " << i;
    }
  }

  // The arena actually carried the load, and recycled it: it is never
  // reset, so released nodes come back through its free lists, and the
  // memory it holds is the same at step 3000 as at step 1000.
  EXPECT_GT(arena_c.stats().arena_allocs, 0u);
  EXPECT_EQ(arena_c.arena()->reserved(), steady_reserved);
  EXPECT_EQ(heap_c.stats().arena_allocs, 0u);
  // Steady-state checking allocates >=10x less from the heap than the
  // heap-backed checker (the §14 claim, also gated in CI).
  if (obs::HeapCountingActive()) {
    EXPECT_LT(arena_c.stats().heap_allocs * 10, heap_c.stats().heap_allocs);
  }
  // No scope leaked: this test thread ends with no installed arena.
  EXPECT_EQ(SpecArena::Current(), nullptr);
}

}  // namespace
}  // namespace atmo
