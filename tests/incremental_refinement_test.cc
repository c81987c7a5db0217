// Differential and failure-injection tests for the incremental refinement
// checker: a long randomized syscall trace is checked simultaneously by the
// incremental (delta-abstraction) checker and the full-rebuild checker, and
// the two must agree on every verdict, on every Ψ, and on the step count.
// Also: the audit must catch a forged (incomplete) dirty set, and the
// SpecMap/SpecSet sharing semantics the delta path depends on hold.

#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/kernel.h"
#include "src/verif/refinement_checker.h"
#include "src/verif/trace_gen.h"
#include "src/vstd/check.h"
#include "src/vstd/spec_map.h"
#include "src/vstd/spec_set.h"

namespace atmo {
namespace {

// ---------------------------------------------------------------------------
// Sharing semantics (the delta path's equality fast path): copies share
// the root, real writes path-copy it, no-op writes leave it shared
// ---------------------------------------------------------------------------

TEST(CowSpecMapTest, CopySharesRepAndDetachesOnWrite) {
  SpecMap<int, int> a{{1, 10}, {2, 20}};
  SpecMap<int, int> b = a;
  EXPECT_TRUE(a.SharesRepWith(b));
  EXPECT_TRUE(a == b);

  b.set(3, 30);  // path-copies the root
  EXPECT_FALSE(a.SharesRepWith(b));
  EXPECT_FALSE(a.contains(3));
  EXPECT_EQ(b.at(3), 30);
  EXPECT_EQ(a.at(1), 10);
}

TEST(CowSpecMapTest, NoOpEraseKeepsRepShared) {
  SpecMap<int, int> a{{1, 10}};
  SpecMap<int, int> b = a;
  b.erase(99);  // not present: must not copy
  EXPECT_TRUE(a.SharesRepWith(b));
  b.erase(1);  // present: path-copies
  EXPECT_FALSE(a.SharesRepWith(b));
  EXPECT_TRUE(a.contains(1));
  EXPECT_FALSE(b.contains(1));
}

TEST(CowSpecSetTest, NoOpMutationsKeepRepShared) {
  SpecSet<int> a;
  a.add(1);
  a.add(2);
  SpecSet<int> b = a;
  b.erase(99);  // absent: no copy
  EXPECT_TRUE(a.SharesRepWith(b));
  b.add(1);  // already present: no copy
  EXPECT_TRUE(a.SharesRepWith(b));
  b.add(3);  // real insert: path-copies
  EXPECT_FALSE(a.SharesRepWith(b));
  EXPECT_FALSE(a.contains(3));
}

// A checked step in a process with superpage mappings leaves Ψ's address
// space sharing the page table's mapping store: capturing a space is an
// O(1) copy whatever page sizes it holds.
TEST(IncrementalRefinementTest, CachedAddressSpaceSharesTheStoreWithSuperpages) {
  BootConfig config;
  config.frames = 16384;
  config.reserved_frames = 16;
  Kernel kernel = std::move(*Kernel::Boot(config));
  auto ctnr = kernel.BootCreateContainer(kernel.root_container(), 8192, ~0ull);
  auto proc = kernel.BootCreateProcess(ctnr.value);
  auto thrd = kernel.BootCreateThread(proc.value);
  ASSERT_TRUE(ctnr.ok() && proc.ok() && thrd.ok());
  RefinementChecker checker(&kernel, /*check_wf_every=*/1);

  auto mmap = [&](VAddr va, PageSize size) {
    Syscall call;
    call.op = SysOp::kMmap;
    call.va_range = VaRange{va, 1, size};
    call.map_perm = MapEntryPerm{.writable = true, .user = true, .no_execute = true};
    return checker.Step(thrd.value, call).error;
  };
  ASSERT_EQ(mmap(0x40000000, PageSize::k2M), SysError::kOk);
  ASSERT_EQ(mmap(0x40200000, PageSize::k2M), SysError::kOk);
  ASSERT_EQ(mmap(0x400000, PageSize::k4K), SysError::kOk);

  ASSERT_NE(checker.cached(), nullptr);
  const SpecMap<VAddr, MapEntry>& store = kernel.vm().TableOf(proc.value).AddressSpace();
  EXPECT_EQ(store.size(), 3u);
  EXPECT_TRUE(checker.cached()->address_spaces.at(proc.value).SharesRepWith(store));
}

// ---------------------------------------------------------------------------
// Randomized differential sweep: incremental vs full-rebuild checking
// ---------------------------------------------------------------------------
//
// Xorshift, TraceFixture and TraceGen live in src/verif/trace_gen.h — the
// same generator the parallel sweep harness shards. Fixture is an alias so
// the test reads as before.

using Fixture = TraceFixture;

TEST(IncrementalRefinementTest, DifferentialSweepAgreesWithFullRebuild) {
  Fixture inc_f = Fixture::Boot();
  Fixture full_f = Fixture::Boot();

  RefinementChecker::Options inc_opt{.check_wf_every = 16, .audit_every = 64,
                                     .incremental = true};
  RefinementChecker::Options full_opt{.check_wf_every = 16, .audit_every = 0,
                                      .incremental = false};
  RefinementChecker inc(&inc_f.kernel, inc_opt);
  RefinementChecker full(&full_f.kernel, full_opt);

  // Bind the IPC endpoint on both sides via the boot path — an *external*
  // mutation the dirty logs must absorb before the first checked step.
  for (Fixture* f : {&inc_f, &full_f}) {
    f->SetupIpcAndDma();
  }

  constexpr int kSteps = 12000;
  TraceGen gen;
  for (int i = 0; i < kSteps; ++i) {
    TraceGen::Cmd cmd = gen.Gen(inc_f);
    ThrdPtr t_inc = inc_f.thrds[cmd.thread_idx];
    ThrdPtr t_full = full_f.thrds[cmd.thread_idx];

    SyscallRet r_inc = inc.Step(t_inc, cmd.call);
    SyscallRet r_full = full.Step(t_full, cmd.call);
    ASSERT_EQ(r_inc.error, r_full.error) << "step " << i << " op "
                                         << SysOpName(cmd.call.op);
    gen.Observe(cmd.call, r_inc);

    // Drain pending inbound payloads so rendezvous can repeat.
    if (r_inc.error == SysError::kOk &&
        (cmd.call.op == SysOp::kSend || cmd.call.op == SysOp::kRecv)) {
      for (int ti = 0; ti < 3; ++ti) {
        if (inc_f.kernel.HasInbound(inc_f.thrds[ti])) {
          inc_f.kernel.TakeInbound(inc_f.thrds[ti]);
          full_f.kernel.TakeInbound(full_f.thrds[ti]);
        }
      }
    }

    if (i % 512 == 0 || i == kSteps - 1) {
      // The incrementally maintained Ψ is bit-for-bit the full abstraction,
      // and the two kernels never diverged.
      ASSERT_NE(inc.cached(), nullptr);
      ASSERT_TRUE(*inc.cached() == inc_f.kernel.Abstract()) << "step " << i;
      ASSERT_TRUE(inc_f.kernel.Abstract() == full_f.kernel.Abstract()) << "step " << i;
    }
  }

  EXPECT_EQ(inc.steps_checked(), full.steps_checked());
  EXPECT_EQ(inc.steps_checked(), static_cast<std::uint64_t>(kSteps));
  EXPECT_GT(inc.stats().delta_abstractions, 0u);
  EXPECT_GT(inc.stats().audit_passes, 0u);
  EXPECT_EQ(full.stats().delta_abstractions, 0u);
  // The whole point: deltas are small relative to machine size.
  EXPECT_LT(inc.stats().dirty_entries / (3 * inc.stats().steps), 64u);
}

// ---------------------------------------------------------------------------
// Audit failure injection: a forged dirty set IS caught
// ---------------------------------------------------------------------------
//
// Each case mutates abstract-relevant state behind the checker's back. With
// the dirty log discarded — a subsystem that forgot its dirty mark — the
// next audit must fail and name the first component of Ψ that disagrees;
// with the log intact, the next step's delta absorbs the change and the
// audit passes. The allocator-wide cases reach the components the audit
// compares as streams (pages and the free sets). The checked steps around
// the mutation change no state (an munmap of an unmapped address by the
// running thread), so only the audit can see it.

struct Injection {
  const char* name;
  const char* component;  // the first component of Ψ the mutation changes
  void (*mutate)(Fixture* f);
};

// Names each case in test listings (ctest shows Unlogged/...Test.X/IpcBuffer).
void PrintTo(const Injection& injection, std::ostream* os) { *os << injection.name; }

class AuditInjectionTest : public ::testing::TestWithParam<Injection> {
 protected:
  static constexpr VAddr kUnmappedVa = 0x70000000;  // outside every mapped window

  // The first audited step: the cached Ψ is established and agrees.
  void EstablishCache() {
    f_.SetupIpcAndDma();
    Step();
    EXPECT_EQ(checker_.stats().audit_passes, 1u);
  }
  void Step() {
    Syscall munmap;
    munmap.op = SysOp::kMunmap;
    munmap.va_range = VaRange{kUnmappedVa, 1, PageSize::k4K};
    EXPECT_EQ(checker_.Step(f_.thrds[0], munmap).error, SysError::kInvalid);
  }

  Fixture f_ = Fixture::Boot();
  RefinementChecker checker_{
      &f_.kernel,
      RefinementChecker::Options{.check_wf_every = 0, .audit_every = 1, .incremental = true}};
};

TEST_P(AuditInjectionTest, CatchesForgedDirtySet) {
  EstablishCache();
  GetParam().mutate(&f_);
  f_.kernel.DrainDirty();  // the forged (empty) dirty set

  ScopedThrowOnCheckFailure guard;
  try {
    Step();
    ADD_FAILURE() << "the audit missed an unlogged mutation";
  } catch (const CheckViolation& violation) {
    EXPECT_NE(violation.event().message.find(std::string("in component ") +
                                             GetParam().component),
              std::string::npos)
        << violation.event().message;
  }
}

TEST_P(AuditInjectionTest, PassesWhenDirtySetIsHonest) {
  EstablishCache();
  GetParam().mutate(&f_);
  Step();
  EXPECT_EQ(checker_.stats().audit_passes, 2u);
}

INSTANTIATE_TEST_SUITE_P(
    Unlogged, AuditInjectionTest,
    ::testing::Values(
        Injection{"IpcBuffer", "threads",
                  [](Fixture* f) {
                    f->kernel.pm_mut().MutableThread(f->thrds[1]).ipc_buf.scalars[0] ^= 1;
                  }},
        // A page leaves the 4K free list and becomes an allocated page.
        Injection{"AllocPage4K", "pages",
                  [](Fixture* f) {
                    ASSERT_TRUE(f->kernel.alloc_mut().AllocPage4K(f->ctnr).has_value());
                  }},
        // An in-use page (thread 1's object page) changes owner.
        Injection{"SetOwner", "pages",
                  [](Fixture* f) {
                    f->kernel.alloc_mut().SetOwner(f->thrds[1], f->kernel.root_container());
                  }},
        // A mapped page (a DMA donor) gains a mapping reference.
        Injection{"IncMapCount", "pages",
                  [](Fixture* f) {
                    PagePtr page = *f->kernel.alloc().MappedPages().begin();
                    f->kernel.alloc_mut().IncMapCount(page);
                  }},
        // 512 free 4K frames merge into one free 2M unit: only the free
        // sets change.
        Injection{"TryMerge2M", "free_pages_4k",
                  [](Fixture* f) {
                    bool merged = false;
                    for (PagePtr base = kPageSize2M; !merged && base < 2048 * kPageSize4K;
                         base += kPageSize2M) {
                      merged = f->kernel.alloc_mut().TryMerge2M(base);
                    }
                    ASSERT_TRUE(merged);
                  }}));

// ---------------------------------------------------------------------------
// Regression: SysIommuUnmapDma error paths (unguarded iterator fix)
// ---------------------------------------------------------------------------

TEST(IommuUnmapDmaRegressionTest, ErrorPathsDoNotDereferenceEnd) {
  Fixture f = Fixture::Boot();
  RefinementChecker checker(&f.kernel, /*check_wf_every=*/1);

  // Nonexistent domain → kDenied (authority check fires first).
  Syscall unmap;
  unmap.op = SysOp::kIommuUnmapDma;
  unmap.iommu_domain = 424242;
  unmap.iova = 0;
  EXPECT_EQ(checker.Step(f.thrds[0], unmap).error, SysError::kDenied);

  // Real domain, unmapped iova → kInvalid, atomically (no state change).
  Syscall create;
  create.op = SysOp::kIommuCreateDomain;
  SyscallRet dom = checker.Step(f.thrds[0], create);
  ASSERT_TRUE(dom.ok());
  unmap.iommu_domain = dom.value;
  unmap.iova = 0x7000;
  EXPECT_EQ(checker.Step(f.thrds[0], unmap).error, SysError::kInvalid);

  // A foreign thread (different container: root) is denied.
  // f.thrds all share a container, so probe from a boot thread in root.
  auto root_proc = f.kernel.BootCreateProcess(f.kernel.root_container());
  ASSERT_TRUE(root_proc.ok());
  auto root_thrd = f.kernel.BootCreateThread(root_proc.value);
  ASSERT_TRUE(root_thrd.ok());
  EXPECT_EQ(checker.Step(root_thrd.value, unmap).error, SysError::kDenied);
}

}  // namespace
}  // namespace atmo
