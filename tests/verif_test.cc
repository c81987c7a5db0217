// Verification-harness tests: the invariant registry's execution model
// (ordering, timing, parallel equivalence, failure reporting) and the
// refinement checker's bookkeeping.

#include <map>

#include <gtest/gtest.h>

#include "src/verif/invariant_registry.h"
#include "src/verif/refinement_checker.h"
#include "src/verif/trace_gen.h"

namespace atmo {

// Plants a frame permission the VM subsystem should not hold.
struct VmManagerTestPeer {
  static void AddHeldFrame(VmManager* vm, PagePtr page) {
    vm->frame_perms_.emplace(page, FramePerm::Mint(page, PageSize::k4K));
  }
};

// Rewinds the ring-id counter to the newest live id (0 with no ring), so the
// next setup would reissue a live or a sentinel id.
struct SyscallRingTableTestPeer {
  static void RewindIds(SyscallRingTable* rings) {
    rings->next_id_ = rings->rings_.empty() ? 0 : rings->rings_.rbegin()->first;
  }
};

namespace {

Kernel SmallKernel() {
  BootConfig config;
  config.frames = 2048;
  config.reserved_frames = 16;
  return std::move(*Kernel::Boot(config));
}

TEST(InvariantRegistryTest, RunsChecksInRegistrationOrder) {
  Kernel kernel = SmallKernel();
  InvariantRegistry reg;
  reg.Register("first", [](const Kernel&) { return InvResult{}; });
  reg.Register("second", [](const Kernel&) { return InvResult::Fail("boom"); });
  reg.Register("third", [](const Kernel&) { return InvResult{}; });

  SuiteReport report = reg.RunAll(kernel, 1);
  ASSERT_EQ(report.outcomes.size(), 3u);
  EXPECT_EQ(report.outcomes[0].name, "first");
  EXPECT_TRUE(report.outcomes[0].ok);
  EXPECT_EQ(report.outcomes[1].name, "second");
  EXPECT_FALSE(report.outcomes[1].ok);
  EXPECT_EQ(report.outcomes[1].detail, "boom");
  EXPECT_FALSE(report.AllOk());
}

TEST(InvariantRegistryTest, TimingIsPopulated) {
  Kernel kernel = SmallKernel();
  InvariantRegistry reg;
  reg.Register("busy", [](const Kernel&) {
    volatile std::uint64_t x = 0;
    for (int i = 0; i < 100000; ++i) {
      x += static_cast<std::uint64_t>(i);
    }
    return InvResult{};
  });
  SuiteReport report = reg.RunAll(kernel, 1);
  EXPECT_GT(report.outcomes[0].seconds, 0.0);
  EXPECT_GT(report.wall_seconds, 0.0);
  EXPECT_GE(report.TotalCheckSeconds(), report.outcomes[0].seconds);
}

TEST(InvariantRegistryTest, ParallelRunCoversEveryCheckExactlyOnce) {
  Kernel kernel = SmallKernel();
  InvariantRegistry reg;
  std::array<std::atomic<int>, 24> hits{};
  for (int i = 0; i < 24; ++i) {
    reg.Register("check-" + std::to_string(i), [&hits, i](const Kernel&) {
      hits[static_cast<std::size_t>(i)].fetch_add(1);
      return InvResult{};
    });
  }
  SuiteReport report = reg.RunAll(kernel, 8);
  EXPECT_TRUE(report.AllOk());
  for (int i = 0; i < 24; ++i) {
    EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << i;
  }
}

TEST(InvariantRegistryTest, StandardSuiteDetectsEachCorruptionClass) {
  // One corruption per subsystem; the suite must flag each.
  struct Case {
    const char* expect_check;
    void (*corrupt)(Kernel*);
  };
  Case cases[] = {
      {"container_tree_wf",
       [](Kernel* k) { k->pm_mut().MutableContainer(k->root_container()).depth = 9; }},
      {"quota_wf",
       [](Kernel* k) { k->pm_mut().MutableContainer(k->root_container()).mem_used = 77; }},
  };
  for (const Case& c : cases) {
    Kernel kernel = SmallKernel();
    c.corrupt(&kernel);
    InvariantRegistry suite = InvariantRegistry::StandardSuite();
    SuiteReport report = suite.RunAll(kernel, 1);
    bool flagged = false;
    for (const CheckOutcome& outcome : report.outcomes) {
      if (outcome.name == c.expect_check) {
        flagged = !outcome.ok;
      }
    }
    EXPECT_TRUE(flagged) << c.expect_check << " did not flag its corruption";
  }
}

// Flips one bit (present, writable, user, NX or an address bit) of a
// random leaf PTE of `tables`, CPU address spaces or IOMMU domains.
void FlipLeafPteBit(Kernel* k, const std::map<std::uint64_t, PageTable>& tables,
                    Xorshift* rng) {
  struct Leaf {
    PAddr cr3;
    VAddr va;
    PageSize size;
  };
  std::vector<Leaf> leaves;
  for (const auto& [key, table] : tables) {
    for (const auto& [va, entry] : table.AddressSpace()) {
      leaves.push_back(Leaf{table.cr3(), va, entry.size});
    }
  }
  ASSERT_FALSE(leaves.empty());
  const Leaf& leaf = leaves[rng->Next() % leaves.size()];
  int leaf_level = leaf.size == PageSize::k4K ? 1 : leaf.size == PageSize::k2M ? 2 : 3;
  PAddr node = leaf.cr3;
  for (int level = 4; level > leaf_level; --level) {
    node = k->mem().HwReadU64(node + VaIndex(leaf.va, level) * 8) & kPteAddrMask;
  }
  const PAddr entry = node + VaIndex(leaf.va, leaf_level) * 8;
  constexpr std::uint64_t kBits[] = {kPtePresent, kPteWritable, kPteUser, kPteNx,
                                     kPageSize4K << 3};
  k->mem_mut().HwWriteU64(entry,
                          k->mem().HwReadU64(entry) ^ kBits[rng->Next() % std::size(kBits)]);
}

// Gives `k` a DMA mapping through checked syscalls when no IOMMU domain has
// one: a fresh domain maps a runnable trace thread's DMA-donor page.
void EnsureDmaMapping(Kernel* k, const TraceFixture& f) {
  for (const auto& [id, table] : k->iommu().domains()) {
    if (table.MappingCount() != 0) {
      return;
    }
  }
  int ti = 0;
  while (!f.Dispatchable(f.thrds[ti])) {
    ++ti;
  }
  RefinementChecker checker(k);
  Syscall call;
  call.op = SysOp::kIommuCreateDomain;
  SyscallRet domain = checker.Step(f.thrds[ti], call);
  ASSERT_EQ(domain.error, SysError::kOk);
  call.op = SysOp::kIommuMapDma;
  call.iommu_domain = domain.value;
  call.iova = 0x10000;
  call.dma_va = TraceFixture::kDmaVaBase + static_cast<VAddr>(ti) * kPageSize4K;
  ASSERT_EQ(checker.Step(f.thrds[ti], call).error, SysError::kOk);
}

// TotalWf reads the frame table in one pass and the page-table nodes a line
// at a time; the standard suite runs each obligation on its own. On
// randomized ring + grant + obs trace states with one injected fault each,
// TotalWf must reach the verdict of the whole suite, flat and recursive.
TEST(TotalWfDifferentialTest, AgreesWithStandardSuiteUnderInjectedFaults) {
  enum class Fault {
    kNone,
    kMemUsed,
    kIncMapCount,
    kSetOwner,
    kExtraFramePerm,
    kPteBitFlip,
    kIommuPteBitFlip,
    kRingIdRewind
  };
  constexpr Fault kFaults[] = {Fault::kNone,           Fault::kMemUsed,
                               Fault::kIncMapCount,    Fault::kSetOwner,
                               Fault::kExtraFramePerm, Fault::kPteBitFlip,
                               Fault::kIommuPteBitFlip, Fault::kRingIdRewind};
  const InvariantRegistry flat_suite = InvariantRegistry::StandardSuite(false);
  const InvariantRegistry recursive_suite = InvariantRegistry::StandardSuite(true);

  for (std::uint64_t seed : {11u, 12u, 13u, 14u}) {
    TraceFixture f = TraceFixture::Boot();
    f.SetupIpcAndDma();
    TraceGen gen(seed * 0x9e3779b97f4a7c15ull);
    gen.ring_ops = gen.grant_ops = gen.obs_ops = true;
    Xorshift rng{seed};
    for (int step = 1; step <= 400; ++step) {
      TraceGen::Cmd cmd = gen.Gen(f);
      SyscallRet ret = f.kernel.Step(f.thrds[cmd.thread_idx], cmd.call);
      gen.Observe(cmd.call, ret);
      for (int ti = 0; ti < TraceFixture::kThreads; ++ti) {
        if (f.kernel.HasInbound(f.thrds[ti])) {
          f.kernel.TakeInbound(f.thrds[ti]);
        }
      }
      if (step % 100 != 0) {
        continue;
      }
      for (Fault fault : kFaults) {
        Kernel k = f.kernel.CloneForVerification();
        const PageAllocator& alloc = k.alloc();
        std::vector<PagePtr> mapped;
        std::vector<PagePtr> owned;  // in-use pages the trace's container pays for
        alloc.ForEachInUsePage([&](PagePtr page, PageState state) {
          if (state == PageState::kMapped) {
            mapped.push_back(page);
          }
          if (alloc.OwnerOf(page) == f.ctnr) {
            owned.push_back(page);
          }
          return true;
        });
        ASSERT_FALSE(mapped.empty());
        ASSERT_FALSE(owned.empty());
        switch (fault) {
          case Fault::kNone:
            break;
          case Fault::kMemUsed:
            k.pm_mut().MutableContainer(f.ctnr).mem_used += 1;
            break;
          case Fault::kIncMapCount:
            k.alloc_mut().IncMapCount(mapped[rng.Next() % mapped.size()]);
            break;
          case Fault::kSetOwner:
            k.alloc_mut().SetOwner(owned[rng.Next() % owned.size()], k.root_container());
            break;
          case Fault::kExtraFramePerm:
            VmManagerTestPeer::AddHeldFrame(&k.vm_mut(), *alloc.FreePages(PageSize::k4K).begin());
            break;
          case Fault::kPteBitFlip:
            ASSERT_NO_FATAL_FAILURE(FlipLeafPteBit(&k, k.vm().tables(), &rng));
            break;
          case Fault::kIommuPteBitFlip:
            ASSERT_NO_FATAL_FAILURE(EnsureDmaMapping(&k, f));
            ASSERT_NO_FATAL_FAILURE(FlipLeafPteBit(&k, k.iommu().domains(), &rng));
            break;
          case Fault::kRingIdRewind:
            SyscallRingTableTestPeer::RewindIds(&k.rings_mut());
            break;
        }
        InvResult total = k.TotalWf();
        SuiteReport flat = flat_suite.RunAll(k, 1);
        SuiteReport recursive = recursive_suite.RunAll(k, 1);
        const int fault_id = static_cast<int>(fault);
        EXPECT_EQ(total.ok, fault == Fault::kNone)
            << "seed " << seed << " step " << step << " fault " << fault_id << ": "
            << total.detail;
        if (fault == Fault::kExtraFramePerm) {
          // Its only fault is held != mapped: MemorySafetyWf reports it.
          EXPECT_EQ(total.detail, "held frame permissions differ from the mapped set");
        }
        if (fault == Fault::kIommuPteBitFlip) {
          EXPECT_EQ(total.detail.rfind("IOMMU page-table refinement: ", 0), 0u) << total.detail;
        }
        if (fault == Fault::kRingIdRewind) {
          EXPECT_EQ(total.detail, "syscall-ring table ill-formed");
        }
        EXPECT_EQ(total.ok, flat.AllOk()) << "seed " << seed << " step " << step << " fault "
                                          << fault_id;
        EXPECT_EQ(total.ok, recursive.AllOk()) << "seed " << seed << " step " << step
                                               << " fault " << fault_id;
      }
    }
  }
}

TEST(RefinementCheckerTest, CountsStepsAndHonoursWfSampling) {
  Kernel kernel = SmallKernel();
  auto ctnr = kernel.BootCreateContainer(kernel.root_container(), 256, ~0ull);
  auto proc = kernel.BootCreateProcess(ctnr.value);
  auto thrd = kernel.BootCreateThread(proc.value);

  RefinementChecker checker(&kernel, /*check_wf_every=*/0);  // specs only
  Syscall yield;
  yield.op = SysOp::kYield;
  for (int i = 0; i < 5; ++i) {
    checker.Step(thrd.value, yield);
  }
  EXPECT_EQ(checker.steps_checked(), 5u);
  EXPECT_EQ(checker.kernel(), &kernel);
}

}  // namespace
}  // namespace atmo
