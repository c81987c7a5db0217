// Wf by induction (DESIGN.md §8): Kernel::LocalWf against TotalWf.
//
// - Oracle: on randomized traces with every TraceGen mode on, the checker
//   establishes Wf by LocalWf at every check after the first (its base
//   advancing every 1, 16 or 64 steps, atomic ring drains rolling back in
//   between), and TotalWf agrees at every one of those checks.
// - Faults through a logged path fail LocalWf, naming the clause, and fail
//   TotalWf too. Faults behind every log are still caught by the checker,
//   by the TotalWf that runs with the audit.
// - The checker's TotalWf cadence, read from CheckStats::total_wf_runs.

#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/obs/alloc_hook.h"
#include "src/verif/refinement_checker.h"
#include "src/verif/trace_gen.h"
#include "src/vstd/check.h"

namespace atmo {

// Writes through the allocator's own recording path, as a buggy allocator
// operation would: the records are exact, the result is ill-formed.
struct PageAllocatorTestPeer {
  static PageAllocator::PageMeta& Write(PageAllocator* a, std::uint64_t frame) {
    return a->Write(frame);
  }
  static PageAllocator::FreeList& WriteList(PageAllocator* a, PageSize size) {
    return a->WriteList(size);
  }
  static const PageAllocator::PageMeta& Meta(const PageAllocator& a, std::uint64_t frame) {
    return a.meta_[frame];
  }
  static std::uint64_t FreeHead(const PageAllocator& a, PageSize size) {
    return a.ListFor(size).head;
  }
  static void BumpGroupCounter(PageAllocator* a, std::uint64_t group) {
    a->RecordGroup(group);
    ++a->free_in_2m_[group];
  }
  static void BumpRegionCounter(PageAllocator* a, std::uint64_t region) {
    a->RecordRegion(region);
    ++a->free_eq_1g_[region];
  }
};

// Plants a frame permission the VM subsystem should not hold (no log).
struct VmManagerTestPeer {
  static void AddHeldFrame(VmManager* vm, PagePtr page) {
    vm->frame_perms_.emplace(page, FramePerm::Mint(page, PageSize::k4K));
  }
};

// Rewinds the ring-id counter (no log).
struct SyscallRingTableTestPeer {
  static void RewindIds(SyscallRingTable* rings) {
    rings->next_id_ = rings->rings_.empty() ? 0 : rings->rings_.rbegin()->first;
  }
};

namespace {

using Peer = PageAllocatorTestPeer;
constexpr std::uint64_t kNil = PageAllocator::kNilFrame;

// Runs `steps` TraceGen steps (every mode on) under `checker`, draining
// inbound messages as the trace harnesses do. Returns the number of atomic
// ring drains that rolled back.
int RunTrace(TraceFixture* f, TraceGen* gen, RefinementChecker* checker, int steps,
             const std::function<void(int)>& after_step = nullptr) {
  int rollbacks = 0;
  for (int step = 1; step <= steps; ++step) {
    TraceGen::Cmd cmd = gen->Gen(*f);
    SyscallRet ret = checker->Step(f->thrds[cmd.thread_idx], cmd.call);
    gen->Observe(cmd.call, ret);
    rollbacks += cmd.call.op == SysOp::kRingEnter && ret.error == SysError::kWouldFault ? 1 : 0;
    for (ThrdPtr t : f->thrds) {
      if (f->kernel.HasInbound(t)) {
        f->kernel.TakeInbound(t);
      }
    }
    if (after_step) {
      after_step(step);
    }
  }
  return rollbacks;
}

TraceGen EveryModeGen(std::uint64_t seed) {
  TraceGen gen(SplitMix64(seed));
  gen.ring_ops = gen.grant_ops = gen.obs_ops = true;
  return gen;
}

TEST(LocalWfOracleTest, AgreesWithTotalWfAtEveryCheck) {
  int rollbacks = 0;
  for (std::uint64_t every : {1u, 16u, 64u}) {
    for (std::uint64_t seed : {1u, 2u, 3u}) {
      SCOPED_TRACE("check_wf_every " + std::to_string(every) + " seed " + std::to_string(seed));
      TraceFixture f = TraceFixture::Boot();
      f.SetupIpcAndDma();
      TraceGen gen = EveryModeGen(seed);
      RefinementChecker checker(
          &f.kernel, RefinementChecker::Options{.check_wf_every = every, .audit_every = 0});
      // The checker throws if LocalWf fails; TotalWf must hold there too.
      ScopedThrowOnCheckFailure guard;
      rollbacks += RunTrace(&f, &gen, &checker, 640, [&](int step) {
        if (step % static_cast<int>(every) == 0) {
          InvResult total = f.kernel.TotalWf();
          ASSERT_TRUE(total.ok) << "step " << step << ": " << total.detail;
        }
      });
      EXPECT_EQ(checker.stats().wf_checks, 640 / every);
      EXPECT_EQ(checker.stats().total_wf_runs, 1u);  // the first check only
      EXPECT_GT(checker.stats().local_wf_entries, 0u);
    }
  }
  // Atomic batches rolled back between checks, and LocalWf went on from
  // the records drained before them.
  EXPECT_GT(rollbacks, 0);
}

// The descriptor slot of an endpoint that thread 0 and a thread of the root
// container both hold in an established fixture; the trace never uses it.
constexpr EdptIdx kSharedSlot = kMaxEdptDescriptors - 1;

constexpr std::uint64_t kFramesPer2M = kPageSize2M / kPageSize4K;

// The base frame of the highest 2M group whose frames are all free 4K
// pages, or 0.
std::uint64_t FreeGroup(const PageAllocator& alloc) {
  for (std::uint64_t group = alloc.total_frames() / kFramesPer2M; group-- > 1;) {
    bool free = true;
    for (std::uint64_t i = 0; free && i < kFramesPer2M; ++i) {
      const PagePtr page = (group * kFramesPer2M + i) * kPageSize4K;
      free = alloc.StateOf(page) == PageState::kFree && alloc.SizeClassOf(page) == PageSize::k4K;
    }
    if (free) {
      return group * kFramesPer2M;
    }
  }
  return 0;
}

// The head frame of the free 2M unit of an established fixture.
std::uint64_t FreeUnit(const PageAllocator& alloc) {
  for (std::uint64_t head = 0; head < alloc.total_frames(); head += kFramesPer2M) {
    if (alloc.StateOf(head * kPageSize4K) == PageState::kFree &&
        alloc.SizeClassOf(head * kPageSize4K) == PageSize::k2M) {
      return head;
    }
  }
  return 0;
}


// A trace state in which Wf holds, its logs drained: the base of a local
// check.
TraceFixture EstablishedFixture() {
  TraceFixture f = TraceFixture::Boot();
  f.SetupIpcAndDma();
  TraceGen gen = EveryModeGen(7);
  {
    RefinementChecker checker(&f.kernel, RefinementChecker::Options{.check_wf_every = 1});
    RunTrace(&f, &gen, &checker, 200);
  }
  PmResult<EdptPtr> shared =
      f.kernel.pm_mut().NewEndpoint(&f.kernel.alloc_mut(), f.thrds[0], kSharedSlot);
  EXPECT_TRUE(shared.ok());
  PmResult<ProcPtr> root_proc = f.kernel.BootCreateProcess(f.kernel.root_container());
  PmResult<ThrdPtr> root_thrd = f.kernel.BootCreateThread(root_proc.value);
  EXPECT_TRUE(root_proc.ok() && root_thrd.ok());
  EXPECT_EQ(f.kernel.pm_mut().BindEndpoint(root_thrd.value, kSharedSlot, shared.value),
            ProcError::kOk);
  // A free 2M unit, with a fully free 4K group still left.
  EXPECT_TRUE(f.kernel.alloc_mut().TryMerge2M(FreeGroup(f.kernel.alloc()) * kPageSize4K));
  EXPECT_NE(FreeGroup(f.kernel.alloc()), 0u);
  EXPECT_TRUE(f.kernel.TotalWf().ok);
  DirtySet discarded;
  f.kernel.DrainDirty(&discarded);
  return f;
}

// LocalWf over everything written since `base`.
InvResult LocalWfSince(Kernel* k, const AbstractKernel& base) {
  DirtySet written;
  PageAllocator::Writes writes;
  k->DrainDirty(&written, &writes);
  written.Normalize();
  writes.KeepOldest();
  LocalWfScratch scratch;
  std::uint64_t entries = 0;
  return k->LocalWf(base, written, writes, &scratch, &entries);
}

// A trace thread that can be dispatched.
int DispatchableThread(const TraceFixture& f) {
  int ti = 0;
  while (!f.Dispatchable(f.thrds[ti])) {
    ++ti;
  }
  return ti;
}

// Flips the NX bit of thread `ti`'s DMA donor's leaf PTE, behind every log.
void FlipDmaPteNx(TraceFixture* f, int ti) {
  const ProcPtr proc = f->kernel.pm().GetThread(f->thrds[ti]).owning_proc;
  const VAddr va = TraceFixture::kDmaVaBase + static_cast<VAddr>(ti) * kPageSize4K;
  PAddr node = f->kernel.vm().TableOf(proc).cr3();
  for (int level = 4; level > 1; --level) {
    node = f->kernel.mem().HwReadU64(node + VaIndex(va, level) * 8) & kPteAddrMask;
  }
  const PAddr entry = node + VaIndex(va, 1) * 8;
  f->kernel.mem_mut().HwWriteU64(entry, f->kernel.mem().HwReadU64(entry) ^ kPteNx);
}

// The `n` members of the 4K free list after its head.
std::vector<std::uint64_t> FreeListRun(const PageAllocator& alloc, int n) {
  std::vector<std::uint64_t> run;
  std::uint64_t cur = Peer::Meta(alloc, Peer::FreeHead(alloc, PageSize::k4K)).next;
  for (; static_cast<int>(run.size()) < n && cur != kNil; cur = Peer::Meta(alloc, cur).next) {
    run.push_back(cur);
  }
  return run;
}

struct LoggedFault {
  const char* name;
  const char* clause;  // a substring of LocalWf's detail
  void (*apply)(TraceFixture* f);
};

void PrintTo(const LoggedFault& fault, std::ostream* os) { *os << fault.name; }

class LocalWfFaultTest : public ::testing::TestWithParam<LoggedFault> {};

TEST_P(LocalWfFaultTest, FailsLocalWfNamingItsClauseAndFailsTotalWf) {
  TraceFixture f = EstablishedFixture();
  const AbstractKernel base = f.kernel.Abstract();
  {
    InvResult clean = LocalWfSince(&f.kernel, base);
    ASSERT_TRUE(clean.ok) << clean.detail;
  }
  GetParam().apply(&f);
  InvResult local = LocalWfSince(&f.kernel, base);
  EXPECT_FALSE(local.ok);
  EXPECT_NE(local.detail.find(GetParam().clause), std::string::npos) << local.detail;
  InvResult total = f.kernel.TotalWf();
  EXPECT_FALSE(total.ok);
}

INSTANTIATE_TEST_SUITE_P(
    ThroughTheLogs, LocalWfFaultTest,
    ::testing::Values(
        // TotalWfDifferentialTest's faults that go through a logged path.
        LoggedFault{"MemUsed", "mem_used",
                    [](TraceFixture* f) {
                      f->kernel.pm_mut().MutableContainer(f->ctnr).mem_used += 1;
                    }},
        LoggedFault{"IncMapCount", "map count disagrees with mapping tally",
                    [](TraceFixture* f) {
                      f->kernel.alloc_mut().IncMapCount(
                          *f->kernel.alloc().MappedPages().begin());
                    }},
        LoggedFault{"SetOwner", "mem_used",
                    [](TraceFixture* f) {
                      f->kernel.alloc_mut().SetOwner(f->thrds[1], f->kernel.root_container());
                    }},
        // Object predicates and relations with a written end.
        LoggedFault{"ForgedSubtree", "references a dead container",
                    [](TraceFixture* f) {
                      f->kernel.pm_mut()
                          .MutableContainer(f->kernel.root_container())
                          .subtree.add(0xdead000);
                    }},
        LoggedFault{"EndpointRefCount", "rf_count",
                    [](TraceFixture* f) {
                      EdptPtr e = f->kernel.pm().GetThread(f->thrds[0]).endpoints[0];
                      f->kernel.pm_mut().MutableEndpoint(e).rf_count += 1;
                    }},
        LoggedFault{"FreedEndpointStillHeld", "descriptor references freed endpoint",
                    [](TraceFixture* f) {
                      // The shared endpoint's count forged to one: thread 0's
                      // unbind frees it under the root container's holder,
                      // which nothing writes.
                      ProcessManager& pm = f->kernel.pm_mut();
                      EdptPtr e = pm.GetThread(f->thrds[0]).endpoints[kSharedSlot];
                      pm.MutableEndpoint(e).rf_count = 1;
                      ASSERT_EQ(pm.UnbindEndpoint(&f->kernel.alloc_mut(), f->thrds[0], kSharedSlot),
                                ProcError::kOk);
                      ASSERT_FALSE(pm.EndpointExists(e));
                    }},
        LoggedFault{"QuotaBelowUse", "exceeds its memory quota",
                    [](TraceFixture* f) {
                      // Quota moves from the container to its parent, so the
                      // reservation still sums to the boot total.
                      ProcessManager& pm = f->kernel.pm_mut();
                      const Container& c = pm.GetContainer(f->ctnr);
                      const std::uint64_t moved = c.mem_quota - c.mem_used + 1;
                      pm.MutableContainer(f->ctnr).mem_quota -= moved;
                      pm.MutableContainer(f->kernel.root_container()).mem_quota += moved;
                    }},
        LoggedFault{"QuotaCreated", "total container quota",
                    [](TraceFixture* f) {
                      f->kernel.pm_mut().MutableContainer(f->ctnr).mem_quota += 1;
                    }},
        LoggedFault{"OwnedByDeadContainer", "pages attributed to dead container",
                    [](TraceFixture* f) {
                      // A thread's page re-attributed to no live container,
                      // and its old owner's charge moved with it.
                      f->kernel.alloc_mut().SetOwner(f->thrds[1], 0xdead000);
                      f->kernel.pm_mut().MutableContainer(f->ctnr).mem_used -= 1;
                    }},
        LoggedFault{"NonSubmittableSqEntry", "syscall-ring table ill-formed",
                    [](TraceFixture* f) {
                      SyscallRingTable& rings = f->kernel.rings_mut();
                      const Thread& t = f->kernel.pm().GetThread(f->thrds[0]);
                      std::uint64_t id =
                          rings.Setup(f->thrds[0], t.owning_proc, t.owning_ctnr, 8, 0);
                      ASSERT_NE(id, 0u);
                      RingSqEntry yield;  // kYield cannot be deferred onto a ring
                      ASSERT_TRUE(rings.SqPush(id, yield));
                    }},
        // Memory safety over written frames.
        LoggedFault{"UnownedAllocation", "page closures differ",
                    [](TraceFixture* f) {
                      ASSERT_TRUE(f->kernel.alloc_mut().AllocPage4K(kNullPtr).has_value());
                    }},
        LoggedFault{"MappedWithoutHolder", "held frame permissions",
                    [](TraceFixture* f) {
                      std::optional<PageAlloc> page = f->kernel.alloc_mut().AllocPage4K(kNullPtr);
                      ASSERT_TRUE(page.has_value());
                      f->kernel.alloc_mut().MarkMapped(page->ptr);
                    }},
        // Allocator faults made through its write path.
        LoggedFault{"FreeListSkip", "free-list links",
                    [](TraceFixture* f) {
                      // a -> b -> c becomes a -> c; b keeps its links.
                      std::vector<std::uint64_t> run = FreeListRun(f->kernel.alloc(), 3);
                      ASSERT_EQ(run.size(), 3u);
                      Peer::Write(&f->kernel.alloc_mut(), run[0]).next = run[2];
                    }},
        LoggedFault{"DetachedCycle", "free-list links",
                    [](TraceFixture* f) {
                      // a -> b -> c -> d becomes a -> d with b <-> c a cycle:
                      // every link is symmetric and the count unchanged.
                      std::vector<std::uint64_t> run = FreeListRun(f->kernel.alloc(), 4);
                      ASSERT_EQ(run.size(), 4u);
                      PageAllocator& a = f->kernel.alloc_mut();
                      Peer::Write(&a, run[0]).next = run[3];
                      Peer::Write(&a, run[3]).prev = run[0];
                      Peer::Write(&a, run[1]).prev = run[2];
                      Peer::Write(&a, run[2]).next = run[1];
                    }},
        LoggedFault{"FreeListCount", "free-list count",
                    [](TraceFixture* f) {
                      Peer::WriteList(&f->kernel.alloc_mut(), PageSize::k4K).count += 1;
                    }},
        // One per per-frame clause of the allocator.
        LoggedFault{"UnavailableAboveReserved", "unavailable frame above the reserved range",
                    [](TraceFixture* f) {
                      std::vector<std::uint64_t> run = FreeListRun(f->kernel.alloc(), 1);
                      ASSERT_EQ(run.size(), 1u);
                      Peer::Write(&f->kernel.alloc_mut(), run[0]).state = PageState::kUnavailable;
                    }},
        LoggedFault{"UnalignedUnit", "unit misaligned or past the end",
                    [](TraceFixture* f) {
                      std::uint64_t frame = FreeGroup(f->kernel.alloc()) + 1;
                      Peer::Write(&f->kernel.alloc_mut(), frame).size = PageSize::k2M;
                    }},
        LoggedFault{"MappedWithoutMapping", "mapped frame with no mapping",
                    [](TraceFixture* f) {
                      PagePtr page = *f->kernel.alloc().MappedPages().begin();
                      Peer::Write(&f->kernel.alloc_mut(), page / kPageSize4K).map_count = 0;
                    }},
        LoggedFault{"UnmergedTails", "unit tail not merged into its head",
                    [](TraceFixture* f) {
                      std::uint64_t head = FreeGroup(f->kernel.alloc());
                      Peer::Write(&f->kernel.alloc_mut(), head).size = PageSize::k2M;
                    }},
        LoggedFault{"MergedTail", "merged frame without a live head",
                    [](TraceFixture* f) {
                      // A tail of the free 2M unit names a 4K frame as its head.
                      std::uint64_t head = FreeUnit(f->kernel.alloc());
                      ASSERT_NE(head, 0u);
                      Peer::Write(&f->kernel.alloc_mut(), head + 7).merged_head =
                          FreeGroup(f->kernel.alloc());
                    }},
        LoggedFault{"FrameInsideUnit", "frame inside another unit",
                    [](TraceFixture* f) {
                      std::uint64_t head = FreeUnit(f->kernel.alloc());
                      ASSERT_NE(head, 0u);
                      Peer::Write(&f->kernel.alloc_mut(), head + 7).state = PageState::kFree;
                    }},
        LoggedFault{"OldUnitTails", "old unit tail still names its head",
                    [](TraceFixture* f) {
                      std::uint64_t head = FreeUnit(f->kernel.alloc());
                      ASSERT_NE(head, 0u);
                      Peer::Write(&f->kernel.alloc_mut(), head).size = PageSize::k4K;
                    }},
        LoggedFault{"JoinerNotAtHead", "free-list joiner not at the head",
                    [](TraceFixture* f) {
                      // A reserved frame freed into the middle of the 4K list,
                      // every link symmetric and the count moved.
                      PageAllocator& a = f->kernel.alloc_mut();
                      std::vector<std::uint64_t> run = FreeListRun(a, 2);
                      ASSERT_EQ(run.size(), 2u);
                      const std::uint64_t x = 1;  // below reserved_frames
                      PageAllocator::PageMeta& joiner = Peer::Write(&a, x);
                      joiner.state = PageState::kFree;
                      joiner.size = PageSize::k4K;
                      joiner.prev = run[0];
                      joiner.next = run[1];
                      Peer::Write(&a, run[0]).next = x;
                      Peer::Write(&a, run[1]).prev = x;
                      Peer::WriteList(&a, PageSize::k4K).count += 1;
                    }},
        LoggedFault{"GroupCounter", "2M group free counter",
                    [](TraceFixture* f) {
                      Peer::BumpGroupCounter(&f->kernel.alloc_mut(), 1);
                    }},
        LoggedFault{"RegionCounter", "1G region free counter",
                    [](TraceFixture* f) {
                      Peer::BumpRegionCounter(&f->kernel.alloc_mut(), 0);
                    }}));

// Faults behind every log: LocalWf cannot see them; the TotalWf that runs
// with the audit must, within audit_every steps.
struct HiddenFault {
  const char* name;
  void (*apply)(TraceFixture* f);
};

void PrintTo(const HiddenFault& fault, std::ostream* os) { *os << fault.name; }

class BehindTheLogsTest : public ::testing::TestWithParam<HiddenFault> {};

TEST_P(BehindTheLogsTest, CaughtWithinAuditEverySteps) {
  constexpr std::uint64_t kAuditEvery = 16;
  TraceFixture f = EstablishedFixture();
  RefinementChecker checker(
      &f.kernel, RefinementChecker::Options{.check_wf_every = 1, .audit_every = kAuditEvery});
  // A step that changes nothing: a thread unmaps an address nobody maps.
  const ThrdPtr t = f.thrds[DispatchableThread(f)];
  Syscall noop;
  noop.op = SysOp::kMunmap;
  noop.va_range = VaRange{0x70000000, 1, PageSize::k4K};
  checker.Step(t, noop);
  GetParam().apply(&f);
  ScopedThrowOnCheckFailure guard;
  std::uint64_t caught_at = 0;
  try {
    while (checker.steps_checked() < 2 * kAuditEvery) {
      checker.Step(t, noop);
    }
  } catch (const CheckViolation&) {
    caught_at = checker.steps_checked();  // counted before its Wf check threw
  }
  EXPECT_NE(caught_at, 0u) << "never caught";
  EXPECT_LE(caught_at, kAuditEvery);
}

INSTANTIATE_TEST_SUITE_P(
    Unlogged, BehindTheLogsTest,
    ::testing::Values(
        HiddenFault{"PteBitFlip", [](TraceFixture* f) { FlipDmaPteNx(f, 0); }},
        HiddenFault{"ExtraFramePerm",
                    [](TraceFixture* f) {
                      VmManagerTestPeer::AddHeldFrame(
                          &f->kernel.vm_mut(), *f->kernel.alloc().FreePages(PageSize::k4K).begin());
                    }},
        HiddenFault{"RingIdRewind", [](TraceFixture* f) {
                      SyscallRingTableTestPeer::RewindIds(&f->kernel.rings_mut());
                    }}));

// A PTE store behind the logs is LocalWf's to find as soon as its address
// space is written again: the written space's refinement is re-checked.
TEST(LocalWfTest, ChecksRefinementOfWrittenSpaces) {
  TraceFixture f = EstablishedFixture();
  const AbstractKernel base = f.kernel.Abstract();
  const int ti = DispatchableThread(f);
  FlipDmaPteNx(&f, ti);
  InvResult unwritten = LocalWfSince(&f.kernel, base);
  EXPECT_TRUE(unwritten.ok) << unwritten.detail;  // behind the logs
  // An mmap in the same space writes it.
  Syscall mmap;
  mmap.op = SysOp::kMmap;
  mmap.va_range = VaRange{0x50000000, 1, PageSize::k4K};
  mmap.map_perm = MapEntryPerm{.writable = true, .user = true, .no_execute = false};
  ASSERT_EQ(f.kernel.Step(f.thrds[ti], mmap).error, SysError::kOk);
  InvResult written = LocalWfSince(&f.kernel, base);
  EXPECT_FALSE(written.ok);
  EXPECT_EQ(written.detail.rfind("page-table refinement: ", 0), 0u) << written.detail;
}

// A bogus non-leaf entry in slot 300 of a table's root, behind the logs.
void PlantBogusRootEntry(TraceFixture* f, PAddr cr3) {
  f->kernel.mem_mut().HwWriteU64(cr3 + 300 * 8, kPtePresent | kPteWritable | 0x7654000);
}

// So is a structural corruption, for the written space or domain's
// StructureWf.
TEST(LocalWfTest, ChecksStructureOfWrittenSpacesAndDomains) {
  TraceFixture f = EstablishedFixture();
  const int ti = DispatchableThread(f);
  Syscall create;
  create.op = SysOp::kIommuCreateDomain;
  SyscallRet domain = f.kernel.Step(f.thrds[ti], create);
  ASSERT_EQ(domain.error, SysError::kOk);
  DirtySet discarded;
  f.kernel.DrainDirty(&discarded);
  const AbstractKernel base = f.kernel.Abstract();

  PlantBogusRootEntry(&f, f.kernel.iommu().domains().at(domain.value).cr3());
  Syscall attach;
  attach.op = SysOp::kIommuAttachDevice;
  attach.iommu_domain = domain.value;
  attach.device = 7;
  ASSERT_EQ(f.kernel.Step(f.thrds[ti], attach).error, SysError::kOk);
  InvResult iommu = LocalWfSince(&f.kernel, base);
  EXPECT_EQ(iommu.detail, "IOMMU subsystem ill-formed");

  const ProcPtr proc = f.kernel.pm().GetThread(f.thrds[ti]).owning_proc;
  PlantBogusRootEntry(&f, f.kernel.vm().TableOf(proc).cr3());
  Syscall mmap;
  mmap.op = SysOp::kMmap;
  mmap.va_range = VaRange{0x50000000, 1, PageSize::k4K};
  mmap.map_perm = MapEntryPerm{.writable = true, .user = true, .no_execute = false};
  ASSERT_EQ(f.kernel.Step(f.thrds[ti], mmap).error, SysError::kOk);
  InvResult vm = LocalWfSince(&f.kernel, base);
  EXPECT_EQ(vm.detail, "virtual-memory subsystem ill-formed");
  EXPECT_FALSE(f.kernel.TotalWf().ok);
}

// A written space's MMU cross-check: the hardware walk ANDs the rights of
// every level, the flat check reads the leaves, so a write-protected root
// entry shows only in the walk.
TEST(LocalWfTest, CrossChecksWrittenSpacesWithTheMmu) {
  TraceFixture f = EstablishedFixture();
  const AbstractKernel base = f.kernel.Abstract();
  const int ti = DispatchableThread(f);
  const ProcPtr proc = f.kernel.pm().GetThread(f.thrds[ti]).owning_proc;
  const PAddr root_entry = f.kernel.vm().TableOf(proc).cr3() +
                           VaIndex(TraceFixture::kDmaVaBase, 4) * 8;
  f.kernel.mem_mut().HwWriteU64(root_entry,
                                f.kernel.mem().HwReadU64(root_entry) & ~kPteWritable);
  Syscall mmap;
  mmap.op = SysOp::kMmap;
  mmap.va_range = VaRange{0x50000000, 1, PageSize::k4K};
  mmap.map_perm = MapEntryPerm{.writable = true, .user = true, .no_execute = false};
  ASSERT_EQ(f.kernel.Step(f.thrds[ti], mmap).error, SysError::kOk);
  InvResult local = LocalWfSince(&f.kernel, base);
  EXPECT_EQ(local.detail.rfind("MMU cross-check: ", 0), 0u) << local.detail;
  EXPECT_FALSE(f.kernel.TotalWf().ok);
}

// A written domain's refinement: a flipped DMA leaf.
TEST(LocalWfTest, ChecksRefinementOfWrittenDomains) {
  TraceFixture f = EstablishedFixture();
  const int ti = DispatchableThread(f);
  Syscall call;
  call.op = SysOp::kIommuCreateDomain;
  SyscallRet domain = f.kernel.Step(f.thrds[ti], call);
  ASSERT_EQ(domain.error, SysError::kOk);
  call.op = SysOp::kIommuMapDma;
  call.iommu_domain = domain.value;
  call.iova = 0x10000;
  call.dma_va = TraceFixture::kDmaVaBase + static_cast<VAddr>(ti) * kPageSize4K;
  ASSERT_EQ(f.kernel.Step(f.thrds[ti], call).error, SysError::kOk);
  DirtySet discarded;
  f.kernel.DrainDirty(&discarded);
  const AbstractKernel base = f.kernel.Abstract();

  PAddr node = f.kernel.iommu().domains().at(domain.value).cr3();
  for (int level = 4; level > 1; --level) {
    node = f.kernel.mem().HwReadU64(node + VaIndex(call.iova, level) * 8) & kPteAddrMask;
  }
  const PAddr leaf = node + VaIndex(call.iova, 1) * 8;
  f.kernel.mem_mut().HwWriteU64(leaf, f.kernel.mem().HwReadU64(leaf) ^ kPteWritable);
  call.op = SysOp::kIommuAttachDevice;
  call.device = 7;
  ASSERT_EQ(f.kernel.Step(f.thrds[ti], call).error, SysError::kOk);
  InvResult local = LocalWfSince(&f.kernel, base);
  EXPECT_EQ(local.detail.rfind("IOMMU page-table refinement: ", 0), 0u) << local.detail;
  EXPECT_FALSE(f.kernel.TotalWf().ok);
}

// A borrow record whose lender mapping was made writable again.
TEST(LocalWfTest, ChecksBorrowsWithAWrittenEnd) {
  TraceFixture f = EstablishedFixture();
  // Thread 0's DMA donor, lent read-only to the other process.
  const ProcPtr lender = f.procs[0];
  const ProcPtr borrower = f.procs[1];
  const VAddr lender_va = TraceFixture::kDmaVaBase;
  constexpr VAddr kBorrowerVa = 0x7000000;
  const PagePtr page = f.kernel.vm().Resolve(lender, lender_va)->addr;
  VmManager& vm = f.kernel.vm_mut();
  // The kernel charges the table nodes a mapping allocates before it maps.
  ASSERT_TRUE(f.kernel.pm_mut().ChargePages(
      f.ctnr, vm.NodesNeededFor(borrower, kBorrowerVa, PageSize::k4K)));
  ASSERT_EQ(vm.MapSharedPage(&f.kernel.alloc_mut(), borrower, kBorrowerVa, page, PageSize::k4K,
                             MapEntryPerm{.writable = false, .user = true}),
            MapError::kOk);
  vm.BeginBorrow(&f.kernel.alloc_mut(), page, lender, lender_va, borrower, kBorrowerVa,
                 PageSize::k4K);
  {
    InvResult wf = f.kernel.TotalWf();
    ASSERT_TRUE(wf.ok) << wf.detail;
  }
  DirtySet discarded;
  f.kernel.DrainDirty(&discarded);
  const AbstractKernel base = f.kernel.Abstract();

  vm.UpdatePerm(&f.kernel.alloc_mut(), lender, lender_va,
                MapEntryPerm{.writable = true, .user = true, .no_execute = true});
  InvResult local = LocalWfSince(&f.kernel, base);
  EXPECT_EQ(local.detail, "virtual-memory subsystem ill-formed");
  EXPECT_FALSE(f.kernel.TotalWf().ok);
}

// LocalWf's working storage is the caller's: once it has grown to a
// check's size, a second check of the same shape makes no heap allocation
// (its tallies are spec maps, placed in the arena as under the checker).
TEST(LocalWfTest, SecondCheckOfTheSameShapeAllocatesNothing) {
  TraceFixture f = EstablishedFixture();
  const AbstractKernel base = f.kernel.Abstract();
  TraceGen gen = EveryModeGen(11);
  for (int step = 0; step < 64; ++step) {
    TraceGen::Cmd cmd = gen.Gen(f);
    gen.Observe(cmd.call, f.kernel.Step(f.thrds[cmd.thread_idx], cmd.call));
    for (ThrdPtr t : f.thrds) {
      if (f.kernel.HasInbound(t)) {
        f.kernel.TakeInbound(t);
      }
    }
  }
  DirtySet written;
  PageAllocator::Writes writes;
  f.kernel.DrainDirty(&written, &writes);
  written.Normalize();
  writes.KeepOldest();

  ArenaScope arena_scope(std::make_shared<SpecArena>());
  LocalWfScratch scratch;
  std::uint64_t entries = 0;
  InvResult first = f.kernel.LocalWf(base, written, writes, &scratch, &entries);
  ASSERT_TRUE(first.ok) << first.detail;
  // The check had objects, charged containers and a free-list head run.
  EXPECT_FALSE(scratch.scope.thrds.empty());
  EXPECT_FALSE(scratch.charged.empty());
  EXPECT_FALSE(writes.frames.empty());

  obs::AllocProbe probe;
  InvResult second = f.kernel.LocalWf(base, written, writes, &scratch, &entries);
  const std::uint64_t allocs = probe.allocs();
  EXPECT_TRUE(second.ok);
  EXPECT_EQ(allocs, 0u);
}

// The four cases in which a Wf check runs TotalWf, read from the counter.
TEST(LocalWfCadenceTest, TotalWfRunsInExactlyTheFourCases) {
  auto run = [](RefinementChecker::Options options, int steps,
                const std::function<void(TraceFixture*, int)>& before_step = nullptr) {
    TraceFixture f = TraceFixture::Boot();
    f.SetupIpcAndDma();
    TraceGen gen = EveryModeGen(5);
    RefinementChecker checker(&f.kernel, options);
    for (int step = 1; step <= steps; ++step) {
      if (before_step) {
        before_step(&f, step);
      }
      TraceGen::Cmd cmd = gen.Gen(f);
      gen.Observe(cmd.call, checker.Step(f.thrds[cmd.thread_idx], cmd.call));
      for (ThrdPtr t : f.thrds) {
        if (f.kernel.HasInbound(t)) {
          f.kernel.TakeInbound(t);
        }
      }
    }
    return checker.stats();
  };
  // The first check after construction, and no other with the audit off.
  CheckStats no_audit = run({.check_wf_every = 4, .audit_every = 0}, 40);
  EXPECT_EQ(no_audit.wf_checks, 10u);
  EXPECT_EQ(no_audit.total_wf_runs, 1u);
  // The first check at or after each audit: checks at 4, 8, ..., 24 and
  // audits at 10 and 20 make TotalWf run at 4, 12 and 20.
  CheckStats audited = run({.check_wf_every = 4, .audit_every = 10}, 24);
  EXPECT_EQ(audited.wf_checks, 6u);
  EXPECT_EQ(audited.audit_passes, 2u);
  EXPECT_EQ(audited.total_wf_runs, 3u);
  // The first check after a write log overflowed (before step 21).
  CheckStats overflowed = run({.check_wf_every = 4, .audit_every = 0}, 40,
                              [](TraceFixture* f, int step) {
                                if (step == 21) {
                                  for (std::size_t i = 0; i <= DirtyLog::kCap; ++i) {
                                    f->kernel.pm_mut().MutableThread(f->thrds[1]);
                                  }
                                }
                              });
  EXPECT_EQ(overflowed.wf_checks, 10u);
  EXPECT_EQ(overflowed.total_wf_runs, 2u);
  // Every check in full-rebuild mode.
  CheckStats full = run({.check_wf_every = 4, .audit_every = 0, .incremental = false}, 40);
  EXPECT_EQ(full.wf_checks, 10u);
  EXPECT_EQ(full.total_wf_runs, 10u);
  EXPECT_EQ(full.local_wf_entries, 0u);
}

}  // namespace
}  // namespace atmo
