// IPC and lifecycle edge cases: IOMMU-domain delegation over IPC and who
// owns a transferred domain's new table nodes, capacity limits of every
// bounded kernel structure, rendezvous teardown while
// blocked, reply-after-exit behaviour, and the zero-copy page-grant
// discipline (move/borrow exclusivity, revocation, grant return).

#include <optional>

#include <gtest/gtest.h>

#include "src/core/kernel.h"
#include "src/spec/abstract_state.h"
#include "src/verif/refinement_checker.h"
#include "src/verif/sweep_harness.h"
#include "src/vstd/check.h"

namespace atmo {
namespace {

constexpr MapEntryPerm kRw{.writable = true, .user = true, .no_execute = false};

Syscall Op(SysOp op) {
  Syscall call;
  call.op = op;
  return call;
}

class IpcEdgeTest : public ::testing::Test {
 protected:
  IpcEdgeTest() {
    BootConfig config;
    config.frames = 8192;
    config.reserved_frames = 16;
    kernel_.emplace(std::move(*Kernel::Boot(config)));
    checker_.emplace(&*kernel_, 2);
    auto a = kernel_->BootCreateContainer(kernel_->root_container(), 1024, ~0ull);
    auto b = kernel_->BootCreateContainer(kernel_->root_container(), 1024, ~0ull);
    ctnr_a_ = a.value;
    ctnr_b_ = b.value;
    auto pa = kernel_->BootCreateProcess(ctnr_a_);
    auto pb = kernel_->BootCreateProcess(ctnr_b_);
    proc_a_ = pa.value;
    proc_b_ = pb.value;
    ta_ = kernel_->BootCreateThread(proc_a_).value;
    tb_ = kernel_->BootCreateThread(proc_b_).value;

    Syscall ne = Op(SysOp::kNewEndpoint);
    ne.edpt_idx = 0;
    SyscallRet e = checker_->Step(ta_, ne);
    edpt_ = e.value;
    EXPECT_EQ(kernel_->pm_mut().BindEndpoint(tb_, 0, edpt_), ProcError::kOk);
  }

  SyscallRet Step(ThrdPtr t, const Syscall& call) { return checker_->Step(t, call); }

  std::optional<Kernel> kernel_;
  std::optional<RefinementChecker> checker_;
  CtnrPtr ctnr_a_ = kNullPtr;
  CtnrPtr ctnr_b_ = kNullPtr;
  ProcPtr proc_a_ = kNullPtr;
  ProcPtr proc_b_ = kNullPtr;
  ThrdPtr ta_ = kNullPtr;
  ThrdPtr tb_ = kNullPtr;
  EdptPtr edpt_ = kNullPtr;
};

// ---------------------------------------------------------------------------
// IOMMU domain delegation over IPC (the paper's "IOMMU identifiers" payload)
// ---------------------------------------------------------------------------

TEST_F(IpcEdgeTest, IommuDomainDelegationTransfersOwnershipAndCharge) {
  SyscallRet domain = Step(ta_, Op(SysOp::kIommuCreateDomain));
  ASSERT_EQ(domain.error, SysError::kOk);
  std::uint64_t used_a = kernel_->pm().GetContainer(ctnr_a_).mem_used;
  std::uint64_t used_b = kernel_->pm().GetContainer(ctnr_b_).mem_used;

  ASSERT_EQ(Step(tb_, Op(SysOp::kRecv)).error, SysError::kBlocked);
  Syscall send = Op(SysOp::kSend);
  send.payload.iommu = IommuGrant{.domain_id = domain.value};
  ASSERT_EQ(Step(ta_, send).error, SysError::kOk);

  EXPECT_EQ(kernel_->iommu().DomainOwner(domain.value), ctnr_b_);
  EXPECT_EQ(kernel_->pm().GetContainer(ctnr_a_).mem_used, used_a - 1)
      << "the domain's table page charge moved away from A";
  EXPECT_EQ(kernel_->pm().GetContainer(ctnr_b_).mem_used, used_b + 1);

  // B can now attach devices; A no longer can.
  Syscall attach = Op(SysOp::kIommuAttachDevice);
  attach.iommu_domain = domain.value;
  attach.device = 9;
  EXPECT_EQ(Step(ta_, attach).error, SysError::kDenied);
  EXPECT_EQ(Step(tb_, attach).error, SysError::kOk);
}

TEST_F(IpcEdgeTest, CannotDelegateForeignDomain) {
  // B creates a domain; A tries to "delegate" it without owning it.
  SyscallRet domain = Step(tb_, Op(SysOp::kIommuCreateDomain));
  ASSERT_EQ(domain.error, SysError::kOk);
  ASSERT_EQ(Step(tb_, Op(SysOp::kRecv)).error, SysError::kBlocked);
  Syscall send = Op(SysOp::kSend);
  send.payload.iommu = IommuGrant{.domain_id = domain.value};
  EXPECT_EQ(Step(ta_, send).error, SysError::kDenied);
  EXPECT_EQ(kernel_->iommu().DomainOwner(domain.value), ctnr_b_);
}

TEST_F(IpcEdgeTest, DelegationDeniedWhenReceiverQuotaFull) {
  // Shrink B's headroom to zero, then try to move a domain's charge there.
  SyscallRet domain = Step(ta_, Op(SysOp::kIommuCreateDomain));
  ASSERT_EQ(domain.error, SysError::kOk);
  // Exhaust B's quota: shrinking mmap chunks until nothing fits.
  VAddr next_va = 0x4000000;
  for (std::uint64_t chunk : {256u, 64u, 16u, 4u, 1u}) {
    while (true) {
      Syscall hog = Op(SysOp::kMmap);
      hog.va_range = VaRange{next_va, chunk, PageSize::k4K};
      hog.map_perm = kRw;
      if (Step(tb_, hog).error != SysError::kOk) {
        break;
      }
      next_va += chunk * kPageSize4K;
    }
  }

  ASSERT_EQ(Step(tb_, Op(SysOp::kRecv)).error, SysError::kBlocked);
  Syscall send = Op(SysOp::kSend);
  send.payload.iommu = IommuGrant{.domain_id = domain.value};
  EXPECT_EQ(Step(ta_, send).error, SysError::kWouldFault);
  EXPECT_EQ(kernel_->iommu().DomainOwner(domain.value), ctnr_a_) << "nothing moved";
  EXPECT_EQ(kernel_->pm().GetThread(tb_).state, ThreadState::kBlockedRecv);
}

// ---------------------------------------------------------------------------
// Owner transfer: after a domain changes hands, the table nodes a later DMA
// map allocates are charged to the new owner and tagged with it
// ---------------------------------------------------------------------------

class DomainOwnerTransferTest : public IpcEdgeTest {
 protected:
  static constexpr VAddr kPageVa = 0x400000;
  // Far from every other mapping: a fresh domain lacks its PDPT, PD and PT.
  static constexpr VAddr kIova = 0x8000000000ull;

  // TotalWf after every step: the quota tally compares each container's
  // mem_used with the pages the allocator attributes to it.
  DomainOwnerTransferTest() { checker_.emplace(&*kernel_, 1); }

  // `t` mmaps a page and exposes it to `domain` at kIova.
  void MapDmaNeedingFreshNodes(ThrdPtr t, IommuDomainId domain) {
    Syscall mmap = Op(SysOp::kMmap);
    mmap.va_range = VaRange{kPageVa, 1, PageSize::k4K};
    mmap.map_perm = kRw;
    ASSERT_EQ(Step(t, mmap).error, SysError::kOk);
    ASSERT_EQ(kernel_->iommu().FreshNodesForDma(domain, kIova, PageSize::k4K), 3u);
    Syscall map = Op(SysOp::kIommuMapDma);
    map.iommu_domain = domain;
    map.iova = kIova;
    map.dma_va = kPageVa;
    map.map_perm = kRw;
    ASSERT_EQ(Step(t, map).error, SysError::kOk);
  }

  void ExpectTableOwnedByDomainOwner(IommuDomainId domain) {
    CtnrPtr owner = kernel_->iommu().DomainOwner(domain);
    SpecSet<PagePtr> closure = kernel_->iommu().DomainPageClosure(domain);
    EXPECT_EQ(closure.size(), 4u) << "root + PDPT + PD + PT";
    for (PagePtr page : closure) {
      EXPECT_EQ(kernel_->alloc().OwnerOf(page), owner) << "table node " << page;
    }
  }

  ScopedThrowOnCheckFailure throw_on_check_;
};

TEST_F(DomainOwnerTransferTest, DelegatedDomainChargesAndTagsNewNodesToReceiver) {
  SyscallRet domain = Step(ta_, Op(SysOp::kIommuCreateDomain));
  ASSERT_EQ(domain.error, SysError::kOk);
  ASSERT_EQ(Step(tb_, Op(SysOp::kRecv)).error, SysError::kBlocked);
  Syscall send = Op(SysOp::kSend);
  send.payload.iommu = IommuGrant{.domain_id = domain.value};
  ASSERT_EQ(Step(ta_, send).error, SysError::kOk);
  ASSERT_EQ(kernel_->iommu().DomainOwner(domain.value), ctnr_b_);

  MapDmaNeedingFreshNodes(tb_, domain.value);
  ExpectTableOwnedByDomainOwner(domain.value);
}

TEST_F(DomainOwnerTransferTest, HarvestedDomainChargesAndTagsNewNodesToParent) {
  Syscall nc = Op(SysOp::kNewContainer);
  nc.quota = 64;
  SyscallRet child = Step(ta_, nc);
  ASSERT_EQ(child.error, SysError::kOk);
  auto cp = kernel_->BootCreateProcess(child.value);
  ASSERT_TRUE(cp.ok());
  auto ct = kernel_->BootCreateThread(cp.value);
  ASSERT_TRUE(ct.ok());
  SyscallRet domain = Step(ct.value, Op(SysOp::kIommuCreateDomain));
  ASSERT_EQ(domain.error, SysError::kOk);

  Syscall kill = Op(SysOp::kKillContainer);
  kill.target = child.value;
  ASSERT_EQ(Step(ta_, kill).error, SysError::kOk);
  ASSERT_EQ(kernel_->iommu().DomainOwner(domain.value), ctnr_a_);

  MapDmaNeedingFreshNodes(ta_, domain.value);
  ExpectTableOwnedByDomainOwner(domain.value);
}

// ---------------------------------------------------------------------------
// Capacity limits
// ---------------------------------------------------------------------------

TEST_F(IpcEdgeTest, EndpointQueueCapacityBoundsBlockedSenders) {
  // Fill the wait queue with senders, then the next send fails kCapacity.
  // Senders are spread over several processes (threads-per-process is
  // itself bounded at kMaxProcThreads).
  std::vector<ThrdPtr> senders;
  ProcPtr host_proc = proc_a_;
  for (std::size_t i = 0; i < kMaxEdptWaiters; ++i) {
    if (i % 12 == 0) {
      auto fresh = kernel_->BootCreateProcess(ctnr_a_);
      ASSERT_TRUE(fresh.ok());
      host_proc = fresh.value;
    }
    auto t = kernel_->BootCreateThread(host_proc);
    ASSERT_TRUE(t.ok());
    ASSERT_EQ(kernel_->pm_mut().BindEndpoint(t.value, 0, edpt_), ProcError::kOk);
    Syscall send = Op(SysOp::kSend);
    send.payload.scalars = {i, 0, 0, 0};
    ASSERT_EQ(Step(t.value, send).error, SysError::kBlocked) << i;
    senders.push_back(t.value);
  }
  Syscall send = Op(SysOp::kSend);
  EXPECT_EQ(Step(ta_, send).error, SysError::kCapacity);
  // Draining one slot makes room again.
  ASSERT_EQ(Step(tb_, Op(SysOp::kRecv)).error, SysError::kOk);
  EXPECT_EQ(Step(ta_, send).error, SysError::kBlocked);
}

TEST_F(IpcEdgeTest, ThreadsPerProcessCapacity) {
  // proc_a_ already has 1 thread; fill to kMaxProcThreads.
  for (std::size_t i = 1; i < kMaxProcThreads; ++i) {
    ASSERT_EQ(Step(ta_, Op(SysOp::kNewThread)).error, SysError::kOk) << i;
  }
  EXPECT_EQ(Step(ta_, Op(SysOp::kNewThread)).error, SysError::kCapacity);
}

TEST_F(IpcEdgeTest, DescriptorTableExhaustion) {
  for (EdptIdx i = 1; i < kMaxEdptDescriptors; ++i) {
    Syscall ne = Op(SysOp::kNewEndpoint);
    ne.edpt_idx = i;
    ASSERT_EQ(Step(ta_, ne).error, SysError::kOk) << i;
  }
  Syscall ne = Op(SysOp::kNewEndpoint);
  ne.edpt_idx = 0;  // slot 0 already bound
  EXPECT_EQ(Step(ta_, ne).error, SysError::kInvalid);
}

// ---------------------------------------------------------------------------
// Rendezvous teardown
// ---------------------------------------------------------------------------

TEST_F(IpcEdgeTest, KillingBlockedCallerClearsReplyObligation) {
  // tb_ receives ta_'s call, then ta_'s whole process subtree dies before
  // the reply; tb_'s reply must fail cleanly.
  auto victim_proc = Step(ta_, Op(SysOp::kNewProcess));
  ASSERT_EQ(victim_proc.error, SysError::kOk);
  Syscall nt = Op(SysOp::kNewThread);
  nt.target = victim_proc.value;
  auto caller = Step(ta_, nt);
  ASSERT_EQ(caller.error, SysError::kOk);
  ASSERT_EQ(kernel_->pm_mut().BindEndpoint(caller.value, 1, edpt_), ProcError::kOk);

  ASSERT_EQ(Step(tb_, Op(SysOp::kRecv)).error, SysError::kBlocked);
  Syscall call = Op(SysOp::kCall);
  call.edpt_idx = 1;
  ASSERT_EQ(Step(caller.value, call).error, SysError::kBlocked);
  EXPECT_EQ(kernel_->pm().GetThread(tb_).reply_to, caller.value);

  Syscall kill = Op(SysOp::kKillProcess);
  kill.target = victim_proc.value;
  ASSERT_EQ(Step(ta_, kill).error, SysError::kOk);
  EXPECT_EQ(kernel_->pm().GetThread(tb_).reply_to, kNullPtr) << "obligation cleared";
  EXPECT_EQ(Step(tb_, Op(SysOp::kReply)).error, SysError::kInvalid);
}

TEST_F(IpcEdgeTest, KillingQueuedSenderLeavesEndpointConsistent) {
  auto victim_proc = Step(ta_, Op(SysOp::kNewProcess));
  Syscall nt = Op(SysOp::kNewThread);
  nt.target = victim_proc.value;
  auto sender = Step(ta_, nt);
  ASSERT_EQ(kernel_->pm_mut().BindEndpoint(sender.value, 1, edpt_), ProcError::kOk);
  Syscall send = Op(SysOp::kSend);
  send.edpt_idx = 1;
  ASSERT_EQ(Step(sender.value, send).error, SysError::kBlocked);
  ASSERT_EQ(kernel_->pm().GetEndpoint(edpt_).queue.len(), 1u);

  Syscall kill = Op(SysOp::kKillProcess);
  kill.target = victim_proc.value;
  ASSERT_EQ(Step(ta_, kill).error, SysError::kOk);
  EXPECT_TRUE(kernel_->pm().GetEndpoint(edpt_).queue.empty());
  EXPECT_EQ(kernel_->pm().GetEndpoint(edpt_).queue_kind, EdptQueueKind::kEmpty);
  // The endpoint still works afterwards.
  ASSERT_EQ(Step(tb_, Op(SysOp::kRecv)).error, SysError::kBlocked);
  EXPECT_EQ(Step(ta_, Op(SysOp::kSend)).error, SysError::kOk);
}

TEST_F(IpcEdgeTest, ExitWhileAwaitingReplyIsClean) {
  // The caller dies while parked for a reply (off-queue kBlockedCall).
  auto victim_proc = Step(ta_, Op(SysOp::kNewProcess));
  Syscall nt = Op(SysOp::kNewThread);
  nt.target = victim_proc.value;
  auto caller = Step(ta_, nt);
  ASSERT_EQ(kernel_->pm_mut().BindEndpoint(caller.value, 1, edpt_), ProcError::kOk);
  ASSERT_EQ(Step(tb_, Op(SysOp::kRecv)).error, SysError::kBlocked);
  Syscall call = Op(SysOp::kCall);
  call.edpt_idx = 1;
  ASSERT_EQ(Step(caller.value, call).error, SysError::kBlocked);

  Syscall kill = Op(SysOp::kKillProcess);
  kill.target = victim_proc.value;
  ASSERT_EQ(Step(ta_, kill).error, SysError::kOk);
  InvResult wf = kernel_->TotalWf();
  EXPECT_TRUE(wf.ok) << wf.detail;
}

// ---------------------------------------------------------------------------
// Misc authority / argument validation sweeps
// ---------------------------------------------------------------------------

TEST_F(IpcEdgeTest, GarbageHandlesAreRejectedEverywhere) {
  constexpr Ptr kGarbage = 0x7777000;
  Syscall kill = Op(SysOp::kKillProcess);
  kill.target = kGarbage;
  EXPECT_EQ(Step(ta_, kill).error, SysError::kInvalid);
  kill.op = SysOp::kKillContainer;
  EXPECT_EQ(Step(ta_, kill).error, SysError::kInvalid);
  Syscall nt = Op(SysOp::kNewThread);
  nt.target = kGarbage;
  EXPECT_EQ(Step(ta_, nt).error, SysError::kInvalid);
  Syscall attach = Op(SysOp::kIommuAttachDevice);
  attach.iommu_domain = 999;
  EXPECT_EQ(Step(ta_, attach).error, SysError::kDenied);
}

TEST_F(IpcEdgeTest, CrossContainerThreadCreationDenied) {
  Syscall nt = Op(SysOp::kNewThread);
  nt.target = proc_b_;
  EXPECT_EQ(Step(ta_, nt).error, SysError::kDenied);
}

// ---------------------------------------------------------------------------
// Zero-copy page grants: move/borrow exclusivity, revocation, grant return
// ---------------------------------------------------------------------------

constexpr VAddr kSrcVa = 0x5000000;
constexpr VAddr kDestVa = 0x6000000;
constexpr MapEntryPerm kRo{.writable = false, .user = true, .no_execute = false};

class GrantEdgeTest : public IpcEdgeTest {
 protected:
  // Maps one RW page at kSrcVa in A and returns its frame.
  PagePtr MapSource() {
    Syscall mm = Op(SysOp::kMmap);
    mm.va_range = VaRange{kSrcVa, 1, PageSize::k4K};
    mm.map_perm = kRw;
    EXPECT_EQ(Step(ta_, mm).error, SysError::kOk);
    return kernel_->Abstract().get_address_space(proc_a_).at(kSrcVa).addr;
  }

  // Parks the receiver, then sends a grant of kSrcVa from A.
  SyscallRet Grant(GrantMode mode, MapEntryPerm perm, ThrdPtr receiver) {
    EXPECT_EQ(Step(receiver, Op(SysOp::kRecv)).error, SysError::kBlocked);
    Syscall send = Op(SysOp::kSend);
    send.payload.page = PageGrant{.page = kSrcVa,
                                  .size = PageSize::k4K,
                                  .dest_va = kDestVa,
                                  .perm = perm,
                                  .mode = mode};
    return Step(ta_, send);
  }
};

TEST_F(GrantEdgeTest, BorrowDowngradesLenderAndReturnRestoresRights) {
  PagePtr page = MapSource();
  ASSERT_EQ(Grant(GrantMode::kBorrow, kRo, tb_).error, SysError::kOk);

  AbstractKernel psi = kernel_->Abstract();
  EXPECT_FALSE(psi.get_address_space(proc_a_).at(kSrcVa).perm.writable)
      << "lender downgraded while the loan is live";
  EXPECT_FALSE(psi.get_address_space(proc_b_).at(kDestVa).perm.writable);
  const AbsPageInfo& info = psi.pages.at(page);
  EXPECT_TRUE(info.borrowed);
  EXPECT_EQ(info.map_count, 2u);
  EXPECT_EQ(info.borrow.lender, proc_a_);
  EXPECT_EQ(info.borrow.borrower, proc_b_);
  EXPECT_TRUE(info.borrow.lender_writable);

  // Neither side can shadow the loan with a writable remap: both VAs are
  // occupied, so the mmap path rejects the attempt outright.
  Syscall remap = Op(SysOp::kMmap);
  remap.va_range = VaRange{kDestVa, 1, PageSize::k4K};
  remap.map_perm = kRw;
  EXPECT_EQ(Step(tb_, remap).error, SysError::kInvalid);
  remap.va_range = VaRange{kSrcVa, 1, PageSize::k4K};
  EXPECT_EQ(Step(ta_, remap).error, SysError::kInvalid);

  Syscall ret = Op(SysOp::kGrantReturn);
  ret.va_range = VaRange{kDestVa, 1, PageSize::k4K};
  ASSERT_EQ(Step(tb_, ret).error, SysError::kOk);

  psi = kernel_->Abstract();
  EXPECT_TRUE(psi.get_address_space(proc_a_).at(kSrcVa).perm.writable)
      << "grant return restores the lender's original rights";
  EXPECT_FALSE(psi.get_address_space(proc_b_).contains(kDestVa));
  EXPECT_FALSE(psi.pages.at(page).borrowed);
  EXPECT_EQ(psi.pages.at(page).map_count, 1u);
  InvResult wf = kernel_->TotalWf();
  EXPECT_TRUE(wf.ok) << wf.detail;
}

TEST_F(GrantEdgeTest, BorrowedPageIsNeverGrantableAgain) {
  MapSource();
  ASSERT_EQ(Grant(GrantMode::kBorrow, kRo, tb_).error, SysError::kOk);

  // The lender cannot fan the page out while it is on loan — in any mode.
  for (GrantMode mode : {GrantMode::kShare, GrantMode::kMove, GrantMode::kBorrow}) {
    EXPECT_EQ(Grant(mode, kRo, tb_).error, SysError::kDenied);
    // The parked receiver from the failed grant is drained by a plain send
    // so the next attempt starts from a clean rendezvous.
    EXPECT_EQ(Step(ta_, Op(SysOp::kSend)).error, SysError::kOk);
  }
}

TEST_F(GrantEdgeTest, MoveAndBorrowRequireExclusiveMapping) {
  MapSource();
  // Share-grant first: the frame now has two mappings.
  ASSERT_EQ(Grant(GrantMode::kShare, kRw, tb_).error, SysError::kOk);
  // A second exclusive grant of the same source must be rejected.
  EXPECT_EQ(Grant(GrantMode::kMove, kRw, tb_).error, SysError::kDenied);
  EXPECT_EQ(Step(ta_, Op(SysOp::kSend)).error, SysError::kOk);  // drain receiver
  EXPECT_EQ(Grant(GrantMode::kBorrow, kRo, tb_).error, SysError::kDenied);
  EXPECT_EQ(Step(ta_, Op(SysOp::kSend)).error, SysError::kOk);
}

TEST_F(GrantEdgeTest, WritableBorrowIsRejected) {
  MapSource();
  EXPECT_EQ(Grant(GrantMode::kBorrow, kRw, tb_).error, SysError::kInvalid);
  EXPECT_EQ(Step(ta_, Op(SysOp::kSend)).error, SysError::kOk);  // drain receiver
}

TEST_F(GrantEdgeTest, KillingBorrowerRevokesLoanAndRestoresLender) {
  // Borrow into a disposable process, then kill it: revocation must restore
  // the lender's writable mapping and clear the borrow mark.
  auto victim_proc = Step(ta_, Op(SysOp::kNewProcess));
  ASSERT_EQ(victim_proc.error, SysError::kOk);
  Syscall nt = Op(SysOp::kNewThread);
  nt.target = victim_proc.value;
  auto rx = Step(ta_, nt);
  ASSERT_EQ(rx.error, SysError::kOk);
  ASSERT_EQ(kernel_->pm_mut().BindEndpoint(rx.value, 0, edpt_), ProcError::kOk);

  PagePtr page = MapSource();
  ASSERT_EQ(Grant(GrantMode::kBorrow, kRo, rx.value).error, SysError::kOk);
  ASSERT_TRUE(kernel_->Abstract().pages.at(page).borrowed);

  Syscall kill = Op(SysOp::kKillProcess);
  kill.target = victim_proc.value;
  ASSERT_EQ(Step(ta_, kill).error, SysError::kOk);

  AbstractKernel psi = kernel_->Abstract();
  EXPECT_FALSE(psi.pages.at(page).borrowed);
  EXPECT_EQ(psi.pages.at(page).map_count, 1u);
  EXPECT_TRUE(psi.get_address_space(proc_a_).at(kSrcVa).perm.writable)
      << "borrower teardown restores the lender's rights";
  InvResult wf = kernel_->TotalWf();
  EXPECT_TRUE(wf.ok) << wf.detail;
}

TEST_F(GrantEdgeTest, LenderUnmapEndsLoanWithoutRestoringAnything) {
  PagePtr page = MapSource();
  ASSERT_EQ(Grant(GrantMode::kBorrow, kRo, tb_).error, SysError::kOk);

  Syscall mu = Op(SysOp::kMunmap);
  mu.va_range = VaRange{kSrcVa, 1, PageSize::k4K};
  ASSERT_EQ(Step(ta_, mu).error, SysError::kOk);

  AbstractKernel psi = kernel_->Abstract();
  EXPECT_FALSE(psi.pages.at(page).borrowed) << "lender-side unmap drops the record";
  EXPECT_EQ(psi.pages.at(page).map_count, 1u);
  EXPECT_TRUE(psi.get_address_space(proc_b_).contains(kDestVa))
      << "the borrower keeps an ordinary read-only shared mapping";

  // No loan left to return: the borrower's mapping is now ordinary.
  Syscall ret = Op(SysOp::kGrantReturn);
  ret.va_range = VaRange{kDestVa, 1, PageSize::k4K};
  EXPECT_EQ(Step(tb_, ret).error, SysError::kDenied);
  InvResult wf = kernel_->TotalWf();
  EXPECT_TRUE(wf.ok) << wf.detail;
}

TEST_F(GrantEdgeTest, GrantReturnOfNonBorrowIsRejected) {
  MapSource();
  Syscall ret = Op(SysOp::kGrantReturn);
  ret.va_range = VaRange{kSrcVa, 1, PageSize::k4K};
  EXPECT_EQ(Step(ta_, ret).error, SysError::kDenied) << "ordinary mapping";
  ret.va_range = VaRange{0x7777000, 1, PageSize::k4K};
  EXPECT_EQ(Step(ta_, ret).error, SysError::kInvalid) << "hole";
}

// ---------------------------------------------------------------------------
// Copy-vs-grant differential: a move grant is exactly a share grant plus the
// sender-side unmap, composed atomically — the two worlds end bit-identical.
// ---------------------------------------------------------------------------

AbstractKernel RunGrantWorld(GrantMode mode) {
  BootConfig config;
  config.frames = 8192;
  config.reserved_frames = 16;
  Kernel kernel{std::move(*Kernel::Boot(config))};
  RefinementChecker checker(&kernel, 2);
  CtnrPtr ctnr_a = kernel.BootCreateContainer(kernel.root_container(), 1024, ~0ull).value;
  CtnrPtr ctnr_b = kernel.BootCreateContainer(kernel.root_container(), 1024, ~0ull).value;
  ProcPtr proc_a = kernel.BootCreateProcess(ctnr_a).value;
  ProcPtr proc_b = kernel.BootCreateProcess(ctnr_b).value;
  ThrdPtr ta = kernel.BootCreateThread(proc_a).value;
  ThrdPtr tb = kernel.BootCreateThread(proc_b).value;
  (void)proc_b;

  Syscall ne = Op(SysOp::kNewEndpoint);
  ne.edpt_idx = 0;
  SyscallRet e = checker.Step(ta, ne);
  EXPECT_EQ(kernel.pm_mut().BindEndpoint(tb, 0, e.value), ProcError::kOk);

  Syscall mm = Op(SysOp::kMmap);
  mm.va_range = VaRange{kSrcVa, 1, PageSize::k4K};
  mm.map_perm = kRw;
  EXPECT_EQ(checker.Step(ta, mm).error, SysError::kOk);
  (void)proc_a;

  EXPECT_EQ(checker.Step(tb, Op(SysOp::kRecv)).error, SysError::kBlocked);
  Syscall send = Op(SysOp::kSend);
  send.payload.page = PageGrant{.page = kSrcVa,
                                .size = PageSize::k4K,
                                .dest_va = kDestVa,
                                .perm = kRw,
                                .mode = mode};
  EXPECT_EQ(checker.Step(ta, send).error, SysError::kOk);

  // The share world unmaps the source by hand; the move world already lost
  // it, so it issues a deliberately failing unmap to keep the dispatch
  // sequence — and therefore the scheduler state — identical.
  Syscall mu = Op(SysOp::kMunmap);
  mu.va_range = VaRange{mode == GrantMode::kShare ? kSrcVa : VAddr{0x7777000}, 1,
                        PageSize::k4K};
  SyscallRet un = checker.Step(ta, mu);
  EXPECT_EQ(un.error,
            mode == GrantMode::kShare ? SysError::kOk : SysError::kInvalid);

  // Overwrite the receiver's IPC buffer with one more identical plain
  // rendezvous: the delivered grant descriptor (which still records the
  // mode) is transient data, not part of the state being compared.
  EXPECT_EQ(checker.Step(tb, Op(SysOp::kRecv)).error, SysError::kBlocked);
  Syscall plain = Op(SysOp::kSend);
  plain.payload.scalars = {42, 0, 0, 0};
  EXPECT_EQ(checker.Step(ta, plain).error, SysError::kOk);

  InvResult wf = kernel.TotalWf();
  EXPECT_TRUE(wf.ok) << wf.detail;
  return kernel.Abstract();
}

TEST(GrantDifferentialTest, MoveGrantEqualsShareGrantPlusUnmap) {
  AbstractKernel moved = RunGrantWorld(GrantMode::kMove);
  AbstractKernel copied = RunGrantWorld(GrantMode::kShare);
  EXPECT_TRUE(moved == copied)
      << "a move grant must relabel Ψ exactly like share-then-unmap";
}

// ---------------------------------------------------------------------------
// Grant-aware sweeps: the randomized trace family that mixes borrow/move
// grants and grant returns stays clean under the full refinement checker and
// is deterministic across worker counts.
// ---------------------------------------------------------------------------

SweepHarness::Options GrantSweep(std::uint64_t seed, unsigned workers) {
  SweepHarness::Options options;
  options.master_seed = seed;
  options.shards = 4;
  options.steps_per_shard = 600;
  options.workers = workers;
  options.grant_ops = true;
  return options;
}

TEST(GrantSweepTest, GrantSweepIsCleanAndDeterministicAcrossWorkers) {
  SweepReport one = SweepHarness(GrantSweep(0x6a11, 1)).Run();
  SweepReport four = SweepHarness(GrantSweep(0x6a11, 4)).Run();
  EXPECT_TRUE(one.AllOk()) << (one.shards.empty() ? "" : one.shards[0].failure);
  EXPECT_TRUE(four.AllOk());
  EXPECT_TRUE(one.SameOutcome(four));

  auto row = [&](SysOp op) {
    std::uint64_t total = 0;
    for (std::size_t err = 0; err < kSysErrorCount; ++err) {
      total += one.coverage.counts[static_cast<std::size_t>(op)][err];
    }
    return total;
  };
  EXPECT_GT(row(SysOp::kSend), 0u);
  EXPECT_GT(row(SysOp::kGrantReturn), 0u);
}

TEST(GrantSweepTest, GrantRingCombinedSweepIsClean) {
  SweepHarness::Options options = GrantSweep(0xfeed5, 2);
  options.ring_ops = true;  // widest distribution: 21 ways
  SweepReport report = SweepHarness(options).Run();
  EXPECT_TRUE(report.AllOk())
      << (report.shards.empty() ? "" : report.shards[0].failure);
  EXPECT_GT(report.total_steps, 0u);
}

}  // namespace
}  // namespace atmo
