// Kernel integration tests: every syscall exercised through the refinement
// checker, so each step is validated against its abstract specification and
// total_wf. Includes failure injection showing the harness catches
// deliberately corrupted kernels, and a randomized multi-thread trace sweep.

#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/kernel.h"
#include "src/spec/frame_profile.h"
#include "src/verif/invariant_registry.h"
#include "src/verif/refinement_checker.h"
#include "src/verif/trace_gen.h"
#include "src/vstd/check.h"

namespace atmo {
namespace {

constexpr MapEntryPerm kRw{.writable = true, .user = true, .no_execute = false};

Syscall MakeMmap(VAddr base, std::uint64_t count, PageSize size = PageSize::k4K,
                 MapEntryPerm perm = kRw) {
  Syscall call;
  call.op = SysOp::kMmap;
  call.va_range = VaRange{base, count, size};
  call.map_perm = perm;
  return call;
}

Syscall MakeMunmap(VAddr base, std::uint64_t count, PageSize size = PageSize::k4K) {
  Syscall call;
  call.op = SysOp::kMunmap;
  call.va_range = VaRange{base, count, size};
  return call;
}

Syscall MakeOp(SysOp op) {
  Syscall call;
  call.op = op;
  return call;
}

class KernelTest : public ::testing::Test {
 protected:
  KernelTest() {
    BootConfig config;
    config.frames = 8192;  // 32 MiB machine
    config.reserved_frames = 16;
    kernel_.emplace(std::move(*Kernel::Boot(config)));
    checker_.emplace(&*kernel_, /*check_wf_every=*/1);

    // One user container with a process and a thread.
    auto c = kernel_->BootCreateContainer(kernel_->root_container(), 1024, ~0ull);
    auto p = kernel_->BootCreateProcess(c.value);
    auto t = kernel_->BootCreateThread(p.value);
    EXPECT_TRUE(c.ok() && p.ok() && t.ok());
    ctnr_ = c.value;
    proc_ = p.value;
    thrd_ = t.value;
  }

  SyscallRet Step(ThrdPtr t, const Syscall& call) { return checker_->Step(t, call); }

  std::optional<Kernel> kernel_;
  std::optional<RefinementChecker> checker_;
  CtnrPtr ctnr_;
  ProcPtr proc_;
  ThrdPtr thrd_;
};

TEST_F(KernelTest, BootStateIsTotallyWellFormed) {
  InvResult wf = kernel_->TotalWf();
  EXPECT_TRUE(wf.ok) << wf.detail;
}

// ---------------------------------------------------------------------------
// mmap / munmap
// ---------------------------------------------------------------------------

TEST_F(KernelTest, MmapMapsFreshPagesVisibleToMmu) {
  SyscallRet ret = Step(thrd_, MakeMmap(0x400000, 4));
  ASSERT_EQ(ret.error, SysError::kOk);
  EXPECT_EQ(ret.value, 4u);
  PAddr cr3 = kernel_->vm().TableOf(proc_).cr3();
  for (int i = 0; i < 4; ++i) {
    auto walk = kernel_->mmu().Walk(cr3, 0x400000 + i * kPageSize4K);
    ASSERT_TRUE(walk.has_value()) << "page " << i;
    EXPECT_TRUE(walk->perm.writable);
  }
}

TEST_F(KernelTest, MmapIsChargedAndMunmapRefunds) {
  std::uint64_t used_before = kernel_->pm().GetContainer(ctnr_).mem_used;
  ASSERT_EQ(Step(thrd_, MakeMmap(0x400000, 8)).error, SysError::kOk);
  std::uint64_t used_mapped = kernel_->pm().GetContainer(ctnr_).mem_used;
  EXPECT_GE(used_mapped, used_before + 8) << "8 data pages + table nodes";

  ASSERT_EQ(Step(thrd_, MakeMunmap(0x400000, 8)).error, SysError::kOk);
  std::uint64_t used_after = kernel_->pm().GetContainer(ctnr_).mem_used;
  EXPECT_EQ(used_after, used_mapped - 8) << "data pages refunded; nodes remain allocated";
}

TEST_F(KernelTest, MmapOverExistingMappingFailsAtomically) {
  ASSERT_EQ(Step(thrd_, MakeMmap(0x400000, 2)).error, SysError::kOk);
  // Overlap in the middle of the new range: whole call must fail.
  EXPECT_EQ(Step(thrd_, MakeMmap(0x400000 - kPageSize4K, 3)).error, SysError::kInvalid);
  EXPECT_FALSE(kernel_->vm().Resolve(proc_, 0x400000 - kPageSize4K).has_value());
}

TEST_F(KernelTest, MmapQuotaExceededFailsAtomically) {
  // Quota is 1024 pages; one 512-page mapping fits, a second cannot.
  ASSERT_EQ(Step(thrd_, MakeMmap(0x4000000, 512)).error, SysError::kOk);
  std::uint64_t free_before = kernel_->alloc().FreeCount(PageSize::k4K);
  AbstractKernel before = kernel_->Abstract();
  EXPECT_EQ(Step(thrd_, MakeMmap(0x8000000, 512)).error, SysError::kQuotaExceeded);
  EXPECT_EQ(kernel_->alloc().FreeCount(PageSize::k4K), free_before);
  EXPECT_TRUE(kernel_->Abstract() == before) << "failed mmap must be atomic";
}

TEST_F(KernelTest, MmapSuperpage2M) {
  SyscallRet ret = Step(thrd_, MakeMmap(kPageSize2M, 1, PageSize::k2M));
  ASSERT_EQ(ret.error, SysError::kOk);
  auto walk = kernel_->mmu().Walk(kernel_->vm().TableOf(proc_).cr3(),
                                  kPageSize2M + 0x12345);
  ASSERT_TRUE(walk.has_value());
  EXPECT_EQ(walk->size, PageSize::k2M);
  ASSERT_EQ(Step(thrd_, MakeMunmap(kPageSize2M, 1, PageSize::k2M)).error, SysError::kOk);
}

TEST_F(KernelTest, MunmapOfUnmappedFails) {
  EXPECT_EQ(Step(thrd_, MakeMunmap(0x400000, 1)).error, SysError::kInvalid);
}

TEST_F(KernelTest, MmapZeroCountOrHugeCountInvalid) {
  EXPECT_EQ(Step(thrd_, MakeMmap(0x400000, 0)).error, SysError::kInvalid);
  EXPECT_EQ(Step(thrd_, MakeMmap(0x400000, kMaxMmapCount + 1)).error, SysError::kInvalid);
}

// ---------------------------------------------------------------------------
// Object creation syscalls
// ---------------------------------------------------------------------------

TEST_F(KernelTest, NewContainerProcessThreadEndpoint) {
  Syscall nc = MakeOp(SysOp::kNewContainer);
  nc.quota = 64;
  nc.cpu_mask = ~0ull;
  SyscallRet c = Step(thrd_, nc);
  ASSERT_EQ(c.error, SysError::kOk);
  EXPECT_TRUE(kernel_->pm().ContainerExists(c.value));
  EXPECT_EQ(kernel_->pm().GetContainer(c.value).parent, ctnr_);

  SyscallRet p = Step(thrd_, MakeOp(SysOp::kNewProcess));
  ASSERT_EQ(p.error, SysError::kOk);
  EXPECT_EQ(kernel_->pm().GetProcess(p.value).parent, proc_);
  EXPECT_TRUE(kernel_->vm().HasAddressSpace(p.value));

  Syscall nt = MakeOp(SysOp::kNewThread);
  nt.target = p.value;
  SyscallRet t2 = Step(thrd_, nt);
  ASSERT_EQ(t2.error, SysError::kOk);
  EXPECT_EQ(kernel_->pm().GetThread(t2.value).owning_proc, p.value);

  Syscall ne = MakeOp(SysOp::kNewEndpoint);
  ne.edpt_idx = 3;
  SyscallRet e = Step(thrd_, ne);
  ASSERT_EQ(e.error, SysError::kOk);
  EXPECT_EQ(kernel_->pm().GetThread(thrd_).endpoints[3], e.value);
}

TEST_F(KernelTest, UnbindEndpointSyscall) {
  Syscall ne = MakeOp(SysOp::kNewEndpoint);
  ne.edpt_idx = 2;
  SyscallRet e = Step(thrd_, ne);
  ASSERT_EQ(e.error, SysError::kOk);
  std::uint64_t used = kernel_->pm().GetContainer(ctnr_).mem_used;

  Syscall unbind = MakeOp(SysOp::kUnbindEndpoint);
  unbind.edpt_idx = 2;
  EXPECT_EQ(Step(thrd_, unbind).error, SysError::kOk);
  EXPECT_FALSE(kernel_->pm().EndpointExists(e.value)) << "last reference frees";
  EXPECT_EQ(kernel_->pm().GetContainer(ctnr_).mem_used, used - 1);
  // Unbinding an empty slot fails atomically.
  EXPECT_EQ(Step(thrd_, unbind).error, SysError::kInvalid);
}

TEST_F(KernelTest, UnbindSharedEndpointOnlyDropsOneReference) {
  auto peer = kernel_->BootCreateThread(proc_);
  Syscall ne = MakeOp(SysOp::kNewEndpoint);
  ne.edpt_idx = 0;
  SyscallRet e = Step(thrd_, ne);
  ASSERT_EQ(kernel_->pm_mut().BindEndpoint(peer.value, 0, e.value), ProcError::kOk);

  Syscall unbind = MakeOp(SysOp::kUnbindEndpoint);
  unbind.edpt_idx = 0;
  EXPECT_EQ(Step(thrd_, unbind).error, SysError::kOk);
  EXPECT_TRUE(kernel_->pm().EndpointExists(e.value)) << "peer still holds it";
  EXPECT_EQ(kernel_->pm().GetEndpoint(e.value).rf_count, 1u);
}

TEST_F(KernelTest, Mmap1GSuperpageSyscall) {
  // A machine with two 1 GiB-aligned regions; the second is fully managed.
  BootConfig big;
  big.frames = 2 * (kPageSize1G / kPageSize4K);
  big.reserved_frames = 16;
  Kernel kernel = std::move(*Kernel::Boot(big));
  RefinementChecker checker(&kernel, 1);
  auto ctnr = kernel.BootCreateContainer(
      kernel.root_container(), kPageSize1G / kPageSize4K + 64, ~0ull);
  auto proc = kernel.BootCreateProcess(ctnr.value);
  auto thrd = kernel.BootCreateThread(proc.value);

  Syscall mmap = MakeMmap(kPageSize1G, 1, PageSize::k1G);
  SyscallRet ret = checker.Step(thrd.value, mmap);
  ASSERT_EQ(ret.error, SysError::kOk);
  auto walk = kernel.mmu().Walk(kernel.vm().TableOf(proc.value).cr3(),
                                kPageSize1G + 0xdeadbe8);
  ASSERT_TRUE(walk.has_value());
  EXPECT_EQ(walk->size, PageSize::k1G);
  // 1G charge accounted in 4K frames.
  EXPECT_GE(kernel.pm().GetContainer(ctnr.value).mem_used, kPageSize1G / kPageSize4K);
  ASSERT_EQ(checker.Step(thrd.value, MakeMunmap(kPageSize1G, 1, PageSize::k1G)).error,
            SysError::kOk);
  EXPECT_EQ(kernel.alloc().FreeCount(PageSize::k1G), 1u);
}

TEST_F(KernelTest, NewContainerQuotaTooLargeFails) {
  Syscall nc = MakeOp(SysOp::kNewContainer);
  nc.quota = 100000;
  EXPECT_EQ(Step(thrd_, nc).error, SysError::kQuotaExceeded);
}

// ---------------------------------------------------------------------------
// IPC
// ---------------------------------------------------------------------------

class KernelIpcTest : public KernelTest {
 protected:
  KernelIpcTest() {
    // A second thread in the same container/process plus an endpoint bound
    // into both descriptor tables.
    auto t2 = kernel_->BootCreateThread(proc_);
    peer_ = t2.value;
    Syscall ne = MakeOp(SysOp::kNewEndpoint);
    ne.edpt_idx = 0;
    SyscallRet e = Step(thrd_, ne);
    EXPECT_EQ(e.error, SysError::kOk);
    edpt_ = e.value;
    EXPECT_EQ(kernel_->pm_mut().BindEndpoint(peer_, 0, edpt_), ProcError::kOk);
  }

  ThrdPtr peer_ = kNullPtr;
  EdptPtr edpt_ = kNullPtr;
};

TEST_F(KernelIpcTest, SendBlocksThenRecvDelivers) {
  Syscall send = MakeOp(SysOp::kSend);
  send.edpt_idx = 0;
  send.payload.scalars = {1, 2, 3, 4};
  EXPECT_EQ(Step(thrd_, send).error, SysError::kBlocked);
  EXPECT_EQ(kernel_->pm().GetThread(thrd_).state, ThreadState::kBlockedSend);

  Syscall recv = MakeOp(SysOp::kRecv);
  recv.edpt_idx = 0;
  EXPECT_EQ(Step(peer_, recv).error, SysError::kOk);
  auto inbound = kernel_->TakeInbound(peer_);
  ASSERT_TRUE(inbound.has_value());
  EXPECT_EQ(inbound->scalars, (std::array<std::uint64_t, 4>{1, 2, 3, 4}));
  EXPECT_EQ(kernel_->pm().GetThread(thrd_).state, ThreadState::kRunnable);
}

TEST_F(KernelIpcTest, RecvBlocksThenSendDelivers) {
  Syscall recv = MakeOp(SysOp::kRecv);
  recv.edpt_idx = 0;
  EXPECT_EQ(Step(peer_, recv).error, SysError::kBlocked);

  Syscall send = MakeOp(SysOp::kSend);
  send.edpt_idx = 0;
  send.payload.scalars = {7, 0, 0, 0};
  EXPECT_EQ(Step(thrd_, send).error, SysError::kOk);
  auto inbound = kernel_->TakeInbound(peer_);
  ASSERT_TRUE(inbound.has_value());
  EXPECT_EQ(inbound->scalars[0], 7u);
  EXPECT_EQ(kernel_->pm().GetThread(peer_).state, ThreadState::kRunnable);
}

TEST_F(KernelIpcTest, PageGrantEstablishesSharedMemory) {
  ASSERT_EQ(Step(thrd_, MakeMmap(0x400000, 1)).error, SysError::kOk);

  Syscall recv = MakeOp(SysOp::kRecv);
  recv.edpt_idx = 0;
  EXPECT_EQ(Step(peer_, recv).error, SysError::kBlocked);

  Syscall send = MakeOp(SysOp::kSend);
  send.edpt_idx = 0;
  send.payload.page = PageGrant{.page = 0x400000,  // sender VA
                                .size = PageSize::k4K,
                                .dest_va = 0x900000,
                                .perm = kRw};
  ASSERT_EQ(Step(thrd_, send).error, SysError::kOk);

  // Both mappings resolve to the same physical frame.
  auto sender_entry = kernel_->vm().Resolve(proc_, 0x400000);
  auto peer_entry = kernel_->vm().Resolve(proc_, 0x900000);
  ASSERT_TRUE(sender_entry && peer_entry);
  EXPECT_EQ(sender_entry->addr, peer_entry->addr);
  EXPECT_EQ(kernel_->alloc().MapCount(sender_entry->addr), 2u);

  // Hardware view: a write through one mapping is visible through the other.
  kernel_->mem_mut().HwWriteU64(sender_entry->addr + 64, 0xfeedface);
  PAddr cr3 = kernel_->vm().TableOf(proc_).cr3();
  auto walk = kernel_->mmu().Walk(cr3, 0x900000 + 64);
  ASSERT_TRUE(walk.has_value());
  EXPECT_EQ(kernel_->mem().HwReadU64(walk->paddr), 0xfeedfaceull);
}

TEST_F(KernelIpcTest, PageGrantCannotAmplifyRights) {
  MapEntryPerm ro{.writable = false, .user = true, .no_execute = false};
  ASSERT_EQ(Step(thrd_, MakeMmap(0x400000, 1, PageSize::k4K, ro)).error, SysError::kOk);
  Syscall send = MakeOp(SysOp::kSend);
  send.edpt_idx = 0;
  send.payload.page = PageGrant{.page = 0x400000, .size = PageSize::k4K,
                                .dest_va = 0x900000, .perm = kRw};  // asks for write
  EXPECT_EQ(Step(thrd_, send).error, SysError::kDenied);
}

TEST_F(KernelIpcTest, EndpointGrantInstallsDescriptor) {
  // Create a second endpoint at thrd_ slot 5, then delegate it to peer
  // slot 7.
  Syscall ne = MakeOp(SysOp::kNewEndpoint);
  ne.edpt_idx = 5;
  SyscallRet e2 = Step(thrd_, ne);
  ASSERT_EQ(e2.error, SysError::kOk);

  Syscall recv = MakeOp(SysOp::kRecv);
  recv.edpt_idx = 0;
  EXPECT_EQ(Step(peer_, recv).error, SysError::kBlocked);

  Syscall send = MakeOp(SysOp::kSend);
  send.edpt_idx = 0;
  send.payload.endpoint = EndpointGrant{.endpoint = 5, .dest_index = 7};  // src slot 5
  ASSERT_EQ(Step(thrd_, send).error, SysError::kOk);
  EXPECT_EQ(kernel_->pm().GetThread(peer_).endpoints[7], e2.value);
  EXPECT_EQ(kernel_->pm().GetEndpoint(e2.value).rf_count, 2u);
}

TEST_F(KernelIpcTest, CallReplyRoundTrip) {
  Syscall recv = MakeOp(SysOp::kRecv);
  recv.edpt_idx = 0;
  EXPECT_EQ(Step(peer_, recv).error, SysError::kBlocked);

  Syscall call = MakeOp(SysOp::kCall);
  call.edpt_idx = 0;
  call.payload.scalars = {42, 0, 0, 0};
  EXPECT_EQ(Step(thrd_, call).error, SysError::kBlocked);
  EXPECT_EQ(kernel_->pm().GetThread(thrd_).state, ThreadState::kBlockedCall);
  EXPECT_EQ(kernel_->pm().GetThread(peer_).reply_to, thrd_);
  auto request = kernel_->TakeInbound(peer_);
  ASSERT_TRUE(request.has_value());
  EXPECT_EQ(request->scalars[0], 42u);

  Syscall reply = MakeOp(SysOp::kReply);
  reply.payload.scalars = {43, 0, 0, 0};
  EXPECT_EQ(Step(peer_, reply).error, SysError::kOk);
  EXPECT_EQ(kernel_->pm().GetThread(thrd_).state, ThreadState::kRunnable);
  auto response = kernel_->TakeInbound(thrd_);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->scalars[0], 43u);
}

TEST_F(KernelIpcTest, CallQueuedBeforeReceiverArrives) {
  Syscall call = MakeOp(SysOp::kCall);
  call.edpt_idx = 0;
  call.payload.scalars = {9, 0, 0, 0};
  EXPECT_EQ(Step(thrd_, call).error, SysError::kBlocked);

  Syscall recv = MakeOp(SysOp::kRecv);
  recv.edpt_idx = 0;
  EXPECT_EQ(Step(peer_, recv).error, SysError::kOk);
  EXPECT_EQ(kernel_->pm().GetThread(peer_).reply_to, thrd_);
  EXPECT_EQ(kernel_->pm().GetThread(thrd_).state, ThreadState::kBlockedCall);

  Syscall reply = MakeOp(SysOp::kReply);
  EXPECT_EQ(Step(peer_, reply).error, SysError::kOk);
  EXPECT_EQ(kernel_->pm().GetThread(thrd_).state, ThreadState::kRunnable);
}

TEST_F(KernelIpcTest, ReplyWithoutCallerFails) {
  EXPECT_EQ(Step(thrd_, MakeOp(SysOp::kReply)).error, SysError::kInvalid);
}

TEST_F(KernelIpcTest, SendOnUnboundDescriptorFails) {
  Syscall send = MakeOp(SysOp::kSend);
  send.edpt_idx = 9;  // empty slot
  EXPECT_EQ(Step(thrd_, send).error, SysError::kInvalid);
}

TEST_F(KernelIpcTest, GrantToOccupiedDestSlotFaultsSender) {
  Syscall recv = MakeOp(SysOp::kRecv);
  recv.edpt_idx = 0;
  EXPECT_EQ(Step(peer_, recv).error, SysError::kBlocked);

  Syscall send = MakeOp(SysOp::kSend);
  send.edpt_idx = 0;
  send.payload.endpoint = EndpointGrant{.endpoint = 0, .dest_index = 0};  // peer slot 0 busy
  EXPECT_EQ(Step(thrd_, send).error, SysError::kWouldFault);
  // Receiver remains blocked and the queue intact.
  EXPECT_EQ(kernel_->pm().GetThread(peer_).state, ThreadState::kBlockedRecv);
}

// ---------------------------------------------------------------------------
// Yield / exit
// ---------------------------------------------------------------------------

TEST_F(KernelIpcTest, YieldRotatesRunQueue) {
  // Make both threads contend: dispatch thrd_, peer_ in queue.
  EXPECT_EQ(Step(thrd_, MakeOp(SysOp::kYield)).error, SysError::kOk);
  EXPECT_EQ(kernel_->pm().current(), peer_);
}

TEST_F(KernelIpcTest, ExitRemovesThreadAndFreesPage) {
  std::uint64_t used = kernel_->pm().GetContainer(ctnr_).mem_used;
  EXPECT_EQ(Step(peer_, MakeOp(SysOp::kExit)).error, SysError::kOk);
  EXPECT_FALSE(kernel_->pm().ThreadExists(peer_));
  EXPECT_EQ(kernel_->pm().GetContainer(ctnr_).mem_used, used - 1);
  EXPECT_EQ(kernel_->alloc().StateOf(peer_), PageState::kFree);
}

TEST_F(KernelIpcTest, ExitOfLastEndpointHolderFreesEndpoint) {
  // Unbind from peer first so thrd_ holds the only references.
  EXPECT_EQ(kernel_->pm_mut().UnbindEndpoint(&kernel_->alloc_mut(), peer_, 0), ProcError::kOk);
  EXPECT_EQ(Step(thrd_, MakeOp(SysOp::kExit)).error, SysError::kOk);
  EXPECT_FALSE(kernel_->pm().EndpointExists(edpt_));
}

// ---------------------------------------------------------------------------
// Kill
// ---------------------------------------------------------------------------

TEST_F(KernelTest, KillProcessSubtree) {
  SyscallRet child = Step(thrd_, MakeOp(SysOp::kNewProcess));
  ASSERT_EQ(child.error, SysError::kOk);
  Syscall nt = MakeOp(SysOp::kNewThread);
  nt.target = child.value;
  SyscallRet ct = Step(thrd_, nt);
  ASSERT_EQ(ct.error, SysError::kOk);

  Syscall kill = MakeOp(SysOp::kKillProcess);
  kill.target = child.value;
  EXPECT_EQ(Step(thrd_, kill).error, SysError::kOk);
  EXPECT_FALSE(kernel_->pm().ProcessExists(child.value));
  EXPECT_FALSE(kernel_->pm().ThreadExists(ct.value));
}

TEST_F(KernelTest, KillProcessRequiresAncestry) {
  Syscall kill = MakeOp(SysOp::kKillProcess);
  kill.target = proc_;  // own process: not a descendant
  EXPECT_EQ(Step(thrd_, kill).error, SysError::kDenied);
}

TEST_F(KernelTest, KillContainerHarvestsResources) {
  std::uint64_t quota_before = kernel_->pm().GetContainer(ctnr_).mem_quota;

  // Child container with a running process that maps memory.
  Syscall nc = MakeOp(SysOp::kNewContainer);
  nc.quota = 128;
  SyscallRet child = Step(thrd_, nc);
  ASSERT_EQ(child.error, SysError::kOk);
  auto cp = kernel_->BootCreateProcess(child.value);
  auto ct = kernel_->BootCreateThread(cp.value);
  ASSERT_TRUE(cp.ok() && ct.ok());
  ASSERT_EQ(Step(ct.value, MakeMmap(0x400000, 4)).error, SysError::kOk);

  Syscall kill = MakeOp(SysOp::kKillContainer);
  kill.target = child.value;
  EXPECT_EQ(Step(thrd_, kill).error, SysError::kOk);
  EXPECT_FALSE(kernel_->pm().ContainerExists(child.value));
  EXPECT_FALSE(kernel_->pm().ProcessExists(cp.value));
  EXPECT_FALSE(kernel_->pm().ThreadExists(ct.value));
  // The full reservation returned to the parent.
  EXPECT_EQ(kernel_->pm().GetContainer(ctnr_).mem_quota, quota_before);
}

TEST_F(KernelTest, KillContainerLeavesSharedResourcesWithParent) {
  // Child container's thread grants a page to thrd_ (cross-container via
  // endpoint), then the child is killed; the page must survive, attributed
  // to the parent.
  Syscall nc = MakeOp(SysOp::kNewContainer);
  nc.quota = 128;
  SyscallRet child = Step(thrd_, nc);
  ASSERT_EQ(child.error, SysError::kOk);
  auto cp = kernel_->BootCreateProcess(child.value);
  auto ct = kernel_->BootCreateThread(cp.value);
  ASSERT_TRUE(cp.ok() && ct.ok());

  // Endpoint created by child's thread, shared to thrd_.
  Syscall ne = MakeOp(SysOp::kNewEndpoint);
  ne.edpt_idx = 0;
  SyscallRet e = Step(ct.value, ne);
  ASSERT_EQ(e.error, SysError::kOk);
  ASSERT_EQ(kernel_->pm_mut().BindEndpoint(thrd_, 0, e.value), ProcError::kOk);

  // Child maps a page and sends it to thrd_.
  ASSERT_EQ(Step(ct.value, MakeMmap(0x400000, 1)).error, SysError::kOk);
  Syscall recv = MakeOp(SysOp::kRecv);
  recv.edpt_idx = 0;
  EXPECT_EQ(Step(thrd_, recv).error, SysError::kBlocked);
  Syscall send = MakeOp(SysOp::kSend);
  send.edpt_idx = 0;
  send.payload.page = PageGrant{.page = 0x400000, .size = PageSize::k4K,
                                .dest_va = 0x900000, .perm = kRw};
  ASSERT_EQ(Step(ct.value, send).error, SysError::kOk);

  PAddr page = kernel_->vm().Resolve(proc_, 0x900000)->addr;
  ASSERT_EQ(kernel_->alloc().OwnerOf(page), child.value);

  Syscall kill = MakeOp(SysOp::kKillContainer);
  kill.target = child.value;
  EXPECT_EQ(Step(thrd_, kill).error, SysError::kOk);

  // The shared page and the endpoint survive, re-attributed to the parent.
  EXPECT_EQ(kernel_->alloc().StateOf(page), PageState::kMapped);
  EXPECT_EQ(kernel_->alloc().OwnerOf(page), ctnr_);
  EXPECT_TRUE(kernel_->pm().EndpointExists(e.value));
  EXPECT_EQ(kernel_->pm().GetEndpoint(e.value).owning_ctnr, ctnr_);
  EXPECT_TRUE(kernel_->vm().Resolve(proc_, 0x900000).has_value());
}

TEST_F(KernelTest, KillContainerRequiresAncestry) {
  Syscall kill = MakeOp(SysOp::kKillContainer);
  kill.target = ctnr_;  // own container
  EXPECT_EQ(Step(thrd_, kill).error, SysError::kDenied);
  kill.target = kernel_->root_container();
  EXPECT_EQ(Step(thrd_, kill).error, SysError::kDenied);
}

// ---------------------------------------------------------------------------
// IOMMU
// ---------------------------------------------------------------------------

TEST_F(KernelTest, IommuDomainLifecycleAndTranslation) {
  SyscallRet d = Step(thrd_, MakeOp(SysOp::kIommuCreateDomain));
  ASSERT_EQ(d.error, SysError::kOk);

  Syscall attach = MakeOp(SysOp::kIommuAttachDevice);
  attach.iommu_domain = d.value;
  attach.device = 42;
  EXPECT_EQ(Step(thrd_, attach).error, SysError::kOk);

  // Map a page, expose it to the device.
  ASSERT_EQ(Step(thrd_, MakeMmap(0x400000, 1)).error, SysError::kOk);
  Syscall map = MakeOp(SysOp::kIommuMapDma);
  map.iommu_domain = d.value;
  map.iova = 0x10000;
  map.dma_va = 0x400000;
  map.map_perm = kRw;
  EXPECT_EQ(Step(thrd_, map).error, SysError::kOk);

  PAddr page = kernel_->vm().Resolve(proc_, 0x400000)->addr;
  auto translated = kernel_->iommu().Translate(42, 0x10000 + 8, /*write=*/true);
  ASSERT_TRUE(translated.has_value());
  EXPECT_EQ(*translated, page + 8);
  // Unattached device / unmapped iova fault.
  EXPECT_FALSE(kernel_->iommu().Translate(43, 0x10000, false).has_value());
  EXPECT_FALSE(kernel_->iommu().Translate(42, 0x20000, false).has_value());
  // The DMA pin keeps the page alive across a CPU unmap.
  ASSERT_EQ(Step(thrd_, MakeMunmap(0x400000, 1)).error, SysError::kOk);
  EXPECT_EQ(kernel_->alloc().StateOf(page), PageState::kMapped);

  Syscall unmap = MakeOp(SysOp::kIommuUnmapDma);
  unmap.iommu_domain = d.value;
  unmap.iova = 0x10000;
  EXPECT_EQ(Step(thrd_, unmap).error, SysError::kOk);
  EXPECT_EQ(kernel_->alloc().StateOf(page), PageState::kFree);
}

TEST_F(KernelTest, IommuDeniesForeignDomains) {
  SyscallRet d = Step(thrd_, MakeOp(SysOp::kIommuCreateDomain));
  ASSERT_EQ(d.error, SysError::kOk);

  // Another container's thread may not attach devices to our domain.
  Syscall nc = MakeOp(SysOp::kNewContainer);
  nc.quota = 32;
  SyscallRet other = Step(thrd_, nc);
  ASSERT_EQ(other.error, SysError::kOk);
  auto op = kernel_->BootCreateProcess(other.value);
  auto ot = kernel_->BootCreateThread(op.value);
  ASSERT_TRUE(op.ok() && ot.ok());

  Syscall attach = MakeOp(SysOp::kIommuAttachDevice);
  attach.iommu_domain = d.value;
  attach.device = 7;
  EXPECT_EQ(Step(ot.value, attach).error, SysError::kDenied);
}

// ---------------------------------------------------------------------------
// Out-of-range ops: the op arrives in a register, so a hostile caller can
// name any byte. Every table lookup must answer without reading past the
// table, and every path must reject the op.
// ---------------------------------------------------------------------------

TEST_F(KernelTest, OutOfRangeSysOpIsRejectedEverywhere) {
  constexpr FrameProfile kWidest{.threads = true, .containers = true, .procs = true,
                                 .endpoints = true, .address_spaces = true, .pages = true,
                                 .free_sets = true, .iommu = true, .rings = true,
                                 .scheduler = true};
  checker_.emplace(&*kernel_,
                   RefinementChecker::Options{.check_wf_every = 1, .audit_every = 1});
  Syscall setup;
  setup.op = SysOp::kRingSetup;
  setup.ring_entries = 8;
  SyscallRet ring = Step(thrd_, setup);
  ASSERT_TRUE(ring.ok());

  for (SysOp op : {static_cast<SysOp>(kSysOpCount), static_cast<SysOp>(255)}) {
    SCOPED_TRACE(static_cast<int>(op));
    EXPECT_STREQ(SysOpName(op), "?");
    EXPECT_STREQ(SysOpTraceLabel(op), "sys.unknown");
    EXPECT_FALSE(RingSubmittable(op));
    EXPECT_FALSE(ReturnsObjectPointer(op));
    EXPECT_FALSE(MayBlock(op));
    EXPECT_EQ(FrameProfileFor(op), kWidest);

    EXPECT_EQ(Step(thrd_, MakeOp(op)).error, SysError::kInvalid);

    Syscall submit;
    submit.op = SysOp::kRingSubmit;
    submit.ring_id = ring.value;
    submit.ring_op = op;
    EXPECT_EQ(Step(thrd_, submit).error, SysError::kInvalid);
    EXPECT_EQ(kernel_->RingPushDirect(thrd_, submit).error, SysError::kInvalid);
  }
  EXPECT_EQ(checker_->stats().audit_passes, checker_->steps_checked());
  InvResult wf = kernel_->TotalWf();
  EXPECT_TRUE(wf.ok) << wf.detail;
}

// ---------------------------------------------------------------------------
// Failure injection: the harness catches corrupted kernels
// ---------------------------------------------------------------------------

TEST_F(KernelTest, CheckerCatchesForgedQuota) {
  ScopedThrowOnCheckFailure guard;
  kernel_->pm_mut().MutableContainer(ctnr_).mem_used = 0;  // forge accounting
  EXPECT_THROW(Step(thrd_, MakeOp(SysOp::kYield)), CheckViolation);
}

TEST_F(KernelTest, CheckerCatchesForgedSubtree) {
  ScopedThrowOnCheckFailure guard;
  kernel_->pm_mut().MutableContainer(kernel_->root_container()).subtree.add(0xdead000);
  EXPECT_THROW(Step(thrd_, MakeOp(SysOp::kYield)), CheckViolation);
}

TEST_F(KernelTest, CheckerCatchesConcretePageTableCorruption) {
  ScopedThrowOnCheckFailure guard;
  ASSERT_EQ(Step(thrd_, MakeMmap(0x400000, 1)).error, SysError::kOk);
  // Flip the leaf target behind the kernel's back.
  PAddr node = kernel_->vm().TableOf(proc_).cr3();
  for (int level = 4; level > 1; --level) {
    node = kernel_->mem().HwReadU64(node + VaIndex(0x400000, level) * 8) & kPteAddrMask;
  }
  std::uint64_t leaf = kernel_->mem().HwReadU64(node + VaIndex(0x400000, 1) * 8);
  kernel_->mem_mut().HwWriteU64(node + VaIndex(0x400000, 1) * 8,
                                (leaf & ~kPteAddrMask) | 0x123000);
  // A raw PTE store is behind every write log, so LocalWf cannot see it;
  // the TotalWf that runs with the audit does, within audit_every steps.
  auto step_to_audit = [&] {
    while (checker_->steps_checked() < checker_->options().audit_every) {
      Step(thrd_, MakeOp(SysOp::kYield));
    }
  };
  EXPECT_THROW(step_to_audit(), CheckViolation);
}

// ---------------------------------------------------------------------------
// Standard invariant suite
// ---------------------------------------------------------------------------

TEST_F(KernelTest, StandardSuitePassesAndBothPtStylesAgree) {
  ASSERT_EQ(Step(thrd_, MakeMmap(0x400000, 16)).error, SysError::kOk);
  for (bool recursive : {false, true}) {
    InvariantRegistry suite = InvariantRegistry::StandardSuite(recursive);
    SuiteReport report = suite.RunAll(*kernel_, /*threads=*/1);
    for (const CheckOutcome& outcome : report.outcomes) {
      EXPECT_TRUE(outcome.ok) << outcome.name << ": " << outcome.detail;
    }
  }
}

TEST_F(KernelTest, SuiteParallelRunMatchesSerial) {
  ASSERT_EQ(Step(thrd_, MakeMmap(0x400000, 8)).error, SysError::kOk);
  InvariantRegistry suite = InvariantRegistry::StandardSuite();
  SuiteReport serial = suite.RunAll(*kernel_, 1);
  SuiteReport parallel = suite.RunAll(*kernel_, 8);
  ASSERT_EQ(serial.outcomes.size(), parallel.outcomes.size());
  for (std::size_t i = 0; i < serial.outcomes.size(); ++i) {
    EXPECT_EQ(serial.outcomes[i].ok, parallel.outcomes[i].ok) << serial.outcomes[i].name;
  }
}

// ---------------------------------------------------------------------------
// Clone determinism (output consistency groundwork)
// ---------------------------------------------------------------------------

TEST_F(KernelTest, CloneExecutesIdentically) {
  ASSERT_EQ(Step(thrd_, MakeMmap(0x400000, 2)).error, SysError::kOk);
  Kernel clone = kernel_->CloneForVerification();
  EXPECT_TRUE(clone.Abstract() == kernel_->Abstract());

  Syscall call = MakeMmap(0x800000, 2);
  SyscallRet a = kernel_->Step(thrd_, call);
  SyscallRet b = clone.Step(thrd_, call);
  EXPECT_EQ(a, b);
  EXPECT_TRUE(clone.Abstract() == kernel_->Abstract());
}

// At every checkpoint of a randomized ring + grant + obs trace, a clone is
// Ψ-equal to the original, well-formed and starts with empty dirty logs;
// then it runs the trace's next 64 commands in step with the original. The
// lockstep run catches lost state that Ψ does not show: free-list order
// (which frames the next mmap gets), the IOMMU domain counter, a ring
// table's id counter and frame bytes. The trace's atomic rings also take
// ExecBatch's clone snapshot on both kernels.
TEST(KernelCloneTest, CloneIsFaithfulOverRandomizedTrace) {
  TraceFixture f = TraceFixture::Boot();
  f.SetupIpcAndDma();
  TraceGen gen;
  gen.ring_ops = gen.grant_ops = gen.obs_ops = true;

  constexpr int kSteps = 4000;
  constexpr int kCheckEvery = 157;  // odd cadence: checkpoints hit varied states
  constexpr int kLockstep = 64;
  std::optional<Kernel> clone;
  int lockstep_left = 0;
  int checkpoints = 0;
  for (int i = 0; i < kSteps; ++i) {
    if (i % kCheckEvery == 0) {
      clone = f.kernel.CloneForVerification();
      ASSERT_TRUE(clone->Abstract() == f.kernel.Abstract()) << "step " << i;
      InvResult wf = clone->TotalWf();
      ASSERT_TRUE(wf.ok) << "step " << i << ": " << wf.detail;
      DirtySet dirty;
      clone->DrainDirty(&dirty);
      EXPECT_TRUE(dirty.Empty()) << "step " << i;
      lockstep_left = kLockstep;
      ++checkpoints;
    }
    TraceGen::Cmd cmd = gen.Gen(f);
    ThrdPtr t = f.thrds[cmd.thread_idx];
    SyscallRet ret = f.kernel.Step(t, cmd.call);
    gen.Observe(cmd.call, ret);
    if (lockstep_left > 0) {
      ASSERT_EQ(clone->Step(t, cmd.call), ret)
          << "step " << i << " op " << SysOpName(cmd.call.op);
    }
    for (ThrdPtr thrd : f.thrds) {
      if (f.kernel.HasInbound(thrd)) {
        std::optional<IpcPayload> inbound = f.kernel.TakeInbound(thrd);
        if (lockstep_left > 0) {
          ASSERT_TRUE(clone->TakeInbound(thrd) == inbound) << "step " << i;
        }
      }
    }
    if (lockstep_left > 0) {
      ASSERT_TRUE(clone->Abstract() == f.kernel.Abstract())
          << "step " << i << " op " << SysOpName(cmd.call.op);
      --lockstep_left;
    }
  }
  EXPECT_GT(checkpoints, 20);
}

// ---------------------------------------------------------------------------
// Randomized syscall trace sweep under full refinement checking
// ---------------------------------------------------------------------------

class KernelTraceTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(KernelTraceTest, RandomTraceStaysVerified) {
  std::uint64_t state = GetParam() * 0x9e3779b97f4a7c15ull + 0xdeadbeef;
  auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };

  BootConfig config;
  config.frames = 8192;
  config.reserved_frames = 16;
  Kernel kernel = std::move(*Kernel::Boot(config));
  // Check total_wf every 5 steps to keep the sweep fast; specs on every
  // step.
  RefinementChecker checker(&kernel, /*check_wf_every=*/5);

  auto c = kernel.BootCreateContainer(kernel.root_container(), 2048, ~0ull);
  auto p = kernel.BootCreateProcess(c.value);
  std::vector<ThrdPtr> threads;
  for (int i = 0; i < 3; ++i) {
    auto t = kernel.BootCreateThread(p.value);
    ASSERT_TRUE(t.ok());
    threads.push_back(t.value);
  }
  // One endpoint shared by all threads at slot 0.
  {
    Syscall ne;
    ne.op = SysOp::kNewEndpoint;
    ne.edpt_idx = 0;
    SyscallRet e = checker.Step(threads[0], ne);
    ASSERT_EQ(e.error, SysError::kOk);
    for (std::size_t i = 1; i < threads.size(); ++i) {
      ASSERT_EQ(kernel.pm_mut().BindEndpoint(threads[i], 0, e.value), ProcError::kOk);
    }
  }

  for (int step = 0; step < 250; ++step) {
    // Pick a schedulable thread.
    std::vector<ThrdPtr> ready;
    for (ThrdPtr t : threads) {
      if (!kernel.pm().ThreadExists(t)) {
        continue;
      }
      ThreadState s = kernel.pm().GetThread(t).state;
      if (s == ThreadState::kRunnable || s == ThreadState::kRunning) {
        ready.push_back(t);
      }
    }
    if (ready.empty()) {
      break;
    }
    ThrdPtr t = ready[next() % ready.size()];

    Syscall call;
    switch (next() % 8) {
      case 0:
        call.op = SysOp::kYield;
        break;
      case 1:
      case 2: {
        call.op = SysOp::kMmap;
        call.va_range = VaRange{(1 + next() % 200) * kPageSize4K * 4, 1 + next() % 3,
                                PageSize::k4K};
        call.map_perm = kRw;
        break;
      }
      case 3: {
        call.op = SysOp::kMunmap;
        call.va_range = VaRange{(1 + next() % 200) * kPageSize4K * 4, 1, PageSize::k4K};
        break;
      }
      case 4: {
        call.op = SysOp::kSend;
        call.edpt_idx = 0;
        call.payload.scalars = {next(), 0, 0, 0};
        break;
      }
      case 5: {
        call.op = SysOp::kRecv;
        call.edpt_idx = 0;
        break;
      }
      case 6: {
        call.op = SysOp::kNewEndpoint;
        call.edpt_idx = static_cast<EdptIdx>(1 + next() % (kMaxEdptDescriptors - 1));
        break;
      }
      case 7: {
        call.op = SysOp::kNewProcess;
        break;
      }
    }
    checker.Step(t, call);  // spec violations raise fatal check failures
  }
  InvResult wf = kernel.TotalWf();
  EXPECT_TRUE(wf.ok) << wf.detail;
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelTraceTest, ::testing::Values(1u, 2u, 3u, 11u, 29u));

}  // namespace
}  // namespace atmo
