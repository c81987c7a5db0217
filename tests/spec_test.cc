// Mutation tests for the specification layer: each per-syscall spec must
// not only accept the kernel's real transitions (covered by kernel_test)
// but also REJECT transitions that differ from the specification. This is
// the analog of checking that the paper's specs are strong enough to
// constrain the implementation — a spec that accepts everything proves
// nothing.
//
// Technique: run a real syscall, capture (pre, post, ret), then mutate the
// post state (or the return value) in a targeted way and assert the spec
// fails.

#include <set>
#include <string>

#include <gtest/gtest.h>

#include "src/core/kernel.h"
#include "src/spec/frame_conditions.h"
#include "src/spec/frame_profile.h"
#include "src/spec/syscall_specs.h"

namespace atmo {
namespace {

constexpr MapEntryPerm kRw{.writable = true, .user = true, .no_execute = false};

struct Captured {
  AbstractKernel pre;
  AbstractKernel post;
  SyscallRet ret;
  ThrdPtr t;
  Syscall call;
};

class SpecMutationTest : public ::testing::Test {
 protected:
  SpecMutationTest() {
    BootConfig config;
    config.frames = 4096;
    config.reserved_frames = 16;
    kernel_.emplace(std::move(*Kernel::Boot(config)));
    auto c = kernel_->BootCreateContainer(kernel_->root_container(), 1024, ~0ull);
    auto p = kernel_->BootCreateProcess(c.value);
    auto t = kernel_->BootCreateThread(p.value);
    ctnr_ = c.value;
    proc_ = p.value;
    thrd_ = t.value;
  }

  Captured Run(const Syscall& call, ThrdPtr t = kNullPtr) {
    if (t == kNullPtr) {
      t = thrd_;
    }
    kernel_->Dispatch(t);
    Captured out;
    out.t = t;
    out.call = call;
    out.pre = kernel_->Abstract();
    out.ret = kernel_->Exec(t, call);
    out.post = kernel_->Abstract();
    return out;
  }

  static Syscall Mmap(VAddr base, std::uint64_t count) {
    Syscall call;
    call.op = SysOp::kMmap;
    call.va_range = VaRange{base, count, PageSize::k4K};
    call.map_perm = kRw;
    return call;
  }

  std::optional<Kernel> kernel_;
  CtnrPtr ctnr_;
  ProcPtr proc_;
  ThrdPtr thrd_;
};

// ---------------------------------------------------------------------------
// The genuine transition passes; mutations fail.
// ---------------------------------------------------------------------------

TEST_F(SpecMutationTest, MmapGenuineTransitionAccepted) {
  Captured c = Run(Mmap(0x400000, 2));
  ASSERT_EQ(c.ret.error, SysError::kOk);
  SpecResult r = SyscallSpec(c.pre, c.post, c.t, c.call, c.ret);
  EXPECT_TRUE(r.ok) << r.detail;
}

TEST_F(SpecMutationTest, MmapRejectsWrongReturnValue) {
  Captured c = Run(Mmap(0x400000, 2));
  SyscallRet forged = c.ret;
  forged.value = 3;  // claims 3 pages mapped
  EXPECT_FALSE(SyscallSpec(c.pre, c.post, c.t, c.call, forged).ok);
}

TEST_F(SpecMutationTest, MmapRejectsMissingMapping) {
  Captured c = Run(Mmap(0x400000, 2));
  AbstractKernel post = c.post;
  // Drop one of the two new mappings from the abstract address space.
  SpecMap<VAddr, MapEntry> space = post.address_spaces.at(proc_);
  space.erase(0x401000);
  post.address_spaces.set(proc_, space);
  EXPECT_FALSE(SyscallSpec(c.pre, post, c.t, c.call, c.ret).ok);
}

TEST_F(SpecMutationTest, MmapRejectsWrongRights) {
  Captured c = Run(Mmap(0x400000, 1));
  AbstractKernel post = c.post;
  SpecMap<VAddr, MapEntry> space = post.address_spaces.at(proc_);
  MapEntry entry = space.at(0x400000);
  entry.perm.writable = false;  // mapped read-only against the request
  space.set(0x400000, entry);
  post.address_spaces.set(proc_, space);
  EXPECT_FALSE(SyscallSpec(c.pre, post, c.t, c.call, c.ret).ok);
}

TEST_F(SpecMutationTest, MmapRejectsDuplicatePhysicalPage) {
  Captured c = Run(Mmap(0x400000, 2));
  AbstractKernel post = c.post;
  SpecMap<VAddr, MapEntry> space = post.address_spaces.at(proc_);
  // Both VAs point at the same frame: violates "each va gets a unique page"
  // (Listing 1, lines 23-26).
  MapEntry first = space.at(0x400000);
  space.set(0x401000, first);
  post.address_spaces.set(proc_, space);
  EXPECT_FALSE(SyscallSpec(c.pre, post, c.t, c.call, c.ret).ok);
}

TEST_F(SpecMutationTest, MmapRejectsTouchingOtherThreads) {
  // "The state of each thread is unchanged" (Listing 1, lines 7-11).
  auto other = kernel_->BootCreateThread(proc_);
  Captured c = Run(Mmap(0x400000, 1));
  AbstractKernel post = c.post;
  AbsThread forged = post.threads.at(other.value);
  forged.has_inbound = true;  // mmap somehow delivered a message?!
  post.threads.set(other.value, forged);
  EXPECT_FALSE(SyscallSpec(c.pre, post, c.t, c.call, c.ret).ok);
}

TEST_F(SpecMutationTest, MmapRejectsWrongCharge) {
  Captured c = Run(Mmap(0x400000, 1));
  AbstractKernel post = c.post;
  AbsContainer forged = post.containers.at(ctnr_);
  forged.mem_used += 5;  // overcharged
  post.containers.set(ctnr_, forged);
  EXPECT_FALSE(SyscallSpec(c.pre, post, c.t, c.call, c.ret).ok);
}

TEST_F(SpecMutationTest, MmapRejectsUsingNonFreePage) {
  // Map twice; then forge history: pretend the second call's page was the
  // first call's (already in use in pre). "Newly allocated pages were free
  // pages" (Listing 1, lines 19-22).
  Captured first = Run(Mmap(0x400000, 1));
  PagePtr used = first.post.address_spaces.at(proc_).at(0x400000).addr;
  Captured second = Run(Mmap(0x500000, 1));
  AbstractKernel post = second.post;
  SpecMap<VAddr, MapEntry> space = post.address_spaces.at(proc_);
  MapEntry entry = space.at(0x500000);
  PagePtr fresh = entry.addr;
  entry.addr = used;
  space.set(0x500000, entry);
  post.address_spaces.set(proc_, space);
  // Move the page-info binding too, to keep the mutation "plausible".
  AbsPageInfo info = post.pages.at(fresh);
  post.pages.erase(fresh);
  post.pages.set(used, info);
  EXPECT_FALSE(SyscallSpec(second.pre, post, second.t, second.call, second.ret).ok);
}

TEST_F(SpecMutationTest, ErrorPathsMustBeAtomic) {
  // A failing syscall whose post state nevertheless changed must be
  // rejected by the atomicity obligation.
  Captured c = Run(Mmap(0x400000, 0));  // invalid count
  ASSERT_EQ(c.ret.error, SysError::kInvalid);
  SpecResult genuine = SyscallSpec(c.pre, c.post, c.t, c.call, c.ret);
  EXPECT_TRUE(genuine.ok) << genuine.detail;

  AbstractKernel post = c.post;
  AbsContainer forged = post.containers.at(ctnr_);
  forged.mem_used += 1;
  post.containers.set(ctnr_, forged);
  EXPECT_FALSE(SyscallSpec(c.pre, post, c.t, c.call, c.ret).ok);
}

TEST_F(SpecMutationTest, NewContainerRejectsWrongQuotaCarve) {
  Syscall nc;
  nc.op = SysOp::kNewContainer;
  nc.quota = 64;
  nc.cpu_mask = ~0ull;
  Captured c = Run(nc);
  ASSERT_EQ(c.ret.error, SysError::kOk);
  EXPECT_TRUE(SyscallSpec(c.pre, c.post, c.t, c.call, c.ret).ok);

  AbstractKernel post = c.post;
  AbsContainer parent = post.containers.at(ctnr_);
  parent.mem_quota += 1;  // parent kept quota it gave away
  post.containers.set(ctnr_, parent);
  EXPECT_FALSE(SyscallSpec(c.pre, post, c.t, c.call, c.ret).ok);
}

TEST_F(SpecMutationTest, NewContainerRejectsMissingSubtreeUpdate) {
  Syscall nc;
  nc.op = SysOp::kNewContainer;
  nc.quota = 64;
  nc.cpu_mask = ~0ull;
  Captured c = Run(nc);
  AbstractKernel post = c.post;
  AbsContainer parent = post.containers.at(ctnr_);
  parent.subtree = parent.subtree.remove(c.ret.value);  // forgot the ghost
  post.containers.set(ctnr_, parent);
  EXPECT_FALSE(SyscallSpec(c.pre, post, c.t, c.call, c.ret).ok);
}

TEST_F(SpecMutationTest, YieldRejectsWrongQueueOrder) {
  auto t2 = kernel_->BootCreateThread(proc_);
  (void)t2;
  Syscall yield;
  yield.op = SysOp::kYield;
  Captured c = Run(yield);
  ASSERT_EQ(c.ret.error, SysError::kOk);
  EXPECT_TRUE(SyscallSpec(c.pre, c.post, c.t, c.call, c.ret).ok);

  AbstractKernel post = c.post;
  // Forge: the yielding thread jumped the queue.
  post.run_queue = SpecSeq<ThrdPtr>{};
  EXPECT_FALSE(SyscallSpec(c.pre, post, c.t, c.call, c.ret).ok);
}

TEST_F(SpecMutationTest, SendSpecRejectsPayloadTampering) {
  auto t2 = kernel_->BootCreateThread(proc_);
  Syscall ne;
  ne.op = SysOp::kNewEndpoint;
  ne.edpt_idx = 0;
  Captured e = Run(ne);
  kernel_->pm_mut().BindEndpoint(t2.value, 0, e.ret.value);

  Syscall recv;
  recv.op = SysOp::kRecv;
  recv.edpt_idx = 0;
  Run(recv, t2.value);

  Syscall send;
  send.op = SysOp::kSend;
  send.edpt_idx = 0;
  send.payload.scalars = {7, 8, 9, 10};
  Captured c = Run(send);
  ASSERT_EQ(c.ret.error, SysError::kOk);
  EXPECT_TRUE(SyscallSpec(c.pre, c.post, c.t, c.call, c.ret).ok);

  AbstractKernel post = c.post;
  AbsThread receiver = post.threads.at(t2.value);
  receiver.ipc_buf.scalars[0] = 999;  // kernel delivered tampered data
  post.threads.set(t2.value, receiver);
  EXPECT_FALSE(SyscallSpec(c.pre, post, c.t, c.call, c.ret).ok);
}

TEST_F(SpecMutationTest, ExitSpecRejectsSurvivingThread) {
  auto victim = kernel_->BootCreateThread(proc_);
  Syscall exit_call;
  exit_call.op = SysOp::kExit;
  Captured c = Run(exit_call, victim.value);
  ASSERT_EQ(c.ret.error, SysError::kOk);
  EXPECT_TRUE(SyscallSpec(c.pre, c.post, c.t, c.call, c.ret).ok);

  AbstractKernel post = c.post;
  post.threads.set(victim.value, c.pre.threads.at(victim.value));  // zombie
  EXPECT_FALSE(SyscallSpec(c.pre, post, c.t, c.call, c.ret).ok);
}

// ---------------------------------------------------------------------------
// DispatchSpec
// ---------------------------------------------------------------------------

TEST_F(SpecMutationTest, DispatchSpecValidatesPreemption) {
  auto t2 = kernel_->BootCreateThread(proc_);
  AbstractKernel pre = kernel_->Abstract();
  kernel_->Dispatch(thrd_);
  AbstractKernel mid = kernel_->Abstract();
  EXPECT_TRUE(DispatchSpec(pre, mid, thrd_).ok);
  // Dispatching the other thread preempts the first.
  kernel_->Dispatch(t2.value);
  AbstractKernel post = kernel_->Abstract();
  SpecResult r = DispatchSpec(mid, post, t2.value);
  EXPECT_TRUE(r.ok) << r.detail;
  // Forged: preempted thread vanished from the queue.
  AbstractKernel forged = post;
  forged.run_queue = SpecSeq<ThrdPtr>{};
  EXPECT_FALSE(DispatchSpec(mid, forged, t2.value).ok);
}

// ---------------------------------------------------------------------------
// Frame-condition helpers
// ---------------------------------------------------------------------------

TEST(FrameConditionTest, MapUnchangedExceptSemantics) {
  SpecMap<int, int> a = SpecMap<int, int>().insert(1, 10).insert(2, 20);
  SpecMap<int, int> same = a;
  SpecMap<int, int> changed = a.insert(2, 99);
  SpecMap<int, int> grown = a.insert(3, 30);
  EXPECT_TRUE(MapUnchangedExcept(a, same, SpecSet<int>{}));
  EXPECT_FALSE(MapUnchangedExcept(a, changed, SpecSet<int>{}));
  EXPECT_TRUE(MapUnchangedExcept(a, changed, SpecSet<int>{2}));
  EXPECT_FALSE(MapUnchangedExcept(a, grown, SpecSet<int>{}));
  EXPECT_TRUE(MapUnchangedExcept(a, grown, SpecSet<int>{3}));
  // Removal is also a change.
  EXPECT_FALSE(MapUnchangedExcept(a, a.remove(1), SpecSet<int>{}));
  EXPECT_TRUE(MapUnchangedExcept(a, a.remove(1), SpecSet<int>{1}));
}

// ---------------------------------------------------------------------------
// Frame-condition table (frame_profile.h)
// ---------------------------------------------------------------------------

TEST(FrameProfileTest, ViolationNamesFirstOutOfFrameComponent) {
  AbstractKernel pre;
  pre.threads = pre.threads.insert(0x1000, AbsThread{});
  pre.free_pages_4k.add(0x2000);

  // Identity transition violates nothing, under any profile.
  EXPECT_EQ(FrameProfileViolation(pre, pre, FrameProfile{}), "");

  // A thread-state change is caught unless the profile allows threads.
  AbstractKernel post = pre;
  AbsThread changed;
  changed.state = ThreadState::kRunning;
  post.threads = post.threads.insert(0x1000, changed);
  EXPECT_EQ(FrameProfileViolation(pre, post, FrameProfile{}), "threads");
  EXPECT_EQ(FrameProfileViolation(pre, post, FrameProfile{.threads = true}), "");

  // Free-set changes are caught as one component, any size class.
  AbstractKernel freed = pre;
  freed.free_pages_2m.add(0x200000);
  EXPECT_EQ(FrameProfileViolation(pre, freed, FrameProfile{}), "free_sets");
  EXPECT_EQ(FrameProfileViolation(pre, freed, FrameProfile{.free_sets = true}), "");

  // Scheduler covers both run_queue and current.
  AbstractKernel dispatched = pre;
  dispatched.current = 0x1000;
  EXPECT_EQ(FrameProfileViolation(pre, dispatched, FrameProfile{}), "scheduler");
  EXPECT_EQ(FrameProfileViolation(pre, dispatched, FrameProfile{.scheduler = true}), "");
}

TEST(FrameProfileTest, TablePropertiesHold) {
  // Yield must not be able to touch memory; kills must be able to touch
  // object state; nothing less than KillContainer may touch the IOMMU
  // besides IPC delegation and the IOMMU calls themselves.
  EXPECT_FALSE(FrameProfileFor(SysOp::kYield).pages);
  EXPECT_FALSE(FrameProfileFor(SysOp::kMmap).threads);
  EXPECT_FALSE(FrameProfileFor(SysOp::kKillProcess).iommu);
  EXPECT_TRUE(FrameProfileFor(SysOp::kKillContainer).iommu);
  EXPECT_TRUE(FrameProfileFor(SysOp::kSend).iommu);  // domain delegation
  EXPECT_FALSE(FrameProfileFor(SysOp::kIommuAttachDevice).pages);

  // Every op that can allocate must also be allowed to change the free
  // sets and the page map together (allocation moves a page between them).
  for (SysOp op : {SysOp::kMmap, SysOp::kNewContainer, SysOp::kNewProcess, SysOp::kNewThread,
                   SysOp::kNewEndpoint, SysOp::kIommuCreateDomain, SysOp::kIommuMapDma}) {
    EXPECT_EQ(FrameProfileFor(op).pages, FrameProfileFor(op).free_sets)
        << "op " << SysOpName(op);
  }

  // Whole-table properties, over every row. Names are distinct and
  // non-empty, each trace label is "sys." + name, and kRingEnter's profile
  // covers every op a ring can drain, plus the ring itself.
  auto within = [](const FrameProfile& a, const FrameProfile& b) {
    return (!a.threads || b.threads) && (!a.containers || b.containers) &&
           (!a.procs || b.procs) && (!a.endpoints || b.endpoints) &&
           (!a.address_spaces || b.address_spaces) && (!a.pages || b.pages) &&
           (!a.free_sets || b.free_sets) && (!a.iommu || b.iommu) && (!a.rings || b.rings) &&
           (!a.scheduler || b.scheduler);
  };
  const FrameProfile ring_enter = FrameProfileFor(SysOp::kRingEnter);
  EXPECT_TRUE(ring_enter.rings);
  std::set<std::string> names;
  for (std::size_t i = 0; i < kSysOpCount; ++i) {
    SysOp op = static_cast<SysOp>(i);
    std::string name = SysOpName(op);
    EXPECT_FALSE(name.empty()) << "op " << i;
    EXPECT_NE(name, "?") << "op " << i;
    EXPECT_TRUE(names.insert(name).second) << "duplicate name " << name;
    EXPECT_EQ(SysOpTraceLabel(op), "sys." + name);
    if (RingSubmittable(op)) {
      EXPECT_TRUE(within(FrameProfileFor(op), ring_enter)) << "op " << name;
      EXPECT_FALSE(FrameProfileFor(op).rings) << "op " << name;
    }
  }
}

}  // namespace
}  // namespace atmo
