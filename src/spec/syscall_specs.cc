#include "src/spec/syscall_specs.h"

#include <algorithm>
#include <map>
#include <optional>
#include <vector>

#include "src/core/syscall_ring.h"
#include "src/spec/frame_conditions.h"
#include "src/spec/frame_profile.h"

namespace atmo {

namespace {

SpecResult Fail(const std::string& detail) { return SpecResult::Fail(detail); }

SpecSeq<ThrdPtr> RemoveFirst(const SpecSeq<ThrdPtr>& seq, ThrdPtr t) {
  SpecSeq<ThrdPtr> out;
  bool removed = false;
  for (ThrdPtr x : seq) {
    if (!removed && x == t) {
      removed = true;
      continue;
    }
    out = out.push(x);
  }
  return out;
}

// The `ret is a failure ==> Ψ' == Ψ` obligation shared by every syscall.
std::optional<SpecResult> CheckFailureAtomicity(const AbstractKernel& pre,
                                                const AbstractKernel& post,
                                                const SyscallRet& ret) {
  if (ret.error == SysError::kOk || ret.error == SysError::kBlocked) {
    return std::nullopt;
  }
  if (!(pre == post)) {
    return Fail("failed syscall changed the abstract state (atomicity violated)");
  }
  return SpecResult{};
}

// New pages this step introduced (dom(post.pages) \ dom(pre.pages)).
SpecSet<PagePtr> NewPages(const AbstractKernel& pre, const AbstractKernel& post) {
  SpecSet<PagePtr> out;
  for (const auto& [page, info] : post.pages) {
    if (!pre.pages.contains(page)) {
      out.add(page);
    }
  }
  return out;
}

// Mirror of Kernel::ResolveOutboundPayload over the abstract state.
std::optional<IpcPayload> ResolvePayloadSpec(const AbstractKernel& pre, ThrdPtr t,
                                             const IpcPayload& payload) {
  const AbsThread& thread = pre.get_thread(t);
  IpcPayload out = payload;

  if (payload.page.has_value()) {
    if (!pre.address_spaces.contains(thread.proc)) {
      return std::nullopt;
    }
    const SpecMap<VAddr, MapEntry>& space = pre.get_address_space(thread.proc);
    VAddr va = payload.page->page;
    if (!space.contains(va)) {
      return std::nullopt;
    }
    MapEntry entry = space.at(va);
    if (entry.size != payload.page->size) {
      return std::nullopt;
    }
    if ((payload.page->perm.writable && !entry.perm.writable) ||
        (!payload.page->perm.no_execute && entry.perm.no_execute)) {
      return std::nullopt;
    }
    // A borrowed page is never grantable, in any mode (exclusivity of the
    // loan); move/borrow additionally require the sender's mapping to be
    // the frame's only one, and a borrow is read-only by construction.
    if (pre.pages.contains(entry.addr) && pre.pages.at(entry.addr).borrowed) {
      return std::nullopt;
    }
    if (payload.page->mode != GrantMode::kShare) {
      if (!pre.pages.contains(entry.addr) || pre.pages.at(entry.addr).map_count != 1) {
        return std::nullopt;
      }
      if (payload.page->mode == GrantMode::kBorrow && payload.page->perm.writable) {
        return std::nullopt;
      }
    }
    out.page->src_va = va;
    out.page->page = entry.addr;
  }
  if (payload.endpoint.has_value()) {
    std::uint64_t src = payload.endpoint->endpoint;
    if (src >= kMaxEdptDescriptors || thread.endpoints[src] == kNullPtr) {
      return std::nullopt;
    }
    out.endpoint->endpoint = thread.endpoints[src];
  }
  if (payload.iommu.has_value()) {
    std::uint64_t domain = payload.iommu->domain_id;
    if (!pre.iommu_domains.contains(domain) ||
        pre.iommu_domains.at(domain).owner != thread.ctnr) {
      return std::nullopt;
    }
  }
  return out;
}

// Checks the effects of delivering `resolved` from sender `s` to receiver
// `r`. A page grant is a pure ownership relabeling of Ψ — no byte-level copy
// appears here in any mode: kShare adds a mapping, kMove replaces the
// sender's with the receiver's in the same transition, kBorrow adds a
// read-only view while downgrading the lender and marking the page borrowed.
SpecResult CheckDeliveryEffects(const AbstractKernel& pre, const AbstractKernel& post,
                                ThrdPtr s, ThrdPtr r, const IpcPayload& resolved) {
  const AbsThread& post_r = post.get_thread(r);
  if (!post_r.has_inbound || !(post_r.ipc_buf == resolved)) {
    return Fail("receiver inbound buffer does not carry the resolved payload");
  }
  if (resolved.page.has_value()) {
    const PageGrant& grant = *resolved.page;
    ProcPtr rproc = post_r.proc;
    const SpecMap<VAddr, MapEntry>& space = post.get_address_space(rproc);
    if (!space.contains(grant.dest_va)) {
      return Fail("granted page not mapped at the destination address");
    }
    MapEntry entry = space.at(grant.dest_va);
    if (entry.addr != grant.page || entry.size != grant.size || !(entry.perm == grant.perm)) {
      return Fail("granted mapping differs from the grant");
    }
    if (!post.pages.contains(grant.page)) {
      return Fail("granted page missing from the abstract page map");
    }
    const AbsPageInfo& post_info = post.pages.at(grant.page);
    std::uint32_t pre_count = pre.pages.at(grant.page).map_count;
    const SpecMap<VAddr, MapEntry>& pre_space = pre.get_address_space(rproc);

    if (grant.mode == GrantMode::kShare) {
      // Shared page pinned once more; the receiver's space changed only at
      // dest_va.
      if (post_info.map_count != pre_count + 1) {
        return Fail("granted page map count did not increment");
      }
      if (post_info.borrowed) {
        return Fail("share grant left a borrow relabeling");
      }
      if (!SpecMap<VAddr, MapEntry>::AgreeExceptAt(pre_space, space, grant.dest_va)) {
        return Fail("page grant changed other receiver mappings");
      }
    } else {
      ProcPtr sproc = pre.get_thread(s).proc;
      const SpecMap<VAddr, MapEntry>& pre_sspace = pre.get_address_space(sproc);
      const SpecMap<VAddr, MapEntry>& post_sspace = post.get_address_space(sproc);
      if (grant.mode == GrantMode::kMove) {
        // Relabeling: the sender's mapping became the receiver's, net map
        // count unchanged, no borrow.
        if (post_info.map_count != pre_count) {
          return Fail("moved page map count changed");
        }
        if (post_info.borrowed) {
          return Fail("move grant left a borrow relabeling");
        }
        if (post_sspace.contains(grant.src_va)) {
          return Fail("moved mapping survived at the sender");
        }
      } else {  // GrantMode::kBorrow
        if (post_info.map_count != pre_count + 1) {
          return Fail("borrowed page map count did not increment");
        }
        MapEntry pre_src = pre_sspace.at(grant.src_va);
        AbsPageBorrow expect{sproc, grant.src_va, pre_src.perm.writable, rproc,
                             grant.dest_va};
        if (!post_info.borrowed || !(post_info.borrow == expect)) {
          return Fail("borrow relabeling differs from the specification");
        }
        if (!post_sspace.contains(grant.src_va)) {
          return Fail("lender mapping vanished under a borrow");
        }
        MapEntry post_src = post_sspace.at(grant.src_va);
        MapEntryPerm ro = pre_src.perm;
        ro.writable = false;
        if (post_src.addr != pre_src.addr || post_src.size != pre_src.size ||
            !(post_src.perm == ro)) {
          return Fail("lender downgrade differs from the specification");
        }
      }
      // Space framing: exactly the source and destination slots changed.
      if (sproc == rproc) {
        if (!SpecMap<VAddr, MapEntry>::AgreeExceptAt2(pre_space, space, grant.src_va,
                                                      grant.dest_va)) {
          return Fail("self-directed grant changed other mappings");
        }
      } else {
        if (!SpecMap<VAddr, MapEntry>::AgreeExceptAt(pre_space, space, grant.dest_va)) {
          return Fail("page grant changed other receiver mappings");
        }
        if (!SpecMap<VAddr, MapEntry>::AgreeExceptAt(pre_sspace, post_sspace,
                                                     grant.src_va)) {
          return Fail("page grant changed other sender mappings");
        }
      }
    }
  }
  if (resolved.endpoint.has_value()) {
    const EndpointGrant& grant = *resolved.endpoint;
    if (post_r.endpoints[grant.dest_index] != grant.endpoint) {
      return Fail("granted endpoint not installed in the destination slot");
    }
    if (post.get_endpoint(grant.endpoint).rf_count !=
        pre.get_endpoint(grant.endpoint).rf_count + 1) {
      return Fail("granted endpoint reference count did not increment");
    }
  }
  if (resolved.iommu.has_value()) {
    std::uint64_t domain = resolved.iommu->domain_id;
    if (!post.iommu_domains.contains(domain) ||
        post.iommu_domains.at(domain).owner != post_r.ctnr) {
      return Fail("delegated IOMMU domain not owned by the receiver's container");
    }
  }
  return SpecResult{};
}

// ---------------------------------------------------------------------------
// Yield
// ---------------------------------------------------------------------------

// Yield is total: it neither blocks nor fails. Its profile (threads,
// scheduler) frames the rest of Ψ; within threads, only the two that trade
// places may change, and only in their scheduler state.
SpecResult YieldSpec(const AbstractKernel& pre, const AbstractKernel& post, ThrdPtr t,
                     const SyscallRet& ret) {
  if (ret.error != SysError::kOk) {
    return Fail("yield cannot fail");
  }
  if (pre.run_queue.empty()) {
    if (!(pre == post)) {
      return Fail("yield with an empty run queue must be a no-op");
    }
    return SpecResult{};
  }
  ThrdPtr next = pre.run_queue[0];
  if (post.current != next || post.get_thread(next).state != ThreadState::kRunning) {
    return Fail("yield did not run the head of the queue");
  }
  if (post.get_thread(t).state != ThreadState::kRunnable) {
    return Fail("yielding thread is not runnable");
  }
  SpecSeq<ThrdPtr> expected = pre.run_queue.subrange(1, pre.run_queue.len()).push(t);
  if (!(post.run_queue == expected)) {
    return Fail("run queue after yield differs from the specification");
  }
  if (!ThreadsTouchedOnlyInState(pre, post, SpecSet<ThrdPtr>{t, next})) {
    return Fail("yield changed non-scheduler state");
  }
  return SpecResult{};
}

// ---------------------------------------------------------------------------
// Memory
// ---------------------------------------------------------------------------

SpecResult MmapSpec(const AbstractKernel& pre, const AbstractKernel& post, ThrdPtr t,
                    const Syscall& call) {
  const VaRange& range = call.va_range;
  const AbsThread& thread = pre.get_thread(t);
  // "The state of each thread is unchanged" (Listing 1, lines 7-11), and so
  // are processes, endpoints, IOMMU and the scheduler: mmap's frame profile.

  // Newly allocated pages were free (lines 19-22) and are now owned by the
  // caller's container.
  SpecSet<PagePtr> fresh = NewPages(pre, post);
  if (!PagesUnchangedExcept(pre, post, fresh)) {
    return Fail("mmap changed pre-existing pages");
  }
  std::uint64_t fresh_frames = 0;
  SpecSet<PagePtr> fresh_mapped;
  for (PagePtr page : fresh) {
    if (!pre.page_is_free(page)) {
      return Fail("mmap used a page that was not free");
    }
    const AbsPageInfo& info = post.pages.at(page);
    if (info.owner != thread.ctnr) {
      return Fail("mmapped page not attributed to the caller's container");
    }
    if (info.state == PageState::kMapped) {
      if (info.map_count != 1 || info.size != range.size) {
        return Fail("mmapped data page has wrong count/size");
      }
      fresh_mapped.add(page);
    } else if (info.state != PageState::kAllocated || info.size != PageSize::k4K) {
      return Fail("fresh non-data page is not a 4K table node");
    }
    fresh_frames += PageFrames4K(info.size);
  }
  if (fresh_mapped.size() != range.count) {
    return Fail("number of fresh mapped pages differs from the request");
  }

  // Quota: only the caller's container changed, by exactly the fresh frames.
  if (!ContainersUnchangedExcept(pre, post, SpecSet<CtnrPtr>{thread.ctnr})) {
    return Fail("mmap touched other containers");
  }
  AbsContainer pre_c = pre.get_cntr(thread.ctnr);
  const AbsContainer& post_c = post.get_cntr(thread.ctnr);
  if (post_c.mem_used != pre_c.mem_used + fresh_frames) {
    return Fail("container charge differs from the fresh frame count");
  }
  pre_c.mem_used = post_c.mem_used;
  if (!(pre_c == post_c)) {
    return Fail("mmap changed container fields other than mem_used");
  }

  // Address space: each va in the range maps a unique fresh page with the
  // requested rights (lines 23-26); addresses outside the range are
  // unchanged (lines 13-18); other address spaces unchanged.
  if (!AddressSpacesUnchangedExcept(pre, post, SpecSet<ProcPtr>{thread.proc})) {
    return Fail("mmap changed other address spaces");
  }
  const SpecMap<VAddr, MapEntry>& pre_space = pre.get_address_space(thread.proc);
  const SpecMap<VAddr, MapEntry>& post_space = post.get_address_space(thread.proc);
  SpecSet<VAddr> range_vas;
  SpecSet<PagePtr> used;
  for (std::uint64_t i = 0; i < range.count; ++i) {
    VAddr va = range.At(i);
    range_vas.add(va);
    if (pre_space.contains(va)) {
      return Fail("mmap target address was already mapped");
    }
    if (!post_space.contains(va)) {
      return Fail("mmap target address is not mapped afterwards");
    }
    MapEntry entry = post_space.at(va);
    if (entry.size != range.size || !(entry.perm == call.map_perm)) {
      return Fail("mmapped entry has wrong size/rights");
    }
    if (!fresh_mapped.contains(entry.addr)) {
      return Fail("mmapped entry does not reference a fresh page");
    }
    if (used.contains(entry.addr)) {
      return Fail("two virtual addresses received the same page");
    }
    used.add(entry.addr);
  }
  if (!MapUnchangedExcept(pre_space, post_space, range_vas)) {
    return Fail("virtual addresses outside va_range changed");
  }
  return SpecResult{};
}

SpecResult MunmapSpec(const AbstractKernel& pre, const AbstractKernel& post, ThrdPtr t,
                      const Syscall& call) {
  const VaRange& range = call.va_range;
  const AbsThread& thread = pre.get_thread(t);

  if (!AddressSpacesUnchangedExcept(pre, post, SpecSet<ProcPtr>{thread.proc})) {
    return Fail("munmap changed other address spaces");
  }

  const SpecMap<VAddr, MapEntry>& pre_space = pre.get_address_space(thread.proc);
  const SpecMap<VAddr, MapEntry>& post_space = post.get_address_space(thread.proc);
  SpecSet<VAddr> range_vas;
  SpecSet<PagePtr> touched_pages;
  std::map<PagePtr, std::uint32_t> unmap_counts;
  for (std::uint64_t i = 0; i < range.count; ++i) {
    VAddr va = range.At(i);
    range_vas.add(va);
    if (!pre_space.contains(va) || pre_space.at(va).size != range.size) {
      return Fail("munmap of an address that was not mapped at this size");
    }
    if (post_space.contains(va)) {
      return Fail("munmapped address still mapped");
    }
    touched_pages.add(pre_space.at(va).addr);
    ++unmap_counts[pre_space.at(va).addr];
  }
  if (!MapUnchangedExcept(pre_space, post_space, range_vas)) {
    return Fail("virtual addresses outside va_range changed");
  }
  if (!PagesUnchangedExcept(pre, post, touched_pages)) {
    return Fail("munmap changed unrelated pages");
  }

  // Per-page release accounting and container refunds.
  std::map<CtnrPtr, std::uint64_t> refunds;
  for (PagePtr page : touched_pages) {
    const AbsPageInfo& before = pre.pages.at(page);
    std::uint32_t removed = unmap_counts[page];
    if (before.map_count > removed) {
      if (!post.pages.contains(page) ||
          post.pages.at(page).map_count != before.map_count - removed) {
        return Fail("shared page count did not decrement correctly");
      }
    } else if (before.map_count == removed) {
      if (post.pages.contains(page)) {
        return Fail("fully unmapped page still in use");
      }
      if (!post.page_is_free(page)) {
        return Fail("fully unmapped page did not return to the free lists");
      }
      refunds[before.owner] += PageFrames4K(before.size);
    } else {
      return Fail("munmap removed more mappings than existed");
    }
  }
  SpecSet<CtnrPtr> touched_ctnrs;
  for (const auto& [owner, frames] : refunds) {
    touched_ctnrs.add(owner);
    AbsContainer pre_c = pre.get_cntr(owner);
    const AbsContainer& post_c = post.get_cntr(owner);
    if (post_c.mem_used + frames != pre_c.mem_used) {
      return Fail("container refund differs from released frames");
    }
    pre_c.mem_used = post_c.mem_used;
    if (!(pre_c == post_c)) {
      return Fail("munmap changed container fields other than mem_used");
    }
  }
  if (!ContainersUnchangedExcept(pre, post, touched_ctnrs)) {
    return Fail("munmap touched unrelated containers");
  }
  return SpecResult{};
}

// ---------------------------------------------------------------------------
// Object creation
// ---------------------------------------------------------------------------

SpecResult NewContainerSpec(const AbstractKernel& pre, const AbstractKernel& post, ThrdPtr t,
                            const Syscall& call, const SyscallRet& ret) {
  CtnrPtr child = ret.value;
  CtnrPtr parent = pre.get_thread(t).ctnr;
  if (pre.containers.contains(child)) {
    return Fail("new container pointer was already live");
  }
  if (!post.containers.contains(child)) {
    return Fail("new container missing from the post state");
  }
  const AbsContainer& c = post.get_cntr(child);
  const AbsContainer& pre_p = pre.get_cntr(parent);
  if (c.parent != parent || c.mem_quota != call.quota || c.mem_used != 1 ||
      c.cpu_mask != call.cpu_mask || c.depth != pre_p.depth + 1 ||
      !(c.path == pre_p.path.push(parent)) || !c.subtree.empty() || !c.children.empty() ||
      !c.procs.empty() || !c.threads.empty()) {
    return Fail("new container fields differ from the specification");
  }

  // Parent: quota carved, child linked, subtree extended.
  AbsContainer expect_p = pre_p;
  expect_p.mem_quota = pre_p.mem_quota - call.quota;
  expect_p.children = pre_p.children.push(child);
  expect_p.subtree = pre_p.subtree.insert(child);
  if (!(post.get_cntr(parent) == expect_p)) {
    return Fail("parent container update differs from the specification");
  }

  // new_container_ensures (Listing 3): each indirect parent's subtree is
  // extended by exactly the child; nothing else about it changes.
  SpecSet<CtnrPtr> touched{child, parent};
  for (CtnrPtr ancestor : pre_p.path) {
    touched.add(ancestor);
    AbsContainer expect_a = pre.get_cntr(ancestor);
    expect_a.subtree = expect_a.subtree.insert(child);
    if (!(post.get_cntr(ancestor) == expect_a)) {
      return Fail("ancestor subtree update differs from the specification");
    }
  }
  if (!ContainersUnchangedExcept(pre, post, touched)) {
    return Fail("new_container changed unrelated containers");
  }

  // One fresh allocated page: the container object, charged to the child.
  SpecSet<PagePtr> fresh = NewPages(pre, post);
  if (!(fresh == SpecSet<PagePtr>{child}) || !pre.page_is_free(child) ||
      post.pages.at(child).state != PageState::kAllocated ||
      post.pages.at(child).owner != child) {
    return Fail("container object page not allocated correctly");
  }
  if (!PagesUnchangedExcept(pre, post, fresh)) {
    return Fail("new_container changed unrelated pages");
  }
  return SpecResult{};
}

SpecResult NewProcessSpec(const AbstractKernel& pre, const AbstractKernel& post, ThrdPtr t,
                          const SyscallRet& ret) {
  ProcPtr child = ret.value;
  const AbsThread& thread = pre.get_thread(t);
  if (pre.procs.contains(child) || !post.procs.contains(child)) {
    return Fail("new process identity wrong");
  }
  const AbsProcess& p = post.get_proc(child);
  if (p.ctnr != thread.ctnr || p.parent != thread.proc || !p.children.empty() ||
      !p.threads.empty()) {
    return Fail("new process fields differ from the specification");
  }
  // Parent process gains the child; container lists/charges update.
  AbsProcess expect_parent = pre.get_proc(thread.proc);
  expect_parent.children = expect_parent.children.push(child);
  if (!(post.get_proc(thread.proc) == expect_parent)) {
    return Fail("parent process update differs from the specification");
  }
  if (!ProcsUnchangedExcept(pre, post, SpecSet<ProcPtr>{child, thread.proc})) {
    return Fail("new_process changed unrelated processes");
  }
  AbsContainer expect_c = pre.get_cntr(thread.ctnr);
  expect_c.procs = expect_c.procs.push(child);
  expect_c.mem_used += 2;  // the process object + the page-table root
  if (!(post.get_cntr(thread.ctnr) == expect_c)) {
    return Fail("container update differs from the specification");
  }
  if (!ContainersUnchangedExcept(pre, post, SpecSet<CtnrPtr>{thread.ctnr})) {
    return Fail("new_process changed unrelated containers");
  }
  // A fresh empty address space.
  if (!post.address_spaces.contains(child) || !post.get_address_space(child).empty()) {
    return Fail("new process address space missing or non-empty");
  }
  if (!AddressSpacesUnchangedExcept(pre, post, SpecSet<ProcPtr>{child})) {
    return Fail("new_process changed other address spaces");
  }
  // Exactly two fresh pages (object + table root), both previously free.
  SpecSet<PagePtr> fresh = NewPages(pre, post);
  if (fresh.size() != 2 || !fresh.contains(child)) {
    return Fail("new_process page allocation differs from the specification");
  }
  for (PagePtr page : fresh) {
    if (!pre.page_is_free(page) || post.pages.at(page).state != PageState::kAllocated ||
        post.pages.at(page).owner != thread.ctnr) {
      return Fail("new_process page not a fresh allocation owned by the container");
    }
  }
  if (!PagesUnchangedExcept(pre, post, fresh)) {
    return Fail("new_process changed unrelated state");
  }
  return SpecResult{};
}

SpecResult NewThreadSpec(const AbstractKernel& pre, const AbstractKernel& post, ThrdPtr t,
                         const Syscall& call, const SyscallRet& ret) {
  ThrdPtr child = ret.value;
  const AbsThread& thread = pre.get_thread(t);
  ProcPtr target = call.target == kNullPtr ? thread.proc : call.target;
  if (pre.threads.contains(child) || !post.threads.contains(child)) {
    return Fail("new thread identity wrong");
  }
  const AbsThread& nt = post.get_thread(child);
  if (nt.proc != target || nt.ctnr != thread.ctnr || nt.state != ThreadState::kRunnable ||
      nt.has_inbound || nt.waiting_on != kNullPtr || nt.reply_to != kNullPtr) {
    return Fail("new thread fields differ from the specification");
  }
  if (!(post.run_queue == pre.run_queue.push(child)) || post.current != pre.current) {
    return Fail("new thread not appended to the run queue");
  }
  AbsProcess expect_p = pre.get_proc(target);
  expect_p.threads = expect_p.threads.push(child);
  if (!(post.get_proc(target) == expect_p) ||
      !ProcsUnchangedExcept(pre, post, SpecSet<ProcPtr>{target})) {
    return Fail("process update differs from the specification");
  }
  AbsContainer expect_c = pre.get_cntr(thread.ctnr);
  expect_c.threads = expect_c.threads.insert(child);
  expect_c.mem_used += 1;
  if (!(post.get_cntr(thread.ctnr) == expect_c) ||
      !ContainersUnchangedExcept(pre, post, SpecSet<CtnrPtr>{thread.ctnr})) {
    return Fail("container update differs from the specification");
  }
  SpecSet<PagePtr> fresh = NewPages(pre, post);
  if (!(fresh == SpecSet<PagePtr>{child}) || !pre.page_is_free(child)) {
    return Fail("thread object page not a fresh allocation");
  }
  if (!PagesUnchangedExcept(pre, post, fresh) ||
      !ThreadsUnchangedExcept(pre, post, SpecSet<ThrdPtr>{child})) {
    return Fail("new_thread changed unrelated state");
  }
  return SpecResult{};
}

SpecResult NewEndpointSpec(const AbstractKernel& pre, const AbstractKernel& post, ThrdPtr t,
                           const Syscall& call, const SyscallRet& ret) {
  EdptPtr edpt = ret.value;
  const AbsThread& thread = pre.get_thread(t);
  if (pre.endpoints.contains(edpt) || !post.endpoints.contains(edpt)) {
    return Fail("new endpoint identity wrong");
  }
  const AbsEndpoint& e = post.get_endpoint(edpt);
  if (!e.queue.empty() || e.queue_kind != EdptQueueKind::kEmpty || e.rf_count != 1 ||
      e.owner != thread.ctnr) {
    return Fail("new endpoint fields differ from the specification");
  }
  AbsThread expect_t = thread;
  expect_t.endpoints[call.edpt_idx] = edpt;
  if (!(post.get_thread(t) == expect_t) ||
      !ThreadsUnchangedExcept(pre, post, SpecSet<ThrdPtr>{t})) {
    return Fail("descriptor installation differs from the specification");
  }
  AbsContainer expect_c = pre.get_cntr(thread.ctnr);
  expect_c.mem_used += 1;
  if (!(post.get_cntr(thread.ctnr) == expect_c) ||
      !ContainersUnchangedExcept(pre, post, SpecSet<CtnrPtr>{thread.ctnr})) {
    return Fail("container charge differs from the specification");
  }
  SpecSet<PagePtr> fresh = NewPages(pre, post);
  if (!(fresh == SpecSet<PagePtr>{edpt}) || !pre.page_is_free(edpt)) {
    return Fail("endpoint object page not a fresh allocation");
  }
  if (!PagesUnchangedExcept(pre, post, fresh) ||
      !EndpointsUnchangedExcept(pre, post, SpecSet<EdptPtr>{edpt})) {
    return Fail("new_endpoint changed unrelated state");
  }
  return SpecResult{};
}

SpecResult UnbindEndpointSpec(const AbstractKernel& pre, const AbstractKernel& post, ThrdPtr t,
                              const Syscall& call) {
  const AbsThread& thread = pre.get_thread(t);
  EdptPtr edpt = thread.endpoints[call.edpt_idx];
  if (edpt == kNullPtr) {
    return Fail("unbind succeeded on an empty slot");
  }
  // The caller's slot is cleared; nothing else about the thread changes.
  AbsThread expect_t = thread;
  expect_t.endpoints[call.edpt_idx] = kNullPtr;
  if (!(post.get_thread(t) == expect_t) ||
      !ThreadsUnchangedExcept(pre, post, SpecSet<ThrdPtr>{t})) {
    return Fail("descriptor clearing differs from the specification");
  }

  const AbsEndpoint& pre_e = pre.get_endpoint(edpt);
  if (pre_e.rf_count == 1) {
    // Last reference: the endpoint object is destroyed and its page freed,
    // refunding the owning container.
    if (post.endpoints.contains(edpt)) {
      return Fail("endpoint survived its last reference");
    }
    if (post.pages.contains(edpt) || !post.page_is_free(edpt)) {
      return Fail("endpoint page was not freed");
    }
    AbsContainer expect_c = pre.get_cntr(pre_e.owner);
    expect_c.mem_used -= 1;
    if (!(post.get_cntr(pre_e.owner) == expect_c) ||
        !ContainersUnchangedExcept(pre, post, SpecSet<CtnrPtr>{pre_e.owner})) {
      return Fail("endpoint-page refund differs from the specification");
    }
    if (!PagesUnchangedExcept(pre, post, SpecSet<PagePtr>{edpt}) ||
        !EndpointsUnchangedExcept(pre, post, SpecSet<EdptPtr>{edpt})) {
      return Fail("unbind (freeing) changed unrelated state");
    }
  } else {
    AbsEndpoint expect_e = pre_e;
    expect_e.rf_count -= 1;
    if (!(post.get_endpoint(edpt) == expect_e) ||
        !EndpointsUnchangedExcept(pre, post, SpecSet<EdptPtr>{edpt})) {
      return Fail("reference-count decrement differs from the specification");
    }
    if (!ContainersUnchangedExcept(pre, post, {}) || !PagesUnchangedExcept(pre, post, {})) {
      return Fail("unbind changed memory state without freeing");
    }
  }
  return SpecResult{};
}

// ---------------------------------------------------------------------------
// IPC
// ---------------------------------------------------------------------------

// Shared shape of the "sender blocks on the endpoint queue" outcome.
SpecResult CheckBlockedOnEndpoint(const AbstractKernel& pre, const AbstractKernel& post,
                                  ThrdPtr t, EdptPtr edpt, ThreadState expect_state,
                                  const std::optional<IpcPayload>& staged) {
  const AbsThread& post_t = post.get_thread(t);
  if (post_t.state != expect_state || post_t.waiting_on != edpt) {
    return Fail("blocked thread state/endpoint differ from the specification");
  }
  if (staged.has_value() && !(post_t.ipc_buf == *staged)) {
    return Fail("staged payload differs from the resolved payload");
  }
  AbsEndpoint expect_e = pre.get_endpoint(edpt);
  expect_e.queue = expect_e.queue.push(t);
  expect_e.queue_kind = expect_state == ThreadState::kBlockedRecv ? EdptQueueKind::kReceivers
                                                                  : EdptQueueKind::kSenders;
  if (!(post.get_endpoint(edpt) == expect_e) ||
      !EndpointsUnchangedExcept(pre, post, SpecSet<EdptPtr>{edpt})) {
    return Fail("endpoint queue update differs from the specification");
  }
  if (post.current != kNullPtr || !(post.run_queue == pre.run_queue)) {
    return Fail("scheduler after blocking differs from the specification");
  }
  if (!ThreadsUnchangedExcept(pre, post, SpecSet<ThrdPtr>{t}) ||
      !ContainersUnchangedExcept(pre, post, {}) ||
      !AddressSpacesUnchangedExcept(pre, post, {}) || !PagesUnchangedExcept(pre, post, {}) ||
      !IommuUnchanged(pre, post)) {
    return Fail("blocking changed unrelated state");
  }
  return SpecResult{};
}

SpecResult SendSpec(const AbstractKernel& pre, const AbstractKernel& post, ThrdPtr t,
                    const Syscall& call, const SyscallRet& ret) {
  const AbsThread& thread = pre.get_thread(t);
  EdptPtr edpt = thread.endpoints[call.edpt_idx];
  std::optional<IpcPayload> resolved = ResolvePayloadSpec(pre, t, call.payload);
  if (!resolved.has_value()) {
    return Fail("send succeeded with an unresolvable payload");
  }

  if (ret.error == SysError::kBlocked) {
    return CheckBlockedOnEndpoint(pre, post, t, edpt, ThreadState::kBlockedSend, resolved);
  }

  // Delivered directly to the head receiver.
  const AbsEndpoint& pre_e = pre.get_endpoint(edpt);
  if (pre_e.queue_kind != EdptQueueKind::kReceivers) {
    return Fail("send returned kOk without a waiting receiver");
  }
  ThrdPtr receiver = pre_e.queue[0];
  const AbsThread& post_r = post.get_thread(receiver);
  if (post_r.state != ThreadState::kRunnable) {
    return Fail("receiver was not woken");
  }
  if (!(post.run_queue == pre.run_queue.push(receiver)) || post.current != t) {
    return Fail("scheduler after delivery differs from the specification");
  }
  AbsEndpoint expect_e = pre_e;
  expect_e.queue = expect_e.queue.subrange(1, expect_e.queue.len());
  expect_e.queue_kind =
      expect_e.queue.empty() ? EdptQueueKind::kEmpty : EdptQueueKind::kReceivers;
  if (resolved->endpoint.has_value() && resolved->endpoint->endpoint == edpt) {
    expect_e.rf_count += 1;  // granting the very endpoint we sent through
  }
  if (!(post.get_endpoint(edpt) == expect_e)) {
    return Fail("endpoint after delivery differs from the specification");
  }
  return CheckDeliveryEffects(pre, post, t, receiver, *resolved);
}

SpecResult RecvSpec(const AbstractKernel& pre, const AbstractKernel& post, ThrdPtr t,
                    const Syscall& call, const SyscallRet& ret) {
  const AbsThread& thread = pre.get_thread(t);
  EdptPtr edpt = thread.endpoints[call.edpt_idx];

  if (ret.error == SysError::kBlocked) {
    return CheckBlockedOnEndpoint(pre, post, t, edpt, ThreadState::kBlockedRecv,
                                  std::nullopt);
  }

  const AbsEndpoint& pre_e = pre.get_endpoint(edpt);
  if (pre_e.queue_kind != EdptQueueKind::kSenders) {
    return Fail("recv returned kOk without a waiting sender");
  }
  ThrdPtr sender = pre_e.queue[0];
  const AbsThread& pre_s = pre.get_thread(sender);
  IpcPayload staged = pre_s.ipc_buf;

  if (pre_s.state == ThreadState::kBlockedSend) {
    if (post.get_thread(sender).state != ThreadState::kRunnable ||
        !(post.run_queue == pre.run_queue.push(sender))) {
      return Fail("plain sender was not woken");
    }
  } else {
    // call(): the sender stays parked awaiting the reply; we owe it one.
    if (post.get_thread(sender).state != ThreadState::kBlockedCall ||
        post.get_thread(sender).waiting_on != kNullPtr ||
        post.get_thread(t).reply_to != sender ||
        !(post.run_queue == pre.run_queue)) {
      return Fail("caller rendezvous state differs from the specification");
    }
  }
  return CheckDeliveryEffects(pre, post, sender, t, staged);
}

SpecResult CallSpec(const AbstractKernel& pre, const AbstractKernel& post, ThrdPtr t,
                    const Syscall& call, const SyscallRet& ret) {
  if (ret.error != SysError::kBlocked) {
    return Fail("call always blocks awaiting the reply");
  }
  const AbsThread& thread = pre.get_thread(t);
  EdptPtr edpt = thread.endpoints[call.edpt_idx];
  std::optional<IpcPayload> resolved = ResolvePayloadSpec(pre, t, call.payload);
  if (!resolved.has_value()) {
    return Fail("call succeeded with an unresolvable payload");
  }

  const AbsEndpoint& pre_e = pre.get_endpoint(edpt);
  if (pre_e.queue_kind != EdptQueueKind::kReceivers) {
    // No receiver: queued like a sender, but in the calling state.
    return CheckBlockedOnEndpoint(pre, post, t, edpt, ThreadState::kBlockedCall, resolved);
  }

  ThrdPtr receiver = pre_e.queue[0];
  const AbsThread& post_t = post.get_thread(t);
  if (post_t.state != ThreadState::kBlockedCall || post_t.waiting_on != kNullPtr) {
    return Fail("caller is not parked awaiting the reply");
  }
  if (post.get_thread(receiver).state != ThreadState::kRunnable ||
      post.get_thread(receiver).reply_to != t) {
    return Fail("receiver rendezvous state differs from the specification");
  }
  if (post.current != kNullPtr || !(post.run_queue == pre.run_queue.push(receiver))) {
    return Fail("scheduler after call differs from the specification");
  }
  return CheckDeliveryEffects(pre, post, t, receiver, *resolved);
}

SpecResult ReplySpec(const AbstractKernel& pre, const AbstractKernel& post, ThrdPtr t,
                     const Syscall& call) {
  ThrdPtr caller = pre.get_thread(t).reply_to;
  std::optional<IpcPayload> resolved = ResolvePayloadSpec(pre, t, call.payload);
  if (!resolved.has_value()) {
    return Fail("reply succeeded with an unresolvable payload");
  }
  if (post.get_thread(t).reply_to != kNullPtr) {
    return Fail("reply obligation was not cleared");
  }
  if (post.get_thread(caller).state != ThreadState::kRunnable ||
      !(post.run_queue == pre.run_queue.push(caller)) || post.current != t) {
    return Fail("caller was not woken by the reply");
  }
  return CheckDeliveryEffects(pre, post, t, caller, *resolved);
}

// The inverse relabeling of a kBorrow delivery: the borrower's read-only
// view disappears, the lender's original rights come back, the page's
// borrow mark clears and its pin count drops by one. The lender still maps
// the frame, so nothing is ever released: the frame profile (address
// spaces, pages) keeps every container, free-set, endpoint, IOMMU and
// scheduler component unchanged.
SpecResult GrantReturnSpec(const AbstractKernel& pre, const AbstractKernel& post, ThrdPtr t,
                           const Syscall& call) {
  ProcPtr proc = pre.get_thread(t).proc;
  VAddr va = call.va_range.base;
  const SpecMap<VAddr, MapEntry>& pre_bspace = pre.get_address_space(proc);
  if (!pre_bspace.contains(va)) {
    return Fail("grant return succeeded without a mapping at the returned address");
  }
  PagePtr page = pre_bspace.at(va).addr;
  const AbsPageInfo& pre_info = pre.pages.at(page);
  if (!pre_info.borrowed || pre_info.borrow.borrower != proc ||
      pre_info.borrow.borrower_va != va) {
    return Fail("grant return succeeded on a page the caller did not borrow");
  }
  const AbsPageBorrow& rec = pre_info.borrow;

  // Borrower side: the view is gone.
  const SpecMap<VAddr, MapEntry>& post_bspace = post.get_address_space(proc);
  if (post_bspace.contains(va)) {
    return Fail("returned view survived in the borrower's space");
  }
  // Lender side: original rights restored in place.
  const SpecMap<VAddr, MapEntry>& pre_lspace = pre.get_address_space(rec.lender);
  const SpecMap<VAddr, MapEntry>& post_lspace = post.get_address_space(rec.lender);
  if (!post_lspace.contains(rec.lender_va)) {
    return Fail("lender mapping vanished at grant return");
  }
  MapEntry pre_l = pre_lspace.at(rec.lender_va);
  MapEntry post_l = post_lspace.at(rec.lender_va);
  MapEntryPerm restored = pre_l.perm;
  restored.writable = rec.lender_writable;
  if (post_l.addr != page || post_l.size != pre_l.size || !(post_l.perm == restored)) {
    return Fail("lender rights were not restored at grant return");
  }
  // Page relabeling: unpinned once, borrow mark cleared, all else equal.
  AbsPageInfo expect_info = pre_info;
  expect_info.map_count = pre_info.map_count - 1;
  expect_info.borrowed = false;
  expect_info.borrow = AbsPageBorrow{};
  if (!post.pages.contains(page) || !(post.pages.at(page) == expect_info)) {
    return Fail("page relabeling at grant return differs from the specification");
  }
  // Framing: the two touched slots, the two spaces, the one page; the
  // profile frames the rest of Ψ.
  if (rec.lender == proc) {
    if (!SpecMap<VAddr, MapEntry>::AgreeExceptAt2(pre_bspace, post_bspace, va,
                                                  rec.lender_va)) {
      return Fail("grant return changed other mappings");
    }
  } else {
    if (!SpecMap<VAddr, MapEntry>::AgreeExceptAt(pre_bspace, post_bspace, va) ||
        !SpecMap<VAddr, MapEntry>::AgreeExceptAt(pre_lspace, post_lspace, rec.lender_va)) {
      return Fail("grant return changed other mappings");
    }
  }
  if (!AddressSpacesUnchangedExcept(pre, post, SpecSet<ProcPtr>{proc, rec.lender}) ||
      !PagesUnchangedExcept(pre, post, SpecSet<PagePtr>{page})) {
    return Fail("grant return changed unrelated memory state");
  }
  return SpecResult{};
}

// The introspection syscall (DESIGN.md §17): the kernel writes a counter
// snapshot into a page the caller already maps writable. Ψ carries no page
// byte contents, so "Ψ' == Ψ modulo the written page" collapses to exact
// equality of every abstract component — the empty frame profile, the
// strongest any syscall carries. Success additionally requires the evidence
// the kernel claims to have checked: a writable, user-accessible mapping
// based at the destination VA in the *pre* state.
SpecResult ObsQuerySpec(const AbstractKernel& pre, ThrdPtr t, const Syscall& call) {
  ProcPtr proc = pre.get_thread(t).proc;
  VAddr va = call.va_range.base;
  const SpecMap<VAddr, MapEntry>& space = pre.get_address_space(proc);
  if (!space.contains(va)) {
    return Fail("obs query succeeded without a mapping based at the destination");
  }
  const MapEntry& dest = space.at(va);
  if (!dest.perm.writable || !dest.perm.user) {
    return Fail("obs query succeeded through a non-writable or kernel-only mapping");
  }
  return SpecResult{};
}

// ---------------------------------------------------------------------------
// Exit / kill (property-style: exact removal sets + survivor framing)
// ---------------------------------------------------------------------------

// Exit is total: it neither blocks nor fails. Address spaces and the IOMMU
// are outside its profile.
SpecResult ExitSpec(const AbstractKernel& pre, const AbstractKernel& post, ThrdPtr t,
                    const SyscallRet& ret) {
  if (ret.error != SysError::kOk) {
    return Fail("exit cannot fail");
  }
  if (post.threads.contains(t)) {
    return Fail("exited thread still live");
  }
  if (post.current != kNullPtr) {
    return Fail("CPU not idle after exit");
  }
  // The thread's object page was freed.
  if (post.pages.contains(t) || !post.page_is_free(t)) {
    return Fail("exited thread's page was not freed");
  }
  // Threads referencing t via reply_to were cleared; no other thread field
  // changes besides that.
  bool others_ok = pre.threads.ForAll([&](ThrdPtr x, const AbsThread& before) {
    if (x == t) {
      return true;
    }
    if (!post.threads.contains(x)) {
      return false;
    }
    AbsThread expect = before;
    if (expect.reply_to == t) {
      expect.reply_to = kNullPtr;
    }
    return post.get_thread(x) == expect;
  });
  if (!others_ok) {
    return Fail("exit changed surviving threads beyond reply_to clearing");
  }
  // Endpoints: only reference counts drop (and endpoints t solely
  // referenced disappear).
  bool endpoints_ok = pre.endpoints.ForAll([&](EdptPtr e, const AbsEndpoint& before) {
    std::uint64_t t_refs = 0;
    for (EdptPtr d : pre.get_thread(t).endpoints) {
      if (d == e) {
        ++t_refs;
      }
    }
    if (t_refs == 0) {
      // May still lose t from its wait queue.
      if (!post.endpoints.contains(e)) {
        return false;
      }
      AbsEndpoint expect = before;
      expect.queue = RemoveFirst(before.queue, t);
      expect.queue_kind =
          expect.queue.empty() ? EdptQueueKind::kEmpty : before.queue_kind;
      return post.get_endpoint(e) == expect;
    }
    if (before.rf_count == t_refs) {
      return !post.endpoints.contains(e);  // freed with the last references
    }
    if (!post.endpoints.contains(e)) {
      return false;
    }
    AbsEndpoint expect = before;
    expect.rf_count = before.rf_count - t_refs;
    expect.queue = RemoveFirst(before.queue, t);
    expect.queue_kind = expect.queue.empty() ? EdptQueueKind::kEmpty : before.queue_kind;
    return post.get_endpoint(e) == expect;
  });
  if (!endpoints_ok) {
    return Fail("exit changed endpoints beyond reference release");
  }
  return SpecResult{};
}

// Tearing down the processes in `doomed` revokes every loan a doomed
// borrower holds: the surviving lender's original rights come back in
// place at the recorded VA (the borrow-aware unmap, DESIGN.md §15).
// Surviving address spaces must be untouched except for exactly those
// restorations.
SpecResult CheckSurvivorSpacesAfterTeardown(const AbstractKernel& pre,
                                            const AbstractKernel& post,
                                            const SpecSet<ProcPtr>& doomed) {
  // lender -> VAs whose rights a dying borrower restores.
  SpecMap<ProcPtr, SpecSet<VAddr>> restored;
  bool restore_ok = true;
  pre.pages.ForAll([&](PagePtr, const AbsPageInfo& info) {
    if (!info.borrowed || !doomed.contains(info.borrow.borrower) ||
        doomed.contains(info.borrow.lender)) {
      return true;
    }
    const AbsPageBorrow& b = info.borrow;
    SpecSet<VAddr> vas =
        restored.contains(b.lender) ? restored.at(b.lender) : SpecSet<VAddr>{};
    restored.set(b.lender, vas.insert(b.lender_va));
    if (!post.address_spaces.contains(b.lender) ||
        !post.get_address_space(b.lender).contains(b.lender_va)) {
      restore_ok = false;
      return true;
    }
    MapEntry expect = pre.get_address_space(b.lender).at(b.lender_va);
    expect.perm.writable = b.lender_writable;
    if (!(post.get_address_space(b.lender).at(b.lender_va) == expect)) {
      restore_ok = false;
    }
    return true;
  });
  if (!restore_ok) {
    return Fail("teardown revocation did not restore the lender's rights");
  }
  bool no_new = post.address_spaces.ForAll(
      [&](ProcPtr p, const SpecMap<VAddr, MapEntry>&) { return pre.address_spaces.contains(p); });
  if (!no_new) {
    return Fail("teardown created an address space");
  }
  bool framed = pre.address_spaces.ForAll(
      [&](ProcPtr p, const SpecMap<VAddr, MapEntry>& space_pre) {
        if (doomed.contains(p)) {
          return true;
        }
        if (!post.address_spaces.contains(p)) {
          return false;
        }
        const SpecMap<VAddr, MapEntry>& space_post = post.get_address_space(p);
        if (!restored.contains(p)) {
          return space_pre == space_post;
        }
        const SpecSet<VAddr>& vas = restored.at(p);
        bool fwd = space_pre.ForAll([&](VAddr va, const MapEntry& entry) {
          return vas.contains(va) ||
                 (space_post.contains(va) && space_post.at(va) == entry);
        });
        return fwd && space_post.ForAll([&](VAddr va, const MapEntry&) {
          return vas.contains(va) || space_pre.contains(va);
        });
      });
  if (!framed) {
    return Fail("teardown changed surviving address spaces beyond revocation");
  }
  return SpecResult{};
}

SpecResult KillProcessSpec(const AbstractKernel& pre, const AbstractKernel& post, ThrdPtr t,
                           const Syscall& call) {
  ProcPtr target = call.target;
  // Doomed set: target's process subtree in pre.
  SpecSet<ProcPtr> doomed;
  std::vector<ProcPtr> stack{target};
  while (!stack.empty()) {
    ProcPtr cur = stack.back();
    stack.pop_back();
    doomed.add(cur);
    for (ProcPtr child : pre.get_proc(cur).children) {
      stack.push_back(child);
    }
  }
  // Exact process removal.
  bool procs_ok = pre.procs.ForAll([&](ProcPtr p, const AbsProcess&) {
    return post.procs.contains(p) != doomed.contains(p);
  });
  if (!procs_ok || post.procs.size() + doomed.size() != pre.procs.size()) {
    return Fail("killed process set differs from the target subtree");
  }
  // Exact thread removal: every thread of a doomed process is gone.
  bool threads_ok = pre.threads.ForAll([&](ThrdPtr x, const AbsThread& before) {
    return post.threads.contains(x) != doomed.contains(before.proc);
  });
  if (!threads_ok) {
    return Fail("killed thread set differs from the doomed processes' threads");
  }
  // Address spaces of doomed processes are gone; others unchanged except
  // for loan revocations restoring a surviving lender's rights.
  if (SpecResult spaces = CheckSurvivorSpacesAfterTeardown(pre, post, doomed); !spaces.ok) {
    return spaces;
  }
  bool spaces_gone = doomed.ForAll([&](ProcPtr p) { return !post.address_spaces.contains(p); });
  if (!spaces_gone) {
    return Fail("doomed address spaces survived");
  }
  // No new pages; the killer's container survives; t survives.
  if (!NewPages(pre, post).empty()) {
    return Fail("kill_process allocated pages");
  }
  if (!post.threads.contains(t) || post.current != t) {
    return Fail("killer thread state wrong after kill_process");
  }
  return SpecResult{};
}

SpecResult KillContainerSpec(const AbstractKernel& pre, const AbstractKernel& post, ThrdPtr t,
                             const Syscall& call) {
  CtnrPtr target = call.target;
  SpecSet<CtnrPtr> doomed = pre.get_cntr(target).subtree.insert(target);

  // Exact container removal.
  bool cntrs_ok = pre.containers.ForAll([&](CtnrPtr c, const AbsContainer&) {
    return post.containers.contains(c) != doomed.contains(c);
  });
  if (!cntrs_ok || post.containers.size() + doomed.size() != pre.containers.size()) {
    return Fail("killed container set differs from the target subtree");
  }
  // All processes/threads owned by doomed containers are gone; others live.
  bool procs_ok = pre.procs.ForAll([&](ProcPtr p, const AbsProcess& before) {
    return post.procs.contains(p) != doomed.contains(before.ctnr);
  });
  bool threads_ok = pre.threads.ForAll([&](ThrdPtr x, const AbsThread& before) {
    return post.threads.contains(x) != doomed.contains(before.ctnr);
  });
  if (!procs_ok || !threads_ok) {
    return Fail("doomed processes/threads survived (or survivors died)");
  }
  // Surviving address spaces are untouched except for loan revocations
  // (a doomed borrower's teardown restores a surviving lender's rights).
  SpecSet<ProcPtr> doomed_procs;
  pre.procs.ForAll([&](ProcPtr p, const AbsProcess& before) {
    if (doomed.contains(before.ctnr)) {
      doomed_procs.add(p);
    }
    return true;
  });
  if (SpecResult spaces = CheckSurvivorSpacesAfterTeardown(pre, post, doomed_procs);
      !spaces.ok) {
    return spaces;
  }
  // No endpoint, page or IOMMU domain remains attributed to a doomed
  // container (resources were harvested to the parent chain).
  bool edpt_ok = post.endpoints.ForAll(
      [&](EdptPtr, const AbsEndpoint& e) { return !doomed.contains(e.owner); });
  bool pages_ok = post.pages.ForAll(
      [&](PagePtr, const AbsPageInfo& info) { return !doomed.contains(info.owner); });
  bool iommu_ok = post.iommu_domains.ForAll(
      [&](std::uint64_t, const AbsIommuDomain& d) { return !doomed.contains(d.owner); });
  if (!edpt_ok || !pages_ok || !iommu_ok) {
    return Fail("resources still attributed to a dead container");
  }
  // Ancestors of the target lost exactly the doomed set from their subtree.
  for (CtnrPtr ancestor : pre.get_cntr(target).path) {
    if (!post.containers.contains(ancestor)) {
      return Fail("ancestor of the killed container disappeared");
    }
    if (!(post.get_cntr(ancestor).subtree == pre.get_cntr(ancestor).subtree.Difference(doomed))) {
      return Fail("ancestor subtree after kill differs from the specification");
    }
  }
  // The parent regained the target's reservation (plus anything its own
  // dying children returned transitively through the chain).
  CtnrPtr parent = pre.get_cntr(target).parent;
  if (post.get_cntr(parent).mem_quota < pre.get_cntr(parent).mem_quota) {
    return Fail("parent lost quota in the harvest");
  }
  if (!NewPages(pre, post).empty()) {
    return Fail("kill_container allocated pages");
  }
  if (!post.threads.contains(t) || post.current != t) {
    return Fail("killer thread state wrong after kill_container");
  }
  return SpecResult{};
}

// ---------------------------------------------------------------------------
// IOMMU
// ---------------------------------------------------------------------------

SpecResult IommuCreateDomainSpec(const AbstractKernel& pre, const AbstractKernel& post,
                                 ThrdPtr t, const SyscallRet& ret) {
  const AbsThread& thread = pre.get_thread(t);
  std::uint64_t domain = ret.value;
  if (pre.iommu_domains.contains(domain) || !post.iommu_domains.contains(domain)) {
    return Fail("new IOMMU domain identity wrong");
  }
  const AbsIommuDomain& d = post.iommu_domains.at(domain);
  if (d.owner != thread.ctnr || !d.mappings.empty() || !d.devices.empty()) {
    return Fail("new IOMMU domain fields differ from the specification");
  }
  if (!MapUnchangedExcept(pre.iommu_domains, post.iommu_domains,
                          SpecSet<std::uint64_t>{domain})) {
    return Fail("create_domain changed other domains");
  }
  SpecSet<PagePtr> fresh = NewPages(pre, post);
  if (fresh.size() != 1) {
    return Fail("create_domain allocation differs from one root node");
  }
  return SpecResult{};
}

SpecResult IommuDeviceSpec(const AbstractKernel& pre, const AbstractKernel& post,
                           const Syscall& call, bool attach) {
  // Exactly one domain's device set changed by the one device.
  std::uint64_t domain = attach ? call.iommu_domain
                                : [&] {
                                    // detach: find the device's pre domain
                                    for (const auto& [id, d] : pre.iommu_domains) {
                                      if (d.devices.contains(call.device)) {
                                        return id;
                                      }
                                    }
                                    return std::uint64_t{0};
                                  }();
  AbsIommuDomain expect = pre.iommu_domains.at(domain);
  if (attach) {
    expect.devices = expect.devices.insert(call.device);
  } else {
    expect.devices = expect.devices.remove(call.device);
  }
  if (!(post.iommu_domains.at(domain) == expect) ||
      !MapUnchangedExcept(pre.iommu_domains, post.iommu_domains,
                          SpecSet<std::uint64_t>{domain})) {
    return Fail("device attachment update differs from the specification");
  }
  return SpecResult{};
}

SpecResult IommuMapDmaSpec(const AbstractKernel& pre, const AbstractKernel& post,
                           const Syscall& call) {
  std::uint64_t domain = call.iommu_domain;
  const AbsIommuDomain& pre_d = pre.iommu_domains.at(domain);
  const AbsIommuDomain& post_d = post.iommu_domains.at(domain);
  if (!post_d.mappings.contains(call.iova)) {
    return Fail("DMA window missing after map_dma");
  }
  if (!SpecMap<VAddr, MapEntry>::AgreeExceptAt(pre_d.mappings, post_d.mappings, call.iova)) {
    return Fail("map_dma changed other DMA windows");
  }
  // Pin: the target page's count incremented.
  PagePtr page = post_d.mappings.at(call.iova).addr;
  if (post.pages.at(page).map_count != pre.pages.at(page).map_count + 1) {
    return Fail("DMA-mapped page was not pinned");
  }
  return SpecResult{};
}

SpecResult IommuUnmapDmaSpec(const AbstractKernel& pre, const AbstractKernel& post,
                             const Syscall& call) {
  std::uint64_t domain = call.iommu_domain;
  const AbsIommuDomain& pre_d = pre.iommu_domains.at(domain);
  const AbsIommuDomain& post_d = post.iommu_domains.at(domain);
  if (post_d.mappings.contains(call.iova) || !pre_d.mappings.contains(call.iova)) {
    return Fail("DMA window still present after unmap_dma");
  }
  if (!SpecMap<VAddr, MapEntry>::AgreeExceptAt(pre_d.mappings, post_d.mappings, call.iova)) {
    return Fail("unmap_dma changed other DMA windows");
  }
  PagePtr page = pre_d.mappings.at(call.iova).addr;
  if (post.pages.contains(page)) {
    if (post.pages.at(page).map_count != pre.pages.at(page).map_count - 1) {
      return Fail("DMA-unmapped page was not unpinned");
    }
  } else if (!post.page_is_free(page)) {
    return Fail("fully released page did not return to the free lists");
  }
  return SpecResult{};
}

// ---------------------------------------------------------------------------
// Syscall rings (DESIGN.md §13)
// ---------------------------------------------------------------------------

SpecResult RingSetupSpec(const AbstractKernel& pre, const AbstractKernel& post, ThrdPtr t,
                         const Syscall& call, const SyscallRet& ret) {
  std::uint64_t id = ret.value;
  if (pre.rings.contains(id) || !post.rings.contains(id)) {
    return Fail("new ring identity wrong");
  }
  if (!RingCapacityValid(call.ring_entries)) {
    return Fail("ring created with an invalid capacity");
  }
  const AbsThread& thread = pre.get_thread(t);
  const AbsSyscallRing& r = post.get_ring(id);
  if (r.owner != t || r.owner_proc != thread.proc || r.owner_ctnr != thread.ctnr ||
      r.capacity != call.ring_entries || r.flags != call.ring_flags || !r.sq.empty() ||
      !r.cq.empty()) {
    return Fail("new ring fields differ from the specification");
  }
  // Rings are bounded kernel bookkeeping, not page-backed objects: no
  // allocation, no quota charge. The profile (rings only) says so.
  if (!RingsUnchangedExcept(pre, post, SpecSet<std::uint64_t>{id})) {
    return Fail("ring_setup changed other rings");
  }
  return SpecResult{};
}

SpecResult RingSubmitSpec(const AbstractKernel& pre, const AbstractKernel& post, ThrdPtr t,
                          const Syscall& call, const SyscallRet& ret) {
  if (!pre.rings.contains(call.ring_id) || !post.rings.contains(call.ring_id)) {
    return Fail("submit succeeded on an unknown ring");
  }
  const AbsSyscallRing& pre_r = pre.get_ring(call.ring_id);
  if (pre_r.owner != t) {
    return Fail("submit succeeded on a foreign ring");
  }
  if (!RingSubmittable(call.ring_op)) {
    return Fail("non-submittable op accepted onto a ring");
  }
  if (pre_r.sq.len() >= pre_r.capacity) {
    return Fail("submit succeeded on a full SQ");
  }
  // The stored entry is exactly RingInnerCall(call) — the kernel and this
  // spec share that rewrite, so what is executed at drain time cannot drift
  // from what was submitted.
  AbsSyscallRing expect = pre_r;
  expect.sq = pre_r.sq.push(RingSqEntry{RingInnerCall(call), call.ring_user_data});
  if (!(post.get_ring(call.ring_id) == expect) ||
      !RingsUnchangedExcept(pre, post, SpecSet<std::uint64_t>{call.ring_id})) {
    return Fail("SQ append differs from the specification");
  }
  if (ret.value != pre_r.sq.len() + 1) {
    return Fail("submit return is not the new SQ depth");
  }
  return SpecResult{};
}

// One kRingEnter is ONE checked transition covering the whole drained batch.
// The spec pins the ring's own evolution exactly (drain count, SQ tail
// retained, CQ append order) and leaves the drained entries' effects on the
// rest of Ψ to the frame profile, TotalWf, the audit and the differential
// oracle (tests/ring_batch_differential_test.cc) — that division of labor is
// the batch amortization (DESIGN.md §13).
SpecResult RingEnterSpec(const AbstractKernel& pre, const AbstractKernel& post, ThrdPtr t,
                         const Syscall& call, const SyscallRet& ret) {
  if (!pre.rings.contains(call.ring_id) || !post.rings.contains(call.ring_id)) {
    return Fail("enter succeeded on an unknown ring");
  }
  const AbsSyscallRing& pre_r = pre.get_ring(call.ring_id);
  const AbsSyscallRing& post_r = post.get_ring(call.ring_id);
  if (pre_r.owner != t) {
    return Fail("enter succeeded on a foreign ring");
  }
  // Output determinism: the drain count is a function of (Ψ, call) — the SQ
  // depth clamped by the CQ's free space and the caller's budget. An
  // oversized batch is split, never rejected; an empty SQ drains zero.
  std::uint64_t n = pre_r.sq.len();
  n = std::min<std::uint64_t>(n, pre_r.capacity - pre_r.cq.len());
  if (call.ring_budget != 0) {
    n = std::min<std::uint64_t>(n, call.ring_budget);
  }
  if (ret.value != n) {
    return Fail("drain count differs from the specification");
  }
  if (!(post_r.sq == pre_r.sq.subrange(n, pre_r.sq.len()))) {
    return Fail("retained SQ tail differs from the specification");
  }
  if (post_r.cq.len() != pre_r.cq.len() + n) {
    return Fail("CQ growth differs from the drain count");
  }
  for (std::size_t i = 0; i < pre_r.cq.len(); ++i) {
    if (!(post_r.cq.at(i) == pre_r.cq.at(i))) {
      return Fail("enter rewrote already-queued completions");
    }
  }
  for (std::uint64_t i = 0; i < n; ++i) {
    const RingCqEntry& cqe = post_r.cq.at(pre_r.cq.len() + i);
    if (cqe.user_data != pre_r.sq.at(i).user_data) {
      return Fail("completion order does not follow submission order");
    }
    if (cqe.ret.error == SysError::kBlocked) {
      return Fail("a drained entry completed as blocked");
    }
  }
  // The ring's identity fields never change across a drain.
  AbsSyscallRing pre_shell = pre_r;
  AbsSyscallRing post_shell = post_r;
  pre_shell.sq = SpecSeq<RingSqEntry>{};
  pre_shell.cq = SpecSeq<RingCqEntry>{};
  post_shell.sq = SpecSeq<RingSqEntry>{};
  post_shell.cq = SpecSeq<RingCqEntry>{};
  if (!(pre_shell == post_shell)) {
    return Fail("enter changed the ring's identity fields");
  }
  if (!RingsUnchangedExcept(pre, post, SpecSet<std::uint64_t>{call.ring_id})) {
    return Fail("enter changed other rings");
  }
  // The drained entries' effects on the rest of Ψ are deliberately NOT
  // restated here (see above): the per-call path is the differential
  // oracle for them.
  return SpecResult{};
}

}  // namespace

// ---------------------------------------------------------------------------
// Dispatch (no syscall, so no table row: it states its own frame)
// ---------------------------------------------------------------------------

SpecResult DispatchSpec(const AbstractKernel& pre, const AbstractKernel& post, ThrdPtr t) {
  if (pre.current == t) {
    if (!(pre == post)) {
      return Fail("dispatch of the current thread changed the state");
    }
    return SpecResult{};
  }
  if (!pre.threads.contains(t) || pre.get_thread(t).state != ThreadState::kRunnable) {
    return Fail("dispatched thread was not runnable");
  }
  if (post.current != t || post.get_thread(t).state != ThreadState::kRunning) {
    return Fail("dispatched thread is not running/current");
  }
  SpecSeq<ThrdPtr> expected = RemoveFirst(pre.run_queue, t);
  SpecSet<ThrdPtr> touched{t};
  if (pre.current != kNullPtr) {
    expected = expected.push(pre.current);
    touched.add(pre.current);
    if (post.get_thread(pre.current).state != ThreadState::kRunnable) {
      return Fail("preempted thread is not runnable");
    }
  }
  if (!(post.run_queue == expected)) {
    return Fail("run queue after dispatch differs from the specification");
  }
  if (!OnlySchedulerChanged(pre, post, touched)) {
    return Fail("dispatch changed non-scheduler state");
  }
  return SpecResult{};
}

// ---------------------------------------------------------------------------
// Syscall dispatcher
// ---------------------------------------------------------------------------

SpecResult SyscallSpec(const AbstractKernel& pre, const AbstractKernel& post, ThrdPtr t,
                       const Syscall& call, const SyscallRet& ret) {
  // The may_block column of the syscall table: only rendezvous IPC parks
  // its caller.
  if (ret.error == SysError::kBlocked && !MayBlock(call.op)) {
    return Fail(std::string(SysOpName(call.op)) + " never blocks");
  }
  // Failure atomicity holds for every op: a hard error leaves Ψ unchanged
  // (including a kRingDrainAtomic rollback's kWouldFault), so no per-op
  // spec runs on an error.
  if (auto atomic = CheckFailureAtomicity(pre, post, ret)) {
    return *atomic;
  }
  // The frame column of the syscall table: components outside the op's
  // profile are untouched. Checked before the per-op spec, which may look
  // up objects of the post state that a forged transition dropped.
  std::string frame = FrameProfileViolation(pre, post, FrameProfileFor(call.op));
  if (!frame.empty()) {
    return Fail("frame profile violated: out-of-frame component changed: " + frame);
  }
  // The value column of the syscall table, for the classes that need no
  // state; kObject, kSqDepth and kBatchCount are the op's own spec's.
  if (ret.error == SysError::kOk) {
    const SysValue value = ReturnValueClass(call.op);
    const bool wrong =
        (value == SysValue::kZero && ret.value != 0) ||
        (value == SysValue::kPageCount && ret.value != call.va_range.count) ||
        (value == SysValue::kRecordSize && ret.value != sizeof(ObsQueryRecord));
    if (wrong) {
      return Fail(std::string(SysOpName(call.op)) + " return value is outside its class");
    }
  }
  switch (call.op) {
    case SysOp::kYield:
      return YieldSpec(pre, post, t, ret);
    case SysOp::kMmap:
      return MmapSpec(pre, post, t, call);
    case SysOp::kMunmap:
      return MunmapSpec(pre, post, t, call);
    case SysOp::kNewContainer:
      return NewContainerSpec(pre, post, t, call, ret);
    case SysOp::kNewProcess:
      return NewProcessSpec(pre, post, t, ret);
    case SysOp::kNewThread:
      return NewThreadSpec(pre, post, t, call, ret);
    case SysOp::kNewEndpoint:
      return NewEndpointSpec(pre, post, t, call, ret);
    case SysOp::kUnbindEndpoint:
      return UnbindEndpointSpec(pre, post, t, call);
    case SysOp::kSend:
      return SendSpec(pre, post, t, call, ret);
    case SysOp::kRecv:
      return RecvSpec(pre, post, t, call, ret);
    case SysOp::kCall:
      return CallSpec(pre, post, t, call, ret);
    case SysOp::kReply:
      return ReplySpec(pre, post, t, call);
    case SysOp::kExit:
      return ExitSpec(pre, post, t, ret);
    case SysOp::kKillProcess:
      return KillProcessSpec(pre, post, t, call);
    case SysOp::kKillContainer:
      return KillContainerSpec(pre, post, t, call);
    case SysOp::kIommuCreateDomain:
      return IommuCreateDomainSpec(pre, post, t, ret);
    case SysOp::kIommuAttachDevice:
      return IommuDeviceSpec(pre, post, call, /*attach=*/true);
    case SysOp::kIommuDetachDevice:
      return IommuDeviceSpec(pre, post, call, /*attach=*/false);
    case SysOp::kIommuMapDma:
      return IommuMapDmaSpec(pre, post, call);
    case SysOp::kIommuUnmapDma:
      return IommuUnmapDmaSpec(pre, post, call);
    case SysOp::kRingSetup:
      return RingSetupSpec(pre, post, t, call, ret);
    case SysOp::kRingSubmit:
      return RingSubmitSpec(pre, post, t, call, ret);
    case SysOp::kRingEnter:
      return RingEnterSpec(pre, post, t, call, ret);
    case SysOp::kGrantReturn:
      return GrantReturnSpec(pre, post, t, call);
    case SysOp::kObsQuery:
      return ObsQuerySpec(pre, t, call);
  }
  return Fail("unknown syscall");
}

}  // namespace atmo
