#include "src/proc/invariants.h"

#include <map>
#include <sstream>

#include "src/vstd/spec_map.h"
#include "src/vstd/spec_set.h"

namespace atmo {

std::string Hex(std::uint64_t v) {
  std::ostringstream out;
  out << "0x" << std::hex << v;
  return out.str();
}

namespace {

// Calls check(ptr, object) for every object of `perms` the scope names (all
// of them under a null scope), stopping at the first failure.
template <typename T, typename Check>
InvResult ForEachInScope(const PermissionMap<T>& perms, const std::vector<std::uint64_t>* scope,
                         Check check) {
  if (scope == nullptr) {
    for (const auto& [ptr, perm] : perms) {
      if (InvResult r = check(ptr, perm.value()); !r.ok) {
        return r;
      }
    }
    return InvResult{};
  }
  for (std::uint64_t ptr : *scope) {
    if (!perms.contains(ptr)) {
      continue;
    }
    if (InvResult r = check(ptr, perms.Get(ptr)); !r.ok) {
      return r;
    }
  }
  return InvResult{};
}

const std::vector<std::uint64_t>* Kind(const ObjectScope* scope,
                                       std::vector<std::uint64_t> ObjectScope::*kind) {
  return scope == nullptr ? nullptr : &(scope->*kind);
}

}  // namespace

InvResult ContainerTreeWf(const ProcessManager& pm, const ObjectScope* scope) {
  const PermissionMap<Container>& cntrs = pm.cntr_perms();
  const std::vector<CtnrPtr>* in_scope = Kind(scope, &ObjectScope::ctnrs);
  CtnrPtr root = pm.root_container();

  if (!cntrs.contains(root)) {
    return InvResult::Fail("root container missing from flat map");
  }
  {
    const Container& r = cntrs.Get(root);
    if (r.parent != kNullPtr || r.depth != 0 || !r.path.empty()) {
      return InvResult::Fail("root container has a parent/path/depth");
    }
  }

  InvResult r = ForEachInScope(cntrs, in_scope, [&](CtnrPtr c_ptr, const Container& c) {
    if (!c.children.LinksWf()) {
      return InvResult::Fail("children list links corrupt in " + Hex(c_ptr));
    }
    if (!c.owned_procs.LinksWf()) {
      return InvResult::Fail("owned_procs list links corrupt in " + Hex(c_ptr));
    }

    // Parent/child mutual consistency and ghost anchoring.
    if (c_ptr == root) {
      return InvResult{};
    }
    if (c.parent == kNullPtr || !cntrs.contains(c.parent)) {
      return InvResult::Fail("container " + Hex(c_ptr) + " has dangling parent");
    }
    const Container& parent = cntrs.Get(c.parent);
    if (c.slot_in_parent == kStaticListNil || parent.children.At(c.slot_in_parent) != c_ptr) {
      return InvResult::Fail("reverse child slot of " + Hex(c_ptr) + " is wrong");
    }
    if (c.depth != parent.depth + 1) {
      return InvResult::Fail("depth of " + Hex(c_ptr) + " is not parent depth + 1");
    }
    if (!(c.path == parent.path.push(c.parent))) {
      return InvResult::Fail("path of " + Hex(c_ptr) + " is not parent path + parent");
    }
    if (c.path.contains(c_ptr) || !c.path.NoDuplicates()) {
      return InvResult::Fail("cycle in path of " + Hex(c_ptr));
    }
    if (c.depth != c.path.len()) {
      return InvResult::Fail("depth of " + Hex(c_ptr) + " differs from path length");
    }
    return InvResult{};
  });
  if (!r.ok) {
    return r;
  }

  // resolve_path_wf (§4.1): for any node at depth d on the path of container
  // c, c's subpath from the root to depth d equals that node's path —
  // expressed directly against the flat map, no recursion.
  r = ForEachInScope(cntrs, in_scope, [&](CtnrPtr c_ptr, const Container& c) {
    for (std::size_t d = 0; d < c.path.len(); ++d) {
      CtnrPtr ancestor = c.path[d];
      if (!cntrs.contains(ancestor)) {
        return InvResult::Fail("path of " + Hex(c_ptr) + " references dead container");
      }
      if (!(c.path.subrange(0, d) == cntrs.Get(ancestor).path)) {
        return InvResult::Fail("path prefix-closure violated at " + Hex(c_ptr));
      }
    }
    return InvResult{};
  });
  if (!r.ok) {
    return r;
  }

  // Bidirectional subtree invariant: c1 is in c2's subtree iff c2 is on
  // c1's path. A scope names every c1 whose pairs may have changed.
  r = ForEachInScope(cntrs, in_scope, [&](CtnrPtr c1_ptr, const Container& c1) {
    for (const auto& [c2_ptr, perm2] : cntrs) {
      const Container& c2 = perm2.value();
      bool in_subtree = c2.subtree.contains(c1_ptr);
      bool on_path = c1.path.contains(c2_ptr);
      if (in_subtree != on_path) {
        return InvResult::Fail("subtree/path disagreement between " + Hex(c1_ptr) + " and " +
                               Hex(c2_ptr));
      }
    }
    if (c1.subtree.contains(c1_ptr)) {
      return InvResult::Fail("container " + Hex(c1_ptr) + " is in its own subtree");
    }
    // Subtree members must be live containers (dangling ghost entries are
    // invisible to the bidirectional check above, which quantifies over the
    // domain only).
    bool members_live = c1.subtree.ForAll([&](CtnrPtr m) { return cntrs.contains(m); });
    if (!members_live) {
      return InvResult::Fail("subtree of " + Hex(c1_ptr) + " references a dead container");
    }
    return InvResult{};
  });
  if (!r.ok) {
    return r;
  }

  // Children membership implies parenthood (the quantified converse of the
  // per-child checks above).
  return ForEachInScope(cntrs, in_scope, [&](CtnrPtr c_ptr, const Container& c) {
    for (CtnrPtr child : c.children) {
      if (!cntrs.contains(child) || cntrs.Get(child).parent != c_ptr) {
        return InvResult::Fail("children list of " + Hex(c_ptr) + " holds a non-child");
      }
    }
    return InvResult{};
  });
}

InvResult ProcessTreeWf(const ProcessManager& pm, const ObjectScope* scope) {
  const PermissionMap<Process>& procs = pm.proc_perms();
  const PermissionMap<Container>& cntrs = pm.cntr_perms();

  InvResult r = ForEachInScope(procs, Kind(scope, &ObjectScope::procs), [&](ProcPtr p_ptr,
                                                                           const Process& p) {
    if (!p.children.LinksWf() || !p.threads.LinksWf()) {
      return InvResult::Fail("embedded list links corrupt in process " + Hex(p_ptr));
    }
    if (!cntrs.contains(p.owning_container)) {
      return InvResult::Fail("process " + Hex(p_ptr) + " owned by dead container");
    }
    const Container& ctnr = cntrs.Get(p.owning_container);
    if (p.slot_in_container == kStaticListNil ||
        ctnr.owned_procs.At(p.slot_in_container) != p_ptr) {
      return InvResult::Fail("container slot of process " + Hex(p_ptr) + " is wrong");
    }
    if (p.parent != kNullPtr) {
      if (!procs.contains(p.parent)) {
        return InvResult::Fail("process " + Hex(p_ptr) + " has dangling parent");
      }
      const Process& parent = procs.Get(p.parent);
      if (parent.owning_container != p.owning_container) {
        return InvResult::Fail("process " + Hex(p_ptr) + " crosses container boundary");
      }
      if (p.slot_in_parent == kStaticListNil ||
          parent.children.At(p.slot_in_parent) != p_ptr) {
        return InvResult::Fail("reverse child slot of process " + Hex(p_ptr) + " is wrong");
      }
    }
    // Acyclicity: walk the parent chain; it must terminate within |procs|.
    ProcPtr cur = p.parent;
    std::size_t steps = 0;
    while (cur != kNullPtr) {
      if (++steps > procs.size()) {
        return InvResult::Fail("cycle in process parent chain at " + Hex(p_ptr));
      }
      cur = procs.Get(cur).parent;
    }
    for (ProcPtr child : p.children) {
      if (!procs.contains(child) || procs.Get(child).parent != p_ptr) {
        return InvResult::Fail("children list of process " + Hex(p_ptr) + " holds a non-child");
      }
    }
    return InvResult{};
  });
  if (!r.ok) {
    return r;
  }

  // Every owned_procs member is a live process owned by that container.
  return ForEachInScope(cntrs, Kind(scope, &ObjectScope::ctnrs), [&](CtnrPtr c_ptr,
                                                                     const Container& c) {
    for (ProcPtr proc : c.owned_procs) {
      if (!procs.contains(proc) || procs.Get(proc).owning_container != c_ptr) {
        return InvResult::Fail("owned_procs of " + Hex(c_ptr) + " holds a foreign process");
      }
    }
    return InvResult{};
  });
}

InvResult ThreadsWf(const ProcessManager& pm, const ObjectScope* scope) {
  const PermissionMap<Thread>& thrds = pm.thrd_perms();
  const PermissionMap<Process>& procs = pm.proc_perms();
  const PermissionMap<Container>& cntrs = pm.cntr_perms();
  const PermissionMap<Endpoint>& edpts = pm.edpt_perms();

  InvResult r = ForEachInScope(thrds, Kind(scope, &ObjectScope::thrds), [&](ThrdPtr t_ptr,
                                                                           const Thread& t) {
    if (!procs.contains(t.owning_proc)) {
      return InvResult::Fail("thread " + Hex(t_ptr) + " owned by dead process");
    }
    const Process& proc = procs.Get(t.owning_proc);
    if (t.owning_ctnr != proc.owning_container) {
      return InvResult::Fail("thread " + Hex(t_ptr) + " container disagrees with its process");
    }
    if (t.slot_in_proc == kStaticListNil || proc.threads.At(t.slot_in_proc) != t_ptr) {
      return InvResult::Fail("process slot of thread " + Hex(t_ptr) + " is wrong");
    }
    if (!cntrs.Get(t.owning_ctnr).owned_threads.contains(t_ptr)) {
      return InvResult::Fail("thread " + Hex(t_ptr) + " missing from container ghost set");
    }

    // Descriptor table references live endpoints.
    for (EdptPtr edpt : t.endpoints) {
      if (edpt != kNullPtr && !edpts.contains(edpt)) {
        return InvResult::Fail("thread " + Hex(t_ptr) + " holds dangling endpoint descriptor");
      }
    }

    // State/location exclusivity.
    switch (t.state) {
      case ThreadState::kRunning:
        if (pm.current() != t_ptr) {
          return InvResult::Fail("running thread " + Hex(t_ptr) + " is not current");
        }
        break;
      case ThreadState::kRunnable: {
        std::size_t count = 0;
        for (ThrdPtr q : pm.run_queue()) {
          if (q == t_ptr) {
            ++count;
          }
        }
        if (count != 1) {
          return InvResult::Fail("runnable thread " + Hex(t_ptr) + " run-queue count != 1");
        }
        break;
      }
      case ThreadState::kBlockedSend:
      case ThreadState::kBlockedRecv:
      case ThreadState::kBlockedCall: {
        if (t.state == ThreadState::kBlockedCall && t.waiting_on == kNullPtr) {
          // Rendezvous complete: awaiting a direct reply, parked off-queue.
          if (t.wait_slot != kStaticListNil) {
            return InvResult::Fail("reply-waiting thread " + Hex(t_ptr) + " has a queue slot");
          }
          break;
        }
        if (t.waiting_on == kNullPtr || !edpts.contains(t.waiting_on)) {
          return InvResult::Fail("blocked thread " + Hex(t_ptr) + " waits on dead endpoint");
        }
        const Endpoint& e = edpts.Get(t.waiting_on);
        if (t.wait_slot == kStaticListNil || e.queue.At(t.wait_slot) != t_ptr) {
          return InvResult::Fail("wait-queue reverse index of " + Hex(t_ptr) + " is wrong");
        }
        EdptQueueKind expect = t.state == ThreadState::kBlockedRecv ? EdptQueueKind::kReceivers
                                                                    : EdptQueueKind::kSenders;
        if (e.queue_kind != expect) {
          return InvResult::Fail("queue kind mismatch for blocked thread " + Hex(t_ptr));
        }
        break;
      }
    }
    return InvResult{};
  });
  if (!r.ok) {
    return r;
  }

  // Converse of the ghost set: owned_threads only holds live owned threads.
  return ForEachInScope(cntrs, Kind(scope, &ObjectScope::ctnrs), [&](CtnrPtr c_ptr,
                                                                     const Container& c) {
    bool ok = c.owned_threads.ForAll([&](ThrdPtr t_ptr) {
      return thrds.contains(t_ptr) && thrds.Get(t_ptr).owning_ctnr == c_ptr;
    });
    if (!ok) {
      return InvResult::Fail("owned_threads ghost set of " + Hex(c_ptr) + " holds a stranger");
    }
    return InvResult{};
  });
}

InvResult EndpointsWf(const ProcessManager& pm, const ObjectScope* scope) {
  const PermissionMap<Thread>& thrds = pm.thrd_perms();
  const PermissionMap<Endpoint>& edpts = pm.edpt_perms();
  const PermissionMap<Container>& cntrs = pm.cntr_perms();

  // Reference counts: tally descriptor references across all threads. A
  // scoped check leaves the tally to its caller, which keeps it as deltas.
  std::map<EdptPtr, std::uint64_t> refs;
  if (scope == nullptr) {
    for (const auto& [t_ptr, perm] : thrds) {
      for (EdptPtr edpt : perm.value().endpoints) {
        if (edpt != kNullPtr) {
          ++refs[edpt];
        }
      }
    }
  }

  InvResult r = ForEachInScope(edpts, Kind(scope, &ObjectScope::edpts), [&](EdptPtr e_ptr,
                                                                           const Endpoint& e) {
    if (!e.queue.LinksWf()) {
      return InvResult::Fail("endpoint queue links corrupt in " + Hex(e_ptr));
    }
    std::uint64_t expected = refs.count(e_ptr) ? refs[e_ptr] : 0;
    if (scope == nullptr && e.rf_count != expected) {
      return InvResult::Fail("rf_count of " + Hex(e_ptr) + " disagrees with descriptors");
    }
    if (e.rf_count == 0) {
      return InvResult::Fail("endpoint " + Hex(e_ptr) + " alive with zero references");
    }
    if (!cntrs.contains(e.owning_ctnr)) {
      return InvResult::Fail("endpoint " + Hex(e_ptr) + " owned by dead container");
    }
    if (e.queue.empty() != (e.queue_kind == EdptQueueKind::kEmpty)) {
      return InvResult::Fail("queue kind of " + Hex(e_ptr) + " disagrees with emptiness");
    }
    for (ThrdPtr t_ptr : e.queue) {
      if (!thrds.contains(t_ptr)) {
        return InvResult::Fail("endpoint " + Hex(e_ptr) + " queues a dead thread");
      }
      const Thread& t = thrds.Get(t_ptr);
      if (t.waiting_on != e_ptr) {
        return InvResult::Fail("queued thread " + Hex(t_ptr) + " does not wait on " +
                               Hex(e_ptr));
      }
    }
    return InvResult{};
  });
  if (!r.ok) {
    return r;
  }
  // No dangling references (a descriptor to a freed endpoint).
  for (const auto& [e_ptr, count] : refs) {
    if (!edpts.contains(e_ptr)) {
      return InvResult::Fail("descriptor references freed endpoint " + Hex(e_ptr));
    }
  }
  return InvResult{};
}

InvResult SchedulerWf(const ProcessManager& pm) {
  const PermissionMap<Thread>& thrds = pm.thrd_perms();
  if (pm.current() != kNullPtr) {
    if (!thrds.contains(pm.current()) ||
        thrds.Get(pm.current()).state != ThreadState::kRunning) {
      return InvResult::Fail("current thread is not running");
    }
  }
  // A spec set, so that under the checker's ArenaScope it lives in its
  // arena.
  SpecSet<ThrdPtr> seen;
  for (ThrdPtr t_ptr : pm.run_queue()) {
    if (!thrds.contains(t_ptr)) {
      return InvResult::Fail("run queue holds dead thread " + Hex(t_ptr));
    }
    if (thrds.Get(t_ptr).state != ThreadState::kRunnable) {
      return InvResult::Fail("run queue holds non-runnable thread " + Hex(t_ptr));
    }
    if (seen.contains(t_ptr)) {
      return InvResult::Fail("run queue holds duplicate thread " + Hex(t_ptr));
    }
    seen.add(t_ptr);
  }
  return InvResult{};
}

void QuotaTally::Count(const PageAllocator& alloc, PagePtr page) {
  const CtnrPtr owner = alloc.OwnerOf(page);
  charged_.set(owner, ChargedTo(owner) + PageFrames4K(alloc.SizeClassOf(page)));
}

std::uint64_t QuotaTally::ChargedTo(CtnrPtr owner) const {
  return charged_.contains(owner) ? charged_.at(owner) : 0;
}

InvResult QuotaTally::Verdict(const ProcessManager& pm) const {
  const PermissionMap<Container>& cntrs = pm.cntr_perms();
  std::uint64_t total_quota = 0;
  for (const auto& [c_ptr, perm] : cntrs) {
    const Container& c = perm.value();
    if (c.mem_used > c.mem_quota) {
      return InvResult::Fail("container " + Hex(c_ptr) + " exceeds its memory quota");
    }
    std::uint64_t owned = ChargedTo(c_ptr);
    if (owned != c.mem_used) {
      return InvResult::Fail("container " + Hex(c_ptr) + " mem_used (" +
                             std::to_string(c.mem_used) + ") != allocator attribution (" +
                             std::to_string(owned) + ")");
    }
    total_quota += c.mem_quota;
  }

  // Conservation: quotas across alive containers sum to the boot
  // reservation (carving moves quota, never creates it).
  if (total_quota != pm.initial_quota()) {
    return InvResult::Fail("total container quota (" + std::to_string(total_quota) +
                           ") differs from boot reservation (" +
                           std::to_string(pm.initial_quota()) + ")");
  }

  // No page attributed to a dead container.
  for (const auto& [owner, frames] : charged_) {
    if (owner != kNullPtr && !cntrs.contains(owner)) {
      return InvResult::Fail("pages attributed to dead container " + Hex(owner));
    }
  }
  return InvResult{};
}

InvResult QuotaWf(const ProcessManager& pm, const PageAllocator& alloc) {
  QuotaTally tally;
  alloc.ForEachInUsePage([&](PagePtr page, PageState) {
    tally.Count(alloc, page);
    return true;
  });
  return tally.Verdict(pm);
}

InvResult ProcessManagerWf(const ProcessManager& pm, const ObjectScope* scope) {
  for (auto* check : {&ContainerTreeWf, &ProcessTreeWf, &ThreadsWf, &EndpointsWf}) {
    InvResult result = (*check)(pm, scope);
    if (!result.ok) {
      return result;
    }
  }
  return SchedulerWf(pm);
}

}  // namespace atmo
