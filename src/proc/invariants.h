// Well-formedness invariants of the process-management subsystem (§4.1).
//
// Each invariant is a separate "closed spec function" — callers establish
// them through the lemmas encoded in ProcessManager's operations and the
// harness re-checks them after every kernel step. The container-tree
// invariant uses the paper's *non-recursive* formulations enabled by flat
// permission storage: path prefix-closure (`resolve_path_wf`), bidirectional
// subtree membership, and direct parent/child link consistency — no
// recursive descent over the tree.

#ifndef ATMO_SRC_PROC_INVARIANTS_H_
#define ATMO_SRC_PROC_INVARIANTS_H_

#include <string>
#include <vector>

#include "src/pmem/page_allocator.h"
#include "src/proc/process_manager.h"
#include "src/vstd/spec_map.h"

namespace atmo {

struct InvResult {
  bool ok = true;
  std::string detail;

  static InvResult Fail(std::string d) { return InvResult{false, std::move(d)}; }
};

// An object id as failure details print it ("0x...").
std::string Hex(std::uint64_t v);

// The objects a local Wf check visits (Kernel::LocalWf), each kind sorted
// ascending. The checks below quantify over every object under a null
// scope, and over the scope's objects otherwise; a relation between two
// objects is checked from the end the scope names.
struct ObjectScope {
  std::vector<CtnrPtr> ctnrs;
  std::vector<ProcPtr> procs;
  std::vector<ThrdPtr> thrds;
  std::vector<EdptPtr> edpts;
};

// container_tree_wf: root anchoring, parent/children mutual consistency,
// depth/path/subtree ghost-state correctness, acyclicity.
InvResult ContainerTreeWf(const ProcessManager& pm, const ObjectScope* scope = nullptr);

// process_tree_wf: per-container process trees are well-formed.
InvResult ProcessTreeWf(const ProcessManager& pm, const ObjectScope* scope = nullptr);

// threads_wf: ownership links and the state/location exclusivity — every
// thread is in exactly the place its state says (current / run queue /
// endpoint wait queue).
InvResult ThreadsWf(const ProcessManager& pm, const ObjectScope* scope = nullptr);

// endpoints_wf: reference counts equal descriptor references; wait queues
// hold matching blocked threads. A scoped check omits the reference tally,
// which Kernel::LocalWf keeps as deltas.
InvResult EndpointsWf(const ProcessManager& pm, const ObjectScope* scope = nullptr);

// scheduler_wf: the run queue holds exactly the runnable threads, no
// duplicates; current is running.
InvResult SchedulerWf(const ProcessManager& pm);

// quota_wf: per-container page accounting matches the allocator's owner
// attribution, usage respects quotas, and the total reservation is
// conserved across the container tree. One pass of QuotaTally.
InvResult QuotaWf(const ProcessManager& pm, const PageAllocator& alloc);

// quota_wf split at the allocator: Count() each of the allocator's in-use
// pages (ForEachInUsePage), then Verdict(). Kernel::TotalWf feeds it from the
// same pass as the memory-safety obligations.
class QuotaTally {
 public:
  void Count(const PageAllocator& alloc, PagePtr page);
  InvResult Verdict(const ProcessManager& pm) const;

 private:
  std::uint64_t ChargedTo(CtnrPtr owner) const;

  // 4K-frame counts per owner. A spec map, so that under the checker's
  // ArenaScope the tally lives in its arena.
  SpecMap<CtnrPtr, std::uint64_t> charged_;
};

// Conjunction of all of the above (without quota, which needs the
// allocator). The scheduler check reads only the run queue, so it is never
// scoped.
InvResult ProcessManagerWf(const ProcessManager& pm, const ObjectScope* scope = nullptr);

}  // namespace atmo

#endif  // ATMO_SRC_PROC_INVARIANTS_H_
