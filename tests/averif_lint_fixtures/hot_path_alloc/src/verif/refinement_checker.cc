// Seeded violations for the hot-path-alloc rule: a Step-shaped checker whose
// ATMO_HOT_PATH(hot-path-alloc) root reaches injected heap allocations
// through helpers (the static twin of an AllocProbe regression): a
// push_back, and a std::make_unique in its template form. The two
// arena-covered allocations — one under a local ArenaScope in the callee,
// one whose *call site* sits inside an ArenaScope block in the root — must
// NOT fire: they land in the spec arena, not the heap.

#include <memory>
#include <vector>

#include "src/vstd/thread_annotations.h"

namespace atmo {

class SpecArena {};

class ArenaScope {
 public:
  explicit ArenaScope(SpecArena* arena) { (void)arena; }
};

class RefinementChecker {
 public:
  // averif-lint: allow(trace-stage-coverage) — fixture isolates hot-path-alloc
  int Step(int t) ATMO_HOT_PATH(hot-path-alloc) {
    int pre = Capture();
    {
      ArenaScope scope(&arena_);
      AppendSpec(t);  // covered at the call site: allocations land in the arena
    }
    BuildScratch(t);  // the injected allocation: must fire
    Snapshot();       // the injected make_unique<T>(...): must fire
    return pre;
  }

 private:
  int Capture() {
    ArenaScope arena_scope(&arena_);
    psi_.push_back(1);  // covered by the callee's own ArenaScope: must not fire
    return static_cast<int>(psi_.size());
  }

  void AppendSpec(int t) { psi_.push_back(t); }

  void BuildScratch(int t) {
    scratch_.push_back(t);  // seeded: uncovered heap allocation on the hot path
  }

  void Snapshot() {
    snapshot_ = std::make_unique<std::vector<int>>(psi_);  // seeded: template-form allocation
  }

  SpecArena arena_;
  std::vector<int> psi_;
  std::vector<int> scratch_;
  std::unique_ptr<std::vector<int>> snapshot_;
};

}  // namespace atmo
