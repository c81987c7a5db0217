// Seeded violation for the hot-path-alloc rule reached through a member of
// a class template: the hot root calls a method on a member whose type is
// an instance of the template (`cntr_perms_.CloneForVerification()`), and
// the template's member function, declared with a requires-clause,
// allocates. The finding must name PermissionMap::CloneForVerification.

#include "src/proc/process_manager.h"

#include "src/vstd/thread_annotations.h"

namespace atmo {

// averif-lint: allow(trace-stage-coverage) — fixture isolates hot-path-alloc
ProcessManager ProcessManager::CloneForVerification() const ATMO_HOT_PATH(hot-path-alloc) {
  ProcessManager out;
  out.cntr_perms_ = cntr_perms_.CloneForVerification();
  return out;
}

}  // namespace atmo
