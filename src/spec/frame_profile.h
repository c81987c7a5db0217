// Frame-condition table: which components of Ψ each syscall may touch.
//
// The per-syscall specifications (syscall_specs.cc) state exact frame
// conditions, but they are spread across ~1200 lines of predicate code — a
// reviewer (or a static checker) cannot see at a glance what kMmap is
// allowed to modify. This table is the coarse, declarative summary: one
// FrameProfile per SysOp naming the abstract-state components the op may
// change on ANY outcome (success, blocked, or failure). It is enforced two
// ways:
//
//   * at runtime — RefinementChecker::Step evaluates
//     FrameProfileViolation(Ψ, Ψ', profile) after every Exec and fails
//     verification if a component outside the profile changed. Unchanged
//     components share their root node in incremental mode, so the check
//     is O(1) per untouched component;
//   * statically — tools/averif_lint's spec-coverage rule requires every
//     SysOp enumerator to appear in the FrameProfileFor switch below (along
//     with the spec dispatcher, the kernel dispatch and SysOpName), so a
//     new syscall cannot ship without declaring its frame.
//
// Keep profiles tight: a component is listed only if some reachable path of
// the op mutates it. Widening a profile to silence a runtime violation
// must be justified against the concrete kernel path that touches the
// component (see DESIGN.md §11).

#ifndef ATMO_SRC_SPEC_FRAME_PROFILE_H_
#define ATMO_SRC_SPEC_FRAME_PROFILE_H_

#include <string>

#include "src/core/syscall.h"
#include "src/spec/abstract_state.h"

namespace atmo {

// One bit per component of AbstractKernel. `containers` covers
// root_container as well; `free_sets` covers the three per-size-class free
// sets; `scheduler` covers run_queue and current.
struct FrameProfile {
  bool threads = false;
  bool containers = false;
  bool procs = false;
  bool endpoints = false;
  bool address_spaces = false;
  bool pages = false;
  bool free_sets = false;
  bool iommu = false;
  bool rings = false;
  bool scheduler = false;
};

// The table. Derivation notes per op:
//   * object creation charges quota (containers) and allocates object/table
//     pages (pages + free_sets);
//   * rendezvous IPC can move threads between queues (threads, endpoints,
//     scheduler) and a delivered payload can map a granted page
//     (address_spaces, pages, free_sets, receiver quota) or delegate an
//     IOMMU domain (iommu, both containers' charge);
//   * kills harvest resources upward: everything the subtree owned can be
//     re-attributed or freed.
constexpr FrameProfile FrameProfileFor(SysOp op) {
  switch (op) {
    case SysOp::kYield:
      return {.threads = true, .scheduler = true};
    case SysOp::kMmap:
      return {.containers = true, .address_spaces = true, .pages = true, .free_sets = true};
    case SysOp::kMunmap:
      return {.containers = true, .address_spaces = true, .pages = true, .free_sets = true};
    case SysOp::kNewContainer:
      return {.containers = true, .pages = true, .free_sets = true};
    case SysOp::kNewProcess:
      return {.containers = true, .procs = true, .address_spaces = true, .pages = true,
              .free_sets = true};
    case SysOp::kNewThread:
      return {.threads = true, .containers = true, .procs = true, .pages = true,
              .free_sets = true, .scheduler = true};
    case SysOp::kNewEndpoint:
      return {.threads = true, .containers = true, .endpoints = true, .pages = true,
              .free_sets = true};
    case SysOp::kUnbindEndpoint:
      return {.threads = true, .containers = true, .endpoints = true, .pages = true,
              .free_sets = true};
    case SysOp::kSend:
    case SysOp::kRecv:
    case SysOp::kCall:
    case SysOp::kReply:
      // Everything a delivered payload can reach, except process structure.
      return {.threads = true, .containers = true, .endpoints = true,
              .address_spaces = true, .pages = true, .free_sets = true, .iommu = true,
              .scheduler = true};
    case SysOp::kExit:
      return {.threads = true, .containers = true, .procs = true, .endpoints = true,
              .pages = true, .free_sets = true, .scheduler = true};
    case SysOp::kKillProcess:
      return {.threads = true, .containers = true, .procs = true, .endpoints = true,
              .address_spaces = true, .pages = true, .free_sets = true, .scheduler = true};
    case SysOp::kKillContainer:
      return {.threads = true, .containers = true, .procs = true, .endpoints = true,
              .address_spaces = true, .pages = true, .free_sets = true, .iommu = true,
              .scheduler = true};
    case SysOp::kIommuCreateDomain:
      return {.containers = true, .pages = true, .free_sets = true, .iommu = true};
    case SysOp::kIommuAttachDevice:
      return {.iommu = true};
    case SysOp::kIommuDetachDevice:
      return {.iommu = true};
    case SysOp::kIommuMapDma:
      return {.containers = true, .pages = true, .free_sets = true, .iommu = true};
    case SysOp::kIommuUnmapDma:
      return {.containers = true, .pages = true, .free_sets = true, .iommu = true};
    case SysOp::kRingSetup:
      return {.rings = true};
    case SysOp::kRingSubmit:
      return {.rings = true};
    case SysOp::kRingEnter:
      // One checked transition covering a whole drained batch: the union of
      // every submittable op's profile (everything but the scheduler-only
      // bits kNewThread already brings in) plus the ring itself. This width
      // is the amortization tradeoff — per-entry tightness is recovered by
      // the differential oracle (tests/ring_batch_differential_test.cc).
      return {.threads = true, .containers = true, .procs = true, .endpoints = true,
              .address_spaces = true, .pages = true, .free_sets = true, .iommu = true,
              .rings = true, .scheduler = true};
    case SysOp::kGrantReturn:
      // Borrower unmap + lender rights restore: two address spaces and the
      // page's borrow relabeling. The lender still maps the frame, so the
      // return can never release it — no container charge or free-set edge.
      return {.address_spaces = true, .pages = true};
    case SysOp::kObsQuery:
      // The tightest profile in the table: the snapshot lands in page byte
      // contents, which Ψ does not model, so at abstract level the syscall
      // touches nothing at all. Any component drift is out-of-frame.
      return {};
  }
  // Unreachable for in-range enumerators; a hostile cast lands on the
  // widest profile so the runtime check never under-approximates.
  return {.threads = true, .containers = true, .procs = true, .endpoints = true,
          .address_spaces = true, .pages = true, .free_sets = true, .iommu = true,
          .rings = true, .scheduler = true};
}

// Checks that every component NOT in `profile` is identical between `pre`
// and `post`. Returns the empty string on success, else the name of the
// first out-of-frame component that changed. Component equality skips
// every subtree the two snapshots share (src/vstd/persistent_tree.h): a
// passing check on an untouched component is one pointer compare, and on a
// touched one costs O(|difference| · log n).
inline std::string FrameProfileViolation(const AbstractKernel& pre, const AbstractKernel& post,
                                         const FrameProfile& profile) {
  if (!profile.threads && !(pre.threads == post.threads)) {
    return "threads";
  }
  if (!profile.containers &&
      (pre.root_container != post.root_container || !(pre.containers == post.containers))) {
    return "containers";
  }
  if (!profile.procs && !(pre.procs == post.procs)) {
    return "procs";
  }
  if (!profile.endpoints && !(pre.endpoints == post.endpoints)) {
    return "endpoints";
  }
  if (!profile.address_spaces && !(pre.address_spaces == post.address_spaces)) {
    return "address_spaces";
  }
  if (!profile.pages && !(pre.pages == post.pages)) {
    return "pages";
  }
  if (!profile.free_sets &&
      !(pre.free_pages_4k == post.free_pages_4k && pre.free_pages_2m == post.free_pages_2m &&
        pre.free_pages_1g == post.free_pages_1g)) {
    return "free_sets";
  }
  if (!profile.iommu && !(pre.iommu_domains == post.iommu_domains)) {
    return "iommu";
  }
  if (!profile.rings && !(pre.rings == post.rings)) {
    return "rings";
  }
  if (!profile.scheduler &&
      !(pre.run_queue == post.run_queue && pre.current == post.current)) {
    return "scheduler";
  }
  return std::string();
}

}  // namespace atmo

#endif  // ATMO_SRC_SPEC_FRAME_PROFILE_H_
