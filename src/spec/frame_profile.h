// Frame-condition table: which components of Ψ each syscall may touch.
//
// The per-syscall specifications (syscall_specs.cc) state exact frame
// conditions, but they are spread across ~1200 lines of predicate code — a
// reader cannot see at a glance what kMmap is allowed to modify. This
// table is the coarse, declarative summary: one FrameProfile per SysOp
// naming the abstract-state components the op may change on ANY outcome
// (success, blocked, or failure). The profiles are the frame column of the
// syscall table (ATMO_SYSOPS, src/core/syscall.h), so a syscall cannot exist
// without one. RefinementChecker::Step evaluates
// FrameProfileViolation(Ψ, Ψ', profile) after every Exec and fails
// verification if a component outside the profile changed. Unchanged
// components share their root node in incremental mode, so the check is
// O(1) per untouched component.
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

  friend bool operator==(const FrameProfile&, const FrameProfile&) = default;
};

// Derivation notes shared by many rows of the table:
//   * object creation charges quota (containers) and allocates object/table
//     pages (pages + free_sets);
//   * rendezvous IPC can move threads between queues (threads, endpoints,
//     scheduler) and a delivered payload can map a granted page
//     (address_spaces, pages, free_sets, receiver quota) or delegate an
//     IOMMU domain (iommu, both containers' charge);
//   * kills harvest resources upward: everything the subtree owned can be
//     re-attributed or freed.
#define ATMO_UNPAREN(...) __VA_ARGS__
inline constexpr FrameProfile kFrameProfiles[] = {
#define ATMO_FRAME_PROFILE_ROW(op, name, ring_submittable, returns_object, frame) \
  FrameProfile{ATMO_UNPAREN frame},
    ATMO_SYSOPS(ATMO_FRAME_PROFILE_ROW)
#undef ATMO_FRAME_PROFILE_ROW
};
#undef ATMO_UNPAREN

// A hostile cast lands on the widest profile, so the runtime check never
// under-approximates.
inline constexpr FrameProfile kWidestFrameProfile = {
    .threads = true, .containers = true, .procs = true, .endpoints = true,
    .address_spaces = true, .pages = true, .free_sets = true, .iommu = true,
    .rings = true, .scheduler = true};

constexpr FrameProfile FrameProfileFor(SysOp op) {
  auto index = static_cast<std::size_t>(op);
  return index < kSysOpCount ? kFrameProfiles[index] : kWidestFrameProfile;
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
