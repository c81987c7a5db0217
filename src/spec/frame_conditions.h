// Frame-condition helpers for syscall specifications.
//
// The paper's specs (Listing 1) spend most of their lines stating what does
// NOT change ("the state of each thread is unchanged", "virtual addresses
// outside of va_range are not changed", ...). Whole components an op never
// touches are the frame profile's (src/spec/frame_profile.h), which
// SyscallSpec checks for every op. These helpers state the finer frames a
// per-op spec adds inside its profile: all entries of a component but a
// touched few, or a component a particular path leaves alone.

#ifndef ATMO_SRC_SPEC_FRAME_CONDITIONS_H_
#define ATMO_SRC_SPEC_FRAME_CONDITIONS_H_

#include "src/spec/abstract_state.h"

namespace atmo {

// dom(post.m) == dom(pre.m) ∪ added \ removed, and values agree outside
// `touched` (touched keys may change or appear/disappear). Walks only the
// parts of the two maps that are not shared (SpecMap::AgreeExcept).
template <typename K, typename V>
bool MapUnchangedExcept(const SpecMap<K, V>& pre, const SpecMap<K, V>& post,
                        const SpecSet<K>& touched) {
  return SpecMap<K, V>::AgreeExcept(pre, post, [&](const K& k) { return touched.contains(k); });
}

inline bool ThreadsUnchangedExcept(const AbstractKernel& pre, const AbstractKernel& post,
                                   const SpecSet<ThrdPtr>& touched) {
  return MapUnchangedExcept(pre.threads, post.threads, touched);
}

inline bool ContainersUnchangedExcept(const AbstractKernel& pre, const AbstractKernel& post,
                                      const SpecSet<CtnrPtr>& touched) {
  return MapUnchangedExcept(pre.containers, post.containers, touched);
}

inline bool ProcsUnchangedExcept(const AbstractKernel& pre, const AbstractKernel& post,
                                 const SpecSet<ProcPtr>& touched) {
  return MapUnchangedExcept(pre.procs, post.procs, touched);
}

inline bool EndpointsUnchangedExcept(const AbstractKernel& pre, const AbstractKernel& post,
                                     const SpecSet<EdptPtr>& touched) {
  return MapUnchangedExcept(pre.endpoints, post.endpoints, touched);
}

inline bool AddressSpacesUnchangedExcept(const AbstractKernel& pre, const AbstractKernel& post,
                                         const SpecSet<ProcPtr>& touched) {
  return MapUnchangedExcept(pre.address_spaces, post.address_spaces, touched);
}

inline bool PagesUnchangedExcept(const AbstractKernel& pre, const AbstractKernel& post,
                                 const SpecSet<PagePtr>& touched) {
  return MapUnchangedExcept(pre.pages, post.pages, touched);
}

inline bool IommuUnchanged(const AbstractKernel& pre, const AbstractKernel& post) {
  return pre.iommu_domains == post.iommu_domains;
}

inline bool RingsUnchangedExcept(const AbstractKernel& pre, const AbstractKernel& post,
                                 const SpecSet<std::uint64_t>& touched) {
  return MapUnchangedExcept(pre.rings, post.rings, touched);
}

// Threads outside `touched` unchanged; threads inside changed at most in
// their scheduler state field.
inline bool ThreadsTouchedOnlyInState(const AbstractKernel& pre, const AbstractKernel& post,
                                      const SpecSet<ThrdPtr>& touched) {
  if (!ThreadsUnchangedExcept(pre, post, touched)) {
    return false;
  }
  return touched.ForAll([&](ThrdPtr t) {
    if (!pre.threads.contains(t) || !post.threads.contains(t)) {
      return false;
    }
    AbsThread a = pre.threads.at(t);
    AbsThread b = post.threads.at(t);
    a.state = b.state;  // state may differ; everything else must match
    return a == b;
  });
}

// Everything except the scheduler is identical. Only DispatchSpec uses it:
// dispatch is not a syscall, so no frame profile covers it.
inline bool OnlySchedulerChanged(const AbstractKernel& pre, const AbstractKernel& post,
                                 const SpecSet<ThrdPtr>& state_touched) {
  return ContainersUnchangedExcept(pre, post, {}) && ProcsUnchangedExcept(pre, post, {}) &&
         EndpointsUnchangedExcept(pre, post, {}) &&
         AddressSpacesUnchangedExcept(pre, post, {}) && PagesUnchangedExcept(pre, post, {}) &&
         IommuUnchanged(pre, post) && RingsUnchangedExcept(pre, post, {}) &&
         pre.free_pages_4k == post.free_pages_4k &&
         pre.free_pages_2m == post.free_pages_2m && pre.free_pages_1g == post.free_pages_1g &&
         ThreadsTouchedOnlyInState(pre, post, state_touched);
}

}  // namespace atmo

#endif  // ATMO_SRC_SPEC_FRAME_CONDITIONS_H_
