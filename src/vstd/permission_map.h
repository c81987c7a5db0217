// PermissionMap<T> — the "flat" permission storage of the paper (Listing 2).
//
// Each subsystem's topmost level owns one PermissionMap per kernel object
// kind (containers, processes, threads, endpoints, page-table nodes, ...).
// The map is the executable analog of Verus
// `Tracked<Map<Ptr, PointsTo<T>>>`: permissions to *all* objects of a kind
// live here, giving the subsystem a global view of the data structure. This
// is the key architectural choice of the paper — structural invariants can
// be stated non-recursively against the map instead of recursively along the
// pointer structure.

#ifndef ATMO_SRC_VSTD_PERMISSION_MAP_H_
#define ATMO_SRC_VSTD_PERMISSION_MAP_H_

#include <map>
#include <utility>
#include <vector>

#include "src/vstd/check.h"
#include "src/vstd/dirty_set.h"
#include "src/vstd/points_to.h"
#include "src/vstd/spec_set.h"
#include "src/vstd/types.h"

namespace atmo {

template <typename T>
class PermissionMap {
 public:
  PermissionMap() = default;
  PermissionMap(PermissionMap&&) noexcept = default;
  PermissionMap& operator=(PermissionMap&&) noexcept = default;
  PermissionMap(const PermissionMap&) = delete;
  PermissionMap& operator=(const PermissionMap&) = delete;

  bool contains(Ptr ptr) const { return rep_.find(ptr) != rep_.end(); }
  std::size_t size() const { return rep_.size(); }
  bool empty() const { return rep_.empty(); }

  // tracked_insert: the map takes ownership of the permission. The key must
  // equal the permission's address and must not already be present.
  void TrackedInsert(PointsTo<T> perm) {
    Ptr ptr = perm.addr();
    ATMO_CHECK(!contains(ptr), "PermissionMap::TrackedInsert duplicate permission");
    dirty_.Mark(ptr);
    // averif-lint: allow(hot-path-alloc) — tracked insert records object creation, which only spawn/map control-plane ops perform
    rep_.emplace(ptr, std::move(perm));
  }

  // tracked_remove: moves the permission out of the map.
  PointsTo<T> TrackedRemove(Ptr ptr) {
    auto it = rep_.find(ptr);
    ATMO_CHECK(it != rep_.end(), "PermissionMap::TrackedRemove of absent permission");
    dirty_.Mark(ptr);
    PointsTo<T> out = std::move(it->second);
    rep_.erase(it);
    return out;
  }

  // tracked_borrow: immutable access to a stored permission.
  const PointsTo<T>& TrackedBorrow(Ptr ptr) const {
    auto it = rep_.find(ptr);
    ATMO_CHECK(it != rep_.end(), "PermissionMap::TrackedBorrow of absent permission");
    return it->second;
  }

  // tracked_borrow_mut: exclusive access to a stored permission. The object
  // is conservatively recorded as dirty — the borrower may mutate anything.
  PointsTo<T>& TrackedBorrowMut(Ptr ptr) {
    auto it = rep_.find(ptr);
    ATMO_CHECK(it != rep_.end(), "PermissionMap::TrackedBorrowMut of absent permission");
    dirty_.Mark(ptr);
    return it->second;
  }

  // Convenience: borrow the object value directly.
  const T& Get(Ptr ptr) const { return TrackedBorrow(ptr).value(); }
  T& GetMut(Ptr ptr) { return TrackedBorrowMut(ptr).value_mut(); }

  // Ghost view of the domain (the set of all objects of this kind).
  SpecSet<Ptr> Dom() const {
    SpecSet<Ptr> out;
    for (const auto& [ptr, perm] : rep_) {
      out.add(ptr);
    }
    return out;
  }

  // `forall |ptr| dom.contains(ptr) ==> p(ptr, value)` over all objects.
  template <typename Pred>
  bool ForAll(Pred p) const {
    for (const auto& [ptr, perm] : rep_) {
      if (!p(ptr, perm.value())) {
        return false;
      }
    }
    return true;
  }

  // Dedup-drains the mutation log into `out` (incremental abstraction).
  void DrainDirtyInto(std::vector<Ptr>* out, bool* overflow) { dirty_.DrainInto(out, overflow); }

  // Deep copy for the verification harness only (see PointsTo). The clone
  // starts with an empty mutation log (its first abstraction is full).
  PermissionMap CloneForVerification() const
    requires std::copy_constructible<T>
  {
    PermissionMap out;
    for (const auto& [ptr, perm] : rep_) {
      out.rep_.emplace_hint(out.rep_.end(), ptr, perm.CloneForVerification());
    }
    return out;
  }

  auto begin() const { return rep_.begin(); }
  auto end() const { return rep_.end(); }

 private:
  std::map<Ptr, PointsTo<T>> rep_;
  DirtyLog dirty_;
};

}  // namespace atmo

#endif  // ATMO_SRC_VSTD_PERMISSION_MAP_H_
