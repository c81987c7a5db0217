// SpecSet<T> — executable analog of Verus `Set<T>`.
//
// The same persistent treap as SpecMap (src/vstd/persistent_tree.h): copies
// are O(1), a write path-copies O(log n) nodes, and equality / subset walk
// two sets together, skipping every subtree they share. The empty set has
// no nodes. Nodes are arena-backed under an ArenaScope, heap-backed
// otherwise — same allocation discipline as SpecMap (src/vstd/arena.h).

#ifndef ATMO_SRC_VSTD_SPEC_SET_H_
#define ATMO_SRC_VSTD_SPEC_SET_H_

#include <initializer_list>
#include <utility>

#include "src/vstd/persistent_tree.h"

namespace atmo {

template <typename T>
class SpecSet {
  using Tree = PersistentTree<T>;

 public:
  SpecSet() = default;
  SpecSet(std::initializer_list<T> init) {
    for (const T& t : init) {
      tree_.Put(t);
    }
  }

  bool contains(const T& t) const { return tree_.Find(t) != nullptr; }
  std::size_t size() const { return tree_.size(); }
  bool empty() const { return tree_.empty(); }

  SpecSet insert(const T& t) const {
    SpecSet out = *this;
    out.add(t);
    return out;
  }

  SpecSet remove(const T& t) const {
    SpecSet out = *this;
    out.erase(t);
    return out;
  }

  // In-place variants. Both are no-ops (keeping the nodes shared) when the
  // element is already present / absent.
  void add(const T& t) { tree_.Put(t); }
  void erase(const T& t) { tree_.Erase(t); }

  // The set operations start from the larger operand (an O(1) copy) when
  // that is cheaper than rebuilding, so their cost follows the smaller one.
  SpecSet Union(const SpecSet& other) const {
    if (SharesRepWith(other)) {
      return *this;
    }
    const SpecSet& small = size() <= other.size() ? *this : other;
    SpecSet out = size() <= other.size() ? other : *this;
    for (const T& t : small) {
      out.add(t);
    }
    return out;
  }

  SpecSet Intersect(const SpecSet& other) const {
    if (SharesRepWith(other)) {
      return *this;
    }
    const SpecSet& small = size() <= other.size() ? *this : other;
    const SpecSet& large = size() <= other.size() ? other : *this;
    SpecSet out;
    for (const T& t : small) {
      if (large.contains(t)) {
        out.add(t);
      }
    }
    return out;
  }

  SpecSet Difference(const SpecSet& other) const {
    if (SharesRepWith(other)) {
      return SpecSet{};
    }
    if (other.size() < size()) {
      SpecSet out = *this;
      for (const T& t : other) {
        out.erase(t);
      }
      return out;
    }
    SpecSet out;
    for (const T& t : *this) {
      if (!other.contains(t)) {
        out.add(t);
      }
    }
    return out;
  }

  bool IsSubsetOf(const SpecSet& other) const {
    return size() <= other.size() &&
           Tree::ForEachDifference(tree_, other.tree_, [](const T* mine, const T*) {
             return mine == nullptr;  // only `other` may hold extra elements
           });
  }

  // Pairwise disjointness: no element in common.
  bool IsDisjointFrom(const SpecSet& other) const {
    if (empty() || other.empty()) {
      return true;
    }
    if (SharesRepWith(other)) {
      return false;  // shared non-empty set: every element is common
    }
    // Iterate the smaller side.
    const SpecSet& small = size() <= other.size() ? *this : other;
    const SpecSet& large = size() <= other.size() ? other : *this;
    for (const T& t : small) {
      if (large.contains(t)) {
        return false;
      }
    }
    return true;
  }

  template <typename Pred>
  bool ForAll(Pred p) const {
    for (const T& t : tree_) {
      if (!p(t)) {
        return false;
      }
    }
    return true;
  }

  template <typename Pred>
  bool Exists(Pred p) const {
    for (const T& t : tree_) {
      if (p(t)) {
        return true;
      }
    }
    return false;
  }

  // True when both sets share one root: equal by construction, O(1).
  bool SharesRepWith(const SpecSet& other) const { return tree_.SharesRootWith(other.tree_); }

  friend bool operator==(const SpecSet& a, const SpecSet& b) { return a.tree_ == b.tree_; }

  // An ascending stream of elements (`produce(emit)` calls emit(t) per
  // element in strictly increasing order; src/vstd/persistent_tree.h) read
  // as a set: FromSorted builds it in O(n), EqualsSorted compares this set
  // with it in O(n) without allocating.
  template <typename Produce>
  static SpecSet FromSorted(Produce produce) {
    SpecSet out;
    out.tree_ = Tree::FromSorted(std::move(produce));
    return out;
  }
  template <typename Produce>
  bool EqualsSorted(Produce produce) const {
    return tree_.EqualsSorted(std::move(produce));
  }

  auto begin() const { return tree_.begin(); }
  auto end() const { return tree_.end(); }

 private:
  Tree tree_;
};

}  // namespace atmo

#endif  // ATMO_SRC_VSTD_SPEC_SET_H_
