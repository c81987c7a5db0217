// SpecMap<K, V> — executable analog of Verus `Map<K, V>`.
//
// Abstract kernel state ("ghost" state) is expressed with functional maps.
// SpecMap is value-semantic and ordered (deterministic iteration), supports
// the operations used by the paper's specifications (dom, contains, index,
// insert, remove, submap/union, extensional equality) and quantifier helpers
// used to transliterate `forall` specs.
//
// Representation: a persistent treap (src/vstd/persistent_tree.h). Copying
// a SpecMap is O(1); a write path-copies O(log n) nodes and shares the rest
// with every other copy. Because the tree's shape is a function of its key
// set, extensional equality and the frame-condition helpers (AgreeExcept*,
// IsSubmapOf) walk two maps together and skip every shared subtree: their
// cost is the size of the difference times log n, which makes the paper's
// strongest frame condition (`error ==> Ψ' == Ψ`) near-free for states
// produced by the incremental abstraction layer (Kernel::AbstractDelta).
//
// Allocation: nodes come from the thread's current SpecArena when one is
// installed (ArenaScope — the refinement checker's hot path), and from the
// global heap otherwise (src/vstd/arena.h lifetime rules).

#ifndef ATMO_SRC_VSTD_SPEC_MAP_H_
#define ATMO_SRC_VSTD_SPEC_MAP_H_

#include <initializer_list>
#include <utility>

#include "src/vstd/check.h"
#include "src/vstd/persistent_tree.h"

namespace atmo {

template <typename K, typename V>
class SpecMap {
  using Tree = PersistentTree<K, V>;

 public:
  using Entry = typename Tree::Entry;  // std::pair<const K, V>

  SpecMap() = default;
  SpecMap(std::initializer_list<Entry> init) {
    for (const Entry& e : init) {
      tree_.Put(e.first, e.second);
    }
  }

  bool contains(const K& k) const { return tree_.Find(k) != nullptr; }

  // Map index; the key must be in the domain (spec-level partiality).
  const V& at(const K& k) const {
    const Entry* e = tree_.Find(k);
    ATMO_CHECK(e != nullptr, "SpecMap::at on key outside dom()");
    return e->second;
  }

  // The value at k, or nullptr outside dom(): one search where contains()
  // followed by at() takes two.
  const V* find(const K& k) const {
    const Entry* e = tree_.Find(k);
    return e == nullptr ? nullptr : &e->second;
  }

  std::size_t size() const { return tree_.size(); }
  bool empty() const { return tree_.empty(); }

  // Functional update: returns a copy with k -> v (O(1) copy + one write).
  SpecMap insert(const K& k, const V& v) const {
    SpecMap out = *this;
    out.set(k, v);
    return out;
  }

  // Functional removal: returns a copy without k.
  SpecMap remove(const K& k) const {
    SpecMap out = *this;
    out.erase(k);
    return out;
  }

  // In-place variants (used when building abstract states incrementally).
  void set(const K& k, const V& v) { tree_.Put(k, v); }
  void erase(const K& k) { tree_.Erase(k); }  // absent key: no-op, stays shared

  // `forall |k| dom.contains(k) ==> p(k, self[k])`.
  template <typename Pred>
  bool ForAll(Pred p) const {
    for (const auto& [k, v] : tree_) {
      if (!p(k, v)) {
        return false;
      }
    }
    return true;
  }

  // `exists |k| dom.contains(k) && p(k, self[k])`.
  template <typename Pred>
  bool Exists(Pred p) const {
    for (const auto& [k, v] : tree_) {
      if (p(k, v)) {
        return true;
      }
    }
    return false;
  }

  // True when both maps share one root: equal by construction, O(1).
  bool SharesRepWith(const SpecMap& other) const { return tree_.SharesRootWith(other.tree_); }

  // Extensional equality (`=~=`).
  friend bool operator==(const SpecMap& a, const SpecMap& b) { return a.tree_ == b.tree_; }

  // An ascending stream of bindings (`produce(emit)` calls emit(k, v) per
  // key in strictly increasing order; src/vstd/persistent_tree.h) read as a
  // map: FromSorted builds it in O(n), EqualsSorted compares this map with
  // it in O(n) without allocating.
  template <typename Produce>
  static SpecMap FromSorted(Produce produce) {
    SpecMap out;
    out.tree_ = Tree::FromSorted(std::move(produce));
    return out;
  }
  template <typename Produce>
  bool EqualsSorted(Produce produce) const {
    return tree_.EqualsSorted(std::move(produce));
  }

  // True if every binding of this map is also a binding of `other`.
  bool IsSubmapOf(const SpecMap& other) const {
    return size() <= other.size() &&
           Tree::ForEachDifference(tree_, other.tree_, [](const Entry* mine, const Entry*) {
             return mine == nullptr;  // only `other` may hold extra keys
           });
  }

  // True if `a` and `b` agree at every key except possibly where
  // `may_differ(key)` holds: `forall |k| !may_differ(k) ==> (a.dom.contains(k)
  // == b.dom.contains(k) && a[k] == b[k])`.
  template <typename Pred>
  static bool AgreeExcept(const SpecMap& a, const SpecMap& b, Pred may_differ) {
    return Tree::ForEachDifference(a.tree_, b.tree_, [&](const Entry* x, const Entry* y) {
      return may_differ((x != nullptr ? x : y)->first);
    });
  }

  // Calls visit(in_a, in_b) for every key at which `a` and `b` differ (each
  // a `const Entry*`, null where that map lacks the key), in no
  // particular order; stops at the first false. Shared subtrees are skipped,
  // so the cost is O(|difference| · log n).
  template <typename Visit>
  static bool ForEachDifference(const SpecMap& a, const SpecMap& b, Visit visit) {
    return Tree::ForEachDifference(a.tree_, b.tree_, visit);
  }

  // True if `a` and `b` agree everywhere except possibly at `k`.
  static bool AgreeExceptAt(const SpecMap& a, const SpecMap& b, const K& k) {
    return AgreeExcept(a, b, [&](const K& key) { return key == k; });
  }

  // True if `a` and `b` agree everywhere except possibly at `k1` and `k2`
  // (two-key frame condition: e.g. an address space touched at both the
  // grant source and destination by a self-directed move/borrow grant).
  static bool AgreeExceptAt2(const SpecMap& a, const SpecMap& b, const K& k1, const K& k2) {
    return AgreeExcept(a, b, [&](const K& key) { return key == k1 || key == k2; });
  }

  auto begin() const { return tree_.begin(); }
  auto end() const { return tree_.end(); }

 private:
  Tree tree_;
};

}  // namespace atmo

#endif  // ATMO_SRC_VSTD_SPEC_MAP_H_
