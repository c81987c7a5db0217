// PersistentTree<K, V> — the one representation behind SpecMap and SpecSet.
//
// Verus `Map`/`Set` are mathematical values: a copy costs nothing and an
// update yields a new value while the old one stays intact. This is the
// executable reading of that: a persistent treap with refcounted nodes.
//
//  * Copying a tree is O(1): the copy takes a reference on the root.
//  * A write that reaches nodes other trees also hold path-copies them:
//    O(log n) new nodes, everything off the path stays shared. A write
//    along a path this tree owns alone updates the nodes in place, so a
//    tree built by repeated Puts costs what an ordinary balanced tree costs.
//  * The shape is canonical. A node's priority is a fixed bijective hash of
//    its key, and a treap is the unique binary search tree that is also a
//    max-heap on priority, so equal key sets give identical shapes whatever
//    the order of inserts and removes. Two trees are therefore compared by
//    walking them together and skipping every pointer-equal subtree:
//    ForEachDifference costs O(|difference| · log n), not O(n).
//  * A tree is also read against an ascending stream of entries, the form
//    in which concrete state hands over a large abstract component: it can
//    be built from one in O(n) (FromSorted, node-for-node the tree n Puts
//    give) or compared with one in O(n) without allocating (EqualsSorted).
//    A stream is a callable `produce(emit)` that calls emit(k) for a set,
//    emit(k, v) for a map, once per entry in strictly increasing key order;
//    it stops as soon as emit returns false and returns whether it ran to
//    the end.
//
// Nodes come from the thread's current SpecArena (ArenaScope) and from the
// heap otherwise. A write into a tree whose root this tree owns alone places
// its new nodes beside that root instead, wherever it lives — the arena it
// was built in, or the heap (src/vstd/arena.h). Reference counts are
// atomic: trees that share nodes may be copied and dropped on different
// threads, as with shared_ptr.

#ifndef ATMO_SRC_VSTD_PERSISTENT_TREE_H_
#define ATMO_SRC_VSTD_PERSISTENT_TREE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <new>
#include <type_traits>
#include <utility>

#include "src/vstd/arena.h"
#include "src/vstd/check.h"

namespace atmo {

// V = void makes a set: the entry is the key itself. Otherwise the entry is
// std::pair<const K, V>, as in std::map.
template <typename K, typename V = void>
class PersistentTree {
  static_assert(std::is_integral_v<K> && sizeof(K) <= sizeof(std::uint64_t),
                "treap priorities are a bijective hash of integer keys of at most 64 bits");

 public:
  using Entry = std::conditional_t<std::is_void_v<V>, K, std::pair<const K, V>>;

 private:
  struct Node {
    template <typename... Args>
    Node(bool from_arena, Node* l, Node* r, Args&&... args)
        : refs(1), arena_block(from_arena), left(l), right(r),
          entry(std::forward<Args>(args)...) {}

    std::atomic<std::uint32_t> refs;
    bool arena_block;  // allocated by SpecArena (block header present)
    Node* left;
    Node* right;
    Entry entry;
  };

 public:
  class Iterator;

  PersistentTree() = default;
  PersistentTree(const PersistentTree& other) : root_(Retain(other.root_)), size_(other.size_) {}
  PersistentTree(PersistentTree&& other) noexcept
      : root_(std::exchange(other.root_, nullptr)), size_(std::exchange(other.size_, 0)) {}
  PersistentTree& operator=(const PersistentTree& other) {
    Node* root = Retain(other.root_);
    Release(root_);
    root_ = root;
    size_ = other.size_;
    return *this;
  }
  PersistentTree& operator=(PersistentTree&& other) noexcept {
    if (this != &other) {
      Release(root_);
      root_ = std::exchange(other.root_, nullptr);
      size_ = std::exchange(other.size_, 0);
    }
    return *this;
  }
  ~PersistentTree() { Release(root_); }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  bool SharesRootWith(const PersistentTree& other) const { return root_ == other.root_; }

  const Entry* Find(const K& k) const {
    for (const Node* n = root_; n != nullptr;) {
      const K& nk = KeyOf(n->entry);
      if (k < nk) {
        n = n->left;
      } else if (nk < k) {
        n = n->right;
      } else {
        return &n->entry;
      }
    }
    return nullptr;
  }

  // Maps: binds k to v, overwriting an existing binding. Sets: adds k, and
  // leaves the tree untouched (still shared) when k is already present.
  template <typename... Value>
  void Put(const K& k, const Value&... v) {
    static_assert(sizeof...(Value) == (std::is_void_v<V> ? 0 : 1));
    if constexpr (std::is_void_v<V>) {
      if (Find(k) != nullptr) {
        return;
      }
    }
    NodePlacement place = PlaceFor(root_);
    bool added = false;
    root_ = InsertAt(root_, /*owned=*/true, Priority(k), place.pool(), &added, k, v...);
    size_ += added ? 1 : 0;
  }

  // Removes k; a no-op (the tree stays shared) when k is absent.
  void Erase(const K& k) {
    if (Find(k) == nullptr) {
      return;
    }
    NodePlacement place = PlaceFor(root_);
    root_ = EraseAt(root_, k, place.pool());
    --size_;
  }

  // Calls visit(in_a, in_b) for every key at which `a` and `b` differ, in
  // no particular order: for a key held by one tree only, the other side is
  // null; for a key held by both with unequal entries, both are set. Stops
  // and returns false as soon as `visit` returns false. Pointer-equal
  // subtrees are skipped without being read.
  template <typename Visit>
  static bool ForEachDifference(const PersistentTree& a, const PersistentTree& b, Visit visit) {
    return DiffIn(a.root_, b.root_, nullptr, nullptr, visit);
  }

  friend bool operator==(const PersistentTree& a, const PersistentTree& b) {
    return a.size_ == b.size_ &&
           ForEachDifference(a, b, [](const Entry*, const Entry*) { return false; });
  }

  // The tree of the entries `produce` emits, built in O(n): each key's
  // priority is known in advance, so the treap is the Cartesian tree of the
  // sequence, built left to right on its right spine. The result is
  // node-for-node the tree n Puts give. The keys must be strictly
  // increasing (ATMO_CHECK).
  template <typename Produce>
  static PersistentTree FromSorted(Produce produce) {
    SpineBuilder spine;
    produce([&spine](const K& k, const auto&... v) {
      spine.Push(k, v...);
      return true;
    });
    return spine.Finish();
  }

  // True when `produce` emits exactly this tree's entries. Walks the tree
  // in key order alongside the stream and stops at the first difference:
  // O(n), allocation-free.
  template <typename Produce>
  bool EqualsSorted(Produce produce) const {
    Iterator it = begin();
    const Iterator last = end();
    bool equal = true;
    produce([&](const K& k, const auto&... v) {
      static_assert(sizeof...(v) == (std::is_void_v<V> ? 0 : 1));
      equal = equal && it != last && KeyOf(*it) == k;
      if constexpr (!std::is_void_v<V>) {
        equal = equal && ((it->second == v) && ...);
      }
      if (equal) {
        ++it;
      }
      return equal;
    });
    return equal && it == last;
  }

  static const K& KeyOf(const Entry& e) {
    if constexpr (std::is_void_v<V>) {
      return e;
    } else {
      return e.first;
    }
  }

  Iterator begin() const { return Iterator(root_); }
  Iterator end() const { return Iterator(); }

  // In-order iterator. It keeps the pending ancestors on a fixed ring; on a
  // tree deeper than the ring the outermost ones are dropped and found again
  // from the root when needed, so iteration never allocates.
  class Iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = Entry;
    using difference_type = std::ptrdiff_t;
    using pointer = const Entry*;
    using reference = const Entry&;

    Iterator() = default;

    reference operator*() const { return Top()->entry; }
    pointer operator->() const { return &Top()->entry; }
    Iterator& operator++() {
      Advance();
      return *this;
    }
    Iterator operator++(int) {
      Iterator old = *this;
      Advance();
      return old;
    }
    friend bool operator==(const Iterator& a, const Iterator& b) { return a.Top() == b.Top(); }

   private:
    friend class PersistentTree;
    static constexpr unsigned kRing = 32;  // power of two

    explicit Iterator(const Node* root) : root_(root) { PushLeftSpine(root); }

    const Node* Top() const {
      return depth_ == 0 ? nullptr : ring_[(base_ + depth_ - 1) % kRing];
    }
    void Push(const Node* n) {
      if (depth_ == kRing) {
        base_ = (base_ + 1) % kRing;  // drop the outermost pending ancestor
        --depth_;
        clipped_ = true;
      }
      ring_[(base_ + depth_) % kRing] = n;
      ++depth_;
    }
    void PushLeftSpine(const Node* n) {
      for (; n != nullptr; n = n->left) {
        Push(n);
      }
    }
    void Advance() {
      const Node* cur = Top();
      --depth_;
      if (cur->right != nullptr) {
        PushLeftSpine(cur->right);
      } else if (depth_ == 0 && clipped_) {
        Reseek(KeyOf(cur->entry));
      }
    }
    // Rebuilds the pending ancestors of the successor of `k`.
    void Reseek(const K& k) {
      clipped_ = false;
      for (const Node* n = root_; n != nullptr;) {
        if (k < KeyOf(n->entry)) {
          Push(n);
          n = n->left;
        } else {
          n = n->right;
        }
      }
    }

    const Node* root_ = nullptr;
    unsigned base_ = 0;
    unsigned depth_ = 0;
    bool clipped_ = false;
    const Node* ring_[kRing] = {};
  };

 private:
  friend struct PersistentTreeTestPeer;  // reads the shape (tests/vstd_test.cc)

  // splitmix64's finalizer: a bijection on 64 bits, so distinct keys never
  // tie and the treap shape is a function of the key set alone.
  static std::uint64_t Priority(const K& k) {
    std::uint64_t z = static_cast<std::uint64_t>(k);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  static std::uint64_t PriorityOf(const Node* n) { return Priority(KeyOf(n->entry)); }

  static bool Unique(const Node* n) { return n->refs.load() == 1; }

  static Node* Retain(Node* n) {
    if (n != nullptr) {
      n->refs.fetch_add(1);
    }
    return n;
  }

  // Drops one reference to `n`, freeing every node that loses its last.
  static void Release(Node* n) {
    // A count of 1 is ours alone: nobody else can raise it, so skip the RMW.
    while (n != nullptr && (Unique(n) || n->refs.fetch_sub(1) == 1)) {
      Node* right = n->right;
      Release(n->left);
      Free(n);
      n = right;
    }
  }

  // Where a write's new nodes go (src/vstd/arena.h).
  static NodePlacement PlaceFor(const Node* root) {
    return NodePlacement(root, root != nullptr && Unique(root),
                         root != nullptr && root->arena_block);
  }

  template <typename... Args>
  static Node* NewNode(SpecArena::Pool* pool, Node* l, Node* r, Args&&... args) {
    void* mem = NodePlacement::Allocate(pool, sizeof(Node));
    return ::new (mem) Node(pool != nullptr, l, r, std::forward<Args>(args)...);
  }

  static void Free(Node* n) {
    bool arena_block = n->arena_block;
    n->~Node();
    NodePlacement::Free(n, arena_block);
  }

  // The write paths below pass each subtree down as a (node, owned) pair.
  // An owned reference carries one count that the callee consumes; a node
  // it alone counts may be updated in place. A borrowed reference is
  // reached through a node the write copies, so it is shared by
  // construction and is kept alive by whoever holds that ancestor; the
  // write copies it, and takes a count (Adopt) only on what it keeps as is.
  // Every function returns owned references.

  // Opens `t` for writing and returns a node only this write reaches. An
  // owned, unique `t` is returned itself with its children still owned.
  // Otherwise the result is a copy whose child fields borrow t's children:
  // `*owned` turns false, and the caller must Adopt the child it keeps. An
  // owned but shared `t` is parked in `*hold`, to be released once nothing
  // borrows from it any more; a path has at most one such node, since
  // everything below it is borrowed.
  static Node* Open(Node* t, bool* owned, Node** hold, SpecArena::Pool* pool) {
    if (*owned && Unique(t)) {
      return t;
    }
    if (*owned) {
      *hold = t;
      *owned = false;
    }
    return NewNode(pool, t->left, t->right, t->entry);
  }

  static Node* Adopt(Node* n, bool owned) { return owned ? n : Retain(n); }

  // FromSorted's state: the right spine of the tree built so far. A spine
  // node's right child is the spine node below it, so while on the spine
  // its right field points up instead; the spine is a stack threaded
  // through its own nodes, as deep as the tree needs. A build abandoned by
  // an exception releases what it built.
  class SpineBuilder {
   public:
    SpineBuilder() : place_(PlaceFor(nullptr)) {}
    ~SpineBuilder() { Release(Unthread()); }
    SpineBuilder(const SpineBuilder&) = delete;
    SpineBuilder& operator=(const SpineBuilder&) = delete;

    template <typename... Value>
    void Push(const K& k, const Value&... v) {
      static_assert(sizeof...(Value) == (std::is_void_v<V> ? 0 : 1));
      ATMO_CHECK(bottom_ == nullptr || KeyOf(bottom_->entry) < k,
                 "FromSorted: keys must be strictly increasing");
      Node* n = NewNode(place_.pool(), nullptr, nullptr, k, v...);
      // Spine nodes that k outranks become its left subtree.
      const std::uint64_t prio = Priority(k);
      Node* below = nullptr;
      while (bottom_ != nullptr && PriorityOf(bottom_) < prio) {
        Node* up = bottom_->right;
        bottom_->right = below;
        below = bottom_;
        bottom_ = up;
      }
      n->left = below;
      n->right = bottom_;
      bottom_ = n;
      ++size_;
    }

    PersistentTree Finish() {
      PersistentTree out;
      out.root_ = Unthread();
      out.size_ = size_;
      return out;
    }

   private:
    // Points every spine node's right field back down; returns the root.
    Node* Unthread() {
      Node* below = nullptr;
      while (bottom_ != nullptr) {
        Node* up = bottom_->right;
        bottom_->right = below;
        below = bottom_;
        bottom_ = up;
      }
      return below;
    }

    NodePlacement place_;
    Node* bottom_ = nullptr;  // the last key pushed
    std::size_t size_ = 0;
  };

  template <typename... Value>
  static Node* InsertAt(Node* t, bool owned, std::uint64_t prio, SpecArena::Pool* pool,
                        bool* added, const K& k, const Value&... v) {
    if (t == nullptr) {
      *added = true;
      return NewNode(pool, nullptr, nullptr, k, v...);
    }
    if (prio > PriorityOf(t)) {
      // k outranks t, so k is not below t: it takes t's place.
      Node* n = NewNode(pool, nullptr, nullptr, k, v...);
      Split(t, owned, k, &n->left, &n->right, pool);
      *added = true;
      return n;
    }
    Node* hold = nullptr;
    Node* m = Open(t, &owned, &hold, pool);
    const K& mk = KeyOf(m->entry);
    if (k < mk) {
      m->left = InsertAt(m->left, owned, prio, pool, added, k, v...);
      m->right = Adopt(m->right, owned);
    } else if (mk < k) {
      m->right = InsertAt(m->right, owned, prio, pool, added, k, v...);
      m->left = Adopt(m->left, owned);
    } else {
      if constexpr (!std::is_void_v<V>) {
        ((m->entry.second = v), ...);
      }
      m->left = Adopt(m->left, owned);
      m->right = Adopt(m->right, owned);
      *added = false;
    }
    Release(hold);
    return m;
  }

  // Splits `t` (which does not hold k) into the keys below and above k.
  static void Split(Node* t, bool owned, const K& k, Node** lo, Node** hi,
                    SpecArena::Pool* pool) {
    Node* hold = nullptr;
    while (t != nullptr) {
      Node* m = Open(t, &owned, &hold, pool);
      if (KeyOf(m->entry) < k) {
        m->left = Adopt(m->left, owned);
        *lo = m;
        lo = &m->right;
        t = m->right;
      } else {
        m->right = Adopt(m->right, owned);
        *hi = m;
        hi = &m->left;
        t = m->left;
      }
    }
    *lo = nullptr;
    *hi = nullptr;
    Release(hold);
  }

  // Joins `l` and `r`, every key of `l` below every key of `r`.
  static Node* Merge(Node* l, bool l_owned, Node* r, bool r_owned, SpecArena::Pool* pool) {
    Node* out = nullptr;
    Node** hole = &out;
    Node* l_hold = nullptr;
    Node* r_hold = nullptr;
    while (l != nullptr && r != nullptr) {
      if (PriorityOf(l) > PriorityOf(r)) {
        Node* m = Open(l, &l_owned, &l_hold, pool);
        m->left = Adopt(m->left, l_owned);
        *hole = m;
        hole = &m->right;
        l = m->right;
      } else {
        Node* m = Open(r, &r_owned, &r_hold, pool);
        m->right = Adopt(m->right, r_owned);
        *hole = m;
        hole = &m->left;
        r = m->left;
      }
    }
    *hole = l != nullptr ? Adopt(l, l_owned) : Adopt(r, r_owned);
    Release(l_hold);
    Release(r_hold);
    return out;
  }

  // Removes k, which the owned tree `t` must hold.
  static Node* EraseAt(Node* t, const K& k, SpecArena::Pool* pool) {
    Node* out = nullptr;
    Node** hole = &out;
    Node* hold = nullptr;
    bool owned = true;
    for (;;) {
      const K& tk = KeyOf(t->entry);
      if (!(k < tk) && !(tk < k)) {
        Node* l = t->left;
        Node* r = t->right;
        if (owned && Unique(t)) {
          Free(t);  // its child references pass to the merge
        } else if (owned) {
          hold = t;  // shared: the merge borrows its children
          owned = false;
        }
        *hole = Merge(l, owned, r, owned, pool);
        Release(hold);
        return out;
      }
      bool left = k < tk;
      Node* m = Open(t, &owned, &hold, pool);
      *hole = m;
      if (left) {
        m->right = Adopt(m->right, owned);
        hole = &m->left;
        t = m->left;
      } else {
        m->left = Adopt(m->left, owned);
        hole = &m->right;
        t = m->right;
      }
    }
  }

  // Descends from `n` to the highest-priority node whose key lies in the
  // open interval (lo, hi); a null bound is unbounded. Every key of the
  // original subtree inside the interval is below the returned node.
  static const Node* Clip(const Node* n, const K* lo, const K* hi) {
    while (n != nullptr) {
      const K& k = KeyOf(n->entry);
      if (lo != nullptr && !(*lo < k)) {
        n = n->right;
      } else if (hi != nullptr && !(k < *hi)) {
        n = n->left;
      } else {
        break;
      }
    }
    return n;
  }

  // Applies `f` to every entry of `n` with a key in (lo, hi).
  template <typename F>
  static bool EachIn(const Node* n, const K* lo, const K* hi, F& f) {
    n = Clip(n, lo, hi);
    if (n == nullptr) {
      return true;
    }
    const K& k = KeyOf(n->entry);
    return EachIn(n->left, lo, &k, f) && f(n->entry) && EachIn(n->right, &k, hi, f);
  }

  // ForEachDifference restricted to keys in (lo, hi). Both clipped roots
  // are the top-priority keys of their trees in the interval, so the higher
  // of the two cannot be held by the other tree at all.
  template <typename Visit>
  static bool DiffIn(const Node* a, const Node* b, const K* lo, const K* hi, Visit& visit) {
    a = Clip(a, lo, hi);
    b = Clip(b, lo, hi);
    if (a == b) {
      return true;
    }
    if (a == nullptr) {
      auto only_b = [&visit](const Entry& e) { return visit(nullptr, &e); };
      return EachIn(b, lo, hi, only_b);
    }
    if (b == nullptr) {
      auto only_a = [&visit](const Entry& e) { return visit(&e, nullptr); };
      return EachIn(a, lo, hi, only_a);
    }
    const K& ak = KeyOf(a->entry);
    const K& bk = KeyOf(b->entry);
    if (!(ak < bk) && !(bk < ak)) {
      if (!(a->entry == b->entry) && !visit(&a->entry, &b->entry)) {
        return false;
      }
      return DiffIn(a->left, b->left, lo, &ak, visit) &&
             DiffIn(a->right, b->right, &ak, hi, visit);
    }
    if (PriorityOf(a) > PriorityOf(b)) {
      return visit(&a->entry, nullptr) && DiffIn(a->left, b, lo, &ak, visit) &&
             DiffIn(a->right, b, &ak, hi, visit);
    }
    return visit(nullptr, &b->entry) && DiffIn(a, b->left, lo, &bk, visit) &&
           DiffIn(a, b->right, &bk, hi, visit);
  }

  Node* root_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace atmo

#endif  // ATMO_SRC_VSTD_PERSISTENT_TREE_H_
