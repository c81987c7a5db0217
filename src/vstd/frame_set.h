// FrameSet — a persistent set of 4K-aligned PagePtrs, stored as bitmaps.
//
// The executable reading of a Verus `Set<PagePtr>` for a set that holds a
// large share of the machine's frames: the allocator's free pages
// (AbstractKernel::free_pages_4k/2m/1g). A treap (PersistentTree) spends a
// node per member on such a set; this spends a bit.
//
//  * The set is a radix tree of refcounted nodes. A leaf holds the bitmap
//    of 4,096 consecutive frames (64 words); an inner node holds 64
//    children. A tree of height h has h levels of inner nodes above the
//    leaves, so it covers frames [0, 4096 · 64^h); adding a key beyond that
//    grows the root. An empty subtree is a null child.
//  * The shape is canonical: no leaf is all zero, no inner node has only
//    null children, and the height is the least that covers the largest
//    key. Equal sets therefore have equal shapes, and equality walks the
//    two trees together, skipping every subtree they share.
//  * Copying is O(1): the copy takes a reference on the root. A write opens
//    the path to its leaf, copying the nodes other sets also hold: at most
//    one inner node per level and one leaf. A write that changes nothing
//    (adding a member, erasing a non-member) copies nothing.
//  * A set is also read against a bitmap of the machine, one bit per frame
//    (bit b of word w is frame 64w + b), the form in which the allocator's
//    free lists are marked: FromBitmap builds the set and EqualsBitmap
//    compares with it, both a word at a time.
//
// Nodes are placed as PersistentTree places its own (src/vstd/arena.h):
// beside the root when the set owns it alone, otherwise in the thread's
// current SpecArena, or on the heap. Reference counts are atomic: sets that
// share nodes may be copied and dropped on different threads.

#ifndef ATMO_SRC_VSTD_FRAME_SET_H_
#define ATMO_SRC_VSTD_FRAME_SET_H_

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <new>
#include <span>
#include <type_traits>
#include <utility>

#include "src/vstd/arena.h"
#include "src/vstd/check.h"
#include "src/vstd/types.h"

namespace atmo {

class FrameSet {
 public:
  class Iterator;

  FrameSet() = default;
  FrameSet(const FrameSet& other)
      : root_(Retain(other.root_)), height_(other.height_), size_(other.size_) {}
  FrameSet(FrameSet&& other) noexcept
      : root_(std::exchange(other.root_, nullptr)),
        height_(std::exchange(other.height_, 0)),
        size_(std::exchange(other.size_, 0)) {}
  FrameSet& operator=(const FrameSet& other) {
    Node* root = Retain(other.root_);
    Release(root_, height_);
    root_ = root;
    height_ = other.height_;
    size_ = other.size_;
    return *this;
  }
  FrameSet& operator=(FrameSet&& other) noexcept {
    if (this != &other) {
      Release(root_, height_);
      root_ = std::exchange(other.root_, nullptr);
      height_ = std::exchange(other.height_, 0);
      size_ = std::exchange(other.size_, 0);
    }
    return *this;
  }
  ~FrameSet() { Release(root_, height_); }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  // True when both sets share one root: equal by construction, O(1).
  bool SharesRepWith(const FrameSet& other) const { return root_ == other.root_; }

  // A key that is not 4K-aligned is never a member.
  bool contains(PagePtr p) const {
    if (p % kPageSize4K != 0) {
      return false;
    }
    const std::uint64_t frame = p / kPageSize4K;
    const Leaf* leaf = FindLeaf(frame);
    return leaf != nullptr && (leaf->words[WordIn(frame)] >> (frame % 64) & 1) != 0;
  }

  // Adds `p` (4K-aligned, ATMO_CHECK); a no-op that keeps every node
  // shared when it is already a member.
  void add(PagePtr p) {
    ATMO_CHECK(p % kPageSize4K == 0, "FrameSet: a key must be 4K-aligned");
    if (contains(p)) {
      return;
    }
    const std::uint64_t frame = p / kPageSize4K;
    NodePlacement place = PlaceFor();
    while (frame >= Span(height_)) {
      // Grow: a tree becomes the first child of a new root.
      if (root_ != nullptr) {
        Inner* up = NewInner(place.pool());
        up->child[0] = root_;
        root_ = up;
      }
      ++height_;
    }
    Node** slot = &root_;
    for (unsigned level = height_; level > 0; --level) {
      if (*slot == nullptr) {
        *slot = NewInner(place.pool());
      }
      slot = &Open<Inner>(slot, level, place.pool())->child[ChildIn(frame, level)];
    }
    if (*slot == nullptr) {
      *slot = NewLeaf(place.pool());
    }
    Open<Leaf>(slot, 0, place.pool())->words[WordIn(frame)] |= std::uint64_t{1} << (frame % 64);
    ++size_;
  }

  // Removes `p`; a no-op that keeps every node shared when it is absent.
  // Nodes left empty are dropped and the root shrinks to the least height,
  // so the shape stays canonical.
  void erase(PagePtr p) {
    if (!contains(p)) {
      return;
    }
    const std::uint64_t frame = p / kPageSize4K;
    NodePlacement place = PlaceFor();
    Node** path[kMaxHeight + 1];  // path[level]: the slot of the node at that level
    Node** slot = &root_;
    for (unsigned level = height_; level > 0; --level) {
      path[level] = slot;
      slot = &Open<Inner>(slot, level, place.pool())->child[ChildIn(frame, level)];
    }
    path[0] = slot;
    Leaf* leaf = Open<Leaf>(slot, 0, place.pool());
    leaf->words[WordIn(frame)] &= ~(std::uint64_t{1} << (frame % 64));
    --size_;
    // Every node on the path is this set's alone now: drop the empty ones
    // bottom up.
    for (unsigned level = 0; level <= height_ && IsEmpty(*path[level], level); ++level) {
      Free(*path[level]);
      *path[level] = nullptr;
    }
    if (root_ == nullptr) {
      height_ = 0;
      return;
    }
    while (height_ > 0 && OnlyFirstChild(static_cast<Inner*>(root_))) {
      // Below the opened root the nodes may be shared: move by reference.
      Node* top = root_;
      root_ = Retain(static_cast<Inner*>(top)->child[0]);
      Release(top, height_);
      --height_;
    }
  }

  friend bool operator==(const FrameSet& a, const FrameSet& b) {
    return a.size_ == b.size_ && a.height_ == b.height_ && Equal(a.root_, b.root_, a.height_);
  }

  // The set of the frames whose bits are set in `words`.
  static FrameSet FromBitmap(std::span<const std::uint64_t> words) {
    FrameSet out;
    const auto last = std::find_if(words.rbegin(), words.rend(),
                                   [](std::uint64_t w) { return w != 0; });
    if (last == words.rend()) {
      return out;
    }
    const std::uint64_t top_frame = (static_cast<std::uint64_t>(words.rend() - last) - 1) * 64 +
                                    (63 - static_cast<unsigned>(std::countl_zero(*last)));
    while (top_frame >= Span(out.height_)) {
      ++out.height_;
    }
    NodePlacement place(nullptr, false, false);
    out.root_ = Build(words, 0, out.height_, place.pool(), &out.size_);
    return out;
  }

  // True when `words` marks exactly this set's members. Words past the
  // bitmap's end read as zero, and so do the set's beyond its range.
  bool EqualsBitmap(std::span<const std::uint64_t> words) const {
    const std::uint64_t covered = root_ == nullptr ? 0 : Span(height_) / 64;
    if (root_ != nullptr && !EqualIn(root_, height_, 0, words)) {
      return false;
    }
    return covered >= words.size() ||
           std::all_of(words.begin() + static_cast<std::ptrdiff_t>(covered), words.end(),
                       [](std::uint64_t w) { return w == 0; });
  }

  Iterator begin() const { return Iterator(this, NextFrom(0)); }
  Iterator end() const { return Iterator(this, kEnd); }

  // Ascending iteration; each step descends from the root (O(height)) and
  // never allocates.
  class Iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = PagePtr;
    using difference_type = std::ptrdiff_t;
    using pointer = const PagePtr*;
    using reference = PagePtr;

    Iterator() = default;

    PagePtr operator*() const { return frame_ * kPageSize4K; }
    Iterator& operator++() {
      frame_ = set_->NextFrom(frame_ + 1);
      return *this;
    }
    Iterator operator++(int) {
      Iterator old = *this;
      ++*this;
      return old;
    }
    friend bool operator==(const Iterator& a, const Iterator& b) { return a.frame_ == b.frame_; }

   private:
    friend class FrameSet;
    Iterator(const FrameSet* set, std::uint64_t frame) : set_(set), frame_(frame) {}

    const FrameSet* set_ = nullptr;
    std::uint64_t frame_ = kEnd;
  };

 private:
  static constexpr unsigned kLeafWords = 64;    // 4,096 frames per leaf
  static constexpr unsigned kFanout = 64;       // children per inner node
  static constexpr unsigned kLeafShift = 12;    // log2(frames per leaf)
  static constexpr unsigned kFanoutShift = 6;   // log2(kFanout)
  // Frames are below 2^52 (a 64-bit address over 4 KiB), and a height of 7
  // covers 2^54.
  static constexpr unsigned kMaxHeight = 7;
  static constexpr std::uint64_t kEnd = ~std::uint64_t{0};

  struct Node {
    explicit Node(bool from_arena) : refs(1), in_arena(from_arena) {}
    std::atomic<std::uint32_t> refs;
    bool in_arena;  // placed in a SpecArena pool (NodePlacement)
  };
  struct Leaf : Node {
    using Node::Node;
    std::uint64_t words[kLeafWords] = {};
  };
  struct Inner : Node {
    using Node::Node;
    Node* child[kFanout] = {};
  };

  // Frames a node at `level` covers (level 0 is a leaf).
  static constexpr std::uint64_t Span(unsigned level) {
    return std::uint64_t{1} << (kLeafShift + kFanoutShift * level);
  }
  static unsigned ChildIn(std::uint64_t frame, unsigned level) {
    return static_cast<unsigned>(frame / Span(level - 1) % kFanout);
  }
  static unsigned WordIn(std::uint64_t frame) {
    return static_cast<unsigned>(frame / 64 % kLeafWords);
  }

  static bool Unique(const Node* n) { return n->refs.load() == 1; }

  static Node* Retain(Node* n) {
    if (n != nullptr) {
      n->refs.fetch_add(1);
    }
    return n;
  }

  // Drops one reference to `n` (a node at `level`), freeing every node that
  // loses its last.
  static void Release(Node* n, unsigned level) {
    // A count of 1 is ours alone: nobody else can raise it, so skip the RMW.
    if (n == nullptr || !(Unique(n) || n->refs.fetch_sub(1) == 1)) {
      return;
    }
    if (level > 0) {
      for (Node* c : static_cast<Inner*>(n)->child) {
        Release(c, level - 1);
      }
    }
    Free(n);
  }

  static void Free(Node* n) { NodePlacement::Free(n, n->in_arena); }

  NodePlacement PlaceFor() const {
    return NodePlacement(root_, root_ != nullptr && Unique(root_),
                         root_ != nullptr && root_->in_arena);
  }

  static Leaf* NewLeaf(SpecArena::Pool* pool) {
    return ::new (NodePlacement::Allocate(pool, sizeof(Leaf))) Leaf(pool != nullptr);
  }
  static Inner* NewInner(SpecArena::Pool* pool) {
    return ::new (NodePlacement::Allocate(pool, sizeof(Inner))) Inner(pool != nullptr);
  }

  // Opens the node in `*slot` (at `level`, reached through nodes this set
  // alone holds) for writing: returns it when this set alone holds it too,
  // else a copy, which replaces it in the slot and references its children.
  template <typename N>
  static N* Open(Node** slot, unsigned level, SpecArena::Pool* pool) {
    N* n = static_cast<N*>(*slot);
    if (Unique(n)) {
      return n;
    }
    N* copy;
    if constexpr (std::is_same_v<N, Leaf>) {
      copy = NewLeaf(pool);
      std::copy(std::begin(n->words), std::end(n->words), copy->words);
    } else {
      copy = NewInner(pool);
      for (unsigned i = 0; i < kFanout; ++i) {
        copy->child[i] = Retain(n->child[i]);
      }
    }
    Release(n, level);
    *slot = copy;
    return copy;
  }

  static bool IsEmpty(const Node* n, unsigned level) {
    if (level == 0) {
      const Leaf* leaf = static_cast<const Leaf*>(n);
      return std::all_of(std::begin(leaf->words), std::end(leaf->words),
                         [](std::uint64_t w) { return w == 0; });
    }
    const Inner* inner = static_cast<const Inner*>(n);
    return std::all_of(std::begin(inner->child), std::end(inner->child),
                       [](const Node* c) { return c == nullptr; });
  }

  static bool OnlyFirstChild(const Inner* n) {
    return std::all_of(std::begin(n->child) + 1, std::end(n->child),
                       [](const Node* c) { return c == nullptr; });
  }

  // The leaf that holds `frame`, or null.
  const Leaf* FindLeaf(std::uint64_t frame) const {
    if (root_ == nullptr || frame >= Span(height_)) {
      return nullptr;
    }
    const Node* n = root_;
    for (unsigned level = height_; level > 0 && n != nullptr; --level) {
      n = static_cast<const Inner*>(n)->child[ChildIn(frame, level)];
    }
    return static_cast<const Leaf*>(n);
  }

  static bool Equal(const Node* a, const Node* b, unsigned level) {
    if (a == b) {
      return true;
    }
    if (a == nullptr || b == nullptr) {
      return false;  // a non-null node is never empty
    }
    if (level == 0) {
      return std::equal(std::begin(static_cast<const Leaf*>(a)->words),
                        std::end(static_cast<const Leaf*>(a)->words),
                        static_cast<const Leaf*>(b)->words);
    }
    for (unsigned i = 0; i < kFanout; ++i) {
      if (!Equal(static_cast<const Inner*>(a)->child[i], static_cast<const Inner*>(b)->child[i],
                 level - 1)) {
        return false;
      }
    }
    return true;
  }

  // The subtree at `level` for the bitmap's words from `first` on, or null
  // when they are all zero; adds the members to `*size`.
  static Node* Build(std::span<const std::uint64_t> words, std::uint64_t first, unsigned level,
                     SpecArena::Pool* pool, std::size_t* size) {
    if (level == 0) {
      const std::size_t end = std::min<std::size_t>(words.size(), first + kLeafWords);
      if (std::all_of(words.begin() + static_cast<std::ptrdiff_t>(first),
                      words.begin() + static_cast<std::ptrdiff_t>(end),
                      [](std::uint64_t w) { return w == 0; })) {
        return nullptr;
      }
      Leaf* leaf = NewLeaf(pool);
      for (std::size_t w = first; w < end; ++w) {
        leaf->words[w - first] = words[w];
        *size += static_cast<std::size_t>(std::popcount(words[w]));
      }
      return leaf;
    }
    Inner* inner = nullptr;
    const std::uint64_t child_words = Span(level - 1) / 64;
    for (unsigned i = 0; i < kFanout && first + i * child_words < words.size(); ++i) {
      if (Node* c = Build(words, first + i * child_words, level - 1, pool, size)) {
        if (inner == nullptr) {
          inner = NewInner(pool);
        }
        inner->child[i] = c;
      }
    }
    return inner;
  }

  // EqualsBitmap over the subtree `n` at `level`, which covers the
  // bitmap's words from `first` on.
  static bool EqualIn(const Node* n, unsigned level, std::uint64_t first,
                      std::span<const std::uint64_t> words) {
    const std::uint64_t span_words = Span(level) / 64;
    if (first >= words.size()) {
      return n == nullptr;  // the bitmap is all zero here
    }
    if (n == nullptr) {
      const std::size_t end = std::min<std::size_t>(words.size(), first + span_words);
      return std::all_of(words.begin() + static_cast<std::ptrdiff_t>(first),
                         words.begin() + static_cast<std::ptrdiff_t>(end),
                         [](std::uint64_t w) { return w == 0; });
    }
    if (level == 0) {
      const Leaf* leaf = static_cast<const Leaf*>(n);
      for (std::uint64_t i = 0; i < kLeafWords; ++i) {
        if (leaf->words[i] != (first + i < words.size() ? words[first + i] : 0)) {
          return false;
        }
      }
      return true;
    }
    const std::uint64_t child_words = span_words / kFanout;
    for (unsigned i = 0; i < kFanout; ++i) {
      if (!EqualIn(static_cast<const Inner*>(n)->child[i], level - 1, first + i * child_words,
                   words)) {
        return false;
      }
    }
    return true;
  }

  // The least member at or above `frame`, or kEnd.
  std::uint64_t NextFrom(std::uint64_t frame) const {
    if (root_ == nullptr || frame >= Span(height_)) {
      return kEnd;
    }
    return NextIn(root_, height_, 0, frame);
  }

  // NextFrom within the subtree `n` at `level`, whose first frame is `base`.
  static std::uint64_t NextIn(const Node* n, unsigned level, std::uint64_t base,
                              std::uint64_t frame) {
    if (n == nullptr) {
      return kEnd;
    }
    const std::uint64_t from = frame > base ? frame - base : 0;
    if (level == 0) {
      const Leaf* leaf = static_cast<const Leaf*>(n);
      for (std::uint64_t w = from / 64; w < kLeafWords; ++w) {
        std::uint64_t word = leaf->words[w];
        if (w == from / 64) {
          word &= ~std::uint64_t{0} << (from % 64);
        }
        if (word != 0) {
          return base + w * 64 + static_cast<std::uint64_t>(std::countr_zero(word));
        }
      }
      return kEnd;
    }
    const std::uint64_t child_span = Span(level - 1);
    for (std::uint64_t i = from / child_span; i < kFanout; ++i) {
      const std::uint64_t found = NextIn(static_cast<const Inner*>(n)->child[i], level - 1,
                                         base + i * child_span, frame);
      if (found != kEnd) {
        return found;
      }
    }
    return kEnd;
  }

  Node* root_ = nullptr;
  unsigned height_ = 0;  // levels of inner nodes above the leaves
  std::size_t size_ = 0;
};

}  // namespace atmo

#endif  // ATMO_SRC_VSTD_FRAME_SET_H_
