// SpecArena — bump/pool arena backing the nodes of the spec collections.
//
// Every checked step path-copies a few SpecMap/SpecSet nodes (the
// persistent trees' write discipline, src/vstd/persistent_tree.h) and
// throws the previous step's superseded nodes away. Under the global heap
// that is a malloc/free pair per copied node — the checking hot path's
// allocation cost (DESIGN.md §14). SpecArena replaces it with the
// percpu/prealloc idiom of kernel/bpf/hashtab.c: node-sized blocks come from
// per-size-class free lists threaded through retired nodes, refilled by
// bumping through large chunks, so steady-state checking performs zero heap
// allocations.
//
// Lifetime rules (enforced, not assumed):
//
//  * An ArenaScope installs an arena as the thread's current allocation
//    target; every spec-collection node written (and every SpecSeq built)
//    inside the scope draws from it. No scope (the default everywhere
//    outside the checker) means the global heap — behaviour unchanged.
//  * The chunks live in a refcounted Pool that the SpecArena object and
//    every live block co-own. A block can therefore never outlive the
//    memory it sits in: a snapshot that escapes its scope — or outlives
//    the SpecArena object, or is freed on another thread — keeps the pool
//    alive until its last block is released.
//  * Reset() rewinds the bump pointers and clears the free lists, but only
//    when no allocation is live; a Reset refused because a snapshot
//    escaped is a skipped recycle, never a use-after-reset. The
//    RefinementChecker never resets its arena: its cached Ψ lives there
//    for good, and the nodes each step releases come back through the
//    free lists (DESIGN.md §14).
//  * Arenas are single-threaded by construction (per-checker, per-shard).
//    Blocks freed from a foreign thread are routed back to the heap-safe
//    path: counted, not recycled.

#ifndef ATMO_SRC_VSTD_ARENA_H_
#define ATMO_SRC_VSTD_ARENA_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <thread>
#include <utility>
#include <vector>

#include "src/vstd/check.h"

namespace atmo {

class SpecArena {
 public:
  // Allocation sizes are rounded up to one of these power-of-two classes;
  // larger requests fall through to the heap (counted, still correct).
  static constexpr std::size_t kMinClassBytes = 32;
  static constexpr std::size_t kMaxClassBytes = 4096;
  static constexpr std::size_t kClassCount = 8;  // 32..4096
  static constexpr std::size_t kDefaultChunkBytes = 256 * 1024;

  struct Stats {
    std::uint64_t chunk_bytes = 0;      // reserved from the heap, reusable
    std::uint64_t chunks = 0;
    std::uint64_t allocs = 0;           // arena-served allocations
    std::uint64_t freelist_hits = 0;    // allocs served without bumping
    std::uint64_t heap_fallbacks = 0;   // oversize requests sent to the heap
    std::uint64_t resets = 0;
    std::uint64_t refused_resets = 0;   // live allocations blocked a Reset
  };

  // The memory an arena allocates from. Opaque outside this file; a
  // persistent structure holds one (Ref/Unref) while it places new nodes
  // beside a block it updates in place.
  class Pool;

  // Chunks of `chunk_bytes` are added on demand, the first one by the first
  // Allocate.
  explicit SpecArena(std::size_t chunk_bytes = kDefaultChunkBytes);
  ~SpecArena();

  SpecArena(const SpecArena&) = delete;
  SpecArena& operator=(const SpecArena&) = delete;

  // The thread's currently installed arena (may be null = heap).
  static const std::shared_ptr<SpecArena>& Current();

  void* Allocate(std::size_t bytes) { return AllocateFrom(pool_, bytes); }
  // Allocates from `pool` (non-null). Requests from a thread other than the
  // pool's owner, or above kMaxClassBytes, go to the heap.
  static void* AllocateFrom(Pool* pool, std::size_t bytes);

  // Routes `p` (a pointer previously returned by any SpecArena's Allocate,
  // or the heap fallback) back where it came from. Static so callers do not
  // need to know which arena served the block.
  static void Deallocate(void* p);

  // The pool that served `block`, or null for a heap-fallback block.
  static Pool* PoolOf(const void* block);
  Pool* pool() const { return pool_; }

  // Rewinds the bump cursor and clears the free lists. Only legal (and only
  // performed) when nothing is live; returns whether the reset happened.
  bool Reset();

  std::uint64_t live() const;
  std::uint64_t reserved() const;
  const Stats& stats() const;
  // Cross-thread frees (counted, not recycled); the only counter that may
  // be touched off the owning thread, hence atomic.
  std::uint64_t foreign_frees() const;

 private:
  friend class ArenaScope;

  struct Header {
    Pool* owner;              // null: heap fallback
    std::int64_t size_class;  // pads the header to 16 bytes
  };
  static constexpr std::size_t kHeaderBytes = sizeof(Header);
  static constexpr std::size_t kHeaderAlign = alignof(std::max_align_t);
  static_assert(kHeaderBytes == 16, "header must preserve 16-byte alignment");

  static void* HeapBlock(std::size_t bytes) {
    Header* h = static_cast<Header*>(
        ::operator new(bytes + kHeaderBytes, std::align_val_t{kHeaderAlign}));
    h->owner = nullptr;
    h->size_class = -1;
    return h + 1;
  }

  Pool* pool_;
};

class SpecArena::Pool {
 public:
  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  // One reference per SpecArena object, per live block and per in-flight
  // write that allocates beside a block; the last Unref frees the chunks.
  void Ref() { refs_.fetch_add(1); }
  void Unref() {
    if (refs_.fetch_sub(1) == 1) {
      delete this;
    }
  }

 private:
  friend class SpecArena;

  struct FreeNode {
    FreeNode* next;
  };
  struct Chunk {
    std::uint8_t* base;
    std::size_t size;
  };

  explicit Pool(std::size_t chunk_bytes)
      : chunk_bytes_(chunk_bytes < kMaxClassBytes + kHeaderBytes
                         ? kMaxClassBytes + kHeaderBytes
                         : chunk_bytes),
        owner_(std::this_thread::get_id()) {}

  ~Pool() {
    for (Chunk& c : chunks_) {
      ::operator delete(c.base, std::align_val_t{kHeaderAlign});
    }
  }

  static constexpr std::size_t ClassBytes(int cls) {
    return kMinClassBytes << cls;
  }
  static int ClassOf(std::size_t bytes) {
    std::size_t rounded = kMinClassBytes;
    for (int cls = 0; cls < static_cast<int>(kClassCount); ++cls) {
      if (bytes <= rounded) {
        return cls;
      }
      rounded <<= 1;
    }
    return -1;  // oversize: heap fallback
  }

  void* Allocate(std::size_t bytes) {
    int cls = ClassOf(bytes);
    if (cls < 0 || std::this_thread::get_id() != owner_) {
      ++stats_.heap_fallbacks;
      return HeapBlock(bytes);
    }
    Ref();
    ++stats_.allocs;
    ++live_;
    Header* h;
    if (free_lists_[cls] != nullptr) {
      ++stats_.freelist_hits;
      FreeNode* node = free_lists_[cls];
      free_lists_[cls] = node->next;
      h = reinterpret_cast<Header*>(node);
    } else {
      std::size_t need = ClassBytes(cls) + kHeaderBytes;
      if (chunks_.empty() || chunks_[chunk_index_].size - cursor_ < need) {
        if (!Advance(need)) {
          AddChunk();
          chunk_index_ = chunks_.size() - 1;
          cursor_ = 0;
        }
      }
      h = reinterpret_cast<Header*>(chunks_[chunk_index_].base + cursor_);
      cursor_ += need;
    }
    h->owner = this;
    h->size_class = cls;
    return h + 1;
  }

  void Release(Header* h) {
    if (std::this_thread::get_id() != owner_) {
      // Cross-thread free: recycling through the unsynchronized free list
      // would race, so the block is counted and dropped. Its chunk memory
      // is only reused once the owner's live count reaches zero again —
      // the worst case is a refused Reset, never a race.
      foreign_frees_.fetch_add(1, std::memory_order_relaxed);
    } else {
      FreeNode* node = reinterpret_cast<FreeNode*>(h);
      node->next = free_lists_[h->size_class];
      free_lists_[h->size_class] = node;
      --live_;
    }
    Unref();  // may free the pool: nothing after this line
  }

  bool Reset() {
    if (live_ != 0) {
      ++stats_.refused_resets;
      return false;
    }
    for (FreeNode*& head : free_lists_) {
      head = nullptr;
    }
    chunk_index_ = 0;
    cursor_ = 0;
    ++stats_.resets;
    return true;
  }

  bool Advance(std::size_t need) {
    while (chunk_index_ + 1 < chunks_.size()) {
      ++chunk_index_;
      cursor_ = 0;
      if (chunks_[chunk_index_].size >= need) {
        return true;
      }
    }
    return false;
  }

  void AddChunk() {
    Chunk c;
    c.size = chunk_bytes_;
    c.base = static_cast<std::uint8_t*>(
        ::operator new(c.size, std::align_val_t{kHeaderAlign}));
    // averif-lint: allow(hot-path-alloc) — one chunk per ~5K node blocks, and released blocks return through the free lists, so steady-state checking stops growing the list
    chunks_.push_back(c);
    stats_.chunk_bytes += c.size;
    ++stats_.chunks;
  }

  std::atomic<std::uint64_t> refs_{1};
  std::size_t chunk_bytes_;
  std::thread::id owner_;
  std::vector<Chunk> chunks_;
  std::size_t chunk_index_ = 0;
  std::size_t cursor_ = 0;
  FreeNode* free_lists_[kClassCount] = {};
  std::uint64_t live_ = 0;
  Stats stats_;
  std::atomic<std::uint64_t> foreign_frees_{0};
};

inline SpecArena::SpecArena(std::size_t chunk_bytes) : pool_(new Pool(chunk_bytes)) {}

inline SpecArena::~SpecArena() { pool_->Unref(); }

inline void* SpecArena::AllocateFrom(Pool* pool, std::size_t bytes) {
  return pool->Allocate(bytes);
}

inline void SpecArena::Deallocate(void* p) {
  Header* h = static_cast<Header*>(p) - 1;
  if (h->owner == nullptr) {
    ::operator delete(h, std::align_val_t{kHeaderAlign});
    return;
  }
  h->owner->Release(h);
}

inline SpecArena::Pool* SpecArena::PoolOf(const void* block) {
  return (static_cast<const Header*>(block) - 1)->owner;
}

inline bool SpecArena::Reset() { return pool_->Reset(); }
inline std::uint64_t SpecArena::live() const { return pool_->live_; }
inline std::uint64_t SpecArena::reserved() const { return pool_->stats_.chunk_bytes; }
inline const SpecArena::Stats& SpecArena::stats() const { return pool_->stats_; }
inline std::uint64_t SpecArena::foreign_frees() const {
  return pool_->foreign_frees_.load(std::memory_order_relaxed);
}

// RAII install of an arena as the thread's current spec-allocation target.
// Scopes nest; each restores its predecessor.
class ArenaScope {
 public:
  explicit ArenaScope(std::shared_ptr<SpecArena> arena)
      : previous_(std::move(MutableCurrent())) {
    MutableCurrent() = std::move(arena);
  }
  ~ArenaScope() { MutableCurrent() = std::move(previous_); }

  ArenaScope(const ArenaScope&) = delete;
  ArenaScope& operator=(const ArenaScope&) = delete;

 private:
  friend class SpecArena;
  static std::shared_ptr<SpecArena>& MutableCurrent();

  std::shared_ptr<SpecArena> previous_;
};

inline std::shared_ptr<SpecArena>& ArenaScope::MutableCurrent() {
  thread_local std::shared_ptr<SpecArena> current;
  return current;
}

inline const std::shared_ptr<SpecArena>& SpecArena::Current() {
  return ArenaScope::MutableCurrent();
}

// Where a write to a persistent structure (PersistentTree, FrameSet) places
// its new nodes, resolved once per write. A structure that owns its root
// alone keeps growing where the root lives: the arena it was built in, or
// the heap. Any other write (shared or empty root) lands in the current
// scope's arena, or the heap. A pool found through the root is referenced
// for the write's duration: the write may free the root before it
// allocates its last node.
class NodePlacement {
 public:
  // `root` is the structure's root node (null when it is empty), `unique`
  // whether the structure alone holds it, and `in_arena` whether Allocate
  // placed it in a pool.
  NodePlacement(const void* root, bool unique, bool in_arena) {
    if (root != nullptr && unique) {
      if (in_arena) {
        pool_ = SpecArena::PoolOf(root);
        pinned_ = pool_ != nullptr;
      }
    } else if (const auto& arena = SpecArena::Current()) {
      pool_ = arena->pool();  // the scope keeps the arena alive
    }
    if (pinned_) {
      pool_->Ref();
    }
  }
  ~NodePlacement() {
    if (pinned_) {
      pool_->Unref();
    }
  }
  NodePlacement(const NodePlacement&) = delete;
  NodePlacement& operator=(const NodePlacement&) = delete;

  SpecArena::Pool* pool() const { return pool_; }

  // A node of `bytes` from `pool`, or from the heap when it is null. The
  // node must remember which (in_arena = pool != null) to be freed.
  static void* Allocate(SpecArena::Pool* pool, std::size_t bytes) {
    return pool != nullptr ? SpecArena::AllocateFrom(pool, bytes) : ::operator new(bytes);
  }
  static void Free(void* node, bool in_arena) {
    if (in_arena) {
      SpecArena::Deallocate(node);
    } else {
      ::operator delete(node);
    }
  }

 private:
  SpecArena::Pool* pool_ = nullptr;
  bool pinned_ = false;
};

// Minimal-interface allocator routing through the thread's current arena at
// construction time (captured, so a container keeps drawing from — and
// keeps alive — the arena it was born under even after the scope ends).
// A default-constructed allocator outside any scope is the global heap.
template <typename T>
class ArenaAllocator {
 public:
  using value_type = T;
  static_assert(alignof(T) <= alignof(std::max_align_t),
                "over-aligned types cannot live in a SpecArena");

  ArenaAllocator() : arena_(SpecArena::Current()) {}
  explicit ArenaAllocator(std::shared_ptr<SpecArena> arena)
      : arena_(std::move(arena)) {}
  template <typename U>
  ArenaAllocator(const ArenaAllocator<U>& other) : arena_(other.arena()) {}

  T* allocate(std::size_t n) {
    std::size_t bytes = n * sizeof(T);
    if (arena_) {
      return static_cast<T*>(arena_->Allocate(bytes));
    }
    return static_cast<T*>(::operator new(bytes));
  }

  void deallocate(T* p, std::size_t) {
    if (arena_) {
      SpecArena::Deallocate(p);
      return;
    }
    ::operator delete(p);
  }

  const std::shared_ptr<SpecArena>& arena() const { return arena_; }

  template <typename U>
  bool operator==(const ArenaAllocator<U>& other) const {
    return arena_.get() == other.arena().get();
  }

 private:
  std::shared_ptr<SpecArena> arena_;
};

}  // namespace atmo

#endif  // ATMO_SRC_VSTD_ARENA_H_
