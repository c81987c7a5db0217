// Page allocator (§4.2 "Memory allocation").
//
// Dynamic memory for kernel objects and user mappings is allocated at the
// granularity of 4 KiB, 2 MiB and 1 GiB pages. A page-metadata array (like
// Linux's struct page array) tracks the state of every physical 4 KiB frame;
// free pages of each size class sit on doubly-linked lists threaded through
// the metadata array, so a page can be unlinked in constant time when it is
// merged into a superpage.
//
// Every page is in exactly one of the paper's four states (plus one model
// state for frames the allocator does not manage):
//   free      — on the free list of its size class
//   mapped    — mapped by one or more processes (map-count tracked)
//   merged    — a 4 KiB tail frame covered by a 2 MiB/1 GiB unit, or a 2 MiB
//               tail unit covered by a 1 GiB unit
//   allocated — backing a kernel object (container/process/thread/endpoint/
//               page-table node/...)
//   unavailable — reserved at boot (frame 0, kernel image); never handed out
//
// The allocator exposes its internal state as ghost sets (free / allocated /
// mapped pages per size class) so that the explicit-allocator-state
// reasoning of Listing 4 — and the global leak-freedom invariant
// Σ page_closure(subsystem) == allocated pages — can be checked.

#ifndef ATMO_SRC_PMEM_PAGE_ALLOCATOR_H_
#define ATMO_SRC_PMEM_PAGE_ALLOCATOR_H_

#include <bit>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "src/hw/phys_mem.h"
#include "src/vstd/check.h"
#include "src/vstd/dirty_set.h"
#include "src/vstd/spec_set.h"
#include "src/vstd/types.h"

namespace atmo {

enum class PageState : std::uint8_t {
  kUnavailable = 0,
  kFree,
  kMapped,
  kMerged,
  kAllocated,
};

const char* PageStateName(PageState state);

// One bit per frame: the scratch the free-page streams mark a free list
// into and read back in frame order. A stream that returns leaves it all
// clear, so a caller that streams repeatedly keeps one and allocates once.
using FrameBitmap = std::vector<std::uint64_t>;

// Result of an allocation: the page's base address plus the linear frame
// permission that authorizes access to its bytes.
struct PageAlloc {
  PagePtr ptr;
  FramePerm perm;
};

class PageAllocator {
 public:
  // Manages frames [reserved_frames, total_frames) of a machine with
  // `total_frames` 4 KiB frames. Frames below `reserved_frames` are
  // kUnavailable (boot/kernel image; frame 0 doubles as the null pointer).
  PageAllocator(std::uint64_t total_frames, std::uint64_t reserved_frames);

  PageAllocator(PageAllocator&&) noexcept = default;
  PageAllocator& operator=(PageAllocator&&) noexcept = default;

  // --- Allocation / free (kernel-object pages, state kAllocated) ---

  // Allocates one page of the given size class, charged to `owner`
  // (kNullPtr for boot-time allocations). Returns nullopt when out of
  // memory. For 2M/1G the allocator first tries its free list, then tries
  // to merge smaller pages.
  std::optional<PageAlloc> AllocPage4K(CtnrPtr owner);
  std::optional<PageAlloc> AllocPage2M(CtnrPtr owner);
  std::optional<PageAlloc> AllocPage1G(CtnrPtr owner);
  std::optional<PageAlloc> AllocPage(PageSize size, CtnrPtr owner);

  // Frees an allocated page, consuming its permission.
  void FreePage(PagePtr ptr, FramePerm perm);

  // --- Mapped-state transitions (user mappings) ---

  // Converts a freshly allocated page into the mapped state (map-count 1).
  // The frame permission migrates to the virtual-memory subsystem.
  void MarkMapped(PagePtr ptr);
  // Additional mapping of an already-mapped page (shared memory / IPC page
  // grant). Returns the new map count.
  std::uint32_t IncMapCount(PagePtr ptr);
  // Removes one mapping. Returns the remaining count; at zero the caller
  // must hand the frame permission back via ReclaimUnmapped().
  std::uint32_t DecMapCount(PagePtr ptr);
  // Returns a fully unmapped page (map count 0) to the free list.
  void ReclaimUnmapped(PagePtr ptr, FramePerm perm);

  std::uint32_t MapCount(PagePtr ptr) const;

  // --- Superpage merge / split ---

  // Merges 512 contiguous free 4 KiB pages at `base` (2 MiB aligned) into
  // one free 2 MiB page. Constant-time list removal per constituent.
  bool TryMerge2M(PagePtr base);
  // Merges 512 contiguous free 2 MiB units at `base` (1 GiB aligned).
  bool TryMerge1G(PagePtr base);
  // Scans the page array for a mergeable run (paper: "we scan the page
  // array"). Returns the merged page base or nullopt. The allocation paths
  // no longer call these: the coalescing index (below) proves the scan
  // futile whenever it holds no candidate. They remain as the documented
  // fallback for explicit compaction and as the reference the differential
  // test scans with.
  std::optional<PagePtr> Merge2MAnywhere();
  std::optional<PagePtr> Merge1GAnywhere();
  // Splits a free 2 MiB page back into 512 free 4 KiB pages.
  void Split2M(PagePtr base);
  void Split1G(PagePtr base);

  // --- Introspection / ghost state ---

  PageState StateOf(PagePtr ptr) const;
  PageSize SizeClassOf(PagePtr ptr) const;
  CtnrPtr OwnerOf(PagePtr ptr) const;
  // Re-attributes a page to a different container (resource harvesting on
  // container termination).
  void SetOwner(PagePtr ptr, CtnrPtr owner);

  std::uint64_t total_frames() const { return static_cast<std::uint64_t>(meta_.size()); }
  std::uint64_t reserved_frames() const { return reserved_frames_; }
  std::uint64_t FreeCount(PageSize size) const;

  // Ghost views (Listing 4: free_pages_4k(), allocated_pages_4k(), ...).
  SpecSet<PagePtr> FreePages(PageSize size) const;
  SpecSet<PagePtr> AllocatedPages() const;  // unit bases, any size class
  SpecSet<PagePtr> MappedPages() const;     // unit bases, any size class
  // All 4 KiB frame base addresses covered by allocated+mapped+merged pages.
  SpecSet<PagePtr> InUseFrames() const;

  // The O(frames) ghost views as ascending streams, their one definition:
  // each calls emit(ptr) once per member in increasing order, stops as soon
  // as emit returns false, and returns whether it ran to the end (the
  // stream contract of src/vstd/persistent_tree.h). The views above are
  // built from them; consumers that only compare or tally a view (the
  // refinement audit, Wf) read the stream instead of building the view.
  //
  // Free pages of `size` are the members of that size class's free list
  // (list membership, not the frames' recorded states): the list is marked
  // into `marks` and read back in frame order. A cyclic list ends where it
  // closes.
  template <typename Emit>
  bool ForEachFreePage(PageSize size, FrameBitmap* marks, Emit emit) const;
  // Unit bases in `state` (kAllocated, kMapped, ...).
  template <typename Emit>
  bool ForEachPageIn(PageState state, Emit emit) const;
  // Allocated and mapped unit bases in one pass: emit(ptr, state).
  template <typename Emit>
  bool ForEachInUsePage(Emit emit) const;

  // Structural invariant of the allocator itself: list links are mutually
  // consistent, states agree with list membership, merged tails point at a
  // live superpage head, every frame is in exactly one state, and the
  // coalescing index (per-group free counters + mergeable heaps) agrees
  // with the ground truth in meta_. Single span-skipping pass over meta_
  // plus O(free-list nodes) link walks.
  bool Wf() const;
  // The pre-optimization multi-pass implementation of the same predicate,
  // retained as the oracle for the verdict-identity test. Checks the same
  // obligations (including the index cross-check) with independent code.
  bool WfReference() const;

  // Dedup-drains the set of frames whose abstract attribution (state, size
  // class, owner or map count) may have changed since the last drain.
  void DrainDirtyInto(std::vector<PagePtr>* out, bool* overflow) { dirty_.DrainInto(out, overflow); }

  // Deep copy for the verification harness, with an empty mutation log.
  PageAllocator CloneForVerification() const;

 private:
  friend struct PageAllocatorTestPeer;

  static constexpr std::uint64_t kNilFrame = ~0ull;

  struct PageMeta {
    PageState state = PageState::kUnavailable;
    PageSize size = PageSize::k4K;     // size class of the unit this frame heads
    std::uint64_t prev = kNilFrame;    // free-list links (frame indices)
    std::uint64_t next = kNilFrame;
    std::uint64_t merged_head = kNilFrame;  // for kMerged: head frame of the unit
    std::uint32_t map_count = 0;
    CtnrPtr owner = kNullPtr;
  };

  struct FreeList {
    std::uint64_t head = kNilFrame;
    std::uint64_t count = 0;
  };

  std::uint64_t FrameOf(PagePtr ptr) const;
  PagePtr PtrOf(std::uint64_t frame) const { return frame * kPageSize4K; }
  FreeList& ListFor(PageSize size);
  const FreeList& ListFor(PageSize size) const;

  void PushFree(std::uint64_t frame, PageSize size);
  // Unlinks `frame` from its free list in constant time.
  void UnlinkFree(std::uint64_t frame);
  std::optional<std::uint64_t> PopFree(PageSize size);

  std::optional<PageAlloc> AllocFrom(PageSize size, CtnrPtr owner);

  // --- Coalescing index (DESIGN.md §10) ---
  //
  // PushFree/UnlinkFree are the only free-state transition points, so they
  // maintain exact per-group counters: free_in_2m_[g] counts free 4K frames
  // in 2M group g; free_eq_1g_[r] counts free 4K-frame-equivalents in 1G
  // region r (a free 4K frame adds 1, a free 2M unit adds 512; a free 1G
  // page adds nothing — it needs no coalescing). When a counter reaches its
  // unit span the group is provably coalescible and its index is pushed
  // onto a min-heap; the flag vectors record heap membership so a group is
  // never pushed twice. Counters dropping below full do NOT remove the heap
  // entry — stale entries are discarded on pop (amortized O(1), each entry
  // is paid for by one full-transition). Invariant (cross-checked by Wf):
  // counter full => flagged, and flagged <=> exactly one heap entry.
  void NoteFreed(std::uint64_t frame, PageSize size);
  void NoteUnfreed(std::uint64_t frame, PageSize size);
  // Pop the lowest provably coalescible group/region, merge it, and return
  // the merged base. Min-heap order makes the choice identical to what a
  // low-to-high scan would find, which the differential test relies on.
  std::optional<PagePtr> Coalesce2MIndexed();
  std::optional<PagePtr> Coalesce1GIndexed();
  // Ensures free_2m_ is non-empty (coalescing a full group or splitting a
  // 1G unit if needed) and returns its head, or nullopt when exhausted.
  std::optional<PagePtr> TakeFree2MUnit();

  bool CheckFreeListLinks() const;
  bool CheckCoalescingHeaps() const;

  std::uint64_t reserved_frames_;
  std::vector<PageMeta> meta_;
  FreeList free_4k_;
  FreeList free_2m_;
  FreeList free_1g_;
  std::vector<std::uint32_t> free_in_2m_;   // free 4K frames per 2M group
  std::vector<std::uint64_t> free_eq_1g_;   // free frame-equivalents per 1G region
  std::vector<std::uint8_t> in_mergeable_2m_;
  std::vector<std::uint8_t> in_mergeable_1g_;
  std::vector<std::uint64_t> mergeable_2m_;  // min-heap of coalescible group indices
  std::vector<std::uint64_t> mergeable_1g_;  // min-heap of coalescible region indices
  DirtyLog dirty_;
};

template <typename Emit>
bool PageAllocator::ForEachFreePage(PageSize size, FrameBitmap* marks, Emit emit) const {
  const std::size_t words = (meta_.size() + 63) / 64;
  if (marks->size() < words) {
    marks->resize(words);
  }
  std::uint64_t* bits = marks->data();
  std::uint64_t cur = ListFor(size).head;
  for (; cur < meta_.size(); cur = meta_[cur].next) {
    const std::uint64_t bit = std::uint64_t{1} << (cur % 64);
    if ((bits[cur / 64] & bit) != 0) {
      break;  // the list cycles back: the rest is already marked
    }
    bits[cur / 64] |= bit;
  }
  // Read back in frame order; every word is cleared, after an early stop too.
  bool complete = true;
  for (std::size_t w = 0; w < words; ++w) {
    std::uint64_t word = std::exchange(bits[w], 0);
    while (complete && word != 0) {
      complete = emit(PtrOf(w * 64 + static_cast<std::uint64_t>(std::countr_zero(word))));
      word &= word - 1;
    }
  }
  ATMO_CHECK(cur == kNilFrame || cur < meta_.size(), "free list links outside the frame array");
  return complete;
}

template <typename Emit>
bool PageAllocator::ForEachPageIn(PageState state, Emit emit) const {
  for (std::uint64_t frame = 0; frame < meta_.size(); ++frame) {
    if (meta_[frame].state == state && !emit(PtrOf(frame))) {
      return false;
    }
  }
  return true;
}

template <typename Emit>
bool PageAllocator::ForEachInUsePage(Emit emit) const {
  for (std::uint64_t frame = 0; frame < meta_.size(); ++frame) {
    const PageState state = meta_[frame].state;
    if ((state == PageState::kAllocated || state == PageState::kMapped) &&
        !emit(PtrOf(frame), state)) {
      return false;
    }
  }
  return true;
}

}  // namespace atmo

#endif  // ATMO_SRC_PMEM_PAGE_ALLOCATOR_H_
