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

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "src/hw/phys_mem.h"
#include "src/vstd/check.h"
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

// One bit per frame (bit b of word w is frame 64w + b): what a free list is
// marked into (PageAllocator::MarkFreeList). A caller that marks repeatedly
// keeps one and allocates once.
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

  // Free pages of `size`, their one definition: the members of that size
  // class's free list (list membership, not the frames' recorded states),
  // marked into `marks`, which is first cleared and sized to the machine
  // (its capacity kept). A cyclic list ends where it closes.
  void MarkFreeList(PageSize size, FrameBitmap* marks) const;

  // The other O(frames) ghost views as ascending streams, their one
  // definition: each calls emit(ptr) once per member in increasing order,
  // stops as soon as emit returns false, and returns whether it ran to the
  // end (the stream contract of src/vstd/persistent_tree.h). The views
  // above are built from them; consumers that only compare or tally a view
  // (the refinement audit, Wf) read the stream instead of building the view.
  //
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

  static constexpr std::uint64_t kNilFrame = ~0ull;

  struct PageMeta {
    PageState state = PageState::kUnavailable;
    PageSize size = PageSize::k4K;     // size class of the unit this frame heads
    // Set while the frame has a record in the current write log (Write()).
    bool recorded = false;
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

  // --- The write log (one write path for allocator state) ---
  //
  // Every write to a frame's metadata, a coalescing counter or flag, or a
  // free list's head and count goes through an accessor that records the
  // written object's value as it was before its first write since the last
  // drain. The records are the allocator's dirty set (less the frames whose
  // abstract view cannot have changed), so a write that the log misses
  // cannot exist outside this file. LocalWf reads
  // the records as the pre-state of everything written. The log is off
  // until the first drain (the drain reports an overflow), so an allocator
  // that nothing drains records nothing.
  struct FrameRecord {
    std::uint64_t frame;
    PageMeta before;
  };
  struct CounterRecord {
    std::uint64_t index;  // 2M group or 1G region
    std::uint64_t free_before;
  };
  struct ListRecord {
    PageSize size;
    FreeList before;
  };
  struct Writes {
    std::vector<FrameRecord> frames;
    std::vector<CounterRecord> groups;
    std::vector<CounterRecord> regions;
    std::vector<ListRecord> lists;
    bool overflow = false;  // records were dropped: the log is not exhaustive

    std::size_t Size() const {
      return frames.size() + groups.size() + regions.size() + lists.size();
    }
    void Clear();
    // Appends `later`, the records of a later drain.
    void Append(const Writes& later);
    // Sorts each kind by key and keeps each key's first record: after
    // Append-ing drains oldest first, that is the value before the first
    // write of the whole span.
    void KeepOldest();
    // The record of `frame`, or null; KeepOldest() must have run.
    const FrameRecord* Find(std::uint64_t frame) const;
  };
  // Records per drain before the log gives up and reports an overflow.
  static constexpr std::size_t kWriteLogCap = std::size_t{1} << 16;

  // Drains the write log: the written frames whose abstract view may have
  // changed, ascending, into `pages` (the allocator's dirty set), and the
  // records, appended to `writes` unless it is null. An overflowed log sets
  // `*overflow` instead.
  void DrainWrites(std::vector<PagePtr>* pages, bool* overflow, Writes* writes);

  // Well-formedness of the allocator by induction (Kernel::LocalWf): given
  // that Wf() held when the records' span began and `writes` holds every
  // write since (KeepOldest applied), decides Wf() reading only the
  // recorded objects, their old and new free-list neighbours and the unit
  // heads that cover them. Returns the failed clause, or nullptr; adds the
  // metadata entries read to `*entries`. `run` is scratch for each list's
  // head run, kept by the caller with its capacity.
  const char* LocalWf(const Writes& writes, std::vector<std::uint64_t>* run,
                      std::uint64_t* entries) const;

  // Deep copy for the verification harness, with an empty write log.
  PageAllocator CloneForVerification() const;

 private:
  friend struct PageAllocatorTestPeer;

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

  // Appends `record` to the write log, which has not overflowed; false when
  // the log is at its cap and overflows now.
  template <typename Record>
  bool Log(std::vector<Record>* records, const Record& record);
  // The write path: each returns the object for writing after recording
  // it (see Writes).
  PageMeta& Write(std::uint64_t frame);
  FreeList& WriteList(PageSize size);
  // Records 2M group `group` (counter and heap flag) / 1G region `region`.
  void RecordGroup(std::uint64_t group);
  void RecordRegion(std::uint64_t region);
  // Clears the marks of everything the write log holds.
  void ClearMarks();
  // Drops every record and clears their marks; the next drain reports an
  // overflow.
  void OverflowWrites();
  // LocalWf's per-frame obligations for `frame` (state, alignment, the
  // unit that covers it, and its old unit's tails); `before` is its
  // metadata when the records began. Returns the failed clause, or nullptr.
  const char* LocalFrameWf(std::uint64_t frame, const PageMeta& before,
                           std::uint64_t* entries) const;
  // LocalWf's free-list obligation for one size class.
  const char* LocalListWf(PageSize size, const Writes& writes, std::vector<std::uint64_t>* run,
                          std::uint64_t* entries) const;

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
  // The write log and the marks of what it holds (groups, regions, lists;
  // frames carry theirs in PageMeta::recorded).
  Writes writes_;
  std::vector<std::uint8_t> group_recorded_;
  std::vector<std::uint8_t> region_recorded_;
  std::uint8_t list_recorded_[3] = {0, 0, 0};
};

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
