#include "src/pmem/page_allocator.h"

#include <algorithm>
#include <functional>

#include "src/obs/flight_recorder.h"
#include "src/vstd/check.h"

namespace atmo {

namespace {
constexpr std::uint64_t kFramesPer2M = kPageSize2M / kPageSize4K;  // 512
constexpr std::uint64_t kFramesPer1G = kPageSize1G / kPageSize4K;  // 262144

// Static-duration event names, keyed by size class (the trace-event payload
// keeps raw pointers to these).
constexpr const char* AllocEventName(PageSize size) {
  switch (size) {
    case PageSize::k4K:
      return "alloc.4k";
    case PageSize::k2M:
      return "alloc.2m";
    case PageSize::k1G:
      return "alloc.1g";
  }
  return "alloc.?";
}

constexpr const char* FreeEventName(PageSize size) {
  switch (size) {
    case PageSize::k4K:
      return "free.4k";
    case PageSize::k2M:
      return "free.2m";
    case PageSize::k1G:
      return "free.1g";
  }
  return "free.?";
}
}  // namespace

const char* PageStateName(PageState state) {
  switch (state) {
    case PageState::kUnavailable:
      return "unavailable";
    case PageState::kFree:
      return "free";
    case PageState::kMapped:
      return "mapped";
    case PageState::kMerged:
      return "merged";
    case PageState::kAllocated:
      return "allocated";
  }
  return "?";
}

PageAllocator::PageAllocator(std::uint64_t total_frames, std::uint64_t reserved_frames)
    : reserved_frames_(reserved_frames),
      meta_(total_frames),
      free_in_2m_((total_frames + kFramesPer2M - 1) / kFramesPer2M, 0),
      free_eq_1g_((total_frames + kFramesPer1G - 1) / kFramesPer1G, 0),
      in_mergeable_2m_(free_in_2m_.size(), 0),
      in_mergeable_1g_(free_eq_1g_.size(), 0) {
  ATMO_CHECK(reserved_frames >= 1, "frame 0 (null pointer) must be reserved");
  ATMO_CHECK(reserved_frames <= total_frames, "reserved frames exceed total frames");
  // All managed frames boot as free 4 KiB pages. Push back-to-front so the
  // list pops low addresses first (deterministic allocation order).
  for (std::uint64_t frame = total_frames; frame-- > reserved_frames;) {
    PushFree(frame, PageSize::k4K);
  }
}

std::uint64_t PageAllocator::FrameOf(PagePtr ptr) const {
  ATMO_CHECK(ptr % kPageSize4K == 0, "page pointer not 4K aligned");
  std::uint64_t frame = ptr / kPageSize4K;
  ATMO_CHECK(frame < meta_.size(), "page pointer out of range");
  return frame;
}

PageAllocator::FreeList& PageAllocator::ListFor(PageSize size) {
  switch (size) {
    case PageSize::k4K:
      return free_4k_;
    case PageSize::k2M:
      return free_2m_;
    case PageSize::k1G:
      return free_1g_;
  }
  return free_4k_;
}

const PageAllocator::FreeList& PageAllocator::ListFor(PageSize size) const {
  return const_cast<PageAllocator*>(this)->ListFor(size);
}

void PageAllocator::PushFree(std::uint64_t frame, PageSize size) {
  dirty_.Mark(PtrOf(frame));
  FreeList& list = ListFor(size);
  PageMeta& meta = meta_[frame];
  meta.state = PageState::kFree;
  meta.size = size;
  meta.owner = kNullPtr;
  meta.map_count = 0;
  meta.merged_head = kNilFrame;
  meta.prev = kNilFrame;
  meta.next = list.head;
  if (list.head != kNilFrame) {
    meta_[list.head].prev = frame;
  }
  list.head = frame;
  ++list.count;
  NoteFreed(frame, size);
}

void PageAllocator::NoteFreed(std::uint64_t frame, PageSize size) {
  if (size == PageSize::k1G) {
    return;  // a whole free 1G page needs no coalescing
  }
  std::uint64_t region = frame / kFramesPer1G;
  if (size == PageSize::k4K) {
    std::uint64_t group = frame / kFramesPer2M;
    if (++free_in_2m_[group] == kFramesPer2M && !in_mergeable_2m_[group]) {
      in_mergeable_2m_[group] = 1;
      // averif-lint: allow(hot-path-alloc) — mergeable-group heap grows only when a 2M group first becomes fully free; vector capacity is retained
      mergeable_2m_.push_back(group);
      std::push_heap(mergeable_2m_.begin(), mergeable_2m_.end(), std::greater<>());
    }
    free_eq_1g_[region] += 1;
  } else {
    free_eq_1g_[region] += kFramesPer2M;
  }
  if (free_eq_1g_[region] == kFramesPer1G && !in_mergeable_1g_[region]) {
    in_mergeable_1g_[region] = 1;
    // averif-lint: allow(hot-path-alloc) — mergeable-region heap grows only when a 1G region first becomes fully free; vector capacity is retained
    mergeable_1g_.push_back(region);
    std::push_heap(mergeable_1g_.begin(), mergeable_1g_.end(), std::greater<>());
  }
}

void PageAllocator::NoteUnfreed(std::uint64_t frame, PageSize size) {
  if (size == PageSize::k1G) {
    return;
  }
  std::uint64_t region = frame / kFramesPer1G;
  if (size == PageSize::k4K) {
    std::uint64_t group = frame / kFramesPer2M;
    ATMO_CHECK(free_in_2m_[group] > 0, "2M group free counter underflow");
    --free_in_2m_[group];
    ATMO_CHECK(free_eq_1g_[region] >= 1, "1G region free counter underflow");
    free_eq_1g_[region] -= 1;
  } else {
    ATMO_CHECK(free_eq_1g_[region] >= kFramesPer2M, "1G region free counter underflow");
    free_eq_1g_[region] -= kFramesPer2M;
  }
}

void PageAllocator::UnlinkFree(std::uint64_t frame) {
  dirty_.Mark(PtrOf(frame));
  PageMeta& meta = meta_[frame];
  ATMO_CHECK(meta.state == PageState::kFree, "UnlinkFree on non-free page");
  FreeList& list = ListFor(meta.size);
  if (meta.prev != kNilFrame) {
    meta_[meta.prev].next = meta.next;
  } else {
    ATMO_CHECK(list.head == frame, "free-list head corruption");
    list.head = meta.next;
  }
  if (meta.next != kNilFrame) {
    meta_[meta.next].prev = meta.prev;
  }
  meta.prev = kNilFrame;
  meta.next = kNilFrame;
  ATMO_CHECK(list.count > 0, "free-list count underflow");
  --list.count;
  NoteUnfreed(frame, meta.size);
}

std::optional<std::uint64_t> PageAllocator::PopFree(PageSize size) {
  FreeList& list = ListFor(size);
  if (list.head == kNilFrame) {
    return std::nullopt;
  }
  std::uint64_t frame = list.head;
  UnlinkFree(frame);
  return frame;
}

std::optional<PageAlloc> PageAllocator::AllocFrom(PageSize size, CtnrPtr owner) {
  std::optional<std::uint64_t> frame = PopFree(size);
  if (!frame.has_value()) {
    return std::nullopt;
  }
  PageMeta& meta = meta_[*frame];
  meta.state = PageState::kAllocated;
  meta.size = size;
  meta.owner = owner;
  ATMO_OBS_INSTANT_ARG(obs::kCatAlloc, AllocEventName(size), "ptr", PtrOf(*frame));
  return PageAlloc{PtrOf(*frame), FramePerm::Mint(PtrOf(*frame), size)};
}

std::optional<PagePtr> PageAllocator::Coalesce2MIndexed() {
  while (!mergeable_2m_.empty()) {
    std::pop_heap(mergeable_2m_.begin(), mergeable_2m_.end(), std::greater<>());
    std::uint64_t group = mergeable_2m_.back();
    mergeable_2m_.pop_back();
    in_mergeable_2m_[group] = 0;
    if (free_in_2m_[group] != kFramesPer2M) {
      continue;  // stale: the group lost a frame since it was flagged
    }
    PagePtr base = PtrOf(group * kFramesPer2M);
    bool merged = TryMerge2M(base);
    ATMO_CHECK(merged, "fully free 2M group failed to coalesce");
    return base;
  }
  return std::nullopt;
}

std::optional<PagePtr> PageAllocator::Coalesce1GIndexed() {
  while (!mergeable_1g_.empty()) {
    std::pop_heap(mergeable_1g_.begin(), mergeable_1g_.end(), std::greater<>());
    std::uint64_t region = mergeable_1g_.back();
    mergeable_1g_.pop_back();
    in_mergeable_1g_[region] = 0;
    if (free_eq_1g_[region] != kFramesPer1G) {
      continue;  // stale
    }
    // Every frame in the region is a free 4K page or covered by a free 2M
    // unit, so each constituent group is either a free 2M unit already or
    // merges from 512 free 4K frames.
    std::uint64_t head = region * kFramesPer1G;
    for (std::uint64_t unit = 0; unit < kFramesPer1G; unit += kFramesPer2M) {
      const PageMeta& meta = meta_[head + unit];
      if (meta.state == PageState::kFree && meta.size == PageSize::k2M) {
        continue;
      }
      bool merged = TryMerge2M(PtrOf(head + unit));
      ATMO_CHECK(merged, "group of a fully free 1G region failed to coalesce");
    }
    PagePtr base = PtrOf(head);
    bool merged = TryMerge1G(base);
    ATMO_CHECK(merged, "fully free 1G region failed to coalesce");
    return base;
  }
  return std::nullopt;
}

std::optional<PagePtr> PageAllocator::TakeFree2MUnit() {
  if (free_2m_.head != kNilFrame) {
    return PtrOf(free_2m_.head);
  }
  if (std::optional<PagePtr> merged = Coalesce2MIndexed(); merged.has_value()) {
    return merged;
  }
  std::optional<PagePtr> big = free_1g_.head != kNilFrame
                                   ? std::optional<PagePtr>(PtrOf(free_1g_.head))
                                   : Coalesce1GIndexed();
  if (!big.has_value()) {
    return std::nullopt;
  }
  Split1G(*big);
  return PtrOf(free_2m_.head);
}

std::optional<PageAlloc> PageAllocator::AllocPage4K(CtnrPtr owner) {
  if (free_4k_.head == kNilFrame) {
    // Split path: rebuild the 4K list from one 2M unit (itself possibly
    // split out of a 1G unit) without scanning meta_.
    std::optional<PagePtr> unit = TakeFree2MUnit();
    if (!unit.has_value()) {
      return std::nullopt;
    }
    Split2M(*unit);
  }
  return AllocFrom(PageSize::k4K, owner);
}

std::optional<PageAlloc> PageAllocator::AllocPage2M(CtnrPtr owner) {
  if (!TakeFree2MUnit().has_value()) {
    return std::nullopt;
  }
  return AllocFrom(PageSize::k2M, owner);
}

std::optional<PageAlloc> PageAllocator::AllocPage1G(CtnrPtr owner) {
  if (free_1g_.head == kNilFrame && !Coalesce1GIndexed().has_value()) {
    return std::nullopt;
  }
  return AllocFrom(PageSize::k1G, owner);
}

std::optional<PageAlloc> PageAllocator::AllocPage(PageSize size, CtnrPtr owner) {
  switch (size) {
    case PageSize::k4K:
      return AllocPage4K(owner);
    case PageSize::k2M:
      return AllocPage2M(owner);
    case PageSize::k1G:
      return AllocPage1G(owner);
  }
  return std::nullopt;
}

void PageAllocator::FreePage(PagePtr ptr, FramePerm perm) {
  std::uint64_t frame = FrameOf(ptr);
  PageMeta& meta = meta_[frame];
  ATMO_CHECK(meta.state == PageState::kAllocated, "FreePage on page not in allocated state");
  ATMO_CHECK(perm.base() == ptr, "FreePage permission for a different page");
  ATMO_CHECK(perm.size() == meta.size, "FreePage permission of wrong size class");
  ATMO_OBS_INSTANT_ARG(obs::kCatAlloc, FreeEventName(meta.size), "ptr", ptr);
  PushFree(frame, meta.size);
  // `perm` is consumed here: the linear token returns to the allocator.
}

void PageAllocator::MarkMapped(PagePtr ptr) {
  PageMeta& meta = meta_[FrameOf(ptr)];
  ATMO_CHECK(meta.state == PageState::kAllocated, "MarkMapped on page not in allocated state");
  dirty_.Mark(ptr);
  meta.state = PageState::kMapped;
  meta.map_count = 1;
}

std::uint32_t PageAllocator::IncMapCount(PagePtr ptr) {
  PageMeta& meta = meta_[FrameOf(ptr)];
  ATMO_CHECK(meta.state == PageState::kMapped, "IncMapCount on unmapped page");
  dirty_.Mark(ptr);
  return ++meta.map_count;
}

std::uint32_t PageAllocator::DecMapCount(PagePtr ptr) {
  PageMeta& meta = meta_[FrameOf(ptr)];
  ATMO_CHECK(meta.state == PageState::kMapped, "DecMapCount on unmapped page");
  ATMO_CHECK(meta.map_count > 0, "map count underflow");
  dirty_.Mark(ptr);
  return --meta.map_count;
}

void PageAllocator::ReclaimUnmapped(PagePtr ptr, FramePerm perm) {
  std::uint64_t frame = FrameOf(ptr);
  PageMeta& meta = meta_[frame];
  ATMO_CHECK(meta.state == PageState::kMapped && meta.map_count == 0,
             "ReclaimUnmapped on page that is still mapped");
  ATMO_CHECK(perm.base() == ptr && perm.size() == meta.size,
             "ReclaimUnmapped permission mismatch");
  ATMO_OBS_INSTANT_ARG(obs::kCatAlloc, FreeEventName(meta.size), "ptr", ptr);
  PushFree(frame, meta.size);
}

std::uint32_t PageAllocator::MapCount(PagePtr ptr) const {
  return meta_[FrameOf(ptr)].map_count;
}

bool PageAllocator::TryMerge2M(PagePtr base) {
  std::uint64_t head = FrameOf(base);
  if (head % kFramesPer2M != 0 || head + kFramesPer2M > meta_.size()) {
    return false;
  }
  for (std::uint64_t i = 0; i < kFramesPer2M; ++i) {
    const PageMeta& meta = meta_[head + i];
    if (meta.state != PageState::kFree || meta.size != PageSize::k4K) {
      return false;
    }
  }
  // Constant-time removal of each constituent from the 4K free list via the
  // back-pointers in the metadata array.
  for (std::uint64_t i = 0; i < kFramesPer2M; ++i) {
    UnlinkFree(head + i);
  }
  for (std::uint64_t i = 1; i < kFramesPer2M; ++i) {
    PageMeta& meta = meta_[head + i];
    meta.state = PageState::kMerged;
    meta.merged_head = head;
  }
  PushFree(head, PageSize::k2M);
  return true;
}

bool PageAllocator::TryMerge1G(PagePtr base) {
  std::uint64_t head = FrameOf(base);
  if (head % kFramesPer1G != 0 || head + kFramesPer1G > meta_.size()) {
    return false;
  }
  for (std::uint64_t unit = 0; unit < kFramesPer1G; unit += kFramesPer2M) {
    const PageMeta& meta = meta_[head + unit];
    if (meta.state != PageState::kFree || meta.size != PageSize::k2M) {
      return false;
    }
  }
  for (std::uint64_t unit = 0; unit < kFramesPer1G; unit += kFramesPer2M) {
    UnlinkFree(head + unit);
  }
  for (std::uint64_t i = 1; i < kFramesPer1G; ++i) {
    PageMeta& meta = meta_[head + i];
    meta.state = PageState::kMerged;
    meta.merged_head = head;
  }
  PushFree(head, PageSize::k1G);
  return true;
}

std::optional<PagePtr> PageAllocator::Merge2MAnywhere() {
  // Scan the page array for an aligned run of 512 free 4K pages.
  for (std::uint64_t head = 0; head + kFramesPer2M <= meta_.size(); head += kFramesPer2M) {
    if (head < reserved_frames_) {
      continue;
    }
    if (TryMerge2M(PtrOf(head))) {
      return PtrOf(head);
    }
  }
  return std::nullopt;
}

std::optional<PagePtr> PageAllocator::Merge1GAnywhere() {
  for (std::uint64_t head = 0; head + kFramesPer1G <= meta_.size(); head += kFramesPer1G) {
    if (head < reserved_frames_) {
      continue;
    }
    // Opportunistically merge all constituent 2M units first.
    for (std::uint64_t unit = 0; unit < kFramesPer1G; unit += kFramesPer2M) {
      const PageMeta& meta = meta_[head + unit];
      if (meta.state == PageState::kFree && meta.size == PageSize::k4K) {
        TryMerge2M(PtrOf(head + unit));
      }
    }
    if (TryMerge1G(PtrOf(head))) {
      return PtrOf(head);
    }
  }
  return std::nullopt;
}

void PageAllocator::Split2M(PagePtr base) {
  std::uint64_t head = FrameOf(base);
  PageMeta& meta = meta_[head];
  ATMO_CHECK(meta.state == PageState::kFree && meta.size == PageSize::k2M,
             "Split2M on page that is not a free 2M page");
  UnlinkFree(head);
  for (std::uint64_t i = 0; i < kFramesPer2M; ++i) {
    PushFree(head + i, PageSize::k4K);
  }
}

void PageAllocator::Split1G(PagePtr base) {
  std::uint64_t head = FrameOf(base);
  PageMeta& meta = meta_[head];
  ATMO_CHECK(meta.state == PageState::kFree && meta.size == PageSize::k1G,
             "Split1G on page that is not a free 1G page");
  UnlinkFree(head);
  for (std::uint64_t unit = 0; unit < kFramesPer1G; unit += kFramesPer2M) {
    PushFree(head + unit, PageSize::k2M);
    for (std::uint64_t i = 1; i < kFramesPer2M; ++i) {
      PageMeta& tail = meta_[head + unit + i];
      tail.state = PageState::kMerged;
      tail.merged_head = head + unit;
    }
  }
}

PageState PageAllocator::StateOf(PagePtr ptr) const { return meta_[FrameOf(ptr)].state; }

PageSize PageAllocator::SizeClassOf(PagePtr ptr) const { return meta_[FrameOf(ptr)].size; }

CtnrPtr PageAllocator::OwnerOf(PagePtr ptr) const { return meta_[FrameOf(ptr)].owner; }

void PageAllocator::SetOwner(PagePtr ptr, CtnrPtr owner) {
  PageMeta& meta = meta_[FrameOf(ptr)];
  ATMO_CHECK(meta.state == PageState::kAllocated || meta.state == PageState::kMapped,
             "SetOwner on page that is not allocated or mapped");
  dirty_.Mark(ptr);
  meta.owner = owner;
}

std::uint64_t PageAllocator::FreeCount(PageSize size) const { return ListFor(size).count; }

SpecSet<PagePtr> PageAllocator::FreePages(PageSize size) const {
  FrameBitmap marks;
  return SpecSet<PagePtr>::FromSorted(
      [&](auto emit) { return ForEachFreePage(size, &marks, emit); });
}

SpecSet<PagePtr> PageAllocator::AllocatedPages() const {
  return SpecSet<PagePtr>::FromSorted(
      [this](auto emit) { return ForEachPageIn(PageState::kAllocated, emit); });
}

SpecSet<PagePtr> PageAllocator::MappedPages() const {
  return SpecSet<PagePtr>::FromSorted(
      [this](auto emit) { return ForEachPageIn(PageState::kMapped, emit); });
}

SpecSet<PagePtr> PageAllocator::InUseFrames() const {
  SpecSet<PagePtr> out;
  for (std::uint64_t frame = 0; frame < meta_.size(); ++frame) {
    PageState state = meta_[frame].state;
    if (state == PageState::kAllocated || state == PageState::kMapped ||
        state == PageState::kMerged) {
      out.add(PtrOf(frame));
    }
  }
  return out;
}

bool PageAllocator::CheckFreeListLinks() const {
  // Free lists: every node is a free page of the list's size class and the
  // doubly-linked structure is consistent. O(list nodes).
  for (PageSize size : {PageSize::k4K, PageSize::k2M, PageSize::k1G}) {
    const FreeList& list = ListFor(size);
    std::uint64_t count = 0;
    std::uint64_t prev = kNilFrame;
    for (std::uint64_t cur = list.head; cur != kNilFrame; cur = meta_[cur].next) {
      if (cur >= meta_.size()) {
        return false;
      }
      const PageMeta& meta = meta_[cur];
      if (meta.state != PageState::kFree || meta.size != size || meta.prev != prev) {
        return false;
      }
      prev = cur;
      if (++count > meta_.size()) {
        return false;  // cycle
      }
    }
    if (count != list.count) {
      return false;
    }
  }
  return true;
}

bool PageAllocator::CheckCoalescingHeaps() const {
  // Heap membership must agree with the flag vectors: flagged <=> exactly
  // one heap entry, and every entry indexes a real group/region.
  std::uint64_t flagged_2m = 0;
  for (std::uint8_t flag : in_mergeable_2m_) {
    flagged_2m += flag;
  }
  if (mergeable_2m_.size() != flagged_2m) {
    return false;
  }
  for (std::uint64_t group : mergeable_2m_) {
    if (group >= in_mergeable_2m_.size() || !in_mergeable_2m_[group]) {
      return false;
    }
  }
  std::uint64_t flagged_1g = 0;
  for (std::uint8_t flag : in_mergeable_1g_) {
    flagged_1g += flag;
  }
  if (mergeable_1g_.size() != flagged_1g) {
    return false;
  }
  for (std::uint64_t region : mergeable_1g_) {
    if (region >= in_mergeable_1g_.size() || !in_mergeable_1g_[region]) {
      return false;
    }
  }
  // size == flagged-count plus every entry flagged implies entries are
  // distinct, so flagged <=> exactly one entry.
  return true;
}

bool PageAllocator::Wf() const {
  if (!CheckFreeListLinks() || !CheckCoalescingHeaps()) {
    return false;
  }

  // Single span-skipping pass over meta_: per-frame state/alignment checks,
  // tail checks for every multi-frame unit (allocated, mapped or free), and
  // recomputation of the coalescing counters from ground truth.
  std::vector<std::uint32_t> in_2m(free_in_2m_.size(), 0);
  std::vector<std::uint64_t> eq_1g(free_eq_1g_.size(), 0);
  std::uint64_t frame = 0;
  while (frame < meta_.size()) {
    const PageMeta& meta = meta_[frame];
    switch (meta.state) {
      case PageState::kUnavailable:
        if (frame >= reserved_frames_) {
          return false;
        }
        ++frame;
        continue;
      case PageState::kFree:
      case PageState::kAllocated:
      case PageState::kMapped: {
        std::uint64_t span = PageFrames4K(meta.size);
        // Unit heads must be aligned to their size class and fit the array.
        if (frame % span != 0 || frame + span > meta_.size()) {
          return false;
        }
        // Superpage tails must be merged into this unit (also catches
        // overlapping units).
        for (std::uint64_t i = 1; i < span; ++i) {
          const PageMeta& tail = meta_[frame + i];
          if (tail.state != PageState::kMerged || tail.merged_head != frame) {
            return false;
          }
        }
        if (meta.state == PageState::kMapped && meta.map_count == 0) {
          // Transiently legal only inside munmap; as a quiescent state a
          // mapped page must have at least one mapping... except the window
          // between DecMapCount and ReclaimUnmapped, which never spans a
          // Wf() check in the kernel. Treat as ill-formed here.
          return false;
        }
        if (meta.state == PageState::kFree && meta.size == PageSize::k4K) {
          // A free 4K frame passes every check above trivially, so take the
          // whole run of them up to the end of the 2M group at once and add
          // it to the group's counters once, not once per frame.
          const std::uint64_t group_end =
              std::min<std::uint64_t>((frame / kFramesPer2M + 1) * kFramesPer2M, meta_.size());
          std::uint64_t run_end = frame + 1;
          while (run_end < group_end && meta_[run_end].state == PageState::kFree &&
                 meta_[run_end].size == PageSize::k4K) {
            ++run_end;
          }
          in_2m[frame / kFramesPer2M] += static_cast<std::uint32_t>(run_end - frame);
          eq_1g[frame / kFramesPer1G] += run_end - frame;
          frame = run_end;
          continue;
        }
        if (meta.state == PageState::kFree && meta.size == PageSize::k2M) {
          eq_1g[frame / kFramesPer1G] += kFramesPer2M;
        }
        frame += span;
        continue;
      }
      case PageState::kMerged: {
        // A merged frame reached at top level was not covered by a preceding
        // head's span, so its back-pointer cannot be consistent; apply the
        // same head checks the reference implementation uses.
        std::uint64_t head = meta.merged_head;
        if (head == kNilFrame || head >= meta_.size()) {
          return false;
        }
        const PageMeta& head_meta = meta_[head];
        if (head_meta.state == PageState::kMerged || head_meta.state == PageState::kUnavailable) {
          return false;
        }
        std::uint64_t span = PageFrames4K(head_meta.size);
        if (head_meta.size == PageSize::k4K || frame <= head || frame >= head + span) {
          return false;
        }
        ++frame;
        continue;
      }
    }
    return false;  // corrupted state byte
  }

  // Counters must equal the ground truth, and every full group/region must
  // be flagged (the heaps may hold stale extras; never a missing candidate).
  for (std::uint64_t group = 0; group < free_in_2m_.size(); ++group) {
    if (free_in_2m_[group] != in_2m[group]) {
      return false;
    }
    if (in_2m[group] == kFramesPer2M && !in_mergeable_2m_[group]) {
      return false;
    }
  }
  for (std::uint64_t region = 0; region < free_eq_1g_.size(); ++region) {
    if (free_eq_1g_[region] != eq_1g[region]) {
      return false;
    }
    if (eq_1g[region] == kFramesPer1G && !in_mergeable_1g_[region]) {
      return false;
    }
  }
  return true;
}

bool PageAllocator::WfReference() const {
  // 1. Free lists (shared with Wf: identical obligation).
  if (!CheckFreeListLinks()) {
    return false;
  }

  // 2. Per-frame state checks.
  for (std::uint64_t frame = 0; frame < meta_.size(); ++frame) {
    const PageMeta& meta = meta_[frame];
    switch (meta.state) {
      case PageState::kUnavailable:
        if (frame >= reserved_frames_) {
          return false;
        }
        break;
      case PageState::kFree: {
        // Unit heads must be aligned to their size class.
        if (frame % PageFrames4K(meta.size) != 0) {
          return false;
        }
        if (frame + PageFrames4K(meta.size) > meta_.size()) {
          return false;
        }
        break;
      }
      case PageState::kAllocated:
      case PageState::kMapped: {
        if (frame % PageFrames4K(meta.size) != 0) {
          return false;
        }
        if (frame + PageFrames4K(meta.size) > meta_.size()) {
          return false;
        }
        // Superpage tails must be merged into this unit (also catches
        // overlapping units).
        for (std::uint64_t i = 1; i < PageFrames4K(meta.size); ++i) {
          const PageMeta& tail = meta_[frame + i];
          if (tail.state != PageState::kMerged || tail.merged_head != frame) {
            return false;
          }
        }
        if (meta.state == PageState::kMapped && meta.map_count == 0) {
          return false;
        }
        break;
      }
      case PageState::kMerged: {
        std::uint64_t head = meta.merged_head;
        if (head == kNilFrame || head >= meta_.size()) {
          return false;
        }
        const PageMeta& head_meta = meta_[head];
        if (head_meta.state == PageState::kMerged || head_meta.state == PageState::kUnavailable) {
          return false;
        }
        // This frame must lie within the head's unit span.
        std::uint64_t span = PageFrames4K(head_meta.size);
        if (head_meta.size == PageSize::k4K || frame <= head || frame >= head + span) {
          return false;
        }
        break;
      }
    }
  }

  // 3. Every free-list member of size S covers tails that are merged to it.
  for (PageSize size : {PageSize::k2M, PageSize::k1G}) {
    const FreeList& list = ListFor(size);
    for (std::uint64_t cur = list.head; cur != kNilFrame; cur = meta_[cur].next) {
      std::uint64_t span = PageFrames4K(size);
      for (std::uint64_t i = 1; i < span; ++i) {
        const PageMeta& tail = meta_[cur + i];
        if (tail.state != PageState::kMerged || tail.merged_head != cur) {
          return false;
        }
      }
    }
  }

  // 4. Coalescing index vs ground truth (same obligation as Wf, recomputed
  //    with an independent full pass).
  std::vector<std::uint32_t> in_2m(free_in_2m_.size(), 0);
  std::vector<std::uint64_t> eq_1g(free_eq_1g_.size(), 0);
  for (std::uint64_t frame = 0; frame < meta_.size(); ++frame) {
    const PageMeta& meta = meta_[frame];
    if (meta.state != PageState::kFree) {
      continue;
    }
    if (meta.size == PageSize::k4K) {
      ++in_2m[frame / kFramesPer2M];
      eq_1g[frame / kFramesPer1G] += 1;
    } else if (meta.size == PageSize::k2M) {
      eq_1g[frame / kFramesPer1G] += kFramesPer2M;
    }
  }
  for (std::uint64_t group = 0; group < free_in_2m_.size(); ++group) {
    if (free_in_2m_[group] != in_2m[group]) {
      return false;
    }
    if (in_2m[group] == kFramesPer2M && !in_mergeable_2m_[group]) {
      return false;
    }
  }
  for (std::uint64_t region = 0; region < free_eq_1g_.size(); ++region) {
    if (free_eq_1g_[region] != eq_1g[region]) {
      return false;
    }
    if (eq_1g[region] == kFramesPer1G && !in_mergeable_1g_[region]) {
      return false;
    }
  }
  return CheckCoalescingHeaps();
}

PageAllocator PageAllocator::CloneForVerification() const {
  PageAllocator out(1, 1);  // minimal shell, immediately overwritten
  CloneForVerificationInto(&out);
  return out;
}

void PageAllocator::CloneForVerificationInto(PageAllocator* out) const {
  out->reserved_frames_ = reserved_frames_;
  // Vector copy-assign reuses the destination's capacity: after the first
  // fill a pooled clone performs zero allocations here.
  out->meta_ = meta_;
  out->free_4k_ = free_4k_;
  out->free_2m_ = free_2m_;
  out->free_1g_ = free_1g_;
  out->free_in_2m_ = free_in_2m_;
  out->free_eq_1g_ = free_eq_1g_;
  out->in_mergeable_2m_ = in_mergeable_2m_;
  out->in_mergeable_1g_ = in_mergeable_1g_;
  out->mergeable_2m_ = mergeable_2m_;
  out->mergeable_1g_ = mergeable_1g_;
  out->dirty_.Reset();  // clones start with an empty mutation log
}

}  // namespace atmo
