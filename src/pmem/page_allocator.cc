#include "src/pmem/page_allocator.h"

#include <algorithm>
#include <functional>

#include "src/obs/flight_recorder.h"
#include "src/vstd/check.h"
#include "src/vstd/frame_set.h"

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
      in_mergeable_1g_(free_eq_1g_.size(), 0),
      group_recorded_(free_in_2m_.size(), 0),
      region_recorded_(free_eq_1g_.size(), 0) {
  ATMO_CHECK(reserved_frames >= 1, "frame 0 (null pointer) must be reserved");
  ATMO_CHECK(reserved_frames <= total_frames, "reserved frames exceed total frames");
  // The write log starts off (as if overflowed) and turns on at the first
  // drain, which reports the overflow: an allocator that nothing drains
  // records nothing, and a checker's first capture rebuilds Ψ and its first
  // Wf check is a whole TotalWf anyway.
  writes_.overflow = true;
  // All managed frames boot as free 4 KiB pages. Push back-to-front so the
  // list pops low addresses first (deterministic allocation order).
  for (std::uint64_t frame = total_frames; frame-- > reserved_frames;) {
    PushFree(frame, PageSize::k4K);
  }
}

void PageAllocator::Writes::Clear() {
  frames.clear();
  groups.clear();
  regions.clear();
  lists.clear();
  overflow = false;
}

namespace {

template <typename Record>
void AppendRecords(std::vector<Record>* to, const std::vector<Record>& from) {
  // averif-lint: allow(hot-path-alloc) — the checker's write set keeps its capacity between Wf checks, so it grows only past its high-water mark
  to->insert(to->end(), from.begin(), from.end());
}

template <typename Record, typename Key>
void KeepFirstPerKey(std::vector<Record>* records, Key key) {
  std::stable_sort(records->begin(), records->end(),
                   [&](const Record& a, const Record& b) { return key(a) < key(b); });
  records->erase(std::unique(records->begin(), records->end(),
                             [&](const Record& a, const Record& b) { return key(a) == key(b); }),
                 records->end());
}

template <typename Record, typename Key, typename K>
const Record* FindRecord(const std::vector<Record>& records, Key key, K k) {
  auto it = std::lower_bound(records.begin(), records.end(), k,
                             [&](const Record& r, K v) { return key(r) < v; });
  return it != records.end() && key(*it) == k ? &*it : nullptr;
}

constexpr auto kFrameKey = [](const PageAllocator::FrameRecord& r) { return r.frame; };
constexpr auto kCounterKey = [](const PageAllocator::CounterRecord& r) { return r.index; };
constexpr auto kListKey = [](const PageAllocator::ListRecord& r) {
  return static_cast<int>(r.size);
};

}  // namespace

void PageAllocator::Writes::Append(const Writes& later) {
  AppendRecords(&frames, later.frames);
  AppendRecords(&groups, later.groups);
  AppendRecords(&regions, later.regions);
  AppendRecords(&lists, later.lists);
  overflow = overflow || later.overflow;
}

void PageAllocator::Writes::KeepOldest() {
  KeepFirstPerKey(&frames, kFrameKey);
  KeepFirstPerKey(&groups, kCounterKey);
  KeepFirstPerKey(&regions, kCounterKey);
  KeepFirstPerKey(&lists, kListKey);
}

const PageAllocator::FrameRecord* PageAllocator::Writes::Find(std::uint64_t frame) const {
  return FindRecord(frames, kFrameKey, frame);
}

template <typename Record>
bool PageAllocator::Log(std::vector<Record>* records, const Record& record) {
  if (writes_.Size() >= kWriteLogCap) {
    OverflowWrites();
    return false;
  }
  // averif-lint: allow(hot-path-alloc) — the write log keeps its capacity across drains; it grows only past the records-per-drain high-water mark
  records->push_back(record);
  return true;
}

PageAllocator::PageMeta& PageAllocator::Write(std::uint64_t frame) {
  PageMeta& meta = meta_[frame];
  if (!meta.recorded && !writes_.overflow && Log(&writes_.frames, FrameRecord{frame, meta})) {
    meta.recorded = true;
  }
  return meta;
}

PageAllocator::FreeList& PageAllocator::WriteList(PageSize size) {
  FreeList& list = ListFor(size);
  std::uint8_t& recorded = list_recorded_[static_cast<int>(size)];
  if (!recorded && !writes_.overflow && Log(&writes_.lists, ListRecord{size, list})) {
    recorded = 1;
  }
  return list;
}

void PageAllocator::RecordGroup(std::uint64_t group) {
  if (!group_recorded_[group] && !writes_.overflow &&
      Log(&writes_.groups, CounterRecord{group, free_in_2m_[group]})) {
    group_recorded_[group] = 1;
  }
}

void PageAllocator::RecordRegion(std::uint64_t region) {
  if (!region_recorded_[region] && !writes_.overflow &&
      Log(&writes_.regions, CounterRecord{region, free_eq_1g_[region]})) {
    region_recorded_[region] = 1;
  }
}

void PageAllocator::ClearMarks() {
  for (const FrameRecord& r : writes_.frames) {
    meta_[r.frame].recorded = false;
  }
  for (const CounterRecord& r : writes_.groups) {
    group_recorded_[r.index] = 0;
  }
  for (const CounterRecord& r : writes_.regions) {
    region_recorded_[r.index] = 0;
  }
  std::fill(std::begin(list_recorded_), std::end(list_recorded_), 0);
}

void PageAllocator::OverflowWrites() {
  ClearMarks();
  writes_ = Writes{};  // releases the capacity too
  writes_.overflow = true;
}

void PageAllocator::DrainWrites(std::vector<PagePtr>* pages, bool* overflow, Writes* writes) {
  if (writes_.Size() == 0 && !writes_.overflow) {
    return;  // nothing written since the last drain
  }
  if (writes_.overflow) {
    *overflow = true;
  }
  for (const FrameRecord& r : writes_.frames) {
    // A frame that stayed free at its size, merged or unavailable has the
    // abstract view it had (a free page is never borrowed): its write was
    // to links or a merged head, which LocalWf reads from the record.
    const PageMeta& meta = meta_[r.frame];
    const bool same_view = meta.state == r.before.state &&
                           (meta.state == PageState::kMerged ||
                            meta.state == PageState::kUnavailable ||
                            (meta.state == PageState::kFree && meta.size == r.before.size));
    if (!same_view) {
      // averif-lint: allow(hot-path-alloc) — the caller's vector keeps its capacity across drains (DirtySet::Clear), so it grows only past the dirty-entry high-water mark
      pages->push_back(PtrOf(r.frame));
    }
  }
  std::sort(pages->begin(), pages->end());
  ClearMarks();
  if (writes != nullptr) {
    writes->Append(writes_);
  }
  writes_.Clear();
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
  FreeList& list = WriteList(size);
  PageMeta& meta = Write(frame);
  meta.state = PageState::kFree;
  meta.size = size;
  meta.owner = kNullPtr;
  meta.map_count = 0;
  meta.merged_head = kNilFrame;
  meta.prev = kNilFrame;
  meta.next = list.head;
  if (list.head != kNilFrame) {
    Write(list.head).prev = frame;
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
  RecordRegion(region);
  if (size == PageSize::k4K) {
    std::uint64_t group = frame / kFramesPer2M;
    RecordGroup(group);
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
  RecordRegion(region);
  if (size == PageSize::k4K) {
    std::uint64_t group = frame / kFramesPer2M;
    RecordGroup(group);
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
  PageMeta& meta = Write(frame);
  ATMO_CHECK(meta.state == PageState::kFree, "UnlinkFree on non-free page");
  FreeList& list = WriteList(meta.size);
  if (meta.prev != kNilFrame) {
    Write(meta.prev).next = meta.next;
  } else {
    ATMO_CHECK(list.head == frame, "free-list head corruption");
    list.head = meta.next;
  }
  if (meta.next != kNilFrame) {
    Write(meta.next).prev = meta.prev;
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
  PageMeta& meta = Write(*frame);
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
    RecordGroup(group);
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
    RecordRegion(region);
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
  const PageMeta& meta = meta_[frame];
  ATMO_CHECK(meta.state == PageState::kAllocated, "FreePage on page not in allocated state");
  ATMO_CHECK(perm.base() == ptr, "FreePage permission for a different page");
  ATMO_CHECK(perm.size() == meta.size, "FreePage permission of wrong size class");
  ATMO_OBS_INSTANT_ARG(obs::kCatAlloc, FreeEventName(meta.size), "ptr", ptr);
  PushFree(frame, meta.size);
  // `perm` is consumed here: the linear token returns to the allocator.
}

void PageAllocator::MarkMapped(PagePtr ptr) {
  PageMeta& meta = Write(FrameOf(ptr));
  ATMO_CHECK(meta.state == PageState::kAllocated, "MarkMapped on page not in allocated state");
  meta.state = PageState::kMapped;
  meta.map_count = 1;
}

std::uint32_t PageAllocator::IncMapCount(PagePtr ptr) {
  PageMeta& meta = Write(FrameOf(ptr));
  ATMO_CHECK(meta.state == PageState::kMapped, "IncMapCount on unmapped page");
  return ++meta.map_count;
}

std::uint32_t PageAllocator::DecMapCount(PagePtr ptr) {
  PageMeta& meta = Write(FrameOf(ptr));
  ATMO_CHECK(meta.state == PageState::kMapped, "DecMapCount on unmapped page");
  ATMO_CHECK(meta.map_count > 0, "map count underflow");
  return --meta.map_count;
}

void PageAllocator::ReclaimUnmapped(PagePtr ptr, FramePerm perm) {
  std::uint64_t frame = FrameOf(ptr);
  const PageMeta& meta = meta_[frame];
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
    PageMeta& meta = Write(head + i);
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
    PageMeta& meta = Write(head + i);
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
  const PageMeta& meta = meta_[head];
  ATMO_CHECK(meta.state == PageState::kFree && meta.size == PageSize::k2M,
             "Split2M on page that is not a free 2M page");
  UnlinkFree(head);
  for (std::uint64_t i = 0; i < kFramesPer2M; ++i) {
    PushFree(head + i, PageSize::k4K);
  }
}

void PageAllocator::Split1G(PagePtr base) {
  std::uint64_t head = FrameOf(base);
  const PageMeta& meta = meta_[head];
  ATMO_CHECK(meta.state == PageState::kFree && meta.size == PageSize::k1G,
             "Split1G on page that is not a free 1G page");
  UnlinkFree(head);
  for (std::uint64_t unit = 0; unit < kFramesPer1G; unit += kFramesPer2M) {
    PushFree(head + unit, PageSize::k2M);
    for (std::uint64_t i = 1; i < kFramesPer2M; ++i) {
      PageMeta& tail = Write(head + unit + i);
      tail.state = PageState::kMerged;
      tail.merged_head = head + unit;
    }
  }
}

PageState PageAllocator::StateOf(PagePtr ptr) const { return meta_[FrameOf(ptr)].state; }

PageSize PageAllocator::SizeClassOf(PagePtr ptr) const { return meta_[FrameOf(ptr)].size; }

CtnrPtr PageAllocator::OwnerOf(PagePtr ptr) const { return meta_[FrameOf(ptr)].owner; }

void PageAllocator::SetOwner(PagePtr ptr, CtnrPtr owner) {
  PageMeta& meta = Write(FrameOf(ptr));
  ATMO_CHECK(meta.state == PageState::kAllocated || meta.state == PageState::kMapped,
             "SetOwner on page that is not allocated or mapped");
  meta.owner = owner;
}

std::uint64_t PageAllocator::FreeCount(PageSize size) const { return ListFor(size).count; }

void PageAllocator::MarkFreeList(PageSize size, FrameBitmap* marks) const {
  marks->assign((meta_.size() + 63) / 64, 0);
  std::uint64_t* bits = marks->data();
  std::uint64_t cur = ListFor(size).head;
  for (; cur < meta_.size(); cur = meta_[cur].next) {
    const std::uint64_t bit = std::uint64_t{1} << (cur % 64);
    if ((bits[cur / 64] & bit) != 0) {
      break;  // the list cycles back: the rest is already marked
    }
    bits[cur / 64] |= bit;
  }
  ATMO_CHECK(cur == kNilFrame || cur < meta_.size(), "free list links outside the frame array");
}

SpecSet<PagePtr> PageAllocator::FreePages(PageSize size) const {
  FrameBitmap marks;
  MarkFreeList(size, &marks);
  const FrameSet free = FrameSet::FromBitmap(marks);
  return SpecSet<PagePtr>::FromSorted([&free](auto emit) {
    for (PagePtr page : free) {
      if (!emit(page)) {
        return false;
      }
    }
    return true;
  });
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

namespace {

bool IsHead(PageState state) {
  return state == PageState::kFree || state == PageState::kAllocated ||
         state == PageState::kMapped;
}

// A frame's contribution to its 2M group's counter and its 1G region's.
std::uint64_t Free4KIn2M(const PageAllocator::PageMeta& meta) {
  return meta.state == PageState::kFree && meta.size == PageSize::k4K ? 1 : 0;
}
std::uint64_t FreeEqIn1G(const PageAllocator::PageMeta& meta) {
  if (meta.state != PageState::kFree || meta.size == PageSize::k1G) {
    return 0;
  }
  return meta.size == PageSize::k4K ? 1 : kFramesPer2M;
}

}  // namespace

const char* PageAllocator::LocalFrameWf(std::uint64_t frame, const PageMeta& before,
                                        std::uint64_t* entries) const {
  const PageMeta& meta = meta_[frame];
  std::uint64_t span = 1;
  switch (meta.state) {
    case PageState::kUnavailable:
      if (frame >= reserved_frames_) {
        return "unavailable frame above the reserved range";
      }
      break;
    case PageState::kFree:
    case PageState::kAllocated:
    case PageState::kMapped:
      span = PageFrames4K(meta.size);
      if (frame % span != 0 || frame + span > meta_.size()) {
        return "unit misaligned or past the end";
      }
      if (meta.state == PageState::kMapped && meta.map_count == 0) {
        return "mapped frame with no mapping";
      }
      // A unit this frame did not head before: every tail is merged into it.
      // A unit it headed already keeps its tails, unless a tail was written
      // (the covering-unit check below, run for that tail).
      if (span > 1 && !(IsHead(before.state) && before.size == meta.size)) {
        for (std::uint64_t i = 1; i < span; ++i) {
          ++*entries;
          const PageMeta& tail = meta_[frame + i];
          if (tail.state != PageState::kMerged || tail.merged_head != frame) {
            return "unit tail not merged into its head";
          }
        }
      }
      break;
    case PageState::kMerged: {
      const std::uint64_t head = meta.merged_head;
      if (head == kNilFrame || head >= meta_.size()) {
        return "merged frame without a live head";
      }
      ++*entries;
      const PageMeta& head_meta = meta_[head];
      if (!IsHead(head_meta.state) || head_meta.size == PageSize::k4K || frame <= head ||
          frame >= head + PageFrames4K(head_meta.size)) {
        return "merged frame without a live head";
      }
      break;
    }
    default:
      return "corrupted frame state";
  }
  // Units are aligned, so only the 2M and 1G heads at or below this frame
  // can cover it; one that does must be its merged head.
  for (std::uint64_t unit : {frame - frame % kFramesPer2M, frame - frame % kFramesPer1G}) {
    if (unit == frame) {
      continue;
    }
    ++*entries;
    const PageMeta& cover = meta_[unit];
    if (IsHead(cover.state) && frame < unit + PageFrames4K(cover.size) &&
        (meta.state != PageState::kMerged || meta.merged_head != unit)) {
      return "frame inside another unit";
    }
  }
  // A unit this frame headed and no longer heads at that size: none of its
  // old tails may still name it, beyond the frame's current span.
  const std::uint64_t old_span = IsHead(before.state) ? PageFrames4K(before.size) : 1;
  if (old_span > 1 && !(IsHead(meta.state) && meta.size == before.size)) {
    for (std::uint64_t i = span; i < old_span && frame + i < meta_.size(); ++i) {
      ++*entries;
      const PageMeta& tail = meta_[frame + i];
      if (tail.state == PageState::kMerged && tail.merged_head == frame) {
        return "old unit tail still names its head";
      }
    }
  }
  return nullptr;
}

const char* PageAllocator::LocalListWf(PageSize size, const Writes& writes,
                                       std::vector<std::uint64_t>* head_run,
                                       std::uint64_t* entries) const {
  // The list is old list minus the frames that left it, with the frames
  // that joined pushed at its head. A frame that left and came back (popped,
  // then freed) counts as leaving its old place and joining at the head.
  // Unrecorded frames kept their links, so the check reads only records,
  // the frames they name and the head run of recorded members.
  auto member = [size](const PageMeta& meta) {
    return meta.state == PageState::kFree && meta.size == size;
  };
  const std::vector<FrameRecord>& recs = writes.frames;
  auto record_of = [&writes](std::uint64_t frame) { return writes.Find(frame); };
  auto before = [&](std::uint64_t frame) -> const PageMeta& {
    const FrameRecord* r = record_of(frame);
    return r != nullptr ? r->before : meta_[frame];
  };
  const FreeList& now = ListFor(size);
  const ListRecord* list_rec = FindRecord(writes.lists, kListKey, static_cast<int>(size));
  const FreeList base = list_rec != nullptr ? list_rec->before : now;

  std::uint64_t joined = 0;
  std::uint64_t left = 0;
  for (const FrameRecord& r : recs) {
    const bool was = member(r.before);
    const bool is = member(meta_[r.frame]);
    joined += !was && is ? 1 : 0;
    left += was && !is ? 1 : 0;
  }
  if (now.count != base.count + joined - left) {
    return "free-list count";
  }

  // The head run: recorded members from the head, prev links checked.
  std::vector<std::uint64_t>& run = *head_run;
  run.clear();
  std::uint64_t after_run = now.head;
  while (after_run != kNilFrame && run.size() <= recs.size()) {
    if (after_run >= meta_.size()) {
      return "free-list link out of range";
    }
    if (record_of(after_run) == nullptr || !member(meta_[after_run])) {
      break;
    }
    ++*entries;
    run.push_back(after_run);
    after_run = meta_[after_run].next;
  }
  std::size_t linked = 0;  // the run's prefix whose prev links are right
  while (linked < run.size() &&
         meta_[run[linked]].prev == (linked == 0 ? kNilFrame : run[linked - 1])) {
    ++linked;
  }
  std::size_t min_pushed = 0;  // every joiner lies in the pushed part
  std::uint64_t joiners_in_run = 0;
  for (std::size_t i = 0; i < run.size(); ++i) {
    if (!member(before(run[i]))) {
      ++joiners_in_run;
      min_pushed = i + 1;
    }
  }
  if (joiners_in_run != joined) {
    return "free-list joiner not at the head";
  }
  auto run_index = [&](std::uint64_t frame) -> std::size_t {
    auto it = std::find(run.begin(), run.end(), frame);
    return static_cast<std::size_t>(it - run.begin());
  };

  // Try each split of the run into pushed frames and frames in place; the
  // first consistent one proves the shape (any one does).
  for (std::size_t pushed = min_pushed; pushed <= std::min(run.size(), linked); ++pushed) {
    auto removed = [&](std::uint64_t frame) {
      const FrameRecord* r = record_of(frame);
      return r != nullptr && member(r->before) &&
             (!member(meta_[frame]) || run_index(frame) < pushed);
    };
    // The next frame of the old list that stays in place, from `frame` on.
    bool broken = false;
    auto skip = [&](std::uint64_t frame, bool forward) {
      for (std::size_t steps = 0; frame != kNilFrame && removed(frame); ++steps) {
        if (steps > recs.size()) {
          broken = true;  // a cycle among the old links
          return kNilFrame;
        }
        frame = forward ? before(frame).next : before(frame).prev;
      }
      return frame;
    };
    const std::uint64_t first = skip(base.head, true);
    const std::uint64_t expect_first = pushed < run.size() ? run[pushed] : after_run;
    const std::uint64_t last_pushed = pushed == 0 ? kNilFrame : run[pushed - 1];
    if (broken || first != expect_first ||
        (first != kNilFrame && meta_[first].prev != last_pushed)) {
      continue;
    }
    bool ok = true;
    for (const FrameRecord& r : recs) {
      if (!member(r.before)) {
        continue;  // joiners were checked with the run
      }
      ++*entries;
      if (removed(r.frame)) {
        // Its old neighbours were relinked, so each was written.
        for (std::uint64_t nb : {r.before.prev, r.before.next}) {
          ok = ok && (nb == kNilFrame || record_of(nb) != nullptr);
        }
      } else {
        const PageMeta& meta = meta_[r.frame];
        const std::uint64_t expect_prev =
            r.frame == first ? last_pushed : skip(r.before.prev, false);
        ok = ok && meta.next == skip(r.before.next, true) && meta.prev == expect_prev;
      }
      if (!ok || broken) {
        break;
      }
    }
    if (ok && !broken) {
      return nullptr;
    }
  }
  return "free-list links";
}

const char* PageAllocator::LocalWf(const Writes& writes, std::vector<std::uint64_t>* run,
                                   std::uint64_t* entries) const {
  const std::vector<FrameRecord>& recs = writes.frames;
  auto before = [&](std::uint64_t frame) -> const PageMeta& {
    const FrameRecord* r = writes.Find(frame);
    return r != nullptr ? r->before : meta_[frame];
  };
  // Per frame: the written frames and their old and new list neighbours.
  for (const FrameRecord& r : recs) {
    ++*entries;
    if (const char* clause = LocalFrameWf(r.frame, r.before, entries)) {
      return clause;
    }
    const PageMeta& meta = meta_[r.frame];
    for (std::uint64_t nb : {r.before.prev, r.before.next, meta.prev, meta.next}) {
      if (nb == kNilFrame) {
        continue;
      }
      ++*entries;
      if (nb >= meta_.size()) {
        return "free-list link out of range";
      }
      if (const char* clause = LocalFrameWf(nb, before(nb), entries)) {
        return clause;
      }
    }
  }
  for (PageSize size : {PageSize::k4K, PageSize::k2M, PageSize::k1G}) {
    if (const char* clause = LocalListWf(size, writes, run, entries)) {
      return clause;
    }
  }
  // Coalescing counters: each group or region that holds a written frame
  // or was written itself moved by its frames' change in contribution;
  // a full one is indexed. (Frames are sorted, so each group's are a run.)
  auto check = [&](std::uint64_t per, const std::vector<CounterRecord>& counter_recs,
                   const auto& counters, const std::vector<std::uint8_t>& flagged, auto contrib,
                   std::uint64_t full) {
    std::size_t i = 0;
    std::size_t c = 0;
    while (i < recs.size() || c < counter_recs.size()) {
      const std::uint64_t unit = std::min(
          i < recs.size() ? recs[i].frame / per : ~std::uint64_t{0},
          c < counter_recs.size() ? counter_recs[c].index : ~std::uint64_t{0});
      std::uint64_t expect = counters[unit];
      if (c < counter_recs.size() && counter_recs[c].index == unit) {
        expect = counter_recs[c++].free_before;
      }
      for (; i < recs.size() && recs[i].frame / per == unit; ++i) {
        expect = expect + contrib(meta_[recs[i].frame]) - contrib(recs[i].before);
      }
      ++*entries;
      if (counters[unit] != expect || (expect == full && !flagged[unit])) {
        return false;
      }
    }
    return true;
  };
  if (!check(kFramesPer2M, writes.groups, free_in_2m_, in_mergeable_2m_, Free4KIn2M,
             kFramesPer2M)) {
    return "2M group free counter";
  }
  if (!check(kFramesPer1G, writes.regions, free_eq_1g_, in_mergeable_1g_, FreeEqIn1G,
             kFramesPer1G)) {
    return "1G region free counter";
  }
  return nullptr;
}

PageAllocator PageAllocator::CloneForVerification() const {
  PageAllocator out(1, 1);  // minimal shell, overwritten member by member
  out.reserved_frames_ = reserved_frames_;
  out.meta_ = meta_;
  out.free_4k_ = free_4k_;
  out.free_2m_ = free_2m_;
  out.free_1g_ = free_1g_;
  out.free_in_2m_ = free_in_2m_;
  out.free_eq_1g_ = free_eq_1g_;
  out.in_mergeable_2m_ = in_mergeable_2m_;
  out.in_mergeable_1g_ = in_mergeable_1g_;
  out.mergeable_2m_ = mergeable_2m_;
  out.mergeable_1g_ = mergeable_1g_;
  // The copy's write log is on and empty, as a drained log is (an atomic
  // drain's rollback puts the copy in the kernel's place), so nothing in it
  // is marked.
  out.group_recorded_ = group_recorded_;
  out.region_recorded_ = region_recorded_;
  out.writes_ = writes_;
  out.ClearMarks();
  out.writes_.Clear();
  return out;
}

}  // namespace atmo
