// Dirty-set tracking for incremental abstraction (O(dirty) refinement
// checking).
//
// Every stateful subsystem appends the ids of objects it mutates to a
// DirtyLog — an over-approximation is always safe, an omission never is (the
// refinement checker's audit mode exists to catch the latter). The kernel
// facade drains all subsystem logs into one DirtySet per checked step;
// Kernel::AbstractDelta then patches exactly those entries of a cached
// abstract state instead of rebuilding Ψ from scratch.
//
// The log is an append-only vector (duplicates allowed — deduplication
// happens once, at drain time) so the uninstrumented hot path pays one
// push_back per mutation. The DirtySet is flat too: each kind is a vector,
// sorted and deduplicated by the drain, that its owner clears and refills
// every step, so both keep their capacity and a drain under the high-water
// mark allocates nothing. If a log grows past kCap without being drained
// (a long unchecked run), recording stops and the drain reports `overflow`,
// which makes the next delta-abstraction fall back to a full rebuild.

#ifndef ATMO_SRC_VSTD_DIRTY_SET_H_
#define ATMO_SRC_VSTD_DIRTY_SET_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "src/vstd/types.h"

namespace atmo {

// One step's worth of touched object ids, per kind, each sorted ascending
// without duplicates.
struct DirtySet {
  std::vector<CtnrPtr> ctnrs;
  std::vector<ProcPtr> procs;
  std::vector<ThrdPtr> thrds;
  std::vector<EdptPtr> edpts;
  std::vector<PagePtr> pages;                // 4 KiB frame base addresses
  std::vector<ProcPtr> spaces;               // address spaces (by process)
  std::vector<std::uint64_t> iommu_domains;  // IommuDomainId
  std::vector<std::uint64_t> rings;          // syscall ring ids
  bool scheduler = false;                    // run queue / current thread
  bool overflow = false;                     // some log overflowed: full rebuild

  std::size_t TotalEntries() const {
    return ctnrs.size() + procs.size() + thrds.size() + edpts.size() + pages.size() +
           spaces.size() + iommu_domains.size() + rings.size();
  }
  bool Empty() const { return TotalEntries() == 0 && !scheduler && !overflow; }

  // The id vectors of `s`, one per kind.
  template <typename Self>
  static auto KindsOf(Self& s) {
    return std::array{&s.ctnrs, &s.procs, &s.thrds, &s.edpts,
                      &s.pages, &s.spaces, &s.iommu_domains, &s.rings};
  }

  // Empties every kind, keeping the vectors' capacity.
  void Clear() {
    for (std::vector<std::uint64_t>* ids : KindsOf(*this)) {
      ids->clear();
    }
    scheduler = false;
    overflow = false;
  }

  // Adds `other`'s ids, unsorted; Normalize() sorts and deduplicates.
  void Append(const DirtySet& other) {
    auto mine = KindsOf(*this);
    auto theirs = KindsOf(other);
    for (std::size_t i = 0; i < mine.size(); ++i) {
      // averif-lint: allow(hot-path-alloc) — the checker's write set keeps its capacity between Wf checks, so it grows only past its high-water mark
      mine[i]->insert(mine[i]->end(), theirs[i]->begin(), theirs[i]->end());
    }
    scheduler = scheduler || other.scheduler;
    overflow = overflow || other.overflow;
  }

  void Normalize() {
    for (std::vector<std::uint64_t>* ids : KindsOf(*this)) {
      std::sort(ids->begin(), ids->end());
      ids->erase(std::unique(ids->begin(), ids->end()), ids->end());
    }
  }
};

// Append-only per-subsystem mutation log. All kernel object ids are
// 64-bit (pointers / domain ids), so one log type serves every subsystem.
class DirtyLog {
 public:
  static constexpr std::size_t kCap = 1u << 20;

  void Mark(std::uint64_t id) {
    if (overflow_) {
      return;
    }
    if (log_.size() >= kCap) {
      overflow_ = true;
      log_.clear();
      log_.shrink_to_fit();
      return;
    }
    // averif-lint: allow(hot-path-alloc) — log vector retains capacity across drains (clear() keeps capacity); allocation stops at the high-water mark
    log_.push_back(id);
  }

  bool overflow() const { return overflow_; }
  std::size_t pending() const { return log_.size(); }

  // Merges the log into `out`, leaving it sorted and deduplicated; sets
  // `*overflow_out` if the log overflowed; resets the log.
  void DrainInto(std::vector<std::uint64_t>* out, bool* overflow_out) {
    if (overflow_) {
      *overflow_out = true;
    } else {
      // averif-lint: allow(hot-path-alloc) — the caller's vector keeps its capacity across drains (DirtySet::Clear), so it grows only past the dirty-entry high-water mark
      out->insert(out->end(), log_.begin(), log_.end());
      std::sort(out->begin(), out->end());
      out->erase(std::unique(out->begin(), out->end()), out->end());
    }
    log_.clear();
    overflow_ = false;
  }

  void Reset() {
    log_.clear();
    overflow_ = false;
  }

 private:
  std::vector<std::uint64_t> log_;
  bool overflow_ = false;
};

}  // namespace atmo

#endif  // ATMO_SRC_VSTD_DIRTY_SET_H_
