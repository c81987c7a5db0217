// SpecSeq<T> — executable analog of Verus `Seq<T>`.
//
// Used for ghost sequences such as a container's `path` (the sequence of
// direct and indirect parents from the root, Listing 2).
//
// Unlike SpecMap/SpecSet the rep is a plain vector (not persistent), but its storage
// follows the same arena discipline: sequences built or copied under an
// ArenaScope draw from the scope's arena, others from the heap. The copy
// operations re-choose the allocator from the *current* scope rather than
// propagating the source's, so heap-built state copied inside the checker
// lands in the checker's arena and vice versa.

#ifndef ATMO_SRC_VSTD_SPEC_SEQ_H_
#define ATMO_SRC_VSTD_SPEC_SEQ_H_

#include <algorithm>
#include <initializer_list>
#include <utility>
#include <vector>

#include "src/vstd/arena.h"
#include "src/vstd/check.h"

namespace atmo {

template <typename T>
class SpecSeq {
 public:
  SpecSeq() = default;
  SpecSeq(std::initializer_list<T> init) : rep_(init, ArenaAllocator<T>()) {}

  SpecSeq(const SpecSeq& other) : rep_(other.rep_, ArenaAllocator<T>()) {}
  SpecSeq& operator=(const SpecSeq& other) {
    if (this != &other) {
      rep_.assign(other.rep_.begin(), other.rep_.end());
    }
    return *this;
  }
  SpecSeq(SpecSeq&&) = default;
  SpecSeq& operator=(SpecSeq&&) = default;

  std::size_t len() const { return rep_.size(); }
  bool empty() const { return rep_.empty(); }

  const T& at(std::size_t i) const {
    ATMO_CHECK(i < rep_.size(), "SpecSeq::at out of range");
    return rep_[i];
  }
  const T& operator[](std::size_t i) const { return at(i); }

  const T& last() const {
    ATMO_CHECK(!rep_.empty(), "SpecSeq::last on empty sequence");
    return rep_.back();
  }

  bool contains(const T& t) const {
    return std::find(rep_.begin(), rep_.end(), t) != rep_.end();
  }

  SpecSeq push(const T& t) const {
    SpecSeq out = *this;
    // averif-lint: allow(hot-path-alloc) — reached only via SysNewContainer (cold spawn); checker-side pushes run under ArenaScope and land in the SpecArena
    out.rep_.push_back(t);
    return out;
  }

  // In-place append for linear bulk construction (run-queue abstraction).
  void append(const T& t) { rep_.push_back(t); }

  // `subrange(lo, hi)` — elements [lo, hi).
  SpecSeq subrange(std::size_t lo, std::size_t hi) const {
    ATMO_CHECK(lo <= hi && hi <= rep_.size(), "SpecSeq::subrange bounds");
    SpecSeq out;
    out.rep_.assign(rep_.begin() + static_cast<std::ptrdiff_t>(lo),
                    rep_.begin() + static_cast<std::ptrdiff_t>(hi));
    return out;
  }

  SpecSeq drop_last() const {
    ATMO_CHECK(!rep_.empty(), "SpecSeq::drop_last on empty sequence");
    return subrange(0, rep_.size() - 1);
  }

  // True if this sequence is a prefix of `other`.
  bool IsPrefixOf(const SpecSeq& other) const {
    if (rep_.size() > other.rep_.size()) {
      return false;
    }
    return std::equal(rep_.begin(), rep_.end(), other.rep_.begin());
  }

  // True if no element occurs twice.
  bool NoDuplicates() const {
    for (std::size_t i = 0; i < rep_.size(); ++i) {
      for (std::size_t j = i + 1; j < rep_.size(); ++j) {
        if (rep_[i] == rep_[j]) {
          return false;
        }
      }
    }
    return true;
  }

  template <typename Pred>
  bool ForAll(Pred p) const {
    for (const T& t : rep_) {
      if (!p(t)) {
        return false;
      }
    }
    return true;
  }

  friend bool operator==(const SpecSeq& a, const SpecSeq& b) { return a.rep_ == b.rep_; }

  auto begin() const { return rep_.begin(); }
  auto end() const { return rep_.end(); }

 private:
  std::vector<T, ArenaAllocator<T>> rep_;
};

}  // namespace atmo

#endif  // ATMO_SRC_VSTD_SPEC_SEQ_H_
