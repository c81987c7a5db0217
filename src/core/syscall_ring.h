// io_uring-style syscall submission/completion rings (asynchronous batched
// syscalls, following the akaros async `struct syscall` + event-queue idiom).
//
// A SyscallRing is a first-class kernel object owned by the thread that set
// it up: a bounded submission queue (SQ) of deferred syscalls and a bounded
// completion queue (CQ) of their results. Entries are submitted either via
// SysOp::kRingSubmit (a real syscall, checked per-call) or via
// Kernel::RingPushDirect (modelling a user-space write to the shared-memory
// SQ, the io_uring fast path — absorbed by the dirty log like any other
// external mutation). SysOp::kRingEnter drains the SQ: the kernel executes
// the entries back-to-back under the big lock and the refinement checker
// pays ONE capture + spec + frame + Wf check for the whole drained batch
// instead of one per call (DESIGN.md §13).
//
// The queues reuse the drivers/spsc_ring.h shape — power-of-two slot arrays
// with free-running head/tail indices — minus the atomics: rings are kernel
// state mutated only under the (modelled) big lock.
//
// Lifecycle note: rings are NOT harvested when their owner exits or is
// killed; a ring whose owner is gone is inert (submit/drain re-validate
// owner identity at use time). See DESIGN.md §13 for why this keeps the
// kill specifications untouched.

#ifndef ATMO_SRC_CORE_SYSCALL_RING_H_
#define ATMO_SRC_CORE_SYSCALL_RING_H_

#include <cstdint>
#include <map>
#include <vector>

#include "src/core/syscall.h"
#include "src/vstd/check.h"
#include "src/vstd/dirty_set.h"
#include "src/vstd/types.h"

namespace atmo {

// Bounds: capacity keeps one drained batch short under the big lock for the
// same reason kMaxMmapCount bounds a single mmap (§4.3 timing discussion);
// the table bound keeps the ring id space a bounded kernel structure.
inline constexpr std::uint32_t kMaxRingEntries = 1024;
inline constexpr std::size_t kMaxRings = 64;

enum RingFlags : std::uint32_t {
  // Batch-level failure atomicity: if any drained entry fails, the WHOLE
  // batch rolls back (Ψ' == Ψ) and kRingEnter returns kWouldFault with the
  // SQ retained. Without the flag a failed entry just completes with its
  // error in the CQ and the drain continues (io_uring semantics).
  kRingDrainAtomic = 1u << 0,
};

struct RingSqEntry {
  Syscall call;  // already rewritten by RingInnerCall: op is the inner op
  std::uint64_t user_data = 0;

  friend bool operator==(const RingSqEntry&, const RingSqEntry&) = default;
};

struct RingCqEntry {
  std::uint64_t user_data = 0;
  SyscallRet ret;

  friend bool operator==(const RingCqEntry&, const RingCqEntry&) = default;
};

// Which ops may be deferred onto a ring is the ring_submittable column of
// the syscall table (RingSubmittable, src/core/syscall.h).

// The deferred call carried by a kRingSubmit record: the same register file
// with `op := ring_op` and the ring fields cleared. Shared by the kernel
// (what it executes at drain) and the spec (what it expects in the SQ) so
// the two cannot drift.
Syscall RingInnerCall(const Syscall& submit);

inline bool RingCapacityValid(std::uint32_t n) {
  return n != 0 && n <= kMaxRingEntries && (n & (n - 1)) == 0;
}

class SyscallRing {
 public:
  SyscallRing() = default;
  SyscallRing(ThrdPtr owner, ProcPtr owner_proc, CtnrPtr owner_ctnr, std::uint32_t capacity,
              std::uint32_t flags)
      : owner_(owner),
        owner_proc_(owner_proc),
        owner_ctnr_(owner_ctnr),
        capacity_(capacity),
        flags_(flags),
        sq_slots_(capacity),
        cq_slots_(capacity) {
    ATMO_CHECK(RingCapacityValid(capacity), "SyscallRing capacity must be a power of two");
  }

  ThrdPtr owner() const { return owner_; }
  ProcPtr owner_proc() const { return owner_proc_; }
  CtnrPtr owner_ctnr() const { return owner_ctnr_; }
  std::uint32_t capacity() const { return capacity_; }
  std::uint32_t flags() const { return flags_; }
  bool atomic() const { return (flags_ & kRingDrainAtomic) != 0; }

  // Free-running indices: size is the unsigned difference, the slot is the
  // index masked by the power-of-two capacity (wraps cleanly at 2^32).
  std::size_t SqSize() const { return static_cast<std::uint32_t>(sq_tail_ - sq_head_); }
  std::size_t CqSize() const { return static_cast<std::uint32_t>(cq_tail_ - cq_head_); }
  bool SqEmpty() const { return sq_head_ == sq_tail_; }
  bool SqFull() const { return SqSize() == capacity_; }
  bool CqFull() const { return CqSize() == capacity_; }

  // FIFO views (index 0 = oldest), for the abstraction function and specs.
  const RingSqEntry& SqAt(std::size_t i) const {
    ATMO_CHECK(i < SqSize(), "SyscallRing::SqAt out of range");
    return sq_slots_[(sq_head_ + i) & (capacity_ - 1)];
  }
  const RingCqEntry& CqAt(std::size_t i) const {
    ATMO_CHECK(i < CqSize(), "SyscallRing::CqAt out of range");
    return cq_slots_[(cq_head_ + i) & (capacity_ - 1)];
  }

  // Mutations go through SyscallRingTable so every one lands in the dirty
  // log; the ring itself has no log of its own.
  void SqPush(const RingSqEntry& e) {
    ATMO_CHECK(!SqFull(), "SyscallRing::SqPush on a full SQ");
    sq_slots_[sq_tail_ & (capacity_ - 1)] = e;
    ++sq_tail_;
  }
  RingSqEntry SqPop() {
    ATMO_CHECK(!SqEmpty(), "SyscallRing::SqPop on an empty SQ");
    RingSqEntry e = sq_slots_[sq_head_ & (capacity_ - 1)];
    ++sq_head_;
    return e;
  }
  void CqPush(const RingCqEntry& e) {
    ATMO_CHECK(!CqFull(), "SyscallRing::CqPush on a full CQ");
    cq_slots_[cq_tail_ & (capacity_ - 1)] = e;
    ++cq_tail_;
  }
  bool CqPop(RingCqEntry* out) {
    if (cq_head_ == cq_tail_) {
      return false;
    }
    *out = cq_slots_[cq_head_ & (capacity_ - 1)];
    ++cq_head_;
    return true;
  }

 private:
  ThrdPtr owner_ = kNullPtr;
  ProcPtr owner_proc_ = kNullPtr;
  CtnrPtr owner_ctnr_ = kNullPtr;
  std::uint32_t capacity_ = 0;
  std::uint32_t flags_ = 0;
  std::vector<RingSqEntry> sq_slots_;
  std::uint32_t sq_head_ = 0;
  std::uint32_t sq_tail_ = 0;
  std::vector<RingCqEntry> cq_slots_;
  std::uint32_t cq_head_ = 0;
  std::uint32_t cq_tail_ = 0;
};

// The kernel's ring table: bounded, ids monotonically increasing and never
// reused (a dangling ring id is kInvalid forever, never a confused deputy).
// Every mutation marks the ring id in the dirty log so the incremental
// abstraction patches exactly the touched rings.
class SyscallRingTable {
 public:
  static constexpr std::size_t kCapacity = kMaxRings;

  // Creates a ring; returns its id, or 0 when the table is full or the
  // capacity is invalid (callers pre-validate for precise errors).
  std::uint64_t Setup(ThrdPtr owner, ProcPtr owner_proc, CtnrPtr owner_ctnr,
                      std::uint32_t capacity, std::uint32_t flags);

  bool Exists(std::uint64_t id) const { return rings_.count(id) != 0; }
  const SyscallRing& Get(std::uint64_t id) const;
  std::size_t Count() const { return rings_.size(); }
  const std::map<std::uint64_t, SyscallRing>& rings() const { return rings_; }

  // Queue mutations; all return false instead of asserting on a bad id or a
  // full/empty queue so syscall paths can pre-validate and stay atomic.
  bool SqPush(std::uint64_t id, const RingSqEntry& e);
  bool SqPop(std::uint64_t id, RingSqEntry* out);
  bool CqPush(std::uint64_t id, const RingCqEntry& e);
  bool CqPop(std::uint64_t id, RingCqEntry* out);

  bool Wf() const;
  // Wf() for the rings `ids` names (sorted; absent ids skipped) and the
  // table-wide bounds, which read only the smallest and largest id.
  bool LocalWf(const std::vector<std::uint64_t>& ids) const;

  void DrainDirtyInto(std::vector<std::uint64_t>* out, bool* overflow_out) {
    dirty_.DrainInto(out, overflow_out);
  }

  // Deep copy with a fresh (empty) dirty log, like every subsystem clone.
  SyscallRingTable CloneForVerification() const;

 private:
  friend struct SyscallRingTableTestPeer;

  SyscallRing* GetMutAndMark(std::uint64_t id);

  std::map<std::uint64_t, SyscallRing> rings_;
  std::uint64_t next_id_ = 1;
  DirtyLog dirty_;
};

}  // namespace atmo

#endif  // ATMO_SRC_CORE_SYSCALL_RING_H_
