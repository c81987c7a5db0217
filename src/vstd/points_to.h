// Linear tracked permissions — executable analog of Verus `PPtr<T>` /
// `PointsTo<T>`.
//
// In Verus a permissioned pointer is a raw usize address, and the linear
// (tracked) ghost permission both authorizes access through the pointer and
// carries the logical value of the pointee. The executable model keeps the
// same split:
//
//   * `PPtr<T>`     — a plain address (copyable, does not grant access).
//   * `PointsTo<T>` — a move-only token bound to the address; it stores the
//                     object's value and its initialization state. Every
//                     access to the object goes through the token, so
//                     aliasing, use-after-free and double-init become
//                     runtime verification failures instead of compile
//                     errors.
//
// Tokens are minted by the allocator path (`PlaceObject`, src/pmem) and
// consumed on deallocation; leak freedom is established by the global
// page-closure invariant rather than by destructors.

#ifndef ATMO_SRC_VSTD_POINTS_TO_H_
#define ATMO_SRC_VSTD_POINTS_TO_H_

#include <optional>
#include <utility>

#include "src/vstd/check.h"
#include "src/vstd/types.h"

namespace atmo {

template <typename T>
class PointsTo;

// A raw, copyable pointer. Dereferencing requires the matching PointsTo.
template <typename T>
class PPtr {
 public:
  PPtr() = default;
  explicit PPtr(Ptr addr) : addr_(addr) {}

  static PPtr FromUsize(Ptr addr) { return PPtr(addr); }

  Ptr addr() const { return addr_; }
  bool is_null() const { return addr_ == kNullPtr; }

  // Immutable access: requires an initialized permission for this address.
  const T& Borrow(const PointsTo<T>& perm) const;
  // Mutable access: requires exclusive (non-const) access to the permission.
  T& BorrowMut(PointsTo<T>& perm) const;

  friend bool operator==(const PPtr&, const PPtr&) = default;

 private:
  Ptr addr_ = kNullPtr;
};

template <typename T>
class PointsTo {
 public:
  // Mints an uninitialized permission for `addr`. Production code mints
  // permissions only on the allocation path (see src/pmem/object_alloc.h).
  static PointsTo Uninit(Ptr addr) { return PointsTo(addr, std::nullopt); }

  // Mints an initialized permission holding `value`.
  static PointsTo Init(Ptr addr, T value) { return PointsTo(addr, std::move(value)); }

  PointsTo(PointsTo&& other) noexcept
      : addr_(other.addr_), value_(std::move(other.value_)), alive_(other.alive_) {
    other.alive_ = false;
  }
  PointsTo& operator=(PointsTo&& other) noexcept {
    if (this != &other) {
      addr_ = other.addr_;
      value_ = std::move(other.value_);
      alive_ = other.alive_;
      other.alive_ = false;
    }
    return *this;
  }

  PointsTo(const PointsTo&) = delete;
  PointsTo& operator=(const PointsTo&) = delete;

  Ptr addr() const {
    ATMO_CHECK(alive_, "PointsTo used after move/consume");
    return addr_;
  }
  bool is_init() const {
    ATMO_CHECK(alive_, "PointsTo used after move/consume");
    return value_.has_value();
  }

  // The logical value carried by the permission (Listing 1, line 37 uses
  // `perm@.value()` in specs; executable reads go through PPtr::Borrow).
  const T& value() const {
    ATMO_CHECK(alive_, "PointsTo used after move/consume");
    ATMO_CHECK(value_.has_value(), "PointsTo::value on uninitialized permission");
    return *value_;
  }
  T& value_mut() {
    ATMO_CHECK(alive_, "PointsTo used after move/consume");
    ATMO_CHECK(value_.has_value(), "PointsTo::value_mut on uninitialized permission");
    return *value_;
  }

  // Moves the value out, leaving the permission uninitialized (ptr::take).
  T Take() {
    ATMO_CHECK(alive_, "PointsTo used after move/consume");
    ATMO_CHECK(value_.has_value(), "PointsTo::Take on uninitialized permission");
    T out = std::move(*value_);
    value_.reset();
    return out;
  }

  // Writes a value into an uninitialized permission (ptr::put).
  void Put(T value) {
    ATMO_CHECK(alive_, "PointsTo used after move/consume");
    ATMO_CHECK(!value_.has_value(), "PointsTo::Put on initialized permission (double init)");
    value_ = std::move(value);
  }

  // Overwrites the value of an initialized permission (ptr::replace).
  T Replace(T value) {
    ATMO_CHECK(alive_, "PointsTo used after move/consume");
    ATMO_CHECK(value_.has_value(), "PointsTo::Replace on uninitialized permission");
    T out = std::move(*value_);
    value_ = std::move(value);
    return out;
  }

  // Deep copy used only by Kernel::CloneForVerification (the atomic
  // ring-drain snapshot, noninterference unwinding checks and tests). Not
  // part of the kernel's syscall surface.
  PointsTo CloneForVerification() const
    requires std::copy_constructible<T>
  {
    ATMO_CHECK(alive_, "PointsTo used after move/consume");
    PointsTo out(addr_, std::nullopt);
    if (value_.has_value()) {
      out.value_ = *value_;
    }
    return out;
  }

 private:
  PointsTo(Ptr addr, std::optional<T> value) : addr_(addr), value_(std::move(value)) {}

  Ptr addr_ = kNullPtr;
  std::optional<T> value_;
  bool alive_ = true;
};

template <typename T>
const T& PPtr<T>::Borrow(const PointsTo<T>& perm) const {
  ATMO_CHECK(perm.addr() == addr_, "PPtr::Borrow with permission for a different address");
  ATMO_CHECK(perm.is_init(), "PPtr::Borrow with uninitialized permission");
  return perm.value();
}

template <typename T>
T& PPtr<T>::BorrowMut(PointsTo<T>& perm) const {
  ATMO_CHECK(perm.addr() == addr_, "PPtr::BorrowMut with permission for a different address");
  ATMO_CHECK(perm.is_init(), "PPtr::BorrowMut with uninitialized permission");
  return perm.value_mut();
}

}  // namespace atmo

#endif  // ATMO_SRC_VSTD_POINTS_TO_H_
