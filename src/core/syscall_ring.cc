#include "src/core/syscall_ring.h"

namespace atmo {

Syscall RingInnerCall(const Syscall& submit) {
  Syscall inner = submit;
  inner.op = submit.ring_op;
  inner.ring_id = 0;
  inner.ring_entries = 0;
  inner.ring_flags = 0;
  inner.ring_op = SysOp::kYield;
  inner.ring_user_data = 0;
  inner.ring_budget = 0;
  return inner;
}

std::uint64_t SyscallRingTable::Setup(ThrdPtr owner, ProcPtr owner_proc, CtnrPtr owner_ctnr,
                                      std::uint32_t capacity, std::uint32_t flags) {
  if (rings_.size() >= kCapacity || !RingCapacityValid(capacity)) {
    return 0;
  }
  std::uint64_t id = next_id_++;
  // averif-lint: allow(hot-path-alloc) — ring setup happens once per thread at registration — control plane
  rings_.emplace(id, SyscallRing(owner, owner_proc, owner_ctnr, capacity, flags));
  dirty_.Mark(id);
  return id;
}

const SyscallRing& SyscallRingTable::Get(std::uint64_t id) const {
  auto it = rings_.find(id);
  ATMO_CHECK(it != rings_.end(), "SyscallRingTable::Get of unknown ring");
  return it->second;
}

SyscallRing* SyscallRingTable::GetMutAndMark(std::uint64_t id) {
  auto it = rings_.find(id);
  if (it == rings_.end()) {
    return nullptr;
  }
  dirty_.Mark(id);
  return &it->second;
}

bool SyscallRingTable::SqPush(std::uint64_t id, const RingSqEntry& e) {
  SyscallRing* ring = GetMutAndMark(id);
  if (ring == nullptr || ring->SqFull()) {
    return false;
  }
  ring->SqPush(e);
  return true;
}

bool SyscallRingTable::SqPop(std::uint64_t id, RingSqEntry* out) {
  SyscallRing* ring = GetMutAndMark(id);
  if (ring == nullptr || ring->SqEmpty()) {
    return false;
  }
  *out = ring->SqPop();
  return true;
}

bool SyscallRingTable::CqPush(std::uint64_t id, const RingCqEntry& e) {
  SyscallRing* ring = GetMutAndMark(id);
  if (ring == nullptr || ring->CqFull()) {
    return false;
  }
  ring->CqPush(e);
  return true;
}

bool SyscallRingTable::CqPop(std::uint64_t id, RingCqEntry* out) {
  SyscallRing* ring = GetMutAndMark(id);
  if (ring == nullptr) {
    return false;
  }
  return ring->CqPop(out);
}

bool SyscallRingTable::Wf() const {
  std::uint64_t max_id = 0;
  for (const auto& [id, ring] : rings_) {
    if (id == 0 || id >= next_id_) {
      return false;  // id 0 is the setup-failure sentinel; ids never exceed the counter
    }
    max_id = id > max_id ? id : max_id;
    if (!RingCapacityValid(ring.capacity())) {
      return false;
    }
    if (ring.SqSize() > ring.capacity() || ring.CqSize() > ring.capacity()) {
      return false;
    }
    // Every queued entry must still be a submittable inner op with its ring
    // fields cleared — exactly what RingInnerCall produces at submit time.
    for (std::size_t i = 0; i < ring.SqSize(); ++i) {
      const Syscall& call = ring.SqAt(i).call;
      if (!RingSubmittable(call.op) || call.ring_id != 0 || call.ring_budget != 0) {
        return false;
      }
    }
  }
  return rings_.size() <= kCapacity && max_id < next_id_;
}

SyscallRingTable SyscallRingTable::CloneForVerification() const {
  SyscallRingTable out;
  out.rings_ = rings_;
  out.next_id_ = next_id_;
  return out;  // with an empty mutation log
}

}  // namespace atmo
