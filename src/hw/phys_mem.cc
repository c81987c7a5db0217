#include "src/hw/phys_mem.h"

#include <algorithm>
#include <cstring>

namespace atmo {

PhysMem::PhysMem(std::uint64_t frames) : frame_count_(frames), frames_(frames) {
  ATMO_CHECK(frames > 0, "PhysMem requires at least one frame");
}

PhysMem::FrameData& PhysMem::Touch(std::uint64_t frame) {
  ATMO_CHECK(frame < frame_count_, "PhysMem frame out of range");
  if (!frames_[frame]) {
    // averif-lint: allow(hot-path-alloc) — a frame's bytes are allocated at its first touch, once per frame for the machine's life
    frames_[frame] = std::make_unique<FrameData>();
    frames_[frame]->fill(0);
  }
  return *frames_[frame];
}

const PhysMem::FrameData* PhysMem::Peek(std::uint64_t frame) const {
  ATMO_CHECK(frame < frame_count_, "PhysMem frame out of range");
  return frames_[frame].get();
}

void PhysMem::CheckPermCovers(const FramePerm& perm, PAddr addr, std::uint64_t len) const {
  ATMO_CHECK(len > 0 && addr + len > addr, "PhysMem access length overflow");
  ATMO_CHECK(perm.Covers(addr) && perm.Covers(addr + len - 1),
             "PhysMem access outside frame permission (spatial safety)");
  ATMO_CHECK(Valid(addr + len - 1), "PhysMem access beyond end of memory");
}

std::uint64_t PhysMem::ReadU64(const FramePerm& perm, PAddr addr) const {
  CheckPermCovers(perm, addr, sizeof(std::uint64_t));
  return HwReadU64(addr);
}

void PhysMem::WriteU64(const FramePerm& perm, PAddr addr, std::uint64_t value) {
  CheckPermCovers(perm, addr, sizeof(std::uint64_t));
  HwWriteU64(addr, value);
}

void PhysMem::ReadBytes(const FramePerm& perm, PAddr addr, void* dst, std::uint64_t len) const {
  CheckPermCovers(perm, addr, len);
  HwReadBytes(addr, dst, len);
}

void PhysMem::WriteBytes(const FramePerm& perm, PAddr addr, const void* src, std::uint64_t len) {
  CheckPermCovers(perm, addr, len);
  HwWriteBytes(addr, src, len);
}

void PhysMem::ZeroPage(const FramePerm& perm) {
  PAddr base = perm.base();
  std::uint64_t nframes = perm.bytes() / kPageSize4K;
  for (std::uint64_t i = 0; i < nframes; ++i) {
    std::uint64_t frame = base / kPageSize4K + i;
    ATMO_CHECK(frame < frame_count_, "ZeroPage frame out of range");
    if (frames_[frame]) {
      frames_[frame]->fill(0);
    }
  }
}

PhysMem PhysMem::CloneForVerification() const {
  PhysMem out(frame_count_);
  for (std::uint64_t frame = 0; frame < frame_count_; ++frame) {
    if (frames_[frame]) {
      // averif-lint: allow(hot-path-alloc) — reached from ExecBatch only by the kRingDrainAtomic snapshot, an O(state) copy by design that only atomic rings take (TraceGen and tests)
      out.frames_[frame] = std::make_unique<FrameData>(*frames_[frame]);
    }
  }
  return out;
}

std::uint64_t PhysMem::HwReadU64(PAddr addr) const {
  ATMO_CHECK(addr % sizeof(std::uint64_t) == 0, "unaligned u64 read");
  ATMO_CHECK(Valid(addr + 7), "PhysMem read beyond end of memory");
  const FrameData* frame = Peek(addr / kPageSize4K);
  if (frame == nullptr) {
    return 0;
  }
  return (*frame)[(addr % kPageSize4K) / sizeof(std::uint64_t)];
}

void PhysMem::HwWriteU64(PAddr addr, std::uint64_t value) {
  ATMO_CHECK(addr % sizeof(std::uint64_t) == 0, "unaligned u64 write");
  ATMO_CHECK(Valid(addr + 7), "PhysMem write beyond end of memory");
  Touch(addr / kPageSize4K)[(addr % kPageSize4K) / sizeof(std::uint64_t)] = value;
}

void PhysMem::HwReadBytes(PAddr addr, void* dst, std::uint64_t len) const {
  ATMO_CHECK(len == 0 || Valid(addr + len - 1), "PhysMem read beyond end of memory");
  std::uint8_t* out = static_cast<std::uint8_t*>(dst);
  std::uint64_t done = 0;
  while (done < len) {
    std::uint64_t frame = (addr + done) / kPageSize4K;
    std::uint64_t off = (addr + done) % kPageSize4K;
    std::uint64_t chunk = std::min(len - done, kPageSize4K - off);
    const FrameData* data = Peek(frame);
    if (data == nullptr) {
      std::memset(out + done, 0, chunk);
    } else {
      std::memcpy(out + done, reinterpret_cast<const std::uint8_t*>(data->data()) + off, chunk);
    }
    done += chunk;
  }
}

void PhysMem::HwWriteBytes(PAddr addr, const void* src, std::uint64_t len) {
  ATMO_CHECK(len == 0 || Valid(addr + len - 1), "PhysMem write beyond end of memory");
  const std::uint8_t* in = static_cast<const std::uint8_t*>(src);
  std::uint64_t done = 0;
  while (done < len) {
    std::uint64_t frame = (addr + done) / kPageSize4K;
    std::uint64_t off = (addr + done) % kPageSize4K;
    std::uint64_t chunk = std::min(len - done, kPageSize4K - off);
    FrameData& data = Touch(frame);
    std::memcpy(reinterpret_cast<std::uint8_t*>(data.data()) + off, in + done, chunk);
    done += chunk;
  }
}

}  // namespace atmo
