// Simulated physical memory.
//
// The paper's kernel runs on bare-metal x86-64; this model replaces DRAM with
// an array of 4 KiB frames addressed by physical address. Page-table nodes,
// DMA buffers and user pages live here as real bytes — the MMU walker
// (src/hw/mmu.h) and the simulated devices read the same bits the kernel
// writes, which is what makes the refinement statement ("the abstract map
// equals what the MMU resolves") meaningful.
//
// CPU-side accesses are gated by FramePerm, the frame-granularity linear
// permission minted by the page allocator. Device-side (DMA) accesses bypass
// software permissions — hardware does not hold ghost state — and instead go
// through the IOMMU translation in the device models.

#ifndef ATMO_SRC_HW_PHYS_MEM_H_
#define ATMO_SRC_HW_PHYS_MEM_H_

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/vstd/check.h"
#include "src/vstd/types.h"

namespace atmo {

// Linear permission for one physical page (4K/2M/1G). Move-only; minted by
// the page allocator on allocation and consumed on free.
class FramePerm {
 public:
  static FramePerm Mint(PAddr base, PageSize size) { return FramePerm(base, size); }

  FramePerm(FramePerm&& other) noexcept
      : base_(other.base_), size_(other.size_), alive_(other.alive_) {
    other.alive_ = false;
  }
  FramePerm& operator=(FramePerm&& other) noexcept {
    if (this != &other) {
      base_ = other.base_;
      size_ = other.size_;
      alive_ = other.alive_;
      other.alive_ = false;
    }
    return *this;
  }
  FramePerm(const FramePerm&) = delete;
  FramePerm& operator=(const FramePerm&) = delete;

  PAddr base() const {
    ATMO_CHECK(alive_, "FramePerm used after move/consume");
    return base_;
  }
  PageSize size() const {
    ATMO_CHECK(alive_, "FramePerm used after move/consume");
    return size_;
  }
  std::uint64_t bytes() const { return PageBytes(size()); }

  // True if [base, base+bytes) covers the byte at `addr`.
  bool Covers(PAddr addr) const { return addr >= base() && addr < base() + bytes(); }

  FramePerm CloneForVerification() const {
    ATMO_CHECK(alive_, "FramePerm used after move/consume");
    return FramePerm(base_, size_);
  }

 private:
  FramePerm(PAddr base, PageSize size) : base_(base), size_(size) {
    ATMO_CHECK(base % PageBytes(size) == 0, "FramePerm base not aligned to its size class");
  }

  PAddr base_;
  PageSize size_;
  bool alive_ = true;
};

class PhysMem {
 public:
  // Creates memory with `frames` 4 KiB frames. Backing storage is allocated
  // lazily on first touch; untouched frames read as zero.
  explicit PhysMem(std::uint64_t frames);

  std::uint64_t frame_count() const { return frame_count_; }
  std::uint64_t bytes() const { return frame_count_ * kPageSize4K; }

  bool Valid(PAddr addr) const { return addr < bytes(); }

  // CPU-side accesses: require a frame permission covering the address.
  std::uint64_t ReadU64(const FramePerm& perm, PAddr addr) const;
  void WriteU64(const FramePerm& perm, PAddr addr, std::uint64_t value);
  void ReadBytes(const FramePerm& perm, PAddr addr, void* dst, std::uint64_t len) const;
  void WriteBytes(const FramePerm& perm, PAddr addr, const void* src, std::uint64_t len);
  // Zeroes the whole page covered by `perm` (fresh allocation scrub).
  void ZeroPage(const FramePerm& perm);

  // Deep copy of the whole memory image (verification harness only);
  // untouched frames stay untouched in the copy.
  PhysMem CloneForVerification() const;
  // Direct span of one frame's backing store, touching it into existence —
  // the zero-copy borrow point for DMA-visible memory (DESIGN.md §14).
  // Hardware-side like HwRead/HwWrite (no software permission); the pointer
  // is stable until the PhysMem is destroyed.
  std::uint8_t* HwFrameSpan(std::uint64_t frame) {
    return reinterpret_cast<std::uint8_t*>(Touch(frame).data());
  }
  const std::uint8_t* HwFrameSpanIfTouched(std::uint64_t frame) const {
    const FrameData* data = Peek(frame);
    return data ? reinterpret_cast<const std::uint8_t*>(data->data()) : nullptr;
  }

  // Hardware-side accesses (MMU page walks, device DMA after IOMMU
  // translation). No software permission: hardware reads what is there.
  std::uint64_t HwReadU64(PAddr addr) const;
  void HwWriteU64(PAddr addr, std::uint64_t value);
  void HwReadBytes(PAddr addr, void* dst, std::uint64_t len) const;
  void HwWriteBytes(PAddr addr, const void* src, std::uint64_t len);

 private:
  static constexpr std::uint64_t kU64PerFrame = kPageSize4K / sizeof(std::uint64_t);
  using FrameData = std::array<std::uint64_t, kU64PerFrame>;

  FrameData& Touch(std::uint64_t frame);
  const FrameData* Peek(std::uint64_t frame) const;
  void CheckPermCovers(const FramePerm& perm, PAddr addr, std::uint64_t len) const;

  std::uint64_t frame_count_;
  std::vector<std::unique_ptr<FrameData>> frames_;
};

}  // namespace atmo

#endif  // ATMO_SRC_HW_PHYS_MEM_H_
