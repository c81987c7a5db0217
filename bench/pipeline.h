// Shared benchmark pipeline harness: the paper's driver configurations.
//
// Every network/storage benchmark (Figs 4-7) runs a workload through one of
// the paper's configurations:
//
//   linux        — synchronous generic stack, trap per operation
//   dpdk / spdk  — polled user-level driver with direct device access
//   atmo-driver  — the same driver statically linked with the application
//                  (identical data path to dpdk/spdk; the kernel only set
//                  things up)
//   atmo-c2      — application and driver in separate processes on separate
//                  cores (two host threads) connected by shared-memory SPSC
//                  rings
//   atmo-c1-bN   — application and driver share one core; the application
//                  batches N requests into the shared ring and invokes the
//                  driver through a *real* Atmosphere IPC endpoint
//                  (kernel.Step call/reply per batch — the measured context
//                  switch is the actual verified kernel's code path)

#ifndef ATMO_BENCH_PIPELINE_H_
#define ATMO_BENCH_PIPELINE_H_

#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/core/kernel.h"
#include "src/obs/json_writer.h"
#include "src/drivers/dma_arena.h"
#include "src/drivers/ixgbe_driver.h"
#include "src/drivers/nvme_driver.h"
#include "src/drivers/spsc_ring.h"
#include "src/hw/sim_nic.h"
#include "src/hw/sim_nvme.h"
#include "src/net/packet.h"

namespace atmo {
namespace bench {

// A self-contained machine for driver benchmarks: memory, allocator, IOMMU
// with one identity domain, a DMA arena, and both devices.
struct Machine {
  static constexpr DeviceId kNicId = 1;
  static constexpr DeviceId kNvmeId = 2;

  PhysMem mem;
  PageAllocator alloc;
  IommuManager iommu;
  IommuDomainId domain;
  DmaArena arena;
  SimNic nic;
  SimNvme nvme;

  explicit Machine(std::uint64_t frames = 65536)  // 256 MiB
      : mem(frames),
        alloc(frames, 1),
        iommu(&mem),
        domain(iommu.CreateDomain(&alloc, kNullPtr)),
        arena(&mem, &alloc, &iommu, domain, 0x10000000ull),
        nic(&mem, &iommu, kNicId),
        nvme(&mem, &iommu, kNvmeId, /*capacity_blocks=*/262144) {
    iommu.AttachDevice(domain, kNicId);
    iommu.AttachDevice(domain, kNvmeId);
  }
};

// Pre-built pool of ingress frames: the packet source replays the pool so
// generation cost stays off the measured path (the paper uses a separate
// Pktgen machine).
class PacketPool {
 public:
  // `flows` distinct 5-tuples, payload built by `make_payload(i, buf)`
  // returning the payload length.
  PacketPool(std::size_t count,
             const std::function<std::size_t(std::size_t, std::uint8_t*)>& make_payload,
             std::uint16_t dst_port = 7);

  PacketSource AsSource();
  std::size_t count() const { return lens_.size(); }
  const std::uint8_t* frame(std::size_t i) const { return data_.get() + i * kMaxFrameLen; }
  std::size_t len(std::size_t i) const { return lens_[i]; }

 private:
  std::unique_ptr<std::uint8_t[]> data_;
  std::vector<std::size_t> lens_;
  std::size_t next_ = 0;
};

// The IPC rendezvous used by atmo-c1: a real Atmosphere kernel with an
// application thread and a driver thread in one process sharing an
// endpoint. InvokeDriver performs the application's call() and the driver's
// reply() through Kernel::Step — the measured per-batch kernel cost.
class C1Rendezvous {
 public:
  C1Rendezvous();

  // Application side: call() into the driver (blocks the app thread).
  // Driver side runs `service` while "scheduled", then replies.
  void InvokeDriver(const std::function<void()>& service);

  Kernel& kernel() { return *kernel_; }

 private:
  std::optional<Kernel> kernel_;
  ThrdPtr app_ = kNullPtr;
  ThrdPtr drv_ = kNullPtr;
};

// Result row shared by the figure benches.
struct Row {
  std::string config;
  double ops_per_sec = 0.0;
  double wall_seconds = 0.0;
  std::uint64_t ops = 0;
};

void PrintHeader(const char* title, const char* unit);
void PrintRow(const Row& row, const char* unit_scale);

// Times `loop(ops_target)` and returns a row. `loop` returns ops done.
Row RunTimed(const std::string& config, std::uint64_t ops_target,
             const std::function<std::uint64_t(std::uint64_t)>& loop);

// Row collector + machine-readable summary shared by the figure benches:
// Record() prints the human table row and keeps it; Write() emits
// BENCH_<name>.json ({"bench", "quick", "rows": [{config, ops, ops_per_sec,
// wall_seconds}...]}) through the shared obs JSON writer. `extra` may
// append bench-specific top-level keys before the object closes.
class BenchJson {
 public:
  explicit BenchJson(std::string bench_name) : name_(std::move(bench_name)) {}

  void Record(const Row& row, const char* unit_scale) {
    PrintRow(row, unit_scale);
    rows_.push_back(row);
  }

  bool Write(const std::function<void(obs::JsonWriter*)>& extra = {}) const;

  const std::vector<Row>& rows() const { return rows_; }

 private:
  std::string name_;
  std::vector<Row> rows_;
};

// Benchmark sizing: scaled down when ATMO_BENCH_QUICK is set (CI).
std::uint64_t ScaledOps(std::uint64_t full);

// CPUs actually available to this process — the affinity mask, not
// hardware_concurrency(), which reports the machine's core count even when
// a container/cgroup pins the process to a subset. The parallel-sweep
// scaling threshold, its JSON's `host_cpus` field and Table 2's caveat all
// use this, so a reader comparing runs across hosts can tell a degenerate
// 1-CPU curve from a real regression.
unsigned HostCpus();

}  // namespace bench
}  // namespace atmo

#endif  // ATMO_BENCH_PIPELINE_H_
