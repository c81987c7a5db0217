// Table 3 reproduction + the PR's perf gate: syscall hot-path latency in
// cycles, swept across machine sizes.
//
// Paper reference (c220g5, KVM): call/reply — Atmosphere 1,058 cycles vs
// seL4 1,026; map a page — Atmosphere 1,984 vs seL4 2,650 (operations not
// strictly equivalent). Beyond the paper's single-machine numbers, this
// bench runs each operation at several machine sizes (total physical
// frames) and gates on the *shape*: with the size-segregated allocator and
// indexed lookups, map/alloc latency must be flat in machine size
// (growth ≤ kFlatThreshold from the smallest to the largest machine),
// where the linear-scan allocator grew linearly.
//
// Per-operation setup (see DESIGN.md §10 for the allocator internals):
//   call_reply — IPC round trip; never touches the allocator hot paths.
//   map_4k     — steady-state 4K mmap (leaf install), munmap untimed.
//   map_2m     — the adversarial case: every 2M group except the topmost
//                keeps one busy frame, so a fresh 2M mmap cannot be served
//                from the free lists. The linear allocator scans the whole
//                frame array per map; the segregated allocator pops the one
//                coalescible group from its mergeable stack. The freed unit
//                is re-split (untimed) so every round re-runs the miss path.
//                The machine sizes are timed in interleaved passes, 60
//                blocks per size in quick mode and 200 in full mode.
//   alloc_1g   — exhaustion fallback: every 1G region is fragmented, so
//                AllocPage1G must fail. The linear allocator proves that by
//                probing all regions (O(frames)); the segregated allocator
//                by finding its mergeable stack empty (O(1)). Runs on a
//                bare PageAllocator: a 1G unit needs 262,144 frames, so the
//                machine sizes are 2/4/8 regions rather than the kernel
//                sizes.
//   alloc_free_1g — informational hit path: alloc+free of a 1G unit with a
//                fully free region available (steady state O(1) both ways).
//   ring_drain_atomic — informational: one kRingEnter draining 4 mmap and 4
//                munmap calls of 4K pages, all successful, on a
//                kRingDrainAtomic ring. ExecBatch snapshots the whole kernel
//                before such a batch (a plain CloneForVerification), so this
//                row carries that O(frames) curve (ROADMAP item 7).
//
// Two modelling notes (see EXPERIMENTS.md):
//   1. A user-level syscall pays a hardware mode switch that dominates real
//      IPC latency and is identical for both kernels. The harness charges
//      the same modelled trap cost per kernel crossing on both sides.
//   2. This executable model maintains Atmosphere's ghost state at runtime;
//      Verus erases ghost code at compile time. The Atmosphere numbers
//      therefore carry bookkeeping the paper's binary does not.
//
// Writes a machine-readable BENCH_table3_syscall_latency.json (all_ok is
// the flatness gate; CI fails when it is false) and honors ATMO_BENCH_QUICK.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/pipeline.h"
#include "src/baseline/cap_kernel.h"
#include "src/baseline/linux_net.h"  // TrapCost
#include "src/core/kernel.h"
#include "src/hw/cycles.h"

namespace atmo {
namespace {

constexpr std::uint64_t kFramesPer2M = kPageSize2M / kPageSize4K;  // 512
constexpr std::uint64_t kFramesPer1G = kPageSize1G / kPageSize4K;  // 262144
constexpr double kFlatThreshold = 1.3;

// Kernel-op machine sizes (total frames) and bare-allocator sizes for the
// 1G exhaustion path (1G regions don't fit in the kernel sizes).
constexpr std::uint64_t kKernelSizes[] = {4096, 16384, 65536};
constexpr std::uint64_t k1GSizes[] = {2 * kFramesPer1G, 4 * kFramesPer1G, 8 * kFramesPer1G};

bool Quick() { return std::getenv("ATMO_BENCH_QUICK") != nullptr; }

TrapCost g_trap;

// One kernel crossing: enter + exit.
inline void ModeSwitch() {
  g_trap.Enter();
  g_trap.Exit();
}

double Median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

// Times `timed` per op in blocks of `per_block` (reset runs untimed between
// ops) and returns the median block's cycles/op.
// The process's peak resident set (VmHWM), in MiB; 0 where /proc is absent.
double PeakRssMib() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) {
    return 0.0;
  }
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof(line), status) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) {
      break;
    }
  }
  std::fclose(status);
  return kib / 1024.0;
}

double MedianPerOp(int samples, int per_block, const std::function<void()>& timed,
                   const std::function<void()>& reset) {
  std::vector<double> blocks;
  blocks.reserve(static_cast<std::size_t>(samples));
  for (int s = 0; s < samples; ++s) {
    std::uint64_t total = 0;
    for (int i = 0; i < per_block; ++i) {
      std::uint64_t start = ReadCycles();
      timed();
      total += ReadCycles() - start;
      reset();
    }
    blocks.push_back(static_cast<double>(total) / per_block);
  }
  return Median(blocks);
}

// --- Atmosphere: call/reply round trip through the verified kernel ---
double AtmoCallReply(std::uint64_t frames) {
  BootConfig config;
  config.frames = frames;
  config.reserved_frames = 16;
  Kernel kernel = std::move(*Kernel::Boot(config));
  auto ctnr = kernel.BootCreateContainer(kernel.root_container(), 1024, ~0ull);
  auto proc = kernel.BootCreateProcess(ctnr.value);
  auto client = kernel.BootCreateThread(proc.value);
  auto server = kernel.BootCreateThread(proc.value);

  Syscall ne;
  ne.op = SysOp::kNewEndpoint;
  ne.edpt_idx = 0;
  SyscallRet e = kernel.Step(client.value, ne);
  kernel.pm_mut().BindEndpoint(server.value, 0, e.value);
  Syscall recv;
  recv.op = SysOp::kRecv;
  recv.edpt_idx = 0;
  kernel.Step(server.value, recv);  // park the server

  Syscall call;
  call.op = SysOp::kCall;
  call.edpt_idx = 0;
  call.payload.scalars = {1, 2, 3, 4};
  Syscall reply;
  reply.op = SysOp::kReply;
  reply.payload.scalars = {5, 6, 7, 8};

  auto round = [&] {
    ModeSwitch();  // client call trap
    kernel.Step(client.value, call);
    (void)kernel.TakeInbound(server.value);
    ModeSwitch();  // server reply trap
    kernel.Step(server.value, reply);
    (void)kernel.TakeInbound(client.value);
    // Server parks again for the next round (third crossing in this
    // protocol; seL4's ReplyRecv folds it into the reply).
    ModeSwitch();
    kernel.Step(server.value, recv);
  };

  int warmup = static_cast<int>(bench::ScaledOps(2000));
  int rounds = static_cast<int>(bench::ScaledOps(20000));
  int samples = 200;
  int per_block = std::max(1, rounds / samples);
  for (int i = 0; i < warmup; ++i) {
    round();
  }
  std::vector<double> blocks;
  for (int s = 0; s < samples; ++s) {
    std::uint64_t start = ReadCycles();
    for (int i = 0; i < per_block; ++i) {
      round();
    }
    blocks.push_back(static_cast<double>(ReadCycles() - start) / per_block);
  }
  return Median(blocks);
}

// --- seL4-like: Call + ReplyRecv fastpath (machine-size independent) ---
double CapKernelCallReply() {
  CapKernel ck;
  std::uint32_t client = ck.CreateTcb();
  std::uint32_t server = ck.CreateTcb();
  std::uint32_t ep = ck.CreateEndpoint();
  std::uint32_t client_ep = ck.InstallCap(client, CapType::kEndpoint, ep, CapRights::kAll, 7);
  std::uint32_t server_ep = ck.InstallCap(server, CapType::kEndpoint, ep, CapRights::kAll);
  ck.Recv(server, server_ep);

  auto round = [&] {
    ModeSwitch();  // client call trap
    ck.Call(client, client_ep, {1, 2, 3, 4});
    ModeSwitch();  // server reply-recv trap
    ck.ReplyRecv(server, server_ep, {5, 6, 7, 8});
  };

  int warmup = static_cast<int>(bench::ScaledOps(2000));
  int rounds = static_cast<int>(bench::ScaledOps(20000));
  int samples = 200;
  int per_block = std::max(1, rounds / samples);
  for (int i = 0; i < warmup; ++i) {
    round();
  }
  std::vector<double> blocks;
  for (int s = 0; s < samples; ++s) {
    std::uint64_t start = ReadCycles();
    for (int i = 0; i < per_block; ++i) {
      round();
    }
    blocks.push_back(static_cast<double>(ReadCycles() - start) / per_block);
  }
  return Median(blocks);
}

// --- Atmosphere: map one 4K page (syscall), unmap untimed ---
double AtmoMap4K(std::uint64_t frames) {
  BootConfig config;
  config.frames = frames;
  config.reserved_frames = 16;
  Kernel kernel = std::move(*Kernel::Boot(config));
  auto ctnr = kernel.BootCreateContainer(kernel.root_container(), frames / 2, ~0ull);
  auto proc = kernel.BootCreateProcess(ctnr.value);
  auto thrd = kernel.BootCreateThread(proc.value);

  Syscall mmap;
  mmap.op = SysOp::kMmap;
  mmap.va_range = VaRange{0x400000, 1, PageSize::k4K};
  mmap.map_perm = MapEntryPerm{.writable = true, .user = true, .no_execute = false};
  Syscall munmap;
  munmap.op = SysOp::kMunmap;
  munmap.va_range = mmap.va_range;

  // Warm the table chain so the steady-state op is "install a leaf".
  int warmup = static_cast<int>(bench::ScaledOps(500));
  for (int i = 0; i < warmup; ++i) {
    kernel.Step(thrd.value, mmap);
    kernel.Step(thrd.value, munmap);
  }
  int samples = static_cast<int>(bench::ScaledOps(200));
  return MedianPerOp(
      samples, 20,
      [&] {
        ModeSwitch();
        kernel.Step(thrd.value, mmap);
      },
      [&] { kernel.Step(thrd.value, munmap); });
}

// --- seL4-like: Page_Map (derive + install), unmap untimed ---
double CapKernelMapPage() {
  CapKernel ck;
  std::uint32_t tcb = ck.CreateTcb();
  std::uint32_t vspace = ck.CreateVSpace();
  std::uint32_t vcap = ck.InstallCap(tcb, CapType::kVSpace, vspace, CapRights::kAll);
  std::uint32_t fcap = ck.InstallCap(tcb, CapType::kFrame, ck.CreateFrame(), CapRights::kAll);

  int warmup = static_cast<int>(bench::ScaledOps(500));
  for (int i = 0; i < warmup; ++i) {
    ck.MapPage(tcb, fcap, vcap, 0x400000, CapRights::kAll);
    ck.UnmapPage(tcb, fcap);
  }
  int samples = static_cast<int>(bench::ScaledOps(200));
  return MedianPerOp(
      samples, 20,
      [&] {
        ModeSwitch();
        ck.MapPage(tcb, fcap, vcap, 0x400000, CapRights::kAll);
      },
      [&] { ck.UnmapPage(tcb, fcap); });
}

// --- Atmosphere: fresh 2M mmap with every lower group fragmented ---
//
// Setup leaves exactly one coalescible 2M group (the topmost); each timed
// mmap must rebuild a 2M unit from 4K frames. The untimed reset unmaps and
// re-splits the unit so the next round takes the miss path again. The
// kernel stays alive between blocks, so the gate can interleave machine
// sizes (see Map2MFlatness).
class Map2MFresh {
 public:
  explicit Map2MFresh(std::uint64_t frames) : kernel_(Boot(frames)) {
    auto ctnr = kernel_.BootCreateContainer(kernel_.root_container(), frames - 64, ~0ull);
    proc_ = kernel_.BootCreateProcess(ctnr.value).value;
    thrd_ = kernel_.BootCreateThread(proc_).value;

    // The 2M mapping goes at kBigVa. Mapping a 4K helper page in the
    // adjacent PD slot materializes the PML4/PDPT/PD chain without
    // occupying kBigVa's own PD entry, so the timed op never allocates
    // table nodes.
    Mmap4K(kBigVa + kPageSize2M);

    // Fill phase: frames pop lowest-first, so mapping until ~one group of
    // frames remains leaves exactly the topmost 2M group untouched (free).
    std::vector<VAddr> fill;
    for (VAddr va = 0x10000000ull;
         kernel_.alloc().FreeCount(PageSize::k4K) > kFramesPer2M + 8; va += kPageSize4K) {
      if (!Mmap4K(va).ok()) {
        break;
      }
      fill.push_back(va);
    }
    // Fragmentation phase: keep the highest-PA mapping in each 2M group (so
    // a linear scan walks deep into the group before hitting it), unmap the
    // rest. Every group below the top stays unmergeable.
    std::map<std::uint64_t, std::pair<PagePtr, VAddr>> keep;  // group -> (pa, va)
    std::vector<std::pair<VAddr, std::uint64_t>> va_group;
    for (VAddr va : fill) {
      PagePtr pa = kernel_.vm().Resolve(proc_, va)->addr;
      std::uint64_t group = pa / kPageSize2M;
      va_group.emplace_back(va, group);
      auto it = keep.find(group);
      if (it == keep.end() || pa > it->second.first) {
        keep[group] = {pa, va};
      }
    }
    for (const auto& [va, group] : va_group) {
      if (keep[group].second != va) {
        Munmap(va, PageSize::k4K);
      }
    }

    int warmup = static_cast<int>(bench::ScaledOps(40));
    for (int i = 0; i < warmup; ++i) {
      Timed();
      Reset();
    }
  }

  // One block: cycles per op over `per_block` timed maps.
  double Block(int per_block) {
    std::uint64_t total = 0;
    for (int i = 0; i < per_block; ++i) {
      std::uint64_t start = ReadCycles();
      Timed();
      total += ReadCycles() - start;
      Reset();
    }
    return static_cast<double>(total) / per_block;
  }

 private:
  static constexpr VAddr kBigVa = 0x80000000ull;
  static constexpr MapEntryPerm kRw{.writable = true, .user = true, .no_execute = true};

  static Kernel Boot(std::uint64_t frames) {
    BootConfig config;
    config.frames = frames;
    config.reserved_frames = 16;
    return std::move(*Kernel::Boot(config));
  }

  SyscallRet Mmap4K(VAddr va) {
    Syscall c;
    c.op = SysOp::kMmap;
    c.va_range = VaRange{va, 1, PageSize::k4K};
    c.map_perm = kRw;
    return kernel_.Step(thrd_, c);
  }

  void Munmap(VAddr va, PageSize size) {
    Syscall c;
    c.op = SysOp::kMunmap;
    c.va_range = VaRange{va, 1, size};
    kernel_.Step(thrd_, c);
  }

  void Timed() {
    Syscall c;
    c.op = SysOp::kMmap;
    c.va_range = VaRange{kBigVa, 1, PageSize::k2M};
    c.map_perm = kRw;
    ModeSwitch();
    if (!kernel_.Step(thrd_, c).ok()) {
      std::fprintf(stderr, "map_2m: fresh 2M mmap failed unexpectedly\n");
      std::exit(1);
    }
  }

  void Reset() {
    PagePtr pa = kernel_.vm().Resolve(proc_, kBigVa)->addr;
    Munmap(kBigVa, PageSize::k2M);
    kernel_.alloc_mut().Split2M(pa);  // back to 512 free 4K frames
  }

  Kernel kernel_;
  ProcPtr proc_ = kNullPtr;
  ThrdPtr thrd_ = kNullPtr;
};

// map_2m medians at every kernel size, for the flatness gate. Host speed
// drifts over a run, and a gate that timed the sizes one after another
// read that drift as growth. So the blocks are taken in passes over every
// size, ascending then descending (4K, 16K, 64K, 64K, 16K, 4K frames): each
// pass adds two blocks to every size's median, at mirrored times.
std::vector<double> Map2MFlatness() {
  std::vector<std::unique_ptr<Map2MFresh>> machines;
  for (std::uint64_t frames : kKernelSizes) {
    machines.push_back(std::make_unique<Map2MFresh>(frames));
  }
  const int passes = Quick() ? 30 : 100;
  constexpr int kPerBlock = 5;
  std::vector<std::vector<double>> blocks(machines.size());
  for (int pass = 0; pass < passes; ++pass) {
    for (std::size_t i = 0; i < machines.size(); ++i) {
      blocks[i].push_back(machines[i]->Block(kPerBlock));
    }
    for (std::size_t i = machines.size(); i-- > 0;) {
      blocks[i].push_back(machines[i]->Block(kPerBlock));
    }
  }
  std::vector<double> medians;
  for (std::vector<double>& size_blocks : blocks) {
    medians.push_back(Median(std::move(size_blocks)));
  }
  return medians;
}

// --- Bare allocator: 1G allocation against a fully fragmented pool ---
//
// Every 1G region keeps one allocated 4K frame at its base (region 0 is
// blocked by the reserved boot frames), so AllocPage1G must fail. The
// linear allocator proves exhaustion by probing every region; the
// segregated allocator by finding no coalescible region indexed.
class Alloc1GFragmented {
 public:
  explicit Alloc1GFragmented(std::uint64_t frames) : alloc_(frames, kFramesPer2M) {
    // Frames pop lowest-first: sweep-allocate up to the last region's base,
    // keep each region-base frame as the fragment, release the rest.
    std::uint64_t last_base = (frames / kFramesPer1G - 1) * kFramesPer1G;
    std::vector<PageAlloc> sweep;
    sweep.reserve(frames - kFramesPer2M);
    for (;;) {
      std::optional<PageAlloc> page = alloc_.AllocPage4K(kNullPtr);
      if (!page.has_value()) {
        break;
      }
      std::uint64_t frame = page->ptr / kPageSize4K;
      if (frame % kFramesPer1G == 0) {
        fragments_.push_back(std::move(*page));
      } else {
        sweep.push_back(std::move(*page));
      }
      if (frame >= last_base) {
        break;
      }
    }
    for (PageAlloc& page : sweep) {
      alloc_.FreePage(page.ptr, std::move(page.perm));
    }
  }
  Alloc1GFragmented(const Alloc1GFragmented&) = delete;
  Alloc1GFragmented& operator=(const Alloc1GFragmented&) = delete;
  ~Alloc1GFragmented() {
    for (PageAlloc& page : fragments_) {
      alloc_.FreePage(page.ptr, std::move(page.perm));
    }
  }

  // Mean cycles of one failed AllocPage1G over a block of `per_block`.
  double Block(int per_block) {
    std::uint64_t total = 0;
    for (int i = 0; i < per_block; ++i) {
      std::uint64_t start = ReadCycles();
      if (alloc_.AllocPage1G(kNullPtr).has_value()) {
        std::fprintf(stderr, "alloc_1g: allocation succeeded on a fragmented pool\n");
        std::exit(1);
      }
      total += ReadCycles() - start;
    }
    return static_cast<double>(total) / per_block;
  }

 private:
  PageAllocator alloc_;
  std::vector<PageAlloc> fragments_;
};

// alloc_1g_exhausted medians at every pool size, taken in interleaved
// passes as Map2MFlatness takes map_2m's: the three fragmented pools stay
// alive, and each pass takes a block from every size ascending, then
// descending, so host drift lands on every size alike.
std::vector<double> Alloc1GFlatness() {
  // Built largest first: a pool's construction sweep is freed before the
  // next, smaller pool is built, which keeps the peak resident set low.
  std::vector<std::unique_ptr<Alloc1GFragmented>> pools(std::size(k1GSizes));
  for (std::size_t i = pools.size(); i-- > 0;) {
    pools[i] = std::make_unique<Alloc1GFragmented>(k1GSizes[i]);
  }
  constexpr int kPerBlock = 10;
  const int warmup_blocks = std::max(1, static_cast<int>(bench::ScaledOps(40)) / kPerBlock);
  for (const std::unique_ptr<Alloc1GFragmented>& pool : pools) {
    for (int i = 0; i < warmup_blocks; ++i) {
      pool->Block(kPerBlock);
    }
  }
  const int passes = std::max(1, static_cast<int>(bench::ScaledOps(100)) / 2);
  std::vector<std::vector<double>> blocks(pools.size());
  for (int pass = 0; pass < passes; ++pass) {
    for (std::size_t i = 0; i < pools.size(); ++i) {
      blocks[i].push_back(pools[i]->Block(kPerBlock));
    }
    for (std::size_t i = pools.size(); i-- > 0;) {
      blocks[i].push_back(pools[i]->Block(kPerBlock));
    }
  }
  std::vector<double> medians;
  for (std::vector<double>& size_blocks : blocks) {
    medians.push_back(Median(std::move(size_blocks)));
  }
  return medians;
}

// --- Bare allocator: steady-state 1G alloc+free with a free region ---
double AllocFree1GHit(std::uint64_t frames) {
  PageAllocator alloc(frames, kFramesPer2M);
  int warmup = 4;
  int samples = static_cast<int>(bench::ScaledOps(60));
  std::optional<PageAlloc> held;
  auto timed = [&] {
    held = alloc.AllocPage1G(kNullPtr);
    if (!held.has_value()) {
      std::fprintf(stderr, "alloc_free_1g: allocation failed with a free region\n");
      std::exit(1);
    }
    alloc.FreePage(held->ptr, std::move(held->perm));
  };
  for (int i = 0; i < warmup; ++i) {
    timed();
  }
  return MedianPerOp(samples, 5, timed, [] {});
}

// --- Atmosphere: one 8-entry drain of a kRingDrainAtomic ring ---
//
// Submission and reaping run untimed; every drained entry must succeed, so
// the snapshot is dropped, never restored.
double AtmoRingDrainAtomic(std::uint64_t frames) {
  BootConfig config;
  config.frames = frames;
  config.reserved_frames = 16;
  Kernel kernel = std::move(*Kernel::Boot(config));
  auto ctnr = kernel.BootCreateContainer(kernel.root_container(), frames / 2, ~0ull);
  auto proc = kernel.BootCreateProcess(ctnr.value);
  ThrdPtr thrd = kernel.BootCreateThread(proc.value).value;

  constexpr int kPages = 4;
  Syscall setup;
  setup.op = SysOp::kRingSetup;
  setup.ring_entries = 2 * kPages;
  setup.ring_flags = kRingDrainAtomic;
  Syscall enter;
  enter.op = SysOp::kRingEnter;
  enter.ring_id = kernel.Step(thrd, setup).value;

  auto submit = [&] {
    Syscall sub;
    sub.op = SysOp::kRingSubmit;
    sub.ring_id = enter.ring_id;
    sub.map_perm = MapEntryPerm{.writable = true, .user = true, .no_execute = false};
    for (SysOp op : {SysOp::kMmap, SysOp::kMunmap}) {
      sub.ring_op = op;
      for (int i = 0; i < kPages; ++i) {
        sub.va_range = VaRange{0x400000 + i * kPageSize4K, 1, PageSize::k4K};
        if (!kernel.RingPushDirect(thrd, sub).ok()) {
          std::fprintf(stderr, "ring_drain_atomic: submission failed\n");
          std::exit(1);
        }
      }
    }
  };
  auto reap = [&] {
    RingCqEntry cqes[2 * kPages];
    std::size_t n = kernel.RingReap(thrd, enter.ring_id, cqes, std::size(cqes));
    if (n != std::size(cqes) ||
        !std::all_of(cqes, cqes + n, [](const RingCqEntry& e) { return e.ret.ok(); })) {
      std::fprintf(stderr, "ring_drain_atomic: a drained entry failed\n");
      std::exit(1);
    }
    submit();
  };
  auto timed = [&] {
    ModeSwitch();
    kernel.Step(thrd, enter);
  };

  submit();
  int warmup = static_cast<int>(bench::ScaledOps(40));
  for (int i = 0; i < warmup; ++i) {
    timed();
    reap();
  }
  int samples = static_cast<int>(bench::ScaledOps(200));
  return MedianPerOp(samples, 5, timed, reap);
}

struct OpResult {
  std::string op;
  std::vector<std::uint64_t> frames;
  std::vector<double> medians;
  bool flat_required = false;

  double Growth() const {
    return (medians.size() > 1 && medians.front() > 0.0) ? medians.back() / medians.front()
                                                         : 1.0;
  }
  bool Ok() const { return !flat_required || Growth() <= kFlatThreshold; }
};

void AppendOpJson(obs::JsonWriter* w, const OpResult& r) {
  w->BeginObject();
  w->KV("op", r.op);
  w->Key("frames").BeginArray();
  for (std::uint64_t frames : r.frames) {
    w->Uint(frames);
  }
  w->EndArray();
  w->Key("median_cycles").BeginArray();
  for (double median : r.medians) {
    w->Double(median, "%.0f");
  }
  w->EndArray();
  w->KV("growth", r.Growth(), "%.3f");
  w->KV("flat_required", r.flat_required);
  w->KV("ok", r.Ok());
  w->EndObject();
}

}  // namespace
}  // namespace atmo

int main() {
  using namespace atmo;

  std::printf("=== Table 3: syscall latency (cycles, median) across machine sizes ===\n");
  std::printf("paper reference (c220g5): call/reply atmo 1058 vs seL4 1026;\n");
  std::printf("map a page atmo 1984 vs seL4 2650\n\n");

  std::vector<OpResult> ops;

  OpResult call_reply{.op = "call_reply", .flat_required = false};
  OpResult map_4k{.op = "map_4k", .flat_required = false};
  OpResult map_2m{.op = "map_2m", .flat_required = true};
  for (std::uint64_t frames : kKernelSizes) {
    call_reply.frames.push_back(frames);
    call_reply.medians.push_back(AtmoCallReply(frames));
    map_4k.frames.push_back(frames);
    map_4k.medians.push_back(AtmoMap4K(frames));
    map_2m.frames.push_back(frames);
  }
  map_2m.medians = Map2MFlatness();
  ops.push_back(std::move(call_reply));
  ops.push_back(std::move(map_4k));
  ops.push_back(std::move(map_2m));

  OpResult alloc_1g{.op = "alloc_1g_exhausted", .flat_required = true};
  alloc_1g.frames.assign(std::begin(k1GSizes), std::end(k1GSizes));
  alloc_1g.medians = Alloc1GFlatness();
  ops.push_back(std::move(alloc_1g));

  OpResult hit{.op = "alloc_free_1g", .flat_required = false};
  hit.frames.push_back(k1GSizes[0]);
  hit.medians.push_back(AllocFree1GHit(k1GSizes[0]));
  ops.push_back(std::move(hit));

  OpResult drain{.op = "ring_drain_atomic", .flat_required = false};
  for (std::uint64_t frames : kKernelSizes) {
    drain.frames.push_back(frames);
    drain.medians.push_back(AtmoRingDrainAtomic(frames));
  }
  ops.push_back(std::move(drain));

  OpResult sel4_ipc{.op = "sel4_call_reply", .flat_required = false};
  sel4_ipc.frames.push_back(kKernelSizes[0]);
  sel4_ipc.medians.push_back(CapKernelCallReply());
  ops.push_back(std::move(sel4_ipc));

  OpResult sel4_map{.op = "sel4_map_page", .flat_required = false};
  sel4_map.frames.push_back(kKernelSizes[0]);
  sel4_map.medians.push_back(CapKernelMapPage());
  ops.push_back(std::move(sel4_map));

  std::printf("%-22s %12s %12s %12s %8s %6s\n", "operation", "smallest", "mid", "largest",
              "growth", "gate");
  for (const OpResult& r : ops) {
    std::printf("%-22s %12.0f %12.0f %12.0f %7.2fx %6s\n", r.op.c_str(), r.medians[0],
                r.medians.size() > 1 ? r.medians[1] : 0.0,
                r.medians.size() > 2 ? r.medians[2] : 0.0, r.Growth(),
                r.flat_required ? (r.Ok() ? "PASS" : "FAIL") : "info");
  }

  bool all_ok = true;
  for (const OpResult& r : ops) {
    all_ok = all_ok && r.Ok();
  }
  // Mostly the three fragmented 1G pools' frame metadata, alive together.
  const double peak_rss_mib = PeakRssMib();
  std::printf("\npeak RSS: %.1f MiB\n", peak_rss_mib);

  obs::JsonWriter w;
  w.BeginObject();
  w.KV("bench", "table3_syscall_latency");
  w.KV("quick", Quick());
  w.KV("flat_threshold", kFlatThreshold, "%.2f");
  w.Key("ops").BeginArray();
  for (const OpResult& r : ops) {
    AppendOpJson(&w, r);
  }
  w.EndArray();
  w.KV("peak_rss_mib", peak_rss_mib, "%.1f");
  w.KV("all_ok", all_ok);
  w.EndObject();
  obs::WriteTextFile("BENCH_table3_syscall_latency.json", w.str() + "\n");
  std::printf("\nwrote BENCH_table3_syscall_latency.json (all_ok=%s)\n",
              all_ok ? "true" : "false");
  return all_ok ? 0 : 1;
}
