// Table 2 reproduction: verification time (1 vs 8 threads).
//
// The paper measures Verus/SMT wall time for: NrOS's page table (recursive
// ownership), Atmosphere's page table (flat ownership), and full
// Atmosphere. In this executable model, "verification" is the runtime
// checking suite: every well-formedness invariant, page-table refinement,
// memory-safety/leak-freedom argument, plus a per-syscall specification
// replay over a recorded trace. The flat-vs-recursive ablation is
// preserved: the same page tables are checked by the flat checker
// (Atmosphere-style, direct node access via the flat permission map) and by
// the recursive checker (NrOS-style interpretation that materializes and
// merges per-subtree maps).
//
// Paper reference (c220g5): NrOS PT 1m52s/51s (1/8 threads), Atmo PT 33s,
// Mimalloc 8m12s/1m40s, VeriSMo 61m/12m, Atmosphere full 3m29s/1m7s. The
// reproduced claims: (a) flat PT checking is several times faster than
// recursive on the same state, (b) the full suite parallelizes across
// checks. The 8-thread column can speed up by at most the CPUs the process
// may run on (HostCpus), and only as far as co-tenants leave them free.

#include <cstdio>

#include "bench/pipeline.h"
#include "src/pagetable/refinement.h"
#include "src/verif/invariant_registry.h"
#include "src/verif/refinement_checker.h"

namespace atmo {
namespace bench {
namespace {

constexpr MapEntryPerm kRw{.writable = true, .user = true, .no_execute = false};

// Builds a populated kernel: a container tree, processes with large address
// spaces, threads parked in IPC states, endpoints, IOMMU domains.
struct Workload {
  Kernel kernel;
  std::vector<ProcPtr> procs;
  std::vector<ThrdPtr> threads;

  static Workload Build(std::uint64_t pages_per_proc) {
    BootConfig config;
    config.frames = 65536;  // 256 MiB
    config.reserved_frames = 16;
    Workload w{std::move(*Kernel::Boot(config)), {}, {}};
    Kernel& k = w.kernel;

    std::uint64_t rng = 0x12345;
    auto next = [&rng] {
      rng ^= rng << 13;
      rng ^= rng >> 7;
      rng ^= rng << 17;
      return rng;
    };

    CtnrPtr parents[3] = {k.root_container(), kNullPtr, kNullPtr};
    auto c1 = k.BootCreateContainer(k.root_container(), 44000, ~0ull);
    auto c2 = k.BootCreateContainer(c1.value, 26000, ~0ull);
    parents[1] = c1.value;
    parents[2] = c2.value;

    for (int i = 0; i < 8; ++i) {
      auto proc = k.BootCreateProcess(parents[i % 3 == 0 ? 1 : 2]);
      auto thrd = k.BootCreateThread(proc.value);
      w.procs.push_back(proc.value);
      w.threads.push_back(thrd.value);

      // Scattered mappings to grow a deep, wide page table.
      std::uint64_t mapped = 0;
      int failures = 0;
      while (mapped < pages_per_proc && failures < 10000) {
        Syscall mmap;
        mmap.op = SysOp::kMmap;
        std::uint64_t count = 1 + next() % 8;
        VAddr base = ((next() % 4096) * 16 + 16) * kPageSize4K;
        mmap.va_range = VaRange{base, count, PageSize::k4K};
        mmap.map_perm = kRw;
        SyscallRet ret = k.Step(thrd.value, mmap);
        if (ret.ok()) {
          mapped += count;
        } else {
          ++failures;  // collision or quota: bounded retries, never hang
        }
      }
    }
    // Endpoints + parked IPC states.
    for (std::size_t i = 0; i + 1 < w.threads.size(); i += 2) {
      Syscall ne;
      ne.op = SysOp::kNewEndpoint;
      ne.edpt_idx = 0;
      SyscallRet e = k.Step(w.threads[i], ne);
      k.pm_mut().BindEndpoint(w.threads[i + 1], 0, e.value);
      Syscall recv;
      recv.op = SysOp::kRecv;
      recv.edpt_idx = 0;
      k.Step(w.threads[i + 1], recv);  // park as receiver
    }
    return w;
  }
};

double TimePtChecks(const Kernel& kernel, bool recursive, unsigned threads) {
  // One registry entry per address space so 1-vs-8 threads parallelizes
  // across tables, like SMT queries per function.
  InvariantRegistry reg;
  for (const auto& [proc, table] : kernel.vm().tables()) {
    const PageTable* t = &table;
    reg.Register(recursive ? "pt_recursive" : "pt_flat",
                 [t, recursive](const Kernel& k) -> InvResult {
                   RefinementReport r = recursive ? RecursiveRefinementCheck(*t, k.mem())
                                                  : FlatRefinementCheck(*t, k.mem());
                   if (!r.ok) {
                     return InvResult::Fail(r.detail);
                   }
                   if (!t->StructureWf(k.mem())) {
                     return InvResult::Fail("structure");
                   }
                   return InvResult{};
                 });
  }
  SuiteReport report = reg.RunAll(kernel, threads);
  if (!report.AllOk()) {
    std::fprintf(stderr, "PT check failed!\n");
  }
  return report.wall_seconds;
}

// Full "verification": the invariant suite plus a spec-checked trace replay
// (every syscall re-validated against its abstract specification).
double TimeFullSuite(const Workload& w, bool recursive_pt, unsigned threads, int repeats) {
  auto start = std::chrono::steady_clock::now();
  for (int r = 0; r < repeats; ++r) {
    InvariantRegistry suite = InvariantRegistry::StandardSuite(recursive_pt);
    SuiteReport report = suite.RunAll(w.kernel, threads);
    if (!report.AllOk()) {
      std::fprintf(stderr, "suite failed!\n");
    }
    // Trace replay on a clone (the per-function spec obligations).
    Kernel clone = w.kernel.CloneForVerification();
    RefinementChecker checker(&clone, /*check_wf_every=*/0);
    std::uint64_t rng = 99;
    auto next = [&rng] {
      rng ^= rng << 13;
      rng ^= rng >> 7;
      rng ^= rng << 17;
      return rng;
    };
    for (int step = 0; step < 60; ++step) {
      ThrdPtr t = w.threads[next() % w.threads.size()];
      if (!clone.pm().ThreadExists(t)) {
        continue;
      }
      ThreadState s = clone.pm().GetThread(t).state;
      if (s != ThreadState::kRunnable && s != ThreadState::kRunning) {
        continue;
      }
      Syscall call;
      switch (next() % 3) {
        case 0:
          call.op = SysOp::kYield;
          break;
        case 1: {
          call.op = SysOp::kMmap;
          call.va_range = VaRange{((next() % 4096) * 16 + 8) * kPageSize4K, 1,
                                  PageSize::k4K};
          call.map_perm = kRw;
          break;
        }
        case 2: {
          call.op = SysOp::kMunmap;
          call.va_range = VaRange{((next() % 4096) * 16 + 16) * kPageSize4K, 1,
                                  PageSize::k4K};
          break;
        }
      }
      checker.Step(t, call);
    }
  }
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count() /
         repeats;
}

}  // namespace
}  // namespace bench
}  // namespace atmo

int main() {
  using namespace atmo::bench;
  bool quick = std::getenv("ATMO_BENCH_QUICK") != nullptr;
  std::uint64_t pages = quick ? 800 : 2500;

  std::printf("=== Table 2: verification time of different systems ===\n");
  std::printf("paper reference: NrOS PT 112s/51s, Atmo PT 33s/-, Atmosphere full 209s/67s\n");
  std::printf("(this host: %u schedulable CPUs — the 8-thread column can speed up by at\n",
              HostCpus());
  std::printf("most that much)\n\n");

  Workload w = Workload::Build(pages);
  std::size_t total_mappings = 0;
  for (const auto& [proc, table] : w.kernel.vm().tables()) {
    total_mappings += table.MappingCount();
  }
  std::printf("workload: %zu address spaces, %zu total mappings\n\n",
              w.kernel.vm().tables().size(), total_mappings);

  double nros_1 = TimePtChecks(w.kernel, /*recursive=*/true, 1);
  double nros_8 = TimePtChecks(w.kernel, /*recursive=*/true, 8);
  double atmo_pt_1 = TimePtChecks(w.kernel, /*recursive=*/false, 1);
  double atmo_pt_8 = TimePtChecks(w.kernel, /*recursive=*/false, 8);
  int repeats = quick ? 1 : 2;
  double full_1 = TimeFullSuite(w, false, 1, repeats);
  double full_8 = TimeFullSuite(w, false, 8, repeats);

  std::printf("%-36s %12s %12s\n", "system", "1 thread(s)", "8 thread(s)");
  std::printf("%-36s %12s %12s\n", "------", "-----------", "-----------");
  std::printf("%-36s %11.3fs %11.3fs\n", "NrOS-style page table (recursive)", nros_1, nros_8);
  std::printf("%-36s %11.3fs %11.3fs\n", "Atmosphere page table (flat)", atmo_pt_1, atmo_pt_8);
  std::printf("%-36s %11.3fs %11.3fs\n", "Atmosphere full suite + trace replay", full_1,
              full_8);
  std::printf("\nflat vs recursive page-table checking speedup (1 thread): %.2fx\n",
              nros_1 / atmo_pt_1);
  return 0;
}
