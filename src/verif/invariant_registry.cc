#include "src/verif/invariant_registry.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

#include "src/obs/flight_recorder.h"
#include "src/pagetable/refinement.h"

namespace atmo {

bool SuiteReport::AllOk() const {
  for (const CheckOutcome& outcome : outcomes) {
    if (!outcome.ok) {
      return false;
    }
  }
  return true;
}

double SuiteReport::TotalCheckSeconds() const {
  double total = 0.0;
  for (const CheckOutcome& outcome : outcomes) {
    total += outcome.seconds;
  }
  return total;
}

void InvariantRegistry::Register(std::string name, CheckFn check) {
  checks_.push_back(Entry{std::move(name), std::move(check)});
}

SuiteReport InvariantRegistry::RunAll(const Kernel& kernel, unsigned threads) const {
  // Span on the calling thread only: worker threads inherit no recorder
  // (FlightRecorder is single-owner), so the suite traces as one audit span.
  ATMO_OBS_SPAN_ARG(obs::kCatCheck, "check.invariant_suite", "checks", checks_.size());
  SuiteReport report;
  report.outcomes.resize(checks_.size());

  auto wall_start = std::chrono::steady_clock::now();
  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    while (true) {
      std::size_t i = next.fetch_add(1);
      if (i >= checks_.size()) {
        return;
      }
      auto start = std::chrono::steady_clock::now();
      InvResult result = checks_[i].check(kernel);
      auto end = std::chrono::steady_clock::now();
      CheckOutcome& out = report.outcomes[i];
      out.name = checks_[i].name;
      out.ok = result.ok;
      out.detail = result.detail;
      out.seconds = std::chrono::duration<double>(end - start).count();
    }
  };

  // Never spawn more workers than there are checks: an excess worker would
  // pay thread creation only to pop an out-of-range index and exit.
  unsigned spawn = static_cast<unsigned>(
      std::min<std::size_t>(threads, checks_.size()));
  if (spawn <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(spawn);
    for (unsigned i = 0; i < spawn; ++i) {
      pool.emplace_back(worker);
    }
    for (std::thread& t : pool) {
      t.join();
    }
  }
  report.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();
  return report;
}

InvariantRegistry InvariantRegistry::StandardSuite(bool recursive_pt) {
  InvariantRegistry reg;
  reg.Register("container_tree_wf",
               [](const Kernel& k) { return ContainerTreeWf(k.pm()); });
  reg.Register("process_tree_wf", [](const Kernel& k) { return ProcessTreeWf(k.pm()); });
  reg.Register("threads_wf", [](const Kernel& k) { return ThreadsWf(k.pm()); });
  reg.Register("endpoints_wf", [](const Kernel& k) { return EndpointsWf(k.pm()); });
  reg.Register("scheduler_wf", [](const Kernel& k) { return SchedulerWf(k.pm()); });
  reg.Register("quota_wf", [](const Kernel& k) { return QuotaWf(k.pm(), k.alloc()); });
  reg.Register("page_allocator_wf", [](const Kernel& k) {
    return k.alloc().Wf() ? InvResult{} : InvResult::Fail("allocator ill-formed");
  });
  reg.Register("vm_wf", [](const Kernel& k) {
    return k.vm().Wf(k.mem(), k.alloc()) ? InvResult{}
                                         : InvResult::Fail("vm subsystem ill-formed");
  });
  reg.Register("iommu_wf", [](const Kernel& k) {
    return k.iommu().Wf() ? InvResult{} : InvResult::Fail("iommu subsystem ill-formed");
  });
  reg.Register("rings_wf", [](const Kernel& k) {
    return k.rings().Wf() ? InvResult{} : InvResult::Fail("syscall-ring table ill-formed");
  });
  reg.Register("memory_safety_wf", [](const Kernel& k) { return k.MemorySafetyWf(); });

  // Page-table refinement: one check per address space plus per IOMMU
  // domain, in the flat or recursive style.
  reg.Register(recursive_pt ? "pt_refinement(recursive)" : "pt_refinement(flat)",
               [recursive_pt](const Kernel& k) -> InvResult {
                 for (const auto& [proc, table] : k.vm().tables()) {
                   RefinementReport r = recursive_pt
                                            ? RecursiveRefinementCheck(table, k.mem())
                                            : FlatRefinementCheck(table, k.mem());
                   if (!r.ok) {
                     return InvResult::Fail(r.detail);
                   }
                   if (!table.StructureWf(k.mem())) {
                     return InvResult::Fail("page-table structure ill-formed");
                   }
                 }
                 for (const auto& [id, table] : k.iommu().domains()) {
                   RefinementReport r = recursive_pt
                                            ? RecursiveRefinementCheck(table, k.mem())
                                            : FlatRefinementCheck(table, k.mem());
                   if (!r.ok) {
                     return InvResult::Fail(r.detail);
                   }
                 }
                 return InvResult{};
               });
  reg.Register("pt_mmu_cross_check", [](const Kernel& k) -> InvResult {
    for (const auto& [proc, table] : k.vm().tables()) {
      RefinementReport r = MmuCrossCheck(table, k.mmu());
      if (!r.ok) {
        return InvResult::Fail(r.detail);
      }
    }
    return InvResult{};
  });
  return reg;
}

}  // namespace atmo
