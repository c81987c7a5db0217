#include "src/sec/noninterference.h"

#include <vector>

#include "src/sec/isolation.h"
#include "src/sec/observation.h"
#include "src/vstd/check.h"

namespace atmo {

namespace {

bool RetEquivalent(SysOp op, const SyscallRet& x, const SyscallRet& y) {
  if (x.error != y.error) {
    return false;
  }
  if (ReturnsObjectPointer(op)) {
    return (x.value == 0) == (y.value == 0);
  }
  return x.value == y.value;
}

}  // namespace

NoninterferenceHarness::NoninterferenceHarness(AbvScenario* scenario, std::uint64_t seed)
    : scenario_(scenario),
      proxy_(&scenario->kernel, *scenario),
      rng_(seed * 0x9e3779b97f4a7c15ull + 0x2545f4914f6cdd1dull) {}

std::uint64_t NoninterferenceHarness::Next() {
  rng_ ^= rng_ << 13;
  rng_ ^= rng_ >> 7;
  rng_ ^= rng_ << 17;
  return rng_;
}

ThrdPtr NoninterferenceHarness::PickSchedulable(const std::vector<ThrdPtr>& candidates) {
  std::vector<ThrdPtr> ready;
  const Kernel& k = scenario_->kernel;
  for (ThrdPtr t : candidates) {
    if (!k.pm().ThreadExists(t)) {
      continue;
    }
    ThreadState s = k.pm().GetThread(t).state;
    if (s == ThreadState::kRunnable || s == ThreadState::kRunning) {
      ready.push_back(t);
    }
  }
  if (ready.empty()) {
    return kNullPtr;
  }
  return ready[Next() % ready.size()];
}

Syscall NoninterferenceHarness::RandomSyscall(ThrdPtr t, bool client_of_a) {
  const Kernel& k = scenario_->kernel;
  CtnrPtr own = client_of_a ? scenario_->a : scenario_->b;
  Syscall call;

  // A small pool of virtual addresses so mmaps, grants and unmaps collide
  // in interesting ways.
  VAddr va = (1 + Next() % 24) * kPageSize4K * 2;

  switch (Next() % 15) {
    case 0:
      call.op = SysOp::kYield;
      break;
    case 1:
    case 2:
      call.op = SysOp::kMmap;
      call.va_range = VaRange{va, 1 + Next() % 3, PageSize::k4K};
      call.map_perm = MapEntryPerm{.writable = Next() % 2 == 0, .user = true,
                                   .no_execute = false};
      break;
    case 3:
      call.op = SysOp::kMunmap;
      call.va_range = VaRange{va, 1, PageSize::k4K};
      break;
    case 4: {  // send a random opcode, sometimes with a page grant
      call.op = SysOp::kSend;
      call.edpt_idx = AbvScenario::kClientSlot;
      call.payload.scalars = {Next() % 3, Next(), 0, 0};
      if (call.payload.scalars[0] == kOpShare && Next() % 2 == 0) {
        // One in three grants rides the zero-copy borrow path (read-only by
        // construction; a writable borrow must be rejected — the harness
        // sometimes asks for one anyway to exercise that rejection).
        GrantMode mode = Next() % 3 == 0 ? GrantMode::kBorrow : GrantMode::kShare;
        bool writable = mode == GrantMode::kBorrow ? Next() % 8 == 0 : true;
        call.payload.page = PageGrant{.page = va,  // sender VA (may be unmapped)
                                      .size = PageSize::k4K,
                                      .dest_va = (0x700 + Next() % 32) * kPageSize4K,
                                      .perm = MapEntryPerm{.writable = writable, .user = true,
                                                           .no_execute = false},
                                      .mode = mode};
      }
      break;
    }
    case 5:
      call.op = SysOp::kCall;
      call.edpt_idx = AbvScenario::kClientSlot;
      call.payload.scalars = {kOpEcho, Next(), 0, 0};
      break;
    case 6:
      call.op = SysOp::kRecv;
      call.edpt_idx = static_cast<EdptIdx>(Next() % 4);  // sometimes unbound
      break;
    case 7:
      call.op = SysOp::kReply;
      call.payload.scalars = {Next(), 0, 0, 0};
      break;
    case 8:
      call.op = SysOp::kNewEndpoint;
      call.edpt_idx = static_cast<EdptIdx>(1 + Next() % (kMaxEdptDescriptors - 1));
      break;
    case 9:
      call.op = SysOp::kNewContainer;
      call.quota = 2 + Next() % 6;
      call.cpu_mask = ~0ull;
      break;
    case 10: {  // kill: own child container (legal) or a foreign one (denied)
      call.op = SysOp::kKillContainer;
      switch (Next() % 4) {
        case 0:
          call.target = client_of_a ? scenario_->b : scenario_->a;  // foreign: denied
          break;
        case 1:
          call.target = scenario_->v;  // shared service: denied
          break;
        case 2:
          call.target = k.root_container();  // denied
          break;
        default: {
          const Container& c = k.pm().GetContainer(own);
          call.target = c.children.empty() ? 0x1234000 : c.children.Front();
          break;
        }
      }
      break;
    }
    case 11: {
      call.op = SysOp::kKillProcess;
      call.target = Next() % 2 == 0 ? scenario_->v_proc
                                    : (client_of_a ? scenario_->b_proc : scenario_->a_proc);
      break;
    }
    case 12:
      call.op = SysOp::kNewThread;
      break;
    case 13: {
      // Exit, but never the domain's last schedulable thread (the trace
      // would starve).
      SpecSet<ThrdPtr> domain = scenario_->kernel.pm().SubtreeThreads(own);
      std::size_t alive = 0;
      domain.ForAll([&](ThrdPtr x) {
        ThreadState s = k.pm().GetThread(x).state;
        if (s == ThreadState::kRunnable || s == ThreadState::kRunning) {
          ++alive;
        }
        return true;
      });
      call.op = alive > 2 ? SysOp::kExit : SysOp::kYield;
      break;
    }
    case 14:
      // Return a borrowed page: target the grant-destination pool (where a
      // live borrow may sit) or, sometimes, an ordinary mapping / hole so
      // the kDenied / kInvalid arms stay covered.
      call.op = SysOp::kGrantReturn;
      call.va_range = VaRange{Next() % 4 == 0 ? va : (0x700 + Next() % 32) * kPageSize4K,
                              1, PageSize::k4K};
      break;
  }
  (void)t;
  return call;
}

UnwindingReport NoninterferenceHarness::Run(const NoninterferenceOptions& options) {
  UnwindingReport report;
  Kernel& kernel = scenario_->kernel;

  for (int step = 0; step < options.steps; ++step) {
    bool from_a = Next() % 2 == 0;
    CtnrPtr own = from_a ? scenario_->a : scenario_->b;
    CtnrPtr other = from_a ? scenario_->b : scenario_->a;

    // Candidates: all threads currently in the acting domain.
    std::vector<ThrdPtr> candidates;
    for (ThrdPtr t : kernel.pm().SubtreeThreads(own)) {
      candidates.push_back(t);
    }
    ThrdPtr t = PickSchedulable(candidates);
    if (t == kNullPtr) {
      // Everyone is blocked on V; service the channels and retry.
      if (options.run_proxy) {
        proxy_.DrainAll();
      }
      t = PickSchedulable(candidates);
      if (t == kNullPtr) {
        continue;
      }
    }
    Syscall call = RandomSyscall(t, from_a);

    // --- OC: replay the step in two cloned worlds ---
    if (options.check_oc && step % options.oc_every == 0) {
      Kernel w1 = kernel.CloneForVerification();
      Kernel w2 = kernel.CloneForVerification();
      SyscallRet r1 = w1.Step(t, call);
      SyscallRet r2 = w2.Step(t, call);
      if (!(r1 == r2) || !(w1.Abstract() == w2.Abstract())) {
        report.ok = false;
        report.detail = "OC violated: identical states diverged";
        return report;
      }
      ++report.oc_checks;
    }

    // --- SC setup ---
    bool sc_armed = options.check_sc && step % options.sc_every == 0;
    DomainView obs_other_pre;
    std::optional<Kernel> world_without;
    if (sc_armed) {
      obs_other_pre = ObserveDomain(kernel.Abstract(), other);
      world_without.emplace(kernel.CloneForVerification());
    }

    // --- Execute the adversarial step ---
    kernel.Step(t, call);
    ++report.steps;

    // --- SC part 1: the other domain's observation is unchanged ---
    if (sc_armed) {
      DomainView obs_other_post = ObserveDomain(kernel.Abstract(), other);
      if (!(obs_other_post == obs_other_pre)) {
        report.ok = false;
        report.detail = "SC violated: foreign step changed the domain's observation";
        return report;
      }
      // --- SC part 2: the other domain's next syscall is unaffected ---
      std::vector<ThrdPtr> other_threads;
      for (ThrdPtr x : kernel.pm().SubtreeThreads(other)) {
        other_threads.push_back(x);
      }
      ThrdPtr ot = PickSchedulable(other_threads);
      if (ot != kNullPtr) {
        Syscall ocall = RandomSyscall(ot, !from_a);
        Kernel with = kernel.CloneForVerification();
        SyscallRet r_with = with.Step(ot, ocall);
        SyscallRet r_without = world_without->Step(ot, ocall);
        if (!RetEquivalent(ocall.op, r_with, r_without)) {
          report.ok = false;
          report.detail = "SC violated: foreign step changed a return value";
          return report;
        }
        DomainView v_with = ObserveDomain(with.Abstract(), other);
        DomainView v_without = ObserveDomain(world_without->Abstract(), other);
        if (!(v_with == v_without)) {
          report.ok = false;
          report.detail = "SC violated: foreign step changed the post-observation";
          return report;
        }
      }
      ++report.sc_checks;
    }

    // --- V services its channels (verified code) ---
    if (options.run_proxy) {
      proxy_.DrainAll();
      std::string detail;
      if (!proxy_.SpecWf(&detail)) {
        report.ok = false;
        report.detail = "V functional correctness violated: " + detail;
        return report;
      }
    }

    // --- Isolation invariants after the full round ---
    AbstractKernel psi = kernel.Abstract();
    SpecSet<ThrdPtr> t_a = DomainThreads(psi, scenario_->a);
    SpecSet<ThrdPtr> t_b = DomainThreads(psi, scenario_->b);
    SpecSet<ProcPtr> p_a = DomainProcs(psi, scenario_->a);
    SpecSet<ProcPtr> p_b = DomainProcs(psi, scenario_->b);
    if (!DomainThreadsWf(psi, scenario_->a, t_a) ||
        !DomainThreadsWf(psi, scenario_->b, t_b)) {
      report.ok = false;
      report.detail = "T_A_wf violated";
      return report;
    }
    if (!MemoryIso(psi, p_a, p_b)) {
      report.ok = false;
      report.detail = "memory_iso violated";
      return report;
    }
    if (!EndpointIso(psi, t_a, t_b)) {
      report.ok = false;
      report.detail = "endpoint_iso violated";
      return report;
    }
    if (!BorrowIso(psi)) {
      report.ok = false;
      report.detail = "borrow_iso violated";
      return report;
    }
    ++report.iso_checks;
  }
  return report;
}

}  // namespace atmo
