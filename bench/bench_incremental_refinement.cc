// Incremental vs full-rebuild refinement checking (DESIGN.md "Incremental
// refinement checking"; no paper counterpart — the paper's verification is
// static, this quantifies the reproduction's dynamic-checking optimisation).
//
// The same mmap/munmap/yield syscall mix runs on the default 16384-frame
// machine under (a) the pre-optimisation checker that rebuilds Ψ from
// scratch three times per step and (b) the incremental checker that patches
// a cached Ψ at the dirty entries only. Reported at check_wf_every = 0
// (pure spec checking) and = 16 (the sampled-invariant configuration), plus
// an informational row with the audit enabled. Emits a JSON summary and
// verifies the acceptance thresholds (≥5x at wf=0, ≥2x at wf=16).
//
// A frames sweep then runs the incremental checker (wf and audit off) on
// 16,384 / 65,536 / 262,144-frame machines. Its gated number is a counter,
// allocations (heap + arena) per checked step, whose growth across the
// sweep ci/perf_floors.json bounds: a checked step must cost O(|dirty| ·
// log frames), not O(frames). Time per step is reported alongside, as
// information only — a time ratio on a shared host moves with the noise.
// Each size is run again with the audit on: the audit compares the cached
// Ψ with concrete state without building a second one, so its allocations
// per audit (the extra allocations of the audited run over the same steps,
// divided by its audits) must not grow with the machine either; that
// growth is gated too, and time per audit is information only. And each
// size is run a third time with Wf checked at every step and the audit off,
// so every check after the first is a LocalWf (DESIGN.md §8): its entries
// read per checked step, a deterministic work counter, are gated the same
// way, and its Wf time per step is information.

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench/pipeline.h"
#include "src/obs/json_writer.h"
#include "src/verif/refinement_checker.h"
#include "src/verif/trace_gen.h"

namespace atmo {
namespace bench {
namespace {

constexpr MapEntryPerm kRw{.writable = true, .user = true, .no_execute = false};

struct Env {
  Kernel kernel;
  ThrdPtr thrd;

  static Env Build(std::uint64_t frames = BootConfig{}.frames) {
    BootConfig config;  // defaults: 16384 frames (64 MiB), 16 reserved
    config.frames = frames;
    Env env{std::move(*Kernel::Boot(config)), kNullPtr};
    auto ctnr = env.kernel.BootCreateContainer(env.kernel.root_container(), 4096, ~0ull);
    auto proc = env.kernel.BootCreateProcess(ctnr.value);
    auto thrd = env.kernel.BootCreateThread(proc.value);
    env.thrd = thrd.value;
    return env;
  }
};

std::uint64_t RunWorkload(RefinementChecker* checker, ThrdPtr thrd, std::uint64_t ops) {
  Xorshift rng{42};
  auto next = [&rng] { return rng.Next(); };
  for (std::uint64_t done = 0; done < ops; ++done) {
    Syscall call;
    switch (next() % 3) {
      case 0:
        call.op = SysOp::kYield;
        break;
      case 1:
        call.op = SysOp::kMmap;
        call.va_range = VaRange{((next() % 512) * 4 + 4) * kPageSize4K, 1, PageSize::k4K};
        call.map_perm = kRw;
        break;
      case 2:
        call.op = SysOp::kMunmap;
        call.va_range = VaRange{((next() % 512) * 4 + 4) * kPageSize4K, 1, PageSize::k4K};
        break;
    }
    checker->Step(thrd, call);
  }
  return ops;
}

struct Result {
  const char* name;
  RefinementChecker::Options options;
  double steps_per_sec = 0.0;
  CheckStats stats;
};

Result RunConfig(const char* name, const RefinementChecker::Options& options,
                 std::uint64_t ops) {
  Env env = Env::Build();
  RefinementChecker checker(&env.kernel, options);
  Row row = RunTimed(name, ops,
                     [&](std::uint64_t n) { return RunWorkload(&checker, env.thrd, n); });
  PrintRow(row, "K");
  return Result{name, options, row.ops_per_sec, checker.stats()};
}

// One row of the frames sweep: the same syscall mix on a machine of
// `frames` frames, measured after a first step that seeds the cached Ψ with
// a full Abstract() (an O(frames) one-off the per-step numbers exclude).
struct SweepRow {
  std::uint64_t frames = 0;
  std::uint64_t steps = 0;
  double steps_per_sec = 0.0;
  double allocs_per_checked_step = 0.0;  // heap + arena
  double abstraction_ns_per_step = 0.0;
  double allocs_per_audit = 0.0;  // heap + arena
  double audit_ns_per_audit = 0.0;
  double local_wf_entries_per_step = 0.0;
  double wf_ns_per_step = 0.0;
};

constexpr std::uint64_t kSweepAuditEvery = 16;

// The measured steps' checker stats (heap + arena allocations in `allocs`).
struct SweepRun {
  CheckStats stats;
  std::uint64_t allocs = 0;
  double steps_per_sec = 0.0;
};

SweepRun RunFramesConfig(std::uint64_t frames, std::uint64_t ops, std::uint64_t audit_every,
                         std::uint64_t check_wf_every = 0) {
  Env env = Env::Build(frames);
  RefinementChecker checker(
      &env.kernel, RefinementChecker::Options{.check_wf_every = check_wf_every,
                                              .audit_every = audit_every, .incremental = true});
  // The first step's TotalWf, like its full Abstract(), is an O(frames)
  // one-off outside the measured steps.
  RunWorkload(&checker, env.thrd, 1);
  CheckStats before = checker.stats();
  char name[64];
  std::snprintf(name, sizeof(name), "incremental, %llu frames%s",
                static_cast<unsigned long long>(frames),
                check_wf_every != 0 ? ", wf"
                : audit_every != 0  ? ", audit"
                                    : "");
  Row row = RunTimed(name, ops,
                     [&](std::uint64_t n) { return RunWorkload(&checker, env.thrd, n); });
  PrintRow(row, "K");
  const CheckStats& after = checker.stats();
  SweepRun out;
  out.stats.steps = after.steps - before.steps;
  out.stats.abstraction_ns = after.abstraction_ns - before.abstraction_ns;
  out.stats.audit_ns = after.audit_ns - before.audit_ns;
  out.stats.audit_passes = after.audit_passes - before.audit_passes;
  out.stats.wf_ns = after.wf_ns - before.wf_ns;
  out.stats.total_wf_runs = after.total_wf_runs - before.total_wf_runs;
  out.stats.local_wf_entries = after.local_wf_entries - before.local_wf_entries;
  out.allocs = (after.heap_allocs - before.heap_allocs) +
               (after.arena_allocs - before.arena_allocs);
  out.steps_per_sec = row.ops_per_sec;
  return out;
}

SweepRow RunFramesRow(std::uint64_t frames, std::uint64_t ops) {
  SweepRun plain = RunFramesConfig(frames, ops, /*audit_every=*/0);
  SweepRun audited = RunFramesConfig(frames, ops, kSweepAuditEvery);
  SweepRun wf = RunFramesConfig(frames, ops, /*audit_every=*/0, /*check_wf_every=*/1);
  if (wf.stats.total_wf_runs != 0) {
    std::fprintf(stderr, "frames sweep: a measured Wf check ran TotalWf\n");
  }
  SweepRow out;
  out.frames = frames;
  out.steps = plain.stats.steps;
  out.steps_per_sec = plain.steps_per_sec;
  double steps = static_cast<double>(out.steps);
  out.allocs_per_checked_step = static_cast<double>(plain.allocs) / steps;
  out.abstraction_ns_per_step = static_cast<double>(plain.stats.abstraction_ns) / steps;
  // Both runs take the same steps and the audit leaves the state as it
  // found it, so the difference is exactly the audits' allocations.
  double audits = static_cast<double>(audited.stats.audit_passes);
  out.allocs_per_audit = static_cast<double>(audited.allocs - plain.allocs) / audits;
  out.audit_ns_per_audit = static_cast<double>(audited.stats.audit_ns) / audits;
  out.local_wf_entries_per_step =
      static_cast<double>(wf.stats.local_wf_entries) / static_cast<double>(wf.stats.steps);
  out.wf_ns_per_step = static_cast<double>(wf.stats.wf_ns) / static_cast<double>(wf.stats.steps);
  return out;
}

// Growth of a per-unit counter from the smallest to the largest machine.
// A zero base (an allocation-free audit) counts as one, so the ratio stays
// a number the JSON can carry.
double Growth(double first, double last) { return first > 0.0 ? last / first : 1.0 + last; }

void EmitJson(const Result* results, int n, double speedup_wf0, double speedup_wf16,
              const std::vector<SweepRow>& sweep) {
  obs::JsonWriter w;
  w.BeginObject();
  w.KV("bench", "incremental_refinement");
  w.KV("machine_frames", std::uint64_t{16384});
  w.Key("configs").BeginArray();
  for (int i = 0; i < n; ++i) {
    const Result& r = results[i];
    w.BeginObject();
    w.KV("name", r.name);
    w.KV("incremental", r.options.incremental);
    w.KV("check_wf_every", r.options.check_wf_every);
    w.KV("audit_every", r.options.incremental ? r.options.audit_every : 0);
    w.KV("steps", r.stats.steps);
    w.KV("steps_per_sec", r.steps_per_sec, "%.1f");
    w.KV("abstraction_ns", r.stats.abstraction_ns);
    w.KV("spec_ns", r.stats.spec_ns);
    w.KV("wf_ns", r.stats.wf_ns);
    w.KV("total_wf_runs", r.stats.total_wf_runs);
    w.KV("local_wf_entries", r.stats.local_wf_entries);
    w.KV("audit_ns", r.stats.audit_ns);
    w.KV("full_abstractions", r.stats.full_abstractions);
    w.KV("delta_abstractions", r.stats.delta_abstractions);
    w.KV("dirty_entries", r.stats.dirty_entries);
    w.KV("max_dirty_entries", r.stats.max_dirty_entries);
    w.KV("audit_passes", r.stats.audit_passes);
    w.EndObject();
  }
  w.EndArray();
  w.KV("speedup_wf0", speedup_wf0, "%.2f");
  w.KV("speedup_wf16", speedup_wf16, "%.2f");
  w.Key("frames_sweep").BeginArray();
  for (const SweepRow& r : sweep) {
    w.BeginObject();
    w.KV("frames", r.frames);
    w.KV("steps", r.steps);
    w.KV("steps_per_sec", r.steps_per_sec, "%.1f");
    w.KV("allocs_per_checked_step", r.allocs_per_checked_step, "%.2f");
    w.KV("abstraction_ns_per_step", r.abstraction_ns_per_step, "%.1f");
    w.KV("audit_every", kSweepAuditEvery);
    w.KV("allocs_per_audit", r.allocs_per_audit, "%.2f");
    w.KV("audit_ns_per_audit", r.audit_ns_per_audit, "%.1f");
    w.KV("local_wf_entries_per_step", r.local_wf_entries_per_step, "%.2f");
    w.KV("wf_ns_per_step", r.wf_ns_per_step, "%.1f");
    w.EndObject();
  }
  w.EndArray();
  w.KV("frames_alloc_growth",
       sweep.back().allocs_per_checked_step / sweep.front().allocs_per_checked_step, "%.3f");
  w.KV("frames_abstraction_time_growth",
       sweep.back().abstraction_ns_per_step / sweep.front().abstraction_ns_per_step, "%.3f");
  w.KV("frames_audit_alloc_growth",
       Growth(sweep.front().allocs_per_audit, sweep.back().allocs_per_audit), "%.3f");
  w.KV("frames_audit_time_growth",
       sweep.back().audit_ns_per_audit / sweep.front().audit_ns_per_audit, "%.3f");
  w.KV("frames_wf_entries_growth",
       sweep.back().local_wf_entries_per_step / sweep.front().local_wf_entries_per_step, "%.3f");
  w.KV("frames_wf_time_growth", sweep.back().wf_ns_per_step / sweep.front().wf_ns_per_step,
       "%.3f");
  w.EndObject();
  std::printf("\nJSON: %s\n", w.str().c_str());
  if (obs::WriteTextFile("BENCH_incremental_refinement.json", w.str() + "\n")) {
    std::printf("wrote BENCH_incremental_refinement.json\n");
  }
}

}  // namespace
}  // namespace bench
}  // namespace atmo

int main() {
  using namespace atmo;
  using namespace atmo::bench;
  using Options = RefinementChecker::Options;

  // The full-rebuild configs pay three O(machine) abstractions per step;
  // give them fewer ops so the bench stays short.
  std::uint64_t inc_ops = ScaledOps(20000);
  std::uint64_t full_ops = ScaledOps(1500);

  std::printf("=== Incremental vs full-rebuild refinement checking (16384 frames) ===\n");
  PrintHeader("checked syscall mix (mmap/munmap/yield)", "K steps/s");

  Result results[5];
  results[0] = RunConfig("full rebuild, wf off",
                         Options{.check_wf_every = 0, .audit_every = 0, .incremental = false},
                         full_ops);
  results[1] = RunConfig("incremental, wf off",
                         Options{.check_wf_every = 0, .audit_every = 0, .incremental = true},
                         inc_ops);
  results[2] = RunConfig("full rebuild, wf every 16",
                         Options{.check_wf_every = 16, .audit_every = 0, .incremental = false},
                         full_ops);
  results[3] = RunConfig("incremental, wf every 16",
                         Options{.check_wf_every = 16, .audit_every = 0, .incremental = true},
                         inc_ops);
  results[4] = RunConfig("incremental, wf 16 + audit 16",
                         Options{.check_wf_every = 16, .audit_every = 16, .incremental = true},
                         inc_ops);

  double speedup_wf0 = results[1].steps_per_sec / results[0].steps_per_sec;
  double speedup_wf16 = results[3].steps_per_sec / results[2].steps_per_sec;

  std::printf("\n=== Frames sweep: incremental, wf off, audit off / every %llu; wf every "
              "step, audit off ===\n",
              static_cast<unsigned long long>(kSweepAuditEvery));
  PrintHeader("checked syscall mix (mmap/munmap/yield)", "K steps/s");
  std::vector<SweepRow> sweep;
  for (std::uint64_t frames : {16384ull, 65536ull, 262144ull}) {
    sweep.push_back(RunFramesRow(frames, inc_ops));
  }
  for (const SweepRow& r : sweep) {
    std::printf("  %7llu frames: %7.1f allocs/checked step, %9.0f ns abstraction/step, "
                "%7.1f allocs/audit, %10.0f ns/audit, %7.1f LocalWf entries/step, "
                "%8.0f ns Wf/step\n",
                static_cast<unsigned long long>(r.frames), r.allocs_per_checked_step,
                r.abstraction_ns_per_step, r.allocs_per_audit, r.audit_ns_per_audit,
                r.local_wf_entries_per_step, r.wf_ns_per_step);
  }
  std::printf("  16K -> 256K growth: allocs/step %.2fx, allocs/audit %.2fx and LocalWf "
              "entries/step %.2fx (gated in ci/perf_floors.json), abstraction time %.2fx, "
              "audit time %.2fx and Wf time %.2fx (info)\n",
              sweep.back().allocs_per_checked_step / sweep.front().allocs_per_checked_step,
              Growth(sweep.front().allocs_per_audit, sweep.back().allocs_per_audit),
              sweep.back().local_wf_entries_per_step / sweep.front().local_wf_entries_per_step,
              sweep.back().abstraction_ns_per_step / sweep.front().abstraction_ns_per_step,
              sweep.back().audit_ns_per_audit / sweep.front().audit_ns_per_audit,
              sweep.back().wf_ns_per_step / sweep.front().wf_ns_per_step);
  EmitJson(results, 5, speedup_wf0, speedup_wf16, sweep);

  bool ok_wf0 = speedup_wf0 >= 5.0;
  bool ok_wf16 = speedup_wf16 >= 2.0;
  std::printf("\nspeedup at wf=0:  %.1fx (threshold 5x)  %s\n", speedup_wf0,
              ok_wf0 ? "PASS" : "FAIL");
  std::printf("speedup at wf=16: %.1fx (threshold 2x)  %s\n", speedup_wf16,
              ok_wf16 ? "PASS" : "FAIL");
  if (std::getenv("ATMO_BENCH_QUICK") != nullptr) {
    return 0;  // thresholds are informational under CI-scaled op counts
  }
  return ok_wf0 && ok_wf16 ? 0 : 1;
}
