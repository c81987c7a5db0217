// End-to-end load harness: ~10^6 simulated clients driven through a Maglev
// load balancer into httpd/kv-store backends over the simulated NIC, with
// every request paying one verified kernel syscall — either per-call checked
// (one RefinementChecker::Step per request) or batched through a syscall
// ring (SQ entries pushed via the shared-memory fast path, one checked
// kRingEnter transition per batch; DESIGN.md §13).
//
// Shared by bench/bench_end_to_end.cc (the measured Figure-style bench with
// the BENCH_end_to_end.json summary and the >=5x amortization gate) and
// examples/load_driver.cpp (the narrative walkthrough at friendlier scale).

#ifndef ATMO_BENCH_END_TO_END_H_
#define ATMO_BENCH_END_TO_END_H_

#include <cstdint>
#include <string>
#include <vector>

#include "bench/pipeline.h"
#include "src/verif/refinement_checker.h"

namespace atmo {
namespace bench {

struct E2EOptions {
  std::uint64_t requests = 100000;
  // Distinct client 5-tuples generated round-robin (2^20 ~= a million).
  std::uint32_t clients_log2 = 20;
  // 0 = per-call checking (one checker.Step per request); otherwise the
  // number of requests drained per checked kRingEnter transition.
  std::uint32_t batch = 0;
  // true: SQ entries arrive via Kernel::RingPushDirect (the shared-memory
  // io_uring fast path — no kernel transition per submit). false: each
  // submit is its own checked kRingSubmit syscall.
  bool shm_submit = true;
  // Zero-copy splice path (DESIGN.md §15): responses come from pre-rendered
  // DMA slices transmitted in place (TxInPlaceDeferred) instead of being
  // copied into claimed TX buffers, and each RX burst pays a checked
  // kBorrow page-grant rendezvous (Recv + Send-with-grant + GrantReturn)
  // that lends the server thread the burst's pages read-only — the kernel
  // work the copies used to stand in for. bytes_copied must be 0 here.
  bool splice = false;
  // Trace-scale checking: sampled total_wf, periodic full-Ψ audit.
  RefinementChecker::Options checker{.check_wf_every = 64, .audit_every = 256,
                                     .incremental = true};
};

struct E2EResult {
  Row row;  // config name, requests completed, req/s, wall seconds
  // Kernel syscalls executed on behalf of requests (inner calls for the
  // batched configs) and the rate the checker certified them at.
  std::uint64_t inner_syscalls = 0;
  double checked_syscalls_per_sec = 0.0;
  // Request latency: ingestion -> the request's kernel work is certified
  // (per-call: its Step returns; batched: its batch's drain completes, so
  // queueing delay is included). Bucketed obs::Histogram percentiles.
  std::uint64_t p50_ns = 0;
  std::uint64_t p99_ns = 0;
  std::uint64_t httpd_responses = 0;
  std::uint64_t kv_responses = 0;
  std::uint64_t batch_drains = 0;
  // Payload bytes staged through memcpy during the serving loop
  // (obs::CopyProbe delta) — the number the splice path drives to zero and
  // CI gates at zero; copy-path configs report their true copy volume.
  std::uint64_t bytes_copied = 0;
  double bytes_copied_per_request = 0.0;
  // Splice config only: responses transmitted in place from pre-rendered
  // slices (the remainder fell back to the TxClaim copy path).
  std::uint64_t spliced_responses = 0;
  // Per-stage latency attribution from the sampled trace ids (requests
  // whose RxView drew a nonzero id from the obs sampler). The stage
  // timestamps partition [burst peek, certification] exactly, so per
  // request the stage durations sum to its "e2e" entry by construction:
  //   percall : rx -> app -> tx -> check
  //   batched : rx -> app -> tx -> ring_drain -> check
  //   splice  : rx -> app -> tx -> deliver -> check
  // Exact-ns percentiles over the samples (not bucketed), plus the "e2e"
  // reference row computed over the same sampled population.
  struct StageStats {
    std::string stage;
    std::uint64_t count = 0;
    std::uint64_t p50_ns = 0;
    std::uint64_t p95_ns = 0;
    std::uint64_t p99_ns = 0;
  };
  std::vector<StageStats> stage_breakdown;
  std::uint64_t sampled_requests = 0;
  // Frames the driver received, each offered once to the trace sampler.
  std::uint64_t rx_frames = 0;
  bool all_ok = false;
};

E2EResult RunEndToEnd(const std::string& config_name, const E2EOptions& options);

// Syscall-only amortization microbench: the same rotating mmap/munmap trace
// checked per-call (batch = 0) or through shared-memory-submitted ring
// batches. Returns certified inner-syscalls per second — the number the
// >=5x batched-vs-per-call gate compares. `use_arena` toggles the checker's
// spec-rep arenas; the arena-off run is the baseline for the
// allocations-per-checked-step gate (DESIGN.md §14). With `seconds` > 0 the
// run is a fixed-duration rep instead: chunks of `ops` syscalls (a multiple
// of `batch`) repeat until `seconds` have passed.
double CheckedSyscallRate(std::uint64_t ops, std::uint32_t batch,
                          CheckStats* stats_out = nullptr, bool use_arena = true,
                          double seconds = 0.0);

}  // namespace bench
}  // namespace atmo

#endif  // ATMO_BENCH_END_TO_END_H_
