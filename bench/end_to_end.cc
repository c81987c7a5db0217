#include "bench/end_to_end.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstring>
#include <vector>

#include "src/apps/httpd.h"
#include "src/apps/kvstore.h"
#include "src/apps/maglev.h"
#include "src/core/syscall_ring.h"
#include "src/drivers/ixgbe_driver.h"
#include "src/obs/copy_probe.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/metrics.h"
#include "src/verif/trace_gen.h"
#include "src/vstd/check.h"

namespace atmo {
namespace bench {
namespace {

constexpr VAddr kReqWindow = 0x200000;  // per-request mmap churn window
constexpr std::uint32_t kReqWindowSlots = 32;
constexpr std::uint32_t kNicRing = 512;

// Splice mode: the RX burst's pages are symbolically lent to the serving
// process for the duration of the burst — a kBorrow grant of this
// pre-mapped slot page from thrds[0] (driver side) into thrds[2] (app
// side), returned after the burst, the same way RequestSyscall's mmap churn
// stands for per-request buffer management on the copy path.
constexpr VAddr kGrantSlotVa = 0x900000;  // procs[0], outside the churn window
constexpr VAddr kGrantDestVa = 0xA00000;  // procs[1], outside the DMA donors

std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Raw stage timestamps of one sampled request, captured on the fly and
// resolved into durations once the request's certification point is known
// (per-call: its Step; batched: its batch's drain; splice: its burst's
// grant return).
struct SampleTs {
  std::uint64_t trace_id = 0;
  std::uint64_t t_burst = 0;  // burst peek started
  std::uint64_t t0 = 0;       // this view's processing started
  std::uint64_t t_app = 0;    // application handler returned
  std::uint64_t t_tx = 0;     // TX descriptor queued
};

// Exact percentile over raw ns samples (the breakdown is computed from a
// few thousand sampled requests, so no bucketing is needed). Takes a copy:
// nth_element reorders.
std::uint64_t ExactPercentile(std::vector<std::uint64_t> v, double p) {
  if (v.empty()) {
    return 0;
  }
  std::size_t idx = static_cast<std::size_t>(p * static_cast<double>(v.size() - 1));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx), v.end());
  return v[idx];
}

// The i-th request's kernel work: map a page into the rotating window, then
// unmap it — the "per-request buffer" pattern. Every call succeeds, so the
// trace is identical no matter how it is checked.
Syscall RequestSyscall(std::uint64_t i) {
  Syscall c;
  VAddr va = kReqWindow + ((i >> 1) % kReqWindowSlots) * kPageSize4K;
  if ((i & 1) == 0) {
    c.op = SysOp::kMmap;
    c.va_range = VaRange{va, 1, PageSize::k4K};
    c.map_perm = MapEntryPerm{.writable = true, .user = true, .no_execute = true};
  } else {
    c.op = SysOp::kMunmap;
    c.va_range = VaRange{va, 1, PageSize::k4K};
  }
  return c;
}

Syscall AsSubmit(std::uint64_t ring, const Syscall& inner, std::uint64_t user_data) {
  Syscall c = inner;
  c.op = SysOp::kRingSubmit;
  c.ring_id = ring;
  c.ring_op = inner.op;
  c.ring_user_data = user_data;
  return c;
}

Syscall RingEnterCall(std::uint64_t ring) {
  Syscall c;
  c.op = SysOp::kRingEnter;
  c.ring_id = ring;
  return c;
}

std::uint64_t SetupRing(RefinementChecker* checker, ThrdPtr t, std::uint32_t batch) {
  Syscall setup;
  setup.op = SysOp::kRingSetup;
  setup.ring_entries = std::min<std::uint32_t>(
      kMaxRingEntries, std::max<std::uint32_t>(8, std::bit_ceil(batch)));
  SyscallRet ret = checker->Step(t, setup);
  ATMO_CHECK(ret.ok(), "end-to-end ring setup failed");
  return ret.value;
}

Maglev MakeLb() {
  Maglev lb(65537);
  for (int i = 0; i < 8; ++i) {
    MaglevBackend backend;
    backend.name = "backend-" + std::to_string(i);
    backend.mac = MacAddr{0x02, 0, 0, 0, 0x20, static_cast<std::uint8_t>(i)};
    backend.ip = 0x0a020000u + static_cast<std::uint32_t>(i);
    lb.AddBackend(backend);
  }
  lb.Populate();
  return lb;
}

// One ingress frame per simulated client, generated on the fly (a 2^20
// frame pool would be gigabytes; generation cost is identical across the
// measured configurations so the comparison stays fair). Even clients speak
// HTTP to port 80, odd clients speak the kv protocol to port 7.
class ClientGen {
 public:
  explicit ClientGen(std::uint32_t clients_log2)
      : mask_((1ull << clients_log2) - 1) {}

  PacketSource AsSource() {
    return [this](std::uint8_t* buf) -> std::size_t {
      std::uint64_t c = next_++ & mask_;
      FiveTuple flow{.src_ip = 0x0b000000u + static_cast<std::uint32_t>(c >> 16),
                     .dst_ip = 0x0a0000feu,
                     .src_port = static_cast<std::uint16_t>(c),
                     .dst_port = static_cast<std::uint16_t>((c & 1) ? 7 : 80)};
      std::uint8_t payload[128];
      std::size_t payload_len;
      if (c & 1) {
        char key[16];
        int klen = std::snprintf(key, sizeof(key), "k%llu",
                                 static_cast<unsigned long long>(c & 0xfff));
        payload_len = KvStore::BuildRequest(
            payload, (c & 2) ? kKvSet : kKvGet, std::string_view(key, klen),
            (c & 2) ? std::string_view("v0123456789abcdef") : std::string_view());
      } else {
        const char* path = (c & 2) ? "/" : "/index.html";
        int n = std::snprintf(reinterpret_cast<char*>(payload), sizeof(payload),
                              "GET %s HTTP/1.1\r\nHost: c%llu\r\n\r\n", path,
                              static_cast<unsigned long long>(c & 0xffff));
        payload_len = static_cast<std::size_t>(n);
      }
      MacAddr src{0x02, 0, 0, 0, 0, 0x01};
      MacAddr dst{0x02, 0, 0, 0, 0, 0x02};
      return BuildUdpFrame(buf, src, dst, flow, payload, payload_len);
    };
  }

 private:
  std::uint64_t mask_;
  std::uint64_t next_ = 0;
};

}  // namespace

E2EResult RunEndToEnd(const std::string& config_name, const E2EOptions& options) {
  // The verified kernel under trace-scale refinement checking. TraceFixture
  // boots the standard 2-process/3-thread machine; thrds[0] is the server
  // thread whose per-request kernel work is measured.
  TraceFixture f = TraceFixture::Boot();
  if (options.splice) {
    // The grant rendezvous needs endpoint slot 0 (thrds[0] <-> thrds[2]).
    f.SetupIpcAndDma();
  }
  RefinementChecker checker(&f.kernel, options.checker);
  ThrdPtr t = f.thrds[0];

  std::uint64_t ring = 0;
  ATMO_CHECK(!(options.splice && options.batch > 0),
             "splice mode does its kernel work per burst, not per ring batch");
  if (options.batch > 0) {
    ring = SetupRing(&checker, t, options.batch);
  }
  if (options.splice) {
    Syscall mm;
    mm.op = SysOp::kMmap;
    mm.va_range = VaRange{kGrantSlotVa, 1, PageSize::k4K};
    mm.map_perm = MapEntryPerm{.writable = true, .user = true, .no_execute = true};
    ATMO_CHECK(checker.Step(t, mm).ok(), "end-to-end grant slot mmap failed");
  }

  // The data path: simulated NIC + polled driver + Maglev + both backends.
  Machine m;
  ClientGen clients(options.clients_log2);
  m.nic.SetPacketSource(clients.AsSource());
  m.nic.SetPacketSink([](const std::uint8_t*, std::size_t) {});
  IxgbeDriver driver(&m.arena, &m.nic, kNicRing);
  driver.Init();
  Maglev lb = MakeLb();
  Httpd httpd;
  httpd.AddPage("/", "text/html", std::string(256, 'x'));
  httpd.AddPage("/index.html", "text/html", std::string(512, 'y'));
  KvStore store(1 << 14);
  if (options.splice) {
    // Pre-render every response into DMA pages the NIC can transmit from
    // directly. The arena hands back per-page CPU pointers (its physical
    // pages are scattered), so slabs are attached page by page.
    for (std::size_t p = 0; p < httpd.SplicePagesNeeded(); ++p) {
      VAddr iova = m.arena.Alloc(kPageSize4K);
      httpd.AddSplicePage(m.arena.BorrowWrite(iova, kPageSize4K), iova, kHeadersLen);
    }
    for (std::size_t p = 0; p < store.SplicePagesNeeded(); ++p) {
      VAddr iova = m.arena.Alloc(kPageSize4K);
      store.AddSplicePage(m.arena.BorrowWrite(iova, kPageSize4K), iova, kHeadersLen);
    }
    // Warm the store so generator GETs hit (SETs keep overwriting the same
    // keys/values, so the slab stays current).
    char key[16];
    for (std::uint64_t k = 0; k <= 0xfff; ++k) {
      int klen = std::snprintf(key, sizeof(key), "k%llu", static_cast<unsigned long long>(k));
      ATMO_CHECK(store.Set(std::string_view(key, static_cast<std::size_t>(klen)),
                           "v0123456789abcdef"),
                 "end-to-end kv warmup failed");
    }
  }

  E2EResult result;
  obs::Histogram latency;
  std::vector<std::uint64_t> pending_ts;  // batched: submit time per entry
  pending_ts.reserve(options.batch);
  std::vector<RingCqEntry> cqes(std::max<std::uint32_t>(options.batch, 1));
  std::uint64_t done = 0;
  RxView views[32];
  MacAddr my_mac{0x02, 0, 0, 0, 0, 0x02};

  // Stage-attribution samples (sampled requests only). s_wait is the
  // config's waiting stage: ring_drain (batched) or deliver (splice).
  std::vector<std::uint64_t> s_rx, s_app, s_tx, s_wait, s_check, s_e2e;
  std::vector<SampleTs> pending_sampled;  // batched: resolved at the drain
  std::vector<SampleTs> burst_sampled;    // splice: resolved at grant return

  auto drain_batch = [&] {
    std::uint64_t drain_start = NowNs();
    SyscallRet enter = checker.Step(t, RingEnterCall(ring));
    ATMO_CHECK(enter.ok(), "end-to-end batch drain failed");
    ATMO_CHECK(enter.value == pending_ts.size(), "end-to-end drain came up short");
    std::uint64_t check_end = NowNs();
    std::size_t reaped = f.kernel.RingReap(t, ring, cqes.data(), cqes.size());
    ATMO_CHECK(reaped == pending_ts.size(), "end-to-end reap came up short");
    for (std::size_t i = 0; i < reaped; ++i) {
      ATMO_CHECK(cqes[i].ret.ok(), "end-to-end inner syscall failed");
    }
    std::uint64_t now = NowNs();
    for (std::uint64_t ts : pending_ts) {
      latency.Observe(now - ts);
    }
    for (const SampleTs& s : pending_sampled) {
      s_rx.push_back(s.t0 - s.t_burst);
      s_app.push_back(s.t_app - s.t0);
      s_tx.push_back(s.t_tx - s.t_app);
      s_wait.push_back(drain_start - s.t_tx);  // queued in the SQ
      s_check.push_back(check_end - drain_start);
      s_e2e.push_back(check_end - s.t_burst);
    }
    pending_sampled.clear();
    result.inner_syscalls += pending_ts.size();
    pending_ts.clear();
  };

  // Serving-loop copy accounting starts here — splice setup pre-rendering
  // (which legitimately copies) is deliberately outside the probe window.
  obs::CopyProbe copy_probe;
  std::uint64_t splice_t0[32];
  std::uint32_t splice_inflight = 0;

  auto start = std::chrono::steady_clock::now();
  while (done < options.requests) {
    m.nic.DeliverRx(32);
    // Zero-copy burst: borrow up to 32 completed descriptors, parse each
    // payload where the NIC wrote it, build the response directly in a
    // claimed TX buffer, then release the whole burst under one doorbell
    // (DESIGN.md §14). No frame bytes are copied on the request path.
    std::uint64_t t_burst = NowNs();
    std::uint32_t burst = driver.RxPeekBurst(views, 32);
    std::uint32_t queued = 0;
    if (options.splice && burst > 0) {
      // The burst's kernel work: lend the burst's pages to the app process
      // for the duration of the burst. Recv parks the app thread, the Send
      // carries the kBorrow grant, and both transitions are checked.
      Syscall recv;
      recv.op = SysOp::kRecv;
      recv.edpt_idx = 0;
      ATMO_CHECK(checker.Step(f.thrds[2], recv).error == SysError::kBlocked,
                 "end-to-end grant recv did not block");
      Syscall grant;
      grant.op = SysOp::kSend;
      grant.edpt_idx = 0;
      // The rendezvous covers the whole burst; tag the message with the
      // burst's first sampled trace id so the kernel's "stage.deliver"
      // stamp joins that request's causal chain across the process switch.
      for (std::uint32_t i = 0; i < burst; ++i) {
        if (views[i].trace_id != 0) {
          grant.payload.trace_id = views[i].trace_id;
          break;
        }
      }
      grant.payload.page =
          PageGrant{.page = kGrantSlotVa,
                    .size = PageSize::k4K,
                    .dest_va = kGrantDestVa,
                    .perm = MapEntryPerm{.writable = false, .user = true, .no_execute = true},
                    .mode = GrantMode::kBorrow};
      ATMO_CHECK(checker.Step(t, grant).ok(), "end-to-end grant send failed");
      result.inner_syscalls += 2;
    }
    for (std::uint32_t v = 0; v < burst && done < options.requests; ++v) {
      std::uint64_t t0 = NowNs();
      std::uint64_t tid = views[v].trace_id;  // 0 = unsampled
      auto parsed = ParseUdpFrame(views[v].data, views[v].len);
      if (!parsed.has_value() || lb.Lookup(parsed->flow) < 0) {
        continue;
      }
      if (options.splice) {
        // Zero-copy fast path: answer from a pre-rendered DMA slice and
        // point the TX descriptor at it in place. Only the frame headers
        // are written; no payload bytes move.
        std::optional<SpliceSlice> slice =
            parsed->flow.dst_port == 80
                ? httpd.HandleRequestSpliced(parsed->payload, parsed->payload_len, tid)
                : store.HandleRequestSpliced(parsed->payload, parsed->payload_len, tid);
        if (slice.has_value()) {
          std::uint64_t t_app = tid != 0 ? NowNs() : 0;
          FiveTuple reply{.src_ip = parsed->flow.dst_ip, .dst_ip = parsed->flow.src_ip,
                          .src_port = parsed->flow.dst_port,
                          .dst_port = parsed->flow.src_port};
          std::size_t flen =
              FinishUdpFrame(slice->frame, my_mac, parsed->src_mac, reply, slice->resp_len);
          if (!driver.TxInPlaceDeferred(slice->iova, static_cast<std::uint16_t>(flen),
                                        slice->trace_id)) {
            continue;  // TX ring full: drop, like the claim path
          }
          if (tid != 0) {
            burst_sampled.push_back(SampleTs{tid, t_burst, t0, t_app, NowNs()});
          }
          ++(parsed->flow.dst_port == 80 ? result.httpd_responses : result.kv_responses);
          ++result.spliced_responses;
          ++queued;
          splice_t0[splice_inflight++] = t0;
          ++done;
          continue;
        }
        // Fall through: SET/DEL/misses take the ordinary claim-and-copy
        // path (their responses are a status byte pair — still no payload).
      }
      std::uint8_t* tx = driver.TxClaim();
      if (tx == nullptr) {
        continue;  // TX ring full: drop, like TxBurst would
      }
      // Application work on the chosen backend, written straight into the
      // TX frame's payload slot; FinishUdpFrame wraps the headers around it.
      std::uint8_t* resp = tx + kHeadersLen;
      std::size_t rlen;
      if (parsed->flow.dst_port == 80) {
        rlen = httpd.HandleRequest(parsed->payload, parsed->payload_len, resp,
                                   kIxgbeBufBytes - kHeadersLen);
        ++result.httpd_responses;
      } else {
        rlen = store.HandleRequest(parsed->payload, parsed->payload_len, resp);
        ++result.kv_responses;
      }
      std::uint64_t t_app = tid != 0 ? NowNs() : 0;
      FiveTuple reply{.src_ip = parsed->flow.dst_ip, .dst_ip = parsed->flow.src_ip,
                      .src_port = parsed->flow.dst_port,
                      .dst_port = parsed->flow.src_port};
      std::size_t chunk = std::min<std::size_t>(rlen, 1400);
      std::size_t flen = FinishUdpFrame(tx, my_mac, parsed->src_mac, reply, chunk);
      driver.TxCommitDeferred(static_cast<std::uint16_t>(flen), tid);
      std::uint64_t t_tx = tid != 0 ? NowNs() : 0;
      ++queued;

      if (options.splice) {
        // The burst's grant rendezvous already covers this request's kernel
        // work; latency is certified at the burst's GrantReturn.
        if (tid != 0) {
          burst_sampled.push_back(SampleTs{tid, t_burst, t0, t_app, t_tx});
        }
        splice_t0[splice_inflight++] = t0;
        ++done;
        continue;
      }
      // The request's kernel work, certified per-call or batched.
      Syscall call = RequestSyscall(done);
      if (options.batch == 0) {
        SyscallRet ret = checker.Step(t, call);
        ATMO_CHECK(ret.ok(), "end-to-end per-call syscall failed");
        ++result.inner_syscalls;
        std::uint64_t now = NowNs();
        latency.Observe(now - t0);
        if (tid != 0) {
          s_rx.push_back(t0 - t_burst);
          s_app.push_back(t_app - t0);
          s_tx.push_back(t_tx - t_app);
          s_check.push_back(now - t_tx);
          s_e2e.push_back(now - t_burst);
        }
      } else {
        Syscall submit = AsSubmit(ring, call, done);
        SyscallRet s = options.shm_submit ? f.kernel.RingPushDirect(t, submit)
                                          : checker.Step(t, submit);
        ATMO_CHECK(s.ok(), "end-to-end ring submit failed");
        pending_ts.push_back(t0);
        if (tid != 0) {
          pending_sampled.push_back(SampleTs{tid, t_burst, t0, t_app, t_tx});
        }
        if (pending_ts.size() >= options.batch) {
          drain_batch();
        }
      }
      ++done;
    }
    if (queued > 0) {
      driver.TxFlush();
    }
    driver.RxReleaseBurst(burst);
    if (options.splice && burst > 0) {
      // Return the loan: the lender's write access comes back and the
      // burst's requests are certified.
      std::uint64_t gret_start = NowNs();
      Syscall gret;
      gret.op = SysOp::kGrantReturn;
      gret.va_range = VaRange{kGrantDestVa, 1, PageSize::k4K};
      ATMO_CHECK(checker.Step(f.thrds[2], gret).ok(), "end-to-end grant return failed");
      ++result.inner_syscalls;
      std::uint64_t now = NowNs();
      for (std::uint32_t i = 0; i < splice_inflight; ++i) {
        latency.Observe(now - splice_t0[i]);
      }
      splice_inflight = 0;
      for (const SampleTs& s : burst_sampled) {
        s_rx.push_back(s.t0 - s.t_burst);
        s_app.push_back(s.t_app - s.t0);
        s_tx.push_back(s.t_tx - s.t_app);
        s_wait.push_back(gret_start - s.t_tx);  // waiting for the burst's return
        s_check.push_back(now - gret_start);
        s_e2e.push_back(now - s.t_burst);
        // Close the request's flight-recorder chain at its certification
        // point; Perfetto's flow arrow lands on the grant-return stamp.
        ATMO_OBS_INSTANT_ARG(obs::kCatRequest, "stage.check", "trace_id", s.trace_id);
      }
      burst_sampled.clear();
    }
    m.nic.ProcessTx(32);
  }
  if (!pending_ts.empty()) {
    drain_batch();
  }
  double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();

  result.row.config = config_name;
  result.row.ops = done;
  result.row.wall_seconds = wall;
  result.row.ops_per_sec = wall > 0 ? static_cast<double>(done) / wall : 0.0;
  result.checked_syscalls_per_sec =
      wall > 0 ? static_cast<double>(result.inner_syscalls) / wall : 0.0;
  result.p50_ns = latency.Percentile(0.50);
  result.p99_ns = latency.Percentile(0.99);
  result.batch_drains = checker.stats().batch_drains;
  result.bytes_copied = copy_probe.bytes();
  result.bytes_copied_per_request =
      done > 0 ? static_cast<double>(result.bytes_copied) / static_cast<double>(done) : 0.0;
  auto add_stage = [&](const char* name, const std::vector<std::uint64_t>& samples) {
    if (samples.empty()) {
      return;
    }
    E2EResult::StageStats s;
    s.stage = name;
    s.count = samples.size();
    s.p50_ns = ExactPercentile(samples, 0.50);
    s.p95_ns = ExactPercentile(samples, 0.95);
    s.p99_ns = ExactPercentile(samples, 0.99);
    result.stage_breakdown.push_back(std::move(s));
  };
  add_stage("rx", s_rx);
  add_stage("app", s_app);
  add_stage("tx", s_tx);
  add_stage(options.splice ? "deliver" : "ring_drain", s_wait);
  add_stage("check", s_check);
  add_stage("e2e", s_e2e);
  result.sampled_requests = s_e2e.size();
  result.rx_frames = driver.rx_frames();
  // The harness only reaches this point if every checked transition passed
  // (a violation aborts); the final total_wf seals the run.
  result.all_ok = f.kernel.TotalWf().ok;
  return result;
}

double CheckedSyscallRate(std::uint64_t ops, std::uint32_t batch, CheckStats* stats_out,
                          bool use_arena, double seconds) {
  TraceFixture f = TraceFixture::Boot();
  RefinementChecker checker(&f.kernel, RefinementChecker::Options{.check_wf_every = 64,
                                                                  .audit_every = 256,
                                                                  .incremental = true,
                                                                  .use_arena = use_arena});
  ThrdPtr t = f.thrds[0];
  std::uint64_t ring = 0;
  std::vector<RingCqEntry> cqes(std::max<std::uint32_t>(batch, 1));
  if (batch > 0) {
    ring = SetupRing(&checker, t, batch);
  }

  auto start = std::chrono::steady_clock::now();
  std::uint64_t i = 0;  // syscalls certified so far
  double wall = 0.0;
  do {
    const std::uint64_t end = i + ops;
    if (batch == 0) {
      for (; i < end; ++i) {
        SyscallRet ret = checker.Step(t, RequestSyscall(i));
        ATMO_CHECK(ret.ok(), "per-call trace syscall failed");
      }
    } else {
      while (i < end) {
        std::uint64_t n = std::min<std::uint64_t>(batch, end - i);
        for (std::uint64_t j = 0; j < n; ++j, ++i) {
          SyscallRet s = f.kernel.RingPushDirect(t, AsSubmit(ring, RequestSyscall(i), i));
          ATMO_CHECK(s.ok(), "trace ring submit failed");
        }
        SyscallRet enter = checker.Step(t, RingEnterCall(ring));
        ATMO_CHECK(enter.ok() && enter.value == n, "trace batch drain failed");
        std::size_t reaped = f.kernel.RingReap(t, ring, cqes.data(), cqes.size());
        ATMO_CHECK(reaped == n, "trace reap came up short");
      }
    }
    wall = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  } while (wall < seconds);
  if (stats_out != nullptr) {
    *stats_out = checker.stats();
  }
  return wall > 0 ? static_cast<double>(i) / wall : 0.0;
}

}  // namespace bench
}  // namespace atmo
