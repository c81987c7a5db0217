// serve_percall and serve_splice: closed-loop request serving through the
// simulated NIC, the ixgbe driver, Maglev, httpd / kv store and the verified
// kernel, with every kernel transition certified by the refinement checker.

#include <algorithm>
#include <array>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "perfbench/report.h"
#include "src/apps/httpd.h"
#include "src/apps/kvstore.h"
#include "src/apps/maglev.h"
#include "src/drivers/dma_arena.h"
#include "src/drivers/ixgbe_driver.h"
#include "src/hw/sim_nic.h"
#include "src/obs/copy_probe.h"
#include "src/verif/refinement_checker.h"
#include "src/verif/trace_gen.h"
#include "src/vstd/check.h"

namespace atmo::perfbench {
namespace {

constexpr std::uint32_t kBurst = 32;
constexpr std::uint32_t kNicRing = 512;
constexpr std::uint32_t kFlowsLog2 = 20;
constexpr std::uint32_t kKvKeys = 4096;
// A kv key is not reused within this many kv requests. The splice path
// answers a GET from the key's slab slot, and that slot carries one set of
// frame headers per TX flush window (KvStore::kSpliceStride comment); a
// second GET or a SET of the same key inside one 32-frame burst would
// overwrite a response still waiting to be sent.
constexpr std::uint64_t kKeyReuseGap = 2 * kBurst;
constexpr int kSetupReps = 3;  // per process; run.py takes the median over processes
constexpr int kTracedWindows = 5;  // trace=1: untraced/traced window pairs

constexpr VAddr kReqWindow = 0x200000;  // per-request mmap churn window
constexpr std::uint32_t kReqWindowSlots = 32;
// Splice: the page lent to the app process for each burst, and where the
// loan lands (same layout as the repository's end-to-end bench).
constexpr VAddr kGrantSlotVa = 0x900000;
constexpr VAddr kGrantDestVa = 0xA00000;

constexpr MacAddr kClientMac{0x02, 0, 0, 0, 0, 0x01};
constexpr MacAddr kServerMac{0x02, 0, 0, 0, 0, 0x02};
constexpr std::uint32_t kServerIp = 0x0a0000feu;
constexpr std::uint32_t kClientIpBase = 0x0b000000u;
constexpr std::uint16_t kHttpPort = 80;
constexpr std::uint16_t kKvPort = 7;
constexpr std::size_t kValueLen = 16;

const char* const kPaths[2] = {"/", "/index.html"};
const std::size_t kBodyLen[2] = {256, 512};
const char kBodyChar[2] = {'x', 'y'};

void FormatValue(std::uint64_t id, char out[kValueLen]) {
  static constexpr char kHex[] = "0123456789abcdef";
  for (std::size_t i = 0; i < kValueLen; ++i) {
    out[i] = kHex[(id >> (4 * i)) & 0xf];
  }
}

// The load generator: one frame per request, built from the seed, plus the
// model of every response the server owes. Flows walk an odd-multiplier
// permutation of 2^20 clients, so the response's destination names the
// request it answers; the model keeps only the requests in flight, in a
// table small enough to stay in cache.
class ClientGen {
 public:
  enum class Kind : std::uint8_t { kNone, kHttpRoot, kHttpIndex, kKvGet, kKvSet };

  explicit ClientGen(std::uint64_t seed)
      : rng_state_(SplitMix64(seed)),
        flow_mul_((SplitMix64(seed ^ 0x5eed) << 1) | 1),
        flow_add_(SplitMix64(seed ^ 0xf10f)),
        flow_inv_(InverseOdd(flow_mul_)),
        model_(kKvKeys),
        key_last_use_(kKvKeys, 0) {
    for (std::uint32_t k = 0; k < kKvKeys; ++k) {
      keys_.emplace_back(1, 'k');
      keys_.back() += std::to_string(k);
      model_[k] = NextRandom();
    }
    for (int p = 0; p < 2; ++p) {
      http_req_[p] = std::string("GET ") + kPaths[p] + " HTTP/1.1\r\nHost: perfbench\r\n\r\n";
      bodies_[p] = std::string(kBodyLen[p], kBodyChar[p]);
    }
  }

  std::string_view key(std::uint32_t k) const { return keys_[k]; }
  std::uint64_t model(std::uint32_t k) const { return model_[k]; }

  // Generates request frames until `n` wait for the NIC. Frames are built
  // ahead of DeliverRx so that generation and the device's work are timed
  // apart.
  void Stage(std::uint32_t n) {
    while (staged_ < n) {
      std::size_t slot = (staged_head_ + staged_) % kBurst;
      staged_len_[slot] = Next(staged_frame_[slot].data());
      ++staged_;
    }
  }

  // PacketSource body: hands the NIC the oldest staged frame (0 = none).
  std::size_t Pop(std::uint8_t* frame) {
    if (staged_ == 0) {
      return 0;
    }
    std::size_t len = staged_len_[staged_head_];
    std::memcpy(frame, staged_frame_[staged_head_].data(), len);
    staged_head_ = (staged_head_ + 1) % kBurst;
    --staged_;
    return len;
  }

  // PacketSink body: keeps the response for CheckReceived (the NIC reuses
  // its frame buffer).
  void Receive(const std::uint8_t* frame, std::size_t len) {
    if (received_ == kBurst) {
      CheckReceived();
    }
    std::memcpy(received_frame_[received_].data(), frame, len);
    received_len_[received_] = len;
    ++received_;
  }

  void CheckReceived() {
    for (std::uint32_t i = 0; i < received_; ++i) {
      Check(received_frame_[i].data(), received_len_[i]);
    }
    responses_ += received_;
    received_ = 0;
  }

 private:
  // The next request frame.
  std::size_t Next(std::uint8_t* frame) {
    const std::uint64_t i = next_index_++;
    const std::uint64_t c = (flow_mul_ * i + flow_add_) & kFlowMask;
    Pending& p = pending_[i % kInFlight];
    if (p.kind != Kind::kNone) {
      ++lost_;  // a request kInFlight requests older was never answered
    }
    p.client = c;
    std::uint64_t r = NextRandom();
    bool http = (r & 1) == 0;
    FiveTuple flow{.src_ip = kClientIpBase + static_cast<std::uint32_t>(c >> 16),
                   .dst_ip = kServerIp,
                   .src_port = static_cast<std::uint16_t>(c),
                   .dst_port = http ? kHttpPort : kKvPort};
    std::uint8_t payload[128];
    std::size_t len;
    if (http) {
      int page = static_cast<int>((r >> 1) & 1);
      p.kind = page == 0 ? Kind::kHttpRoot : Kind::kHttpIndex;
      len = http_req_[page].size();
      std::memcpy(payload, http_req_[page].data(), len);
    } else {
      std::uint32_t k = static_cast<std::uint32_t>((r >> 8) % kKvKeys);
      while (key_last_use_[k] != 0 && kv_seq_ + 1 - key_last_use_[k] < kKeyReuseGap) {
        k = (k + 1) % kKvKeys;
      }
      key_last_use_[k] = ++kv_seq_;
      if ((r >> 1) & 1) {
        std::uint64_t v = NextRandom();
        model_[k] = v;
        char value[kValueLen];
        FormatValue(v, value);
        len = KvStore::BuildRequest(payload, kKvSet, keys_[k], std::string_view(value, kValueLen));
        p.kind = Kind::kKvSet;
      } else {
        len = KvStore::BuildRequest(payload, kKvGet, keys_[k], {});
        p.kind = Kind::kKvGet;
        p.value = model_[k];
      }
    }
    ++generated_;
    return BuildUdpFrame(frame, kClientMac, kServerMac, flow, payload, len);
  }

  // Checks one response against the model.
  void Check(const std::uint8_t* frame, std::size_t len) {
    std::optional<ParsedFrame> parsed = ParseUdpFrame(frame, len);
    if (!parsed.has_value() || parsed->flow.src_ip != kServerIp ||
        parsed->flow.dst_ip - kClientIpBase >= (1u << (kFlowsLog2 - 16))) {
      ++bad_;
      return;
    }
    const std::uint64_t c = (std::uint64_t{parsed->flow.dst_ip - kClientIpBase} << 16) |
                            parsed->flow.dst_port;
    const std::uint64_t i = ((c - flow_add_) * flow_inv_) & kFlowMask;  // request index
    Pending& p = pending_[i % kInFlight];
    if (p.client != c) {
      ++bad_;  // no request of this client is in flight
      return;
    }
    const std::uint8_t* body = parsed->payload;
    std::size_t n = parsed->payload_len;
    bool ok = false;
    switch (p.kind) {
      case Kind::kNone:
        break;  // duplicate or unsolicited response
      case Kind::kHttpRoot:
      case Kind::kHttpIndex:
        ok = parsed->flow.src_port == kHttpPort &&
             CheckHttp(body, n, p.kind == Kind::kHttpRoot ? 0 : 1);
        break;
      case Kind::kKvGet: {
        char value[kValueLen];
        FormatValue(p.value, value);
        ok = parsed->flow.src_port == kKvPort && n == 2 + kValueLen && body[0] == kKvOk &&
             body[1] == kValueLen && std::memcmp(body + 2, value, kValueLen) == 0;
        ++kv_get_;
        kv_get_hit_ += n >= 1 && body[0] == kKvOk ? 1 : 0;
        break;
      }
      case Kind::kKvSet:
        ok = parsed->flow.src_port == kKvPort && n == 2 && body[0] == kKvOk && body[1] == 0;
        break;
    }
    if (p.kind == Kind::kNone) {
      ++bad_;
      return;
    }
    p.kind = Kind::kNone;
    ++(ok ? ok_ : bad_);
  }

 public:
  std::uint64_t generated() const { return generated_; }
  std::uint64_t responses() const { return responses_; }
  std::uint64_t ok() const { return ok_; }
  std::uint64_t bad() const { return bad_; }
  std::uint64_t lost() const { return lost_; }
  std::uint64_t kv_get() const { return kv_get_; }
  std::uint64_t kv_get_hit() const { return kv_get_hit_; }

 private:
  static constexpr std::uint64_t kFlowMask = (std::uint64_t{1} << kFlowsLog2) - 1;
  // Requests in flight are at most a burst or two; a larger table only
  // delays the detection of a lost response.
  static constexpr std::size_t kInFlight = 1024;

  struct Pending {
    Kind kind = Kind::kNone;
    std::uint64_t client = ~std::uint64_t{0};
    std::uint64_t value = 0;  // kKvGet: value id the store must return
  };

  // Multiplicative inverse of an odd number modulo 2^64 (Newton's method).
  static std::uint64_t InverseOdd(std::uint64_t a) {
    std::uint64_t x = a;
    for (int i = 0; i < 5; ++i) {
      x *= 2 - a * x;
    }
    return x;
  }

  std::uint64_t NextRandom() {
    rng_state_ += kSplitMix64Gamma;
    return SplitMix64(rng_state_);
  }

  // Status 200, the page's Content-Length and exactly its body.
  bool CheckHttp(const std::uint8_t* body, std::size_t n, int page) const {
    std::string_view text(reinterpret_cast<const char*>(body), n);
    if (!text.starts_with("HTTP/1.1 200 OK\r\n")) {
      return false;
    }
    std::size_t end = text.find("\r\n\r\n");
    std::size_t cl = text.find("Content-Length: ");
    if (end == std::string_view::npos || cl == std::string_view::npos || cl > end) {
      return false;
    }
    std::size_t declared = 0;
    for (std::size_t i = cl + 16; i < end && text[i] >= '0' && text[i] <= '9'; ++i) {
      declared = declared * 10 + static_cast<std::size_t>(text[i] - '0');
    }
    return declared == kBodyLen[page] && n == end + 4 + kBodyLen[page] &&
           text.substr(end + 4) == bodies_[page];
  }

  std::uint64_t rng_state_;
  std::uint64_t flow_mul_;
  std::uint64_t flow_add_;
  std::uint64_t flow_inv_;
  std::uint64_t next_index_ = 0;
  std::array<Pending, kInFlight> pending_;  // by request index
  std::vector<std::uint64_t> model_;  // value id each key holds
  std::vector<std::uint64_t> key_last_use_;  // kv sequence number, 0 = never
  std::uint64_t kv_seq_ = 0;
  std::vector<std::string> keys_;
  std::string http_req_[2];
  std::string bodies_[2];
  std::array<std::uint8_t, kMaxFrameLen> staged_frame_[kBurst];
  std::size_t staged_len_[kBurst] = {};
  std::uint32_t staged_head_ = 0;
  std::uint32_t staged_ = 0;
  std::array<std::uint8_t, kMaxFrameLen> received_frame_[kBurst];
  std::size_t received_len_[kBurst] = {};
  std::uint32_t received_ = 0;

  std::uint64_t generated_ = 0;
  std::uint64_t responses_ = 0;
  std::uint64_t ok_ = 0;
  std::uint64_t bad_ = 0;
  std::uint64_t lost_ = 0;
  std::uint64_t kv_get_ = 0;
  std::uint64_t kv_get_hit_ = 0;
};

// The NIC side of the machine: device memory, IOMMU domain, DMA arena and
// the simulated NIC (the repository's bench Machine without the NVMe).
struct NicMachine {
  static constexpr DeviceId kNicId = 1;
  static constexpr std::uint64_t kFrames = 4096;  // rings, buffers, splice slabs

  PhysMem mem{kFrames};
  PageAllocator alloc{kFrames, 1};
  IommuManager iommu{&mem};
  IommuDomainId domain{iommu.CreateDomain(&alloc, kNullPtr)};
  DmaArena arena{&mem, &alloc, &iommu, domain, 0x10000000ull};
  SimNic nic{&mem, &iommu, kNicId};

  NicMachine() { iommu.AttachDevice(domain, kNicId); }
};

// Everything the serving loop runs on. Members are declared in dependency
// order so they are destroyed before what they point into.
struct Server {
  std::unique_ptr<TraceFixture> f;
  std::unique_ptr<RefinementChecker> checker;
  NicMachine m;
  std::unique_ptr<IxgbeDriver> driver;
  Maglev lb{65537};
  Httpd httpd;
  KvStore store{1 << 14};
};

// serve_percall runs on the default 16,384-frame machine; TraceFixture::Boot
// is fixed at 2,048 frames, so its body is repeated here on a BootConfig{}.
std::unique_ptr<TraceFixture> BootLargeFixture() {
  auto f = std::make_unique<TraceFixture>(std::move(*Kernel::Boot(BootConfig{})));
  f->ctnr = f->kernel.BootCreateContainer(f->kernel.root_container(), 1200, ~0ull).value;
  f->procs[0] = f->kernel.BootCreateProcess(f->ctnr).value;
  f->procs[1] = f->kernel.BootCreateProcess(f->ctnr).value;
  f->thrds[0] = f->kernel.BootCreateThread(f->procs[0]).value;
  f->thrds[1] = f->kernel.BootCreateThread(f->procs[0]).value;
  f->thrds[2] = f->kernel.BootCreateThread(f->procs[1]).value;
  return f;
}

Syscall MapCall(VAddr va) {
  Syscall c;
  c.op = SysOp::kMmap;
  c.va_range = VaRange{va, 1, PageSize::k4K};
  c.map_perm = MapEntryPerm{.writable = true, .user = true, .no_execute = true};
  return c;
}

// The i-th request's kernel work: map a page into the rotating window, then
// unmap it. Every call succeeds.
Syscall RequestSyscall(std::uint64_t i) {
  VAddr va = kReqWindow + ((i >> 1) % kReqWindowSlots) * kPageSize4K;
  if ((i & 1) == 0) {
    return MapCall(va);
  }
  Syscall c;
  c.op = SysOp::kMunmap;
  c.va_range = VaRange{va, 1, PageSize::k4K};
  return c;
}

std::unique_ptr<Server> SetUp(bool splice, const ClientGen& gen) {
  auto s = std::make_unique<Server>();
  if (splice) {
    s->f = std::make_unique<TraceFixture>(TraceFixture::Boot());
    s->f->SetupIpcAndDma();  // endpoint slot 0 for the grant rendezvous
  } else {
    s->f = BootLargeFixture();
  }
  s->checker = std::make_unique<RefinementChecker>(
      &s->f->kernel,
      RefinementChecker::Options{.check_wf_every = 64, .audit_every = 256, .incremental = true});
  // The checker's first step takes the full abstraction; splice lends this
  // page on every burst.
  ATMO_CHECK(s->checker->Step(s->f->thrds[0], MapCall(kGrantSlotVa)).ok(),
             "perfbench: set-up mmap failed");

  s->driver = std::make_unique<IxgbeDriver>(&s->m.arena, &s->m.nic, kNicRing);
  s->driver->Init();
  for (int i = 0; i < 8; ++i) {
    MaglevBackend backend;
    backend.name = "backend-" + std::to_string(i);
    backend.mac = MacAddr{0x02, 0, 0, 0, 0x20, static_cast<std::uint8_t>(i)};
    backend.ip = 0x0a020000u + static_cast<std::uint32_t>(i);
    s->lb.AddBackend(backend);
  }
  s->lb.Populate();
  for (int p = 0; p < 2; ++p) {
    s->httpd.AddPage(kPaths[p], "text/html", std::string(kBodyLen[p], kBodyChar[p]));
  }
  if (splice) {
    for (std::size_t p = 0; p < s->httpd.SplicePagesNeeded(); ++p) {
      VAddr iova = s->m.arena.Alloc(kPageSize4K);
      s->httpd.AddSplicePage(s->m.arena.BorrowWrite(iova, kPageSize4K), iova, kHeadersLen);
    }
    for (std::size_t p = 0; p < s->store.SplicePagesNeeded(); ++p) {
      VAddr iova = s->m.arena.Alloc(kPageSize4K);
      s->store.AddSplicePage(s->m.arena.BorrowWrite(iova, kPageSize4K), iova, kHeadersLen);
    }
  }
  for (std::uint32_t k = 0; k < kKvKeys; ++k) {
    char value[kValueLen];
    FormatValue(gen.model(k), value);
    ATMO_CHECK(s->store.Set(gen.key(k), std::string_view(value, kValueLen)),
               "perfbench: kv warm-up failed");
  }
  return s;
}

struct ServeStats {
  std::uint64_t bursts = 0;
  std::uint64_t peeked = 0;
  std::uint64_t queued = 0;   // responses handed to the driver
  std::uint64_t spliced = 0;  // of those, sent in place from a slab
  std::uint64_t parse_drops = 0;
  std::uint64_t lb_drops = 0;
  std::uint64_t tx_full_drops = 0;
  std::uint64_t certified = 0;  // requests whose kernel work was certified
  std::uint64_t requests = 0;   // per-call checked syscalls issued so far
  LatencyHistogram latency;      // ns, burst peek -> certifying step returned
  // Traced windows only: checked-step durations per op (ticks) and
  // requests per app handler (httpd, kv GET, kv SET).
  std::vector<std::uint64_t> step_ticks[5];
  std::uint64_t traced_app[3] = {};
};

// One serving window: bursts until `deadline_ns`. `tr` is null when
// untraced. Each 32-frame burst passes the layers stage by stage (all frames
// through the parser, then Maglev, then the apps), so a traced burst costs a
// few spans rather than a few per frame; only the claim-and-copy responses,
// whose TX claim, app write and commit must alternate, are spanned per frame.
void Serve(Server& s, ClientGen& gen, bool splice, ServeStats* st, SpanRecorder* tr,
           std::uint64_t deadline_ns) {
  RxView views[kBurst];
  std::optional<ParsedFrame> parsed[kBurst];
  SpanName app[kBurst];
  std::optional<SpliceSlice> slice[kBurst];
  RefinementChecker& checker = *s.checker;
  TraceFixture& f = *s.f;
  auto checked = [&](SpanName name, ThrdPtr t, const Syscall& call) {
    if (tr == nullptr) {
      return checker.Step(t, call);
    }
    tr->Begin(name);
    SyscallRet ret = checker.Step(t, call);
    st->step_ticks[name - kStepMmap].push_back(tr->End());
    return ret;
  };
  auto reply_to = [](const ParsedFrame& p) {
    return FiveTuple{.src_ip = p.flow.dst_ip, .dst_ip = p.flow.src_ip,
                     .src_port = p.flow.dst_port, .dst_port = p.flow.src_port};
  };

  for (;;) {
    {
      Span span(tr, kLoadgenGen);
      gen.Stage(kBurst);
    }
    {
      Span span(tr, kHwDeliverRx);
      s.m.nic.DeliverRx(kBurst);
    }
    std::uint64_t t_burst = NowNs();
    std::uint32_t n;
    {
      Span span(tr, kDrvRxPeek);
      n = s.driver->RxPeekBurst(views, kBurst);
    }
    if (n > 0) {
      ++st->bursts;
      st->peeked += n;
    }
    if (splice && n > 0) {
      // Lend the burst's page to the app process: Recv parks the app
      // thread, the Send carries the kBorrow grant.
      Syscall recv;
      recv.op = SysOp::kRecv;
      recv.edpt_idx = 0;
      ATMO_CHECK(checked(kStepRecv, f.thrds[2], recv).error == SysError::kBlocked,
                 "perfbench: grant recv did not block");
      Syscall grant;
      grant.op = SysOp::kSend;
      grant.edpt_idx = 0;
      grant.payload.page =
          PageGrant{.page = kGrantSlotVa,
                    .size = PageSize::k4K,
                    .dest_va = kGrantDestVa,
                    .perm = MapEntryPerm{.writable = false, .user = true, .no_execute = true},
                    .mode = GrantMode::kBorrow};
      ATMO_CHECK(checked(kStepSendGrant, f.thrds[0], grant).ok(),
                 "perfbench: grant send failed");
    }
    {
      Span span(tr, kNetParse);
      for (std::uint32_t v = 0; v < n; ++v) {
        parsed[v] = ParseUdpFrame(views[v].data, views[v].len);
        st->parse_drops += parsed[v].has_value() ? 0 : 1;
      }
    }
    {
      Span span(tr, kAppMaglev);
      for (std::uint32_t v = 0; v < n; ++v) {
        if (parsed[v].has_value() && s.lb.Lookup(parsed[v]->flow) < 0) {
          ++st->lb_drops;
          parsed[v].reset();
        }
      }
    }
    for (std::uint32_t v = 0; v < n; ++v) {
      slice[v].reset();
      if (!parsed[v].has_value()) {
        continue;
      }
      const ParsedFrame& p = *parsed[v];
      app[v] = p.flow.dst_port == kHttpPort                       ? kAppHttpd
               : p.payload_len > 0 && p.payload[0] == kKvGet ? kAppKvGet
                                                               : kAppKvSet;
      if (tr != nullptr) {
        ++st->traced_app[app[v] - kAppHttpd];
      }
    }
    std::uint32_t queued = 0;
    if (splice) {
      // Zero-copy stages: GETs are answered from pre-rendered DMA slices,
      // headers are written in front of them, and the slices are queued in
      // place.
      for (SpanName a : {kAppHttpd, kAppKvGet}) {
        Span span(tr, a);
        for (std::uint32_t v = 0; v < n; ++v) {
          if (parsed[v].has_value() && app[v] == a) {
            slice[v] = a == kAppHttpd ? s.httpd.HandleRequestSpliced(parsed[v]->payload,
                                                                     parsed[v]->payload_len)
                                      : s.store.HandleRequestSpliced(parsed[v]->payload,
                                                                     parsed[v]->payload_len);
          }
        }
      }
      std::uint16_t flen[kBurst];
      {
        Span span(tr, kNetFinishFrame);
        for (std::uint32_t v = 0; v < n; ++v) {
          if (slice[v].has_value()) {
            flen[v] = static_cast<std::uint16_t>(FinishUdpFrame(
                slice[v]->frame, kServerMac, parsed[v]->src_mac, reply_to(*parsed[v]),
                slice[v]->resp_len));
          }
        }
      }
      {
        Span span(tr, kDrvTx);
        for (std::uint32_t v = 0; v < n; ++v) {
          if (slice[v].has_value()) {
            if (s.driver->TxInPlaceDeferred(slice[v]->iova, flen[v])) {
              ++st->spliced;
              ++queued;
            } else {
              ++st->tx_full_drops;
            }
          }
        }
      }
    }
    // Claim-and-copy responses: every request on serve_percall, SETs and
    // misses on serve_splice.
    for (std::uint32_t v = 0; v < n; ++v) {
      if (!parsed[v].has_value() || slice[v].has_value()) {
        continue;
      }
      const ParsedFrame& p = *parsed[v];
      std::uint8_t* tx;
      {
        Span span(tr, kDrvTx);
        tx = s.driver->TxClaim();
      }
      if (tx == nullptr) {
        ++st->tx_full_drops;
        continue;
      }
      std::uint8_t* resp = tx + kHeadersLen;
      std::size_t rlen;
      {
        Span span(tr, app[v]);
        rlen = app[v] == kAppHttpd
                   ? s.httpd.HandleRequest(p.payload, p.payload_len, resp,
                                           kIxgbeBufBytes - kHeadersLen)
                   : s.store.HandleRequest(p.payload, p.payload_len, resp);
      }
      std::size_t flen;
      {
        Span span(tr, kNetFinishFrame);
        flen = FinishUdpFrame(tx, kServerMac, p.src_mac, reply_to(p), rlen);
      }
      {
        Span span(tr, kDrvTx);
        s.driver->TxCommitDeferred(static_cast<std::uint16_t>(flen));
      }
      ++queued;
      if (!splice) {
        // The request's own checked syscall certifies it.
        std::uint64_t i = st->requests++;
        ATMO_CHECK(checked((i & 1) == 0 ? kStepMmap : kStepMunmap, f.thrds[0],
                           RequestSyscall(i))
                       .ok(),
                   "perfbench: per-call syscall failed");
        st->latency.Add(NowNs() - t_burst);
        ++st->certified;
      }
    }
    st->queued += queued;
    if (queued > 0) {
      Span span(tr, kDrvTxFlush);
      s.driver->TxFlush();
    }
    {
      Span span(tr, kDrvRxRelease);
      s.driver->RxReleaseBurst(n);
    }
    if (splice && n > 0) {
      // Returning the loan certifies the burst.
      Syscall gret;
      gret.op = SysOp::kGrantReturn;
      gret.va_range = VaRange{kGrantDestVa, 1, PageSize::k4K};
      ATMO_CHECK(checked(kStepGrantReturn, f.thrds[2], gret).ok(),
                 "perfbench: grant return failed");
      st->latency.Add(NowNs() - t_burst, queued);
      st->certified += queued;
    }
    {
      Span span(tr, kHwProcessTx);
      s.m.nic.ProcessTx(kBurst);
    }
    {
      Span span(tr, kLoadgenCheck);
      gen.CheckReceived();
    }
    if (NowNs() >= deadline_ns) {
      return;
    }
  }
}

// Adds the checker's work between two snapshots of its stats to `into`.
void AddDelta(CheckStats* into, const CheckStats& before, const CheckStats& after) {
  into->steps += after.steps - before.steps;
  into->abstraction_ns += after.abstraction_ns - before.abstraction_ns;
  into->spec_ns += after.spec_ns - before.spec_ns;
  into->wf_ns += after.wf_ns - before.wf_ns;
  into->audit_ns += after.audit_ns - before.audit_ns;
  into->full_abstractions += after.full_abstractions - before.full_abstractions;
  into->dirty_entries += after.dirty_entries - before.dirty_entries;
  into->heap_allocs += after.heap_allocs - before.heap_allocs;
  into->arena_allocs += after.arena_allocs - before.arena_allocs;
}

double PerUnit(double total, std::uint64_t units) {
  return units == 0 ? 0.0 : total / static_cast<double>(units);
}

}  // namespace

void RunServe(const RunOptions& options, bool splice, Result* result) {
  ClientGen gen(options.seed);

  // Set-up, several times; the last instance serves.
  std::vector<double> setup_s;
  std::unique_ptr<Server> s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    s.reset();
    double t0 = NowSeconds();
    s = SetUp(splice, gen);
    setup_s.push_back(NowSeconds() - t0);
  }

  s->m.nic.SetPacketSource([&gen](std::uint8_t* buf) { return gen.Pop(buf); });
  s->m.nic.SetPacketSink(
      [&gen](const std::uint8_t* frame, std::size_t len) { gen.Receive(frame, len); });
  SpanRecorder recorder;

  ServeStats st;
  obs::CopyProbe copies;
  const std::uint64_t dma_faults_before = s->m.nic.dma_faults();
  double untraced_s = 0;  // --trace 1: the untraced windows
  std::uint64_t untraced_ok = 0;
  double traced_s = 0;
  std::uint64_t traced_ok = 0;
  CheckStats traced_check;
  std::uint64_t traced_frames = 0;     // generated and delivered
  std::uint64_t traced_peeked = 0;     // handed to the server
  std::uint64_t traced_requests = 0;   // responses queued
  std::uint64_t traced_responses = 0;  // responses sent and checked

  std::vector<Window> windows(options.trace ? 0 : MeasureWindows(options.seconds));
  if (!options.trace) {
    for (Window& w : windows) {
      const std::uint64_t ok0 = gen.ok();
      const std::uint64_t start = NowNs();
      Serve(*s, gen, splice, &st, nullptr,
            start + static_cast<std::uint64_t>(options.seconds / windows.size() * 1e9));
      w.ops_per_s = static_cast<double>(gen.ok() - ok0) /
                    (static_cast<double>(NowNs() - start) / 1e9);
      w.latency_ns = std::move(st.latency);
      st.latency = LatencyHistogram();
    }
  } else {
    // Alternate untraced and traced windows so drift affects both alike;
    // their rate gap is the tracing overhead.
    const double window_s = options.seconds / (2.0 * kTracedWindows);
    for (int w = 0; w < 2 * kTracedWindows; ++w) {
      const bool traced = (w & 1) == 1;
      const std::uint64_t ok0 = gen.ok();
      const std::uint64_t gen0 = gen.generated();
      const std::uint64_t resp0 = gen.responses();
      const std::uint64_t peeked0 = st.peeked;
      const std::uint64_t queued0 = st.queued;
      const CheckStats check0 = s->checker->stats();
      const std::uint64_t start = NowNs();
      const std::uint64_t deadline = start + static_cast<std::uint64_t>(window_s * 1e9);
      if (traced) {
        recorder.StartWindow();
        Serve(*s, gen, splice, &st, &recorder, deadline);
        recorder.StopWindow();
      } else {
        Serve(*s, gen, splice, &st, nullptr, deadline);
      }
      const double secs = static_cast<double>(NowNs() - start) / 1e9;
      st.latency = LatencyHistogram();  // latency is an untraced-run metric
      if (traced) {
        traced_s += secs;
        traced_ok += gen.ok() - ok0;
        traced_frames += gen.generated() - gen0;
        traced_responses += gen.responses() - resp0;
        traced_peeked += st.peeked - peeked0;
        traced_requests += st.queued - queued0;
        AddDelta(&traced_check, check0, s->checker->stats());
      } else {
        untraced_s += secs;
        untraced_ok += gen.ok() - ok0;
      }
    }
  }

  // --- Output check -----------------------------------------------------
  result->attempted = gen.generated();
  result->failed = gen.generated() - gen.ok();
  if (gen.bad() > 0) {
    result->Fail(std::to_string(gen.bad()) + " responses with wrong bytes or no request");
  }
  if (gen.lost() > 0) {
    result->Fail(std::to_string(gen.lost()) + " requests overwritten before an answer");
  }
  std::uint64_t drops = st.parse_drops + st.lb_drops + st.tx_full_drops;
  if (drops > 0) {
    result->Fail(std::to_string(drops) + " requests dropped (parse " +
                 std::to_string(st.parse_drops) + ", maglev " + std::to_string(st.lb_drops) +
                 ", tx ring full " + std::to_string(st.tx_full_drops) + ")");
  }
  if (result->failed > 0) {
    result->Fail(std::to_string(result->failed) + " of " +
                 std::to_string(result->attempted) + " offered requests without a correct "
                 "response");
  }
  if (st.certified != gen.ok() + gen.bad()) {
    result->Fail("certified " + std::to_string(st.certified) + " requests but " +
                 std::to_string(gen.ok() + gen.bad()) + " responses left the NIC");
  }
  InvResult wf = s->f->kernel.TotalWf();
  if (!wf.ok) {
    result->Fail("total_wf does not hold at the end of the run: " + wf.detail);
  }
  const std::uint64_t copied = copies.bytes();
  if (splice && copied != 0) {
    result->Fail("splice path copied " + std::to_string(copied) + " payload bytes");
  }
  result->notes.push_back("offered=" + std::to_string(gen.generated()) +
                          " answered_ok=" + std::to_string(gen.ok()) +
                          " checked_steps=" + std::to_string(s->checker->stats().steps));

  if (!options.trace) {
    ReportWindows(windows, result);
    result->Set("setup_s", Median(setup_s));
    result->Set("peak_rss_mib", PeakRssMib());
    return;
  }

  // --- Per-layer metrics from the traced windows ---------------------------
  const SpanRecorder& r = recorder;
  const double window_ns = r.window_ns();
  auto ns_per = [&](SpanName name, std::uint64_t units) {
    return PerUnit(r.TotalNs(name), units);
  };
  auto per_step = [&](std::uint64_t v) {
    return PerUnit(static_cast<double>(v), traced_check.steps);
  };
  double step_ns = 0;
  std::uint64_t steps = 0;
  for (int op = kStepMmap; op <= kStepGrantReturn; ++op) {
    step_ns += r.TotalNs(static_cast<SpanName>(op));
    steps += r.Count(static_cast<SpanName>(op));
  }
  const double verif_ns = static_cast<double>(traced_check.abstraction_ns + traced_check.spec_ns +
                                              traced_check.wf_ns + traced_check.audit_ns);

  result->Set("loadgen.gen_ns_per_frame", ns_per(kLoadgenGen, traced_frames));
  result->Set("loadgen.check_ns_per_frame", ns_per(kLoadgenCheck, traced_responses));
  result->Set("hw.deliver_rx_ns_per_frame", ns_per(kHwDeliverRx, traced_frames));
  result->Set("hw.process_tx_ns_per_frame", ns_per(kHwProcessTx, traced_responses));
  result->Set("hw.dma_faults", static_cast<double>(s->m.nic.dma_faults() - dma_faults_before));
  result->Set("drivers.rx_peek_ns_per_burst", ns_per(kDrvRxPeek, r.Count(kDrvRxPeek)));
  result->Set("drivers.rx_release_ns_per_burst", ns_per(kDrvRxRelease, r.Count(kDrvRxRelease)));
  result->Set("drivers.tx_ns_per_frame", ns_per(kDrvTx, traced_requests));
  result->Set("drivers.tx_flush_ns_per_burst", ns_per(kDrvTxFlush, r.Count(kDrvTxFlush)));
  result->Set("drivers.burst_frames_mean", PerUnit(static_cast<double>(st.peeked), st.bursts));
  result->Set("drivers.tx_full_drops", static_cast<double>(st.tx_full_drops));
  result->Set("net.parse_ns_per_frame", ns_per(kNetParse, traced_peeked));
  result->Set("net.finish_frame_ns_per_frame", ns_per(kNetFinishFrame, traced_requests));
  result->Set("apps.maglev_ns_per_req", ns_per(kAppMaglev, traced_peeked));
  result->Set("apps.httpd_ns_per_req", ns_per(kAppHttpd, st.traced_app[0]));
  result->Set("apps.kv_get_ns_per_req", ns_per(kAppKvGet, st.traced_app[1]));
  result->Set("apps.kv_set_ns_per_req", ns_per(kAppKvSet, st.traced_app[2]));
  result->Set("apps.kv_get_hit_frac",
              PerUnit(static_cast<double>(gen.kv_get_hit()), gen.kv_get()));
  result->Set("apps.spliced_frac", PerUnit(static_cast<double>(st.spliced), st.queued));
  result->Set("apps.bytes_copied_per_req", PerUnit(static_cast<double>(copied), st.queued));
  const char* op_metric[5] = {"mmap", "munmap", "recv", "send_grant", "grant_return"};
  for (int op = 0; op < 5; ++op) {
    const std::vector<std::uint64_t>& ticks = st.step_ticks[op];
    result->Set(std::string("core.checked_step_ns.") + op_metric[op],
                r.TicksToNs(Median(std::vector<double>(ticks.begin(), ticks.end()))));
  }
  result->Set("core.exec_ns_per_step", PerUnit(step_ns - verif_ns, steps));
  result->Set("verif.abstraction_ns_per_step", per_step(traced_check.abstraction_ns));
  result->Set("verif.spec_ns_per_step", per_step(traced_check.spec_ns));
  result->Set("verif.wf_ns_per_step", per_step(traced_check.wf_ns));
  result->Set("verif.audit_ns_per_step", per_step(traced_check.audit_ns));
  result->Set("verif.dirty_entries_per_step", per_step(traced_check.dirty_entries));
  result->Set("verif.max_dirty_entries",
              static_cast<double>(s->checker->stats().max_dirty_entries));
  result->Set("verif.full_abstractions", static_cast<double>(traced_check.full_abstractions));
  result->Set("verif.heap_allocs_per_step", per_step(traced_check.heap_allocs));
  result->Set("verif.arena_allocs_per_step", per_step(traced_check.arena_allocs));

  // Layer self time as a share of the traced wall time.
  auto self = [&](std::initializer_list<SpanName> names) {
    double t = 0;
    for (SpanName n : names) {
      t += r.SelfNs(n);
    }
    return t / window_ns;
  };
  result->Set("loadgen.self_frac", self({kLoadgenGen, kLoadgenCheck}));
  result->Set("hw.self_frac", self({kHwDeliverRx, kHwProcessTx}));
  result->Set("drivers.self_frac", self({kDrvRxPeek, kDrvRxRelease, kDrvTx, kDrvTxFlush}));
  result->Set("net.self_frac", self({kNetParse, kNetFinishFrame}));
  result->Set("apps.self_frac", self({kAppMaglev, kAppHttpd, kAppKvGet, kAppKvSet}));
  result->Set("core.self_frac", (step_ns - verif_ns) / window_ns);
  result->Set("verif.self_frac", verif_ns / window_ns);
  const double untraced_rate = static_cast<double>(untraced_ok) / untraced_s;
  const double traced_rate = static_cast<double>(traced_ok) / traced_s;
  result->Set("obs.tracing_overhead_frac", 1.0 - traced_rate / untraced_rate);
  result->Set("obs.unattributed_frac", 1.0 - r.TopLevelNs() / window_ns);
  result->notes.push_back("traced windows " + std::to_string(traced_s) + " s, " +
                          std::to_string(traced_ok) + " requests; untraced windows " +
                          std::to_string(untraced_s) + " s, " + std::to_string(untraced_ok) +
                          " requests");

  if (!options.out_dir.empty()) {
    std::string path = options.out_dir + "/" + options.workload + "-seed" +
                       std::to_string(options.seed) + ".spans.json";
    if (!WriteSpanFile(path, r.KeptNs())) {
      result->Fail("cannot write " + path);
    } else {
      result->notes.push_back("spans written to " + path);
    }
  }
}

}  // namespace atmo::perfbench
