#include "bench/pipeline.h"

#include <cstdlib>
#include <cstring>
#include <thread>

#ifdef __linux__
#include <sched.h>
#endif

#include "src/vstd/check.h"

namespace atmo {
namespace bench {

PacketPool::PacketPool(
    std::size_t count,
    const std::function<std::size_t(std::size_t, std::uint8_t*)>& make_payload,
    std::uint16_t dst_port)
    : data_(new std::uint8_t[count * kMaxFrameLen]), lens_(count) {
  MacAddr src{0x02, 0, 0, 0, 0, 0x01};
  MacAddr dst{0x02, 0, 0, 0, 0, 0x02};
  std::uint8_t payload[kMaxFrameLen];
  for (std::size_t i = 0; i < count; ++i) {
    std::size_t payload_len = make_payload(i, payload);
    FiveTuple flow{.src_ip = 0x0b000000u + static_cast<std::uint32_t>(i * 2654435761u % 4096),
                   .dst_ip = 0x0a0000feu,
                   .src_port = static_cast<std::uint16_t>(1024 + i % 50000),
                   .dst_port = dst_port};
    lens_[i] = BuildUdpFrame(data_.get() + i * kMaxFrameLen, src, dst, flow, payload,
                             payload_len);
  }
}

PacketSource PacketPool::AsSource() {
  return [this](std::uint8_t* buf) -> std::size_t {
    std::size_t i = next_;
    next_ = next_ + 1 == lens_.size() ? 0 : next_ + 1;
    std::memcpy(buf, data_.get() + i * kMaxFrameLen, lens_[i]);
    return lens_[i];
  };
}

C1Rendezvous::C1Rendezvous() {
  BootConfig config;
  config.frames = 4096;
  config.reserved_frames = 16;
  kernel_.emplace(std::move(*Kernel::Boot(config)));
  auto ctnr = kernel_->BootCreateContainer(kernel_->root_container(), 1024, ~0ull);
  auto proc = kernel_->BootCreateProcess(ctnr.value);
  auto app = kernel_->BootCreateThread(proc.value);
  auto drv = kernel_->BootCreateThread(proc.value);
  ATMO_CHECK(app.ok() && drv.ok(), "c1 rendezvous boot failed");
  app_ = app.value;
  drv_ = drv.value;

  Syscall ne;
  ne.op = SysOp::kNewEndpoint;
  ne.edpt_idx = 0;
  SyscallRet e = kernel_->Step(app_, ne);
  ATMO_CHECK(e.ok(), "c1 endpoint creation failed");
  ATMO_CHECK(kernel_->pm_mut().BindEndpoint(drv_, 0, e.value) == ProcError::kOk,
             "c1 endpoint bind failed");

  // Park the driver in recv() so the first call takes the fast rendezvous.
  Syscall recv;
  recv.op = SysOp::kRecv;
  recv.edpt_idx = 0;
  SyscallRet r = kernel_->Step(drv_, recv);
  ATMO_CHECK(r.error == SysError::kBlocked, "c1 driver failed to park");
}

void C1Rendezvous::InvokeDriver(const std::function<void()>& service) {
  // Application invokes the driver: one verified-kernel call().
  Syscall call;
  call.op = SysOp::kCall;
  call.edpt_idx = 0;
  SyscallRet cr = kernel_->Step(app_, call);
  ATMO_CHECK(cr.error == SysError::kBlocked, "c1 call did not rendezvous");
  (void)kernel_->TakeInbound(drv_);

  // Driver runs its batch "in its own context".
  service();

  // Driver replies and parks again; application resumes.
  Syscall reply;
  reply.op = SysOp::kReply;
  SyscallRet rr = kernel_->Step(drv_, reply);
  ATMO_CHECK(rr.ok(), "c1 reply failed");
  (void)kernel_->TakeInbound(app_);
  Syscall recv;
  recv.op = SysOp::kRecv;
  recv.edpt_idx = 0;
  SyscallRet r2 = kernel_->Step(drv_, recv);
  ATMO_CHECK(r2.error == SysError::kBlocked, "c1 driver failed to re-park");
}

void PrintHeader(const char* title, const char* unit) {
  std::printf("\n%s\n", title);
  std::printf("%-20s %14s %12s %14s\n", "config", unit, "wall (s)", "operations");
  std::printf("%-20s %14s %12s %14s\n", "------", "----", "--------", "----------");
}

void PrintRow(const Row& row, const char* unit_scale) {
  double scale = 1.0;
  if (std::strcmp(unit_scale, "M") == 0) {
    scale = 1e6;
  } else if (std::strcmp(unit_scale, "K") == 0) {
    scale = 1e3;
  }
  std::printf("%-20s %14.3f %12.3f %14llu\n", row.config.c_str(), row.ops_per_sec / scale,
              row.wall_seconds, static_cast<unsigned long long>(row.ops));
}

Row RunTimed(const std::string& config, std::uint64_t ops_target,
             const std::function<std::uint64_t(std::uint64_t)>& loop) {
  auto start = std::chrono::steady_clock::now();
  std::uint64_t ops = loop(ops_target);
  double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  Row row;
  row.config = config;
  row.ops = ops;
  row.wall_seconds = seconds;
  row.ops_per_sec = seconds > 0 ? static_cast<double>(ops) / seconds : 0.0;
  return row;
}

bool BenchJson::Write(const std::function<void(obs::JsonWriter*)>& extra) const {
  obs::JsonWriter w;
  w.BeginObject();
  w.KV("bench", name_);
  w.KV("quick", std::getenv("ATMO_BENCH_QUICK") != nullptr);
  w.Key("rows").BeginArray();
  for (const Row& row : rows_) {
    w.BeginObject();
    w.KV("config", row.config);
    w.KV("ops", row.ops);
    w.KV("ops_per_sec", row.ops_per_sec, "%.1f");
    w.KV("wall_seconds", row.wall_seconds, "%.4f");
    w.EndObject();
  }
  w.EndArray();
  if (extra) {
    extra(&w);
  }
  w.EndObject();
  std::string path = "BENCH_" + name_ + ".json";
  bool ok = obs::WriteTextFile(path, w.str() + "\n");
  if (ok) {
    std::printf("\nwrote %s\n", path.c_str());
  }
  return ok;
}

std::uint64_t ScaledOps(std::uint64_t full) {
  if (std::getenv("ATMO_BENCH_QUICK") != nullptr) {
    return full / 20 + 1;
  }
  return full;
}

unsigned HostCpus() {
#ifdef __linux__
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    int n = CPU_COUNT(&set);
    if (n > 0) {
      return static_cast<unsigned>(n);
    }
  }
#endif
  unsigned hc = std::thread::hardware_concurrency();
  return hc > 0 ? hc : 1;
}

}  // namespace bench
}  // namespace atmo
