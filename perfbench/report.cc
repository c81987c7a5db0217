#include "perfbench/report.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string_view>

namespace atmo::perfbench {

namespace {

constexpr const char* kSpanNames[kSpanNameCount] = {
    "loadgen.gen",         "loadgen.check",        "hw.deliver_rx",
    "hw.process_tx",       "drivers.rx_peek",      "drivers.rx_release",
    "drivers.tx",          "drivers.tx_flush",     "net.parse",
    "net.finish_frame",    "apps.maglev",          "apps.httpd",
    "apps.kv_get",         "apps.kv_set",          "core.checked_step.mmap",
    "core.checked_step.munmap", "core.checked_step.recv", "core.checked_step.send_grant",
    "core.checked_step.grant_return", "sweep.run", "sweep.shard",
};

struct MetricDef {
  const char* name;
  const char* unit;
};

// The metrics printed per run, in BENCHMARK.json's order.
const std::vector<MetricDef> kEndToEnd = {
    {"ops_per_s", "1/s"},   {"latency_p50_us", "us"}, {"latency_p99_us", "us"},
    {"setup_s", "s"},       {"peak_rss_mib", "MiB"},
};

const std::vector<MetricDef> kPerLayer = {
    {"loadgen.gen_ns_per_frame", "ns"},
    {"loadgen.check_ns_per_frame", "ns"},
    {"hw.deliver_rx_ns_per_frame", "ns"},
    {"hw.process_tx_ns_per_frame", "ns"},
    {"hw.dma_faults", "count"},
    {"drivers.rx_peek_ns_per_burst", "ns"},
    {"drivers.rx_release_ns_per_burst", "ns"},
    {"drivers.tx_ns_per_frame", "ns"},
    {"drivers.tx_flush_ns_per_burst", "ns"},
    {"drivers.burst_frames_mean", "count"},
    {"drivers.tx_full_drops", "count"},
    {"net.parse_ns_per_frame", "ns"},
    {"net.finish_frame_ns_per_frame", "ns"},
    {"apps.maglev_ns_per_req", "ns"},
    {"apps.httpd_ns_per_req", "ns"},
    {"apps.kv_get_ns_per_req", "ns"},
    {"apps.kv_set_ns_per_req", "ns"},
    {"apps.kv_get_hit_frac", "frac"},
    {"apps.spliced_frac", "frac"},
    {"apps.bytes_copied_per_req", "B"},
    {"core.checked_step_ns.mmap", "ns"},
    {"core.checked_step_ns.munmap", "ns"},
    {"core.checked_step_ns.recv", "ns"},
    {"core.checked_step_ns.send_grant", "ns"},
    {"core.checked_step_ns.grant_return", "ns"},
    {"core.exec_ns_per_step", "ns"},
    {"verif.abstraction_ns_per_step", "ns"},
    {"verif.spec_ns_per_step", "ns"},
    {"verif.wf_ns_per_step", "ns"},
    {"verif.audit_ns_per_step", "ns"},
    {"verif.dirty_entries_per_step", "count"},
    {"verif.max_dirty_entries", "count"},
    {"verif.full_abstractions", "count"},
    {"verif.heap_allocs_per_step", "count"},
    {"verif.arena_allocs_per_step", "count"},
    {"sweep.queue_wait_s", "s"},
    {"sweep.shard_wall_max_over_mean", "ratio"},
    {"sweep.worker_busy_frac", "frac"},
    {"sweep.error_step_frac", "frac"},
    {"sweep.coverage_cells", "count"},
    {"loadgen.self_frac", "frac"},
    {"hw.self_frac", "frac"},
    {"drivers.self_frac", "frac"},
    {"net.self_frac", "frac"},
    {"apps.self_frac", "frac"},
    {"core.self_frac", "frac"},
    {"verif.self_frac", "frac"},
    {"sweep.self_frac", "frac"},
    {"obs.tracing_overhead_frac", "frac"},
    {"obs.unattributed_frac", "frac"},
};

}  // namespace

const char* SpanNameString(SpanName name) { return kSpanNames[name]; }

double NowSeconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

void LatencyHistogram::Append(const LatencyHistogram& other) {
  for (std::size_t i = 0; i < kBuckets; ++i) {
    counts_[i] += other.counts_[i];
  }
  total_ += other.total_;
}

double LatencyHistogram::Midpoint(std::size_t bucket) {
  if (bucket < kSub) {
    return static_cast<double>(bucket);
  }
  const int shift = static_cast<int>(bucket / kSub) - 1;  // bucket width is 2^shift
  const double lower = static_cast<double>((kSub + bucket % kSub) << shift);
  return lower + (static_cast<double>(std::uint64_t{1} << shift) - 1.0) / 2.0;
}

double LatencyHistogram::Percentile(double p, std::uint64_t* beyond) const {
  const std::uint64_t need = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(p * static_cast<double>(total_))));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    seen += counts_[i];
    if (seen >= need) {
      if (beyond != nullptr) {
        *beyond = total_ - seen;
      }
      return Midpoint(i);
    }
  }
  if (beyond != nullptr) {
    *beyond = 0;
  }
  return 0.0;
}

SpanRecorder::SpanRecorder(std::size_t keep) : keep_(keep) { kept_.reserve(keep); }

void SpanRecorder::StartWindow() {
  win_start_ns_ = NowNs();
  win_start_ticks_ = ReadTicks();
  if (epoch_ticks_ == 0) {
    epoch_ticks_ = win_start_ticks_;
  }
}

void SpanRecorder::StopWindow() {
  std::uint64_t ticks = ReadTicks();
  std::uint64_t ns = NowNs();
  window_ticks_ += ticks - win_start_ticks_;
  window_ns_ += ns - win_start_ns_;
}

double SpanRecorder::TicksToNs(double ticks) const {
  if (window_ticks_ == 0) {
    return ticks;
  }
  return ticks * static_cast<double>(window_ns_) / static_cast<double>(window_ticks_);
}

std::vector<SpanRecord> SpanRecorder::KeptNs() const {
  std::vector<SpanRecord> out;
  out.reserve(kept_.size());
  for (const SpanRecord& s : kept_) {
    SpanRecord r = s;
    r.start_ns = TicksToNs(s.start_ns - static_cast<double>(epoch_ticks_));
    r.end_ns = TicksToNs(s.end_ns - static_cast<double>(epoch_ticks_));
    out.push_back(r);
  }
  return out;
}

bool WriteSpanFile(const std::string& path, const std::vector<SpanRecord>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    const char* name = SpanNameString(s.name);
    std::string layer(name, std::string_view(name).find('.'));
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d}}\n",
                 i == 0 ? "" : ",", name, layer.c_str(), s.start_ns / 1000.0,
                 (s.end_ns - s.start_ns) / 1000.0, i, s.parent);
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

void ReportWindows(const std::vector<Window>& windows, Result* result) {
  std::vector<double> rates;
  std::string note = "window ops_per_s:";
  for (const Window& w : windows) {
    rates.push_back(w.ops_per_s);
    note += ' ' + std::to_string(static_cast<std::uint64_t>(w.ops_per_s));
  }
  result->notes.push_back(note);

  // Consecutive windows form latency groups of at least kLatencyGroupSamples
  // samples; a short last group joins the one before it.
  std::vector<LatencyHistogram> groups;
  bool last_full = false;
  for (const Window& w : windows) {
    if (groups.empty() || last_full) {
      groups.emplace_back();
    }
    groups.back().Append(w.latency_ns);
    last_full = groups.back().count() >= kLatencyGroupSamples;
  }
  if (!last_full && groups.size() > 1) {
    groups[groups.size() - 2].Append(groups.back());
    groups.pop_back();
  }
  std::vector<double> p50;
  std::vector<double> p99;
  std::uint64_t samples = 0;
  std::uint64_t min_beyond99 = ~std::uint64_t{0};
  for (const LatencyHistogram& g : groups) {
    std::uint64_t beyond = 0;
    p50.push_back(g.Percentile(0.50) / 1e3);
    p99.push_back(g.Percentile(0.99, &beyond) / 1e3);
    samples += g.count();
    min_beyond99 = std::min(min_beyond99, beyond);
  }
  std::string gnote = "group p50/p99 us:";
  for (std::size_t i = 0; i < p50.size(); ++i) {
    gnote += ' ' + std::to_string(p50[i]) + '/' + std::to_string(p99[i]);
  }
  result->notes.push_back(gnote);
  result->notes.push_back("latency samples=" + std::to_string(samples) + " in " +
                          std::to_string(groups.size()) +
                          " groups, fewest beyond a group's p99=" + std::to_string(min_beyond99));
  if (groups.empty() || min_beyond99 < 10) {
    result->Fail("fewer than 10 latency samples beyond p99 in a latency group");
  }
  result->Set("ops_per_s", Median(rates));
  result->Set("latency_p50_us", Median(p50));
  result->Set("latency_p99_us", Median(p99));
}

double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

void PrintResult(const RunOptions& options, Result* result) {
  const std::vector<MetricDef>& table = options.trace ? kPerLayer : kEndToEnd;
  for (const auto& [name, value] : result->values) {
    if (std::none_of(table.begin(), table.end(),
                     [&](const MetricDef& d) { return name == d.name; })) {
      result->Fail("metric " + name + " is not in the metric table");
    }
  }
  std::string metrics;
  for (const MetricDef& d : table) {
    auto it = result->values.find(d.name);
    if (it == result->values.end() && !options.trace) {
      result->Fail(std::string("end-to-end metric ") + d.name + " was not measured");
    }
    double value = it == result->values.end() ? 0.0 : it->second;
    if (!std::isfinite(value)) {
      result->Fail(std::string("metric ") + d.name + " is not a finite number");
      value = 0.0;
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    if (!metrics.empty()) {
      metrics += ", ";
    }
    metrics += std::string("\"") + d.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
               d.unit + "\"}";
  }

  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  for (const std::string& note : result->notes) {
    std::printf("  %s\n", note.c_str());
  }
  std::printf("  %-40s %18.6f %s\n", "failed_frac",
              result->attempted == 0 ? 1.0
                                     : static_cast<double>(result->failed) /
                                           static_cast<double>(result->attempted),
              "frac");
  for (const MetricDef& d : table) {
    auto it = result->values.find(d.name);
    std::printf("  %-40s %18.6f %s\n", d.name,
                it == result->values.end() ? 0.0 : it->second, d.unit);
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              result->correct ? "true" : "false",
              static_cast<unsigned long long>(result->attempted),
              static_cast<unsigned long long>(result->failed), metrics.c_str());
  std::fflush(stdout);
}

}  // namespace atmo::perfbench
