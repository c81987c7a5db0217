// Shared pieces of the benchmark driver: run options, the result record it
// prints, the latency histogram and measurement windows of the untraced run,
// and the in-memory span recorder the traced run uses to attribute time to
// layers.

#ifndef ATMO_PERFBENCH_REPORT_H_
#define ATMO_PERFBENCH_REPORT_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

namespace atmo::perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;  // where the traced run writes its span file
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  // Metric values by name; names and units come from the tables in
  // report.cc, which mirror BENCHMARK.json.
  std::map<std::string, double> values;
  // Human-readable diagnostics (sample counts, mismatches) printed before
  // the JSON line.
  std::vector<std::string> notes;

  void Set(const std::string& name, double value) { values[name] = value; }
  void Fail(std::string why) {
    correct = false;
    notes.push_back("MISMATCH: " + std::move(why));
  }
};

// Prints the notes, a name/value/unit table, and finally the one-line JSON
// object the benchmark contract asks for: the end-to-end metrics for an
// untraced run, the per-layer ones for a traced run. A per-layer metric the
// workload does not exercise (drivers.* on verify_sweep, sweep.* on the
// serving workloads) reads 0.
void PrintResult(const RunOptions& options, Result* result);

// Peak resident set of this process.
double PeakRssMib();

double NowSeconds();
std::uint64_t NowNs();

// Median of a sample; takes a copy.
double Median(std::vector<double> v);

// Latency histogram with log-linear buckets: values below 256 ns are exact,
// larger ones fall in buckets 1/256 of their power of two wide, and a
// percentile reports its bucket's midpoint, so its relative error is at most
// 0.2%. Memory is fixed (about 115 KiB), so a faster run does not show a
// larger peak RSS. A weight lets one burst stand for all its requests: a
// serve_splice burst certifies them at one instant.
class LatencyHistogram {
 public:
  LatencyHistogram() : counts_(kBuckets, 0) {}

  void Add(std::uint64_t ns, std::uint64_t weight = 1) {
    counts_[Bucket(ns)] += weight;
    total_ += weight;
  }
  void Append(const LatencyHistogram& other);
  std::uint64_t count() const { return total_; }
  // Nearest-rank percentile in ns. `beyond` receives the number of samples
  // in higher buckets.
  double Percentile(double p, std::uint64_t* beyond = nullptr) const;

 private:
  static constexpr int kSubBits = 8;
  static constexpr std::size_t kSub = std::size_t{1} << kSubBits;
  static constexpr std::size_t kBuckets = (64 - kSubBits + 1) * kSub;

  static std::size_t Bucket(std::uint64_t v) {
    if (v < kSub) {
      return static_cast<std::size_t>(v);
    }
    const int e = 63 - __builtin_clzll(v);  // >= kSubBits
    const std::uint64_t sub = (v >> (e - kSubBits)) - kSub;
    return static_cast<std::size_t>(e - kSubBits + 1) * kSub + static_cast<std::size_t>(sub);
  }
  static double Midpoint(std::size_t bucket);

  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

// An untraced run is measured in windows of about one second each. On a
// shared host the rate moves by 10-25% in stretches of seconds to minutes,
// with the CPU the process runs on and other tenants' load, so every number
// is a median over the run's windows rather than a pool or an extreme:
// ops_per_s is the median window rate, and each latency percentile is the
// median of that percentile over groups of consecutive windows, a group
// holding at least kLatencyGroupSamples samples (so at least 20 lie beyond
// its p99). run.py spreads a run over several processes and averages them.
struct Window {
  double ops_per_s = 0.0;
  LatencyHistogram latency_ns;
};

inline constexpr std::uint64_t kLatencyGroupSamples = 2000;

inline int MeasureWindows(double seconds) {
  return seconds < 1.5 ? 1 : static_cast<int>(seconds + 0.5);
}

// Sets ops_per_s, latency_p50_us and latency_p99_us from the windows; fails
// the run when a latency group holds fewer than 10 samples beyond its p99.
void ReportWindows(const std::vector<Window>& windows, Result* result);

// ---------------------------------------------------------------------------
// Span recording. Every span names the benchmark's own call into one layer
// of the program; its layer is the part of the name before the first dot.

enum SpanName : std::uint8_t {
  kLoadgenGen,
  kLoadgenCheck,
  kHwDeliverRx,
  kHwProcessTx,
  kDrvRxPeek,
  kDrvRxRelease,
  kDrvTx,
  kDrvTxFlush,
  kNetParse,
  kNetFinishFrame,
  kAppMaglev,
  kAppHttpd,
  kAppKvGet,
  kAppKvSet,
  kStepMmap,
  kStepMunmap,
  kStepRecv,
  kStepSendGrant,
  kStepGrantReturn,
  kSweepRun,
  kSweepShard,
  kSpanNameCount,
};

const char* SpanNameString(SpanName name);

// One finished span. SpanRecorder keeps raw ticks in start_ns/end_ns until
// KeptNs() converts them to ns since its first window.
struct SpanRecord {
  SpanName name;
  std::int32_t parent;  // index into the kept records, -1 = top level
  double start_ns;
  double end_ns;
};

inline std::uint64_t ReadTicks() {
#if defined(__x86_64__)
  return __rdtsc();
#else
  return NowNs();
#endif
}

// Stack-shaped recorder on the time-stamp counter. Self time (a span minus
// its children) is accumulated on the fly, so totals stay exact however long
// the run; only the first `keep` spans are kept for the span file.
class SpanRecorder {
 public:
  explicit SpanRecorder(std::size_t keep = 200000);

  void Begin(SpanName name) {
    Open& o = stack_[depth_++];
    o.name = name;
    o.child = 0;
    o.index = -1;
    if (kept_.size() < keep_) {
      o.index = static_cast<std::int32_t>(kept_.size());
      kept_.push_back(SpanRecord{name, depth_ > 1 ? stack_[depth_ - 2].index : -1, 0, 0});
    }
    o.start = ReadTicks();
  }
  // Returns the span's duration in ticks.
  std::uint64_t End() {
    std::uint64_t now = ReadTicks();
    Open& o = stack_[--depth_];
    std::uint64_t dur = now - o.start;
    total_[o.name] += dur;
    self_[o.name] += dur - o.child;
    ++count_[o.name];
    if (depth_ > 0) {
      stack_[depth_ - 1].child += dur;
    } else {
      top_level_ += dur;
    }
    if (o.index >= 0) {
      kept_[static_cast<std::size_t>(o.index)].start_ns = static_cast<double>(o.start);
      kept_[static_cast<std::size_t>(o.index)].end_ns = static_cast<double>(now);
    }
    return dur;
  }

  // Calibration windows: ticks are converted to ns with the ratio measured
  // over all windows, and the window wall time is the denominator of the
  // unattributed share.
  void StartWindow();
  void StopWindow();

  double TicksToNs(double ticks) const;
  double SelfNs(SpanName name) const { return TicksToNs(static_cast<double>(self_[name])); }
  double TotalNs(SpanName name) const { return TicksToNs(static_cast<double>(total_[name])); }
  std::uint64_t Count(SpanName name) const { return count_[name]; }
  double window_ns() const { return static_cast<double>(window_ns_); }
  double TopLevelNs() const { return TicksToNs(static_cast<double>(top_level_)); }

  // Kept spans with timestamps in ns relative to the first window.
  std::vector<SpanRecord> KeptNs() const;

 private:
  struct Open {
    SpanName name;
    std::int32_t index;
    std::uint64_t start;
    std::uint64_t child;
  };
  Open stack_[8];
  int depth_ = 0;
  std::uint64_t total_[kSpanNameCount] = {};
  std::uint64_t self_[kSpanNameCount] = {};
  std::uint64_t count_[kSpanNameCount] = {};
  std::uint64_t top_level_ = 0;
  std::size_t keep_;
  std::vector<SpanRecord> kept_;

  std::uint64_t epoch_ticks_ = 0;
  std::uint64_t window_ticks_ = 0;
  std::uint64_t window_ns_ = 0;
  std::uint64_t win_start_ticks_ = 0;
  std::uint64_t win_start_ns_ = 0;
};

// RAII span on a nullable recorder: the untraced run passes nullptr and pays
// one predictable branch per call site.
class Span {
 public:
  Span(SpanRecorder* r, SpanName name) : r_(r) {
    if (r_ != nullptr) {
      r_->Begin(name);
    }
  }
  ~Span() {
    if (r_ != nullptr) {
      r_->End();
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanRecorder* r_;
};

// Writes spans as Chrome trace-event JSON (loadable in Perfetto).
bool WriteSpanFile(const std::string& path, const std::vector<SpanRecord>& spans);

// The workloads; each fills `result` (metrics, attempted/failed, verdict).
void RunServe(const RunOptions& options, bool splice, Result* result);
void RunSweep(const RunOptions& options, Result* result);

}  // namespace atmo::perfbench

#endif  // ATMO_PERFBENCH_REPORT_H_
