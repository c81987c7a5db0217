// perfbench: one benchmark for the verified serving path and the checker.
//
//   perfbench --workload serve_percall|serve_splice|verify_sweep
//             --seed N --seconds S --trace 0|1 [--out DIR]
//
// Prints human-readable diagnostics, then one JSON line with the verdict
// and the metrics (end-to-end with --trace 0, per-layer with --trace 1).
// Exits 1 when any output check fails, 2 on bad arguments.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "perfbench/report.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/sampler.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload serve_percall|serve_splice|"
               "verify_sweep --seed N --seconds S --trace 0|1 [--out DIR]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using atmo::perfbench::Result;
  using atmo::perfbench::RunOptions;
  RunOptions options;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') {
        return Usage("--seed takes an unsigned integer");
      }
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(options.seconds > 0) ||
          options.seconds > 600) {
        return Usage("--seconds takes a number in (0, 600]");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        return Usage("--trace takes 0 or 1");
      }
      options.trace = value == "1";
    } else if (flag == "--out") {
      options.out_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 == 0) {
    return Usage("flags come in --name value pairs");
  }

  // The measured program runs untraced: no flight recorder on this thread,
  // and no sampled trace ids drawn at RX (RxPeekBurst would otherwise draw a
  // sampler decision per frame at the default 1-in-64).
  atmo::obs::SetEnabled(false);
  atmo::obs::SetTraceSamplePeriod(0);

  Result result;
  if (options.workload == "serve_percall") {
    RunServe(options, /*splice=*/false, &result);
  } else if (options.workload == "serve_splice") {
    RunServe(options, /*splice=*/true, &result);
  } else if (options.workload == "verify_sweep") {
    RunSweep(options, &result);
  } else {
    return Usage("unknown --workload");
  }
  PrintResult(options, &result);
  return result.correct ? 0 : 1;
}
