// droute_perfbench: one workload per invocation.
//
//   droute_perfbench --workload campaign_grid|fleet_churn|wire_upload
//                    --seed N --seconds S --trace 0|1
//                    [--small] [--selftest-skew-expected CHECK]
//                    [--trace-out FILE] [--commit ID]
//
// --trace 0 measures the end-to-end metrics with recording off. --trace 1
// runs the workload untraced for half of --seconds, then one fixed traced
// round under an obs::Recorder, and reports the per-layer metrics of the
// traced round plus the tracing overhead.
// The last stdout line is one JSON object; an output check that fails
// exits 3 and names the check instead.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.h"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "droute_perfbench: %s\n"
               "usage: droute_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--small] [--selftest-skew-expected CHECK] "
               "[--trace-out FILE] [--commit ID]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      options.workload = value();
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      options.trace = value() != "0";
    } else if (arg == "--small") {
      options.small = true;
    } else if (arg == "--selftest-skew-expected") {
      options.skew_check = value();
    } else if (arg == "--trace-out") {
      options.trace_out = value();
    } else if (arg == "--commit") {
      options.commit = value();
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (!(options.seconds > 0.0)) usage("--seconds must be positive");

  perfbench::Report report;
  if (options.workload == "campaign_grid") {
    perfbench::run_campaign_grid(options, report);
  } else if (options.workload == "fleet_churn") {
    perfbench::run_fleet_churn(options, report);
  } else if (options.workload == "wire_upload") {
    perfbench::run_wire_upload(options, report);
  } else {
    usage("unknown --workload");
  }
  report.print(options);
  return 0;
}
