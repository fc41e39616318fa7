// droute::bench harness — a BenchCase registry with warmup/repeat timing,
// robust stats (median, p95, events/sec) and machine-readable JSON output,
// so the perf trajectory of the simulator accumulates across commits.
//
// Each perf binary registers cases with DROUTE_BENCH and delegates main()
// to bench_main():
//
//   DROUTE_BENCH(realloc_flows_1000, "ms") {
//     // build state once (untimed), then do one iteration of work
//     ctx.set_work([&] { fabric.reallocate_now(); });
//     ctx.set_events(1);                     // events per iteration
//     ctx.extra("flows", 1000.0);            // free-form extra metric
//   }
//
//   int main(int argc, char** argv) {
//     return droute::bench::bench_main(argc, argv, "BENCH_fabric.json");
//   }
//
// The case body runs ONCE per invocation to set everything up; only the
// closure handed to set_work() is timed (warmup + repeats executions).
// Every case must declare the unit of one timed sample ("ms", "ms/realloc",
// ...) — tools/lint.py rejects DROUTE_BENCH registrations without one.
//
// CLI (shared by every perf binary):
//   --list            print case names and units, run nothing
//   --filter NAME     only run the case named NAME; a NAME that is no case's
//                     full name runs every case whose name contains it
//   --quick           1 repeat, no warmup, ctx.quick() == true (cases are
//                     expected to shrink their workload) — the bench.smoke
//                     ctest entry uses this to catch harness bitrot
//   --repeats N / --warmup N
//   --json PATH       where to write the report (default: the name passed
//                     to bench_main, in the current directory)
//   --trace-out PATH / --metrics-out PATH
//                     read by bench/common.cpp; with a recorder installed
//                     each timed sample is a `bench.sample_run` wall span
//
// JSON schema "droute-bench-v1" (validated by tools/validate_bench.py):
//   { "schema": "droute-bench-v1", "binary": ..., "quick": bool,
//     "cases": [ { "name", "unit", "warmup", "repeats", "samples_ms": [...],
//                  "median_ms", "p95_ms", "mean_ms", "min_ms", "max_ms",
//                  "events", "events_per_sec", "extras": {...} } ] }
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace droute::bench {

/// Handed to each case body: configures what gets timed and what gets
/// reported. One BenchContext per case per invocation.
class BenchContext {
 public:
  explicit BenchContext(bool quick) : quick_(quick) {}

  /// True under --quick: shrink the workload to smoke-test size.
  bool quick() const { return quick_; }

  /// The closure the harness times (warmup + repeats executions). A case
  /// that never calls set_work() fails the run — an empty measurement is a
  /// harness bug, not a fast case.
  void set_work(std::function<void()> work) { work_ = std::move(work); }

  /// Simulated events (flow completions, realloc calls, scenario runs...)
  /// one execution of the work closure processes; events/sec is derived
  /// from the median sample. 0 (default) suppresses the rate.
  void set_events(double events_per_iteration) {
    events_ = events_per_iteration;
  }

  /// Attaches a named scalar to the case's JSON entry (fleet size, speedup
  /// ratios, ...). Last write per key wins.
  void extra(const std::string& key, double value) { extras_[key] = value; }

 private:
  friend int bench_main(int argc, char** argv,
                        const std::string& default_json);
  bool quick_ = false;
  std::function<void()> work_;
  double events_ = 0.0;
  std::map<std::string, double> extras_;
};

struct BenchCase {
  std::string name;
  std::string unit;  // unit of one timed sample; never empty (lint-enforced)
  void (*body)(BenchContext&) = nullptr;
};

/// Registry of every DROUTE_BENCH in the binary, in registration order.
std::vector<BenchCase>& registry();

/// Registers `c` and returns true (static-initializer hook for the macro).
bool register_case(BenchCase c);

struct BenchStats {
  std::vector<double> samples_ms;
  double median_ms = 0.0;
  double p95_ms = 0.0;
  double mean_ms = 0.0;
  double min_ms = 0.0;
  double max_ms = 0.0;
};

/// Order statistics over `samples_ms` (nearest-rank p95; even-size median
/// averages the middle pair). Exposed for the harness's own tests.
BenchStats summarize(std::vector<double> samples_ms);

/// Runs the registered cases per the CLI and writes `default_json` (or
/// --json PATH). Returns a process exit status.
int bench_main(int argc, char** argv, const std::string& default_json);

}  // namespace droute::bench

/// Registers a bench case. `ident` names the case ("fabric.realloc_1000" is
/// spelled realloc_1000 in code, dots come from the binary's domain); `unit`
/// must be a non-empty string literal describing one timed sample.
#define DROUTE_BENCH(ident, unit)                                         \
  static void droute_bench_body_##ident(::droute::bench::BenchContext&);  \
  static const bool droute_bench_reg_##ident =                            \
      ::droute::bench::register_case(::droute::bench::BenchCase{          \
          #ident, unit, &droute_bench_body_##ident});                     \
  static void droute_bench_body_##ident(                                  \
      [[maybe_unused]] ::droute::bench::BenchContext& ctx)
