// Shared plumbing for the droute benchmark (README.md): options, the
// report every workload fills, output checks, and the benchmark-side spans
// that time calls into each library layer from outside.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/recorder.h"

namespace perfbench {

namespace obs = droute::obs;
using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Self-test size: a few pods, a corner of the grid, a few batches.
  bool small = false;
  /// Self-test: the output check of this name compares against a
  /// deliberately wrong expected value, so a working check fails the run.
  std::string skew_check;
  std::string trace_out;  // Chrome trace of the traced pass ("" = none)
  std::string commit = "unknown";
};

/// Process-wide worker budget, nproc capped at 4 so larger machines run the
/// same concurrency: the campaign pool and the wire plane never run more
/// threads or connections than this.
unsigned worker_budget();

// --- Report ------------------------------------------------------------------

class Report {
 public:
  /// Adds (or overwrites) a metric; `samples` is the count it was taken over.
  void set(const std::string& name, double value, const std::string& unit,
           std::uint64_t samples = 1);
  void count_ops(std::uint64_t attempted, std::uint64_t failed);

  /// Prints the human-readable table, then one JSON line (the last line).
  void print(const Options& options) const;

 private:
  struct Metric {
    double value = 0.0;
    std::string unit;
    std::uint64_t samples = 1;
  };
  std::map<std::string, Metric> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// An output check. On failure prints the check's name and exits non-zero
/// without reporting any numbers; fail_check also reports set-up that cannot
/// proceed. `expected` is skewed by one when --selftest-skew-expected names
/// the check, so the self-test can prove the check bites.
void check_equal(const Options& options, const std::string& name,
                 std::uint64_t actual, std::uint64_t expected);
[[noreturn]] void fail_check(const std::string& name,
                             const std::string& detail);

// --- Statistics and memory ---------------------------------------------------

/// Linear-interpolated percentile, p in [0, 100]; 0 for no samples.
double percentile(std::vector<double> values, double p);
double peak_rss_mb();     // process high-water mark
double current_rss_kb();  // resident set right now

// --- Benchmark-side tracing --------------------------------------------------

/// Busy time and call count of one layer's public entry point, summed over
/// threads. Only the traced pass fills these.
struct LayerTime {
  std::atomic<std::int64_t> ns{0};
  std::atomic<std::uint64_t> calls{0};

  double seconds() const { return static_cast<double>(ns.load()) * 1e-9; }
  void add(double s) {
    ns.fetch_add(static_cast<std::int64_t>(s * 1e9));
    calls.fetch_add(1);
  }
};

/// Records spans into the installed obs::Recorder (the traced pass) or does
/// nothing (the untraced pass). Each span carries its own id, its parent's
/// id and the id of the operation (run, flow, request) it belongs to; the
/// spans are kept in memory and written once through obs's Chrome-trace
/// exporter.
class Spans {
 public:
  explicit Spans(obs::Recorder* recorder, std::string_view track_name);
  bool on() const { return recorder_ != nullptr; }
  double now() const {
    return recorder_ != nullptr ? recorder_->wall_now_s() : 0.0;
  }
  std::uint64_t new_id() { return next_id_.fetch_add(1); }
  void record(std::string_view name, std::uint32_t lane, double start_s,
              double end_s, std::uint64_t id, std::uint64_t parent,
              std::uint64_t op);

 private:
  obs::Recorder* recorder_;
  std::uint32_t track_ = 0;
  std::atomic<std::uint64_t> next_id_{1};
};

/// Times one call into a library layer: adds the elapsed time to `layer`
/// and records a span, both only when tracing is on.
class Scope {
 public:
  Scope(Spans& spans, LayerTime* layer, std::string_view name,
        std::uint32_t lane, std::uint64_t op, std::uint64_t parent = 0);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  std::uint64_t id() const { return id_; }

 private:
  Spans& spans_;
  LayerTime* layer_;
  std::string_view name_;
  std::uint32_t lane_;
  std::uint64_t op_;
  std::uint64_t parent_;
  std::uint64_t id_ = 0;
  double start_s_ = 0.0;
};

/// Sets every per-layer metric to 0 with its unit, so a workload reports the
/// layers it does not exercise as zero work; workloads then overwrite what
/// they measure.
void zero_layer_metrics(Report& report);

/// Copies the obs counters the library records (net, measure, cloud,
/// transfer, wire, ctrl) into their per-layer metrics.
void set_obs_counters(Report& report, const obs::Recorder& recorder);

/// Writes the recorder's spans as a Chrome trace when a path was given.
void write_trace(const Options& options, const obs::Recorder& recorder);

/// Recorder span capacity for a traced pass.
inline constexpr std::size_t kSpanCapacity = std::size_t{1} << 22;

// --- Workloads ---------------------------------------------------------------

void run_campaign_grid(const Options& options, Report& report);
void run_fleet_churn(const Options& options, Report& report);
void run_wire_upload(const Options& options, Report& report);

}  // namespace perfbench
