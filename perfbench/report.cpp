#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "bench.h"
#include "obs/export.h"

namespace perfbench {

namespace {

std::string json_string(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    }
  }
  return out + "\"";
}

std::string number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        const auto start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

}  // namespace

unsigned worker_budget() {
  return std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
}

void Report::set(const std::string& name, double value,
                 const std::string& unit, std::uint64_t samples) {
  metrics_[name] = Metric{value, unit, samples};
}

void Report::count_ops(std::uint64_t attempted, std::uint64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

void Report::print(const Options& options) const {
  for (const auto& [name, metric] : metrics_) {
    if (!std::isfinite(metric.value)) {
      fail_check("metric_finite", name + " is not a finite number");
    }
  }
  const std::string cpu = cpu_model();
  const unsigned nproc = std::thread::hardware_concurrency();
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d%s\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0, options.small ? " small" : "");
  std::printf(
      "machine: cpu=\"%s\" nproc=%u compiler=\"%s\" build=%s commit=%s\n",
      cpu.c_str(), nproc, PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE,
      options.commit.c_str());
  std::printf("ops: attempted=%llu failed=%llu\n",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_));
  for (const auto& [name, metric] : metrics_) {
    std::printf("  %-28s %16.6g %-6s n=%llu\n", name.c_str(), metric.value,
                metric.unit.c_str(),
                static_cast<unsigned long long>(metric.samples));
  }

  std::string json = "{\"correct\": true, \"attempted\": " +
                     std::to_string(attempted_) +
                     ", \"failed\": " + std::to_string(failed_) +
                     ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics_) {
    if (!first) json += ", ";
    first = false;
    json += json_string(name) + ": {\"value\": " + number(metric.value) +
            ", \"unit\": " + json_string(metric.unit) +
            ", \"samples\": " + std::to_string(metric.samples) + "}";
  }
  json += "}, \"machine\": {\"cpu\": " + json_string(cpu) +
          ", \"nproc\": " + std::to_string(nproc) +
          ", \"compiler\": " + json_string(PERFBENCH_COMPILER) +
          ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE) +
          ", \"commit\": " + json_string(options.commit) + "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

void fail_check(const std::string& name, const std::string& detail) {
  std::fflush(stdout);
  std::fprintf(stderr, "perfbench: check '%s' FAILED: %s\n",
               name.c_str(), detail.c_str());
  std::fflush(stderr);
  // Worker threads may still be parked; skip static destructors.
  std::_Exit(3);
}

void check_equal(const Options& options, const std::string& name,
                 std::uint64_t actual, std::uint64_t expected) {
  if (options.skew_check == name) ++expected;
  if (actual != expected) {
    fail_check(name, "got " + std::to_string(actual) + ", expected " +
                         std::to_string(expected));
  }
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double current_rss_kb() {
  std::ifstream statm("/proc/self/statm");
  double size_pages = 0.0;
  double resident_pages = 0.0;
  statm >> size_pages >> resident_pages;
  return resident_pages * 4.0;  // 4 KiB pages
}

Spans::Spans(obs::Recorder* recorder, std::string_view track_name)
    : recorder_(recorder) {
  if (recorder_ != nullptr) {
    track_ = recorder_->new_track("perfbench " + std::string(track_name));
  }
}

void Spans::record(std::string_view name, std::uint32_t lane, double start_s,
                   double end_s, std::uint64_t id, std::uint64_t parent,
                   std::uint64_t op) {
  if (recorder_ == nullptr) return;
  obs::Span span;
  span.name = std::string(name);
  span.clock = obs::Clock::kWall;
  span.track = track_;
  span.lane = lane;
  span.start_s = start_s;
  span.end_s = end_s;
  span.args = {{"id", std::to_string(id)},
               {"parent", std::to_string(parent)},
               {"op", std::to_string(op)}};
  recorder_->record_span(std::move(span));
}

Scope::Scope(Spans& spans, LayerTime* layer, std::string_view name,
             std::uint32_t lane, std::uint64_t op, std::uint64_t parent)
    : spans_(spans),
      layer_(layer),
      name_(name),
      lane_(lane),
      op_(op),
      parent_(parent) {
  if (!spans_.on()) return;
  id_ = spans_.new_id();
  start_s_ = spans_.now();
}

Scope::~Scope() {
  if (!spans_.on()) return;
  const double end_s = spans_.now();
  if (layer_ != nullptr) layer_->add(end_s - start_s_);
  spans_.record(name_, lane_, start_s_, end_s, id_, parent_, op_);
}

namespace {

struct LayerMetric {
  const char* name;
  const char* unit;
};

// Every per-layer metric BENCHMARK.json lists, with its unit.
constexpr LayerMetric kLayerMetrics[] = {
    {"sim.events", "count"},
    {"sim.pending_peak", "count"},
    {"sim.run_self_s", "s"},
    {"net.route_s", "s"},
    {"net.route_calls", "count"},
    {"net.start_flow_s", "s"},
    {"net.start_flow_calls", "count"},
    {"net.live_flows_peak", "count"},
    {"net.rss_kb_per_live_flow", "kB"},
    {"net.realloc_rounds", "count"},
    {"net.realloc_components", "count"},
    {"net.realloc_skipped", "count"},
    {"net.flows_started", "count"},
    {"net.flows_completed", "count"},
    {"net.flows_failed", "count"},
    {"scenario.world_create_s", "s"},
    {"scenario.world_create_calls", "count"},
    {"scenario.upload_s", "s"},
    {"scenario.download_s", "s"},
    {"scenario.stage_s", "s"},
    {"scenario.steered_s", "s"},
    {"measure.runs", "count"},
    {"measure.run_failures", "count"},
    {"util.pool_busy_ratio", "ratio"},
    {"cloud.sessions_opened", "count"},
    {"cloud.sessions_finalized", "count"},
    {"cloud.requests_throttled", "count"},
    {"cloud.token_refreshes", "count"},
    {"transfer.throttle_retries", "count"},
    {"transfer.batch_requests", "count"},
    {"transfer.submit_s", "s"},
    {"transfer.queue_wait_ms_p50", "ms"},
    {"wire.service_ms_p50", "ms"},
    {"wire.service_ms_p99", "ms"},
    {"wire.bytes_received", "bytes"},
    {"ctrl.probes_launched", "count"},
    {"ctrl.decisions_made", "count"},
    {"ctrl.switches_made", "count"},
    {"ctrl.tivs_flagged", "count"},
    {"obs.trace_overhead_ratio", "ratio"},
    {"obs.spans_dropped", "count"},
    {"failed_ratio", "ratio"},
    {"campaign_runs_per_s", "1/s"},
    {"upload_run_p50_ms", "ms"},
    {"upload_run_p99_ms", "ms"},
    {"download_run_p50_ms", "ms"},
    {"download_run_p99_ms", "ms"},
    {"steer_oracle_ratio", "ratio"},
    {"flows_per_s", "1/s"},
    {"wire_goodput_mbps", "Mbps"},
    {"wire_small_p50_ms", "ms"},
    {"wire_small_p99_ms", "ms"},
};

// Library obs counter -> per-layer metric and its unit.
constexpr struct {
  const char* counter;
  const char* metric;
  const char* unit;
} kObsCounters[] = {
    {"net.realloc_rounds_total", "net.realloc_rounds", "count"},
    {"net.realloc_components_total", "net.realloc_components", "count"},
    {"net.realloc_skipped_total", "net.realloc_skipped", "count"},
    {"net.flows_started_total", "net.flows_started", "count"},
    {"net.flows_completed_total", "net.flows_completed", "count"},
    {"net.flows_failed_total", "net.flows_failed", "count"},
    {"measure.runs_total", "measure.runs", "count"},
    {"measure.run_failures_total", "measure.run_failures", "count"},
    {"cloud.sessions_opened_total", "cloud.sessions_opened", "count"},
    {"cloud.sessions_finalized_total", "cloud.sessions_finalized", "count"},
    {"cloud.requests_throttled_total", "cloud.requests_throttled", "count"},
    {"cloud.token_refreshes_total", "cloud.token_refreshes", "count"},
    {"transfer.throttle_retries_total", "transfer.throttle_retries", "count"},
    {"transfer.batch_requests_total", "transfer.batch_requests", "count"},
    {"wire.bytes_received_total", "wire.bytes_received", "bytes"},
    {"ctrl.probes_launched_total", "ctrl.probes_launched", "count"},
    {"ctrl.decisions_made_total", "ctrl.decisions_made", "count"},
    {"ctrl.switches_made_total", "ctrl.switches_made", "count"},
    {"ctrl.tivs_flagged_total", "ctrl.tivs_flagged", "count"},
};

}  // namespace

void zero_layer_metrics(Report& report) {
  for (const LayerMetric& metric : kLayerMetrics) {
    report.set(metric.name, 0.0, metric.unit, 0);
  }
}

void set_obs_counters(Report& report, const obs::Recorder& recorder) {
  const auto counters = recorder.metrics().counters();
  for (const auto& entry : kObsCounters) {
    double value = 0.0;
    for (const obs::Counter* counter : counters) {
      if (counter->name() == entry.counter) {
        value = static_cast<double>(counter->value());
      }
    }
    report.set(entry.metric, value, entry.unit);
  }
}

void write_trace(const Options& options, const obs::Recorder& recorder) {
  if (options.trace_out.empty()) return;
  const auto status =
      obs::write_file(options.trace_out, obs::chrome_trace_json(recorder));
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench: could not write trace %s: %s\n",
                 options.trace_out.c_str(), status.error().message.c_str());
  }
}

}  // namespace perfbench
