// wire_upload: transfer::WireTransport WRITE batches through a
// TransferEngine to unpoliced loopback wire::Sink listeners. Batches
// alternate 64 KiB requests, where per-request cost dominates, with 1 MiB
// requests, where bytes dominate. The client side runs at most half the
// worker budget of requests at once and the sink one service thread per
// listener, so the two together stay within the budget. Traffic crosses
// the host's loopback interface, not a real link; no sim or net code runs.
//
// The whole workload runs on one CPU. Every request hands off between the
// batch owner, a transport worker and a sink thread; spread over CPUs, each
// hand-off waits for an idle CPU to wake, and on a shared virtual machine
// that wake-up varied run to run by 2x, while on one CPU the same runs
// agreed within 1%. On one CPU a request costs its CPU work.
#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "transfer/batch.h"
#include "transfer/wire_transport.h"
#include "util/rng.h"
#include "util/units.h"
#include "wire/sink.h"

namespace perfbench {
namespace {

using namespace droute;

constexpr std::uint64_t kSmallBytes = 64 * util::kKiB;
constexpr std::uint64_t kLargeBytes = util::kMiB;
constexpr std::size_t kSmallPerBatch = 16;
constexpr std::size_t kLargePerBatch = 8;
constexpr std::size_t kTracedPairs = 200;
// Small+large batch pairs each plane (sink, transport, engine) serves before
// it is checked and replaced by a freshly set-up one, so set-up is sampled
// throughout a run.
constexpr std::size_t kPairsPerPlane = 20;

std::size_t connections() { return std::max(1u, worker_budget() / 2); }

/// Restricts the calling thread, and every thread it starts afterwards, to
/// the last CPU it may run on.
void pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  int last = -1;
  if (sched_getaffinity(0, sizeof allowed, &allowed) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed)) last = cpu;
    }
  }
  cpu_set_t one;
  CPU_ZERO(&one);
  if (last >= 0) CPU_SET(last, &one);
  if (last < 0 || sched_setaffinity(0, sizeof one, &one) != 0) {
    std::fprintf(stderr, "perfbench: cannot pin wire_upload to one CPU\n");
    std::exit(2);
  }
}

/// Busy time of TransferEngine::submit_batch (traced pass only).
struct Layers {
  LayerTime submit;
};

/// The request payloads, made once per run from the seed.
struct Payloads {
  std::vector<std::uint8_t> small;  // kSmallPerBatch x kSmallBytes
  std::vector<std::uint8_t> large;  // kLargePerBatch x kLargeBytes
};

/// Sink, transport and engine; built by set-up. The sink is declared first
/// so it outlives the transport draining into it.
struct Plane {
  wire::Sink sink;
  transfer::WireTransport transport;
  transfer::TransferEngine engine{&transport};
  std::vector<transfer::SegmentId> segments;
  std::uint64_t sent_objects = 0;  // completed uploads so far
  std::uint64_t sent_bytes = 0;
};

struct BatchResult {
  std::vector<double> latency_ms;    // submit -> settle, per request
  std::vector<double> service_ms;    // RequestStatus start_s -> end_s
  std::vector<double> queue_ms;      // submit -> start_s
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t bytes = 0;
  double wall_s = 0.0;
};

Payloads make_payloads(std::uint64_t seed) {
  util::Rng rng(seed * 0x9e3779b97f4a7c15ull + 64);
  auto fill = [&rng](std::size_t bytes) {
    std::vector<std::uint8_t> out(bytes);
    for (std::size_t i = 0; i < bytes; i += sizeof(std::uint64_t)) {
      const std::uint64_t word = rng.next_u64();
      std::memcpy(out.data() + i, &word, std::min(sizeof word, bytes - i));
    }
    return out;
  };
  Payloads payloads;
  payloads.small = fill(kSmallPerBatch * kSmallBytes);
  payloads.large = fill(kLargePerBatch * kLargeBytes);
  return payloads;
}

/// Submits one batch of `count` requests of `length` bytes, spread over the
/// segments, and waits for it to settle.
BatchResult run_batch(Plane& plane, const std::uint8_t* data,
                      std::uint64_t length, std::size_t count, Spans& spans,
                      Layers& layers, double clock_offset_s) {
  std::vector<transfer::TransferRequest> requests(count);
  for (std::size_t i = 0; i < count; ++i) {
    requests[i].opcode = transfer::Opcode::kWrite;
    requests[i].source = data + i * length;
    requests[i].target_id = plane.segments[i % plane.segments.size()];
    requests[i].length = length;
  }
  transfer::BatchOptions batch_options;
  batch_options.concurrency = connections();

  BatchResult result;
  const std::uint64_t op = spans.new_id();
  const auto t0 = Clock::now();
  const double submit_s = plane.transport.now();
  auto submit = [&] {
    Scope scope(spans, &layers.submit, "transfer.submit_batch", 0, op);
    return plane.engine.submit_batch(std::move(requests), batch_options);
  };
  transfer::BatchHandle handle = submit();
  std::uint64_t wait_span = 0;
  {
    Scope scope(spans, nullptr, "transfer.batch_wait", 0, op);
    wait_span = scope.id();
    (void)handle.wait();
  }
  result.wall_s = seconds_since(t0);
  for (std::size_t i = 0; i < count; ++i) {
    const transfer::RequestStatus& status = handle.status(i);
    if (!status.completed() || status.bytes != length) {
      ++result.failed;
      continue;
    }
    ++result.completed;
    result.bytes += status.bytes;
    result.latency_ms.push_back(1e3 * (status.end_s - submit_s));
    result.service_ms.push_back(1e3 * status.duration_s());
    result.queue_ms.push_back(1e3 * (status.start_s - submit_s));
    if (spans.on()) {
      const auto lane = static_cast<std::uint32_t>(i + 1);
      spans.record("transfer.queue_wait", lane, submit_s + clock_offset_s,
                   status.start_s + clock_offset_s, spans.new_id(), wait_span,
                   op);
      spans.record("wire.upload", lane, status.start_s + clock_offset_s,
                   status.end_s + clock_offset_s, spans.new_id(), wait_span,
                   op);
    }
  }
  plane.sent_objects += result.completed;
  plane.sent_bytes += result.bytes;
  return result;
}

/// Set-up: a sink with one unpoliced listener per connection, the engine
/// with one segment per listener, and one warm-up batch that opens every
/// path once.
std::unique_ptr<Plane> set_up(const Payloads& payloads) {
  auto plane = std::make_unique<Plane>();
  for (std::size_t i = 0; i < connections(); ++i) {
    auto port = plane->sink.add_ingress(0.0);
    if (!port.ok()) fail_check("wire_sink_listen", port.error().message);
    transfer::Segment segment;
    segment.name = "sink" + std::to_string(i);
    segment.wire_port = port.value();
    plane->segments.push_back(plane->engine.register_segment(segment));
  }
  if (auto started = plane->sink.start(); !started.ok()) {
    fail_check("wire_sink_start", started.error().message);
  }
  Spans off(nullptr, "");
  Layers unused;
  const BatchResult warm =
      run_batch(*plane, payloads.small.data(), kSmallBytes,
                plane->segments.size(), off, unused, 0.0);
  if (warm.failed != 0) fail_check("wire_warm_up", "warm-up upload failed");
  return plane;
}

struct PassStats {
  BatchResult small;
  BatchResult large;
  // Per small+large pair of batches: requests per wall second, and the
  // large batch's goodput. Rates are medians over pairs.
  std::vector<double> pair_rates;
  std::vector<double> large_mbps;
  std::vector<double> setup_s;  // per plane
  std::uint64_t requests() const {
    return small.completed + small.failed + large.completed + large.failed;
  }
  std::uint64_t failed() const { return small.failed + large.failed; }
};

void append(BatchResult& into, BatchResult&& from) {
  auto move_all = [](std::vector<double>& to, std::vector<double>& src) {
    to.insert(to.end(), src.begin(), src.end());
  };
  move_all(into.latency_ms, from.latency_ms);
  move_all(into.service_ms, from.service_ms);
  move_all(into.queue_ms, from.queue_ms);
  into.completed += from.completed;
  into.failed += from.failed;
  into.bytes += from.bytes;
}

/// Stops the plane's sink and checks it received exactly what was sent.
void retire(const Options& options, Plane& plane) {
  plane.sink.stop();
  check_equal(options, "wire_sink_objects_received",
              plane.sink.objects_received(), plane.sent_objects);
  check_equal(options, "wire_sink_bytes_received", plane.sink.bytes_received(),
              plane.sent_bytes);
}

/// Alternates small and large batches for `budget_s`, and for at least
/// `min_pairs` small+large pairs, on a fresh plane every kPairsPerPlane.
PassStats run_pass(const Options& options, const Payloads& payloads,
                   double budget_s, std::size_t min_pairs, Spans& spans,
                   Layers& layers) {
  PassStats stats;
  std::unique_ptr<Plane> plane;
  double clock_offset_s = 0.0;
  const auto t0 = Clock::now();
  while (seconds_since(t0) < budget_s || stats.pair_rates.size() < min_pairs) {
    if (stats.pair_rates.size() % kPairsPerPlane == 0) {
      if (plane != nullptr) retire(options, *plane);
      plane.reset();
      const auto setup_start = Clock::now();
      plane = set_up(payloads);
      stats.setup_s.push_back(seconds_since(setup_start));
      clock_offset_s = spans.now() - plane->transport.now();
    }
    BatchResult small =
        run_batch(*plane, payloads.small.data(), kSmallBytes, kSmallPerBatch,
                  spans, layers, clock_offset_s);
    BatchResult large =
        run_batch(*plane, payloads.large.data(), kLargeBytes, kLargePerBatch,
                  spans, layers, clock_offset_s);
    stats.pair_rates.push_back(
        static_cast<double>(small.completed + large.completed) /
        (small.wall_s + large.wall_s));
    stats.large_mbps.push_back(static_cast<double>(large.bytes) * 8e-6 /
                               large.wall_s);
    append(stats.small, std::move(small));
    append(stats.large, std::move(large));
  }
  retire(options, *plane);
  return stats;
}

}  // namespace

void run_wire_upload(const Options& options, Report& report) {
  pin_to_one_cpu();
  const Payloads payloads = make_payloads(options.seed);
  Layers layers;
  if (!options.trace) {
    Spans off(nullptr, "");
    const PassStats stats =
        run_pass(options, payloads, options.seconds, 1, off, layers);
    report.count_ops(stats.requests(), stats.failed());
    const std::vector<double>& small = stats.small.latency_ms;
    report.set("setup_s", percentile(stats.setup_s, 50), "s",
               stats.setup_s.size());
    report.set("ops_per_s", percentile(stats.pair_rates, 50), "1/s",
               stats.pair_rates.size());
    report.set("op_p50_ms", percentile(small, 50), "ms", small.size());
    report.set("op_p99_ms", percentile(small, 99), "ms", small.size());
    report.set("goodput_mbps", percentile(stats.large_mbps, 50), "Mbps",
               stats.large_mbps.size());
    report.set("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }

  // Untraced batches for half the time, then a fixed number of traced
  // pairs, so the per-layer counts are the same on every run.
  zero_layer_metrics(report);
  Spans off(nullptr, "");
  const PassStats plain =
      run_pass(options, payloads, options.seconds / 2.0, 1, off, layers);

  obs::Recorder recorder(kSpanCapacity);
  PassStats traced;
  {
    obs::ScopedRecorder installed(&recorder);
    Spans spans(&recorder, "wire_upload");
    traced = run_pass(options, payloads, 0.0,
                      options.small ? 2 : kTracedPairs, spans, layers);
  }
  write_trace(options, recorder);
  check_equal(options, "obs_spans_dropped", recorder.dropped_spans(), 0);

  report.count_ops(plain.requests() + traced.requests(),
                   plain.failed() + traced.failed());
  const double plain_rate = percentile(plain.pair_rates, 50);
  const double traced_rate = percentile(traced.pair_rates, 50);
  report.set("wire_goodput_mbps", percentile(plain.large_mbps, 50), "Mbps",
             plain.large_mbps.size());
  report.set("wire_small_p50_ms", percentile(plain.small.latency_ms, 50), "ms",
             plain.small.latency_ms.size());
  report.set("wire_small_p99_ms", percentile(plain.small.latency_ms, 99), "ms",
             plain.small.latency_ms.size());
  report.set("failed_ratio",
             static_cast<double>(plain.failed()) /
                 static_cast<double>(plain.requests()),
             "ratio", plain.requests());
  report.set("obs.trace_overhead_ratio", plain_rate / traced_rate, "ratio");
  report.set("obs.spans_dropped",
             static_cast<double>(recorder.dropped_spans()), "count");

  const std::vector<double>& service = traced.small.service_ms;
  const std::vector<double>& queue = traced.small.queue_ms;
  report.set("wire.service_ms_p50", percentile(service, 50), "ms",
             service.size());
  report.set("wire.service_ms_p99", percentile(service, 99), "ms",
             service.size());
  report.set("transfer.queue_wait_ms_p50", percentile(queue, 50), "ms",
             queue.size());
  report.set("transfer.submit_s", layers.submit.seconds(), "s",
             layers.submit.calls.load());
  set_obs_counters(report, recorder);
}

}  // namespace perfbench
