// fleet_churn: ~20k live flows in independent 100-pair dumbbell pods, all
// in one simulator and one fabric. Each pair is a closed loop in simulated
// time: it starts its next flow the instant the previous one completes, so
// the live fleet stays at the pair count while arrivals and departures
// churn the allocation. Set-up builds the pods and computes every pair's
// route through RouteTable::route. No cloud, transfer or wire work.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "net/fabric.h"
#include "net/routing.h"
#include "net/topology.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "util/units.h"

namespace perfbench {
namespace {

using namespace droute;

constexpr int kPairsPerPod = 100;
constexpr double kSliceS = 1.0;  // simulated seconds per run_until call
// Simulated seconds of closed-loop churn per round, before the drain. The
// fabric's per-completion cost keeps growing for the first minute of a
// storm, so every round runs the same fixed stretch of a fresh storm rather
// than however much fits in the run.
constexpr double kStormSimS = 40.0;
constexpr int kMinRounds = 3;  // set-up samples per --trace 0 run

int pod_count(const Options& options) { return options.small ? 2 : 200; }

/// Busy time of each layer entry point the fleet calls (traced pass only).
struct Layers {
  LayerTime route;
  LayerTime start_flow;
  LayerTime run;       // sim::Simulator::run / run_until, inclusive
  LayerTime callback;  // the benchmark's own completion callbacks
};

struct Fleet {
  net::Topology topo;
  net::RouteTable routes{nullptr};
  sim::Simulator simulator;
  std::unique_ptr<net::Fabric> fabric;
  std::vector<net::NodeId> a, b;  // pair i runs a[i] -> b[i]
};

/// Builds the pods (pod p: a_i -- left -- right -- b_i, the 1 Gbps
/// left--right hop shared by its 100 pairs) and routes every pair.
std::unique_ptr<Fleet> build_fleet(int pods, Spans& spans, Layers& layers) {
  auto fleet = std::make_unique<Fleet>();
  net::Topology::Builder builder;
  const net::AsId as = builder.add_as("FLEET");
  for (int p = 0; p < pods; ++p) {
    const std::string tag = std::to_string(p);
    const net::NodeId left = builder.add_router(as, "l" + tag, {40, -100});
    const net::NodeId right = builder.add_router(as, "r" + tag, {40, -99});
    for (int h = 0; h < kPairsPerPod; ++h) {
      const std::string host = tag + "_" + std::to_string(h);
      const net::NodeId ah = builder.add_host(as, "a" + host, {40, -100});
      const net::NodeId bh = builder.add_host(as, "b" + host, {40, -99});
      builder.add_duplex(ah, left, 10000, 0.0005);
      builder.add_duplex(right, bh, 10000, 0.0005);
      fleet->a.push_back(ah);
      fleet->b.push_back(bh);
    }
    builder.add_duplex(left, right, 1000, 0.01);
  }
  auto built = std::move(builder).build();
  if (!built.ok()) fail_check("fleet_topology", built.error().message);
  fleet->topo = std::move(built).value();
  fleet->routes = net::RouteTable(&fleet->topo);
  fleet->fabric = std::make_unique<net::Fabric>(&fleet->simulator,
                                                &fleet->topo, &fleet->routes);
  for (std::size_t pair = 0; pair < fleet->a.size(); ++pair) {
    Scope scope(spans, &layers.route, "net.route", 0, pair);
    auto route = fleet->routes.route(fleet->a[pair], fleet->b[pair]);
    if (!route.ok()) fail_check("fleet_route", route.error().message);
  }
  return fleet;
}

struct RoundStats {
  double setup_s = 0.0;
  double timed_s = 0.0;  // wall time of the storm and the drain
  std::uint64_t completed_bytes = 0;
  // Wall time from start_flow to completion, for flows that complete
  // before the drain.
  std::vector<double> lifetimes_ms;
  std::uint64_t started = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t live_peak = 0;
  std::uint64_t pending_peak = 0;
  double rss_kb_per_live_flow = 0.0;
  std::uint64_t events = 0;
};

/// The closed-loop storm over one fleet.
class Storm {
 public:
  Storm(Fleet& fleet, std::uint64_t seed, Spans& spans, Layers& layers)
      : fleet_(fleet), spans_(spans), layers_(layers) {
    util::Rng rng(seed);
    const std::size_t pairs = fleet_.a.size();
    pair_rng_.reserve(pairs);
    started_at_.resize(pairs);
    for (std::size_t pair = 0; pair < pairs; ++pair) {
      pair_rng_.push_back(rng.fork(pair));
      // Stagger the first generation so pods never start in lockstep.
      fleet_.simulator.schedule_at(rng.uniform(0.0, 2.0), [this, pair] {
        Scope callback(spans_, &layers_.callback, "fleet.first_flow", 0,
                       pair, run_span_);
        start_next(pair, callback.id());
      });
    }
  }

  /// Runs the storm's first kStormSimS simulated seconds, then stops the
  /// loops and drains every live flow, timing both; checks conservation.
  RoundStats run(const Options& options) {
    const double base_rss_kb = current_rss_kb();
    double peak_rss_kb = base_rss_kb;
    const auto t0 = Clock::now();
    while (fleet_.simulator.now() < kStormSimS) {
      {
        Scope run(spans_, &layers_.run, "sim.run_until", 0, 0);
        run_span_ = run.id();
        fleet_.simulator.run_until(fleet_.simulator.now() + kSliceS);
      }
      stats_.live_peak = std::max<std::uint64_t>(
          stats_.live_peak, fleet_.fabric->active_flow_count());
      stats_.pending_peak = std::max<std::uint64_t>(
          stats_.pending_peak, fleet_.simulator.pending());
      peak_rss_kb = std::max(peak_rss_kb, current_rss_kb());
    }

    draining_ = true;
    {
      Scope run(spans_, &layers_.run, "sim.run", 0, 0);
      run_span_ = run.id();
      fleet_.simulator.run();
    }
    stats_.timed_s = seconds_since(t0);
    stats_.events = fleet_.simulator.executed_events();
    stats_.rss_kb_per_live_flow =
        stats_.live_peak > 0 ? (peak_rss_kb - base_rss_kb) /
                                   static_cast<double>(stats_.live_peak)
                             : 0.0;

    const net::Fabric& fabric = *fleet_.fabric;
    check_equal(options, "fleet_completions_equal_starts", stats_.completed,
                stats_.started);
    check_equal(options, "fleet_delivered_equals_submitted",
                fabric.delivered_bytes(),
                fabric.submitted_bytes() - failed_bytes_);
    check_equal(options, "fleet_drained", fabric.active_flow_count(), 0);
    return std::move(stats_);
  }

 private:
  void start_next(std::size_t pair, std::uint64_t parent) {
    if (draining_) return;
    const std::uint64_t bytes =
        static_cast<std::uint64_t>(pair_rng_[pair].uniform_int(10, 40)) *
        util::kMB;
    net::FlowOptions flow_options;
    flow_options.charge_slow_start = false;
    started_at_[pair] = Clock::now();
    Scope scope(spans_, &layers_.start_flow, "net.start_flow", 0, pair,
                parent);
    auto flow = fleet_.fabric->start_flow(
        fleet_.a[pair], fleet_.b[pair], bytes,
        [this, pair](const net::FlowStats& flow_stats) {
          on_complete(pair, flow_stats);
        },
        flow_options);
    if (!flow.ok()) fail_check("fleet_start_flow", flow.error().message);
    ++stats_.started;
  }

  void on_complete(std::size_t pair, const net::FlowStats& flow_stats) {
    Scope callback(spans_, &layers_.callback, "fleet.on_complete", 0, pair,
                   run_span_);
    ++stats_.completed;
    if (flow_stats.outcome != net::FlowOutcome::kCompleted) {
      ++stats_.failed;
      failed_bytes_ += flow_stats.bytes;
    } else {
      stats_.completed_bytes += flow_stats.bytes;
      if (!draining_) {
        stats_.lifetimes_ms.push_back(1e3 * seconds_since(started_at_[pair]));
      }
    }
    start_next(pair, callback.id());
  }

  Fleet& fleet_;
  Spans& spans_;
  Layers& layers_;
  std::vector<util::Rng> pair_rng_;
  std::vector<Clock::time_point> started_at_;
  bool draining_ = false;
  std::uint64_t run_span_ = 0;
  std::uint64_t failed_bytes_ = 0;
  RoundStats stats_;
};

/// One round: build a fresh fleet (timed as set-up), storm it, drain.
RoundStats run_round(const Options& options, std::uint64_t seed, Spans& spans,
                     Layers& layers) {
  const auto t0 = Clock::now();
  auto fleet = build_fleet(pod_count(options), spans, layers);
  const double setup_s = seconds_since(t0);
  Storm storm(*fleet, seed, spans, layers);
  RoundStats stats = storm.run(options);
  stats.setup_s = setup_s;
  return stats;
}

/// Rounds of the same storm, at least `min_rounds`, then more while at
/// least half of one more round fits in `budget_s`, so a run ends within
/// half a round of its budget.
std::vector<RoundStats> run_rounds(const Options& options, std::uint64_t seed,
                                   double budget_s, int min_rounds) {
  Spans off(nullptr, "");
  Layers unused;
  std::vector<RoundStats> rounds;
  const auto t0 = Clock::now();
  double longest_s = 0.0;
  while (rounds.size() < static_cast<std::size_t>(min_rounds) ||
         seconds_since(t0) + longest_s / 2.0 < budget_s) {
    const auto round_t0 = Clock::now();
    rounds.push_back(run_round(options, seed, off, unused));
    longest_s = std::max(longest_s, seconds_since(round_t0));
  }
  return rounds;
}

std::vector<double> per_round(const std::vector<RoundStats>& rounds,
                              double (*value)(const RoundStats&)) {
  std::vector<double> out;
  for (const RoundStats& round : rounds) out.push_back(value(round));
  return out;
}

double flows_per_s(const RoundStats& round) {
  return static_cast<double>(round.completed - round.failed) / round.timed_s;
}
double goodput_mbps(const RoundStats& round) {
  return static_cast<double>(round.completed_bytes) * 8e-6 / round.timed_s;
}
double setup_s(const RoundStats& round) { return round.setup_s; }

}  // namespace

void run_fleet_churn(const Options& options, Report& report) {
  const std::uint64_t seed = options.seed * 0x9e3779b97f4a7c15ull + 17;

  if (!options.trace) {
    const std::vector<RoundStats> rounds =
        run_rounds(options, seed, options.seconds, kMinRounds);
    std::vector<double> lifetimes_ms;
    std::uint64_t started = 0;
    std::uint64_t failed = 0;
    for (const RoundStats& round : rounds) {
      lifetimes_ms.insert(lifetimes_ms.end(), round.lifetimes_ms.begin(),
                          round.lifetimes_ms.end());
      started += round.started;
      failed += round.failed;
    }
    report.count_ops(started, failed);
    report.set("setup_s", percentile(per_round(rounds, setup_s), 50), "s",
               rounds.size());
    report.set("ops_per_s", percentile(per_round(rounds, flows_per_s), 50),
               "1/s", rounds.size());
    report.set("op_p50_ms", percentile(lifetimes_ms, 50), "ms",
               lifetimes_ms.size());
    report.set("op_p99_ms", percentile(lifetimes_ms, 99), "ms",
               lifetimes_ms.size());
    report.set("goodput_mbps", percentile(per_round(rounds, goodput_mbps), 50),
               "Mbps", rounds.size());
    report.set("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }

  // Untraced rounds for half the time, then exactly one traced round, so
  // the per-layer counts are the same on every run with this seed.
  zero_layer_metrics(report);
  const std::vector<RoundStats> plain =
      run_rounds(options, seed, options.seconds / 2.0, 1);
  obs::Recorder recorder(kSpanCapacity);
  Layers layers;
  RoundStats traced;
  {
    obs::ScopedRecorder installed(&recorder);
    Spans spans(&recorder, "fleet_churn");
    traced = run_round(options, seed, spans, layers);
  }
  write_trace(options, recorder);
  check_equal(options, "obs_spans_dropped", recorder.dropped_spans(), 0);

  std::uint64_t started = traced.started;
  std::uint64_t failed = traced.failed;
  for (const RoundStats& round : plain) {
    started += round.started;
    failed += round.failed;
  }
  report.count_ops(started, failed);
  const double plain_rate = percentile(per_round(plain, flows_per_s), 50);
  report.set("flows_per_s", plain_rate, "1/s", plain.size());
  report.set("failed_ratio",
             static_cast<double>(failed) / static_cast<double>(started),
             "ratio", started);
  report.set("obs.trace_overhead_ratio", plain_rate / flows_per_s(traced),
             "ratio");
  report.set("obs.spans_dropped",
             static_cast<double>(recorder.dropped_spans()), "count");

  report.set("sim.events", static_cast<double>(traced.events), "count");
  report.set("sim.pending_peak", static_cast<double>(traced.pending_peak),
             "count");
  report.set("sim.run_self_s", layers.run.seconds() - layers.callback.seconds(),
             "s", layers.run.calls.load());
  report.set("net.route_s", layers.route.seconds(), "s",
             layers.route.calls.load());
  report.set("net.route_calls", static_cast<double>(layers.route.calls.load()),
             "count");
  report.set("net.start_flow_s", layers.start_flow.seconds(), "s",
             layers.start_flow.calls.load());
  report.set("net.start_flow_calls",
             static_cast<double>(layers.start_flow.calls.load()), "count");
  report.set("net.live_flows_peak", static_cast<double>(traced.live_peak),
             "count");
  report.set("net.rss_kb_per_live_flow", plain.front().rss_kb_per_live_flow,
             "kB", plain.front().live_peak);
  set_obs_counters(report, recorder);
}

}  // namespace perfbench
