// campaign_grid: the paper's own workload on the calibrated North-America
// World. A measure::Campaign runs uploads and downloads for 3 clients x 3
// providers x 3 routes x 7 sizes under the 7-run / keep-last-5 protocol on a
// util::ThreadPool, and each provider runs a steered session sequence: one
// arm steered by a World::make_controller controller and three
// StaticSteering arms (direct, via UAlberta, via UMich) whose per-session
// best is the oracle. Every run builds its own World, so the fabric only
// ever holds the paper's handful of flows.
#include <algorithm>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "bench.h"
#include "cloud/provider.h"
#include "ctrl/controller.h"
#include "ctrl/steering.h"
#include "measure/campaign.h"
#include "scenario/north_america.h"
#include "util/thread_pool.h"
#include "util/units.h"

namespace perfbench {
namespace {

using namespace droute;
using scenario::Client;
using scenario::Intermediate;
using scenario::RouteChoice;

constexpr int kSessionsPerProvider = 6;
constexpr double kSessionGapS = 10.0;

/// Busy time of each scenario entry point, summed over pool workers
/// (traced pass only).
struct Layers {
  LayerTime world_create;
  LayerTime route;
  LayerTime upload;
  LayerTime download;
  LayerTime stage;
  LayerTime steered;
};

/// Pool size: the worker budget less one core for the main thread and the
/// rest of the machine, so a stray process does not stall a grid worker.
unsigned campaign_workers() { return std::max(1u, worker_budget() - 1); }

/// Chrome-trace lane of the calling pool worker.
std::uint32_t lane() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t mine = next.fetch_add(1);
  return mine;
}

struct Grid {
  std::vector<Client> clients;
  std::vector<cloud::ProviderKind> providers;
  std::vector<RouteChoice> routes;
  std::vector<std::uint64_t> sizes;
  measure::Protocol protocol;
  int sessions = kSessionsPerProvider;
};

Grid make_grid(const Options& options) {
  Grid grid;
  grid.clients = scenario::all_clients();
  grid.providers = cloud::all_providers();
  grid.routes = scenario::all_routes();
  grid.sizes = scenario::paper_file_sizes_bytes();
  if (options.small) {
    grid.clients.resize(1);
    grid.providers.resize(1);
    grid.sizes.resize(2);
    grid.protocol.total_runs = 2;
    grid.protocol.keep_last = 1;
    grid.sessions = 2;
  }
  return grid;
}

/// Set-up: the worker pool, then one pre-flight World per (client,
/// provider) cell, seeded like a run, in which every hop of every route
/// choice must be routable.
std::unique_ptr<util::ThreadPool> set_up(const Grid& grid,
                                         std::uint64_t seed) {
  auto pool = std::make_unique<util::ThreadPool>(campaign_workers());
  for (const Client client : grid.clients) {
    for (const cloud::ProviderKind provider : grid.providers) {
      scenario::WorldConfig config;
      config.seed = measure::derive_seed(
          seed, scenario::client_name(client) + cloud::provider_name(provider),
          0, 0);
      auto world = scenario::World::create(config);
      const net::NodeId end = world->client_node(client);
      const net::NodeId front = world->provider_node(provider);
      std::vector<std::pair<net::NodeId, net::NodeId>> hops = {{end, front},
                                                               {front, end}};
      for (const Intermediate via : {Intermediate::kUAlberta,
                                     Intermediate::kUMich}) {
        const net::NodeId relay = world->intermediate_node(via);
        hops.insert(hops.end(), {{end, relay}, {relay, front},
                                 {front, relay}, {relay, end}});
      }
      for (const auto& [src, dst] : hops) {
        auto route = world->routes().route(src, dst);
        if (!route.ok()) {
          fail_check("campaign_preflight", route.error().message);
        }
      }
    }
  }
  return pool;
}

/// One pass (untraced or traced) of rounds over the grid.
class Pass {
 public:
  Pass(const Options& options, const Grid& grid, std::uint64_t seed,
       obs::Recorder* recorder)
      : options_(options),
        grid_(grid),
        seed_(seed),
        spans_(recorder, "campaign_grid") {}

  /// Runs whole rounds until `budget_s` is spent (at least one; exactly one
  /// for a budget of 0); every round must reproduce the first round's
  /// digest.
  void run(double budget_s) {
    const auto t0 = Clock::now();
    do {
      const std::uint64_t digest = round();
      if (rounds() == 1) digest_ = digest;
      check_equal(options_, "campaign_rounds_same_digest", digest, digest_);
    } while (seconds_since(t0) < budget_s);
  }

  std::uint64_t digest() const { return digest_; }
  std::uint64_t runs() const { return upload_ms_.size() + download_ms_.size(); }
  std::uint64_t attempted() const { return runs() + sessions_; }
  std::uint64_t failed() const { return failed_; }
  double grid_s() const { return grid_s_; }
  double runs_per_s() const { return percentile(round_rates_, 50); }
  double goodput_mbps() const { return percentile(round_mbps_, 50); }
  std::size_t rounds() const { return round_rates_.size(); }
  const std::vector<double>& setup_s() const { return setup_s_; }
  std::vector<double> run_ms() const {
    std::vector<double> all = upload_ms_;
    all.insert(all.end(), download_ms_.begin(), download_ms_.end());
    return all;
  }
  const std::vector<double>& upload_ms() const { return upload_ms_; }
  const std::vector<double>& download_ms() const { return download_ms_; }
  double busy_s() const { return busy_s_; }
  double steer_oracle_ratio() const { return steer_ratio_; }
  std::uint64_t sim_events() const { return sim_events_; }
  const Layers& layers() const { return layers_; }

 private:
  /// Set-up, then one grid plus the steered sequences; returns the results
  /// digest.
  std::uint64_t round() {
    pool_.reset();
    const auto setup_start = Clock::now();
    pool_ = set_up(grid_, seed_);
    setup_s_.push_back(seconds_since(setup_start));

    measure::Campaign campaign(seed_);
    for (const Client client : grid_.clients) {
      for (const cloud::ProviderKind provider : grid_.providers) {
        for (const RouteChoice choice : grid_.routes) {
          const std::string key = scenario::client_name(client) + "->" +
                                  cloud::provider_name(provider) + " " +
                                  scenario::route_name(choice);
          campaign.add_route("up " + key, [=, this](std::uint64_t bytes,
                                                    std::uint64_t run_seed) {
            return measure_run(false, client, provider, choice, bytes,
                               run_seed);
          });
          campaign.add_route("down " + key, [=, this](std::uint64_t bytes,
                                                      std::uint64_t run_seed) {
            return measure_run(true, client, provider, choice, bytes, run_seed);
          });
        }
      }
    }
    const std::uint64_t runs_before = runs();
    const double mbit_before = payload_mbit_;
    const auto t0 = Clock::now();
    const auto results =
        campaign.run_grid(grid_.sizes, grid_.protocol, pool_.get());
    const double wall_s = seconds_since(t0);
    grid_s_ += wall_s;
    round_rates_.push_back(static_cast<double>(runs() - runs_before) / wall_s);
    round_mbps_.push_back((payload_mbit_ - mbit_before) / wall_s);

    std::uint64_t digest = 0xcbf29ce484222325ull;
    auto mix = [&digest](const void* data, std::size_t size) {
      const auto* bytes = static_cast<const unsigned char*>(data);
      for (std::size_t i = 0; i < size; ++i) {
        digest ^= bytes[i];
        digest *= 0x100000001b3ull;
      }
    };
    for (const auto& [cell, measurement] : results) {
      mix(cell.first.data(), cell.first.size());
      mix(&cell.second, sizeof cell.second);
      for (const double run : measurement.runs) mix(&run, sizeof run);
      mix(&measurement.failures, sizeof measurement.failures);
    }

    // Steered sequences: per provider, the controller arm then the three
    // static arms, all on the pool.
    const std::size_t arms = 4;
    std::vector<std::vector<double>> mbps(grid_.providers.size() * arms);
    pool_->parallel_for(mbps.size(), [&](std::size_t i) {
      mbps[i] = steered_arm(grid_.providers[i / arms], i % arms);
    });
    double ctrl_sum = 0.0;
    double oracle_sum = 0.0;
    for (std::size_t p = 0; p < grid_.providers.size(); ++p) {
      for (int s = 0; s < grid_.sessions; ++s) {
        const auto slot = static_cast<std::size_t>(s);
        ctrl_sum += mbps[p * arms][slot];
        oracle_sum += std::max({mbps[p * arms + 1][slot],
                                mbps[p * arms + 2][slot],
                                mbps[p * arms + 3][slot]});
      }
    }
    for (const auto& arm : mbps) {
      for (const double value : arm) mix(&value, sizeof value);
    }
    steer_ratio_ = oracle_sum > 0.0 ? ctrl_sum / oracle_sum : 0.0;
    return digest;
  }

  /// Warms the RouteTable for one hop pair, timed as a net call.
  void route(scenario::World& world, net::NodeId src, net::NodeId dst,
             std::uint64_t op, std::uint64_t parent) {
    Scope scope(spans_, &layers_.route, "net.route", lane(), op, parent);
    auto hop = world.routes().route(src, dst);
    if (!hop.ok()) fail_check("campaign_route", hop.error().message);
  }

  /// One measurement run, timed from World creation to transfer completion.
  util::Result<double> measure_run(bool download, Client client,
                                   cloud::ProviderKind provider,
                                   RouteChoice route_choice,
                                   std::uint64_t bytes,
                                   std::uint64_t run_seed) {
    const auto t0 = Clock::now();
    const std::uint64_t op = spans_.new_id();
    Scope run(spans_, nullptr,
              download ? "campaign.download_run" : "campaign.upload_run",
              lane(), op);
    scenario::WorldConfig config;
    config.seed = run_seed;
    std::unique_ptr<scenario::World> world;
    {
      Scope scope(spans_, &layers_.world_create, "scenario.world_create",
                  lane(), op, run.id());
      world = scenario::World::create(config);
    }
    const net::NodeId end = world->client_node(client);
    const net::NodeId front = world->provider_node(provider);
    if (route_choice == RouteChoice::kDirect) {
      route(*world, end, front, op, run.id());
    } else {
      const net::NodeId via = world->intermediate_node(
          route_choice == RouteChoice::kViaUAlberta ? Intermediate::kUAlberta
                                                    : Intermediate::kUMich);
      route(*world, end, via, op, run.id());
      route(*world, via, front, op, run.id());
    }

    util::Result<double> elapsed = util::Error::make("not run");
    if (!download) {
      Scope scope(spans_, &layers_.upload, "scenario.run_upload", lane(), op,
                  run.id());
      elapsed = world->run_upload(client, provider, route_choice, bytes);
    } else {
      util::Result<std::string> name = util::Error::make("not staged");
      {
        Scope scope(spans_, &layers_.stage, "scenario.stage_object", lane(),
                    op, run.id());
        name = world->stage_object(provider, bytes);
      }
      if (name.ok()) {
        Scope scope(spans_, &layers_.download, "scenario.run_download",
                    lane(), op, run.id());
        elapsed = world->run_download(client, provider, route_choice,
                                      name.value());
      } else {
        elapsed = util::Error{name.error()};
      }
    }
    const double wall_ms = 1e3 * seconds_since(t0);
    std::lock_guard<std::mutex> lock(mutex_);
    (download ? download_ms_ : upload_ms_).push_back(wall_ms);
    busy_s_ += wall_ms * 1e-3;
    sim_events_ += world->simulator().executed_events();
    if (elapsed.ok()) {
      payload_mbit_ += static_cast<double>(bytes) * 8e-6;
    } else {
      ++failed_;
    }
    return elapsed;
  }

  /// One provider's session sequence under one steering arm: 0 is the
  /// controller, 1..3 pin direct, via UAlberta and via UMich. Returns each
  /// session's goodput in Mbps (0 for a failed session).
  std::vector<double> steered_arm(cloud::ProviderKind provider,
                                  std::size_t arm) {
    const std::uint64_t op = spans_.new_id();
    Scope sequence(spans_, nullptr, "campaign.steered_sequence", lane(), op);
    scenario::WorldConfig config;
    config.seed = seed_ ^ (static_cast<std::uint64_t>(provider) + 1) *
                              0x9e3779b97f4a7c15ull;
    std::unique_ptr<scenario::World> world;
    {
      Scope scope(spans_, &layers_.world_create, "scenario.world_create",
                  lane(), op, sequence.id());
      world = scenario::World::create(config);
    }
    ctrl::StaticSteering pinned;
    ctrl::Steering* steering = &pinned;
    ctrl::Controller* controller = nullptr;
    if (arm == 0) {
      ctrl::ControllerConfig ctrl_config;
      ctrl_config.epoch_s = 5.0;
      ctrl_config.probe_budget_bytes = 8 * util::kMB;
      ctrl_config.max_relay_hops = 1;
      controller = &world->make_controller(provider, ctrl_config);
      controller->start();
      steering = controller;
    } else if (arm >= 2) {
      pinned = ctrl::StaticSteering(ctrl::PathSpec{{world->intermediate_node(
          arm == 2 ? Intermediate::kUAlberta : Intermediate::kUMich)}});
    }

    const std::vector<Client> clients = scenario::all_clients();
    std::vector<double> mbps;
    std::uint64_t failed = 0;
    for (int s = 0; s < grid_.sessions; ++s) {
      const Client client =
          clients[static_cast<std::size_t>(s) % clients.size()];
      const std::uint64_t bytes =
          grid_.sizes[(seed_ + static_cast<std::uint64_t>(s)) %
                      grid_.sizes.size()];
      util::Result<double> elapsed = util::Error::make("not run");
      {
        Scope scope(spans_, &layers_.steered, "scenario.run_steered_upload",
                    lane(), op, sequence.id());
        elapsed = world->run_steered_upload(provider, *steering, client, bytes);
      }
      if (elapsed.ok() && elapsed.value() > 0.0) {
        mbps.push_back(static_cast<double>(bytes) * 8e-6 / elapsed.value());
      } else {
        mbps.push_back(0.0);
        ++failed;
      }
      world->simulator().run_until(world->simulator().now() + kSessionGapS);
    }
    if (controller != nullptr) controller->stop();
    std::lock_guard<std::mutex> lock(mutex_);
    sessions_ += static_cast<std::uint64_t>(grid_.sessions);
    failed_ += failed;
    sim_events_ += world->simulator().executed_events();
    return mbps;
  }

  const Options& options_;
  const Grid& grid_;
  const std::uint64_t seed_;
  Spans spans_;
  std::unique_ptr<util::ThreadPool> pool_;
  Layers layers_;

  std::mutex mutex_;  // guards everything below during a round
  std::vector<double> upload_ms_;
  std::vector<double> download_ms_;
  std::uint64_t sessions_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t sim_events_ = 0;
  double busy_s_ = 0.0;
  double payload_mbit_ = 0.0;
  double grid_s_ = 0.0;
  std::vector<double> round_rates_;  // grid runs per wall second, per round
  std::vector<double> round_mbps_;   // simulated payload Mbit per wall second
  std::vector<double> setup_s_;      // per round
  double steer_ratio_ = 0.0;
  std::uint64_t digest_ = 0;
};

void report_layers(Report& report, const Pass& traced) {
  const Layers& layers = traced.layers();
  report.set("scenario.world_create_s", layers.world_create.seconds(), "s",
             layers.world_create.calls.load());
  report.set("scenario.world_create_calls",
             static_cast<double>(layers.world_create.calls.load()), "count");
  report.set("scenario.upload_s", layers.upload.seconds(), "s",
             layers.upload.calls.load());
  report.set("scenario.download_s", layers.download.seconds(), "s",
             layers.download.calls.load());
  report.set("scenario.stage_s", layers.stage.seconds(), "s",
             layers.stage.calls.load());
  report.set("scenario.steered_s", layers.steered.seconds(), "s",
             layers.steered.calls.load());
  report.set("net.route_s", layers.route.seconds(), "s",
             layers.route.calls.load());
  report.set("net.route_calls", static_cast<double>(layers.route.calls.load()),
             "count");
  report.set("sim.events", static_cast<double>(traced.sim_events()), "count");
}

}  // namespace

void run_campaign_grid(const Options& options, Report& report) {
  const Grid grid = make_grid(options);
  const std::uint64_t seed = options.seed * 0x9e3779b97f4a7c15ull + 2016;
  const unsigned workers = campaign_workers();

  if (!options.trace) {
    Pass pass(options, grid, seed, nullptr);
    pass.run(options.seconds);
    report.count_ops(pass.attempted(), pass.failed());
    const std::vector<double> run_ms = pass.run_ms();
    report.set("setup_s", percentile(pass.setup_s(), 50), "s",
               pass.setup_s().size());
    report.set("ops_per_s", pass.runs_per_s(), "1/s", pass.rounds());
    report.set("op_p50_ms", percentile(run_ms, 50), "ms", run_ms.size());
    report.set("op_p99_ms", percentile(run_ms, 99), "ms", run_ms.size());
    report.set("goodput_mbps", pass.goodput_mbps(), "Mbps", pass.rounds());
    report.set("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }

  // Untraced rounds for half the time, then exactly one traced round, so
  // the per-layer counts are the same on every run with this seed.
  zero_layer_metrics(report);
  Pass plain(options, grid, seed, nullptr);
  plain.run(options.seconds / 2.0);

  obs::Recorder recorder(kSpanCapacity);
  std::unique_ptr<Pass> traced;
  {
    obs::ScopedRecorder installed(&recorder);
    traced = std::make_unique<Pass>(options, grid, seed, &recorder);
    traced->run(0.0);
  }
  write_trace(options, recorder);
  check_equal(options, "campaign_traced_digest_matches_untraced",
              traced->digest(), plain.digest());
  check_equal(options, "obs_spans_dropped", recorder.dropped_spans(), 0);

  report.count_ops(plain.attempted() + traced->attempted(),
                   plain.failed() + traced->failed());
  report.set("campaign_runs_per_s", plain.runs_per_s(), "1/s", plain.rounds());
  report.set("upload_run_p50_ms", percentile(plain.upload_ms(), 50), "ms",
             plain.upload_ms().size());
  report.set("upload_run_p99_ms", percentile(plain.upload_ms(), 99), "ms",
             plain.upload_ms().size());
  report.set("download_run_p50_ms", percentile(plain.download_ms(), 50), "ms",
             plain.download_ms().size());
  report.set("download_run_p99_ms", percentile(plain.download_ms(), 99), "ms",
             plain.download_ms().size());
  report.set("steer_oracle_ratio", plain.steer_oracle_ratio(), "ratio");
  report.set("failed_ratio",
             static_cast<double>(plain.failed()) /
                 static_cast<double>(plain.attempted()),
             "ratio", plain.attempted());
  report.set("obs.trace_overhead_ratio",
             plain.runs_per_s() / traced->runs_per_s(), "ratio");
  report.set("obs.spans_dropped",
             static_cast<double>(recorder.dropped_spans()), "count");
  report.set("util.pool_busy_ratio",
             traced->busy_s() / (traced->grid_s() * workers), "ratio");
  report_layers(report, *traced);
  set_obs_counters(report, recorder);
}

}  // namespace perfbench
