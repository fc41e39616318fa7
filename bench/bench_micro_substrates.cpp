// google-benchmark microbenchmarks for the substrates: event kernel
// throughput, rolling checksum / MD5 / delta scan rates, max-min allocator
// cost, and BGP table construction.
#include <benchmark/benchmark.h>

#include "net/fabric.h"
#include "rsyncx/checksum.h"
#include "rsyncx/delta.h"
#include "rsyncx/md5.h"
#include "rsyncx/signature.h"
#include "scenario/north_america.h"
#include "sim/simulator.h"
#include "util/blob.h"
#include "util/rng.h"
#include "util/units.h"

namespace {

using namespace droute;

void BM_SimulatorScheduleRun(benchmark::State& state) {
  const auto events = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    sim::Simulator simulator;
    for (std::uint64_t i = 0; i < events; ++i) {
      simulator.schedule_at(static_cast<double>(i % 97), [] {});
    }
    simulator.run();
    benchmark::DoNotOptimize(simulator.executed_events());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events) *
                          state.iterations());
}
BENCHMARK(BM_SimulatorScheduleRun)->Arg(1000)->Arg(100000);

void BM_RollingChecksum(benchmark::State& state) {
  util::Rng rng(1);
  const util::Blob data =
      util::make_random_blob(rng, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    rsyncx::RollingChecksum rc(
        std::span<const std::uint8_t>(data).subspan(0, 700));
    std::uint32_t accum = 0;
    for (std::size_t i = 0; i + 700 < data.size(); ++i) {
      rc.roll(data[i], data[i + 700]);
      accum ^= rc.digest();
    }
    benchmark::DoNotOptimize(accum);
  }
  state.SetBytesProcessed(state.range(0) * state.iterations());
}
BENCHMARK(BM_RollingChecksum)->Arg(1 << 20);

void BM_Md5(benchmark::State& state) {
  util::Rng rng(2);
  const util::Blob data =
      util::make_random_blob(rng, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(rsyncx::Md5::hash(data));
  }
  state.SetBytesProcessed(state.range(0) * state.iterations());
}
// 64 B: a short key digest (one data block plus the padding block), where
// per-call set-up and finalize dominate; 1 MiB: the streaming rate.
BENCHMARK(BM_Md5)->Arg(64)->Arg(1 << 20);

void BM_DeltaScanIdentical(benchmark::State& state) {
  util::Rng rng(3);
  const util::Blob file =
      util::make_random_blob(rng, static_cast<std::size_t>(state.range(0)));
  const auto block = rsyncx::recommended_block_size(file.size());
  const auto sig = rsyncx::compute_signature(file, block);
  const rsyncx::SignatureIndex index(sig);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rsyncx::compute_delta(file, index));
  }
  state.SetBytesProcessed(state.range(0) * state.iterations());
}
BENCHMARK(BM_DeltaScanIdentical)->Arg(1 << 20);

void BM_ScenarioWorldBuild(benchmark::State& state) {
  for (auto _ : state) {
    scenario::WorldConfig config;
    config.cross_traffic = false;
    benchmark::DoNotOptimize(scenario::World::create(config));
  }
}
BENCHMARK(BM_ScenarioWorldBuild);

void BM_ScenarioUpload(benchmark::State& state) {
  // Cost of a full simulated 100 MB direct upload (world build + run):
  // the unit of work every measurement campaign repeats hundreds of times.
  for (auto _ : state) {
    scenario::WorldConfig config;
    config.cross_traffic = true;
    config.seed = 42;
    auto world = scenario::World::create(config);
    benchmark::DoNotOptimize(
        world->run_upload(scenario::Client::kPurdue,
                          cloud::ProviderKind::kGoogleDrive,
                          scenario::RouteChoice::kDirect, 100 * util::kMB));
  }
}
BENCHMARK(BM_ScenarioUpload);

}  // namespace

BENCHMARK_MAIN();
