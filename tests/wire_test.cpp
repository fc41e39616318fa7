#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <thread>
#include <vector>

#include "transfer/batch.h"
#include "transfer/wire_transport.h"
#include "util/blob.h"
#include "util/rng.h"
#include "wire/client.h"
#include "wire/rate_limiter.h"
#include "wire/relay.h"
#include "wire/sink.h"
#include "wire/socket.h"

namespace droute::wire {
namespace {

TEST(RateLimiter, UnlimitedNeverBlocks) {
  RateLimiter limiter(0.0);
  EXPECT_TRUE(limiter.unlimited());
  const auto start = std::chrono::steady_clock::now();
  limiter.acquire(100 * 1000 * 1000);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(std::chrono::duration<double>(elapsed).count(), 0.05);
}

TEST(RateLimiter, SustainedRateIsAccurate) {
  // 8 MB/s, push 2 MB in 64 KiB chunks: should take ~0.25 s (burst credit
  // shaves the first bucket).
  RateLimiter limiter(8e6);
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 32; ++i) limiter.acquire(64 * 1024);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_GT(elapsed, 0.1);
  EXPECT_LT(elapsed, 0.5);
}

TEST(RateLimiter, PeekDoesNotConsume) {
  RateLimiter limiter(1e6, 1000);
  limiter.acquire(1000);  // drain the bucket
  const auto delay1 = limiter.peek_delay(500);
  const auto delay2 = limiter.peek_delay(500);
  EXPECT_GT(delay1.count(), 0);
  // Peeks must not consume tokens (second peek not larger than ~first).
  EXPECT_LE(delay2.count(), delay1.count() + 1000000);
}

TEST(Socket, U64FramingRoundTrip) {
  auto listener = Listener::bind(0);
  ASSERT_TRUE(listener.ok());
  std::thread server([&] {
    auto stream = listener.value().accept();
    ASSERT_TRUE(stream.ok());
    auto value = stream.value().recv_u64();
    ASSERT_TRUE(value.ok());
    EXPECT_TRUE(stream.value().send_u64(value.value() * 2).ok());
  });
  auto client = connect_local(listener.value().port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client.value().send_u64(0x1234567890abcdefull).ok());
  auto doubled = client.value().recv_u64();
  ASSERT_TRUE(doubled.ok());
  EXPECT_EQ(doubled.value(), 0x1234567890abcdefull * 2);
  server.join();
}

TEST(Socket, ConnectToClosedPortFails) {
  // Bind-then-close to find a port that is (very likely) not listening.
  auto listener = Listener::bind(0);
  ASSERT_TRUE(listener.ok());
  const std::uint16_t port = listener.value().port();
  listener.value().shutdown();
  EXPECT_FALSE(connect_local(port).ok());
}

class WirePlane : public ::testing::Test {
 protected:
  void SetUp() override {
    // One sink, two ingress ports: a policed one (1 MB/s) standing in for
    // the PacificWave path, and an open one for the peering path.
    auto slow = sink_.add_ingress(1e6);
    auto fast = sink_.add_ingress(0.0);
    ASSERT_TRUE(slow.ok());
    ASSERT_TRUE(fast.ok());
    slow_port_ = slow.value();
    fast_port_ = fast.value();
    ASSERT_TRUE(sink_.start().ok());

    util::Rng rng(42);
    payload_ = util::make_random_blob(rng, 4 * 1000 * 1000);
  }

  void TearDown() override { sink_.stop(); }

  Sink sink_;
  std::uint16_t slow_port_ = 0;
  std::uint16_t fast_port_ = 0;
  util::Blob payload_;
};

TEST_F(WirePlane, DirectUploadVerifiesDigest) {
  auto timing = upload_direct(fast_port_, payload_);
  ASSERT_TRUE(timing.ok()) << timing.error().message;
  EXPECT_TRUE(timing.value().digest_ok);
  EXPECT_EQ(sink_.objects_received(), 1u);
  EXPECT_EQ(sink_.bytes_received(), payload_.size());
}

TEST_F(WirePlane, PolicedIngressIsSlower) {
  auto fast = upload_direct(fast_port_, payload_);
  auto slow = upload_direct(slow_port_, payload_);
  ASSERT_TRUE(fast.ok() && slow.ok());
  EXPECT_TRUE(slow.value().digest_ok);
  // 4 MB at 1 MB/s ~= 4 s vs loopback-speed upload.
  EXPECT_GT(slow.value().seconds, fast.value().seconds * 5);
}

TEST_F(WirePlane, RelayDetourBeatsPolicedDirect) {
  // The paper's mitigation, on real sockets: direct is policed at 1 MB/s;
  // the relay reaches the open ingress and is itself unthrottled.
  RelayDaemon relay;
  auto relay_port = relay.start();
  ASSERT_TRUE(relay_port.ok());

  auto direct = upload_direct(slow_port_, payload_);
  auto detour = upload_via_relay(relay_port.value(), fast_port_, payload_);
  ASSERT_TRUE(direct.ok() && detour.ok());
  EXPECT_TRUE(detour.value().digest_ok);
  EXPECT_GT(direct.value().seconds, detour.value().seconds * 3);
  EXPECT_EQ(relay.objects_relayed(), 1u);
  relay.stop();
}

TEST_F(WirePlane, StreamingRelayNotSlowerThanStoreAndForward) {
  RelayDaemon::Options saf_options;
  saf_options.mode = RelayMode::kStoreAndForward;
  saf_options.ingress_rate_bytes_per_s = 8e6;
  saf_options.egress_rate_bytes_per_s = 8e6;
  RelayDaemon saf(saf_options);
  auto saf_port = saf.start();
  ASSERT_TRUE(saf_port.ok());

  RelayDaemon::Options stream_options = saf_options;
  stream_options.mode = RelayMode::kStreaming;
  RelayDaemon streaming(stream_options);
  auto stream_port = streaming.start();
  ASSERT_TRUE(stream_port.ok());

  auto t_saf = upload_via_relay(saf_port.value(), fast_port_, payload_);
  auto t_stream = upload_via_relay(stream_port.value(), fast_port_, payload_);
  ASSERT_TRUE(t_saf.ok() && t_stream.ok());
  EXPECT_TRUE(t_saf.value().digest_ok);
  EXPECT_TRUE(t_stream.value().digest_ok);
  // Store-and-forward pays both legs in sequence (~1 s); streaming overlaps
  // them (~0.5 s). Generous margin for CI jitter.
  EXPECT_LT(t_stream.value().seconds, t_saf.value().seconds * 0.85);
}

TEST_F(WirePlane, RelayToDeadSinkDropsConnection) {
  RelayDaemon relay;
  auto relay_port = relay.start();
  ASSERT_TRUE(relay_port.ok());
  // Find a dead port.
  auto probe = Listener::bind(0);
  ASSERT_TRUE(probe.ok());
  const std::uint16_t dead = probe.value().port();
  probe.value().shutdown();

  auto result = upload_via_relay(relay_port.value(), dead, payload_);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(relay.objects_relayed(), 0u);
  relay.stop();
}

TEST_F(WirePlane, ConcurrentClientsAllVerified) {
  constexpr int kClients = 4;
  std::vector<std::thread> threads;
  std::atomic<int> verified{0};
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      util::Rng rng(100 + static_cast<std::uint64_t>(i));
      const util::Blob data = util::make_random_blob(rng, 500 * 1000);
      auto timing = upload_direct(fast_port_, data);
      if (timing.ok() && timing.value().digest_ok) verified.fetch_add(1);
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(verified.load(), kClients);
}

// ------------------------------------------------------ wire transport ----

using transfer::WireTransport;

std::size_t thread_count() {
  std::size_t count = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    (void)entry;
    ++count;
  }
  return count;
}

// Forwards to a WireTransport and samples the process's thread count at
// every start and every completion.
class ThreadSampler final : public transfer::Transport {
 public:
  explicit ThreadSampler(Transport* inner) : inner_(inner) {}

  util::Result<OpId> start(const transfer::Segment& target,
                           const transfer::TransferRequest& request,
                           CompletionFn done) override {
    auto op = inner_->start(
        target, request,
        [this, done = std::move(done)](const Completion& completion) {
          sample();
          done(completion);
        });
    sample();
    return op;
  }
  void cancel(OpId op) override { inner_->cancel(op); }
  bool drain_one() override { return inner_->drain_one(); }
  double now() const override { return inner_->now(); }

  std::size_t peak() const { return peak_; }

 private:
  void sample() { peak_ = std::max(peak_, thread_count()); }

  Transport* inner_;
  std::size_t peak_ = 0;
};

std::vector<transfer::TransferRequest> write_requests(
    const util::Blob& payload, std::size_t count, transfer::SegmentId target) {
  const std::size_t length = payload.size() / count;
  std::vector<transfer::TransferRequest> requests(count);
  for (std::size_t i = 0; i < count; ++i) {
    requests[i].source = payload.data() + i * length;
    requests[i].target_id = target;
    requests[i].length = length;
  }
  return requests;
}

TEST(WireTransportWorkers, UnboundedBatchStaysWithinTheWorkerCap) {
  // 64x the cap in one concurrency-0 batch: every request is handed to the
  // transport at once, and at most kMaxWorkers threads may serve them.
  constexpr std::size_t kRequests = 1024;
  Sink sink;
  auto port = sink.add_ingress(0.0);
  ASSERT_TRUE(port.ok());
  ASSERT_TRUE(sink.start().ok());
  const std::size_t baseline = thread_count();  // main + sink service thread

  util::Rng rng(12);
  const util::Blob payload = util::make_random_blob(rng, kRequests * 1024);
  WireTransport wire;
  ThreadSampler sampler(&wire);
  transfer::TransferEngine xfer(&sampler);
  transfer::Segment segment;
  segment.wire_port = port.value();
  const transfer::SegmentId target = xfer.register_segment(segment);

  transfer::BatchOptions options;
  options.concurrency = 0;
  auto batch = xfer.submit_batch(write_requests(payload, kRequests, target),
                                 options);
  EXPECT_TRUE(batch.wait());
  EXPECT_GT(sampler.peak(), baseline);
  EXPECT_LE(sampler.peak(), baseline + WireTransport::kMaxWorkers);
  EXPECT_EQ(sink.objects_received(), kRequests);
  EXPECT_EQ(sink.bytes_received(), payload.size());
  sink.stop();
}

TEST(WireTransportWorkers, CancelSettlesQueuedRequestsWithoutASocket) {
  // A policed ingress, its token bucket drained first, holds each upload
  // for ~65 ms and serves them one at a time, so the batch is cancelled
  // while the first uploads are in flight and most requests are queued.
  constexpr std::size_t kRequests = 64;
  constexpr double kRate = 1e6;
  Sink sink;
  auto port = sink.add_ingress(kRate);
  ASSERT_TRUE(port.ok());
  ASSERT_TRUE(sink.start().ok());
  util::Rng rng(13);
  const util::Blob burst = util::make_random_blob(rng, 256 * 1024);
  ASSERT_TRUE(upload_direct(port.value(), burst).ok());

  const util::Blob payload = util::make_random_blob(rng, kRequests * 64 * 1024);
  WireTransport wire;
  transfer::TransferEngine xfer(&wire);
  transfer::Segment segment;
  segment.wire_port = port.value();
  const transfer::SegmentId target = xfer.register_segment(segment);
  auto batch = xfer.submit_batch(write_requests(payload, kRequests, target));
  batch.start();
  batch.cancel();
  EXPECT_FALSE(batch.wait());

  // A request a worker took before the cancel finishes with its real fate;
  // every other one settles kAborted at dequeue and never reaches the sink.
  std::size_t completed = 0;
  for (std::size_t i = 0; i < kRequests; ++i) {
    const transfer::RequestStatus& status = batch.status(i);
    if (status.completed()) {
      ++completed;
      continue;
    }
    EXPECT_EQ(status.state, transfer::RequestState::kAborted) << i;
    EXPECT_EQ(status.error, "wire upload cancelled before start") << i;
  }
  EXPECT_EQ(sink.objects_received(), 1 + completed);
  sink.stop();
}

}  // namespace
}  // namespace droute::wire
