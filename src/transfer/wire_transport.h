// WireTransport: the blocking Transport over droute::wire real sockets.
//
// One WRITE request maps to one wire::upload_direct of the request's source
// buffer to the segment's sink port (the sink protocol is whole-object, so
// target_offset only partitions the *local* buffer view the caller already
// applied; it is not sent on the wire). READ has no wire counterpart yet
// and is rejected synchronously.
//
// Threading contract (see transport.h): start() queues the upload on a FIFO
// that long-lived workers drain, and the completion is delivered ONLY from
// drain_one() on the joining caller's thread — batch state stays
// single-threaded. Workers are started lazily, one only when every existing
// worker is busy, up to kMaxWorkers; requests beyond that wait in the FIFO
// (that wait counts in RequestStatus service time, which starts at
// start()). cancel() is a pre-start flag checked when a worker dequeues the
// request: a queued request settles kAborted without opening a socket, one
// mid-upload finishes with its real fate (upload_direct is uninterruptible
// by design — the sink protocol has no abort frame).
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "transfer/batch.h"
#include "transfer/transport.h"

namespace droute::transfer {

class WireTransport final : public Transport {
 public:
  /// Most worker threads (and so open sockets) one transport ever runs.
  static constexpr std::size_t kMaxWorkers = 16;

  WireTransport();
  /// Drains (delivers) any still-queued or running uploads on the caller's
  /// thread, then joins the workers; prefer wait()-ing every batch before
  /// destruction.
  ~WireTransport() override;

  [[nodiscard]] util::Result<OpId> start(const Segment& target,
                                         const TransferRequest& request,
                                         CompletionFn done) override;
  void cancel(OpId op) override;
  bool drain_one() override;
  /// Wall seconds since construction (matches obs::Clock::kWall spirit).
  double now() const override;

 private:
  struct Op {
    CompletionFn done;
    std::uint16_t port = 0;
    double rate = 0.0;
    const std::uint8_t* data = nullptr;
    std::uint64_t length = 0;
    bool cancel = false;  // guarded by mutex_
    Completion completion;
  };

  void work();

  mutable std::mutex mutex_;
  std::condition_variable finished_cv_;  // an op was pushed to finished_
  std::condition_variable queued_cv_;    // an op was queued, or stopping_
  std::unordered_map<OpId, std::unique_ptr<Op>> ops_;
  std::deque<OpId> queue_;     // started, not yet taken by a worker
  std::deque<OpId> finished_;  // settled, not yet delivered
  std::size_t idle_workers_ = 0;  // workers parked on queued_cv_
  bool stopping_ = false;
  OpId next_op_ = 1;
  std::chrono::steady_clock::time_point epoch_;  // analyze: allow(determinism-wall-clock) — wire ops run on real sockets in wall time; request timestamps are relative to this epoch and never reach the simulator
  std::vector<std::thread> workers_;  // last: the workers use the members above
};

}  // namespace droute::transfer
