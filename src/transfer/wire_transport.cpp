#include "transfer/wire_transport.h"

#include <span>
#include <utility>

#include "wire/client.h"

namespace droute::transfer {

WireTransport::WireTransport() : epoch_(std::chrono::steady_clock::now()) {}  // analyze: allow(determinism-wall-clock) — the wire backend moves real bytes over real sockets; its clock is wall time by definition (timestamps never feed the sim schedule)

WireTransport::~WireTransport() {
  while (drain_one()) {
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  queued_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

double WireTransport::now() const {
  const auto elapsed = std::chrono::steady_clock::now() - epoch_;  // analyze: allow(determinism-wall-clock) — wall clock is the wire plane's native time base (see ctor waiver)
  return std::chrono::duration<double>(elapsed).count();
}

util::Result<Transport::OpId> WireTransport::start(
    const Segment& target, const TransferRequest& request, CompletionFn done) {
  if (request.opcode != Opcode::kWrite) {
    return util::Error::make("wire transport only supports WRITE");
  }
  if (target.wire_port == 0) {
    return util::Error::make("segment has no wire port");
  }
  if (request.source == nullptr) {
    return util::Error::make("wire request has no source buffer");
  }
  auto op = std::make_unique<Op>();
  op->done = std::move(done);
  op->port = target.wire_port;
  op->rate = target.wire_rate_bytes_per_s;
  op->data = request.source;
  op->length = request.length;
  std::lock_guard<std::mutex> lock(mutex_);
  const OpId id = next_op_++;
  ops_.emplace(id, std::move(op));
  queue_.push_back(id);
  // Each idle worker takes one queued op; start another worker only when
  // the queue outnumbers them.
  if (queue_.size() > idle_workers_ && workers_.size() < kMaxWorkers) {
    workers_.emplace_back([this] { work(); });
  }
  queued_cv_.notify_one();
  return id;
}

void WireTransport::work() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    ++idle_workers_;
    queued_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
    --idle_workers_;
    if (queue_.empty()) return;  // stopping
    const OpId id = queue_.front();
    queue_.pop_front();
    Op& op = *ops_.at(id);
    Completion completion;
    if (op.cancel) {
      completion.fate = TransferFate::kAborted;
      completion.error = "wire upload cancelled before start";
    } else {
      lock.unlock();
      const auto timing = wire::upload_direct(
          op.port, std::span<const std::uint8_t>(op.data, op.length),
          op.rate);
      if (!timing.ok()) {
        completion.fate = TransferFate::kLinkFailed;
        completion.error = timing.error().message;
      } else if (!timing.value().digest_ok) {
        completion.fate = TransferFate::kLinkFailed;
        completion.error = "wire digest mismatch";
      } else {
        completion.fate = TransferFate::kCompleted;
        completion.bytes = op.length;
      }
      lock.lock();
    }
    op.completion = std::move(completion);
    finished_.push_back(id);
    finished_cv_.notify_all();
  }
}

void WireTransport::cancel(OpId op) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = ops_.find(op);
  if (it != ops_.end()) {
    it->second->cancel = true;
  }
}

bool WireTransport::drain_one() {
  std::unique_ptr<Op> op;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (ops_.empty()) return false;
    finished_cv_.wait(lock, [this] { return !finished_.empty(); });
    const OpId id = finished_.front();
    finished_.pop_front();
    auto it = ops_.find(id);
    op = std::move(it->second);
    ops_.erase(it);
  }
  // Deliver on the draining thread: the batch layer's single-thread rule.
  op->done(op->completion);
  return true;
}

}  // namespace droute::transfer
