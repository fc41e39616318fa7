#include "transfer/batch.h"

#include "check/contract.h"
#include "obs/recorder.h"
#include "sim/task.h"

namespace droute::transfer {
namespace detail {

namespace {
// Reason stamped on requests a batch never handed to the transport; engines
// compose it into their "<leg> flow rejected: " errors.
constexpr const char* kCancelledBeforeStart = "transfer cancelled before start";
}  // namespace

BatchState::BatchState(TransferEngine* engine, Transport* transport,
                       std::vector<TransferRequest> requests,
                       BatchOptions options)
    : engine_(engine), transport_(transport), options_(options) {
  DROUTE_CHECK(!requests.empty(), "batch must contain at least one request");
  slots_.reserve(requests.size());
  for (TransferRequest& request : requests) {
    Slot slot;
    slot.request = std::move(request);
    slots_.push_back(std::move(slot));
  }
}

const RequestStatus& BatchState::status(std::size_t i) const {
  DROUTE_CHECK(i < slots_.size(), "request index out of range");
  return slots_[i].status;
}

void BatchState::launch() {
  if (launched_ || cancelled_) return;
  launched_ = true;
  pump();
  maybe_finish();
}

void BatchState::pump() {
  while (next_to_start_ < slots_.size() && !cancelled_ && !tripped_ &&
         (options_.concurrency == 0 || in_flight_ < options_.concurrency)) {
    const std::size_t i = next_to_start_++;
    start_one(i);
  }
}

void BatchState::start_one(std::size_t i) {
  Slot& slot = slots_[i];
  if (slot.status.settled()) return;
  const Segment* target = engine_->segment(slot.request.target_id);
  if (target == nullptr) {
    settle(i, RequestState::kRejected, "unknown target segment", 0);
    if (options_.fail_fast) trip_fail_fast();
    return;
  }
  slot.status.start_s = transport_->now();
  // The completion holds the batch alive: a dropped BatchHandle still
  // settles (and releases the engine's inflight accounting) once every
  // started request finishes.
  std::shared_ptr<BatchState> self = shared_from_this();
  auto op = transport_->start(
      *target, slot.request, [self, i](const Transport::Completion& done) {
        self->on_complete(i, done);
      });
  if (!op.ok()) {
    settle(i, RequestState::kRejected, op.error().message, 0);
    if (options_.fail_fast) trip_fail_fast();
    return;
  }
  slot.op = op.value();
  slot.status.state = RequestState::kInFlight;
  ++in_flight_;
}

void BatchState::on_complete(std::size_t i, const Transport::Completion& done) {
  Slot& slot = slots_[i];
  if (slot.status.settled()) return;  // already cancelled pre-delivery
  slot.op = Transport::kNoOp;
  --in_flight_;
  switch (done.fate) {
    case TransferFate::kCompleted:
      settle(i, RequestState::kCompleted, done.error, done.bytes);
      break;
    case TransferFate::kAborted:
      settle(i, RequestState::kAborted, done.error, done.bytes);
      break;
    case TransferFate::kLinkFailed:
      settle(i, RequestState::kLinkFailed, done.error, done.bytes);
      break;
  }
  pump();  // a freed concurrency slot starts the next pending request
  maybe_finish();
}

void BatchState::settle(std::size_t i, RequestState state, std::string error,
                        std::uint64_t bytes) {
  Slot& slot = slots_[i];
  DROUTE_CHECK(!slot.status.settled(), "request settled twice");
  const bool never_started = slot.status.state == RequestState::kPending &&
                             state == RequestState::kCancelled;
  slot.status.state = state;
  slot.status.error = std::move(error);
  slot.status.bytes = bytes;
  slot.status.end_s = transport_->now();
  if (never_started) slot.status.start_s = slot.status.end_s;
  ++settled_;
  if (state == RequestState::kCompleted) ++completed_;
}

void BatchState::trip_fail_fast() {
  if (tripped_) return;
  tripped_ = true;
  // Requests never handed to the transport settle as cancelled; in-flight
  // ones keep running detached (the completion lambdas keep `this` alive)
  // so their bytes still drain through the fabric.
  for (std::size_t i = next_to_start_; i < slots_.size(); ++i) {
    if (!slots_[i].status.settled()) {
      settle(i, RequestState::kCancelled, kCancelledBeforeStart, 0);
    }
  }
  next_to_start_ = slots_.size();
}

void BatchState::cancel() {
  if (cancelled_) return;
  cancelled_ = true;
  if (!launched_) {
    cancel_before_start_locked();
    return;
  }
  // Index order: first settle everything not yet started (so completions
  // delivered during the aborts cannot start new work), then abort the
  // in-flight requests.
  for (std::size_t i = next_to_start_; i < slots_.size(); ++i) {
    if (!slots_[i].status.settled()) {
      settle(i, RequestState::kCancelled, kCancelledBeforeStart, 0);
    }
  }
  next_to_start_ = slots_.size();
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].status.state == RequestState::kInFlight &&
        slots_[i].op != Transport::kNoOp) {
      // Event-driven transports settle the slot synchronously (kAborted)
      // inside this call; blocking ones at the next drain.
      transport_->cancel(slots_[i].op);
    }
  }
  maybe_finish();
}

void BatchState::cancel_before_start() {
  if (launched_ || cancelled_) return;
  cancelled_ = true;
  cancel_before_start_locked();
}

void BatchState::cancel_before_start_locked() {
  launched_ = true;  // nothing may launch after this
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (!slots_[i].status.settled()) {
      settle(i, RequestState::kCancelled, kCancelledBeforeStart, 0);
    }
  }
  next_to_start_ = slots_.size();
  maybe_finish();
}

void BatchState::set_waiter(std::function<void()> waiter) {
  DROUTE_CHECK(!waiter_, "batch already has a waiter");
  if (resume_ready()) {
    waiter();
    return;
  }
  waiter_ = std::move(waiter);
}

void BatchState::maybe_finish() {
  if (!launched_) return;
  if (all_settled() && !finished_) {
    finished_ = true;
    engine_->on_batch_settled();
  }
  if (resume_ready() && waiter_) {
    auto waiter = std::move(waiter_);
    waiter_ = nullptr;
    waiter();
  }
}

void BatchState::drain_blocking() {
  launch();
  while (!all_settled()) {
    if (!transport_->drain_one()) {
      DROUTE_CHECK(all_settled(),
                   "transport has nothing to drain but batch is unsettled");
      break;
    }
  }
}

}  // namespace detail

bool BatchHandle::wait() {
  state_->drain_blocking();
  return state_->all_completed();
}

TransferEngine::TransferEngine(Transport* transport) : transport_(transport) {
  DROUTE_CHECK(transport != nullptr, "TransferEngine needs a transport");
  obs_batches_ = obs::counter("transfer.batches_submitted_total");
  obs_requests_ = obs::counter("transfer.batch_requests_total");
  obs_inflight_ = obs::gauge("transfer.batch_inflight");
}

SegmentId TransferEngine::register_segment(Segment segment) {
  segments_.push_back(std::move(segment));
  return static_cast<SegmentId>(segments_.size());
}

SegmentId TransferEngine::ensure_node_segment(net::NodeId node) {
  const auto it = node_segments_.find(node);
  if (it != node_segments_.end()) return it->second;
  Segment segment;
  segment.name = "node-" + std::to_string(node);
  segment.node = node;
  const SegmentId id = register_segment(std::move(segment));
  node_segments_.emplace(node, id);
  return id;
}

const Segment* TransferEngine::segment(SegmentId id) const {
  if (id == kInvalidSegment || id > segments_.size()) return nullptr;
  return &segments_[id - 1];
}

BatchHandle TransferEngine::submit_batch(std::vector<TransferRequest> requests,
                                         BatchOptions options) {
  obs::add(obs_batches_);
  obs::add(obs_requests_, requests.size());
  ++batches_inflight_;
  obs::add(obs_inflight_, 1.0);
  return BatchHandle(std::make_shared<detail::BatchState>(
      this, transport_, std::move(requests), options));
}

BatchHandle TransferEngine::submit(TransferRequest request,
                                   BatchOptions options) {
  std::vector<TransferRequest> requests;
  requests.push_back(std::move(request));
  return submit_batch(std::move(requests), options);
}

void TransferEngine::on_batch_settled() {
  DROUTE_CHECK(batches_inflight_ > 0, "batch settled twice");
  --batches_inflight_;
  obs::add(obs_inflight_, -1.0);
}

}  // namespace droute::transfer
