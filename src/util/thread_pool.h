// Fixed-size thread pool over one mutex-guarded FIFO task queue.
//
// The workload is measurement campaigns: coarse, independent simulation
// runs (one simulator instance per task, nothing shared). Tasks are far
// heavier than the scheduling overhead, so one queue and one lock suffice.
//
// Determinism contract: the pool never reorders *results* — parallel_for
// runs every index exactly once and callers write results by index, so
// outputs are a function of the inputs alone, never of thread count or
// scheduling.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace droute::util {

class ThreadPool {
 public:
  /// Point-in-time execution statistics (see stats()).
  struct Stats {
    std::uint64_t submitted = 0;     // tasks ever enqueued
    std::uint64_t executed = 0;      // tasks that finished running
    std::size_t queued = 0;          // tasks waiting right now
    std::size_t peak_queued = 0;     // high-water mark of queued
  };

  /// Spawns `threads` workers (defaults to hardware concurrency, min 1).
  explicit ThreadPool(std::size_t threads = 0);

  /// Drains the queue and joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t thread_count() const { return workers_.size(); }

  /// Consistent snapshot of the pool's counters.
  Stats stats() const {
    Stats s;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      s.submitted = submitted_;
      s.queued = tasks_.size();
      s.peak_queued = peak_queued_;
    }
    s.executed = executed_.load(std::memory_order_relaxed);
    return s;
  }

  /// Runs fn(i) for i in [0, count) across the pool and waits for all.
  ///
  /// Every index runs even when some throw (a throwing body must not drop
  /// the rest of the batch); after the batch drains, the exception thrown by
  /// the *lowest* failing index is rethrown — a deterministic choice, unlike
  /// "whichever task a worker happened to finish first". Called from inside
  /// one of this pool's own workers, the batch runs inline on the calling
  /// thread (same semantics, no deadlock).
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> tasks_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
  std::uint64_t submitted_ = 0;
  std::size_t peak_queued_ = 0;
  std::atomic<std::uint64_t> executed_{0};
};

}  // namespace droute::util
