// Test helper for driving the transfer engines' coroutine API.
#pragma once

#include <stdexcept>

#include "sim/simulator.h"
#include "sim/task.h"

namespace droute {

/// Runs `simulator` until no events remain (a no-op once it has drained)
/// and returns the finished `task`'s value. Throws, failing the calling
/// test, if the task is still pending or ended through its error channel
/// (escaped exception or cancellation).
template <typename R>
R run_task(sim::Simulator& simulator, const sim::Task<R>& task) {
  simulator.run();
  if (!task.done()) throw std::logic_error("task still pending after run()");
  if (!task.result().ok()) {
    throw std::runtime_error(task.result().error().message);
  }
  return task.result().value();
}

}  // namespace droute
