// Exporters for droute::obs — two formats, all produced from snapshots so
// a live recorder can be dumped at any point:
//
//   chrome_trace_json  — Chrome trace_event "JSON Array Format" (loads in
//                        chrome://tracing and Perfetto). Spans become "X"
//                        (complete) events; tracks become processes, lanes
//                        become threads. Validated by tools/validate_trace.py.
//   metrics_csv        — flat `kind,name,field,value` rows sorted by name;
//                        byte-deterministic for a deterministic run (the
//                        determinism test in tests/obs_test.cpp relies on it).
#pragma once

#include <string>
#include <string_view>

#include "obs/recorder.h"
#include "util/result.h"

namespace droute::obs {

std::string chrome_trace_json(const Recorder& recorder);
std::string metrics_csv(const Registry& registry);

/// Writes `content` to `path` (truncating). Plain helper so bench/tooling
/// call sites don't each reinvent error handling.
[[nodiscard]] util::Status write_file(const std::string& path,
                                      std::string_view content);

}  // namespace droute::obs
