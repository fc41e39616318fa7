#include "obs/export.h"

#include <algorithm>
#include <cstdio>
#include <fstream>

namespace droute::obs {

namespace {

/// Round-trip-exact, locale-independent double formatting. Deterministic for
/// identical bit patterns, which is what the CSV determinism test asserts.
std::string fmt_double(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

/// Fixed microsecond formatting for trace timestamps (Perfetto parses
/// fractional `ts`; three decimals keep sub-microsecond sim events distinct).
std::string fmt_us(double seconds) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.3f", seconds * 1e6);
  return buffer;
}

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 2);
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

std::string chrome_trace_json(const Recorder& recorder) {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  auto append = [&](const std::string& event) {
    if (!first) out += ",\n";
    first = false;
    out += event;
  };

  // Track names become process_name metadata so Perfetto labels the rows.
  const auto tracks = recorder.track_names();
  for (std::size_t track = 0; track < tracks.size(); ++track) {
    append("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" +
           std::to_string(track) + ",\"tid\":0,\"args\":{\"name\":\"" +
           json_escape(tracks[track]) + "\"}}");
  }

  auto spans = recorder.spans();
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    if (a.track != b.track) return a.track < b.track;
    if (a.lane != b.lane) return a.lane < b.lane;
    if (a.start_s != b.start_s) return a.start_s < b.start_s;
    if (a.end_s != b.end_s) return a.end_s > b.end_s;  // parents first
    return a.name < b.name;
  });
  for (const Span& span : spans) {
    std::string event = "{\"name\":\"" + json_escape(span.name) +
                        "\",\"cat\":\"" +
                        (span.clock == Clock::kSim ? "sim" : "wall") +
                        "\",\"ph\":\"X\",\"pid\":" +
                        std::to_string(span.track) +
                        ",\"tid\":" + std::to_string(span.lane) +
                        ",\"ts\":" + fmt_us(span.start_s) +
                        ",\"dur\":" + fmt_us(span.duration_s());
    if (!span.args.empty()) {
      event += ",\"args\":{";
      bool first_arg = true;
      for (const auto& [key, value] : span.args) {
        if (!first_arg) event += ',';
        first_arg = false;
        event += "\"" + json_escape(key) + "\":\"" + json_escape(value) + "\"";
      }
      event += '}';
    }
    event += '}';
    append(event);
  }
  out += "\n]}\n";
  return out;
}

std::string metrics_csv(const Registry& registry) {
  std::string out = "kind,name,field,value\n";
  for (const Counter* counter : registry.counters()) {
    out += "counter," + counter->name() + ",value," +
           std::to_string(counter->value()) + "\n";
  }
  for (const Gauge* gauge : registry.gauges()) {
    out += "gauge," + gauge->name() + ",value," + fmt_double(gauge->value()) +
           "\n";
  }
  for (const Histogram* histogram : registry.histograms()) {
    const HistogramSnapshot snap = histogram->snapshot();
    const std::string& name = histogram->name();
    out += "histogram," + name + ",count," + std::to_string(snap.count) + "\n";
    out += "histogram," + name + ",sum," + fmt_double(snap.sum) + "\n";
    out += "histogram," + name + ",min," + fmt_double(snap.min) + "\n";
    out += "histogram," + name + ",max," + fmt_double(snap.max) + "\n";
    out += "histogram," + name + ",p50," + fmt_double(snap.p50()) + "\n";
    out += "histogram," + name + ",p95," + fmt_double(snap.p95()) + "\n";
    out += "histogram," + name + ",p99," + fmt_double(snap.p99()) + "\n";
    for (std::size_t bucket = 0; bucket < snap.counts.size(); ++bucket) {
      if (snap.counts[bucket] == 0) continue;  // keep dumps compact
      const std::string edge = bucket < snap.bounds.size()
                                   ? fmt_double(snap.bounds[bucket])
                                   : "inf";
      out += "histogram," + name + ",bucket_le_" + edge + "," +
             std::to_string(snap.counts[bucket]) + "\n";
    }
  }
  return out;
}

util::Status write_file(const std::string& path, std::string_view content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return util::Status::failure("obs: cannot open " + path + " for writing");
  }
  out.write(content.data(), static_cast<std::streamsize>(content.size()));
  out.flush();
  if (!out) return util::Status::failure("obs: short write to " + path);
  return util::Status::success();
}

}  // namespace droute::obs
