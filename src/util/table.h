// Plain-text table and CSV rendering for bench output.
//
// Every bench binary prints its table/figure as (a) an aligned text table for
// humans and (b) optionally a CSV block for plotting, both produced here so
// the formatting is uniform across all experiments.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace droute::util {

/// Column-aligned text table with a header row.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header);

  /// Appends one row; must have the same arity as the header.
  void add_row(std::vector<std::string> row);

  /// Renders with single-space-padded columns and a separator under the head.
  std::string render() const;

  /// Renders as RFC-4180-ish CSV (quotes fields containing commas/quotes).
  std::string render_csv() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats seconds as e.g. "86.92".
std::string fmt_seconds(double seconds, int precision = 2);

/// Formats a fraction as a signed percentage, e.g. -0.5555 -> "-55.55%".
std::string fmt_percent(double fraction, int precision = 2);

/// Formats bytes as the paper's decimal megabytes, e.g. 100000000 -> "100".
std::string fmt_mb(std::uint64_t bytes);

/// Formats a rate in Mbps, e.g. "42.1 Mbps".
std::string fmt_mbps(double mbps, int precision = 1);

/// fixed-point double with given precision.
std::string fmt_double(double value, int precision = 2);

}  // namespace droute::util
