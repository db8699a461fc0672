// Table formatting for the bench binaries: per-benchmark rows with
// suite and overall geometric means, normalised the way the paper plots
// Fig. 4 (percent of the Base1ldst value).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace malec::sim {

/// Geometric mean; empty input yields 0.
[[nodiscard]] double geomean(const std::vector<double>& v);

/// RFC-4180 CSV field escaping: fields holding a comma, quote, CR or LF
/// come back quoted with inner quotes doubled; everything else passes
/// through byte-for-byte (ordinary labels keep their golden bytes).
[[nodiscard]] std::string csvField(const std::string& s);

/// One output table: first column = row label, remaining columns numeric.
class Table {
 public:
  struct Row {
    std::string label;
    std::vector<double> values;
    bool is_mean = false;
  };

  Table(std::string title, std::vector<std::string> columns);

  /// Append one data row. `values` must have exactly one entry per column;
  /// a mismatch aborts (a silently ragged table renders misaligned and
  /// poisons every geomean downstream).
  void addRow(const std::string& label, const std::vector<double>& values);
  /// Insert a geometric-mean row over the rows added since the last mean.
  void addGeomeanRow(const std::string& label);
  /// Geometric mean over every data row added so far (excluding mean rows).
  void addOverallGeomeanRow(const std::string& label);

  /// Render with fixed-point values ("%.1f" by default).
  [[nodiscard]] std::string render(int precision = 1) const;
  /// Comma-separated form for downstream plotting.
  [[nodiscard]] std::string csv(int precision = 4) const;

  // Structured read access for result sinks (JSON, CSV, ...).
  [[nodiscard]] const std::string& title() const { return title_; }
  [[nodiscard]] const std::vector<std::string>& columns() const {
    return columns_;
  }
  [[nodiscard]] const std::vector<Row>& rows() const { return rows_; }

 private:
  std::string title_;
  std::vector<std::string> columns_;
  std::vector<Row> rows_;
  std::size_t mean_window_start_ = 0;
};

}  // namespace malec::sim
