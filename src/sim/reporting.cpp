#include "sim/reporting.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/check.h"

namespace malec::sim {

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double log_sum = 0.0;
  for (double x : v) {
    MALEC_CHECK_MSG(x > 0.0, "geomean needs positive values");
    log_sum += std::log(x);
  }
  return std::exp(log_sum / static_cast<double>(v.size()));
}

Table::Table(std::string title, std::vector<std::string> columns)
    : title_(std::move(title)), columns_(std::move(columns)) {}

void Table::addRow(const std::string& label,
                   const std::vector<double>& values) {
  MALEC_CHECK_MSG(values.size() == columns_.size(),
                  "Table::addRow: values size must equal the column count");
  rows_.push_back(Row{label, values, false});
}

void Table::addGeomeanRow(const std::string& label) {
  std::vector<double> means(columns_.size(), 0.0);
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    std::vector<double> vals;
    for (std::size_t r = mean_window_start_; r < rows_.size(); ++r)
      if (!rows_[r].is_mean) vals.push_back(rows_[r].values[c]);
    means[c] = geomean(vals);
  }
  rows_.push_back(Row{label, means, true});
  mean_window_start_ = rows_.size();
}

void Table::addOverallGeomeanRow(const std::string& label) {
  std::vector<double> means(columns_.size(), 0.0);
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    std::vector<double> vals;
    for (const Row& r : rows_)
      if (!r.is_mean) vals.push_back(r.values[c]);
    means[c] = geomean(vals);
  }
  rows_.push_back(Row{label, means, true});
}

std::string Table::render(int precision) const {
  std::size_t label_w = 10;
  for (const Row& r : rows_) label_w = std::max(label_w, r.label.size());
  std::vector<std::size_t> col_w(columns_.size());
  for (std::size_t c = 0; c < columns_.size(); ++c)
    col_w[c] = std::max<std::size_t>(columns_[c].size(), 8);

  std::string out = "== " + title_ + " ==\n";
  char buf[128];
  std::snprintf(buf, sizeof buf, "%-*s", static_cast<int>(label_w),
                "benchmark");
  out += buf;
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    std::snprintf(buf, sizeof buf, "  %*s", static_cast<int>(col_w[c]),
                  columns_[c].c_str());
    out += buf;
  }
  out += '\n';
  for (const Row& r : rows_) {
    std::snprintf(buf, sizeof buf, "%-*s", static_cast<int>(label_w),
                  r.label.c_str());
    out += buf;
    for (std::size_t c = 0; c < columns_.size(); ++c) {
      std::snprintf(buf, sizeof buf, "  %*.*f", static_cast<int>(col_w[c]),
                    precision, r.values[c]);
      out += buf;
    }
    out += '\n';
  }
  return out;
}

/// RFC-4180 field escaping: a field holding a comma, quote, CR or LF is
/// wrapped in double quotes with inner quotes doubled. Plain fields pass
/// through untouched, so ordinary benchmark/config labels keep producing
/// the exact bytes the existing goldens pin — only exotic labels
/// (`trace:<path>` workloads with commas, quotes or spaces in the path)
/// gain the quoting that keeps the CSV parseable.
std::string csvField(const std::string& s) {
  if (s.find_first_of(",\"\r\n") == std::string::npos) return s;
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"') out += '"';
    out += ch;
  }
  out += '"';
  return out;
}

std::string Table::csv(int precision) const {
  std::string out = "benchmark";
  for (const auto& c : columns_) out += "," + csvField(c);
  out += '\n';
  char buf[64];
  for (const Row& r : rows_) {
    out += csvField(r.label);
    for (double v : r.values) {
      std::snprintf(buf, sizeof buf, ",%.*f", precision, v);
      out += buf;
    }
    out += '\n';
  }
  return out;
}

}  // namespace malec::sim
