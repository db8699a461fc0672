#include "sim/differential.h"

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <string_view>
#include <vector>

#include "cpu/core_model.h"
#include "core/mem_interface.h"

namespace malec::sim {

namespace {

void addLine(std::string& out, std::string_view name, std::string_view value) {
  out += name;
  out += ": ";
  out += value;
  out += '\n';
}

void addCounter(std::string& out, std::string_view name, std::uint64_t v) {
  addLine(out, name, std::to_string(v));
}

/// %.17g round-trips every finite double: equal text means equal bits.
void addDouble(std::string& out, std::string_view name, double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  addLine(out, name, buf);
}

std::vector<std::string_view> splitLines(std::string_view s) {
  std::vector<std::string_view> lines;
  while (!s.empty()) {
    const std::size_t nl = std::min(s.find('\n'), s.size());
    lines.push_back(s.substr(0, nl));
    s.remove_prefix(std::min(nl + 1, s.size()));
  }
  return lines;
}

}  // namespace

std::string describeOutput(const RunOutput& o) {
  std::string out;
  addLine(out, "benchmark", o.benchmark);
  addLine(out, "config", o.config);
  addCounter(out, "cycles", o.cycles);
  addCounter(out, "instructions", o.instructions);
  addDouble(out, "ipc", o.ipc);
  addDouble(out, "dynamic_pj", o.dynamic_pj);
  addDouble(out, "leakage_pj", o.leakage_pj);
  addDouble(out, "total_pj", o.total_pj);
  addDouble(out, "way_coverage", o.way_coverage);
  addDouble(out, "l1_load_miss_rate", o.l1_load_miss_rate);
  addDouble(out, "merged_load_fraction", o.merged_load_fraction);
  for (std::size_t i = 0; i < std::size(core::kInterfaceCounterFields); ++i)
    addCounter(out, "ifc counter #" + std::to_string(i),
               o.ifc.*core::kInterfaceCounterFields[i]);
  addCounter(out, "core.cycles", o.core.cycles);
  addCounter(out, "core.instructions", o.core.instructions);
  for (std::size_t i = 0; i < std::size(cpu::kCoreScaledCounterFields); ++i)
    addCounter(out, "core counter #" + std::to_string(i),
               o.core.*cpu::kCoreScaledCounterFields[i]);
  const std::string table = o.energy_detail.toTable();
  for (const std::string_view row : splitLines(table))
    addLine(out, "energy", row);
  return out;
}

std::string diffLines(const std::string& a, const std::string& b) {
  if (a == b) return "";
  // Renderings are ~100 lines, so the quadratic LCS table is cheap.
  const std::vector<std::string_view> x = splitLines(a);
  const std::vector<std::string_view> y = splitLines(b);
  const std::size_t n = x.size();
  const std::size_t m = y.size();
  // common[i * (m + 1) + j] = LCS length of x[i..] and y[j..].
  std::vector<std::size_t> common((n + 1) * (m + 1), 0);
  auto lcs = [&common, m](std::size_t i, std::size_t j) -> std::size_t& {
    return common[i * (m + 1) + j];
  };
  for (std::size_t i = n; i-- > 0;)
    for (std::size_t j = m; j-- > 0;)
      lcs(i, j) = x[i] == y[j] ? lcs(i + 1, j + 1) + 1
                               : std::max(lcs(i + 1, j), lcs(i, j + 1));
  std::string out;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < n || j < m) {
    if (i < n && j < m && x[i] == y[j]) {
      ++i;
      ++j;
    } else if (j == m || (i < n && lcs(i + 1, j) >= lcs(i, j + 1))) {
      out += "- ";
      out += x[i++];
      out += '\n';
    } else {
      out += "+ ";
      out += y[j++];
      out += '\n';
    }
  }
  return out;
}

std::string diffOutputs(const RunOutput& a, const RunOutput& b) {
  return diffLines(describeOutput(a), describeOutput(b));
}

}  // namespace malec::sim
