// Statistics reporting: named values.
//
// Each simulator component owns its counters directly (plain std::uint64_t
// members) for speed; StatSet is the reporting layer that snapshots them into
// a name->value map for tables, CSV emission and test assertions.
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace malec {

/// Flat snapshot of named statistics. Values are doubles so that both counts
/// and derived ratios/energies fit.
class StatSet {
 public:
  void set(const std::string& name, double value);
  [[nodiscard]] double get(const std::string& name) const;
  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] const std::map<std::string, double>& all() const {
    return values_;
  }
  /// Render as an aligned two-column text table.
  [[nodiscard]] std::string toTable() const;

 private:
  std::map<std::string, double> values_;
};

}  // namespace malec
