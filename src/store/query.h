// Query engine over a loaded `.mstore`: select / filter / sort /
// group-geomean over the stored runs' query fields, rendered as an aligned
// text table or JSON-lines — `malec_bench query`'s engine, separated so
// tests drive it directly.
//
// Determinism contract: rows start in file order (segment append order,
// matrix order within a segment); sorts are stable, so equal keys keep
// file order — the same store and query always render the same bytes.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "store/result_store.h"

namespace malec::store {

/// The queryable columns, in default display order: suite, workload,
/// config, seed, instructions, cycles, ipc, energy_pj.
[[nodiscard]] const std::vector<std::string>& queryColumns();

struct QueryOptions {
  /// Columns to display, in order; empty = queryColumns(). Unknown names
  /// are hard errors listing the inventory. Ignored under group_geomean,
  /// which has its own fixed column set.
  std::vector<std::string> select;
  /// Substring filters; empty = no constraint.
  std::string suite_contains;
  std::string workload_contains;
  std::string config_contains;
  bool have_seed = false;  ///< exact-match seed filter when set
  std::uint64_t seed = 0;
  /// Sort key (any query column; under group_geomean: config, runs,
  /// cycles, ipc or energy_pj). Empty = file order. Stable: ties keep
  /// file order.
  std::string sort_by;
  bool sort_desc = false;
  /// Collapse rows per config: geometric means of cycles / ipc /
  /// energy_pj over the filtered rows, with a run count — the "compare
  /// presets across a benchmark suite" view the paper's figures use.
  bool group_geomean = false;
  std::uint64_t limit = 0;  ///< keep the first N rows after sorting; 0 = all
};

/// One rendered result set: column names, per-column numeric flag (drives
/// alignment and JSON typing) and formatted cells.
struct QueryResult {
  std::vector<std::string> columns;
  std::vector<bool> numeric;
  std::vector<std::vector<std::string>> rows;
};

/// Execute `q` over `rs`. Unknown select/sort columns abort with the
/// column inventory (strict, like every other knob).
[[nodiscard]] QueryResult runQuery(const ResultStore& rs,
                                   const QueryOptions& q);

/// Aligned text rendering (strings left, numbers right) + a row count.
void printQueryTable(const QueryResult& r, std::FILE* out);

/// One JSON object per row, one per line; numeric columns as JSON numbers.
void printQueryJson(const QueryResult& r, std::FILE* out);

}  // namespace malec::store
