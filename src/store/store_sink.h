// StoreSink: the ResultSink that lands a suite's runs in a `.mstore`
// result store — the durable sibling of the console/CSV/JSON sinks
// (`malec_bench --sink store --store results.mstore`).
//
// beginSuite() refuses up front, before the grid runs, when the existing
// store is invalid or already holds the suite's grid. The sink collects
// every runResult() record during the suite and, at endSuite(), appends
// them to the store as ONE segment keyed by the suite's grid fingerprint:
// load existing store (checked again — an invalid existing file is a hard
// error, a corrupt store must never be silently replaced), appendSegment,
// atomic save. The in-process matrix path and the sharded coordinator
// (fresh or `--resume`d) emit runs in the same matrix order, so the
// segment a coordinated sweep writes is byte-identical to the in-process
// one — CI diffs exactly that.
#pragma once

#include <string>
#include <vector>

#include "sim/sinks.h"
#include "store/result_store.h"

namespace malec::store {

class StoreSink : public sim::ResultSink {
 public:
  explicit StoreSink(std::string path) : path_(std::move(path)) {}

  void beginSuite(const sim::SuiteInfo& info) override;
  void runResult(const sim::RunRecord& rec) override;
  void table(const sim::Table&, const std::string&, int) override {}
  void endSuite() override;

 private:
  /// Owned copy of one runResult() record (the RunRecord's references are
  /// only valid during the call).
  struct Collected {
    std::string workload;
    std::string config;
    sim::RunOutput out;
  };

  /// Load the existing store at path_ into `rs`; abort when it does not
  /// validate or already holds this suite's grid.
  void loadForAppend(ResultStore& rs) const;

  std::string path_;
  sim::SuiteInfo info_;
  std::vector<Collected> collected_;
};

}  // namespace malec::store
