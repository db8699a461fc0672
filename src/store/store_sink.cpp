#include "store/store_sink.h"

#include <cstdio>
#include <filesystem>

#include "common/check.h"

namespace malec::store {

void StoreSink::beginSuite(const sim::SuiteInfo& info) {
  info_ = info;
  collected_.clear();
  // Refuse before the grid runs, not after: a duplicate grid or an invalid
  // existing store would otherwise cost a whole sweep to discover.
  // endSuite() checks again, since another writer may append meanwhile.
  if (info_.fingerprint != 0 && std::filesystem::exists(path_)) {
    ResultStore rs;
    loadForAppend(rs);
  }
}

void StoreSink::runResult(const sim::RunRecord& rec) {
  collected_.push_back({rec.workload, rec.config, rec.out});
}

void StoreSink::loadForAppend(ResultStore& rs) const {
  // An existing file that does not validate is a HARD error — appending
  // would destroy whatever it was.
  std::string err;
  if (!rs.load(path_, err)) MALEC_CHECK_MSG(false, err.c_str());
  if (rs.findSegment(info_.fingerprint) != nullptr) {
    const std::string msg =
        "store '" + path_ + "' already holds this exact grid (suite '" +
        info_.name + "', fingerprint " + std::to_string(info_.fingerprint) +
        ") — re-appending would double every query row; query it instead, "
        "or write to a fresh store";
    MALEC_CHECK_MSG(false, msg.c_str());
  }
}

void StoreSink::endSuite() {
  if (collected_.empty()) {
    // Custom suites have no grid and announce no runs — nothing durable
    // to keep, but say so instead of silently writing nothing.
    std::fprintf(stderr,
                 "store sink: suite '%s' produced no grid runs — '%s' not "
                 "touched\n",
                 info_.name.c_str(), path_.c_str());
    return;
  }
  MALEC_CHECK_MSG(info_.fingerprint != 0,
                  "store sink: suite announced runs without a grid "
                  "fingerprint");

  // Load-append-save: the store is rewritten atomically, so its bytes stay
  // a pure function of the segment history.
  ResultStore rs;
  if (std::filesystem::exists(path_)) loadForAppend(rs);

  StoreSegment seg;
  seg.suite = info_.name;
  seg.fingerprint = info_.fingerprint;
  seg.instructions = info_.instructions;
  seg.seed = info_.seed;
  std::vector<ResultStore::RunEntry> entries;
  entries.reserve(collected_.size());
  for (const Collected& c : collected_)
    entries.push_back({c.workload, c.config, &c.out});
  rs.appendSegment(seg, entries);
  std::string err;
  if (!rs.save(path_, err)) MALEC_CHECK_MSG(false, err.c_str());
}

}  // namespace malec::store
