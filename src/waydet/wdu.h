// Way Determination Unit — the line-granularity prior art MALEC's
// Page-Based Way Determination is compared against (Nicolaescu, Veidenbaum
// and Nicolau, DATE'03; paper Sec. II and VI-C).
//
// The WDU is a small fully-associative buffer of recently accessed cache
// lines, each associated with exactly one way: a line either hits in that
// way or misses the whole cache. Per the paper's comparison methodology, we
// extend the original WDU with validity bits so it too can issue *reduced*
// accesses (tag arrays bypassed) rather than mere predictions.
//
// Unlike the single-ported, lookup-free WT (indexed by the TLB hit), the
// WDU needs one fully-associative, tag-sized lookup port per parallel
// memory reference — four for the evaluated MALEC configuration — which is
// what makes it the energy-losing option at this access parallelism.
//
// The buffer itself is a `mem::Cache` of one set with 1-byte "lines", so
// its tag is the whole line address and its replacement is the caches'
// LRU; beside it sits the L1 way each slot is bound to.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/types.h"
#include "mem/cache.h"

namespace malec::ckpt {
class StateReader;
class StateWriter;
}  // namespace malec::ckpt

namespace malec::waydet {

class Wdu {
 public:
  /// `entries`: 8, 16 or 32 in the paper's sweep.
  explicit Wdu(std::uint32_t entries);

  /// Look up the way for a line address (one associative search).
  [[nodiscard]] std::optional<WayIdx> lookup(LineAddr line);

  /// Record/refresh a line->way binding (on cache access or fill).
  void record(LineAddr line, WayIdx way);

  /// Drop a line (cache eviction) — the validity extension.
  void invalidate(LineAddr line);

  [[nodiscard]] std::uint32_t entries() const { return lines_.ways(); }

  /// Checkpoint/restore of all mutable state; restore requires an
  /// identically-configured instance (geometry mismatches abort).
  void saveState(ckpt::StateWriter& w) const;
  void loadState(ckpt::StateReader& r);

 private:
  mem::Cache lines_;         ///< one set, one slot per way
  std::vector<WayIdx> way_;  ///< the L1 way bound to each slot
};

}  // namespace malec::waydet
