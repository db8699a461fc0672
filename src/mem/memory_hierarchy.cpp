#include "mem/memory_hierarchy.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "ckpt/state_io.h"
#include "common/check.h"

namespace malec::mem {

namespace {
/// Initial pending-fill capacity; a burst past it grows the table once.
constexpr std::size_t kPendingReserve = 64;
}  // namespace

MemoryHierarchy::MemoryHierarchy(Cache& l1, Cache& l2, const Params& p)
    : l1_(l1), l2_(l2), p_(p) {
  MALEC_CHECK(p.mshrs >= 1);
  pending_.reserve(kPendingReserve);
}

std::size_t MemoryHierarchy::dropExpiredAndFind(Cycle now, Addr line_base) {
  std::size_t keep = 0;
  std::size_t found = pending_.size();  // >= the compacted size: no match
  for (const PendingFill& f : pending_) {
    if (f.ready <= now) continue;
    if (f.line_base == line_base) found = keep;
    pending_[keep++] = f;
  }
  // lint:allow(hot-alloc: shrinking resize — compacts in place, never grows)
  pending_.resize(keep);
  return found;
}

bool MemoryHierarchy::mshrAvailable(Cycle now) const {
  std::uint32_t live = 0;
  for (const PendingFill& f : pending_)
    if (f.ready > now) ++live;
  return live < p_.mshrs;
}

MemoryHierarchy::MissOutcome MemoryHierarchy::missAccess(
    Addr paddr, Cycle now, bool is_store, std::uint64_t l1_ways) {
  const Addr line_base = l1_.lineBase(paddr);

  // MSHR merge: a miss to an in-flight line completes with it and performs
  // no additional L2 traffic. A line evicted inside its own fill window is
  // installed again; its data still arrives with the outstanding fill.
  if (const std::size_t i = dropExpiredAndFind(now, line_base);
      i < pending_.size()) {
    MissOutcome out;
    out.ready_cycle = pending_[i].ready;
    out.merged_mshr = true;
    if (const auto way = l1_.probe(paddr); way.has_value()) {
      out.l1_way = *way;
      if (is_store) l1_.markDirty(paddr, *way);
    } else {
      installL1(paddr, l1_ways, is_store, out);
    }
    return out;
  }

  MissOutcome out;
  Cycle latency = p_.l2_latency;
  if (auto l2way = l2_.probe(paddr); l2way.has_value()) {
    out.l2_hit = true;
    l2_.touch(paddr, *l2way);
  } else {
    latency += p_.dram_latency;
    // The L2 victim's writeback to DRAM is outside the energy scope.
    (void)l2_.fill(paddr, l2_.allWays());
  }

  // Eager tag-state fill (data arrives at ready_cycle; the simulator only
  // observes timing through the returned cycle).
  out.ready_cycle = now + latency;
  installL1(paddr, l1_ways, is_store, out);
  // lint:allow(hot-alloc: reserved at construction; a burst past that grows it once and the capacity is kept)
  pending_.push_back(PendingFill{line_base, out.ready_cycle});
  return out;
}

void MemoryHierarchy::installL1(Addr paddr, std::uint64_t l1_ways,
                                bool is_store, MissOutcome& out) {
  const auto fill = l1_.fill(paddr, l1_ways);
  // Write a dirty victim back into L2 (allocate on writeback miss). The L2
  // copy stays clean: an L2 victim's writeback to DRAM is outside the
  // energy scope, so nothing would read an L2 dirty bit.
  if (fill.evicted_dirty && !l2_.probe(fill.evicted_line_base))
    (void)l2_.fill(fill.evicted_line_base, l2_.allWays());
  if (is_store) l1_.markDirty(paddr, fill.way);
  out.l1_way = fill.way;
  out.installed = true;
  out.evicted = fill.evicted;
  out.evicted_line = fill.evicted_line_base;
}

void MemoryHierarchy::saveState(ckpt::StateWriter& w) const {
  // pending_ is unordered — serialize sorted by line base so the same
  // state always produces the same checkpoint bytes.
  std::vector<std::pair<Addr, Cycle>> pend;
  pend.reserve(pending_.size());
  for (const PendingFill& f : pending_) pend.emplace_back(f.line_base, f.ready);
  std::sort(pend.begin(), pend.end());
  w.u64(pend.size());
  for (const auto& [line, ready] : pend) {
    w.u64(line);
    w.u64(ready);
  }
}

void MemoryHierarchy::loadState(ckpt::StateReader& r) {
  pending_.clear();
  const std::uint64_t n = r.u64();
  for (std::uint64_t i = 0; i < n; ++i) {
    PendingFill f;
    f.line_base = r.u64();
    f.ready = r.u64();
    pending_.push_back(f);
  }
}

}  // namespace malec::mem
