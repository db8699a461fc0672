#include "tlb/page_table.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "ckpt/state_io.h"
#include "common/check.h"

namespace malec::tlb {

PageTable::PageTable(std::uint32_t phys_pages, std::uint64_t seed)
    : phys_pages_(phys_pages), seed_(seed) {
  MALEC_CHECK(phys_pages >= 1);
}

PageId PageTable::translate(PageId vpage) {
  auto it = map_.find(vpage);
  if (it != map_.end()) return it->second;
  // splitmix-style mix keyed by the seed picks the preferred frame...
  std::uint64_t x = (static_cast<std::uint64_t>(vpage) + seed_) *
                    0x9E3779B97F4A7C15ull;
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  PageId ppage = static_cast<PageId>(x % phys_pages_);
  // ...and linear probing keeps the mapping collision-free while frames
  // remain: two virtual pages sharing a frame is NOT harmless — way-table
  // validity maintenance finds resident pages by physical ID and repairs
  // only the first match, so an aliased frame leaves the other page's way
  // entry stale (a wrong-way reduced access aborts the run). Only an
  // over-subscribed physical space (more mapped pages than frames — far
  // beyond any modelled working set) falls back to sharing.
  if (used_.size() < phys_pages_) {
    while (used_.count(ppage) != 0) {
      ++ppage;
      if (ppage == phys_pages_) ppage = 0;
    }
    used_.insert(ppage);
  }
  map_.emplace(vpage, ppage);
  return ppage;
}

void PageTable::saveState(ckpt::StateWriter& w) const {
  // map_ is an unordered map — serialize sorted by virtual page so the
  // same state always produces the same checkpoint bytes. used_ is NOT
  // stored: it is exactly the set of mapped frames and is rebuilt on load.
  // lint:allow(udc-order: sorted below before any byte is written)
  std::vector<std::pair<PageId, PageId>> entries(map_.begin(), map_.end());
  std::sort(entries.begin(), entries.end());
  w.u64(entries.size());
  for (const auto& [vpage, ppage] : entries) {
    w.u32(vpage);
    w.u32(ppage);
  }
}

void PageTable::loadState(ckpt::StateReader& r) {
  map_.clear();
  used_.clear();
  const std::uint64_t n = r.u64();
  for (std::uint64_t i = 0; i < n; ++i) {
    const PageId vpage = r.u32();
    const PageId ppage = r.u32();
    map_.emplace(vpage, ppage);
    used_.insert(ppage);
  }
}

}  // namespace malec::tlb
