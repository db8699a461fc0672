#include "mem/cache.h"

#include "ckpt/state_io.h"
#include "common/address.h"
#include "common/check.h"

namespace malec::mem {

Cache::Cache(std::uint32_t sets, std::uint32_t ways, std::uint32_t line_bytes)
    : sets_(sets),
      ways_(ways),
      line_bits_(log2Exact(line_bytes)),
      set_bits_(log2Exact(sets)),
      lines_(static_cast<std::size_t>(sets) * ways),
      repl_(sets, ways) {}

Cache::FillResult Cache::fill(Addr paddr, std::uint64_t allowed_ways) {
  const std::uint32_t set = setOf(paddr);
  MALEC_DCHECK(!probe(paddr).has_value());

  // Prefer an invalid allowed way before displacing a valid line.
  std::uint32_t way = ways_;
  for (std::uint32_t w = 0; w < ways_; ++w) {
    if ((allowed_ways & (1ull << w)) != 0 && !line(set, w).valid) {
      way = w;
      break;
    }
  }
  FillResult res;
  if (way == ways_) {
    way = repl_.victim(set, allowed_ways);
    const Line& victim = line(set, way);
    res.evicted = true;
    res.evicted_dirty = victim.dirty;
    // Reconstruct the victim's line base from its tag and this set.
    res.evicted_line_base = (victim.tag << (line_bits_ + set_bits_)) |
                            (static_cast<Addr>(set) << line_bits_);
  }
  Line& ln = line(set, way);
  ln.valid = true;
  ln.dirty = false;
  ln.tag = tagOf(paddr);
  repl_.fill(set, way);
  res.way = static_cast<WayIdx>(way);
  return res;
}

void Cache::markDirty(Addr paddr, WayIdx way) {
  MALEC_DCHECK(way >= 0 && static_cast<std::uint32_t>(way) < ways_);
  Line& ln = line(setOf(paddr), static_cast<std::uint32_t>(way));
  MALEC_DCHECK(ln.valid && ln.tag == tagOf(paddr));
  ln.dirty = true;
}

std::optional<bool> Cache::invalidate(Addr paddr) {
  const auto way = probe(paddr);
  if (!way.has_value()) return std::nullopt;
  Line& ln = line(setOf(paddr), static_cast<std::uint32_t>(*way));
  const bool was_dirty = ln.dirty;
  ln.valid = false;
  ln.dirty = false;
  return was_dirty;
}

void Cache::saveState(ckpt::StateWriter& w) const {
  w.u64(lines_.size());
  for (const Line& ln : lines_) {
    w.u8(static_cast<std::uint8_t>((ln.valid ? 1 : 0) | (ln.dirty ? 2 : 0)));
    w.u64(ln.tag);
  }
  repl_.saveState(w);
}

void Cache::loadState(ckpt::StateReader& r) {
  MALEC_CHECK_MSG(r.u64() == lines_.size(),
                  "cache checkpoint state does not fit this geometry");
  for (Line& ln : lines_) {
    const std::uint8_t f = r.u8();
    ln.valid = (f & 1) != 0;
    ln.dirty = (f & 2) != 0;
    ln.tag = r.u64();
  }
  repl_.loadState(r);
}

}  // namespace malec::mem
