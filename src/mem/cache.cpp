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
  const std::uint64_t tag = tagOf(paddr);
  MALEC_CHECK_MSG((tag >> (64 - kTagShift)) == 0,
                  "cache tag does not fit in 62 bits");
  MALEC_DCHECK(!probe(paddr).has_value());

  // Prefer an invalid allowed way before displacing a valid line.
  std::uint32_t way = ways_;
  for (std::uint32_t w = 0; w < ways_; ++w) {
    if ((allowed_ways & (1ull << w)) != 0 && (line(set, w) & kValid) == 0) {
      way = w;
      break;
    }
  }
  FillResult res;
  if (way == ways_) {
    way = repl_.victim(set, allowed_ways);
    const std::uint64_t victim = line(set, way);
    res.evicted = true;
    res.evicted_dirty = (victim & kDirty) != 0;
    // Reconstruct the victim's line base from its tag and this set.
    res.evicted_line_base =
        ((victim >> kTagShift) << (line_bits_ + set_bits_)) |
        (static_cast<Addr>(set) << line_bits_);
  }
  line(set, way) = (tag << kTagShift) | kValid;
  repl_.fill(set, way);
  res.way = static_cast<WayIdx>(way);
  return res;
}

void Cache::markDirty(Addr paddr, WayIdx way) {
  MALEC_DCHECK(way >= 0 && static_cast<std::uint32_t>(way) < ways_);
  std::uint64_t& ln = line(setOf(paddr), static_cast<std::uint32_t>(way));
  MALEC_DCHECK((ln & ~kDirty) == ((tagOf(paddr) << kTagShift) | kValid));
  ln |= kDirty;
}

std::optional<bool> Cache::invalidate(Addr paddr) {
  const auto way = probe(paddr);
  if (!way.has_value()) return std::nullopt;
  std::uint64_t& ln = line(setOf(paddr), static_cast<std::uint32_t>(*way));
  const bool was_dirty = (ln & kDirty) != 0;
  // The tag stays: a checkpoint writes an invalid line's last tag.
  ln &= ~(kValid | kDirty);
  return was_dirty;
}

void Cache::saveState(ckpt::StateWriter& w) const {
  w.u64(lines_.size());
  for (const std::uint64_t ln : lines_) {
    w.u8(static_cast<std::uint8_t>(ln & (kValid | kDirty)));
    w.u64(ln >> kTagShift);
  }
  repl_.saveState(w);
}

void Cache::loadState(ckpt::StateReader& r) {
  MALEC_CHECK_MSG(r.u64() == lines_.size(),
                  "cache checkpoint state does not fit this geometry");
  for (std::uint64_t& ln : lines_) {
    const std::uint8_t f = r.u8();
    const std::uint64_t tag = r.u64();
    MALEC_CHECK_MSG((tag >> (64 - kTagShift)) == 0,
                    "cache checkpoint tag does not fit in 62 bits");
    ln = (tag << kTagShift) | (f & (kValid | kDirty));
  }
  repl_.loadState(r);
}

}  // namespace malec::mem
