#include "waydet/wdu.h"

#include "ckpt/state_io.h"
#include "common/check.h"

namespace malec::waydet {

Wdu::Wdu(std::uint32_t entries)
    : lines_(/*sets=*/1, entries, /*line_bytes=*/1),
      way_(entries, kWayUnknown) {}

std::optional<WayIdx> Wdu::lookup(LineAddr line) {
  const auto slot = lines_.probe(line);
  if (!slot.has_value()) return std::nullopt;
  lines_.touch(line, *slot);
  return way_[static_cast<std::size_t>(*slot)];
}

void Wdu::record(LineAddr line, WayIdx way) {
  MALEC_CHECK(way != kWayUnknown);
  auto slot = lines_.probe(line);
  if (slot.has_value()) {
    lines_.touch(line, *slot);
  } else {
    // An invalid slot first, else the LRU one.
    slot = lines_.fill(line, lines_.allWays()).way;
  }
  way_[static_cast<std::size_t>(*slot)] = way;
}

void Wdu::invalidate(LineAddr line) { (void)lines_.invalidate(line); }

void Wdu::saveState(ckpt::StateWriter& w) const {
  lines_.saveState(w);
  w.u64(way_.size());
  for (const WayIdx way : way_) w.u8(static_cast<std::uint8_t>(way));
}

void Wdu::loadState(ckpt::StateReader& r) {
  lines_.loadState(r);
  MALEC_CHECK_MSG(r.u64() == way_.size(),
                  "WDU checkpoint state does not fit this geometry");
  for (WayIdx& way : way_) way = static_cast<WayIdx>(r.u8());
}

}  // namespace malec::waydet
