#include "waydet/way_table.h"

#include <algorithm>

#include "ckpt/state_io.h"
#include "common/check.h"

namespace malec::waydet {

WayTable::WayTable(std::uint32_t slots, std::uint32_t lines_per_page,
                   std::uint32_t banks, std::uint32_t assoc)
    : slots_(slots),
      lines_per_page_(lines_per_page),
      banks_(banks),
      assoc_(assoc),
      codes_(static_cast<std::size_t>(slots) * lines_per_page, kCodeUnknown) {
  MALEC_CHECK(slots >= 1);
  MALEC_CHECK(lines_per_page >= 1);
  MALEC_CHECK_MSG(assoc >= 2, "way encoding needs at least 2 ways");
}

WayIdx WayTable::lookup(std::uint32_t slot, std::uint32_t line_in_page,
                        std::uint32_t page_salt) const {
  MALEC_DCHECK(slot < slots_ && line_in_page < lines_per_page_);
  const WayCode c =
      codes_[static_cast<std::size_t>(slot) * lines_per_page_ + line_in_page];
  return decodeWay(c, excluded(line_in_page, page_salt), assoc_);
}

void WayTable::record(std::uint32_t slot, std::uint32_t line_in_page,
                      std::uint32_t page_salt, std::uint32_t way) {
  MALEC_DCHECK(slot < slots_ && line_in_page < lines_per_page_);
  codes_[static_cast<std::size_t>(slot) * lines_per_page_ + line_in_page] =
      encodeWay(way, excluded(line_in_page, page_salt), assoc_);
}

void WayTable::clearLine(std::uint32_t slot, std::uint32_t line_in_page) {
  MALEC_DCHECK(slot < slots_ && line_in_page < lines_per_page_);
  codes_[static_cast<std::size_t>(slot) * lines_per_page_ + line_in_page] =
      kCodeUnknown;
}

void WayTable::invalidateSlot(std::uint32_t slot) {
  MALEC_DCHECK(slot < slots_);
  for (std::uint32_t l = 0; l < lines_per_page_; ++l)
    codes_[static_cast<std::size_t>(slot) * lines_per_page_ + l] =
        kCodeUnknown;
}

void WayTable::copyEntryFrom(std::uint32_t slot, const WayTable& src,
                             std::uint32_t src_slot) {
  MALEC_CHECK(slot < slots_ && src_slot < src.slots_);
  MALEC_CHECK(src.lines_per_page_ == lines_per_page_);
  const auto from = src.codes_.begin() +
                    static_cast<std::ptrdiff_t>(src_slot) * lines_per_page_;
  std::copy(from, from + lines_per_page_,
            codes_.begin() +
                static_cast<std::ptrdiff_t>(slot) * lines_per_page_);
}

std::uint32_t WayTable::naiveEntryBits() const {
  // 1 valid bit + ceil(log2(assoc)) way bits per line.
  std::uint32_t way_bits = 0;
  while ((1u << way_bits) < assoc_) ++way_bits;
  return (1 + way_bits) * lines_per_page_;
}

void LastEntryRegister::push(std::uint32_t slot, PageId vpage) {
  for (const Item& it : fifo_)
    if (it.slot == slot && it.vpage == vpage) return;
  fifo_.push_back(Item{slot, vpage});
  if (fifo_.size() > depth_) fifo_.erase(fifo_.begin());
}

std::optional<std::uint32_t> LastEntryRegister::match(PageId vpage) const {
  // Newest entries take precedence.
  for (auto it = fifo_.rbegin(); it != fifo_.rend(); ++it)
    if (it->vpage == vpage) return it->slot;
  return std::nullopt;
}


void WayTable::saveState(ckpt::StateWriter& w) const {
  w.u64(codes_.size());
  for (const WayCode c : codes_) w.u8(c);
}

void WayTable::loadState(ckpt::StateReader& r) {
  MALEC_CHECK_MSG(r.u64() == codes_.size(),
                  "way-table checkpoint state does not fit this geometry");
  for (WayCode& c : codes_) c = r.u8();
}

void LastEntryRegister::saveState(ckpt::StateWriter& w) const {
  w.u64(fifo_.size());
  for (const Item& it : fifo_) {
    w.u32(it.slot);
    w.u32(it.vpage);
  }
}

void LastEntryRegister::loadState(ckpt::StateReader& r) {
  fifo_.clear();
  const std::uint64_t n = r.u64();
  MALEC_CHECK_MSG(n <= depth_, "last-entry checkpoint exceeds the FIFO depth");
  for (std::uint64_t i = 0; i < n; ++i) {
    Item it;
    it.slot = r.u32();
    it.vpage = r.u32();
    fifo_.push_back(it);
  }
}

}  // namespace malec::waydet
