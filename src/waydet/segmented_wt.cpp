#include "waydet/segmented_wt.h"

#include <algorithm>

#include "ckpt/state_io.h"
#include "common/check.h"

namespace malec::waydet {

SegmentedWayTable::SegmentedWayTable(const Params& p)
    : p_(p), pool_(p.chunks) {
  MALEC_CHECK(p.lines_per_chunk >= 1);
  MALEC_CHECK(p.lines_per_page % p.lines_per_chunk == 0);
  MALEC_CHECK(p.chunks >= 1);
  MALEC_CHECK(p.assoc >= 2);
  chunks_per_page_ = p.lines_per_page / p.lines_per_chunk;
  for (Chunk& c : pool_) c.codes.assign(p.lines_per_chunk, kCodeUnknown);
}

const SegmentedWayTable::Chunk* SegmentedWayTable::find(
    std::uint32_t slot, std::uint32_t index) const {
  for (const Chunk& c : pool_)
    if (c.valid && c.slot == slot && c.index == index) return &c;
  return nullptr;
}

SegmentedWayTable::Chunk* SegmentedWayTable::find(std::uint32_t slot,
                                                  std::uint32_t index) {
  for (Chunk& c : pool_)
    if (c.valid && c.slot == slot && c.index == index) return &c;
  return nullptr;
}

SegmentedWayTable::Chunk& SegmentedWayTable::allocate(std::uint32_t slot,
                                                      std::uint32_t index) {
  Chunk* victim = nullptr;
  for (Chunk& c : pool_) {
    if (!c.valid) {
      victim = &c;
      break;
    }
  }
  if (victim == nullptr) {
    victim = &*std::min_element(
        pool_.begin(), pool_.end(),
        [](const Chunk& a, const Chunk& b) { return a.lru < b.lru; });
    ++evictions_;
  }
  victim->valid = true;
  victim->slot = slot;
  victim->index = index;
  victim->lru = ++tick_;
  std::fill(victim->codes.begin(), victim->codes.end(), kCodeUnknown);
  ++allocs_;
  return *victim;
}

WayIdx SegmentedWayTable::lookup(std::uint32_t slot,
                                 std::uint32_t line_in_page,
                                 std::uint32_t page_salt) const {
  MALEC_DCHECK(slot < p_.slots && line_in_page < p_.lines_per_page);
  const std::uint32_t index = line_in_page / p_.lines_per_chunk;
  const Chunk* c = find(slot, index);
  if (c == nullptr) return kWayUnknown;
  const WayCode code = c->codes[line_in_page % p_.lines_per_chunk];
  return decodeWay(code, excludedWay(line_in_page, page_salt, p_.banks,
                                     p_.assoc),
                   p_.assoc);
}

void SegmentedWayTable::record(std::uint32_t slot,
                               std::uint32_t line_in_page,
                               std::uint32_t page_salt, std::uint32_t way) {
  MALEC_DCHECK(slot < p_.slots && line_in_page < p_.lines_per_page);
  const std::uint32_t index = line_in_page / p_.lines_per_chunk;
  Chunk* c = find(slot, index);
  if (c == nullptr) c = &allocate(slot, index);
  c->lru = ++tick_;
  c->codes[line_in_page % p_.lines_per_chunk] = encodeWay(
      way, excludedWay(line_in_page, page_salt, p_.banks, p_.assoc),
      p_.assoc);
}

void SegmentedWayTable::clearLine(std::uint32_t slot,
                                  std::uint32_t line_in_page) {
  const std::uint32_t index = line_in_page / p_.lines_per_chunk;
  if (Chunk* c = find(slot, index); c != nullptr)
    c->codes[line_in_page % p_.lines_per_chunk] = kCodeUnknown;
}

void SegmentedWayTable::invalidateSlot(std::uint32_t slot) {
  for (Chunk& c : pool_)
    if (c.valid && c.slot == slot) c.valid = false;
}

std::uint32_t SegmentedWayTable::residentChunks() const {
  std::uint32_t n = 0;
  for (const Chunk& c : pool_) n += c.valid;
  return n;
}

std::uint32_t SegmentedWayTable::storageBits() const {
  // Payload + tag per chunk: slot id + chunk index + valid.
  std::uint32_t tag_bits = 1;
  std::uint32_t v = 1;
  while (v < p_.slots) {
    v <<= 1;
    ++tag_bits;
  }
  std::uint32_t idx_bits = 0;
  v = 1;
  while (v < chunks_per_page_) {
    v <<= 1;
    ++idx_bits;
  }
  return p_.chunks * (2 * p_.lines_per_chunk + tag_bits + idx_bits);
}

std::uint32_t SegmentedWayTable::flatStorageBits() const {
  return p_.slots * 2 * p_.lines_per_page;
}


void SegmentedWayTable::saveState(ckpt::StateWriter& w) const {
  w.u64(pool_.size());
  for (const Chunk& c : pool_) {
    w.u8(c.valid ? 1 : 0);
    w.u32(c.slot);
    w.u32(c.index);
    w.u64(c.lru);
    w.u64(c.codes.size());
    for (const WayCode code : c.codes) w.u8(code);
  }
  w.u64(tick_);
  w.u64(allocs_);
  w.u64(evictions_);
}

void SegmentedWayTable::loadState(ckpt::StateReader& r) {
  MALEC_CHECK_MSG(r.u64() == pool_.size(),
                  "segmented-WT checkpoint does not fit this geometry");
  for (Chunk& c : pool_) {
    c.valid = r.u8() != 0;
    c.slot = r.u32();
    c.index = r.u32();
    c.lru = r.u64();
    MALEC_CHECK_MSG(r.u64() == p_.lines_per_chunk,
                    "segmented-WT checkpoint does not fit this chunk width");
    for (WayCode& code : c.codes) code = r.u8();
  }
  tick_ = r.u64();
  allocs_ = r.u64();
  evictions_ = r.u64();
}

}  // namespace malec::waydet
