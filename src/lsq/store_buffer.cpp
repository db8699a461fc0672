#include "lsq/store_buffer.h"

#include "ckpt/state_io.h"

namespace malec::lsq {

void StoreBuffer::insert(SeqNum seq, Addr vaddr, std::uint8_t size) {
  MALEC_CHECK_MSG(!full(), "StoreBuffer overflow");
  MALEC_CHECK(size > 0);
  seq_.push_back(seq);
  vaddr_.push_back(vaddr);
  size8_.push_back(size);
}

void StoreBuffer::markCommitted(SeqNum seq) {
  for (std::size_t i = 0; i < seq_.size(); ++i) {
    if (seq_[i] == seq) {
      committed_mask_ |= std::uint64_t{1} << i;
      return;
    }
  }
  MALEC_CHECK_MSG(false, "commit of unknown store");
}

std::optional<StoreBuffer::Entry> StoreBuffer::popCommitted() {
  if (committed_mask_ == 0) return std::nullopt;
  // Oldest committed first (buffer order, not commit order): the lowest
  // set bit is the lowest index = oldest entry.
  const std::size_t i =
      static_cast<std::size_t>(__builtin_ctzll(committed_mask_));
  Entry e{seq_[i], vaddr_[i], size8_[i], true};
  seq_.erase(seq_.begin() + static_cast<std::ptrdiff_t>(i));
  vaddr_.erase(vaddr_.begin() + static_cast<std::ptrdiff_t>(i));
  size8_.erase(size8_.begin() + static_cast<std::ptrdiff_t>(i));
  // Close the gap in the mask: bits below i keep their position, bits
  // above shift down by one.
  const std::uint64_t below = committed_mask_ & ((std::uint64_t{1} << i) - 1);
  const std::uint64_t above = committed_mask_ >> (i + 1);
  committed_mask_ = below | (above << i);
  return e;
}

bool StoreBuffer::coversLoad(Addr vaddr, std::uint8_t size) const {
  const Addr lo = vaddr;
  const Addr hi = vaddr + size;
  // Branch-free: every entry is evaluated.
  unsigned hit = 0;
  for (std::size_t i = 0; i < seq_.size(); ++i)
    hit |= (vaddr_[i] <= lo ? 1u : 0u) &
           (vaddr_[i] + size8_[i] >= hi ? 1u : 0u);
  return hit != 0;
}

void StoreBuffer::saveState(ckpt::StateWriter& w) const {
  w.u64(seq_.size());
  for (std::size_t i = 0; i < seq_.size(); ++i) {
    w.u64(seq_[i]);
    w.u64(vaddr_[i]);
    w.u8(size8_[i]);
    w.u8(((committed_mask_ >> i) & 1) != 0 ? 1 : 0);
  }
}

void StoreBuffer::loadState(ckpt::StateReader& r) {
  const std::uint64_t n = r.u64();
  MALEC_CHECK_MSG(n <= capacity_,
                  "store-buffer checkpoint exceeds this capacity");
  seq_.clear();
  vaddr_.clear();
  size8_.clear();
  committed_mask_ = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    seq_.push_back(r.u64());
    vaddr_.push_back(r.u64());
    size8_.push_back(r.u8());
    if (r.u8() != 0) committed_mask_ |= std::uint64_t{1} << i;
  }
}

}  // namespace malec::lsq
