#include "lsq/merge_buffer.h"

#include "ckpt/state_io.h"
#include "common/check.h"

namespace malec::lsq {

std::uint64_t MergeBuffer::maskFor(Addr vaddr, std::uint8_t size) const {
  const std::uint32_t off = static_cast<std::uint32_t>(
      layout_.lineOffset(vaddr));
  MALEC_DCHECK(off + size <= layout_.lineBytes());
  MALEC_DCHECK(layout_.lineBytes() <= 64);
  const std::uint64_t ones =
      size >= 64 ? ~0ull : ((1ull << size) - 1);
  return ones << off;
}

bool MergeBuffer::absorb(Addr vaddr, std::uint8_t size) {
  const Addr line = layout_.lineBase(vaddr);
  for (std::size_t i = 0; i < line_base_.size(); ++i) {
    if (line_base_[i] == line) {
      byte_mask_[i] |= maskFor(vaddr, size);
      lru_[i] = ++tick_;
      return true;
    }
  }
  return false;
}

void MergeBuffer::allocate(Addr vaddr, std::uint8_t size) {
  MALEC_CHECK_MSG(!full(), "MergeBuffer overflow");
  line_base_.push_back(layout_.lineBase(vaddr));
  byte_mask_.push_back(maskFor(vaddr, size));
  lru_.push_back(++tick_);
}

std::optional<MergeBuffer::Entry> MergeBuffer::evictLru() {
  if (line_base_.empty()) return std::nullopt;
  // LRU ticks are unique (each merge/allocate takes a fresh ++tick_), so
  // the minimum is unambiguous; scanning low-to-high and keeping the first
  // strict improvement preserves the old min_element tie-break regardless.
  std::size_t victim = 0;
  for (std::size_t i = 1; i < lru_.size(); ++i)
    if (lru_[i] < lru_[victim]) victim = i;
  Entry e{line_base_[victim], byte_mask_[victim]};
  line_base_.erase(line_base_.begin() + static_cast<std::ptrdiff_t>(victim));
  byte_mask_.erase(byte_mask_.begin() + static_cast<std::ptrdiff_t>(victim));
  lru_.erase(lru_.begin() + static_cast<std::ptrdiff_t>(victim));
  return e;
}

bool MergeBuffer::coversLoad(Addr vaddr, std::uint8_t size) const {
  const Addr line = layout_.lineBase(vaddr);
  const std::uint64_t need = maskFor(vaddr, size);
  for (std::size_t i = 0; i < line_base_.size(); ++i)
    if (line_base_[i] == line && (byte_mask_[i] & need) == need) return true;
  return false;
}

void MergeBuffer::saveState(ckpt::StateWriter& w) const {
  w.u64(line_base_.size());
  for (std::size_t i = 0; i < line_base_.size(); ++i) {
    w.u64(line_base_[i]);
    w.u64(byte_mask_[i]);
    w.u64(lru_[i]);
  }
  w.u64(tick_);
}

void MergeBuffer::loadState(ckpt::StateReader& r) {
  const std::uint64_t n = r.u64();
  MALEC_CHECK_MSG(n <= capacity_,
                  "merge-buffer checkpoint exceeds this capacity");
  line_base_.clear();
  byte_mask_.clear();
  lru_.clear();
  for (std::uint64_t i = 0; i < n; ++i) {
    line_base_.push_back(r.u64());
    byte_mask_.push_back(r.u64());
    lru_.push_back(r.u64());
  }
  tick_ = r.u64();
}

}  // namespace malec::lsq
