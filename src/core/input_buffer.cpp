#include "core/input_buffer.h"

#include <algorithm>

#include "ckpt/state_io.h"
#include "common/check.h"

namespace malec::core {

// ORDER CONTRACT (regression-tested in test_input_buffer.cpp): the packed
// arrays are scanned low-to-high everywhere in this file, and three
// invariants make those scans equivalent to explicit priority sorting:
//   1. Index order IS age order: entries append with strictly increasing
//      order_ values and remove() preserves relative order.
//   2. arrival_ is non-decreasing in index order (appends stamp the current
//      cycle, which never goes backwards), so overCommitted() may stop at
//      the first entry that arrived this cycle.
//   3. The comparator budget in group() is consumed per *valid* entry in
//      index order BEFORE the ready check — hardware wires comparators to
//      storage slots, not to ready entries — so scan order is part of the
//      modelled semantics, not an implementation detail.

InputBuffer::InputBuffer(std::uint32_t carry_slots, std::uint32_t agu_slots,
                         std::uint32_t group_comparators,
                         AddressLayout layout)
    : carry_slots_(carry_slots),
      agu_slots_(agu_slots),
      group_comparators_(group_comparators),
      layout_(layout) {
  MALEC_CHECK(agu_slots >= 1);
  // remove() takes a 64-bit mask; loads plus the MBE slot must fit in it.
  const std::size_t capacity = std::size_t{carry_slots} + agu_slots + 1;
  MALEC_CHECK_MSG(capacity <= kInputBufferCapacity,
                  "InputBuffer capacity exceeds the removal mask");
  ops_.reserve(capacity);
  not_before_.reserve(capacity);
  arrival_.reserve(capacity);
  order_.reserve(capacity);
  page_.reserve(capacity);
}

bool InputBuffer::hasLoadSpace() const {
  return loadCount() < carry_slots_ + agu_slots_;
}

bool InputBuffer::overCommitted(Cycle now) const {
  std::size_t carried = 0;
  for (std::size_t i = 0; i < ops_.size(); ++i) {
    // Invariant 2: arrivals are non-decreasing in index order, so the
    // first same-cycle entry ends the carried prefix.
    if (arrival_[i] >= now) break;
    if (i != mbe_pos_) ++carried;
  }
  return carried > carry_slots_;
}

void InputBuffer::addLoad(const MemOp& op, Cycle now) {
  MALEC_CHECK_MSG(hasLoadSpace(), "InputBuffer load overflow");
  MALEC_CHECK(op.is_load);
  MALEC_DCHECK(arrival_.empty() || arrival_.back() <= now);
  ops_.push_back(op);
  not_before_.push_back(now);
  arrival_.push_back(now);
  order_.push_back(next_order_++);
  page_.push_back(layout_.pageId(op.vaddr));
}

void InputBuffer::addMbe(const MemOp& op, Cycle now) {
  MALEC_CHECK_MSG(hasMbeSpace(), "second MBE in InputBuffer");
  MALEC_CHECK(!op.is_load);
  MALEC_DCHECK(arrival_.empty() || arrival_.back() <= now);
  mbe_pos_ = ops_.size();
  ops_.push_back(op);
  not_before_.push_back(now);
  arrival_.push_back(now);
  order_.push_back(next_order_++);
  page_.push_back(layout_.pageId(op.vaddr));
}

std::optional<std::size_t> InputBuffer::selectHead(Cycle now) const {
  // Loads in age order first (invariant 1: index order is age order); the
  // MBE is always lowest priority (its stores already committed, Sec. IV).
  std::optional<std::size_t> mbe;
  for (std::size_t i = 0; i < ops_.size(); ++i) {
    if (not_before_[i] > now) continue;
    if (i == mbe_pos_) {
      mbe = i;
      continue;
    }
    return i;
  }
  return mbe;
}

void InputBuffer::group(std::size_t head, Cycle now,
                        std::vector<std::size_t>& g) const {
  MALEC_CHECK(head < ops_.size());
  const PageId page = page_[head];
  g.clear();
  // The result is priority-ordered without sorting: if the head is a load
  // it is the OLDEST ready load (selectHead), so every ready load matched
  // below has a larger index (invariant 1) and index order is priority
  // order; the MBE, matched or head, always goes last.
  if (head != mbe_pos_) g.push_back(head);
  bool mbe_matched = false;
  std::uint32_t compared = 0;
  for (std::size_t i = 0; i < ops_.size(); ++i) {
    if (i == head) continue;
    if (compared >= group_comparators_) break;
    // Invariant 3: every valid entry consumes a comparator, ready or not.
    ++compared;
    if (not_before_[i] > now) continue;
    if (page_[i] == page) {
      if (i == mbe_pos_) {
        mbe_matched = true;
      } else {
        MALEC_DCHECK(head == mbe_pos_ || i > head);
        g.push_back(i);
      }
    }
  }
  if (mbe_matched) g.push_back(mbe_pos_);
  if (head == mbe_pos_) g.push_back(head);
}

void InputBuffer::defer(std::size_t index, Cycle until) {
  MALEC_CHECK(index < ops_.size());
  not_before_[index] = until;
}

Cycle InputBuffer::nextReadyCycle() const {
  Cycle next = kNever;
  for (const Cycle c : not_before_) next = std::min(next, c);
  return next;
}

void InputBuffer::remove(std::uint64_t doomed) {
  if (doomed == 0) return;
  // Every marked entry must exist (a 64-bit shift by 64 would be undefined).
  MALEC_CHECK(ops_.size() == kInputBufferCapacity ||
              (doomed >> ops_.size()) == 0);
  if (mbe_pos_ != kNoMbe) {
    if (((doomed >> mbe_pos_) & 1) != 0) {
      mbe_pos_ = kNoMbe;
    } else {
      mbe_pos_ -= static_cast<std::size_t>(__builtin_popcountll(
          doomed & ((std::uint64_t{1} << mbe_pos_) - 1)));
    }
  }
  // One stable compaction pass over every column: survivors slide down in
  // their relative order (invariant 1); entries below the first removal
  // are already in place.
  std::size_t keep = static_cast<std::size_t>(__builtin_ctzll(doomed));
  for (std::size_t i = keep + 1; i < ops_.size(); ++i) {
    if (((doomed >> i) & 1) != 0) continue;
    ops_[keep] = ops_[i];
    not_before_[keep] = not_before_[i];
    arrival_[keep] = arrival_[i];
    order_[keep] = order_[i];
    page_[keep] = page_[i];
    ++keep;
  }
  // Shrinking resizes: they never allocate.
  ops_.resize(keep);
  not_before_.resize(keep);
  arrival_.resize(keep);
  order_.resize(keep);
  page_.resize(keep);
}

void InputBuffer::saveState(ckpt::StateWriter& w) const {
  w.u64(ops_.size());
  for (std::size_t i = 0; i < ops_.size(); ++i) {
    saveMemOp(w, ops_[i]);
    w.u8(isMbe(i) ? 1 : 0);
    w.u64(not_before_[i]);
    w.u64(arrival_[i]);
    w.u64(order_[i]);
  }
  w.u64(next_order_);
}

void InputBuffer::loadState(ckpt::StateReader& r) {
  const std::uint64_t n = r.u64();
  // Structural bound: carried + newly-computed loads plus the one MBE slot.
  MALEC_CHECK_MSG(n <= carry_slots_ + agu_slots_ + 1u,
                  "input-buffer checkpoint exceeds this capacity");
  ops_.clear();
  not_before_.clear();
  arrival_.clear();
  order_.clear();
  page_.clear();
  mbe_pos_ = kNoMbe;
  for (std::uint64_t i = 0; i < n; ++i) {
    ops_.push_back(loadMemOp(r));
    const bool is_mbe = r.u8() != 0;
    if (is_mbe) {
      MALEC_CHECK_MSG(mbe_pos_ == kNoMbe,
                      "input-buffer checkpoint holds two MBEs");
      mbe_pos_ = static_cast<std::size_t>(i);
    }
    not_before_.push_back(r.u64());
    arrival_.push_back(r.u64());
    order_.push_back(r.u64());
    page_.push_back(layout_.pageId(ops_.back().vaddr));
  }
  next_order_ = r.u64();
}

}  // namespace malec::core
