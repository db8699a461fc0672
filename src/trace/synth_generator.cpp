#include "trace/synth_generator.h"

#include <algorithm>

#include "ckpt/state_io.h"
#include "common/check.h"

namespace malec::trace {

namespace {
/// Base of the synthetic data segment; keeps addresses away from page 0.
constexpr Addr kDataBase = 0x1000'0000ull;
}  // namespace

SyntheticTraceGenerator::SyntheticTraceGenerator(WorkloadProfile profile,
                                                 AddressLayout layout,
                                                 std::uint64_t num_instructions,
                                                 std::uint64_t seed)
    : profile_(std::move(profile)),
      layout_(layout),
      limit_(num_instructions),
      seed_(seed),
      rng_(seed) {
  MALEC_CHECK(profile_.streams >= 1);
  MALEC_CHECK(profile_.ws_pages >= 1);
  MALEC_CHECK(profile_.mem_fraction >= 0.0 && profile_.mem_fraction <= 1.0);
  MALEC_CHECK(profile_.load_share >= 0.0 && profile_.load_share <= 1.0);
  reset();
}

void SyntheticTraceGenerator::reset() {
  // Re-derive the RNG from (seed, name-hash) so two benchmarks with equal
  // seeds still see independent streams.
  std::uint64_t h = 1469598103934665603ull;
  for (char c : profile_.name) h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
  rng_ = Rng(seed_ ^ h);
  emitted_ = 0;
  seq_ = 0;
  streams_.assign(profile_.streams, Stream{});
  for (std::uint32_t s = 0; s < profile_.streams; ++s) {
    streams_[s].page_index = static_cast<std::uint32_t>(rng_.below(
        std::max<std::uint32_t>(1, std::min(profile_.hot_pages,
                                            profile_.ws_pages))));
    // Page and line sizes are powers of two (AddressLayout checks it), so
    // here and below rng_.below(size) is next() & (size - 1), minus the
    // divide.
    streams_[s].offset = rng_.next() & (layout_.pageBytes() - 1) & ~7ull;
  }
  active_stream_ = 0;
  has_last_load_ = false;
  store_stream_ = Stream{};
  store_stream_.page_index =
      profile_.ws_pages > 1 ? profile_.ws_pages - 1 : 0;
  has_last_store_ = false;
  since_last_load_ = 0;
}

Addr SyntheticTraceGenerator::pageBase(std::uint32_t page_index) const {
  return kDataBase + static_cast<Addr>(page_index) * layout_.pageBytes();
}

std::uint32_t SyntheticTraceGenerator::pickPage(bool streaming_next,
                                                std::uint32_t current) {
  if (streaming_next) return (current + 1) % profile_.ws_pages;
  const std::uint32_t hot =
      std::min(profile_.hot_pages, profile_.ws_pages);
  if (hot > 0 && rng_.chance(profile_.hot_fraction))
    return static_cast<std::uint32_t>(rng_.below(hot));
  return static_cast<std::uint32_t>(rng_.below(profile_.ws_pages));
}

Addr SyntheticTraceGenerator::nextLoadAddr() {
  // Same-line re-touch: models the 46 % of loads directly followed by a
  // load to the same cache line (Sec. III), which feeds MALEC's merging.
  if (has_last_load_ && rng_.chance(profile_.p_same_line)) {
    const Addr off = rng_.next() & (layout_.lineBytes() - 1) &
                     ~static_cast<Addr>(profile_.access_size - 1);
    return last_load_line_base_ + off;
  }

  if (rng_.chance(profile_.p_switch_stream) && streams_.size() > 1) {
    active_stream_ = static_cast<std::uint32_t>(rng_.below(streams_.size()));
  }
  Stream& st = streams_[active_stream_];

  if (!rng_.chance(profile_.p_same_page)) {
    st.page_index =
        pickPage(rng_.chance(profile_.p_stream_advance), st.page_index);
    if (!rng_.chance(profile_.p_sequential))
      st.offset = rng_.next() & (layout_.pageBytes() - 1);
  }

  if (rng_.chance(profile_.p_sequential)) {
    st.offset += profile_.stride_bytes;
    if (st.offset >= layout_.pageBytes()) {
      st.offset = 0;
      st.page_index = pickPage(true, st.page_index);
    }
  } else {
    st.offset = rng_.next() & (layout_.pageBytes() - 1);
  }
  st.offset &= ~static_cast<Addr>(profile_.access_size - 1);
  return pageBase(st.page_index) + st.offset;
}

Addr SyntheticTraceGenerator::nextStoreAddr() {
  // Read-modify-write: a good fraction of stores touch the page (often the
  // line) that was just loaded, so stores rarely break load page chains.
  if (has_last_load_ && rng_.chance(profile_.store_near_load)) {
    const Addr off = rng_.next() & (layout_.lineBytes() - 1) &
                     ~static_cast<Addr>(profile_.access_size - 1);
    return last_load_line_base_ + off;
  }
  // Otherwise stores walk their own region with very high page locality and
  // frequent adjacency (exploited by the Merge Buffer, Sec. III).
  if (has_last_store_ && rng_.chance(profile_.store_p_adjacent)) {
    Addr a = last_store_addr_ + profile_.access_size;
    if (layout_.pageId(a) == layout_.pageId(last_store_addr_)) return a;
  }
  Stream& st = store_stream_;
  if (!rng_.chance(profile_.store_p_same_page)) {
    st.page_index =
        pickPage(rng_.chance(profile_.p_stream_advance), st.page_index);
  }
  if (rng_.chance(profile_.p_sequential)) {
    st.offset += profile_.access_size;
    if (st.offset >= layout_.pageBytes()) st.offset = 0;
  } else {
    st.offset = rng_.next() & (layout_.pageBytes() - 1);
  }
  st.offset &= ~static_cast<Addr>(profile_.access_size - 1);
  return pageBase(st.page_index) + st.offset;
}

void SyntheticTraceGenerator::emitDeps(InstrRecord& r) {
  if (since_last_load_ < 1u << 20 && rng_.chance(profile_.dep_on_load)) {
    const std::uint32_t extra =
        rng_.geometric(0.5, profile_.dep_distance_cap);
    r.dep_distance = since_last_load_ + 1 + extra;
    if (r.dep_distance > r.seq) r.dep_distance = 0;
  } else if (rng_.chance(profile_.dep_on_prev)) {
    // Serial ALU chain: depend on the immediately preceding instruction.
    r.dep_distance = r.seq >= 1 ? 1 : 0;
  }
  if (r.isMem() && rng_.chance(profile_.addr_dep_on_load)) {
    r.addr_dep_distance = since_last_load_ + 1;
    if (r.addr_dep_distance > r.seq) r.addr_dep_distance = 0;
  }
}

bool SyntheticTraceGenerator::next(InstrRecord& out) {
  if (limit_ != 0 && emitted_ >= limit_) return false;

  out = InstrRecord{};
  out.seq = seq_++;
  ++emitted_;

  if (rng_.chance(profile_.mem_fraction)) {
    const bool is_load = rng_.chance(profile_.load_share);
    out.kind = is_load ? InstrKind::kLoad : InstrKind::kStore;
    out.size = static_cast<std::uint8_t>(profile_.access_size);
    if (is_load) {
      out.vaddr = nextLoadAddr();
      last_load_line_base_ = layout_.lineBase(out.vaddr);
      has_last_load_ = true;
    } else {
      out.vaddr = nextStoreAddr();
      last_store_addr_ = out.vaddr;
      has_last_store_ = true;
    }
  }

  emitDeps(out);

  if (out.isLoad()) {
    since_last_load_ = 0;
  } else {
    ++since_last_load_;
  }
  return true;
}

void SyntheticTraceGenerator::saveState(ckpt::StateWriter& w) const {
  w.u64(rng_.state());
  w.u64(emitted_);
  w.u64(seq_);
  w.u64(streams_.size());
  for (const Stream& st : streams_) {
    w.u32(st.page_index);
    w.u64(st.offset);
  }
  w.u32(active_stream_);
  w.u8(has_last_load_ ? 1 : 0);
  w.u64(last_load_line_base_);
  w.u32(store_stream_.page_index);
  w.u64(store_stream_.offset);
  w.u8(has_last_store_ ? 1 : 0);
  w.u64(last_store_addr_);
  w.u32(since_last_load_);
}

void SyntheticTraceGenerator::loadState(ckpt::StateReader& r) {
  rng_.setState(r.u64());
  emitted_ = r.u64();
  seq_ = r.u64();
  MALEC_CHECK_MSG(r.u64() == streams_.size(),
                  "generator checkpoint does not fit this profile");
  for (Stream& st : streams_) {
    st.page_index = r.u32();
    st.offset = r.u64();
  }
  active_stream_ = r.u32();
  // nextLoadAddr indexes streams_ with it.
  MALEC_CHECK_MSG(active_stream_ < streams_.size(),
                  "generator checkpoint's active stream index is not below "
                  "its stream count");
  has_last_load_ = r.u8() != 0;
  last_load_line_base_ = r.u64();
  store_stream_.page_index = r.u32();
  store_stream_.offset = r.u64();
  has_last_store_ = r.u8() != 0;
  last_store_addr_ = r.u64();
  since_last_load_ = r.u32();
}

}  // namespace malec::trace
