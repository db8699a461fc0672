#include "phase/interval_profiler.h"

#include <utility>

#include "common/check.h"

namespace malec::phase {

namespace {

/// Buckets of the hashed page-region histogram (the BBV analogue).
constexpr std::uint32_t kRegionBuckets = 32;
/// Pages per address region: consecutive pages that fall into the same
/// histogram slot before hashing (captures medium-range locality).
constexpr std::uint32_t kPagesPerRegion = 16;
/// Buckets of the log2 |consecutive-load stride| histogram.
constexpr std::uint32_t kStrideBuckets = 8;

/// SplitMix64-style finaliser, spreading consecutive region ids across the
/// histogram buckets. Pure u64 math — identical on every platform.
std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  x ^= x >> 31;
  return x;
}

/// Bucket index for the log2 |stride| histogram: 0 = same address,
/// otherwise 1 + floor(log2 |delta|), clamped to the last bucket. The
/// shrink-the-delta loop (rather than grow-the-shift) cannot shift past
/// the operand width, so a full-range 64-bit delta (external traces may
/// span the canonical-address halves) stays defined and terminates.
std::uint32_t strideBucket(Addr a, Addr b) {
  std::uint64_t delta = a > b ? a - b : b - a;
  if (delta == 0) return 0;
  std::uint32_t lg = 0;
  while (delta > 1) {
    delta >>= 1;
    ++lg;
  }
  const std::uint32_t bucket = 1 + lg;
  return bucket < kStrideBuckets ? bucket : kStrideBuckets - 1;
}

}  // namespace

IntervalProfiler::IntervalProfiler(AddressLayout layout,
                                   std::uint64_t interval_size)
    : layout_(layout),
      interval_size_(interval_size),
      region_hist_(kRegionBuckets, 0),
      stride_hist_(kStrideBuckets, 0),
      loc_(layout, {0}) {
  MALEC_CHECK_MSG(interval_size_ > 0, "interval size must be positive");
}

void IntervalProfiler::observe(const trace::InstrRecord& r) {
  ++in_interval_;
  loc_.observe(r);
  if (r.isMem()) {
    ++mem_refs_;
    if (r.isLoad()) {
      ++loads_;
      if (have_prev_load_)
        ++stride_hist_[strideBucket(r.vaddr, prev_load_addr_)];
      prev_load_addr_ = r.vaddr;
      have_prev_load_ = true;
    } else {
      ++stores_;
    }
    const std::uint64_t region =
        static_cast<std::uint64_t>(layout_.pageId(r.vaddr)) / kPagesPerRegion;
    ++region_hist_[mix64(region) % kRegionBuckets];
  }
  if (in_interval_ >= interval_size_) closeInterval();
}

void IntervalProfiler::closeInterval() {
  IntervalFeatures f;
  f.index = intervals_.size();
  f.instructions = in_interval_;
  f.mem_refs = mem_refs_;
  f.loads = loads_;
  f.stores = stores_;

  // Normalised feature vector: region histogram, stride histogram, the
  // instruction mix and the LocalityAnalyzer follow fractions. Divisors are
  // the interval's own counts, so a short trailing interval is comparable
  // to full ones.
  f.vec.reserve(region_hist_.size() + stride_hist_.size() + 5);
  const double mem = mem_refs_ > 0 ? static_cast<double>(mem_refs_) : 1.0;
  for (const std::uint64_t c : region_hist_)
    f.vec.push_back(static_cast<double>(c) / mem);
  const double ld_pairs =
      loads_ > 1 ? static_cast<double>(loads_ - 1) : 1.0;
  for (const std::uint64_t c : stride_hist_)
    f.vec.push_back(static_cast<double>(c) / ld_pairs);
  f.vec.push_back(static_cast<double>(mem_refs_) /
                  static_cast<double>(in_interval_));
  f.vec.push_back(static_cast<double>(loads_) / mem);
  const auto groups = loc_.pageGroups();
  f.vec.push_back(groups.empty() ? 0.0 : groups[0].frac_followed);
  f.vec.push_back(loc_.sameLineFollowedFraction());
  f.vec.push_back(loc_.storeSamePageFollowedFraction());
  intervals_.push_back(std::move(f));

  in_interval_ = 0;
  mem_refs_ = loads_ = stores_ = 0;
  region_hist_.assign(kRegionBuckets, 0);
  stride_hist_.assign(kStrideBuckets, 0);
  loc_ = trace::LocalityAnalyzer(layout_, {0});
  have_prev_load_ = false;
  prev_load_addr_ = 0;
}

std::vector<IntervalFeatures> IntervalProfiler::finish() {
  if (in_interval_ > 0) closeInterval();
  return std::move(intervals_);
}

}  // namespace malec::phase
