// mem::Cache, the one tag store under the L1, the L2 and the WDU, checked
// in each geometry it is built in against RefCache: a test-only reference
// in the shape of qemu-bbv-plugin's `cache_t::access` (set and tag masks,
// a per-set recency list, no timing). test_l1_cache, test_l2_cache and
// test_wdu check each instance in the role its owner gives it.
#include "mem/cache.h"

#include <gtest/gtest.h>

#include <list>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/address.h"
#include "common/rng.h"

namespace malec::mem {
namespace {

struct Geometry {
  const char* name;
  std::uint32_t sets, ways, line_bytes;
};

void PrintTo(const Geometry& g, std::ostream* os) { *os << g.name; }

// Table II's L1 (32 KByte, 4-way, 64-byte lines) and L2 (1 MByte, 16-way)
// and a 16-entry WDU (one set, 1-byte lines: the tag is the line address).
const Geometry kGeometries[] = {
    {"L1", 128, 4, 64}, {"L2", 1024, 16, 64}, {"WDU", 1, 16, 1}};

/// The line base of the `tag`-th line mapping to `set`.
Addr lineIn(const Geometry& g, std::uint32_t set, std::uint64_t tag) {
  return (tag * g.sets + set) * g.line_bytes;
}

/// One access: hit, way, a line evicted, the victim's base, its dirtiness.
using Outcome = std::tuple<bool, std::uint32_t, bool, Addr, bool>;

/// A hit moves its way to the front of the set's recency list; a miss
/// takes the first invalid allowed way, else the allowed way nearest the
/// back of the list.
class RefCache {
 public:
  explicit RefCache(const Geometry& g)
      : ways_(g.ways),
        shift_(log2Exact(g.line_bytes)),
        set_mask_((Addr{g.sets} - 1) << shift_),
        tag_mask_(~(set_mask_ | (Addr{g.line_bytes} - 1))),
        blocks_(std::size_t{g.sets} * g.ways),
        recency_(g.sets) {}

  Outcome access(Addr addr, bool write, std::uint64_t allowed) {
    const Addr set = (addr & set_mask_) >> shift_;
    std::optional<std::uint32_t> way = find(addr);
    Outcome out{way.has_value(), 0, false, 0, false};
    for (std::uint32_t w = 0; !way && w < ways_; ++w)
      if ((allowed >> w & 1) != 0 && !block(set, w).valid) way = w;
    for (auto it = recency_[set].rbegin(); !way && it != recency_[set].rend();
         ++it) {
      if ((allowed >> *it & 1) == 0) continue;
      way = *it;
      out = {false, 0, true, block(set, *it).tag | set << shift_,
             block(set, *it).dirty};
    }
    Block& b = block(set, *way);
    if (!std::get<0>(out)) b = Block{true, false, addr & tag_mask_};
    b.dirty = b.dirty || write;
    std::get<1>(out) = *way;
    recency_[set].remove(*way);
    recency_[set].push_front(*way);
    return out;
  }

  std::optional<bool> invalidate(Addr addr) {
    const auto way = find(addr);
    if (!way) return std::nullopt;
    return std::exchange(block((addr & set_mask_) >> shift_, *way), Block{})
        .dirty;
  }

 private:
  struct Block {
    bool valid = false;
    bool dirty = false;
    Addr tag = 0;  ///< the address under tag_mask_
  };

  Block& block(Addr set, std::uint32_t way) {
    return blocks_[set * ways_ + way];
  }

  std::optional<std::uint32_t> find(Addr addr) {
    for (std::uint32_t w = 0; w < ways_; ++w) {
      const Block& b = block((addr & set_mask_) >> shift_, w);
      if (b.valid && b.tag == (addr & tag_mask_)) return w;
    }
    return std::nullopt;
  }

  std::uint32_t ways_;
  std::uint32_t shift_;
  Addr set_mask_;
  Addr tag_mask_;
  std::vector<Block> blocks_;
  std::vector<std::list<std::uint32_t>> recency_;  ///< MRU first
};

/// One access through Cache's API, as the memory hierarchy drives it.
Outcome access(Cache& c, Addr addr, bool write, std::uint64_t allowed) {
  Outcome out;
  if (const auto w = c.probe(addr); w.has_value()) {
    c.touch(addr, *w);
    out = {true, static_cast<std::uint32_t>(*w), false, 0, false};
  } else {
    const auto f = c.fill(addr, allowed);
    out = {false, static_cast<std::uint32_t>(f.way), f.evicted,
           f.evicted_line_base, f.evicted_dirty};
  }
  if (write) c.markDirty(addr, static_cast<WayIdx>(std::get<1>(out)));
  return out;
}

// The oracle: random accesses, writes and invalidates, with every way
// allowed or a random allowed-way mask per fill.
class CacheOracle
    : public ::testing::TestWithParam<std::tuple<Geometry, bool>> {};

TEST_P(CacheOracle, MatchesReferenceOnRandomAccesses) {
  const auto& [g, masked] = GetParam();
  Cache cache(g.sets, g.ways, g.line_bytes);
  RefCache ref(g);
  Rng rng(41);
  // Lines of four sets, each set's tags drawn from twice its ways, so
  // hits, fills and evictions all recur; now and then a far line.
  const std::uint32_t sets[] = {0, 1 % g.sets, 37 % g.sets, g.sets - 1};
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t tag =
        rng.below(rng.chance(0.05) ? 1u << 16 : 2 * g.ways);
    const Addr addr =
        lineIn(g, sets[rng.below(4)], tag) + rng.below(g.line_bytes);
    if (rng.chance(0.05)) {
      ASSERT_EQ(cache.invalidate(addr), ref.invalidate(addr)) << "op " << i;
      continue;
    }
    const bool write = rng.chance(0.3);
    const std::uint64_t allowed =
        masked ? rng.below(cache.allWays()) + 1 : cache.allWays();
    const Outcome got = access(cache, addr, write, allowed);
    ASSERT_EQ(got, ref.access(addr, write, allowed)) << "op " << i;
    ASSERT_TRUE(std::get<0>(got) || (allowed >> std::get<1>(got) & 1) != 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllGeometries, CacheOracle,
    ::testing::Combine(::testing::ValuesIn(kGeometries), ::testing::Bool()),
    [](const auto& info) {
      return std::string(std::get<0>(info.param).name) +
             (std::get<1>(info.param) ? "_masked" : "_allWays");
    });

// A line keeps its tag in the 62 bits above its valid and dirty bits. In
// the WDU geometry the tag is the whole line address: the widest one that
// fits round-trips through a fill, a dirty eviction and an invalidate, and
// a wider one aborts instead of aliasing a narrower line.
TEST(Cache, TagsOf62BitsRoundTrip) {
  Cache cache(1, 2, 1);
  const Addr widest = (Addr{1} << 62) - 1;
  ASSERT_EQ(cache.fill(widest, cache.allWays()).way, 0);
  cache.markDirty(widest, 0);
  EXPECT_EQ(cache.probe(widest), std::optional<WayIdx>(0));
  EXPECT_EQ(cache.probe(widest >> 1), std::nullopt);
  ASSERT_EQ(cache.fill(7, cache.allWays()).way, 1);
  cache.touch(7, 1);
  const Cache::FillResult evict = cache.fill(8, cache.allWays());
  EXPECT_TRUE(evict.evicted);
  EXPECT_TRUE(evict.evicted_dirty);
  EXPECT_EQ(evict.evicted_line_base, widest);
  EXPECT_EQ(cache.invalidate(7), std::optional<bool>(false));
  EXPECT_EQ(cache.probe(7), std::nullopt);
}

TEST(CacheDeath, TagWiderThan62BitsAborts) {
  Cache cache(1, 2, 1);
  EXPECT_DEATH((void)cache.fill(Addr{1} << 62, cache.allWays()),
               "does not fit in 62 bits");
}

}  // namespace
}  // namespace malec::mem
