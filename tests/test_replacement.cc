/**
 * @file
 * Unit tests for the cache's replacement policies, driven through
 * Cache::access and observed through Cache::probe: LRU recency ranks,
 * SRRIP RRPVs and Random victims all live in the cache's per-set
 * metadata rows.
 */
#include <gtest/gtest.h>

#include <array>
#include <set>

#include "audit/audit.h"
#include "cache/cache.h"
#include "common/rng.h"

namespace moka {
namespace {

/** A local-completion cache (no lower level) of the given shape. */
Cache
make_cache(std::uint32_t sets, std::uint32_t ways, ReplacementKind kind)
{
    CacheConfig cfg;
    cfg.sets = sets;
    cfg.ways = ways;
    cfg.latency = 1;
    cfg.mshr_entries = 64;
    cfg.replacement = kind;
    return Cache(cfg, nullptr);
}

/** Demand-load block number @p block at cycle @p now. */
bool
load(Cache &c, Addr block, Cycle now)
{
    return c.access(PhysAddr{block << kBlockBits}, AccessType::kLoad, now)
        .hit;
}

bool
resident(const Cache &c, Addr block)
{
    return c.probe(PhysAddr{block << kBlockBits});
}

TEST(Replacement, LruEvictsOldest)
{
    // Two sets; even blocks index set 0.
    Cache c = make_cache(2, 4, ReplacementKind::kLru);
    Cycle now = 0;
    for (Addr b : {0, 2, 4, 6}) {
        EXPECT_FALSE(load(c, b, now += 10));
    }
    EXPECT_TRUE(load(c, 0, now += 10));  // block 2 is now oldest
    EXPECT_FALSE(load(c, 8, now += 10));
    EXPECT_FALSE(resident(c, 2));
    EXPECT_TRUE(resident(c, 0));
    EXPECT_TRUE(load(c, 4, now += 10));  // block 6 is now oldest
    EXPECT_FALSE(load(c, 10, now += 10));
    EXPECT_FALSE(resident(c, 6));
    EXPECT_TRUE(resident(c, 4));
}

TEST(Replacement, LruSetsIndependent)
{
    Cache c = make_cache(2, 2, ReplacementKind::kLru);
    Cycle now = 0;
    load(c, 0, now += 10);  // set 0: 0 then 2
    load(c, 2, now += 10);
    load(c, 3, now += 10);  // set 1: 3 then 1
    load(c, 1, now += 10);
    load(c, 4, now += 10);  // evicts set 0's oldest
    load(c, 5, now += 10);  // evicts set 1's oldest
    EXPECT_FALSE(resident(c, 0));
    EXPECT_TRUE(resident(c, 2));
    EXPECT_FALSE(resident(c, 3));
    EXPECT_TRUE(resident(c, 1));
}

TEST(Replacement, SrripHitPromotes)
{
    Cache c = make_cache(1, 4, ReplacementKind::kSrrip);
    Cycle now = 0;
    for (Addr b = 0; b < 4; ++b) {
        load(c, b, now += 10);  // inserted with a long re-reference
    }
    EXPECT_TRUE(load(c, 2, now += 10));  // rrpv 0: near-immediate
    // All other blocks age together; block 2 outlives three misses.
    for (Addr b = 4; b < 7; ++b) {
        EXPECT_FALSE(load(c, b, now += 10));
        EXPECT_TRUE(resident(c, 2)) << "evicted by block " << b;
    }
    EXPECT_FALSE(resident(c, 0));
}

TEST(Replacement, RandomCoversAllWays)
{
    Cache c = make_cache(1, 4, ReplacementKind::kRandom);
    Cycle now = 0;
    // Invalid ways fill in order, so slot w of `ways` mirrors way w.
    std::array<Addr, 4> ways = {0, 1, 2, 3};
    for (Addr b : ways) {
        load(c, b, now += 10);
    }
    std::set<std::size_t> evicted;
    for (Addr b = 4; b < 204; ++b) {
        ASSERT_FALSE(load(c, b, now += 10));
        std::size_t gone = ways.size();
        for (std::size_t w = 0; w < ways.size(); ++w) {
            if (!resident(c, ways[w])) {
                ASSERT_EQ(gone, ways.size()) << "two blocks evicted";
                gone = w;
            }
        }
        ASSERT_LT(gone, ways.size()) << "no block evicted";
        ways[gone] = b;
        evicted.insert(gone);
    }
    EXPECT_EQ(evicted.size(), 4u);
}

/** Property: every fill lands in the set and the state stays legal. */
class VictimBounds : public ::testing::TestWithParam<ReplacementKind>
{
};

TEST_P(VictimBounds, AlwaysInRange)
{
    Cache c = make_cache(8, 6, GetParam());
    Rng rng(9);
    Cycle now = 0;
    for (int i = 0; i < 2000; ++i) {
        const Addr block = rng.below(8 * 6 * 3);
        load(c, block, now += 10);
        ASSERT_TRUE(resident(c, block)) << "step " << i;
    }
    AuditReport report(/*forward=*/false);
    audit::audit_cache(c, report);
    EXPECT_TRUE(report.ok()) << report.to_string();
}

INSTANTIATE_TEST_SUITE_P(Policies, VictimBounds,
                         ::testing::Values(ReplacementKind::kLru,
                                           ReplacementKind::kSrrip,
                                           ReplacementKind::kRandom));

}  // namespace
}  // namespace moka
