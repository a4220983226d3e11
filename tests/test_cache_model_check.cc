/**
 * @file
 * Model-checking tests: drive the Cache and Tlb with random traffic
 * and compare hit/miss outcomes against simple golden reference
 * models (a map-of-sets LRU). Catches indexing/tagging/replacement
 * regressions that example-based tests miss, including replacement
 * state that does not survive a snapshot round trip. A timed golden
 * adds per-block fill cycles, the port and the MSHRs, and pins every
 * access's completion cycle and its hit/merge outcome.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <memory>
#include <map>
#include <vector>

#include "cache/cache.h"
#include "common/hashing.h"
#include "common/rng.h"
#include "snapshot/snapshot.h"
#include "vmem/tlb.h"

namespace moka {
namespace {

/** Golden fully-explicit LRU set-associative model. */
class GoldenCache
{
  public:
    GoldenCache(std::uint32_t sets, std::uint32_t ways)
        : sets_(sets), ways_(ways), data_(sets)
    {
    }

    /** True when resident; touches LRU. Installs on miss. */
    bool
    access(Addr block)
    {
        auto &set = data_[block & (sets_ - 1)];
        for (auto it = set.begin(); it != set.end(); ++it) {
            if (*it == block) {
                set.erase(it);
                set.push_front(block);
                return true;
            }
        }
        set.push_front(block);
        if (set.size() > ways_) {
            set.pop_back();
        }
        return false;
    }

  private:
    std::uint32_t sets_;
    std::uint32_t ways_;
    std::vector<std::list<Addr>> data_;
};

/** Cache geometry sweep parameter. */
struct Geometry
{
    std::uint32_t sets;
    std::uint32_t ways;
};

class CacheModelCheck : public ::testing::TestWithParam<Geometry>
{
};

TEST_P(CacheModelCheck, MatchesGoldenLru)
{
    const Geometry g = GetParam();
    CacheConfig cfg;
    cfg.sets = g.sets;
    cfg.ways = g.ways;
    cfg.latency = 1;
    cfg.mshr_entries = 64;
    Cache cache(cfg, nullptr);
    GoldenCache golden(g.sets, g.ways);

    Rng rng(g.sets * 1000 + g.ways);
    Cycle now = 0;
    for (int i = 0; i < 20000; ++i) {
        // Footprint ~4x the cache so hits and misses both occur.
        const Addr block = rng.below(std::uint64_t(g.sets) * g.ways * 4);
        const Addr paddr = block << kBlockBits;
        now += 10;  // fills complete before the next access
        const AccessResult r =
            cache.access(PhysAddr{paddr}, AccessType::kLoad, now);
        const bool golden_hit = golden.access(block);
        ASSERT_EQ(r.hit, golden_hit)
            << "divergence at step " << i << " block " << block;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheModelCheck,
    ::testing::Values(Geometry{1, 1}, Geometry{1, 4}, Geometry{4, 1},
                      Geometry{16, 2}, Geometry{64, 8},
                      Geometry{128, 12}));

/**
 * The simulated machine's cache geometries (L1I, L1D, L2 and the
 * single-core 2MB LLC) under random loads and stores, with a
 * save -> restore into a fresh cache halfway: the restored cache must
 * continue exactly as the golden model does.
 */
class CacheRestoreModelCheck : public ::testing::TestWithParam<Geometry>
{
};

TEST_P(CacheRestoreModelCheck, MatchesGoldenLruAcrossRestore)
{
    const Geometry g = GetParam();
    CacheConfig cfg;
    cfg.sets = g.sets;
    cfg.ways = g.ways;
    cfg.latency = 1;
    cfg.mshr_entries = 64;
    auto cache = std::make_unique<Cache>(cfg, nullptr);
    GoldenCache golden(g.sets, g.ways);

    const std::uint64_t blocks = std::uint64_t(g.sets) * g.ways;
    const std::uint64_t steps = std::max<std::uint64_t>(20000, 4 * blocks);
    Rng rng(g.sets * 31 + g.ways);
    Cycle now = 0;
    for (std::uint64_t i = 0; i < steps; ++i) {
        if (i == steps / 2) {
            SnapshotWriter w(0);
            w.begin_section("cache");
            cache->save_state(w);
            const std::string bytes = w.finish();
            SnapshotReader r(bytes);
            auto fresh = std::make_unique<Cache>(cfg, nullptr);
            r.begin_section("cache");
            fresh->restore_state(r);
            r.finish();
            cache = std::move(fresh);
        }
        // Footprint 2x the cache: about half the accesses hit.
        const Addr block = rng.below(2 * blocks);
        const AccessType type =
            rng.below(4) == 0 ? AccessType::kStore : AccessType::kLoad;
        now += 10;  // fills complete before the next access
        const AccessResult r =
            cache->access(PhysAddr{block << kBlockBits}, type, now);
        const bool golden_hit = golden.access(block);
        ASSERT_EQ(r.hit, golden_hit)
            << "divergence at step " << i << " block " << block;
    }
}

INSTANTIATE_TEST_SUITE_P(
    PaperGeometries, CacheRestoreModelCheck,
    ::testing::Values(Geometry{64, 12}, Geometry{64, 8},
                      Geometry{1024, 8}, Geometry{2048, 16}));

/**
 * Stateless lower level: the completion cycle is a hash of the
 * request, 20-275 cycles out, so the cache and the golden model see
 * the same latencies without sharing any state.
 */
class HashedLatencyLevel final : public MemoryLevel
{
  public:
    static Cycle done(PhysAddr paddr, Cycle now)
    {
        return now + 20 + (mix64(paddr.raw() ^ (now << 20)) & 0xFF);
    }

    AccessResult access(PhysAddr paddr, AccessType, Cycle now,
                        bool) override
    {
        AccessResult r;
        r.done = done(paddr, now);
        return r;
    }
};

/**
 * Golden timed LRU cache over HashedLatencyLevel: each block keeps its
 * fill cycle, one request enters per cycle, a miss waits for an MSHR
 * when all are in flight, and an access before its block's fill
 * cycle merges (writebacks never do).
 */
class GoldenTimedCache
{
  public:
    explicit GoldenTimedCache(const CacheConfig &cfg)
        : cfg_(cfg), data_(cfg.sets)
    {
    }

    AccessResult
    access(Addr block, AccessType type, Cycle now)
    {
        const Cycle start = std::max(now, next_port_free_);
        next_port_free_ = start + 1;
        Cycle t = start + cfg_.latency;
        const PhysAddr paddr{block << kBlockBits};
        auto &set = data_[block & (cfg_.sets - 1)];
        AccessResult r;
        for (auto it = set.begin(); it != set.end(); ++it) {
            if (it->block != block) {
                continue;
            }
            Block b = *it;
            set.erase(it);
            if (b.fill_done > t && type != AccessType::kWriteback) {
                r.done = b.fill_done;
                r.merged = true;
            } else {
                r.done = t;
                r.hit = true;
            }
            set.push_front(b);
            return r;
        }
        if (type == AccessType::kWriteback) {
            r.done = HashedLatencyLevel::done(paddr, t);
            return r;
        }
        const auto drain = [this](Cycle upto) {
            inflight_.erase(
                std::remove_if(inflight_.begin(), inflight_.end(),
                               [upto](Cycle c) { return c <= upto; }),
                inflight_.end());
        };
        drain(t);
        if (inflight_.size() >= cfg_.mshr_entries) {
            t = *std::min_element(inflight_.begin(), inflight_.end());
            drain(t);
        }
        const Cycle fill_done =
            HashedLatencyLevel::done(paddr, t) + cfg_.latency;
        inflight_.push_back(fill_done);
        if (set.size() == cfg_.ways) {
            // A dirty victim's writeback leaves the stateless lower
            // level as it was, so dirt needs no modelling here.
            set.pop_back();
        }
        set.push_front({block, fill_done});
        r.done = fill_done;
        return r;
    }

  private:
    struct Block
    {
        Addr block;
        Cycle fill_done;
    };

    CacheConfig cfg_;
    std::vector<std::list<Block>> data_;
    std::vector<Cycle> inflight_;
    Cycle next_port_free_ = 0;
};

class CacheTimedModelCheck : public ::testing::TestWithParam<Geometry>
{
};

TEST_P(CacheTimedModelCheck, MatchesGoldenFillCyclesAcrossRestore)
{
    const Geometry g = GetParam();
    CacheConfig cfg;
    cfg.sets = g.sets;
    cfg.ways = g.ways;
    cfg.latency = 4;
    cfg.mshr_entries = 8;
    HashedLatencyLevel lower;
    auto cache = std::make_unique<Cache>(cfg, &lower);
    GoldenTimedCache golden(cfg);

    const std::uint64_t blocks = std::uint64_t(g.sets) * g.ways;
    const std::uint64_t steps = std::max<std::uint64_t>(30000, 4 * blocks);
    Rng rng(g.sets * 131 + g.ways);
    Cycle now = 0;
    std::uint64_t merged = 0;
    for (std::uint64_t i = 0; i < steps; ++i) {
        if (i == steps / 2) {
            // Fills are still in flight here: the restored cache must
            // merge into them exactly as the saved one would have.
            SnapshotWriter w(0);
            w.begin_section("cache");
            cache->save_state(w);
            const std::string bytes = w.finish();
            SnapshotReader r(bytes);
            auto fresh = std::make_unique<Cache>(cfg, &lower);
            r.begin_section("cache");
            fresh->restore_state(r);
            r.finish();
            cache = std::move(fresh);
        }
        // Footprint 2x the cache; arrivals a few cycles apart, at
        // times out of order, against fills 24-279 cycles out.
        const Addr block = rng.below(2 * blocks);
        static constexpr AccessType kTypes[] = {
            AccessType::kLoad, AccessType::kLoad, AccessType::kStore,
            AccessType::kPrefetch, AccessType::kWriteback};
        const AccessType type = kTypes[rng.below(5)];
        now += rng.below(6);
        if (rng.below(8) == 0) {
            now -= std::min<Cycle>(now, 3);  // arrives out of order
        }
        const AccessResult got =
            cache->access(PhysAddr{block << kBlockBits}, type, now);
        const AccessResult want = golden.access(block, type, now);
        ASSERT_EQ(got.done, want.done) << "step " << i << " block " << block;
        ASSERT_EQ(got.hit, want.hit) << "step " << i << " block " << block;
        ASSERT_EQ(got.merged, want.merged)
            << "step " << i << " block " << block;
        merged += got.merged ? 1 : 0;
    }
    EXPECT_GT(merged, steps / 100);  // the merge path is exercised
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheTimedModelCheck,
    ::testing::Values(Geometry{1, 4}, Geometry{16, 2}, Geometry{64, 8},
                      Geometry{64, 12}, Geometry{1024, 8},
                      Geometry{2048, 16}));

class TlbModelCheck : public ::testing::TestWithParam<Geometry>
{
};

TEST_P(TlbModelCheck, MatchesGoldenLru)
{
    const Geometry g = GetParam();
    TlbConfig cfg;
    cfg.sets = g.sets;
    cfg.ways = g.ways;
    cfg.large_sets = 1;
    cfg.large_ways = 1;
    Tlb tlb(cfg);
    GoldenCache golden(g.sets, g.ways);

    Rng rng(g.sets * 77 + g.ways);
    for (int i = 0; i < 20000; ++i) {
        const Addr vpn = rng.below(std::uint64_t(g.sets) * g.ways * 4);
        const Addr vaddr = vpn << kPageBits;
        const Tlb::Result r = tlb.lookup(VirtAddr{vaddr}, 0, true);
        const bool golden_hit = golden.access(vpn);
        ASSERT_EQ(r.hit, golden_hit)
            << "divergence at step " << i << " vpn " << vpn;
        if (!r.hit) {
            tlb.fill(VirtAddr{vaddr}, PhysAddr{vpn << kPageBits}, false,
                     false);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Geometries, TlbModelCheck,
                         ::testing::Values(Geometry{1, 2}, Geometry{4, 4},
                                           Geometry{16, 4},
                                           Geometry{128, 12}));

}  // namespace
}  // namespace moka
