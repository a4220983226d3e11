/** @file Unit tests for the Berti prefetcher. */
#include <gtest/gtest.h>

#include <algorithm>

#include "prefetch/berti.h"
#include "snapshot/snapshot.h"

namespace moka {
namespace {

BertiConfig
quick_config()
{
    BertiConfig cfg;
    cfg.window_accesses = 32;
    cfg.timely_latency = 50;
    return cfg;
}

/** Feed a constant-stride stream, return candidates of the last access. */
std::vector<PrefetchRequest>
drive_stream(Berti &berti, Addr pc, Addr base, std::int64_t stride_blocks,
             unsigned count, Cycle gap)
{
    std::vector<PrefetchRequest> out;
    Cycle now = 0;
    for (unsigned i = 0; i < count; ++i) {
        out.clear();
        PrefetchContext ctx;
        ctx.pc = pc;
        ctx.vaddr = VirtAddr{base + Addr(i) * Addr(stride_blocks) * kBlockSize};
        ctx.now = now;
        ctx.hit = false;
        berti.on_access(ctx, out);
        now += gap;
    }
    return out;
}

TEST(Berti, LearnsTimelyStride)
{
    Berti berti(quick_config());
    const auto out =
        drive_stream(berti, 0x400100, 0x100000, 1, 200, /*gap=*/100);
    ASSERT_FALSE(out.empty());
    // All candidates carry positive deltas along the stream direction.
    for (const PrefetchRequest &r : out) {
        EXPECT_GT(r.delta, 0);
        EXPECT_EQ(r.trigger_pc, 0x400100u);
    }
}

TEST(Berti, PrefersLargerTimelyDeltas)
{
    Berti berti(quick_config());
    const auto out =
        drive_stream(berti, 0x400100, 0x100000, 1, 200, /*gap=*/100);
    ASSERT_FALSE(out.empty());
    // Tie-break favours larger deltas (lead time).
    std::int64_t max_delta = 0;
    for (const PrefetchRequest &r : out) {
        max_delta = std::max(max_delta, r.delta);
    }
    EXPECT_GE(max_delta, 8);
}

TEST(Berti, UntimelyDeltasNotSelected)
{
    // Back-to-back accesses (gap 1 cycle << timely_latency): no delta
    // is ever timely, so nothing should be selected.
    Berti berti(quick_config());
    const auto out =
        drive_stream(berti, 0x400100, 0x100000, 1, 200, /*gap=*/1);
    EXPECT_TRUE(out.empty());
}

TEST(Berti, RandomPatternStaysQuiet)
{
    Berti berti(quick_config());
    std::vector<PrefetchRequest> out;
    Cycle now = 0;
    std::uint64_t x = 12345;
    for (int i = 0; i < 500; ++i) {
        out.clear();
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        PrefetchContext ctx;
        ctx.pc = 0x400200;
        ctx.vaddr = VirtAddr{(x % (1u << 30)) & ~(kBlockSize - 1)};
        ctx.now = now;
        berti.on_access(ctx, out);
        now += 100;
    }
    // Random deltas never accumulate timely coverage.
    EXPECT_TRUE(out.empty());
}

TEST(Berti, EmitsPageCrossCandidatesNearBoundary)
{
    Berti berti(quick_config());
    // Warm up a +1 stride; then make the last access near a page end
    // and check that candidates cross into the next page.
    drive_stream(berti, 0x400100, 0x100000, 1, 199, 100);
    std::vector<PrefetchRequest> out;
    PrefetchContext ctx;
    ctx.pc = 0x400100;
    ctx.vaddr = VirtAddr{0x200000 + kPageSize - kBlockSize};  // last line of page
    ctx.now = 1000000;
    berti.on_access(ctx, out);
    bool crossing = false;
    for (const PrefetchRequest &r : out) {
        if (crosses_page(ctx.vaddr, r.vaddr)) {
            crossing = true;
        }
    }
    EXPECT_TRUE(crossing);
}

TEST(Berti, PerIpIsolation)
{
    Berti berti(quick_config());
    // IP A streams; IP B is random-ish. B must not inherit A's deltas.
    drive_stream(berti, 0xA, 0x100000, 1, 200, 100);
    std::vector<PrefetchRequest> out;
    PrefetchContext ctx;
    ctx.pc = 0xB;
    ctx.vaddr = VirtAddr{0x900000};
    ctx.now = 500000;
    berti.on_access(ctx, out);
    EXPECT_TRUE(out.empty());
}

TEST(Berti, DeltaBound)
{
    BertiConfig cfg = quick_config();
    cfg.max_delta = 16;
    Berti berti(cfg);
    const auto out = drive_stream(berti, 0x1, 0x100000, 1, 200, 100);
    for (const PrefetchRequest &r : out) {
        EXPECT_LE(std::abs(r.delta), 16);
    }
}

/** One scripted access of the snapshot test below. */
struct Access
{
    Addr pc;
    Addr line;
};

/**
 * PC 0x400 walks a repeating {+3, -1, +5, +2, -4, +7} step pattern:
 * its 16-deep history yields far more than deltas_per_ip distinct
 * deltas, so the weakest-candidate replacement runs every window,
 * while the period-6 delta (+12) is timely often enough to be
 * selected. 65 one-shot PCs then evict it from the 64-entry IP table
 * before it returns alongside two strided PCs.
 */
std::vector<Access>
delta_churn_script()
{
    const std::int64_t steps[] = {3, -1, 5, 2, -4, 7};
    std::vector<Access> script;
    std::int64_t line = 1 << 20;
    for (int i = 0; i < 300; ++i) {
        line += steps[i % 6];
        script.push_back({0x400, static_cast<Addr>(line)});
    }
    for (Addr p = 0; p < 65; ++p) {
        script.push_back({0x9000 + p * 4, (Addr{2} << 20) + p * 97});
    }
    for (int i = 0; i < 600; ++i) {
        line += steps[i % 6];
        script.push_back({0x400, static_cast<Addr>(line)});
        script.push_back({0x404, (Addr{3} << 20) + Addr(i) * 2});
        script.push_back({0x408, (Addr{4} << 20) + Addr(i) * 5});
    }
    return script;
}

void
replay(Berti &berti, const std::vector<Access> &script, std::size_t begin,
       std::size_t end, std::vector<PrefetchRequest> &out)
{
    for (std::size_t i = begin; i < end; ++i) {
        PrefetchContext ctx;
        ctx.pc = script[i].pc;
        ctx.vaddr = VirtAddr{script[i].line << kBlockBits};
        ctx.now = (i + 1) * 20;
        berti.on_access(ctx, out);
    }
}

TEST(Berti, RestoreMidChurnContinuesLikeStraightRun)
{
    const BertiConfig cfg = quick_config();
    const std::vector<Access> script = delta_churn_script();
    // Cut after the eviction and well into the return phase, where
    // PC 0x400's delta table is full and its index must be rebuilt.
    const std::size_t cut = 300 + 65 + 3 * 250;

    Berti straight(cfg);
    std::vector<PrefetchRequest> straight_out;
    replay(straight, script, 0, cut, straight_out);
    straight_out.clear();
    replay(straight, script, cut, script.size(), straight_out);
    ASSERT_FALSE(straight_out.empty());
    bool pc400_prefetches = false;
    for (const PrefetchRequest &r : straight_out) {
        pc400_prefetches |= r.trigger_pc == 0x400;
    }
    EXPECT_TRUE(pc400_prefetches);

    Berti first(cfg);
    std::vector<PrefetchRequest> ignored;
    replay(first, script, 0, cut, ignored);
    SnapshotWriter w(0);
    first.save_state(w);
    const std::string bytes = w.finish();
    Berti restored(cfg);
    SnapshotReader r(bytes);
    restored.restore_state(r);
    r.finish();
    std::vector<PrefetchRequest> restored_out;
    replay(restored, script, cut, script.size(), restored_out);

    ASSERT_EQ(restored_out.size(), straight_out.size());
    for (std::size_t i = 0; i < straight_out.size(); ++i) {
        SCOPED_TRACE("request " + std::to_string(i));
        EXPECT_EQ(restored_out[i].vaddr, straight_out[i].vaddr);
        EXPECT_EQ(restored_out[i].delta, straight_out[i].delta);
        EXPECT_EQ(restored_out[i].trigger_pc, straight_out[i].trigger_pc);
        EXPECT_EQ(restored_out[i].trigger_vaddr,
                  straight_out[i].trigger_vaddr);
        EXPECT_EQ(restored_out[i].meta, straight_out[i].meta);
    }
}

}  // namespace
}  // namespace moka
