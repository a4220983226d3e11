/** @file Integration tests: whole-machine simulation. */
#include <gtest/gtest.h>

#include "filter/policies.h"
#include "sim/runner.h"
#include "trace/suites.h"

namespace moka {
namespace {

WorkloadSpec
pick(Family family)
{
    for (const WorkloadSpec &s : seen_workloads()) {
        if (s.family == family) {
            return s;
        }
    }
    ADD_FAILURE() << "family missing from roster";
    return seen_workloads().front();
}

RunConfig
quick_run()
{
    RunConfig run;
    run.warmup_insts = 20'000;
    run.measure_insts = 80'000;
    return run;
}

TEST(Machine, RunsRequestedInstructions)
{
    const MachineConfig cfg =
        make_config(L1dPrefetcherKind::kBerti, scheme_discard());
    const RunMetrics m =
        run_single(cfg, pick(Family::kStream), quick_run());
    EXPECT_EQ(m.instructions, 80'000u);
    EXPECT_GT(m.cycles, 0u);
    EXPECT_GT(m.ipc(), 0.0);
    EXPECT_LT(m.ipc(), 6.0);  // cannot beat the core width
}

TEST(Machine, RunZeroStepsNothing)
{
    MachineConfig cfg = default_config(2);
    cfg.l1d_prefetcher = L1dPrefetcherKind::kBerti;
    cfg.scheme = scheme_dripper(L1dPrefetcherKind::kBerti);
    std::vector<WorkloadPtr> w;
    w.push_back(make_workload(pick(Family::kStream)));
    w.push_back(make_workload(pick(Family::kCsr)));
    Machine m(cfg, std::move(w));
    m.run(0);  // on a fresh machine
    EXPECT_EQ(m.steps(), 0u);
    m.run(5'000);
    const std::uint64_t steps = m.steps();
    const InstCount retired0 = m.core(0).retired();
    const InstCount retired1 = m.core(1).retired();
    m.start_measurement();
    m.run(0);
    EXPECT_EQ(m.steps(), steps);
    EXPECT_EQ(m.core(0).retired(), retired0);
    EXPECT_EQ(m.core(1).retired(), retired1);
    EXPECT_EQ(m.measured(0).instructions, 0u);
    EXPECT_EQ(m.measured(1).instructions, 0u);
}

/**
 * After every step, checks that the core which stepped (the one whose
 * retired count moved) had the lowest clock before the step, the
 * lowest index on ties.
 */
class ScheduleCheck final : public RunTickHook
{
  public:
    explicit ScheduleCheck(const Machine &m)
        : m_(m), retired_(m.num_cores()), clock_(m.num_cores())
    {
        record();
    }

    void on_tick(std::uint64_t) override
    {
        std::size_t expect = 0;
        for (std::size_t i = 1; i < clock_.size(); ++i) {
            if (clock_[i] < clock_[expect]) {
                expect = i;
            }
        }
        std::size_t moved = 0;
        for (std::size_t i = 0; i < clock_.size(); ++i) {
            if (m_.core(i).retired() != retired_[i]) {
                ++moved;
                wrong_ += i != expect ? 1 : 0;
            }
            if (i != expect && clock_[i] == clock_[expect]) {
                ++ties_;
            }
        }
        wrong_ += moved != 1 ? 1 : 0;
        ++steps_;
        record();
    }

    std::uint64_t steps() const { return steps_; }
    std::uint64_t wrong() const { return wrong_; }
    std::uint64_t ties() const { return ties_; }

  private:
    void record()
    {
        for (std::size_t i = 0; i < clock_.size(); ++i) {
            retired_[i] = m_.core(i).retired();
            clock_[i] = m_.core(i).now();
        }
    }

    const Machine &m_;
    std::vector<InstCount> retired_;
    std::vector<Cycle> clock_;
    std::uint64_t steps_ = 0;
    std::uint64_t wrong_ = 0;
    std::uint64_t ties_ = 0;
};

TEST(Machine, EveryStepGoesToTheLowestClockLowestIndexOnTies)
{
    // Four copies of one workload keep the clocks tied much of the
    // time, so the tie-break is exercised, not only the min.
    MachineConfig cfg = default_config(4);
    cfg.l1d_prefetcher = L1dPrefetcherKind::kBerti;
    cfg.scheme = scheme_dripper(L1dPrefetcherKind::kBerti);
    std::vector<WorkloadPtr> w;
    for (int i = 0; i < 4; ++i) {
        w.push_back(make_workload(pick(Family::kStream)));
    }
    Machine m(cfg, std::move(w));
    ScheduleCheck check(m);
    m.run(5'000, &check);
    m.run(20'000, &check);  // clocks re-read at run() entry
    EXPECT_EQ(check.steps(), m.steps());
    EXPECT_EQ(check.wrong(), 0u);
    EXPECT_GT(check.ties(), 1'000u);
}

TEST(MachineDeathTest, MemoryBeyondTheCacheTagsIsRejected)
{
    // Cache tags hold 31-bit block numbers: 128 GiB of memory at most.
    MachineConfig cfg = default_config(1);
    cfg.vmem.phys_bytes = 2 * kMaxCachedPhysBytes;
    EXPECT_DEATH(
        {
            std::vector<WorkloadPtr> w;
            w.push_back(make_workload(pick(Family::kStream)));
            Machine m(cfg, std::move(w));
        },
        "31-bit tags");
}

TEST(Machine, DeterministicAcrossRuns)
{
    const MachineConfig cfg =
        make_config(L1dPrefetcherKind::kBerti,
                    scheme_dripper(L1dPrefetcherKind::kBerti));
    const WorkloadSpec spec = pick(Family::kCsr);
    const RunMetrics a = run_single(cfg, spec, quick_run());
    const RunMetrics b = run_single(cfg, spec, quick_run());
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.l1d.misses, b.l1d.misses);
    EXPECT_EQ(a.pgc_issued, b.pgc_issued);
    EXPECT_EQ(a.pgc_dropped, b.pgc_dropped);
}

TEST(Machine, DiscardNeverWalksSpeculatively)
{
    const MachineConfig cfg =
        make_config(L1dPrefetcherKind::kBerti, scheme_discard());
    const RunMetrics m =
        run_single(cfg, pick(Family::kStream), quick_run());
    EXPECT_EQ(m.spec_walks, 0u);
    EXPECT_EQ(m.pgc_issued, 0u);
    EXPECT_GT(m.pgc_dropped, 0u);  // candidates existed and were dropped
}

TEST(Machine, PermitIssuesAndWalks)
{
    const MachineConfig cfg =
        make_config(L1dPrefetcherKind::kBerti, scheme_permit());
    const RunMetrics m =
        run_single(cfg, pick(Family::kStream), quick_run());
    EXPECT_GT(m.pgc_issued, 0u);
    EXPECT_GT(m.spec_walks, 0u);
    EXPECT_EQ(m.pgc_dropped, 0u);
}

TEST(Machine, DiscardPtwNeverWalksButMayIssue)
{
    const MachineConfig cfg =
        make_config(L1dPrefetcherKind::kBerti, scheme_discard_ptw());
    const RunMetrics m =
        run_single(cfg, pick(Family::kStream), quick_run());
    EXPECT_EQ(m.spec_walks, 0u);
    // TLB-resident crossings still issue.
    EXPECT_GT(m.pgc_issued + m.pgc_dropped, 0u);
}

TEST(Machine, TileIsHostileStreamIsFriendly)
{
    const RunConfig run = quick_run();
    const WorkloadSpec tile = pick(Family::kTile);
    const RunMetrics tile_permit = run_single(
        make_config(L1dPrefetcherKind::kBerti, scheme_permit()), tile,
        run);
    // Page-cross prefetches on the tile pattern are useless.
    EXPECT_GT(tile_permit.pgc_useless, tile_permit.pgc_useful);

    const WorkloadSpec stream = pick(Family::kStream);
    const RunMetrics stream_permit = run_single(
        make_config(L1dPrefetcherKind::kBerti, scheme_permit()), stream,
        run);
    EXPECT_GT(stream_permit.pgc_useful, stream_permit.pgc_useless);
}

TEST(Machine, MeasuredRegionExcludesWarmup)
{
    const MachineConfig cfg =
        make_config(L1dPrefetcherKind::kBerti, scheme_discard());
    std::vector<WorkloadPtr> w;
    w.push_back(make_workload(pick(Family::kStream)));
    Machine machine(cfg, std::move(w));
    machine.run(50'000);
    machine.start_measurement();
    machine.run(50'000);
    const RunMetrics m = machine.measured(0);
    EXPECT_EQ(m.instructions, 50'000u);
    // Cumulative metrics cover both regions.
    EXPECT_EQ(machine.metrics(0).instructions, 100'000u);
}

TEST(Machine, LargePagesReduceWalkLevels)
{
    MachineConfig cfg =
        make_config(L1dPrefetcherKind::kBerti, scheme_discard());
    const WorkloadSpec spec = pick(Family::kGather);
    const RunMetrics small = run_single(cfg, spec, quick_run());
    cfg.vmem.large_page_fraction = 1.0;
    const RunMetrics large = run_single(cfg, spec, quick_run());
    // 2MB pages collapse TLB pressure for the same access pattern.
    EXPECT_LT(large.stlb_mpki(), small.stlb_mpki() * 0.7 + 0.1);
}

TEST(Machine, IsoStorageEnlargesPrefetcher)
{
    // Smoke: ISO Storage must run and permit page crossing.
    const MachineConfig cfg =
        make_config(L1dPrefetcherKind::kIpcp, scheme_iso_storage());
    const RunMetrics m =
        run_single(cfg, pick(Family::kStream), quick_run());
    EXPECT_GT(m.pf_issued, 0u);
}

TEST(Machine, DripperStaysCloseToBestStatic)
{
    // Functional sanity on one friendly and one hostile workload:
    // DRIPPER must not sit below both statics on either.
    const RunConfig run{50'000, 200'000};
    for (Family fam : {Family::kStream, Family::kTile}) {
        const WorkloadSpec spec = pick(fam);
        const double base =
            run_single(make_config(L1dPrefetcherKind::kBerti,
                                   scheme_discard()),
                       spec, run)
                .ipc();
        const double permit =
            run_single(make_config(L1dPrefetcherKind::kBerti,
                                   scheme_permit()),
                       spec, run)
                .ipc();
        const double dripper =
            run_single(make_config(L1dPrefetcherKind::kBerti,
                                   scheme_dripper(
                                       L1dPrefetcherKind::kBerti)),
                       spec, run)
                .ipc();
        EXPECT_GT(dripper, std::min(base, permit) * 0.995)
            << "family " << static_cast<int>(fam);
    }
}

TEST(Machine, L2PrefetcherFillsL2)
{
    MachineConfig cfg =
        make_config(L1dPrefetcherKind::kNextLine, scheme_discard());
    cfg.l2_prefetcher = L2PrefetcherKind::kSpp;
    const RunMetrics with = run_single(cfg, pick(Family::kStream),
                                       quick_run());
    EXPECT_GT(with.instructions, 0u);  // smoke: SPP path executes
}

}  // namespace
}  // namespace moka
