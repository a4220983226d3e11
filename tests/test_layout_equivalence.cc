// Layout-equivalence golden tests: the SoA data-layout work (cache
// tag arrays, flat filter weight arena, trace block decoder) must be
// metric-bit-identical to the original array-of-structs layouts.  The
// digests below were generated on the pre-refactor code by running
// each (scheme, workload) pair and hashing (a) the full architectural
// snapshot byte stream and (b) every RunMetrics field in declaration
// order.  Any layout change that perturbs a replacement decision, a
// filter sum, or a trace record stream shows up as a digest mismatch.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/hashing.h"
#include "filter/policies.h"
#include "sim/machine.h"
#include "sim/runner.h"
#include "trace/suites.h"
#include "trace/trace_io.h"

namespace moka {
namespace {

std::uint64_t
metrics_digest(const RunMetrics &m)
{
    std::uint64_t h = kFnv1aOffset;
    const auto mix = [&h](std::uint64_t v) {
        h = fnv1a_64(&v, sizeof(v), h);
    };
    mix(m.instructions);
    mix(m.cycles);
    const auto mix_stats = [&](const AccessStats &s) {
        mix(s.accesses);
        mix(s.misses);
    };
    mix_stats(m.l1i);
    mix_stats(m.l1d);
    mix_stats(m.l2);
    mix_stats(m.llc);
    mix_stats(m.dtlb);
    mix_stats(m.stlb);
    mix_stats(m.l2_walk);
    mix(m.l1d_writebacks);
    mix(m.l1d_pf_lookups);
    mix(m.pf_issued);
    mix(m.pf_useful);
    mix(m.pf_useless);
    mix(m.pgc_candidates);
    mix(m.pgc_issued);
    mix(m.pgc_useful);
    mix(m.pgc_useless);
    mix(m.pgc_dropped);
    mix(m.demand_walks);
    mix(m.spec_walks);
    mix(m.walk_refs);
    mix(m.dram_accesses);
    mix(m.branch_mispredicts);
    return h;
}

const WorkloadSpec &
spec_of(const std::string &name)
{
    static const std::vector<WorkloadSpec> roster = seen_workloads();
    for (const WorkloadSpec &s : roster) {
        if (s.name == name) {
            return s;
        }
    }
    throw std::runtime_error("unknown workload: " + name);
}

SchemeConfig
scheme_of(const std::string &name)
{
    if (name == "dripper") {
        return scheme_dripper(L1dPrefetcherKind::kBerti);
    }
    if (name == "permit") {
        return scheme_permit();
    }
    if (name == "ppf") {
        return scheme_ppf(false);
    }
    return scheme_discard();
}

struct GoldenRow {
    const char *scheme;
    const char *workload;
    std::uint64_t snapshot_digest;
    std::uint64_t metrics_digest;
};

// Generated on the pre-refactor layouts.  Regenerate only when
// simulation semantics intentionally change, never for a data-layout
// refactor.  The snapshot_digest column was re-pinned for snapshot
// format version 2 (LRU stamps -> per-way recency ranks): each old
// row's bytes, with every cache's stamps converted to ranks and the
// version and section sums rewritten, equal the new bytes.  It was
// re-pinned again for version 3 (the audit cadence left core.state,
// so audit-enabled builds write the same bytes): each version-2 row
// with that u64 cut from every core.state section, and the version
// and section sums rewritten, equals the new bytes.  It was re-pinned
// for version 4 (the filter and adaptive-threshold telemetry counters
// left the snapshot): each version-3 row with those counters cut from
// the end of every filter.moka (266 bytes) and filter.threshold (64
// bytes) section, and the version and section sums rewritten, equals
// the new bytes.  It was re-pinned for version 5 (sparse page maps,
// derived frame sets, saved workload positions): each version-4 row
// with every page-table map rewritten as (slot count, size, then slot,
// key and value per occupied slot), both frame bitmaps cut, a
// "core.workload" section added after each core.state (the position
// a fresh workload reaches by skipping the core's retired count), and
// the version and section sums rewritten, equals the new bytes.  The
// metrics_digest column never moved.
constexpr GoldenRow kGolden[] = {
    {"dripper", "parsec.stream.0", 0xe682d5326ccd61f0ull, 0x7873dffa91c221dfull},
    {"permit", "parsec.stream.0", 0xf2718c967a85944eull, 0x7873dffa91c221dfull},
    {"ppf", "parsec.stream.0", 0x87656881c07f1251ull, 0xfad344a3d7cd329bull},
    {"discard", "parsec.stream.0", 0xebbc6c83265f1411ull, 0x513b0dc733f2ebcdull},
    {"dripper", "spec06.gather.1", 0xcbd5813db975313bull, 0x19092a40a62fbb3bull},
    {"permit", "spec06.gather.1", 0x16a9876c2e2ed720ull, 0x19092a40a62fbb3bull},
    {"ppf", "spec06.gather.1", 0x5551a8a37981d40full, 0xf361a57e8d9563afull},
    {"discard", "spec06.gather.1", 0x456c82d4cc1f8e09ull, 0x3941f4f8ee712a83ull},
};

constexpr GoldenRow kGoldenTrace[] = {
    {"dripper", "trace:spec06.hash.4", 0xbd57b7378ef86b5dull, 0x61bd44852deab3b6ull},
    {"permit", "trace:spec06.hash.4", 0xe578cd79c1d28270ull, 0x61bd44852deab3b6ull},
};

constexpr GoldenRow kGoldenMix[] = {
    {"dripper", "mix2:stream+gather", 0xca7998d5b5854588ull, 0x697123b20d884c63ull},
    {"discard", "mix2:stream+gather", 0x60cd3545389aaf36ull, 0xa05e4b9e6186f1f3ull},
};

TEST(LayoutEquivalence, SingleCoreSchemesMatchGoldenDigests)
{
    for (const GoldenRow &row : kGolden) {
        SCOPED_TRACE(std::string(row.scheme) + " / " + row.workload);
        MachineConfig cfg =
            make_config(L1dPrefetcherKind::kBerti, scheme_of(row.scheme));
        std::vector<WorkloadPtr> wl;
        wl.push_back(make_workload(spec_of(row.workload)));
        Machine m(cfg, std::move(wl));
        m.run(100'000);
        m.start_measurement();
        m.run(200'000);
        const std::string snap = m.save_snapshot();
        EXPECT_EQ(row.snapshot_digest, fnv1a_64(snap.data(), snap.size()));
        EXPECT_EQ(row.metrics_digest, metrics_digest(m.measured(0)));
    }
}

TEST(LayoutEquivalence, TraceBackedRunMatchesGoldenDigests)
{
    // Record a deterministic slice once, replay through the trace
    // decoder for both schemes: covers the block-decoder read path
    // end to end, not just unit-level ring mechanics.
    const std::string path =
        ::testing::TempDir() + "layout_equivalence.trc";
    {
        WorkloadPtr src = make_workload(spec_of("spec06.hash.4"));
        record_trace(path, *src, 50'000);
    }
    for (const GoldenRow &row : kGoldenTrace) {
        SCOPED_TRACE(std::string(row.scheme) + " / " + row.workload);
        MachineConfig cfg =
            make_config(L1dPrefetcherKind::kBerti, scheme_of(row.scheme));
        std::vector<WorkloadPtr> wl;
        wl.push_back(open_trace(path));
        Machine m(cfg, std::move(wl));
        m.run(60'000);
        m.start_measurement();
        m.run(100'000);
        const std::string snap = m.save_snapshot();
        EXPECT_EQ(row.snapshot_digest, fnv1a_64(snap.data(), snap.size()));
        EXPECT_EQ(row.metrics_digest, metrics_digest(m.measured(0)));
    }
    std::remove(path.c_str());
}

TEST(LayoutEquivalence, TwoCoreMixMatchesGoldenDigests)
{
    for (const GoldenRow &row : kGoldenMix) {
        SCOPED_TRACE(std::string(row.scheme) + " / " + row.workload);
        MachineConfig cfg = default_config(2);
        cfg.l1d_prefetcher = L1dPrefetcherKind::kBerti;
        cfg.scheme = scheme_of(row.scheme);
        std::vector<WorkloadPtr> wl;
        wl.push_back(make_workload(spec_of("parsec.stream.0")));
        wl.push_back(make_workload(spec_of("spec06.gather.1")));
        Machine m(cfg, std::move(wl));
        m.run(50'000);
        m.start_measurement();
        m.run(100'000);
        const std::string snap = m.save_snapshot();
        EXPECT_EQ(row.snapshot_digest, fnv1a_64(snap.data(), snap.size()));
        std::uint64_t md = kFnv1aOffset;
        for (std::size_t i = 0; i < m.num_cores(); ++i) {
            const std::uint64_t d = metrics_digest(m.measured(i));
            md = fnv1a_64(&d, sizeof(d), md);
        }
        EXPECT_EQ(row.metrics_digest, md);
    }
}

}  // namespace
}  // namespace moka
