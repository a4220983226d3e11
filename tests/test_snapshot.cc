/** @file Snapshot subsystem: format, per-component round-trips,
 *  whole-machine byte-identity, cache, and corruption handling. */
#include <gtest/gtest.h>

#include <sys/inotify.h>
#include <unistd.h>

#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <fstream>
#include <string>
#include <vector>

#include "cache/cache.h"
#include "core/branch_pred.h"
#include "dram/dram.h"
#include "filter/adaptive_threshold.h"
#include "filter/features.h"
#include "filter/moka.h"
#include "filter/policies.h"
#include "filter/system_features.h"
#include "filter/update_buffer.h"
#include "prefetch/berti.h"
#include "prefetch/bop.h"
#include "prefetch/ipcp.h"
#include "prefetch/spp.h"
#include "prefetch/stride.h"
#include "sim/experiment.h"
#include "sim/jobs/engine.h"
#include "sim/jobs/job.h"
#include "sim/multicore.h"
#include "sim/runner.h"
#include "snapshot/cache.h"
#include "snapshot/format.h"
#include "snapshot/snapshot.h"
#include "audit/access.h"
#include "audit/audit.h"
#include "common/hashing.h"
#include "telemetry/gate.h"
#include "trace/suites.h"
#include "trace/trace_io.h"
#include "vmem/page_table.h"
#include "vmem/tlb.h"
#include "vmem/walker.h"

namespace moka {
namespace {

std::string
temp_dir(const char *tag)
{
    const std::string dir =
        std::string(::testing::TempDir()) + "moka_snap_" + tag;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

// ---------------------------------------------------------------- format

TEST(SnapshotFormat, RoundTripPrimitives)
{
    SnapshotWriter w(0x1234);
    w.begin_section("prims");
    w.put_u8(0xAB);
    w.put_u16(0xBEEF);
    w.put_u32(0xDEADBEEFu);
    w.put_u64(0x0123456789ABCDEFull);
    w.put_i64(-42);
    w.put_bool(true);
    w.put_f64(-0.0);  // signed zero must survive bit-exactly
    w.put_f64(1.0 / 3.0);
    w.begin_section("vec");
    std::vector<std::uint64_t> vals = {1, 2, 3, 5, 8};
    put_vec(w, vals);
    const std::string bytes = w.finish();

    SnapshotReader r(bytes);
    EXPECT_EQ(r.fingerprint(), 0x1234u);
    r.begin_section("prims");
    EXPECT_EQ(r.get_u8(), 0xAB);
    EXPECT_EQ(r.get_u16(), 0xBEEF);
    EXPECT_EQ(r.get_u32(), 0xDEADBEEFu);
    EXPECT_EQ(r.get_u64(), 0x0123456789ABCDEFull);
    EXPECT_EQ(r.get_i64(), -42);
    EXPECT_TRUE(r.get_bool());
    EXPECT_TRUE(std::signbit(r.get_f64()));
    EXPECT_DOUBLE_EQ(r.get_f64(), 1.0 / 3.0);
    r.begin_section("vec");
    std::vector<std::uint64_t> back(vals.size());
    get_vec(r, back);
    EXPECT_EQ(back, vals);
    r.finish();
}

std::string
tiny_snapshot()
{
    SnapshotWriter w(7);
    w.begin_section("s");
    w.put_u64(99);
    return w.finish();
}

SnapshotErrorKind
reject_kind(const std::string &bytes)
{
    try {
        SnapshotReader r(bytes);
    } catch (const SnapshotError &e) {
        return e.kind();
    }
    ADD_FAILURE() << "corrupt snapshot was accepted";
    return SnapshotErrorKind::kMalformed;
}

TEST(SnapshotFormat, RejectsBadMagic)
{
    std::string bytes = tiny_snapshot();
    bytes[0] ^= 0xFF;
    EXPECT_EQ(reject_kind(bytes), SnapshotErrorKind::kBadMagic);
}

TEST(SnapshotFormat, RejectsWrongVersion)
{
    std::string bytes = tiny_snapshot();
    bytes[8] = static_cast<char>(bytes[8] + 1);  // version u32 LSB
    EXPECT_EQ(reject_kind(bytes), SnapshotErrorKind::kBadVersion);
}

/** @p bytes with its u32 format version field overwritten. */
std::string
with_version(std::string bytes, std::uint32_t version)
{
    for (int i = 0; i < 4; ++i) {
        bytes[8 + i] = static_cast<char>((version >> (8 * i)) & 0xFF);
    }
    return bytes;
}

TEST(SnapshotFormat, RejectsVersionOne)
{
    // Version 1 stored 64-bit LRU timestamps where later versions
    // store one recency rank per way, version 2 also stored the audit
    // cadence, version 3 the filter's telemetry counters and version
    // 4 every page-map slot, the frame sets and no workload position;
    // the layouts cannot be told apart by length alone, so the
    // version field must reject all four.
    ASSERT_EQ(kSnapshotVersion, 5u);
    for (std::uint32_t old = 1; old < kSnapshotVersion; ++old) {
        EXPECT_EQ(reject_kind(with_version(tiny_snapshot(), old)),
                  SnapshotErrorKind::kBadVersion)
            << "version " << old;
    }
}

TEST(SnapshotFormat, RejectsTruncation)
{
    const std::string bytes = tiny_snapshot();
    // Every proper prefix must be rejected, never mis-parsed.
    for (std::size_t n = 0; n < bytes.size(); ++n) {
        const SnapshotErrorKind kind = reject_kind(bytes.substr(0, n));
        EXPECT_TRUE(kind == SnapshotErrorKind::kTruncated ||
                    kind == SnapshotErrorKind::kBadMagic)
            << "prefix of " << n << " bytes";
    }
}

TEST(SnapshotFormat, RejectsFlippedPayloadBit)
{
    std::string bytes = tiny_snapshot();
    bytes[bytes.size() - 1] ^= 0x01;  // last payload byte
    EXPECT_EQ(reject_kind(bytes), SnapshotErrorKind::kChecksum);
}

TEST(SnapshotFormat, SectionNameMismatchIsMalformed)
{
    const std::string bytes = tiny_snapshot();
    SnapshotReader r(bytes);
    try {
        r.begin_section("wrong");
        ADD_FAILURE() << "mismatched section name accepted";
    } catch (const SnapshotError &e) {
        EXPECT_EQ(e.kind(), SnapshotErrorKind::kMalformed);
    }
}

TEST(SnapshotFormat, OverconsumeIsMalformed)
{
    const std::string bytes = tiny_snapshot();
    SnapshotReader r(bytes);
    r.begin_section("s");
    (void)r.get_u64();
    try {
        (void)r.get_u64();
        ADD_FAILURE() << "read past the section end";
    } catch (const SnapshotError &e) {
        EXPECT_EQ(e.kind(), SnapshotErrorKind::kMalformed);
    }
}

// ------------------------------------------------- component round-trips

/** One section's worth of @p obj's serialized state. */
template <typename T>
std::string
section_of(const T &obj)
{
    SnapshotWriter w(0);
    w.begin_section("t");
    obj.save_state(w);
    return w.finish();
}

/** Restore @p obj from section_of-style @p bytes. */
template <typename T>
void
restore_section(T &obj, const std::string &bytes)
{
    SnapshotReader r(bytes);
    r.begin_section("t");
    obj.restore_state(r);
    r.finish();
}

/**
 * The round-trip law every component must satisfy: state saved from
 * a driven instance, restored into a fresh same-config instance, and
 * saved again must be byte-identical.
 */
template <typename T>
void
expect_round_trip(const T &driven, T &fresh)
{
    const std::string bytes = section_of(driven);
    restore_section(fresh, bytes);
    EXPECT_EQ(section_of(fresh), bytes);
}

TEST(SnapshotComponents, Rng)
{
    Rng driven(1);
    for (int i = 0; i < 100; ++i) {
        (void)driven.below(1000);
    }
    Rng fresh(2);
    SnapshotWriter w(0);
    w.begin_section("t");
    SnapshotAccess::save(w, driven);
    const std::string bytes = w.finish();
    SnapshotReader r(bytes);
    r.begin_section("t");
    SnapshotAccess::restore(r, fresh);
    r.finish();
    // The restored stream must continue exactly where driven left off.
    for (int i = 0; i < 32; ++i) {
        EXPECT_EQ(fresh.next(), driven.next());
    }
}

TEST(SnapshotComponents, Dram)
{
    DramConfig cfg;
    Dram driven(cfg);
    for (Addr a = 0; a < 64 * kBlockSize; a += kBlockSize) {
        (void)driven.access(PhysAddr{a * 37}, AccessType::kLoad, a);
    }
    Dram fresh(cfg);
    expect_round_trip(driven, fresh);
    // Behavioral check: next access sees the same open-row state.
    const AccessResult a =
        driven.access(PhysAddr{0x5000}, AccessType::kStore, 9999);
    const AccessResult b =
        fresh.access(PhysAddr{0x5000}, AccessType::kStore, 9999);
    EXPECT_EQ(a.done, b.done);
    EXPECT_EQ(a.hit, b.hit);
}

TEST(SnapshotComponents, CacheOverDram)
{
    DramConfig dcfg;
    CacheConfig ccfg;
    ccfg.name = "l1d";
    ccfg.sets = 16;
    ccfg.ways = 4;
    Dram dram_a(dcfg), dram_b(dcfg);
    Cache driven(ccfg, &dram_a);
    for (Addr a = 0; a < 256; ++a) {
        (void)driven.access(PhysAddr{a * kBlockSize * 3}, AccessType::kLoad,
                            a);
    }
    Cache fresh(ccfg, &dram_b);
    expect_round_trip(driven, fresh);
}

TEST(SnapshotComponents, CacheTagsAreAtMost31Bits)
{
    CacheConfig ccfg;
    ccfg.sets = 1;
    ccfg.ways = 1;
    // The widest block number a tag holds round-trips.
    const Addr widest = (Addr{1} << 31) - 1;
    Cache driven(ccfg, nullptr);
    (void)driven.access(PhysAddr{widest << kBlockBits}, AccessType::kLoad, 0);
    Cache fresh(ccfg, nullptr);
    expect_round_trip(driven, fresh);
    EXPECT_TRUE(fresh.probe(PhysAddr{widest << kBlockBits}));

    // One bit wider is malformed. The block records come first, so
    // the restore rejects the tag before reading anything else.
    SnapshotWriter w(0);
    w.begin_section("t");
    w.put_u64(Addr{1} << 31);
    const std::string bytes = w.finish();
    Cache target(ccfg, nullptr);
    try {
        restore_section(target, bytes);
        ADD_FAILURE() << "32-bit cache tag accepted";
    } catch (const SnapshotError &e) {
        EXPECT_EQ(e.kind(), SnapshotErrorKind::kMalformed);
    }
}

TEST(SnapshotComponents, Tlb)
{
    TlbConfig cfg;
    Tlb driven(cfg);
    for (Addr page = 0; page < 128; ++page) {
        const Addr vaddr = page << 12;
        (void)driven.lookup(VirtAddr{vaddr}, page, /*demand=*/true);
        driven.fill(VirtAddr{vaddr}, PhysAddr{vaddr | 0x1000000},
                    /*large=*/false,
                    /*from_prefetch=*/(page % 3) == 0);
    }
    Tlb fresh(cfg);
    expect_round_trip(driven, fresh);
}

TEST(SnapshotComponents, PageTableAndWalker)
{
    VmemConfig vcfg;
    WalkerConfig wcfg;
    DramConfig dcfg;
    Dram dram_a(dcfg), dram_b(dcfg);
    PageTable pt_driven(vcfg);
    PageWalker driven(wcfg, &pt_driven, &dram_a);
    for (Addr page = 0; page < 64; ++page) {
        (void)driven.walk(VirtAddr{page << 12}, page,
                          /*speculative=*/page % 2);
    }
    PageTable pt_fresh(vcfg);
    PageWalker fresh(wcfg, &pt_fresh, &dram_b);
    // Walker depends on its table: restore both, compare both.
    expect_round_trip(pt_driven, pt_fresh);
    expect_round_trip(driven, fresh);
}

TEST(SnapshotComponents, BranchPredictor)
{
    BranchPredConfig cfg;
    BranchPredictor driven(cfg);
    for (Addr pc = 0; pc < 500; ++pc) {
        const bool taken = (pc % 7) < 3;
        (void)driven.predict(pc * 4);
        driven.update(pc * 4, taken);
    }
    BranchPredictor fresh(cfg);
    expect_round_trip(driven, fresh);
    for (Addr pc = 0; pc < 64; ++pc) {
        EXPECT_EQ(fresh.predict(pc * 4), driven.predict(pc * 4));
    }
}

/** Drive @p pf across page-crossing strides so tables populate. */
void
drive_prefetcher(Prefetcher &pf)
{
    std::vector<PrefetchRequest> out;
    for (std::uint64_t i = 0; i < 2000; ++i) {
        PrefetchContext ctx;
        ctx.pc = 0x400000 + (i % 7) * 4;
        ctx.vaddr = VirtAddr{(i * 3) * kBlockSize};
        ctx.hit = (i % 4) != 0;
        ctx.now = i * 10;
        pf.on_access(ctx, out);
        if (i % 5 == 0) {
            pf.on_fill(ctx.vaddr + kBlockSize, ctx.now + 50,
                       /*was_prefetch=*/i % 10 == 0);
        }
        out.clear();
    }
}

template <typename P, typename Cfg>
void
expect_prefetcher_round_trip()
{
    Cfg cfg;
    P driven(cfg);
    drive_prefetcher(driven);
    P fresh(cfg);
    SnapshotWriter w(0);
    driven.save_state(w);  // prefetchers open their own section
    const std::string bytes = w.finish();
    SnapshotReader r(bytes);
    fresh.restore_state(r);
    r.finish();
    SnapshotWriter w2(0);
    fresh.save_state(w2);
    EXPECT_EQ(w2.finish(), bytes);
}

TEST(SnapshotComponents, Berti)
{
    expect_prefetcher_round_trip<Berti, BertiConfig>();
}

TEST(SnapshotComponents, Ipcp)
{
    expect_prefetcher_round_trip<Ipcp, IpcpConfig>();
}

TEST(SnapshotComponents, Bop)
{
    expect_prefetcher_round_trip<Bop, BopConfig>();
}

TEST(SnapshotComponents, Stride)
{
    expect_prefetcher_round_trip<StridePrefetcher,
                                 StridePrefetcherConfig>();
}

TEST(SnapshotComponents, Spp)
{
    expect_prefetcher_round_trip<Spp, SppConfig>();
}

TEST(SnapshotComponents, UpdateBuffer)
{
    VirtUpdateBuffer driven(32);
    for (std::uint64_t i = 0; i < 100; ++i) {
        VirtDecisionRecord rec;
        rec.block = VirtAddr{i * kBlockSize};
        rec.num_features = 3;
        rec.indexes[0] = static_cast<std::uint32_t>(i);
        driven.insert(rec);
        if (i % 3 == 0) {
            VirtDecisionRecord out;
            (void)driven.take(VirtAddr{(i / 2) * kBlockSize}, out);
        }
    }
    VirtUpdateBuffer fresh(32);
    expect_round_trip(driven, fresh);
    // Same lookup must succeed/fail identically after restore.
    VirtDecisionRecord a, b;
    EXPECT_EQ(driven.take(VirtAddr{99 * kBlockSize}, a),
              fresh.take(VirtAddr{99 * kBlockSize}, b));
}

TEST(SnapshotComponents, AdaptiveThreshold)
{
    ThresholdConfig cfg;
    AdaptiveThreshold driven(cfg);
    for (int e = 0; e < 20; ++e) {
        EpochInfo info;
        info.pgc_accuracy = (e % 5) * 0.2;
        info.accuracy_valid = e > 2;
        info.ipc = 1.0 + 0.01 * e;
        driven.on_epoch(info);
    }
    AdaptiveThreshold fresh(cfg);
    // AdaptiveThreshold opens its own section.
    SnapshotWriter w(0);
    driven.save_state(w);
    const std::string bytes = w.finish();
    SnapshotReader r(bytes);
    fresh.restore_state(r);
    r.finish();
    SnapshotWriter w2(0);
    fresh.save_state(w2);
    EXPECT_EQ(w2.finish(), bytes);
    EXPECT_EQ(fresh.threshold(), driven.threshold());
}

TEST(SnapshotComponents, MokaFilter)
{
    const MokaConfig cfg = dripper_config(L1dPrefetcherKind::kBerti);
    MokaFilter driven(cfg);
    SystemSnapshot snap;
    snap.l1d_mpki = 12.0;
    snap.stlb_mpki = 2.0;
    for (std::uint64_t i = 0; i < 500; ++i) {
        const Addr pc = 0x400100 + (i % 11) * 4;
        const Addr vaddr = i * 4096 + (i % 64) * 64;
        driven.on_demand_access(pc, VirtAddr{vaddr});
        const bool ok = driven.permit(pc, VirtAddr{vaddr}, 5,
                                      VirtAddr{vaddr + 5 * 64}, snap);
        if (ok) {
            driven.on_pgc_issued(VirtAddr{vaddr + 5 * 64},
                                 PhysAddr{vaddr + 5 * 64});
        }
        if (i % 7 == 0) {
            driven.on_l1d_demand_miss(VirtAddr{vaddr + 5 * 64});
        }
    }
    MokaFilter fresh(cfg);
    SnapshotWriter w(0);
    driven.save_state(w);  // opens filter.* sections itself
    const std::string bytes = w.finish();
    SnapshotReader r(bytes);
    fresh.restore_state(r);
    r.finish();
    SnapshotWriter w2(0);
    fresh.save_state(w2);
    EXPECT_EQ(w2.finish(), bytes);
}

// ------------------------------------------------- whole-machine tests

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

MachineConfig
snap_config()
{
    return make_config(L1dPrefetcherKind::kBerti,
                       scheme_dripper(L1dPrefetcherKind::kBerti));
}

Machine
build_machine(const MachineConfig &cfg, const WorkloadSpec &spec)
{
    std::vector<WorkloadPtr> w;
    w.push_back(make_workload(spec));
    return Machine(cfg, std::move(w));
}

TEST(SnapshotMachine, SaveRestoreSaveIsByteIdentical)
{
    const MachineConfig cfg = snap_config();
    const WorkloadSpec spec = pick(Family::kCsr);
    Machine warmed = build_machine(cfg, spec);
    warmed.run(20'000);
    const std::string s1 = warmed.save_snapshot();

    Machine restored = build_machine(cfg, spec);
    restored.restore_snapshot(s1);
    EXPECT_EQ(restored.save_snapshot(), s1);
}

TEST(SnapshotMachine, RestoredMeasureMatchesStraightThrough)
{
    const MachineConfig cfg = snap_config();
    const WorkloadSpec spec = pick(Family::kCsr);

    // Straight through: warmup + measure on one machine.
    Machine straight = build_machine(cfg, spec);
    straight.run(20'000);
    const std::string snap = straight.save_snapshot();
    straight.start_measurement();
    straight.run(60'000);

    // Restored: fresh machine, restore the warmup state, measure.
    Machine resumed = build_machine(cfg, spec);
    resumed.restore_snapshot(snap);
    resumed.start_measurement();
    resumed.run(60'000);

    // Strongest possible equality: the full architectural state after
    // the measured region is byte-identical, not just the metrics.
    EXPECT_EQ(resumed.save_snapshot(), straight.save_snapshot());
    const RunMetrics a = straight.measured(0);
    const RunMetrics b = resumed.measured(0);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.l1d.misses, b.l1d.misses);
    EXPECT_EQ(a.llc.misses, b.llc.misses);
    EXPECT_EQ(a.pgc_issued, b.pgc_issued);
    EXPECT_EQ(a.pgc_dropped, b.pgc_dropped);
    EXPECT_EQ(a.spec_walks, b.spec_walks);
    EXPECT_EQ(a.branch_mispredicts, b.branch_mispredicts);
}

TEST(SnapshotMachine, ArmedAndDisarmedWarmupsSaveIdenticalBytes)
{
    // The telemetry gate moves only observation counters; a warmup
    // snapshot shared through --snapshot-dir must not depend on
    // whether the process that produced it had telemetry armed.
    const MachineConfig cfg = snap_config();
    const WorkloadSpec spec = pick(Family::kCsr);
    const bool was_enabled = telemetry_enabled();
    std::string bytes[2];
    for (int armed = 0; armed < 2; ++armed) {
        set_telemetry_enabled(armed == 1);
        Machine m = build_machine(cfg, spec);
        m.run(30'000);
        bytes[armed] = m.save_snapshot();
        if (armed == 1 && telemetry_enabled()) {
            // Guard against a vacuous pass: the armed run did count.
            EXPECT_GT(m.core(0).filter()->telemetry().decisions, 0u);
        }
    }
    set_telemetry_enabled(was_enabled);
    EXPECT_EQ(bytes[0].size(), bytes[1].size());
    EXPECT_TRUE(bytes[0] == bytes[1]);  // not EXPECT_EQ: ~4 MB to print
}

TEST(SnapshotMachine, ConfigMismatchRejected)
{
    const WorkloadSpec spec = pick(Family::kStream);
    Machine warmed = build_machine(snap_config(), spec);
    warmed.run(5'000);
    const std::string snap = warmed.save_snapshot();

    const MachineConfig other =
        make_config(L1dPrefetcherKind::kBerti, scheme_discard());
    Machine fresh = build_machine(other, spec);
    try {
        fresh.restore_snapshot(snap);
        ADD_FAILURE() << "restored under a different machine config";
    } catch (const SnapshotError &e) {
        EXPECT_EQ(e.kind(), SnapshotErrorKind::kConfigMismatch);
    }
}

// ---------------------------------------------- workload stream position

/** Save @p w's position as its own one-section container. */
std::string
workload_state(const Workload &w)
{
    SnapshotWriter sw(0);
    sw.begin_section("workload");
    w.save_state(sw);
    return sw.finish();
}

/** Restore @p w from workload_state-style @p bytes. */
void
restore_workload(Workload &w, const std::string &bytes)
{
    SnapshotReader r(bytes);
    r.begin_section("workload");
    w.restore_state(r);
    r.finish();
}

/** The next @p n instructions of @p a and @p b must be identical. */
void
expect_same_stream(Workload &a, Workload &b, int n)
{
    for (int i = 0; i < n; ++i) {
        const TraceInst x = a.next();
        const TraceInst y = b.next();
        ASSERT_TRUE(x.pc == y.pc && x.op == y.op &&
                    x.mem_addr == y.mem_addr && x.taken == y.taken &&
                    x.target == y.target && x.dep_load == y.dep_load)
            << "instruction " << i << " differs";
    }
}

TEST(SnapshotWorkload, EveryKernelKindResumesTheStraightStream)
{
    const Family families[] = {
        Family::kStream, Family::kTile,  Family::kGather,
        Family::kCsr,    Family::kChase, Family::kHash,
        Family::kBursty, Family::kPhaseMix, Family::kDualStride,
        Family::kSeqChase,
    };
    for (const Family family : families) {
        const WorkloadSpec spec = pick(family);
        SCOPED_TRACE(spec.name);
        WorkloadPtr straight = make_workload(spec);
        // Long enough for phase mixes to switch children and every
        // kernel to leave its initial cursor state.
        straight->skip(123'457);
        const std::string bytes = workload_state(*straight);
        WorkloadPtr resumed = make_workload(spec);
        restore_workload(*resumed, bytes);
        EXPECT_EQ(workload_state(*resumed), bytes);
        expect_same_stream(*straight, *resumed, 10'000);
    }
}

TEST(SnapshotWorkload, TraceFileResumesAtItsRecord)
{
    const std::string path = temp_dir("trace") + "/w.trc";
    {
        WorkloadPtr src = make_workload(pick(Family::kHash));
        ASSERT_TRUE(record_trace(path, *src, 20'000));
    }
    // A small ring makes the resume point land mid-block and the
    // stream wrap past the end of the trace.
    TraceFileWorkload straight(path, 64);
    straight.skip(13'333);
    for (int i = 0; i < 1'000; ++i) {
        (void)straight.next();
    }
    const std::string bytes = workload_state(straight);
    TraceFileWorkload resumed(path, 64);
    restore_workload(resumed, bytes);
    expect_same_stream(straight, resumed, 10'000);
}

TEST(SnapshotWorkload, KernelKindMismatchIsMalformed)
{
    WorkloadPtr stream = make_workload(pick(Family::kStream));
    const std::string bytes = workload_state(*stream);
    WorkloadPtr tile = make_workload(pick(Family::kTile));
    try {
        restore_workload(*tile, bytes);
        ADD_FAILURE() << "stream state restored into a tile kernel";
    } catch (const SnapshotError &e) {
        EXPECT_EQ(e.kind(), SnapshotErrorKind::kMalformed);
    }
}

// ----------------------------------------------- sparse maps, frame sets

/** @p m saved alone, sparse slot records included. */
std::string
map_state(const FlatAddrMap &m)
{
    SnapshotWriter w(0);
    w.begin_section("m");
    SnapshotAccess::save(w, m);
    return w.finish();
}

/** Slot-order contents: equal iff the probe layouts are equal. */
std::vector<std::pair<Addr, Addr>>
slot_order(const FlatAddrMap &m)
{
    return {m.begin(), m.end()};
}

/** Restore @p bytes into a fresh map built with @p reserve. */
FlatAddrMap
restored_map(const std::string &bytes, std::size_t reserve)
{
    FlatAddrMap m(reserve);
    SnapshotReader r(bytes);
    r.begin_section("m");
    SnapshotAccess::restore(r, m);
    r.finish();
    return m;
}

TEST(SnapshotSparseMap, GrownMapKeepsItsSlotLayout)
{
    FlatAddrMap m(16);  // 64 slots, doubles twice below
    for (Addr k = 0; k < 100; ++k) {
        *m.try_emplace(k * 7919 + 3).first = k * 4096;
    }
    ASSERT_EQ(m.capacity_slots(), 256u);
    const std::string bytes = map_state(m);
    FlatAddrMap back = restored_map(bytes, 16);
    EXPECT_EQ(back.capacity_slots(), m.capacity_slots());
    EXPECT_EQ(back.size(), m.size());
    EXPECT_EQ(slot_order(back), slot_order(m));
    EXPECT_EQ(map_state(back), bytes);
    // Later inserts probe the same slots in both.
    for (Addr k = 100; k < 120; ++k) {
        *m.try_emplace(k * 7919 + 3).first = k;
        *back.try_emplace(k * 7919 + 3).first = k;
    }
    EXPECT_EQ(slot_order(back), slot_order(m));
}

TEST(SnapshotSparseMap, WrappedProbeClusterKeepsItsSlots)
{
    FlatAddrMap m(16);  // 64 slots
    const std::size_t mask = m.capacity_slots() - 1;
    // Three keys that all hash to the last slot: the cluster wraps
    // around to slots 0 and 1.
    std::vector<Addr> keys;
    for (Addr k = 1; keys.size() < 3; ++k) {
        if ((mix64(k) & mask) == mask) {
            keys.push_back(k);
        }
    }
    for (const Addr k : keys) {
        *m.try_emplace(k).first = k + 1;
    }
    const std::vector<std::pair<Addr, Addr>> order = slot_order(m);
    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order.front().first, keys[1]);  // slot 0: wrapped
    const FlatAddrMap back = restored_map(map_state(m), 16);
    EXPECT_EQ(slot_order(back), order);
    for (const Addr k : keys) {
        ASSERT_NE(back.find(k), back.end());
        EXPECT_EQ(back.find(k)->second, k + 1);
    }
}

TEST(SnapshotSparseMap, InconsistentHeaderIsMalformed)
{
    FlatAddrMap m(16);
    *m.try_emplace(5).first = 1;
    SnapshotWriter w(0);
    w.begin_section("m");
    w.put_u64(64);  // slots
    w.put_u64(1);   // size
    w.put_u64(64);  // slot index past the table
    w.put_u64(5);
    w.put_u64(1);
    const std::string bytes = w.finish();
    try {
        (void)restored_map(bytes, 16);
        ADD_FAILURE() << "slot index past the table accepted";
    } catch (const SnapshotError &e) {
        EXPECT_EQ(e.kind(), SnapshotErrorKind::kMalformed);
    }
}

TEST(SnapshotPageTable, DerivedFrameSetsAuditCleanAndAllocateAlike)
{
    // A small memory makes the allocator re-draw often, so a frame
    // set that is wrong after the restore changes later allocations.
    VmemConfig cfg;
    cfg.phys_bytes = Addr{64} << 20;  // 8192 4KB frames, 16 2MB frames
    cfg.large_page_fraction = 0.4;
    PageTable driven(cfg);
    std::array<PhysAddr, 5> ptes{};
    const auto touch = [&ptes](PageTable &pt, Addr first, Addr pages) {
        for (Addr p = first; p < first + pages; ++p) {
            const VirtAddr va{0x40000000 + p * kPageSize};
            (void)pt.walk_addresses(va, ptes);
            (void)pt.translate(va);
        }
    };
    touch(driven, 0, 4096);  // 16MB: eight 2MB regions

    SnapshotWriter w(0);
    w.begin_section("t");
    driven.save_state(w);
    const std::string bytes = w.finish();
    PageTable fresh(cfg);
    restore_section(fresh, bytes);

    AuditReport report;
    audit::audit_page_table(fresh, report);
    EXPECT_TRUE(report.ok()) << report.to_string();
    EXPECT_GT(AuditAccess::large_page_map(fresh).size(), 0u);
    EXPECT_EQ(AuditAccess::used_frames(fresh).size(),
              AuditAccess::used_frames(driven).size());
    EXPECT_EQ(AuditAccess::used_large_frames(fresh).size(),
              AuditAccess::used_large_frames(driven).size());

    // New pages after the restore land on the same frames.
    touch(driven, 4096, 2048);
    touch(fresh, 4096, 2048);
    for (Addr p = 0; p < 6144; ++p) {
        const VirtAddr va{0x40000000 + p * kPageSize};
        ASSERT_EQ(fresh.translate(va).paddr, driven.translate(va).paddr)
            << "page " << p;
    }
    EXPECT_EQ(section_of(fresh), section_of(driven));
}

// ------------------------------------------------------- snapshot cache

TEST(SnapshotCacheTest, MissProducesThenDiskHit)
{
    const std::string dir = temp_dir("cache");
    int produced = 0;
    const auto produce = [&produced]() {
        ++produced;
        return tiny_snapshot();
    };
    {
        SnapshotCache cache(dir);
        const SnapshotCache::Stats before = cache.stats();
        const SnapshotBlob blob = cache.fetch(1, produce);
        ASSERT_NE(blob, nullptr);
        const SnapshotCache::Stats d = cache.stats() - before;
        EXPECT_EQ(d.hits, 0u);
        EXPECT_EQ(d.misses, 1u);
        EXPECT_EQ(d.saves, 1u);
        EXPECT_EQ(produced, 1);
        EXPECT_TRUE(std::filesystem::exists(cache.path_for(1)));
    }
    {
        // New cache instance: must hit from disk, not memory.
        SnapshotCache cache(dir);
        const SnapshotCache::Stats before = cache.stats();
        const SnapshotBlob blob = cache.fetch(1, produce);
        ASSERT_NE(blob, nullptr);
        const SnapshotCache::Stats d = cache.stats() - before;
        EXPECT_EQ(d.hits, 1u);
        EXPECT_EQ(d.misses, 0u);
        EXPECT_EQ(d.saves, 0u);
        EXPECT_EQ(produced, 1);  // not produced again
        EXPECT_EQ(blob->bytes(), tiny_snapshot());
    }
}

TEST(SnapshotCacheTest, InProcessMemoization)
{
    const std::string dir = temp_dir("memo");
    SnapshotCache cache(dir);
    int produced = 0;
    for (int i = 0; i < 3; ++i) {
        (void)cache.fetch(5, [&produced]() {
            ++produced;
            return tiny_snapshot();
        });
    }
    EXPECT_EQ(produced, 1);
    EXPECT_EQ(cache.stats().hits, 2u);
}

TEST(SnapshotCacheTest, CorruptFileFallsBackToProduce)
{
    const std::string dir = temp_dir("corrupt");
    SnapshotCache cache(dir);
    {
        std::ofstream os(cache.path_for(9), std::ios::binary);
        os << "definitely not a snapshot";
    }
    int produced = 0;
    const SnapshotBlob blob = cache.fetch(9, [&produced]() {
        ++produced;
        return tiny_snapshot();
    });
    ASSERT_NE(blob, nullptr);
    EXPECT_EQ(produced, 1);
    EXPECT_EQ(cache.stats().invalid, 1u);
    // The corrupt file was dropped and replaced by the valid publish.
    std::ifstream is(cache.path_for(9), std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(is)),
                      std::istreambuf_iterator<char>());
    EXPECT_EQ(bytes, tiny_snapshot());
}

TEST(SnapshotCacheTest, ProducerFailurePropagates)
{
    const std::string dir = temp_dir("fail");
    SnapshotCache cache(dir);
    EXPECT_THROW(
        (void)cache.fetch(3,
                          []() -> std::string {
                              throw JobError(JobErrorCode::kTimeout,
                                             "warmup hung");
                          }),
        JobError);
    // A later fetch may retry: the inflight entry was not poisoned.
    const SnapshotBlob blob = cache.fetch(3, []() { return tiny_snapshot(); });
    ASSERT_NE(blob, nullptr);
}

// ----------------------------------------------- runner + job taxonomy

TEST(SnapshotRunner, WarmRunMatchesColdRunExactly)
{
    const MachineConfig cfg = snap_config();
    const WorkloadSpec spec = pick(Family::kGather);
    RunConfig run;
    run.warmup_insts = 15'000;
    run.measure_insts = 40'000;

    const RunMetrics cold =
        run_single_workload(cfg, make_workload(spec), run, nullptr);

    const std::string dir = temp_dir("runner");
    SnapshotCache cache(dir);
    const WorkloadFactory factory = [&spec]() {
        return make_workload(spec);
    };
    // First call misses (produces + publishes), second hits from disk;
    // both must reproduce the cold metrics exactly.
    const RunMetrics missed = run_single_workload_snapshot(
        cfg, factory, run, nullptr, cache, /*warmup_key=*/77);
    const RunMetrics hit = run_single_workload_snapshot(
        cfg, factory, run, nullptr, cache, /*warmup_key=*/77);
    EXPECT_GE(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().misses, 1u);
    for (const RunMetrics &warm : {missed, hit}) {
        EXPECT_EQ(warm.instructions, cold.instructions);
        EXPECT_EQ(warm.cycles, cold.cycles);
        EXPECT_EQ(warm.l1d.misses, cold.l1d.misses);
        EXPECT_EQ(warm.llc.misses, cold.llc.misses);
        EXPECT_EQ(warm.pgc_issued, cold.pgc_issued);
        EXPECT_EQ(warm.branch_mispredicts, cold.branch_mispredicts);
    }
}

/**
 * Opens of @p path while @p body runs, counted through inotify, or -1
 * when the host offers no inotify instance. Reads are watched too:
 * inotify merges an event into an identical one queued just before
 * it, and every open of a trace reads its header before the next.
 */
int
opens_of(const std::string &path, const std::function<void()> &body)
{
    const int fd = inotify_init1(IN_NONBLOCK | IN_CLOEXEC);
    if (fd < 0) {
        return -1;
    }
    if (inotify_add_watch(fd, path.c_str(), IN_OPEN | IN_ACCESS) < 0) {
        close(fd);
        return -1;
    }
    body();
    int opens = 0;
    alignas(inotify_event) char buf[4096];
    for (;;) {
        const ssize_t len = read(fd, buf, sizeof(buf));
        if (len <= 0) {
            break;
        }
        for (ssize_t off = 0; off < len;) {
            inotify_event event;
            std::memcpy(&event, buf + off, sizeof(event));
            opens += (event.mask & IN_OPEN) != 0 ? 1 : 0;
            off += static_cast<ssize_t>(sizeof(event) + event.len);
        }
    }
    close(fd);
    return opens;
}

TEST(SnapshotRunner, TraceJobOpensItsTraceOncePerMachine)
{
    const std::string dir = temp_dir("trace_job");
    const std::string path = dir + "/w.trc";
    {
        WorkloadPtr src = make_workload(pick(Family::kHash));
        ASSERT_TRUE(record_trace(path, *src, 20'000));
    }
    JobSpec spec;
    spec.trace_path = path;
    spec.scheme = "dripper";
    spec.prefetcher = "berti";
    spec.run.warmup_insts = 5'000;
    spec.run.measure_insts = 10'000;
    SnapshotCache cache(dir + "/snaps");
    JobContext ctx;
    std::vector<JobOutput> outs;
    const auto run_job = [&] { outs.push_back(run_sim_job(spec, ctx)); };

    // Cold: one machine, one open.
    const int cold = opens_of(path, run_job);
    if (cold < 0) {
        GTEST_SKIP() << "no inotify on this host";
    }
    EXPECT_EQ(cold, 1);
    // Warm miss: the warmup machine takes the job's own build; only
    // the restored machine opens the trace again.
    ctx.snapshot = &cache;
    EXPECT_EQ(opens_of(path, run_job), 2);
    // Warm hit: the restored machine takes the job's own build.
    EXPECT_EQ(opens_of(path, run_job), 1);
    EXPECT_EQ(cache.stats().hits, 1u);
    ASSERT_EQ(outs.size(), 3u);
    for (const JobOutput &out : outs) {
        EXPECT_EQ(out.row.workload, "trace:" + path);
        EXPECT_EQ(out.row.metrics.cycles, outs[0].row.metrics.cycles);
        EXPECT_EQ(out.row.metrics.instructions,
                  outs[0].row.metrics.instructions);
    }
}

TEST(SnapshotRunner, VersionOneFileCountsInvalidAndRunsCold)
{
    const MachineConfig cfg = snap_config();
    const WorkloadSpec spec = pick(Family::kStream);
    RunConfig run;
    run.warmup_insts = 10'000;
    run.measure_insts = 20'000;
    const WorkloadFactory factory = [&spec]() {
        return make_workload(spec);
    };
    const RunMetrics cold =
        run_single_workload(cfg, make_workload(spec), run, nullptr);

    // Publish a snapshot, then downgrade the published file in place
    // to what an older build would have left in the directory.
    const std::string dir = temp_dir("v1");
    {
        SnapshotCache cache(dir);
        (void)run_single_workload_snapshot(cfg, factory, run, nullptr,
                                           cache, /*warmup_key=*/5);
    }
    std::vector<std::filesystem::path> files;
    for (const auto &entry : std::filesystem::directory_iterator(dir)) {
        files.push_back(entry.path());
    }
    ASSERT_EQ(files.size(), 1u);
    std::string bytes;
    {
        std::ifstream is(files[0], std::ios::binary);
        bytes.assign(std::istreambuf_iterator<char>(is),
                     std::istreambuf_iterator<char>());
    }
    {
        std::ofstream os(files[0], std::ios::binary | std::ios::trunc);
        os << with_version(bytes, 1);
    }

    SnapshotCache cache(dir);
    const RunMetrics warm = run_single_workload_snapshot(
        cfg, factory, run, nullptr, cache, /*warmup_key=*/5);
    EXPECT_EQ(cache.stats().invalid, 1u);
    EXPECT_EQ(cache.stats().hits, 0u);
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(warm.instructions, cold.instructions);
    EXPECT_EQ(warm.cycles, cold.cycles);
    EXPECT_EQ(warm.l1d.misses, cold.l1d.misses);
    EXPECT_EQ(warm.llc.misses, cold.llc.misses);
    EXPECT_EQ(warm.pgc_issued, cold.pgc_issued);
    // The stale file was replaced by a current-version publish.
    std::ifstream is(files[0], std::ios::binary);
    const std::string republished((std::istreambuf_iterator<char>(is)),
                                  std::istreambuf_iterator<char>());
    EXPECT_EQ(republished, bytes);
}

TEST(SnapshotRunner, RejectedRestoreCountsInvalidAndRunsCold)
{
    // A structurally valid file the machine rejects on restore (here:
    // saved under another scheme, as a key collision would leave it)
    // is counted in Stats::invalid and the run falls back cold.
    const MachineConfig cfg = snap_config();
    const WorkloadSpec spec = pick(Family::kStream);
    RunConfig run;
    run.warmup_insts = 10'000;
    run.measure_insts = 20'000;
    const WorkloadFactory factory = [&spec]() {
        return make_workload(spec);
    };
    const RunMetrics cold =
        run_single_workload(cfg, make_workload(spec), run, nullptr);

    const std::string dir = temp_dir("rejected");
    {
        SnapshotCache cache(dir);
        (void)run_single_workload_snapshot(cfg, factory, run, nullptr,
                                           cache, /*warmup_key=*/9);
    }
    std::vector<std::filesystem::path> files;
    for (const auto &entry : std::filesystem::directory_iterator(dir)) {
        files.push_back(entry.path());
    }
    ASSERT_EQ(files.size(), 1u);
    {
        Machine other = build_machine(
            make_config(L1dPrefetcherKind::kBerti, scheme_discard()), spec);
        other.run(run.warmup_insts);
        std::ofstream os(files[0], std::ios::binary | std::ios::trunc);
        os << other.save_snapshot();
    }

    SnapshotCache cache(dir);
    const RunMetrics warm = run_single_workload_snapshot(
        cfg, factory, run, nullptr, cache, /*warmup_key=*/9);
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().invalid, 1u);
    EXPECT_EQ(warm.instructions, cold.instructions);
    EXPECT_EQ(warm.cycles, cold.cycles);
    EXPECT_EQ(warm.l1d.misses, cold.l1d.misses);
    EXPECT_EQ(warm.llc.misses, cold.llc.misses);
    EXPECT_EQ(warm.pgc_issued, cold.pgc_issued);
}

/**
 * @p bytes with @p mutate applied to the payload of the first section
 * named @p name, and that section's sum rewritten so the container
 * still validates (a fault the sums cannot see).
 */
std::string
with_section_payload(std::string bytes, const std::string &name,
                     const std::function<void(char *, std::size_t)> &mutate)
{
    const auto u32_at = [&bytes](std::size_t at) {
        std::uint32_t v = 0;
        std::memcpy(&v, bytes.data() + at, sizeof(v));
        return v;
    };
    const auto u64_at = [&bytes](std::size_t at) {
        std::uint64_t v = 0;
        std::memcpy(&v, bytes.data() + at, sizeof(v));
        return v;
    };
    std::size_t at = 8 + 4 + 8;  // magic, version, fingerprint
    const std::uint32_t count = u32_at(at);
    at += 4;
    for (std::uint32_t i = 0; i < count; ++i) {
        const std::uint32_t name_len = u32_at(at);
        const std::string section = bytes.substr(at + 4, name_len);
        at += 4 + name_len;
        const std::uint64_t size = u64_at(at);
        const std::size_t payload = at + 16;
        if (section == name) {
            mutate(bytes.data() + payload, size);
            const std::uint64_t sum = fnv1a_64(bytes.data() + payload, size);
            std::memcpy(bytes.data() + at + 8, &sum, sizeof(sum));
            return bytes;
        }
        at = payload + size;
    }
    ADD_FAILURE() << "no section named " << name;
    return bytes;
}

TEST(SnapshotRunner, CorruptWorkloadSectionIsMalformedAndRunsCold)
{
    const MachineConfig cfg = snap_config();
    const WorkloadSpec spec = pick(Family::kStream);
    RunConfig run;
    run.warmup_insts = 10'000;
    run.measure_insts = 20'000;
    const WorkloadFactory factory = [&spec]() {
        return make_workload(spec);
    };
    const RunMetrics cold =
        run_single_workload(cfg, make_workload(spec), run, nullptr);

    // The workload section starts after the synthetic workload's RNG
    // lanes and two counters; its first byte is the kernel kind tag.
    Machine warmed = build_machine(cfg, spec);
    warmed.run(run.warmup_insts);
    const std::string bad = with_section_payload(
        warmed.save_snapshot(), "core.workload",
        [](char *p, std::size_t n) {
            ASSERT_GT(n, 48u);
            p[48] = static_cast<char>(p[48] + 1);
        });
    Machine fresh = build_machine(cfg, spec);
    try {
        fresh.restore_snapshot(bad);
        ADD_FAILURE() << "corrupt workload section restored";
    } catch (const SnapshotError &e) {
        EXPECT_EQ(e.kind(), SnapshotErrorKind::kMalformed);
    }

    // Published under the run's key, the same bytes are a cache hit
    // the machine rejects: counted invalid, and the run goes cold.
    const std::string dir = temp_dir("badworkload");
    {
        SnapshotCache cache(dir);
        (void)run_single_workload_snapshot(cfg, factory, run, nullptr,
                                           cache, /*warmup_key=*/4);
    }
    std::vector<std::filesystem::path> files;
    for (const auto &entry : std::filesystem::directory_iterator(dir)) {
        files.push_back(entry.path());
    }
    ASSERT_EQ(files.size(), 1u);
    {
        std::ofstream os(files[0], std::ios::binary | std::ios::trunc);
        os << bad;
    }
    SnapshotCache cache(dir);
    const RunMetrics warm = run_single_workload_snapshot(
        cfg, factory, run, nullptr, cache, /*warmup_key=*/4);
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().invalid, 1u);
    EXPECT_EQ(warm.instructions, cold.instructions);
    EXPECT_EQ(warm.cycles, cold.cycles);
    EXPECT_EQ(warm.l1d.misses, cold.l1d.misses);
    EXPECT_EQ(warm.llc.misses, cold.llc.misses);
    EXPECT_EQ(warm.pgc_issued, cold.pgc_issued);
}

TEST(SnapshotRunner, DifferentSchemesGetDifferentWarmupKeys)
{
    // Same workload + warmup under two schemes must not share a
    // snapshot: the second run must miss, not hit.
    const WorkloadSpec spec = pick(Family::kStream);
    RunConfig run;
    run.warmup_insts = 5'000;
    run.measure_insts = 10'000;
    const std::string dir = temp_dir("keys");
    SnapshotCache cache(dir);
    const WorkloadFactory factory = [&spec]() {
        return make_workload(spec);
    };
    (void)run_single_workload_snapshot(snap_config(), factory, run,
                                       nullptr, cache, 77);
    const MachineConfig other =
        make_config(L1dPrefetcherKind::kBerti, scheme_discard());
    (void)run_single_workload_snapshot(other, factory, run, nullptr,
                                       cache, 77);
    EXPECT_EQ(cache.stats().misses, 2u);
    EXPECT_EQ(cache.stats().hits, 0u);
}

TEST(SnapshotJobError, NameRoundTrip)
{
    EXPECT_STREQ(to_string(JobErrorCode::kSnapshotInvalid),
                 "snapshot_invalid");
    EXPECT_FALSE(is_transient(JobErrorCode::kSnapshotInvalid));
}

TEST(SnapshotDefaults, WarmupBudgetUnified)
{
    // Satellite of the snapshot work: the single-core and multicore
    // entry points used to carry silently different warmup defaults.
    EXPECT_EQ(RunConfig{}.warmup_insts, kDefaultWarmupInsts);
    EXPECT_EQ(MulticoreConfig{}.warmup_insts, kDefaultWarmupInsts);
    EXPECT_EQ(kDefaultWarmupInsts, 200'000u);
}

}  // namespace
}  // namespace moka
