/**
 * @file
 * Component microbenchmarks (google-benchmark): throughput of the
 * structures on the simulated hot path — MokaFilter prediction and
 * training, cache accesses, TLB lookups, page walks, prefetcher
 * operate calls, and end-to-end simulated instructions per second.
 */
#include <benchmark/benchmark.h>

#include "cache/cache.h"
#include "dram/dram.h"
#include "filter/policies.h"
#include "prefetch/berti.h"
#include "prefetch/bop.h"
#include "prefetch/ipcp.h"
#include "sim/runner.h"
#include "trace/suites.h"
#include "vmem/walker.h"

using namespace moka;

static void
BM_FilterPredict(benchmark::State &state)
{
    FilterPtr f = make_dripper(L1dPrefetcherKind::kBerti);
    SystemSnapshot snap;
    Addr va = 0x10000000;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            f->permit(0x400123, VirtAddr{va}, 5, VirtAddr{va + 5 * 64},
                      snap));
        va += 64;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FilterPredict);

static void
BM_FilterTrainCycle(benchmark::State &state)
{
    FilterPtr f = make_dripper(L1dPrefetcherKind::kBerti);
    SystemSnapshot snap;
    Addr va = 0x10000000;
    for (auto _ : state) {
        const VirtAddr target{va + 5 * 64};
        if (f->permit(0x400123, VirtAddr{va}, 5, target, snap)) {
            f->on_pgc_issued(target, PhysAddr{va + 5 * 64});
            f->on_pgc_eviction(PhysAddr{va + 5 * 64}, (va & 128) != 0);
        } else {
            f->on_l1d_demand_miss(target);
        }
        va += 64;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FilterTrainCycle);

static void
BM_CacheAccess(benchmark::State &state)
{
    DramConfig dcfg;
    Dram dram(dcfg);
    CacheConfig cfg;
    cfg.sets = 64;
    cfg.ways = 8;
    Cache cache(cfg, &dram);
    Addr a = 0;
    Cycle now = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            cache.access(PhysAddr{a}, AccessType::kLoad, now));
        a = (a + 64) % (1 << 20);
        now += 2;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccess);

/**
 * LLC-geometry lookup + victim choice: 2048x16 is the single-core
 * LLC, 16384x16 the 8-core one. The footprint is twice the capacity,
 * visited as one fixed scattered cycle (an odd stride modulo the
 * power-of-two footprint), so every set sees the same 2 * ways blocks
 * in the same order: under LRU every access misses and evicts, and
 * the host walks the set arrays in random order, as the simulator's
 * LLC traffic does. Misses complete locally (no lower level) so only
 * the cache is timed.
 */
static void
BM_CacheAccessLlc(benchmark::State &state)
{
    CacheConfig cfg;
    cfg.sets = static_cast<std::uint32_t>(state.range(0));
    cfg.ways = static_cast<std::uint32_t>(state.range(1));
    cfg.latency = 20;
    cfg.mshr_entries = 64;
    Cache cache(cfg, nullptr);
    const Addr mask = Addr{2} * cfg.sets * cfg.ways - 1;  // pow2 - 1
    Addr k = 0;
    Cycle now = 0;
    for (auto _ : state) {
        const Addr block = (k++ * 0x9E3779B1ull) & mask;
        benchmark::DoNotOptimize(cache.access(
            PhysAddr{block << kBlockBits}, AccessType::kLoad, now));
        now += 2;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccessLlc)->Args({2048, 16})->Args({16384, 16});

static void
BM_TlbLookup(benchmark::State &state)
{
    TlbConfig cfg;
    cfg.sets = 16;
    cfg.ways = 4;
    Tlb tlb(cfg);
    for (Addr p = 0; p < 64; ++p) {
        tlb.fill(VirtAddr{p << kPageBits}, PhysAddr{p << kPageBits},
                 false, false);
    }
    Addr va = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(tlb.lookup(VirtAddr{va}, 0, true));
        va = (va + kPageSize) % (128 << kPageBits);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TlbLookup);

static void
BM_PageWalk(benchmark::State &state)
{
    DramConfig dcfg;
    Dram dram(dcfg);
    CacheConfig l2cfg;
    l2cfg.sets = 1024;
    l2cfg.ways = 8;
    Cache l2(l2cfg, &dram);
    VmemConfig vcfg;
    PageTable pt(vcfg);
    WalkerConfig wcfg;
    PageWalker walker(wcfg, &pt, &l2);
    Addr va = 0x10000000;
    Cycle now = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(walker.walk(VirtAddr{va}, now, false));
        va += kPageSize;
        now += 50;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PageWalk);

static void
BM_PrefetcherOperate(benchmark::State &state)
{
    const L1dPrefetcherKind kinds[] = {L1dPrefetcherKind::kBerti,
                                       L1dPrefetcherKind::kIpcp,
                                       L1dPrefetcherKind::kBop};
    PrefetcherPtr pf = make_l1d_prefetcher(kinds[state.range(0)]);
    std::vector<PrefetchRequest> out;
    PrefetchContext ctx;
    ctx.pc = 0x400123;
    for (auto _ : state) {
        ctx.vaddr += 64;
        ctx.now += 20;
        out.clear();
        pf->on_access(ctx, out);
        benchmark::DoNotOptimize(out.size());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PrefetcherOperate)->Arg(0)->Arg(1)->Arg(2);

/**
 * Berti training: 64 PCs (the IP table's capacity), each walking its
 * own repeating pattern of mixed deltas, so every IP's delta table
 * fills and the weakest-candidate replacement keeps running.
 */
static void
BM_BertiTrain(benchmark::State &state)
{
    Berti berti(BertiConfig{});
    const std::int64_t steps[] = {3, -1, 5, 2, -4, 7, 1, -6};
    std::vector<std::int64_t> line(64);
    for (std::size_t p = 0; p < line.size(); ++p) {
        line[p] = std::int64_t(1 + p) << 24;
    }
    std::vector<PrefetchRequest> out;
    PrefetchContext ctx;
    std::uint64_t i = 0;
    for (auto _ : state) {
        const std::size_t pc = i % 64;
        line[pc] += steps[(i / 64 + pc) % 8];
        ctx.pc = 0x400000 + pc * 4;
        ctx.vaddr = VirtAddr{static_cast<Addr>(line[pc]) << kBlockBits};
        ctx.now += 7;
        out.clear();
        berti.on_access(ctx, out);
        benchmark::DoNotOptimize(out.size());
        ++i;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BertiTrain);

static void
BM_SimulatedMips(benchmark::State &state)
{
    // End-to-end: simulated instructions per wall-clock second.
    const WorkloadSpec spec = seen_workloads().front();
    const MachineConfig cfg = make_config(
        L1dPrefetcherKind::kBerti,
        scheme_dripper(L1dPrefetcherKind::kBerti));
    std::vector<WorkloadPtr> w;
    w.push_back(make_workload(spec));
    Machine machine(cfg, std::move(w));
    for (auto _ : state) {
        machine.run(10000);
    }
    state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_SimulatedMips);

BENCHMARK_MAIN();
