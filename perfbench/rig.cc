#include "rig.h"

#include <algorithm>
#include <cstdio>

#include "common/hashing.h"

namespace perfbench {

using namespace moka;

namespace {

struct LayerInfo
{
    const char *name;
    const char *group;
};

constexpr std::array<LayerInfo, kLayers> kLayerInfo = {{
    {"trace.next", "trace"},
    {"trace.skip", "trace"},
    {"core.fetch", "core"},
    {"core.dispatch_retire", "core"},
    {"vmem.tlb", "vmem"},
    {"vmem.walk", "vmem"},
    {"cache.l1d", "cache"},
    {"cache.l2", "cache"},
    {"cache.llc", "cache"},
    {"dram.access", "dram"},
    {"prefetch.train", "prefetch"},
    {"prefetch.fill", "prefetch"},
    {"filter.permit", "filter"},
    {"filter.train", "filter"},
    {"snapshot.save", "snapshot"},
    {"snapshot.restore", "snapshot"},
    {"jobs.cell", "jobs"},
}};

}  // namespace

const char *
layer_name(Layer layer)
{
    return kLayerInfo[static_cast<std::size_t>(layer)].name;
}

const char *
layer_group(Layer layer)
{
    return kLayerInfo[static_cast<std::size_t>(layer)].group;
}

// ---------------------------------------------------------------------------
// SpanRecorder
// ---------------------------------------------------------------------------

SpanRecorder::SpanRecorder(std::size_t keep)
    : epoch_(std::chrono::steady_clock::now()), keep_(keep)
{
    spans_.reserve(std::min<std::size_t>(keep_, 1u << 16));
    stack_.reserve(16);
}

void
SpanRecorder::merge(const SpanRecorder &other)
{
    for (std::size_t i = 0; i < kLayers; ++i) {
        totals_[i].calls += other.totals_[i].calls;
        totals_[i].spans += other.totals_[i].spans;
        totals_[i].children += other.totals_[i].children;
        totals_[i].self_ns += other.totals_[i].self_ns;
        totals_[i].span_ns += other.totals_[i].span_ns;
        items_[i] += other.items_[i];
    }
    // Re-base the other recorder's clock and parent indices.
    const std::int64_t shift =
        std::chrono::duration_cast<std::chrono::nanoseconds>(other.epoch_ -
                                                             epoch_)
            .count();
    const auto base = static_cast<std::uint32_t>(spans_.size());
    for (const Span &s : other.spans_) {
        if (spans_.size() >= keep_) {
            break;
        }
        spans_.push_back({s.parent == kNoParent ? kNoParent : s.parent + base,
                          s.layer, s.start_ns + shift, s.end_ns + shift});
    }
}

bool
SpanRecorder::write_csv(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        return false;
    }
    std::fputs("index,parent,layer,start_ns,end_ns\n", f);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f, "%zu,%lld,%s,%lld,%lld\n", i,
                     s.parent == kNoParent ? -1LL
                                           : static_cast<long long>(s.parent),
                     layer_name(s.layer), static_cast<long long>(s.start_ns),
                     static_cast<long long>(s.end_ns));
    }
    return std::fclose(f) == 0;
}

double
SpanCost::corrected_self_ns(const LayerTotals &t) const
{
    const double ns = static_cast<double>(t.self_ns) -
                      leaf_ns * static_cast<double>(t.spans) -
                      per_child_ns * static_cast<double>(t.children);
    return std::max(0.0, ns);
}

SpanCost
calibrate_span_cost()
{
    constexpr int kReps = 5;
    constexpr int kLeaves = 1 << 16;
    std::vector<double> leaf;
    std::vector<double> per_child;
    for (int r = 0; r < kReps; ++r) {
        SpanRecorder rec(0);
        rec.open(Layer::kJobsCell);
        for (int i = 0; i < kLeaves; ++i) {
            rec.open(Layer::kTraceNext);
            rec.close();
        }
        rec.close();
        const LayerTotals &l = rec.totals(Layer::kTraceNext);
        const LayerTotals &p = rec.totals(Layer::kJobsCell);
        leaf.push_back(static_cast<double>(l.self_ns) /
                       static_cast<double>(l.spans));
        per_child.push_back(static_cast<double>(p.self_ns) /
                            static_cast<double>(p.children));
    }
    std::sort(leaf.begin(), leaf.end());
    std::sort(per_child.begin(), per_child.end());
    return {leaf[kReps / 2], per_child[kReps / 2]};
}

// ---------------------------------------------------------------------------
// CoreRig: CoreComplex::step order, one span per call into a layer
// ---------------------------------------------------------------------------

CoreRig::CoreRig(const MachineConfig &cfg, WorkloadPtr workload,
                 std::size_t slot, SpanRecorder &rec)
    : cfg_(cfg), rec_(rec), bp_(cfg.branch), core_(cfg.core),
      frontend_(cfg.frontend, nullptr, nullptr, nullptr, nullptr, nullptr),
      workload_(std::move(workload))
{
    dram_ = std::make_unique<Dram>(cfg_.dram);
    dram_shim_ = std::make_unique<TimedLevel>(dram_.get(), Layer::kDram, rec_);
    llc_ = std::make_unique<Cache>(cfg_.llc, dram_shim_.get());
    llc_shim_ =
        std::make_unique<TimedLevel>(llc_.get(), Layer::kCacheLlc, rec_);
    l2_ = std::make_unique<Cache>(cfg_.l2, llc_shim_.get());
    l2_shim_ = std::make_unique<TimedLevel>(l2_.get(), Layer::kCacheL2, rec_);
    l1i_ = std::make_unique<Cache>(cfg_.l1i, l2_shim_.get());
    l1d_ = std::make_unique<Cache>(cfg_.l1d, l2_shim_.get());
    l1d_->set_listener(this);

    // Same per-core seed a Machine gives the core in this slot.
    VmemConfig vmem = cfg_.vmem;
    vmem.seed = hash_combine(vmem.seed, mix64(0x1234 + 1 + slot));
    page_table_ = std::make_unique<PageTable>(vmem);
    itlb_ = std::make_unique<Tlb>(cfg_.itlb);
    dtlb_ = std::make_unique<Tlb>(cfg_.dtlb);
    stlb_ = std::make_unique<Tlb>(cfg_.stlb);
    walker_ = std::make_unique<PageWalker>(cfg_.walker, page_table_.get(),
                                           l2_shim_.get());
    frontend_ = Frontend(cfg_.frontend, l1i_.get(), itlb_.get(), stlb_.get(),
                         walker_.get(), &bp_);

    l1d_pf_ = make_l1d_prefetcher(cfg_.l1d_prefetcher,
                                  cfg_.scheme.iso_storage);
    l2_pf_ = make_l2_prefetcher(cfg_.l2_prefetcher);
    if (cfg_.scheme.policy == PgcPolicy::kFilter) {
        filter_ = cfg_.scheme.make_filter();
    }
    next_interval_ = cfg_.interval_insts;
    next_epoch_ = cfg_.epoch_insts;
}

CoreRig::~CoreRig() = default;

void
CoreRig::run(InstCount insts)
{
    for (InstCount i = 0; i < insts; ++i) {
        step();
    }
}

Tlb::Result
CoreRig::tlb_lookup(Tlb &tlb, VirtAddr vaddr, Cycle now, bool demand)
{
    Scope s(rec_, Layer::kVmemTlb);
    return tlb.lookup(vaddr, now, demand);
}

void
CoreRig::tlb_fill(Tlb &tlb, VirtAddr vaddr, PhysAddr page_base, bool large,
                  bool prefetch)
{
    Scope s(rec_, Layer::kVmemTlb);
    tlb.fill(vaddr, page_base, large, prefetch);
}

PageWalker::WalkResult
CoreRig::walk(VirtAddr vaddr, Cycle now, bool speculative)
{
    Scope s(rec_, Layer::kVmemWalk);
    return walker_->walk(vaddr, now, speculative);
}

AccessResult
CoreRig::l1d_access(PhysAddr paddr, AccessType type, Cycle now, bool pgc)
{
    Scope s(rec_, Layer::kCacheL1d);
    return l1d_->access(paddr, type, now, pgc);
}

void
CoreRig::pf_fill(VirtAddr vaddr, Cycle now, bool was_prefetch)
{
    Scope s(rec_, Layer::kPrefetchFill);
    l1d_pf_->on_fill(vaddr, now, was_prefetch);
}

CoreRig::Translated
CoreRig::translate_demand(VirtAddr vaddr, Cycle now)
{
    Translated out;
    const Tlb::Result d = tlb_lookup(*dtlb_, vaddr, now, true);
    if (d.hit) {
        out.page_base = d.page_base;
        out.large = d.large;
        out.done = d.done;
    } else {
        const Tlb::Result s = tlb_lookup(*stlb_, vaddr, d.done, true);
        if (s.hit) {
            tlb_fill(*dtlb_, vaddr, s.page_base, s.large, false);
            out.page_base = s.page_base;
            out.large = s.large;
            out.done = s.done;
        } else {
            const PageWalker::WalkResult w = walk(vaddr, s.done, false);
            tlb_fill(*stlb_, vaddr, w.page_base, w.large, false);
            tlb_fill(*dtlb_, vaddr, w.page_base, w.large, false);
            out.page_base = w.page_base;
            out.large = w.large;
            out.done = w.done;
        }
    }
    out.paddr = out.page_base + (out.large ? large_page_offset(vaddr)
                                           : page_offset(vaddr));
    return out;
}

void
CoreRig::process_candidate(const PrefetchRequest &req,
                           const Translated &trigger, Cycle now)
{
    if (!crosses_page(req.trigger_vaddr, req.vaddr)) {
        const PhysAddr paddr =
            trigger.page_base + (trigger.large ? large_page_offset(req.vaddr)
                                               : page_offset(req.vaddr));
        const AccessResult r =
            l1d_access(paddr, AccessType::kPrefetch, now, false);
        if (!r.hit && !r.merged) {
            pf_fill(req.vaddr, r.done, true);
        }
        return;
    }

    ++pgc_candidates_;
    bool permit = false;
    switch (cfg_.scheme.policy) {
      case PgcPolicy::kPermit:
      case PgcPolicy::kDiscardPtw:
        permit = true;
        break;
      case PgcPolicy::kDiscard:
        permit = false;
        break;
      case PgcPolicy::kFilter:
        if (cfg_.scheme.filter_at_2mb &&
            page_table_->is_large_region(req.trigger_vaddr) &&
            !crosses_large_page(req.trigger_vaddr, req.vaddr)) {
            permit = true;
        } else {
            Scope s(rec_, Layer::kFilterPermit);
            permit = filter_->permit(req.trigger_pc, req.trigger_vaddr,
                                     req.delta, req.vaddr, last_snapshot_,
                                     req.meta);
        }
        break;
    }
    if (!permit) {
        ++pgc_dropped_;
        return;
    }

    const bool used_filter = cfg_.scheme.policy == PgcPolicy::kFilter &&
                             filter_ != nullptr;
    PhysAddr page_base;
    bool large;
    Cycle t;
    const Tlb::Result d = tlb_lookup(*dtlb_, req.vaddr, now, false);
    if (d.hit) {
        page_base = d.page_base;
        large = d.large;
        t = d.done;
    } else {
        const Tlb::Result s = tlb_lookup(*stlb_, req.vaddr, d.done, false);
        if (s.hit) {
            tlb_fill(*dtlb_, req.vaddr, s.page_base, s.large, true);
            page_base = s.page_base;
            large = s.large;
            t = s.done;
        } else if (cfg_.scheme.policy == PgcPolicy::kDiscardPtw) {
            ++pgc_dropped_;
            return;
        } else {
            const PageWalker::WalkResult w = walk(req.vaddr, s.done, true);
            tlb_fill(*stlb_, req.vaddr, w.page_base, w.large, true);
            tlb_fill(*dtlb_, req.vaddr, w.page_base, w.large, true);
            page_base = w.page_base;
            large = w.large;
            t = w.done;
        }
    }

    const PhysAddr paddr = page_base + (large ? large_page_offset(req.vaddr)
                                              : page_offset(req.vaddr));
    const AccessResult r = l1d_access(paddr, AccessType::kPrefetch, t, true);
    if (!r.hit && !r.merged) {
        pf_fill(req.vaddr, r.done, true);
        if (used_filter) {
            Scope s(rec_, Layer::kFilterTrain);
            filter_->on_pgc_issued(req.vaddr, paddr);
        }
    } else if (used_filter) {
        Scope s(rec_, Layer::kFilterTrain);
        filter_->on_pgc_abandoned();
    }
}

void
CoreRig::handle_memory(const TraceInst &inst, Cycle dispatch, Cycle &complete)
{
    Cycle issue = dispatch + 1;
    if (inst.dep_load) {
        issue = std::max(issue, last_load_complete_);
    }
    const Translated tr = translate_demand(inst.mem_addr, issue);
    const bool is_store = inst.op == OpClass::kStore;
    const AccessResult r = l1d_access(
        tr.paddr, is_store ? AccessType::kStore : AccessType::kLoad, tr.done,
        false);
    if (!r.hit) {
        if (filter_ != nullptr) {
            Scope s(rec_, Layer::kFilterTrain);
            filter_->on_l1d_demand_miss(inst.mem_addr);
        }
        if (!r.merged) {
            pf_fill(inst.mem_addr, r.done, false);
        }
    }
    if (is_store) {
        complete = tr.done + 1;
    } else {
        complete = r.done;
        last_load_complete_ = r.done;
    }

    PrefetchContext ctx;
    ctx.vaddr = inst.mem_addr;
    ctx.pc = inst.pc;
    ctx.hit = r.hit;
    ctx.store = is_store;
    ctx.now = tr.done;
    pf_buffer_.clear();
    {
        Scope s(rec_, Layer::kPrefetchTrain);
        l1d_pf_->on_access(ctx, pf_buffer_);
    }
    for (const PrefetchRequest &req : pf_buffer_) {
        process_candidate(req, tr, ctx.now);
    }

    if (!r.hit && l2_pf_ != nullptr) {
        l2_pf_buffer_.clear();
        const PrefetchContext l2ctx =
            physical_context(tr.paddr, inst.pc, false, false, tr.done);
        {
            Scope s(rec_, Layer::kPrefetchTrain);
            l2_pf_->on_access(l2ctx, l2_pf_buffer_);
        }
        for (const PrefetchRequest &req : l2_pf_buffer_) {
            if (!crosses_page(req.trigger_vaddr, req.vaddr)) {
                l2_shim_->access(physical_target(req), AccessType::kPrefetch,
                                 tr.done, false);
            }
        }
    }

    if (filter_ != nullptr) {
        Scope s(rec_, Layer::kFilterTrain);
        filter_->on_demand_access(inst.pc, inst.mem_addr);
    }
}

void
CoreRig::step()
{
    TraceInst inst;
    {
        Scope s(rec_, Layer::kTraceNext);
        inst = workload_->next();
    }
    ++insts_;
    Frontend::FetchResult fr;
    {
        Scope s(rec_, Layer::kCoreFetch);
        fr = frontend_.fetch(inst);
    }
    Cycle dispatch;
    {
        // dispatch and retire are one call for ns/call purposes
        Scope s(rec_, Layer::kCoreDispatchRetire, /*count_call=*/false);
        dispatch = core_.dispatch(fr.ready);
    }
    Cycle complete = dispatch + 1;
    if (inst.op == OpClass::kLoad || inst.op == OpClass::kStore) {
        handle_memory(inst, dispatch, complete);
    }
    if (inst.op == OpClass::kBranch && fr.mispredict) {
        Scope s(rec_, Layer::kCoreFetch, /*count_call=*/false);
        frontend_.redirect(complete);
    }
    {
        Scope s(rec_, Layer::kCoreDispatchRetire);
        core_.retire(complete);
    }
    if (core_.retired() >= next_interval_) {
        interval_tick();
    }
}

SystemSnapshot
CoreRig::snapshot() const
{
    SystemSnapshot s;
    const InstCount di =
        std::max<InstCount>(1, core_.retired() - window_start_.insts);
    const AccessStats l1d = l1d_->stats().demand - window_start_.l1d;
    const AccessStats l1i = l1i_->stats().demand - window_start_.l1i;
    const AccessStats stlb = stlb_->demand_stats() - window_start_.stlb;
    const AccessStats llc = llc_->stats().demand - window_start_.llc;
    s.llc_mpki = llc.mpki(di);
    s.llc_miss_rate = llc.miss_rate();
    s.l1d_mpki = l1d.mpki(di);
    s.l1d_miss_rate = l1d.miss_rate();
    s.l1i_mpki = l1i.mpki(di);
    s.stlb_mpki = stlb.mpki(di);
    s.stlb_miss_rate = stlb.miss_rate();
    const Cycle dc = core_.last_retire() > window_start_.cycle
                         ? core_.last_retire() - window_start_.cycle
                         : 1;
    s.ipc = static_cast<double>(di) / static_cast<double>(dc);
    s.rob_occupancy = core_.rob_pressure();
    s.inflight_l1d_misses = l1d_->inflight_misses(core_.last_retire());
    const std::uint64_t resolved = epoch_pgc_useful_ + epoch_pgc_useless_;
    s.pgc_accuracy_valid = resolved >= 8;
    s.pgc_accuracy = resolved == 0
                         ? 1.0
                         : static_cast<double>(epoch_pgc_useful_) /
                               static_cast<double>(resolved);
    return s;
}

void
CoreRig::interval_tick()
{
    next_interval_ += cfg_.interval_insts;
    last_snapshot_ = snapshot();
    if (filter_ != nullptr) {
        Scope s(rec_, Layer::kFilterTrain);
        filter_->on_interval(last_snapshot_);
    }
    window_start_.l1d = l1d_->stats().demand;
    window_start_.l1i = l1i_->stats().demand;
    window_start_.stlb = stlb_->demand_stats();
    window_start_.llc = llc_->stats().demand;
    window_start_.insts = core_.retired();
    window_start_.cycle = core_.last_retire();
    core_.reset_pressure_window();

    if (core_.retired() >= next_epoch_) {
        next_epoch_ += cfg_.epoch_insts;
        if (filter_ != nullptr) {
            EpochInfo info;
            const std::uint64_t resolved =
                epoch_pgc_useful_ + epoch_pgc_useless_;
            info.accuracy_valid = resolved >= 16;
            info.pgc_accuracy = resolved == 0
                                    ? 0.0
                                    : static_cast<double>(epoch_pgc_useful_) /
                                          static_cast<double>(resolved);
            const InstCount ei = core_.retired() - epoch_start_insts_;
            const Cycle ec =
                std::max<Cycle>(1, core_.last_retire() - epoch_start_cycle_);
            info.ipc = static_cast<double>(ei) / static_cast<double>(ec);
            Scope s(rec_, Layer::kFilterTrain);
            filter_->on_epoch(info);
        }
        epoch_pgc_useful_ = 0;
        epoch_pgc_useless_ = 0;
        epoch_start_insts_ = core_.retired();
        epoch_start_cycle_ = core_.last_retire();
    }
}

void
CoreRig::on_pgc_first_use(PhysAddr block_paddr)
{
    ++epoch_pgc_useful_;
    if (filter_ != nullptr) {
        Scope s(rec_, Layer::kFilterTrain);
        filter_->on_pgc_first_use(block_paddr);
    }
}

void
CoreRig::on_eviction(PhysAddr block_paddr, bool prefetched, bool pgc,
                     bool used)
{
    if (!prefetched || !pgc) {
        return;
    }
    if (!used) {
        ++epoch_pgc_useless_;
    }
    if (filter_ != nullptr) {
        Scope s(rec_, Layer::kFilterTrain);
        filter_->on_pgc_eviction(block_paddr, used);
    }
}

RunMetrics
CoreRig::metrics() const
{
    RunMetrics m;
    m.instructions = core_.retired();
    m.cycles = core_.last_retire();
    m.l1i = l1i_->stats().demand;
    m.l1d = l1d_->stats().demand;
    m.l2 = l2_->stats().demand;
    m.llc = llc_->stats().demand;
    m.dtlb = dtlb_->demand_stats();
    m.stlb = stlb_->demand_stats();
    m.l2_walk = l2_->stats().walk;
    m.l1d_writebacks = l1d_->stats().writebacks;
    m.l1d_pf_lookups = l1d_->stats().prefetch_lookups;
    const PrefetchStats &pf = l1d_->stats().pf;
    m.pf_issued = pf.issued;
    m.pf_useful = pf.useful;
    m.pf_useless = pf.useless;
    m.pgc_candidates = pgc_candidates_;
    m.pgc_issued = pf.pgc_issued;
    m.pgc_useful = pf.pgc_useful;
    m.pgc_useless = pf.pgc_useless;
    m.pgc_dropped = pgc_dropped_;
    m.demand_walks = walker_->demand_walks();
    m.spec_walks = walker_->spec_walks();
    m.walk_refs = walker_->total_mem_refs();
    m.dram_accesses = dram_->accesses();
    m.branch_mispredicts = bp_.mispredicts();
    return m;
}

}  // namespace perfbench
