/**
 * @file
 * The layer rig: host-time attribution per simulator layer, measured
 * from outside the simulator.
 *
 * A CoreRig builds one core's structures from their public
 * constructors (the same MachineConfig a Machine cell uses) and
 * replays the workload's instruction stream in CoreComplex::step
 * order, wrapping every call into a layer's public functions in a
 * span. The lower memory levels (L2, LLC, DRAM) sit behind TimedLevel
 * shims, so their spans nest inside the L1D (or walker, or fetch)
 * span that caused them; a layer's self time is its span time minus
 * the time of the spans nested in it.
 *
 * Spans (layer, start, end, parent) are kept in memory, up to a cap,
 * and written out as CSV when the benchmark ends. Per-layer totals
 * (calls, self time, span time) are kept for every span, cap or not.
 */
#ifndef MOKASIM_PERFBENCH_RIG_H
#define MOKASIM_PERFBENCH_RIG_H

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/machine.h"

namespace perfbench {

/** Span layers, grouped by the simulator module they time. */
enum class Layer : std::uint8_t {
    kTraceNext,          //!< Workload::next
    kTraceSkip,          //!< Workload::skip (snapshot fast-forward)
    kCoreFetch,          //!< Frontend::fetch / redirect (incl. L1I, iTLB)
    kCoreDispatchRetire, //!< Core::dispatch + Core::retire
    kVmemTlb,            //!< Tlb::lookup / Tlb::fill (dTLB, sTLB)
    kVmemWalk,           //!< PageWalker::walk
    kCacheL1d,           //!< Cache::access on the L1D
    kCacheL2,            //!< L2 behind its shim
    kCacheLlc,           //!< LLC behind its shim
    kDram,               //!< Dram::access behind its shim
    kPrefetchTrain,      //!< Prefetcher::on_access
    kPrefetchFill,       //!< Prefetcher::on_fill
    kFilterPermit,       //!< PageCrossFilter::permit
    kFilterTrain,        //!< every other PageCrossFilter call
    kSnapshotSave,       //!< Machine::save_snapshot
    kSnapshotRestore,    //!< Machine::restore_snapshot
    kJobsCell,           //!< one JobFn call inside JobEngine::run
    kCount,
};

inline constexpr std::size_t kLayers = static_cast<std::size_t>(Layer::kCount);

/** Metric-style name of @p layer ("cache.l1d", "filter.permit", ...). */
const char *layer_name(Layer layer);

/** Module of @p layer ("trace", "core", "vmem", ...). */
const char *layer_group(Layer layer);

/** Per-layer totals over every closed span. */
struct LayerTotals
{
    std::uint64_t calls = 0;
    std::uint64_t spans = 0;     //!< spans, counted as calls or not
    std::uint64_t children = 0;  //!< spans nested directly in these
    std::int64_t self_ns = 0;    //!< span time minus nested spans
    std::int64_t span_ns = 0;    //!< whole span time
};

/**
 * Host cost of the tracing itself: each span adds leaf_ns to its own
 * self time and per_child_ns to its parent's, mostly clock reads.
 */
struct SpanCost
{
    double leaf_ns = 0.0;
    double per_child_ns = 0.0;

    /** Self time of @p t with the tracing cost taken out (>= 0). */
    double corrected_self_ns(const LayerTotals &t) const;
};

/** Measure SpanCost on the running host (median of a few repetitions). */
SpanCost calibrate_span_cost();

/**
 * Records nested spans from one thread. Not thread-safe: threads keep
 * their own recorder and merge() into a shared one.
 */
class SpanRecorder
{
  public:
    /** One recorded span; parent is an index into spans(), or kNoParent. */
    struct Span
    {
        std::uint32_t parent;
        Layer layer;
        std::int64_t start_ns;  //!< since the recorder's epoch
        std::int64_t end_ns;
    };
    static constexpr std::uint32_t kNoParent = ~std::uint32_t{0};

    /** Keep at most @p keep spans in memory (totals cover all). */
    explicit SpanRecorder(std::size_t keep = 1u << 17);

    /** Open a span of @p layer nested in the innermost open span. */
    void open(Layer layer)
    {
        Open o;
        o.layer = layer;
        o.start = now_ns();
        o.slot = kNoParent;
        if (spans_.size() < keep_) {
            o.slot = static_cast<std::uint32_t>(spans_.size());
            spans_.push_back({stack_.empty() ? kNoParent : stack_.back().slot,
                              layer, o.start, o.start});
        }
        stack_.push_back(o);
    }

    /**
     * Close the innermost span; @p count_call false folds its time
     * into the layer without counting it as a separate call.
     */
    void close(bool count_call = true)
    {
        const Open o = stack_.back();
        stack_.pop_back();
        const std::int64_t end = now_ns();
        const std::int64_t dur = end - o.start;
        LayerTotals &t = totals_[static_cast<std::size_t>(o.layer)];
        t.calls += count_call ? 1 : 0;
        t.spans += 1;
        t.children += o.children;
        t.self_ns += dur - o.child_ns;
        t.span_ns += dur;
        if (!stack_.empty()) {
            stack_.back().child_ns += dur;
            stack_.back().children += 1;
        }
        if (o.slot != kNoParent) {
            spans_[o.slot].end_ns = end;
        }
    }

    /** Add @p items of work to @p layer without a span (e.g. insts skipped). */
    void add_items(Layer layer, std::uint64_t items)
    {
        items_[static_cast<std::size_t>(layer)] += items;
    }

    const LayerTotals &totals(Layer layer) const
    {
        return totals_[static_cast<std::size_t>(layer)];
    }
    std::uint64_t items(Layer layer) const
    {
        return items_[static_cast<std::size_t>(layer)];
    }
    const std::vector<Span> &spans() const { return spans_; }

    /** Fold @p other's totals and kept spans into this recorder. */
    void merge(const SpanRecorder &other);

    /** Write kept spans as CSV (index,parent,layer,start_ns,end_ns). */
    bool write_csv(const std::string &path) const;

  private:
    struct Open
    {
        Layer layer;
        std::uint32_t slot;
        std::int64_t start;
        std::int64_t child_ns = 0;
        std::uint64_t children = 0;
    };

    std::int64_t now_ns() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now() - epoch_)
            .count();
    }

    std::chrono::steady_clock::time_point epoch_;
    std::size_t keep_;
    std::vector<Span> spans_;
    std::vector<Open> stack_;
    std::array<LayerTotals, kLayers> totals_{};
    std::array<std::uint64_t, kLayers> items_{};
};

/** RAII span. */
class Scope
{
  public:
    Scope(SpanRecorder &rec, Layer layer, bool count_call = true)
        : rec_(rec), count_(count_call)
    {
        rec_.open(layer);
    }
    ~Scope() { rec_.close(count_); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    SpanRecorder &rec_;
    bool count_;
};

/** A MemoryLevel shim that times every access into @p inner. */
class TimedLevel final : public moka::MemoryLevel
{
  public:
    TimedLevel(moka::MemoryLevel *inner, Layer layer, SpanRecorder &rec)
        : inner_(inner), layer_(layer), rec_(rec)
    {
    }

    moka::AccessResult access(moka::PhysAddr paddr, moka::AccessType type,
                              moka::Cycle now, bool pgc_prefetch) override
    {
        Scope s(rec_, layer_);
        return inner_->access(paddr, type, now, pgc_prefetch);
    }

  private:
    moka::MemoryLevel *inner_;
    Layer layer_;
    SpanRecorder &rec_;
};

/**
 * One core of a Machine, rebuilt from public parts and traced. Its
 * own DRAM and LLC are sized by @p cfg, so a rig built from
 * default_config(8) sees the 8-core LLC alone (no other cores'
 * traffic, no replay).
 */
class CoreRig final : public moka::CacheListener
{
  public:
    /**
     * @param slot core index the workload would occupy in a Machine;
     *             selects the same per-core page-table seed
     */
    CoreRig(const moka::MachineConfig &cfg, moka::WorkloadPtr workload,
            std::size_t slot, SpanRecorder &rec);
    ~CoreRig() override;
    CoreRig(const CoreRig &) = delete;
    CoreRig &operator=(const CoreRig &) = delete;

    /** Step @p insts instructions (Machine::run on one core). */
    void run(moka::InstCount insts);

    /** Begin the measured region (Machine::start_measurement). */
    void start_measurement() { measure_start_ = metrics(); }

    /** Counters since start_measurement(). */
    moka::RunMetrics measured() const { return metrics() - measure_start_; }

    /** Cumulative counters, RunMetrics-shaped. */
    moka::RunMetrics metrics() const;

    /** Workload::next calls so far. */
    std::uint64_t insts() const { return insts_; }

    void on_pgc_first_use(moka::PhysAddr block_paddr) override;
    void on_eviction(moka::PhysAddr block_paddr, bool prefetched, bool pgc,
                     bool used) override;

  private:
    struct Translated
    {
        moka::PhysAddr paddr{};
        moka::PhysAddr page_base{};
        bool large = false;
        moka::Cycle done = 0;
    };

    void step();
    Translated translate_demand(moka::VirtAddr vaddr, moka::Cycle now);
    moka::Tlb::Result tlb_lookup(moka::Tlb &tlb, moka::VirtAddr vaddr,
                                 moka::Cycle now, bool demand);
    void tlb_fill(moka::Tlb &tlb, moka::VirtAddr vaddr,
                  moka::PhysAddr page_base, bool large, bool prefetch);
    moka::PageWalker::WalkResult walk(moka::VirtAddr vaddr, moka::Cycle now,
                                      bool speculative);
    moka::AccessResult l1d_access(moka::PhysAddr paddr, moka::AccessType type,
                                  moka::Cycle now, bool pgc);
    void pf_fill(moka::VirtAddr vaddr, moka::Cycle now, bool was_prefetch);
    void handle_memory(const moka::TraceInst &inst, moka::Cycle dispatch,
                       moka::Cycle &complete);
    void process_candidate(const moka::PrefetchRequest &req,
                           const Translated &trigger, moka::Cycle now);
    void interval_tick();
    moka::SystemSnapshot snapshot() const;

    const moka::MachineConfig cfg_;
    SpanRecorder &rec_;
    std::unique_ptr<moka::Dram> dram_;
    std::unique_ptr<TimedLevel> dram_shim_;
    std::unique_ptr<moka::Cache> llc_;
    std::unique_ptr<TimedLevel> llc_shim_;
    std::unique_ptr<moka::Cache> l2_;
    std::unique_ptr<TimedLevel> l2_shim_;
    std::unique_ptr<moka::Cache> l1i_;
    std::unique_ptr<moka::Cache> l1d_;
    std::unique_ptr<moka::PageTable> page_table_;
    std::unique_ptr<moka::Tlb> itlb_;
    std::unique_ptr<moka::Tlb> dtlb_;
    std::unique_ptr<moka::Tlb> stlb_;
    std::unique_ptr<moka::PageWalker> walker_;
    moka::BranchPredictor bp_;
    moka::Core core_;
    moka::Frontend frontend_;
    moka::WorkloadPtr workload_;
    moka::PrefetcherPtr l1d_pf_;
    moka::PrefetcherPtr l2_pf_;
    moka::FilterPtr filter_;

    std::uint64_t insts_ = 0;
    moka::Cycle last_load_complete_ = 0;
    std::vector<moka::PrefetchRequest> pf_buffer_;
    std::vector<moka::PrefetchRequest> l2_pf_buffer_;
    std::uint64_t pgc_candidates_ = 0;
    std::uint64_t pgc_dropped_ = 0;
    std::uint64_t epoch_pgc_useful_ = 0;
    std::uint64_t epoch_pgc_useless_ = 0;
    moka::InstCount next_interval_ = 0;
    moka::InstCount next_epoch_ = 0;
    struct Window
    {
        moka::AccessStats l1d, llc, stlb, l1i;
        moka::InstCount insts = 0;
        moka::Cycle cycle = 0;
    } window_start_;
    moka::Cycle epoch_start_cycle_ = 0;
    moka::InstCount epoch_start_insts_ = 0;
    moka::SystemSnapshot last_snapshot_;
    moka::RunMetrics measure_start_;
};

}  // namespace perfbench

#endif  // MOKASIM_PERFBENCH_RIG_H
