/**
 * @file
 * Shared pieces of the mokasim benchmark: benchmark cells (a Machine
 * over one workload per core), the per-cell output check, the
 * result digest, the rate arithmetic and the slice clock that times
 * a Machine::run from outside.
 */
#ifndef MOKASIM_PERFBENCH_BENCH_CORE_H
#define MOKASIM_PERFBENCH_BENCH_CORE_H

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/machine.h"
#include "sim/runner.h"
#include "trace/suites.h"

namespace perfbench {

/**
 * One benchmark cell: a Machine built from @p cfg with workloads[i]
 * on core i, each stream first advanced by offsets[i] instructions,
 * then warmed up and measured with @p run budgets per core.
 */
struct Cell
{
    std::string label;
    moka::MachineConfig cfg;
    std::vector<moka::WorkloadSpec> workloads;
    std::vector<std::uint64_t> offsets;
    moka::RunConfig run;

    /** Instructions credited to results: cores x (warmup + measure). */
    std::uint64_t budget() const
    {
        return workloads.size() * (run.warmup_insts + run.measure_insts);
    }
};

/** Fresh workload for core @p i of @p cell, advanced to its offset. */
moka::WorkloadPtr make_cell_workload(const Cell &cell, std::size_t i);

/** Build the Machine of @p cell (workload generation included). */
std::unique_ptr<moka::Machine> build_machine(const Cell &cell);

/** What one execution of a cell produced. */
struct CellOutcome
{
    std::vector<moka::RunMetrics> measured;  //!< per core
    std::uint64_t steps = 0;          //!< Machine::steps() delta, whole run
    std::uint64_t measure_steps = 0;  //!< Machine::steps() delta, measure run
    std::vector<std::string> violations;  //!< output check; empty = pass
};

/**
 * Warm up and measure @p machine per @p cell, with @p hook (may be
 * null) on both runs, then apply the output check: the RunMetrics
 * invariants on every core's measured region and lifetime counters,
 * and a clean Machine::audit.
 */
CellOutcome run_cell(moka::Machine &machine, const Cell &cell,
                     moka::RunTickHook *hook);

/**
 * RunMetrics invariants of a region of at least @p budget retired
 * instructions; returns the broken ones (empty when all hold).
 * useful + useless <= issued (prefetches, and page-cross prefetches)
 * is checked only with @p lifetime: a block issued before a measured
 * region can be resolved inside it, so the bound holds only for
 * counters taken from the machine's construction.
 */
std::vector<std::string> check_metrics(const moka::RunMetrics &m,
                                       moka::InstCount budget,
                                       bool lifetime);

/** Fold every RunMetrics field into the FNV-1a digest @p h. */
std::uint64_t fold_metrics(std::uint64_t h, const moka::RunMetrics &m);

/** Initial value of the result digest. */
inline constexpr std::uint64_t kDigestBasis = 0xcbf29ce484222325ull;

/** Field-wise equality of two RunMetrics. */
bool same_metrics(const moka::RunMetrics &a, const moka::RunMetrics &b);

/** Add every field of @p m into @p into. */
void accumulate(moka::RunMetrics &into, const moka::RunMetrics &m);

/** The two end-to-end rates of a timed region. */
struct Rates
{
    double sim_inst_per_s = 0.0;     //!< instructions stepped per second
    double budget_inst_per_s = 0.0;  //!< instructions credited per second
};

/**
 * Rates of a region that stepped @p steps machine instructions and
 * credited @p budget instructions to results in @p seconds.
 */
Rates rates(std::uint64_t steps, std::uint64_t budget, double seconds);

/**
 * Times a Machine::run from its tick hook: one clock read every
 * kSliceSteps steps. The slices of a deterministic cell are the same
 * work on every execution, so the fastest time of each slice over
 * repeated executions discards host stalls that miss one of them.
 */
class SliceClock final : public moka::RunTickHook
{
  public:
    static constexpr std::uint64_t kSliceSteps = 1u << 16;

    /** Start timing; slices() collects from here. */
    void start();
    /** Close the last (partial) slice. */
    void finish();

    void on_tick(std::uint64_t steps) override
    {
        (void)steps;
        if (++ticks_ % kSliceSteps == 0) {
            lap();
        }
    }

    /** Slice durations in seconds, in execution order. */
    const std::vector<double> &slices() const { return slices_; }

  private:
    void lap();

    std::uint64_t ticks_ = 0;
    std::chrono::steady_clock::time_point last_;
    std::vector<double> slices_;
};

/**
 * Robust length of a repeated timed region: @p rounds[r][k] is the
 * time of slice k in round r. Returns the sum over k of the fastest
 * time of slice k in any round; rounds of different shape fall back
 * to the fastest round.
 */
double fastest_of_slices(const std::vector<std::vector<double>> &rounds);

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);

/** Peak resident set of this process in MB. */
double peak_rss_mb();

/** Seconds since @p t0. */
inline double
seconds_since(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

}  // namespace perfbench

#endif  // MOKASIM_PERFBENCH_BENCH_CORE_H
