/**
 * @file
 * Shared helpers for the figure/table benchmark harnesses: derived
 * metrics (speedup, coverage), per-suite aggregation, table printing,
 * common CLI flags (--full, --workloads, --insts, --warmup, plus the
 * engine flags --jobs/--results-dir/--fail-fast/--inject-faults/
 * --inject-kill/--fault-seed), and the engine-backed matrix runner
 * every ported harness and sweep_tool share.
 */
#ifndef MOKASIM_SIM_EXPERIMENT_H
#define MOKASIM_SIM_EXPERIMENT_H

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/hot_path.h"
#include "sim/jobs/engine.h"
#include "sim/runner.h"
#include "trace/suites.h"

namespace moka {

/** IPC speedup of @p m over @p base. */
double speedup(const RunMetrics &m, const RunMetrics &base);

/**
 * Miss-coverage improvement of @p m over @p base: the fraction of the
 * baseline's L1D demand misses that @p m eliminates (paper Fig. 11).
 */
double coverage_gain(const RunMetrics &m, const RunMetrics &base);

/** Common bench CLI options. */
struct BenchArgs
{
    bool full = false;            //!< full roster + 4x instructions
    std::size_t workloads = 24;   //!< roster sample size (default runs)
    RunConfig run;                //!< instruction budgets
    std::size_t mixes = 24;       //!< multi-core mixes (fig19)
    std::uint64_t seed = 7;

    // Job-engine knobs (see sim/jobs/engine.h).
    std::size_t jobs = 1;         //!< worker threads
    bool fail_fast = false;       //!< abort the sweep on first failure
    double fault_rate = 0.0;      //!< injected fault rate (tests/CI)
    std::uint64_t fault_seed = 1;

    // Result directory (see sim/jobs/results.h): one per harness
    // command, shared by any number of processes; re-running the
    // command over it resumes or collects.
    std::string results_dir;      //!< "" = keep nothing between runs
    double kill_rate = 0.0;       //!< seeded self-SIGKILL rate (drills)

    // Telemetry knobs (see telemetry/telemetry.h).
    std::string telemetry_dir;    //!< per-run epoch CSV/JSONL directory
    std::string trace_events;     //!< merged Chrome trace JSON path

    // Warmup-snapshot reuse (see snapshot/cache.h). A non-empty
    // snapshot_dir makes every job resolve its warmup through the
    // shared snapshot cache: warm up once per (workload, machine
    // config, warmup budget) key, fork every sweep point from the
    // restored state. Results stay byte-identical to a cold sweep.
    std::string snapshot_dir;     //!< snapshot cache directory
    bool no_snapshot_reuse = false;  //!< force cold warmups anyway

    /** Effective roster for @p roster given --full/--workloads. */
    std::vector<WorkloadSpec>
    select(const std::vector<WorkloadSpec> &roster) const
    {
        return full ? roster : sample(roster, workloads);
    }
};

/**
 * Parse argv; unknown flags are ignored with a warning, but a flag
 * with a missing or non-numeric value is a usage error: one line to
 * stderr and exit(2) instead of an uncaught-exception backtrace.
 */
BenchArgs parse_bench_args(int argc, char **argv);

/**
 * CLI parsing helpers shared with the tools: each prints a one-line
 * usage error and exits(2) on a missing or malformed value.
 */
const char *require_value(const std::string &flag, int &i, int argc,
                          char **argv);
std::uint64_t require_u64(const std::string &flag, const char *value);
double require_double(const std::string &flag, const char *value);

/** Engine configuration implied by the common bench flags. */
EngineConfig engine_config(const BenchArgs &args);

/**
 * TelemetrySession implied by --telemetry-dir/--trace-events, or null
 * when neither was given. Constructing the session arms the runtime
 * telemetry gate; the caller owns it and calls flush() after the
 * sweep drains.
 */
std::unique_ptr<TelemetrySession> make_telemetry(const BenchArgs &args);

/**
 * Scheme registry keyed by CLI name ("discard", "permit",
 * "discard-ptw", "iso", "ppf", "ppf-dthr", "dripper", "dripper-sf",
 * "dripper-meta", "dripper-2mb"). Throws JobError(kConfigInvalid) on
 * an unknown name.
 */
SchemeConfig scheme_by_name(const std::string &name,
                            L1dPrefetcherKind kind);

/** All names scheme_by_name accepts (usage messages, validation). */
const std::vector<std::string> &known_scheme_names();

/** All L1D prefetcher names run_sim_job accepts. */
const std::vector<std::string> &known_prefetcher_names();

/**
 * Build the dense (prefetcher-major, then scheme, then workload) job
 * matrix: id = (p * |schemes| + s) * |roster| + w, which is also the
 * CSV emission order. Every job carries @p run budgets and a
 * watchdog step budget derived from them.
 */
std::vector<JobSpec>
make_matrix(const std::vector<WorkloadSpec> &roster,
            const std::vector<std::string> &schemes,
            const std::vector<std::string> &prefetchers,
            const RunConfig &run, double large_page_fraction = 0.0);

/**
 * The default single-core simulation job body: loads the workload
 * (roster generator or trace file), runs it under the job's scheme
 * and prefetcher with the engine's watchdog/fault hook, surfaces
 * audit findings, and returns the labelled row. aux = {ipc,
 * l1d_misses, l1d_accesses} so harnesses can aggregate speedups and
 * coverage even for reused jobs (which have no RunMetrics).
 */
JobOutput run_sim_job(const JobSpec &spec, JobContext &ctx);

/**
 * Run @p jobs through one JobEngine configured by the common flags.
 * With --results-dir D, stored jobs in D are loaded instead of run and
 * finished jobs are stored there, under a sweep key hashed from the
 * flags that choose the roster and mixes (--full, --workloads,
 * --mixes, --seed); see sim/jobs/results.h. @p telemetry (may be
 * null) is handed down for trace spans and per-run epoch sampling.
 */
EngineReport run_engine(const std::vector<JobSpec> &jobs,
                        const BenchArgs &args, const JobFn &fn,
                        TelemetrySession *telemetry = nullptr);

/** run_engine with the default single-core sim body (run_sim_job). */
EngineReport run_matrix(const std::vector<JobSpec> &jobs,
                        const BenchArgs &args,
                        TelemetrySession *telemetry = nullptr);

/**
 * Completed-job IPC for matrix cell (p, s, w) of @p report (layout
 * from make_matrix), or a quiet NaN when that job failed/was skipped.
 */
double matrix_ipc(const EngineReport &report, std::size_t schemes,
                  std::size_t roster, std::size_t p, std::size_t s,
                  std::size_t w);

/** Accumulates per-workload speedups and reports suite geomeans. */
class SuiteAggregator
{
  public:
    /** Record @p ratio for @p suite (job-completion cadence). */
    SIM_COLD void add(const std::string &suite, double ratio);

    /** Geomean of one suite (1.0 when empty). */
    double suite_geomean(const std::string &suite) const;

    /** Geomean across every recorded ratio. */
    double overall_geomean() const;

    /** Suites recorded, in first-seen order. */
    const std::vector<std::string> &suites() const { return order_; }

  private:
    std::map<std::string, std::vector<double>> by_suite_;
    std::vector<std::string> order_;
};

/** Fixed-width table printer for the bench harnesses. */
class TablePrinter
{
  public:
    /** @param headers column titles; first column is the row label. */
    explicit TablePrinter(std::vector<std::string> headers);

    /** Print the header row + rule. */
    void print_header() const;

    /** Print one row; numeric cells formatted by the caller. */
    void print_row(const std::vector<std::string> &cells) const;

  private:
    std::vector<std::string> headers_;
    std::vector<std::size_t> widths_;
};

}  // namespace moka

#endif  // MOKASIM_SIM_EXPERIMENT_H
