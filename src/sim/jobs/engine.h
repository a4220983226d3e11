/**
 * @file
 * Fault-tolerant parallel job engine: executes the (workload, scheme,
 * prefetcher) matrix on a worker-thread pool with the posture of a
 * fleet scheduler — failures are expected, isolated, classified and
 * retried instead of fatal.
 *
 *  - isolation: a throwing job body marks that job failed with a
 *    JobErrorCode instead of killing the sweep;
 *  - watchdog: a cooperative step-budget + wall-clock heartbeat
 *    threaded through Machine::run cancels hung or stalled runs;
 *  - retry: transient failures (wall-deadline timeout, OOM) retry
 *    with capped exponential backoff before the engine degrades
 *    gracefully to a partial-results report;
 *  - reuse: with a result directory (results.h) a re-run, or a peer
 *    process sharing it, loads stored jobs and runs only the rest;
 *  - determinism: results are emitted in ascending job id, and every
 *    per-job decision (including injected faults) is a pure function
 *    of the job id, so an N-worker run is byte-identical to a serial
 *    one.
 */
#ifndef MOKASIM_SIM_JOBS_ENGINE_H
#define MOKASIM_SIM_JOBS_ENGINE_H

#include <chrono>
#include <functional>
#include <string>
#include <vector>

#include "sim/jobs/faults.h"
#include "sim/jobs/job.h"
#include "sim/machine.h"

namespace moka {

class TelemetrySession;
class SnapshotCache;
class ResultDir;

/** Engine-wide policy knobs. */
struct EngineConfig
{
    std::size_t workers = 1;         //!< worker threads (--jobs N)
    int max_attempts = 3;            //!< attempts for transient failures
    std::uint64_t backoff_base_ms = 10;  //!< doubles per retry ...
    std::uint64_t backoff_cap_ms = 500;  //!< ... up to this cap
    bool fail_fast = false;          //!< first failure skips the rest
    //! wall-clock watchdog deadline per attempt; 0 disables it (the
    //! per-job step budget in JobSpec::watchdog_steps still applies)
    std::uint64_t watchdog_wall_ms = 0;
    FaultPlan faults;                //!< injected-fault plan (tests/CI)
    //! telemetry session (non-owning, may be null): engine trace spans
    //! per worker, and handed to job bodies for epoch sampling
    TelemetrySession *telemetry = nullptr;
    //! warmup-snapshot cache (non-owning, may be null), handed to job
    //! bodies so they fork from a stored warmup
    SnapshotCache *snapshot = nullptr;
    //! result directory (non-owning, may be null): stored jobs load
    //! instead of running, finished ones are stored (results.h)
    ResultDir *results = nullptr;
};

/**
 * Cooperative watchdog hook: cancels a run by throwing
 * JobError(kTimeout) once it exceeds its machine-step budget, or —
 * checked at a coarse heartbeat cadence so the hot path stays a
 * single compare — its wall-clock deadline. The engine retries a
 * wall-deadline timeout but not an exhausted step budget: a step
 * count is a pure function of the job spec, so every retry would
 * exhaust it again.
 */
class Watchdog final : public RunTickHook
{
  public:
    /**
     * @param step_budget cancel after this many machine steps (0 = no
     *        step budget)
     * @param wall_ms     cancel once this much wall time has elapsed
     *        since construction (0 = no deadline)
     */
    Watchdog(std::uint64_t step_budget, std::uint64_t wall_ms);

    void on_tick(std::uint64_t steps) override;

    /** True once the step budget (not the deadline) cancelled a run. */
    bool step_budget_exhausted() const { return step_budget_exhausted_; }

  private:
    //! wall-clock checks happen every this many ticks
    static constexpr std::uint64_t kHeartbeatSteps = 2048;

    std::uint64_t step_budget_;
    std::uint64_t wall_ms_;
    std::chrono::steady_clock::time_point deadline_;
    bool step_budget_exhausted_ = false;
};

/** Per-attempt context the engine hands to a job body. */
struct JobContext
{
    /**
     * Composed watchdog + fault-injection hook; pass it into
     * run_single_workload / Machine::run, or invoke on_tick manually
     * from non-machine job bodies. Never null inside a job body.
     */
    RunTickHook *hook = nullptr;
    int attempt = 1;  //!< 1-based attempt number
    //! telemetry session (null when the sweep runs untelemetried)
    TelemetrySession *telemetry = nullptr;
    //! trace process id reserved for this job's sim-phase spans and
    //! per-core counter tracks (kJobPidBase + job id)
    std::uint32_t trace_pid = 0;
    //! warmup-snapshot cache (null when reuse is off)
    SnapshotCache *snapshot = nullptr;
};

//! trace pid layout: 1 = the engine itself, jobs from here up
inline constexpr std::uint32_t kEnginePid = 1;
inline constexpr std::uint32_t kJobPidBase = 2;

/** A job body: turns one JobSpec into a JobOutput, or throws. */
using JobFn = std::function<JobOutput(const JobSpec &, JobContext &)>;

/** Human-readable report label for @p spec ("trace scheme=... ..."). */
std::string job_label(const JobSpec &spec);

/** What the engine hands back after draining the matrix. */
struct EngineReport
{
    std::vector<JobResult> results;  //!< ascending job id
    std::size_t completed = 0;
    std::size_t failed = 0;
    std::size_t skipped = 0;
    std::size_t reused = 0;  //!< completed jobs loaded from the result dir

    bool all_completed() const { return failed == 0 && skipped == 0; }

    /**
     * Deterministic human-readable report: one summary line plus one
     * line per failed/skipped job in ascending id order.
     */
    std::string summary() const;
};

/**
 * Backoff before retry @p attempt (1-based): capped exponential,
 * base * 2^(attempt-1) clamped to the cap. Exposed for tests.
 */
std::uint64_t backoff_delay_ms(const EngineConfig &cfg, int attempt);

/** The engine. Construct once per sweep; run() drains the whole matrix. */
class JobEngine
{
  public:
    explicit JobEngine(EngineConfig cfg);

    /**
     * Execute @p jobs (dense ids: jobs[i].id must equal i) through
     * @p fn. Blocks until every job completed, failed permanently, or
     * was skipped; never throws for job-level failures.
     */
    EngineReport run(const std::vector<JobSpec> &jobs, const JobFn &fn);

  private:
    /**
     * Execute one spec through the per-attempt machinery: isolation,
     * classification, watchdog, fault injection, retry with backoff.
     */
    JobResult execute_one(const JobSpec &spec, const JobFn &fn,
                          const FaultInjector &injector,
                          std::uint32_t worker) const;

    EngineConfig cfg_;
};

}  // namespace moka

#endif  // MOKASIM_SIM_JOBS_ENGINE_H
