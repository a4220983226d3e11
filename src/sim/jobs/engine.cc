#include "sim/jobs/engine.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <numeric>
#include <sstream>
#include <thread>

#include "common/check.h"
#include "sim/jobs/results.h"
#include "telemetry/telemetry.h"

namespace moka {
namespace {

/** Delivers one FaultInjector decision as machine-tick behaviour. */
class FaultHook final : public RunTickHook
{
  public:
    FaultHook(const FaultInjector::Decision &decision,
              std::uint64_t stall_ms)
        : decision_(decision), stall_ms_(stall_ms)
    {
    }

    void on_tick(std::uint64_t steps) override
    {
        using Kind = FaultInjector::Decision::Kind;
        if (fired_ || decision_.kind == Kind::kNone ||
            steps < decision_.at_tick) {
            return;
        }
        fired_ = true;
        if (decision_.kind == Kind::kThrow) {
            // LINT_HOT_OK: injected-fault exit; fires at most once
            // per run, then the job unwinds (rule L14).
            std::ostringstream os;
            os << "injected fault at tick " << steps;
            throw JobError(decision_.transient ? JobErrorCode::kTimeout
                                               : JobErrorCode::kUnknown,
                           os.str());
        }
        // Stall: sleep past the wall-clock deadline so the watchdog
        // (which runs after us in the chain) cancels the run.
        std::this_thread::sleep_for(std::chrono::milliseconds(stall_ms_));
    }

  private:
    FaultInjector::Decision decision_;
    std::uint64_t stall_ms_;
    bool fired_ = false;
};

/** The engine's tracer, or null when tracing is not armed. */
Tracer *
engine_tracer(const EngineConfig &cfg)
{
    if (cfg.telemetry == nullptr || !telemetry_enabled()) {
        return nullptr;
    }
    return cfg.telemetry->tracer();
}

}  // namespace

std::string
job_label(const JobSpec &spec)
{
    std::string label = spec.trace_path.empty() ? spec.workload.name
                                                : spec.trace_path;
    if (!spec.scheme.empty()) {
        label += " scheme=" + spec.scheme;
    }
    if (!spec.prefetcher.empty()) {
        label += " prefetcher=" + spec.prefetcher;
    }
    return label;
}

Watchdog::Watchdog(std::uint64_t step_budget, std::uint64_t wall_ms)
    : step_budget_(step_budget), wall_ms_(wall_ms),
      // LINT_NONDET_OK: the watchdog deadline is wall time by design;
      // a timeout only classifies a failure, never a result value.
      deadline_(std::chrono::steady_clock::now() +
                std::chrono::milliseconds(wall_ms))
{
}

void
Watchdog::on_tick(std::uint64_t steps)
{
    if (step_budget_ > 0 && steps > step_budget_) {
        // LINT_HOT_OK: timeout exit; fires at most once per run
        // (rule L14).
        step_budget_exhausted_ = true;
        std::ostringstream os;
        os << "watchdog: step budget " << step_budget_
           << " exhausted at tick " << steps;
        throw JobError(JobErrorCode::kTimeout, os.str());
    }
    if (wall_ms_ > 0 && steps % kHeartbeatSteps == 0 &&
        // LINT_NONDET_OK: heartbeat check against the wall deadline.
        std::chrono::steady_clock::now() > deadline_) {
        // LINT_HOT_OK: timeout exit, as above (rule L14).
        std::ostringstream os;
        os << "watchdog: wall deadline of " << wall_ms_
           << " ms exceeded at tick " << steps;
        throw JobError(JobErrorCode::kTimeout, os.str());
    }
}

std::uint64_t
backoff_delay_ms(const EngineConfig &cfg, int attempt)
{
    const std::uint64_t shift =
        attempt <= 63 ? static_cast<std::uint64_t>(attempt - 1) : 63;
    return std::min(cfg.backoff_cap_ms,
                    cfg.backoff_base_ms == 0 ? 0
                                             : cfg.backoff_base_ms << shift);
}

JobEngine::JobEngine(EngineConfig cfg) : cfg_(std::move(cfg))
{
    SIM_REQUIRE(cfg_.max_attempts >= 1,
                "engine needs at least one attempt per job");
}

JobResult
JobEngine::execute_one(const JobSpec &spec, const JobFn &fn,
                       const FaultInjector &injector,
                       std::uint32_t worker) const
{
    Tracer *tracer = engine_tracer(cfg_);
    JobResult res;
    res.id = spec.id;
    res.label = job_label(spec);
    for (int attempt = 1; attempt <= cfg_.max_attempts; ++attempt) {
        res.attempts = attempt;
        if (tracer != nullptr && attempt > 1) {
            std::ostringstream os;
            os << "{\"job\":" << spec.id << ",\"attempt\":" << attempt
               << ",\"error\":\"" << to_string(res.error) << "\"}";
            tracer->instant(kEnginePid, worker, "retry",
                            tracer->now_us(), os.str());
        }
        const FaultInjector::Decision decision =
            injector.decide(spec.id, attempt);
        FaultHook fault(decision, injector.plan().stall_ms);
        Watchdog watchdog(spec.watchdog_steps, cfg_.watchdog_wall_ms);
        // Fault before watchdog: a stall is observed by the deadline
        // check behind it.
        TickHookChain chain;
        chain.add(&fault);
        chain.add(&watchdog);
        JobContext ctx;
        ctx.hook = &chain;
        ctx.attempt = attempt;
        ctx.telemetry = cfg_.telemetry;
        ctx.snapshot = cfg_.snapshot;
        ctx.trace_pid =
            kJobPidBase + static_cast<std::uint32_t>(spec.id);
        try {
            res.output = fn(spec, ctx);
            res.csv = to_csv(res.output.row);
            res.status = JobStatus::kCompleted;
            return res;
        } catch (const JobError &e) {
            res.error = e.code();
            res.error_message = e.what();
        } catch (const std::bad_alloc &) {
            res.error = JobErrorCode::kOom;
            res.error_message = "allocation failure";
        } catch (const std::exception &e) {
            res.error = JobErrorCode::kUnknown;
            res.error_message = e.what();
        } catch (...) {  // LINT_CATCH_OK: classified as kUnknown below
            res.error = JobErrorCode::kUnknown;
            res.error_message = "non-standard exception";
        }
        res.status = JobStatus::kFailed;
        if (!is_transient(res.error) || watchdog.step_budget_exhausted() ||
            attempt == cfg_.max_attempts) {
            break;
        }
        // Capped-exponential backoff before retrying a transient
        // failure.
        const std::uint64_t delay_ms = backoff_delay_ms(cfg_, attempt);
        if (delay_ms > 0) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(delay_ms));
        }
    }
    return res;
}

EngineReport
JobEngine::run(const std::vector<JobSpec> &jobs, const JobFn &fn)
{
    EngineReport report;
    report.results.resize(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        SIM_REQUIRE(jobs[i].id == i,
                    "job ids must be dense and in order");
        report.results[i].id = i;
        report.results[i].label = job_label(jobs[i]);
    }

    // Dispatch order: descending estimated cost, id-ascending within
    // equal cost. Long jobs (multicore mixes) start first so a skewed
    // sweep doesn't serialize on a straggler claimed last; with the
    // default cost of 0 this degenerates to plain id order. Results
    // are still emitted in ascending id, so the CSV stays
    // byte-identical to a serial sweep.
    std::vector<std::size_t> order(jobs.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&jobs](std::size_t a, std::size_t b) {
                         return jobs[a].estimated_cost >
                                jobs[b].estimated_cost;
                     });

    Tracer *tracer = engine_tracer(cfg_);
    const std::size_t workers =
        std::max<std::size_t>(1, std::min(cfg_.workers, jobs.size()));
    if (tracer != nullptr) {
        tracer->register_process(kEnginePid, "job-engine");
        for (std::size_t w = 0; w < workers; ++w) {
            tracer->register_thread(kEnginePid,
                                    static_cast<std::uint32_t>(w),
                                    "worker-" + std::to_string(w));
        }
    }

    // With a result directory every job gets two chances. The first
    // pass loads stored jobs, runs the ones it can claim and defers
    // those a peer claimed; the second pass runs whatever of those is
    // still missing, whether its claimant crashed or is just slow.
    ResultDir *const results = cfg_.results;
    const FaultInjector injector(cfg_.faults);
    std::atomic<bool> abort_rest{false};
    //! set for job i only by the one worker that takes it in pass 1,
    //! read after that pass's workers joined
    std::vector<std::uint8_t> deferred(jobs.size(), 0);
    const auto drain = [&](const std::vector<std::size_t> &queue,
                           bool first_pass) {
        std::atomic<std::size_t> next{0};
        const auto worker = [&](std::uint32_t wid) {
            for (std::size_t slot = 0;
                 (slot = next.fetch_add(1, std::memory_order_relaxed)) <
                 queue.size();) {
                const std::size_t i = queue[slot];
                JobResult &res = report.results[i];
                if (results != nullptr && results->load(jobs[i], res)) {
                    continue;
                }
                if (abort_rest.load(std::memory_order_relaxed)) {
                    res.status = JobStatus::kSkipped;
                    res.error_message = "skipped by --fail-fast";
                    continue;
                }
                if (results != nullptr &&
                    !results->claim(jobs[i], first_pass)) {
                    deferred[i] = 1;
                    continue;
                }
                std::uint64_t begin_us = 0;
                if (tracer != nullptr) {
                    begin_us = tracer->now_us();
                    tracer->instant(kEnginePid, wid, "schedule", begin_us,
                                    "{\"job\":" + std::to_string(i) + "}");
                    tracer->register_process(
                        kJobPidBase + static_cast<std::uint32_t>(i),
                        "job " + std::to_string(i) + ": " + res.label);
                }
                res = execute_one(jobs[i], fn, injector, wid);
                if (tracer != nullptr) {
                    std::ostringstream os;
                    os << "{\"job\":" << i << ",\"status\":\""
                       << to_string(res.status)
                       << "\",\"attempts\":" << res.attempts << "}";
                    tracer->complete(kEnginePid, wid,
                                     "job " + std::to_string(i), begin_us,
                                     tracer->now_us() - begin_us, os.str());
                }
                if (res.status == JobStatus::kFailed && cfg_.fail_fast) {
                    abort_rest.store(true, std::memory_order_relaxed);
                }
                if (results != nullptr) {
                    results->settle(jobs[i], res);
                }
            }
        };
        const std::size_t n = std::min(workers, queue.size());
        if (n <= 1) {
            worker(0);  // keep serial sweeps genuinely single-threaded
            return;
        }
        std::vector<std::thread> pool;
        pool.reserve(n);
        for (std::size_t w = 0; w < n; ++w) {
            pool.emplace_back(worker, static_cast<std::uint32_t>(w));
        }
        for (std::thread &t : pool) {
            t.join();
        }
    };
    drain(order, true);
    std::erase_if(order, [&](std::size_t i) { return deferred[i] == 0; });
    drain(order, false);

    for (const JobResult &res : report.results) {
        switch (res.status) {
          case JobStatus::kCompleted: ++report.completed; break;
          case JobStatus::kFailed: ++report.failed; break;
          case JobStatus::kSkipped: ++report.skipped; break;
        }
        if (res.reused) {
            ++report.reused;
        }
    }
    return report;
}

std::string
EngineReport::summary() const
{
    std::ostringstream os;
    os << "jobs: " << results.size() << " total, " << completed
       << " completed, " << failed << " failed, " << skipped
       << " skipped";
    if (reused > 0) {
        os << " (" << reused << " reused from the result directory)";
    }
    os << '\n';
    for (const JobResult &res : results) {
        if (res.status == JobStatus::kFailed) {
            os << "  job " << res.id << " [" << res.label
               << "]: " << to_string(res.error) << ": "
               << res.error_message << " (attempts=" << res.attempts
               << ")\n";
        } else if (res.status == JobStatus::kSkipped) {
            os << "  job " << res.id << " [" << res.label
               << "]: skipped\n";
        }
    }
    return os.str();
}

}  // namespace moka
