#include "sim/experiment.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/hashing.h"
#include "common/stats.h"
#include "filter/policies.h"
#include "sim/jobs/results.h"
#include "snapshot/cache.h"
#include "telemetry/telemetry.h"
#include "trace/trace_io.h"

namespace moka {

double
speedup(const RunMetrics &m, const RunMetrics &base)
{
    const double b = base.ipc();
    return b > 0.0 ? m.ipc() / b : 0.0;
}

double
coverage_gain(const RunMetrics &m, const RunMetrics &base)
{
    if (base.l1d.misses == 0) {
        return 0.0;
    }
    return (static_cast<double>(base.l1d.misses) -
            static_cast<double>(m.l1d.misses)) /
           static_cast<double>(base.l1d.misses);
}

const char *
require_value(const std::string &flag, int &i, int argc, char **argv)
{
    if (i + 1 >= argc) {
        std::fprintf(stderr, "usage: %s requires a value\n", flag.c_str());  // LINT_LOG_OK: usage error
        std::exit(2);
    }
    return argv[++i];
}

std::uint64_t
require_u64(const std::string &flag, const char *value)
{
    char *end = nullptr;
    errno = 0;
    const std::uint64_t parsed = std::strtoull(value, &end, 10);
    if (end == value || *end != '\0' || errno == ERANGE) {
        std::fprintf(stderr,  // LINT_LOG_OK: usage error
                     "usage: %s requires a non-negative integer "
                     "(got '%s')\n",
                     flag.c_str(), value);
        std::exit(2);
    }
    return parsed;
}

double
require_double(const std::string &flag, const char *value)
{
    char *end = nullptr;
    const double parsed = std::strtod(value, &end);
    if (end == value || *end != '\0') {
        std::fprintf(stderr, "usage: %s requires a number (got '%s')\n",  // LINT_LOG_OK: usage error
                     flag.c_str(), value);
        std::exit(2);
    }
    return parsed;
}

BenchArgs
parse_bench_args(int argc, char **argv)
{
    BenchArgs args;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto next_u64 = [&]() {
            return require_u64(a, require_value(a, i, argc, argv));
        };
        if (a == "--full") {
            args.full = true;
            args.run = args.run.scaled(4.0);
            args.mixes = 300;
        } else if (a == "--workloads") {
            args.workloads = next_u64();
        } else if (a == "--insts") {
            args.run.measure_insts = next_u64();
        } else if (a == "--warmup") {
            args.run.warmup_insts = next_u64();
        } else if (a == "--mixes") {
            args.mixes = next_u64();
        } else if (a == "--seed") {
            args.seed = next_u64();
        } else if (a == "--jobs") {
            args.jobs = next_u64();
        } else if (a == "--fail-fast") {
            args.fail_fast = true;
        } else if (a == "--results-dir") {
            args.results_dir = require_value(a, i, argc, argv);
        } else if (a == "--inject-faults") {
            args.fault_rate =
                require_double(a, require_value(a, i, argc, argv));
        } else if (a == "--fault-seed") {
            args.fault_seed = next_u64();
        } else if (a == "--inject-kill") {
            args.kill_rate =
                require_double(a, require_value(a, i, argc, argv));
        } else if (a == "--telemetry-dir") {
            args.telemetry_dir = require_value(a, i, argc, argv);
        } else if (a == "--trace-events") {
            args.trace_events = require_value(a, i, argc, argv);
        } else if (a == "--snapshot-dir") {
            args.snapshot_dir = require_value(a, i, argc, argv);
        } else if (a == "--no-snapshot-reuse") {
            args.no_snapshot_reuse = true;
        } else {
            std::fprintf(stderr, "warning: ignoring unknown flag %s\n",  // LINT_LOG_OK: usage warning
                         a.c_str());
        }
    }
    return args;
}

EngineConfig
engine_config(const BenchArgs &args)
{
    EngineConfig cfg;
    cfg.workers = std::max<std::size_t>(1, args.jobs);
    cfg.fail_fast = args.fail_fast;
    if (args.fault_rate > 0.0) {
        cfg.faults.enabled = true;
        cfg.faults.seed = args.fault_seed;
        cfg.faults.throw_rate = args.fault_rate * 0.75;
        cfg.faults.stall_rate = args.fault_rate * 0.25;
        cfg.faults.stall_ms = 200;
        // Stalled workers must trip the wall deadline; generous slack
        // over the stall keeps legitimate jobs clear of it.
        cfg.watchdog_wall_ms = 60'000;
    }
    return cfg;
}

std::unique_ptr<TelemetrySession>
make_telemetry(const BenchArgs &args)
{
    if (args.telemetry_dir.empty() && args.trace_events.empty()) {
        return nullptr;
    }
    return std::make_unique<TelemetrySession>(args.telemetry_dir,
                                              args.trace_events);
}

SchemeConfig
scheme_by_name(const std::string &name, L1dPrefetcherKind kind)
{
    if (name == "discard") return scheme_discard();
    if (name == "permit") return scheme_permit();
    if (name == "discard-ptw") return scheme_discard_ptw();
    if (name == "iso") return scheme_iso_storage();
    if (name == "ppf") return scheme_ppf(false);
    if (name == "ppf-dthr") return scheme_ppf(true);
    if (name == "dripper") return scheme_dripper(kind);
    if (name == "dripper-sf") return scheme_dripper_sf(kind);
    if (name == "dripper-meta") return scheme_dripper_specialized(kind);
    if (name == "dripper-2mb") return scheme_dripper_filter_2mb(kind);
    throw JobError(JobErrorCode::kConfigInvalid,
                   "unknown scheme '" + name + "'");
}

const std::vector<std::string> &
known_scheme_names()
{
    static const std::vector<std::string> names = {
        "discard",    "permit",      "discard-ptw", "iso",
        "ppf",        "ppf-dthr",    "dripper",     "dripper-sf",
        "dripper-meta", "dripper-2mb",
    };
    return names;
}

const std::vector<std::string> &
known_prefetcher_names()
{
    static const std::vector<std::string> names = {"berti", "ipcp", "bop",
                                                   "stride", "nl"};
    return names;
}

namespace {

L1dPrefetcherKind
prefetcher_by_name(const std::string &name)
{
    const std::vector<std::string> &known = known_prefetcher_names();
    if (std::find(known.begin(), known.end(), name) == known.end()) {
        throw JobError(JobErrorCode::kConfigInvalid,
                       "unknown prefetcher '" + name + "'");
    }
    return parse_l1d_kind(name);
}

}  // namespace

std::vector<JobSpec>
make_matrix(const std::vector<WorkloadSpec> &roster,
            const std::vector<std::string> &schemes,
            const std::vector<std::string> &prefetchers,
            const RunConfig &run, double large_page_fraction)
{
    std::vector<JobSpec> jobs;
    jobs.reserve(roster.size() * schemes.size() * prefetchers.size());
    for (const std::string &pf : prefetchers) {
        for (const std::string &scheme : schemes) {
            for (const WorkloadSpec &spec : roster) {
                JobSpec job;
                job.id = jobs.size();
                job.workload = spec;
                job.scheme = scheme;
                job.prefetcher = pf;
                job.run = run;
                job.large_page_fraction = large_page_fraction;
                // A single-core run retires warmup+measure
                // instructions in exactly that many steps; 8x slack
                // accommodates replay variance with headroom while
                // still catching runaway loops.
                job.watchdog_steps =
                    8 * (run.warmup_insts + run.measure_insts);
                // Uniform single-core cells: equal cost keeps the
                // engine's cost-ordered dispatch in plain id order.
                job.estimated_cost = static_cast<double>(
                    run.warmup_insts + run.measure_insts);
                jobs.push_back(std::move(job));
            }
        }
    }
    return jobs;
}

namespace {

/**
 * Snapshot warmup-key contribution of the workload itself. Trace
 * workloads are identified by path; synthetic ones by the full spec
 * (two specs with equal fields replay identical streams).
 */
std::uint64_t
workload_identity(const JobSpec &spec)
{
    if (!spec.trace_path.empty()) {
        return fnv1a_64(spec.trace_path.data(), spec.trace_path.size());
    }
    const WorkloadSpec &w = spec.workload;
    std::uint64_t key = fnv1a_64(w.name.data(), w.name.size());
    key = hash_combine(key, static_cast<std::uint64_t>(w.family));
    key = hash_combine(key, w.variant);
    return hash_combine(key, w.seed);
}

}  // namespace

JobOutput
run_sim_job(const JobSpec &spec, JobContext &ctx)
{
    const L1dPrefetcherKind kind = prefetcher_by_name(spec.prefetcher);
    MachineConfig cfg = make_config(kind, scheme_by_name(spec.scheme, kind));
    cfg.vmem.large_page_fraction = spec.large_page_fraction;

    // The workload is built once here (a trace file is opened and
    // validated, its name labels the row) and that build serves the
    // run's first machine; only a further machine rebuilds it.
    WorkloadPtr workload;
    JobOutput out;
    WorkloadFactory rebuild;
    if (!spec.trace_path.empty()) {
        rebuild = [path = spec.trace_path]() {
            TraceOpenResult open = open_trace_checked(path);
            if (!open.ok()) {
                // Missing file is an operator error; damaged bytes are
                // data corruption. Both isolate to this one job.
                throw JobError(open.status == TraceIoStatus::kFileMissing
                                   ? JobErrorCode::kConfigInvalid
                                   : JobErrorCode::kTraceCorrupt,
                               open.message);
            }
            return std::move(open.workload);
        };
        workload = rebuild();
        out.row.workload = workload->name();
        out.row.suite = "trace";
    } else {
        rebuild = [w = spec.workload]() { return make_workload(w); };
        workload = rebuild();
        out.row.workload = spec.workload.name;
        out.row.suite = spec.workload.suite;
    }
    out.row.scheme = spec.scheme;
    out.row.prefetcher = spec.prefetcher;

    std::string audit_findings;
    const std::string label = out.row.workload + "." + spec.scheme + "." +
                              spec.prefetcher;
    if (ctx.snapshot != nullptr) {
        const WorkloadFactory factory = [&workload, &rebuild]() {
            return workload != nullptr ? std::move(workload) : rebuild();
        };
        out.row.metrics = run_single_workload_snapshot(
            cfg, factory, spec.run, ctx.hook, *ctx.snapshot,
            workload_identity(spec), &audit_findings, ctx.telemetry,
            label, ctx.trace_pid);
    } else {
        out.row.metrics = run_single_workload(
            cfg, std::move(workload), spec.run, ctx.hook, &audit_findings,
            ctx.telemetry, label, ctx.trace_pid);
    }
    if (!audit_findings.empty()) {
        throw JobError(JobErrorCode::kAuditFailure, audit_findings);
    }
    out.aux = {out.row.metrics.ipc(),
               static_cast<double>(out.row.metrics.l1d.misses),
               static_cast<double>(out.row.metrics.l1d.accesses)};
    return out;
}

EngineReport
run_engine(const std::vector<JobSpec> &jobs, const BenchArgs &args,
           const JobFn &fn, TelemetrySession *telemetry)
{
    EngineConfig cfg = engine_config(args);
    cfg.telemetry = telemetry;
    // Warmup-snapshot reuse: one cache shared by every worker (and,
    // through write-temp+rename, by every process using the same
    // directory). It must outlive the engine run below.
    std::unique_ptr<SnapshotCache> snapshots;
    if (!args.snapshot_dir.empty() && !args.no_snapshot_reuse) {
        snapshots = std::make_unique<SnapshotCache>(args.snapshot_dir);
        cfg.snapshot = snapshots.get();
    }
    std::unique_ptr<ResultDir> results;
    if (!args.results_dir.empty()) {
        // The specs name every cell, but not what chose them: the
        // roster sample and the mix draw. Two sweeps that differ only
        // there must not share records.
        std::uint64_t key = hash_combine(args.full ? 1 : 0, args.workloads);
        key = hash_combine(hash_combine(key, args.mixes), args.seed);
        ProcessFaultPlan kills;
        kills.enabled = args.kill_rate > 0.0;
        kills.seed = args.fault_seed;
        kills.kill_rate = args.kill_rate;
        results = std::make_unique<ResultDir>(args.results_dir, key, kills);
        cfg.results = results.get();
    }
    EngineReport report = JobEngine(std::move(cfg)).run(jobs, fn);
    if (snapshots != nullptr) {
        const SnapshotCache::Stats s = snapshots->stats();
        std::fprintf(stderr,  // LINT_LOG_OK: report
                     "snapshot cache: %llu hits, %llu misses, "
                     "%llu saves, %llu invalid\n",
                     static_cast<unsigned long long>(s.hits),
                     static_cast<unsigned long long>(s.misses),
                     static_cast<unsigned long long>(s.saves),
                     static_cast<unsigned long long>(s.invalid));
    }
    return report;
}

EngineReport
run_matrix(const std::vector<JobSpec> &jobs, const BenchArgs &args,
           TelemetrySession *telemetry)
{
    return run_engine(jobs, args, run_sim_job, telemetry);
}

double
matrix_ipc(const EngineReport &report, std::size_t schemes,
           std::size_t roster, std::size_t p, std::size_t s,
           std::size_t w)
{
    const std::size_t id = (p * schemes + s) * roster + w;
    const JobResult &res = report.results[id];
    if (res.status != JobStatus::kCompleted || res.output.aux.empty()) {
        return std::nan("");
    }
    return res.output.aux[0];
}

void
SuiteAggregator::add(const std::string &suite, double ratio)
{
    auto [it, inserted] = by_suite_.try_emplace(suite);
    if (inserted) {
        order_.push_back(suite);
    }
    it->second.push_back(ratio);
}

double
SuiteAggregator::suite_geomean(const std::string &suite) const
{
    const auto it = by_suite_.find(suite);
    if (it == by_suite_.end() || it->second.empty()) {
        return 1.0;
    }
    return geomean(it->second);
}

double
SuiteAggregator::overall_geomean() const
{
    std::vector<double> all;
    for (const auto &[suite, ratios] : by_suite_) {
        all.insert(all.end(), ratios.begin(), ratios.end());
    }
    return all.empty() ? 1.0 : geomean(all);
}

TablePrinter::TablePrinter(std::vector<std::string> headers)
    : headers_(std::move(headers))
{
    widths_.reserve(headers_.size());
    for (std::size_t i = 0; i < headers_.size(); ++i) {
        widths_.push_back(std::max<std::size_t>(
            headers_[i].size() + 2, i == 0 ? 26 : 12));
    }
}

void
TablePrinter::print_header() const
{
    std::size_t total = 0;
    for (std::size_t i = 0; i < headers_.size(); ++i) {
        std::printf("%-*s", static_cast<int>(widths_[i]),  // LINT_LOG_OK: report table surface
                    headers_[i].c_str());
        total += widths_[i];
    }
    std::printf("\n");  // LINT_LOG_OK: report table surface
    for (std::size_t i = 0; i < total; ++i) {
        std::putchar('-');  // LINT_LOG_OK: report table surface
    }
    std::printf("\n");  // LINT_LOG_OK: report table surface
}

void
TablePrinter::print_row(const std::vector<std::string> &cells) const
{
    for (std::size_t i = 0; i < cells.size() && i < widths_.size(); ++i) {
        std::printf("%-*s", static_cast<int>(widths_[i]), cells[i].c_str());  // LINT_LOG_OK: report table surface
    }
    std::printf("\n");  // LINT_LOG_OK: report table surface
}

}  // namespace moka
