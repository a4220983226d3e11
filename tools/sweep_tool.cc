/**
 * @file
 * sweep_tool — batch experiment driver on the fault-tolerant job
 * engine. Runs the (workload, scheme) matrix for one prefetcher and
 * streams one CSV row per completed job to stdout in job-id order,
 * ready for pandas/gnuplot; failures are classified and reported to
 * stderr instead of killing the sweep.
 *
 * Usage:
 *   sweep_tool [--workloads N] [--insts N] [--warmup N]
 *              [--prefetcher berti|ipcp|bop|stride|nl]
 *              [--schemes discard,permit,dripper,...]
 *              [--unseen] [--large-pages F]
 *              [--jobs N] [--results-dir DIR] [--fail-fast]
 *              [--inject-faults RATE] [--inject-kill RATE]
 *              [--fault-seed N]
 *              [--telemetry-dir DIR] [--trace-events FILE]
 *              [--snapshot-dir DIR] [--no-snapshot-reuse]
 *
 * Example:
 *   sweep_tool --workloads 32 --schemes discard,permit,dripper \
 *       --jobs 8 --results-dir sweep.d > results.csv
 *
 * The CSV is byte-identical for any --jobs count. With --results-dir
 * every finished job is stored as its own file in DIR; re-running the
 * same command over DIR runs only the missing jobs and prints the
 * same CSV (resume). Any number of processes may share DIR: each
 * prints the complete CSV when it finishes (sim/jobs/results.h).
 * --inject-kill makes a process SIGKILL itself at seeded points
 * between jobs (crash drills; needs --results-dir).
 *
 * Warmup reuse: with --snapshot-dir, every job that warms up the same
 * (workload, machine config, warmup budget) key shares one warmup via
 * a snapshot cache in that directory; results stay byte-identical to
 * a cold sweep (see snapshot/cache.h). --no-snapshot-reuse forces
 * cold warmups even when a directory is given.
 */
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "sim/experiment.h"
#include "sim/report.h"
#include "telemetry/telemetry.h"
#include "trace/suites.h"

using namespace moka;

namespace {

std::vector<std::string>
split(const std::string &s, char sep)
{
    std::vector<std::string> out;
    std::stringstream ss(s);
    std::string item;
    while (std::getline(ss, item, sep)) {
        if (!item.empty()) {
            out.push_back(item);
        }
    }
    return out;
}

}  // namespace

int
main(int argc, char **argv)
{
    BenchArgs args;
    std::string pf_name = "berti";
    std::string schemes_arg = "discard,permit,dripper";
    bool unseen = false;
    double large_pages = 0.0;

    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto next = [&]() { return require_value(a, i, argc, argv); };
        if (a == "--workloads") {
            args.workloads = require_u64(a, next());
        } else if (a == "--insts") {
            args.run.measure_insts = require_u64(a, next());
        } else if (a == "--warmup") {
            args.run.warmup_insts = require_u64(a, next());
        } else if (a == "--prefetcher") {
            pf_name = next();
        } else if (a == "--schemes") {
            schemes_arg = next();
        } else if (a == "--unseen") {
            unseen = true;
        } else if (a == "--large-pages") {
            large_pages = require_double(a, next());
        } else if (a == "--jobs") {
            args.jobs = require_u64(a, next());
        } else if (a == "--results-dir") {
            args.results_dir = next();
        } else if (a == "--fail-fast") {
            args.fail_fast = true;
        } else if (a == "--inject-faults") {
            args.fault_rate = require_double(a, next());
        } else if (a == "--fault-seed") {
            args.fault_seed = require_u64(a, next());
        } else if (a == "--inject-kill") {
            args.kill_rate = require_double(a, next());
        } else if (a == "--telemetry-dir") {
            args.telemetry_dir = next();
        } else if (a == "--trace-events") {
            args.trace_events = next();
        } else if (a == "--snapshot-dir") {
            args.snapshot_dir = next();
        } else if (a == "--no-snapshot-reuse") {
            args.no_snapshot_reuse = true;
        } else {
            std::fprintf(stderr, "usage: unknown flag %s\n", a.c_str());
            return 2;
        }
    }

    // Validate names up front: a typo is a usage error, not a sweep
    // of uniformly failed jobs.
    const std::vector<std::string> schemes = split(schemes_arg, ',');
    const std::vector<std::string> &known = known_scheme_names();
    for (const std::string &name : schemes) {
        if (std::find(known.begin(), known.end(), name) == known.end()) {
            std::fprintf(stderr, "usage: unknown scheme '%s' (known:",
                         name.c_str());
            for (const std::string &k : known) {
                std::fprintf(stderr, " %s", k.c_str());
            }
            std::fprintf(stderr, ")\n");
            return 2;
        }
    }
    const std::vector<std::string> &pfs = known_prefetcher_names();
    if (std::find(pfs.begin(), pfs.end(), pf_name) == pfs.end()) {
        std::fprintf(stderr, "usage: unknown prefetcher '%s' (known:",
                     pf_name.c_str());
        for (const std::string &k : pfs) {
            std::fprintf(stderr, " %s", k.c_str());
        }
        std::fprintf(stderr, ")\n");
        return 2;
    }
    try {
        const std::vector<WorkloadSpec> roster = sample(
            unseen ? unseen_workloads() : seen_workloads(), args.workloads);
        const std::vector<JobSpec> matrix =
            make_matrix(roster, schemes, {pf_name}, args.run, large_pages);
        const std::unique_ptr<TelemetrySession> telemetry =
            make_telemetry(args);
        const EngineReport report =
            run_matrix(matrix, args, telemetry.get());

        std::printf("%s\n", csv_header().c_str());
        for (const JobResult &res : report.results) {
            if (res.status == JobStatus::kCompleted && !res.csv.empty()) {
                std::printf("%s\n", res.csv.c_str());
            }
        }
        std::fflush(stdout);
        std::fputs(report.summary().c_str(), stderr);
        if (telemetry != nullptr) {
            const std::string trace = telemetry->flush();
            if (!trace.empty()) {
                std::fprintf(stderr, "trace events written to %s\n",
                             trace.c_str());
            }
        }
        return report.all_completed() ? 0 : 1;
    } catch (const JobError &e) {
        std::fprintf(stderr, "usage: %s: %s\n", to_string(e.code()),
                     e.what());
        return 2;
    }
}
