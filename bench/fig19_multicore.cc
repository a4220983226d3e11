/**
 * @file
 * Fig. 19 — 8-core evaluation: distribution of weighted speedups of
 * Berti + {Permit PGC, DRIPPER} over Berti + Discard PGC across
 * randomly generated 8-core mixes.
 *
 * Paper shape: DRIPPER positive for the vast majority of mixes
 * (+2.0% geomean over Discard, +3.3% over Permit); Permit PGC
 * mostly negative.
 *
 * Default runs 24 mixes; --full runs the paper's 300. One engine job
 * per mix (--jobs N parallelizes across mixes); the isolation-IPC
 * cache is shared across workers. --results-dir stores each finished
 * mix, so re-running the same command resumes. Failed mixes are
 * dropped from the distribution and reported on stderr.
 */
#include <algorithm>
#include <cstdio>

#include "filter/policies.h"
#include "sim/experiment.h"
#include "sim/multicore.h"
#include "telemetry/telemetry.h"

using namespace moka;

int
main(int argc, char **argv)
{
    const BenchArgs args = parse_bench_args(argc, argv);
    const std::vector<WorkloadSpec> roster = seen_workloads();
    const L1dPrefetcherKind k = L1dPrefetcherKind::kBerti;

    MulticoreConfig mc;
    mc.cores = 8;
    mc.warmup_insts = args.run.warmup_insts / 2;
    mc.measure_insts = args.run.measure_insts / 2;

    std::printf("== Fig. 19: 8-core mixes, weighted speedup over "
                "Discard PGC (%zu mixes) ==\n\n", args.mixes);

    const auto mixes = make_mixes(roster, args.mixes, mc.cores, args.seed);
    IsolationCache iso;

    // One job per mix; aux = {Permit speedup, DRIPPER speedup}. The
    // isolation cache is shared: get_or_compute is thread-safe and
    // isolation runs are deterministic, so worker count never changes
    // the numbers.
    std::vector<JobSpec> jobs;
    jobs.reserve(mixes.size());
    for (std::size_t i = 0; i < mixes.size(); ++i) {
        JobSpec spec;
        spec.id = i;
        spec.workload.name = "mix" + std::to_string(i);
        spec.workload.suite = "mix";
        spec.scheme = "permit+dripper";
        spec.prefetcher = "berti";
        spec.run.warmup_insts = mc.warmup_insts;
        spec.run.measure_insts = mc.measure_insts;
        // Per Machine lifetime; a mix job runs several machines (3
        // schemes + isolation runs), each with its own step count.
        // Finished cores replay until the slowest core crosses its
        // budget, so a mix steps its budget times a replay factor.
        // Measured factors reach 22.9x on the default 24-mix draw,
        // 31.7x on the 300-mix --full draw and 18.8x at tiny budgets;
        // 64x keeps 2x headroom. A stuck core never crosses, so its
        // machine would step forever: the bound still cancels it.
        spec.watchdog_steps =
            64 * mc.cores * (mc.warmup_insts + mc.measure_insts);
        // 3 scheme runs of `cores` workloads each, plus a share of the
        // isolation runs; mixes dominate any single-core cell.
        spec.estimated_cost = 3.0 * mc.cores *
                              double(mc.warmup_insts + mc.measure_insts);
        jobs.push_back(std::move(spec));
    }

    const std::unique_ptr<TelemetrySession> telemetry =
        make_telemetry(args);
    // run_engine so --results-dir works here too: a 300-mix --full
    // sweep is the natural candidate for several processes sharing one
    // directory. Its sweep key includes --seed and --mixes, which
    // choose the mixes the specs below only number.
    const EngineReport report = run_engine(
        jobs, args,
        [&](const JobSpec &spec, JobContext &ctx) {
            const std::vector<WorkloadSpec> &mix = mixes[spec.id];
            const std::string mixname = spec.workload.name;
            const double wb =
                weighted_ipc(k, scheme_discard(), mix, mc, iso, ctx.hook,
                             ctx.telemetry, mixname + ".discard",
                             ctx.trace_pid);
            const double wp =
                weighted_ipc(k, scheme_permit(), mix, mc, iso, ctx.hook,
                             ctx.telemetry, mixname + ".permit",
                             ctx.trace_pid);
            const double wd =
                weighted_ipc(k, scheme_dripper(k), mix, mc, iso,
                             ctx.hook, ctx.telemetry,
                             mixname + ".dripper", ctx.trace_pid);
            JobOutput out;
            out.row.workload = spec.workload.name;
            out.row.suite = spec.workload.suite;
            out.row.scheme = spec.scheme;
            out.row.prefetcher = spec.prefetcher;
            out.aux = {wb > 0.0 ? wp / wb : 0.0,
                       wb > 0.0 ? wd / wb : 0.0};
            return out;
        },
        telemetry.get());
    // Always printed: a dropped mix silently shrinks the GEOMEAN below.
    std::fputs(report.summary().c_str(), stderr);

    std::vector<double> sp, sd;
    for (const JobResult &res : report.results) {
        if (res.status != JobStatus::kCompleted ||
            res.output.aux.size() < 2) {
            continue;
        }
        sp.push_back(res.output.aux[0]);
        sd.push_back(res.output.aux[1]);
        std::printf("mix %3zu: Permit %+6.2f%%  DRIPPER %+6.2f%%\n",
                    res.id, (sp.back() - 1.0) * 100.0,
                    (sd.back() - 1.0) * 100.0);
    }

    auto curve = [](const char *label, std::vector<double> v) {
        std::sort(v.begin(), v.end());
        std::printf("%-10s distribution:", label);
        for (double x : v) {
            std::printf(" %+.1f", (x - 1.0) * 100.0);
        }
        std::printf("\n");
    };
    std::printf("\n");
    curve("Permit", sp);
    curve("DRIPPER", sd);
    if (!sp.empty() && !sd.empty()) {
        std::printf("\nGEOMEAN: Permit %+.2f%%  DRIPPER %+.2f%%  DRIPPER "
                    "over Permit %+.2f%%\n",
                    (geomean(sp) - 1.0) * 100.0,
                    (geomean(sd) - 1.0) * 100.0,
                    (geomean(sd) / geomean(sp) - 1.0) * 100.0);
    }
    std::printf("paper: DRIPPER +2.0%% over Discard, +3.3%% over Permit "
                "across 300 mixes\n");
    if (telemetry != nullptr) {
        const std::string trace = telemetry->flush();
        if (!trace.empty()) {
            std::printf("trace events written to %s\n", trace.c_str());
        }
        if (!telemetry->dir().empty()) {
            std::printf("epoch timeseries written to %s\n",
                        telemetry->dir().c_str());
        }
    }
    return report.all_completed() ? 0 : 1;
}
