/**
 * @file
 * mokasim_cli — general-purpose simulator front-end.
 *
 * Run any roster workload or recorded trace under any page-cross
 * scheme / prefetcher combination, single- or multi-core, and emit a
 * table, CSV row, or JSON document.
 *
 * Usage:
 *   mokasim_cli --workload gap.csr.0 --prefetcher berti \
 *               --scheme dripper --insts 1000000 [--json|--csv]
 *   mokasim_cli --trace my.trc --scheme permit
 *   mokasim_cli --mix gap.csr.0,parsec.stream.0 --scheme dripper
 *   mokasim_cli --scheme dripper --telemetry-dir tele \
 *               --trace-events trace.json
 *   mokasim_cli --list
 *
 * Schemes: discard | permit | discard-ptw | iso | ppf | ppf-dthr |
 *          dripper | dripper-sf | dripper-meta | dripper-2mb
 * Prefetchers: berti | ipcp | bop | stride | nl
 *
 * An unknown scheme or prefetcher name is a usage error (exit 2).
 */
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "filter/policies.h"
#include "sim/experiment.h"
#include "sim/report.h"
#include "sim/runner.h"
#include "telemetry/timeseries.h"
#include "trace/suites.h"
#include "trace/trace_io.h"

using namespace moka;

namespace {

/** False, after a usage message, when @p name is not in @p known. */
bool
known_name(const char *what, const std::string &name,
           const std::vector<std::string> &known)
{
    if (std::find(known.begin(), known.end(), name) != known.end()) {
        return true;
    }
    std::fprintf(stderr, "usage: unknown %s '%s' (known:", what,
                 name.c_str());
    for (const std::string &k : known) {
        std::fprintf(stderr, " %s", k.c_str());
    }
    std::fprintf(stderr, ")\n");
    return false;
}

const WorkloadSpec *
find_spec(const std::vector<WorkloadSpec> &roster, const std::string &name)
{
    for (const WorkloadSpec &s : roster) {
        if (s.name == name) {
            return &s;
        }
    }
    return nullptr;
}

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

void
print_human(const ResultRow &row)
{
    const RunMetrics &m = row.metrics;
    std::printf("workload    %s (%s)\n", row.workload.c_str(),
                row.suite.c_str());
    std::printf("scheme      %s, prefetcher %s\n", row.scheme.c_str(),
                row.prefetcher.c_str());
    std::printf("IPC         %.4f  (%llu instructions, %llu cycles)\n",
                m.ipc(), (unsigned long long)m.instructions,
                (unsigned long long)m.cycles);
    std::printf("MPKI        L1I %.2f  L1D %.2f  L2 %.2f  LLC %.2f  "
                "dTLB %.2f  sTLB %.2f\n",
                m.l1i_mpki(), m.l1d_mpki(), m.l2_mpki(), m.llc_mpki(),
                m.dtlb_mpki(), m.stlb_mpki());
    std::printf("prefetch    issued %llu  useful %llu  useless %llu  "
                "accuracy %.2f\n",
                (unsigned long long)m.pf_issued,
                (unsigned long long)m.pf_useful,
                (unsigned long long)m.pf_useless, m.pf_accuracy());
    std::printf("page-cross  cand %llu  issued %llu  dropped %llu  "
                "useful %llu  useless %llu  accuracy %.2f\n",
                (unsigned long long)m.pgc_candidates,
                (unsigned long long)m.pgc_issued,
                (unsigned long long)m.pgc_dropped,
                (unsigned long long)m.pgc_useful,
                (unsigned long long)m.pgc_useless, m.pgc_accuracy());
    std::printf("walks       demand %llu  speculative %llu\n",
                (unsigned long long)m.demand_walks,
                (unsigned long long)m.spec_walks);
}

}  // namespace

int
main(int argc, char **argv)
{
    std::string workload_name = "parsec.stream.0";
    std::string trace_path;
    std::string mix_arg;
    std::string scheme_name = "dripper";
    std::string pf_name = "berti";
    std::string l2pf_name = "none";
    InstCount insts = 800'000;
    InstCount warmup = 200'000;
    double large_pages = 0.0;
    bool json = false, csv = false, list = false;
    std::string telemetry_dir, trace_events;

    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto next = [&]() -> std::string {
            return i + 1 < argc ? argv[++i] : "";
        };
        if (a == "--workload") workload_name = next();
        else if (a == "--trace") trace_path = next();
        else if (a == "--mix") mix_arg = next();
        else if (a == "--scheme") scheme_name = next();
        else if (a == "--prefetcher") pf_name = next();
        else if (a == "--l2-prefetcher") l2pf_name = next();
        else if (a == "--insts") insts = std::stoull(next());
        else if (a == "--warmup") warmup = std::stoull(next());
        else if (a == "--large-pages") large_pages = std::stod(next());
        else if (a == "--telemetry-dir") telemetry_dir = next();
        else if (a == "--trace-events") trace_events = next();
        else if (a == "--json") json = true;
        else if (a == "--csv") csv = true;
        else if (a == "--list") list = true;
        else {
            std::fprintf(stderr, "unknown flag %s (see file header)\n",
                         a.c_str());
            return 1;
        }
    }

    const std::vector<WorkloadSpec> roster = seen_workloads();
    if (list) {
        for (const WorkloadSpec &s : roster) {
            std::printf("%-28s %s\n", s.name.c_str(), s.suite.c_str());
        }
        return 0;
    }

    if (!known_name("scheme", scheme_name, known_scheme_names()) ||
        !known_name("prefetcher", pf_name, known_prefetcher_names())) {
        return 2;
    }
    const L1dPrefetcherKind kind = parse_l1d_kind(pf_name);
    const unsigned cores =
        mix_arg.empty() ? 1
                        : static_cast<unsigned>(split(mix_arg, ',').size());

    MachineConfig cfg = default_config(cores);
    cfg.l1d_prefetcher = kind;
    cfg.scheme = scheme_by_name(scheme_name, kind);
    cfg.vmem.large_page_fraction = large_pages;
    if (l2pf_name == "spp") cfg.l2_prefetcher = L2PrefetcherKind::kSpp;
    if (l2pf_name == "ipcp") cfg.l2_prefetcher = L2PrefetcherKind::kIpcp;
    if (l2pf_name == "bop") cfg.l2_prefetcher = L2PrefetcherKind::kBop;

    // Assemble the workload list.
    std::vector<WorkloadPtr> workloads;
    std::vector<std::string> names, suites;
    if (!trace_path.empty()) {
        WorkloadPtr t = open_trace(trace_path);
        if (t == nullptr) {
            std::fprintf(stderr, "cannot load trace %s\n",
                         trace_path.c_str());
            return 1;
        }
        names.push_back(t->name());
        suites.push_back("TRACE");
        workloads.push_back(std::move(t));
    } else if (!mix_arg.empty()) {
        for (const std::string &n : split(mix_arg, ',')) {
            const WorkloadSpec *spec = find_spec(roster, n);
            if (spec == nullptr) {
                std::fprintf(stderr, "unknown workload %s\n", n.c_str());
                return 1;
            }
            names.push_back(spec->name);
            suites.push_back(spec->suite);
            workloads.push_back(make_workload(*spec));
        }
    } else {
        const WorkloadSpec *spec = find_spec(roster, workload_name);
        if (spec == nullptr) {
            std::fprintf(stderr, "unknown workload %s (try --list)\n",
                         workload_name.c_str());
            return 1;
        }
        names.push_back(spec->name);
        suites.push_back(spec->suite);
        workloads.push_back(make_workload(*spec));
    }

    std::unique_ptr<TelemetrySession> telemetry;
    if (!telemetry_dir.empty() || !trace_events.empty()) {
        telemetry = std::make_unique<TelemetrySession>(telemetry_dir,
                                                       trace_events);
    }
    std::string label = names[0];
    for (std::size_t c = 1; c < names.size(); ++c) {
        label += "+" + names[c];
    }
    label += "." + scheme_name;

    Machine machine(cfg, std::move(workloads));
    {
        ScopedRunTelemetry scoped(telemetry.get(), &machine, label, 0);
        RunTickHook *hook = scoped.hook(nullptr);
        scoped.span("warmup", [&] { machine.run(warmup, hook); });
        machine.start_measurement();
        scoped.span("measure", [&] { machine.run(insts, hook); });
    }
    if (telemetry != nullptr) {
        const std::string trace = telemetry->flush();
        if (!trace.empty()) {
            std::fprintf(stderr, "trace events written to %s\n",
                         trace.c_str());
        }
        if (!telemetry->dir().empty()) {
            std::fprintf(stderr, "epoch timeseries written to %s\n",
                         telemetry->dir().c_str());
        }
    }

    std::vector<ResultRow> rows;
    for (std::size_t c = 0; c < machine.num_cores(); ++c) {
        ResultRow row;
        row.workload = names[c];
        row.suite = suites[c];
        row.scheme = cfg.scheme.name;
        row.prefetcher = pf_name;
        row.metrics = machine.measured(c);
        rows.push_back(std::move(row));
    }

    if (csv) {
        write_csv(std::cout, rows);
    } else if (json) {
        for (const ResultRow &row : rows) {
            std::cout << to_json(row) << "\n";
        }
    } else {
        for (const ResultRow &row : rows) {
            print_human(row);
            if (rows.size() > 1) {
                std::printf("\n");
            }
        }
    }
    return 0;
}
