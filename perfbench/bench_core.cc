#include "bench_core.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <limits>
#include <numeric>

#include "audit/audit.h"

namespace perfbench {

using namespace moka;

WorkloadPtr
make_cell_workload(const Cell &cell, std::size_t i)
{
    WorkloadPtr w = make_workload(cell.workloads[i]);
    if (i < cell.offsets.size() && cell.offsets[i] > 0) {
        w->skip(cell.offsets[i]);
    }
    return w;
}

std::unique_ptr<Machine>
build_machine(const Cell &cell)
{
    std::vector<WorkloadPtr> workloads;
    workloads.reserve(cell.workloads.size());
    for (std::size_t i = 0; i < cell.workloads.size(); ++i) {
        workloads.push_back(make_cell_workload(cell, i));
    }
    return std::make_unique<Machine>(cell.cfg, std::move(workloads));
}

CellOutcome
run_cell(Machine &machine, const Cell &cell, RunTickHook *hook)
{
    CellOutcome out;
    const std::uint64_t s0 = machine.steps();
    machine.run(cell.run.warmup_insts, hook);
    machine.start_measurement();
    const std::uint64_t s1 = machine.steps();
    machine.run(cell.run.measure_insts, hook);
    out.steps = machine.steps() - s0;
    out.measure_steps = machine.steps() - s1;

    const auto note = [&](std::size_t core, const std::vector<std::string> &vs) {
        for (const std::string &v : vs) {
            out.violations.push_back(cell.label + " core " +
                                     std::to_string(core) + ": " + v);
        }
    };
    for (std::size_t i = 0; i < machine.num_cores(); ++i) {
        out.measured.push_back(machine.measured(i));
        note(i, check_metrics(out.measured.back(), cell.run.measure_insts,
                              /*lifetime=*/false));
        note(i, check_metrics(machine.metrics(i),
                              cell.run.warmup_insts + cell.run.measure_insts,
                              /*lifetime=*/true));
    }
    AuditReport report;
    machine.audit(report);
    if (!report.ok()) {
        out.violations.push_back(cell.label + ": audit: " +
                                 report.to_string());
    }
    return out;
}

std::vector<std::string>
check_metrics(const RunMetrics &m, InstCount budget, bool lifetime)
{
    std::vector<std::string> bad;
    const auto le = [&](std::uint64_t a, std::uint64_t b, const char *what) {
        if (a > b) {
            bad.push_back(std::string(what) + " (" + std::to_string(a) +
                          " > " + std::to_string(b) + ")");
        }
    };
    le(m.l1i.misses, m.l1i.accesses, "l1i misses > accesses");
    le(m.l1d.misses, m.l1d.accesses, "l1d misses > accesses");
    le(m.l2.misses, m.l2.accesses, "l2 misses > accesses");
    le(m.llc.misses, m.llc.accesses, "llc misses > accesses");
    le(m.dtlb.misses, m.dtlb.accesses, "dtlb misses > accesses");
    le(m.stlb.misses, m.stlb.accesses, "stlb misses > accesses");
    le(m.l2_walk.misses, m.l2_walk.accesses, "walk misses > accesses");
    le(m.pgc_issued + m.pgc_dropped, m.pgc_candidates,
       "pgc issued + dropped > candidates");
    if (lifetime) {
        le(m.pf_useful + m.pf_useless, m.pf_issued,
           "prefetch useful + useless > issued");
        le(m.pgc_useful + m.pgc_useless, m.pgc_issued,
           "pgc useful + useless > issued");
    }
    if (m.cycles == 0) {
        bad.emplace_back("cycles == 0");
    }
    le(budget, m.instructions, "retired < budget");
    return bad;
}

namespace {

std::uint64_t
fnv(std::uint64_t h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 0x100000001b3ull;
    }
    return h;
}

/** Every RunMetrics field, in declaration order. */
template <typename M, typename F>
void
for_each_field(M &m, F &&f)
{
    f(m.instructions);
    f(m.cycles);
    for (auto *s :
         {&m.l1i, &m.l1d, &m.l2, &m.llc, &m.dtlb, &m.stlb, &m.l2_walk}) {
        f(s->accesses);
        f(s->misses);
    }
    f(m.l1d_writebacks);
    f(m.l1d_pf_lookups);
    f(m.pf_issued);
    f(m.pf_useful);
    f(m.pf_useless);
    f(m.pgc_candidates);
    f(m.pgc_issued);
    f(m.pgc_useful);
    f(m.pgc_useless);
    f(m.pgc_dropped);
    f(m.demand_walks);
    f(m.spec_walks);
    f(m.walk_refs);
    f(m.dram_accesses);
    f(m.branch_mispredicts);
}

}  // namespace

std::uint64_t
fold_metrics(std::uint64_t h, const RunMetrics &m)
{
    for_each_field(m, [&h](std::uint64_t v) { h = fnv(h, v); });
    return h;
}

bool
same_metrics(const RunMetrics &a, const RunMetrics &b)
{
    std::vector<std::uint64_t> fa;
    std::vector<std::uint64_t> fb;
    for_each_field(a, [&fa](std::uint64_t v) { fa.push_back(v); });
    for_each_field(b, [&fb](std::uint64_t v) { fb.push_back(v); });
    return fa == fb;
}

void
accumulate(RunMetrics &into, const RunMetrics &m)
{
    std::vector<std::uint64_t *> dst;
    std::vector<std::uint64_t> src;
    for_each_field(into, [&dst](std::uint64_t &v) { dst.push_back(&v); });
    for_each_field(m, [&src](std::uint64_t v) { src.push_back(v); });
    for (std::size_t i = 0; i < dst.size(); ++i) {
        *dst[i] += src[i];
    }
}

Rates
rates(std::uint64_t steps, std::uint64_t budget, double seconds)
{
    Rates r;
    if (seconds > 0.0) {
        r.sim_inst_per_s = static_cast<double>(steps) / seconds;
        r.budget_inst_per_s = static_cast<double>(budget) / seconds;
    }
    return r;
}

void
SliceClock::start()
{
    ticks_ = 0;
    slices_.clear();
    last_ = std::chrono::steady_clock::now();
}

void
SliceClock::lap()
{
    const auto t = std::chrono::steady_clock::now();
    slices_.push_back(std::chrono::duration<double>(t - last_).count());
    last_ = t;
}

void
SliceClock::finish()
{
    lap();
}

double
median(std::vector<double> v)
{
    if (v.empty()) {
        return 0.0;
    }
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
fastest_of_slices(const std::vector<std::vector<double>> &rounds)
{
    if (rounds.empty()) {
        return 0.0;
    }
    const std::size_t k = rounds.front().size();
    const bool same_shape =
        std::all_of(rounds.begin(), rounds.end(),
                    [k](const std::vector<double> &r) { return r.size() == k; });
    double total = 0.0;
    if (!same_shape) {
        total = std::numeric_limits<double>::infinity();
        for (const std::vector<double> &r : rounds) {
            total = std::min(total, std::accumulate(r.begin(), r.end(), 0.0));
        }
        return total;
    }
    for (std::size_t i = 0; i < k; ++i) {
        double fastest = rounds.front()[i];
        for (const std::vector<double> &r : rounds) {
            fastest = std::min(fastest, r[i]);
        }
        total += fastest;
    }
    return total;
}

double
peak_rss_mb()
{
    struct rusage ru
    {
    };
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KB
}

}  // namespace perfbench
