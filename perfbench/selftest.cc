/**
 * @file
 * Tests of the benchmark's own logic (not of the simulator):
 *
 *  - on a 2-core machine that steps more than its budget,
 *    sim_inst_per_s counts Machine::steps and budget_inst_per_s counts
 *    cores x (warmup + measure);
 *  - the output check rejects hand-corrupted RunMetrics;
 *  - on a small single-core cell the layer rig replays what the
 *    Machine runs: same instruction count, same L1D accesses (and, as
 *    the rig mirrors CoreComplex::step, the same measured counters).
 *
 * Exits non-zero on the first failed expectation.
 */
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "bench_core.h"
#include "filter/policies.h"
#include "rig.h"

using namespace moka;
using namespace perfbench;

namespace {

int failures = 0;

void
expect(bool ok, const std::string &what)
{
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
    failures += ok ? 0 : 1;
}

const WorkloadSpec &
roster_entry(const std::string &name)
{
    static const std::vector<WorkloadSpec> roster = seen_workloads();
    for (const WorkloadSpec &s : roster) {
        if (s.name == name) {
            return s;
        }
    }
    std::fprintf(stderr, "selftest: no roster entry %s\n", name.c_str());
    std::exit(2);
}

Cell
small_cell(std::vector<std::string> names, unsigned cores)
{
    Cell c;
    c.label = "selftest";
    c.cfg = default_config(cores);
    c.cfg.l1d_prefetcher = L1dPrefetcherKind::kBerti;
    c.cfg.scheme = scheme_dripper(L1dPrefetcherKind::kBerti);
    for (std::size_t i = 0; i < names.size(); ++i) {
        c.workloads.push_back(roster_entry(names[i]));
        c.offsets.push_back(1000 * i);
    }
    c.run.warmup_insts = 20'000;
    c.run.measure_insts = 60'000;
    return c;
}

void
test_rates_count_steps_and_budget()
{
    // A streaming core next to a pointer chase: the fast core replays
    // until the slow one crosses, so the machine steps past its budget.
    const Cell cell = small_cell({"parsec.stream.8", "qmm_int.chase.22"}, 2);
    std::unique_ptr<Machine> machine = build_machine(cell);
    const std::uint64_t before = machine->steps();
    const CellOutcome o = run_cell(*machine, cell, nullptr);
    const std::uint64_t budget = cell.budget();
    expect(budget == 2 * (20'000 + 60'000), "budget = cores x (warmup + measure)");
    expect(o.steps == machine->steps() - before,
           "cell steps = Machine::steps() delta");
    expect(o.steps > budget, "2-core cell steps more than its budget (" +
                                 std::to_string(o.steps) + " > " +
                                 std::to_string(budget) + ")");
    const Rates r = rates(o.steps, budget, 2.0);
    expect(r.sim_inst_per_s == static_cast<double>(o.steps) / 2.0,
           "sim_inst_per_s counts steps");
    expect(r.budget_inst_per_s == static_cast<double>(budget) / 2.0,
           "budget_inst_per_s counts budget");
    expect(r.sim_inst_per_s > r.budget_inst_per_s,
           "stepped rate exceeds credited rate");
    expect(o.violations.empty(), "clean cell passes the output check");
}

void
test_check_rejects_corruption()
{
    const Cell cell = small_cell({"spec06.stream.27"}, 1);
    std::unique_ptr<Machine> machine = build_machine(cell);
    const CellOutcome o = run_cell(*machine, cell, nullptr);
    const RunMetrics good = o.measured.front();
    const RunMetrics life = machine->metrics(0);
    const InstCount budget = cell.run.measure_insts;
    expect(check_metrics(good, budget, false).empty(),
           "measured region passes");
    expect(check_metrics(life, 80'000, true).empty(),
           "lifetime counters pass");

    const std::vector<std::pair<std::string,
                                std::function<void(RunMetrics &)>>>
        corruptions = {
            {"l1d misses > accesses",
             [](RunMetrics &m) { m.l1d.misses = m.l1d.accesses + 1; }},
            {"llc misses > accesses",
             [](RunMetrics &m) { m.llc.misses = m.llc.accesses + 1; }},
            {"stlb misses > accesses",
             [](RunMetrics &m) { m.stlb.misses = m.stlb.accesses + 1; }},
            {"pgc issued + dropped > candidates",
             [](RunMetrics &m) { m.pgc_dropped = m.pgc_candidates + 1; }},
            {"zero cycles", [](RunMetrics &m) { m.cycles = 0; }},
            {"retired < budget",
             [](RunMetrics &m) { m.instructions = 10; }},
        };
    for (const auto &[name, corrupt] : corruptions) {
        RunMetrics bad = good;
        corrupt(bad);
        expect(!check_metrics(bad, budget, false).empty(),
               "rejects region with " + name);
    }
    RunMetrics bad = life;
    bad.pf_useful = bad.pf_issued + 1;
    expect(!check_metrics(bad, 80'000, true).empty(),
           "rejects lifetime prefetch useful > issued");
    bad = life;
    bad.pgc_useless = bad.pgc_issued + 1;
    expect(!check_metrics(bad, 80'000, true).empty(),
           "rejects lifetime pgc useless > issued");

    RunMetrics flipped = good;
    ++flipped.walk_refs;
    expect(fold_metrics(kDigestBasis, flipped) !=
               fold_metrics(kDigestBasis, good),
           "digest covers walk_refs");
    expect(!same_metrics(flipped, good), "same_metrics sees one field");
}

void
test_rig_follows_machine()
{
    const Cell cell = small_cell({"spec06.tile.0"}, 1);
    std::unique_ptr<Machine> machine = build_machine(cell);
    const CellOutcome o = run_cell(*machine, cell, nullptr);

    SpanRecorder rec;
    CoreRig rig(cell.cfg, make_cell_workload(cell, 0), 0, rec);
    rig.run(cell.run.warmup_insts);
    rig.start_measurement();
    rig.run(cell.run.measure_insts);
    const RunMetrics r = rig.measured();
    const RunMetrics &m = o.measured.front();

    expect(rig.insts() == o.steps, "rig trace.insts = Machine steps (" +
                                       std::to_string(rig.insts()) + ")");
    expect(rec.totals(Layer::kTraceNext).calls == o.steps,
           "trace.next spans = Machine steps");
    expect(r.l1d.accesses == m.l1d.accesses,
           "rig L1D accesses = Machine's (" + std::to_string(m.l1d.accesses) +
               ")");
    expect(same_metrics(r, m), "rig measured counters = Machine's");
    expect(rec.totals(Layer::kFilterPermit).calls > 0,
           "DRIPPER cell records filter.permit spans");
    expect(rec.totals(Layer::kCacheL2).calls > 0 &&
               rec.totals(Layer::kDram).calls > 0,
           "lower levels record spans through their shims");
}

void
test_span_self_time()
{
    SpanRecorder rec;
    rec.open(Layer::kCacheL1d);
    rec.open(Layer::kCacheL2);
    rec.close();
    rec.close();
    const LayerTotals &l1 = rec.totals(Layer::kCacheL1d);
    const LayerTotals &l2 = rec.totals(Layer::kCacheL2);
    expect(l1.span_ns == l1.self_ns + l2.span_ns,
           "parent self = span - nested span");
    expect(l1.children == 1 && l2.children == 0, "nesting counted");
    expect(rec.spans().size() == 2 && rec.spans()[1].parent == 0,
           "kept spans carry their parent");
}

}  // namespace

int
main()
{
    test_rates_count_steps_and_budget();
    test_check_rejects_corruption();
    test_rig_follows_machine();
    test_span_self_time();
    std::printf("%s: %d failure(s)\n", failures == 0 ? "PASS" : "FAIL",
                failures);
    return failures == 0 ? 0 : 1;
}
