/**
 * @file
 * Tests for the content-addressed result directory: concurrent
 * engines sharing one directory match a serial run, a complete
 * directory runs nothing, damaged or leftover files are dropped or
 * ignored, an unusable directory only costs reuse, and sweeps that
 * differ only in their sweep key never share records.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/publish.h"
#include "sim/experiment.h"
#include "sim/jobs/engine.h"
#include "sim/jobs/results.h"

namespace moka {
namespace {

namespace fs = std::filesystem;

std::string
temp_dir(const char *tag)
{
    const std::string dir =
        std::string(::testing::TempDir()) + "moka_results_" + tag;
    fs::remove_all(dir);
    return dir;
}

std::vector<JobSpec>
trivial_jobs(std::size_t n)
{
    std::vector<JobSpec> jobs(n);
    for (std::size_t i = 0; i < n; ++i) {
        jobs[i].id = i;
        jobs[i].workload.name = "job" + std::to_string(i);
    }
    return jobs;
}

JobOutput
echo_body(const JobSpec &spec, JobContext &)
{
    JobOutput out;
    out.row.workload = spec.workload.name;
    out.row.suite = "test";
    out.row.scheme = "s";
    out.row.prefetcher = "p";
    out.aux = {static_cast<double>(spec.id) + 0.5};
    return out;
}

std::string
all_csv(const EngineReport &report)
{
    std::string out;
    for (const JobResult &res : report.results) {
        out += res.csv;
        out += '\n';
    }
    return out;
}

/** Files in @p dir whose name ends in @p suffix. */
std::size_t
count_files(const std::string &dir, const std::string &suffix)
{
    std::size_t n = 0;
    std::error_code ec;
    for (const auto &entry : fs::directory_iterator(dir, ec)) {
        const std::string name = entry.path().filename().string();
        if (name.size() >= suffix.size() &&
            name.compare(name.size() - suffix.size(), suffix.size(),
                         suffix) == 0) {
            ++n;
        }
    }
    return n;
}

/** One engine run over @p dir; counts job-body calls in @p calls. */
EngineReport
run_in(const std::string &dir, const std::vector<JobSpec> &jobs,
       std::atomic<int> &calls, std::size_t workers = 1)
{
    ResultDir results(dir, /*sweep_key=*/7);
    EngineConfig cfg;
    cfg.workers = workers;
    cfg.results = &results;
    return JobEngine(cfg).run(jobs, [&](const JobSpec &s, JobContext &c) {
        ++calls;
        return echo_body(s, c);
    });
}

const std::string &
serial_reference()
{
    static const std::string csv =
        all_csv(JobEngine(EngineConfig()).run(trivial_jobs(12), echo_body));
    return csv;
}

TEST(ResultDir, ConcurrentEnginesMatchSerial)
{
    const std::string dir = temp_dir("farm");
    const auto jobs = trivial_jobs(12);
    std::atomic<int> calls{0};
    EngineReport ra, rb;
    std::thread ta([&] { ra = run_in(dir, jobs, calls, 2); });
    std::thread tb([&] { rb = run_in(dir, jobs, calls, 2); });
    ta.join();
    tb.join();
    // Each engine reports the whole matrix, byte-identical to serial;
    // a job both ran is a harmless duplicate.
    EXPECT_TRUE(ra.all_completed());
    EXPECT_TRUE(rb.all_completed());
    EXPECT_EQ(all_csv(ra), serial_reference());
    EXPECT_EQ(all_csv(rb), serial_reference());
    EXPECT_GE(calls.load(), 12);
    EXPECT_EQ(count_files(dir, ".jsonl"), 12u);
    EXPECT_EQ(count_files(dir, ".claim"), 0u);
    fs::remove_all(dir);
}

TEST(ResultDir, CompleteDirectoryRunsNoJobs)
{
    const std::string dir = temp_dir("complete");
    const auto jobs = trivial_jobs(12);
    std::atomic<int> calls{0};
    run_in(dir, jobs, calls);
    EXPECT_EQ(calls.load(), 12);

    calls = 0;
    const EngineReport again = run_in(dir, jobs, calls);
    EXPECT_EQ(calls.load(), 0);
    EXPECT_EQ(again.reused, 12u);
    EXPECT_EQ(all_csv(again), serial_reference());
    // aux survives the record round trip.
    ASSERT_EQ(again.results[3].output.aux.size(), 1u);
    EXPECT_EQ(again.results[3].output.aux[0], 3.5);
    fs::remove_all(dir);
}

TEST(ResultDir, TamperedRecordIsRecomputed)
{
    const std::string dir = temp_dir("tamper");
    const auto jobs = trivial_jobs(12);
    std::atomic<int> calls{0};
    run_in(dir, jobs, calls);

    const std::string path = ResultDir(dir, 7).record_path(jobs[5]);
    std::string line;
    ASSERT_TRUE(read_file(path, line));
    const std::size_t at = line.find("job5");
    ASSERT_NE(at, std::string::npos);
    line[at] = 'J';  // still valid JSONL, wrong checksum
    std::ofstream(path) << line;

    calls = 0;
    const EngineReport again = run_in(dir, jobs, calls);
    EXPECT_EQ(calls.load(), 1);
    EXPECT_EQ(again.reused, 11u);
    EXPECT_EQ(all_csv(again), serial_reference());
    ResultRecord rec;
    ASSERT_TRUE(read_file(path, line));
    line.pop_back();  // newline
    EXPECT_TRUE(from_jsonl(line, rec, nullptr));
    fs::remove_all(dir);
}

TEST(ResultDir, LeftoverTempAndClaimFilesAreIgnored)
{
    const std::string dir = temp_dir("leftover");
    const auto jobs = trivial_jobs(12);
    const ResultDir results(dir, 7);
    // What a SIGKILLed peer leaves: claims on jobs it never finished
    // and a half-written temp file beside a record it never renamed.
    for (const std::size_t i : {0u, 4u, 11u}) {
        const std::string record = results.record_path(jobs[i]);
        const std::string base = record.substr(0, record.size() - 6);
        std::ofstream(base + ".claim");
        std::ofstream(record + ".tmp.999.0") << "{\"job\":";
    }
    std::atomic<int> calls{0};
    const EngineReport report = run_in(dir, jobs, calls);
    EXPECT_EQ(calls.load(), 12);
    EXPECT_EQ(all_csv(report), serial_reference());
    EXPECT_EQ(count_files(dir, ".jsonl"), 12u);
    EXPECT_EQ(count_files(dir, ".claim"), 0u);
    fs::remove_all(dir);
}

TEST(ResultDir, UncreatableDirectoryStillReports)
{
    // A regular file where a parent directory should be.
    const std::string blocker = temp_dir("blocker");
    std::ofstream(blocker) << "not a directory";
    const auto jobs = trivial_jobs(12);
    std::atomic<int> calls{0};
    const EngineReport report = run_in(blocker + "/results", jobs, calls);
    EXPECT_EQ(calls.load(), 12);
    EXPECT_TRUE(report.all_completed());
    EXPECT_EQ(all_csv(report), serial_reference());
    fs::remove(blocker);
}

TEST(ResultDir, ClaimIsExclusiveOnFirstPassOnly)
{
    const std::string dir = temp_dir("claim");
    const auto jobs = trivial_jobs(1);
    ResultDir a(dir, 7);
    ResultDir b(dir, 7);
    EXPECT_TRUE(a.claim(jobs[0], /*first_pass=*/true));
    EXPECT_FALSE(b.claim(jobs[0], /*first_pass=*/true));
    EXPECT_TRUE(b.claim(jobs[0], /*first_pass=*/false));
    JobResult failed;
    failed.status = JobStatus::kFailed;
    a.settle(jobs[0], failed);  // drops the claim, stores nothing
    EXPECT_TRUE(b.claim(jobs[0], /*first_pass=*/true));
    EXPECT_EQ(count_files(dir, ".jsonl"), 0u);
    fs::remove_all(dir);
}

TEST(ResultDir, FailedJobsAreNotStored)
{
    const std::string dir = temp_dir("failed");
    const auto jobs = trivial_jobs(4);
    int calls = 0;
    const auto flaky = [&](const JobSpec &s, JobContext &c) {
        ++calls;
        if (s.id == 2) {
            throw JobError(JobErrorCode::kTraceCorrupt, "bad bytes");
        }
        return echo_body(s, c);
    };
    ResultDir results(dir, 7);
    EngineConfig cfg;
    cfg.results = &results;
    EXPECT_EQ(JobEngine(cfg).run(jobs, flaky).failed, 1u);
    EXPECT_EQ(count_files(dir, ".jsonl"), 3u);
    // The next invocation runs the failed job again, and only it.
    calls = 0;
    const EngineReport again = JobEngine(cfg).run(jobs, flaky);
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(again.reused, 3u);
    EXPECT_EQ(again.results[2].error, JobErrorCode::kTraceCorrupt);
    fs::remove_all(dir);
}

TEST(ResultDir, RecordNameIgnoresIdAndCost)
{
    const ResultDir results("d", 7);
    JobSpec a = trivial_jobs(1)[0];
    JobSpec b = a;
    b.id = 9;
    b.estimated_cost = 123.0;
    EXPECT_EQ(results.record_path(a), results.record_path(b));
    EXPECT_EQ(results.record_path(a).rfind("d/", 0), 0u);
    b = a;
    b.scheme = "dripper";
    EXPECT_NE(results.record_path(a), results.record_path(b));
    b = a;
    b.run.measure_insts += 1;
    EXPECT_NE(results.record_path(a), results.record_path(b));
    b = a;
    b.large_page_fraction = 0.5;
    EXPECT_NE(results.record_path(a), results.record_path(b));
    EXPECT_NE(results.record_path(a), ResultDir("d", 8).record_path(a));
}

TEST(ResultDir, SweepKeySeparatesFig19StyleSweeps)
{
    // fig19's specs ("mix<i>", "permit+dripper", "berti") are the same
    // for every --seed; only the sweep key tells the sweeps apart.
    std::vector<JobSpec> jobs(4);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        jobs[i].id = i;
        jobs[i].workload.name = "mix" + std::to_string(i);
        jobs[i].workload.suite = "mix";
        jobs[i].scheme = "permit+dripper";
        jobs[i].prefetcher = "berti";
    }
    BenchArgs args;
    args.results_dir = temp_dir("fig19");
    int calls = 0;
    const auto sweep = [&](std::uint64_t seed) {
        args.seed = seed;
        return run_engine(jobs, args, [&](const JobSpec &s, JobContext &c) {
            ++calls;
            JobOutput out = echo_body(s, c);
            out.aux = {static_cast<double>(seed * 100 + s.id)};
            return out;
        });
    };
    const auto expect_seed = [](const EngineReport &r, std::uint64_t seed) {
        for (const JobResult &res : r.results) {
            ASSERT_EQ(res.output.aux.size(), 1u);
            EXPECT_EQ(res.output.aux[0],
                      static_cast<double>(seed * 100 + res.id));
        }
    };
    expect_seed(sweep(7), 7);
    EXPECT_EQ(calls, 4);
    const EngineReport eight = sweep(8);
    EXPECT_EQ(calls, 8);  // nothing of seed 7 reused
    EXPECT_EQ(eight.reused, 0u);
    expect_seed(eight, 8);
    calls = 0;
    expect_seed(sweep(7), 7);
    expect_seed(sweep(8), 8);
    EXPECT_EQ(calls, 0);  // each sweep reuses only its own records
    fs::remove_all(args.results_dir);
}

using ResultDirDeathTest = ::testing::Test;

TEST(ResultDirDeathTest, KillBeforeRenameLeavesNoRecord)
{
    const std::string dir = temp_dir("kill");
    const auto jobs = trivial_jobs(1);
    ProcessFaultPlan plan;
    plan.enabled = true;
    plan.kill_rate = 1.0;
    JobResult done;
    done.status = JobStatus::kCompleted;
    done.csv = "row0";
    EXPECT_EXIT(
        {
            ResultDir(dir, 7, plan).settle(jobs[0], done);
            std::_Exit(0);  // unreachable when the kill fires
        },
        ::testing::KilledBySignal(SIGKILL), "");
    // The temp file was complete, the rename never happened: no
    // record, and the next run computes the job.
    EXPECT_EQ(count_files(dir, ".jsonl"), 0u);
    std::atomic<int> calls{0};
    run_in(dir, jobs, calls);
    EXPECT_EQ(calls.load(), 1);
    EXPECT_EQ(count_files(dir, ".jsonl"), 1u);
    fs::remove_all(dir);
}

}  // namespace
}  // namespace moka
