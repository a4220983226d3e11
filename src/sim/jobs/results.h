/**
 * @file
 * Content-addressed result directory: the one mechanism behind resume,
 * multi-process sweeps and crash tolerance. A job is a pure function
 * of its spec and of the sweep that built it, so each completed job is
 * stored as one file named by a hash of (sweep key, every JobSpec
 * field except id and estimated_cost), published by write-temp+rename.
 * Re-running a command over the same directory reuses every stored
 * result and computes only what is missing: that is "resume", and,
 * with several processes on one directory, "collect". A crashed or
 * duplicated job is just recomputed, bit-identically.
 *
 * Claims are advisory: an O_EXCL `<hash>.claim` file tells peers a job
 * is taken so they try other jobs first. There is no heartbeat, expiry
 * or steal; the engine's second pass runs any job still missing.
 *
 * Only completed jobs are stored, as one JSONL line
 *   {"job":12,"attempts":1,"csv":"...","aux":[1.5],"sum":N}
 * where `sum` is record_checksum. A file that fails to parse or to
 * match its checksum is dropped and the job recomputed.
 */
#ifndef MOKASIM_SIM_JOBS_RESULTS_H
#define MOKASIM_SIM_JOBS_RESULTS_H

#include <cstdint>
#include <string>
#include <vector>

#include "sim/jobs/faults.h"
#include "sim/jobs/job.h"

namespace moka {

/** One stored result, parsed or about to be written. */
struct ResultRecord
{
    std::size_t job_id = 0;   //!< id of the job that wrote it
    int attempts = 0;
    std::string csv;          //!< to_csv(row)
    std::vector<double> aux;  //!< JobOutput::aux passthrough
};

/** FNV-1a over job id, CSV and aux; attempt counts are excluded. */
std::uint64_t record_checksum(const ResultRecord &rec);

/** Serialize @p rec as one JSONL line (no trailing newline). */
std::string to_jsonl(const ResultRecord &rec);

/**
 * Parse one line written by to_jsonl; a wrong "sum" is corruption.
 * @return false (and fills @p error when non-null) on bad input.
 */
bool from_jsonl(const std::string &line, ResultRecord &rec,
                std::string *error);

/** See file comment. Thread-safe. */
class ResultDir
{
  public:
    /**
     * @param dir       created if missing; if that fails, stores fail
     *                  with a warning and jobs still run and report
     * @param sweep_key hash of what chose the matrix beyond the specs
     *                  themselves (roster sample, mix seed)
     * @param kills     seeded self-SIGKILL plan (crash drills)
     */
    ResultDir(std::string dir, std::uint64_t sweep_key,
              ProcessFaultPlan kills = {});

    /** `<dir>/<16 hex digits>.jsonl`, the record file of @p spec. */
    std::string record_path(const JobSpec &spec) const;

    /**
     * Fill @p res (status, attempts, csv, aux, reused) from the stored
     * record of @p spec. A record that fails to parse or its checksum
     * is removed. @return false when no valid record exists.
     */
    bool load(const JobSpec &spec, JobResult &res) const;

    /**
     * Take @p spec for this process. On the first pass only creating
     * the claim file (O_EXCL) wins; on the second pass the job is
     * taken regardless. Kill point "run" fires once it is taken.
     */
    bool claim(const JobSpec &spec, bool first_pass);

    /**
     * Store @p res when it completed (write-temp, kill point
     * "commit", rename), then drop the claim either way.
     */
    void settle(const JobSpec &spec, const JobResult &res);

  private:
    std::string base_path(const JobSpec &spec) const;

    std::string dir_;
    std::uint64_t sweep_key_;
    ProcessFaultInjector kills_;
};

}  // namespace moka

#endif  // MOKASIM_SIM_JOBS_RESULTS_H
