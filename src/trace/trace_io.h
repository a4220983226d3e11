/**
 * @file
 * Binary trace file format: record any Workload to disk and replay it
 * later. This is the adoption path for real traces (e.g. converted
 * ChampSim/SimPoint traces) in place of the synthetic generators.
 *
 * Format: 16-byte header (magic "MOKATRC1", u64 instruction count),
 * then one packed record per instruction.
 */
#ifndef MOKASIM_TRACE_TRACE_IO_H
#define MOKASIM_TRACE_TRACE_IO_H

#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "trace/workload.h"

namespace moka {

/**
 * Why a trace failed to open. "File missing" (bad path, permissions)
 * and "file corrupt" (bad magic, truncation, empty stream) are
 * distinct classes: the former is an operator error, the latter is
 * data damage the job engine classifies as kTraceCorrupt.
 */
enum class TraceIoStatus : std::uint8_t {
    kOk,
    kFileMissing,   //!< cannot open the path at all
    kBadHeader,     //!< magic mismatch: not a mokasim trace
    kTruncated,     //!< header or record stream cut short
    kEmpty,         //!< well-formed but zero instructions
};

/** Stable diagnostic name of @p status (e.g. "bad_header"). */
const char *to_string(TraceIoStatus status);

/** Classified trace-I/O failure thrown by TraceFileWorkload. */
class TraceIoError : public std::runtime_error
{
  public:
    TraceIoError(TraceIoStatus status, const std::string &message)
        : std::runtime_error(message), status_(status)
    {
    }

    TraceIoStatus status() const { return status_; }

  private:
    TraceIoStatus status_;
};

/** On-disk instruction record (packed, little-endian). */
struct TraceRecord
{
    std::uint64_t pc;
    std::uint64_t mem_addr;
    std::uint64_t target;
    std::uint8_t op;       //!< OpClass
    std::uint8_t taken;    //!< 0/1
    std::uint8_t dep_load; //!< 0/1
    std::uint8_t pad[5];
};
static_assert(sizeof(TraceRecord) == 32, "record layout");

/**
 * Capture @p count instructions of @p workload into @p path.
 *
 * @return true on success.
 */
bool record_trace(const std::string &path, Workload &workload,
                  std::uint64_t count);

/**
 * A Workload backed by a trace file; loops back to the start when the
 * trace is exhausted (mirrors how SimPoint regions are replayed).
 *
 * Decoding is batched: the file stays open and records stream through
 * a reusable fixed-size ring, fread'ing a block at a time instead of
 * one record per next() — or the whole trace up front. The record
 * stream is validated against the on-disk size at construction, so a
 * truncated file still fails fast with the classified taxonomy.
 */
class TraceFileWorkload : public Workload
{
  public:
    //! records per decoded block (128KB of ring at 32B/record)
    static constexpr std::size_t kDefaultBlockRecords = 4096;

    /**
     * Throws TraceIoError (a std::runtime_error) on malformed files.
     *
     * @param block_records ring capacity; tests shrink it to cover
     *                      wrap/short-block paths cheaply
     */
    explicit TraceFileWorkload(
        const std::string &path,
        std::size_t block_records = kDefaultBlockRecords);
    ~TraceFileWorkload() override;
    TraceFileWorkload(const TraceFileWorkload &) = delete;
    TraceFileWorkload &operator=(const TraceFileWorkload &) = delete;

    TraceInst next() override;

    /** O(1) re-position: one fseek instead of n decodes. */
    void skip(std::uint64_t n) override;

    /** Save the record index (and the trace length, as a guard). */
    void save_state(SnapshotWriter &w) const override;
    /** Seek to the saved record index (one fseek). */
    void restore_state(SnapshotReader &r) override;

    const std::string &name() const override { return name_; }

    /** Instructions in one pass of the trace. */
    std::uint64_t length() const { return count_; }

  private:
    void refill();

    // LINT_SNAPSHOT_OK: config
    std::string name_;
    // LINT_SNAPSHOT_OK: config
    std::string path_;
    // LINT_SNAPSHOT_OK: handle, positioned from cursor_ on restore
    std::FILE *file_ = nullptr;
    std::uint64_t count_ = 0;      //!< records in one trace pass
    std::uint64_t cursor_ = 0;     //!< logical index of the next record
    // LINT_SNAPSHOT_OK: decode buffer state, reset by the seek
    std::uint64_t file_next_ = 0;  //!< next record the file will read
    // LINT_SNAPSHOT_OK: decode buffer, refilled after the seek
    std::vector<TraceRecord> ring_;
    // LINT_SNAPSHOT_OK: decode buffer state, reset by the seek
    std::size_t ring_pos_ = 0;     //!< next undecoded ring slot
    // LINT_SNAPSHOT_OK: decode buffer state, reset by the seek
    std::size_t ring_filled_ = 0;  //!< valid records in the ring
};

/** Outcome of open_trace_checked: workload or classified failure. */
struct TraceOpenResult
{
    WorkloadPtr workload;  //!< null on failure
    TraceIoStatus status = TraceIoStatus::kOk;
    std::string message;   //!< human-readable diagnostic on failure

    bool ok() const { return workload != nullptr; }
};

/**
 * Open a trace file as a Workload, surfacing the failure class and
 * message to the caller instead of swallowing them. Never throws.
 */
TraceOpenResult open_trace_checked(const std::string &path);

/**
 * Open a trace file as a Workload (nullptr on failure, no throw).
 * Each failure is logged once to stderr with its taxonomy code;
 * callers that want the classification use open_trace_checked.
 */
WorkloadPtr open_trace(const std::string &path);

}  // namespace moka

#endif  // MOKASIM_TRACE_TRACE_IO_H
