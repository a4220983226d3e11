/**
 * @file
 * Warmup-snapshot cache: content-addressed snapshot files shared by
 * every job that warms up the same (workload, machine config,
 * warmup_insts) triple. In-process callers share one production via a
 * memoized future. Across processes the publish is write-temp+rename
 * and nothing else: processes that miss the same key at once each
 * warm up and publish an identical copy (a benign duplicate warmup).
 *
 * Blobs are validated once, on entry: a file read from the directory
 * is fully checked (magic, version, bounds, every section sum), while
 * bytes the producer just saved in this process are only indexed.
 * Either way the cache hands out a SnapshotImage whose section table
 * Machine::restore_snapshot reuses.
 */
#ifndef MOKASIM_SNAPSHOT_CACHE_H
#define MOKASIM_SNAPSHOT_CACHE_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <string>

#include "common/hot_path.h"
#include "common/thread_annotations.h"
#include "snapshot/format.h"

namespace moka {

/** Shared, validated snapshot image (immutable once published). */
using SnapshotBlob = std::shared_ptr<const SnapshotImage>;

/** See file comment. */
class SnapshotCache
{
  public:
    /** Cumulative cache activity (thread-safe reads). */
    struct Stats
    {
        std::uint64_t hits = 0;     //!< reused (memory or disk)
        std::uint64_t misses = 0;   //!< produced by warmup
        std::uint64_t saves = 0;    //!< published to disk
        //! corrupt files dropped, plus blobs the machine rejected on
        //! restore (each of those runs fell back to a cold warmup)
        std::uint64_t invalid = 0;

        /** Delta between two polls (interval reporting). */
        Stats operator-(const Stats &o) const
        {
            return {hits - o.hits, misses - o.misses, saves - o.saves,
                    invalid - o.invalid};
        }
    };

    /**
     * Produces snapshot bytes by running the warmup and returning
     * Machine::save_snapshot(); trusted, so its sums are not re-hashed.
     */
    using Producer = std::function<std::string()>;

    /**
     * @param dir snapshot directory (created on first publish)
     */
    explicit SnapshotCache(std::string dir);

    /**
     * Return the snapshot for @p key, producing and publishing it on
     * a miss. Concurrent in-process callers with the same key share
     * one production. A corrupt cached file is classified, counted,
     * removed and treated as a miss — never restored and never fatal.
     *
     * @throws whatever @p produce throws (a failed warmup propagates).
     */
    SIM_COLD SnapshotBlob fetch(std::uint64_t key,
                                const Producer &produce)
        SIM_EXCLUDES(mu_);

    /**
     * Count a fetched blob that Machine::restore_snapshot rejected
     * (a key collision or a torn blob that passed the structural
     * probe) in Stats::invalid.
     */
    SIM_COLD void count_rejected()
    {
        invalid_.fetch_add(1, std::memory_order_relaxed);
    }

    /** Snapshot directory. */
    const std::string &dir() const { return dir_; }

    /** Activity counters. */
    SIM_COLD Stats stats() const;

    /** Published snapshot path for @p key (tests/diagnostics). */
    SIM_COLD std::string path_for(std::uint64_t key) const;

  private:
    SIM_COLD SnapshotBlob load_or_produce(std::uint64_t key,
                                          const Producer &produce);
    /** Validated read of a published file; null when absent/corrupt. */
    SIM_COLD SnapshotBlob try_load(std::uint64_t key);

    std::string dir_;
    SimMutex mu_;
    std::map<std::uint64_t, std::shared_future<SnapshotBlob>> inflight_
        SIM_GUARDED_BY(mu_);
    std::atomic<std::uint64_t> hits_{0};
    std::atomic<std::uint64_t> misses_{0};
    std::atomic<std::uint64_t> saves_{0};
    std::atomic<std::uint64_t> invalid_{0};
};

}  // namespace moka

#endif  // MOKASIM_SNAPSHOT_CACHE_H
