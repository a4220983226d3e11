/**
 * @file
 * Set-associative write-back cache with LRU replacement (SRRIP and
 * Random for ablations), MSHR-style in-flight merging, port
 * contention, and per-block prefetch metadata. The L1D instance
 * additionally carries the paper's PCB (Page-Cross Bit) per block and
 * reports page-cross prefetch usefulness through a listener, which is
 * what drives MOKA training.
 */
#ifndef MOKASIM_CACHE_CACHE_H
#define MOKASIM_CACHE_CACHE_H

#include <cstdint>
#include <string>
#include <vector>

#include "cache/memory_level.h"
#include "common/hot_path.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/types.h"
#include "common/zeroed_array.h"

namespace moka {

struct AuditAccess;
class SnapshotReader;
class SnapshotWriter;

/**
 * Replacement policy selector. The paper evaluates LRU everywhere
 * (Table IV); SRRIP and Random serve bench/ablation_replacement.
 */
enum class ReplacementKind : std::uint8_t {
    kLru,    //!< least-recently-used (paper's Table IV)
    kSrrip,  //!< static re-reference interval prediction (2-bit)
    kRandom, //!< pseudo-random victim
};

/**
 * Largest physical memory the caches can address: tags hold 31-bit
 * block numbers (128 GiB of 64-byte blocks). Machine construction
 * rejects a larger memory.
 */
inline constexpr Addr kMaxCachedPhysBytes = Addr{1} << (31 + kBlockBits);

/** Geometry and timing of one cache level. */
struct CacheConfig
{
    std::string name = "cache";
    std::uint32_t sets = 64;      //!< power of two
    std::uint32_t ways = 8;       //!< at most 256 (one-byte LRU ranks)
    Cycle latency = 4;            //!< lookup + fill latency
    std::uint32_t mshr_entries = 8;
    bool track_pgc = false;       //!< maintain PCB bits (L1D only)
    ReplacementKind replacement = ReplacementKind::kLru;
};

/**
 * Observer of L1D block lifetime events needed by a Page-Cross
 * Filter: first demand use of a PGC-prefetched block (positive
 * training through pUB) and evictions (negative training for unused
 * PCB blocks).
 */
class CacheListener
{
  public:
    virtual ~CacheListener() = default;

    /** A block with PCB set served its first demand access. */
    virtual void on_pgc_first_use(PhysAddr block_paddr) = 0;

    /**
     * A valid block was evicted.
     *
     * @param block_paddr block-aligned physical address
     * @param prefetched  block was filled by a prefetch
     * @param pgc         block's PCB was set
     * @param used        block served at least one demand access
     */
    virtual void on_eviction(PhysAddr block_paddr, bool prefetched,
                             bool pgc, bool used) = 0;
};

/** Aggregate statistics of one cache level. */
struct CacheStats
{
    AccessStats demand;          //!< loads, stores, instruction fetches
    AccessStats walk;            //!< page-table walker references
    std::uint64_t writebacks = 0;
    std::uint64_t prefetch_lookups = 0;  //!< prefetch requests observed
    PrefetchStats pf;            //!< prefetch effectiveness

    /** Memberwise delta for measured-region snapshots. */
    CacheStats operator-(const CacheStats &o) const
    {
        return {demand - o.demand, walk - o.walk,
                writebacks - o.writebacks,
                prefetch_lookups - o.prefetch_lookups, pf - o.pf};
    }
};

/**
 * One cache level; lower level wired at construction. `final` so
 * that call sites typed `Cache*` (the private-hierarchy members of
 * CoreComplex, the shared LLC) devirtualize: access() is the single
 * hottest function in the simulator (rule L12).
 */
class Cache final : public MemoryLevel
{
  public:
    /**
     * @param config geometry/timing
     * @param lower  next level (cache or DRAM); may be nullptr for
     *               tests, in which case misses complete locally
     */
    Cache(const CacheConfig &config, MemoryLevel *lower);

    SIM_HOT AccessResult access(PhysAddr paddr, AccessType type, Cycle now,
                                bool pgc_prefetch = false) override;

    /** Install an L1D lifetime listener (used by Page-Cross Filters). */
    void set_listener(CacheListener *listener) { listener_ = listener; }

    /** True when @p paddr's block is resident (no state change). */
    bool probe(PhysAddr paddr) const;

    /** Counters. */
    const CacheStats &stats() const { return stats_; }

    /** In-flight demand misses younger than @p now (ROB-pressure cue). */
    unsigned inflight_misses(Cycle now) const;

    /** Config echo. */
    const CacheConfig &config() const { return cfg_; }

    /** Serialize tags, MSHRs, port state, replacement and stats. */
    void save_state(SnapshotWriter &w) const;
    /** Inverse of save_state on a same-config instance. */
    void restore_state(SnapshotReader &r);

  private:
    friend struct AuditAccess;

    // Block store: one row per set, 64-byte aligned, holding the
    // set's 32-bit tags, then its kFlag* bytes, then its replacement
    // bytes (6 * ways bytes: one host line for 8 ways; for 16 ways the
    // tags fill the first of two lines). A hit reads the tags, sets a
    // flag and updates the LRU ranks without leaving the row. A tag is
    // the full block number with the valid bit in bit 31, so the
    // per-way "valid && tag ==" is one 32-bit compare; block numbers
    // stay below 2^31 (physical memory <= 128 GiB, checked where the
    // machine is built). Fill cycles sit in a parallel array that only
    // a hit on a block with kFlagInflight reads: t rises strictly
    // across one cache's accesses, so a fill seen landed stays landed
    // until its way is refilled (docs/ARCHITECTURE.md).
    static constexpr std::uint32_t kValidTagBit = 1u << 31;
    static constexpr Addr kMaxBlockNumber = kValidTagBit - 1;
    static_assert((kMaxBlockNumber + 1) << kBlockBits == kMaxCachedPhysBytes);
    static constexpr std::uint8_t kFlagDirty = 1u << 0;
    static constexpr std::uint8_t kFlagPrefetched = 1u << 1;
    static constexpr std::uint8_t kFlagPgc = 1u << 2;  //!< paper's PCB
    static constexpr std::uint8_t kFlagUsed = 1u << 3; //!< >=1 demand use
    //! fill_done_ may still lie ahead of the next access; never saved
    //! (restore sets it wherever fill_done_ != 0)
    static constexpr std::uint8_t kFlagInflight = 1u << 4;
    static constexpr std::uint32_t kNoWay = ~std::uint32_t{0};
    //! SRRIP's 2-bit re-reference prediction rail (Jaleel et al.)
    static constexpr std::uint8_t kMaxRrpv = 3;
    static constexpr Cycle kNoCycle = ~Cycle{0};

    //! rows start on host cache lines and span whole lines
    static constexpr std::size_t kRowAlign = 64;

    /** One set resolved to its row; computed once per access. */
    template <class Word, class Byte>
    struct BasicSetRef
    {
        std::size_t base = 0;  //!< set * ways: index into fill_done_
        Word *tags = nullptr;  //!< the set's tags
        Byte *flags = nullptr; //!< the set's kFlag* bytes
        Byte *repl = nullptr;  //!< the set's replacement bytes
    };
    using SetRef = BasicSetRef<std::uint32_t, std::uint8_t>;
    using ConstSetRef = BasicSetRef<const std::uint32_t, const std::uint8_t>;

    std::uint8_t repl_init(std::uint32_t way) const;
    std::size_t set_index(PhysAddr paddr) const;
    //! the one place the row layout is spelled out
    ConstSetRef set_ref(std::size_t set) const;
    SetRef set_ref(std::size_t set);
    std::uint32_t find(const std::uint32_t *tags, std::uint32_t key) const;
    std::uint32_t pick_victim(const SetRef &ref, Cycle now);
    void touch(const SetRef &ref, std::uint32_t way, bool fill);
    void mark_used(const SetRef &ref, std::uint32_t way);
    void drain_mshrs(Cycle t);

    CacheConfig cfg_;       // LINT_SNAPSHOT_OK: config
    MemoryLevel *lower_;    // LINT_SNAPSHOT_OK: collaborator, owned by machine
    // LINT_SNAPSHOT_OK: collaborator, re-wired by the machine builder
    CacheListener *listener_ = nullptr;
    std::size_t row_words_;  // LINT_SNAPSHOT_OK: derived from cfg_.ways
    /**
     * sets rows of row_words_ words: tags, kFlag* bytes, replacement
     * bytes. LRU keeps a recency rank (0 = most recent, ways - 1 =
     * victim; the ranks of a set are always a permutation of
     * 0..ways-1), SRRIP its RRPV, Random nothing. A replacement byte
     * is stored XOR repl_init(way), its value in a fresh set, so an
     * all-zero row is a fresh set and building a cache writes none of
     * its rows.
     */
    // LINT_SNAPSHOT_OK: saved set by set, read through set_ref()
    ZeroedArray<std::uint32_t, kRowAlign> rows_;
    ZeroedArray<Cycle> fill_done_;     //!< data arrival, sets * ways
    std::vector<Cycle> inflight_;      //!< outstanding fill completions
    //! min of inflight_ (kNoCycle when empty): the miss path scans the
    //! MSHRs only once some entry can have completed
    Cycle earliest_ = kNoCycle;  // LINT_SNAPSHOT_OK: derived from inflight_
    Cycle next_port_free_ = 0;
    Rng rng_{1};  //!< kRandom victim draws
    CacheStats stats_;
};

}  // namespace moka

#endif  // MOKASIM_CACHE_CACHE_H
