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

    // Structure-of-arrays block store. The lookup scan touches ONE
    // contiguous Addr array: the valid bit lives in bit 63 of the tag
    // word (tags are block numbers, < 2^58, so the top bit is free),
    // which turns the per-way "valid && tag ==" into a single
    // compare against tag|kValidTagBit. Per-way flags and replacement
    // state share one metadata row per set (2 * ways bytes: the
    // kFlag* bytes, then one replacement byte per way), so a miss
    // reads and writes one short row for flags and victim choice.
    // Fill cycles sit in a parallel array only the merge check reads.
    static constexpr Addr kValidTagBit = Addr{1} << 63;
    static constexpr std::uint8_t kFlagDirty = 1u << 0;
    static constexpr std::uint8_t kFlagPrefetched = 1u << 1;
    static constexpr std::uint8_t kFlagPgc = 1u << 2;  //!< paper's PCB
    static constexpr std::uint8_t kFlagUsed = 1u << 3; //!< >=1 demand use
    static constexpr std::uint32_t kNoWay = ~std::uint32_t{0};
    //! SRRIP's 2-bit re-reference prediction rail (Jaleel et al.)
    static constexpr std::uint8_t kMaxRrpv = 3;
    static constexpr Cycle kNoCycle = ~Cycle{0};

    /** One set resolved to its row bases; computed once per access. */
    struct SetRef
    {
        std::size_t base = 0;  //!< set * ways: index into tags_/fill_done_
        std::uint8_t *flags = nullptr;  //!< the set's kFlag* bytes
        std::uint8_t *repl = nullptr;   //!< the set's replacement bytes
    };

    std::size_t set_base(PhysAddr paddr) const;
    SetRef set_ref(PhysAddr paddr);
    std::uint32_t find(std::size_t base, Addr tag) const;
    std::uint32_t pick_victim(const SetRef &ref, Cycle now);
    void touch(const SetRef &ref, std::uint32_t way, bool fill);
    void mark_used(const SetRef &ref, std::uint32_t way);
    void drain_mshrs(Cycle t);

    CacheConfig cfg_;       // LINT_SNAPSHOT_OK: config
    MemoryLevel *lower_;    // LINT_SNAPSHOT_OK: collaborator, owned by machine
    // LINT_SNAPSHOT_OK: collaborator, re-wired by the machine builder
    CacheListener *listener_ = nullptr;
    std::vector<Addr> tags_;           //!< sets * ways; bit 63 = valid
    /**
     * sets rows of 2 * ways bytes: kFlag* bits per way, then one
     * replacement byte per way. LRU keeps a recency rank (0 = most
     * recent, ways - 1 = victim; the ranks of a set are always a
     * permutation of 0..ways-1), SRRIP its RRPV, Random nothing.
     */
    std::vector<std::uint8_t> meta_;
    std::vector<Cycle> fill_done_;     //!< data arrival, parallel to tags_
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
