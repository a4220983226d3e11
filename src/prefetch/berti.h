/**
 * @file
 * Berti: accurate local-delta L1D prefetcher (Navarro-Torres et al.,
 * MICRO 2022). Per-IP shadow history establishes which local deltas
 * would have been *timely*, and only high-coverage timely deltas are
 * used for prefetching. Reimplemented from the paper's description.
 */
#ifndef MOKASIM_PREFETCH_BERTI_H
#define MOKASIM_PREFETCH_BERTI_H

#include <cstdint>
#include <vector>

#include "prefetch/prefetcher.h"

namespace moka {

/** Berti sizing knobs. */
struct BertiConfig
{
    unsigned ip_entries = 64;        //!< tracked IPs (fully assoc, LRU)
    unsigned history_per_ip = 16;    //!< shadow history depth
    unsigned deltas_per_ip = 16;     //!< candidate deltas tracked per IP
    std::int64_t max_delta = 63;     //!< |delta| bound in blocks
    Cycle timely_latency = 80;       //!< assumed fill latency for
                                     //!< timeliness classification
    unsigned window_accesses = 128;  //!< per-IP selection window
    double coverage_threshold = 0.30; //!< timely-coverage to select
    unsigned max_degree = 4;         //!< deltas issued per access
};

/** See file comment. */
class Berti : public Prefetcher
{
  public:
    explicit Berti(const BertiConfig &config);

    void on_access(const PrefetchContext &ctx,
                   std::vector<PrefetchRequest> &out) override;

    const std::string &name() const override { return name_; }

    void save_state(SnapshotWriter &w) const override;
    void restore_state(SnapshotReader &r) override;

  private:
    struct DeltaCounter
    {
        std::int64_t delta = 0;
        std::uint16_t occurrences = 0;
        std::uint16_t timely = 0;
    };

    /** Scalar per-IP state; the per-IP arrays live in arena_. */
    struct IpEntry
    {
        std::uint32_t history_head = 0;  //!< next history ring slot
        std::uint32_t num_deltas = 0;    //!< live candidate deltas
        std::uint32_t num_selected = 0;  //!< deltas issued per access
        std::uint32_t window_count = 0;
    };

    /**
     * Word offsets of one IP's arrays within its arena_ stride. Every
     * word is a u64: history lines and cycles, delta values (two's
     * complement), and the u16 occurrence/timely counters.
     */
    struct ArenaLayout
    {
        std::size_t hist_line = 0;   //!< history_per_ip ring lines
        std::size_t hist_cycle = 0;  //!< history_per_ip ring cycles (0 = empty)
        std::size_t delta = 0;       //!< deltas_per_ip candidate values
        std::size_t occ = 0;         //!< deltas_per_ip occurrence counts
        std::size_t timely = 0;      //!< deltas_per_ip timely counts
        std::size_t sel = 0;         //!< max_degree selected deltas
        std::size_t sel_timely = 0;  //!< max_degree selected timely counts
        std::size_t stride = 0;      //!< words per IP
    };

    std::size_t lookup_ip(Addr pc);
    void train(std::size_t ip, Addr line, Cycle now);
    std::uint32_t claim_slot(std::size_t ip, std::int64_t delta);
    void select_deltas(std::size_t ip);

    /** First arena word of IP @p ip. */
    std::uint64_t *
    words(std::size_t ip)
    {
        return &arena_[ip * layout_.stride];
    }

    /** IP @p ip's delta index, addressable by delta in [-max, max]. */
    std::uint8_t *
    index_of(std::size_t ip)
    {
        return &delta_index_[ip * index_span_] + cfg_.max_delta;
    }

    BertiConfig cfg_;  // LINT_SNAPSHOT_OK: config
    ArenaLayout layout_;  // LINT_SNAPSHOT_OK: geometry derived from cfg_
    std::vector<IpEntry> ips_;
    //! ip_entries * layout_.stride words, sized at construction
    std::vector<std::uint64_t> arena_;
    //! parallel to ips_: hashed-PC tag per entry
    std::vector<Addr> ip_tags_;
    //! parallel to ips_: entry holds live training state
    std::vector<std::uint8_t> ip_valid_;
    //! parallel to ips_: LRU stamp per entry
    std::vector<std::uint64_t> ip_lru_;
    //! 2 * max_delta + 1 index bytes per IP
    // LINT_SNAPSHOT_OK: geometry derived from cfg_
    std::size_t index_span_ = 0;
    //! per IP, delta + max_delta -> candidate slot + 1 (0 = untracked);
    //! turns train()'s history x deltas match into one lookup per item
    // LINT_SNAPSHOT_OK: derived from the deltas, rebuilt by restore_state
    std::vector<std::uint8_t> delta_index_;
    //! entry hit last; lookup_ip checks it before scanning
    std::size_t mru_ = 0;  // LINT_SNAPSHOT_OK: hint, validated on use
    //! select_deltas sort scratch, reserved once (rule L10)
    // LINT_SNAPSHOT_OK: scratch, overwritten before every use
    std::vector<DeltaCounter> sort_scratch_;
    std::uint64_t lru_stamp_ = 0;
    std::string name_ = "berti";  // LINT_SNAPSHOT_OK: constant identifier
};

}  // namespace moka

#endif  // MOKASIM_PREFETCH_BERTI_H
