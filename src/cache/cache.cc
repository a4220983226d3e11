#include "cache/cache.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "common/bitops.h"
#include "common/check.h"
#include "snapshot/snapshot.h"

namespace moka {

Cache::Cache(const CacheConfig &config, MemoryLevel *lower)
    : cfg_(config), lower_(lower),
      row_words_((6 * std::size_t{config.ways} + kRowAlign - 1) /
                 kRowAlign * (kRowAlign / sizeof(std::uint32_t))),
      rows_(static_cast<std::size_t>(config.sets) * row_words_),
      fill_done_(static_cast<std::size_t>(config.sets) * config.ways)
{
    SIM_REQUIRE(is_pow2(cfg_.sets), "cache sets must be a power of two");
    SIM_REQUIRE(cfg_.ways > 0, "cache must have at least one way");
    SIM_REQUIRE(cfg_.ways <= 256, "LRU ranks are one byte per way");
    // MSHR occupancy is bounded at mshr_entries by the eviction in
    // access(); reserving here keeps the per-access path allocation
    // free (rule L10).
    inflight_.reserve(cfg_.mshr_entries);
}

std::uint8_t
Cache::repl_init(std::uint32_t way) const
{
    // LRU ranks 0..ways-1 in way order, SRRIP RRPVs at the
    // distant-re-reference rail.
    switch (cfg_.replacement) {
      case ReplacementKind::kLru:
        return static_cast<std::uint8_t>(way);
      case ReplacementKind::kSrrip:
        return kMaxRrpv;
      case ReplacementKind::kRandom:
        break;
    }
    return 0;
}

std::size_t
Cache::set_index(PhysAddr paddr) const
{
    return block_number(paddr) & (cfg_.sets - 1);
}

Cache::ConstSetRef
Cache::set_ref(std::size_t set) const
{
    // The flag and replacement bytes follow the tags in the row's
    // words (byte access to any object is allowed).
    const std::uint32_t *tags = rows_.data() + set * row_words_;
    const auto *flags = reinterpret_cast<const std::uint8_t *>(tags + cfg_.ways);
    return {set * cfg_.ways, tags, flags, flags + cfg_.ways};
}

Cache::SetRef
Cache::set_ref(std::size_t set)
{
    const ConstSetRef ref = std::as_const(*this).set_ref(set);
    return {ref.base, const_cast<std::uint32_t *>(ref.tags),
            const_cast<std::uint8_t *>(ref.flags),
            const_cast<std::uint8_t *>(ref.repl)};
}

std::uint32_t
Cache::find(const std::uint32_t *tags, std::uint32_t key) const
{
    for (std::uint32_t w = 0; w < cfg_.ways; ++w) {
        if (tags[w] == key) {
            return w;
        }
    }
    return kNoWay;
}

bool
Cache::probe(PhysAddr paddr) const
{
    const Addr block = block_number(paddr);
    return block <= kMaxBlockNumber &&
           find(set_ref(set_index(paddr)).tags,
                static_cast<std::uint32_t>(block) | kValidTagBit) != kNoWay;
}

unsigned
Cache::inflight_misses(Cycle now) const
{
    unsigned n = 0;
    for (Cycle c : inflight_) {
        if (c > now) {
            ++n;
        }
    }
    return n;
}

void
Cache::mark_used(const SetRef &ref, std::uint32_t way)
{
    const std::uint8_t f = ref.flags[way];
    if ((f & kFlagPrefetched) != 0 && (f & kFlagUsed) == 0) {
        ++stats_.pf.useful;
        if ((f & kFlagPgc) != 0) {
            ++stats_.pf.pgc_useful;
            if (listener_ != nullptr) {
                // Tags store raw block numbers; reconstruct the typed
                // physical address on the way out.
                listener_->on_pgc_first_use(PhysAddr{
                    Addr{ref.tags[way] & ~kValidTagBit} << kBlockBits});
            }
        }
    }
    ref.flags[way] = f | kFlagUsed;
}

void
Cache::touch(const SetRef &ref, std::uint32_t way, bool fill)
{
    std::uint8_t *repl = ref.repl;
    switch (cfg_.replacement) {
      case ReplacementKind::kLru: {
        // Move @p way to the front of the recency order: every way
        // more recent than it ages by one. Bytes hold rank ^ way.
        // Branch-free so the loop vectorizes; the bound is a local
        // because stores through the byte pointer may alias cfg_.
        const std::uint32_t ways = cfg_.ways;
        const auto self = static_cast<std::uint8_t>(way);
        const std::uint8_t rank = repl[way] ^ self;
        if (rank == 0) {
            break;  // already the most recent way
        }
        for (std::uint32_t w = 0; w < ways; ++w) {
            const auto w8 = static_cast<std::uint8_t>(w);
            const std::uint8_t r = repl[w] ^ w8;
            repl[w] = static_cast<std::uint8_t>((r + (r < rank)) ^ w8);
        }
        repl[way] = self;  // rank 0
        break;
      }
      case ReplacementKind::kSrrip:
        // Hit: near-immediate re-reference; fill: long re-reference.
        repl[way] = (fill ? kMaxRrpv - 1 : 0) ^ kMaxRrpv;
        break;
      case ReplacementKind::kRandom:
        break;
    }
}

std::uint32_t
Cache::pick_victim(const SetRef &ref, Cycle now)
{
    for (std::uint32_t w = 0; w < cfg_.ways; ++w) {
        if ((ref.tags[w] & kValidTagBit) == 0) {
            return w;
        }
    }
    // Every way is valid, so every way has been filled at least once
    // and the LRU ranks order the ways exactly as fill/hit recency.
    std::uint32_t way = kNoWay;
    switch (cfg_.replacement) {
      case ReplacementKind::kLru: {
        const std::uint8_t last = static_cast<std::uint8_t>(cfg_.ways - 1);
        for (std::uint32_t w = 0; w < cfg_.ways; ++w) {
            if ((ref.repl[w] ^ static_cast<std::uint8_t>(w)) == last) {
                way = w;
                break;
            }
        }
        break;
      }
      case ReplacementKind::kSrrip: {
        // Bytes hold RRPV ^ kMaxRrpv: zero is an RRPV at the rail.
        const std::uint32_t ways = cfg_.ways;
        while (way == kNoWay) {
            for (std::uint32_t w = 0; w < ways; ++w) {
                if (ref.repl[w] == 0) {
                    way = w;
                    break;
                }
            }
            if (way == kNoWay) {
                for (std::uint32_t w = 0; w < ways; ++w) {
                    ref.repl[w] = static_cast<std::uint8_t>(
                        ((ref.repl[w] ^ kMaxRrpv) + 1) ^ kMaxRrpv);
                }
            }
        }
        break;
      }
      case ReplacementKind::kRandom:
        way = static_cast<std::uint32_t>(rng_.below(cfg_.ways));
        break;
    }
    SIM_AUDIT(way < cfg_.ways,
              "replacement state names no victim way in the set");
    if (way >= cfg_.ways) {
        way = 0;  // corrupt ranks: stay in bounds (audit reports it)
    }
    const std::uint8_t f = ref.flags[way];
    const Addr tag = ref.tags[way] & ~kValidTagBit;

    // Evict: resolve prefetch usefulness and write back dirt.
    if ((f & kFlagPrefetched) != 0 && (f & kFlagUsed) == 0) {
        ++stats_.pf.useless;
        if ((f & kFlagPgc) != 0) {
            ++stats_.pf.pgc_useless;
        }
    }
    if (listener_ != nullptr) {
        listener_->on_eviction(PhysAddr{tag << kBlockBits},
                               (f & kFlagPrefetched) != 0,
                               (f & kFlagPgc) != 0, (f & kFlagUsed) != 0);
    }
    if ((f & kFlagDirty) != 0) {
        ++stats_.writebacks;
        if (lower_ != nullptr) {
            lower_->access(PhysAddr{tag << kBlockBits},
                           AccessType::kWriteback, now);
        }
    }
    ref.tags[way] &= ~kValidTagBit;  // keep the stale tag bits
    return way;
}

void
Cache::drain_mshrs(Cycle t)
{
    // Retire fills complete by @p t, compacting in place in order (the
    // saved MSHR list keeps its order), and re-derive the earliest
    // outstanding completion.
    std::size_t n = 0;
    Cycle earliest = kNoCycle;
    for (const Cycle c : inflight_) {
        if (c > t) {
            inflight_[n++] = c;
            earliest = std::min(earliest, c);
        }
    }
    inflight_.resize(n);
    earliest_ = earliest;
}

AccessResult
Cache::access(PhysAddr paddr, AccessType type, Cycle now, bool pgc_prefetch)
{
    // Port contention: one request per cycle enters the pipeline.
    const Cycle start = std::max(now, next_port_free_);
    next_port_free_ = start + 1;
    Cycle t = start + cfg_.latency;

    const bool demand = is_demand(type);
    if (demand) {
        ++stats_.demand.accesses;
    } else if (type == AccessType::kPageWalk) {
        ++stats_.walk.accesses;
    } else if (type == AccessType::kPrefetch) {
        ++stats_.prefetch_lookups;
    }

    const Addr tag = block_number(paddr);
    SIM_AUDIT(tag <= kMaxBlockNumber,
              "block number does not fit a 31-bit cache tag");
    const std::uint32_t key = static_cast<std::uint32_t>(tag) | kValidTagBit;
    const SetRef ref = set_ref(set_index(paddr));
    const std::uint32_t way = find(ref.tags, key);
    if (way != kNoWay) {
        touch(ref, way, /*fill=*/false);
        AccessResult r;
        // Only a block whose fill may still be ahead reads fill_done_;
        // once it has landed it stays landed (t only rises), so the
        // bit is dropped for good.
        bool in_flight = false;
        if ((ref.flags[way] & kFlagInflight) != 0) {
            const Cycle done = fill_done_[ref.base + way];
            if (done > t) {
                in_flight = true;
            } else {
                ref.flags[way] &= static_cast<std::uint8_t>(~kFlagInflight);
            }
        }
        if (in_flight && type != AccessType::kWriteback) {
            // In-flight fill: merge (counts as a miss, pays residual).
            r.done = fill_done_[ref.base + way];
            r.merged = true;
            if (demand) {
                ++stats_.demand.misses;
                mark_used(ref, way);
            } else if (type == AccessType::kPageWalk) {
                ++stats_.walk.misses;
            }
        } else {
            r.done = t;
            r.hit = true;
            if (demand) {
                mark_used(ref, way);
            }
        }
        if (type == AccessType::kStore || type == AccessType::kWriteback) {
            ref.flags[way] |= kFlagDirty;
        }
        return r;
    }

    // Miss.
    if (demand) {
        ++stats_.demand.misses;
    } else if (type == AccessType::kPageWalk) {
        ++stats_.walk.misses;
    }

    if (type == AccessType::kWriteback) {
        // No allocation on writeback miss; forward the dirt downwards.
        AccessResult r;
        if (lower_ != nullptr) {
            r = lower_->access(paddr, AccessType::kWriteback, t);
        } else {
            r.done = t;
        }
        return r;
    }

    // MSHR occupancy: when all entries are in flight the request
    // stalls until the oldest completes.
    if (earliest_ <= t) {
        drain_mshrs(t);
    }
    if (inflight_.size() >= cfg_.mshr_entries) {
        t = earliest_;
        drain_mshrs(t);
    }

    Cycle fill_done = t;
    if (lower_ != nullptr) {
        fill_done = lower_->access(paddr, type, t, pgc_prefetch).done +
                    cfg_.latency;
    }
    inflight_.push_back(fill_done);
    earliest_ = std::min(earliest_, fill_done);
    SIM_AUDIT(inflight_.size() <= cfg_.mshr_entries,
              "MSHR occupancy exceeded its configured entries");

    const std::uint32_t victim_way = pick_victim(ref, t);
    ref.tags[victim_way] = key;
    std::uint8_t f = kFlagInflight;
    if (type == AccessType::kStore) {
        f |= kFlagDirty;
    }
    const bool pgc = cfg_.track_pgc && pgc_prefetch &&
                     type == AccessType::kPrefetch;
    if (type == AccessType::kPrefetch) {
        f |= kFlagPrefetched;
        if (pgc) {
            f |= kFlagPgc;
        }
        ++stats_.pf.issued;
        if (pgc || (pgc_prefetch && !cfg_.track_pgc)) {
            ++stats_.pf.pgc_issued;
        }
    } else if (demand) {
        // A demand miss fills a demand block; mark used on arrival.
        f |= kFlagUsed;
    }
    ref.flags[victim_way] = f;
    fill_done_[ref.base + victim_way] = fill_done;
    touch(ref, victim_way, /*fill=*/true);

    AccessResult r;
    r.done = fill_done;
    return r;
}

void
Cache::save_state(SnapshotWriter &w) const
{
    // Block records keep the array-of-structs byte format: the
    // embedded valid bit decomposes back into the (tag, valid) pair,
    // and kFlagInflight is not saved.
    const std::uint32_t ways = cfg_.ways;
    for (std::size_t set = 0; set < cfg_.sets; ++set) {
        const ConstSetRef ref = set_ref(set);
        for (std::uint32_t way = 0; way < ways; ++way) {
            const std::uint8_t f = ref.flags[way];
            w.put_u64(ref.tags[way] & ~kValidTagBit);
            w.put_bool((ref.tags[way] & kValidTagBit) != 0);
            w.put_bool((f & kFlagDirty) != 0);
            w.put_bool((f & kFlagPrefetched) != 0);
            w.put_bool((f & kFlagPgc) != 0);
            w.put_bool((f & kFlagUsed) != 0);
            w.put_u64(fill_done_[set * ways + way]);
        }
    }
    put_vec(w, inflight_);
    w.put_u64(next_port_free_);
    // Replacement state: one byte per block in (set, way) order (LRU
    // ranks, SRRIP RRPVs), or the victim RNG for Random.
    if (cfg_.replacement == ReplacementKind::kRandom) {
        SnapshotAccess::save(w, rng_);
    } else {
        w.put_u64(fill_done_.size());
        for (std::size_t set = 0; set < cfg_.sets; ++set) {
            const std::uint8_t *repl = set_ref(set).repl;
            for (std::uint32_t way = 0; way < ways; ++way) {
                w.put_u8(repl[way] ^ repl_init(way));
            }
        }
    }
    put_stats(w, stats_.demand);
    put_stats(w, stats_.walk);
    w.put_u64(stats_.writebacks);
    w.put_u64(stats_.prefetch_lookups);
    put_stats(w, stats_.pf);
}

void
Cache::restore_state(SnapshotReader &r)
{
    const std::uint32_t ways = cfg_.ways;
    for (std::size_t set = 0; set < cfg_.sets; ++set) {
        const SetRef ref = set_ref(set);
        for (std::uint32_t way = 0; way < ways; ++way) {
            const Addr tag = r.get_u64();
            if (tag > kMaxBlockNumber) {
                throw SnapshotError(SnapshotErrorKind::kMalformed,
                                    "cache tag wider than 31 bits");
            }
            const bool valid = r.get_bool();
            ref.tags[way] = static_cast<std::uint32_t>(tag) |
                            (valid ? kValidTagBit : 0);
            std::uint8_t f = 0;
            if (r.get_bool()) {
                f |= kFlagDirty;
            }
            if (r.get_bool()) {
                f |= kFlagPrefetched;
            }
            if (r.get_bool()) {
                f |= kFlagPgc;
            }
            if (r.get_bool()) {
                f |= kFlagUsed;
            }
            const Cycle done = r.get_u64();
            if (done != 0) {
                // Conservative: the first hit reads the cycle and
                // drops the bit once the fill has landed.
                f |= kFlagInflight;
            }
            ref.flags[way] = f;
            fill_done_[ref.base + way] = done;
        }
    }
    // The MSHR list length is runtime state (outstanding fills at
    // snapshot time), not configuration — accept the saved length.
    get_vec(r, inflight_, /*fixed_size=*/false);
    earliest_ = kNoCycle;
    for (const Cycle c : inflight_) {
        earliest_ = std::min(earliest_, c);
    }
    next_port_free_ = r.get_u64();
    if (cfg_.replacement == ReplacementKind::kRandom) {
        SnapshotAccess::restore(r, rng_);
    } else {
        if (r.get_u64() != fill_done_.size()) {
            throw SnapshotError(SnapshotErrorKind::kMalformed,
                                "replacement state length mismatch");
        }
        // A range check per byte keeps restore O(blocks); whether the
        // LRU ranks of a set form a permutation is audit_cache's job.
        const std::uint8_t rail =
            cfg_.replacement == ReplacementKind::kLru
                ? static_cast<std::uint8_t>(ways - 1)
                : kMaxRrpv;
        for (std::size_t set = 0; set < cfg_.sets; ++set) {
            std::uint8_t *repl = set_ref(set).repl;
            for (std::uint32_t way = 0; way < ways; ++way) {
                const std::uint8_t v = r.get_u8();
                if (v > rail) {
                    throw SnapshotError(SnapshotErrorKind::kMalformed,
                                        "replacement byte out of range");
                }
                repl[way] = v ^ repl_init(way);
            }
        }
    }
    get_stats(r, stats_.demand);
    get_stats(r, stats_.walk);
    stats_.writebacks = r.get_u64();
    stats_.prefetch_lookups = r.get_u64();
    get_stats(r, stats_.pf);
}

}  // namespace moka
