#include "prefetch/berti.h"

#include <algorithm>
#include <cstdlib>

#include "common/check.h"
#include "common/hashing.h"
#include "snapshot/snapshot.h"

namespace moka {
namespace {

/** Increment a u16 counter held in an arena word (wraps like u16). */
std::uint64_t
bump16(std::uint64_t c)
{
    return static_cast<std::uint16_t>(c + 1);
}

}  // namespace

Berti::Berti(const BertiConfig &config)
    : cfg_(config), ips_(config.ip_entries),
      ip_tags_(config.ip_entries, 0), ip_valid_(config.ip_entries, 0),
      ip_lru_(config.ip_entries, 0),
      index_span_(2 * static_cast<std::size_t>(config.max_delta) + 1)
{
    SIM_REQUIRE(cfg_.ip_entries > 0, "berti needs an IP table");
    SIM_REQUIRE(cfg_.history_per_ip > 0, "berti needs a shadow history");
    SIM_REQUIRE(cfg_.deltas_per_ip > 0 && cfg_.deltas_per_ip < 256,
                "berti delta slots are indexed by one byte");
    SIM_REQUIRE(cfg_.max_delta > 0 && cfg_.max_delta <= 4096,
                "berti delta index spans 2 * max_delta + 1 bytes per IP");
    const std::size_t h = cfg_.history_per_ip;
    const std::size_t d = cfg_.deltas_per_ip;
    layout_.hist_line = 0;
    layout_.hist_cycle = h;
    layout_.delta = 2 * h;
    layout_.occ = 2 * h + d;
    layout_.timely = 2 * h + 2 * d;
    layout_.sel = 2 * h + 3 * d;
    layout_.sel_timely = layout_.sel + cfg_.max_degree;
    layout_.stride = layout_.sel_timely + cfg_.max_degree;
    // All per-IP state is bounded by configuration and sized here, so
    // train/select never allocate (rule L10).
    arena_.assign(ips_.size() * layout_.stride, 0);
    delta_index_.assign(ips_.size() * index_span_, 0);
    sort_scratch_.reserve(cfg_.deltas_per_ip);
}

std::size_t
Berti::lookup_ip(Addr pc)
{
    const Addr tag = mix64(pc);
    // Tags are unique among valid entries, so a matching MRU entry is
    // the entry the scan below would find.
    if (ip_valid_[mru_] != 0 && ip_tags_[mru_] == tag) {
        ip_lru_[mru_] = ++lru_stamp_;
        return mru_;
    }
    const std::size_t n = ips_.size();
    for (std::size_t i = 0; i < n; ++i) {
        if (ip_valid_[i] != 0 && ip_tags_[i] == tag) {
            ip_lru_[i] = ++lru_stamp_;
            mru_ = i;
            return i;
        }
    }
    // Allocate the first invalid slot, else the LRU victim.
    std::size_t victim = 0;
    for (std::size_t i = 0; i < n; ++i) {
        if (ip_valid_[i] == 0) {
            victim = i;
            break;
        }
        if (ip_lru_[i] < ip_lru_[victim]) {
            victim = i;
        }
    }
    ip_valid_[victim] = 1;
    ip_tags_[victim] = tag;
    ip_lru_[victim] = ++lru_stamp_;
    mru_ = victim;
    std::uint64_t *w = words(victim);
    std::fill_n(w + layout_.hist_line, 2 * cfg_.history_per_ip,
                std::uint64_t{0});
    std::uint8_t *index = index_of(victim);
    for (std::uint32_t d = 0; d < ips_[victim].num_deltas; ++d) {
        index[static_cast<std::int64_t>(w[layout_.delta + d])] = 0;
    }
    ips_[victim] = IpEntry{};
    return victim;
}

std::uint32_t
Berti::claim_slot(std::size_t ip, std::int64_t delta)
{
    IpEntry &e = ips_[ip];
    std::uint64_t *w = words(ip);
    std::uint64_t *timely = w + layout_.timely;
    std::uint8_t *index = index_of(ip);
    std::uint32_t slot = e.num_deltas;
    if (slot < cfg_.deltas_per_ip) {
        ++e.num_deltas;
    } else {
        // Replace the weakest candidate (first strict minimum of the
        // timely counts), unless every candidate is established.
        std::uint32_t weakest = 0;
        for (std::uint32_t i = 1; i < e.num_deltas; ++i) {
            if (timely[i] < timely[weakest]) {
                weakest = i;
            }
        }
        if (timely[weakest] > 2) {
            return 0;
        }
        slot = weakest;
        index[static_cast<std::int64_t>(w[layout_.delta + slot])] = 0;
    }
    w[layout_.delta + slot] = static_cast<std::uint64_t>(delta);
    w[layout_.occ + slot] = 0;
    timely[slot] = 0;
    index[delta] = static_cast<std::uint8_t>(slot + 1);
    return slot + 1;
}

void
Berti::train(std::size_t ip, Addr line, Cycle now)
{
    IpEntry &e = ips_[ip];
    std::uint64_t *w = words(ip);
    std::uint64_t *hist_line = w + layout_.hist_line;
    std::uint64_t *hist_cycle = w + layout_.hist_cycle;
    std::uint64_t *occ = w + layout_.occ;
    std::uint64_t *timely = w + layout_.timely;
    const std::uint8_t *index = index_of(ip);
    // Compare against the shadow history: a delta is timely when a
    // prefetch launched at the historical access would have completed
    // by now.
    for (std::uint32_t h = 0; h < cfg_.history_per_ip; ++h) {
        const Cycle cycle = hist_cycle[h];
        if (cycle == 0 || hist_line[h] == line) {
            continue;
        }
        const std::int64_t delta = static_cast<std::int64_t>(line) -
                                   static_cast<std::int64_t>(hist_line[h]);
        if (std::llabs(delta) > cfg_.max_delta) {
            continue;
        }
        std::uint32_t slot = index[delta];
        if (slot == 0) {
            slot = claim_slot(ip, delta);
            if (slot == 0) {
                continue;  // every candidate established: keep them
            }
        }
        --slot;
        occ[slot] = bump16(occ[slot]);
        // Branch-free: timeliness is data-dependent and mispredicts.
        const bool timely_hit = cycle + cfg_.timely_latency <= now;
        timely[slot] = static_cast<std::uint16_t>(timely[slot] + timely_hit);
    }

    hist_line[e.history_head] = line;
    hist_cycle[e.history_head] = now;
    // Compare-wrap instead of % — the depth is a runtime config value,
    // so the compiler cannot strength-reduce the modulo (rule L19).
    if (++e.history_head == cfg_.history_per_ip) {
        e.history_head = 0;
    }
}

void
Berti::select_deltas(std::size_t ip)
{
    IpEntry &e = ips_[ip];
    std::uint64_t *w = words(ip);
    // Member scratch (reserved to deltas_per_ip in the constructor)
    // instead of a per-window local copy, which allocated every
    // window_accesses-th access (rule L10).
    std::vector<DeltaCounter> &sorted = sort_scratch_;
    sorted.clear();
    for (std::uint32_t d = 0; d < e.num_deltas; ++d) {
        // LINT_HOT_OK: aliases sort_scratch_, reserved to
        // deltas_per_ip in the constructor -- never reallocates.
        sorted.push_back(
            {static_cast<std::int64_t>(w[layout_.delta + d]),
             static_cast<std::uint16_t>(w[layout_.occ + d]),
             static_cast<std::uint16_t>(w[layout_.timely + d])});
    }
    std::sort(sorted.begin(), sorted.end(),
              [](const DeltaCounter &a, const DeltaCounter &b) {
                  if (a.timely != b.timely) {
                      return a.timely > b.timely;
                  }
                  // Tie-break towards larger deltas: more lead time,
                  // better timeliness for the issued prefetches.
                  return std::llabs(a.delta) > std::llabs(b.delta);
              });
    const double window = static_cast<double>(cfg_.window_accesses);
    e.num_selected = 0;
    for (const DeltaCounter &d : sorted) {
        if (e.num_selected >= cfg_.max_degree) {
            break;
        }
        if (static_cast<double>(d.timely) >=
            cfg_.coverage_threshold * window) {
            w[layout_.sel + e.num_selected] =
                static_cast<std::uint64_t>(d.delta);
            w[layout_.sel_timely + e.num_selected] = d.timely;
            ++e.num_selected;
        }
    }
    std::fill_n(w + layout_.occ, e.num_deltas, std::uint64_t{0});
    std::fill_n(w + layout_.timely, e.num_deltas, std::uint64_t{0});
}

void
Berti::on_access(const PrefetchContext &ctx,
                 std::vector<PrefetchRequest> &out)
{
    const std::size_t ip = lookup_ip(ctx.pc);
    const Addr line = block_number(ctx.vaddr);

    train(ip, line, ctx.now);
    IpEntry &e = ips_[ip];
    if (++e.window_count >= cfg_.window_accesses) {
        e.window_count = 0;
        select_deltas(ip);
    }

    const std::uint64_t *w = words(ip);
    for (std::uint32_t i = 0; i < e.num_selected; ++i) {
        const std::int64_t delta =
            static_cast<std::int64_t>(w[layout_.sel + i]);
        const std::int64_t target =
            static_cast<std::int64_t>(line) + delta;
        if (target <= 0) {
            continue;
        }
        PrefetchRequest req;
        req.vaddr = VirtAddr{static_cast<Addr>(target) << kBlockBits};
        req.delta = delta;
        req.trigger_pc = ctx.pc;
        req.trigger_vaddr = ctx.vaddr;
        // timeliness confidence
        req.meta = static_cast<std::uint16_t>(w[layout_.sel_timely + i]);
        out.push_back(req);
    }
}

void Berti::save_state(SnapshotWriter &w) const
{
    w.begin_section("pf.berti");
    for (std::size_t i = 0; i < ips_.size(); ++i) {
        const IpEntry &e = ips_[i];
        const std::uint64_t *a = &arena_[i * layout_.stride];
        w.put_u64(ip_tags_[i]);
        w.put_bool(ip_valid_[i] != 0);
        w.put_u64(ip_lru_[i]);
        for (std::uint32_t h = 0; h < cfg_.history_per_ip; ++h) {
            w.put_u64(a[layout_.hist_line + h]);
            w.put_u64(a[layout_.hist_cycle + h]);
        }
        w.put_u32(e.history_head);
        w.put_u32(e.num_deltas);
        for (std::uint32_t d = 0; d < e.num_deltas; ++d) {
            w.put_u64(a[layout_.delta + d]);
            w.put_u16(static_cast<std::uint16_t>(a[layout_.occ + d]));
            w.put_u16(static_cast<std::uint16_t>(a[layout_.timely + d]));
        }
        w.put_u32(e.num_selected);
        for (std::uint32_t s = 0; s < e.num_selected; ++s) {
            w.put_u64(a[layout_.sel + s]);
            w.put_u16(static_cast<std::uint16_t>(a[layout_.sel_timely + s]));
        }
        w.put_u32(e.window_count);
    }
    w.put_u64(lru_stamp_);
}

void Berti::restore_state(SnapshotReader &r)
{
    r.begin_section("pf.berti");
    std::fill(delta_index_.begin(), delta_index_.end(), std::uint8_t{0});
    for (std::size_t i = 0; i < ips_.size(); ++i) {
        IpEntry &e = ips_[i];
        std::uint64_t *a = &arena_[i * layout_.stride];
        ip_tags_[i] = r.get_u64();
        ip_valid_[i] = r.get_bool() ? 1 : 0;
        ip_lru_[i] = r.get_u64();
        for (std::uint32_t h = 0; h < cfg_.history_per_ip; ++h) {
            a[layout_.hist_line + h] = r.get_u64();
            a[layout_.hist_cycle + h] = r.get_u64();
        }
        e.history_head = r.get_u32();
        if (e.history_head >= cfg_.history_per_ip) {
            throw SnapshotError(SnapshotErrorKind::kMalformed,
                                "berti history head out of range");
        }
        e.num_deltas = r.get_u32();
        if (e.num_deltas > cfg_.deltas_per_ip) {
            throw SnapshotError(SnapshotErrorKind::kMalformed,
                                "berti delta count above capacity");
        }
        // The delta index is derived state: rebuild it from the
        // restored candidates (the snapshot bytes do not carry it).
        std::uint8_t *index = index_of(i);
        for (std::uint32_t d = 0; d < e.num_deltas; ++d) {
            const std::int64_t delta = r.get_i64();
            if (delta == 0 || std::llabs(delta) > cfg_.max_delta ||
                index[delta] != 0) {
                throw SnapshotError(SnapshotErrorKind::kMalformed,
                                    "berti delta out of range or repeated");
            }
            index[delta] = static_cast<std::uint8_t>(d + 1);
            a[layout_.delta + d] = static_cast<std::uint64_t>(delta);
            a[layout_.occ + d] = r.get_u16();
            a[layout_.timely + d] = r.get_u16();
        }
        e.num_selected = r.get_u32();
        if (e.num_selected > cfg_.max_degree) {
            throw SnapshotError(SnapshotErrorKind::kMalformed,
                                "berti selection count above capacity");
        }
        for (std::uint32_t s = 0; s < e.num_selected; ++s) {
            a[layout_.sel + s] = r.get_u64();
            a[layout_.sel_timely + s] = r.get_u16();
        }
        e.window_count = r.get_u32();
    }
    lru_stamp_ = r.get_u64();
}

}  // namespace moka
