/**
 * @file
 * The Snapshottable contract and shared serialization helpers.
 *
 * Components expose a pair of member functions
 *
 *     void save_state(SnapshotWriter &w) const;
 *     void restore_state(SnapshotReader &r);
 *
 * with one hard rule: restore_state applied to a freshly-constructed
 * instance of the *same configuration* must reproduce every bit of
 * behaviourally relevant state, so that a restored machine continues
 * byte-identically to one that never stopped (simlint rule L16
 * enforces member coverage; tests/test_snapshot.cc round-trips every
 * component).  Configuration itself is never serialized — it is
 * re-derived from the MachineConfig and guarded by the container's
 * config fingerprint.
 *
 * SnapshotAccess is the narrow friend (mirroring audit/ AuditAccess)
 * through which common/ leaf types with private layout-sensitive
 * state (Rng lanes, FlatAddrMap slot placement, saturating counters)
 * are saved exactly.
 */
#ifndef MOKASIM_SNAPSHOT_SNAPSHOT_H
#define MOKASIM_SNAPSHOT_SNAPSHOT_H

#include <algorithm>
#include <type_traits>
#include <vector>

#include "common/check.h"
#include "common/flat_map.h"
#include "common/rng.h"
#include "common/sat_counter.h"
#include "common/stats.h"
#include "common/types.h"
#include "snapshot/format.h"

namespace moka {

/** Save one integral value, width-dispatched. */
template <typename T>
inline void
put_int(SnapshotWriter &w, T v)
{
    static_assert(std::is_integral_v<T> || std::is_enum_v<T>,
                  "put_int takes integral or enum values");
    if constexpr (sizeof(T) == 1) {
        w.put_u8(static_cast<std::uint8_t>(v));
    } else if constexpr (sizeof(T) == 2) {
        w.put_u16(static_cast<std::uint16_t>(v));
    } else if constexpr (sizeof(T) == 4) {
        w.put_u32(static_cast<std::uint32_t>(v));
    } else {
        w.put_u64(static_cast<std::uint64_t>(v));
    }
}

/** Restore one integral value, width-dispatched. */
template <typename T>
inline void
get_int(SnapshotReader &r, T &v)
{
    static_assert(std::is_integral_v<T> || std::is_enum_v<T>,
                  "get_int takes integral or enum values");
    if constexpr (sizeof(T) == 1) {
        v = static_cast<T>(r.get_u8());
    } else if constexpr (sizeof(T) == 2) {
        v = static_cast<T>(r.get_u16());
    } else if constexpr (sizeof(T) == 4) {
        v = static_cast<T>(r.get_u32());
    } else {
        v = static_cast<T>(r.get_u64());
    }
}

/**
 * Read a length prefix for elements of @p width bytes each, rejecting
 * one the open section cannot hold before anything is allocated.
 */
inline std::uint64_t
get_length(SnapshotReader &r, std::size_t width)
{
    const std::uint64_t n = r.get_u64();
    if (n > r.remaining() / width) {
        throw SnapshotError(SnapshotErrorKind::kMalformed,
                            "vector longer than its section");
    }
    return n;
}

/**
 * Save a vector of integral values (length-prefixed) in one append:
 * host memory already holds their little-endian words (format.h
 * asserts a little-endian host).
 */
template <typename T>
inline void
put_vec(SnapshotWriter &w, const std::vector<T> &v)
{
    static_assert(std::is_integral_v<T> || std::is_enum_v<T>,
                  "put_vec takes integral or enum values");
    w.put_u64(v.size());
    w.put_bytes(v.data(), v.size() * sizeof(T));
}

/**
 * Restore a vector of integral values.  The saved length must match
 * the configured length when the structure is fixed-size; callers
 * that allow growth pass @p fixed_size false.
 */
template <typename T>
inline void
get_vec(SnapshotReader &r, std::vector<T> &v, bool fixed_size = true)
{
    const std::uint64_t n = get_length(r, sizeof(T));
    if (fixed_size && n != v.size()) {
        throw SnapshotError(SnapshotErrorKind::kMalformed,
                            "vector length mismatch");
    }
    v.resize(n);
    r.get_bytes(v.data(), v.size() * sizeof(T));
}

/** Save a vector<bool> (length-prefixed, one byte per bit). */
inline void
put_vec(SnapshotWriter &w, const std::vector<bool> &v)
{
    w.put_u64(v.size());
    for (const bool x : v) {
        w.put_bool(x);
    }
}

inline void
get_vec(SnapshotReader &r, std::vector<bool> &v, bool fixed_size = true)
{
    const std::uint64_t n = get_length(r, 1);
    if (fixed_size && n != v.size()) {
        throw SnapshotError(SnapshotErrorKind::kMalformed,
                            "vector<bool> length mismatch");
    }
    v.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        v[i] = r.get_bool();
    }
}

/** Save a vector of doubles (length-prefixed, bit-exact). */
inline void
put_vec_f64(SnapshotWriter &w, const std::vector<double> &v)
{
    w.put_u64(v.size());
    for (const double x : v) {
        w.put_f64(x);
    }
}

inline void
get_vec_f64(SnapshotReader &r, std::vector<double> &v)
{
    const std::uint64_t n = get_length(r, sizeof(double));
    v.resize(n);
    for (double &x : v) {
        x = r.get_f64();
    }
}

/*
 * Serialization is a whitelisted exit from the strong address types
 * (types.h / ARCHITECTURE.md): a snapshot stores raw bits, so typed
 * addresses and page numbers pass through here instead of scattering
 * `.raw()` across component save/restore code.
 */

/** Save one typed address (virtual or physical). */
template <class Tag>
inline void
put_addr(SnapshotWriter &w, StrongAddr<Tag> a)
{
    w.put_u64(a.raw());
}

/** Restore one typed address. */
template <class Tag>
inline void
get_addr(SnapshotReader &r, StrongAddr<Tag> &a)
{
    a = StrongAddr<Tag>{r.get_u64()};
}

/** Save one typed page number (VPN or PPN). */
template <class Tag>
inline void
put_addr(SnapshotWriter &w, StrongPageNum<Tag> p)
{
    w.put_u64(p.raw());
}

/** Restore one typed page number. */
template <class Tag>
inline void
get_addr(SnapshotReader &r, StrongPageNum<Tag> &p)
{
    p = StrongPageNum<Tag>{r.get_u64()};
}

inline void
put_stats(SnapshotWriter &w, const AccessStats &s)
{
    w.put_u64(s.accesses);
    w.put_u64(s.misses);
}

inline void
get_stats(SnapshotReader &r, AccessStats &s)
{
    s.accesses = r.get_u64();
    s.misses = r.get_u64();
}

inline void
put_stats(SnapshotWriter &w, const PrefetchStats &s)
{
    w.put_u64(s.issued);
    w.put_u64(s.useful);
    w.put_u64(s.useless);
    w.put_u64(s.pgc_issued);
    w.put_u64(s.pgc_useful);
    w.put_u64(s.pgc_useless);
    w.put_u64(s.pgc_dropped);
}

inline void
get_stats(SnapshotReader &r, PrefetchStats &s)
{
    s.issued = r.get_u64();
    s.useful = r.get_u64();
    s.useless = r.get_u64();
    s.pgc_issued = r.get_u64();
    s.pgc_useful = r.get_u64();
    s.pgc_useless = r.get_u64();
    s.pgc_dropped = r.get_u64();
}

/**
 * Narrow serialization friend for common/ leaf types whose private
 * state must be saved exactly (layout is behaviour: Rng lanes
 * continue the stream, FlatAddrMap probe placement depends on
 * insertion order).
 */
struct SnapshotAccess
{
    static void save(SnapshotWriter &w, const Rng &rng)
    {
        for (const std::uint64_t lane : rng.s_) {
            w.put_u64(lane);
        }
    }

    static void restore(SnapshotReader &r, Rng &rng)
    {
        for (std::uint64_t &lane : rng.s_) {
            lane = r.get_u64();
        }
    }

    static void save(SnapshotWriter &w, const SignedSatCounter &c)
    {
        w.put_u16(static_cast<std::uint16_t>(c.value_));
    }

    static void restore(SnapshotReader &r, SignedSatCounter &c)
    {
        const auto v = static_cast<std::int16_t>(r.get_u16());
        if (v < c.min_ || v > c.max_) {
            throw SnapshotError(SnapshotErrorKind::kMalformed,
                                "signed counter outside its rails");
        }
        c.value_ = v;
    }

    static void save(SnapshotWriter &w, const UnsignedSatCounter &c)
    {
        w.put_u16(c.value_);
    }

    static void restore(SnapshotReader &r, UnsignedSatCounter &c)
    {
        const std::uint16_t v = r.get_u16();
        if (v > c.max_) {
            throw SnapshotError(SnapshotErrorKind::kMalformed,
                                "unsigned counter above its rail");
        }
        c.value_ = v;
    }

    /**
     * A flat map saves its slot count, its size and (slot, key,
     * value) for each occupied slot in index order: the exact probe
     * layout, including a map that doubled past its reservation,
     * without writing the empty slots.
     */
    static void save(SnapshotWriter &w, const FlatAddrMap &m)
    {
        w.put_u64(m.slots_.size());
        w.put_u64(m.size_);
        for (std::size_t i = 0; i < m.slots_.size(); ++i) {
            const FlatAddrMap::Slot &s = m.slots_[i];
            if (!s.empty()) {
                w.put_u64(i);
                w.put_u64(~s.not_key);
                w.put_u64(s.val);
            }
        }
    }

    static void restore(SnapshotReader &r, FlatAddrMap &m)
    {
        const std::uint64_t slots = r.get_u64();
        const std::uint64_t size = r.get_u64();
        // A map only doubles once half full, so it never holds more
        // than four slots per entry beyond its construction size.
        if (slots == 0 || (slots & (slots - 1)) != 0 || size * 2 > slots ||
            slots > std::max<std::uint64_t>(m.slots_.size(), 4 * size) ||
            size > r.remaining() / 24) {
            throw SnapshotError(SnapshotErrorKind::kMalformed,
                                "flat map header inconsistent");
        }
        // No erase: an empty map of the right capacity has nothing to
        // clear (the usual case, a freshly built machine).
        if (m.size_ != 0 || m.slots_.size() != slots) {
            m.slots_ = ZeroedArray<FlatAddrMap::Slot>(slots);
        }
        std::uint64_t next = 0;  // slots arrive in strictly rising order
        for (std::uint64_t n = 0; n < size; ++n) {
            const std::uint64_t slot = r.get_u64();
            const Addr key = r.get_u64();
            const Addr val = r.get_u64();
            if (slot < next || slot >= slots ||
                key == FlatAddrMap::kEmptyKey) {
                throw SnapshotError(SnapshotErrorKind::kMalformed,
                                    "flat map slot out of order");
            }
            m.slots_[slot] = {~key, val};
            next = slot + 1;
        }
        m.size_ = size;
    }

    /** Empty @p b, for a restore that re-derives its members. */
    static void clear_frames(FrameBitmap &b)
    {
        // count_ is the number of set bytes: a freshly built bitmap is
        // already clear, and writing it would fault in every page.
        if (b.count_ != 0) {
            b.bits_.clear();
            b.count_ = 0;
        }
    }
};

}  // namespace moka

#endif  // MOKASIM_SNAPSHOT_SNAPSHOT_H
