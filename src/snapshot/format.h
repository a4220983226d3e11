/**
 * @file
 * Binary snapshot container: a versioned, checksummed TLV format for
 * serialized architectural state.
 *
 * Layout (all integers little-endian):
 *
 *   magic            8 bytes  "MOKASNAP"
 *   format version   u32      kSnapshotVersion
 *   config sum       u64      config_fingerprint of the saving machine
 *   section count    u32
 *   sections         repeated {
 *       name length  u32
 *       name         bytes
 *       payload len  u64
 *       payload sum  u64      FNV-1a over the payload bytes
 *       payload      bytes
 *   }
 *
 * Sections are named after machine components ("dram", "llc",
 * "core0", ...) and read back in the exact order they were written;
 * SnapshotReader::begin_section verifies both the name and that the
 * previous section was consumed to its last byte, so a component that
 * gains a field without bumping its save/restore pair desyncs loudly
 * instead of silently shifting every later read.
 *
 * A container is validated once, where it enters the process:
 * SnapshotImage::from_disk checks magic, version, bounds and every
 * section sum; SnapshotImage::from_writer indexes bytes this process's
 * SnapshotWriter just assembled without re-hashing them. A reader
 * built over an image reuses its section table and never copies the
 * bytes.
 *
 * This header depends only on common/ and the standard library (the
 * job layer maps SnapshotError onto its own JobError taxonomy; no
 * include cycle back into sim/).
 */
#ifndef MOKASIM_SNAPSHOT_FORMAT_H
#define MOKASIM_SNAPSHOT_FORMAT_H

#include <bit>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace moka {

//! bump when the container layout or any component's section layout
//! changes; readers reject other versions outright. Version 2: LRU
//! replacement state is one recency-rank byte per cache block (was a
//! u64 timestamp per block plus the policy clock). Version 3: the
//! per-core audit cadence is no longer stored, so audit-enabled and
//! default builds write the same bytes. Version 4: the filter's and
//! the adaptive threshold's telemetry counters are no longer stored,
//! so an armed and a disarmed warmup write the same bytes. Version 5:
//! flat page maps store only their occupied slots, the page table's
//! frame sets are derived on restore instead of stored, and every
//! core saves its workload's position ("core.workload").
inline constexpr std::uint32_t kSnapshotVersion = 5;

//! container magic, first 8 bytes of every snapshot
inline constexpr char kSnapshotMagic[8] = {'M', 'O', 'K', 'A',
                                           'S', 'N', 'A', 'P'};

/** Why a snapshot was rejected. */
enum class SnapshotErrorKind : std::uint8_t {
    kBadMagic,        //!< not a snapshot file at all
    kBadVersion,      //!< produced by an incompatible format version
    kTruncated,       //!< shorter than its own headers claim
    kChecksum,        //!< a section's FNV-1a sum does not match
    kConfigMismatch,  //!< saved under a different machine config
    kMalformed,       //!< section desync or over/under-consumed payload
};

/** Stable report name of @p kind. */
const char *to_string(SnapshotErrorKind kind);

/**
 * Classified snapshot rejection. Every failure mode is recoverable by
 * design: the caller falls back to a cold warmup (the job layer maps
 * this onto JobErrorCode::kSnapshotInvalid when it must surface).
 */
class SnapshotError : public std::runtime_error
{
  public:
    SnapshotError(SnapshotErrorKind kind, const std::string &message);

    SnapshotErrorKind kind() const { return kind_; }

  private:
    SnapshotErrorKind kind_;
};

// Words are stored and loaded as host memory, which is the container's
// little-endian order only on little-endian hosts (trace files make
// the same assumption, see trace_io.h).
static_assert(std::endian::native == std::endian::little,
              "snapshots are little-endian: big-endian hosts need byte "
              "swaps in SnapshotWriter/SnapshotReader");

/**
 * Serializes primitives into named sections and assembles the final
 * container. Usage: begin_section(), put_* the component's state,
 * repeat, then finish() exactly once.
 */
class SnapshotWriter
{
  public:
    /** @param fingerprint config_fingerprint of the saving machine */
    explicit SnapshotWriter(std::uint64_t fingerprint);

    /** Close the current section (if any) and open a new one. */
    void begin_section(const std::string &name);

    void put_u8(std::uint8_t v) { put_word(v); }
    void put_u16(std::uint16_t v) { put_word(v); }
    void put_u32(std::uint32_t v) { put_word(v); }
    void put_u64(std::uint64_t v) { put_word(v); }
    void put_i64(std::int64_t v) { put_u64(static_cast<std::uint64_t>(v)); }
    void put_bool(bool v) { put_u8(v ? 1 : 0); }
    void put_f64(double v);

    /** Append @p n bytes verbatim (integral arrays: put_vec). */
    void put_bytes(const void *data, std::size_t n);

    /** Assemble header + checksummed sections into the final bytes. */
    std::string finish();

  private:
    template <typename U>
    void put_word(U v)
    {
        put_bytes(&v, sizeof(v));
    }

    /** Patch the open section's length and sum into its header. */
    void close_section();

    std::string out_;                 //!< header + sections so far
    std::size_t header_at_ = 0;       //!< open section's length field
    std::uint32_t sections_ = 0;
    bool open_ = false;
};

/**
 * Section table of a structurally sound container: payload offsets
 * into its bytes, plus the saving machine's fingerprint.
 */
struct SnapshotLayout
{
    struct Section
    {
        std::string name;
        std::size_t begin = 0;  //!< payload offset into the bytes
        std::size_t size = 0;
    };

    std::uint64_t fingerprint = 0;
    std::vector<Section> sections;
};

/**
 * Snapshot bytes together with their section table, validated once
 * on entry to the process. The snapshot cache hands these out; a
 * SnapshotReader built over one neither copies nor re-checks it.
 */
class SnapshotImage
{
  public:
    /**
     * Bytes read from outside the process (a file): checks magic,
     * version, bounds and every section sum.
     * @throws SnapshotError on any defect
     */
    static SnapshotImage from_disk(std::string bytes);

    /**
     * Bytes SnapshotWriter::finish produced in this process: the
     * section table is read (bounds-checked) but the sums, computed
     * moments ago from these very bytes, are not recomputed.
     * @throws SnapshotError on a structural defect
     */
    static SnapshotImage from_writer(std::string bytes);

    /** The container bytes. */
    const std::string &bytes() const { return bytes_; }

  private:
    friend class SnapshotReader;

    SnapshotImage(std::string bytes, SnapshotLayout layout)
        : bytes_(std::move(bytes)), layout_(std::move(layout))
    {
    }

    std::string bytes_;
    SnapshotLayout layout_;
};

/**
 * Deserializes a container produced by SnapshotWriter, reading over
 * the caller's bytes (which must outlive the reader). Constructed
 * from raw bytes it first checks magic, version, structural
 * completeness and every section checksum, so a reader that
 * constructs at all is structurally sound; constructed from a
 * SnapshotImage it reuses the image's validated section table.
 * begin_section / get_* then enforce exact consumption.
 */
class SnapshotReader
{
  public:
    /** @throws SnapshotError on any structural or checksum defect */
    explicit SnapshotReader(const std::string &bytes);
    //! the reader does not own its bytes: a temporary would dangle
    SnapshotReader(std::string &&) = delete;

    /** Reader over an already validated image (no re-check). */
    explicit SnapshotReader(const SnapshotImage &image);
    SnapshotReader(SnapshotImage &&) = delete;

    // Points into its own section table: neither copied nor moved.
    SnapshotReader(const SnapshotReader &) = delete;
    SnapshotReader &operator=(const SnapshotReader &) = delete;

    /** Config fingerprint recorded by the saving machine. */
    std::uint64_t fingerprint() const { return layout_->fingerprint; }

    /**
     * Enter the next section, which must be named @p name and must
     * follow a fully-consumed predecessor.
     */
    void begin_section(const std::string &name);

    std::uint8_t get_u8() { return get_word<std::uint8_t>(); }
    std::uint16_t get_u16() { return get_word<std::uint16_t>(); }
    std::uint32_t get_u32() { return get_word<std::uint32_t>(); }
    std::uint64_t get_u64() { return get_word<std::uint64_t>(); }
    std::int64_t get_i64() { return static_cast<std::int64_t>(get_u64()); }
    bool get_bool() { return get_u8() != 0; }
    double get_f64();

    /** Copy the next @p n payload bytes verbatim into @p out. */
    void get_bytes(void *out, std::size_t n)
    {
        need(n);
        std::memcpy(out, data_ + open_begin_ + cursor_, n);
        cursor_ += n;
    }

    /** Payload bytes left in the open section. */
    std::size_t remaining() const { return open_size_ - cursor_; }

    /** Verify every section was consumed to its last byte. */
    void finish() const;

  private:
    template <typename U>
    U get_word()
    {
        U v{};
        get_bytes(&v, sizeof(v));
        return v;
    }

    void need(std::size_t n) const
    {
        if (open_size_ - cursor_ < n) {
            fail_need();
        }
    }

    [[noreturn]] void fail_need() const;

    const char *data_ = nullptr;
    SnapshotLayout own_;  //!< table of a reader over raw bytes
    const SnapshotLayout *layout_;
    std::size_t section_ = 0;     //!< 1-based index of the open section
    std::size_t open_begin_ = 0;  //!< open payload's offset into data_
    std::size_t open_size_ = 0;   //!< open payload's size (0 if none)
    std::size_t cursor_ = 0;      //!< read offset into the open payload
};

}  // namespace moka

#endif  // MOKASIM_SNAPSHOT_FORMAT_H
