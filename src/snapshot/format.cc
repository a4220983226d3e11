#include "snapshot/format.h"

#include <string_view>

#include "common/check.h"
#include "common/hashing.h"

namespace moka {
namespace {

/** Little-endian append of the low @p n bytes of @p v. */
void
append_le(std::string &out, std::uint64_t v, unsigned n)
{
    out.append(reinterpret_cast<const char *>(&v), n);
}

/** Little-endian overwrite of @p n bytes at @p at. */
void
patch_le(std::string &out, std::size_t at, std::uint64_t v, unsigned n)
{
    std::memcpy(out.data() + at, &v, n);
}

/** Little-endian read of @p n bytes at @p data. */
std::uint64_t
read_le(const char *data, unsigned n)
{
    std::uint64_t v = 0;
    std::memcpy(&v, data, n);
    return v;
}

// Header offsets: magic, then version u32, fingerprint u64, count u32.
constexpr std::size_t kCountAt = sizeof(kSnapshotMagic) + 4 + 8;

/**
 * Structural parse of a container: magic, version and every bound.
 * Section sums are verified separately (verify_sums).
 */
SnapshotLayout
parse_layout(std::string_view bytes)
{
    std::size_t at = 0;
    const auto take = [&](unsigned n) {
        if (bytes.size() - at < n) {
            throw SnapshotError(SnapshotErrorKind::kTruncated,
                                "header ends early");
        }
        const std::uint64_t v = read_le(bytes.data() + at, n);
        at += n;
        return v;
    };
    if (bytes.size() < sizeof(kSnapshotMagic) ||
        std::memcmp(bytes.data(), kSnapshotMagic,
                    sizeof(kSnapshotMagic)) != 0) {
        throw SnapshotError(SnapshotErrorKind::kBadMagic,
                            "missing MOKASNAP magic");
    }
    at = sizeof(kSnapshotMagic);
    const std::uint64_t version = take(4);
    if (version != kSnapshotVersion) {
        throw SnapshotError(SnapshotErrorKind::kBadVersion,
                            "format version " + std::to_string(version) +
                                " (want " +
                                std::to_string(kSnapshotVersion) + ")");
    }
    SnapshotLayout layout;
    layout.fingerprint = take(8);
    const std::uint64_t count = take(4);
    for (std::uint64_t i = 0; i < count; ++i) {
        SnapshotLayout::Section s;
        const std::uint64_t name_len = take(4);
        if (bytes.size() - at < name_len) {
            throw SnapshotError(SnapshotErrorKind::kTruncated,
                                "section name ends early");
        }
        s.name.assign(bytes.data() + at, name_len);
        at += name_len;
        s.size = take(8);
        (void)take(8);  // payload sum: verify_sums
        if (bytes.size() - at < s.size) {
            throw SnapshotError(SnapshotErrorKind::kTruncated,
                                "section '" + s.name + "' ends early");
        }
        s.begin = at;
        at += s.size;
        layout.sections.push_back(std::move(s));
    }
    if (at != bytes.size()) {
        throw SnapshotError(SnapshotErrorKind::kMalformed,
                            "trailing bytes after the last section");
    }
    return layout;
}

/** Check every section's FNV-1a sum (stored just before its payload). */
void
verify_sums(std::string_view bytes, const SnapshotLayout &layout)
{
    for (const SnapshotLayout::Section &s : layout.sections) {
        const std::uint64_t sum = read_le(bytes.data() + s.begin - 8, 8);
        if (fnv1a_64(bytes.data() + s.begin, s.size) != sum) {
            throw SnapshotError(SnapshotErrorKind::kChecksum,
                                "section '" + s.name +
                                    "' fails its FNV-1a sum");
        }
    }
}

}  // namespace

const char *
to_string(SnapshotErrorKind kind)
{
    switch (kind) {
      case SnapshotErrorKind::kBadMagic: return "bad_magic";
      case SnapshotErrorKind::kBadVersion: return "bad_version";
      case SnapshotErrorKind::kTruncated: return "truncated";
      case SnapshotErrorKind::kChecksum: return "checksum";
      case SnapshotErrorKind::kConfigMismatch: return "config_mismatch";
      case SnapshotErrorKind::kMalformed: return "malformed";
    }
    return "unknown";
}

SnapshotError::SnapshotError(SnapshotErrorKind kind,
                             const std::string &message)
    : std::runtime_error(std::string("snapshot: ") + to_string(kind) +
                         ": " + message),
      kind_(kind)
{
}

SnapshotWriter::SnapshotWriter(std::uint64_t fingerprint)
    : out_(kSnapshotMagic, sizeof(kSnapshotMagic))
{
    append_le(out_, kSnapshotVersion, 4);
    append_le(out_, fingerprint, 8);
    append_le(out_, 0, 4);  // section count, patched by finish()
}

void
SnapshotWriter::close_section()
{
    if (!open_) {
        return;
    }
    const std::size_t begin = header_at_ + 16;
    const std::size_t size = out_.size() - begin;
    patch_le(out_, header_at_, size, 8);
    patch_le(out_, header_at_ + 8, fnv1a_64(out_.data() + begin, size), 8);
    open_ = false;
}

void
SnapshotWriter::begin_section(const std::string &name)
{
    SIM_REQUIRE(!name.empty(), "snapshot sections need a name");
    close_section();
    append_le(out_, name.size(), 4);
    out_ += name;
    header_at_ = out_.size();
    append_le(out_, 0, 8);  // payload length, patched on close
    append_le(out_, 0, 8);  // payload sum, patched on close
    ++sections_;
    open_ = true;
}

void
SnapshotWriter::put_bytes(const void *data, std::size_t n)
{
    SIM_REQUIRE(open_, "snapshot write outside a section");
    out_.append(static_cast<const char *>(data), n);
}

void
SnapshotWriter::put_f64(double v)
{
    // Bit-exact: the round trip must reproduce the value even for
    // NaN payloads and signed zeros.
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    put_u64(bits);
}

std::string
SnapshotWriter::finish()
{
    close_section();
    patch_le(out_, kCountAt, sections_, 4);
    return std::move(out_);
}

SnapshotImage
SnapshotImage::from_disk(std::string bytes)
{
    SnapshotLayout layout = parse_layout(bytes);
    verify_sums(bytes, layout);
    return SnapshotImage(std::move(bytes), std::move(layout));
}

SnapshotImage
SnapshotImage::from_writer(std::string bytes)
{
    SnapshotLayout layout = parse_layout(bytes);
    return SnapshotImage(std::move(bytes), std::move(layout));
}

SnapshotReader::SnapshotReader(const std::string &bytes)
    : data_(bytes.data()), own_(parse_layout(bytes)), layout_(&own_)
{
    verify_sums(bytes, own_);
}

SnapshotReader::SnapshotReader(const SnapshotImage &image)
    : data_(image.bytes_.data()), layout_(&image.layout_)
{
}

void
SnapshotReader::begin_section(const std::string &name)
{
    const std::vector<SnapshotLayout::Section> &sections = layout_->sections;
    if (section_ > 0 && cursor_ != open_size_) {
        throw SnapshotError(SnapshotErrorKind::kMalformed,
                            "section '" + sections[section_ - 1].name +
                                "' left partially consumed");
    }
    if (section_ >= sections.size() || sections[section_].name != name) {
        throw SnapshotError(
            SnapshotErrorKind::kMalformed,
            "expected section '" + name + "', found '" +
                (section_ < sections.size() ? sections[section_].name
                                            : std::string("<end>")) +
                "'");
    }
    open_begin_ = sections[section_].begin;
    open_size_ = sections[section_].size;
    ++section_;
    cursor_ = 0;
}

void
SnapshotReader::fail_need() const
{
    if (section_ == 0) {
        throw SnapshotError(SnapshotErrorKind::kMalformed,
                            "read outside any section");
    }
    throw SnapshotError(SnapshotErrorKind::kMalformed,
                        "section '" + layout_->sections[section_ - 1].name +
                            "' over-consumed");
}

double
SnapshotReader::get_f64()
{
    const std::uint64_t bits = get_u64();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

void
SnapshotReader::finish() const
{
    if (section_ != layout_->sections.size()) {
        throw SnapshotError(SnapshotErrorKind::kMalformed,
                            "unconsumed sections remain");
    }
    if (section_ > 0 && cursor_ != open_size_) {
        throw SnapshotError(SnapshotErrorKind::kMalformed,
                            "last section left partially consumed");
    }
}

}  // namespace moka
