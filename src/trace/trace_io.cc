#include "trace/trace_io.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <stdexcept>

#include "snapshot/format.h"

namespace moka {
namespace {

constexpr char kMagic[8] = {'M', 'O', 'K', 'A', 'T', 'R', 'C', '1'};

/** RAII stdio handle. */
struct File
{
    explicit File(std::FILE *f) : fp(f) {}
    ~File()
    {
        if (fp != nullptr) {
            std::fclose(fp);
        }
    }
    File(const File &) = delete;
    File &operator=(const File &) = delete;

    std::FILE *fp;
};

}  // namespace

bool
record_trace(const std::string &path, Workload &workload,
             std::uint64_t count)
{
    File f(std::fopen(path.c_str(), "wb"));
    if (f.fp == nullptr) {
        return false;
    }
    if (std::fwrite(kMagic, sizeof(kMagic), 1, f.fp) != 1 ||
        std::fwrite(&count, sizeof(count), 1, f.fp) != 1) {
        return false;
    }
    for (std::uint64_t i = 0; i < count; ++i) {
        const TraceInst inst = workload.next();
        TraceRecord rec{};
        rec.pc = inst.pc;
        rec.mem_addr = inst.mem_addr.raw();  // LINT_ADDR_OK: trace file format
        rec.target = inst.target;
        rec.op = static_cast<std::uint8_t>(inst.op);
        rec.taken = inst.taken ? 1 : 0;
        rec.dep_load = inst.dep_load ? 1 : 0;
        if (std::fwrite(&rec, sizeof(rec), 1, f.fp) != 1) {
            return false;
        }
    }
    return true;
}

const char *
to_string(TraceIoStatus status)
{
    switch (status) {
      case TraceIoStatus::kOk: return "ok";
      case TraceIoStatus::kFileMissing: return "file_missing";
      case TraceIoStatus::kBadHeader: return "bad_header";
      case TraceIoStatus::kTruncated: return "truncated";
      case TraceIoStatus::kEmpty: break;
    }
    return "empty";
}

namespace {

constexpr long kHeaderBytes = 16;  //!< magic + u64 record count

}  // namespace

TraceFileWorkload::TraceFileWorkload(const std::string &path,
                                     std::size_t block_records)
    : name_("trace:" + path), path_(path)
{
    File f(std::fopen(path.c_str(), "rb"));
    if (f.fp == nullptr) {
        throw TraceIoError(TraceIoStatus::kFileMissing,
                           "cannot open trace " + path);
    }
    char magic[8];
    if (std::fread(magic, sizeof(magic), 1, f.fp) != 1) {
        throw TraceIoError(TraceIoStatus::kTruncated,
                           "truncated header (no magic) in " + path);
    }
    if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
        throw TraceIoError(TraceIoStatus::kBadHeader,
                           "bad magic in " + path +
                               " (not a MOKATRC1 trace)");
    }
    if (std::fread(&count_, sizeof(count_), 1, f.fp) != 1) {
        throw TraceIoError(TraceIoStatus::kTruncated,
                           "truncated header (no count) in " + path);
    }
    // A flipped count byte must not turn into a terabyte allocation.
    constexpr std::uint64_t kMaxRecords = std::uint64_t{1} << 32;
    if (count_ > kMaxRecords) {
        throw TraceIoError(TraceIoStatus::kBadHeader,
                           "implausible record count " +
                               std::to_string(count_) + " in " + path);
    }
    // The record stream is validated against the on-disk size up
    // front, so the block decoder never discovers truncation
    // mid-simulation.
    if (std::fseek(f.fp, 0, SEEK_END) != 0) {
        throw TraceIoError(TraceIoStatus::kTruncated,
                           "cannot size trace " + path);
    }
    const long size = std::ftell(f.fp);
    const std::uint64_t found =
        size <= kHeaderBytes
            ? 0
            : static_cast<std::uint64_t>(size - kHeaderBytes) /
                  sizeof(TraceRecord);
    if (found < count_) {
        throw TraceIoError(
            TraceIoStatus::kTruncated,
            "truncated trace " + path + ": header promises " +
                std::to_string(count_) + " records, found " +
                std::to_string(found));
    }
    if (count_ == 0) {
        throw TraceIoError(TraceIoStatus::kEmpty,
                           "empty trace " + path);
    }
    if (std::fseek(f.fp, kHeaderBytes, SEEK_SET) != 0) {
        throw TraceIoError(TraceIoStatus::kTruncated,
                           "cannot seek trace " + path);
    }
    const std::uint64_t cap =
        std::max<std::uint64_t>(1, std::min<std::uint64_t>(
                                       block_records, count_));
    ring_.resize(static_cast<std::size_t>(cap));
    // Adopt the handle: replay streams from disk for the whole run.
    file_ = f.fp;
    f.fp = nullptr;
}

TraceFileWorkload::~TraceFileWorkload()
{
    if (file_ != nullptr) {
        std::fclose(file_);
    }
}

void
TraceFileWorkload::refill()
{
    const std::uint64_t remaining = count_ - file_next_;
    const std::size_t n = static_cast<std::size_t>(
        std::min<std::uint64_t>(ring_.size(), remaining));
    // LINT_HOT_OK: one fread per ring_ records, not per instruction —
    // this IS the batching that keeps the per-next() path lean
    const std::size_t got =
        std::fread(ring_.data(), sizeof(TraceRecord), n, file_);
    if (got != n) {
        throw TraceIoError(TraceIoStatus::kTruncated,
                           "trace " + path_ + " shrank mid-replay");
    }
    file_next_ += n;
    if (file_next_ == count_) {
        // End of pass: loop back to the first record.
        if (std::fseek(file_, kHeaderBytes, SEEK_SET) != 0) {
            throw TraceIoError(TraceIoStatus::kTruncated,
                               "cannot rewind trace " + path_);
        }
        file_next_ = 0;
    }
    ring_pos_ = 0;
    ring_filled_ = n;
}

TraceInst
TraceFileWorkload::next()
{
    if (ring_pos_ == ring_filled_) {
        refill();
    }
    const TraceRecord &rec = ring_[ring_pos_++];
    cursor_ = cursor_ + 1 == count_ ? 0 : cursor_ + 1;
    TraceInst inst;
    inst.pc = rec.pc;
    inst.mem_addr = VirtAddr{rec.mem_addr};
    inst.target = rec.target;
    inst.op = static_cast<OpClass>(rec.op);
    inst.taken = rec.taken != 0;
    inst.dep_load = rec.dep_load != 0;
    return inst;
}

void
TraceFileWorkload::skip(std::uint64_t n)
{
    cursor_ = (cursor_ + n) % count_;
    ring_pos_ = 0;
    ring_filled_ = 0;
    file_next_ = cursor_;
    const long offset =
        kHeaderBytes +
        static_cast<long>(cursor_ * sizeof(TraceRecord));
    if (std::fseek(file_, offset, SEEK_SET) != 0) {
        throw TraceIoError(TraceIoStatus::kTruncated,
                           "cannot seek trace " + path_);
    }
}

void
TraceFileWorkload::save_state(SnapshotWriter &w) const
{
    w.put_u64(count_);
    w.put_u64(cursor_);
}

void
TraceFileWorkload::restore_state(SnapshotReader &r)
{
    const std::uint64_t count = r.get_u64();
    const std::uint64_t cursor = r.get_u64();
    if (count != count_ || cursor >= count_) {
        throw SnapshotError(SnapshotErrorKind::kMalformed,
                            "trace position does not fit " + path_);
    }
    cursor_ = 0;
    skip(cursor);
}

TraceOpenResult
open_trace_checked(const std::string &path)
{
    TraceOpenResult result;
    try {
        result.workload = std::make_unique<TraceFileWorkload>(path);
    } catch (const TraceIoError &e) {
        result.status = e.status();
        result.message = e.what();
    } catch (const std::bad_alloc &) {
        result.status = TraceIoStatus::kTruncated;
        result.message = "trace " + path +
                         " too large to load (allocation failure)";
    }
    return result;
}

WorkloadPtr
open_trace(const std::string &path)
{
    TraceOpenResult result = open_trace_checked(path);
    if (!result.ok()) {
        std::fprintf(stderr, "mokasim: trace open failed [%s]: %s\n",  // LINT_LOG_OK: trace open diagnostic
                     to_string(result.status), result.message.c_str());
    }
    return std::move(result.workload);
}

}  // namespace moka
