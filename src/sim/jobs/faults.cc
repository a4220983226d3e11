#include "sim/jobs/faults.h"

#include <csignal>
#include <cstdio>
#include <vector>

#include "common/hashing.h"
#include "common/rng.h"

namespace moka {

bool
ProcessFaultInjector::should_kill(KillPoint point, std::size_t job)
{
    if (!plan_.enabled || plan_.kill_rate <= 0.0) {
        return false;
    }
    const std::uint64_t n =
        crossings_.fetch_add(1, std::memory_order_relaxed);
    Rng rng(hash_combine(
        hash_combine(hash_combine(plan_.seed, n),
                     static_cast<std::uint64_t>(point)),
        static_cast<std::uint64_t>(job)));
    return rng.chance(plan_.kill_rate);
}

void
ProcessFaultInjector::maybe_kill(KillPoint point, std::size_t job)
{
    if (should_kill(point, job)) {
        // The honest crash: SIGKILL cannot be caught, so no cleanup
        // of claim or temp files, exactly what a dead peer leaves.
        std::raise(SIGKILL);
    }
}

FaultInjector::Decision
FaultInjector::decide(std::size_t id, int attempt) const
{
    Decision d;
    if (!plan_.enabled) {
        return d;
    }
    // One private stream per (seed, job, attempt): thread- and
    // schedule-independent, and each retry re-rolls independently.
    Rng rng(hash_combine(hash_combine(plan_.seed, id),
                         static_cast<std::uint64_t>(attempt)));
    const double roll = rng.uniform();
    // One tick = one retired instruction, and test sweeps run only a
    // few thousand of them, so fire within the first 2K ticks or the
    // fault would land beyond the end of short runs and never trigger.
    if (roll < plan_.throw_rate) {
        d.kind = Decision::Kind::kThrow;
        d.at_tick = 1 + rng.below(1 << 11);
        d.transient = rng.chance(plan_.transient_rate);
    } else if (roll < plan_.throw_rate + plan_.stall_rate) {
        d.kind = Decision::Kind::kStall;
        d.at_tick = 1 + rng.below(1 << 11);
        d.transient = true;  // stalls surface as watchdog timeouts
    }
    return d;
}

bool
corrupt_trace_file(const std::string &path, TraceFault fault,
                   std::uint64_t seed)
{
    std::FILE *in = std::fopen(path.c_str(), "rb");
    if (in == nullptr) {
        return false;
    }
    std::vector<unsigned char> bytes;
    unsigned char buf[4096];
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof(buf), in)) > 0) {
        bytes.insert(bytes.end(), buf, buf + n);
    }
    // LINT_IO_OK: read-only stream; close failure cannot lose data.
    std::fclose(in);

    constexpr std::size_t kHeaderBytes = 16;  // magic + u64 count
    constexpr std::size_t kRecordBytes = 32;
    Rng rng(seed);
    switch (fault) {
      case TraceFault::kBitFlipMagic:
        if (bytes.size() < 8) {
            return false;
        }
        bytes[rng.below(8)] ^=
            static_cast<unsigned char>(1u << rng.below(8));
        break;
      case TraceFault::kTruncateHeader:
        if (bytes.size() < kHeaderBytes) {
            return false;
        }
        bytes.resize(rng.range(1, kHeaderBytes - 1));
        break;
      case TraceFault::kTruncateRecords:
        if (bytes.size() < kHeaderBytes + kRecordBytes) {
            return false;
        }
        // Cut the last record short: between 1 and 31 bytes survive.
        bytes.resize(bytes.size() - kRecordBytes +
                     rng.range(1, kRecordBytes - 1));
        break;
      case TraceFault::kBitFlipBody:
        if (bytes.size() <= kHeaderBytes) {
            return false;
        }
        bytes[kHeaderBytes +
              rng.below(bytes.size() - kHeaderBytes)] ^=
            static_cast<unsigned char>(1u << rng.below(8));
        break;
    }

    std::FILE *out = std::fopen(path.c_str(), "wb");
    if (out == nullptr) {
        return false;
    }
    bool ok =
        bytes.empty() ||
        std::fwrite(bytes.data(), 1, bytes.size(), out) == bytes.size();
    // A failed close loses buffered damage bytes: report it.
    ok = std::fclose(out) == 0 && ok;
    return ok;
}

}  // namespace moka
