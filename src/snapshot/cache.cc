#include "snapshot/cache.h"

#include <cstdio>
#include <filesystem>
#include <sstream>

#include "common/check.h"
#include "common/publish.h"
#include "snapshot/format.h"

namespace moka {
namespace {

namespace fs = std::filesystem;

std::string
hex_key(std::uint64_t key)
{
    std::ostringstream os;
    os << std::hex;
    os.width(16);
    os.fill('0');
    os << key;
    return os.str();
}

}  // namespace

SnapshotCache::SnapshotCache(std::string dir) : dir_(std::move(dir))
{
    SIM_REQUIRE(!dir_.empty(), "snapshot cache needs a directory");
    // Best effort: a failure here surfaces as cold warmups (every
    // publish fails individually), never as a crash.
    std::error_code ec;
    fs::create_directories(dir_, ec);
}

std::string
SnapshotCache::path_for(std::uint64_t key) const
{
    return dir_ + "/snap-" + hex_key(key) + ".bin";
}

SnapshotCache::Stats
SnapshotCache::stats() const
{
    Stats s;
    s.hits = hits_.load(std::memory_order_relaxed);
    s.misses = misses_.load(std::memory_order_relaxed);
    s.saves = saves_.load(std::memory_order_relaxed);
    s.invalid = invalid_.load(std::memory_order_relaxed);
    return s;
}

SnapshotBlob
SnapshotCache::try_load(std::uint64_t key)
{
    const std::string path = path_for(key);
    std::string bytes;
    if (!read_file(path, bytes)) {
        return nullptr;
    }
    try {
        // Full validation, the only one these bytes get: magic,
        // version, bounds and every section checksum. The config
        // fingerprint is checked by Machine::restore_snapshot.
        return std::make_shared<const SnapshotImage>(
            SnapshotImage::from_disk(std::move(bytes)));
    } catch (const SnapshotError &) {
        // Corrupt published file (torn copy, disk fault): drop it and
        // fall back to a cold warmup. Never crash, never restore.
        invalid_.fetch_add(1, std::memory_order_relaxed);
        std::remove(path.c_str());
        return nullptr;
    }
}

SnapshotBlob
SnapshotCache::load_or_produce(std::uint64_t key, const Producer &produce)
{
    if (SnapshotBlob found = try_load(key)) {
        hits_.fetch_add(1, std::memory_order_relaxed);
        return found;
    }

    // A miss in several processes at once makes each of them warm up
    // and publish: a benign duplicate, since every copy is identical
    // and readers only ever see complete files.
    misses_.fetch_add(1, std::memory_order_relaxed);
    auto blob = std::make_shared<const SnapshotImage>(
        SnapshotImage::from_writer(produce()));
    if (publish_file(path_for(key), blob->bytes())) {
        saves_.fetch_add(1, std::memory_order_relaxed);
    }
    return blob;  // reused in-process even if unpublished
}

SnapshotBlob
SnapshotCache::fetch(std::uint64_t key, const Producer &produce)
{
    std::shared_future<SnapshotBlob> fut;
    bool owner = false;
    std::promise<SnapshotBlob> mine;
    {
        SimMutexLock lock(&mu_);
        auto it = inflight_.find(key);
        if (it == inflight_.end()) {
            owner = true;
            fut = mine.get_future().share();
            inflight_.emplace(key, fut);
        } else {
            fut = it->second;
        }
    }
    if (!owner) {
        // Memoized: the first caller's production (or load) is shared.
        SnapshotBlob blob = fut.get();
        hits_.fetch_add(1, std::memory_order_relaxed);
        return blob;
    }
    try {
        SnapshotBlob blob = load_or_produce(key, produce);
        mine.set_value(blob);
        return blob;
    } catch (...) {  // LINT_CATCH_OK: propagated to waiters + rethrown
        mine.set_exception(std::current_exception());
        // Drop the poisoned entry so a later attempt can retry cold.
        SimMutexLock lock(&mu_);
        inflight_.erase(key);
        throw;
    }
}

}  // namespace moka
