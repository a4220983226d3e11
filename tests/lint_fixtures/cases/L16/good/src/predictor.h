#pragma once
#include <cstdint>
#include <vector>

class SnapshotWriter;
class SnapshotReader;

/** Clean: every member is serialized, delegated, or annotated. */
class InlinePredictor
{
  public:
    void save_state(SnapshotWriter &w) const
    {
        put(w, hits_);
        put(w, misses_);
    }

  private:
    static void put(SnapshotWriter &w, std::uint64_t v);

    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

class OutOfLineTable
{
  public:
    void save_state(SnapshotWriter &w) const;

  private:
    std::vector<std::uint64_t> rows_;
    std::uint64_t lru_ = 0;
    // LINT_SNAPSHOT_OK: scratch rebuilt before every use
    std::vector<std::uint64_t> scratch_;
};

/** Trailing annotations cover their own member only. */
class TrailingNote
{
  public:
    void save_state(SnapshotWriter &w) const
    {
        put(w, count_);
        put(w, cursor_);
    }

  private:
    static void put(SnapshotWriter &w, std::uint64_t v);

    std::uint64_t count_ = 0;
    std::uint64_t mirror_ = 0;  // LINT_SNAPSHOT_OK: config mirror
    std::uint64_t cursor_ = 0;
};

/** No save_state declared: L16 does not apply. */
class PlainCache
{
  private:
    std::uint64_t untracked_ = 0;
};
