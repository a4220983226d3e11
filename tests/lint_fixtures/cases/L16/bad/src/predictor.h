#pragma once
#include <cstdint>
#include <vector>

class SnapshotWriter;
class SnapshotReader;

/** Seeded violations: `misses_` is missing from the inline
 *  save_state, OutOfLineTable's `lru_` is missing from its
 *  out-of-line definition (predictor.cc), and TrailingNote's
 *  `cursor_` hides under the previous member's trailing annotation. */
class InlinePredictor
{
  public:
    void save_state(SnapshotWriter &w) const
    {
        put(w, hits_);
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
};

class TrailingNote
{
  public:
    void save_state(SnapshotWriter &w) const
    {
        put(w, count_);
    }

  private:
    static void put(SnapshotWriter &w, std::uint64_t v);

    std::uint64_t count_ = 0;
    std::uint64_t mirror_ = 0;  // LINT_SNAPSHOT_OK: config mirror
    std::uint64_t cursor_ = 0;
};
