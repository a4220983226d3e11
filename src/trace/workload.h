/**
 * @file
 * Workload abstraction: an endless, deterministic instruction stream
 * consumed by the core model. Synthetic generators implementing this
 * interface stand in for the paper's SimPoint traces (see DESIGN.md
 * substitution table).
 */
#ifndef MOKASIM_TRACE_WORKLOAD_H
#define MOKASIM_TRACE_WORKLOAD_H

#include <memory>
#include <string>

#include "common/types.h"

namespace moka {

class SnapshotReader;
class SnapshotWriter;

/** Instruction class as seen by the trace-driven core. */
enum class OpClass : std::uint8_t {
    kAlu,     //!< non-memory, non-branch op (1-cycle, pipelined)
    kLoad,    //!< data load
    kStore,   //!< data store
    kBranch,  //!< conditional/unconditional branch
};

/** One traced instruction. */
struct TraceInst
{
    Addr pc = 0;                 //!< virtual PC of the instruction
    OpClass op = OpClass::kAlu;  //!< instruction class
    VirtAddr mem_addr{};         //!< virtual data address (load/store)
    bool taken = false;          //!< branch outcome
    Addr target = 0;             //!< branch target PC (taken branches)
    bool dep_load = false;       //!< load address depends on the
                                 //!< previous load's data (serializes)
};

/**
 * Endless instruction stream.
 *
 * Generators must be deterministic given their construction
 * parameters: two instances built identically produce identical
 * streams, which is what makes multi-scheme comparisons and the
 * multi-core replay rule meaningful.
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Produce the next instruction of the stream. */
    virtual TraceInst next() = 0;

    /**
     * Advance the stream by @p n instructions, discarding them. The
     * default decodes and drops; seekable sources (trace files)
     * override with O(1) re-positioning. Snapshot restore does not
     * use this (it restores the saved position, see restore_state);
     * it serves callers that start a stream at an offset.
     */
    virtual void skip(std::uint64_t n)
    {
        for (std::uint64_t i = 0; i < n; ++i) {
            (void)next();
        }
    }

    /**
     * Serialize the stream position: everything next() reads besides
     * the construction parameters (RNG lanes, kernel cursors, a trace
     * file's record index).
     */
    virtual void save_state(SnapshotWriter &w) const = 0;

    /**
     * Inverse of save_state on an instance built with the same
     * parameters: the next instruction equals the one the saved
     * instance would have produced.
     * @throws SnapshotError kMalformed on a state of another kind
     */
    virtual void restore_state(SnapshotReader &r) = 0;

    /** Human-readable instance name (e.g. "gap.bfs.0"). */
    virtual const std::string &name() const = 0;
};

using WorkloadPtr = std::unique_ptr<Workload>;

}  // namespace moka

#endif  // MOKASIM_TRACE_WORKLOAD_H
