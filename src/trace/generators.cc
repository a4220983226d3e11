#include "trace/generators.h"

#include <utility>

#include "common/hashing.h"
#include "snapshot/snapshot.h"

namespace moka {
namespace {

/** Kernel kinds: the tag that leads every kernel's saved state. */
enum class KernelKind : std::uint8_t {
    kStream = 1,
    kTile,
    kCsrGraph,
    kSeqChase,
    kPointerChase,
    kHashProbe,
    kGather,
    kDualStride,
    kPhaseMix,
    kBursty,
};

/** Consume the kind tag, rejecting state saved by another kernel. */
void
expect_kind(SnapshotReader &r, KernelKind kind)
{
    KernelKind saved{};
    get_int(r, saved);
    if (saved != kind) {
        throw SnapshotError(SnapshotErrorKind::kMalformed,
                            "workload kernel kind mismatch");
    }
}

/** Reject a restored index that would address past @p bound. */
void
expect_below(std::uint64_t index, std::uint64_t bound, const char *what)
{
    if (index >= bound) {
        throw SnapshotError(SnapshotErrorKind::kMalformed,
                            std::string(what) + " out of range");
    }
}

/** Sequential multi-stream sweep (see make_stream_kernel). */
class StreamKernel : public AccessKernel
{
  public:
    explicit StreamKernel(const StreamParams &p) : p_(p)
    {
        const Addr per_stream = p_.footprint / p_.streams;
        for (unsigned s = 0; s < p_.streams; ++s) {
            cursors_.push_back(p_.base + s * per_stream);
        }
    }

    Access
    next(Rng &rng) override
    {
        const unsigned s = next_stream_;
        // Compare-wrap, not %: runs on every generated access
        // (rule L19).
        if (++next_stream_ == p_.streams) {
            next_stream_ = 0;
        }
        const Addr per_stream = p_.footprint / p_.streams;
        const Addr lo = p_.base + s * per_stream;
        Addr a = cursors_[s];
        cursors_[s] += p_.stride;
        if (cursors_[s] >= lo + per_stream) {
            cursors_[s] = lo;
        }
        return {a, 0x4000 + s * 16, rng.chance(p_.store_frac)};
    }

    void
    save_state(SnapshotWriter &w) const override
    {
        put_int(w, KernelKind::kStream);
        put_vec(w, cursors_);
        put_int(w, next_stream_);
    }

    void
    restore_state(SnapshotReader &r) override
    {
        expect_kind(r, KernelKind::kStream);
        get_vec(r, cursors_);
        get_int(r, next_stream_);
        expect_below(next_stream_, p_.streams, "stream index");
    }

  private:
    // LINT_SNAPSHOT_OK: config
    StreamParams p_;
    std::vector<Addr> cursors_;
    unsigned next_stream_ = 0;
};

/** Page-sized rows with large pitch (see make_tile_kernel). */
class TileKernel : public AccessKernel
{
  public:
    explicit TileKernel(const TileParams &p) : p_(p) {}

    Access
    next(Rng &rng) override
    {
        const Addr a = p_.base + row_ * p_.pitch + col_;
        col_ += p_.stride;
        if (col_ >= p_.row_bytes) {
            col_ = 0;
            if (++row_ == p_.rows) {  // compare-wrap (rule L19)
                row_ = 0;
            }
        }
        return {a, 0x5000, rng.chance(p_.store_frac)};
    }

    void
    save_state(SnapshotWriter &w) const override
    {
        put_int(w, KernelKind::kTile);
        w.put_u64(row_);
        w.put_u64(col_);
    }

    void
    restore_state(SnapshotReader &r) override
    {
        expect_kind(r, KernelKind::kTile);
        row_ = r.get_u64();
        col_ = r.get_u64();
    }

  private:
    // LINT_SNAPSHOT_OK: config
    TileParams p_;
    Addr row_ = 0;
    Addr col_ = 0;
};

/** CSR traversal (see make_csr_graph_kernel). */
class CsrGraphKernel : public AccessKernel
{
  public:
    explicit CsrGraphKernel(const CsrGraphParams &p) : p_(p)
    {
        offsets_base_ = p_.base;
        edges_base_ = p_.base + p_.vertices * 8 + kPageSize;
        edges_base_ = page_addr(edges_base_ + kPageSize - 1);
        values_base_ =
            edges_base_ + p_.vertices * Addr{p_.avg_degree} * 8 + kPageSize;
        values_base_ = page_addr(values_base_ + kPageSize - 1);
    }

    Access
    next(Rng &rng) override
    {
        switch (state_) {
          case State::kOffset: {
            const Addr a = offsets_base_ + vertex_ * 8;
            // Deterministic degree derived from the vertex id so the
            // stream replays identically across schemes.
            degree_left_ = 1 + static_cast<unsigned>(
                mix64(vertex_ * 0x9E3779B97F4A7C15ull) %
                (2 * p_.avg_degree));
            // LINT_HOT_OK: semantic range reduction of a hash onto
            // the edge array, not table indexing -- the footprint is
            // not pow2 and the modulo defines the workload.
            edge_cursor_ = edges_base_ +
                (mix64(vertex_) % (p_.vertices * p_.avg_degree)) * 8;
            state_ = State::kEdges;
            return {a, 0x6000, false};
          }
          case State::kEdges: {
            const Addr a = edge_cursor_;
            edge_cursor_ += 8;
            pending_gather_ = rng.chance(p_.value_gather_frac);
            if (--degree_left_ == 0) {
                if (++vertex_ == p_.vertices) {  // compare-wrap (rule L19)
                    vertex_ = 0;
                }
                state_ = pending_gather_ ? State::kGather : State::kOffset;
            } else if (pending_gather_) {
                state_ = State::kGather;
            }
            return {a, 0x6010, false, true};
          }
          case State::kGather:
          default: {
            // LINT_HOT_OK: semantic range reduction of the random
            // gather target; vertices is not pow2 in general.
            const Addr a = values_base_ +
                (rng.next() % p_.vertices) * kBlockSize;
            state_ = (degree_left_ == 0) ? State::kOffset : State::kEdges;
            return {a, 0x6020, rng.chance(p_.store_frac), true};
          }
        }
    }

    void
    save_state(SnapshotWriter &w) const override
    {
        put_int(w, KernelKind::kCsrGraph);
        w.put_u64(vertex_);
        put_int(w, degree_left_);
        w.put_u64(edge_cursor_);
        w.put_bool(pending_gather_);
        put_int(w, state_);
    }

    void
    restore_state(SnapshotReader &r) override
    {
        expect_kind(r, KernelKind::kCsrGraph);
        vertex_ = r.get_u64();
        get_int(r, degree_left_);
        edge_cursor_ = r.get_u64();
        pending_gather_ = r.get_bool();
        get_int(r, state_);
        expect_below(static_cast<std::uint64_t>(state_),
                     static_cast<std::uint64_t>(State::kGather) + 1,
                     "csr traversal state");
    }

  private:
    enum class State : std::uint8_t { kOffset, kEdges, kGather };

    // LINT_SNAPSHOT_OK: config
    CsrGraphParams p_;
    // LINT_SNAPSHOT_OK: derived from the params at construction
    Addr offsets_base_ = 0;
    // LINT_SNAPSHOT_OK: derived from the params at construction
    Addr edges_base_ = 0;
    // LINT_SNAPSHOT_OK: derived from the params at construction
    Addr values_base_ = 0;
    std::uint64_t vertex_ = 0;
    unsigned degree_left_ = 0;
    Addr edge_cursor_ = 0;
    bool pending_gather_ = false;
    State state_ = State::kOffset;
};

/** Dependent sequential chase (see make_seq_chase_kernel). */
class SeqChaseKernel : public AccessKernel
{
  public:
    explicit SeqChaseKernel(const SeqChaseParams &p) : p_(p)
    {
        blocks_ = p_.footprint / kBlockSize;
    }

    Access
    next(Rng &rng) override
    {
        const Addr a = p_.base + cursor_ * kBlockSize;
        cursor_ += p_.stride_lines;
        if (cursor_ >= blocks_ || rng.chance(p_.restart_prob)) {
            cursor_ = rng.below(blocks_);
        }
        return {a, 0x7800, false, /*dependent=*/true};
    }

    void
    save_state(SnapshotWriter &w) const override
    {
        put_int(w, KernelKind::kSeqChase);
        w.put_u64(cursor_);
    }

    void
    restore_state(SnapshotReader &r) override
    {
        expect_kind(r, KernelKind::kSeqChase);
        cursor_ = r.get_u64();
    }

  private:
    // LINT_SNAPSHOT_OK: config
    SeqChaseParams p_;
    // LINT_SNAPSHOT_OK: derived from the params
    Addr blocks_ = 0;
    Addr cursor_ = 0;
};

/** Dependent random chase (see make_pointer_chase_kernel). */
class PointerChaseKernel : public AccessKernel
{
  public:
    explicit PointerChaseKernel(const PointerChaseParams &p) : p_(p)
    {
        for (unsigned c = 0; c < p_.chains; ++c) {
            cursors_.push_back(mix64(c * 77 + 1));
        }
    }

    Access
    next(Rng & /*rng*/) override
    {
        const unsigned c = next_chain_;
        if (++next_chain_ == p_.chains) {  // compare-wrap (rule L19)
            next_chain_ = 0;
        }
        const Addr blocks = p_.footprint / kBlockSize;
        // LINT_HOT_OK: semantic range reduction of the chase hash
        // onto the footprint, which is not pow2 in general.
        const Addr a = p_.base + (cursors_[c] % blocks) * kBlockSize;
        // Next hop depends on the current one: a data-dependent chain.
        cursors_[c] = mix64(cursors_[c]);
        return {a, 0x7000 + c * 16, false, true};
    }

    void
    save_state(SnapshotWriter &w) const override
    {
        put_int(w, KernelKind::kPointerChase);
        put_vec(w, cursors_);
        put_int(w, next_chain_);
    }

    void
    restore_state(SnapshotReader &r) override
    {
        expect_kind(r, KernelKind::kPointerChase);
        get_vec(r, cursors_);
        get_int(r, next_chain_);
        expect_below(next_chain_, p_.chains, "chase chain index");
    }

  private:
    // LINT_SNAPSHOT_OK: config
    PointerChaseParams p_;
    std::vector<std::uint64_t> cursors_;
    unsigned next_chain_ = 0;
};

/** Random bucket + short in-page probe (see make_hash_probe_kernel). */
class HashProbeKernel : public AccessKernel
{
  public:
    explicit HashProbeKernel(const HashProbeParams &p) : p_(p) {}

    Access
    next(Rng &rng) override
    {
        if (lines_left_ == 0) {
            const Addr pages = p_.footprint / kPageSize;
            cursor_ = p_.base + rng.below(pages) * kPageSize +
                      rng.below(kBlocksPerPage) * kBlockSize;
            lines_left_ = static_cast<unsigned>(
                rng.range(p_.probe_lines_min, p_.probe_lines_max));
        }
        const Addr a = cursor_;
        cursor_ += kBlockSize;
        --lines_left_;
        return {a, 0x8000, rng.chance(p_.store_frac)};
    }

    void
    save_state(SnapshotWriter &w) const override
    {
        put_int(w, KernelKind::kHashProbe);
        w.put_u64(cursor_);
        put_int(w, lines_left_);
    }

    void
    restore_state(SnapshotReader &r) override
    {
        expect_kind(r, KernelKind::kHashProbe);
        cursor_ = r.get_u64();
        get_int(r, lines_left_);
    }

  private:
    // LINT_SNAPSHOT_OK: config
    HashProbeParams p_;
    Addr cursor_ = 0;
    unsigned lines_left_ = 0;
};

/** Sequential index stream + random gathers (see make_gather_kernel). */
class GatherKernel : public AccessKernel
{
  public:
    explicit GatherKernel(const GatherParams &p) : p_(p) {}

    Access
    next(Rng &rng) override
    {
        if (gathers_left_ > 0) {
            --gathers_left_;
            const Addr blocks = p_.data_bytes / kBlockSize;
            return {p_.data_base + rng.below(blocks) * kBlockSize, 0x9010,
                    false, true};
        }
        const Addr a = p_.index_base + index_cursor_;
        index_cursor_ += 8;
        if (index_cursor_ >= p_.index_bytes) {
            index_cursor_ = 0;
        }
        gathers_left_ = p_.gathers_per_index;
        return {a, 0x9000, false};
    }

    void
    save_state(SnapshotWriter &w) const override
    {
        put_int(w, KernelKind::kGather);
        w.put_u64(index_cursor_);
        put_int(w, gathers_left_);
    }

    void
    restore_state(SnapshotReader &r) override
    {
        expect_kind(r, KernelKind::kGather);
        index_cursor_ = r.get_u64();
        get_int(r, gathers_left_);
    }

  private:
    // LINT_SNAPSHOT_OK: config
    GatherParams p_;
    Addr index_cursor_ = 0;
    unsigned gathers_left_ = 0;
};

/** Same-PC dual-stride kernel (see make_dual_stride_kernel). */
class DualStrideKernel : public AccessKernel
{
  public:
    explicit DualStrideKernel(const DualStrideParams &p) : p_(p) {}

    Access
    next(Rng &rng) override
    {
        if (streaming_) {
            const Addr a = p_.base + stream_cursor_;
            // cursor < footprint, so one compare-subtract wraps
            // exactly like the modulo (rule L19).
            stream_cursor_ += kBlockSize;
            if (stream_cursor_ >= p_.footprint) {
                stream_cursor_ -= p_.footprint;
            }
            if (++burst_count_ >= p_.stream_burst) {
                burst_count_ = 0;
                streaming_ = false;
                runs_left_ = p_.runs_per_burst;
                start_run(rng);
            }
            return {a, 0xB000, false};
        }
        const Addr a = p_.base + run_page_ * kPageSize +
                       run_line_ * kBlockSize;
        run_line_ += p_.hop_lines;
        if (run_line_ >= kBlocksPerPage) {
            // The run always dies at the page boundary: a +hop_lines
            // page-cross prefetch issued from the last hop is useless.
            if (--runs_left_ == 0) {
                streaming_ = true;
            } else {
                start_run(rng);
            }
        }
        return {a, 0xB000, false};
    }

    void
    save_state(SnapshotWriter &w) const override
    {
        put_int(w, KernelKind::kDualStride);
        w.put_bool(streaming_);
        w.put_u64(stream_cursor_);
        put_int(w, burst_count_);
        put_int(w, runs_left_);
        w.put_u64(run_page_);
        w.put_u64(run_line_);
    }

    void
    restore_state(SnapshotReader &r) override
    {
        expect_kind(r, KernelKind::kDualStride);
        streaming_ = r.get_bool();
        stream_cursor_ = r.get_u64();
        get_int(r, burst_count_);
        get_int(r, runs_left_);
        run_page_ = r.get_u64();
        run_line_ = r.get_u64();
    }

  private:
    void
    start_run(Rng &rng)
    {
        run_page_ = rng.below(p_.footprint / kPageSize);
        run_line_ = 0;
    }

    // LINT_SNAPSHOT_OK: config
    DualStrideParams p_;
    bool streaming_ = true;
    Addr stream_cursor_ = 0;
    unsigned burst_count_ = 0;
    unsigned runs_left_ = 0;
    Addr run_page_ = 0;
    Addr run_line_ = 0;
};

/** Round-robin phase mixer (see make_phase_mix_kernel). */
class PhaseMixKernel : public AccessKernel
{
  public:
    PhaseMixKernel(std::vector<KernelPtr> children, std::uint64_t phase_len)
        : children_(std::move(children)), phase_len_(phase_len)
    {
    }

    Access
    next(Rng &rng) override
    {
        if (++count_ >= phase_len_) {
            count_ = 0;
            if (++active_ == children_.size()) {  // compare-wrap (rule L19)
                active_ = 0;
            }
        }
        return children_[active_]->next(rng);
    }

    void
    save_state(SnapshotWriter &w) const override
    {
        put_int(w, KernelKind::kPhaseMix);
        w.put_u64(children_.size());
        w.put_u64(count_);
        w.put_u64(active_);
        for (const KernelPtr &child : children_) {
            child->save_state(w);
        }
    }

    void
    restore_state(SnapshotReader &r) override
    {
        expect_kind(r, KernelKind::kPhaseMix);
        if (r.get_u64() != children_.size()) {
            throw SnapshotError(SnapshotErrorKind::kMalformed,
                                "phase mix child count mismatch");
        }
        count_ = r.get_u64();
        active_ = r.get_u64();
        expect_below(active_, children_.size(), "active phase");
        for (const KernelPtr &child : children_) {
            child->restore_state(r);
        }
    }

  private:
    std::vector<KernelPtr> children_;
    // LINT_SNAPSHOT_OK: config
    std::uint64_t phase_len_;
    std::uint64_t count_ = 0;
    std::size_t active_ = 0;
};

/** Bursty stream/chase alternation (see make_bursty_kernel). */
class BurstyKernel : public AccessKernel
{
  public:
    explicit BurstyKernel(const BurstyParams &p) : p_(p) {}

    Access
    next(Rng &rng) override
    {
        if (left_ == 0) {
            left_ = p_.burst_len;
            streaming_ = rng.chance(p_.stream_frac);
            if (streaming_) {
                cursor_ = p_.base +
                          rng.below(p_.footprint / kPageSize) * kPageSize;
            }
        }
        --left_;
        if (streaming_) {
            const Addr a = cursor_;
            cursor_ += kBlockSize;
            if (cursor_ >= p_.base + p_.footprint) {
                cursor_ = p_.base;
            }
            return {a, 0xA000, false};
        }
        chase_ = mix64(chase_ + 1);
        const Addr blocks = p_.footprint / kBlockSize;
        // LINT_HOT_OK: semantic range reduction of the chase hash;
        // the footprint is not pow2 in general.
        return {p_.base + (chase_ % blocks) * kBlockSize, 0xA010, false, true};
    }

    void
    save_state(SnapshotWriter &w) const override
    {
        put_int(w, KernelKind::kBursty);
        w.put_u64(left_);
        w.put_bool(streaming_);
        w.put_u64(cursor_);
        w.put_u64(chase_);
    }

    void
    restore_state(SnapshotReader &r) override
    {
        expect_kind(r, KernelKind::kBursty);
        left_ = r.get_u64();
        streaming_ = r.get_bool();
        cursor_ = r.get_u64();
        chase_ = r.get_u64();
    }

  private:
    // LINT_SNAPSHOT_OK: config
    BurstyParams p_;
    std::uint64_t left_ = 0;
    bool streaming_ = false;
    Addr cursor_ = 0;
    std::uint64_t chase_ = 0;
};

/**
 * The interleaver: wraps a kernel with ALU filler and loop branches
 * to form a complete instruction stream (see make_synthetic).
 */
class SyntheticWorkload : public Workload
{
  public:
    SyntheticWorkload(std::string name, KernelPtr kernel,
                      const InterleaveParams &params, std::uint64_t seed)
        : name_(std::move(name)), kernel_(std::move(kernel)), p_(params),
          rng_(seed)
    {
    }

    TraceInst
    next() override
    {
        TraceInst inst;
        const double draw = rng_.uniform();
        if (draw < p_.branch_ratio) {
            inst.op = OpClass::kBranch;
            if (rng_.chance(p_.hard_branch_frac)) {
                // Data-dependent branch: outcome is a coin flip.
                inst.pc = kBranchBase + 0x40;
                inst.taken = rng_.chance(0.5);
            } else {
                // Loop branch: taken (period-1)/period of the time.
                inst.pc = kBranchBase;
                // LINT_HOT_OK: loop_iter_ is a monotonic counter in
                // the snapshot format; wrapping it would change the
                // serialized state.
                inst.taken = (++loop_iter_ % p_.loop_period) != 0;
            }
            inst.target = inst.taken ? kLoopTop : inst.pc + 4;
        } else if (draw < p_.branch_ratio + p_.mem_ratio) {
            // LINT_HOT_OK: the kernel is the synthetic workload's
            // configuration seam (chosen per run, genuinely
            // polymorphic); trace generation is not the simulated
            // pipeline the inst/sec budget measures (rule L12).
            const AccessKernel::Access a = kernel_->next(rng_);
            inst.op = (a.store || rng_.chance(p_.store_frac))
                          ? OpClass::kStore
                          : OpClass::kLoad;
            inst.pc = kCodeBase + a.pc;
            // Trace synthesis: the one place raw generated addresses
            // become typed virtual addresses.
            inst.mem_addr = VirtAddr{a.addr};
            inst.dep_load = a.dependent;
        } else {
            inst.op = OpClass::kAlu;
            inst.pc = kCodeBase + 0x100 + (alu_pc_++ % 16) * 4;
        }
        return inst;
    }

    void
    save_state(SnapshotWriter &w) const override
    {
        SnapshotAccess::save(w, rng_);
        w.put_u64(loop_iter_);
        w.put_u64(alu_pc_);
        kernel_->save_state(w);
    }

    void
    restore_state(SnapshotReader &r) override
    {
        SnapshotAccess::restore(r, rng_);
        loop_iter_ = r.get_u64();
        alu_pc_ = r.get_u64();
        kernel_->restore_state(r);
    }

    const std::string &name() const override { return name_; }

  private:
    static constexpr Addr kCodeBase = 0x400000;
    static constexpr Addr kBranchBase = kCodeBase + 0x2000;
    static constexpr Addr kLoopTop = kCodeBase + 0x1000;

    // LINT_SNAPSHOT_OK: config
    std::string name_;
    KernelPtr kernel_;
    // LINT_SNAPSHOT_OK: config
    InterleaveParams p_;
    Rng rng_;
    std::uint64_t loop_iter_ = 0;
    std::uint64_t alu_pc_ = 0;
};

}  // namespace

WorkloadPtr
make_synthetic(std::string name, KernelPtr kernel,
               const InterleaveParams &params, std::uint64_t seed)
{
    return std::make_unique<SyntheticWorkload>(std::move(name),
                                               std::move(kernel), params,
                                               seed);
}

KernelPtr
make_stream_kernel(const StreamParams &p)
{
    return std::make_unique<StreamKernel>(p);
}

KernelPtr
make_tile_kernel(const TileParams &p)
{
    return std::make_unique<TileKernel>(p);
}

KernelPtr
make_csr_graph_kernel(const CsrGraphParams &p)
{
    return std::make_unique<CsrGraphKernel>(p);
}

KernelPtr
make_seq_chase_kernel(const SeqChaseParams &p)
{
    return std::make_unique<SeqChaseKernel>(p);
}

KernelPtr
make_pointer_chase_kernel(const PointerChaseParams &p)
{
    return std::make_unique<PointerChaseKernel>(p);
}

KernelPtr
make_hash_probe_kernel(const HashProbeParams &p)
{
    return std::make_unique<HashProbeKernel>(p);
}

KernelPtr
make_gather_kernel(const GatherParams &p)
{
    return std::make_unique<GatherKernel>(p);
}

KernelPtr
make_dual_stride_kernel(const DualStrideParams &p)
{
    return std::make_unique<DualStrideKernel>(p);
}

KernelPtr
make_phase_mix_kernel(std::vector<KernelPtr> children,
                      std::uint64_t phase_len)
{
    return std::make_unique<PhaseMixKernel>(std::move(children), phase_len);
}

KernelPtr
make_bursty_kernel(const BurstyParams &p)
{
    return std::make_unique<BurstyKernel>(p);
}

}  // namespace moka
