/**
 * @file
 * Heap-allocation tracing for the hot-path contract (rule L10).
 *
 * When the build is configured with -DMOKASIM_ALLOC_TRACE=ON the
 * global `operator new` / `operator delete` family is interposed and
 * every allocation bumps a process-wide counter.  A measurement
 * window (arm() .. disarm(), or the RAII Window) attributes the
 * allocations that happen inside it, so a test can assert that a
 * warmed-up measured region performs ZERO heap allocations:
 *
 *     machine.run(warmup, nullptr);        // populate pools/tables
 *     alloc_trace::arm("measure");
 *     machine.run(measure, nullptr);       // steady state
 *     EXPECT_EQ(alloc_trace::disarm(), 0u);
 *
 * Attribution is by window, not by call site: wrap the subsystem
 * phase you care about (warmup, measure, report, ...) and compare
 * counts.  In a normal build (option OFF) the interposer is compiled
 * out, enabled() returns false, and every counter reads zero; tests
 * must GTEST_SKIP() in that case rather than assert.
 *
 * The counters are relaxed atomics: safe under the job engine's
 * worker threads, but a window counts allocations from *all* threads
 * while armed — arm windows only around single-threaded regions when
 * asserting exact counts.
 */
#ifndef MOKASIM_COMMON_ALLOC_TRACE_H
#define MOKASIM_COMMON_ALLOC_TRACE_H

#include <cstdint>

namespace moka::alloc_trace {

/** True when this build interposes the global allocator. */
bool enabled();

/** Process-lifetime allocation count (0 when !enabled()). */
std::uint64_t total();

/**
 * Open a measurement window labelled @p label (kept for failure
 * messages; may be null).  Re-arming resets the window count.
 */
void arm(const char *label);

/** Close the window; returns allocations observed while armed. */
std::uint64_t disarm();

/**
 * Count one allocation made outside operator new (ZeroedArray's
 * calloc), so measured windows see it too. No-op in a normal build.
 */
void note_raw_alloc();

/** Label passed to the last arm(), or "" (for diagnostics). */
const char *window_label();

/**
 * RAII measurement window: arms on construction, writes the window
 * count into @p out on destruction (disarm() early to read it live).
 */
class Window
{
  public:
    Window(const char *label, std::uint64_t *out) : out_(out)
    {
        arm(label);
    }
    ~Window() { *out_ = disarm(); }
    Window(const Window &) = delete;
    Window &operator=(const Window &) = delete;

  private:
    std::uint64_t *out_;
};

}  // namespace moka::alloc_trace

#endif  // MOKASIM_COMMON_ALLOC_TRACE_H
