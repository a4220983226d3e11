/**
 * @file
 * Global operator new/delete interposer (see alloc_trace.h).
 *
 * The replacement operators exist only under MOKASIM_ALLOC_TRACE so
 * a normal build keeps the libstdc++ allocator (and its malloc
 * fast paths) untouched.  The accounting API below always compiles,
 * which also guarantees this translation unit — and with it the
 * replacement operators — is pulled out of the static library
 * whenever a test calls arm()/disarm().
 */
#include "common/alloc_trace.h"

#include <atomic>

namespace moka::alloc_trace {
namespace {

std::atomic<std::uint64_t> g_total{0};
std::atomic<std::uint64_t> g_window{0};
std::atomic<bool> g_armed{false};
std::atomic<const char *> g_label{""};

}  // namespace

bool
enabled()
{
#ifdef MOKASIM_ALLOC_TRACE
    return true;
#else
    return false;
#endif
}

std::uint64_t
total()
{
    return g_total.load(std::memory_order_relaxed);
}

void
arm(const char *label)
{
    g_label.store(label != nullptr ? label : "",
                  std::memory_order_relaxed);
    g_window.store(0, std::memory_order_relaxed);
    g_armed.store(true, std::memory_order_release);
}

namespace detail {
// Defined at the bottom of this file; no-ops without the interposer.
void capture_site();
void dump_sites();
}  // namespace detail

std::uint64_t
disarm()
{
    g_armed.store(false, std::memory_order_release);
    detail::dump_sites();
    return g_window.load(std::memory_order_relaxed);
}

const char *
window_label()
{
    return g_label.load(std::memory_order_relaxed);
}

namespace detail {

/**
 * Debugger seam: called once per allocation that lands inside an
 * armed window.  Empty on purpose — `break
 * moka::alloc_trace::detail::on_armed_alloc` plus `bt` locates every
 * L10 offender without rebuilding.
 */
__attribute__((noinline)) void
on_armed_alloc()
{
    asm volatile("");  // keep the call from being optimised away
}

/** Called by every replacement operator new. */
inline void
note_alloc()
{
    g_total.fetch_add(1, std::memory_order_relaxed);
    if (g_armed.load(std::memory_order_acquire)) {
        g_window.fetch_add(1, std::memory_order_relaxed);
        on_armed_alloc();
        capture_site();
    }
}

}  // namespace detail

void
note_raw_alloc()
{
#ifdef MOKASIM_ALLOC_TRACE
    detail::note_alloc();
#endif
}

}  // namespace moka::alloc_trace

#ifdef MOKASIM_ALLOC_TRACE

#include <execinfo.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>

#include "common/thread_annotations.h"

namespace moka::alloc_trace {
namespace detail {
namespace {

// Armed-window offender capture, enabled by MOKASIM_ALLOC_TRACE_BT=1
// in the environment: every allocation inside an armed window records
// a deduplicated backtrace; disarm() dumps them to stderr for
// addr2line.  Fixed-size storage so the capture itself never
// allocates; backtrace() is re-entrancy-guarded because its first
// call can dlopen libgcc (which allocates).
constexpr int kMaxSites = 32;
constexpr int kDepth = 16;
SimMutex g_site_mutex;
void *g_site_frames[kMaxSites][kDepth] SIM_GUARDED_BY(g_site_mutex);
int g_site_depth[kMaxSites] SIM_GUARDED_BY(g_site_mutex);
std::uint64_t g_site_hits[kMaxSites] SIM_GUARDED_BY(g_site_mutex);
int g_site_count SIM_GUARDED_BY(g_site_mutex) = 0;
thread_local bool t_in_capture = false;

bool
capture_enabled()
{
    static const bool on =
        std::getenv("MOKASIM_ALLOC_TRACE_BT") != nullptr;
    return on;
}

}  // namespace

void
capture_site()
{
    if (!capture_enabled() || t_in_capture) {
        return;
    }
    t_in_capture = true;
    void *frames[kDepth];
    const int n = backtrace(frames, kDepth);
    SimMutexLock lock(&g_site_mutex);
    for (int i = 0; i < g_site_count; ++i) {
        if (g_site_depth[i] == n &&
            std::memcmp(g_site_frames[i], frames,
                        sizeof(void *) * static_cast<std::size_t>(n)) ==
                0) {
            ++g_site_hits[i];
            t_in_capture = false;
            return;
        }
    }
    if (g_site_count < kMaxSites) {
        std::memcpy(g_site_frames[g_site_count], frames,
                    sizeof(void *) * static_cast<std::size_t>(n));
        g_site_depth[g_site_count] = n;
        g_site_hits[g_site_count] = 1;
        ++g_site_count;
    }
    t_in_capture = false;
}

void
dump_sites()
{
    if (!capture_enabled()) {
        return;
    }
    SimMutexLock lock(&g_site_mutex);
    if (g_site_count == 0) {
        return;
    }
    // stderr is the only sane sink in an allocator (telemetry
    // allocates).  LINT_LOG_OK: MOKASIM_ALLOC_TRACE_BT diagnostics.
    std::fprintf(stderr,
                 "alloc_trace: %d unique armed-window allocation "
                 "site(s):\n",
                 g_site_count);
    for (int i = 0; i < g_site_count; ++i) {
        // LINT_LOG_OK: as above, same diagnostic report.
        std::fprintf(stderr, "-- site %d: %llu hit(s)\n", i,
                     static_cast<unsigned long long>(g_site_hits[i]));
        backtrace_symbols_fd(g_site_frames[i], g_site_depth[i], 2);
    }
    g_site_count = 0;
}

}  // namespace detail
}  // namespace moka::alloc_trace

namespace {

void *
traced_alloc(std::size_t n)
{
    moka::alloc_trace::detail::note_alloc();
    if (n == 0) {
        n = 1;
    }
    return std::malloc(n);
}

void *
traced_alloc_aligned(std::size_t n, std::size_t align)
{
    moka::alloc_trace::detail::note_alloc();
    if (n == 0) {
        n = 1;
    }
    // aligned_alloc requires the size to be a multiple of alignment.
    n = (n + align - 1) / align * align;
    return std::aligned_alloc(align, n);
}

}  // namespace

void *
operator new(std::size_t n)
{
    if (void *p = traced_alloc(n)) {
        return p;
    }
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    if (void *p = traced_alloc(n)) {
        return p;
    }
    throw std::bad_alloc();
}

void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    return traced_alloc(n);
}

void *
operator new[](std::size_t n, const std::nothrow_t &) noexcept
{
    return traced_alloc(n);
}

void *
operator new(std::size_t n, std::align_val_t align)
{
    if (void *p =
            traced_alloc_aligned(n, static_cast<std::size_t>(align))) {
        return p;
    }
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n, std::align_val_t align)
{
    if (void *p =
            traced_alloc_aligned(n, static_cast<std::size_t>(align))) {
        return p;
    }
    throw std::bad_alloc();
}

void *
operator new(std::size_t n, std::align_val_t align,
             const std::nothrow_t &) noexcept
{
    return traced_alloc_aligned(n, static_cast<std::size_t>(align));
}

void *
operator new[](std::size_t n, std::align_val_t align,
               const std::nothrow_t &) noexcept
{
    return traced_alloc_aligned(n, static_cast<std::size_t>(align));
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

#else  // !MOKASIM_ALLOC_TRACE

namespace moka::alloc_trace::detail {

void
capture_site()
{
}

void
dump_sites()
{
}

}  // namespace moka::alloc_trace::detail

#endif  // MOKASIM_ALLOC_TRACE
