/**
 * @file
 * ZeroedArray: a fixed-length array of a trivially copyable type whose
 * elements start as all-zero bytes, backed by calloc.
 *
 * Pages fresh from the OS are already zero, so calloc hands them out
 * without writing them: a large table costs a page fault only where
 * the run first touches it, and building it writes nothing. A
 * std::vector value-initialises every element, which faults the whole
 * table in at construction whenever glibc has trimmed the heap since
 * the previous machine was freed; whether it has depends on the sizes
 * and order of every earlier allocation. The simulator's big tables
 * (cache rows and fill cycles, flat page maps, frame sets) choose
 * encodings whose empty state is zero so they can live here.
 */
#ifndef MOKASIM_COMMON_ZEROED_ARRAY_H
#define MOKASIM_COMMON_ZEROED_ARRAY_H

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

#include "common/alloc_trace.h"

namespace moka {

/** @p Align: alignment of the first element (a power of two). */
template <typename T, std::size_t Align = alignof(T)>
class ZeroedArray
{
    static_assert(std::is_trivially_copyable_v<T>,
                  "ZeroedArray elements are raw zeroed bytes");
    static_assert(Align >= alignof(T) && (Align & (Align - 1)) == 0,
                  "alignment must be a power of two fit for T");

  public:
    ZeroedArray() = default;

    /** @p n elements, every byte zero. */
    explicit ZeroedArray(std::size_t n) : size_(n)
    {
        if (n == 0) {
            return;
        }
        if (n > (~std::size_t{0} - Align) / sizeof(T)) {
            throw std::bad_alloc();
        }
        // calloc aligns for max_align_t; a wider alignment (a host
        // cache line) gets Align - 1 bytes of slack to round up into.
        constexpr std::size_t kSlack =
            Align > alignof(std::max_align_t) ? Align - 1 : 0;
        raw_ = std::calloc(n * sizeof(T) + kSlack, 1);
        if (raw_ == nullptr) {
            throw std::bad_alloc();
        }
        alloc_trace::note_raw_alloc();
        const auto addr = reinterpret_cast<std::uintptr_t>(raw_);
        data_ = reinterpret_cast<T *>((addr + kSlack) &
                                      ~std::uintptr_t{kSlack});
    }

    ZeroedArray(const ZeroedArray &) = delete;
    ZeroedArray &operator=(const ZeroedArray &) = delete;

    ZeroedArray(ZeroedArray &&o) noexcept { swap(o); }

    ZeroedArray &operator=(ZeroedArray &&o) noexcept
    {
        swap(o);
        return *this;
    }

    ~ZeroedArray() { std::free(raw_); }

    void swap(ZeroedArray &o) noexcept
    {
        std::swap(raw_, o.raw_);
        std::swap(data_, o.data_);
        std::swap(size_, o.size_);
    }

    /** Zero every element again. */
    void clear()
    {
        if (size_ != 0) {
            std::memset(static_cast<void *>(data_), 0, size_ * sizeof(T));
        }
    }

    std::size_t size() const { return size_; }
    T *data() { return data_; }
    const T *data() const { return data_; }
    T &operator[](std::size_t i) { return data_[i]; }
    const T &operator[](std::size_t i) const { return data_[i]; }
    T *begin() { return data_; }
    T *end() { return data_ + size_; }
    const T *begin() const { return data_; }
    const T *end() const { return data_ + size_; }

  private:
    void *raw_ = nullptr;  //!< what calloc returned (freed)
    T *data_ = nullptr;    //!< raw_ rounded up to alignof(T)
    std::size_t size_ = 0;
};

}  // namespace moka

#endif  // MOKASIM_COMMON_ZEROED_ARRAY_H
