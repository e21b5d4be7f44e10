// Heap-allocation counters for a test binary: replaces every form of the global
// operator new and operator delete with malloc/free-backed versions that count calls
// and requested bytes.
//
// Covered: plain, array and nothrow new; the std::align_val_t forms of each (plain,
// array, nothrow), which Tensor's float storage allocates through
// (src/tensor/tensor.h); and every matching delete, sized and nothrow forms included.
// A replacement that missed the aligned forms would count no tensor buffer at all, and
// one that missed a delete form would pair a replaced new with the default delete,
// which ASan aborts on (std::stable_sort allocates through the nothrow forms).
//
// Replacement functions are program-wide definitions and must not be inline, so include
// this header from exactly one translation unit per binary (each test binary here is
// one .cc file). Read the counters inside explicit windows only: gtest allocates too.
#ifndef PARALLAX_TESTS_ALLOC_COUNTER_H_
#define PARALLAX_TESTS_ALLOC_COUNTER_H_

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace parallax {
namespace alloc_counter_internal {

inline std::atomic<size_t> count{0};
inline std::atomic<size_t> bytes{0};

inline void Count(std::size_t size) {
  count.fetch_add(1, std::memory_order_relaxed);
  bytes.fetch_add(size, std::memory_order_relaxed);
}

inline void* Allocate(std::size_t size) noexcept {
  Count(size);
  return std::malloc(size);
}

// aligned_alloc wants a nonzero size that is a multiple of the alignment.
inline void* AllocateAligned(std::size_t size, std::align_val_t align) noexcept {
  Count(size);
  const auto alignment = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + alignment - 1) / alignment * alignment;
  return std::aligned_alloc(alignment, rounded == 0 ? alignment : rounded);
}

}  // namespace alloc_counter_internal

// Calls to any form of operator new in this process so far, and the bytes they asked
// for.
inline size_t AllocCount() {
  return alloc_counter_internal::count.load(std::memory_order_relaxed);
}
inline size_t AllocBytes() {
  return alloc_counter_internal::bytes.load(std::memory_order_relaxed);
}

}  // namespace parallax

// GCC pairs the replaced operator new (malloc-backed) with the replaced operator
// delete (free-backed) across inlining and then warns about the very pairing these
// replacements establish; the combination is intentional.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  if (void* p = parallax::alloc_counter_internal::Allocate(size)) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  if (void* p = parallax::alloc_counter_internal::Allocate(size)) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return parallax::alloc_counter_internal::Allocate(size);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return parallax::alloc_counter_internal::Allocate(size);
}

void* operator new(std::size_t size, std::align_val_t align) {
  if (void* p = parallax::alloc_counter_internal::AllocateAligned(size, align)) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new[](std::size_t size, std::align_val_t align) {
  if (void* p = parallax::alloc_counter_internal::AllocateAligned(size, align)) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new(std::size_t size, std::align_val_t align, const std::nothrow_t&) noexcept {
  return parallax::alloc_counter_internal::AllocateAligned(size, align);
}

void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return parallax::alloc_counter_internal::AllocateAligned(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}

#endif  // PARALLAX_TESTS_ALLOC_COUNTER_H_
