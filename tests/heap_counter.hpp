// Counts the calls to the global operator new and the bytes they request,
// so a test can assert that building an object allocates nothing, or no
// more than a bound; and the heap bytes live right now, so a test can
// assert what an object still holds once its work is done.  This header
// replaces the global allocation functions: include it from exactly one
// translation unit of a test binary.
#pragma once

#include <malloc.h>

#include <cstddef>
#include <cstdlib>
#include <new>

namespace heap_counter {
inline std::size_t bytes = 0;
inline std::size_t allocations = 0;
// Usable size of every block operator new handed out and operator delete
// has not yet taken back.
inline std::size_t live = 0;

// Heap bytes requested while `fn` runs.
template <typename F>
std::size_t bytes_during(F&& fn) {
  const std::size_t before = bytes;
  fn();
  return bytes - before;
}

// Heap allocations made while `fn` runs.
template <typename F>
std::size_t allocations_during(F&& fn) {
  const std::size_t before = allocations;
  fn();
  return allocations - before;
}

inline void* counted(void* p, std::size_t n) {
  if (p != nullptr) {
    bytes += n;
    ++allocations;
    live += malloc_usable_size(p);
  }
  return p;
}

inline void release(void* p) {
  if (p != nullptr) live -= malloc_usable_size(p);
  std::free(p);
}
}  // namespace heap_counter

void* operator new(std::size_t n) {
  if (void* p = heap_counter::counted(std::malloc(n == 0 ? 1 : n), n)) {
    return p;
  }
  throw std::bad_alloc{};
}
// The nothrow form too (std::stable_sort's temporary buffer uses it), so
// every block the delete below frees came from malloc.
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return heap_counter::counted(std::malloc(n == 0 ? 1 : n), n);
}
// Out of line, so the compiler never pairs an inlined free() with an
// operator new call site (-Wmismatched-new-delete).
[[gnu::noinline]] void operator delete(void* p) noexcept {
  heap_counter::release(p);
}
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  heap_counter::release(p);
}
[[gnu::noinline]] void operator delete(void* p,
                                       const std::nothrow_t&) noexcept {
  heap_counter::release(p);
}
