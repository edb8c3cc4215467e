// Counts the calls to the global operator new and the bytes they request,
// so a test can assert that building an object allocates nothing, or no
// more than a bound.  This header replaces the global allocation
// functions: include it from exactly one translation unit of a test binary.
#pragma once

#include <cstddef>
#include <cstdlib>
#include <new>

namespace heap_counter {
inline std::size_t bytes = 0;
inline std::size_t allocations = 0;

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
}  // namespace heap_counter

void* operator new(std::size_t n) {
  heap_counter::bytes += n;
  ++heap_counter::allocations;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc{};
}
// The nothrow form too (std::stable_sort's temporary buffer uses it), so
// every block the delete below frees came from malloc.
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  heap_counter::bytes += n;
  ++heap_counter::allocations;
  return std::malloc(n == 0 ? 1 : n);
}
// Out of line, so the compiler never pairs an inlined free() with an
// operator new call site (-Wmismatched-new-delete).
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p,
                                       const std::nothrow_t&) noexcept {
  std::free(p);
}
