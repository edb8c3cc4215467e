// Counts the bytes requested from the global operator new, so a test can
// assert that building an object allocates nothing.  This header replaces
// the global allocation functions: include it from exactly one translation
// unit of a test binary.
#pragma once

#include <cstddef>
#include <cstdlib>
#include <new>

namespace heap_counter {
inline std::size_t bytes = 0;

// Heap bytes requested while `fn` runs.
template <typename F>
std::size_t bytes_during(F&& fn) {
  const std::size_t before = bytes;
  fn();
  return bytes - before;
}
}  // namespace heap_counter

void* operator new(std::size_t n) {
  heap_counter::bytes += n;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc{};
}
// Out of line, so the compiler never pairs an inlined free() with an
// operator new call site (-Wmismatched-new-delete).
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
