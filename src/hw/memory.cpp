#include "hw/memory.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <new>
#include <stdexcept>

namespace hw {

namespace {

constexpr std::size_t kWordBits = 64;

std::size_t whole_pages(std::size_t bytes) {
  const std::size_t size = (bytes / kPageSize) * kPageSize;
  if (size == 0) throw std::invalid_argument("memory smaller than a page");
  return size;
}

// Reserves address space only; each page is zero-filled on first touch.
std::byte* map_zeroed(std::size_t bytes) {
  void* p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  return static_cast<std::byte*>(p);
}

// Bit p is set where bits p..p+len-1 of `w` are all set: the starts of the
// runs of at least `len` free frames that lie wholly inside one word.
std::uint64_t runs_within(std::uint64_t w, std::size_t len) {
  if (len > kWordBits) return 0;
  for (std::size_t have = 1; have < len && w != 0;) {
    const std::size_t step = std::min(have, len - have);
    w &= w >> step;
    have += step;
  }
  return w;
}

}  // namespace

HostMemory::HostMemory(std::size_t bytes)
    : size_{whole_pages(bytes)},
      free_bits_((page_count() + kWordBits - 1) / kWordBits,
                 ~std::uint64_t{0}),
      free_count_{page_count()},
      store_{map_zeroed(size_)} {
  // Bits past the last frame stay clear, so scans never see them as free.
  if (const auto tail = page_count() % kWordBits) {
    free_bits_.back() = (std::uint64_t{1} << tail) - 1;
  }
}

HostMemory::~HostMemory() { munmap(store_, size_); }

void HostMemory::take(std::uint64_t frame) {
  free_bits_[frame / kWordBits] &= ~(std::uint64_t{1} << (frame % kWordBits));
  --free_count_;
}

std::optional<std::uint64_t> HostMemory::alloc_frame() {
  if (free_count_ == 0) return std::nullopt;
  while (free_bits_[first_word_] == 0) ++first_word_;
  const std::uint64_t f =
      first_word_ * kWordBits + std::countr_zero(free_bits_[first_word_]);
  take(f);
  return f;
}

void HostMemory::free_frame(std::uint64_t frame) {
  if (frame >= page_count()) throw std::out_of_range("bad frame");
  auto& word = free_bits_[frame / kWordBits];
  const auto bit = std::uint64_t{1} << (frame % kWordBits);
  if (word & bit) throw std::logic_error("double free of frame");
  word |= bit;
  ++free_count_;
  first_word_ = std::min<std::size_t>(first_word_, frame / kWordBits);
}

std::optional<std::uint64_t> HostMemory::alloc_contiguous(std::size_t pages) {
  if (pages == 0 || pages > free_count_) return std::nullopt;
  // Word by word, in ascending frame order: the run carried in from lower
  // words plus this word's low free bits, then a run wholly inside the word,
  // then the word's high free bits, which start the next carried run.
  std::uint64_t run_start = 0;
  std::size_t run_len = 0;
  for (std::size_t i = first_word_; i < free_bits_.size(); ++i) {
    const std::uint64_t w = free_bits_[i];
    const std::uint64_t base = i * kWordBits;
    std::optional<std::uint64_t> first;
    if (run_len + std::countr_one(w) >= pages) {
      first = run_len > 0 ? run_start : base;
    } else if (const auto inside = runs_within(w, pages)) {
      first = base + std::countr_zero(inside);
    }
    if (first) {
      for (auto f = *first; f < *first + pages; ++f) take(f);
      return first;
    }
    const auto top = static_cast<std::size_t>(std::countl_one(w));
    if (top < kWordBits) {
      run_start = base + kWordBits - top;
      run_len = top;
    } else {
      if (run_len == 0) run_start = base;
      run_len += kWordBits;
    }
  }
  return std::nullopt;
}

void HostMemory::free_contiguous(std::uint64_t first_frame,
                                 std::size_t pages) {
  for (std::uint64_t i = first_frame; i < first_frame + pages; ++i) {
    free_frame(i);
  }
}

void HostMemory::check(PhysAddr addr, std::size_t len) const {
  if (addr + len > size_ || addr + len < addr) {
    throw std::out_of_range("physical access out of bounds");
  }
}

void HostMemory::write(PhysAddr addr, std::span<const std::byte> data) {
  check(addr, data.size());
  std::memcpy(store_ + addr, data.data(), data.size());
}

void HostMemory::read(PhysAddr addr, std::span<std::byte> out) const {
  check(addr, out.size());
  std::memcpy(out.data(), store_ + addr, out.size());
}

std::span<std::byte> HostMemory::view(PhysAddr addr, std::size_t len) {
  check(addr, len);
  return {store_ + addr, len};
}

}  // namespace hw
