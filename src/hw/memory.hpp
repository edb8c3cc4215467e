// Host physical memory: a real byte store plus a page-frame allocator.
//
// All message payloads ultimately live here; DMA engines and memcpy models
// move actual bytes so the test suite can assert end-to-end integrity.
//
// The store is one anonymous private mapping: the kernel zero-fills each
// page on first touch, so a node pays only for the pages it touches, and the
// range stays contiguous for multi-page view()s.  Free frames are a bitmap;
// allocation always takes the lowest free frame (or the lowest run), so
// frame numbers, and with them physical addresses, are deterministic.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace hw {

using PhysAddr = std::uint64_t;

inline constexpr std::size_t kPageSize = 4096;

// A contiguous physical range; scatter/gather lists are vectors of these.
struct PhysSegment {
  PhysAddr addr = 0;
  std::size_t len = 0;
};

class HostMemory {
 public:
  explicit HostMemory(std::size_t bytes);
  ~HostMemory();
  HostMemory(const HostMemory&) = delete;
  HostMemory& operator=(const HostMemory&) = delete;

  std::size_t size() const { return size_; }
  std::size_t page_count() const { return size_ / kPageSize; }
  std::size_t free_pages() const { return free_count_; }

  // Page-frame allocation (frame index, not address).
  std::optional<std::uint64_t> alloc_frame();
  void free_frame(std::uint64_t frame);
  // A run of `pages` consecutive frames (for shared-memory segments).
  std::optional<std::uint64_t> alloc_contiguous(std::size_t pages);
  void free_contiguous(std::uint64_t first_frame, std::size_t pages);
  static PhysAddr frame_addr(std::uint64_t frame) { return frame * kPageSize; }

  // Raw bounded access.
  void write(PhysAddr addr, std::span<const std::byte> data);
  void read(PhysAddr addr, std::span<std::byte> out) const;
  std::span<std::byte> view(PhysAddr addr, std::size_t len);

 private:
  void check(PhysAddr addr, std::size_t len) const;
  void take(std::uint64_t frame);

  std::size_t size_;
  std::vector<std::uint64_t> free_bits_;  // bit f%64 of word f/64: frame f free
  std::size_t free_count_;
  std::size_t first_word_ = 0;  // no free frame lies in a word below this
  std::byte* store_;            // mapped last: nothing after it can throw
};

}  // namespace hw
