// Tests for HostMemory, Cpu, PciBus, and the Nic's DMA engines.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <numeric>
#include <optional>
#include <random>
#include <set>
#include <utility>
#include <vector>

#ifdef __linux__
#include <sys/resource.h>
#endif

#include "hw/cpu.hpp"
#include "hw/memory.hpp"
#include "hw/nic.hpp"
#include "hw/pci.hpp"
#include "sim/engine.hpp"

namespace {

using hw::HostMemory;
using hw::kPageSize;
using hw::PhysSegment;
using sim::Engine;
using sim::Task;
using sim::Time;

std::vector<std::byte> pattern(std::size_t n, unsigned seed = 1) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::byte>((i * 131 + seed) & 0xff);
  }
  return v;
}

TEST(HostMemory, AllocAndFreeFrames) {
  HostMemory mem{16 * kPageSize};
  EXPECT_EQ(mem.page_count(), 16u);
  EXPECT_EQ(mem.free_pages(), 16u);
  auto f0 = mem.alloc_frame();
  auto f1 = mem.alloc_frame();
  ASSERT_TRUE(f0 && f1);
  EXPECT_NE(*f0, *f1);
  EXPECT_EQ(mem.free_pages(), 14u);
  mem.free_frame(*f0);
  EXPECT_EQ(mem.free_pages(), 15u);
}

TEST(HostMemory, ExhaustionReturnsNullopt) {
  HostMemory mem{2 * kPageSize};
  EXPECT_TRUE(mem.alloc_frame().has_value());
  EXPECT_TRUE(mem.alloc_frame().has_value());
  EXPECT_FALSE(mem.alloc_frame().has_value());
}

TEST(HostMemory, ReadWriteRoundTrip) {
  HostMemory mem{4 * kPageSize};
  const auto data = pattern(1000);
  mem.write(100, data);
  std::vector<std::byte> out(1000);
  mem.read(100, out);
  EXPECT_EQ(out, data);
}

TEST(HostMemory, OutOfBoundsThrows) {
  HostMemory mem{kPageSize};
  std::vector<std::byte> buf(64);
  EXPECT_THROW(mem.write(kPageSize - 10, buf), std::out_of_range);
  EXPECT_THROW(mem.read(kPageSize, buf), std::out_of_range);
  EXPECT_THROW(mem.view(kPageSize - 1, 2), std::out_of_range);
}

// The ordered-set free list HostMemory used to keep, as the reference for
// its allocation order: lowest free frame first, and the first ascending run
// of free frames for a contiguous request.
class SetFreeList {
 public:
  explicit SetFreeList(std::size_t pages) {
    for (std::uint64_t f = 0; f < pages; ++f) free_.insert(f);
  }
  std::size_t free_pages() const { return free_.size(); }

  std::optional<std::uint64_t> alloc_frame() {
    if (free_.empty()) return std::nullopt;
    const auto f = *free_.begin();
    free_.erase(free_.begin());
    return f;
  }
  void free_frame(std::uint64_t f) { ASSERT_TRUE(free_.insert(f).second); }

  std::optional<std::uint64_t> alloc_contiguous(std::size_t pages) {
    if (pages == 0) return std::nullopt;
    std::uint64_t start = 0, prev = 0;
    std::size_t len = 0;
    for (const auto f : free_) {
      if (len == 0 || f != prev + 1) {
        start = f;
        len = 0;
      }
      prev = f;
      if (++len == pages) {
        for (auto i = start; i < start + pages; ++i) free_.erase(i);
        return start;
      }
    }
    return std::nullopt;
  }

 private:
  std::set<std::uint64_t> free_;
};

// Seeded random alloc/free sequences, first filling the pool and then
// draining it, must draw the same frame numbers as the reference model.
// 63, 64 and 65 pages straddle a bitmap word; 16384 is a node's default.
TEST(HostMemory, AllocatorMatchesOrderedSetModel) {
  for (const std::size_t pages : {1u, 63u, 64u, 65u, 16384u}) {
    SCOPED_TRACE(pages);
    HostMemory mem{pages * kPageSize};
    SetFreeList model{pages};
    std::mt19937_64 rng{pages};
    std::vector<std::pair<std::uint64_t, std::size_t>> held;  // (first, n)
    constexpr int kSteps = 4000;
    for (int step = 0; step < kSteps; ++step) {
      const bool filling = step < kSteps / 2;
      const bool alloc = held.empty() || rng() % 10 < (filling ? 7u : 3u);
      if (alloc && rng() % 2 == 0) {
        const auto got = mem.alloc_frame();
        ASSERT_EQ(got, model.alloc_frame());
        if (got) held.emplace_back(*got, 1);
      } else if (alloc) {
        // Zero pages, runs shorter and longer than a bitmap word, and
        // sometimes the whole pool or more.
        const std::size_t longest = std::min<std::size_t>(pages, 100);
        const std::size_t n = rng() % 50 == 0 ? pages + rng() % 2
                                              : rng() % (longest + 1);
        const auto got = mem.alloc_contiguous(n);
        ASSERT_EQ(got, model.alloc_contiguous(n));
        if (got) held.emplace_back(*got, n);
      } else {
        const auto i = rng() % held.size();
        const auto [first, n] = held[i];
        held[i] = held.back();
        held.pop_back();
        if (n == 1 && rng() % 2 == 0) {
          mem.free_frame(first);
        } else {
          mem.free_contiguous(first, n);
        }
        for (auto f = first; f < first + n; ++f) model.free_frame(f);
      }
      ASSERT_EQ(mem.free_pages(), model.free_pages());
    }
  }
}

TEST(HostMemory, NeverWrittenFrameReadsZero) {
  HostMemory mem{64u << 20};
  mem.write(HostMemory::frame_addr(7), pattern(kPageSize));
  std::vector<std::byte> out(kPageSize, std::byte{0xff});
  mem.read(HostMemory::frame_addr(9000), out);
  EXPECT_EQ(out, std::vector<std::byte>(kPageSize));
}

TEST(HostMemory, MultiFrameViewIsContiguous) {
  HostMemory mem{16 * kPageSize};
  // Starts mid-frame and spans four frames.
  const hw::PhysAddr at = kPageSize + 100;
  const auto data = pattern(3 * kPageSize + 7, 5);
  const auto v = mem.view(at, data.size());
  ASSERT_EQ(v.size(), data.size());
  EXPECT_EQ(mem.view(at + 2 * kPageSize, 1).data(), v.data() + 2 * kPageSize);
  std::memcpy(v.data(), data.data(), data.size());
  std::vector<std::byte> out(data.size());
  mem.read(at, out);
  EXPECT_EQ(out, data);
}

TEST(HostMemory, FrameMisuseThrows) {
  HostMemory mem{8 * kPageSize};
  const auto f = mem.alloc_frame();
  ASSERT_TRUE(f.has_value());
  mem.free_frame(*f);
  EXPECT_THROW(mem.free_frame(*f), std::logic_error);
  EXPECT_THROW(mem.free_frame(8), std::out_of_range);
  const auto run = mem.alloc_contiguous(4);
  ASSERT_TRUE(run.has_value());
  mem.free_contiguous(*run, 4);
  EXPECT_THROW(mem.free_contiguous(*run, 4), std::logic_error);
  EXPECT_EQ(mem.free_pages(), 8u);
}

#ifdef __linux__
// Construction reserves address space only: 64 default-size node memories,
// each with one frame written, must not show up as 4 GiB of resident pages.
TEST(HostMemory, UntouchedPagesAreNotResident) {
  const auto max_rss_kib = [] {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss;  // KiB on Linux
  };
  const long before = max_rss_kib();
  std::vector<std::unique_ptr<HostMemory>> nodes;
  for (int i = 0; i < 64; ++i) {
    nodes.push_back(std::make_unique<HostMemory>(64u << 20));
    nodes.back()->write(HostMemory::frame_addr(*nodes.back()->alloc_frame()),
                        pattern(kPageSize));
  }
  EXPECT_LT(max_rss_kib() - before, 64l << 10);
}
#endif

TEST(Cpu, CycleCost) {
  Engine eng;
  hw::CpuConfig cfg;
  cfg.clock_hz = 100e6;
  hw::Cpu cpu{eng, "c", cfg};
  EXPECT_NEAR(cpu.cycles(100).to_us(), 1.0, 1e-9);
}

TEST(Cpu, MemcpyTwoRegimes) {
  Engine eng;
  hw::CpuConfig cfg;
  cfg.memcpy_bw_cached = 800e6;
  cfg.memcpy_bw_uncached = 400e6;
  cfg.cache_bytes = 1u << 20;
  cfg.memcpy_setup = Time::zero();
  hw::Cpu cpu{eng, "c", cfg};
  EXPECT_NEAR(cpu.memcpy_time(800).to_us(), 1.0, 1e-6);  // 800 B at 800 MB/s
  // Above the cache threshold the slower bandwidth applies.
  const std::size_t big = 2u << 20;
  EXPECT_NEAR(cpu.memcpy_time(big).to_us(), big / 400e6 * 1e6, 1e-3);
}

TEST(Cpu, CopyMovesBytesAndTakesTime) {
  Engine eng;
  HostMemory mem{8 * kPageSize};
  hw::Cpu cpu{eng, "c", {}};
  const auto data = pattern(4096);
  mem.write(0, data);
  eng.spawn([](hw::Cpu& c, HostMemory& m) -> Task<void> {
    co_await c.copy(m, /*dst=*/8192, /*src=*/0, 4096);
  }(cpu, mem));
  eng.run();
  std::vector<std::byte> out(4096);
  mem.read(8192, out);
  EXPECT_EQ(out, data);
  EXPECT_GT(eng.now(), Time::zero());
}

TEST(Cpu, CoreSerializesWork) {
  Engine eng;
  hw::Cpu cpu{eng, "c", {}};
  Time done1, done2;
  eng.spawn([](hw::Cpu& c, Time& d) -> Task<void> {
    co_await c.busy(Time::us(5.0));
    d = c.core().busy_time();
  }(cpu, done1));
  eng.spawn([](Engine& e, hw::Cpu& c, Time& d) -> Task<void> {
    co_await c.busy(Time::us(5.0));
    d = e.now();
  }(eng, cpu, done2));
  eng.run();
  EXPECT_EQ(eng.now(), Time::us(10.0));  // serialized, not parallel
}

TEST(PciBus, PioCostsMatchPaper) {
  Engine eng;
  hw::PciBus pci{eng, "pci", {}};
  eng.spawn([](hw::PciBus& p) -> Task<void> {
    co_await p.pio_write(10);
    co_await p.pio_read(2);
  }(pci));
  eng.run();
  // 10 * 0.24 + 2 * 0.98 = 4.36 us
  EXPECT_NEAR(eng.now().to_us(), 4.36, 1e-9);
  EXPECT_EQ(pci.pio_writes(), 10u);
  EXPECT_EQ(pci.pio_reads(), 2u);
}

TEST(PciBus, DmaBurstTiming) {
  Engine eng;
  hw::PciConfig cfg;
  cfg.dma_bw = 200e6;
  cfg.dma_setup = Time::us(0.5);
  hw::PciBus pci{eng, "pci", cfg};
  eng.spawn([](hw::PciBus& p) -> Task<void> {
    co_await p.burst(4000);
  }(pci));
  eng.run();
  EXPECT_NEAR(eng.now().to_us(), 0.5 + 4000 / 200.0, 1e-9);
  EXPECT_EQ(pci.dma_bytes(), 4000u);
}

TEST(PciBus, PioAndDmaContend) {
  Engine eng;
  hw::PciBus pci{eng, "pci", {}};
  Time pio_done;
  eng.spawn([](hw::PciBus& p) -> Task<void> {
    co_await p.burst(22000);  // 0.6 + 100 us on the bus
  }(pci));
  eng.spawn([](Engine& e, hw::PciBus& p, Time& d) -> Task<void> {
    co_await e.yield();  // let the DMA grab the bus first
    co_await p.pio_write(1);
    d = e.now();
  }(eng, pci, pio_done));
  eng.run();
  EXPECT_GT(pio_done.to_us(), 100.0);  // PIO had to wait for the burst
}

class NicDmaTest : public ::testing::Test {
 protected:
  Engine eng;
  HostMemory mem{64 * kPageSize};
  hw::PciBus pci{eng, "pci", {}};
  hw::Nic nic{eng, 0, "nic", pci, mem, {}};
};

TEST_F(NicDmaTest, GatherConcatenatesSegments) {
  const auto a = pattern(100, 1);
  const auto b = pattern(200, 2);
  mem.write(0, a);
  mem.write(kPageSize, b);
  std::vector<std::byte> out;
  eng.spawn([](hw::Nic& n, std::vector<std::byte>& o) -> Task<void> {
    // NB: build the vector first; gcc 12 miscompiles brace-init-lists that
    // appear directly inside co_await expressions.
    std::vector<PhysSegment> segs{{0, 100}, {kPageSize, 200}};
    co_await n.dma_gather(std::move(segs), o);
  }(nic, out));
  eng.run();
  ASSERT_EQ(out.size(), 300u);
  EXPECT_TRUE(std::memcmp(out.data(), a.data(), 100) == 0);
  EXPECT_TRUE(std::memcmp(out.data() + 100, b.data(), 200) == 0);
}

TEST_F(NicDmaTest, ScatterWritesSegments) {
  const auto data = pattern(300, 3);
  eng.spawn([](hw::Nic& n, const std::vector<std::byte>& d) -> Task<void> {
    std::vector<PhysSegment> segs{{512, 100}, {2 * kPageSize, 200}};
    co_await n.dma_scatter(d, std::move(segs));
  }(nic, data));
  eng.run();
  std::vector<std::byte> out(300);
  mem.read(512, std::span{out}.subspan(0, 100));
  mem.read(2 * kPageSize, std::span{out}.subspan(100, 200));
  EXPECT_TRUE(std::memcmp(out.data(), data.data(), 300) == 0);
}

TEST_F(NicDmaTest, ScatterSizeMismatchThrows) {
  const auto data = pattern(10);
  bool threw = false;
  eng.spawn([](hw::Nic& n, const std::vector<std::byte>& d,
               bool& t) -> Task<void> {
    try {
      std::vector<PhysSegment> segs{{0, 20}};
      co_await n.dma_scatter(d, std::move(segs));
    } catch (const std::logic_error&) {
      t = true;
    }
  }(nic, data, threw));
  eng.run();
  EXPECT_TRUE(threw);
}

TEST_F(NicDmaTest, SramAccounting) {
  EXPECT_TRUE(nic.sram_reserve(1u << 20));
  EXPECT_TRUE(nic.sram_reserve(1u << 20));
  EXPECT_FALSE(nic.sram_reserve(1));
  nic.sram_release(1u << 20);
  EXPECT_TRUE(nic.sram_reserve(512));
  EXPECT_THROW(nic.sram_release(4u << 20), std::logic_error);
}

TEST_F(NicDmaTest, TransmitWithoutFabricThrows) {
  bool threw = false;
  eng.spawn([](hw::Nic& n, bool& t) -> Task<void> {
    try {
      co_await n.transmit(hw::Packet{});
    } catch (const std::logic_error&) {
      t = true;
    }
  }(nic, threw));
  eng.run();
  EXPECT_TRUE(threw);
}

}  // namespace
