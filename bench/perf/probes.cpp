// Outside-in host probes: plain timed loops over public layer functions, so
// each layer's host cost is visible without instrumenting the simulator.
// Every probe repeats one timed sample (see median_sample for how often) and
// reports the median sample.
#include <algorithm>
#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "bcl/bcl.hpp"
#include "hw/memory.hpp"
#include "hw/topology.hpp"
#include "perf.hpp"
#include "sim/engine.hpp"

namespace perf {

namespace {

// `sample` returns the host seconds per unit of one timed sample.  The count
// is capped: every fabric or stack built leaves its suspended pump
// coroutines behind, so a microsecond-scale constructor repeated for half a
// second would grow memory by hundreds of MB.
template <class F>
double median_sample(double min_seconds, F&& sample) {
  constexpr std::size_t kMaxSamples = 200;
  std::vector<double> xs;
  const auto t0 = Clock::now();
  while (xs.size() < 5 ||
         (xs.size() < kMaxSamples && seconds_since(t0) < min_seconds)) {
    xs.push_back(sample());
  }
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 ? xs[n / 2] : (xs[n / 2 - 1] + xs[n / 2]) / 2;
}

constexpr int kEvents = 10'000;

double coroutine_dispatch() {
  sim::Engine eng;
  eng.spawn([](sim::Engine& e) -> sim::Task<void> {
    for (int i = 0; i < kEvents; ++i) co_await e.sleep(sim::Time::ns(10));
  }(eng));
  const auto t = Clock::now();
  eng.run();
  return seconds_since(t) / kEvents;
}

double callback_dispatch() {
  sim::Engine eng;
  int left = kEvents;
  std::function<void()> tick = [&] {
    if (--left > 0) eng.schedule_fn(eng.now() + sim::Time::ns(10), tick);
  };
  eng.schedule_fn(sim::Time::ns(10), tick);
  const auto t = Clock::now();
  eng.run();
  return seconds_since(t) / kEvents;
}

double memory_ctor(std::size_t bytes) {
  const auto t = Clock::now();
  { hw::HostMemory mem{bytes}; }
  return seconds_since(t);
}

// One frame allocated and freed again, 4096 times over.
double frame_alloc(hw::HostMemory& mem) {
  constexpr int kFrames = 4096;
  std::vector<std::uint64_t> frames;
  frames.reserve(kFrames);
  const auto t = Clock::now();
  for (int i = 0; i < kFrames; ++i) frames.push_back(*mem.alloc_frame());
  for (const auto f : frames) mem.free_frame(f);
  return seconds_since(t) / kFrames;
}

// A 16-page run on a pool fragmented into single free frames, with the
// only 16-page run at the top: the allocator walks the whole free set.
double contiguous_alloc(hw::HostMemory& mem) {
  constexpr std::size_t kRun = 16;
  const auto t = Clock::now();
  const auto first = mem.alloc_contiguous(kRun);
  const double s = seconds_since(t);
  if (first) mem.free_contiguous(*first, kRun);
  return s;
}

void fragment(hw::HostMemory& mem) {
  std::vector<std::uint64_t> all;
  while (auto f = mem.alloc_frame()) all.push_back(*f);
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (i % 2 == 1 || i + 16 >= all.size()) mem.free_frame(all[i]);
  }
}

// write + read of 64 KiB through the bounds-checked byte store.
double memory_copy(hw::HostMemory& mem) {
  constexpr std::size_t kBytes = 64 << 10;
  constexpr int kRounds = 64;
  static std::vector<std::byte> src(kBytes, std::byte{0x5a});
  static std::vector<std::byte> dst(kBytes);
  const auto t = Clock::now();
  for (int i = 0; i < kRounds; ++i) {
    const hw::PhysAddr at = static_cast<hw::PhysAddr>(i % 16) * kBytes;
    mem.write(at, src);
    mem.read(at, dst);
  }
  return seconds_since(t) / (2.0 * kRounds * kBytes);
}

double fabric_ctor(const bcl::ClusterConfig& cfg) {
  sim::Engine eng;
  const auto t = Clock::now();
  auto fabric = hw::make_fabric(eng, cfg.nodes, cfg.fabric);
  return seconds_since(t);
}

// One node's full stack (memory, kernel, MCP, driver, metrics) on a private
// engine: the per-node share of cluster bring-up.
double stack_ctor(const bcl::ClusterConfig& cfg) {
  sim::Engine eng;
  sim::Trace trace{eng};
  sim::MetricRegistry reg;
  trace.set_registry(&reg);
  const auto t = Clock::now();
  auto stack = std::make_unique<bcl::NodeStack>(eng, 0, cfg, &trace, &reg);
  return seconds_since(t);
}

}  // namespace

std::map<std::string, double> run_probes(const std::string& workload,
                                         double min_seconds) {
  const bcl::ClusterConfig cfg = workload_cluster(workload);
  std::map<std::string, double> v;
  v["sim.engine.dispatch_ns"] =
      1e9 * median_sample(min_seconds, coroutine_dispatch);
  v["sim.engine.fn_dispatch_ns"] =
      1e9 * median_sample(min_seconds, callback_dispatch);
  v["hw.memory.ctor_ms"] = 1e3 * median_sample(min_seconds, [&] {
    return memory_ctor(cfg.node.mem_bytes);
  });
  {
    hw::HostMemory mem{cfg.node.mem_bytes};
    v["hw.memory.alloc_frame_ns"] =
        1e9 * median_sample(min_seconds, [&] { return frame_alloc(mem); });
    v["hw.memory.copy_gbps"] =
        1e-9 / median_sample(min_seconds, [&] { return memory_copy(mem); });
    fragment(mem);
    v["hw.memory.alloc_contig_us"] =
        1e6 * median_sample(min_seconds, [&] { return contiguous_alloc(mem); });
  }
  v["hw.fabric.ctor_ms"] =
      1e3 * median_sample(min_seconds, [&] { return fabric_ctor(cfg); });
  v["bcl.stack.ctor_ms_per_node"] =
      1e3 * median_sample(min_seconds, [&] { return stack_ctor(cfg); });
  return v;
}

}  // namespace perf
