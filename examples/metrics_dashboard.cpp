// Metrics dashboard: a loaded 8-node cluster with the full observability
// pipeline on — registry counters/gauges across every layer, the periodic
// Sampler snapshotting gauges into a time series, and a Perfetto trace
// with spans, counter tracks, and per-message flow arrows.
//
// Writes six files into the output directory (default "."):
//   metrics.json     — registry snapshot (counters/gauges/summaries/histograms)
//   metrics.prom     — the same registry in Prometheus text exposition
//   metrics.csv      — the Sampler's gauge time series, one row per tick
//   trace.json       — chrome://tracing / ui.perfetto.dev trace with flows
//   congestion.json  — per-link congestion gauges (utilization, queue wait,
//                      wormhole blocking, occupancy high-water, retransmit
//                      heat), ranked hottest-first
//   postmortem.json  — a sample on-demand Postmortem snapshot of node 0
//                      (the same dump a peer-unreachable diagnosis emits)
//
// Build & run:  cmake -B build && cmake --build build
//               ./build/examples/metrics_dashboard [out_dir]
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "bcl/bcl.hpp"

using bcl::BclErr;
using bcl::Endpoint;
using bcl::PortId;
using sim::Task;

namespace {

constexpr int kNodes = 8;
constexpr int kRounds = 4;

// Each node streams system-channel messages of growing size to two
// neighbours (ring and stride-3), so every link, DMA engine, and event
// queue in the cluster sees traffic.
Task<void> sender(Endpoint& me, PortId ring, PortId stride) {
  auto buf = me.process().alloc(4096);
  for (int r = 0; r < kRounds; ++r) {
    const std::size_t bytes = static_cast<std::size_t>(64) << r;
    auto s = co_await me.send_system(ring, buf, bytes);
    if (!s.ok()) throw std::runtime_error(bcl::to_string(s.err));
    (void)co_await me.wait_send();
    s = co_await me.send_system(stride, buf, bytes / 2);
    if (!s.ok()) throw std::runtime_error(bcl::to_string(s.err));
    (void)co_await me.wait_send();
  }
}

// Every node is the ring target of one sender and the stride target of
// another: 2 * kRounds messages each.
Task<void> receiver(Endpoint& me) {
  for (int i = 0; i < 2 * kRounds; ++i) {
    auto ev = co_await me.wait_recv();
    (void)co_await me.copy_out_system(ev);
  }
}

// One bulk rendezvous transfer (node 0 -> node 4) so fragmentation and the
// scatter DMA path show up in the counters too.  It runs on a second port
// per node so its completion events never race the streaming receivers.
Task<void> bulk_sender(Endpoint& me, PortId dst) {
  auto buf = me.process().alloc(64 * 1024);
  auto s = co_await me.send(dst, bcl::ChannelRef{bcl::ChanKind::kNormal, 0},
                            buf, buf.len);
  if (!s.ok()) throw std::runtime_error(bcl::to_string(s.err));
  (void)co_await me.wait_send();
}

Task<void> bulk_receiver(Endpoint& me) {
  auto buf = me.process().alloc(64 * 1024);
  if (co_await me.post_recv(0, buf) != BclErr::kOk) {
    throw std::runtime_error("post_recv failed");
  }
  (void)co_await me.wait_recv();
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out{path, std::ios::binary};
  if (!out) throw std::runtime_error("cannot write " + path);
  out << content;
}

// Per-link congestion gauges as JSON, hottest link first (same ranking the
// post-mortem uses: retransmit heat, then queueing, then utilization).
std::string congestion_json(const std::vector<hw::Fabric::LinkStats>& links) {
  std::string out = "{\"links\": [";
  for (std::size_t i = 0; i < links.size(); ++i) {
    const auto& l = links[i];
    char buf[320];
    std::snprintf(
        buf, sizeof buf,
        "%s\n  {\"name\": \"%s\", \"util\": %.4f, \"busy_us\": %.3f, "
        "\"queue_wait_us\": %.3f, \"blocked_us\": %.3f, \"queue_hwm\": %zu, "
        "\"packets\": %llu, \"retx_packets\": %llu, \"dropped\": %llu}",
        i == 0 ? "" : ",", l.name.c_str(), l.util, l.busy_us, l.queue_wait_us,
        l.blocked_us, l.queue_hwm, static_cast<unsigned long long>(l.packets),
        static_cast<unsigned long long>(l.retx_packets),
        static_cast<unsigned long long>(l.dropped));
    out += buf;
  }
  out += "\n]}\n";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_dir = argc > 1 ? argv[1] : ".";

  bcl::ClusterConfig cfg;
  cfg.nodes = kNodes;
  bcl::BclCluster cluster{cfg};

  std::vector<Endpoint*> eps;
  for (int n = 0; n < kNodes; ++n) {
    eps.push_back(&cluster.open_endpoint(static_cast<hw::NodeId>(n)));
  }

  cluster.trace().enable();
  cluster.sampler().set_trace(&cluster.trace());
  cluster.start_sampler();

  for (int n = 0; n < kNodes; ++n) {
    cluster.engine().spawn(sender(*eps[n], eps[(n + 1) % kNodes]->id(),
                                  eps[(n + 3) % kNodes]->id()));
    cluster.engine().spawn(receiver(*eps[n]));
  }
  auto& bulk_rx = cluster.open_endpoint(4);
  auto& bulk_tx = cluster.open_endpoint(0);
  cluster.engine().spawn(bulk_receiver(bulk_rx));
  cluster.engine().spawn(bulk_sender(bulk_tx, bulk_rx.id()));
  cluster.engine().run();

  write_file(out_dir + "/metrics.json", cluster.metrics().to_json());
  write_file(out_dir + "/metrics.prom", cluster.metrics().to_prometheus());
  write_file(out_dir + "/metrics.csv", cluster.sampler().to_csv());
  write_file(out_dir + "/trace.json", cluster.trace().to_chrome_json());

  // Congestion gauges, ranked the way the post-mortem ranks them.
  auto links = cluster.fabric().congestion_report();
  std::sort(links.begin(), links.end(),
            [](const hw::Fabric::LinkStats& a, const hw::Fabric::LinkStats& b) {
              return std::make_tuple(a.retx_packets + a.dropped,
                                     a.queue_wait_us + a.blocked_us, a.util) >
                     std::make_tuple(b.retx_packets + b.dropped,
                                     b.queue_wait_us + b.blocked_us, b.util);
            });
  write_file(out_dir + "/congestion.json", congestion_json(links));

  // A sample post-mortem: the identical dump a real peer-unreachable or
  // collective-timeout diagnosis would capture, taken on demand for node 0.
  const bcl::Postmortem pm =
      bcl::build_postmortem(cluster, 0, "sample-snapshot", /*peer=*/-1,
                            "none (healthy run)", /*top_n=*/8);
  write_file(out_dir + "/postmortem.json", pm.to_json() + "\n");

  std::size_t flows = cluster.trace().flow_events().size();
  std::printf("simulated %s of an %d-node cluster under load\n",
              cluster.engine().now().str().c_str(), kNodes);
  std::printf("  counters:   %zu\n",
              cluster.metrics().counter_values().size());
  std::printf("  gauges:     %zu\n", cluster.metrics().gauge_values().size());
  std::printf("  summaries:  %zu\n", cluster.metrics().summaries().size());
  std::printf("  histograms: %zu\n", cluster.metrics().histograms().size());
  std::printf("  sampler ticks: %zu\n", cluster.sampler().samples());
  std::printf("  trace: %zu spans, %zu counter events, %zu flow events"
              " (%llu dropped at cap)\n",
              cluster.trace().events().size(),
              cluster.trace().counter_events().size(), flows,
              static_cast<unsigned long long>(
                  cluster.trace().dropped_events()));
  std::printf("  hottest links (util / queue_wait_us / hwm):\n");
  for (std::size_t i = 0; i < links.size() && i < 3; ++i) {
    std::printf("    %-10s %.1f%% / %.1f / %zu\n", links[i].name.c_str(),
                100.0 * links[i].util, links[i].queue_wait_us,
                links[i].queue_hwm);
  }
  std::printf("  flight recorder (node 0): %llu events, %zu retained\n",
              static_cast<unsigned long long>(
                  cluster.node(0).mcp().recorder().total()),
              cluster.node(0).mcp().recorder().size());
  std::printf("wrote metrics.json / metrics.prom / metrics.csv / trace.json"
              " / congestion.json / postmortem.json to %s\n",
              out_dir.c_str());
  return 0;
}
