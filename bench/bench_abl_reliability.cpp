// Ablation A1: the cost of the on-NIC reliable protocol.
//
// The paper attributes 5.65 us of the NIC stage to "perform the reliable
// transmission" and notes that reducing protocol overhead is a way to
// improve performance (section 5.4) — BIP demonstrates the other end of
// that trade-off.  Here we strip the go-back-N machinery (and the LANai
// cycles it burns), show what a corrupted link then does, sweep the
// fault-plan loss rate to chart the goodput/latency degradation curve, and
// compare dup-ack fast retransmit against the fixed-RTO baseline on a
// deterministic single loss.
//
// Flags: --loss <p>   run a single sweep point at drop probability p
//        --smoke      shrink message counts (CI sanitizer smoke)
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "bench_util.hpp"
#include "bcl/bcl.hpp"
#include "cluster/harness.hpp"
#include "hw/myrinet_switch.hpp"

namespace {

// Messages delivered out of `sent` over a corrupted link.
std::pair<std::uint64_t, std::uint64_t> lossy_run(bool reliable) {
  bcl::ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.cost.reliable = reliable;
  cfg.cost.rto = sim::Time::us(100);
  bcl::BclCluster c{cfg};
  dynamic_cast<hw::MyrinetFabric&>(c.fabric())
      .set_host_link_fault_plan(0, {.corrupt_prob = 0.03, .seed = 1000});
  auto& tx = c.open_endpoint(0);
  auto& rx = c.open_endpoint(1);
  constexpr std::uint64_t kMsgs = 200;
  c.engine().spawn([](bcl::Endpoint& tx, bcl::PortId dst) -> sim::Task<void> {
    auto buf = tx.process().alloc(2048);
    for (std::uint64_t i = 0; i < kMsgs; ++i) {
      (void)co_await tx.send_system(dst, buf, 2048);
      (void)co_await tx.wait_send();
    }
  }(tx, rx.id()));
  c.engine().spawn_daemon([](bcl::Endpoint& rx) -> sim::Task<void> {
    for (;;) {
      auto ev = co_await rx.wait_recv();
      (void)co_await rx.copy_out_system(ev);
    }
  }(rx));
  c.engine().run();
  return {kMsgs, rx.port().messages_received()};
}

struct SweepPoint {
  double loss = 0.0;
  double goodput_mbps = 0.0;
  double mean_latency_us = 0.0;
  std::uint64_t retransmissions = 0;
  std::uint64_t fast_retransmits = 0;
  std::uint64_t timeouts = 0;
};

// One point of the loss sweep: a 2-node stream of `msgs` 2 KB messages
// through a FaultPlan with drop p, corrupt p/2, reorder p/2 on the data
// direction.  Deterministic: the plan's own seeded stream drives every
// fault draw.
SweepPoint sweep_point(double p, std::uint64_t msgs) {
  constexpr std::size_t kBytes = 2048;
  bcl::ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.cost.rto = sim::Time::us(120);
  bcl::BclCluster c{cfg};
  if (p > 0.0) {
    hw::FaultPlan plan;
    plan.drop_prob = p;
    plan.corrupt_prob = p / 2;
    plan.reorder_prob = p / 2;
    plan.seed = 0xF001;
    dynamic_cast<hw::MyrinetFabric&>(c.fabric())
        .set_host_link_fault_plan(0, plan);
  }
  auto& tx = c.open_endpoint(0);
  auto& rx = c.open_endpoint(1);
  std::vector<sim::Time> sent(msgs), arrived(msgs);
  c.engine().spawn(
      [](sim::Engine& eng, bcl::Endpoint& tx, bcl::PortId dst,
         std::vector<sim::Time>& sent, std::uint64_t msgs) -> sim::Task<void> {
        auto buf = tx.process().alloc(kBytes);
        for (std::uint64_t i = 0; i < msgs; ++i) {
          sent[i] = eng.now();
          (void)co_await tx.send_system(dst, buf, kBytes);
          (void)co_await tx.wait_send();
        }
      }(c.engine(), tx, rx.id(), sent, msgs));
  c.engine().spawn(
      [](sim::Engine& eng, bcl::Endpoint& rx, std::vector<sim::Time>& arrived,
         std::uint64_t msgs) -> sim::Task<void> {
        // System-channel delivery is in-order, so arrival i matches send i.
        for (std::uint64_t i = 0; i < msgs; ++i) {
          auto ev = co_await rx.wait_recv();
          (void)co_await rx.copy_out_system(ev);
          arrived[i] = eng.now();
        }
      }(c.engine(), rx, arrived, msgs));
  c.engine().run();

  SweepPoint out;
  out.loss = p;
  double lat_sum = 0.0;
  for (std::uint64_t i = 0; i < msgs; ++i) {
    lat_sum += (arrived[i] - sent[i]).to_us();
  }
  out.mean_latency_us = lat_sum / static_cast<double>(msgs);
  const double elapsed_us = (arrived[msgs - 1] - sent[0]).to_us();
  out.goodput_mbps =
      static_cast<double>(msgs * kBytes) / elapsed_us;  // bytes/us = MB/s
  auto& mcp = c.node(0).mcp();
  out.retransmissions = mcp.recorder().count(bcl::NicEvent::kRetransmit);
  out.fast_retransmits = mcp.recorder().count(bcl::NicEvent::kFastRetransmit);
  out.timeouts = mcp.recorder().count(bcl::NicEvent::kTimeout);
  return out;
}

// Deterministic single-loss recovery: drop exactly one data packet
// mid-stream and report the latency spike it causes on the message that
// carried it.  With dup-ack fast retransmit the hole is repaired as soon
// as k later packets echo the stale cumulative ack; the fixed-RTO baseline
// waits out the full 300 us timer.
double single_loss_spike_us(bool fast_retransmit) {
  constexpr std::uint64_t kMsgs = 40;
  constexpr std::size_t kBytes = 1024;
  constexpr std::uint64_t kDropOrdinal = 10;  // 11th data packet on the wire
  bcl::ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.cost.rto = sim::Time::us(300);
  if (!fast_retransmit) {
    cfg.cost.adaptive_rto = false;  // fixed 300 us timer
    cfg.cost.dupack_k = 0;          // no dup-ack path
    cfg.cost.rto_backoff_jitter = 0.0;
  }
  bcl::BclCluster c{cfg};
  hw::FaultPlan plan;
  plan.drop_nth = {kDropOrdinal};
  dynamic_cast<hw::MyrinetFabric&>(c.fabric())
      .set_host_link_fault_plan(0, plan);
  auto& tx = c.open_endpoint(0);
  auto& rx = c.open_endpoint(1);
  std::vector<sim::Time> sent(kMsgs), arrived(kMsgs);
  c.engine().spawn(
      [](sim::Engine& eng, bcl::Endpoint& tx, bcl::PortId dst,
         std::vector<sim::Time>& sent) -> sim::Task<void> {
        auto buf = tx.process().alloc(kBytes);
        // Post everything up front so the go-back-N window stays full and
        // packets keep flowing behind the hole (dup-ack fuel).
        for (std::uint64_t i = 0; i < kMsgs; ++i) {
          sent[i] = eng.now();
          (void)co_await tx.send_system(dst, buf, kBytes);
        }
        for (std::uint64_t i = 0; i < kMsgs; ++i) {
          (void)co_await tx.wait_send();
        }
      }(c.engine(), tx, rx.id(), sent));
  c.engine().spawn(
      [](sim::Engine& eng, bcl::Endpoint& rx,
         std::vector<sim::Time>& arrived) -> sim::Task<void> {
        for (std::uint64_t i = 0; i < kMsgs; ++i) {
          auto ev = co_await rx.wait_recv();
          (void)co_await rx.copy_out_system(ev);
          arrived[i] = eng.now();
        }
      }(c.engine(), rx, arrived));
  c.engine().run();
  // The spike is the worst per-message latency — the message whose packet
  // was dropped (and those queued behind it in go-back-N order).
  double worst = 0.0;
  for (std::uint64_t i = 0; i < kMsgs; ++i) {
    const double lat = (arrived[i] - sent[i]).to_us();
    if (lat > worst) worst = lat;
  }
  return worst;
}

void print_sweep_json(const std::vector<SweepPoint>& series) {
  std::printf("{\"bench\":\"abl_reliability_loss_sweep\",\"series\":[");
  for (std::size_t i = 0; i < series.size(); ++i) {
    const auto& s = series[i];
    std::printf(
        "%s{\"loss\":%.4f,\"goodput_mbps\":%.2f,\"mean_latency_us\":%.2f,"
        "\"retransmissions\":%llu,\"fast_retransmits\":%llu,"
        "\"timeouts\":%llu}",
        i == 0 ? "" : ",", s.loss, s.goodput_mbps, s.mean_latency_us,
        (unsigned long long)s.retransmissions,
        (unsigned long long)s.fast_retransmits,
        (unsigned long long)s.timeouts);
  }
  std::printf("]}\n");
}

}  // namespace

int main(int argc, char** argv) {
  double single_loss = -1.0;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--loss") == 0 && i + 1 < argc) {
      single_loss = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    }
  }
  const std::uint64_t sweep_msgs = smoke ? 150 : 300;

  if (single_loss >= 0.0) {
    // Single-point mode (CI fault-sweep smoke under sanitizers): one run,
    // JSON out, exit 0 unless it hangs (the CI step timeout catches that).
    print_sweep_json({sweep_point(single_loss, sweep_msgs)});
    std::printf("fault-sweep smoke: ok\n");
    return 0;
  }

  benchutil::header("Ablation A1", "reliable protocol on the NIC");
  benchutil::claim(
      "5.65us of stage 4 is reliable-transmission processing; removing it "
      "approaches BIP's latency but forfeits delivery guarantees");

  bcl::ClusterConfig with;
  with.nodes = 2;
  bcl::ClusterConfig without = with;
  without.cost.reliable = false;
  without.cost.mcp_tx_proc = sim::Time::us(1.00);  // bare firmware
  without.cost.mcp_rx_proc = sim::Time::us(0.80);

  const auto lat_with = harness::bcl_oneway(with, 0, false);
  const auto lat_without = harness::bcl_oneway(without, 0, false);
  const auto bw_with = harness::bcl_oneway(with, 128 * 1024, false);
  const auto bw_without = harness::bcl_oneway(without, 128 * 1024, false);

  std::printf("%-26s %14s %16s\n", "configuration", "latency(us)",
              "bandwidth(MB/s)");
  std::printf("%-26s %14.2f %16.1f\n", "reliable (BCL default)",
              lat_with.oneway_us, bw_with.bandwidth_mbps());
  std::printf("%-26s %14.2f %16.1f\n", "no reliability",
              lat_without.oneway_us, bw_without.bandwidth_mbps());
  std::printf("\nprotocol cost on the 0-length path: %.2f us (paper ~5.65+, %s)\n",
              lat_with.oneway_us - lat_without.oneway_us,
              lat_with.oneway_us - lat_without.oneway_us > 4.0 ? "ok"
                                                               : "DIFF");

  const auto [sent_r, got_r] = lossy_run(true);
  const auto [sent_u, got_u] = lossy_run(false);
  std::printf("\n3%% corrupted link, %llu messages:\n",
              (unsigned long long)sent_r);
  std::printf("  reliable:   delivered %llu/%llu (%s)\n",
              (unsigned long long)got_r, (unsigned long long)sent_r,
              got_r == sent_r ? "ok" : "DIFF");
  std::printf("  unreliable: delivered %llu/%llu (losses expected: %s)\n",
              (unsigned long long)got_u, (unsigned long long)sent_u,
              got_u < sent_u ? "ok" : "DIFF");

  // -- loss-rate sweep: goodput/latency degradation curve ---------------------
  std::printf("\nloss sweep (drop p, corrupt p/2, reorder p/2; %llu x 2KB):\n",
              (unsigned long long)sweep_msgs);
  std::printf("%8s %16s %18s %10s %6s %9s\n", "loss", "goodput(MB/s)",
              "mean latency(us)", "retrans", "fast", "timeouts");
  const double losses[] = {0.0, 0.005, 0.01, 0.02, 0.035, 0.05};
  std::vector<SweepPoint> series;
  for (const double p : losses) series.push_back(sweep_point(p, sweep_msgs));
  for (const auto& s : series) {
    std::printf("%8.3f %16.1f %18.2f %10llu %6llu %9llu\n", s.loss,
                s.goodput_mbps, s.mean_latency_us,
                (unsigned long long)s.retransmissions,
                (unsigned long long)s.fast_retransmits,
                (unsigned long long)s.timeouts);
  }
  bool monotone = true;
  for (std::size_t i = 1; i < series.size(); ++i) {
    if (series[i].goodput_mbps > series[i - 1].goodput_mbps * 1.02) {
      monotone = false;  // 2% tolerance for reorder-vs-drop crosstalk
    }
  }
  std::printf("goodput degrades monotonically with loss: %s\n",
              monotone ? "ok" : "DIFF");
  print_sweep_json(series);

  // -- dup-ack fast retransmit vs fixed-RTO single-loss recovery --------------
  const double spike_fast = single_loss_spike_us(true);
  const double spike_fixed = single_loss_spike_us(false);
  std::printf("\nsingle dropped packet, 40 x 1KB stream, rto 300us:\n");
  std::printf("  fixed-RTO baseline spike: %8.2f us (>= 300us: %s)\n",
              spike_fixed, spike_fixed >= 300.0 ? "ok" : "DIFF");
  std::printf("  fast-retransmit spike:    %8.2f us (< 1 RTO: %s)\n",
              spike_fast, spike_fast < 300.0 ? "ok" : "DIFF");
  std::printf("  recovery gained: %.2f us\n", spike_fixed - spike_fast);
  return 0;
}
