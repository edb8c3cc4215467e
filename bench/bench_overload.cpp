// Overload behavior: credit-based flow control vs the paper's
// drop-on-overflow pool.
//
// Two scenarios: a producer/consumer pair where the consumer drains each
// message `drain_us` late (slow-receiver sweep), and an 8-to-1 incast.
// With flow control off the receiving pool overflows and the paper's
// semantics discard payloads (sys_drops); with it on, senders park on
// credits and nothing is lost.  The price must be small: at zero
// contention the credited path has to stay within 10% of the uncredited
// goodput.
//
// Flags: --smoke   shrink message counts, emit one JSON line, exit 1 on
//                  any acceptance violation (CI sanitizer job)
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "bcl/bcl.hpp"

namespace {

constexpr std::size_t kBytes = 1024;

struct Point {
  double drain_us = 0.0;
  bool fc = false;
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t pool_drops = 0;  // sys_drops + not_posted_drops
  std::uint64_t stalls = 0;      // sender credit stalls
  std::uint64_t rnr_tx = 0;      // receiver RNR-NACKs
  std::uint64_t fc_updates = 0;  // standalone credit updates
  double credit_rtt_us = 0.0;    // mean stall duration
  double goodput_mbps = 0.0;
};

// One producer, one consumer that sleeps `drain_us` before freeing each
// pool slot.
Point slow_receiver_point(double drain_us, bool fc, std::uint64_t msgs) {
  bcl::ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.node.mem_bytes = 8u << 20;
  cfg.cost.sys_slots = 16;
  cfg.cost.fc_initial_credits = 16;
  cfg.cost.flow_control = fc;
  bcl::BclCluster c{cfg};
  auto& tx = c.open_endpoint(0);
  auto& rx = c.open_endpoint(1);

  sim::Time last_arrival = sim::Time::zero();
  c.engine().spawn([](bcl::Endpoint& tx, bcl::PortId dst,
                      std::uint64_t msgs) -> sim::Task<void> {
    auto buf = tx.process().alloc(kBytes);
    for (std::uint64_t i = 0; i < msgs; ++i) {
      (void)co_await tx.send_system(dst, buf, kBytes);
      (void)co_await tx.wait_send();
    }
  }(tx, rx.id(), msgs));
  c.engine().spawn_daemon([](sim::Engine& eng, bcl::Endpoint& rx,
                             double drain_us,
                             sim::Time& last) -> sim::Task<void> {
    for (;;) {
      auto ev = co_await rx.wait_recv();
      if (drain_us > 0.0) co_await eng.sleep(sim::Time::us(drain_us));
      (void)co_await rx.copy_out_system(ev);
      last = eng.now();
    }
  }(c.engine(), rx, drain_us, last_arrival));
  c.engine().run();

  Point p;
  p.drain_us = drain_us;
  p.fc = fc;
  p.sent = msgs;
  p.delivered = rx.port().messages_received();
  p.pool_drops = rx.port().sys_drops() + rx.port().not_posted_drops();
  p.stalls = c.node(0).mcp().flow().stalls();
  p.rnr_tx = c.node(1).mcp().recorder().count(bcl::NicEvent::kRnrNackTx);
  p.fc_updates =
      c.node(1).mcp().recorder().count(bcl::NicEvent::kCreditUpdateTx);
  p.credit_rtt_us = c.metrics().summary("node0.nic.fc.credit_rtt_us").mean();
  const double elapsed_us = last_arrival.to_us();
  if (elapsed_us > 0.0) {
    p.goodput_mbps =
        static_cast<double>(p.delivered * kBytes) / elapsed_us;  // MB/s
  }
  return p;
}

// N senders converge on one port whose consumer drains at 20 us/message
// (slower than the NIC can deliver, so the pool genuinely backs up).
Point incast_point(bool fc, int senders, std::uint64_t per_sender) {
  bcl::ClusterConfig cfg;
  cfg.nodes = static_cast<std::uint32_t>(senders) + 1;
  cfg.node.mem_bytes = 8u << 20;
  cfg.cost.sys_slots = 16;
  cfg.cost.fc_initial_credits = 16;
  cfg.cost.flow_control = fc;
  bcl::BclCluster c{cfg};
  const auto rx_node = static_cast<hw::NodeId>(senders);
  auto& rx = c.open_endpoint(rx_node);

  sim::Time last_arrival = sim::Time::zero();
  for (int s = 0; s < senders; ++s) {
    auto& tx = c.open_endpoint(static_cast<hw::NodeId>(s));
    c.engine().spawn([](bcl::Endpoint& tx, bcl::PortId dst,
                        std::uint64_t msgs) -> sim::Task<void> {
      auto buf = tx.process().alloc(kBytes);
      for (std::uint64_t i = 0; i < msgs; ++i) {
        (void)co_await tx.send_system(dst, buf, kBytes);
        (void)co_await tx.wait_send();
      }
    }(tx, rx.id(), per_sender));
  }
  c.engine().spawn_daemon([](sim::Engine& eng, bcl::Endpoint& rx,
                             sim::Time& last) -> sim::Task<void> {
    for (;;) {
      auto ev = co_await rx.wait_recv();
      co_await eng.sleep(sim::Time::us(20));
      (void)co_await rx.copy_out_system(ev);
      last = eng.now();
    }
  }(c.engine(), rx, last_arrival));
  c.engine().run();

  Point p;
  p.drain_us = 20.0;
  p.fc = fc;
  p.sent = static_cast<std::uint64_t>(senders) * per_sender;
  p.delivered = rx.port().messages_received();
  p.pool_drops = rx.port().sys_drops() + rx.port().not_posted_drops();
  for (int s = 0; s < senders; ++s) {
    p.stalls += c.node(static_cast<hw::NodeId>(s)).mcp().flow().stalls();
  }
  p.rnr_tx = c.node(rx_node).mcp().recorder().count(bcl::NicEvent::kRnrNackTx);
  p.fc_updates =
      c.node(rx_node).mcp().recorder().count(bcl::NicEvent::kCreditUpdateTx);
  const double elapsed_us = last_arrival.to_us();
  if (elapsed_us > 0.0) {
    p.goodput_mbps = static_cast<double>(p.delivered * kBytes) / elapsed_us;
  }
  return p;
}

void print_json(const std::vector<Point>& sweep, const Point& in_on,
                const Point& in_off, bool ok) {
  std::printf("{\"bench\":\"overload\",\"slow_receiver\":[");
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const auto& p = sweep[i];
    std::printf("%s{\"drain_us\":%.1f,\"fc\":%s,\"sent\":%llu,"
                "\"delivered\":%llu,\"pool_drops\":%llu,\"goodput_mbps\":%.1f,"
                "\"stalls\":%llu,\"rnr_tx\":%llu,\"fc_updates\":%llu,"
                "\"credit_rtt_us\":%.2f}",
                i == 0 ? "" : ",", p.drain_us, p.fc ? "true" : "false",
                (unsigned long long)p.sent, (unsigned long long)p.delivered,
                (unsigned long long)p.pool_drops, p.goodput_mbps,
                (unsigned long long)p.stalls, (unsigned long long)p.rnr_tx,
                (unsigned long long)p.fc_updates, p.credit_rtt_us);
  }
  std::printf("],\"incast\":[");
  for (const Point* p : {&in_on, &in_off}) {
    std::printf("%s{\"fc\":%s,\"sent\":%llu,\"delivered\":%llu,"
                "\"pool_drops\":%llu,\"goodput_mbps\":%.1f,\"stalls\":%llu,"
                "\"rnr_tx\":%llu}",
                p == &in_on ? "" : ",", p->fc ? "true" : "false",
                (unsigned long long)p->sent, (unsigned long long)p->delivered,
                (unsigned long long)p->pool_drops, p->goodput_mbps,
                (unsigned long long)p->stalls, (unsigned long long)p->rnr_tx);
  }
  std::printf("],\"ok\":%s}\n", ok ? "true" : "false");
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const std::uint64_t msgs = smoke ? 150 : 400;
  const std::uint64_t incast_per = smoke ? 20 : 50;

  const std::vector<double> drains =
      smoke ? std::vector<double>{0.0, 40.0}
            : std::vector<double>{0.0, 5.0, 10.0, 20.0, 40.0, 80.0};
  std::vector<Point> sweep;
  for (const double d : drains) {
    sweep.push_back(slow_receiver_point(d, true, msgs));
    sweep.push_back(slow_receiver_point(d, false, msgs));
  }
  const Point in_on = incast_point(true, 8, incast_per);
  const Point in_off = incast_point(false, 8, incast_per);

  // -- acceptance -------------------------------------------------------------
  // 1. Credited runs never drop: every payload the sender launched lands.
  bool fc_lossless = in_on.pool_drops == 0 && in_on.delivered == in_on.sent;
  for (const auto& p : sweep) {
    if (p.fc) {
      fc_lossless = fc_lossless && p.pool_drops == 0 && p.delivered == p.sent;
    }
  }
  // 2. The uncredited baseline really overflows somewhere in the sweep
  //    (otherwise the comparison proves nothing).
  bool baseline_drops = in_off.pool_drops > 0;
  for (const auto& p : sweep) {
    if (!p.fc && p.drain_us >= 40.0) baseline_drops |= p.pool_drops > 0;
  }
  // 3. Flow control is ~free when uncontended: >= 90% of the uncredited
  //    goodput at zero drain delay.
  double gp_on = 0.0, gp_off = 0.0;
  for (const auto& p : sweep) {
    if (p.drain_us == 0.0) (p.fc ? gp_on : gp_off) = p.goodput_mbps;
  }
  const bool cheap = gp_on >= 0.9 * gp_off;
  const bool ok = fc_lossless && baseline_drops && cheap;

  if (smoke) {
    print_json(sweep, in_on, in_off, ok);
    std::printf("overload smoke: %s\n", ok ? "ok" : "DIFF");
    return ok ? 0 : 1;
  }

  benchutil::header("Overload", "credit flow control vs pool overflow");
  benchutil::claim(
      "with credits, a slow or converged-upon receiver stalls its senders "
      "instead of discarding payloads, at <10% goodput cost when idle");

  std::printf("%9s %4s %6s %10s %11s %14s %8s %7s %9s\n", "drain(us)", "fc",
              "sent", "delivered", "pool_drops", "goodput(MB/s)", "stalls",
              "rnr", "upd");
  for (const auto& p : sweep) {
    std::printf("%9.1f %4s %6llu %10llu %11llu %14.1f %8llu %7llu %9llu\n",
                p.drain_us, p.fc ? "on" : "off", (unsigned long long)p.sent,
                (unsigned long long)p.delivered,
                (unsigned long long)p.pool_drops, p.goodput_mbps,
                (unsigned long long)p.stalls, (unsigned long long)p.rnr_tx,
                (unsigned long long)p.fc_updates);
  }
  std::printf("\n8-to-1 incast, %llu msgs/sender, 20us drain:\n",
              (unsigned long long)incast_per);
  for (const Point* p : {&in_on, &in_off}) {
    std::printf("  fc %-3s delivered %llu/%llu, pool_drops %llu, "
                "goodput %.1f MB/s, stalls %llu, rnr %llu\n",
                p->fc ? "on" : "off", (unsigned long long)p->delivered,
                (unsigned long long)p->sent,
                (unsigned long long)p->pool_drops, p->goodput_mbps,
                (unsigned long long)p->stalls, (unsigned long long)p->rnr_tx);
  }
  std::printf("\ncredited runs lose nothing:          %s\n",
              fc_lossless ? "ok" : "DIFF");
  std::printf("uncredited baseline overflows:       %s\n",
              baseline_drops ? "ok" : "DIFF");
  std::printf("goodput cost when uncontended < 10%%: %s (%.1f vs %.1f MB/s)\n",
              cheap ? "ok" : "DIFF", gp_on, gp_off);
  print_json(sweep, in_on, in_off, ok);
  return 0;
}
