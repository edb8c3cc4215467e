// Link/switch chaos: seeded fabric fail-stop under all-to-all load.
//
// Scenario A (failover): sixteen nodes run continuous all-to-all traffic
// while a seeded schedule flaps one host link (a brief outage that the
// retransmission ladder must absorb) and then kills one spine crossbar
// for good.  Every sender's default path to three of its cross-leaf
// destinations rides the dead spine, so every NIC must fail over.
// Asserted invariants:
//
//   * every completion is kOk — zero kPeerUnreachable, zero kPartitioned,
//     zero peer_failures anywhere (the fabric still has healthy spines);
//   * every node records at least one path failover after the kill, and
//     the slowest of those first failovers lands within 5 ms of the kill
//     (the RTO-strike ladder is bounded, not open-ended);
//   * post-kill goodput, measured after a settle window, holds at least
//     70% of the pre-kill rate on the three surviving spines;
//   * the dead switch's blast radius actually ate traffic (failed_drops).
//
// Scenario B (partition): a fresh cluster loses every spine at once, so a
// cross-leaf destination is genuinely unreachable.  The sender must
// converge to a kPartitioned verdict — not kPeerUnreachable, not a hang —
// and the postmortem must carry the full per-path strike table.
//
// The whole run is deterministic in --seed: one seed, one schedule, one
// verdict.  Flags: --smoke (CI shrink), --seed N.  Exit 1 on violation.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "bcl/bcl.hpp"
#include "hw/myrinet_switch.hpp"

namespace {

using sim::Task;
using sim::Time;

constexpr std::size_t kBytes = 512;  // single fragment at the default MTU
constexpr bcl::ChannelRef kSys{bcl::ChanKind::kSystem, 0};

// ---------------------------------------------------------------- scenario A

struct Ctx {
  Time t_end, t_flap, flap_dur, t_kill;
  Time pre_lo, pre_hi, post_lo, post_hi;  // goodput measurement windows
  std::uint64_t pre_bytes = 0, post_bytes = 0, total_bytes = 0;
  std::uint64_t completions = 0, would_block = 0, bad_completions = 0;
  std::uint64_t unreachable = 0, partitioned = 0;
  std::vector<std::uint64_t> base_failovers;  // per node, snapshot at kill
  std::vector<bool> failover_seen;
  std::vector<Time> failover_at;
};

Task<void> receiver(sim::Engine& eng, bcl::Endpoint& ep, Ctx& cx) {
  for (;;) {
    bcl::RecvEvent ev = co_await ep.wait_recv();
    auto data = co_await ep.copy_out_system(ev);
    const Time now = eng.now();
    cx.total_bytes += data.size();
    if (now >= cx.pre_lo && now < cx.pre_hi) {
      cx.pre_bytes += data.size();
    } else if (now >= cx.post_lo && now < cx.post_hi) {
      cx.post_bytes += data.size();
    }
  }
}

// One message at a time, completion matched by msg_id (the unreachable
// verdict also posts port-wide advisory events with msg_id 0 that belong
// to nobody).  Destinations cycle so every sender keeps revisiting the
// paths the chaos schedule is breaking.
Task<void> sender(sim::Engine& eng, bcl::Endpoint& ep, std::uint32_t me,
                  std::uint32_t nodes, std::uint64_t seed, Ctx& cx) {
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + me);
  std::uniform_int_distribution<int> gap_us(2, 12);
  auto buf = ep.process().alloc(kBytes);
  ep.process().fill_pattern(buf, me + 1);
  std::uint32_t i = 0;
  while (eng.now() < cx.t_end) {
    const auto dst = static_cast<hw::NodeId>((me + 1 + i) % nodes);
    ++i;
    if (dst == me) continue;
    auto r = co_await ep.send_deadline(bcl::PortId{dst, 0}, kSys, buf,
                                       kBytes, Time::ms(2));
    if (r.err == bcl::BclErr::kWouldBlock) {
      ++cx.would_block;  // credit-starved, never entered the NIC: retry
      co_await eng.sleep(Time::us(20));
      continue;
    }
    if (r.err != bcl::BclErr::kOk) {
      ++cx.bad_completions;
      continue;
    }
    for (;;) {
      bcl::SendEvent ev = co_await ep.wait_send();
      if (ev.msg_id != r.value) continue;
      ++cx.completions;
      if (ev.err != bcl::BclErr::kOk) {
        ++cx.bad_completions;
        if (ev.err == bcl::BclErr::kPeerUnreachable) ++cx.unreachable;
        if (ev.err == bcl::BclErr::kPartitioned) ++cx.partitioned;
      }
      break;
    }
    co_await eng.sleep(Time::us(gap_us(rng)));
  }
}

// The seeded chaos schedule: flap one host link (both directions, like a
// reseated cable), then kill one spine crossbar for the rest of the run.
Task<void> chaos(sim::Engine& eng, hw::MyrinetFabric& fab, Ctx& cx,
                 std::uint32_t victim, std::size_t spine) {
  co_await eng.sleep(cx.t_flap);
  const std::string up = "n" + std::to_string(victim) + "->sw";
  const std::string down = "sw->n" + std::to_string(victim);
  fab.link(up).fail();
  fab.link(down).fail();
  co_await eng.sleep(cx.flap_dur);
  fab.link(up).revive();
  fab.link(down).revive();
  co_await eng.sleep(cx.t_kill - eng.now());
  fab.fail_switch(fab.spine_switch_index(spine));
}

// Samples each node's failover counter so the first post-kill failover is
// timestamped without relying on the (bounded) flight-recorder ring.  The
// baseline at kill time excludes anything the flap provoked earlier.
Task<void> monitor(sim::Engine& eng, bcl::BclCluster& c, Ctx& cx) {
  co_await eng.sleep(cx.t_kill - eng.now());
  const std::uint32_t nodes = c.config().nodes;
  for (std::uint32_t n = 0; n < nodes; ++n) {
    cx.base_failovers[n] =
        c.node(n).mcp().recorder().count(bcl::NicEvent::kPathFailover);
  }
  while (eng.now() < cx.t_end) {
    for (std::uint32_t n = 0; n < nodes; ++n) {
      if (!cx.failover_seen[n] &&
          c.node(n).mcp().recorder().count(bcl::NicEvent::kPathFailover) >
              cx.base_failovers[n]) {
        cx.failover_seen[n] = true;
        cx.failover_at[n] = eng.now();
      }
    }
    co_await eng.sleep(Time::us(50));
  }
}

struct FailoverResult {
  bool ok = false;
  std::uint32_t victim = 0;
  std::size_t spine = 0;
  std::uint64_t completions = 0, would_block = 0, bad = 0;
  std::uint64_t unreachable = 0, partitioned = 0, peer_failures = 0;
  std::uint64_t flap_failovers = 0, restores = 0, failed_drops = 0;
  std::uint32_t failover_nodes = 0;
  double max_failover_latency_us = 0;
  double pre_mbps = 0, post_mbps = 0, ratio = 0;
};

FailoverResult run_failover(std::uint64_t seed, bool smoke) {
  constexpr std::uint32_t kNodes = 16;
  bcl::ClusterConfig cfg;
  cfg.nodes = kNodes;
  cfg.node.mem_bytes = 8u << 20;
  cfg.cost.rto = Time::us(100);
  cfg.cost.e2e_completion = true;  // completion == cumulative ack, so the
                                   // kOk verdict proves end-to-end arrival
  bcl::BclCluster c{cfg};
  auto& fab = dynamic_cast<hw::MyrinetFabric&>(c.fabric());

  std::mt19937_64 rng(seed);
  FailoverResult fr;
  fr.victim = static_cast<std::uint32_t>(rng() % kNodes);
  fr.spine = static_cast<std::size_t>(rng() % fab.spine_count());

  Ctx cx;
  const int scale = smoke ? 1 : 3;
  cx.t_end = Time::ms(10 * scale);
  cx.t_flap = Time::ms(2 * scale);
  cx.flap_dur = Time::us(300);
  cx.t_kill = Time::ms(4 * scale);
  cx.pre_lo = Time::ms(1);
  cx.pre_hi = cx.t_kill;
  cx.post_lo = cx.t_kill + Time::us(1500);  // skip the failover transient
  cx.post_hi = cx.t_end;
  cx.base_failovers.assign(kNodes, 0);
  cx.failover_seen.assign(kNodes, false);
  cx.failover_at.assign(kNodes, Time::zero());

  std::vector<bcl::Endpoint*> eps;
  for (std::uint32_t n = 0; n < kNodes; ++n) {
    eps.push_back(&c.open_endpoint(static_cast<hw::NodeId>(n)));
    c.engine().spawn_daemon(receiver(c.engine(), *eps.back(), cx));
  }
  for (std::uint32_t n = 0; n < kNodes; ++n) {
    c.engine().spawn(sender(c.engine(), *eps[n], n, kNodes, seed, cx));
  }
  c.engine().spawn(chaos(c.engine(), fab, cx, fr.victim, fr.spine));
  c.engine().spawn(monitor(c.engine(), c, cx));
  c.engine().run();

  fr.completions = cx.completions;
  fr.would_block = cx.would_block;
  fr.bad = cx.bad_completions;
  fr.unreachable = cx.unreachable;
  fr.partitioned = cx.partitioned;
  for (std::uint32_t n = 0; n < kNodes; ++n) {
    const auto& mcp = c.node(static_cast<hw::NodeId>(n)).mcp();
    fr.peer_failures += mcp.recorder().count(bcl::NicEvent::kPeerFailure);
    fr.flap_failovers += cx.base_failovers[n];
    fr.restores += mcp.recorder().count(bcl::NicEvent::kPathRestore);
    if (cx.failover_seen[n]) {
      ++fr.failover_nodes;
      const double lat = (cx.failover_at[n] - cx.t_kill).to_us();
      if (lat > fr.max_failover_latency_us) fr.max_failover_latency_us = lat;
    }
  }
  for (const auto& l : fab.congestion_report()) {
    fr.failed_drops += l.failed_drops;
  }
  const double pre_us = (cx.pre_hi - cx.pre_lo).to_us();
  const double post_us = (cx.post_hi - cx.post_lo).to_us();
  fr.pre_mbps = static_cast<double>(cx.pre_bytes) * 8.0 / pre_us;
  fr.post_mbps = static_cast<double>(cx.post_bytes) * 8.0 / post_us;
  fr.ratio = fr.pre_mbps > 0 ? fr.post_mbps / fr.pre_mbps : 0;

  fr.ok = fr.bad == 0 && fr.unreachable == 0 && fr.partitioned == 0 &&
          fr.peer_failures == 0 && fr.completions > 0 &&
          fr.failover_nodes == kNodes &&
          fr.max_failover_latency_us <= 5000.0 && fr.ratio >= 0.70 &&
          fr.failed_drops > 0;
  return fr;
}

// ---------------------------------------------------------------- scenario B

Task<void> drain(bcl::Endpoint& ep) {
  for (;;) {
    bcl::RecvEvent ev = co_await ep.wait_recv();
    (void)co_await ep.copy_out_system(ev);
  }
}

Task<bcl::BclErr> send_and_wait(bcl::Endpoint& ep, bcl::PortId dst,
                                const osk::UserBuffer& buf) {
  auto r = co_await ep.send_deadline(dst, kSys, buf, kBytes, Time::ms(50));
  if (r.err != bcl::BclErr::kOk) co_return r.err;
  for (;;) {
    bcl::SendEvent ev = co_await ep.wait_send();
    if (ev.msg_id == r.value) co_return ev.err;
  }
}

struct PartCtx {
  bcl::BclErr first = bcl::BclErr::kOk;
  bcl::BclErr second = bcl::BclErr::kOk;
};

Task<void> partition_driver(bcl::BclCluster& c, bcl::Endpoint& ep,
                            hw::NodeId dst, PartCtx& px) {
  auto& fab = dynamic_cast<hw::MyrinetFabric&>(c.fabric());
  auto buf = ep.process().alloc(kBytes);
  ep.process().fill_pattern(buf, 7);
  px.first = co_await send_and_wait(ep, bcl::PortId{dst, 0}, buf);
  for (std::size_t s = 0; s < fab.spine_count(); ++s) {
    fab.fail_switch(fab.spine_switch_index(s));
  }
  px.second = co_await send_and_wait(ep, bcl::PortId{dst, 0}, buf);
}

struct PartitionResult {
  bool ok = false;
  bcl::BclErr first = bcl::BclErr::kOk;
  bcl::BclErr second = bcl::BclErr::kOk;
  bool table_partitioned = false;
  bool postmortem_partitioned = false;  // reason field says "partitioned"
  bool postmortem_path_table = false;   // per-path strike table present
};

PartitionResult run_partition() {
  constexpr hw::NodeId kDst = 12;  // cross-leaf from node 0 at 16 nodes
  bcl::ClusterConfig cfg;
  cfg.nodes = 16;
  cfg.node.mem_bytes = 8u << 20;
  cfg.cost.rto = Time::us(60);
  cfg.cost.max_retries = 6;
  cfg.cost.e2e_completion = true;
  bcl::BclCluster c{cfg};

  auto& tx = c.open_endpoint(0);
  auto& rx = c.open_endpoint(kDst);
  c.engine().spawn_daemon(drain(rx));
  PartCtx px;
  c.engine().spawn(partition_driver(c, tx, kDst, px));
  c.engine().run();

  PartitionResult pr;
  pr.first = px.first;
  pr.second = px.second;
  pr.table_partitioned = c.node(0).mcp().path_table().partitioned(kDst);
  if (!c.postmortems().empty()) {
    const auto& pm = c.postmortems().front();
    pr.postmortem_partitioned = pm.reason == "partitioned";
    const auto it = pm.path_table.find(kDst);
    if (it != pm.path_table.end()) {
      const auto& d = it->second;
      bool all_quarantined = !d.paths.empty();
      for (const auto& p : d.paths) {
        if (!p.quarantined || p.total_strikes == 0) all_quarantined = false;
      }
      pr.postmortem_path_table = all_quarantined && d.partitioned;
    }
  }
  pr.ok = pr.first == bcl::BclErr::kOk &&
          pr.second == bcl::BclErr::kPartitioned && pr.table_partitioned &&
          pr.postmortem_partitioned && pr.postmortem_path_table;
  return pr;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::uint64_t seed = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    }
  }

  const FailoverResult fr = run_failover(seed, smoke);
  const PartitionResult pr = run_partition();
  const bool ok = fr.ok && pr.ok;

  std::printf(
      "{\"bench\":\"linkchaos\",\"seed\":%llu,\"smoke\":%s,\"nodes\":16,"
      "\"flap_victim\":%u,\"spine_killed\":%zu,\"completions\":%llu,"
      "\"would_block\":%llu,\"bad_completions\":%llu,\"unreachable\":%llu,"
      "\"partitioned\":%llu,\"peer_failures\":%llu,\"failover_nodes\":%u,"
      "\"max_failover_latency_us\":%.1f,\"pre_goodput_mbps\":%.1f,"
      "\"post_goodput_mbps\":%.1f,\"goodput_ratio\":%.3f,"
      "\"flap_failovers\":%llu,\"path_restores\":%llu,"
      "\"failed_drops\":%llu,\"partition_first\":\"%s\","
      "\"partition_second\":\"%s\",\"partition_flag\":%s,"
      "\"postmortem_partitioned\":%s,\"postmortem_path_table\":%s,"
      "\"verdict\":\"%s\"}\n",
      static_cast<unsigned long long>(seed), smoke ? "true" : "false",
      fr.victim, fr.spine,
      static_cast<unsigned long long>(fr.completions),
      static_cast<unsigned long long>(fr.would_block),
      static_cast<unsigned long long>(fr.bad),
      static_cast<unsigned long long>(fr.unreachable),
      static_cast<unsigned long long>(fr.partitioned),
      static_cast<unsigned long long>(fr.peer_failures), fr.failover_nodes,
      fr.max_failover_latency_us, fr.pre_mbps, fr.post_mbps, fr.ratio,
      static_cast<unsigned long long>(fr.flap_failovers),
      static_cast<unsigned long long>(fr.restores),
      static_cast<unsigned long long>(fr.failed_drops),
      bcl::to_string(pr.first), bcl::to_string(pr.second),
      pr.table_partitioned ? "true" : "false",
      pr.postmortem_partitioned ? "true" : "false",
      pr.postmortem_path_table ? "true" : "false", ok ? "ok" : "violated");
  std::printf("link chaos (seed %llu): %s\n",
              static_cast<unsigned long long>(seed), ok ? "ok" : "DIFF");
  return ok ? 0 : 1;
}
