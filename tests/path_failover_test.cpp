// Fabric fault tolerance: NIC-resident multipath failover.
//
// The PathTable's strike/quarantine/rotate/restore lifecycle; the
// multipath route enumeration's structural properties (termination at the
// destination, no repeated switch, hop agreement) at every supported
// cluster size; the ECN-independence guarantee (congestion alone must
// never trigger a failover); a spine killed mid-stream forcing a rotation
// that completes every send with no unreachable verdict; credit probes and
// their answering updates riding the failed-over path; all spines dead
// yielding the distinct "partitioned" verdict with a full per-path strike
// table in the postmortem; and the malformed-route flight-recorder hook's
// rate limit and its wiring to the sender's recorder.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bcl/bcl.hpp"
#include "bcl/pathtable.hpp"
#include "hw/myrinet_switch.hpp"
#include "sim/engine.hpp"

namespace {

using sim::Task;
using sim::Time;

constexpr std::size_t kBytes = 256;

hw::MyrinetFabric& myrinet(bcl::BclCluster& c) {
  return dynamic_cast<hw::MyrinetFabric&>(c.fabric());
}

std::uint64_t count_kind(const bcl::Mcp& m, bcl::NicEvent k) {
  std::uint64_t n = 0;
  for (const auto& e : m.recorder().snapshot()) n += e.kind == k ? 1 : 0;
  return n;
}

// Drains every delivery on rx forever (spawned as a daemon) so the system
// pool keeps cycling; bumps `delivered` per message.
Task<void> drain_rx(bcl::Endpoint& rx, int& delivered) {
  for (;;) {
    bcl::RecvEvent ev = co_await rx.wait_recv();
    (void)co_await rx.copy_out_system(ev);
    ++delivered;
  }
}

// Sends `n` messages sequentially, matching each completion by msg id (the
// unreachable/partitioned verdict also posts port-wide advisory events
// with msg_id 0 that are not this send's).  Records each verdict.
Task<void> send_stream(bcl::Endpoint& tx, bcl::PortId dst, int n,
                       std::vector<bcl::BclErr>& errs) {
  auto buf = tx.process().alloc(kBytes);
  tx.process().fill_pattern(buf, 5);
  for (int i = 0; i < n; ++i) {
    auto r = co_await tx.send_system(dst, buf, kBytes);
    if (r.err != bcl::BclErr::kOk) {
      errs.push_back(r.err);
      continue;
    }
    for (;;) {
      bcl::SendEvent ev = co_await tx.wait_send();
      if (ev.msg_id == r.value) {
        errs.push_back(ev.err);
        break;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// PathTable unit semantics: strikes quarantine at the threshold, rotation
// is round-robin over healthy paths, the last quarantine flips to
// partitioned, and an answered probe restores (clearing the partition).
// ---------------------------------------------------------------------------
TEST(PathTable, StrikeQuarantineRotateRestorePartition) {
  sim::Engine eng;
  bcl::PathTable t{eng, 3};
  using R = bcl::PathTable::StrikeResult;

  EXPECT_EQ(t.current(9), hw::kDefaultPath);  // untracked: fabric default
  EXPECT_EQ(t.strike(9), R::kNoChange);

  t.init(9, 4);
  ASSERT_TRUE(t.tracked(9));
  // Initial current reproduces MyrinetFabric::spine_for: dst % routes.
  EXPECT_EQ(t.current(9), 9 % 4);

  // Two strikes stay put; forward progress clears them.
  EXPECT_EQ(t.strike(9), R::kNoChange);
  EXPECT_EQ(t.strike(9), R::kNoChange);
  t.note_good(9);
  EXPECT_EQ(t.strike(9), R::kNoChange);
  EXPECT_EQ(t.strike(9), R::kNoChange);
  EXPECT_EQ(t.current(9), 1);  // still on the initial path

  // Third consecutive strike rotates: 1 -> 2 -> 3 -> 0 -> partitioned.
  EXPECT_EQ(t.strike(9), R::kFailedOver);
  EXPECT_EQ(t.current(9), 2);
  EXPECT_TRUE(t.is_quarantined(9, 1));
  for (int s = 0; s < 3; ++s) EXPECT_EQ(t.strike(9), s < 2 ? R::kNoChange
                                                           : R::kFailedOver);
  EXPECT_EQ(t.current(9), 3);
  for (int s = 0; s < 3; ++s) EXPECT_EQ(t.strike(9), s < 2 ? R::kNoChange
                                                           : R::kFailedOver);
  EXPECT_EQ(t.current(9), 0);
  for (int s = 0; s < 3; ++s) EXPECT_EQ(t.strike(9), s < 2 ? R::kNoChange
                                                           : R::kPartitioned);
  EXPECT_TRUE(t.partitioned(9));
  EXPECT_EQ(t.quarantined_count(), 4u);
  // Strikes against a partitioned destination change nothing.
  EXPECT_EQ(t.strike(9), R::kNoChange);

  // An answered probe on path 2 heals it: the partition lifts, current
  // moves off its quarantined path, and a repeat restore is a no-op.
  EXPECT_TRUE(t.restore(9, 2));
  EXPECT_FALSE(t.partitioned(9));
  EXPECT_EQ(t.current(9), 2);
  EXPECT_FALSE(t.restore(9, 2));

  ASSERT_EQ(t.dests().size(), 1u);
  ASSERT_EQ(t.dests().count(9), 1u);
  const auto& paths = t.dests().at(9).paths;
  ASSERT_EQ(paths.size(), 4u);
  EXPECT_EQ(paths[1].total_strikes, 5u);  // 2 cleared + 2 + rotation
}

// ---------------------------------------------------------------------------
// routes(src, dst) structural properties at every supported size: each
// route, interpreted against the leaf/spine forwarding model, terminates
// at dst without visiting any switch twice; its length agrees with
// hops(); alternative routes use pairwise-distinct spines; and the
// default-path stamp is byte-identical to the static route.
// ---------------------------------------------------------------------------
TEST(PathFailover, RoutesTerminateWithoutLoopsAtAllSizes) {
  for (const std::uint32_t n : {4u, 8u, 16u, 32u}) {
    sim::Engine eng;
    hw::MyrinetFabric fab{eng, n};
    const bool two_level = n > static_cast<std::uint32_t>(fab.kPorts);
    const int hpl = fab.hosts_per_leaf();
    for (hw::NodeId src = 0; src < n; ++src) {
      for (hw::NodeId dst = 0; dst < n; ++dst) {
        if (src == dst) continue;
        const auto rs = fab.routes(src, dst);
        ASSERT_EQ(static_cast<int>(rs.size()), fab.route_count(src, dst));
        const bool cross_leaf =
            two_level && static_cast<int>(src) / hpl !=
                             static_cast<int>(dst) / hpl;
        EXPECT_EQ(rs.size(), cross_leaf ? fab.spine_count() : 1u);

        std::set<int> spines_used;
        for (const auto& route : rs) {
          // Walk the route through the forwarding model.  State: which
          // switch holds the packet ({is_spine, index}); entry is always
          // the source's leaf (or the single switch).
          bool at_spine = false;
          int sw = two_level ? static_cast<int>(src) / hpl : 0;
          std::set<std::pair<bool, int>> visited;
          int landed = -1;
          for (std::size_t i = 0; i < route.size(); ++i) {
            ASSERT_TRUE(visited.insert({at_spine, sw}).second)
                << "switch revisited: " << src << "->" << dst;
            const int port = route[i];
            ASSERT_GE(port, 0);
            ASSERT_LT(port, fab.kPorts);
            if (!two_level) {
              landed = port;
              ASSERT_EQ(i + 1, route.size());
            } else if (at_spine) {
              sw = port;  // spine port p connects down to leaf p
              at_spine = false;
            } else if (port < hpl) {
              landed = sw * hpl + port;  // leaf host port: terminal
              ASSERT_EQ(i + 1, route.size());
            } else {
              spines_used.insert(port - hpl);
              sw = port - hpl;  // leaf uplink to spine
              at_spine = true;
            }
          }
          EXPECT_EQ(landed, static_cast<int>(dst))
              << "route does not terminate at dst: " << src << "->" << dst;
          EXPECT_EQ(route.size() + 1,
                    static_cast<std::size_t>(fab.hops(src, dst)));
        }
        if (cross_leaf) {
          // One route per spine, all distinct.
          EXPECT_EQ(spines_used.size(), rs.size());
          // path_id pins the spine, and the default stamp reproduces the
          // static route exactly (spine_for == dst % spines).
          for (std::uint8_t pid = 0; pid < rs.size(); ++pid) {
            EXPECT_EQ(fab.route_via(src, dst, pid), rs[pid]);
          }
          hw::Packet p;
          p.src_node = src;
          p.dst_node = dst;
          fab.stamp_route(p);
          EXPECT_EQ(p.route, rs[dst % rs.size()]);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// ECN-independence: an 8-to-1 incast generates marks and congestion-
// inflated RTTs, but with no fault in the fabric not a single path may be
// struck out — failover keys on RTO expiries that congestion's adaptive
// RTO and drain allowance absorb.
// ---------------------------------------------------------------------------
TEST(PathFailover, CongestionAloneNeverTriggersFailover) {
  constexpr int kSenders = 8;
  constexpr int kPerSender = 25;
  // Multi-fragment messages with staged (local) completion: each sender
  // keeps its go-back-N window full, so the eight streams really overlap
  // at the receiver's host link and the incast queues deep enough to mark.
  constexpr std::size_t kMsgBytes = 4096;
  bcl::ClusterConfig cfg;
  cfg.nodes = 16;
  cfg.node.mem_bytes = 8u << 20;
  bcl::BclCluster c{cfg};

  const hw::NodeId rx_node = 0;
  auto& rx = c.open_endpoint(rx_node);
  int delivered = 0;
  c.engine().spawn_daemon(drain_rx(rx, delivered));

  // Senders 4..11: all cross-leaf toward node 0, so multipath is armed on
  // every one of them.
  std::vector<std::vector<bcl::BclErr>> errs(kSenders);
  std::vector<bcl::Endpoint*> txs;
  for (int s = 0; s < kSenders; ++s) {
    auto& tx = c.open_endpoint(static_cast<hw::NodeId>(4 + s));
    txs.push_back(&tx);
    c.engine().spawn([](bcl::Endpoint& tx, bcl::PortId dst,
                        std::vector<bcl::BclErr>& e) -> Task<void> {
      auto buf = tx.process().alloc(kMsgBytes);
      tx.process().fill_pattern(buf, 2);
      for (int i = 0; i < kPerSender; ++i) {
        auto r = co_await tx.send_system(dst, buf, kMsgBytes);
        EXPECT_EQ(r.err, bcl::BclErr::kOk);
        if (r.err != bcl::BclErr::kOk) continue;
        for (;;) {
          bcl::SendEvent ev = co_await tx.wait_send();
          if (ev.msg_id == r.value) {
            e.push_back(ev.err);
            break;
          }
        }
      }
    }(tx, rx.id(), errs[static_cast<std::size_t>(s)]));
  }
  c.engine().run();

  EXPECT_EQ(delivered, kSenders * kPerSender);
  // The incast really congested: the receiver saw ECN-marked packets.
  EXPECT_GT(c.node(rx_node).mcp().recorder().count(bcl::NicEvent::kEcnMarkRx),
            0u);
  for (int s = 0; s < kSenders; ++s) {
    const auto nid = static_cast<hw::NodeId>(4 + s);
    const auto& mcp = c.node(nid).mcp();
    for (const auto e : errs[static_cast<std::size_t>(s)]) {
      EXPECT_EQ(e, bcl::BclErr::kOk);
    }
    // The guarantee under test: zero failovers, zero quarantines, zero
    // kPathFailover events — congestion never looks like a dead path.
    EXPECT_EQ(mcp.recorder().count(bcl::NicEvent::kPathFailover), 0u)
        << "sender " << nid;
    EXPECT_EQ(mcp.path_table().quarantined_count(), 0u) << "sender " << nid;
    EXPECT_EQ(count_kind(mcp, bcl::NicEvent::kPathFailover), 0u)
        << "sender " << nid;
    EXPECT_EQ(mcp.recorder().count(bcl::NicEvent::kPeerFailure), 0u)
        << "sender " << nid;
  }
}

// ---------------------------------------------------------------------------
// A spine killed mid-stream: the session strikes out the dead path,
// rotates, and every send completes kOk — no unreachable verdict, at
// least one kPathFailover recorded, the dead path quarantined.  After the
// spine revives, the background prober requalifies it (kPathRestore).
// ---------------------------------------------------------------------------
TEST(PathFailover, SpineKillFailsOverMidStreamAndProbeRestores) {
  constexpr int kMsgs = 40;
  bcl::ClusterConfig cfg;
  cfg.nodes = 16;
  cfg.node.mem_bytes = 8u << 20;
  cfg.cost.rto = Time::us(80);
  cfg.cost.e2e_completion = true;
  bcl::BclCluster c{cfg};
  auto& fab = myrinet(c);

  // Node 0 -> node 12 is cross-leaf; the default path is spine_for(12) =
  // 12 % 4 = 0.  Delivery #10 kills that spine; a timer revives it 2 ms
  // later, inside the prober's budget.
  const hw::NodeId dst_node = 12;
  const std::size_t dead_spine = fab.spine_switch_index(0);
  auto& tx = c.open_endpoint(0);
  auto& rx = c.open_endpoint(dst_node);

  int delivered = 0;
  c.engine().spawn_daemon([](bcl::BclCluster& c, bcl::Endpoint& rx,
                             hw::MyrinetFabric& fab, std::size_t spine,
                             int& delivered) -> Task<void> {
    for (;;) {
      bcl::RecvEvent ev = co_await rx.wait_recv();
      (void)co_await rx.copy_out_system(ev);
      if (++delivered == 10) {
        fab.fail_switch(spine);
        c.engine().spawn([](bcl::BclCluster& c, hw::MyrinetFabric& fab,
                            std::size_t spine) -> Task<void> {
          co_await c.engine().sleep(Time::ms(2));
          fab.revive_switch(spine);
        }(c, fab, spine));
      }
    }
  }(c, rx, fab, dead_spine, delivered));

  std::vector<bcl::BclErr> errs;
  c.engine().spawn(send_stream(tx, rx.id(), kMsgs, errs));
  c.engine().run();

  ASSERT_EQ(errs.size(), static_cast<std::size_t>(kMsgs));
  for (int i = 0; i < kMsgs; ++i) {
    EXPECT_EQ(errs[static_cast<std::size_t>(i)], bcl::BclErr::kOk)
        << "msg " << i;
  }
  EXPECT_EQ(delivered, kMsgs);
  const auto& mcp = c.node(0).mcp();
  // The kill bit, the failover happened, nobody was declared dead.
  EXPECT_EQ(mcp.recorder().count(bcl::NicEvent::kPeerFailure), 0u);
  EXPECT_EQ(mcp.unreachable_peers(), 0u);
  EXPECT_GE(mcp.recorder().count(bcl::NicEvent::kPathFailover), 1u);
  EXPECT_GE(count_kind(mcp, bcl::NicEvent::kPathFailover), 1u);
  // The revived spine was requalified by an answered probe.
  EXPECT_GE(mcp.recorder().count(bcl::NicEvent::kPathProbeTx), 1u);
  EXPECT_GE(mcp.recorder().count(bcl::NicEvent::kPathRestore), 1u);
  EXPECT_GE(count_kind(mcp, bcl::NicEvent::kPathRestore), 1u);
  EXPECT_EQ(mcp.path_table().quarantined_count(), 0u);
  // The dead spine's wire ate traffic while it was down.
  std::uint64_t failed_drops = 0;
  for (const auto& l : c.fabric().congestion_report()) {
    failed_drops += l.failed_drops;
  }
  EXPECT_GT(failed_drops, 0u);
}

// ---------------------------------------------------------------------------
// Credit return follows a failover.  Node 4 -> node 0 is cross-leaf and
// both default routes ride spine 0, dead before any traffic.  The data
// session fails over on its own; but once the receiver's pool holds the
// sender's whole allowance, only credit probes and the updates answering
// them can unblock it.  Probes take the session's current path, and an
// update answering a probe rides the probe's arrival path (like an ack),
// so both avoid the dead spine and all 100 sends get through.
// ---------------------------------------------------------------------------
TEST(PathFailover, CreditReturnFollowsFailover) {
  constexpr int kMsgs = 100;
  bcl::ClusterConfig cfg;
  cfg.nodes = 16;
  cfg.node.mem_bytes = 8u << 20;
  cfg.cost.rto = Time::us(80);
  bcl::BclCluster c{cfg};
  auto& fab = myrinet(c);
  fab.fail_switch(fab.spine_switch_index(0));
  auto& tx = c.open_endpoint(4);
  auto& rx = c.open_endpoint(0);

  int delivered = 0;
  c.engine().spawn_daemon([](bcl::BclCluster& c, bcl::Endpoint& rx,
                             int& delivered) -> Task<void> {
    co_await c.engine().sleep(Time::ms(5));  // the sender runs dry meanwhile
    co_await drain_rx(rx, delivered);
  }(c, rx, delivered));
  c.engine().spawn([](bcl::Endpoint& tx, bcl::PortId dst) -> Task<void> {
    auto buf = tx.process().alloc(kBytes);
    for (int i = 0; i < kMsgs; ++i) {
      auto r = co_await tx.send_system(dst, buf, kBytes);
      EXPECT_EQ(r.err, bcl::BclErr::kOk) << "msg " << i;
    }
  }(tx, rx.id()));
  c.engine().run_until(Time::ms(200));

  EXPECT_EQ(delivered, kMsgs);
  EXPECT_GE(c.node(4).mcp().recorder().count(bcl::NicEvent::kPathFailover), 1u);
  EXPECT_GE(c.node(0).mcp().recorder().count(bcl::NicEvent::kCreditProbeRx),
            1u);
  EXPECT_GE(c.node(4).mcp().recorder().count(bcl::NicEvent::kCreditUpdateRx),
            1u);
}

// ---------------------------------------------------------------------------
// Every path to the destination dead: the verdict is kPartitioned — not a
// hang, not kPeerUnreachable — and the postmortem carries the full
// per-path strike table with reason "partitioned".
// ---------------------------------------------------------------------------
TEST(PathFailover, AllSpinesDeadYieldsPartitionedVerdict) {
  bcl::ClusterConfig cfg;
  cfg.nodes = 16;
  cfg.node.mem_bytes = 8u << 20;
  cfg.cost.rto = Time::us(60);
  cfg.cost.max_retries = 6;
  cfg.cost.e2e_completion = true;
  bcl::BclCluster c{cfg};
  auto& fab = myrinet(c);
  auto& tx = c.open_endpoint(0);
  auto& rx = c.open_endpoint(12);

  int delivered = 0;
  c.engine().spawn_daemon(drain_rx(rx, delivered));

  std::vector<bcl::BclErr> errs;
  c.engine().spawn([](hw::MyrinetFabric& fab, bcl::Endpoint& tx,
                      bcl::PortId dst,
                      std::vector<bcl::BclErr>& errs) -> Task<void> {
    co_await send_stream(tx, dst, 1, errs);  // healthy first
    for (std::size_t s = 0; s < fab.spine_count(); ++s) {
      fab.fail_switch(fab.spine_switch_index(s));
    }
    co_await send_stream(tx, dst, 1, errs);  // rides into the partition
  }(fab, tx, rx.id(), errs));
  c.engine().run();

  ASSERT_EQ(errs.size(), 2u);
  EXPECT_EQ(errs[0], bcl::BclErr::kOk);
  EXPECT_EQ(errs[1], bcl::BclErr::kPartitioned);
  EXPECT_EQ(delivered, 1);

  const auto& mcp = c.node(0).mcp();
  EXPECT_EQ(mcp.recorder().count(bcl::NicEvent::kPeerFailure), 1u);
  EXPECT_TRUE(mcp.path_table().partitioned(12));
  EXPECT_EQ(mcp.recorder().count(bcl::NicEvent::kPathPartition), 1u);
  EXPECT_EQ(mcp.path_table().quarantined_count(), fab.spine_count());

  // The postmortem says "partitioned" and carries the strike table.
  ASSERT_GE(c.postmortems().size(), 1u);
  const auto& pm = c.postmortems().front();
  EXPECT_EQ(pm.reason, "partitioned");
  EXPECT_EQ(pm.node, 0u);
  EXPECT_EQ(pm.peer, 12);
  ASSERT_EQ(pm.path_table.count(12), 1u);
  const auto& d = pm.path_table.at(12);
  EXPECT_TRUE(d.partitioned);
  ASSERT_EQ(d.paths.size(), fab.spine_count());
  for (const auto& p : d.paths) {
    EXPECT_TRUE(p.quarantined) << "path " << static_cast<int>(p.id);
    EXPECT_GT(p.total_strikes, 0u) << "path " << static_cast<int>(p.id);
  }
  const std::string json = pm.to_json();
  EXPECT_NE(json.find("\"reason\": \"partitioned\""), std::string::npos);
  EXPECT_NE(json.find("\"path_table\": ["), std::string::npos);
  EXPECT_NE(json.find("\"quarantined\": true"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Diagnosability plumbing: links_of covers the leaf<->spine trunks with
// per-spine names (a spine kill must be attributable from a node's
// suspect-links list), and the congestion report carries failed_drops.
// ---------------------------------------------------------------------------
TEST(PathFailover, TrunkLinksReportedPerSpine) {
  bcl::ClusterConfig cfg;
  cfg.nodes = 16;
  cfg.node.mem_bytes = 8u << 20;
  bcl::BclCluster c{cfg};
  auto& fab = myrinet(c);

  const auto names = fab.links_of(0);  // node 0 lives on leaf 0
  const std::set<std::string> have(names.begin(), names.end());
  EXPECT_TRUE(have.count("n0->sw"));
  EXPECT_TRUE(have.count("sw->n0"));
  for (std::size_t s = 0; s < fab.spine_count(); ++s) {
    EXPECT_TRUE(have.count("l0->s" + std::to_string(s))) << "spine " << s;
    EXPECT_TRUE(have.count("s" + std::to_string(s) + "->l0")) << "spine " << s;
  }
  // And the trunks appear in the fabric-wide congestion report.
  std::set<std::string> all;
  for (const auto& l : c.fabric().congestion_report()) all.insert(l.name);
  EXPECT_TRUE(all.count("l0->s0"));
  EXPECT_TRUE(all.count("s3->l3"));
}

// ---------------------------------------------------------------------------
// The malformed-route hook fires on the first discard and is then rate
// limited (one report per 100 us per switch); the counter sees them all.
// ---------------------------------------------------------------------------
TEST(PathFailover, MalformedRouteHookIsRateLimited) {
  sim::Engine eng;
  hw::CrossbarSwitch sw{eng, "swX", 8, Time::ns(100)};
  int fires = 0;
  std::string from;
  sw.set_route_error_hook(
      [&](const std::string& name, const hw::Packet&) {
        ++fires;
        from = name;
      });
  eng.spawn([](sim::Engine& eng, hw::CrossbarSwitch& sw) -> Task<void> {
    // A default packet has no route bytes: discarded at the first crossbar.
    auto sink = sw.input_sink(0);
    sink(hw::Packet{});
    sink(hw::Packet{});
    sink(hw::Packet{});  // same instant: one hook fire, three counted errors
    co_await eng.sleep(Time::us(150));
    sink(hw::Packet{});  // past the limiter window: fires again
  }(eng, sw));
  eng.run();
  EXPECT_EQ(sw.route_errors(), 4u);
  EXPECT_EQ(fires, 2);
  EXPECT_EQ(from, "swX");
}

// ---------------------------------------------------------------------------
// The cluster wires that hook to the offending sender's recorder: a
// route-less packet from node 3 discarded at the crossbar leaves exactly
// one route-error entry in node 3's ring, naming the packet's destination
// and keeping its msg id, and no entry anywhere else.
// ---------------------------------------------------------------------------
TEST(PathFailover, MalformedRouteLandsInSendersRecorder) {
  bcl::ClusterConfig cfg;
  cfg.nodes = 4;
  cfg.node.mem_bytes = 8u << 20;
  bcl::BclCluster c{cfg};
  hw::Packet p;
  p.src_node = 3;
  p.dst_node = 1;
  p.msg_id = 77;
  myrinet(c).switch_at(0).input_sink(0)(std::move(p));
  c.engine().run();

  EXPECT_EQ(myrinet(c).switch_at(0).route_errors(), 1u);
  const auto& rec = c.node(3).mcp().recorder();
  EXPECT_EQ(rec.count(bcl::NicEvent::kRouteError), 1u);
  const auto ring = rec.snapshot();
  ASSERT_EQ(ring.size(), 1u);
  EXPECT_EQ(ring[0].kind, bcl::NicEvent::kRouteError);
  EXPECT_EQ(ring[0].peer, 1u);
  EXPECT_EQ(ring[0].msg_id, 77u);
  for (const hw::NodeId n : {0u, 1u, 2u}) {
    EXPECT_EQ(count_kind(c.node(n).mcp(), bcl::NicEvent::kRouteError), 0u)
        << "node " << n;
  }
}

}  // namespace
