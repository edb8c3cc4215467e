// Latency attribution + flight recorder + post-mortem diagnosis:
//  * Trace event buffers are bounded and count what they drop.
//  * Spans still open at dump time get flagged synthetic ends.
//  * LatencyBreakdown stage sums reproduce the measured end-to-end latency.
//  * Go-back-N retransmissions are attributed to the message they hit.
//  * Collective fan-out trees link per-member records parent -> child.
//  * The per-NIC flight recorder ring wraps, keeping the newest events; the
//    recorder counts every NIC event, ring or no ring.
//  * A forced fail-stop produces a post-mortem naming the faulted peer's
//    links; a collective watchdog expiry on the mesh names mesh links.
//  * Per-peer session series come from one collector per NIC and read the
//    current session in every export; a session costs under 1 KiB of heap.
//  * Every failed ioctl, a full pin-down table included, counts one driver
//    rejection, read alike by the accessor, the registry series and the
//    cluster report; a node stack refuses to run without a trace or a
//    registry.
#include <gtest/gtest.h>

#if defined(__GLIBC__) && (__GLIBC__ > 2 || __GLIBC_MINOR__ >= 33)
#include <malloc.h>
#define HAVE_MALLINFO2 1  // glibc 2.33+
#endif

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bcl/postmortem.hpp"
#include "bcl/recorder.hpp"
#include "bcl/stack.hpp"
#include "cluster/cluster.hpp"
#include "cluster/report.hpp"
#include "hw/myrinet_switch.hpp"
#include "sim/breakdown.hpp"
#include "sim/trace.hpp"

namespace {

using cluster::World;
using cluster::WorldConfig;
using sim::Task;
using sim::Time;

TEST(TraceBounds, EventCapDropsAndCounts) {
  sim::Engine eng;
  sim::Trace tr{eng};
  tr.set_event_cap(3);
  tr.enable();
  for (int i = 0; i < 5; ++i) {
    tr.interval(Time::us(i), Time::us(i + 1), "c", "s", 0);
  }
  EXPECT_EQ(tr.events().size(), 3u);
  EXPECT_EQ(tr.dropped_events(), 2u);
  // Counter and flow buffers honor the same cap.
  for (int i = 0; i < 5; ++i) {
    tr.counter("t", "v", i);
    tr.flow_begin("c", "msg", static_cast<std::uint64_t>(i));
  }
  EXPECT_EQ(tr.counter_events().size(), 3u);
  EXPECT_EQ(tr.flow_events().size(), 3u);
  EXPECT_EQ(tr.dropped_events(), 6u);
}

TEST(TraceBounds, OpenSpansGetFlaggedSyntheticEnds) {
  sim::Engine eng;
  sim::Trace tr{eng};
  tr.enable();
  {
    auto done = tr.span("node0.lib", "finished", 1);
  }
  auto dangling = tr.span("node0.lib", "in-flight", 2);
  EXPECT_EQ(tr.open_spans().size(), 1u);
  EXPECT_EQ(tr.open_spans()[0].stage, "in-flight");
  const std::string js = tr.to_chrome_json();
  EXPECT_NE(js.find("synthetic_end"), std::string::npos);
  EXPECT_NE(js.find("in-flight"), std::string::npos);
  dangling.end();
  EXPECT_TRUE(tr.open_spans().empty());
  // Once ended for real, the flag is gone.
  EXPECT_EQ(tr.to_chrome_json().find("synthetic_end"), std::string::npos);
}

// One traced 2-node message: the attribution table's stage sums must equal
// the measured end-to-end latency exactly (the projection partitions the
// window), and the semi-user-level kernel stages must all be present.
TEST(Breakdown, StageSumsReproduceEndToEnd) {
  bcl::ClusterConfig cfg;
  cfg.nodes = 2;
  bcl::BclCluster c{cfg};
  auto& tx = c.open_endpoint(0);
  auto& rx = c.open_endpoint(1);
  c.trace().enable();
  Time send_start, recv_done;
  c.engine().spawn([](sim::Engine& eng, bcl::Endpoint& ep, bcl::PortId dst,
                      Time& t0) -> Task<void> {
    auto buf = ep.process().alloc(512);
    t0 = eng.now();
    (void)co_await ep.send_system(dst, buf, 512);
    (void)co_await ep.wait_send();
  }(c.engine(), tx, rx.id(), send_start));
  c.engine().spawn([](sim::Engine& eng, bcl::Endpoint& ep,
                      Time& t1) -> Task<void> {
    auto ev = co_await ep.wait_recv();
    t1 = eng.now();
    (void)co_await ep.copy_out_system(ev);
  }(c.engine(), rx, recv_done));
  c.engine().run();

  const auto bd =
      sim::LatencyBreakdown::project(c.trace().events(), send_start,
                                     recv_done);
  const double e2e = (recv_done - send_start).to_us();
  ASSERT_GT(e2e, 0.0);
  EXPECT_NEAR(bd.sum_us(), e2e, 1e-6 * e2e);
  EXPECT_NEAR(bd.window_us(), e2e, 1e-6 * e2e);
  for (const char* stage : {"trap-enter", "security-check", "pio-fill",
                            "trap-exit", "mcp-tx-proc", "wire"}) {
    EXPECT_GT(bd.stage_us(stage), 0.0) << stage;
  }
  // The ledger recorded the message begin-to-end.
  bool found = false;
  for (const auto& [key, rec] : c.trace().msg_records()) {
    if (rec.label == "send" && rec.started && rec.done) {
      found = true;
      EXPECT_TRUE(rec.ok);
      EXPECT_EQ(rec.src, 0);
      EXPECT_GE(rec.end, rec.begin);
    }
  }
  EXPECT_TRUE(found);
}

// Congestion telemetry: after real traffic the fabric ranks its links with
// non-zero counters and sane utilization.
TEST(Congestion, FabricReportCountsTraffic) {
  bcl::ClusterConfig cfg;
  cfg.nodes = 2;
  bcl::BclCluster c{cfg};
  auto& tx = c.open_endpoint(0);
  auto& rx = c.open_endpoint(1);
  c.engine().spawn([](bcl::Endpoint& ep, bcl::PortId dst) -> Task<void> {
    auto buf = ep.process().alloc(4096);
    (void)co_await ep.send_system(dst, buf, 4096);
    (void)co_await ep.wait_send();
  }(tx, rx.id()));
  c.engine().spawn([](bcl::Endpoint& ep) -> Task<void> {
    auto ev = co_await ep.wait_recv();
    (void)co_await ep.copy_out_system(ev);
  }(rx));
  c.engine().run();

  const auto report = c.fabric().congestion_report();
  ASSERT_FALSE(report.empty());
  bool uplink_seen = false;
  for (const auto& l : report) {
    EXPECT_GE(l.util, 0.0) << l.name;
    EXPECT_LE(l.util, 1.0) << l.name;
    if (l.name == "n0->sw") {
      uplink_seen = true;
      EXPECT_GT(l.packets, 0u);
      EXPECT_GT(l.busy_us, 0.0);
      EXPECT_EQ(l.dropped, 0u);
    }
  }
  EXPECT_TRUE(uplink_seen);
  // links_of() scopes the report to one node's attached links.
  const auto mine = c.fabric().links_of(0);
  EXPECT_FALSE(mine.empty());
  for (const auto& name : mine) {
    EXPECT_NE(name.find('0'), std::string::npos) << name;
  }
}

// Dropping the first packets off node 0's uplink forces go-back-N; the
// retransmission must land on the victim message's causal record and in the
// sender's flight recorder.
TEST(Breakdown, RetransmitsAttributedToMessage) {
  bcl::ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.cost.rto = Time::us(80);
  bcl::BclCluster c{cfg};
  hw::FaultPlan plan;
  plan.drop_nth = {0, 1};
  dynamic_cast<hw::MyrinetFabric&>(c.fabric())
      .set_host_link_fault_plan(0, plan);
  auto& tx = c.open_endpoint(0);
  auto& rx = c.open_endpoint(1);
  c.trace().enable();
  c.engine().spawn([](bcl::Endpoint& ep, bcl::PortId dst) -> Task<void> {
    auto buf = ep.process().alloc(512);
    (void)co_await ep.send_system(dst, buf, 512);
    (void)co_await ep.wait_send();
  }(tx, rx.id()));
  c.engine().spawn([](bcl::Endpoint& ep) -> Task<void> {
    auto ev = co_await ep.wait_recv();
    (void)co_await ep.copy_out_system(ev);
  }(rx));
  c.engine().run();

  ASSERT_GT(c.node(0).mcp().recorder().count(bcl::NicEvent::kRetransmit), 0u);
  std::uint32_t attributed = 0;
  for (const auto& [key, rec] : c.trace().msg_records()) {
    attributed += rec.retransmits;
  }
  EXPECT_GT(attributed, 0u);
  // The flight recorder kept the episode (always on, no tracing needed).
  const auto timeline = c.node(0).mcp().recorder().snapshot();
  const bool storm = std::any_of(
      timeline.begin(), timeline.end(), [](const bcl::FlightEvent& e) {
        return e.kind == bcl::NicEvent::kRetransmit ||
               e.kind == bcl::NicEvent::kTimeout;
      });
  EXPECT_TRUE(storm);
  // Per-link retransmit heat shows on the faulted uplink.
  for (const auto& l : c.fabric().congestion_report()) {
    if (l.name == "n0->sw") {
      EXPECT_GT(l.retx_packets + l.dropped, 0u);
    }
  }
}

// A NIC-offloaded broadcast records one causal entry per member, stitched
// into a tree: the root's record has children, interior members have both a
// parent and children, and every member completes.
TEST(CollectiveTrace, BcastRecordsFormParentChildTree) {
  WorldConfig cfg;
  cfg.cluster.nodes = 4;
  cfg.cluster.node.mem_bytes = 16u << 20;
  cfg.mpi.nic_collectives = true;
  World w{cfg, 4};
  w.cluster().trace().enable();
  constexpr std::size_t kBytes = 4096;
  w.run([](World& world, int rank) -> Task<void> {
    auto& me = world.mpi(rank);
    auto buf = me.process().alloc(kBytes);
    if (rank == 0) me.process().fill_pattern(buf, 7);
    co_await me.bcast(buf, kBytes, 0);
    EXPECT_TRUE(me.process().check_pattern(buf, 7)) << "rank " << rank;
    co_await me.barrier();
  });

  int bcast_records = 0, with_children = 0, with_parent = 0, completed = 0;
  for (const auto& [key, rec] : w.cluster().trace().msg_records()) {
    if (rec.label != "bcast") continue;
    ++bcast_records;
    if (!rec.children.empty()) ++with_children;
    if (rec.parent != 0) ++with_parent;
    if (rec.done && rec.ok) ++completed;
    // Child links must point at real records.
    for (const std::uint64_t child : rec.children) {
      EXPECT_NE(w.cluster().trace().msg_find(child), nullptr);
    }
  }
  EXPECT_EQ(bcast_records, 4);   // one per member
  EXPECT_GE(with_children, 1);   // the root fans out
  EXPECT_EQ(with_parent, 3);     // everyone but the root has a parent
  EXPECT_EQ(completed, 4);
}

TEST(FlightRecorderRing, WrapKeepsNewestEvents) {
  bcl::FlightRecorder r{4};
  for (int i = 0; i < 10; ++i) {
    r.record({Time::us(i), bcl::NicEvent::kSend, 0,
              static_cast<std::uint64_t>(i), 0, 0});
  }
  EXPECT_EQ(r.capacity(), 4u);
  EXPECT_EQ(r.size(), 4u);
  EXPECT_EQ(r.total(), 10u);
  const auto snap = r.snapshot();
  ASSERT_EQ(snap.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(snap[static_cast<std::size_t>(i)].msg_id,
              static_cast<std::uint64_t>(6 + i));  // oldest-first: 6,7,8,9
  }
  // Depth 0 keeps nothing in the ring.
  bcl::FlightRecorder off{0};
  off.record({Time::zero(), bcl::NicEvent::kSend, 0, 0, 0, 0});
  EXPECT_EQ(off.size(), 0u);
}

// The recorder counts every event, ring or no ring; the ring keeps only the
// kinds with a flight name, and total() counts ring entries alone.
TEST(FlightRecorderRing, CountsEveryEventKeepsOnlyFlightKinds) {
  bcl::FlightRecorder r{8};
  r.record({Time::us(1), bcl::NicEvent::kRetransmit, 2, 5, 9, 0});
  r.record({Time::us(2), bcl::NicEvent::kRxPacket, 0, 0, 0, 0});
  r.add(bcl::NicEvent::kGroupFailed);
  r.add(bcl::NicEvent::kCreditGranted, 7);
  EXPECT_EQ(r.count(bcl::NicEvent::kRetransmit), 1u);
  EXPECT_EQ(r.count(bcl::NicEvent::kRxPacket), 1u);
  EXPECT_EQ(r.count(bcl::NicEvent::kGroupFailed), 1u);
  EXPECT_EQ(r.count(bcl::NicEvent::kCreditGranted), 7u);
  EXPECT_EQ(r.count(bcl::NicEvent::kTimeout), 0u);
  EXPECT_EQ(r.total(), 1u);
  const auto snap = r.snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].kind, bcl::NicEvent::kRetransmit);
  EXPECT_STREQ(bcl::flight_name(snap[0].kind), "retransmit");
  EXPECT_STREQ(bcl::series_name(bcl::NicEvent::kRetransmit),
               "mcp.retransmissions");
  EXPECT_EQ(bcl::flight_name(bcl::NicEvent::kRxPacket), nullptr);
  // Depth 0 keeps nothing, but still counts.
  bcl::FlightRecorder off{0};
  off.record({Time::zero(), bcl::NicEvent::kSend, 0, 0, 0, 0});
  EXPECT_EQ(off.count(bcl::NicEvent::kSend), 1u);
  EXPECT_EQ(off.total(), 0u);
}

// Rank 7 fail-stops mid-run; the survivors' retry budgets expire and the
// cluster captures a post-mortem that names the dead peer and its links.
TEST(Postmortem, FailStopProducesDiagnosisNamingFaultedPeer) {
  WorldConfig cfg;
  cfg.cluster.nodes = 8;
  cfg.cluster.node.mem_bytes = 16u << 20;
  cfg.cluster.cost.rto = Time::us(60);
  cfg.cluster.cost.max_retries = 4;
  cfg.cluster.cost.coll_op_timeout = Time::ms(2);
  World w{cfg, 8};

  constexpr std::size_t kCount = 16;
  w.run([](World& world, int rank) -> Task<void> {
    auto& me = world.mpi(rank);
    auto sbuf = me.process().alloc(kCount * sizeof(double));
    auto rbuf = me.process().alloc(kCount * sizeof(double));
    me.write_doubles(sbuf, std::vector<double>(kCount, rank + 1.0));
    co_await me.allreduce(sbuf, rbuf, kCount);
    if (rank == 7) {
      hw::FaultPlan dead;
      dead.fail_from = Time::zero();
      dynamic_cast<hw::MyrinetFabric&>(world.cluster().fabric())
          .set_host_link_fault_plan(7, dead);
      co_return;
    }
    try {
      co_await me.allreduce(sbuf, rbuf, kCount);
    } catch (const minimpi::PeerUnreachableError&) {
    }
  });

  const auto& dumps = w.cluster().postmortems();
  ASSERT_FALSE(dumps.empty());
  const bcl::Postmortem* pm = nullptr;
  for (const auto& d : dumps) {
    if (d.reason == "peer-unreachable") pm = &d;
  }
  ASSERT_NE(pm, nullptr) << "no peer-unreachable dump captured";
  // Either a survivor declares node 7 dead, or node 7's own NIC — cut off
  // from every ack by its dark uplink — declares a survivor unreachable
  // first.  Both are correct diagnoses, and both implicate node 7's links.
  EXPECT_TRUE(pm->peer == 7 || pm->node == 7)
      << "diagnosing node " << pm->node << ", peer " << pm->peer;
  EXPECT_GT(pm->time_us, 0.0);
  // The suspect set covers the dead peer's attached links.
  const bool names_peer_link = std::any_of(
      pm->suspect_links.begin(), pm->suspect_links.end(),
      [](const std::string& n) {
        return n.find('7') != std::string::npos;
      });
  EXPECT_TRUE(names_peer_link);
  EXPECT_FALSE(pm->top_links.empty());
  EXPECT_FALSE(pm->timeline.empty());
  EXPECT_FALSE(pm->sessions.empty());
  // The machine-readable dump round-trips the headline facts.
  const std::string js = w.cluster().postmortems_json();
  EXPECT_NE(js.find("\"reason\": \"peer-unreachable\""), std::string::npos);
  EXPECT_NE(js.find("\"timeline\""), std::string::npos);
  EXPECT_NE(js.find("\"suspect_links\""), std::string::npos);
}

// An impossibly tight collective watchdog on the mesh fabric: the timeout
// post-mortem must name the victim op and rank mesh links.
TEST(Postmortem, CollectiveTimeoutOnMeshNamesMeshLinks) {
  WorldConfig cfg;
  cfg.cluster.nodes = 8;
  cfg.cluster.node.mem_bytes = 16u << 20;
  cfg.cluster.fabric.kind = hw::FabricKind::kNwrcMesh;
  cfg.mpi.nic_collectives = true;
  cfg.cluster.cost.coll_op_timeout = Time::us(30);
  World w{cfg, 8};

  w.run([](World& world, int rank) -> Task<void> {
    auto& me = world.mpi(rank);
    try {
      co_await me.barrier();
    } catch (const minimpi::PeerUnreachableError&) {
    }
  });

  const auto& dumps = w.cluster().postmortems();
  ASSERT_FALSE(dumps.empty());
  const bcl::Postmortem* pm = nullptr;
  for (const auto& d : dumps) {
    if (d.reason == "collective-timeout") pm = &d;
  }
  ASSERT_NE(pm, nullptr) << "no collective-timeout dump captured";
  EXPECT_NE(pm->victim.find("barrier"), std::string::npos) << pm->victim;
  ASSERT_FALSE(pm->top_links.empty());
  for (const auto& l : pm->top_links) {
    EXPECT_EQ(l.name[0], 'm') << l.name;  // NwrcMesh link naming
  }
  const bool coll_event_kept = std::any_of(
      pm->timeline.begin(), pm->timeline.end(), [](const bcl::FlightEvent& e) {
        return e.kind == bcl::NicEvent::kCollStart ||
               e.kind == bcl::NicEvent::kCollTimeout;
      });
  EXPECT_TRUE(coll_event_kept);
}

// The cluster keeps at most postmortem_max dumps and counts the rest, so a
// 64-node failure cascade cannot OOM the post-mortem path.
TEST(Postmortem, DumpCountIsBounded) {
  WorldConfig cfg;
  cfg.cluster.nodes = 8;
  cfg.cluster.node.mem_bytes = 16u << 20;
  cfg.cluster.cost.rto = Time::us(60);
  cfg.cluster.cost.max_retries = 4;
  cfg.cluster.cost.coll_op_timeout = Time::ms(2);
  cfg.cluster.postmortem_max = 2;
  World w{cfg, 8};

  constexpr std::size_t kCount = 16;
  w.run([](World& world, int rank) -> Task<void> {
    auto& me = world.mpi(rank);
    auto sbuf = me.process().alloc(kCount * sizeof(double));
    auto rbuf = me.process().alloc(kCount * sizeof(double));
    me.write_doubles(sbuf, std::vector<double>(kCount, 1.0));
    co_await me.allreduce(sbuf, rbuf, kCount);
    if (rank == 7) {
      hw::FaultPlan dead;
      dead.fail_from = Time::zero();
      dynamic_cast<hw::MyrinetFabric&>(world.cluster().fabric())
          .set_host_link_fault_plan(7, dead);
      co_return;
    }
    try {
      co_await me.allreduce(sbuf, rbuf, kCount);
    } catch (const minimpi::PeerUnreachableError&) {
    }
    try {
      co_await me.barrier();
    } catch (const minimpi::PeerUnreachableError&) {
    }
  });

  EXPECT_LE(w.cluster().postmortems().size(), 2u);
  if (w.cluster().postmortems().size() == 2u) {
    EXPECT_GT(w.cluster().postmortems_suppressed(), 0u);
  }
}

// A crash–restart cycle is visible from the outside: the rebooted NIC's
// rel.restarts counter ticks, the survivor's rel.recovered_peers ticks once
// the handshake re-establishes, and the post-mortem session snapshots carry
// the incarnation numbers a postmortem reader needs to line traffic up
// against epochs.
TEST(Postmortem, RestartCountersAndIncarnationFieldsSurface) {
  bcl::ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.node.mem_bytes = 8u << 20;
  cfg.cost.rto = Time::us(60);
  cfg.cost.max_retries = 3;
  cfg.cost.e2e_completion = true;
  bcl::BclCluster c{cfg};
  auto& tx = c.open_endpoint(0);
  auto& rx = c.open_endpoint(1);
  c.engine().spawn_daemon([](bcl::Endpoint& rx) -> Task<void> {
    for (;;) {
      bcl::RecvEvent ev = co_await rx.wait_recv();
      (void)co_await rx.copy_out_system(ev);
    }
  }(rx));

  bool done = false;
  c.engine().spawn([](bcl::BclCluster& c, bcl::Endpoint& tx, bcl::PortId dst,
                      bool& done) -> Task<void> {
    constexpr std::size_t kLen = 64;
    auto buf = tx.process().alloc(kLen);
    tx.process().fill_pattern(buf, 9);
    // Completion matched by msg_id: the unreachable verdict also posts a
    // port-wide advisory event (msg_id 0).
    const auto one = [&]() -> Task<bcl::BclErr> {
      auto r = co_await tx.send_system(dst, buf, kLen);
      if (r.err != bcl::BclErr::kOk) co_return r.err;
      for (;;) {
        bcl::SendEvent ev = co_await tx.wait_send();
        if (ev.msg_id == r.value) co_return ev.err;
      }
    };
    EXPECT_EQ(co_await one(), bcl::BclErr::kOk);
    c.node(1).mcp().crash();
    EXPECT_NE(co_await one(), bcl::BclErr::kOk);  // budget exhausts
    co_await c.engine().sleep(Time::ms(2));
    co_await c.node(1).driver().reset_nic();
    co_await c.engine().sleep(Time::ms(2));  // revival probe answered
    EXPECT_EQ(co_await one(), bcl::BclErr::kOk);  // re-established epoch
    done = true;
  }(c, tx, rx.id(), done));
  c.engine().run();
  EXPECT_TRUE(done);

  EXPECT_EQ(c.metrics().value("node1.nic.rel.restarts"), 1.0);
  EXPECT_EQ(c.metrics().value("node0.nic.rel.restarts"), 0.0);
  EXPECT_GE(c.metrics().value("node0.nic.rel.recovered_peers"), 1.0);
  EXPECT_GE(c.metrics().value("node0.nic.rel.peer_failures"), 1.0);
  EXPECT_EQ(c.node(1).mcp().incarnation(), 1u);

  // The unreachable verdict produced a dump; its session snapshots carry
  // both ends' incarnation view.
  ASSERT_FALSE(c.postmortems().empty());
  const std::string js = c.postmortems_json();
  EXPECT_NE(js.find("\"incarnation\""), std::string::npos);
  EXPECT_NE(js.find("\"peer_incarnation\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Per-peer session series (<nic>.rel.peer<d>.*), written by each NIC's
// per-peer collector in the exports by name.

// The seven per-peer series.
constexpr const char* kPeerSeries[] = {
    "backoff",     "fast_retransmits", "in_flight",  "rto_us",
    "rtt_samples", "srtt_us",          "unreachable"};

// The seven series under `prefix` ("node0.nic.rel.peer1."), by suffix, each
// read by name; a series the registry does not carry is left out.
std::map<std::string, double> peer_series(const sim::MetricRegistry& m,
                                          const std::string& prefix) {
  std::map<std::string, double> out;
  for (const char* suffix : kPeerSeries) {
    if (const auto v = m.value(prefix + suffix)) out[suffix] = *v;
  }
  return out;
}

// What those series must read for session `s`: its accessors, or zeros
// when the peer has no live session.
std::map<std::string, double> session_readings(const bcl::TxSession* s) {
  if (s == nullptr) {
    return {{"backoff", 0},     {"fast_retransmits", 0}, {"in_flight", 0},
            {"rto_us", 0},      {"rtt_samples", 0},      {"srtt_us", 0},
            {"unreachable", 0}};
  }
  return {{"backoff", static_cast<double>(s->backoff_level())},
          {"fast_retransmits", static_cast<double>(s->fast_retransmits())},
          {"in_flight", static_cast<double>(s->in_flight())},
          {"rto_us", s->rto().to_us()},
          {"rtt_samples", static_cast<double>(s->rtt_samples())},
          {"srtt_us", s->srtt().to_us()},
          {"unreachable", s->peer_unreachable() ? 1.0 : 0.0}};
}

std::string peer_prefix(int node, int peer) {
  return "node" + std::to_string(node) + ".nic.rel.peer" +
         std::to_string(peer) + ".";
}

// Column `name` of a Sampler CSV, one value per tick (empty when absent).
std::vector<double> csv_column(const std::string& csv,
                               const std::string& name) {
  const auto fields = [](const std::string& row) {
    std::vector<std::string> out;
    std::istringstream in{row};
    for (std::string f; std::getline(in, f, ',');) out.push_back(f);
    return out;
  };
  std::istringstream lines{csv};
  std::string line;
  std::getline(lines, line);
  const std::vector<std::string> header = fields(line);
  const auto col = static_cast<std::size_t>(
      std::find(header.begin(), header.end(), name) - header.begin());
  std::vector<double> out;
  while (col < header.size() && std::getline(lines, line)) {
    out.push_back(std::stod(fields(line).at(col)));
  }
  return out;
}

TEST(PerPeerMetrics, SeriesMatchSessionAccessorsInEveryExport) {
  bcl::ClusterConfig cfg;
  cfg.nodes = 3;
  bcl::BclCluster c{cfg};
  std::vector<bcl::Endpoint*> eps;
  for (hw::NodeId n = 0; n < 3; ++n) eps.push_back(&c.open_endpoint(n));
  c.trace().enable();
  c.sampler().set_trace(&c.trace());
  c.start_sampler();
  // node0 -> node1, node0 -> node2, node2 -> node0; node1 only receives.
  const auto sender = [](bcl::Endpoint& ep, bcl::PortId dst) -> Task<void> {
    auto buf = ep.process().alloc(1024);
    for (int i = 0; i < 4; ++i) {
      auto r = co_await ep.send_system(dst, buf, 1024);
      EXPECT_TRUE(r.ok());
      (void)co_await ep.wait_send();
    }
  };
  const auto receiver = [](bcl::Endpoint& ep, int n) -> Task<void> {
    for (int i = 0; i < n; ++i) {
      auto ev = co_await ep.wait_recv();
      (void)co_await ep.copy_out_system(ev);
    }
  };
  c.engine().spawn(sender(*eps[0], eps[1]->id()));
  c.engine().spawn(sender(*eps[0], eps[2]->id()));
  c.engine().spawn(sender(*eps[2], eps[0]->id()));
  c.engine().spawn(receiver(*eps[0], 4));
  c.engine().spawn(receiver(*eps[1], 4));
  c.engine().spawn(receiver(*eps[2], 4));
  c.engine().run();

  const std::string json = c.metrics().to_json();
  const std::string prom = c.metrics().to_prometheus();
  const std::string csv = c.sampler().to_csv();
  std::size_t series = 0;
  for (int n = 0; n < 3; ++n) {
    for (int p = 0; p < 3; ++p) {
      if (p == n) continue;
      const std::string prefix = peer_prefix(n, p);
      const bcl::TxSession* s =
          c.node(static_cast<hw::NodeId>(n)).mcp().find_tx_session(
              static_cast<hw::NodeId>(p));
      const auto got = peer_series(c.metrics(), prefix);
      if (s == nullptr) {
        EXPECT_TRUE(got.empty()) << prefix;  // never had a session
        continue;
      }
      EXPECT_EQ(got, session_readings(s)) << prefix;
      EXPECT_GT(got.at("rtt_samples"), 0) << prefix;
      for (const auto& [suffix, v] : got) {
        const std::string name = prefix + suffix;
        const std::string entry =
            "\"" + name + "\": " + sim::format_metric_value(v);
        const std::size_t at = json.find(entry);
        ASSERT_NE(at, std::string::npos) << name;
        EXPECT_TRUE(json[at + entry.size()] == ',' ||
                    json[at + entry.size()] == '\n')
            << name;
        std::string prom_name = "bcl_" + name;
        std::replace(prom_name.begin(), prom_name.end(), '.', '_');
        EXPECT_NE(prom.find("\n" + prom_name + " " +
                            sim::format_metric_value(v) + "\n"),
                  std::string::npos)
            << name;
        EXPECT_EQ(csv_column(csv, name).size(), c.sampler().samples())
            << name;
        ++series;
      }
      // The estimator gauge is live in the time series and the trace, not
      // only in the final snapshot.
      const std::string srtt = prefix + "srtt_us";
      const std::vector<double> column = csv_column(csv, srtt);
      EXPECT_TRUE(std::any_of(column.begin(), column.end(),
                              [](double v) { return v > 0; }))
          << srtt;
      EXPECT_TRUE(std::any_of(c.trace().counter_events().begin(),
                              c.trace().counter_events().end(),
                              [&](const sim::TraceCounterEvent& e) {
                                return e.track == srtt && e.value > 0;
                              }))
          << srtt;
    }
  }
  EXPECT_EQ(series, 3u * 7u);  // three sessions, seven series each
}

// A peer's series follow its CURRENT session: while the peer is torn down
// (restarted, session not yet replaced) they read zero, not the
// graveyarded session's last values; once the handshake builds a
// replacement they read the replacement.
TEST(PerPeerMetrics, PeerRestartReadsReplacementAndTeardownReadsZero) {
  bcl::ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.node.mem_bytes = 8u << 20;
  cfg.cost.rto = Time::us(60);
  cfg.cost.max_retries = 3;
  cfg.cost.e2e_completion = true;  // a send completes on its ack
  bcl::BclCluster c{cfg};
  auto& tx = c.open_endpoint(0);
  auto& rx = c.open_endpoint(1);
  c.engine().spawn_daemon([](bcl::Endpoint& rx) -> Task<void> {
    for (;;) {
      bcl::RecvEvent ev = co_await rx.wait_recv();
      (void)co_await rx.copy_out_system(ev);
    }
  }(rx));

  bool done = false;
  c.engine().spawn([](bcl::BclCluster& c, bcl::Endpoint& tx, bcl::PortId dst,
                      bool& done) -> Task<void> {
    const std::string prefix = peer_prefix(0, 1);
    bcl::Mcp& mcp = c.node(0).mcp();
    auto buf = tx.process().alloc(64);
    const auto one = [&]() -> Task<bcl::BclErr> {
      auto r = co_await tx.send_system(dst, buf, 64);
      if (r.err != bcl::BclErr::kOk) co_return r.err;
      for (;;) {
        bcl::SendEvent ev = co_await tx.wait_send();
        if (ev.msg_id == r.value) co_return ev.err;
      }
    };
    EXPECT_EQ(co_await one(), bcl::BclErr::kOk);
    const bcl::TxSession* first = mcp.find_tx_session(1);
    EXPECT_EQ(peer_series(c.metrics(), prefix), session_readings(first));
    EXPECT_GT(peer_series(c.metrics(), prefix).at("rtt_samples"), 0);

    c.node(1).mcp().crash();
    EXPECT_NE(co_await one(), bcl::BclErr::kOk);  // budget exhausts
    EXPECT_EQ(peer_series(c.metrics(), prefix).at("unreachable"), 1.0);
    co_await c.engine().sleep(Time::ms(2));
    co_await c.node(1).driver().reset_nic();
    co_await c.engine().sleep(Time::ms(2));  // revival probe answered
    // The restart tore the old session down; nothing replaced it yet.
    EXPECT_EQ(mcp.find_tx_session(1), nullptr);
    EXPECT_EQ(peer_series(c.metrics(), prefix), session_readings(nullptr));

    EXPECT_EQ(co_await one(), bcl::BclErr::kOk);  // re-established epoch
    const bcl::TxSession* second = mcp.find_tx_session(1);
    EXPECT_NE(second, nullptr);
    EXPECT_NE(second, first);
    EXPECT_EQ(peer_series(c.metrics(), prefix), session_readings(second));
    EXPECT_EQ(peer_series(c.metrics(), prefix).at("unreachable"), 0.0);
    done = true;
  }(c, tx, rx.id(), done));
  c.engine().run();
  EXPECT_TRUE(done);
}

// Per-pair state costs what it holds.  Opening every session of a 64-node
// mesh (4032 ordered pairs) adds under 1 KiB of heap per pair, registry
// included; with a std::deque per waiter list and queue, and seven
// callback instruments per pair, it took 4.5 KiB.  The flat list that
// callers sum over does not grow with the sessions: the per-peer series
// show only in the exports by name.
TEST(PerPeerMetrics, AllPairsSessionsCostUnderOneKiBOfHeapEach) {
#if !defined(HAVE_MALLINFO2) || defined(__SANITIZE_ADDRESS__)
  GTEST_SKIP() << "measures glibc's heap through mallinfo2";
#else
  constexpr hw::NodeId kNodes = 64;
  bcl::ClusterConfig cfg;
  cfg.nodes = kNodes;
  cfg.fabric.kind = hw::FabricKind::kNwrcMesh;
  bcl::BclCluster c{cfg};
  const auto heap = [] {
    const struct mallinfo2 mi = mallinfo2();
    return mi.uordblks + mi.hblkhd;
  };
  const std::size_t flat_before = c.metrics().scalar_values().size();
  const std::size_t before = heap();
  for (hw::NodeId n = 0; n < kNodes; ++n) {
    for (hw::NodeId p = 0; p < kNodes; ++p) {
      if (p != n) (void)c.node(n).mcp().tx_session(p);
    }
  }
  const std::size_t after = heap();
  constexpr double kPairs = kNodes * (kNodes - 1);
  EXPECT_LT(static_cast<double>(after - before) / kPairs, 1024.0);
  // Every pair still exports its seven series: names with ".rel.peer"
  // and a peer number (not rel.peer_failures or rel.peer_restarts).
  const auto peer_names = [](const std::string& text) {
    const std::string mark = ".rel.peer";
    std::size_t n = 0;
    for (std::size_t at = text.find(mark); at != std::string::npos;
         at = text.find(mark, at + 1)) {
      n += std::isdigit(static_cast<unsigned char>(text[at + mark.size()]))
               ? 1
               : 0;
    }
    return n;
  };
  EXPECT_EQ(peer_names(c.metrics().to_json()),
            static_cast<std::size_t>(kPairs) * 7);
  // None of them is in the flat list.
  const auto flat = c.metrics().scalar_values();
  EXPECT_EQ(flat.size(), flat_before);
  std::size_t flat_peer_names = 0;
  for (const auto& [name, v] : flat) flat_peer_names += peer_names(name);
  EXPECT_EQ(flat_peer_names, 0u);
#endif
}

// One rejected call of each ioctl: the accessor, the registry series and
// the cluster report all read the driver's one count.
TEST(HostSeries, EveryFailedIoctlCountsOnceEverywhere) {
  bcl::ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.node.mem_bytes = 16u << 20;
  bcl::BclCluster c{cfg};
  auto& ep = c.open_endpoint(0);
  c.engine().spawn([](bcl::Endpoint& ep) -> Task<void> {
    auto buf = ep.process().alloc(64);
    const auto sent = co_await ep.send_system(bcl::PortId{9, 0}, buf, 64);
    EXPECT_EQ(sent.err, bcl::BclErr::kBadTarget);
    EXPECT_EQ(co_await ep.post_recv(999, buf), bcl::BclErr::kBadTarget);
    EXPECT_EQ(co_await ep.bind_open(999, buf), bcl::BclErr::kBadTarget);
    bcl::RegisterGroupArgs reg;
    reg.group_id = 1;
    reg.members = {ep.id()};  // a group needs two members
    reg.result_buf = buf;
    EXPECT_EQ(co_await ep.driver().ioctl_register_group(ep.process(),
                                                        ep.port(), reg),
              bcl::BclErr::kBadTarget);
    bcl::CollPostArgs post;
    post.group_id = 7;  // never registered
    const auto posted = co_await ep.driver().ioctl_coll_post(
        ep.process(), ep.port(), post);
    EXPECT_EQ(posted.err, bcl::BclErr::kBadTarget);
  }(ep));
  c.engine().run();
  EXPECT_EQ(c.node(0).driver().security_rejects(), 5u);
  EXPECT_EQ(c.metrics().value("node0.driver.security_rejects"), 5.0);
  EXPECT_EQ(cluster::collect_report(c).security_rejects, 5u);
  EXPECT_EQ(c.metrics().value("node0.driver.sends"), 0.0);
}

// A full pin-down table fails post_recv and bind_open like every other
// ioctl: kNoResources and one rejection each, never an exception out of
// the trap.
TEST(HostSeries, FullPinTableFailsSetupIoctlsOnce) {
  bcl::ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.node.mem_bytes = 16u << 20;
  cfg.kernel.pindown.max_pinned_pages = 4;
  bcl::BclCluster c{cfg};
  auto& ep = c.open_endpoint(0);
  c.engine().spawn([](bcl::Endpoint& ep) -> Task<void> {
    auto small = ep.process().alloc(4096);
    auto big = ep.process().alloc(64 << 10);  // 16 pages
    EXPECT_EQ(co_await ep.post_recv(0, big), bcl::BclErr::kNoResources);
    EXPECT_FALSE(ep.port().normal(0).posted);
    EXPECT_EQ(co_await ep.bind_open(0, small), bcl::BclErr::kOk);
    EXPECT_EQ(co_await ep.bind_open(0, big), bcl::BclErr::kNoResources);
    EXPECT_FALSE(ep.port().open(0).bound);  // the old window is released
  }(ep));
  c.engine().run();
  EXPECT_EQ(c.node(0).driver().security_rejects(), 2u);
  EXPECT_EQ(c.metrics().value("node0.driver.security_rejects"), 2.0);
  EXPECT_EQ(c.node(0).kernel().pindown().pinned_pages(), 0u);
}

TEST(HostSeries, NodeStackRefusesMissingTelemetry) {
  sim::Engine eng;
  sim::Trace trace{eng};
  sim::MetricRegistry reg;
  bcl::ClusterConfig cfg;
  cfg.nodes = 1;
  cfg.node.mem_bytes = 8u << 20;
  EXPECT_THROW((bcl::NodeStack{eng, 0, cfg, nullptr, &reg}),
               std::invalid_argument);
  EXPECT_THROW((bcl::NodeStack{eng, 0, cfg, &trace, nullptr}),
               std::invalid_argument);
  EXPECT_TRUE(reg.counter_values().empty());
  bcl::NodeStack stack{eng, 0, cfg, &trace, &reg};
  EXPECT_EQ(reg.value("node0.driver.security_rejects"), 0.0);
}

}  // namespace
