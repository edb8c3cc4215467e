// Crash–restart recovery: a link fault window that closes before the retry
// budget must heal in place (no verdict, no duplicates, backoff ladder
// reset); an MCP fail-stop plus host reboot must surface every in-flight
// send exactly once (kPeerRestarted, never lost, never duplicated across
// incarnations) and re-establish sessions behind the incarnation fence; a
// peer declared unreachable must be rescinded when a revival probe is
// answered after its node comes back, and when a link heals after the
// verdict without any reboot; a credit update parked across a restart must
// not touch the erased ledger; a crash fails the descriptors still queued
// in the request ring exactly once; a straggler from a peer's previous
// boot is dropped at the fence and counted once.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "bcl/bcl.hpp"
#include "hw/myrinet_switch.hpp"
#include "sim/engine.hpp"

namespace {

using sim::Task;
using sim::Time;

constexpr std::size_t kBytes = 256;

hw::MyrinetFabric& myrinet(bcl::BclCluster& c) {
  return dynamic_cast<hw::MyrinetFabric&>(c.fabric());
}

// Self-describing payloads: the message uid rides in the first 4 bytes so
// the receiver can count per-message deliveries without trusting anything
// the reliability layer is itself being tested on.
void encode_uid(osk::Process& proc, const osk::UserBuffer& buf,
                std::uint32_t uid) {
  std::byte raw[4];
  for (int b = 0; b < 4; ++b) {
    raw[b] = static_cast<std::byte>((uid >> (8 * b)) & 0xff);
  }
  proc.poke(buf, 0, std::span<const std::byte>(raw, 4));
}

std::uint32_t decode_uid(const std::vector<std::byte>& data) {
  std::uint32_t uid = 0;
  for (int b = 0; b < 4 && static_cast<std::size_t>(b) < data.size(); ++b) {
    uid |= static_cast<std::uint32_t>(data[static_cast<std::size_t>(b)])
           << (8 * b);
  }
  return uid;
}

// Counts every delivery by uid, forever (spawned as a daemon).
Task<void> count_deliveries(bcl::Endpoint& rx, std::vector<int>& delivered) {
  for (;;) {
    bcl::RecvEvent ev = co_await rx.wait_recv();
    auto data = co_await rx.copy_out_system(ev);
    const std::uint32_t uid = decode_uid(data);
    if (uid < delivered.size()) ++delivered[uid];
  }
}

// ---------------------------------------------------------------------------
// A fail-stop window on the receiver's uplink that closes before the retry
// budget exhausts: go-back-N must heal in place.  No unreachable verdict,
// no duplicate delivery, and the first post-window ack resets the RTO
// backoff ladder.
// ---------------------------------------------------------------------------
TEST(Recovery, FaultWindowClosingBeforeBudgetHealsInPlace) {
  constexpr int kMsgs = 25;
  bcl::ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.node.mem_bytes = 8u << 20;
  cfg.cost.rto = Time::us(80);
  cfg.cost.max_retries = 10;  // ladder budget far outlasts the window
  bcl::BclCluster c{cfg};
  hw::FaultPlan window;
  window.fail_from = Time::us(150);
  window.fail_until = Time::us(450);
  myrinet(c).set_host_link_fault_plan(1, window);

  auto& tx = c.open_endpoint(0);
  auto& rx = c.open_endpoint(1);
  std::vector<int> delivered(kMsgs, 0);
  c.engine().spawn_daemon(count_deliveries(rx, delivered));

  c.engine().spawn([](bcl::Endpoint& tx, bcl::PortId dst) -> Task<void> {
    auto buf = tx.process().alloc(kBytes);
    tx.process().fill_pattern(buf, 5);
    for (int i = 0; i < kMsgs; ++i) {
      encode_uid(tx.process(), buf, static_cast<std::uint32_t>(i));
      auto r = co_await tx.send_system(dst, buf, kBytes);
      EXPECT_EQ(r.err, bcl::BclErr::kOk) << "msg " << i;
      bcl::SendEvent ev = co_await tx.wait_send();
      EXPECT_TRUE(ev.ok) << "msg " << i;
    }
  }(tx, rx.id()));
  c.engine().run();

  // Exactly-once delivery, in place: no verdict, no duplicates, no loss.
  for (int i = 0; i < kMsgs; ++i) {
    EXPECT_EQ(delivered[static_cast<std::size_t>(i)], 1) << "msg " << i;
  }
  EXPECT_EQ(c.node(0).mcp().recorder().count(bcl::NicEvent::kPeerFailure), 0u);
  EXPECT_EQ(c.node(0).mcp().unreachable_peers(), 0u);
  const auto sessions = c.node(0).mcp().session_snapshot();
  ASSERT_EQ(sessions.size(), 1u);
  // The window really bit (timeouts fired), and the first post-window ack
  // reset the backoff ladder — a healed path must not keep paying the
  // crash-grade RTO it backed off to.
  EXPECT_GT(sessions[0].timeouts, 0u);
  EXPECT_EQ(sessions[0].backoff, 0);
  EXPECT_FALSE(sessions[0].unreachable);
  EXPECT_EQ(sessions[0].incarnation, 0u);
  EXPECT_EQ(sessions[0].peer_incarnation, 0u);
}

// ---------------------------------------------------------------------------
// MCP fail-stop mid-stream + host-driven reboot.  Every submitted send
// completes exactly once — kOk implies delivered exactly once, a failure is
// kPeerRestarted and at-most-once — sessions re-establish behind the
// incarnation fence, and traffic flows again in both directions.
// ---------------------------------------------------------------------------
TEST(Recovery, CrashRestartSurfacesExactlyOnceAndReestablishes) {
  constexpr int kMsgs = 40;
  bcl::ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.node.mem_bytes = 8u << 20;
  cfg.cost.rto = Time::us(60);
  cfg.cost.max_retries = 8;
  cfg.cost.e2e_completion = true;  // completion = cumulative ack, not staging
  bcl::BclCluster c{cfg};
  auto& tx = c.open_endpoint(0);
  auto& rx = c.open_endpoint(1);

  std::vector<int> delivered(kMsgs, 0);
  std::vector<int> completions(kMsgs, 0);
  std::vector<bcl::BclErr> errs(kMsgs, bcl::BclErr::kOk);
  bool reverse_ok = false;

  // Receiver counts deliveries; delivery #11 triggers the fail-stop, and a
  // host task reboots the MCP 300 us later.
  c.engine().spawn_daemon([](bcl::BclCluster& c, bcl::Endpoint& rx,
                             std::vector<int>& delivered) -> Task<void> {
    for (;;) {
      bcl::RecvEvent ev = co_await rx.wait_recv();
      auto data = co_await rx.copy_out_system(ev);
      const std::uint32_t uid = decode_uid(data);
      if (uid < delivered.size()) ++delivered[uid];
      if (uid == 10 && !c.node(1).mcp().crashed()) {
        c.node(1).mcp().crash();
        c.engine().spawn([](bcl::BclCluster& c) -> Task<void> {
          co_await c.engine().sleep(Time::us(300));
          co_await c.node(1).driver().reset_nic();
        }(c));
      }
    }
  }(c, rx, delivered));

  c.engine().spawn([](bcl::Endpoint& tx, bcl::PortId dst,
                      std::vector<int>& completions,
                      std::vector<bcl::BclErr>& errs) -> Task<void> {
    auto buf = tx.process().alloc(kBytes);
    tx.process().fill_pattern(buf, 7);
    for (int i = 0; i < kMsgs; ++i) {
      encode_uid(tx.process(), buf, static_cast<std::uint32_t>(i));
      auto r = co_await tx.send_system(dst, buf, kBytes);
      EXPECT_EQ(r.err, bcl::BclErr::kOk) << "msg " << i;
      if (r.err != bcl::BclErr::kOk) continue;
      bcl::SendEvent ev = co_await tx.wait_send();
      ++completions[static_cast<std::size_t>(i)];
      errs[static_cast<std::size_t>(i)] = ev.err;
    }
  }(tx, rx.id(), completions, errs));

  // The revived node must also be able to send: one reverse message well
  // after the reboot settles.
  c.engine().spawn([](bcl::BclCluster& c, bcl::Endpoint& rev,
                      bcl::PortId dst, bool& ok) -> Task<void> {
    co_await c.engine().sleep(Time::ms(8));
    auto buf = rev.process().alloc(kBytes);
    rev.process().fill_pattern(buf, 9);
    auto r = co_await rev.send_system(dst, buf, kBytes);
    EXPECT_EQ(r.err, bcl::BclErr::kOk);
    if (r.err != bcl::BclErr::kOk) co_return;
    bcl::SendEvent ev = co_await rev.wait_send();
    ok = ev.ok;
  }(c, rx, tx.id(), reverse_ok));
  c.engine().run();

  int restarted = 0;
  for (int i = 0; i < kMsgs; ++i) {
    const auto ui = static_cast<std::size_t>(i);
    // Exactly one completion per send, and delivery agrees with it: kOk
    // means delivered exactly once; a failure means at most once (the
    // fragment may have landed before the crash ate its ack) — and is the
    // restart verdict, not a bogus "unreachable forever".
    EXPECT_EQ(completions[ui], 1) << "msg " << i;
    if (errs[ui] == bcl::BclErr::kOk) {
      EXPECT_EQ(delivered[ui], 1) << "msg " << i;
    } else {
      EXPECT_EQ(errs[ui], bcl::BclErr::kPeerRestarted) << "msg " << i;
      EXPECT_LE(delivered[ui], 1) << "msg " << i;
      ++restarted;
    }
  }
  EXPECT_GE(restarted, 1);            // the crash really caught a send
  EXPECT_LT(restarted, kMsgs);        // and the stream recovered after it
  EXPECT_EQ(errs[kMsgs - 1], bcl::BclErr::kOk);
  EXPECT_EQ(delivered[kMsgs - 1], 1);
  EXPECT_TRUE(reverse_ok);

  EXPECT_EQ(c.node(1).mcp().recorder().count(bcl::NicEvent::kRestart), 1u);
  EXPECT_EQ(c.node(1).mcp().incarnation(), 1u);
  EXPECT_GE(c.node(0).mcp().recorder().count(bcl::NicEvent::kPeerRestart), 1u);
  EXPECT_GE(c.node(0).mcp().recorder().count(bcl::NicEvent::kSynAck), 1u);
  EXPECT_GE(c.node(0).mcp().recorder().count(bcl::NicEvent::kSynTx), 1u);
  EXPECT_GE(c.node(1).mcp().recorder().count(bcl::NicEvent::kSynRx), 1u);
  EXPECT_GT(c.node(1).mcp().recorder().count(bcl::NicEvent::kStaleIncDrop), 0u);
  // Neither side ever concluded "unreachable": the restart path healed it.
  EXPECT_EQ(c.node(0).mcp().recorder().count(bcl::NicEvent::kPeerFailure), 0u);
}

// ---------------------------------------------------------------------------
// An old-epoch straggler: a packet node 1 sent in its first boot reaches
// node 0 after node 0 has heard from node 1's second boot.  The fence drops
// it before any state sees it and counts it once in
// <nic>.rel.stale_inc_drops; the new epoch's packets still pass.
// ---------------------------------------------------------------------------
TEST(Recovery, OldEpochStragglerIsDroppedAndCountedOnce) {
  bcl::ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.node.mem_bytes = 8u << 20;
  bcl::BclCluster c{cfg};
  (void)c.open_endpoint(0);
  // An ack from node 1 in boot epoch `epoch`, for a session node 0 does not
  // have: past the fence it counts as a stray ack and changes nothing else.
  const auto ack_from_node1 = [&c](std::uint32_t epoch) {
    hw::Packet p;
    p.proto = bcl::Mcp::kProto;
    p.kind = hw::PacketKind::kAck;
    p.src_node = 1;
    p.dst_node = 0;
    p.src_incarnation = epoch;
    c.node(0).node().nic().deliver(std::move(p));
    c.engine().run();
  };
  const auto count = [&c](bcl::NicEvent e) {
    return c.node(0).mcp().recorder().count(e);
  };
  ack_from_node1(1);  // node 0 learns node 1's second boot
  EXPECT_EQ(count(bcl::NicEvent::kPeerRestart), 1u);
  EXPECT_EQ(count(bcl::NicEvent::kStrayAck), 1u);
  EXPECT_EQ(c.metrics().value("node0.nic.rel.stale_inc_drops"), 0.0);

  ack_from_node1(0);  // the first boot's straggler
  EXPECT_EQ(c.metrics().value("node0.nic.rel.stale_inc_drops"), 1.0);
  EXPECT_EQ(count(bcl::NicEvent::kStrayAck), 1u);  // it went no further
  EXPECT_EQ(count(bcl::NicEvent::kPeerRestart), 1u);

  ack_from_node1(1);
  EXPECT_EQ(count(bcl::NicEvent::kStrayAck), 2u);
  EXPECT_EQ(c.metrics().value("node0.nic.rel.stale_inc_drops"), 1.0);
  EXPECT_EQ(count(bcl::NicEvent::kPeerRestart), 1u);
}

// ---------------------------------------------------------------------------
// Retry budget exhausts while the peer is down (kPeerUnreachable verdict),
// then the node reboots within the revival-probe budget: an answered probe
// rescinds the verdict and the next send re-establishes and succeeds.
// ---------------------------------------------------------------------------
TEST(Recovery, AnsweredRevivalProbeRescindsUnreachableVerdict) {
  bcl::ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.node.mem_bytes = 8u << 20;
  cfg.cost.rto = Time::us(60);
  cfg.cost.max_retries = 3;   // verdict lands well before the reboot
  cfg.cost.e2e_completion = true;  // staging would report the loss as kOk
  bcl::BclCluster c{cfg};
  auto& tx = c.open_endpoint(0);
  auto& rx = c.open_endpoint(1);

  std::vector<int> delivered(3, 0);
  c.engine().spawn_daemon(count_deliveries(rx, delivered));

  std::vector<bcl::BclErr> errs;
  c.engine().spawn([](bcl::BclCluster& c, bcl::Endpoint& tx, bcl::PortId dst,
                      std::vector<bcl::BclErr>& errs) -> Task<void> {
    auto buf = tx.process().alloc(kBytes);
    tx.process().fill_pattern(buf, 3);
    const auto one = [&](std::uint32_t uid) -> Task<bcl::BclErr> {
      encode_uid(tx.process(), buf, uid);
      auto r = co_await tx.send_system(dst, buf, kBytes);
      if (r.err != bcl::BclErr::kOk) co_return r.err;
      // Match the completion by msg_id: the unreachable verdict also posts
      // a port-wide advisory event (msg_id 0) that is not this send's.
      for (;;) {
        bcl::SendEvent ev = co_await tx.wait_send();
        if (ev.msg_id == r.value) co_return ev.err;
      }
    };
    errs.push_back(co_await one(0));  // healthy path
    c.node(1).mcp().crash();          // peer goes dark, no quick reboot
    errs.push_back(co_await one(1));  // budget exhausts -> unreachable
    co_await c.engine().sleep(Time::ms(2));
    co_await c.node(1).driver().reset_nic();
    // Give the prober one answered round trip, then send again.
    co_await c.engine().sleep(Time::ms(2));
    errs.push_back(co_await one(2));  // rescinded: re-establish + deliver
  }(c, tx, rx.id(), errs));
  c.engine().run();

  ASSERT_EQ(errs.size(), 3u);
  EXPECT_EQ(errs[0], bcl::BclErr::kOk);
  EXPECT_EQ(errs[1], bcl::BclErr::kPeerUnreachable);
  EXPECT_EQ(errs[2], bcl::BclErr::kOk);
  EXPECT_EQ(delivered[0], 1);
  EXPECT_EQ(delivered[1], 0);  // died with the crash, never resent
  EXPECT_EQ(delivered[2], 1);
  EXPECT_EQ(c.node(0).mcp().recorder().count(bcl::NicEvent::kPeerFailure), 1u);
  EXPECT_GE(c.node(0).mcp().recorder().count(bcl::NicEvent::kRevivalProbeTx),
            1u);
  EXPECT_GE(c.node(1).mcp().recorder().count(bcl::NicEvent::kRevivalProbeRx),
            1u);
  EXPECT_GE(c.node(0).mcp().recorder().count(bcl::NicEvent::kSynAck), 1u);
  EXPECT_EQ(c.node(1).mcp().recorder().count(bcl::NicEvent::kRestart), 1u);
}

// ---------------------------------------------------------------------------
// A standalone credit update parked on the pacer must not outlive its
// ledger.  The receiver reserves ~6.5 ms of pacing cursor toward the
// sender, so the update answering a credit probe waits behind it; a crash
// and reboot erase every ledger meanwhile.  The update must look its
// ledger up after the wait, find it gone, and stay silent.
// ---------------------------------------------------------------------------
TEST(Recovery, CreditUpdateParkedOnPacerSurvivesRestart) {
  bcl::ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.node.mem_bytes = 8u << 20;
  bcl::BclCluster c{cfg};
  auto& rx = c.open_endpoint(1);

  c.engine().spawn([](bcl::BclCluster& c, bcl::PortId dst) -> Task<void> {
    bcl::Mcp& receiver = c.node(1).mcp();
    // 1 MiB at line rate: the cursor toward node 0 runs ~6.5 ms ahead.
    co_await receiver.cc().pace(0, 1u << 20, /*reserve=*/true);
    c.node(0).mcp().fc_probe(dst);
    co_await c.engine().sleep(Time::us(100));  // probe in, update parked
    EXPECT_EQ(receiver.recorder().count(bcl::NicEvent::kCreditProbeRx), 1u);
    EXPECT_EQ(receiver.flow().ledgers().size(), 1u);
    receiver.crash();
    co_await c.node(1).driver().reset_nic();
  }(c, rx.id()));
  c.engine().run();

  const bcl::Mcp& receiver = c.node(1).mcp();
  EXPECT_FALSE(receiver.crashed());
  EXPECT_EQ(receiver.recorder().count(bcl::NicEvent::kCreditUpdateTx), 0u);
  EXPECT_TRUE(receiver.flow().ledgers().empty());
}

// ---------------------------------------------------------------------------
// A collective group whose member's MCP fail-stopped fails fast, and the
// same group id can re-register over the failure verdict once the member
// is back — the recovery path for "member crashed, group rebuilt".
// ---------------------------------------------------------------------------
TEST(Recovery, FailedGroupReregistersAfterRestart) {
  using bcl::coll::CollPort;
  constexpr std::uint16_t kGid = 5;
  constexpr std::size_t kLen = 512;
  bcl::ClusterConfig ccfg;
  ccfg.nodes = 2;
  ccfg.node.mem_bytes = 8u << 20;
  ccfg.cost.rto = Time::us(60);
  ccfg.cost.max_retries = 3;
  ccfg.cost.coll_op_timeout = Time::ms(2);
  bcl::BclCluster c{ccfg};
  auto& e0 = c.open_endpoint(0);
  auto& e1 = c.open_endpoint(1);
  const std::vector<bcl::PortId> members{e0.id(), e1.id()};

  bool done = false;
  c.engine().spawn([](bcl::BclCluster& c, bcl::Endpoint& e0,
                      bcl::Endpoint& e1,
                      const std::vector<bcl::PortId>& members,
                      bool& done) -> Task<void> {
    auto g0 = co_await CollPort::create(e0, kGid, members, 4096);
    auto g1 = co_await CollPort::create(e1, kGid, members, 4096);
    EXPECT_TRUE(g0.ok());
    EXPECT_TRUE(g1.ok());
    if (!g0.ok() || !g1.ok()) co_return;
    auto buf = e0.process().alloc(kLen);
    e0.process().fill_pattern(buf, 4);
    auto rbuf = e1.process().alloc(kLen);

    // Healthy broadcast first, so both descriptors are live.  For two
    // members the root's bcast completes locally, then the member's poll
    // claims the delivered payload.
    EXPECT_EQ(co_await g0.value->bcast(buf, kLen, 0), bcl::BclErr::kOk);
    EXPECT_EQ(co_await g1.value->bcast(rbuf, kLen, 0), bcl::BclErr::kOk);
    EXPECT_TRUE(e1.process().check_pattern(rbuf, 4));

    // Member 1's MCP dies mid-cluster; node 0's next fan-in operation on
    // the group fails fast instead of hanging (unreachable verdict or
    // restart notice, whichever the timing produces — never kOk, never a
    // hang).  A root bcast would not do: its fan-out completes locally
    // without the dead member's participation, by design.
    c.node(1).mcp().crash();
    const bcl::BclErr dead = co_await g0.value->barrier();
    EXPECT_NE(dead, bcl::BclErr::kOk);

    co_await c.engine().sleep(Time::ms(3));
    co_await c.node(1).driver().reset_nic();
    co_await c.engine().sleep(Time::ms(3));

    // Host-side recovery discipline: the survivor drains the dead group's
    // event queue (a group-wide failure event may still be parked there)
    // and re-registers the SAME id — the engine replaces the failed
    // descriptor in place.  The revived member registers fresh (its SRAM
    // came back empty) after dropping its dead CollPort.
    e0.port().drain_coll_events(kGid);
    g1.value.reset();
    auto r0 = co_await CollPort::create(e0, kGid, members, 4096);
    auto r1 = co_await CollPort::create(e1, kGid, members, 4096);
    EXPECT_TRUE(r0.ok());
    EXPECT_TRUE(r1.ok());
    if (!r0.ok() || !r1.ok()) co_return;
    e0.process().fill_pattern(buf, 6);
    EXPECT_EQ(co_await r0.value->bcast(buf, kLen, 0), bcl::BclErr::kOk);
    EXPECT_EQ(co_await r1.value->bcast(rbuf, kLen, 0), bcl::BclErr::kOk);
    EXPECT_TRUE(e1.process().check_pattern(rbuf, 6));
    done = true;
  }(c, e0, e1, members, done));
  c.engine().run();
  EXPECT_TRUE(done);
}

// ---------------------------------------------------------------------------
// A link that heals after the retry budget died rescinds the verdict with
// no reboot anywhere: node 1's uplink is down from 100 us to 3 ms, so the
// second send draws kPeerUnreachable (its data got through; only the acks
// were lost).  Once the link heals, a revival probe is answered at the
// very epoch that failed, and a send 6 ms later re-establishes the session
// and completes.
// ---------------------------------------------------------------------------
TEST(Recovery, HealedLinkRescindsVerdictWithoutReboot) {
  bcl::ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.node.mem_bytes = 8u << 20;
  cfg.cost.rto = Time::us(60);
  cfg.cost.max_retries = 3;
  cfg.cost.e2e_completion = true;  // staging would report the loss as kOk
  bcl::BclCluster c{cfg};
  hw::FaultPlan window;
  window.fail_from = Time::us(100);
  window.fail_until = Time::ms(3);
  myrinet(c).set_host_link_fault_plan(1, window);
  auto& tx = c.open_endpoint(0);
  auto& rx = c.open_endpoint(1);

  std::vector<int> delivered(3, 0);
  c.engine().spawn_daemon(count_deliveries(rx, delivered));

  std::vector<bcl::BclErr> errs;
  c.engine().spawn([](bcl::BclCluster& c, bcl::Endpoint& tx, bcl::PortId dst,
                      std::vector<bcl::BclErr>& errs) -> Task<void> {
    auto buf = tx.process().alloc(kBytes);
    tx.process().fill_pattern(buf, 4);
    const auto one = [&](std::uint32_t uid) -> Task<bcl::BclErr> {
      encode_uid(tx.process(), buf, uid);
      auto r = co_await tx.send_system(dst, buf, kBytes);
      if (r.err != bcl::BclErr::kOk) co_return r.err;
      // Match by msg_id: the verdict's port-wide advisory has msg_id 0.
      for (;;) {
        bcl::SendEvent ev = co_await tx.wait_send();
        if (ev.msg_id == r.value) co_return ev.err;
      }
    };
    errs.push_back(co_await one(0));  // before the fault window
    co_await c.engine().sleep(Time::us(100));
    errs.push_back(co_await one(1));  // acks lost: budget exhausts
    co_await c.engine().sleep(Time::ms(6));
    errs.push_back(co_await one(2));  // rescinded: re-establish + deliver
  }(c, tx, rx.id(), errs));
  c.engine().run();

  ASSERT_EQ(errs.size(), 3u);
  EXPECT_EQ(errs[0], bcl::BclErr::kOk);
  EXPECT_EQ(errs[1], bcl::BclErr::kPeerUnreachable);
  EXPECT_EQ(errs[2], bcl::BclErr::kOk);
  EXPECT_EQ(delivered[0], 1);
  EXPECT_EQ(delivered[2], 1);
  const auto& sender = c.node(0).mcp().recorder();
  EXPECT_EQ(sender.count(bcl::NicEvent::kPeerFailure), 1u);
  EXPECT_EQ(sender.count(bcl::NicEvent::kSynAck), 1u);  // rel.recovered_peers
  // The same-epoch branch: nobody rebooted and no new epoch was seen.
  EXPECT_EQ(sender.count(bcl::NicEvent::kPeerRestart), 0u);
  for (const hw::NodeId n : {0u, 1u}) {
    EXPECT_EQ(c.node(n).mcp().recorder().count(bcl::NicEvent::kRestart), 0u)
        << "node " << n;
    EXPECT_EQ(c.node(n).mcp().incarnation(), 0u) << "node " << n;
  }
}

// ---------------------------------------------------------------------------
// A fail-stop with descriptors still queued in the request ring.  Node 1's
// acks never come back, so after a 4-packet window the MCP stalls on the
// fifth of twelve back-to-back sends while the other seven wait in the
// ring.  The crash fails the stalled send through its poisoned session and
// the seven queued ones through the host-resident event queue: every send
// draws exactly one completion.
// ---------------------------------------------------------------------------
TEST(Recovery, CrashFailsDescriptorsStillInRequestRing) {
  constexpr int kMsgs = 12;
  constexpr int kWindow = 4;
  bcl::ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.node.mem_bytes = 8u << 20;
  cfg.cost.window = kWindow;
  cfg.cost.flow_control = false;  // sends queue in the ring, not on credits
  cfg.cost.rto = Time::ms(5);     // no retransmission before the crash
  bcl::BclCluster c{cfg};
  hw::FaultPlan dead;
  dead.fail_from = Time::zero();
  myrinet(c).set_host_link_fault_plan(1, dead);
  auto& tx = c.open_endpoint(0);
  auto& rx = c.open_endpoint(1);
  std::vector<int> delivered(kMsgs, 0);
  c.engine().spawn_daemon(count_deliveries(rx, delivered));

  std::size_t queued_at_crash = 0;
  std::map<std::uint64_t, std::vector<bcl::BclErr>> events;
  c.engine().spawn([](bcl::BclCluster& c, bcl::Endpoint& tx, bcl::PortId dst,
                      std::size_t& queued,
                      std::map<std::uint64_t, std::vector<bcl::BclErr>>&
                          events) -> Task<void> {
    auto buf = tx.process().alloc(kBytes);
    for (int i = 0; i < kMsgs; ++i) {
      auto r = co_await tx.send_system(dst, buf, kBytes);
      EXPECT_EQ(r.err, bcl::BclErr::kOk) << "msg " << i;
    }
    bcl::Mcp& mcp = c.node(0).mcp();
    queued = mcp.requests().size();
    mcp.crash();
    for (int i = 0; i < kMsgs; ++i) {
      const bcl::SendEvent ev = co_await tx.wait_send();
      events[ev.msg_id].push_back(ev.err);
    }
  }(c, tx, rx.id(), queued_at_crash, events));
  c.engine().run();

  EXPECT_EQ(queued_at_crash, static_cast<std::size_t>(kMsgs - kWindow - 1));
  ASSERT_EQ(events.size(), static_cast<std::size_t>(kMsgs));
  int ok = 0;
  for (const auto& [msg_id, errs] : events) {
    ASSERT_EQ(errs.size(), 1u) << "msg " << msg_id;
    if (errs[0] == bcl::BclErr::kOk) {
      ++ok;
    } else {
      EXPECT_EQ(errs[0], bcl::BclErr::kPeerRestarted) << "msg " << msg_id;
    }
  }
  EXPECT_EQ(ok, kWindow);  // staged before the window closed
  EXPECT_EQ(tx.port().send_events().size(), 0u);  // nothing else arrived
}
}  // namespace
