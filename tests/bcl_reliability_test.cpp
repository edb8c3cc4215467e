// Fault-injection tests of the go-back-N reliability protocol the MCP runs
// on the NIC: corrupted links must not lose, duplicate, or reorder data.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <utility>
#include <vector>

#include "bcl/bcl.hpp"
#include "bcl/cc/controller.hpp"
#include "bcl/reliable.hpp"
#include "heap_counter.hpp"
#include "hw/memory.hpp"
#include "hw/myrinet_switch.hpp"
#include "hw/pci.hpp"
#include "sim/metrics.hpp"
#include "sim/queue.hpp"
#include "sim/trace.hpp"

namespace {

using bcl::BclCluster;
using bcl::BclErr;
using bcl::ClusterConfig;
using bcl::Endpoint;
using bcl::PortId;
using bcl::RecvEvent;
using sim::Task;
using sim::Time;

ClusterConfig lossy_cluster(double corrupt_prob, bool reliable = true) {
  ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.node.mem_bytes = 8u << 20;
  cfg.cost.reliable = reliable;
  cfg.cost.rto = Time::us(80);  // recover quickly in tests
  (void)corrupt_prob;  // set per-link below
  return cfg;
}

hw::MyrinetFabric& myrinet(BclCluster& c) {
  return dynamic_cast<hw::MyrinetFabric&>(c.fabric());
}

// Corrupts a fraction `p` of the packets crossing node `n`'s uplink, drawn
// from a stream seeded 1000 + n.
void corrupt_uplink(BclCluster& c, hw::NodeId n, double p) {
  myrinet(c).set_host_link_fault_plan(n,
                                      {.corrupt_prob = p, .seed = 1000 + n});
}

TEST(BclReliability, LossyLinkDeliversExactlyOnceInOrder) {
  BclCluster c{lossy_cluster(0.05)};
  corrupt_uplink(c, 0, 0.05);
  auto& tx = c.open_endpoint(0);
  auto& rx = c.open_endpoint(1);
  constexpr int kMsgs = 60;
  std::vector<unsigned> order;
  c.engine().spawn([](Endpoint& tx, PortId dst) -> Task<void> {
    auto buf = tx.process().alloc(256);
    for (unsigned i = 0; i < kMsgs; ++i) {
      const std::byte b[1] = {std::byte{static_cast<unsigned char>(i)}};
      tx.process().poke(buf, 0, b);
      auto r = co_await tx.send_system(dst, buf, 256);
      EXPECT_EQ(r.err, BclErr::kOk);
      (void)co_await tx.wait_send();
    }
  }(tx, rx.id()));
  c.engine().spawn([](Endpoint& rx, std::vector<unsigned>& ord) -> Task<void> {
    for (int i = 0; i < kMsgs; ++i) {
      RecvEvent ev = co_await rx.wait_recv();
      auto data = co_await rx.copy_out_system(ev);
      ord.push_back(static_cast<unsigned>(data.at(0)));
    }
  }(rx, order));
  c.engine().run();
  EXPECT_EQ(order.size(), static_cast<std::size_t>(kMsgs));
  for (unsigned i = 0; i < kMsgs; ++i) EXPECT_EQ(order[i], i);
  // Some packets must actually have been corrupted and recovered.
  EXPECT_GT(c.node(1).mcp().recorder().count(bcl::NicEvent::kCrcDrop), 0u);
  EXPECT_GT(c.node(0).mcp().recorder().count(bcl::NicEvent::kRetransmit), 0u);
}

TEST(BclReliability, LargeMessageSurvivesCorruption) {
  BclCluster c{lossy_cluster(0.08)};
  corrupt_uplink(c, 0, 0.08);
  auto& tx = c.open_endpoint(0);
  auto& rx = c.open_endpoint(1);
  const std::size_t kLen = 64 * 1024;
  bool verified = false;
  c.engine().spawn([](Endpoint& rx, Endpoint& tx, std::size_t len,
                      bool& ok) -> Task<void> {
    auto rbuf = rx.process().alloc(len);
    EXPECT_EQ(co_await rx.post_recv(0, rbuf), BclErr::kOk);
    auto go = rx.process().alloc(1);
    (void)co_await rx.send_system(tx.id(), go, 1);
    RecvEvent ev = co_await rx.wait_recv();
    EXPECT_EQ(ev.len, len);
    ok = rx.process().check_pattern(rbuf, 13);
  }(rx, tx, kLen, verified));
  c.engine().spawn([](Endpoint& tx, PortId dst, std::size_t len)
                       -> Task<void> {
    RecvEvent go = co_await tx.wait_recv();
    (void)co_await tx.copy_out_system(go);
    auto sbuf = tx.process().alloc(len);
    tx.process().fill_pattern(sbuf, 13);
    auto r = co_await tx.send(dst, bcl::ChannelRef{bcl::ChanKind::kNormal, 0},
                              sbuf, len);
    EXPECT_EQ(r.err, BclErr::kOk);
  }(tx, rx.id(), kLen));
  c.engine().run();
  EXPECT_TRUE(verified);
  EXPECT_GT(c.node(0).mcp().recorder().count(bcl::NicEvent::kRetransmit), 0u);
}

TEST(BclReliability, UnreliableModeLosesOnCorruption) {
  BclCluster c{lossy_cluster(0.2, /*reliable=*/false)};
  corrupt_uplink(c, 0, 0.2);
  auto& tx = c.open_endpoint(0);
  auto& rx = c.open_endpoint(1);
  c.engine().spawn([](Endpoint& tx, PortId dst) -> Task<void> {
    auto buf = tx.process().alloc(128);
    for (int i = 0; i < 50; ++i) {
      auto r = co_await tx.send_system(dst, buf, 128);
      EXPECT_EQ(r.err, BclErr::kOk);
      (void)co_await tx.wait_send();
    }
  }(tx, rx.id()));
  c.engine().run();  // no receiver: just count deliveries at the port
  const auto& st = c.node(1).mcp().recorder();
  EXPECT_GT(st.count(bcl::NicEvent::kCrcDrop), 0u);
  EXPECT_LT(rx.port().messages_received(), 50u);  // losses visible
  EXPECT_EQ(c.node(0).mcp().recorder().count(bcl::NicEvent::kRetransmit), 0u);
}

TEST(BclReliability, CleanLinkNeverRetransmits) {
  BclCluster c{lossy_cluster(0.0)};
  auto& tx = c.open_endpoint(0);
  auto& rx = c.open_endpoint(1);
  c.engine().spawn([](Endpoint& tx, PortId dst) -> Task<void> {
    auto buf = tx.process().alloc(4096);
    for (int i = 0; i < 30; ++i) {
      auto r = co_await tx.send_system(dst, buf, 4096);
      EXPECT_EQ(r.err, BclErr::kOk);
      (void)co_await tx.wait_send();
    }
  }(tx, rx.id()));
  c.engine().spawn([](Endpoint& rx) -> Task<void> {
    for (int i = 0; i < 30; ++i) {
      RecvEvent ev = co_await rx.wait_recv();
      (void)co_await rx.copy_out_system(ev);
    }
  }(rx));
  c.engine().run();
  EXPECT_EQ(c.node(0).mcp().recorder().count(bcl::NicEvent::kRetransmit), 0u);
  EXPECT_EQ(c.node(1).mcp().recorder().count(bcl::NicEvent::kSeqDrop), 0u);
  EXPECT_GT(c.node(1).mcp().recorder().count(bcl::NicEvent::kAckTx), 0u);
}

TEST(BclReliability, WindowBackpressureStallsNotLoses) {
  // Tiny window: the sender must stall on in-flight packets, and still
  // deliver everything in order.
  ClusterConfig cfg = lossy_cluster(0.0);
  cfg.cost.window = 2;
  BclCluster c{cfg};
  auto& tx = c.open_endpoint(0);
  auto& rx = c.open_endpoint(1);
  const std::size_t kLen = 48 * 1024;  // 12 fragments >> window
  bool verified = false;
  c.engine().spawn([](Endpoint& rx, Endpoint& tx, std::size_t len,
                      bool& ok) -> Task<void> {
    auto rbuf = rx.process().alloc(len);
    EXPECT_EQ(co_await rx.post_recv(0, rbuf), BclErr::kOk);
    auto go = rx.process().alloc(1);
    (void)co_await rx.send_system(tx.id(), go, 1);
    (void)co_await rx.wait_recv();
    ok = rx.process().check_pattern(rbuf, 3);
  }(rx, tx, kLen, verified));
  c.engine().spawn([](Endpoint& tx, PortId dst, std::size_t len)
                       -> Task<void> {
    RecvEvent go = co_await tx.wait_recv();
    (void)co_await tx.copy_out_system(go);
    auto sbuf = tx.process().alloc(len);
    tx.process().fill_pattern(sbuf, 3);
    auto r = co_await tx.send(dst, bcl::ChannelRef{bcl::ChanKind::kNormal, 0},
                              sbuf, len);
    EXPECT_EQ(r.err, BclErr::kOk);
  }(tx, rx.id(), kLen));
  c.engine().run();
  EXPECT_TRUE(verified);
}

TEST(BclReliability, BothDirectionsLossySimultaneously) {
  BclCluster c{lossy_cluster(0.05)};
  corrupt_uplink(c, 0, 0.06);
  corrupt_uplink(c, 1, 0.06);
  auto& a = c.open_endpoint(0);
  auto& b = c.open_endpoint(1);
  int got_a = 0, got_b = 0;
  auto pingpong = [](Endpoint& me, PortId peer, int rounds, bool starter,
                     int& got) -> Task<void> {
    auto buf = me.process().alloc(64);
    for (int i = 0; i < rounds; ++i) {
      if (starter) {
        auto r = co_await me.send_system(peer, buf, 64);
        EXPECT_EQ(r.err, BclErr::kOk);
        RecvEvent ev = co_await me.wait_recv();
        (void)co_await me.copy_out_system(ev);
        ++got;
      } else {
        RecvEvent ev = co_await me.wait_recv();
        (void)co_await me.copy_out_system(ev);
        ++got;
        auto r = co_await me.send_system(peer, buf, 64);
        EXPECT_EQ(r.err, BclErr::kOk);
      }
    }
  };
  c.engine().spawn(pingpong(a, b.id(), 25, true, got_a));
  c.engine().spawn(pingpong(b, a.id(), 25, false, got_b));
  c.engine().run();
  EXPECT_EQ(got_a, 25);
  EXPECT_EQ(got_b, 25);
}

// ---------------------------------------------------------------------------
// TxSession unit rig: a bare NIC wired to a bounded sink channel, so the
// retransmission loop genuinely suspends inside nic.transmit mid-window,
// and what every session is built with: a scripted owner and a real
// flight recorder, trace and congestion controller.
// ---------------------------------------------------------------------------

class SinkFabric : public hw::Fabric {
 public:
  SinkFabric(sim::Engine& eng, std::size_t capacity) : ch{eng, capacity} {}
  void attach(hw::NodeId, hw::Nic& nic) override { nic.wire(this, &ch); }
  void stamp_route(hw::Packet&) const override {}
  int hops(hw::NodeId, hw::NodeId) const override { return 1; }
  std::vector<std::string> links_of(hw::NodeId) const override { return {}; }

  sim::Channel<hw::Packet> ch;

 private:
  void write_device_series(sim::MetricSink&) const override {}
};

struct TxRecord {
  std::uint32_t seq;
  Time at;
};

// A scripted two-path owner: strike() rotates to path 1 on its third call;
// the death verdict is kPartitioned.  Records every callback.
class TwoPathOwner : public bcl::SessionOwner {
 public:
  std::uint8_t path(hw::NodeId) override { return current; }
  bool strike(hw::NodeId) override {
    if (++strikes != 3) return false;
    current = 1;
    return true;
  }
  void progress(hw::NodeId) override { ++progress_calls; }
  BclErr verdict(hw::NodeId) override { return BclErr::kPartitioned; }
  void failed(hw::NodeId peer) override { failures.push_back(peer); }
  void completed(const bcl::TxNotify& n, BclErr err) override {
    done.emplace_back(n.msg_id, err);
  }

  std::uint8_t current = 0;
  int strikes = 0;
  int progress_calls = 0;
  std::vector<hw::NodeId> failures;
  std::vector<std::pair<std::uint64_t, BclErr>> done;
};

// Set `cost` before session() builds a session from it; the controller
// reads it live.
struct SessionRig {
  explicit SessionRig(std::size_t sink_capacity) : fab{eng, sink_capacity} {
    fab.attach(0, nic);
  }

  bcl::TxSession session(hw::NodeId peer, bool handshake = false) {
    return bcl::TxSession{eng, nic, cost, owner, peer, cc, recorder, trace,
                          /*seed=*/1, handshake};
  }

  sim::Engine eng;
  hw::HostMemory mem{1u << 20};
  hw::PciBus pci{eng, "pci", {}};
  hw::Nic nic{eng, 0, "nic0", pci, mem, {}};
  SinkFabric fab;
  bcl::CostConfig cost;
  TwoPathOwner owner;
  sim::Trace trace{eng};
  sim::MetricRegistry metrics;
  bcl::FlightRecorder recorder{0};
  bcl::cc::CongestionController cc{eng, cost, "nic0", trace, metrics,
                                    recorder};
};

// Regression for the retransmit-window race: an ack that lands while the
// timer coroutine is suspended inside nic.transmit pops the front of the
// unacked deque.  Iterating the window by index then skips live packets or
// resends freed slots; the snapshot walk must resend every still-unacked
// sequence exactly once.
TEST(TxSessionUnit, AckDuringRetransmissionResendsEachUnackedSeqOnce) {
  SessionRig rig{1};  // one slot: the retransmit walk blocks per packet
  rig.cost.window = 8;
  rig.cost.rto = Time::us(100);
  rig.cost.adaptive_rto = false;
  rig.cost.rto_backoff_jitter = 0.0;
  rig.cost.dupack_k = 0;    // isolate the timer-driven retransmit path
  rig.cost.max_retries = 0;  // no retry budget: the session must not fail
  bcl::TxSession s = rig.session(1);

  std::vector<TxRecord> sent;
  rig.eng.spawn_daemon([](sim::Engine& eng, SinkFabric& fab,
                          std::vector<TxRecord>& sent) -> Task<void> {
    for (;;) {
      hw::Packet p = co_await fab.ch.recv();
      sent.push_back({p.seq, eng.now()});
      co_await eng.sleep(Time::us(5));  // slow drain keeps the channel full
    }
  }(rig.eng, rig.fab, sent));
  rig.eng.spawn([](sim::Engine& eng, bcl::TxSession& s) -> Task<void> {
    for (int i = 0; i < 4; ++i) {
      hw::Packet p;
      p.dst_node = 1;
      EXPECT_EQ(co_await s.send(std::move(p)), bcl::BclErr::kOk);
    }
    // The RTO fires just after t=100us and the retransmission starts
    // walking the window (one packet per 5us through the sink).  This ack
    // lands while the walk is suspended: seqs 1-2 leave the window
    // mid-retransmission.
    co_await eng.sleep(Time::us(103) - eng.now());
    s.on_ack(2);
    co_await eng.sleep(Time::us(100));
    s.on_ack(4);
  }(rig.eng, s));
  rig.eng.run();

  const auto count = [&](std::uint32_t q) {
    return std::count_if(sent.begin(), sent.end(),
                         [q](const TxRecord& r) { return r.seq == q; });
  };
  // Each of the four sequences crossed the wire exactly twice: the original
  // transmission and one retransmission — nothing skipped, nothing doubled.
  EXPECT_EQ(sent.size(), 8u);
  for (std::uint32_t q = 1; q <= 4; ++q) EXPECT_EQ(count(q), 2) << "seq " << q;
  EXPECT_EQ(s.retransmissions(), 4u);
  EXPECT_EQ(s.timeouts(), 1u);
  EXPECT_EQ(s.in_flight(), 0u);
  EXPECT_FALSE(s.peer_unreachable());
}

// Regression for the dup-ack echo-sample drop: a duplicate cumulative ack
// releases nothing, but when it carries a timestamp echo it still reflects
// the launch time of the (out-of-order) packet that triggered it.  During a
// congested window's replay those dup acks are the only acks flowing, so
// discarding their samples silences the RTT estimator exactly when round
// trips inflate.  The sample must land even when released == 0; a stampless
// dup ack must still produce none (Karn's rule).
TEST(TxSessionUnit, DupAckWithEchoStampStillFeedsTheRttEstimator) {
  SessionRig rig{64};  // roomy sink: sends never block in this test
  rig.cost.window = 8;
  rig.cost.rto = Time::us(10'000);  // far past the test horizon: no RTO
  rig.cost.adaptive_rto = true;
  rig.cost.rto_backoff_jitter = 0.0;
  rig.cost.dupack_k = 0;  // no fast retransmit: isolate the estimator path
  bcl::TxSession s = rig.session(1);

  rig.eng.spawn_daemon([](SinkFabric& fab) -> Task<void> {
    for (;;) (void)co_await fab.ch.recv();
  }(rig.fab));
  rig.eng.spawn([](sim::Engine& eng, bcl::TxSession& s) -> Task<void> {
    for (int i = 0; i < 3; ++i) {
      hw::Packet p;
      p.dst_node = 1;
      EXPECT_EQ(co_await s.send(std::move(p)), bcl::BclErr::kOk);
    }
    co_await eng.sleep(Time::us(40) - eng.now());
    // Fresh ack releasing seq 1: a 30us echo sample seeds the estimator.
    s.on_ack(1, eng.now() - Time::us(30));
    EXPECT_EQ(s.rtt_samples(), 1u);
    EXPECT_EQ(s.srtt(), Time::us(30));
    const Time srtt_before = s.srtt();

    co_await eng.sleep(Time::us(60));
    // Duplicate cumulative ack (seqs 2-3 still unacked) carrying a fresher
    // 20us echo: releases nothing, but the sample must still feed srtt.
    s.on_ack(1, eng.now() - Time::us(20));
    EXPECT_EQ(s.rtt_samples(), 2u);
    EXPECT_LT(s.srtt(), srtt_before);  // the 20us sample pulled it down
    // EWMA check: srtt = 30 * 7/8 + 20 * 1/8 = 28.75us.
    EXPECT_NEAR(s.srtt().to_us(), 28.75, 1e-9);

    // Stampless duplicate ack: Karn's rule still applies — no sample.
    s.on_ack(1);
    EXPECT_EQ(s.rtt_samples(), 2u);

    s.on_ack(3, eng.now() - Time::us(25));  // drain the window
  }(rig.eng, s));
  rig.eng.run();

  EXPECT_EQ(s.rtt_samples(), 3u);
  EXPECT_EQ(s.in_flight(), 0u);
  EXPECT_EQ(s.retransmissions(), 0u);
  EXPECT_EQ(s.fast_retransmits(), 0u);
  EXPECT_FALSE(s.peer_unreachable());
}

struct PathRecord {
  Time at;
  std::uint8_t path;
};

// The session's contract with its owner.  Every RTO expiry is a strike;
// the strike that rotates resets the backoff ladder and the retry budget,
// so the next resend leaves 2x base RTO later on the new path and the
// budget (max_retries = 3) survives three more timeouts.  The budget's
// death poisons with the owner's verdict, calls failed() exactly once, and
// resolves every tracked completion through completed() exactly once —
// including one tracked after the death.
TEST(TxSessionUnit, OwnerRotationResetsEscalationAndResolvesOnce) {
  SessionRig rig{64};  // roomy sink: sends never block in this test
  rig.cost.rto = Time::us(100);
  rig.cost.adaptive_rto = false;
  rig.cost.rto_backoff_jitter = 0.0;
  rig.cost.dupack_k = 0;
  rig.cost.max_retries = 3;
  TwoPathOwner& owner = rig.owner;
  constexpr hw::NodeId kPeer = 7;
  bcl::TxSession s = rig.session(kPeer);

  std::vector<PathRecord> sent;
  rig.eng.spawn_daemon([](sim::Engine& eng, SinkFabric& fab,
                          std::vector<PathRecord>& sent) -> Task<void> {
    for (;;) {
      hw::Packet p = co_await fab.ch.recv();
      sent.push_back({eng.now(), p.path_id});
    }
  }(rig.eng, rig.fab, sent));
  rig.eng.spawn([](bcl::TxSession& s, hw::NodeId peer) -> Task<void> {
    for (std::uint64_t msg = 1; msg <= 2; ++msg) {
      hw::Packet p;
      p.dst_node = peer;
      EXPECT_EQ(co_await s.send(std::move(p)), BclErr::kOk);
      s.track({s.last_seq(), msg, 0, PortId{peer, 0}});
    }
  }(s, kPeer));
  rig.eng.run();

  // Expiries at 100, 300, 700 (rotation: ladder reset), 900, 1300, and the
  // fatal one at 2100 us, each wait stretched by the drain allowance: the
  // unacked window's wire bytes at line rate.  The first packet alone was
  // unacked when the timer armed, both of them at every later expiry.
  // Without the reset the budget would have died at the fourth expiry.
  const std::size_t wire = hw::Packet{}.wire_bytes();
  const Time one = Time::bytes_at(wire, rig.cost.cc_line_rate);
  const Time two = Time::bytes_at(2 * wire, rig.cost.cc_line_rate);
  EXPECT_EQ(s.timeouts(), 6u);
  EXPECT_EQ(owner.strikes, 6);
  EXPECT_EQ(owner.progress_calls, 0);
  ASSERT_EQ(sent.size(), 12u);  // 2 first launches + 5 window replays
  for (const PathRecord& r : sent) {
    EXPECT_EQ(r.path, r.at < Time::us(700) ? 0 : 1) << r.at.str();
  }
  // The first replay on the new path, then one 2x base RTO later, not 8x.
  EXPECT_EQ(sent[6].at, Time::us(700) + one + two + two);
  EXPECT_EQ(sent[8].at, Time::us(900) + one + two + two + two);

  EXPECT_TRUE(s.peer_unreachable());
  EXPECT_EQ(owner.failures, std::vector<hw::NodeId>{kPeer});
  ASSERT_EQ(owner.done.size(), 2u);
  EXPECT_EQ(owner.done[0], std::make_pair(std::uint64_t{1},
                                          BclErr::kPartitioned));
  EXPECT_EQ(owner.done[1], std::make_pair(std::uint64_t{2},
                                          BclErr::kPartitioned));

  // Dead is dead: a late entry resolves at once with the verdict, a send
  // fails with it, and neither teardown path reports or resolves twice.
  s.track({s.last_seq(), 3, 0, PortId{kPeer, 0}});
  ASSERT_EQ(owner.done.size(), 3u);
  EXPECT_EQ(owner.done[2].second, BclErr::kPartitioned);
  rig.eng.spawn([](bcl::TxSession& s) -> Task<void> {
    EXPECT_EQ(co_await s.send(hw::Packet{}), BclErr::kPartitioned);
  }(s));
  rig.eng.run();
  s.fail_peer();
  s.poison(BclErr::kPeerRestarted);
  EXPECT_EQ(owner.failures.size(), 1u);
  EXPECT_EQ(owner.done.size(), 3u);
  EXPECT_EQ(sent.size(), 12u);
}

// The retransmit ring and the completion ledger across many wraps: a
// window of 8, 100 tracked messages, cumulative acks in random chunks.
// Every completion resolves exactly once, in sequence order, and the
// window never holds more than 8.
TEST(TxSessionUnit, RandomAckChunksResolveCompletionsInOrder) {
  SessionRig rig{256};
  rig.cost.window = 8;
  rig.cost.rto = Time::ms(1);  // never expires: acks arrive every microsecond
  rig.cost.adaptive_rto = false;
  rig.cost.rto_backoff_jitter = 0.0;
  rig.cost.dupack_k = 0;
  rig.cost.max_retries = 0;
  const TwoPathOwner& owner = rig.owner;
  constexpr hw::NodeId kPeer = 3;
  constexpr std::uint64_t kMsgs = 100;
  bcl::TxSession s = rig.session(kPeer);

  rig.eng.spawn_daemon([](SinkFabric& fab) -> Task<void> {
    for (;;) (void)co_await fab.ch.recv();
  }(rig.fab));
  rig.eng.spawn([](bcl::TxSession& s, hw::NodeId peer) -> Task<void> {
    for (std::uint64_t msg = 1; msg <= kMsgs; ++msg) {
      hw::Packet p;
      p.dst_node = peer;
      EXPECT_EQ(co_await s.send(std::move(p)), BclErr::kOk);
      s.track({s.last_seq(), msg, 0, PortId{peer, 0}});
    }
  }(s, kPeer));
  std::size_t max_in_flight = 0;
  rig.eng.spawn([](sim::Engine& eng, bcl::TxSession& s, std::uint32_t first,
                   std::size_t& max_in_flight) -> Task<void> {
    std::mt19937 rng{5};
    std::uint32_t acked = first - 1;
    while (acked != first - 1 + kMsgs) {
      co_await eng.sleep(Time::us(1.0));
      max_in_flight = std::max(max_in_flight, s.in_flight());
      const std::uint32_t outstanding = s.last_seq() - acked;
      if (outstanding == 0) continue;
      acked += 1 + static_cast<std::uint32_t>(rng() % outstanding);
      s.on_ack(acked);
    }
  }(rig.eng, s, rig.cost.first_seq, max_in_flight));
  rig.eng.run();

  ASSERT_EQ(owner.done.size(), kMsgs);
  for (std::uint64_t msg = 1; msg <= kMsgs; ++msg) {
    EXPECT_EQ(owner.done[msg - 1], std::make_pair(msg, BclErr::kOk));
  }
  EXPECT_EQ(max_in_flight, 8u);
  EXPECT_EQ(s.in_flight(), 0u);
  EXPECT_EQ(s.retransmissions(), 0u);
  EXPECT_EQ(s.timeouts(), 0u);
}

// An RNR-NACK still carries a cumulative ack.  When it passes the last
// ack, the prefix it covers leaves the window: in_flight drops, the
// prefix's window slots free (two more sends go out without stalling),
// and each tracked completion in it resolves once with kOk.
TEST(TxSessionUnit, RnrCumulativeAckReleasesThePrefix) {
  SessionRig rig{64};  // roomy sink: sends never block in this test
  rig.cost.window = 4;
  rig.cost.rto = Time::ms(1);  // never expires in this test
  rig.cost.adaptive_rto = false;
  rig.cost.rto_backoff_jitter = 0.0;
  rig.cost.dupack_k = 0;
  rig.cost.max_retries = 0;
  TwoPathOwner& owner = rig.owner;
  constexpr hw::NodeId kPeer = 2;
  bcl::TxSession s = rig.session(kPeer);

  rig.eng.spawn_daemon([](SinkFabric& fab) -> Task<void> {
    for (;;) (void)co_await fab.ch.recv();
  }(rig.fab));
  std::size_t in_flight_after_rnr = 0;
  std::vector<std::pair<std::uint64_t, BclErr>> done_at_rnr;
  rig.eng.spawn([](sim::Engine& eng, bcl::TxSession& s, TwoPathOwner& owner,
                   std::size_t& in_flight_after_rnr,
                   std::vector<std::pair<std::uint64_t, BclErr>>& done_at_rnr)
                    -> Task<void> {
    for (std::uint64_t msg = 1; msg <= 6; ++msg) {
      if (msg == 5) {
        // The window is full: the NACK acks messages 1 and 2.
        co_await eng.sleep(Time::us(10));
        s.on_rnr(s.last_seq() - 2, Time::us(20));
        in_flight_after_rnr = s.in_flight();
        done_at_rnr = owner.done;
      }
      hw::Packet p;
      p.dst_node = kPeer;
      EXPECT_EQ(co_await s.send(std::move(p)), BclErr::kOk);
      s.track({s.last_seq(), msg, 0, PortId{kPeer, 0}});
    }
    co_await eng.sleep(Time::us(40));  // past the hold's window replay
    s.on_ack(s.last_seq());
  }(rig.eng, s, owner, in_flight_after_rnr, done_at_rnr));
  rig.eng.run();

  EXPECT_EQ(in_flight_after_rnr, 2u);
  EXPECT_EQ(done_at_rnr,
            (std::vector<std::pair<std::uint64_t, BclErr>>{
                {1, BclErr::kOk}, {2, BclErr::kOk}}));
  EXPECT_EQ(s.window_stalls(), 0u);
  ASSERT_EQ(owner.done.size(), 6u);
  for (std::uint64_t msg = 1; msg <= 6; ++msg) {
    EXPECT_EQ(owner.done[msg - 1], std::make_pair(msg, BclErr::kOk));
  }
  EXPECT_EQ(s.in_flight(), 0u);
  EXPECT_FALSE(s.peer_unreachable());
}

// A peer whose rate one echo has cut, with additive increase off so the
// cut holds: the first expiry waits the base RTO plus the drain time, at
// the cut rate, of the window unacked when the timer armed (the first
// packet), and the replay's copies leave one packet's serialization time
// at that rate apart.
TEST(TxSessionUnit, ThrottledPeerStretchesTheRtoAndPacesTheReplay) {
  SessionRig rig{64};  // roomy sink: the wire never spaces the copies
  rig.cost.rto = Time::us(100);
  rig.cost.adaptive_rto = false;
  rig.cost.rto_backoff_jitter = 0.0;
  rig.cost.dupack_k = 0;
  rig.cost.max_retries = 0;
  rig.cost.cc_ai_rate = 0.0;
  constexpr hw::NodeId kPeer = 4;
  constexpr std::size_t kPackets = 4;
  constexpr std::size_t kPayload = 1000;
  rig.cc.on_echo(kPeer, 0xff);  // saturated: the rate halves
  const double rate = rig.cc.rate_of(kPeer);
  ASSERT_EQ(rate, rig.cost.cc_line_rate / 2);
  bcl::TxSession s = rig.session(kPeer);

  std::vector<TxRecord> sent;
  rig.eng.spawn_daemon([](sim::Engine& eng, SinkFabric& fab,
                          std::vector<TxRecord>& sent) -> Task<void> {
    for (;;) {
      hw::Packet p = co_await fab.ch.recv();
      sent.push_back({p.seq, eng.now()});
    }
  }(rig.eng, rig.fab, sent));
  rig.eng.spawn([](sim::Engine& eng, bcl::TxSession& s) -> Task<void> {
    for (std::size_t i = 0; i < kPackets; ++i) {
      hw::Packet p;
      p.dst_node = kPeer;
      p.payload.resize(kPayload);
      EXPECT_EQ(co_await s.send(std::move(p)), BclErr::kOk);
    }
    co_await eng.sleep(Time::us(300));  // past the replay, before the next
    s.on_ack(s.last_seq());
  }(rig.eng, s));
  rig.eng.run();

  const Time gap =
      Time::bytes_at(hw::Packet{}.header_bytes + kPayload, rate);
  EXPECT_EQ(s.timeouts(), 1u);
  ASSERT_EQ(sent.size(), 2 * kPackets);
  Time at = rig.cost.rto + gap;
  for (std::size_t i = 0; i < kPackets; ++i) {
    const TxRecord& copy = sent[kPackets + i];
    EXPECT_EQ(copy.seq, sent[i].seq) << "copy " << i;
    EXPECT_EQ(copy.at, at) << "copy " << i << " left at " << copy.at.str();
    at += gap;
  }
}

// Most of an N-node cluster's N*(N-1) sessions never carry traffic, so a
// fresh session, cold-start or handshake, holds no heap memory.
TEST(TxSessionUnit, FreshSessionAllocatesNothing) {
  SessionRig rig{1};
  for (const bool handshake : {false, true}) {
    bool established = handshake;
    const std::size_t bytes = heap_counter::bytes_during([&] {
      bcl::TxSession s = rig.session(1, handshake);
      established = s.established();
    });
    EXPECT_EQ(bytes, 0u) << "handshake " << handshake;
    EXPECT_EQ(established, !handshake);
  }
}

// Once its window drains and its RTO timer has ended, a session holds no
// more heap than before its first send: the retransmit ring goes back with
// the last ack.
TEST(TxSessionUnit, DrainedSessionHoldsNoRing) {
  SessionRig rig{64};
  rig.cost.rto = Time::us(100);
  rig.cost.adaptive_rto = false;
  rig.cost.rto_backoff_jitter = 0.0;
  rig.eng.spawn_daemon([](SinkFabric& fab) -> Task<void> {
    for (;;) (void)co_await fab.ch.recv();
  }(rig.fab));
  // Four packets, then one cumulative ack for all of them; the run ends
  // when the timer wakes to an empty window.
  const auto burst = [&rig](bcl::TxSession& s) {
    rig.eng.spawn([](sim::Engine& eng, bcl::TxSession& s) -> Task<void> {
      for (int i = 0; i < 4; ++i) {
        hw::Packet p;
        p.dst_node = 1;
        EXPECT_EQ(co_await s.send(std::move(p)), BclErr::kOk);
      }
      co_await eng.sleep(Time::us(20));
      s.on_ack(s.last_seq());
    }(rig.eng, s));
    rig.eng.run();
    EXPECT_EQ(s.in_flight(), 0u);
    EXPECT_EQ(s.retransmissions(), 0u);
  };
  {
    // The same burst on another session first, so the engine's event heap
    // and the sink's ring are already as large as this burst needs.
    bcl::TxSession warm = rig.session(1);
    burst(warm);
  }
  const std::size_t before = heap_counter::live;
  bcl::TxSession s = rig.session(1);
  burst(s);
  EXPECT_EQ(heap_counter::live, before);
}

// ---------------------------------------------------------------------------
// Sequence-number wraparound (RFC 1982 serial arithmetic).
// ---------------------------------------------------------------------------

TEST(SerialArithmetic, ComparesAcrossTheWrap) {
  using bcl::seq_leq;
  using bcl::seq_lt;
  EXPECT_TRUE(seq_lt(0xFFFFFFFFu, 0u));
  EXPECT_TRUE(seq_leq(0xFFFFFFFFu, 0u));
  EXPECT_FALSE(seq_lt(0u, 0xFFFFFFFFu));
  EXPECT_FALSE(seq_leq(0u, 0xFFFFFFFFu));
  EXPECT_TRUE(seq_lt(0xFFFFFFF0u, 0x10u));
  EXPECT_TRUE(seq_leq(5u, 5u));
  EXPECT_FALSE(seq_lt(5u, 5u));
}

TEST(RxSessionUnit, AcceptsInOrderAcrossTheWrap) {
  bcl::RxSession rx{0xFFFFFFFEu};
  EXPECT_TRUE(rx.accept(0xFFFFFFFEu));
  EXPECT_FALSE(rx.accept(0xFFFFFFFEu));  // duplicate drops
  EXPECT_TRUE(rx.accept(0xFFFFFFFFu));
  EXPECT_EQ(rx.ack_value(), 0xFFFFFFFFu);
  EXPECT_FALSE(rx.accept(2u));  // out of order past the wrap still drops
  EXPECT_TRUE(rx.accept(0u));
  EXPECT_EQ(rx.ack_value(), 0u);
  EXPECT_TRUE(rx.accept(1u));
  EXPECT_EQ(rx.ack_value(), 1u);
}

TEST(BclReliability, SequenceWraparoundSurvivesCorruption) {
  // Sessions start four packets shy of UINT32_MAX, so the cumulative-ack
  // comparison crosses the wrap while the link is still dropping packets.
  ClusterConfig cfg = lossy_cluster(0.0);
  cfg.cost.first_seq = 0xFFFFFFFFu - 3;
  BclCluster c{cfg};
  corrupt_uplink(c, 0, 0.06);
  auto& tx = c.open_endpoint(0);
  auto& rx = c.open_endpoint(1);
  constexpr int kMsgs = 40;
  std::vector<unsigned> order;
  c.engine().spawn([](Endpoint& tx, PortId dst) -> Task<void> {
    auto buf = tx.process().alloc(256);
    for (unsigned i = 0; i < kMsgs; ++i) {
      const std::byte b[1] = {std::byte{static_cast<unsigned char>(i)}};
      tx.process().poke(buf, 0, b);
      auto r = co_await tx.send_system(dst, buf, 256);
      EXPECT_EQ(r.err, BclErr::kOk);
      (void)co_await tx.wait_send();
    }
  }(tx, rx.id()));
  c.engine().spawn([](Endpoint& rx, std::vector<unsigned>& ord) -> Task<void> {
    for (int i = 0; i < kMsgs; ++i) {
      RecvEvent ev = co_await rx.wait_recv();
      auto data = co_await rx.copy_out_system(ev);
      ord.push_back(static_cast<unsigned>(data.at(0)));
    }
  }(rx, order));
  c.engine().run();
  ASSERT_EQ(order.size(), static_cast<std::size_t>(kMsgs));
  for (unsigned i = 0; i < kMsgs; ++i) EXPECT_EQ(order[i], i);
  EXPECT_GT(c.node(0).mcp().recorder().count(bcl::NicEvent::kRetransmit), 0u);
}

// ---------------------------------------------------------------------------
// Stray acks must not materialize sessions.
// ---------------------------------------------------------------------------

TEST(BclReliability, StrayAckDoesNotCreateASession) {
  BclCluster c{lossy_cluster(0.0)};
  (void)c.open_endpoint(0);
  hw::Packet p;
  p.proto = bcl::Mcp::kProto;
  p.kind = hw::PacketKind::kAck;
  p.src_node = 1;
  p.dst_node = 0;
  p.ack = 17;
  c.node(0).node().nic().deliver(std::move(p));
  c.engine().spawn([](sim::Engine& eng) -> Task<void> {
    co_await eng.sleep(Time::us(50));
  }(c.engine()));
  c.engine().run();
  EXPECT_EQ(c.node(0).mcp().recorder().count(bcl::NicEvent::kStrayAck), 1u);
  EXPECT_EQ(c.node(0).mcp().tx_session_count(), 0u);
  EXPECT_EQ(c.node(0).mcp().recorder().count(bcl::NicEvent::kRetransmit), 0u);
}

// ---------------------------------------------------------------------------
// Fail-stopped peer: the retry budget surfaces kPeerUnreachable instead of
// retrying forever, and later sends fail fast.
// ---------------------------------------------------------------------------

TEST(BclReliability, FailStoppedPeerSurfacesUnreachable) {
  ClusterConfig cfg = lossy_cluster(0.0);
  cfg.cost.rto = Time::us(50);
  cfg.cost.adaptive_rto = false;
  cfg.cost.max_retries = 3;
  BclCluster c{cfg};
  hw::FaultPlan dead;
  dead.fail_from = Time::zero();  // node 0's uplink never carries a packet
  myrinet(c).set_host_link_fault_plan(0, dead);
  auto& tx = c.open_endpoint(0);
  auto& rx = c.open_endpoint(1);
  int failures = 0;
  c.engine().spawn([](Endpoint& tx, PortId dst, int& failures) -> Task<void> {
    auto buf = tx.process().alloc(512);
    auto r = co_await tx.send_system(dst, buf, 512);
    EXPECT_EQ(r.err, BclErr::kOk);
    auto staged = co_await tx.wait_send();  // staged on the NIC, ok so far
    EXPECT_TRUE(staged.ok);
    auto ev = co_await tx.wait_send();  // retry budget exhausted
    EXPECT_FALSE(ev.ok);
    EXPECT_EQ(ev.err, BclErr::kPeerUnreachable);
    ++failures;
    // Subsequent sends fail fast instead of re-arming timers.
    (void)co_await tx.send_system(dst, buf, 512);
    auto ev2 = co_await tx.wait_send();
    EXPECT_FALSE(ev2.ok);
    EXPECT_EQ(ev2.err, BclErr::kPeerUnreachable);
    ++failures;
  }(tx, rx.id(), failures));
  c.engine().run();
  EXPECT_EQ(failures, 2);
  EXPECT_EQ(c.node(0).mcp().recorder().count(bcl::NicEvent::kPeerFailure), 1u);
  EXPECT_EQ(c.node(0).mcp().unreachable_peers(), 1u);
  EXPECT_EQ(rx.port().messages_received(), 0u);
}

}  // namespace
