// End-to-end credit-based flow control: credits consumed on the send trap,
// returned on pool drain, RNR-NACK when the pool is genuinely overcommitted,
// and the error-path contracts (kWouldBlock / kNoResources never leak pinned
// pages or credits).
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "bcl/bcl.hpp"
#include "hw/myrinet_switch.hpp"

namespace {

using bcl::BclCluster;
using bcl::BclErr;
using bcl::ChanKind;
using bcl::ChannelRef;
using bcl::ClusterConfig;
using bcl::Endpoint;
using bcl::PortId;
using bcl::RecvEvent;
using bcl::SendEvent;
using sim::Task;
using sim::Time;

ClusterConfig small_cluster(std::uint32_t nodes) {
  ClusterConfig cfg;
  cfg.nodes = nodes;
  cfg.node.mem_bytes = 8u << 20;
  return cfg;
}

// ---------------------------------------------------------------------------
// Credits drain as messages launch and come back as the receiver frees pool
// slots: with a 4-credit grant and 12 messages, the sender must stall at
// least once and still deliver everything without a single pool drop.
// ---------------------------------------------------------------------------
TEST(FlowControl, CreditsConsumeAndReplenish) {
  ClusterConfig cfg = small_cluster(2);
  // Pool == grant: new credits can only come from the receiver draining
  // slots, so the sender must run dry mid-burst.
  cfg.cost.sys_slots = 4;
  cfg.cost.fc_initial_credits = 4;
  cfg.cost.fc_credit_batch = 1;
  BclCluster c{cfg};
  auto& tx = c.open_endpoint(0);
  auto& rx = c.open_endpoint(1);
  constexpr int kMsgs = 12;

  c.engine().spawn([](Endpoint& tx, PortId dst) -> Task<void> {
    auto buf = tx.process().alloc(256);
    for (int i = 0; i < kMsgs; ++i) {
      auto r = co_await tx.send_system(dst, buf, 256);
      EXPECT_EQ(r.err, BclErr::kOk);
      SendEvent ev = co_await tx.wait_send();
      EXPECT_TRUE(ev.ok);
    }
  }(tx, rx.id()));
  int got = 0;
  c.engine().spawn([](BclCluster& c, Endpoint& rx, int& got) -> Task<void> {
    for (int i = 0; i < kMsgs; ++i) {
      RecvEvent ev = co_await rx.wait_recv();
      // Drain slower than the sender can fill 4 credits, so the grant
      // actually runs dry at least once.
      co_await c.engine().sleep(Time::us(25));
      (void)co_await rx.copy_out_system(ev);
      ++got;
    }
  }(c, rx, got));
  c.engine().run();

  EXPECT_EQ(got, kMsgs);
  EXPECT_EQ(rx.port().sys_drops(), 0u);
  // 12 sends against a 4-credit grant cannot pass without stalling.
  auto& flow = c.node(0).mcp().flow();
  EXPECT_GE(flow.stalls(), 1u);
  EXPECT_EQ(flow.credits_consumed(), static_cast<std::uint64_t>(kMsgs));
  EXPECT_GE(flow.grants_rx(), 1u);
  // Receiver handed out more allowance than the initial grant.
  EXPECT_GE(c.node(1).mcp().recorder().count(bcl::NicEvent::kCreditGranted),
            1u);
  EXPECT_EQ(c.node(0).driver().leaked_pages(), 0u);
}

// ---------------------------------------------------------------------------
// try_send returns kWouldBlock immediately once credits are gone, and the
// pages it pinned on the way down are released (S2/S3).
// ---------------------------------------------------------------------------
TEST(FlowControl, TrySendWouldBlockReleasesPins) {
  ClusterConfig cfg = small_cluster(2);
  cfg.cost.sys_slots = 2;
  cfg.cost.fc_initial_credits = 2;
  BclCluster c{cfg};
  auto& tx = c.open_endpoint(0);
  auto& rx = c.open_endpoint(1);
  (void)rx;  // never drains: credits can only run out, never return

  bool checked = false;
  c.engine().spawn([](BclCluster& c, Endpoint& tx, PortId dst,
                      bool& checked) -> Task<void> {
    auto buf = tx.process().alloc(128);
    for (int i = 0; i < 2; ++i) {
      auto r = co_await tx.send_system(dst, buf, 128);
      EXPECT_EQ(r.err, BclErr::kOk);
      (void)co_await tx.wait_send();
    }
    // Credits exhausted.  A fresh buffer makes the pin-accounting visible:
    // the failed attempt must not leave its pages in the pin-down table.
    auto fresh = tx.process().alloc(128);
    auto& pins = c.node(0).kernel().pindown();
    const std::size_t pinned_before = pins.pinned_pages();
    auto r = co_await tx.try_send(dst, ChannelRef{ChanKind::kSystem, 0},
                                  fresh, 128);
    EXPECT_EQ(r.err, BclErr::kWouldBlock);
    EXPECT_EQ(pins.pinned_pages(), pinned_before);
    EXPECT_EQ(c.node(0).driver().leaked_pages(), 0u);
    EXPECT_GE(c.node(0).driver().credit_blocks(), 1u);
    checked = true;
  }(c, tx, rx.id(), checked));
  c.engine().run();
  EXPECT_TRUE(checked);
}

// ---------------------------------------------------------------------------
// Blocking send with a deadline parks on the credit word, then gives up
// with kWouldBlock instead of waiting forever on a dead receiver.
// ---------------------------------------------------------------------------
TEST(FlowControl, SendDeadlineExpiresAsWouldBlock) {
  ClusterConfig cfg = small_cluster(2);
  cfg.cost.sys_slots = 2;
  cfg.cost.fc_initial_credits = 2;
  BclCluster c{cfg};
  auto& tx = c.open_endpoint(0);
  auto& rx = c.open_endpoint(1);
  (void)rx;

  bool checked = false;
  c.engine().spawn([](BclCluster& c, Endpoint& tx, PortId dst,
                      bool& checked) -> Task<void> {
    auto buf = tx.process().alloc(64);
    for (int i = 0; i < 2; ++i) {
      auto r = co_await tx.send_system(dst, buf, 64);
      EXPECT_EQ(r.err, BclErr::kOk);
      (void)co_await tx.wait_send();
    }
    const Time start = c.engine().now();
    auto r = co_await tx.send_deadline(dst, ChannelRef{ChanKind::kSystem, 0},
                                       buf, 64, Time::us(500));
    EXPECT_EQ(r.err, BclErr::kWouldBlock);
    EXPECT_GE(c.engine().now() - start, Time::us(500));
    // Gave up well before anything resembling a retry budget:
    EXPECT_LE(c.engine().now() - start, Time::us(1000));
    checked = true;
  }(c, tx, rx.id(), checked));
  c.engine().run();
  EXPECT_TRUE(checked);
}

// ---------------------------------------------------------------------------
// S1: a slow receiver triggers RNR-NACKs, not retry-budget exhaustion.
// Two senders overcommit a 4-slot pool (4 credits each), the receiver
// drains slowly, and the retry budget is tight — yet nobody is declared
// unreachable and nothing is lost.
// ---------------------------------------------------------------------------
TEST(FlowControl, RnrSlowReceiverNotMisdiagnosed) {
  ClusterConfig cfg = small_cluster(3);
  cfg.cost.sys_slots = 4;
  cfg.cost.fc_initial_credits = 4;
  cfg.cost.rto = Time::us(50);
  cfg.cost.max_retries = 4;
  BclCluster c{cfg};
  auto& s0 = c.open_endpoint(0);
  auto& s1 = c.open_endpoint(1);
  auto& rx = c.open_endpoint(2);
  constexpr int kPerSender = 20;

  for (Endpoint* s : {&s0, &s1}) {
    c.engine().spawn([](Endpoint& tx, PortId dst) -> Task<void> {
      auto buf = tx.process().alloc(64);
      for (int i = 0; i < kPerSender; ++i) {
        auto r = co_await tx.send_system(dst, buf, 64);
        EXPECT_EQ(r.err, BclErr::kOk);
        SendEvent ev = co_await tx.wait_send();
        EXPECT_TRUE(ev.ok);
      }
    }(*s, rx.id()));
  }
  int got = 0;
  c.engine().spawn([](BclCluster& c, Endpoint& rx, int& got) -> Task<void> {
    for (int i = 0; i < 2 * kPerSender; ++i) {
      RecvEvent ev = co_await rx.wait_recv();
      co_await c.engine().sleep(Time::us(30));  // slow consumer
      (void)co_await rx.copy_out_system(ev);
      ++got;
    }
  }(c, rx, got));
  c.engine().run();

  EXPECT_EQ(got, 2 * kPerSender);
  EXPECT_EQ(rx.port().sys_drops(), 0u);
  // The overload was real: the receiver had to push back at least once
  // (8 credits granted against 4 slots guarantees an overcommit window).
  EXPECT_GE(c.node(2).mcp().recorder().count(bcl::NicEvent::kRnrNackTx), 1u);
  EXPECT_GE(rx.port().rnr_events(), 1u);
  EXPECT_GE(c.node(0).mcp().recorder().count(bcl::NicEvent::kRnrNackRx) +
                c.node(1).mcp().recorder().count(bcl::NicEvent::kRnrNackRx),
            1u);
  // ...and was never misread as peer death, despite max_retries = 4.
  for (int n : {0, 1}) {
    EXPECT_EQ(c.node(static_cast<std::uint32_t>(n)).mcp().recorder().count(
                  bcl::NicEvent::kPeerFailure),
              0u)
        << "sender " << n;
    EXPECT_EQ(c.node(static_cast<std::uint32_t>(n)).mcp().unreachable_peers(),
              0u);
  }
}

// ---------------------------------------------------------------------------
// S3: pin-table exhaustion surfaces as kNoResources from the trap, with
// full rollback (no leaked pages, no consumed credits).
// ---------------------------------------------------------------------------
TEST(FlowControl, PinTableFullReturnsNoResources) {
  ClusterConfig cfg = small_cluster(2);
  cfg.kernel.pindown.max_pinned_pages = 4;
  BclCluster c{cfg};
  auto& tx = c.open_endpoint(0);
  auto& rx = c.open_endpoint(1);
  (void)rx;

  bool checked = false;
  c.engine().spawn([](BclCluster& c, Endpoint& tx, PortId dst,
                      bool& checked) -> Task<void> {
    // 8 pages of payload against a 4-page pin table.
    auto big = tx.process().alloc(8 * 4096);
    auto r = co_await tx.send(dst, ChannelRef{ChanKind::kNormal, 0}, big,
                              8 * 4096);
    EXPECT_EQ(r.err, BclErr::kNoResources);
    EXPECT_EQ(c.node(0).kernel().pindown().pinned_pages(), 0u);
    EXPECT_EQ(c.node(0).driver().leaked_pages(), 0u);
    checked = true;
  }(c, tx, rx.id(), checked));
  c.engine().run();
  EXPECT_TRUE(checked);
}

// ---------------------------------------------------------------------------
// S3: a full request ring fails a nonblocking send with kNoResources and
// refunds the credit the trap consumed.
// ---------------------------------------------------------------------------
TEST(FlowControl, RequestRingFullRefundsCredit) {
  ClusterConfig cfg = small_cluster(2);
  cfg.cost.request_queue_depth = 1;
  cfg.cost.mcp_tx_proc = Time::ms(1);  // park tx_pump on the first request
  BclCluster c{cfg};
  auto& tx = c.open_endpoint(0);
  auto& rx = c.open_endpoint(1);
  constexpr int kDelivered = 2;

  bool checked = false;
  c.engine().spawn([](BclCluster& c, Endpoint& tx, PortId dst,
                      bool& checked) -> Task<void> {
    auto buf = tx.process().alloc(64);
    // First send: tx_pump dequeues it and stews in mcp_tx_proc for 1 ms.
    auto r = co_await tx.try_send(dst, ChannelRef{ChanKind::kSystem, 0}, buf,
                                  64);
    EXPECT_EQ(r.err, BclErr::kOk);
    // Second: sits in the (depth-1) ring while the pump is busy.
    r = co_await tx.try_send(dst, ChannelRef{ChanKind::kSystem, 0}, buf, 64);
    EXPECT_EQ(r.err, BclErr::kOk);
    auto& flow = c.node(0).mcp().flow();
    const std::uint32_t avail = flow.available(dst);
    // Third: ring full.  Credit and pin accounting must roll back.
    r = co_await tx.try_send(dst, ChannelRef{ChanKind::kSystem, 0}, buf, 64);
    EXPECT_EQ(r.err, BclErr::kNoResources);
    EXPECT_EQ(flow.available(dst), avail);
    EXPECT_EQ(c.node(0).driver().leaked_pages(), 0u);
    for (int i = 0; i < kDelivered; ++i) {
      SendEvent ev = co_await tx.wait_send();
      EXPECT_TRUE(ev.ok);
    }
    checked = true;
  }(c, tx, rx.id(), checked));
  c.engine().spawn([](Endpoint& rx) -> Task<void> {
    for (int i = 0; i < kDelivered; ++i) {
      RecvEvent ev = co_await rx.wait_recv();
      (void)co_await rx.copy_out_system(ev);
    }
  }(rx));
  c.engine().run();
  EXPECT_TRUE(checked);
}

// ---------------------------------------------------------------------------
// S3: hard failures still surface as completions on the send event queue
// (ok = false, kPeerUnreachable), not as exceptions or silent hangs.
// ---------------------------------------------------------------------------
TEST(FlowControl, PeerFailureSurfacesAsCompletion) {
  ClusterConfig cfg = small_cluster(2);
  cfg.cost.rto = Time::us(50);
  cfg.cost.adaptive_rto = false;
  cfg.cost.max_retries = 2;
  BclCluster c{cfg};
  auto& tx = c.open_endpoint(0);
  auto& rx = c.open_endpoint(1);
  (void)rx;
  hw::FaultPlan dead;
  dead.fail_from = Time::zero();  // receiver link fail-stop from t = 0
  dynamic_cast<hw::MyrinetFabric&>(c.fabric())
      .set_host_link_fault_plan(1, dead);

  bool checked = false;
  c.engine().spawn([](Endpoint& tx, PortId dst, bool& checked) -> Task<void> {
    auto buf = tx.process().alloc(64);
    auto r = co_await tx.send_system(dst, buf, 64);
    EXPECT_EQ(r.err, BclErr::kOk);  // the trap itself succeeds
    SendEvent staged = co_await tx.wait_send();
    EXPECT_TRUE(staged.ok);  // staged on the NIC, ok so far
    SendEvent ev = co_await tx.wait_send();  // retry budget exhausted
    EXPECT_FALSE(ev.ok);
    EXPECT_EQ(ev.err, BclErr::kPeerUnreachable);
    checked = true;
  }(tx, rx.id(), checked));
  c.engine().run();
  EXPECT_TRUE(checked);
  EXPECT_EQ(c.node(0).mcp().recorder().count(bcl::NicEvent::kPeerFailure), 1u);
  EXPECT_EQ(c.node(0).driver().leaked_pages(), 0u);
}

// ---------------------------------------------------------------------------
// Cumulative grants are serial-monotone: stale, duplicated, and reordered
// credit updates never move the limit backwards, including across the
// 2^32 wrap.
// ---------------------------------------------------------------------------
// A FlowController on a bare engine, without an MCP: `free` stands in for
// the NIC's ports, each one's count of free system-pool slots.
struct Ledgers {
  explicit Ledgers(const bcl::CostConfig& c) : cfg{c} {}

  // The grant a packet toward `node` carries (credit_port 0xffff: none).
  hw::Packet piggyback(hw::NodeId node) {
    hw::Packet p;
    p.dst_node = node;
    fc.attach_grant(p);
    return p;
  }
  // `n` messages from `src` land in `port`'s pool.
  void deliver(std::uint32_t port, hw::NodeId src, int n) {
    for (int i = 0; i < n; ++i) fc.on_delivered(port, src);
  }
  // Ledger (port, src), or a zeroed one when there is none.
  bcl::FlowController::Ledger ledger(std::uint32_t port,
                                     hw::NodeId src) const {
    const auto it = fc.ledgers().find({port, src});
    return it == fc.ledgers().end() ? bcl::FlowController::Ledger{}
                                    : it->second;
  }

  const bcl::CostConfig cfg;
  sim::Engine eng;
  sim::Trace trace{eng};
  sim::MetricRegistry reg;
  bcl::FlightRecorder recorder{0};
  std::map<std::uint32_t, std::uint32_t> free;
  bcl::FlowController fc{
      eng, cfg, "nic0", trace, reg, recorder,
      [this](std::uint32_t port) -> std::optional<std::uint32_t> {
        const auto it = free.find(port);
        if (it == free.end()) return std::nullopt;
        return it->second;
      }};
};

TEST(FlowControl, GrantSerialArithmetic) {
  bcl::CostConfig cfg;
  cfg.fc_initial_credits = 2;
  cfg.sys_slots = 64;
  Ledgers rig{cfg};
  bcl::FlowController& fc = rig.fc;
  const PortId dst{1, 0};

  EXPECT_TRUE(fc.try_consume(dst));
  EXPECT_TRUE(fc.try_consume(dst));
  EXPECT_FALSE(fc.try_consume(dst));
  EXPECT_GE(fc.stalls(), 1u);

  fc.on_grant(dst, 5);
  EXPECT_EQ(fc.available(dst), 3u);
  fc.on_grant(dst, 3);  // stale: must not regress
  EXPECT_EQ(fc.available(dst), 3u);
  fc.on_grant(dst, 5);  // duplicate: no-op
  EXPECT_EQ(fc.available(dst), 3u);

  // Refund after a late send failure restores the credit.
  EXPECT_TRUE(fc.try_consume(dst));
  fc.refund(dst);
  EXPECT_EQ(fc.available(dst), 3u);

  // Wrap-around: walk the limit near the top of the serial space (each
  // step under 2^31, as RFC 1982 requires), then grant across zero.  The
  // limit must move forward through the wrap rather than clamping, and a
  // grant from before the wrap must read as stale afterwards.
  Ledgers rig2{cfg};
  bcl::FlowController& fc2 = rig2.fc;
  const PortId d2{2, 0};
  fc2.on_grant(d2, 0x7ffffff0u);
  fc2.on_grant(d2, 0xfffffff0u);
  EXPECT_EQ(fc2.available(d2), 0xfffffff0u);
  fc2.on_grant(d2, 4u);  // wrapped, still newer: 4 - 0xfffffff0 = 20
  EXPECT_EQ(fc2.available(d2), 4u);
  fc2.on_grant(d2, 0xfffffff0u);  // pre-wrap grant is now stale
  EXPECT_EQ(fc2.available(d2), 4u);
}

// ---------------------------------------------------------------------------
// The receiver's ledgers, driven without an MCP.
// ---------------------------------------------------------------------------

// A grant tops a ledger up to min(initial, free slots) outstanding, never
// past it, and rides the first packet toward the sender; a packet toward a
// node with no ledger, or whose ledger's port is gone, carries none.
TEST(FlowLedger, TopUpStopsAtInitialOrFreeSlots) {
  bcl::CostConfig cfg;
  cfg.fc_initial_credits = 4;
  Ledgers rig{cfg};
  rig.free[0] = 10;
  rig.deliver(0, 1, 3);  // limit 4, delivered 3: one outstanding
  hw::Packet p = rig.piggyback(1);
  EXPECT_EQ(p.credit_port, 0u);
  EXPECT_EQ(p.credit_limit, 7u) << "capped by the initial allowance";
  EXPECT_EQ(rig.recorder.count(bcl::NicEvent::kCreditGranted), 3u);

  rig.deliver(0, 1, 2);  // two outstanding
  rig.free[0] = 2;
  EXPECT_EQ(rig.piggyback(1).credit_limit, 7u) << "two free: nothing new";
  rig.free[0] = 3;
  EXPECT_EQ(rig.piggyback(1).credit_limit, 8u) << "capped by free slots";
  EXPECT_EQ(rig.recorder.count(bcl::NicEvent::kCreditGranted), 4u);

  EXPECT_EQ(rig.piggyback(2).credit_port, 0xffffu);  // no ledger
  rig.free.erase(0);
  EXPECT_EQ(rig.piggyback(1).credit_port, 0xffffu);  // port gone
}

// The doorbell sends a standalone update to a starved sender for a single
// credit, but to a sender that still holds credits only once a whole
// fc_credit_batch accumulated; smaller grants wait for a piggyback ride.
TEST(FlowLedger, StandaloneUpdateWhenStarvedOrAtBatch) {
  bcl::CostConfig cfg;
  cfg.fc_initial_credits = 8;
  cfg.fc_credit_batch = 4;
  Ledgers rig{cfg};
  rig.free[0] = 1;
  rig.deliver(0, 1, 8);  // starved
  EXPECT_EQ(rig.fc.doorbell(0), std::vector<hw::NodeId>{1});
  EXPECT_EQ(rig.ledger(0, 1).limit, 9u);

  rig.free[1] = 8;
  rig.deliver(1, 2, 3);  // five outstanding: a grant of three
  EXPECT_TRUE(rig.fc.doorbell(1).empty());
  EXPECT_EQ(rig.ledger(1, 2).limit, 11u);
  rig.deliver(1, 2, 4);  // four outstanding: a grant of four
  EXPECT_EQ(rig.fc.doorbell(1), std::vector<hw::NodeId>{2});
  EXPECT_EQ(rig.ledger(1, 2).limit, 15u);
}

// Three senders starve one pool and each doorbell frees one slot: every
// sender is owed an update each time, and each is first in turn.
TEST(FlowLedger, DoorbellRotatesItsScanStart) {
  bcl::CostConfig cfg;
  cfg.fc_initial_credits = 2;
  Ledgers rig{cfg};
  rig.free[0] = 1;
  for (const hw::NodeId src : {1u, 2u, 3u}) rig.deliver(0, src, 2);
  std::vector<hw::NodeId> first;
  for (int round = 0; round < 6; ++round) {
    const std::vector<hw::NodeId> owed = rig.fc.doorbell(0);
    ASSERT_EQ(owed.size(), 3u) << "round " << round;
    first.push_back(owed.front());
    for (const hw::NodeId src : {1u, 2u, 3u}) rig.deliver(0, src, 1);
  }
  EXPECT_EQ(first, (std::vector<hw::NodeId>{1, 2, 3, 1, 2, 3}));
}

// A peer restart resets both halves toward that node; a fresh handshake
// only the receiver's.  Other nodes keep theirs.
TEST(FlowLedger, RestartResetsBothHalvesHandshakeOnlyTheReceiver) {
  Ledgers rig{bcl::CostConfig{}};
  rig.free[0] = 64;
  for (const hw::NodeId node : {1u, 2u}) {
    rig.deliver(0, node, 1);
    EXPECT_TRUE(rig.fc.try_consume(PortId{node, 0}));
  }
  const auto holds = [&rig](hw::NodeId node) {
    return std::make_pair(rig.fc.senders().count(PortId{node, 0}) == 1,
                          rig.ledger(0, node).delivered > 0);
  };
  rig.fc.reset_receiver(1);
  EXPECT_EQ(holds(1), std::make_pair(true, false));
  EXPECT_EQ(holds(2), std::make_pair(true, true));
  rig.deliver(0, 1, 1);
  rig.fc.reset_node(1);
  EXPECT_EQ(holds(1), std::make_pair(false, false));
  EXPECT_EQ(holds(2), std::make_pair(true, true));
  EXPECT_EQ(rig.fc.available(PortId{1, 0}), rig.fc.initial());
}

}  // namespace
