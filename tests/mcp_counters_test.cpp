// The NIC-wide counters are the recorder's event counts, over the NIC's
// whole life.  A reboot retires the sessions that counted retransmissions,
// timeouts, window stalls and fast retransmits, and empties the path table
// that counted failovers and restores; none of those counters may go back
// with them.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>

#include "bcl/bcl.hpp"
#include "hw/myrinet_switch.hpp"
#include "sim/engine.hpp"

namespace {

using sim::Task;
using sim::Time;

Task<void> drain(bcl::Endpoint& rx) {
  for (;;) {
    bcl::RecvEvent ev = co_await rx.wait_recv();
    (void)co_await rx.copy_out_system(ev);
  }
}

TEST(McpCounters, ReliabilityCountersSurviveReboot) {
  constexpr int kMsgs = 25;
  constexpr std::size_t kBytes = 256;
  bcl::ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.node.mem_bytes = 8u << 20;
  cfg.cost.rto = Time::us(80);
  cfg.cost.max_retries = 10;  // the window closes before the budget runs out
  bcl::BclCluster c{cfg};
  hw::FaultPlan window;
  window.fail_from = Time::us(150);
  window.fail_until = Time::us(450);
  dynamic_cast<hw::MyrinetFabric&>(c.fabric())
      .set_host_link_fault_plan(1, window);
  auto& tx = c.open_endpoint(0);
  auto& rx = c.open_endpoint(1);
  c.engine().spawn_daemon(drain(rx));
  c.engine().spawn([](bcl::Endpoint& tx, bcl::PortId dst) -> Task<void> {
    auto buf = tx.process().alloc(kBytes);
    for (int i = 0; i < kMsgs; ++i) {
      EXPECT_EQ((co_await tx.send_system(dst, buf, kBytes)).err,
                bcl::BclErr::kOk);
      EXPECT_TRUE((co_await tx.wait_send()).ok) << "msg " << i;
    }
  }(tx, rx.id()));
  c.engine().run();

  auto& mcp = c.node(0).mcp();
  const std::string nic = c.node(0).node().nic().name();
  const auto exported = [&c, &nic](const std::string& name) {
    return c.metrics().value(nic + name);
  };
  const std::uint64_t retx = mcp.recorder().count(bcl::NicEvent::kRetransmit);
  const std::uint64_t timeouts = mcp.recorder().count(bcl::NicEvent::kTimeout);
  const std::uint64_t stalls =
      mcp.recorder().count(bcl::NicEvent::kWindowStall);
  const std::uint64_t fast =
      mcp.recorder().count(bcl::NicEvent::kFastRetransmit);
  ASSERT_GT(retx, 0u);  // the fault window really bit
  ASSERT_GT(timeouts, 0u);

  mcp.crash();
  c.engine().spawn([](bcl::Driver& driver) -> Task<void> {
    co_await driver.reset_nic();
  }(c.node(0).driver()));
  c.engine().run();

  EXPECT_FALSE(mcp.crashed());
  EXPECT_EQ(mcp.recorder().count(bcl::NicEvent::kRetransmit), retx);
  EXPECT_EQ(mcp.recorder().count(bcl::NicEvent::kTimeout), timeouts);
  EXPECT_EQ(mcp.recorder().count(bcl::NicEvent::kWindowStall), stalls);
  EXPECT_EQ(mcp.recorder().count(bcl::NicEvent::kFastRetransmit), fast);
  EXPECT_EQ(exported(".mcp.retransmissions"), retx);
  EXPECT_EQ(exported(".mcp.timeouts"), timeouts);
  EXPECT_EQ(exported(".mcp.window_stalls"), stalls);
  EXPECT_EQ(exported(".rel.fast_retransmits"), fast);
  // The gauges describe the live sessions only, and there are none.
  EXPECT_EQ(mcp.tx_in_flight(), 0u);
  EXPECT_EQ(mcp.unreachable_peers(), 0u);
}

// 16-node leaf/spine: node 0 streams to node 12 over spine 0, which dies
// after 10 deliveries and revives 2 ms later.  Node 0 fails over once, and
// one answered probe restores the revived path.  Node 0 then reboots,
// which empties its path table; the path counters keep their counts.
TEST(McpCounters, PathCountersSurviveReboot) {
  constexpr int kMsgs = 40;
  constexpr std::size_t kBytes = 256;
  bcl::ClusterConfig cfg;
  cfg.nodes = 16;
  cfg.node.mem_bytes = 8u << 20;
  cfg.cost.rto = Time::us(80);
  cfg.cost.e2e_completion = true;
  bcl::BclCluster c{cfg};
  auto& fab = dynamic_cast<hw::MyrinetFabric&>(c.fabric());
  const std::size_t spine = fab.spine_switch_index(0);
  auto& tx = c.open_endpoint(0);
  auto& rx = c.open_endpoint(12);
  c.engine().spawn_daemon([](bcl::BclCluster& c, bcl::Endpoint& rx,
                             hw::MyrinetFabric& fab,
                             std::size_t spine) -> Task<void> {
    for (int delivered = 1;; ++delivered) {
      bcl::RecvEvent ev = co_await rx.wait_recv();
      (void)co_await rx.copy_out_system(ev);
      if (delivered != 10) continue;
      fab.fail_switch(spine);
      c.engine().spawn([](sim::Engine& eng, hw::MyrinetFabric& fab,
                          std::size_t spine) -> Task<void> {
        co_await eng.sleep(Time::ms(2));
        fab.revive_switch(spine);
      }(c.engine(), fab, spine));
    }
  }(c, rx, fab, spine));
  c.engine().spawn([](bcl::Endpoint& tx, bcl::PortId dst) -> Task<void> {
    auto buf = tx.process().alloc(kBytes);
    for (int i = 0; i < kMsgs; ++i) {
      auto r = co_await tx.send_system(dst, buf, kBytes);
      EXPECT_EQ(r.err, bcl::BclErr::kOk);
      if (r.err != bcl::BclErr::kOk) continue;
      for (;;) {
        bcl::SendEvent ev = co_await tx.wait_send();
        if (ev.msg_id != r.value) continue;
        EXPECT_EQ(ev.err, bcl::BclErr::kOk) << "msg " << i;
        break;
      }
    }
  }(tx, rx.id()));
  c.engine().run();

  auto& mcp = c.node(0).mcp();
  const auto& events = mcp.recorder();
  const std::string nic = c.node(0).node().nic().name();
  const auto exported = [&c, &nic](const std::string& name) {
    return c.metrics().value(nic + name);
  };
  ASSERT_EQ(events.count(bcl::NicEvent::kPathFailover), 1u);
  ASSERT_EQ(events.count(bcl::NicEvent::kPathRestore), 1u);
  ASSERT_EQ(events.count(bcl::NicEvent::kPathProbeTx), 4u);

  mcp.crash();
  c.engine().spawn([](bcl::Driver& driver) -> Task<void> {
    co_await driver.reset_nic();
  }(c.node(0).driver()));
  c.engine().run();

  EXPECT_FALSE(mcp.crashed());
  EXPECT_FALSE(mcp.path_table().tracked(12));  // the table itself is empty
  EXPECT_EQ(events.count(bcl::NicEvent::kPathFailover), 1u);
  EXPECT_EQ(events.count(bcl::NicEvent::kPathRestore), 1u);
  EXPECT_EQ(events.count(bcl::NicEvent::kPathPartition), 0u);
  EXPECT_EQ(events.count(bcl::NicEvent::kPathProbeTx), 4u);
  EXPECT_EQ(exported(".path.failovers"), 1u);
  EXPECT_EQ(exported(".path.restores"), 1u);
  EXPECT_EQ(exported(".path.partitions"), 0u);
  EXPECT_EQ(exported(".path.probes_tx"), 4u);
}

// Node 1 crashes twice while node 0 streams to it.  The first time it
// reboots within the retry budget: node 0 sees the restart and re-SYNs,
// and node 1 fences and answers the old epoch's stragglers.  The second
// time it stays down until node 0 declares it unreachable and starts
// revival probes, one of which the rebooted node answers.  Every recovery
// event the recorder counts reads the same through its "<nic>.rel." series.
TEST(McpCounters, RecoveryEventsExported) {
  constexpr std::size_t kBytes = 256;
  bcl::ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.node.mem_bytes = 8u << 20;
  cfg.cost.rto = Time::us(60);
  cfg.cost.max_retries = 3;
  cfg.cost.e2e_completion = true;
  bcl::BclCluster c{cfg};
  auto& tx = c.open_endpoint(0);
  auto& rx = c.open_endpoint(1);
  c.engine().spawn_daemon(drain(rx));
  c.engine().spawn([](bcl::BclCluster& c, bcl::Endpoint& tx,
                      bcl::PortId dst) -> Task<void> {
    auto buf = tx.process().alloc(kBytes);
    const auto one = [&]() -> Task<void> {
      auto r = co_await tx.send_system(dst, buf, kBytes);
      if (r.err != bcl::BclErr::kOk) co_return;
      for (;;) {
        if ((co_await tx.wait_send()).msg_id == r.value) co_return;
      }
    };
    const auto reboot_after = [&c](Time t) -> Task<void> {
      co_await c.engine().sleep(t);
      co_await c.node(1).driver().reset_nic();
    };
    for (int i = 0; i < 4; ++i) co_await one();
    c.node(1).mcp().crash();
    c.engine().spawn(reboot_after(Time::us(100)));
    for (int i = 0; i < 4; ++i) co_await one();
    c.node(1).mcp().crash();
    co_await one();  // the retry budget runs out: unreachable
    co_await reboot_after(Time::ms(2));
    co_await c.engine().sleep(Time::ms(2));
    co_await one();
  }(c, tx, rx.id()));
  c.engine().run();

  using bcl::NicEvent;
  const NicEvent kinds[] = {
      NicEvent::kPeerRestart,     NicEvent::kStaleIncDrop,
      NicEvent::kRestartNoticeTx, NicEvent::kSynTx,
      NicEvent::kSynRx,           NicEvent::kRevivalProbeTx,
      NicEvent::kRevivalProbeRx};
  for (const NicEvent kind : kinds) {
    const char* series = bcl::series_name(kind);
    ASSERT_NE(series, nullptr);
    std::uint64_t total = 0;
    for (hw::NodeId n = 0; n < 2; ++n) {
      const std::uint64_t count = c.node(n).mcp().recorder().count(kind);
      const std::string name =
          c.node(n).node().nic().name() + "." + series;
      EXPECT_EQ(c.metrics().value(name), count) << name;
      total += count;
    }
    EXPECT_GT(total, 0u) << series << " never happened";
  }
}

}  // namespace
