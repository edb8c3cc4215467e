// The NIC-wide reliability counters (<nic>.mcp.retransmissions, timeouts,
// window_stalls and <nic>.rel.fast_retransmits) count over every session
// the NIC has run.  A reboot retires the sessions that did the counting,
// and the counters must not go back to zero with them.
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
    return c.metrics().counter(nic + name).value();
  };
  const std::uint64_t retx = mcp.retransmissions();
  const std::uint64_t timeouts = mcp.timeouts();
  const std::uint64_t stalls = mcp.window_stalls();
  const std::uint64_t fast = mcp.fast_retransmits();
  ASSERT_GT(retx, 0u);  // the fault window really bit
  ASSERT_GT(timeouts, 0u);

  mcp.crash();
  c.engine().spawn([](bcl::Driver& driver) -> Task<void> {
    co_await driver.reset_nic();
  }(c.node(0).driver()));
  c.engine().run();

  EXPECT_FALSE(mcp.crashed());
  EXPECT_EQ(mcp.retransmissions(), retx);
  EXPECT_EQ(mcp.timeouts(), timeouts);
  EXPECT_EQ(mcp.window_stalls(), stalls);
  EXPECT_EQ(mcp.fast_retransmits(), fast);
  EXPECT_EQ(exported(".mcp.retransmissions"), retx);
  EXPECT_EQ(exported(".mcp.timeouts"), timeouts);
  EXPECT_EQ(exported(".mcp.window_stalls"), stalls);
  EXPECT_EQ(exported(".rel.fast_retransmits"), fast);
  // The gauges describe the live sessions only, and there are none.
  EXPECT_EQ(mcp.tx_in_flight(), 0u);
  EXPECT_EQ(mcp.unreachable_peers(), 0u);
}

}  // namespace
