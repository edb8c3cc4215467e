// Property tests of the reliability layer under parameter sweeps:
// exactly-once in-order delivery must survive any corruption rate and any
// window size; retransmissions appear iff the link is lossy.
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "bcl/bcl.hpp"
#include "hw/myrinet_switch.hpp"

namespace {

using bcl::BclCluster;
using bcl::BclErr;
using bcl::ClusterConfig;
using bcl::Endpoint;
using bcl::PortId;
using bcl::RecvEvent;
using sim::Task;
using sim::Time;

struct LossCase {
  double corrupt_prob;
  int window;
  std::size_t msg_bytes;
};

class LossSweep : public ::testing::TestWithParam<LossCase> {};

TEST_P(LossSweep, ExactlyOnceInOrder) {
  const auto& c = GetParam();
  ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.node.mem_bytes = 16u << 20;
  cfg.cost.window = c.window;
  cfg.cost.rto = Time::us(80);
  BclCluster cluster{cfg};
  dynamic_cast<hw::MyrinetFabric&>(cluster.fabric())
      .set_host_link_fault_plan(0, {.corrupt_prob = c.corrupt_prob,
                                    .seed = 1000});
  auto& tx = cluster.open_endpoint(0);
  auto& rx = cluster.open_endpoint(1);

  constexpr int kMsgs = 30;
  std::vector<unsigned> order;
  cluster.engine().spawn([](Endpoint& tx, PortId dst,
                            std::size_t bytes) -> Task<void> {
    auto buf = tx.process().alloc(bytes);
    for (unsigned i = 0; i < kMsgs; ++i) {
      const std::byte b[1] = {std::byte{static_cast<unsigned char>(i)}};
      tx.process().poke(buf, 0, b);
      auto r = co_await tx.send_system(dst, buf, bytes);
      EXPECT_EQ(r.err, BclErr::kOk);
      (void)co_await tx.wait_send();
    }
  }(tx, rx.id(), c.msg_bytes));
  cluster.engine().spawn([](Endpoint& rx,
                            std::vector<unsigned>& ord) -> Task<void> {
    for (int i = 0; i < kMsgs; ++i) {
      RecvEvent ev = co_await rx.wait_recv();
      auto data = co_await rx.copy_out_system(ev);
      ord.push_back(static_cast<unsigned>(data.at(0)));
    }
  }(rx, order));
  cluster.engine().run();

  EXPECT_EQ(order.size(), static_cast<std::size_t>(kMsgs));
  for (unsigned i = 0; i < kMsgs; ++i) EXPECT_EQ(order[i], i);
  const auto retrans =
      cluster.node(0).mcp().recorder().count(bcl::NicEvent::kRetransmit);
  if (c.corrupt_prob == 0.0) {
    EXPECT_EQ(retrans, 0u);
  } else if (c.corrupt_prob >= 0.05) {
    EXPECT_GT(retrans, 0u);
  }
}

std::vector<LossCase> loss_cases() {
  std::vector<LossCase> out;
  for (const double p : {0.0, 0.02, 0.08, 0.2}) {
    for (const int w : {2, 8, 16}) {
      out.push_back({p, w, 256});
    }
  }
  out.push_back({0.1, 4, 2048});
  out.push_back({0.05, 16, 4096});
  return out;
}

INSTANTIATE_TEST_SUITE_P(
    Rates, LossSweep, ::testing::ValuesIn(loss_cases()),
    [](const ::testing::TestParamInfo<LossCase>& info) {
      const auto& c = info.param;
      return "p" + std::to_string(static_cast<int>(c.corrupt_prob * 100)) +
             "w" + std::to_string(c.window) + "b" +
             std::to_string(c.msg_bytes);
    });

// ---------------------------------------------------------------------------
// Large-message survival across corruption rates.
// ---------------------------------------------------------------------------

class BulkLossSweep : public ::testing::TestWithParam<double> {};

TEST_P(BulkLossSweep, LargeMessageIntact) {
  const double p = GetParam();
  ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.node.mem_bytes = 16u << 20;
  cfg.cost.rto = Time::us(80);
  BclCluster cluster{cfg};
  dynamic_cast<hw::MyrinetFabric&>(cluster.fabric())
      .set_host_link_fault_plan(0, {.corrupt_prob = p, .seed = 1000});
  auto& tx = cluster.open_endpoint(0);
  auto& rx = cluster.open_endpoint(1);
  const std::size_t kLen = 96 * 1024;
  bool verified = false;
  cluster.engine().spawn([](Endpoint& rx, Endpoint& tx, std::size_t len,
                            bool& ok) -> Task<void> {
    auto rbuf = rx.process().alloc(len);
    EXPECT_EQ(co_await rx.post_recv(0, rbuf), BclErr::kOk);
    auto go = rx.process().alloc(1);
    (void)co_await rx.send_system(tx.id(), go, 0);
    (void)co_await rx.wait_recv();
    ok = rx.process().check_pattern(rbuf, 31);
  }(rx, tx, kLen, verified));
  cluster.engine().spawn([](Endpoint& tx, PortId dst,
                            std::size_t len) -> Task<void> {
    (void)co_await tx.wait_recv();
    auto sbuf = tx.process().alloc(len);
    tx.process().fill_pattern(sbuf, 31);
    auto r = co_await tx.send(dst, bcl::ChannelRef{bcl::ChanKind::kNormal, 0},
                              sbuf, len);
    EXPECT_EQ(r.err, BclErr::kOk);
  }(tx, rx.id(), kLen));
  cluster.engine().run();
  EXPECT_TRUE(verified) << "corrupt_prob=" << p;
}

INSTANTIATE_TEST_SUITE_P(Rates, BulkLossSweep,
                         ::testing::Values(0.0, 0.01, 0.05, 0.12),
                         [](const ::testing::TestParamInfo<double>& info) {
                           return "p" + std::to_string(static_cast<int>(
                                            info.param * 100));
                         });

// ---------------------------------------------------------------------------
// RMA under loss: reads and writes must also be exactly-once.
// ---------------------------------------------------------------------------

// ---------------------------------------------------------------------------
// FaultPlan schedules: random drop/dup/reorder mixes must still deliver
// exactly once, in order, with a bounded number of retransmissions.
// ---------------------------------------------------------------------------

struct FaultCase {
  double drop;
  double dup;
  double reorder;
  std::uint64_t seed;
};

class FaultPlanSweep : public ::testing::TestWithParam<FaultCase> {};

TEST_P(FaultPlanSweep, ExactlyOnceInOrderBoundedRetransmissions) {
  const auto& fc = GetParam();
  ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.node.mem_bytes = 16u << 20;
  cfg.cost.rto = Time::us(80);
  BclCluster cluster{cfg};
  hw::FaultPlan plan;
  plan.drop_prob = fc.drop;
  plan.dup_prob = fc.dup;
  plan.reorder_prob = fc.reorder;
  plan.seed = fc.seed;
  auto& fabric = dynamic_cast<hw::MyrinetFabric&>(cluster.fabric());
  fabric.set_host_link_fault_plan(0, plan);
  auto& tx = cluster.open_endpoint(0);
  auto& rx = cluster.open_endpoint(1);

  constexpr int kMsgs = 40;
  std::vector<unsigned> order;
  cluster.engine().spawn([](Endpoint& tx, PortId dst) -> Task<void> {
    auto buf = tx.process().alloc(256);
    for (unsigned i = 0; i < kMsgs; ++i) {
      const std::byte b[1] = {std::byte{static_cast<unsigned char>(i)}};
      tx.process().poke(buf, 0, b);
      auto r = co_await tx.send_system(dst, buf, 256);
      EXPECT_EQ(r.err, BclErr::kOk);
      (void)co_await tx.wait_send();
    }
  }(tx, rx.id()));
  cluster.engine().spawn([](Endpoint& rx,
                            std::vector<unsigned>& ord) -> Task<void> {
    for (int i = 0; i < kMsgs; ++i) {
      RecvEvent ev = co_await rx.wait_recv();
      auto data = co_await rx.copy_out_system(ev);
      ord.push_back(static_cast<unsigned>(data.at(0)));
    }
  }(rx, order));
  cluster.engine().run();

  ASSERT_EQ(order.size(), static_cast<std::size_t>(kMsgs));
  for (unsigned i = 0; i < kMsgs; ++i) EXPECT_EQ(order[i], i);
  const auto& link = fabric.host_uplink(0);
  if (fc.drop + fc.dup + fc.reorder > 0.0) {
    // Deterministic per seed: every schedule here actually injects faults.
    EXPECT_GT(link.dropped() + link.duplicated() + link.reordered(), 0u);
  }
  const auto retrans =
      cluster.node(0).mcp().recorder().count(bcl::NicEvent::kRetransmit);
  if (fc.drop == 0.0 && fc.reorder == 0.0) {
    // Duplicates alone never create a hole, so nothing needs resending
    // (each dup re-acks the current cumulative ack, below dupack_k in a
    // stop-and-wait stream).
    EXPECT_EQ(retrans, 0u);
  }
  // Bounded recovery: go-back-N resends at most a window per loss event;
  // anything beyond this bound means a retransmission storm.
  const auto faults = link.dropped() + link.reordered() + link.duplicated();
  EXPECT_LE(retrans, (faults + 1) * static_cast<std::uint64_t>(cfg.cost.window));
}

std::vector<FaultCase> fault_cases() {
  return {
      {0.00, 0.00, 0.00, 1},  {0.05, 0.00, 0.00, 2},  {0.00, 0.08, 0.00, 3},
      {0.00, 0.00, 0.10, 4},  {0.05, 0.05, 0.00, 5},  {0.04, 0.00, 0.08, 6},
      {0.00, 0.06, 0.06, 7},  {0.05, 0.05, 0.05, 8},  {0.10, 0.05, 0.10, 9},
      {0.05, 0.05, 0.05, 1234},
  };
}

INSTANTIATE_TEST_SUITE_P(
    Schedules, FaultPlanSweep, ::testing::ValuesIn(fault_cases()),
    [](const ::testing::TestParamInfo<FaultCase>& info) {
      const auto& c = info.param;
      return "d" + std::to_string(static_cast<int>(c.drop * 100)) + "u" +
             std::to_string(static_cast<int>(c.dup * 100)) + "r" +
             std::to_string(static_cast<int>(c.reorder * 100)) + "s" +
             std::to_string(c.seed);
    });

TEST(FaultPlanSweep, DeterministicReplay) {
  // Same seed, same schedule: two runs observe identical fault counts and
  // identical retransmission totals.
  auto run = [] {
    ClusterConfig cfg;
    cfg.nodes = 2;
    cfg.cost.rto = Time::us(80);
    BclCluster cluster{cfg};
    hw::FaultPlan plan;
    plan.drop_prob = 0.06;
    plan.dup_prob = 0.04;
    plan.reorder_prob = 0.06;
    plan.seed = 77;
    auto& fabric = dynamic_cast<hw::MyrinetFabric&>(cluster.fabric());
    fabric.set_host_link_fault_plan(0, plan);
    auto& tx = cluster.open_endpoint(0);
    auto& rx = cluster.open_endpoint(1);
    cluster.engine().spawn([](Endpoint& tx, PortId dst) -> Task<void> {
      auto buf = tx.process().alloc(512);
      for (int i = 0; i < 30; ++i) {
        (void)co_await tx.send_system(dst, buf, 512);
        (void)co_await tx.wait_send();
      }
    }(tx, rx.id()));
    cluster.engine().spawn([](Endpoint& rx) -> Task<void> {
      for (int i = 0; i < 30; ++i) {
        RecvEvent ev = co_await rx.wait_recv();
        (void)co_await rx.copy_out_system(ev);
      }
    }(rx));
    cluster.engine().run();
    const auto& link = fabric.host_uplink(0);
    return std::tuple{
        link.dropped(), link.duplicated(), link.reordered(),
        cluster.node(0).mcp().recorder().count(bcl::NicEvent::kRetransmit)};
  };
  EXPECT_EQ(run(), run());
}

TEST(RmaUnderLoss, ReadSurvivesCorruption) {
  ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.node.mem_bytes = 16u << 20;
  cfg.cost.rto = Time::us(80);
  BclCluster cluster{cfg};
  // The reply path is lossy.
  dynamic_cast<hw::MyrinetFabric&>(cluster.fabric())
      .set_host_link_fault_plan(1, {.corrupt_prob = 0.25, .seed = 1001});
  auto& reader = cluster.open_endpoint(0);
  auto& owner = cluster.open_endpoint(1);
  cluster.engine().spawn([](Endpoint& owner, Endpoint& rd) -> Task<void> {
    auto window = owner.process().alloc(65536);
    owner.process().fill_pattern(window, 12);
    EXPECT_EQ(co_await owner.bind_open(0, window), BclErr::kOk);
    auto go = owner.process().alloc(1);
    (void)co_await owner.send_system(rd.id(), go, 0);
  }(owner, reader));
  cluster.engine().spawn([](Endpoint& rd, PortId dst) -> Task<void> {
    (void)co_await rd.wait_recv();
    auto into = rd.process().alloc(60000);
    auto r = co_await rd.rma_read(dst, 0, 0, 1, into, 60000);
    EXPECT_EQ(r.err, BclErr::kOk);
    RecvEvent ev = co_await rd.wait_recv();
    EXPECT_EQ(ev.len, 60000u);
    std::vector<std::byte> got(60000);
    rd.process().peek(into, 0, got);
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i],
                static_cast<std::byte>((i * 197 + 12 * 31 + 7) & 0xff));
    }
  }(reader, owner.id()));
  cluster.engine().run();
  EXPECT_GT(cluster.node(1).mcp().recorder().count(bcl::NicEvent::kRetransmit),
            0u);
}

}  // namespace
