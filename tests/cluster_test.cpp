// Tests for the World assembly, placement, workloads, and the measurement
// harness (including the Table 3 calibration corridors).
#include <gtest/gtest.h>

#include "cluster/cluster.hpp"
#include "cluster/harness.hpp"
#include "cluster/report.hpp"
#include "cluster/workload.hpp"

namespace {

using cluster::Placement;
using cluster::World;
using cluster::WorldConfig;
using sim::Task;

TEST(World, RoundRobinPlacement) {
  WorldConfig cfg;
  cfg.cluster.nodes = 3;
  World w{cfg, 7};
  EXPECT_EQ(w.node_of(0), 0u);
  EXPECT_EQ(w.node_of(1), 1u);
  EXPECT_EQ(w.node_of(2), 2u);
  EXPECT_EQ(w.node_of(3), 0u);
  EXPECT_EQ(w.node_of(6), 0u);
}

TEST(World, PackedPlacement) {
  WorldConfig cfg;
  cfg.cluster.nodes = 2;
  cfg.placement = Placement::kPacked;
  World w{cfg, 8};  // 4 CPUs per node
  EXPECT_EQ(w.node_of(0), 0u);
  EXPECT_EQ(w.node_of(3), 0u);
  EXPECT_EQ(w.node_of(4), 1u);
  EXPECT_EQ(w.node_of(7), 1u);
}

TEST(World, PackedPlacementOverflowRejected) {
  WorldConfig cfg;
  cfg.cluster.nodes = 1;
  cfg.placement = Placement::kPacked;
  EXPECT_THROW(World(cfg, 5), std::invalid_argument);
}

TEST(Workload, ShiftTrafficCompletes) {
  WorldConfig cfg;
  cfg.cluster.nodes = 4;
  World w{cfg, 8};
  w.run([](World& world, int rank) -> Task<void> {
    co_await cluster::workload::shift_traffic(world.mpi(rank), /*rounds=*/6,
                                              /*bytes=*/2048, /*seed=*/42);
  });
  SUCCEED();  // absence of deadlock/loss is the assertion
}

TEST(Workload, BspRingCompletes) {
  WorldConfig cfg;
  cfg.cluster.nodes = 3;
  World w{cfg, 6};
  w.run([](World& world, int rank) -> Task<void> {
    co_await cluster::workload::bsp_ring(world.mpi(rank), /*rounds=*/5,
                                         /*bytes=*/4096, /*compute_us=*/25.0);
  });
  SUCCEED();
}

// Each workload call frees the buffers it allocates: repeated calls leave
// the node's free frames and the process's mapped pages where they found
// them.
TEST(Workload, RepeatedCallsReturnTheirBuffers) {
  WorldConfig cfg;
  cfg.cluster.nodes = 3;
  World w{cfg, 3};  // one rank per node: each rank owns its node's frames
  w.run([](World& world, int rank) -> Task<void> {
    auto& me = world.mpi(rank);
    const hw::HostMemory& mem =
        world.cluster().node(static_cast<hw::NodeId>(rank)).node().memory();
    const std::size_t free0 = mem.free_pages();
    const std::size_t mapped0 = me.process().mapped_pages();
    for (int i = 0; i < 4; ++i) {
      co_await cluster::workload::shift_traffic(me, 2, 6000, 5 + i);
      co_await cluster::workload::bsp_ring(me, 2, 6000, 1.0);
    }
    EXPECT_EQ(mem.free_pages(), free0) << "rank " << rank;
    EXPECT_EQ(me.process().mapped_pages(), mapped0) << "rank " << rank;
  });
}

TEST(Harness, BclOnewayMatchesCalibration) {
  bcl::ClusterConfig cfg;
  cfg.nodes = 2;
  const auto p = harness::bcl_oneway(cfg, 0, /*intra=*/false);
  EXPECT_NEAR(p.oneway_us, 18.3, 1.0);
  bcl::ClusterConfig one;
  one.nodes = 1;
  const auto q = harness::bcl_oneway(one, 0, /*intra=*/true);
  EXPECT_NEAR(q.oneway_us, 2.7, 0.4);
}

TEST(Harness, MpiOnewayInTable3Corridor) {
  const cluster::WorldConfig cfg;
  const auto inter = harness::mpi_oneway(cfg, 0, /*intra=*/false);
  // Paper Table 3: 23.7us inter-node, 6.3us intra-node.
  EXPECT_NEAR(inter.oneway_us, 23.7, 2.5);
  const auto intra = harness::mpi_oneway(cfg, 0, /*intra=*/true);
  EXPECT_NEAR(intra.oneway_us, 6.3, 1.5);
}

TEST(Harness, PvmOnewayInTable3Corridor) {
  const cluster::WorldConfig cfg;
  const auto inter = harness::pvm_oneway(cfg, 0, /*intra=*/false);
  // Paper Table 3: 22.4us inter-node, 6.5us intra-node.
  EXPECT_NEAR(inter.oneway_us, 22.4, 2.5);
  const auto intra = harness::pvm_oneway(cfg, 0, /*intra=*/true);
  EXPECT_NEAR(intra.oneway_us, 6.5, 1.5);
}

TEST(Harness, MpiBandwidthBelowRawBcl) {
  const cluster::WorldConfig wcfg;
  bcl::ClusterConfig bcfg;
  bcfg.nodes = 2;
  const auto mpi = harness::mpi_oneway(wcfg, 128 * 1024, /*intra=*/false);
  const auto raw = harness::bcl_oneway(bcfg, 128 * 1024, /*intra=*/false);
  // Paper: MPI reaches 131 MB/s vs BCL's 146 MB/s.
  EXPECT_LT(mpi.bandwidth_mbps(), raw.bandwidth_mbps());
  EXPECT_NEAR(mpi.bandwidth_mbps(), 131.0, 12.0);
}


TEST(Report, CollectsResourceUsageAndCounters) {
  bcl::ClusterConfig cfg;
  cfg.nodes = 2;
  bcl::BclCluster c{cfg};
  auto& tx = c.open_endpoint(0);
  auto& rx = c.open_endpoint(1);
  c.engine().spawn([](bcl::Endpoint& tx, bcl::PortId dst) -> Task<void> {
    auto buf = tx.process().alloc(4096);
    for (int i = 0; i < 5; ++i) {
      (void)co_await tx.send_system(dst, buf, 4096);
      (void)co_await tx.wait_send();
    }
  }(tx, rx.id()));
  c.engine().spawn([](bcl::Endpoint& rx) -> Task<void> {
    for (int i = 0; i < 5; ++i) {
      auto ev = co_await rx.wait_recv();
      (void)co_await rx.copy_out_system(ev);
    }
  }(rx));
  c.engine().run();

  const auto rep = cluster::collect_report(c);
  EXPECT_GT(rep.elapsed_us, 0.0);
  EXPECT_EQ(rep.messages_sent, 5u);
  EXPECT_EQ(rep.kernel_traps, 5u);
  EXPECT_GT(rep.acks_sent, 0u);
  EXPECT_EQ(rep.retransmissions, 0u);
  // Both LANai processors and both PCI buses must show activity.
  int active = 0;
  for (const auto& r : rep.resources) {
    if (r.uses > 0) {
      ++active;
      EXPECT_GT(r.busy_us, 0.0);
      EXPECT_GE(r.utilization, 0.0);
      EXPECT_LE(r.utilization, 1.0);
    }
  }
  EXPECT_GE(active, 4);
  const auto text = rep.to_string();
  EXPECT_NE(text.find("lanai"), std::string::npos);
  EXPECT_NE(text.find("msgs 5"), std::string::npos);
}

}  // namespace

