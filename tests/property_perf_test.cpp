// Performance-shape invariants that must hold for any sane calibration:
// latency monotone in size, bandwidth bounded by the link, intra faster
// than inter, each software layer adds cost, architecture ordering.
#include <gtest/gtest.h>

#include <vector>

#include "cluster/harness.hpp"

namespace {

TEST(PerfShape, InterNodeLatencyMonotoneInSize) {
  bcl::ClusterConfig cfg;
  cfg.nodes = 2;
  double prev = -1.0;
  for (const std::size_t n : {0ul, 64ul, 1024ul, 4096ul, 16384ul, 65536ul}) {
    const auto p = harness::bcl_oneway(cfg, n, /*intra=*/false);
    EXPECT_GE(p.oneway_us, prev) << "size " << n;
    prev = p.oneway_us;
  }
}

TEST(PerfShape, IntraNodeLatencyMonotoneInSize) {
  bcl::ClusterConfig cfg;
  cfg.nodes = 1;
  double prev = -1.0;
  for (const std::size_t n : {0ul, 256ul, 4096ul, 32768ul, 131072ul}) {
    const auto p = harness::bcl_oneway(cfg, n, /*intra=*/true);
    EXPECT_GE(p.oneway_us, prev) << "size " << n;
    prev = p.oneway_us;
  }
}

TEST(PerfShape, BandwidthNeverExceedsRawLink) {
  bcl::ClusterConfig cfg;
  cfg.nodes = 2;
  const double link_mbps = cfg.fabric.myrinet.link.bandwidth / 1e6;
  for (const std::size_t n : {4096ul, 32768ul, 131072ul, 262144ul}) {
    const auto p = harness::bcl_oneway(cfg, n, /*intra=*/false);
    EXPECT_LT(p.bandwidth_mbps(), link_mbps) << "size " << n;
  }
}

TEST(PerfShape, IntraBeatsInterAtEverySize) {
  bcl::ClusterConfig inter;
  inter.nodes = 2;
  bcl::ClusterConfig intra;
  intra.nodes = 1;
  for (const std::size_t n : {0ul, 1024ul, 16384ul, 131072ul}) {
    const auto pi = harness::bcl_oneway(inter, n, false);
    const auto pa = harness::bcl_oneway(intra, n, true);
    EXPECT_LT(pa.oneway_us, pi.oneway_us) << "size " << n;
  }
}

TEST(PerfShape, EachLayerAddsLatency) {
  bcl::ClusterConfig bcfg;
  bcfg.nodes = 2;
  const cluster::WorldConfig wcfg;
  const double raw = harness::bcl_oneway(bcfg, 0, false).oneway_us;
  const double mpi = harness::mpi_oneway(wcfg, 0, false).oneway_us;
  const double pvm = harness::pvm_oneway(wcfg, 0, false).oneway_us;
  EXPECT_GT(mpi, raw);
  EXPECT_GT(pvm, raw);
}

TEST(PerfShape, PageSizedMpiMessageGoesEagerBetweenNodes) {
  // A payload that fits one 4096-byte system slot goes eager to another
  // node, so 4064 -> 4096 B adds only a continuation message, while
  // 4096 -> 4097 B adds the rendezvous round trip.
  const cluster::WorldConfig wcfg;
  const double fits_beside_envelope =
      harness::mpi_oneway(wcfg, 4064, false).oneway_us;
  const double fits_slot = harness::mpi_oneway(wcfg, 4096, false).oneway_us;
  const double rendezvous = harness::mpi_oneway(wcfg, 4097, false).oneway_us;
  EXPECT_LT(fits_slot - fits_beside_envelope, rendezvous - fits_slot);
}

TEST(PerfShape, ArchitectureLatencyOrdering) {
  // user-level < semi-user-level < kernel-level — the paper's whole point.
  bcl::ClusterConfig cfg;
  cfg.nodes = 2;
  const double ul = harness::ul_oneway(cfg, 0).oneway_us;
  const double su = harness::bcl_oneway(cfg, 0, false).oneway_us;
  const double kl = harness::kl_oneway(cfg, 0).oneway_us;
  EXPECT_LT(ul, su);
  EXPECT_LT(su, kl);
}

TEST(PerfShape, BandwidthPenaltyOfKernelPathVanishesForBulk) {
  // The paper: the 4.17us extra is ~22% at 0 bytes but ~0.4% at 128KB.
  bcl::ClusterConfig cfg;
  cfg.nodes = 2;
  const double su0 = harness::bcl_oneway(cfg, 0, false).oneway_us;
  const double ul0 = harness::ul_oneway(cfg, 0).oneway_us;
  const double suB = harness::bcl_oneway(cfg, 128 * 1024, false).oneway_us;
  const double ulB = harness::ul_oneway(cfg, 128 * 1024).oneway_us;
  const double small_frac = (su0 - ul0) / su0;
  const double big_frac = (suB - ulB) / suB;
  EXPECT_GT(small_frac, 0.15);
  EXPECT_LT(big_frac, 0.03);
}

TEST(PerfShape, MeshLatencyGrowsWithDistance) {
  bcl::ClusterConfig cfg;
  cfg.nodes = 9;
  cfg.fabric.kind = hw::FabricKind::kNwrcMesh;
  cfg.fabric.mesh_width = 3;
  auto lat_between = [&cfg](hw::NodeId a, hw::NodeId b) {
    bcl::BclCluster c{cfg};
    auto& tx = c.node(a).open_endpoint();
    auto& rx = c.node(b).open_endpoint();
    sim::Time t0{}, t1{};
    c.engine().spawn([](sim::Engine& e, bcl::Endpoint& tx, bcl::PortId dst,
                        sim::Time& t0) -> sim::Task<void> {
      auto buf = tx.process().alloc(1);
      (void)co_await tx.send_system(dst, buf, 0);
      auto ev = co_await tx.wait_recv();
      (void)co_await tx.copy_out_system(ev);
      t0 = e.now();
      (void)co_await tx.send_system(dst, buf, 0);
    }(c.engine(), tx, rx.id(), t0));
    c.engine().spawn([](sim::Engine& e, bcl::Endpoint& rx, bcl::PortId back,
                        sim::Time& t1) -> sim::Task<void> {
      auto ev = co_await rx.wait_recv();
      (void)co_await rx.copy_out_system(ev);
      auto buf = rx.process().alloc(1);
      (void)co_await rx.send_system(back, buf, 0);
      ev = co_await rx.wait_recv();
      t1 = e.now();
      (void)co_await rx.copy_out_system(ev);
    }(c.engine(), rx, tx.id(), t1));
    c.engine().run();
    return (t1 - t0).to_us();
  };
  const double d1 = lat_between(0, 1);  // one hop
  const double d4 = lat_between(0, 8);  // corner to corner
  EXPECT_GT(d4, d1);
}

TEST(PerfShape, DeterministicLatencyAcrossRuns) {
  bcl::ClusterConfig cfg;
  cfg.nodes = 2;
  const auto a = harness::bcl_oneway(cfg, 1024, false);
  const auto b = harness::bcl_oneway(cfg, 1024, false);
  EXPECT_DOUBLE_EQ(a.oneway_us, b.oneway_us);
}

}  // namespace
