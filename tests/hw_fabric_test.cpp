// Tests for Link, CrossbarSwitch, MyrinetFabric, MeshFabric, and the
// topology factory: delivery, ordering, timing, fault injection.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "hw/link.hpp"
#include "hw/mesh.hpp"
#include "hw/myrinet_switch.hpp"
#include "hw/node.hpp"
#include "hw/topology.hpp"
#include "sim/engine.hpp"

namespace {

using hw::Link;
using hw::LinkConfig;
using hw::MeshFabric;
using hw::MyrinetFabric;
using hw::Packet;
using sim::Engine;
using sim::Task;
using sim::Time;

Packet make_packet(hw::NodeId src, hw::NodeId dst, std::size_t payload_len,
                   std::uint64_t id = 0) {
  Packet p;
  p.id = id;
  p.src_node = src;
  p.dst_node = dst;
  p.payload.assign(payload_len, std::byte{0xAB});
  return p;
}

TEST(Link, SerializationAndPropagationTiming) {
  Engine eng;
  LinkConfig cfg;
  cfg.bandwidth = 100e6;  // 10 ns/byte
  cfg.propagation = Time::us(1.0);
  std::vector<Time> arrivals;
  Link link{eng, "l", cfg, [&](Packet&&) { arrivals.push_back(eng.now()); }};
  eng.spawn([](Link& l) -> Task<void> {
    co_await l.in().send(make_packet(0, 1, 968));  // 968+32 = 1000 B wire
  }(link));
  eng.run();
  ASSERT_EQ(arrivals.size(), 1u);
  // 1000 B at 100 MB/s = 10 us serialization + 1 us propagation.
  EXPECT_NEAR(arrivals[0].to_us(), 11.0, 1e-9);
  EXPECT_EQ(link.packets(), 1u);
  EXPECT_EQ(link.bytes(), 1000u);
}

TEST(Link, FifoOrderPreserved) {
  Engine eng;
  std::vector<std::uint64_t> order;
  Link link{eng, "l", {}, [&](Packet&& p) { order.push_back(p.id); }};
  eng.spawn([](Link& l) -> Task<void> {
    for (std::uint64_t i = 0; i < 10; ++i) {
      co_await l.in().send(make_packet(0, 1, 100, i));
    }
  }(link));
  eng.run();
  EXPECT_EQ(order, (std::vector<std::uint64_t>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
}

TEST(Link, BackpressureBlocksSender) {
  Engine eng;
  LinkConfig cfg;
  cfg.bandwidth = 1e6;  // slow: 1 B/us
  cfg.queue_depth = 2;
  int delivered = 0;
  Link link{eng, "l", cfg, [&](Packet&&) { ++delivered; }};
  Time all_sent;
  eng.spawn([](Engine& e, Link& l, Time& done) -> Task<void> {
    for (int i = 0; i < 4; ++i) {
      co_await l.in().send(make_packet(0, 1, 968));
    }
    done = e.now();
  }(eng, link, all_sent));
  eng.run();
  EXPECT_EQ(delivered, 4);
  EXPECT_GT(all_sent, Time::zero());  // sender had to wait for queue space
}

TEST(Link, CorruptionInjection) {
  Engine eng;
  int corrupted = 0, clean = 0;
  Link link{eng, "l", {},
            [&](Packet&& p) { (p.corrupted ? corrupted : clean)++; }};
  link.set_fault_plan({.corrupt_prob = 0.5, .seed = 33});
  eng.spawn([](Link& l) -> Task<void> {
    for (int i = 0; i < 200; ++i) co_await l.in().send(make_packet(0, 1, 10));
  }(link));
  eng.run();
  EXPECT_GT(corrupted, 50);
  EXPECT_GT(clean, 50);
  EXPECT_EQ(link.corrupted(), static_cast<std::uint64_t>(corrupted));
}

// Utilization counts only the part of the packet on the wire that is
// already sent, and reading it changes nothing: 10 us into a 25.6 us
// serialization the wire has been busy the whole time (1, not 2.56), two
// reads at one instant agree, and once the packet is out and the wire has
// idled as long again it reads one half.
TEST(Link, UtilizationIsAPureReadThatNeverExceedsOne) {
  Engine eng;
  Link link{eng, "l", {}, [](Packet&&) {}};  // 160 MB/s
  eng.spawn([](Link& l) -> Task<void> {
    co_await l.in().send(make_packet(0, 1, 4096 - 32));  // 4096 B wire
  }(link));
  double mid_first = -1, mid_second = -1, idle = -1;
  eng.spawn([](Engine& e, Link& l, double& a, double& b,
               double& c) -> Task<void> {
    co_await e.sleep(Time::us(10));
    a = l.utilization();
    b = l.utilization();
    co_await e.sleep(Time::us(51.2) - e.now());
    c = l.utilization();
  }(eng, link, mid_first, mid_second, idle));
  eng.run();
  EXPECT_LE(mid_first, 1.0);
  EXPECT_DOUBLE_EQ(mid_first, 1.0);
  EXPECT_EQ(mid_second, mid_first);
  EXPECT_DOUBLE_EQ(idle, 0.5);
  EXPECT_DOUBLE_EQ(link.stats().util, idle);
}

// Builds a fabric with N nodes and returns delivered packets per node.
struct FabricHarness {
  Engine eng;
  std::vector<std::unique_ptr<hw::Node>> nodes;
  std::unique_ptr<hw::Fabric> fabric;

  explicit FabricHarness(std::uint32_t n, hw::FabricOptions opts = {}) {
    for (std::uint32_t i = 0; i < n; ++i) {
      hw::NodeConfig nc;
      nc.mem_bytes = 1u << 20;
      nodes.push_back(std::make_unique<hw::Node>(eng, i, nc));
    }
    fabric = hw::make_fabric(eng, n, opts);
    hw::attach_all(*fabric, nodes);
  }

  // Sends a packet and waits for it at the destination NIC.
  Time send_and_receive(hw::NodeId src, hw::NodeId dst, std::size_t bytes) {
    Time arrival = Time::zero();
    eng.spawn([](hw::Nic& nic, hw::NodeId dst, std::size_t bytes) -> Task<void> {
      co_await nic.transmit(make_packet(nic.node(), dst, bytes));
    }(nodes[src]->nic(), dst, bytes));
    eng.spawn([](Engine& e, hw::Nic& nic, Time& t) -> Task<void> {
      Packet p = co_await nic.rx().recv();
      EXPECT_FALSE(p.payload.empty());
      t = e.now();
    }(eng, nodes[dst]->nic(), arrival));
    eng.run();
    return arrival;
  }
};

TEST(MyrinetFabric, SingleSwitchDelivers) {
  FabricHarness h{4};
  const Time t = h.send_and_receive(0, 3, 64);
  EXPECT_GT(t, Time::zero());
  EXPECT_LT(t.to_us(), 5.0);  // two links + one switch for a small packet
}

TEST(MyrinetFabric, SingleSwitchRoute) {
  Engine eng;
  MyrinetFabric fab{eng, 8};
  EXPECT_EQ(fab.route(0, 5), (std::vector<std::uint8_t>{5}));
  EXPECT_EQ(fab.hops(0, 5), 2);
}

TEST(MyrinetFabric, TwoLevelRoutes) {
  Engine eng;
  MyrinetFabric fab{eng, 16};
  // Same leaf: direct.
  EXPECT_EQ(fab.route(0, 2), (std::vector<std::uint8_t>{2}));
  // Cross leaf: uplink, spine out to dst leaf, local port.
  const auto r = fab.route(0, 13);  // leaf 3, local 1
  ASSERT_EQ(r.size(), 3u);
  EXPECT_GE(r[0], 4);  // uplink port
  EXPECT_EQ(r[1], 3);  // dst leaf index at spine
  EXPECT_EQ(r[2], 1);  // local port
  EXPECT_EQ(fab.hops(0, 13), 4);
  EXPECT_EQ(fab.switch_count(), 8u);  // 4 leaves + 4 spines
}

TEST(MyrinetFabric, TwoLevelDelivers) {
  FabricHarness h{16};
  const Time t = h.send_and_receive(1, 14, 64);
  EXPECT_GT(t, Time::zero());
}

TEST(MyrinetFabric, CrossTrafficAllDelivered) {
  FabricHarness h{8};
  int delivered = 0;
  for (std::uint32_t src = 0; src < 8; ++src) {
    h.eng.spawn([](hw::Nic& nic, std::uint32_t dst) -> Task<void> {
      for (int k = 0; k < 5; ++k) {
        co_await nic.transmit(make_packet(nic.node(), dst, 256));
      }
    }(h.nodes[src]->nic(), (src + 3) % 8));
    h.eng.spawn([](hw::Nic& nic, int& del) -> Task<void> {
      for (int k = 0; k < 5; ++k) {
        (void)co_await nic.rx().recv();
        ++del;
      }
    }(h.nodes[src]->nic(), delivered));
  }
  h.eng.run();
  EXPECT_EQ(delivered, 40);
}

TEST(MyrinetFabric, TooManyNodesRejected) {
  Engine eng;
  EXPECT_THROW(MyrinetFabric(eng, 33), std::invalid_argument);
}

TEST(MyrinetFabric, DoubleAttachRejected) {
  Engine eng;
  MyrinetFabric fab{eng, 2};
  hw::Node node{eng, 0, {}};
  fab.attach(0, node.nic());
  EXPECT_THROW(fab.attach(0, node.nic()), std::logic_error);
}

TEST(MeshFabric, HopsAreManhattanDistance) {
  Engine eng;
  MeshFabric fab{eng, 4, 4};
  EXPECT_EQ(fab.hops(0, 15), 6);  // (0,0) -> (3,3)
  EXPECT_EQ(fab.hops(5, 6), 1);
  EXPECT_EQ(fab.hops(3, 3), 0);
}

TEST(MeshFabric, DeliversAcrossMesh) {
  hw::FabricOptions opts;
  opts.kind = hw::FabricKind::kNwrcMesh;
  FabricHarness h{9, opts};
  const Time t = h.send_and_receive(0, 8, 128);
  EXPECT_GT(t, Time::zero());
}

TEST(MeshFabric, ManyToOneDelivered) {
  hw::FabricOptions opts;
  opts.kind = hw::FabricKind::kNwrcMesh;
  FabricHarness h{9, opts};
  int delivered = 0;
  for (std::uint32_t src = 1; src < 9; ++src) {
    h.eng.spawn([](hw::Nic& nic) -> Task<void> {
      co_await nic.transmit(make_packet(nic.node(), 0, 64));
    }(h.nodes[src]->nic()));
  }
  h.eng.spawn([](hw::Nic& nic, int& del) -> Task<void> {
    for (int k = 0; k < 8; ++k) {
      (void)co_await nic.rx().recv();
      ++del;
    }
  }(h.nodes[0]->nic(), delivered));
  h.eng.run();
  EXPECT_EQ(delivered, 8);
}

TEST(TopologyFactory, MeshAutoShape) {
  Engine eng;
  hw::FabricOptions opts;
  opts.kind = hw::FabricKind::kNwrcMesh;
  auto fab = hw::make_fabric(eng, 10, opts);
  auto* mesh = dynamic_cast<MeshFabric*>(fab.get());
  ASSERT_NE(mesh, nullptr);
  EXPECT_GE(mesh->width() * mesh->height(), 10);
}

TEST(TopologyFactory, FarNodesTakeLonger) {
  hw::FabricOptions opts;
  opts.kind = hw::FabricKind::kNwrcMesh;
  FabricHarness near{9, opts};
  const Time t_near = near.send_and_receive(0, 1, 512);
  FabricHarness far{9, opts};
  const Time t_far = far.send_and_receive(0, 8, 512);
  EXPECT_GT(t_far, t_near);
}

}  // namespace
