// A NIC barrier is a zero-byte allreduce rooted at member 0: empty partials
// combine up the member-0 tree and the root's empty fan-out releases it.
// These tests pin its shape (one post, one trap and one completion per
// member, no combine work), its interleaving with every other operation,
// its name in a watchdog report and its payload check.  Every collective
// packet also names its operation, so members that disagree on which
// operation a sequence number is fail the group instead of returning kOk
// with a contribution missing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "bcl/coll/engine.hpp"
#include "bcl/coll/port.hpp"
#include "bcl/driver.hpp"
#include "cluster/cluster.hpp"

namespace {

using bcl::BclErr;
using bcl::coll::CollKind;
using bcl::coll::CollOp;
using bcl::coll::CollPort;
using cluster::World;
using cluster::WorldConfig;
using sim::Task;
using sim::Time;

WorldConfig world_cfg(std::uint32_t nodes, bool mesh) {
  WorldConfig cfg;
  cfg.cluster.nodes = nodes;
  cfg.cluster.node.mem_bytes = 16u << 20;
  cfg.cluster.cost.coll_op_timeout = Time::ms(2);
  if (mesh) cfg.cluster.fabric.kind = hw::FabricKind::kNwrcMesh;
  return cfg;
}

std::vector<bcl::PortId> members_of(World& w, const std::vector<int>& nodes) {
  std::vector<bcl::PortId> members;
  for (const int node : nodes) members.push_back(w.endpoint(node).id());
  return members;
}

// ---------------------------------------------------------- barrier shape

struct Shape {
  const char* name;
  std::uint32_t nodes;
  bool mesh;
};
void PrintTo(const Shape& shape, std::ostream* os) { *os << shape.name; }

class BarrierShape : public ::testing::TestWithParam<Shape> {};

// N barriers cost every member N engine posts, N coll_post traps and N
// completion events, and combine nothing.  No member leaves a barrier
// before every member has entered it.
TEST_P(BarrierShape, OnePostOneTrapOneEventNoCombines) {
  const Shape shape = GetParam();
  constexpr std::uint16_t kGid = 61;
  constexpr int kRounds = 6;
  const int n = static_cast<int>(shape.nodes);
  World w{world_cfg(shape.nodes, shape.mesh), n};
  std::vector<int> nodes(static_cast<std::size_t>(n));
  for (int m = 0; m < n; ++m) nodes[static_cast<std::size_t>(m)] = m;
  const auto members = members_of(w, nodes);
  std::vector<std::uint64_t> traps(static_cast<std::size_t>(n), 0);
  std::vector<std::vector<Time>> entered(
      kRounds, std::vector<Time>(static_cast<std::size_t>(n)));
  auto left = entered;
  w.run([&](World& world, int rank) -> Task<void> {
    auto& ep = world.endpoint(rank);
    auto port = co_await CollPort::create(ep, kGid, members, 4096);
    EXPECT_TRUE(port.ok());
    if (!port.ok()) co_return;
    const std::uint64_t traps_before = ep.driver().kernel().traps();
    for (int round = 0; round < kRounds; ++round) {
      // Stagger arrivals so the release really waits for the last one.
      co_await world.engine().sleep(Time::us(10 * ((rank + round) % n)));
      entered[round][static_cast<std::size_t>(rank)] = world.engine().now();
      EXPECT_EQ(co_await port.value->barrier(), BclErr::kOk)
          << "member " << rank << " round " << round;
      left[round][static_cast<std::size_t>(rank)] = world.engine().now();
    }
    traps[static_cast<std::size_t>(rank)] =
        ep.driver().kernel().traps() - traps_before;
  });
  for (int round = 0; round < kRounds; ++round) {
    EXPECT_GE(*std::min_element(left[round].begin(), left[round].end()),
              *std::max_element(entered[round].begin(), entered[round].end()))
        << "round " << round;
  }
  for (int m = 0; m < n; ++m) {
    const auto& stats = w.endpoint(m).mcp().recorder();
    EXPECT_EQ(stats.count(bcl::NicEvent::kCollPost),
              static_cast<std::uint64_t>(kRounds))
        << "member " << m;
    EXPECT_EQ(stats.count(bcl::NicEvent::kCollCompletion),
              static_cast<std::uint64_t>(kRounds))
        << "member " << m;
    EXPECT_EQ(traps[static_cast<std::size_t>(m)],
              static_cast<std::uint64_t>(kRounds))
        << "member " << m;
    EXPECT_EQ(stats.count(bcl::NicEvent::kCollCombine), 0u) << "member " << m;
    EXPECT_EQ(w.endpoint(m).mcp().coll().pending_ops(), 0u) << "member " << m;
  }
}

INSTANTIATE_TEST_SUITE_P(Fabrics, BarrierShape,
                         ::testing::Values(Shape{"Myrinet8", 8, false},
                                           Shape{"Mesh3x3", 9, true}),
                         [](const auto& info) {
                           return std::string(info.param.name);
                         });

// ------------------------------------------------------------ interleaving

// On a 3x3 mesh with members in an order unrelated to the curve, a barrier
// sits between every allreduce, broadcast and reduce, each rooted at every
// member in turn.  Every result is exact and every barrier succeeds.
TEST(CollBarrier, InterleavesWithEveryOperationFromEveryRoot) {
  constexpr std::uint16_t kGid = 63;
  constexpr int kNodes = 9;
  constexpr std::size_t kLen = 6000;   // two fragments
  constexpr std::size_t kCount = 700;  // two fragments
  World w{world_cfg(kNodes, true), kNodes};
  const std::vector<int> node_of{4, 0, 8, 2, 6, 1, 7, 3, 5};  // by member
  const auto members = members_of(w, node_of);
  int checked = 0;
  w.run([&](World& world, int rank) -> Task<void> {
    auto& ep = world.endpoint(rank);
    auto& mpi = world.mpi(rank);
    const int me = static_cast<int>(
        std::find(node_of.begin(), node_of.end(), rank) - node_of.begin());
    auto port = co_await CollPort::create(ep, kGid, members, 8192);
    EXPECT_TRUE(port.ok());
    if (!port.ok()) co_return;
    CollPort& coll = *port.value;
    auto buf = ep.process().alloc(kLen);
    auto src = ep.process().alloc(kCount * sizeof(double));
    auto dst = ep.process().alloc(kCount * sizeof(double));
    for (int root = 0; root < kNodes; ++root) {
      EXPECT_EQ(co_await coll.barrier(), BclErr::kOk) << "root " << root;
      mpi.write_doubles(src, std::vector<double>(kCount, me + 1.0 + root));
      EXPECT_EQ(co_await coll.allreduce(src, dst, kCount, CollOp::kSum),
                BclErr::kOk);
      // (1 + 2 + ... + 9) + 9 * root
      EXPECT_EQ(mpi.read_doubles(dst, kCount),
                std::vector<double>(kCount, 45.0 + kNodes * root))
          << "member " << me << " root " << root;
      EXPECT_EQ(co_await coll.barrier(), BclErr::kOk) << "root " << root;
      const auto seed = static_cast<unsigned>(90 + root);
      if (me == root) ep.process().fill_pattern(buf, seed);
      EXPECT_EQ(co_await coll.bcast(buf, kLen, root), BclErr::kOk);
      EXPECT_TRUE(ep.process().check_pattern(buf, seed))
          << "member " << me << " root " << root;
      EXPECT_EQ(co_await coll.barrier(), BclErr::kOk) << "root " << root;
      mpi.write_doubles(src, std::vector<double>(kCount, (me + 1.0) * 2));
      EXPECT_EQ(co_await coll.reduce(src, dst, kCount, CollOp::kSum, root),
                BclErr::kOk);
      if (me == root) {
        EXPECT_EQ(mpi.read_doubles(dst, kCount),
                  std::vector<double>(kCount, 90.0))
            << "root " << root;
        ++checked;
      }
    }
    EXPECT_EQ(co_await coll.barrier(), BclErr::kOk);
  });
  EXPECT_EQ(checked, kNodes);
  for (int node = 0; node < kNodes; ++node) {
    const auto& nic = w.endpoint(node).mcp().coll();
    EXPECT_EQ(nic.pending_ops(), 0u) << "node " << node;
    EXPECT_EQ(w.endpoint(node).mcp().recorder().count(
                  bcl::NicEvent::kCollTimeout),
              0u)
        << "node " << node;
  }
}

// ----------------------------------------------------------- naming

// A barrier arrival that reaches a member before its own post creates the
// member's entry as a barrier: when the watchdog expires on it, the
// post-mortem names a barrier.
TEST(CollBarrier, ArrivalBeforePostNamesWatchdogVictimBarrier) {
  constexpr std::uint16_t kGid = 65;
  World w{world_cfg(2, false), 2};
  const auto members = members_of(w, {0, 1});
  std::vector<std::unique_ptr<CollPort>> ports(2);
  w.run([&](World& world, int rank) -> Task<void> {
    auto port = co_await CollPort::create(world.endpoint(rank), kGid,
                                          members, 4096);
    EXPECT_TRUE(port.ok());
    ports[static_cast<std::size_t>(rank)] = std::move(port.value);
  });
  auto& mcp = w.cluster().node(0).mcp();
  std::vector<std::string> victims;
  mcp.set_diagnosis_hook(
      [&victims](const std::string& reason, int, const std::string& victim) {
        if (reason == "collective-timeout") victims.push_back(victim);
      });
  // Member 1's arrival for barrier 1; member 0 never posts it.
  hw::Packet p;
  p.dst_node = 0;
  p.dst_port = members[0].port;
  p.src_port = members[1].port;
  p.channel = kGid;  // root 0
  p.op_flags = bcl::coll::coll_op_flags(bcl::coll::CollWire::kPartial);
  p.reply_channel =
      bcl::coll::coll_reply_channel(CollKind::kBarrier, CollOp::kSum);
  p.msg_id = 1;
  p.frag_count = 1;
  w.engine().spawn(mcp.coll().handle_packet(p));
  w.engine().run();
  ASSERT_EQ(victims.size(), 1u);
  EXPECT_EQ(victims[0], "barrier group 65 seq 1");
  EXPECT_EQ(mcp.coll().pending_ops(), 0u);
}

// A barrier carries no data: the coll_post trap rejects one with a
// payload before the NIC sees it, and the group stays usable.
TEST(CollBarrier, PostWithPayloadIsRejected) {
  constexpr std::uint16_t kGid = 67;
  World w{world_cfg(2, false), 2};
  const auto members = members_of(w, {0, 1});
  w.run([&](World& world, int rank) -> Task<void> {
    auto& ep = world.endpoint(rank);
    auto port = co_await CollPort::create(ep, kGid, members, 4096);
    EXPECT_TRUE(port.ok());
    if (!port.ok()) co_return;
    auto buf = ep.process().alloc(64);
    bcl::CollPostArgs a;
    a.group_id = kGid;
    a.kind = CollKind::kBarrier;
    a.seq = 1;
    a.vaddr = buf.vaddr;
    a.len = sizeof(double);
    const auto r =
        co_await ep.driver().ioctl_coll_post(ep.process(), ep.port(), a);
    EXPECT_EQ(r.err, BclErr::kBadBuffer);
    EXPECT_EQ(co_await port.value->barrier(), BclErr::kOk);
  });
  for (int m = 0; m < 2; ++m) {
    EXPECT_EQ(w.endpoint(m).mcp().recorder().count(bcl::NicEvent::kCollPost),
              1u)
        << "member " << m;
  }
}

// ------------------------------------------------- one operation per seq

// Member 2's result buffer cannot hold the group's allreduce, so its
// CollPort returns kTooBig.  That call still takes its sequence number:
// otherwise member 2's next allreduce would pair with the group's, and the
// others would return kOk holding a sum that lacks member 2.
TEST(CollOpNaming, RejectedAllreduceStillTakesItsSequence) {
  constexpr std::uint16_t kGid = 69;
  constexpr std::size_t kCount = 512;
  constexpr std::size_t kSmallCount = 64;
  World w{world_cfg(3, false), 3};
  const auto members = members_of(w, {0, 1, 2});
  std::vector<BclErr> first(3, BclErr::kOk);
  w.run([&](World& world, int rank) -> Task<void> {
    auto& ep = world.endpoint(rank);
    auto& mpi = world.mpi(rank);
    const std::size_t mine = rank == 2 ? 1024 : 8192;
    auto port = co_await CollPort::create(ep, kGid, members, mine);
    EXPECT_TRUE(port.ok());
    if (!port.ok()) co_return;
    auto src = ep.process().alloc(kCount * sizeof(double));
    auto dst = ep.process().alloc(kCount * sizeof(double));
    mpi.write_doubles(src, std::vector<double>(kCount, rank + 1.0));
    first[static_cast<std::size_t>(rank)] =
        co_await port.value->allreduce(src, dst, kCount, CollOp::kSum);
    if (rank == 2) {
      (void)co_await port.value->allreduce(src, dst, kSmallCount,
                                           CollOp::kSum);
    }
  });
  EXPECT_EQ(first[2], BclErr::kTooBig);
  EXPECT_NE(first[0], BclErr::kOk);
  EXPECT_NE(first[1], BclErr::kOk);
}

// Members 0 and 1 allreduce while member 2 runs a barrier under the same
// sequence number.  The packets name their operations, so the root sees
// two kinds for one operation, counts a drop and fails the group: every
// member fails well inside the watchdog, and nobody returns kOk.
TEST(CollOpNaming, PacketNamingAnotherOperationFailsTheGroup) {
  constexpr std::uint16_t kGid = 71;
  constexpr std::size_t kCount = 4;
  World w{world_cfg(3, false), 3};
  const auto members = members_of(w, {0, 1, 2});
  std::vector<BclErr> err(3, BclErr::kOk);
  std::vector<Time> at(3);
  w.run([&](World& world, int rank) -> Task<void> {
    auto& ep = world.endpoint(rank);
    auto port = co_await CollPort::create(ep, kGid, members, 4096);
    EXPECT_TRUE(port.ok());
    if (!port.ok()) co_return;
    const Time start = world.engine().now();
    if (rank == 2) {
      err[2] = co_await port.value->barrier();
    } else {
      auto src = ep.process().alloc(kCount * sizeof(double));
      auto dst = ep.process().alloc(kCount * sizeof(double));
      world.mpi(rank).write_doubles(src,
                                    std::vector<double>(kCount, rank + 1.0));
      err[static_cast<std::size_t>(rank)] =
          co_await port.value->allreduce(src, dst, kCount, CollOp::kSum);
    }
    at[static_cast<std::size_t>(rank)] = world.engine().now() - start;
  });
  std::uint64_t drops = 0;
  for (int m = 0; m < 3; ++m) {
    EXPECT_EQ(err[static_cast<std::size_t>(m)], BclErr::kPeerUnreachable)
        << "member " << m;
    EXPECT_LT(at[static_cast<std::size_t>(m)], Time::us(200))
        << "member " << m;
    const auto& stats = w.endpoint(m).mcp().recorder();
    drops += stats.count(bcl::NicEvent::kCollDrop);
    EXPECT_EQ(stats.count(bcl::NicEvent::kCollTimeout), 0u) << "member " << m;
  }
  EXPECT_GE(drops, 1u);
}

// Member 1 runs a barrier while the root, posting later, runs an
// allreduce under the same sequence number: the root's post names another
// operation than the packet that created its entry, so it fails the group.
TEST(CollOpNaming, PostNamingAnotherOperationFailsTheGroup) {
  constexpr std::uint16_t kGid = 73;
  constexpr std::size_t kCount = 4;
  World w{world_cfg(2, false), 2};
  const auto members = members_of(w, {0, 1});
  std::vector<BclErr> err(2, BclErr::kOk);
  w.run([&](World& world, int rank) -> Task<void> {
    auto& ep = world.endpoint(rank);
    auto port = co_await CollPort::create(ep, kGid, members, 4096);
    EXPECT_TRUE(port.ok());
    if (!port.ok()) co_return;
    if (rank == 1) {
      err[1] = co_await port.value->barrier();
      co_return;
    }
    co_await world.engine().sleep(Time::us(100));
    auto src = ep.process().alloc(kCount * sizeof(double));
    auto dst = ep.process().alloc(kCount * sizeof(double));
    world.mpi(rank).write_doubles(src, std::vector<double>(kCount, 1.0));
    err[0] = co_await port.value->allreduce(src, dst, kCount, CollOp::kSum);
  });
  EXPECT_EQ(err[0], BclErr::kPeerUnreachable);
  EXPECT_EQ(err[1], BclErr::kPeerUnreachable);
  const auto& root = w.endpoint(0).mcp().recorder();
  EXPECT_EQ(root.count(bcl::NicEvent::kCollDrop), 1u);
  EXPECT_EQ(root.count(bcl::NicEvent::kCollTimeout), 0u);
}

}  // namespace
