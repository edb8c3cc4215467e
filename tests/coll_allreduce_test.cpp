// The NIC allreduce is one operation under one sequence number: every
// member posts its contribution once, partials combine up the tree, and
// the root's MCP fans the combined result out of SRAM as the same
// operation's data fragments.  These tests pin that shape (one post, one
// trap and one completion per member), the kind race it must survive, its
// interleaving with rooted broadcasts and reduces on the shared result
// buffer, a root that fail-stops before its fan-out, and packets that reach
// a member before it registers the group.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "bcl/coll/engine.hpp"
#include "bcl/coll/port.hpp"
#include "bcl/driver.hpp"
#include "cluster/cluster.hpp"

namespace {

using bcl::BclErr;
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
  if (mesh) cfg.cluster.fabric.kind = hw::FabricKind::kNwrcMesh;
  return cfg;
}

// Member m's contribution to allreduce `round`, element j: small integers,
// so every sum is exact whatever order the tree combines in.
double contribution(int member, int round, std::size_t j) {
  return static_cast<double>((member + 1) * (static_cast<int>(j % 7) + 1) +
                             round);
}

std::vector<double> expected_sum(int n, int round, std::size_t count) {
  std::vector<double> want(count, 0.0);
  for (int m = 0; m < n; ++m) {
    for (std::size_t j = 0; j < count; ++j) {
      want[j] += contribution(m, round, j);
    }
  }
  return want;
}

std::vector<bcl::PortId> members_of(World& w, const std::vector<int>& nodes) {
  std::vector<bcl::PortId> members;
  for (const int node : nodes) members.push_back(w.endpoint(node).id());
  return members;
}

// Member `me` of an n-member group runs allreduce `round` and checks that
// it holds the exact sum.
Task<void> checked_allreduce(CollPort& port, minimpi::Mpi& mpi,
                             const osk::UserBuffer& src,
                             const osk::UserBuffer& dst, std::size_t count,
                             int me, int n, int round) {
  std::vector<double> mine(count);
  for (std::size_t j = 0; j < count; ++j) mine[j] = contribution(me, round, j);
  mpi.write_doubles(src, mine);
  EXPECT_EQ(co_await port.allreduce(src, dst, count, CollOp::kSum),
            BclErr::kOk)
      << "member " << me << " round " << round;
  EXPECT_EQ(mpi.read_doubles(dst, count), expected_sum(n, round, count))
      << "member " << me << " round " << round;
}

// Probes below poll NIC state from a spawned task; past this simulated
// time they give up, so a broken engine fails the test instead of
// spinning forever.
constexpr Time kProbeDeadline = Time::ms(50);

// ------------------------------------------------------ one NIC operation

struct Shape {
  const char* name;
  std::uint32_t nodes;
  bool mesh;
};
void PrintTo(const Shape& shape, std::ostream* os) { *os << shape.name; }

class OneNicOperation : public ::testing::TestWithParam<Shape> {};

// N allreduces cost every member exactly N engine posts, N coll_post traps
// and N completion events, and every member holds the exact sum each time.
// Run as a reduce plus a second broadcast, the root paid 2N of each.
TEST_P(OneNicOperation, OnePostOneTrapOneEventPerMember) {
  const Shape shape = GetParam();
  constexpr std::uint16_t kGid = 21;
  constexpr int kRounds = 6;
  constexpr std::size_t kCount = 1000;  // two MTU fragments
  const int n = static_cast<int>(shape.nodes);
  World w{world_cfg(shape.nodes, shape.mesh), n};
  std::vector<int> nodes(static_cast<std::size_t>(n));
  for (int m = 0; m < n; ++m) nodes[static_cast<std::size_t>(m)] = m;
  const auto members = members_of(w, nodes);
  std::vector<std::uint64_t> traps(static_cast<std::size_t>(n), 0);
  w.run([&](World& world, int rank) -> Task<void> {
    auto& ep = world.endpoint(rank);
    auto port = co_await CollPort::create(ep, kGid, members, 8192);
    EXPECT_TRUE(port.ok());
    if (!port.ok()) co_return;
    auto src = ep.process().alloc(kCount * sizeof(double));
    auto dst = ep.process().alloc(kCount * sizeof(double));
    const std::uint64_t traps_before = ep.driver().kernel().traps();
    for (int round = 0; round < kRounds; ++round) {
      co_await checked_allreduce(*port.value, world.mpi(rank), src, dst,
                                 kCount, rank, n, round);
    }
    traps[static_cast<std::size_t>(rank)] =
        ep.driver().kernel().traps() - traps_before;
  });
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
    EXPECT_EQ(w.endpoint(m).mcp().coll().pending_ops(), 0u) << "member " << m;
  }
}

INSTANTIATE_TEST_SUITE_P(Fabrics, OneNicOperation,
                         ::testing::Values(Shape{"Myrinet8", 8, false},
                                           Shape{"Mesh3x3", 9, true}),
                         [](const auto& info) {
                           return std::string(info.param.name);
                         });

// ---------------------------------------------------------------- kind race

// A child's partial lands at the root while the root's own post is still
// DMAing its contribution into SRAM.  Only the local post may say what the
// operation is: had the partial marked it a plain reduce, the root would
// never fan out and the child would wait out the watchdog.
TEST(CollAllreduce, PartialDuringLocalContributionDmaStillFansOut) {
  constexpr std::uint16_t kGid = 23;
  constexpr std::size_t kCount = 4096;  // 32 KiB: a long contribution DMA
  World w{world_cfg(2, false), 2};
  const auto members = members_of(w, {0, 1});
  auto& root_nic = w.endpoint(0).mcp().coll();
  bool done = false;
  bool raced = false;
  // The race, observed: the root has taken its post and a partial has
  // arrived, but the accumulator (reserved in SRAM once the contribution
  // DMA lands) does not exist yet.
  const auto& root_events = w.endpoint(0).mcp().recorder();
  w.engine().spawn([](sim::Engine& eng, bcl::coll::CollectiveEngine& nic,
                      const bcl::FlightRecorder& events, const bool& done,
                      bool& raced) -> Task<void> {
    while (!done && eng.now() < kProbeDeadline) {
      if (events.count(bcl::NicEvent::kCollPost) == 1 &&
          events.count(bcl::NicEvent::kCollRxPacket) > 0 &&
          nic.sram_bytes() == 0) {
        raced = true;
      }
      co_await eng.sleep(Time::us(1));
    }
  }(w.engine(), root_nic, root_events, done, raced));
  int finished = 0;
  w.run([&](World& world, int rank) -> Task<void> {
    auto& ep = world.endpoint(rank);
    auto port = co_await CollPort::create(ep, kGid, members,
                                          kCount * sizeof(double));
    EXPECT_TRUE(port.ok());
    if (!port.ok()) co_return;
    auto src = ep.process().alloc(kCount * sizeof(double));
    auto dst = ep.process().alloc(kCount * sizeof(double));
    // The leaf posts at once; the root posts late enough that the leaf's
    // first partial fragments land during the root's contribution DMA.
    if (rank == 0) co_await world.engine().sleep(Time::us(100));
    co_await checked_allreduce(*port.value, world.mpi(rank), src, dst, kCount,
                               rank, 2, 0);
    if (++finished == 2) done = true;
  });
  EXPECT_TRUE(raced) << "the partial never landed mid-DMA; retune the delay";
  EXPECT_EQ(root_events.count(bcl::NicEvent::kCollTimeout), 0u);
}

// ------------------------------------------------------- mixed sequences

// On a 3x3 mesh with members in an order unrelated to the curve, allreduces
// interleave with a broadcast and a reduce from every root.  Fragments of
// a root's next broadcast can reach a member before its host has read the
// allreduce result, so they must wait on the consumer index; every result
// is exact and the index ends at the last operation on every member.
TEST(CollAllreduce, MeshInterleavesWithRootedOperations) {
  constexpr std::uint16_t kGid = 25;
  constexpr int kNodes = 9;
  constexpr std::size_t kLen = 6000;   // two fragments
  constexpr std::size_t kCount = 700;  // two fragments
  World w{world_cfg(kNodes, true), kNodes};
  const std::vector<int> node_of{4, 0, 8, 2, 6, 1, 7, 3, 5};  // by member
  const auto members = members_of(w, node_of);
  constexpr std::uint64_t kOps = 4 * kNodes;
  int checked = 0;
  w.run([&](World& world, int rank) -> Task<void> {
    auto& ep = world.endpoint(rank);
    auto& mpi = world.mpi(rank);
    const int me = static_cast<int>(
        std::find(node_of.begin(), node_of.end(), rank) - node_of.begin());
    auto port = co_await CollPort::create(ep, kGid, members, 8192);
    EXPECT_TRUE(port.ok());
    if (!port.ok()) co_return;
    auto buf = ep.process().alloc(kLen);
    auto src = ep.process().alloc(kCount * sizeof(double));
    auto dst = ep.process().alloc(kCount * sizeof(double));
    for (int root = 0; root < kNodes; ++root) {
      co_await checked_allreduce(*port.value, mpi, src, dst, kCount, me,
                                 kNodes, 2 * root);
      const auto seed = static_cast<unsigned>(70 + root);
      if (me == root) ep.process().fill_pattern(buf, seed);
      EXPECT_EQ(co_await port.value->bcast(buf, kLen, root), BclErr::kOk);
      EXPECT_TRUE(ep.process().check_pattern(buf, seed))
          << "member " << me << " root " << root;
      co_await checked_allreduce(*port.value, mpi, src, dst, kCount, me,
                                 kNodes, 2 * root + 1);
      std::vector<double> mine(kCount,
                               static_cast<double>((me + 1) * (root + 1)));
      mpi.write_doubles(src, mine);
      EXPECT_EQ(co_await port.value->reduce(src, dst, kCount, CollOp::kSum,
                                            root),
                BclErr::kOk);
      if (me == root) {
        // (1 + 2 + ... + 9) * (root + 1)
        EXPECT_EQ(mpi.read_doubles(dst, kCount),
                  std::vector<double>(kCount, 45.0 * (root + 1)))
            << "root " << root;
        ++checked;
      }
    }
    const bcl::coll::GroupDescriptor* g = ep.mcp().coll().find_group(kGid);
    EXPECT_NE(g, nullptr);
    // The last operation is a reduce: its root's host read the result, and
    // every other member released it at completion.
    if (g != nullptr) {
      EXPECT_EQ(g->host_done, kOps) << "member " << me;
    }
  });
  EXPECT_EQ(checked, kNodes);
  for (int node = 0; node < kNodes; ++node) {
    EXPECT_EQ(w.endpoint(node).mcp().coll().pending_ops(), 0u)
        << "node " << node;
  }
}

// ------------------------------------------------------------ root failure

// The root's MCP fail-stops after combining every partial but before its
// fan-out reaches the wire.  Each surviving member still holds the
// operation's one pending entry, so its watchdog fails the group and every
// survivor gets kPeerUnreachable instead of waiting forever for data.
TEST(CollAllreduce, RootFailStopBeforeFanOutUnblocksSurvivors) {
  constexpr std::uint16_t kGid = 27;
  constexpr int kNodes = 8;
  constexpr std::size_t kCount = 16;
  WorldConfig cfg = world_cfg(kNodes, false);
  cfg.cluster.cost.rto = Time::us(60);
  cfg.cluster.cost.max_retries = 4;
  cfg.cluster.cost.coll_op_timeout = Time::ms(2);
  World w{cfg, kNodes};
  std::vector<int> nodes(kNodes);
  for (int m = 0; m < kNodes; ++m) nodes[static_cast<std::size_t>(m)] = m;
  const auto members = members_of(w, nodes);
  // Member 0 roots the allreduce; it combines one partial per tree child.
  const std::uint64_t children = static_cast<std::uint64_t>(
      bcl::coll::tree_links({}, kNodes, w.cluster().config().cost.coll_arity,
                            0, 0)
          .children.size());
  // The first allreduce combines `children` partials at the root; the
  // instant the second one has combined as many, the root dies.  Its
  // fan-out packets were spawned in that same instant but are still in
  // MCP processing, so none reaches the wire.
  bool crashed = false;
  w.engine().spawn([](sim::Engine& eng, bcl::Mcp& root,
                      std::uint64_t children, bool& crashed) -> Task<void> {
    while (root.recorder().count(bcl::NicEvent::kCollCombine) < 2 * children) {
      if (eng.now() > kProbeDeadline) co_return;
      co_await eng.sleep(Time::ns(100));
    }
    root.crash();
    crashed = true;
  }(w.engine(), w.cluster().node(0).mcp(), children, crashed));
  std::vector<BclErr> second(kNodes, BclErr::kOk);
  w.run([&](World& world, int rank) -> Task<void> {
    auto& ep = world.endpoint(rank);
    auto port = co_await CollPort::create(ep, kGid, members, 4096);
    EXPECT_TRUE(port.ok());
    if (!port.ok()) co_return;
    auto src = ep.process().alloc(kCount * sizeof(double));
    auto dst = ep.process().alloc(kCount * sizeof(double));
    world.mpi(rank).write_doubles(src,
                                  std::vector<double>(kCount, rank + 1.0));
    EXPECT_EQ(co_await port.value->allreduce(src, dst, kCount, CollOp::kSum),
              BclErr::kOk);
    EXPECT_EQ(co_await port.value->barrier(), BclErr::kOk);
    second[static_cast<std::size_t>(rank)] =
        co_await port.value->allreduce(src, dst, kCount, CollOp::kSum);
  });
  EXPECT_TRUE(crashed);
  EXPECT_NE(second[0], BclErr::kOk);  // the dead root's own host
  for (int m = 1; m < kNodes; ++m) {
    EXPECT_EQ(second[static_cast<std::size_t>(m)], BclErr::kPeerUnreachable)
        << "member " << m;
  }
}

// ------------------------------------------------- before registration

// Member 0 of a 3-member group, the root and the parent of both leaves,
// registers 400 us after the others.  What the leaves send it meanwhile
// (two partial fragments each for an allreduce, one empty partial each for
// a barrier, a broadcast's two fragments from member 1) reaches a NIC with
// no group to take it: the engine parks it and replays it on
// registration, and every member completes with the exact result.
enum class EarlyOp { kAllreduce, kBarrier, kBcast };
struct Early {
  const char* name;
  bool mesh;
  EarlyOp op;
  std::uint64_t parked;  // collective packets at member 0 before it registers
};
void PrintTo(const Early& e, std::ostream* os) { *os << e.name; }

constexpr std::uint16_t kEarlyGid = 29;
constexpr std::size_t kEarlyCount = 1000;  // two MTU fragments
constexpr Time kLateRegistration = Time::us(400);

class EarlyPackets : public ::testing::TestWithParam<Early> {};

TEST_P(EarlyPackets, ParkedUntilRegistrationThenReplayed) {
  const Early e = GetParam();
  World w{world_cfg(3, e.mesh), 3};
  const auto members = members_of(w, {0, 1, 2});
  int finished = 0;
  w.run([&](World& world, int rank) -> Task<void> {
    auto& ep = world.endpoint(rank);
    if (rank == 0) {
      co_await world.engine().sleep(kLateRegistration);
      EXPECT_EQ(ep.mcp().coll().group_count(), 0u);
      EXPECT_EQ(ep.mcp().recorder().count(bcl::NicEvent::kCollRxPacket),
                e.parked);
    }
    auto port = co_await CollPort::create(ep, kEarlyGid, members,
                                          kEarlyCount * sizeof(double));
    EXPECT_TRUE(port.ok());
    if (!port.ok()) co_return;
    auto src = ep.process().alloc(kEarlyCount * sizeof(double));
    auto dst = ep.process().alloc(kEarlyCount * sizeof(double));
    switch (e.op) {
      case EarlyOp::kAllreduce:
        co_await checked_allreduce(*port.value, world.mpi(rank), src, dst,
                                   kEarlyCount, rank, 3, 0);
        break;
      case EarlyOp::kBarrier:
        EXPECT_EQ(co_await port.value->barrier(), BclErr::kOk);
        break;
      case EarlyOp::kBcast: {
        const std::size_t len = kEarlyCount * sizeof(double);
        if (rank == 1) ep.process().fill_pattern(dst, 41);
        EXPECT_EQ(co_await port.value->bcast(dst, len, 1), BclErr::kOk);
        EXPECT_TRUE(ep.process().check_pattern(dst, 41)) << "member " << rank;
        break;
      }
    }
    ++finished;
  });
  EXPECT_EQ(finished, 3);
  for (int node = 0; node < 3; ++node) {
    EXPECT_EQ(w.endpoint(node).mcp().coll().pending_ops(), 0u)
        << "node " << node;
    EXPECT_EQ(
        w.endpoint(node).mcp().recorder().count(bcl::NicEvent::kCollDrop), 0u)
        << "node " << node;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Fabrics, EarlyPackets,
    ::testing::Values(Early{"MyrinetAllreduce", false, EarlyOp::kAllreduce, 4},
                      Early{"MyrinetBarrier", false, EarlyOp::kBarrier, 2},
                      Early{"MyrinetBcast", false, EarlyOp::kBcast, 2},
                      Early{"MeshAllreduce", true, EarlyOp::kAllreduce, 4},
                      Early{"MeshBarrier", true, EarlyOp::kBarrier, 2},
                      Early{"MeshBcast", true, EarlyOp::kBcast, 2}),
    [](const auto& info) { return std::string(info.param.name); });

// With room to park only two packets per group, two of the four allreduce
// partials are dropped before member 0 registers.  The operation can never
// combine, so the watchdog fails the group and every member returns
// kPeerUnreachable about one watchdog period in, instead of hanging.
TEST(CollPreRegistration, ParkingOverflowFailsTheGroupInsteadOfHanging) {
  WorldConfig cfg = world_cfg(3, false);
  cfg.cluster.cost.coll_park_per_group = 2;
  cfg.cluster.cost.coll_op_timeout = Time::ms(2);
  World w{cfg, 3};
  const auto members = members_of(w, {0, 1, 2});
  std::vector<BclErr> errs(3, BclErr::kOk);
  std::vector<Time> returned(3, Time::zero());
  w.run([&](World& world, int rank) -> Task<void> {
    auto& ep = world.endpoint(rank);
    if (rank == 0) co_await world.engine().sleep(kLateRegistration);
    auto port = co_await CollPort::create(ep, kEarlyGid, members,
                                          kEarlyCount * sizeof(double));
    EXPECT_TRUE(port.ok());
    if (!port.ok()) co_return;
    auto src = ep.process().alloc(kEarlyCount * sizeof(double));
    auto dst = ep.process().alloc(kEarlyCount * sizeof(double));
    world.mpi(rank).write_doubles(
        src, std::vector<double>(kEarlyCount, rank + 1.0));
    const auto r = static_cast<std::size_t>(rank);
    errs[r] = co_await port.value->allreduce(src, dst, kEarlyCount,
                                             CollOp::kSum);
    returned[r] = world.engine().now();
  });
  EXPECT_EQ(w.endpoint(0).mcp().recorder().count(bcl::NicEvent::kCollDrop),
            2u);
  for (int m = 0; m < 3; ++m) {
    const auto r = static_cast<std::size_t>(m);
    EXPECT_EQ(errs[r], BclErr::kPeerUnreachable) << "member " << m;
    EXPECT_GE(returned[r], Time::ms(2)) << "member " << m;
    EXPECT_LT(returned[r], Time::us(2500)) << "member " << m;
  }
}

}  // namespace
