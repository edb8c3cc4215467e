// Parameterized sweeps of every mini-MPI collective over rank counts
// (including non-powers-of-two and multi-rank-per-node placements), roots,
// and element counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <memory>
#include <random>
#include <tuple>
#include <vector>

#include "bcl/coll/engine.hpp"
#include "bcl/coll/port.hpp"
#include "bcl/driver.hpp"
#include "cluster/cluster.hpp"

namespace {

using cluster::World;
using cluster::WorldConfig;
using minimpi::Mpi;
using sim::Task;

WorldConfig world_cfg(std::uint32_t nodes) {
  WorldConfig cfg;
  cfg.cluster.nodes = nodes;
  cfg.cluster.node.mem_bytes = 16u << 20;
  return cfg;
}

// ---------------------------------------------------------------- broadcast

class BcastSweep
    : public ::testing::TestWithParam<std::tuple<int, int, std::size_t>> {};

TEST_P(BcastSweep, AllRanksReceiveRootData) {
  const auto [nprocs, root, bytes] = GetParam();
  World w{world_cfg((nprocs + 1) / 2), nprocs};
  w.run([root = root, bytes = bytes](World& world, int rank) -> Task<void> {
    auto& me = world.mpi(rank);
    auto buf = me.process().alloc(bytes);
    if (me.rank() == root) me.process().fill_pattern(buf, 99);
    co_await me.bcast(buf, bytes, root);
    EXPECT_TRUE(me.process().check_pattern(buf, 99)) << "rank " << rank;
  });
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BcastSweep,
    ::testing::Combine(::testing::Values(2, 3, 5, 8),
                       ::testing::Values(0, 1),
                       ::testing::Values(std::size_t{16},
                                         std::size_t{20000})),
    [](const auto& info) {
      return "n" + std::to_string(std::get<0>(info.param)) + "root" +
             std::to_string(std::get<1>(info.param)) + "b" +
             std::to_string(std::get<2>(info.param));
    });

// ------------------------------------------------------------------ reduce

class ReduceSweep
    : public ::testing::TestWithParam<std::tuple<int, int, std::size_t>> {};

TEST_P(ReduceSweep, RootHoldsTheSum) {
  const auto [nprocs, root, count] = GetParam();
  World w{world_cfg((nprocs + 1) / 2), nprocs};
  w.run([=](World& world, int rank) -> Task<void> {
    auto& me = world.mpi(rank);
    auto sbuf = me.process().alloc(count * sizeof(double));
    auto rbuf = me.process().alloc(count * sizeof(double));
    std::vector<double> mine(count);
    for (std::size_t i = 0; i < count; ++i) {
      mine[i] = static_cast<double>(i) * (rank + 1);
    }
    me.write_doubles(sbuf, mine);
    co_await me.reduce(sbuf, rbuf, count, root);
    if (rank == root) {
      const int n = me.size();
      const double rank_sum = n * (n + 1) / 2.0;  // sum of (rank+1)
      const auto got = me.read_doubles(rbuf, count);
      for (std::size_t i = 0; i < count; ++i) {
        EXPECT_DOUBLE_EQ(got[i], static_cast<double>(i) * rank_sum);
      }
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ReduceSweep,
    ::testing::Combine(::testing::Values(2, 3, 4, 7),
                       ::testing::Values(0, 2),
                       ::testing::Values(std::size_t{1}, std::size_t{333})),
    [](const auto& info) {
      return "n" + std::to_string(std::get<0>(info.param)) + "root" +
             std::to_string(std::get<1>(info.param)) + "c" +
             std::to_string(std::get<2>(info.param));
    });

// --------------------------------------------------------------- allreduce

class AllreduceSweep : public ::testing::TestWithParam<int> {};

TEST_P(AllreduceSweep, EveryRankHoldsTheSum) {
  const int nprocs = GetParam();
  World w{world_cfg((nprocs + 1) / 2), nprocs};
  w.run([](World& world, int rank) -> Task<void> {
    auto& me = world.mpi(rank);
    constexpr std::size_t kCount = 50;
    auto sbuf = me.process().alloc(kCount * sizeof(double));
    auto rbuf = me.process().alloc(kCount * sizeof(double));
    me.write_doubles(sbuf,
                     std::vector<double>(kCount, rank + 0.5));
    co_await me.allreduce(sbuf, rbuf, kCount);
    const int n = me.size();
    const double want = n * (n - 1) / 2.0 + 0.5 * n;
    for (const double v : me.read_doubles(rbuf, kCount)) {
      EXPECT_DOUBLE_EQ(v, want);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Sizes, AllreduceSweep,
                         ::testing::Values(2, 3, 5, 6, 8),
                         [](const auto& info) {
                           return "n" + std::to_string(info.param);
                         });

// ------------------------------------------------------------ gather/scatter

class GatherScatterSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(GatherScatterSweep, ScatterThenGatherIsIdentity) {
  const auto [nprocs, root] = GetParam();
  World w{world_cfg((nprocs + 1) / 2), nprocs};
  w.run([=](World& world, int rank) -> Task<void> {
    auto& me = world.mpi(rank);
    constexpr std::size_t kBlock = 300;
    const int n = me.size();
    osk::UserBuffer all_in{}, all_out{};
    if (rank == root) {
      all_in = me.process().alloc(kBlock * n);
      all_out = me.process().alloc(kBlock * n);
      me.process().fill_pattern(all_in, 7);
    }
    auto block = me.process().alloc(kBlock);
    co_await me.scatter(all_in, kBlock, block, root);
    co_await me.gather(block, kBlock, all_out, root);
    if (rank == root) {
      std::vector<std::byte> in(kBlock * n), out(kBlock * n);
      me.process().peek(all_in, 0, in);
      me.process().peek(all_out, 0, out);
      EXPECT_EQ(in, out);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GatherScatterSweep,
    ::testing::Combine(::testing::Values(2, 4, 6), ::testing::Values(0, 1)),
    [](const auto& info) {
      return "n" + std::to_string(std::get<0>(info.param)) + "root" +
             std::to_string(std::get<1>(info.param));
    });

// ----------------------------------------------------------------- alltoall

class AlltoallSweep : public ::testing::TestWithParam<int> {};

TEST_P(AlltoallSweep, IsATranspose) {
  const int nprocs = GetParam();
  World w{world_cfg((nprocs + 1) / 2), nprocs};
  w.run([](World& world, int rank) -> Task<void> {
    auto& me = world.mpi(rank);
    const int n = me.size();
    constexpr std::size_t kBlock = sizeof(double);
    auto sbuf = me.process().alloc(kBlock * n);
    auto rbuf = me.process().alloc(kBlock * n);
    std::vector<double> mine(n);
    for (int r = 0; r < n; ++r) mine[r] = rank * 100.0 + r;
    me.write_doubles(sbuf, mine);
    co_await me.alltoall(sbuf, kBlock, rbuf);
    const auto got = me.read_doubles(rbuf, n);
    for (int r = 0; r < n; ++r) {
      EXPECT_DOUBLE_EQ(got[r], r * 100.0 + rank);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Sizes, AlltoallSweep, ::testing::Values(2, 3, 5, 8),
                         [](const auto& info) {
                           return "n" + std::to_string(info.param);
                         });

// ------------------------------------------------------------------ barrier

class BarrierSweep : public ::testing::TestWithParam<int> {};

TEST_P(BarrierSweep, NobodyLeavesBeforeTheLastArrives) {
  const int nprocs = GetParam();
  World w{world_cfg((nprocs + 1) / 2), nprocs};
  std::vector<sim::Time> leave(nprocs);
  const double last_arrival_us = 7.0 * nprocs;
  w.run([&leave, nprocs](World& world, int rank) -> Task<void> {
    auto& me = world.mpi(rank);
    co_await me.process().cpu().busy(sim::Time::us(7.0 * (rank + 1)));
    co_await me.barrier();
    leave[static_cast<std::size_t>(rank)] = world.engine().now();
    (void)nprocs;
  });
  for (int r = 0; r < nprocs; ++r) {
    EXPECT_GE(leave[static_cast<std::size_t>(r)],
              sim::Time::us(last_arrival_us))
        << "rank " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, BarrierSweep, ::testing::Values(2, 3, 5, 8),
                         [](const auto& info) {
                           return "n" + std::to_string(info.param);
                         });

// -------------------------------------------- NIC vs host cross-validation
//
// The NIC collective engine must be indistinguishable from the host-level
// algorithms except in timing: over randomized shapes, roots, ops, and
// integer-valued payloads (exactly representable, so the combine order
// cannot perturb the result), both paths must produce byte-identical data.

struct CollOutputs {
  std::vector<std::vector<std::byte>> bcast;      // per rank
  std::vector<std::byte> reduce_at_root;
  std::vector<std::vector<std::byte>> allreduce;  // per rank
  std::uint64_t nic_posts = 0;  // collective posts seen by the NIC engines
};

CollOutputs run_trial(bool nic, int nprocs, std::uint32_t nodes,
                      std::size_t count, int root, Mpi::Op op,
                      const std::vector<std::vector<double>>& inputs,
                      const std::vector<double>& bcast_payload) {
  WorldConfig cfg = world_cfg(nodes);
  cfg.mpi.nic_collectives = nic;
  World w{cfg, nprocs};
  const std::size_t bytes = count * sizeof(double);
  CollOutputs out;
  out.bcast.resize(static_cast<std::size_t>(nprocs));
  out.allreduce.resize(static_cast<std::size_t>(nprocs));
  w.run([&](World& world, int rank) -> Task<void> {
    auto& me = world.mpi(rank);
    auto sbuf = me.process().alloc(std::max<std::size_t>(bytes, 8));
    auto rbuf = me.process().alloc(std::max<std::size_t>(bytes, 8));
    auto bbuf = me.process().alloc(std::max<std::size_t>(bytes, 8));
    co_await me.barrier();
    if (rank == root) me.write_doubles(bbuf, bcast_payload);
    co_await me.bcast(bbuf, bytes, root);
    out.bcast[static_cast<std::size_t>(rank)].resize(bytes);
    me.process().peek(bbuf, 0, out.bcast[static_cast<std::size_t>(rank)]);
    me.write_doubles(sbuf, inputs[static_cast<std::size_t>(rank)]);
    co_await me.reduce(sbuf, rbuf, count, root, op);
    if (rank == root) {
      out.reduce_at_root.resize(bytes);
      me.process().peek(rbuf, 0, out.reduce_at_root);
    }
    co_await me.allreduce(sbuf, rbuf, count, op);
    out.allreduce[static_cast<std::size_t>(rank)].resize(bytes);
    me.process().peek(rbuf, 0,
                      out.allreduce[static_cast<std::size_t>(rank)]);
  });
  for (int r = 0; r < nprocs; ++r) {
    out.nic_posts +=
        w.endpoint(r).mcp().recorder().count(bcl::NicEvent::kCollPost);
  }
  return out;
}

class NicHostCrossCheck : public ::testing::TestWithParam<int> {};

TEST_P(NicHostCrossCheck, ByteIdenticalRandomizedShapes) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()) * 7919u + 13u);
  std::uniform_int_distribution<int> nprocs_d(2, 9);
  std::uniform_int_distribution<std::size_t> count_d(1, 300);
  std::uniform_int_distribution<int> op_d(0, 3);
  std::uniform_int_distribution<int> val_d(-3, 3);
  for (int trial = 0; trial < 3; ++trial) {
    const int nprocs = nprocs_d(rng);
    std::uniform_int_distribution<std::uint32_t> nodes_d(
        2, static_cast<std::uint32_t>(nprocs));
    const std::uint32_t nodes = nodes_d(rng);
    const std::size_t count = count_d(rng);
    const int root = std::uniform_int_distribution<int>(0, nprocs - 1)(rng);
    const auto op = static_cast<Mpi::Op>(op_d(rng));
    // Small non-zero integers: exact under every op, including products.
    std::vector<std::vector<double>> inputs(
        static_cast<std::size_t>(nprocs));
    for (auto& v : inputs) {
      v.resize(count);
      for (auto& x : v) {
        int raw = val_d(rng);
        if (raw == 0) raw = 1;
        x = static_cast<double>(raw);
      }
    }
    std::vector<double> payload(count);
    for (auto& x : payload) x = static_cast<double>(val_d(rng));

    const auto nic = run_trial(true, nprocs, nodes, count, root, op, inputs,
                               payload);
    const auto host = run_trial(false, nprocs, nodes, count, root, op,
                                inputs, payload);
    SCOPED_TRACE("trial " + std::to_string(trial) + " n=" +
                 std::to_string(nprocs) + " nodes=" + std::to_string(nodes) +
                 " count=" + std::to_string(count) + " root=" +
                 std::to_string(root) + " op=" +
                 std::to_string(static_cast<int>(op)));
    // The offloaded run really ran on the NICs; the control run never did.
    EXPECT_GT(nic.nic_posts, 0u);
    EXPECT_EQ(host.nic_posts, 0u);
    EXPECT_EQ(nic.reduce_at_root, host.reduce_at_root);
    for (int r = 0; r < nprocs; ++r) {
      EXPECT_EQ(nic.bcast[static_cast<std::size_t>(r)],
                host.bcast[static_cast<std::size_t>(r)])
          << "bcast rank " << r;
      EXPECT_EQ(nic.allreduce[static_cast<std::size_t>(r)],
                host.allreduce[static_cast<std::size_t>(r)])
          << "allreduce rank " << r;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NicHostCrossCheck,
                         ::testing::Values(1, 2, 3, 4),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

// --------------------------------------------- multi-group event demux
//
// Several groups share one port (split/dup communicators reuse the
// endpoint), and their operation sequence numbers collide (each group
// counts from 1).  Completion events must reach the CollPort of the group
// they belong to even when members process the groups in different orders.

TEST(CollEngineGroups, TwoGroupsOnOnePortDemuxEvents) {
  using bcl::coll::CollPort;
  constexpr std::uint16_t kG1 = 11;
  constexpr std::uint16_t kG2 = 22;
  constexpr std::size_t kLen = 512;
  World w{world_cfg(2), 2};
  const std::vector<bcl::PortId> members{w.endpoint(0).id(),
                                         w.endpoint(1).id()};
  w.run([&members](World& world, int rank) -> Task<void> {
    auto& ep = world.endpoint(rank);
    auto g1 = co_await CollPort::create(ep, kG1, members, 4096);
    auto g2 = co_await CollPort::create(ep, kG2, members, 4096);
    EXPECT_TRUE(g1.ok());
    EXPECT_TRUE(g2.ok());
    if (!g1.ok() || !g2.ok()) co_return;
    auto b1 = ep.process().alloc(kLen);
    auto b2 = ep.process().alloc(kLen);
    if (rank == 0) {
      // Root broadcasts on group 1 first, then group 2; both are seq 1
      // within their group.
      ep.process().fill_pattern(b1, 1);
      ep.process().fill_pattern(b2, 2);
      EXPECT_EQ(co_await g1.value->bcast(b1, kLen, 0), bcl::BclErr::kOk);
      EXPECT_EQ(co_await g2.value->bcast(b2, kLen, 0), bcl::BclErr::kOk);
    } else {
      // The receiver polls the groups in the OPPOSITE order: group 1's
      // completion lands on the port while we wait for group 2's.
      EXPECT_EQ(co_await g2.value->bcast(b2, kLen, 0), bcl::BclErr::kOk);
      EXPECT_EQ(co_await g1.value->bcast(b1, kLen, 0), bcl::BclErr::kOk);
      EXPECT_TRUE(ep.process().check_pattern(b1, 1));
      EXPECT_TRUE(ep.process().check_pattern(b2, 2));
    }
    ep.process().free(b1);
    ep.process().free(b2);
  });
}

// On the mesh the trees follow the Hilbert curve and re-root by rotating
// it.  With member order unrelated to node order, every root's broadcast
// must reach every member and every root must hold the exact reduction.
TEST(CollEngineGroups, MeshCurveTreesServeEveryRoot) {
  using bcl::coll::CollPort;
  constexpr std::uint16_t kGid = 44;
  constexpr int kNodes = 9;           // 3x3 mesh
  constexpr std::size_t kLen = 6000;  // two fragments
  constexpr std::size_t kCount = 300;
  WorldConfig cfg = world_cfg(kNodes);
  cfg.cluster.fabric.kind = hw::FabricKind::kNwrcMesh;
  World w{cfg, kNodes};
  const std::vector<int> node_of{4, 0, 8, 2, 6, 1, 7, 3, 5};  // by member
  std::vector<bcl::PortId> members;
  for (const int node : node_of) members.push_back(w.endpoint(node).id());
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
    std::vector<double> mine(kCount);
    for (std::size_t j = 0; j < kCount; ++j) {
      mine[j] = static_cast<double>((me + 1) * (j + 1));
    }
    mpi.write_doubles(src, mine);
    for (int root = 0; root < kNodes; ++root) {
      const auto seed = static_cast<unsigned>(50 + root);
      if (me == root) ep.process().fill_pattern(buf, seed);
      EXPECT_EQ(co_await port.value->bcast(buf, kLen, root),
                bcl::BclErr::kOk);
      EXPECT_TRUE(ep.process().check_pattern(buf, seed))
          << "member " << me << " root " << root;
      EXPECT_EQ(co_await port.value->reduce(src, dst, kCount,
                                            bcl::coll::CollOp::kSum, root),
                bcl::BclErr::kOk);
      if (me == root) {
        // Members contribute (m + 1) * (j + 1); 1 + 2 + ... + 9 = 45.
        std::vector<double> want(kCount);
        for (std::size_t j = 0; j < kCount; ++j) {
          want[j] = 45.0 * static_cast<double>(j + 1);
        }
        EXPECT_EQ(mpi.read_doubles(dst, kCount), want) << "root " << root;
        ++checked;
      }
    }
  });
  EXPECT_EQ(checked, kNodes);
}

// A member whose host arrives late must still read each broadcast's own
// payload: the root's next broadcast may not overwrite a result the host
// has yet to read, and waiting on a slow host is no collective timeout.
TEST(CollEngineGroups, LateReceiverReadsEveryBroadcast) {
  using bcl::coll::CollPort;
  constexpr std::uint16_t kGid = 66;
  constexpr std::size_t kLen = 2048;
  World w{world_cfg(3), 3};
  std::vector<bcl::PortId> members;
  for (int r = 0; r < 3; ++r) members.push_back(w.endpoint(r).id());
  const sim::Time late = sim::Time::ms(40);
  ASSERT_GT(late, w.cluster().config().cost.coll_op_timeout);
  w.run([&](World& world, int rank) -> Task<void> {
    auto& ep = world.endpoint(rank);
    auto port = co_await CollPort::create(ep, kGid, members, 4096);
    EXPECT_TRUE(port.ok());
    if (!port.ok()) co_return;
    auto buf = ep.process().alloc(kLen);
    // Both of the root's broadcasts reach rank 2 while its host is away.
    if (rank == 2) co_await world.engine().sleep(late);
    for (unsigned round = 1; round <= 2; ++round) {
      if (rank == 0) ep.process().fill_pattern(buf, round);
      EXPECT_EQ(co_await port.value->bcast(buf, kLen, 0), bcl::BclErr::kOk)
          << "rank " << rank << " round " << round;
      EXPECT_TRUE(ep.process().check_pattern(buf, round))
          << "rank " << rank << " round " << round;
    }
  });
}

// A collective packet naming a root outside the group is dropped: the
// root indexes the group's curve order.
TEST(CollEngineGroups, PacketWithRootOutsideGroupIsDropped) {
  using bcl::coll::CollPort;
  constexpr std::uint16_t kGid = 55;
  WorldConfig cfg = world_cfg(4);
  cfg.cluster.fabric.kind = hw::FabricKind::kNwrcMesh;
  World w{cfg, 4};
  std::vector<bcl::PortId> members;
  for (int r = 0; r < 4; ++r) members.push_back(w.endpoint(r).id());
  std::vector<std::unique_ptr<CollPort>> ports(4);
  w.run([&](World& world, int rank) -> Task<void> {
    auto port = co_await CollPort::create(world.endpoint(rank), kGid,
                                          members, 4096);
    EXPECT_TRUE(port.ok());
    if (port.ok()) {
      ports[static_cast<std::size_t>(rank)] = std::move(port.value);
    }
  });
  auto& engine = w.cluster().node(1).mcp().coll();
  const auto& events = w.cluster().node(1).mcp().recorder();
  const std::uint64_t drops = events.count(bcl::NicEvent::kCollDrop);
  hw::Packet p;
  p.dst_node = 1;
  p.dst_port = members[1].port;
  p.src_port = members[0].port;
  p.channel = kGid | (std::uint32_t{200} << 16);  // root 200 of 4
  p.op_flags = bcl::coll::coll_op_flags(bcl::coll::CollWire::kData);
  p.msg_id = 1;
  p.frag_count = 1;
  w.engine().spawn(engine.handle_packet(p));
  w.engine().run();
  EXPECT_EQ(events.count(bcl::NicEvent::kCollDrop), drops + 1);
  EXPECT_EQ(engine.pending_ops(), 0u);
}

// A member whose registered result buffer is smaller than the root's
// broadcast payload must observe a failed completion — not hang waiting
// for fragments the engine could never place.
TEST(CollEngineGroups, OversizedBcastFailsSmallMemberInsteadOfHanging) {
  using bcl::coll::CollPort;
  constexpr std::uint16_t kGid = 33;
  constexpr std::size_t kBig = 8192;
  constexpr std::size_t kSmall = 1024;
  World w{world_cfg(2), 2};
  const std::vector<bcl::PortId> members{w.endpoint(0).id(),
                                         w.endpoint(1).id()};
  bool receiver_returned = false;
  w.run([&](World& world, int rank) -> Task<void> {
    auto& ep = world.endpoint(rank);
    const std::size_t mine = rank == 0 ? kBig : kSmall;
    auto port = co_await CollPort::create(ep, kGid, members, mine);
    EXPECT_TRUE(port.ok());
    if (!port.ok()) co_return;
    auto buf = ep.process().alloc(mine);
    if (rank == 0) {
      ep.process().fill_pattern(buf, 9);
      EXPECT_EQ(co_await port.value->bcast(buf, kBig, 0), bcl::BclErr::kOk);
    } else {
      EXPECT_EQ(co_await port.value->bcast(buf, kSmall, 0),
                bcl::BclErr::kTooBig);
      receiver_returned = true;
    }
    ep.process().free(buf);
  });
  EXPECT_TRUE(receiver_returned);
}

// The coll_post trap must reject reduce lengths that are not whole
// doubles: the NIC accumulator is sized in doubles, so a ragged length
// would read past its last element.
TEST(CollEngineGroups, UnalignedReducePostRejected) {
  using bcl::coll::CollPort;
  constexpr std::uint16_t kGid = 44;
  World w{world_cfg(2), 2};
  const std::vector<bcl::PortId> members{w.endpoint(0).id(),
                                         w.endpoint(1).id()};
  w.run([&members](World& world, int rank) -> Task<void> {
    if (rank != 0) co_return;
    auto& ep = world.endpoint(rank);
    auto port = co_await CollPort::create(ep, kGid, members, 4096);
    EXPECT_TRUE(port.ok());
    if (!port.ok()) co_return;
    auto buf = ep.process().alloc(64);
    bcl::CollPostArgs a;
    a.group_id = kGid;
    a.kind = bcl::coll::CollKind::kReduce;
    a.root = 0;
    a.seq = 1;
    a.vaddr = buf.vaddr;
    a.len = 12;  // not a multiple of sizeof(double)
    const auto r =
        co_await ep.driver().ioctl_coll_post(ep.process(), ep.port(), a);
    EXPECT_EQ(r.err, bcl::BclErr::kBadBuffer);
    ep.process().free(buf);
  });
}

// Split communicators share endpoints with the parent: sub-group and
// world-group collectives interleave on the same ports, with the faster
// half racing ahead into world operations while the slower half still
// waits on its own group.  Everything must stay correct (and terminate).
TEST(CollEngineGroups, SplitCommunicatorsShareEndpointsSafely) {
  constexpr int kProcs = 4;
  constexpr std::size_t kCount = 32;
  constexpr std::size_t kBcastBytes = 2048;
  World w{world_cfg(4), kProcs};
  w.run([](World& world, int rank) -> Task<void> {
    auto& mpi = world.mpi(rank);
    auto sub = co_await mpi.split(rank % 2, rank);
    EXPECT_NE(sub, nullptr);
    if (sub == nullptr) co_return;
    auto sbuf = mpi.process().alloc(kCount * sizeof(double));
    auto rbuf = mpi.process().alloc(kCount * sizeof(double));
    auto bbuf = mpi.process().alloc(kBcastBytes);
    for (int iter = 0; iter < 3; ++iter) {
      std::vector<double> v(kCount, static_cast<double>(rank + 1));
      mpi.write_doubles(sbuf, v);
      co_await sub->allreduce(sbuf, rbuf, kCount);
      // {0,2} sums ranks+1 = 1+3; {1,3} sums 2+4.
      const double expect_sub = rank % 2 == 0 ? 4.0 : 6.0;
      for (const double x : mpi.read_doubles(rbuf, kCount)) {
        EXPECT_DOUBLE_EQ(x, expect_sub) << "rank " << rank;
      }
      // World bcast right behind: its completion can reach a port whose
      // sub-communicator group is still mid-operation.
      if (rank == 0) mpi.process().fill_pattern(bbuf, 40 + iter);
      co_await mpi.bcast(bbuf, kBcastBytes, 0);
      EXPECT_TRUE(mpi.process().check_pattern(bbuf, 40 + iter))
          << "rank " << rank;
      co_await mpi.allreduce(sbuf, rbuf, kCount);
      for (const double x : mpi.read_doubles(rbuf, kCount)) {
        EXPECT_DOUBLE_EQ(x, 10.0) << "rank " << rank;  // 1+2+3+4
      }
    }
    mpi.process().free(sbuf);
    mpi.process().free(rbuf);
    mpi.process().free(bbuf);
  });
  std::uint64_t posts = 0;
  for (int r = 0; r < kProcs; ++r) {
    posts += w.endpoint(r).mcp().recorder().count(bcl::NicEvent::kCollPost);
  }
  EXPECT_GT(posts, 0u);  // the offload path really ran
}

}  // namespace
