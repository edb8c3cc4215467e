// The collective engine's watchdog: one deadline FIFO and one daemon per
// NIC.  Operations that complete leave no timers behind, and an operation
// that never completes fails its group exactly coll_op_timeout after its
// watchdog was armed: at its post, or, for a broadcast fragment held for a
// slow host, when host_done releases it.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "bcl/coll/engine.hpp"
#include "bcl/coll/port.hpp"
#include "cluster/cluster.hpp"

namespace {

using bcl::BclErr;
using bcl::NicEvent;
using bcl::coll::CollOp;
using bcl::coll::CollPort;
using cluster::World;
using cluster::WorldConfig;
using sim::Task;
using sim::Time;

constexpr std::uint16_t kGid = 57;
constexpr std::size_t kBufBytes = 64 * 1024;
// Past this simulated time a probe gives up, so a broken engine fails the
// test instead of polling forever.
constexpr Time kProbeDeadline = Time::ms(50);

WorldConfig world_cfg(int nodes, bool mesh) {
  WorldConfig cfg;
  cfg.cluster.nodes = static_cast<std::uint32_t>(nodes);
  cfg.cluster.node.mem_bytes = 16u << 20;
  if (mesh) cfg.cluster.fabric.kind = hw::FabricKind::kNwrcMesh;
  return cfg;
}

std::vector<bcl::PortId> members_of(World& w) {
  std::vector<bcl::PortId> members;
  for (int m = 0; m < w.nprocs(); ++m) members.push_back(w.endpoint(m).id());
  return members;
}

bcl::Mcp& mcp(World& w, int node) { return w.cluster().node(node).mcp(); }

// The collective expiries node `node`'s flight ring kept.
std::vector<bcl::FlightEvent> expiries(World& w, int node) {
  std::vector<bcl::FlightEvent> out;
  for (const auto& e : mcp(w, node).recorder().snapshot()) {
    if (e.kind == NicEvent::kCollTimeout) out.push_back(e);
  }
  return out;
}

// 100 allreduces on an 8-node mesh, all inside one coll_op_timeout.  Once
// the last has completed everywhere and the protocol's own tails (acks,
// RTO timers) have drained, the watchdog's wake-ups are all the engine
// still holds: at most one per NIC, where one per member per operation
// (800) used to wait out the timeout.
TEST(CollWatchdog, CompletedOperationsLeaveNoTimers) {
  constexpr int kNodes = 8;
  constexpr int kOps = 100;
  constexpr Time kTailDrain = Time::ms(5);
  World w{world_cfg(kNodes, /*mesh=*/true), kNodes};
  const auto members = members_of(w);
  int finished = 0;
  Time last_done = Time::zero();
  std::optional<std::size_t> left;
  w.engine().spawn([](sim::Engine& eng, const int& finished,
                      std::optional<std::size_t>& left) -> Task<void> {
    while (finished < kNodes) {
      if (eng.now() > kProbeDeadline) co_return;
      co_await eng.sleep(Time::us(10));
    }
    co_await eng.sleep(kTailDrain);
    left = eng.pending_events();
  }(w.engine(), finished, left));
  w.run([&](World& world, int m) -> Task<void> {
    auto& ep = world.endpoint(m);
    auto port = co_await CollPort::create(ep, kGid, members, kBufBytes);
    EXPECT_TRUE(port.ok()) << "member " << m;
    if (!port.ok()) co_return;
    auto src = ep.process().alloc(sizeof(double));
    auto dst = ep.process().alloc(sizeof(double));
    for (int i = 0; i < kOps; ++i) {
      EXPECT_EQ(co_await port.value->allreduce(src, dst, 1, CollOp::kSum),
                BclErr::kOk)
          << "member " << m << " op " << i;
    }
    ++finished;
    if (world.engine().now() > last_done) last_done = world.engine().now();
  });
  ASSERT_EQ(finished, kNodes);
  // The count is taken before any deadline could have passed.
  ASSERT_LT(last_done + kTailDrain,
            w.cluster().config().cost.coll_op_timeout);
  ASSERT_TRUE(left.has_value());
  EXPECT_LE(*left, static_cast<std::size_t>(kNodes));
  for (int m = 0; m < kNodes; ++m) {
    EXPECT_EQ(mcp(w, m).coll().pending_ops(), 0u) << "member " << m;
    EXPECT_EQ(mcp(w, m).recorder().count(NicEvent::kCollTimeout), 0u)
        << "member " << m;
  }
}

// Member 1 never joins member 0's barrier: member 0's operation expires
// exactly coll_op_timeout after its post armed the watchdog, and the
// group fails on both members.
TEST(CollWatchdog, UnfinishedBarrierExpiresOneTimeoutAfterItsPost) {
  constexpr Time kTimeout = Time::ms(2);
  WorldConfig cfg = world_cfg(2, /*mesh=*/false);
  cfg.cluster.cost.coll_op_timeout = kTimeout;
  World w{cfg, 2};
  const auto members = members_of(w);
  std::vector<std::optional<BclErr>> result(2);
  w.run([&](World& world, int m) -> Task<void> {
    auto port = co_await CollPort::create(world.endpoint(m), kGid, members,
                                          kBufBytes);
    EXPECT_TRUE(port.ok()) << "member " << m;
    if (!port.ok()) co_return;
    if (m == 1) {
      co_await world.engine().sleep(kTimeout * 2.0);  // registered, absent
      co_return;
    }
    result[0] = co_await port.value->barrier();
  });
  std::optional<Time> posted;
  for (const auto& e : mcp(w, 0).recorder().snapshot()) {
    if (e.kind == NicEvent::kCollStart) posted = e.t;
  }
  ASSERT_TRUE(posted.has_value());
  const auto fired = expiries(w, 0);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].t, *posted + kTimeout);
  EXPECT_EQ(fired[0].msg_id, 1u);  // the barrier's sequence number
  EXPECT_EQ(fired[0].aux, kGid);
  EXPECT_EQ(result[0], BclErr::kPeerUnreachable);
  EXPECT_TRUE(expiries(w, 1).empty());  // told by member 0's kFail
  EXPECT_EQ(mcp(w, 1).recorder().count(NicEvent::kGroupFailed), 1u);
}

// A broadcast fragment that reaches a member before its host has read the
// previous broadcast waits in SRAM, and its first deadline passes without
// an expiry: that wait is the host's, not the network's.  host_done
// releases it and re-arms the watchdog.  The root died after the first
// fragments, so the operation expires exactly coll_op_timeout after that
// re-arm.
TEST(CollWatchdog, HeldBroadcastExpiresOneTimeoutAfterHostDone) {
  constexpr Time kTimeout = Time::ms(2);
  // Well past the held fragment's first deadline.
  constexpr Time kHostBack = Time::ms(5);
  constexpr std::size_t kLen = 60000;  // 15 fragments
  WorldConfig cfg = world_cfg(2, /*mesh=*/false);
  cfg.cluster.cost.coll_op_timeout = kTimeout;
  World w{cfg, 2};
  const auto members = members_of(w);
  bool second_posted = false;
  std::optional<Time> crashed_at;
  std::optional<Time> released_at;
  std::vector<std::optional<BclErr>> second(2);
  // Member 0 dies once member 1 holds the second broadcast's first
  // fragment.
  w.engine().spawn([](World& w, const bool& second_posted,
                      std::optional<Time>& crashed_at) -> Task<void> {
    while (!second_posted || mcp(w, 1).coll().pending_ops() == 0) {
      if (w.engine().now() > kProbeDeadline) co_return;
      co_await w.engine().sleep(Time::ns(100));
    }
    crashed_at = w.engine().now();
    mcp(w, 0).crash();
  }(w, second_posted, crashed_at));
  w.run([&](World& world, int m) -> Task<void> {
    auto& ep = world.endpoint(m);
    auto port = co_await CollPort::create(ep, kGid, members, kBufBytes);
    EXPECT_TRUE(port.ok()) << "member " << m;
    if (!port.ok()) co_return;
    auto buf = ep.process().alloc(kLen);
    if (m == 0) {
      // A zero-byte broadcast first: member 1's NIC completes it at once
      // but holds the next one until its host has seen this one.
      EXPECT_EQ(co_await port.value->bcast(buf, 0, 0), BclErr::kOk);
      co_await world.engine().sleep(Time::us(200));
      second_posted = true;
      second[0] = co_await port.value->bcast(buf, kLen, 0);
      co_return;
    }
    co_await world.engine().sleep_until(kHostBack);
    EXPECT_EQ(co_await port.value->bcast(buf, 0, 0), BclErr::kOk);
    // A zero-byte result has nothing to copy out, so the host reports it
    // done as the next operation begins: host_done runs now.
    released_at = world.engine().now();
    second[1] = co_await port.value->bcast(buf, kLen, 0);
  });
  ASSERT_TRUE(crashed_at.has_value());
  ASSERT_TRUE(released_at.has_value());
  ASSERT_GT(*released_at, *crashed_at + kTimeout);
  const auto fired = expiries(w, 1);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].t, *released_at + kTimeout);
  EXPECT_EQ(fired[0].msg_id, 2u);
  EXPECT_EQ(second[0], BclErr::kPeerRestarted);
  EXPECT_EQ(second[1], BclErr::kPeerUnreachable);
  EXPECT_EQ(mcp(w, 1).coll().pending_ops(), 0u);
}

}  // namespace
