// An MCP that fail-stops while one of its collective-engine coroutines is
// suspended on a DMA or a LANai charge.  The crash drops every group
// descriptor and pending entry on that NIC, so a coroutine that resumed
// into what it held before the suspension would touch freed memory (the
// sanitize job turns that into a hard failure).  In every case each member
// must still return — kPeerRestarted on the crashed node where its own
// operation was in flight, an error or kOk elsewhere — within
// coll_op_timeout plus kReturnSlack of the crash, and every engine's
// pending table must drain.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
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

constexpr int kNodes = 4;
constexpr std::uint16_t kGid = 41;
constexpr std::size_t kBufBytes = 64 * 1024;
constexpr std::size_t kBcastBytes = 60000;  // 15 fragments
constexpr std::size_t kCount = 7000;        // 14 fragments of doubles

// Past this simulated time a probe gives up, so a broken engine fails the
// test instead of polling forever.
constexpr Time kProbeDeadline = Time::ms(50);
constexpr Time kOpTimeout = Time::ms(2);
// A member returns at most this long after coll_op_timeout has run from
// the crash: the time for the first watchdog's verdict to reach it and for
// its host to see the failure (at most 62 us in these cases).
constexpr Time kReturnSlack = Time::us(250);

WorldConfig crash_cfg(int nodes, bool mesh) {
  WorldConfig cfg;
  cfg.cluster.nodes = static_cast<std::uint32_t>(nodes);
  cfg.cluster.node.mem_bytes = 16u << 20;
  cfg.cluster.cost.coll_op_timeout = kOpTimeout;
  if (mesh) cfg.cluster.fabric.kind = hw::FabricKind::kNwrcMesh;
  return cfg;
}

// One group with a member on every node of a Myrinet cluster (or a mesh).
// `op` is member m's part of the scenario; its result (if it returns one)
// and when it returned are kept per member.
struct Battery {
  explicit Battery(int nodes = kNodes, bool mesh = false)
      : n{nodes},
        w{crash_cfg(nodes, mesh), nodes},
        ports(static_cast<std::size_t>(nodes)),
        result(static_cast<std::size_t>(nodes)),
        returned(static_cast<std::size_t>(nodes), false),
        returned_at(static_cast<std::size_t>(nodes)) {
    for (int m = 0; m < n; ++m) members.push_back(w.endpoint(m).id());
  }

  int n;
  World w;
  std::vector<bcl::PortId> members;
  std::vector<std::unique_ptr<CollPort>> ports;
  std::vector<std::optional<BclErr>> result;
  std::vector<bool> returned;
  std::vector<Time> returned_at;
  std::optional<Time> crashed_at;

  bcl::Mcp& mcp(int m) { return w.cluster().node(m).mcp(); }
  bcl::coll::CollectiveEngine& coll(int m) { return mcp(m).coll(); }

  // Crashes member `victim`'s MCP `delay` after `armed()` first holds.
  void crash_when(int victim, std::function<bool()> armed, Time delay) {
    w.engine().spawn([](sim::Engine& eng, bcl::Mcp& mcp,
                        std::function<bool()> armed, Time delay,
                        std::optional<Time>& crashed_at) -> Task<void> {
      while (!armed()) {
        if (eng.now() > kProbeDeadline) co_return;
        co_await eng.sleep(Time::ns(100));
      }
      co_await eng.sleep(delay);
      crashed_at = eng.now();
      mcp.crash();
    }(w.engine(), mcp(victim), std::move(armed), delay, crashed_at));
  }

  void run(std::function<Task<std::optional<BclErr>>(World&, CollPort&, int)>
               op) {
    w.run([&](World& world, int m) -> Task<void> {
      auto port = co_await CollPort::create(world.endpoint(m), kGid, members,
                                            kBufBytes);
      EXPECT_TRUE(port.ok()) << "member " << m;
      if (!port.ok()) co_return;
      ports[static_cast<std::size_t>(m)] = std::move(port.value);
      result[static_cast<std::size_t>(m)] =
          co_await op(world, *ports[static_cast<std::size_t>(m)], m);
      returned[static_cast<std::size_t>(m)] = true;
      returned_at[static_cast<std::size_t>(m)] = world.engine().now();
    });
  }

  void expect_drained(int crashed, std::optional<BclErr> crashed_err) {
    for (int m = 0; m < n; ++m) {
      const auto i = static_cast<std::size_t>(m);
      EXPECT_TRUE(returned[i]) << "member " << m;
      if (returned[i] && crashed_at) {
        EXPECT_LE(returned_at[i], *crashed_at + kOpTimeout + kReturnSlack)
            << "member " << m;
      }
      EXPECT_EQ(coll(m).pending_ops(), 0u) << "member " << m;
    }
    EXPECT_TRUE(mcp(crashed).crashed());
    EXPECT_EQ(result[static_cast<std::size_t>(crashed)], crashed_err);
  }
};

Task<std::optional<BclErr>> bcast_from_0(World& world, CollPort& port,
                                         int m) {
  auto buf = world.endpoint(m).process().alloc(kBcastBytes);
  if (m == 0) world.endpoint(m).process().fill_pattern(buf, 7);
  co_return co_await port.bcast(buf, kBcastBytes, 0);
}

// 1. The broadcast root dies between two fragment DMAs of its fan-out.
// Late enough that every receiver already holds a pending entry, so each
// one's watchdog fails the group.
TEST(CollCrashMidSuspension, BcastRootBetweenFragmentDmas) {
  Battery b;
  b.crash_when(
      0, [&b] { return b.mcp(0).recorder().count(NicEvent::kCollPost) > 0; },
      Time::us(60));
  b.run(bcast_from_0);
  b.expect_drained(0, BclErr::kPeerRestarted);
  for (int m = 1; m < kNodes; ++m) {
    EXPECT_EQ(b.result[static_cast<std::size_t>(m)], BclErr::kPeerUnreachable)
        << "member " << m;
  }
}

// 1b. The broadcast root dies 8 us after its engine takes the post, before
// some receivers hold a fragment: those have no pending entry, so no
// watchdog of their own.  The member that finds the failure must tell
// them without passing through the dead root.  On a 4-node crossbar and
// a 16-node 4x4 mesh.
TEST(CollCrashMidSuspension, BcastRootBeforeEveryReceiverHoldsAFragment) {
  for (const bool mesh : {false, true}) {
    Battery b{mesh ? 16 : kNodes, mesh};
    b.crash_when(
        0,
        [&b] { return b.mcp(0).recorder().count(NicEvent::kCollPost) > 0; },
        Time::us(8));
    b.run(bcast_from_0);
    SCOPED_TRACE(mesh ? "4x4 mesh" : "crossbar");
    b.expect_drained(0, BclErr::kPeerRestarted);
    for (int m = 1; m < b.n; ++m) {
      EXPECT_EQ(b.result[static_cast<std::size_t>(m)],
                BclErr::kPeerUnreachable)
          << "member " << m;
    }
  }
}

// 2. An allreduce member dies while its contribution DMAs into SRAM.
TEST(CollCrashMidSuspension, AllreduceMemberDuringContributionDma) {
  Battery b;
  b.crash_when(
      1, [&b] { return b.mcp(1).recorder().count(NicEvent::kCollPost) > 0; },
      Time::us(4));
  b.run([](World& world, CollPort& port,
           int m) -> Task<std::optional<BclErr>> {
    auto& proc = world.endpoint(m).process();
    auto src = proc.alloc(kCount * sizeof(double));
    auto dst = proc.alloc(kCount * sizeof(double));
    world.mpi(m).write_doubles(src, std::vector<double>(kCount, m + 1.0));
    co_return co_await port.allreduce(src, dst, kCount, CollOp::kSum);
  });
  b.expect_drained(1, BclErr::kPeerRestarted);
}

// 3. A broadcast receiver dies while its first fragment scatters into its
// result buffer.
TEST(CollCrashMidSuspension, BcastReceiverDuringScatterDma) {
  Battery b;
  b.crash_when(
      1,
      [&b] { return b.mcp(1).recorder().count(NicEvent::kCollRxPacket) > 0; },
      Time::us(2));
  b.run(bcast_from_0);
  b.expect_drained(1, BclErr::kPeerRestarted);
}

// 4. A reduce root dies while the LANai combines its first partial.  The
// root posts first and its children wait until its accumulator is in SRAM,
// so that partial combines at once instead of waiting in the stash.
TEST(CollCrashMidSuspension, ReduceRootDuringCombine) {
  Battery b;
  b.crash_when(
      0,
      [&b] { return b.mcp(0).recorder().count(NicEvent::kCollRxPacket) > 0; },
      Time::us(2));
  b.run([&b](World& world, CollPort& port,
             int m) -> Task<std::optional<BclErr>> {
    auto& proc = world.endpoint(m).process();
    auto src = proc.alloc(kCount * sizeof(double));
    auto dst = proc.alloc(kCount * sizeof(double));
    world.mpi(m).write_doubles(src, std::vector<double>(kCount, m + 1.0));
    while (m != 0 && b.coll(0).sram_bytes() == 0) {
      if (world.engine().now() > kProbeDeadline) co_return std::nullopt;
      co_await world.engine().sleep(Time::us(1));
    }
    co_return co_await port.reduce(src, dst, kCount, CollOp::kSum, 0);
  });
  b.expect_drained(0, BclErr::kPeerRestarted);
}

// 5. Member 3 never joins a barrier, so member 1's watchdog fails the
// group, and member 1's MCP dies while that failure completes its doomed
// barrier.  Member 1 posts first, so its watchdog is the first to expire.
// Its host already holds the group failure for the barrier when the crash
// lands.
TEST(CollCrashMidSuspension, WatchdogGroupFailureOnCrashingMember) {
  Battery b;
  bool crashing = false;
  b.mcp(1).set_diagnosis_hook(
      [&b, &crashing](const std::string&, int, const std::string&) {
        if (!crashing) b.crashed_at = b.w.engine().now();
        crashing = true;
        // Behind the watchdog's own work at this instant: the failure has
        // started completing the barrier when the MCP dies.
        b.w.engine().schedule_fn(b.w.engine().now(),
                                 [&b] { b.mcp(1).crash(); });
      });
  b.run([](World& world, CollPort& port,
           int m) -> Task<std::optional<BclErr>> {
    if (m == 3) co_return std::nullopt;
    if (m != 1) co_await world.engine().sleep(Time::us(50));
    co_return co_await port.barrier();
  });
  EXPECT_TRUE(crashing);
  b.expect_drained(1, BclErr::kPeerUnreachable);
  for (const int m : {0, 2}) {
    EXPECT_EQ(b.result[static_cast<std::size_t>(m)], BclErr::kPeerUnreachable)
        << "member " << m;
  }
}

}  // namespace
