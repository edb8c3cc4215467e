// Randomized soak: seeded pseudo-random sequences of mixed operations
// (system/normal sends of random sizes, RMA writes and reads, intra- and
// inter-node) where every operation self-verifies its payload.  TEST_P
// sweeps seeds and fabrics; determinism makes any failure exactly
// reproducible from its seed.
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "bcl/bcl.hpp"
#include "sim/random.hpp"

namespace {

using bcl::BclCluster;
using bcl::BclErr;
using bcl::ChanKind;
using bcl::ChannelRef;
using bcl::ClusterConfig;
using bcl::Endpoint;
using bcl::PortId;
using bcl::RecvEvent;
using sim::Task;

constexpr int kOpsPerSeed = 25;

// One operation: the driver tells the receiver what to expect, performs
// it, and the receiver verifies.  Coordination runs over a reserved
// normal channel so it never collides with the operations under test.
enum class OpKind : std::uint8_t { kSys = 0, kNormal, kRmaWrite, kRmaRead };

struct Op {
  OpKind kind;
  std::size_t bytes;
  unsigned seed;
};

Op random_op(sim::Rng& rng) {
  Op op;
  op.kind = static_cast<OpKind>(rng.below(4));
  switch (op.kind) {
    case OpKind::kSys:
      op.bytes = static_cast<std::size_t>(rng.between(0, 4096));
      break;
    case OpKind::kNormal:
      op.bytes = static_cast<std::size_t>(rng.between(1, 60'000));
      break;
    case OpKind::kRmaWrite:
    case OpKind::kRmaRead:
      op.bytes = static_cast<std::size_t>(rng.between(1, 16'000));
      break;
  }
  op.seed = static_cast<unsigned>(rng.below(250));
  return op;
}

Task<void> soak_driver(Endpoint& me, PortId peer, std::uint64_t seed,
                       int& completed) {
  sim::Rng rng{seed};
  auto data = me.process().alloc(64 * 1024);
  auto rma_in = me.process().alloc(16 * 1024);
  auto ctrl = me.process().alloc(16);
  for (int i = 0; i < kOpsPerSeed; ++i) {
    const Op op = random_op(rng);
    // Announce the op (kind, bytes, seed) over the system channel.
    const std::byte hdr[6] = {
        std::byte{static_cast<unsigned char>(op.kind)},
        std::byte{static_cast<unsigned char>(op.bytes & 0xff)},
        std::byte{static_cast<unsigned char>((op.bytes >> 8) & 0xff)},
        std::byte{static_cast<unsigned char>((op.bytes >> 16) & 0xff)},
        std::byte{static_cast<unsigned char>(op.seed)},
        std::byte{0}};
    me.process().poke(ctrl, 0, hdr);
    auto r = co_await me.send_system(peer, ctrl, 6);
    EXPECT_EQ(r.err, BclErr::kOk);
    (void)co_await me.wait_send();
    // Wait for the peer's ready token (it posts buffers / binds windows).
    auto ev = co_await me.wait_recv();
    (void)co_await me.copy_out_system(ev);

    osk::UserBuffer src{data.vaddr, op.bytes, data.owner};
    if (op.bytes > 0) me.process().fill_pattern(src, op.seed);
    switch (op.kind) {
      case OpKind::kSys:
        r = co_await me.send_system(peer, data, op.bytes);
        EXPECT_EQ(r.err, BclErr::kOk);
        (void)co_await me.wait_send();
        break;
      case OpKind::kNormal:
        r = co_await me.send(peer, ChannelRef{ChanKind::kNormal, 2}, data,
                             op.bytes);
        EXPECT_EQ(r.err, BclErr::kOk);
        (void)co_await me.wait_send();
        break;
      case OpKind::kRmaWrite:
        r = co_await me.rma_write(peer, 0, 0, src, op.bytes);
        EXPECT_EQ(r.err, BclErr::kOk);
        (void)co_await me.wait_send();
        // Tell the peer the write landed.
        r = co_await me.send_system(peer, ctrl, 1);
        EXPECT_EQ(r.err, BclErr::kOk);
        (void)co_await me.wait_send();
        break;
      case OpKind::kRmaRead: {
        osk::UserBuffer into{rma_in.vaddr, op.bytes, rma_in.owner};
        r = co_await me.rma_read(peer, 0, 0, 3, into, op.bytes);
        EXPECT_EQ(r.err, BclErr::kOk);
        ev = co_await me.wait_recv();
        EXPECT_EQ(ev.channel.kind, ChanKind::kNormal);
        EXPECT_EQ(ev.len, op.bytes);
        EXPECT_TRUE(me.process().check_pattern(into, op.seed))
            << "rma read bytes " << op.bytes;
        break;
      }
    }
    ++completed;
  }
}

Task<void> soak_peer(Endpoint& me, PortId driver) {
  auto normal_buf = me.process().alloc(64 * 1024);
  auto window = me.process().alloc(16 * 1024);
  auto token = me.process().alloc(1);
  EXPECT_EQ(co_await me.bind_open(0, window), BclErr::kOk);
  for (int i = 0; i < kOpsPerSeed; ++i) {
    auto ev = co_await me.wait_recv();
    auto hdr = co_await me.copy_out_system(ev);
    const auto kind = static_cast<OpKind>(hdr.at(0));
    const std::size_t bytes = static_cast<std::size_t>(hdr.at(1)) |
                              (static_cast<std::size_t>(hdr.at(2)) << 8) |
                              (static_cast<std::size_t>(hdr.at(3)) << 16);
    const unsigned seed = static_cast<unsigned>(hdr.at(4));
    if (kind == OpKind::kNormal) {
      osk::UserBuffer slice{normal_buf.vaddr, bytes, normal_buf.owner};
      EXPECT_EQ(co_await me.post_recv(2, slice), BclErr::kOk);
    }
    if (kind == OpKind::kRmaRead && bytes > 0) {
      // Pre-fill the window with what the driver expects to read back.
      osk::UserBuffer slice{window.vaddr, bytes, window.owner};
      me.process().fill_pattern(slice, seed);
    }
    (void)co_await me.send_system(driver, token, 0);  // ready
    (void)co_await me.wait_send();
    switch (kind) {
      case OpKind::kSys: {
        ev = co_await me.wait_recv();
        EXPECT_EQ(ev.channel.kind, ChanKind::kSystem);
        auto data = co_await me.copy_out_system(ev);
        EXPECT_EQ(data.size(), bytes);
        for (std::size_t b = 0; b < data.size(); ++b) {
          if (data[b] !=
              static_cast<std::byte>((b * 197 + seed * 31 + 7) & 0xff)) {
            ADD_FAILURE() << "sys payload corrupt at " << b;
            break;
          }
        }
        break;
      }
      case OpKind::kNormal: {
        ev = co_await me.wait_recv();
        EXPECT_EQ(ev.channel.kind, ChanKind::kNormal);
        EXPECT_EQ(ev.len, bytes);
        osk::UserBuffer slice{normal_buf.vaddr, bytes, normal_buf.owner};
        EXPECT_TRUE(me.process().check_pattern(slice, seed));
        break;
      }
      case OpKind::kRmaWrite: {
        ev = co_await me.wait_recv();  // the landed notification
        (void)co_await me.copy_out_system(ev);
        osk::UserBuffer slice{window.vaddr, bytes, window.owner};
        EXPECT_TRUE(me.process().check_pattern(slice, seed));
        break;
      }
      case OpKind::kRmaRead:
        break;  // the driver verifies its own read
    }
  }
}

class SoakSweep
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, bool>> {};

TEST_P(SoakSweep, MixedOperationsAllVerify) {
  const auto [seed, mesh] = GetParam();
  ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.node.mem_bytes = 16u << 20;
  if (mesh) cfg.fabric.kind = hw::FabricKind::kNwrcMesh;
  BclCluster c{cfg};
  auto& driver = c.open_endpoint(0);
  auto& peer = c.open_endpoint(1);
  int completed = 0;
  c.engine().spawn(soak_driver(driver, peer.id(), seed, completed));
  c.engine().spawn(soak_peer(peer, driver.id()));
  c.engine().run();
  EXPECT_EQ(completed, kOpsPerSeed);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, SoakSweep,
    ::testing::Combine(::testing::Values(1ull, 2ull, 3ull, 5ull, 8ull,
                                         13ull, 21ull, 34ull),
                       ::testing::Bool()),
    [](const auto& info) {
      return std::string(std::get<1>(info.param) ? "Mesh" : "Myrinet") +
             "Seed" + std::to_string(std::get<0>(info.param));
    });

// Ack coalescing must not change delivery semantics, only ack volume.
class AckCoalesceSweep : public ::testing::TestWithParam<int> {};

TEST_P(AckCoalesceSweep, DeliveryUnchangedFewerAcks) {
  const int every = GetParam();
  ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.node.mem_bytes = 16u << 20;
  cfg.cost.ack_every = every;
  BclCluster c{cfg};
  auto& tx = c.open_endpoint(0);
  auto& rx = c.open_endpoint(1);
  bool verified = false;
  c.engine().spawn([](Endpoint& rx, Endpoint& tx, bool& ok) -> Task<void> {
    auto rbuf = rx.process().alloc(64 * 1024);
    EXPECT_EQ(co_await rx.post_recv(0, rbuf), BclErr::kOk);
    auto go = rx.process().alloc(1);
    (void)co_await rx.send_system(tx.id(), go, 0);
    (void)co_await rx.wait_recv();
    ok = rx.process().check_pattern(rbuf, 19);
  }(rx, tx, verified));
  c.engine().spawn([](Endpoint& tx, PortId dst) -> Task<void> {
    (void)co_await tx.wait_recv();
    auto sbuf = tx.process().alloc(64 * 1024);
    tx.process().fill_pattern(sbuf, 19);
    auto r = co_await tx.send(dst, ChannelRef{ChanKind::kNormal, 0}, sbuf,
                              64 * 1024);
    EXPECT_EQ(r.err, BclErr::kOk);
  }(tx, rx.id()));
  c.engine().run();
  EXPECT_TRUE(verified);
  // Higher coalescing -> at most as many acks as every-packet acking.
  if (every > 1) {
    EXPECT_LT(c.node(1).mcp().recorder().count(bcl::NicEvent::kAckTx), 20u);
  }
}

INSTANTIATE_TEST_SUITE_P(Every, AckCoalesceSweep, ::testing::Values(1, 2, 4),
                         [](const auto& info) {
                           return "every" + std::to_string(info.param);
                         });

}  // namespace
