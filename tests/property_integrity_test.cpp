// Property tests: message integrity and FIFO ordering must hold for every
// combination of message size, channel type, placement (intra/inter), and
// fabric.  TEST_P sweeps the full cross product.
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "bcl/bcl.hpp"

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

enum class Path { kInterMyrinet, kInterMesh, kIntra };

const char* path_name(Path p) {
  switch (p) {
    case Path::kInterMyrinet:
      return "InterMyrinet";
    case Path::kInterMesh:
      return "InterMesh";
    case Path::kIntra:
      return "Intra";
  }
  return "?";
}

struct IntegrityCase {
  std::size_t bytes;
  ChanKind kind;
  Path path;
};

class IntegritySweep : public ::testing::TestWithParam<IntegrityCase> {};

ClusterConfig config_for(Path p) {
  ClusterConfig cfg;
  cfg.nodes = p == Path::kIntra ? 1 : 2;
  cfg.node.mem_bytes = 16u << 20;
  if (p == Path::kInterMesh) cfg.fabric.kind = hw::FabricKind::kNwrcMesh;
  return cfg;
}

TEST_P(IntegritySweep, DeliversIntactAndComplete) {
  const auto& c = GetParam();
  BclCluster cluster{config_for(c.path)};
  auto& tx = cluster.open_endpoint(0);
  auto& rx = cluster.open_endpoint(c.path == Path::kIntra ? 0 : 1);
  bool verified = false;

  cluster.engine().spawn([](Endpoint& rx, Endpoint& tx, IntegrityCase c,
                            bool& ok) -> Task<void> {
    osk::UserBuffer rbuf =
        rx.process().alloc(std::max<std::size_t>(c.bytes, 1));
    if (c.kind == ChanKind::kNormal) {
      EXPECT_EQ(co_await rx.post_recv(0, rbuf), BclErr::kOk);
    }
    auto go = rx.process().alloc(1);
    (void)co_await rx.send_system(tx.id(), go, 0);
    RecvEvent ev = co_await rx.wait_recv();
    EXPECT_EQ(ev.len, c.bytes);
    EXPECT_EQ(ev.channel.kind, c.kind);
    if (c.kind == ChanKind::kSystem) {
      auto data = co_await rx.copy_out_system(ev);
      EXPECT_EQ(data.size(), c.bytes);
      ok = true;
      for (std::size_t i = 0; i < data.size(); ++i) {
        if (data[i] !=
            static_cast<std::byte>((i * 197 + 5 * 31 + 7) & 0xff)) {
          ok = false;
          break;
        }
      }
    } else {
      ok = c.bytes == 0 || rx.process().check_pattern(rbuf, 5);
    }
  }(rx, tx, c, verified));

  cluster.engine().spawn([](Endpoint& tx, PortId dst, IntegrityCase c)
                             -> Task<void> {
    RecvEvent go = co_await tx.wait_recv();
    (void)co_await tx.copy_out_system(go);
    auto sbuf = tx.process().alloc(std::max<std::size_t>(c.bytes, 1));
    tx.process().fill_pattern(sbuf, 5);
    auto r = co_await tx.send(dst, ChannelRef{c.kind, 0}, sbuf, c.bytes);
    EXPECT_EQ(r.err, BclErr::kOk);
    (void)co_await tx.wait_send();
  }(tx, rx.id(), c));

  cluster.engine().run();
  EXPECT_TRUE(verified) << c.bytes << "B " << path_name(c.path);
}

std::vector<IntegrityCase> integrity_cases() {
  std::vector<IntegrityCase> out;
  for (const Path p : {Path::kInterMyrinet, Path::kInterMesh, Path::kIntra}) {
    // System channel: up to one pool slot.
    for (const std::size_t n : {0ul, 1ul, 63ul, 1024ul, 4096ul}) {
      out.push_back({n, ChanKind::kSystem, p});
    }
    // Normal channel: including multi-fragment and page-unaligned sizes.
    for (const std::size_t n :
         {1ul, 4096ul, 4097ul, 16384ul, 65537ul, 131072ul}) {
      out.push_back({n, ChanKind::kNormal, p});
    }
  }
  return out;
}

std::string integrity_name(
    const ::testing::TestParamInfo<IntegrityCase>& info) {
  const auto& c = info.param;
  return std::string(path_name(c.path)) +
         (c.kind == ChanKind::kSystem ? "Sys" : "Normal") +
         std::to_string(c.bytes) + "B";
}

INSTANTIATE_TEST_SUITE_P(AllPaths, IntegritySweep,
                         ::testing::ValuesIn(integrity_cases()),
                         integrity_name);

// ---------------------------------------------------------------------------
// FIFO ordering per (source, destination) across sizes and fabrics.
// ---------------------------------------------------------------------------

class OrderingSweep
    : public ::testing::TestWithParam<std::tuple<Path, int>> {};

TEST_P(OrderingSweep, SystemChannelPreservesSendOrder) {
  const auto [path, nmsgs] = GetParam();
  BclCluster cluster{config_for(path)};
  auto& tx = cluster.open_endpoint(0);
  auto& rx = cluster.open_endpoint(path == Path::kIntra ? 0 : 1);
  std::vector<unsigned> got;

  cluster.engine().spawn([](Endpoint& tx, PortId dst, int n) -> Task<void> {
    auto buf = tx.process().alloc(8);
    for (int i = 0; i < n; ++i) {
      const std::byte b[1] = {std::byte{static_cast<unsigned char>(i)}};
      tx.process().poke(buf, 0, b);
      auto r = co_await tx.send_system(dst, buf, 8);
      EXPECT_EQ(r.err, BclErr::kOk);
      (void)co_await tx.wait_send();
    }
  }(tx, rx.id(), nmsgs));
  cluster.engine().spawn([](Endpoint& rx, int n,
                            std::vector<unsigned>& got) -> Task<void> {
    for (int i = 0; i < n; ++i) {
      RecvEvent ev = co_await rx.wait_recv();
      auto data = co_await rx.copy_out_system(ev);
      got.push_back(static_cast<unsigned>(data.at(0)));
    }
  }(rx, nmsgs, got));
  cluster.engine().run();

  EXPECT_EQ(got.size(), static_cast<std::size_t>(nmsgs));
  for (int i = 0; i < nmsgs; ++i) {
    EXPECT_EQ(got[static_cast<std::size_t>(i)], static_cast<unsigned>(i));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Paths, OrderingSweep,
    ::testing::Combine(::testing::Values(Path::kInterMyrinet,
                                         Path::kInterMesh, Path::kIntra),
                       ::testing::Values(8, 32)),
    [](const ::testing::TestParamInfo<std::tuple<Path, int>>& info) {
      return std::string(path_name(std::get<0>(info.param))) +
             std::to_string(std::get<1>(info.param)) + "msgs";
    });

// ---------------------------------------------------------------------------
// Conservation: across a random cross-traffic run, every accepted message
// is either delivered or counted in exactly one drop bucket.
// ---------------------------------------------------------------------------

class ConservationSweep : public ::testing::TestWithParam<int> {};

TEST_P(ConservationSweep, SentEqualsDeliveredPlusDropped) {
  const int pool_slots = GetParam();
  ClusterConfig cfg;
  cfg.nodes = 3;
  cfg.node.mem_bytes = 16u << 20;
  cfg.cost.sys_slots = pool_slots;
  // Conservation of the paper's drop-on-overflow accounting: receivers
  // stop draining, so with flow control on the senders would (correctly)
  // park on credits forever instead of dropping.
  cfg.cost.flow_control = false;
  BclCluster cluster{cfg};
  std::vector<Endpoint*> eps;
  for (std::uint32_t n = 0; n < 3; ++n) {
    eps.push_back(&cluster.open_endpoint(n));
  }
  constexpr int kPerSender = 30;
  // Each endpoint sends to the next; receivers only drain half the time,
  // so pool exhaustion is possible with small pools.
  for (int i = 0; i < 3; ++i) {
    cluster.engine().spawn([](Endpoint& ep, PortId dst) -> Task<void> {
      auto buf = ep.process().alloc(128);
      for (int k = 0; k < kPerSender; ++k) {
        auto r = co_await ep.send_system(dst, buf, 128);
        EXPECT_EQ(r.err, BclErr::kOk);
        (void)co_await ep.wait_send();
      }
    }(*eps[i], eps[(i + 1) % 3]->id()));
    cluster.engine().spawn_daemon([](Endpoint& ep) -> Task<void> {
      for (int k = 0; k < kPerSender / 2; ++k) {
        RecvEvent ev = co_await ep.wait_recv();
        (void)co_await ep.copy_out_system(ev);
      }
    }(*eps[i]));
  }
  cluster.engine().run();
  for (int i = 0; i < 3; ++i) {
    const auto& port = eps[i]->port();
    EXPECT_EQ(port.messages_received() + port.sys_drops(),
              static_cast<std::uint64_t>(kPerSender))
        << "endpoint " << i << " pool " << pool_slots;
  }
}

INSTANTIATE_TEST_SUITE_P(PoolSizes, ConservationSweep,
                         ::testing::Values(2, 8, 64),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "pool" + std::to_string(info.param);
                         });

}  // namespace
