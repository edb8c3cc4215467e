// Tests of the shared-memory intra-node path: integrity, latency/bandwidth
// shape, pipelining, pool exhaustion, and intra-node RMA.
#include <gtest/gtest.h>

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
using sim::Time;

ClusterConfig one_node() {
  ClusterConfig cfg;
  cfg.nodes = 1;
  cfg.node.mem_bytes = 16u << 20;
  return cfg;
}

TEST(BclIntra, SystemChannelIntegrity) {
  BclCluster c{one_node()};
  auto& tx = c.open_endpoint(0);
  auto& rx = c.open_endpoint(0);
  std::vector<std::byte> got;
  c.engine().spawn([](Endpoint& tx, PortId dst) -> Task<void> {
    auto buf = tx.process().alloc(3000);
    tx.process().fill_pattern(buf, 8);
    auto r = co_await tx.send_system(dst, buf, 3000);
    EXPECT_EQ(r.err, BclErr::kOk);
  }(tx, rx.id()));
  c.engine().spawn([](Endpoint& rx, std::vector<std::byte>& out) -> Task<void> {
    RecvEvent ev = co_await rx.wait_recv();
    EXPECT_EQ(ev.src.node, 0u);
    out = co_await rx.copy_out_system(ev);
  }(rx, got));
  c.engine().run();
  EXPECT_EQ(got.size(), 3000u);
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], static_cast<std::byte>((i * 197 + 8 * 31 + 7) & 0xff));
  }
}

TEST(BclIntra, NicNeverTouched) {
  BclCluster c{one_node()};
  auto& tx = c.open_endpoint(0);
  auto& rx = c.open_endpoint(0);
  c.engine().spawn([](Endpoint& tx, PortId dst) -> Task<void> {
    auto buf = tx.process().alloc(100);
    (void)co_await tx.send_system(dst, buf, 100);
  }(tx, rx.id()));
  c.engine().spawn([](Endpoint& rx) -> Task<void> {
    RecvEvent ev = co_await rx.wait_recv();
    (void)co_await rx.copy_out_system(ev);
  }(rx));
  c.engine().run();
  EXPECT_EQ(c.node(0).node().nic().tx_packets(), 0u);
  EXPECT_EQ(c.node(0).kernel().traps(), 0u);  // pure user-level data path
}

TEST(BclIntra, ZeroLengthLatencyNearPaper) {
  // Paper: 2.7 us minimal latency within a node.
  BclCluster c{one_node()};
  auto& tx = c.open_endpoint(0);
  auto& rx = c.open_endpoint(0);
  Time arrival;
  c.engine().spawn([](Endpoint& tx, PortId dst) -> Task<void> {
    auto buf = tx.process().alloc(1);
    (void)co_await tx.send_system(dst, buf, 0);
  }(tx, rx.id()));
  c.engine().spawn([](sim::Engine& e, Endpoint& rx, Time& t) -> Task<void> {
    RecvEvent ev = co_await rx.wait_recv();
    (void)co_await rx.copy_out_system(ev);
    t = e.now();
  }(c.engine(), rx, arrival));
  c.engine().run();
  EXPECT_GT(arrival.to_us(), 1.5);
  EXPECT_LT(arrival.to_us(), 4.5);
}

TEST(BclIntra, NormalChannelLargeMessage) {
  BclCluster c{one_node()};
  auto& tx = c.open_endpoint(0);
  auto& rx = c.open_endpoint(0);
  const std::size_t kLen = 200'000;
  bool verified = false;
  c.engine().spawn([](Endpoint& rx, Endpoint& tx, std::size_t len,
                      bool& ok) -> Task<void> {
    auto rbuf = rx.process().alloc(len);
    EXPECT_EQ(co_await rx.post_recv(1, rbuf), BclErr::kOk);
    auto go = rx.process().alloc(1);
    (void)co_await rx.send_system(tx.id(), go, 1);
    RecvEvent ev = co_await rx.wait_recv();
    EXPECT_EQ(ev.len, len);
    ok = rx.process().check_pattern(rbuf, 44);
  }(rx, tx, kLen, verified));
  c.engine().spawn([](Endpoint& tx, PortId dst, std::size_t len)
                       -> Task<void> {
    RecvEvent go = co_await tx.wait_recv();
    (void)co_await tx.copy_out_system(go);
    auto sbuf = tx.process().alloc(len);
    tx.process().fill_pattern(sbuf, 44);
    auto r = co_await tx.send(dst, ChannelRef{ChanKind::kNormal, 1}, sbuf,
                              len);
    EXPECT_EQ(r.err, BclErr::kOk);
  }(tx, rx.id(), kLen));
  c.engine().run();
  EXPECT_TRUE(verified);
}

// Measures intra-node streaming bandwidth with the given pipeline setting.
double intra_bandwidth(bool pipelined) {
  ClusterConfig cfg = one_node();
  cfg.cost.intra_pipeline = pipelined;
  BclCluster c{cfg};
  auto& tx = c.open_endpoint(0);
  auto& rx = c.open_endpoint(0);
  const std::size_t kLen = 256 * 1024;
  Time start, end;
  c.engine().spawn([](Endpoint& rx, Endpoint& tx, std::size_t len,
                      sim::Engine& e, Time& t_end) -> Task<void> {
    auto rbuf = rx.process().alloc(len);
    EXPECT_EQ(co_await rx.post_recv(0, rbuf), BclErr::kOk);
    auto go = rx.process().alloc(1);
    (void)co_await rx.send_system(tx.id(), go, 1);
    (void)co_await rx.wait_recv();
    t_end = e.now();
  }(rx, tx, kLen, c.engine(), end));
  c.engine().spawn([](Endpoint& tx, PortId dst, std::size_t len,
                      sim::Engine& e, Time& t_start) -> Task<void> {
    RecvEvent go = co_await tx.wait_recv();
    (void)co_await tx.copy_out_system(go);
    auto sbuf = tx.process().alloc(len);
    t_start = e.now();
    auto r = co_await tx.send(dst, ChannelRef{ChanKind::kNormal, 0}, sbuf,
                              len);
    EXPECT_EQ(r.err, BclErr::kOk);
  }(tx, rx.id(), kLen, c.engine(), start));
  c.engine().run();
  return kLen / (end - start).to_sec() / 1e6;
}

TEST(BclIntra, BandwidthNearPaper) {
  const double mbps = intra_bandwidth(true);
  // Paper: 391 MB/s within one node.
  EXPECT_GT(mbps, 330.0);
  EXPECT_LT(mbps, 430.0);
}

TEST(BclIntra, PipeliningHidesTheSecondCopy) {
  const double piped = intra_bandwidth(true);
  const double serial = intra_bandwidth(false);
  EXPECT_GT(piped, serial * 1.6);  // near-2x from overlapping the copies
}

TEST(BclIntra, PoolExhaustionDiscards) {
  ClusterConfig cfg = one_node();
  cfg.cost.sys_slots = 2;
  BclCluster c{cfg};
  auto& tx = c.open_endpoint(0);
  auto& rx = c.open_endpoint(0);
  c.engine().spawn([](Endpoint& tx, PortId dst) -> Task<void> {
    auto buf = tx.process().alloc(64);
    for (int i = 0; i < 6; ++i) {
      auto r = co_await tx.send_system(dst, buf, 64);
      EXPECT_EQ(r.err, BclErr::kOk);
    }
  }(tx, rx.id()));
  c.engine().run();
  EXPECT_EQ(rx.port().sys_drops(), 4u);
  EXPECT_EQ(rx.port().messages_received(), 2u);
}

TEST(BclIntra, RmaWriteWithinNode) {
  BclCluster c{one_node()};
  auto& wr = c.open_endpoint(0);
  auto& owner = c.open_endpoint(0);
  bool checked = false;
  c.engine().spawn([](Endpoint& owner, Endpoint& wr, bool& ok) -> Task<void> {
    auto window = owner.process().alloc(8192);
    EXPECT_EQ(co_await owner.bind_open(1, window), BclErr::kOk);
    auto go = owner.process().alloc(1);
    (void)co_await owner.send_system(wr.id(), go, 1);
    RecvEvent done = co_await owner.wait_recv();
    (void)co_await owner.copy_out_system(done);
    std::vector<std::byte> got(4096);
    owner.process().peek(window, 100, got);
    ok = true;
    for (std::size_t i = 0; i < got.size(); ++i) {
      if (got[i] != static_cast<std::byte>((i * 197 + 6 * 31 + 7) & 0xff)) {
        ok = false;
        break;
      }
    }
  }(owner, wr, checked));
  c.engine().spawn([](Endpoint& wr, PortId dst) -> Task<void> {
    RecvEvent go = co_await wr.wait_recv();
    (void)co_await wr.copy_out_system(go);
    auto src = wr.process().alloc(4096);
    wr.process().fill_pattern(src, 6);
    auto r = co_await wr.rma_write(dst, 1, 100, src, 4096);
    EXPECT_EQ(r.err, BclErr::kOk);
    (void)co_await wr.wait_send();
    auto note = wr.process().alloc(1);
    (void)co_await wr.send_system(dst, note, 1);
  }(wr, owner.id()));
  c.engine().run();
  EXPECT_TRUE(checked);
}

TEST(BclIntra, RmaReadWithinNode) {
  BclCluster c{one_node()};
  auto& rd = c.open_endpoint(0);
  auto& owner = c.open_endpoint(0);
  c.engine().spawn([](Endpoint& owner, Endpoint& rd) -> Task<void> {
    auto window = owner.process().alloc(8192);
    owner.process().fill_pattern(window, 17);
    EXPECT_EQ(co_await owner.bind_open(0, window), BclErr::kOk);
    auto go = owner.process().alloc(1);
    (void)co_await owner.send_system(rd.id(), go, 1);
  }(owner, rd));
  c.engine().spawn([](Endpoint& rd, PortId dst) -> Task<void> {
    RecvEvent go = co_await rd.wait_recv();
    (void)co_await rd.copy_out_system(go);
    auto into = rd.process().alloc(4000);
    auto r = co_await rd.rma_read(dst, 0, 0, 2, into, 4000);
    EXPECT_EQ(r.err, BclErr::kOk);
    RecvEvent ev = co_await rd.wait_recv();
    EXPECT_EQ(ev.len, 4000u);
    std::vector<std::byte> got(4000);
    rd.process().peek(into, 0, got);
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i],
                static_cast<std::byte>((i * 197 + 17 * 31 + 7) & 0xff));
    }
  }(rd, owner.id()));
  c.engine().run();
}

TEST(BclIntra, IntraFasterThanInter) {
  // Same 16 KB transfer: within a node must beat across nodes.
  auto transfer_time = [](bool same_node) {
    ClusterConfig cfg;
    cfg.nodes = 2;
    cfg.node.mem_bytes = 8u << 20;
    BclCluster c{cfg};
    auto& tx = c.open_endpoint(0);
    auto& rx = c.open_endpoint(same_node ? 0 : 1);
    Time done;
    c.engine().spawn([](Endpoint& rx, Endpoint& tx) -> Task<void> {
      auto rbuf = rx.process().alloc(16384);
      EXPECT_EQ(co_await rx.post_recv(0, rbuf), BclErr::kOk);
      auto go = rx.process().alloc(1);
      (void)co_await rx.send_system(tx.id(), go, 1);
      (void)co_await rx.wait_recv();
    }(rx, tx));
    c.engine().spawn([](sim::Engine& e, Endpoint& tx, PortId dst,
                        Time& t) -> Task<void> {
      RecvEvent go = co_await tx.wait_recv();
      (void)co_await tx.copy_out_system(go);
      auto sbuf = tx.process().alloc(16384);
      const Time t0 = e.now();
      (void)co_await tx.send(dst, ChannelRef{ChanKind::kNormal, 0}, sbuf,
                             16384);
      (void)co_await tx.wait_send();
      t = e.now() - t0;
    }(c.engine(), tx, rx.id(), done));
    c.engine().run();
    return done;
  };
  EXPECT_LT(transfer_time(true), transfer_time(false));
}

}  // namespace
