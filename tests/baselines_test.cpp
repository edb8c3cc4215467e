// Tests of the comparison protocol stacks: integrity, the architectural
// properties Table 1 counts (traps / interrupts / NIC access), and the
// latency ordering Table 2 / Fig. 7 report.
#include <gtest/gtest.h>

#include <vector>

#include "baselines/am2.hpp"
#include "baselines/bip.hpp"
#include "baselines/kernel_level.hpp"
#include "baselines/user_level.hpp"
#include "bcl/bcl.hpp"
#include "hw/myrinet_switch.hpp"

namespace {

using baseline::Am2Net;
using baseline::BipNet;
using baseline::KlNet;
using baseline::Testbed;
using baseline::UlCluster;
using osk::UserBuffer;
using sim::Task;
using sim::Time;

bcl::ClusterConfig base_cfg() {
  bcl::ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.node.mem_bytes = 8u << 20;
  return cfg;
}

Testbed make_testbed() {
  const auto cfg = base_cfg();
  return Testbed{2, cfg.node, cfg.kernel, cfg.fabric};
}

// ---------------------------------------------------------------- kernel level

TEST(KernelLevel, DeliversMessageIntact) {
  Testbed tb = make_testbed();
  KlNet net{tb};
  auto& tx = net.open(0);
  auto& rx = net.open(1);
  bool ok = false;
  tb.eng.spawn([](baseline::KlSocket& tx, baseline::KlSocket& rx)
                   -> Task<void> {
    auto buf = tx.process().alloc(10000);
    tx.process().fill_pattern(buf, 5);
    co_await tx.send(rx.node(), rx.port(), buf, 10000);
  }(tx, rx));
  tb.eng.spawn([](baseline::KlSocket& rx, bool& ok) -> Task<void> {
    auto buf = rx.process().alloc(10000);
    const std::size_t n = co_await rx.recv(buf);
    EXPECT_EQ(n, 10000u);
    ok = rx.process().check_pattern(buf, 5);
  }(rx, ok));
  tb.eng.run();
  EXPECT_TRUE(ok);
}

TEST(KernelLevel, TrapsBothSidesAndInterrupts) {
  Testbed tb = make_testbed();
  KlNet net{tb};
  auto& tx = net.open(0);
  auto& rx = net.open(1);
  tb.eng.spawn([](baseline::KlSocket& tx, baseline::KlSocket& rx)
                   -> Task<void> {
    auto buf = tx.process().alloc(64);
    co_await tx.send(rx.node(), rx.port(), buf, 64);
  }(tx, rx));
  tb.eng.spawn([](baseline::KlSocket& rx) -> Task<void> {
    auto buf = rx.process().alloc(64);
    (void)co_await rx.recv(buf);
  }(rx));
  tb.eng.run();
  EXPECT_EQ(tb.kernels[0]->traps(), 1u);   // send trap
  EXPECT_EQ(tb.kernels[1]->traps(), 1u);   // recv trap
  EXPECT_GE(net.interrupts(1), 1u);        // interrupt-driven receive
}

TEST(KernelLevel, LatencyFarAboveBcl) {
  Testbed tb = make_testbed();
  KlNet net{tb};
  auto& tx = net.open(0);
  auto& rx = net.open(1);
  Time arrival;
  tb.eng.spawn([](baseline::KlSocket& tx, baseline::KlSocket& rx)
                   -> Task<void> {
    auto buf = tx.process().alloc(1);
    co_await tx.send(rx.node(), rx.port(), buf, 0);
  }(tx, rx));
  tb.eng.spawn([](sim::Engine& e, baseline::KlSocket& rx, Time& t)
                   -> Task<void> {
    auto buf = rx.process().alloc(1);
    (void)co_await rx.recv(buf);
    t = e.now();
  }(tb.eng, rx, arrival));
  tb.eng.run();
  EXPECT_GT(arrival.to_us(), 40.0);  // TCP-era latency, >> 18.3
}

// ------------------------------------------------------------------ user level

TEST(UserLevel, DeliversWithZeroTraps) {
  UlCluster c{base_cfg()};
  auto& tx = c.open_endpoint(0);
  auto& rx = c.open_endpoint(1);
  std::vector<std::byte> got;
  c.engine().spawn([](baseline::UlEndpoint& tx, bcl::PortId dst)
                       -> Task<void> {
    auto buf = tx.process().alloc(500);
    tx.process().fill_pattern(buf, 2);
    auto r = co_await tx.send_system(dst, buf, 500);
    EXPECT_EQ(r.err, bcl::BclErr::kOk);
  }(tx, rx.id()));
  c.engine().spawn([](baseline::UlEndpoint& rx,
                      std::vector<std::byte>& out) -> Task<void> {
    auto ev = co_await rx.wait_recv();
    out = co_await rx.copy_out_system(ev);
  }(rx, got));
  c.engine().run();
  EXPECT_EQ(got.size(), 500u);
  EXPECT_EQ(c.traps(0), 0u);  // the defining property
  EXPECT_EQ(c.traps(1), 0u);
}

// Warm one-way latency: message 1 warms caches/pin tables, message 2 is
// timed from just before the send to receive completion.
template <typename Ep>
Time warm_oneway(sim::Engine& eng, Ep& tx, Ep& rx, bcl::PortId dst) {
  Time t0, t1;
  eng.spawn([](sim::Engine& e, Ep& tx, bcl::PortId dst, Time& t0)
                -> Task<void> {
    auto buf = tx.process().alloc(1);
    (void)co_await tx.send_system(dst, buf, 0);  // warmup
    auto ev = co_await tx.wait_recv();           // sync from receiver
    (void)co_await tx.copy_out_system(ev);
    t0 = e.now();
    (void)co_await tx.send_system(dst, buf, 0);  // timed
  }(eng, tx, dst, t0));
  eng.spawn([](sim::Engine& e, Ep& rx, bcl::PortId back, Time& t1)
                -> Task<void> {
    auto ev = co_await rx.wait_recv();  // warmup
    (void)co_await rx.copy_out_system(ev);
    auto buf = rx.process().alloc(1);
    (void)co_await rx.send_system(back, buf, 0);  // sync
    ev = co_await rx.wait_recv();                 // timed
    (void)co_await rx.copy_out_system(ev);
    t1 = e.now();
  }(eng, rx, tx.id(), t1));
  eng.run();
  return t1 - t0;
}

TEST(UserLevel, FasterThanBclBySimilarMargin) {
  // Fig. 7: BCL is user-level + ~4.17us of kernel work.
  auto ul_latency = [] {
    UlCluster c{base_cfg()};
    auto& tx = c.open_endpoint(0);
    auto& rx = c.open_endpoint(1);
    return warm_oneway(c.engine(), tx, rx, rx.id());
  };
  auto bcl_latency = [] {
    bcl::BclCluster c{base_cfg()};
    auto& tx = c.open_endpoint(0);
    auto& rx = c.open_endpoint(1);
    return warm_oneway(c.engine(), tx, rx, rx.id());
  };
  const double gap = (bcl_latency() - ul_latency()).to_us();
  EXPECT_GT(gap, 3.5);
  EXPECT_LT(gap, 5.0);
}

TEST(UserLevel, TranslationCacheLruEviction) {
  baseline::TranslationCache cache{4};
  // Touch 4 pages: all misses.
  auto [h1, m1] = cache.touch(1, 0, 4 * hw::kPageSize);
  EXPECT_EQ(h1, 0);
  EXPECT_EQ(m1, 4);
  // Re-touch: all hits.
  auto [h2, m2] = cache.touch(1, 0, 4 * hw::kPageSize);
  EXPECT_EQ(h2, 4);
  EXPECT_EQ(m2, 0);
  // A 5th page evicts the LRU one.
  (void)cache.touch(1, 4 * hw::kPageSize, 1);
  auto [h3, m3] = cache.touch(1, 0, 1);  // page 0 was evicted
  EXPECT_EQ(h3, 0);
  EXPECT_EQ(m3, 1);
  EXPECT_EQ(cache.size(), 4u);
}

TEST(UserLevel, CacheThrashingSlowsSends) {
  // Working set >> cache: every send pays miss costs (ablation A4's core).
  auto run = [](std::size_t cache_pages) {
    baseline::UlConfig ul;
    ul.cache_pages = cache_pages;
    UlCluster c{base_cfg(), ul};
    auto& tx = c.open_endpoint(0);
    auto& rx = c.open_endpoint(1);
    Time done;
    c.engine().spawn([](sim::Engine& e, baseline::UlEndpoint& tx,
                        bcl::PortId dst, Time& t) -> Task<void> {
      // 16 distinct 4-page buffers, cycled twice.
      std::vector<UserBuffer> bufs;
      for (int i = 0; i < 16; ++i) {
        bufs.push_back(tx.process().alloc(4 * hw::kPageSize));
      }
      for (int round = 0; round < 2; ++round) {
        for (auto& b : bufs) {
          auto r = co_await tx.send_system(dst, b, 4096);
          EXPECT_EQ(r.err, bcl::BclErr::kOk);
          (void)co_await tx.wait_send();
        }
      }
      t = e.now();
    }(c.engine(), tx, rx.id(), done));
    c.engine().run();
    return done;
  };
  const Time big_cache = run(1024);
  const Time tiny_cache = run(8);
  EXPECT_GT(tiny_cache.to_us(), big_cache.to_us() + 50.0);
}

// --------------------------------------------------------------------- AM-II

TEST(Am2, DeliversMessageIntact) {
  Testbed tb = make_testbed();
  Am2Net net{tb};
  auto& tx = net.open(0);
  auto& rx = net.open(1);
  bool ok = false;
  tb.eng.spawn([](baseline::Am2Endpoint& tx, baseline::Am2Endpoint& rx)
                   -> Task<void> {
    auto buf = tx.process().alloc(5000);
    tx.process().fill_pattern(buf, 7);
    co_await tx.send(rx.node(), rx.port(), buf, 5000);
  }(tx, rx));
  tb.eng.spawn([](baseline::Am2Endpoint& rx, bool& ok) -> Task<void> {
    auto msg = co_await rx.recv();
    ok = msg.data.size() == 5000;
    for (std::size_t i = 0; ok && i < msg.data.size(); ++i) {
      ok = msg.data[i] ==
           static_cast<std::byte>((i * 197 + 7 * 31 + 7) & 0xff);
    }
  }(rx, ok));
  tb.eng.run();
  EXPECT_TRUE(ok);
}

TEST(Am2, CreditsThrottleBulkTransfers) {
  Testbed tb = make_testbed();
  Am2Net net{tb};
  auto& tx = net.open(0);
  auto& rx = net.open(1);
  Time done;
  tb.eng.spawn([](sim::Engine& e, baseline::Am2Endpoint& tx,
                  baseline::Am2Endpoint& rx, Time& t) -> Task<void> {
    auto buf = tx.process().alloc(64 * 1024);
    co_await tx.send(rx.node(), rx.port(), buf, 64 * 1024);
    t = e.now();
  }(tb.eng, tx, rx, done));
  tb.eng.spawn([](baseline::Am2Endpoint& rx) -> Task<void> {
    (void)co_await rx.recv();
  }(rx));
  tb.eng.run();
  const double mbps = 64 * 1024 / done.to_sec() / 1e6;
  EXPECT_LT(mbps, 120.0);  // well below BCL's 146
  EXPECT_GT(mbps, 20.0);
}

// ----------------------------------------------------------------------- BIP

TEST(Bip, DeliversWithPostedBuffer) {
  Testbed tb = make_testbed();
  BipNet net{tb};
  auto& tx = net.open(0);
  auto& rx = net.open(1);
  bool ok = false;
  auto rbuf = rx.process().alloc(20000);
  rx.post_recv(rbuf);
  tb.eng.spawn([](baseline::BipEndpoint& tx, baseline::BipEndpoint& rx)
                   -> Task<void> {
    auto buf = tx.process().alloc(20000);
    tx.process().fill_pattern(buf, 4);
    co_await tx.send(rx.node(), rx.port(), buf, 20000);
  }(tx, rx));
  tb.eng.spawn([](baseline::BipEndpoint& rx, const UserBuffer& rbuf,
                  bool& ok) -> Task<void> {
    const std::size_t n = co_await rx.recv();
    EXPECT_EQ(n, 20000u);
    ok = rx.process().check_pattern(rbuf, 4);
  }(rx, rbuf, ok));
  tb.eng.run();
  EXPECT_TRUE(ok);
}

TEST(Bip, LowestLatencyOfAllProtocols) {
  Testbed tb = make_testbed();
  BipNet net{tb};
  auto& tx = net.open(0);
  auto& rx = net.open(1);
  auto rbuf = rx.process().alloc(16);
  rx.post_recv(rbuf);
  Time arrival;
  tb.eng.spawn([](baseline::BipEndpoint& tx, baseline::BipEndpoint& rx)
                   -> Task<void> {
    auto buf = tx.process().alloc(1);
    co_await tx.send(rx.node(), rx.port(), buf, 0);
  }(tx, rx));
  tb.eng.spawn([](sim::Engine& e, baseline::BipEndpoint& rx, Time& t)
                   -> Task<void> {
    (void)co_await rx.recv();
    t = e.now();
  }(tb.eng, rx, arrival));
  tb.eng.run();
  EXPECT_LT(arrival.to_us(), 12.0);  // far below BCL's 18.3
  EXPECT_GT(arrival.to_us(), 3.0);
}

TEST(Bip, CorruptionIsLostForGood) {
  Testbed tb = make_testbed();
  auto& fab = dynamic_cast<hw::MyrinetFabric&>(*tb.fabric);
  fab.set_host_link_fault_plan(0, {.corrupt_prob = 0.3, .seed = 1000});
  BipNet net{tb};
  auto& tx = net.open(0);
  auto& rx = net.open(1);
  auto rbuf = rx.process().alloc(2048);
  rx.post_recv(rbuf);
  tb.eng.spawn([](baseline::BipEndpoint& tx, baseline::BipEndpoint& rx)
                   -> Task<void> {
    auto buf = tx.process().alloc(2048);
    for (int i = 0; i < 20; ++i) {
      co_await tx.send(rx.node(), rx.port(), buf, 2048);
    }
  }(tx, rx));
  tb.eng.run();  // no receiver needed; count drops at the NIC
  EXPECT_GT(rx.drops(), 0u);
}

}  // namespace
