// End-to-end fault injection: NIC-offloaded collectives and mini-MPI
// workloads under combined drop/corrupt/reorder schedules, and graceful
// surfacing of a fail-stopped peer through the whole stack (TxSession retry
// budget -> collective engine group failure -> CollPort -> PeerUnreachable
// exception at the MPI layer) instead of a hang.
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "bcl/coll/engine.hpp"
#include "cluster/cluster.hpp"
#include "hw/myrinet_switch.hpp"

namespace {

using cluster::World;
using cluster::WorldConfig;
using sim::Task;
using sim::Time;

hw::FaultPlan combined_faults(double drop, std::uint64_t seed) {
  hw::FaultPlan plan;
  plan.drop_prob = drop;
  plan.corrupt_prob = drop / 2;
  plan.reorder_prob = drop / 2;
  plan.seed = seed;
  return plan;
}

hw::MyrinetFabric& myrinet(World& w) {
  return dynamic_cast<hw::MyrinetFabric&>(w.cluster().fabric());
}

// NIC barrier/bcast/reduce/allreduce stay byte-identical under 1% drop +
// 0.5% corrupt + 0.5% reorder on two of the eight uplinks.
TEST(FaultInjection, NicCollectivesCorrectUnderCombinedFaults) {
  WorldConfig cfg;
  cfg.cluster.nodes = 8;
  cfg.cluster.node.mem_bytes = 16u << 20;
  cfg.cluster.cost.rto = Time::us(80);
  World w{cfg, 8};
  myrinet(w).set_host_link_fault_plan(0, combined_faults(0.01, 11));
  myrinet(w).set_host_link_fault_plan(3, combined_faults(0.01, 12));

  constexpr int kRounds = 16;
  constexpr std::size_t kCount = 64;
  w.run([](World& world, int rank) -> Task<void> {
    auto& me = world.mpi(rank);
    const int n = me.size();
    auto buf = me.process().alloc(kCount * sizeof(double));
    auto sbuf = me.process().alloc(kCount * sizeof(double));
    auto rbuf = me.process().alloc(kCount * sizeof(double));
    for (int round = 0; round < kRounds; ++round) {
      const int root = round % n;
      // bcast: every rank ends up with the root's pattern.
      if (rank == root) me.process().fill_pattern(buf, 40 + round);
      co_await me.bcast(buf, kCount * sizeof(double), root);
      EXPECT_TRUE(me.process().check_pattern(buf, 40 + round))
          << "rank " << rank << " round " << round;
      // reduce: the root holds the exact sum.
      std::vector<double> mine(kCount);
      for (std::size_t i = 0; i < kCount; ++i) {
        mine[i] = static_cast<double>(i + 1) * (rank + 1) + round;
      }
      me.write_doubles(sbuf, mine);
      co_await me.reduce(sbuf, rbuf, kCount, root);
      if (rank == root) {
        const double rank_sum = n * (n + 1) / 2.0;
        const auto got = me.read_doubles(rbuf, kCount);
        for (std::size_t i = 0; i < kCount; ++i) {
          EXPECT_DOUBLE_EQ(got[i], static_cast<double>(i + 1) * rank_sum +
                                       static_cast<double>(round) * n)
              << "rank " << rank << " round " << round;
        }
      }
      // allreduce + barrier close the round.
      co_await me.allreduce(sbuf, rbuf, kCount);
      const double rank_sum = n * (n + 1) / 2.0;
      const auto all = me.read_doubles(rbuf, kCount);
      for (std::size_t i = 0; i < kCount; ++i) {
        EXPECT_DOUBLE_EQ(all[i], static_cast<double>(i + 1) * rank_sum +
                                     static_cast<double>(round) * n);
      }
      co_await me.barrier();
    }
  });

  // The offload path was really exercised, the faults really happened, and
  // the reliability layer really recovered them.
  const auto& coll = w.cluster().node(0).mcp().recorder();
  EXPECT_GT(coll.count(bcl::NicEvent::kCollPost), 0u);
  EXPECT_EQ(coll.count(bcl::NicEvent::kGroupFailed), 0u);
  EXPECT_EQ(coll.count(bcl::NicEvent::kCollTimeout), 0u);
  const auto& link = myrinet(w).host_uplink(0);
  EXPECT_GT(link.dropped() + link.reordered(), 0u);
  std::uint64_t retrans = 0;
  for (hw::NodeId nid = 0; nid < 8; ++nid) {
    retrans += w.cluster().node(nid).mcp().recorder().count(
        bcl::NicEvent::kRetransmit);
    EXPECT_EQ(w.cluster().node(nid).mcp().unreachable_peers(), 0u);
  }
  EXPECT_GT(retrans, 0u);
}

// Mixed p2p + collective soak, two ranks per node, faults on two uplinks:
// every round's ring exchange and reductions stay byte-identical.
TEST(FaultInjection, MiniMpiSoakUnderCombinedFaults) {
  WorldConfig cfg;
  cfg.cluster.nodes = 4;
  cfg.cluster.node.mem_bytes = 16u << 20;
  cfg.cluster.cost.rto = Time::us(80);
  World w{cfg, 8};
  myrinet(w).set_host_link_fault_plan(0, combined_faults(0.01, 21));
  myrinet(w).set_host_link_fault_plan(2, combined_faults(0.01, 22));

  constexpr int kRounds = 12;
  constexpr std::size_t kCount = 32;
  w.run([](World& world, int rank) -> Task<void> {
    auto& me = world.mpi(rank);
    const int n = me.size();
    auto sbuf = me.process().alloc(kCount * sizeof(double));
    auto rbuf = me.process().alloc(kCount * sizeof(double));
    auto abuf = me.process().alloc(kCount * sizeof(double));
    for (int round = 0; round < kRounds; ++round) {
      // Ring exchange: receive the left neighbour's (rank, round) stamp.
      std::vector<double> mine(kCount);
      for (std::size_t i = 0; i < kCount; ++i) {
        mine[i] = rank * 1000.0 + round + static_cast<double>(i);
      }
      me.write_doubles(sbuf, mine);
      const int right = (rank + 1) % n;
      const int left = (rank + n - 1) % n;
      co_await me.sendrecv(sbuf, kCount * sizeof(double), right, round, rbuf,
                           left, round);
      const auto got = me.read_doubles(rbuf, kCount);
      for (std::size_t i = 0; i < kCount; ++i) {
        EXPECT_DOUBLE_EQ(got[i],
                         left * 1000.0 + round + static_cast<double>(i))
            << "rank " << rank << " round " << round;
      }
      // Collective phase rides the same faulted links.
      co_await me.allreduce(sbuf, abuf, kCount);
      const double rank_stamp_sum = n * (n - 1) / 2.0 * 1000.0;
      const auto all = me.read_doubles(abuf, kCount);
      for (std::size_t i = 0; i < kCount; ++i) {
        EXPECT_DOUBLE_EQ(all[i], rank_stamp_sum +
                                     n * (round + static_cast<double>(i)));
      }
      co_await me.barrier();
    }
  });

  std::uint64_t retrans = 0;
  for (hw::NodeId nid = 0; nid < 4; ++nid) {
    retrans += w.cluster().node(nid).mcp().recorder().count(
        bcl::NicEvent::kRetransmit);
  }
  EXPECT_GT(retrans, 0u);
  EXPECT_GT(
      w.cluster().node(1).mcp().recorder().count(bcl::NicEvent::kMessageSent),
      0u);
}

// A peer that fail-stops mid-run must surface as PeerUnreachableError at
// every survivor within the retry budget — pending collectives unblock,
// later ones fail fast, and nothing hangs.
TEST(FaultInjection, FailStoppedPeerUnblocksSurvivors) {
  WorldConfig cfg;
  cfg.cluster.nodes = 8;
  cfg.cluster.node.mem_bytes = 16u << 20;
  cfg.cluster.cost.rto = Time::us(60);
  cfg.cluster.cost.max_retries = 4;
  cfg.cluster.cost.coll_op_timeout = Time::ms(2);
  World w{cfg, 8};

  constexpr std::size_t kCount = 16;
  int caught = 0;
  int fast_failed = 0;
  w.run([&caught, &fast_failed](World& world, int rank) -> Task<void> {
    auto& me = world.mpi(rank);
    const int n = me.size();
    auto sbuf = me.process().alloc(kCount * sizeof(double));
    auto rbuf = me.process().alloc(kCount * sizeof(double));
    me.write_doubles(sbuf, std::vector<double>(kCount, rank + 1.0));
    // Round 1: everyone alive, NIC group registers and reduces correctly.
    co_await me.allreduce(sbuf, rbuf, kCount);
    const double want = n * (n + 1) / 2.0;
    for (const double v : me.read_doubles(rbuf, kCount)) {
      EXPECT_DOUBLE_EQ(v, want);
    }
    if (rank == 7) {
      // Fail-stop: this node's uplink goes dark and the rank exits without
      // posting round 2.  Survivors must not wait forever for it.
      hw::FaultPlan dead;
      dead.fail_from = Time::zero();
      dynamic_cast<hw::MyrinetFabric&>(world.cluster().fabric())
          .set_host_link_fault_plan(7, dead);
      co_return;
    }
    bool threw = false;
    try {
      co_await me.allreduce(sbuf, rbuf, kCount);
    } catch (const minimpi::PeerUnreachableError&) {
      threw = true;
    }
    EXPECT_TRUE(threw) << "rank " << rank << " allreduce hung or succeeded";
    if (threw) ++caught;
    // The failed group is latched: later collectives fail fast, they do not
    // wait out another timeout.
    bool threw_again = false;
    try {
      co_await me.barrier();
    } catch (const minimpi::PeerUnreachableError&) {
      threw_again = true;
    }
    EXPECT_TRUE(threw_again) << "rank " << rank;
    if (threw_again) ++fast_failed;
  });

  EXPECT_EQ(caught, 7);
  EXPECT_EQ(fast_failed, 7);
  std::uint64_t groups_failed = 0;
  for (hw::NodeId nid = 0; nid < 7; ++nid) {
    groups_failed += w.cluster().node(nid).mcp().recorder().count(
        bcl::NicEvent::kGroupFailed);
  }
  EXPECT_GT(groups_failed, 0u);
}

// ---------------------------------------------------------------------------
// Incast soak: eight senders converge on one slow receiver through a lossy
// host link (1% drop + 0.5% corrupt + 0.5% reorder).  Flow control plus
// go-back-N must land every payload intact, without a single pool drop and
// without RNR pushback ever being misread as peer death — and the run must
// finish in bounded time rather than collapsing into retry storms.
// ---------------------------------------------------------------------------
TEST(FaultInjection, IncastSlowReceiverLossyLinkLosesNothing) {
  constexpr int kSenders = 8;
  constexpr int kPerSender = 30;
  constexpr std::size_t kBytes = 512;

  bcl::ClusterConfig cfg;
  cfg.nodes = kSenders + 1;
  cfg.node.mem_bytes = 8u << 20;
  cfg.cost.sys_slots = 16;
  cfg.cost.rto = Time::us(80);
  cfg.cost.max_retries = 6;
  bcl::BclCluster c{cfg};
  const hw::NodeId rx_node = kSenders;
  dynamic_cast<hw::MyrinetFabric&>(c.fabric())
      .set_host_link_fault_plan(rx_node, combined_faults(0.01, 42));

  auto& rx = c.open_endpoint(rx_node);
  std::vector<bcl::Endpoint*> senders;
  for (int s = 0; s < kSenders; ++s) {
    senders.push_back(&c.open_endpoint(static_cast<hw::NodeId>(s)));
  }

  std::vector<Time> done_at(kSenders, Time::zero());
  for (int s = 0; s < kSenders; ++s) {
    c.engine().spawn([](bcl::BclCluster& c, bcl::Endpoint& tx,
                        bcl::PortId dst, int rank,
                        Time& done) -> Task<void> {
      auto buf = tx.process().alloc(kBytes);
      tx.process().fill_pattern(buf, static_cast<unsigned>(100 + rank));
      for (int i = 0; i < kPerSender; ++i) {
        auto r = co_await tx.send_system(dst, buf, kBytes);
        EXPECT_EQ(r.err, bcl::BclErr::kOk);
        bcl::SendEvent ev = co_await tx.wait_send();
        EXPECT_TRUE(ev.ok) << "sender " << rank << " msg " << i;
      }
      done = c.engine().now();
    }(c, *senders[static_cast<std::size_t>(s)], rx.id(), s,
      done_at[static_cast<std::size_t>(s)]));
  }

  std::vector<int> per_src(kSenders, 0);
  std::uint64_t corrupted_payloads = 0;
  c.engine().spawn([](bcl::BclCluster& c, bcl::Endpoint& rx,
                      std::vector<int>& per_src,
                      std::uint64_t& bad) -> Task<void> {
    for (int i = 0; i < kSenders * kPerSender; ++i) {
      bcl::RecvEvent ev = co_await rx.wait_recv();
      co_await c.engine().sleep(Time::us(5));  // deliberately slow consumer
      auto data = co_await rx.copy_out_system(ev);
      const unsigned seed = 100 + ev.src.node;
      bool ok = data.size() == kBytes;
      for (std::size_t b = 0; ok && b < data.size(); ++b) {
        ok = data[b] ==
             static_cast<std::byte>((b * 197 + seed * 31 + 7) & 0xff);
      }
      if (!ok) ++bad;
      ++per_src[ev.src.node];
    }
  }(c, rx, per_src, corrupted_payloads));
  c.engine().run();

  // Zero payload loss, zero corruption, every sender accounted for.
  for (int s = 0; s < kSenders; ++s) {
    EXPECT_EQ(per_src[static_cast<std::size_t>(s)], kPerSender)
        << "sender " << s;
  }
  EXPECT_EQ(corrupted_payloads, 0u);
  EXPECT_EQ(rx.port().sys_drops(), 0u);
  EXPECT_EQ(rx.port().not_posted_drops(), 0u);
  // Slow + lossy never ripens into kPeerUnreachable (the RNR path resets
  // the retry budget; only real silence may exhaust it).
  for (int s = 0; s < kSenders; ++s) {
    const auto nid = static_cast<hw::NodeId>(s);
    EXPECT_EQ(c.node(nid).mcp().recorder().count(bcl::NicEvent::kPeerFailure),
              0u)
        << "sender " << s;
    EXPECT_EQ(c.node(nid).mcp().unreachable_peers(), 0u) << "sender " << s;
  }
  // The overload was real (pushback happened) and recovery was loss-driven
  // retransmission, not silent drops.
  const auto& rx_events = c.node(rx_node).mcp().recorder();
  EXPECT_GE(rx_events.count(bcl::NicEvent::kRnrNackTx) +
                rx_events.count(bcl::NicEvent::kCreditUpdateTx),
            1u);
  // Bounded completion: 240 x 512B through one receiver draining at 5 us
  // per message is ~2 ms of pure drain; allow generous headroom for RNR
  // backoff and retransmissions but fail on runaway retry collapse.
  for (int s = 0; s < kSenders; ++s) {
    EXPECT_GT(done_at[static_cast<std::size_t>(s)], Time::zero());
    EXPECT_LT(done_at[static_cast<std::size_t>(s)], Time::ms(100))
        << "sender " << s;
  }
}

}  // namespace
