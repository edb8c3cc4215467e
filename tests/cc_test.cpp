// NIC-resident congestion control: pacing math, AIMD epoch
// behaviour with QCN-style proportional feedback (scaled-cut math at every
// quantized level, batch-CNP fallback), per-link ECN marking including the
// wormhole-blocked-time rule, relative-threshold rate tracing, and the
// end-to-end property that ECN marks survive wormhole fabrics under seeded
// drop/dup/reorder fault plans without retransmitted copies ever
// double-counting at the receiver (marks are tallied on accepted
// deliveries only, and echoed levels decode to fractions in (0, 1]).
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "bcl/cc/controller.hpp"
#include "bcl/stack.hpp"
#include "hw/link.hpp"
#include "hw/mesh.hpp"
#include "hw/myrinet_switch.hpp"
#include "hw/node.hpp"
#include "hw/topology.hpp"
#include "sim/engine.hpp"
#include "sim/metrics.hpp"
#include "sim/trace.hpp"

namespace {

using sim::Task;
using sim::Time;

// A controller on a bare engine, fed the packets an MCP would hand it.
struct CcRig {
  explicit CcRig(const bcl::CostConfig& c) : cfg{c} {}

  // A packet from `src` the MCP accepted.
  void accept(hw::NodeId src, bool marked) {
    hw::Packet p;
    p.src_node = src;
    p.ecn = marked;
    cc.on_accepted(p);
  }
  // The echo byte an outbound packet toward `dst` carries now.
  std::uint8_t echo(hw::NodeId dst) {
    hw::Packet p;
    p.dst_node = dst;
    cc.attach_echo(p);
    return p.ecn_echo;
  }
  std::uint64_t count(bcl::NicEvent kind) const {
    return recorder.count(kind);
  }

  const bcl::CostConfig cfg;
  sim::Engine eng;
  sim::Trace trace{eng};
  sim::MetricRegistry metrics;
  bcl::FlightRecorder recorder{0};
  bcl::cc::CongestionController cc{eng, cfg, "t", trace, metrics, recorder};
};

// -- pacing -----------------------------------------------------------------

// Reserved launches are spaced at exactly bytes/rate: four 4000-byte
// packets at an 8 MB/s line rate take three 500 us inter-launch gaps (the
// first launch goes immediately).
TEST(CcPacer, SpacesLaunchesAtConfiguredRate) {
  bcl::CostConfig cfg;
  cfg.cc_line_rate = 8e6;
  CcRig rig{cfg};

  Time done = Time::zero();
  rig.eng.spawn([](CcRig& rig, Time& done) -> Task<void> {
    for (int i = 0; i < 4; ++i) {
      co_await rig.cc.pace(5, 4000, /*reserve=*/true);
    }
    done = rig.eng.now();
  }(rig, done));
  rig.eng.run();

  EXPECT_EQ(done, Time::us(1500));
  const auto& s = rig.cc.rates().at(5);
  EXPECT_EQ(s.paced_packets, 4u);
  EXPECT_EQ(s.paced_wait, Time::us(1500));
  // drain_time is the serialization of the given bytes at the paced rate.
  EXPECT_EQ(rig.cc.drain_time(5, 4000), Time::us(500));
}

// At line rate pacing adds no delay: a sender that keeps up with the
// wire never sleeps in pace().
TEST(CcPacer, LineRateAddsNoDelay) {
  CcRig rig{bcl::CostConfig{}};

  rig.eng.spawn([](CcRig& rig) -> Task<void> {
    for (int i = 0; i < 8; ++i) {
      co_await rig.cc.pace(3, 4096);
      // The wire itself is slower than the pacing cursor (per-packet
      // overhead on top of serialization), so a real sender always returns
      // after the cursor has passed.
      co_await rig.eng.sleep(Time::bytes_at(4096, rig.cfg.cc_line_rate) +
                             Time::ns(1));
    }
  }(rig));
  rig.eng.run();

  EXPECT_EQ(rig.cc.rates().at(3).paced_wait, Time::zero());
  EXPECT_EQ(rig.cc.rates().at(3).rate, rig.cfg.cc_line_rate);
}

// -- AIMD -------------------------------------------------------------------

// A burst of echoes within one epoch takes exactly one multiplicative
// decrease (DCQCN's rate-decrease timer); echoes in a later epoch cut
// again; a long quiet period recovers the rate all the way to line via
// additive increase, with alpha decayed to noise.
TEST(CcAimd, OneDecreasePerEpochThenBoundedRecovery) {
  sim::Engine eng;
  const bcl::CostConfig cfg{};
  sim::Trace trace{eng};
  sim::MetricRegistry metrics;
  bcl::FlightRecorder recorder{0};
  bcl::cc::CongestionController cc{eng, cfg, "t", trace, metrics, recorder};

  eng.spawn([](sim::Engine& e, bcl::cc::CongestionController& cc,
               const bcl::CostConfig& cfg) -> Task<void> {
    for (int i = 0; i < 5; ++i) cc.on_echo(7, 0xff);
    EXPECT_EQ(cc.rates().size(), 1u);
    const bcl::cc::RateState& s = cc.rates().at(7);
    EXPECT_EQ(s.echoes, 5u);
    EXPECT_EQ(s.decreases, 1u) << "burst must cut at most once";
    // A saturated echo (extent unknown) cuts at full strength under the
    // proportional default: rate = line * (1 - max(alpha, 1)/2) = line/2.
    EXPECT_NEAR(s.rate, cfg.cc_line_rate * 0.5, 1.0);
    EXPECT_DOUBLE_EQ(s.feedback, 1.0);
    const double after_first = s.rate;

    co_await e.sleep(cfg.cc_epoch);
    cc.on_echo(7, 0xff);
    EXPECT_EQ(s.decreases, 2u);
    EXPECT_LT(s.rate, after_first);

    // Quiet recovery: the worst case from the floor is line/ai epochs;
    // double that bounds it comfortably.
    const double epochs = 2.0 * cfg.cc_line_rate / cfg.cc_ai_rate;
    co_await e.sleep(cfg.cc_epoch * epochs);
    EXPECT_EQ(cc.rate_of(7), cfg.cc_line_rate);
    EXPECT_GT(s.increases, 0u);
    EXPECT_LT(s.alpha, 0.01);
  }(eng, cc, cfg));
  eng.run();
}

// Scaled-cut math at every feedback level: a fresh destination's first
// echo at level L (of cc_feedback_levels) cuts by exactly f/2 where
// f = L/levels (alpha = g*f has not caught up, so max(alpha, f) = f), and
// alpha lands at g*f.  A grazing mark (L=1) barely dents the rate; a
// fully-marked window (L=levels) halves it.
TEST(CcAimd, ScaledCutMatchesEveryFeedbackLevel) {
  const bcl::CostConfig cfg{};
  double prev_rate = 1e18;
  for (int level = 1; level <= cfg.cc_feedback_levels; ++level) {
    sim::Engine eng;
    sim::Trace trace{eng};
    sim::MetricRegistry metrics;
    bcl::FlightRecorder recorder{0};
    bcl::cc::CongestionController cc{eng, cfg, "t", trace, metrics, recorder};
    cc.on_echo(9, static_cast<std::uint8_t>(level));
    const double f =
        static_cast<double>(level) / static_cast<double>(cfg.cc_feedback_levels);
    ASSERT_EQ(cc.rates().size(), 1u);
    const bcl::cc::RateState& s = cc.rates().at(9);
    EXPECT_NEAR(s.rate, cfg.cc_line_rate * (1.0 - f / 2.0), 1e-6)
        << "level " << level;
    EXPECT_NEAR(s.alpha, cfg.cc_g * f, 1e-12) << "level " << level;
    EXPECT_NEAR(s.feedback, f, 1e-12) << "level " << level;
    EXPECT_LT(s.rate, prev_rate) << "cut must deepen with the level";
    prev_rate = s.rate;
  }
}

// With cc_proportional off the level is ignored: even a minimal quantized
// echo takes the classic DCQCN alpha/2 cut (alpha = g after one echo), the
// same as a saturated one — batch CNP semantics for A/B comparison.
TEST(CcAimd, BatchModeIgnoresFeedbackLevel) {
  bcl::CostConfig cfg;
  cfg.cc_proportional = false;
  const double expect = cfg.cc_line_rate * (1.0 - cfg.cc_g / 2.0);
  {
    sim::Engine eng;
    sim::Trace trace{eng};
    sim::MetricRegistry metrics;
    bcl::FlightRecorder recorder{0};
    bcl::cc::CongestionController cc{eng, cfg, "t", trace, metrics, recorder};
    cc.on_echo(9, 1);
    EXPECT_NEAR(cc.rate_of(9), expect, 1e-6);
  }
  {
    sim::Engine eng;
    sim::Trace trace{eng};
    sim::MetricRegistry metrics;
    bcl::FlightRecorder recorder{0};
    bcl::cc::CongestionController cc{eng, cfg, "t", trace, metrics, recorder};
    cc.on_echo(9, 0xff);  // saturated
    EXPECT_NEAR(cc.rate_of(9), expect, 1e-6);
  }
}

// Level 0 is "no echo aboard" and must not touch the state.
TEST(CcAimd, LevelZeroIsNoEcho) {
  sim::Engine eng;
  const bcl::CostConfig cfg{};
  sim::Trace trace{eng};
  sim::MetricRegistry metrics;
  bcl::FlightRecorder recorder{0};
  bcl::cc::CongestionController cc{eng, cfg, "t", trace, metrics, recorder};
  cc.on_echo(9, 0);
  EXPECT_EQ(cc.rate_of(9), cfg.cc_line_rate);
  ASSERT_EQ(cc.rates().size(), 1u);
  EXPECT_EQ(cc.rates().at(9).echoes, 0u);
  EXPECT_EQ(cc.rates().at(9).decreases, 0u);
}

// -- echo window (the receiver half) ----------------------------------------

// Each accepted packet counts once.  The window opens at its first
// packet and flushes ceil(levels * marked / accepted) no sooner than
// cc_echo_window later: 3 marked of 10 echo level 3 of 8, not 2.
TEST(CcEcho, FlushesTheCeilingOnceTheWindowIsFull) {
  CcRig rig{bcl::CostConfig{}};
  rig.eng.spawn([](CcRig& rig) -> Task<void> {
    const Time window = rig.cfg.cc_echo_window;
    co_await rig.eng.sleep(Time::us(20));
    for (int i = 0; i < 10; ++i) rig.accept(5, i < 3);
    EXPECT_EQ(rig.count(bcl::NicEvent::kEcnMarkRx), 3u);
    co_await rig.eng.sleep(window - Time::ns(1));
    EXPECT_EQ(rig.echo(5), 0u) << "the window is not full yet";
    co_await rig.eng.sleep(Time::ns(1));
    EXPECT_EQ(rig.echo(6), 0u) << "no window toward another node";
    EXPECT_EQ(rig.echo(5), 3u);
    EXPECT_EQ(rig.echo(5), 0u) << "the flush opens a fresh window";
    EXPECT_EQ(rig.count(bcl::NicEvent::kEcnEchoTx), 1u);
  }(rig));
  rig.eng.run();
}

// A window with no mark rolls over without an echo: the next window opens
// at the next accepted packet, not where the quiet one did.
TEST(CcEcho, QuietWindowRollsOverSilently) {
  CcRig rig{bcl::CostConfig{}};
  rig.eng.spawn([](CcRig& rig) -> Task<void> {
    const Time window = rig.cfg.cc_echo_window;
    for (int i = 0; i < 4; ++i) rig.accept(5, false);
    co_await rig.eng.sleep(window);
    EXPECT_EQ(rig.echo(5), 0u);
    co_await rig.eng.sleep(Time::us(10));
    rig.accept(5, true);
    co_await rig.eng.sleep(window / 2);
    EXPECT_EQ(rig.echo(5), 0u) << "the quiet window did not roll over";
    co_await rig.eng.sleep(window / 2);
    EXPECT_EQ(rig.echo(5), 8u);  // 1 marked of 1
    EXPECT_EQ(rig.count(bcl::NicEvent::kEcnEchoTx), 1u);
  }(rig));
  rig.eng.run();
}

// Batch CNP semantics: no window to wait for, the first pending mark
// echoes at once as the saturated byte.
TEST(CcEcho, BatchModeEchoesSaturatedAtTheFirstMark) {
  bcl::CostConfig cfg;
  cfg.cc_proportional = false;
  CcRig rig{cfg};
  rig.accept(5, false);
  EXPECT_EQ(rig.echo(5), 0u);
  rig.accept(5, true);
  EXPECT_EQ(rig.echo(5), 0xffu);
  EXPECT_EQ(rig.echo(5), 0u);
  EXPECT_EQ(rig.count(bcl::NicEvent::kEcnEchoTx), 1u);
}

// Round trip: the byte one controller's window puts aboard decodes, at
// the other end, to the extent it measured — m of 8 marked is f = m/8 at
// every level, and a batch-mode 0xff is f = 1.
TEST(CcEcho, EchoByteDecodesToTheExtentTheSenderApplies) {
  const bcl::CostConfig cfg{};
  CcRig sender{cfg};
  const auto apply = [&sender](std::uint8_t byte) {
    hw::Packet p;
    p.src_node = 5;
    p.ecn_echo = byte;
    sender.cc.take_echo(p);
    const auto it = sender.cc.rates().find(5);
    return it == sender.cc.rates().end() ? 0.0 : it->second.feedback;
  };
  for (int marked = 1; marked <= cfg.cc_feedback_levels; ++marked) {
    CcRig receiver{cfg};
    receiver.eng.spawn([](CcRig& rig, int marked) -> Task<void> {
      for (int i = 0; i < 8; ++i) rig.accept(9, i < marked);
      co_await rig.eng.sleep(rig.cfg.cc_echo_window);
    }(receiver, marked));
    receiver.eng.run();
    const std::uint8_t byte = receiver.echo(9);
    EXPECT_EQ(byte, marked) << "marked " << marked;
    EXPECT_DOUBLE_EQ(apply(byte), marked / 8.0) << "marked " << marked;
  }
  bcl::CostConfig batch = cfg;
  batch.cc_proportional = false;
  CcRig receiver{batch};
  receiver.accept(9, true);
  const std::uint8_t byte = receiver.echo(9);
  EXPECT_EQ(byte, 0xffu);
  EXPECT_DOUBLE_EQ(apply(byte), 1.0);
}

// Recovery that clamps at line rate partway through a quiet stretch counts
// only the AI steps that actually moved the rate: a 5 MB/s deficit at
// +2 MB/s per epoch is 3 effective steps, no matter how long the
// destination then sits idle (the old accounting credited every quiet
// epoch, skewing the postmortem's storming/recovering classification).
TEST(CcPacer, RecoveryClampCountsOnlyEffectiveIncreases) {
  bcl::CostConfig cfg;
  cfg.cc_feedback_levels = 16;
  CcRig rig{cfg};
  rig.cc.on_echo(5, 1);  // f = 1/16 cuts 1/32 of line: 5 MB/s
  ASSERT_EQ(rig.cc.rate_of(5), cfg.cc_line_rate - 5e6);

  rig.eng.spawn([](CcRig& rig) -> Task<void> {
    co_await rig.eng.sleep(rig.cfg.cc_epoch * 10.0);
    // The lazy tick catches up all 10 epochs.
    EXPECT_EQ(rig.cc.rate_of(5), rig.cfg.cc_line_rate);
    EXPECT_EQ(rig.cc.rates().at(5).increases, 3u)
        << "only steps that moved the rate count";
  }(rig));
  rig.eng.run();
}

// The rate counter-track samples on relative moves, not an absolute
// epsilon: a full recovery from line/2 emits far fewer points than its 40
// AI ticks (the old 1e-3 epsilon against ~1e8 B/s emitted every tick,
// flooding the bounded trace buffer), and touching the pacer at a steady
// rate emits nothing new.
TEST(CcTrace, RateTrackSamplesOnRelativeMovesOnly) {
  sim::Engine eng;
  const bcl::CostConfig cfg{};
  sim::Trace tr{eng};
  tr.enable();
  sim::MetricRegistry metrics;
  bcl::FlightRecorder recorder{0};
  bcl::cc::CongestionController cc{eng, cfg, "t", tr, metrics, recorder};

  eng.spawn([](sim::Engine& e, bcl::cc::CongestionController& cc,
               const bcl::CostConfig& cfg) -> Task<void> {
    cc.on_echo(7, 0xff);  // line -> line/2, first sample + decrease
    // Recover to line, poking the pacer once per epoch like a steady
    // sender would (trace_rate runs on every pace()).
    const int epochs =
        static_cast<int>(cfg.cc_line_rate / 2.0 / cfg.cc_ai_rate) + 4;
    for (int i = 0; i < epochs; ++i) {
      co_await e.sleep(cfg.cc_epoch);
      co_await cc.pace(7, 1024);
    }
    // Steady at line: further pokes must not emit.
    for (int i = 0; i < 16; ++i) co_await cc.pace(7, 1024);
  }(eng, cc, cfg));
  eng.run();

  std::size_t rate_samples = 0;
  double last = -1.0;
  for (const auto& ev : tr.counter_events()) {
    if (ev.series.rfind("rate_mbps", 0) != 0) continue;
    ++rate_samples;
    last = ev.value;
  }
  EXPECT_GE(rate_samples, 2u) << "decrease and recovery must be visible";
  EXPECT_LE(rate_samples, 30u) << "per-AI-tick sampling floods the trace";
  EXPECT_NEAR(last, cfg.cc_line_rate / 1e6, 2.1)
      << "the track must still land at the recovered rate";
}

// -- per-link marking -------------------------------------------------------

// A self-marking link marks exactly the packets that serialize with at
// least ecn_queue_threshold more behind them: a burst of 8 into an
// 8-deep queue marks the first 5 and spares the last 3.  The identical
// burst through a default link (ecn_self_mark off) marks nothing — a
// dedicated point-to-point hop is busy, not congested.
TEST(CcMarking, BacklogMarksSaturatedLinkOnly) {
  sim::Engine eng;
  hw::LinkConfig lc;
  lc.queue_depth = 8;
  lc.ecn_self_mark = true;
  lc.ecn_queue_threshold = 3;

  std::uint64_t marked = 0, delivered = 0;
  hw::Link link{eng, "sat", lc,
                [&](hw::Packet&& p) {
                  ++delivered;
                  if (p.ecn) ++marked;
                }};

  hw::LinkConfig quiet_lc = lc;
  quiet_lc.ecn_self_mark = false;  // the repo default
  std::uint64_t marked_default = 0;
  hw::Link plain{eng, "plain", quiet_lc,
                 [&](hw::Packet&& p) { marked_default += p.ecn ? 1 : 0; }};

  eng.spawn([](sim::Engine& e, hw::Link& a, hw::Link& b) -> Task<void> {
    for (int i = 0; i < 8; ++i) {
      hw::Packet p;
      p.payload.resize(1024);
      p.enqueued_at = e.now();
      EXPECT_TRUE(a.in().try_send(p));
      EXPECT_TRUE(b.in().try_send(std::move(p)));
    }
    co_return;
  }(eng, link, plain));
  eng.run();

  EXPECT_EQ(delivered, 8u);
  EXPECT_EQ(link.ecn_marks(), 5u);
  EXPECT_EQ(marked, 5u);
  EXPECT_EQ(marked_default, 0u);
  EXPECT_EQ(plain.ecn_marks(), 0u);
}

// A trickle through the same self-marking link never marks: the queue is
// empty at every serialization start and utilization stays far below the
// windowed threshold.
TEST(CcMarking, QuietSelfMarkingLinkNeverMarks) {
  sim::Engine eng;
  hw::LinkConfig lc;
  lc.ecn_self_mark = true;

  std::uint64_t marked = 0;
  hw::Link link{eng, "trickle", lc,
                [&](hw::Packet&& p) { marked += p.ecn ? 1 : 0; }};

  eng.spawn([](sim::Engine& e, hw::Link& l) -> Task<void> {
    for (int i = 0; i < 16; ++i) {
      hw::Packet p;
      p.payload.resize(1024);
      p.enqueued_at = e.now();
      co_await l.in().send(std::move(p));
      co_await e.sleep(Time::us(100));  // far slower than the wire
    }
  }(eng, link));
  eng.run();

  EXPECT_EQ(marked, 0u);
  EXPECT_EQ(link.ecn_marks(), 0u);
}

// Wormhole-blocked marking: two injectors share one mesh egress link
// (nodes 0 and 1 of a 3x1 mesh both blasting node 2), with backlog
// marking disabled — the only congestion signal left is how long each
// router pump sat blocked pushing into the full bounded link queue.
// Packets that blocked past ecn_blocked_threshold arrive marked, the
// marks are attributed to the contended link as blocked_marks, and
// zeroing the threshold silences marking entirely even though the
// blocked-time telemetry still registers the congestion.
TEST(CcMarking, WormholeBlockedTimeMarksWithoutBacklog) {
  struct Run {
    std::uint64_t marked_rx = 0;
    std::uint64_t delivered = 0;
    std::uint64_t total_ecn = 0;       // across every mesh link
    std::uint64_t total_blocked = 0;   // across every mesh link
    std::uint64_t link_blocked_marks = 0;  // on the contended merge link
    double blocked_us = 0.0;               // on the contended merge link
  };
  const auto run = [](Time blocked_threshold) {
    sim::Engine eng;
    hw::MeshConfig mc;
    mc.link.ecn_queue_threshold = 0;  // isolate the blocked-marking rule
    mc.link.ecn_blocked_threshold = blocked_threshold;
    hw::MeshFabric fab{eng, 3, 1, mc};
    std::vector<std::unique_ptr<hw::Node>> nodes;
    for (hw::NodeId i = 0; i < 3; ++i) {
      nodes.push_back(std::make_unique<hw::Node>(eng, i));
      fab.attach(i, nodes.back()->nic());
    }
    constexpr int kPerSrc = 8;
    for (int src = 0; src < 2; ++src) {
      eng.spawn([](hw::Nic& nic) -> Task<void> {
        for (int k = 0; k < kPerSrc; ++k) {
          hw::Packet p;
          p.src_node = nic.node();
          p.dst_node = 2;
          p.payload.resize(4096);  // ~25.8us serialization per hop
          co_await nic.transmit(std::move(p));
        }
      }(nodes[static_cast<std::size_t>(src)]->nic()));
    }
    Run r;
    eng.spawn([](hw::Nic& nic, Run& r) -> Task<void> {
      for (int k = 0; k < 2 * kPerSrc; ++k) {
        hw::Packet p = co_await nic.rx().recv();
        ++r.delivered;
        if (p.ecn) ++r.marked_rx;
      }
    }(nodes[2]->nic(), r));
    eng.run();
    for (const auto& l : fab.congestion_report()) {
      r.total_ecn += l.ecn_marks;
      r.total_blocked += l.blocked_marks;
      if (l.name != "m1->2") continue;
      r.link_blocked_marks = l.blocked_marks;
      r.blocked_us = l.blocked_us;
    }
    return r;
  };

  const Run on = run(Time::us(25));
  EXPECT_EQ(on.delivered, 16u);
  EXPECT_GT(on.link_blocked_marks, 0u)
      << "a 2:1 wormhole merge must mark on blocking alone";
  EXPECT_EQ(on.total_ecn, on.total_blocked)
      << "with backlog marking off, every mark is a blocked mark";
  EXPECT_EQ(on.marked_rx, on.total_ecn) << "marks must survive to delivery";
  EXPECT_GT(on.blocked_us, 25.0);

  const Run off = run(Time::zero());
  EXPECT_EQ(off.delivered, 16u);
  EXPECT_EQ(off.marked_rx, 0u);
  EXPECT_EQ(off.total_ecn, 0u);
  EXPECT_GT(off.blocked_us, 25.0)
      << "telemetry still sees the blocking when marking is disabled";
}

// -- end-to-end propagation under faults ------------------------------------

hw::FaultPlan dup_heavy_faults(std::uint64_t seed) {
  hw::FaultPlan plan;
  plan.drop_prob = 0.01;
  plan.dup_prob = 0.03;  // duplicates stress the accepted-only counting
  plan.reorder_prob = 0.01;
  plan.seed = seed;
  return plan;
}

struct IncastResult {
  std::vector<int> per_src;
  std::uint64_t bad_payloads = 0;
};

// Blasts `senders` nodes at one receiver port and drains everything,
// verifying payload integrity per source.
IncastResult run_incast(bcl::BclCluster& c, int senders, hw::NodeId rx_node,
                        int per_sender, std::size_t bytes) {
  auto& rx = c.open_endpoint(rx_node);
  IncastResult res;
  res.per_src.assign(senders, 0);
  for (int s = 0; s < senders; ++s) {
    auto& tx = c.open_endpoint(static_cast<hw::NodeId>(s + 1));
    c.engine().spawn([](bcl::Endpoint& tx, bcl::PortId dst, int rank,
                        int count, std::size_t bytes) -> Task<void> {
      auto buf = tx.process().alloc(bytes);
      tx.process().fill_pattern(buf, static_cast<unsigned>(50 + rank));
      for (int i = 0; i < count; ++i) {
        auto r = co_await tx.send_system(dst, buf, bytes);
        EXPECT_EQ(r.err, bcl::BclErr::kOk);
        bcl::SendEvent ev = co_await tx.wait_send();
        EXPECT_TRUE(ev.ok) << "sender " << rank << " msg " << i;
      }
    }(tx, rx.id(), s, per_sender, bytes));
  }
  c.engine().spawn([](bcl::Endpoint& rx, int total, std::size_t bytes,
                      IncastResult& res) -> Task<void> {
    for (int i = 0; i < total; ++i) {
      bcl::RecvEvent ev = co_await rx.wait_recv();
      auto data = co_await rx.copy_out_system(ev);
      const unsigned seed = 50 + (ev.src.node - 1);
      bool ok = data.size() == bytes;
      for (std::size_t b = 0; ok && b < data.size(); ++b) {
        ok = data[b] ==
             static_cast<std::byte>((b * 197 + seed * 31 + 7) & 0xff);
      }
      if (!ok) ++res.bad_payloads;
      ++res.per_src[ev.src.node - 1];
    }
  }(rx, senders * per_sender, bytes, res));
  c.engine().run();
  return res;
}

// Shared postconditions: every payload intact, marks really happened in
// the fabric, the receiver counted marks on accepted deliveries only
// (never more than the fabric marked, never more than it accepted — a
// retransmitted or duplicated marked copy must not double-count), and at
// least one sender's rate controller heard echoes and throttled.
void check_cc_propagation(bcl::BclCluster& c, int senders,
                          hw::NodeId rx_node, int per_sender,
                          const IncastResult& res) {
  for (int s = 0; s < senders; ++s) {
    EXPECT_EQ(res.per_src[s], per_sender) << "sender " << s + 1;
  }
  EXPECT_EQ(res.bad_payloads, 0u);

  std::uint64_t fabric_marks = 0;
  for (const auto& l : c.fabric().congestion_report()) {
    fabric_marks += l.ecn_marks;
  }
  EXPECT_GT(fabric_marks, 0u) << "incast never congested the fabric";

  const auto& rx_stats = c.node(rx_node).mcp().recorder();
  EXPECT_GT(rx_stats.count(bcl::NicEvent::kEcnMarkRx), 0u);
  EXPECT_GT(rx_stats.count(bcl::NicEvent::kEcnEchoTx), 0u);
  // Accepted-only counting: the duplicates and go-back-N replays the
  // fault plan provoked (seq_drops) arrive marked too, and none of them
  // may be tallied twice.
  EXPECT_GT(rx_stats.count(bcl::NicEvent::kSeqDrop), 0u)
      << "fault plan never exercised dups";
  const std::uint64_t accepted = rx_stats.count(bcl::NicEvent::kRxPacket) -
                                 rx_stats.count(bcl::NicEvent::kCrcDrop) -
                                 rx_stats.count(bcl::NicEvent::kSeqDrop) -
                                 rx_stats.count(bcl::NicEvent::kNoPortDrop);
  EXPECT_LE(rx_stats.count(bcl::NicEvent::kEcnMarkRx), accepted);
  EXPECT_LE(rx_stats.count(bcl::NicEvent::kEcnMarkRx), fabric_marks);

  std::uint64_t echoes = 0, decreases = 0;
  for (int s = 0; s < senders; ++s) {
    const auto nid = static_cast<hw::NodeId>(s + 1);
    for (const auto& [dst, r] : c.node(nid).mcp().cc().rates()) {
      if (dst != rx_node) continue;
      echoes += r.echoes;
      decreases += r.decreases;
      // Quantization round trip: a sender that heard echoes must hold a
      // feedback level that decodes to a fraction in (0, 1] — the
      // receiver never emits level 0, and level/levels never exceeds 1
      // even for a saturated wire value.
      if (r.echoes > 0) {
        EXPECT_GT(r.feedback, 0.0) << "sender " << s;
        EXPECT_LE(r.feedback, 1.0) << "sender " << s;
      }
    }
    EXPECT_EQ(c.node(nid).mcp().unreachable_peers(), 0u) << "sender " << s;
  }
  EXPECT_GT(echoes, 0u) << "no echo ever reached a sender";
  EXPECT_GT(decreases, 0u) << "no sender ever throttled";
}

// 4x4 wormhole mesh, 6 senders converging on node 0 through the XY
// funnel, with drop/dup/reorder injected on the final column hop the
// whole incast shares ("m4->0").
TEST(CcPropagation, MeshIncastMarksSurviveSeededFaults) {
  constexpr int kSenders = 6;
  constexpr int kPerSender = 25;
  constexpr std::size_t kBytes = 1024;

  bcl::ClusterConfig cfg;
  cfg.nodes = 16;
  cfg.fabric.kind = hw::FabricKind::kNwrcMesh;
  cfg.fabric.mesh_width = 4;
  cfg.node.mem_bytes = 8u << 20;
  bcl::BclCluster c{cfg};
  c.fabric().link("m4->0").set_fault_plan(dup_heavy_faults(31));

  const auto res = run_incast(c, kSenders, 0, kPerSender, kBytes);
  check_cc_propagation(c, kSenders, 0, kPerSender, res);
}

// Same property through the source-routed crossbar fabric.  The faults sit
// on two senders' host uplinks — the only per-link injection point the
// fabric exposes on the data path — so duplicated copies cross the
// congested switch (where the marking happens) and arrive marked twice.
TEST(CcPropagation, MyrinetIncastMarksSurviveSeededFaults) {
  constexpr int kSenders = 8;
  constexpr int kPerSender = 25;
  constexpr std::size_t kBytes = 1024;

  bcl::ClusterConfig cfg;
  cfg.nodes = kSenders + 1;
  cfg.node.mem_bytes = 8u << 20;
  bcl::BclCluster c{cfg};
  const hw::NodeId rx_node = 0;
  auto& fab = dynamic_cast<hw::MyrinetFabric&>(c.fabric());
  fab.set_host_link_fault_plan(1, dup_heavy_faults(32));
  fab.set_host_link_fault_plan(2, dup_heavy_faults(33));

  const auto res = run_incast(c, kSenders, rx_node, kPerSender, kBytes);
  check_cc_propagation(c, kSenders, rx_node, kPerSender, res);
}

// A single drop on an otherwise-uncongested path must cost exactly one
// fast retransmit, no timeout, and zero pacing delay: the quiet-path
// pacer is wire-clocked (no cursor charge), so the go-back-N replay pays
// no phantom reservation debt, and the NewReno recovery fence keeps the
// replay's own duplicate cumulative acks from re-triggering it.  This is
// the regression test for the pacing-cursor-drift dup-ack storm (one
// drop snowballed into 4 fast retransmits + a spurious RTO).
TEST(CcQuietPath, SingleLossRecoversWithoutStorm) {
  constexpr std::uint64_t kMsgs = 40;
  constexpr std::size_t kBytes = 1024;

  bcl::ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.cost.rto = Time::us(300);
  bcl::BclCluster c{cfg};
  hw::FaultPlan plan;
  plan.drop_nth = {10};  // 11th data packet on the wire
  dynamic_cast<hw::MyrinetFabric&>(c.fabric()).set_host_link_fault_plan(
      0, plan);
  auto& tx = c.open_endpoint(0);
  auto& rx = c.open_endpoint(1);
  c.engine().spawn(
      [](bcl::Endpoint& tx, bcl::PortId dst) -> Task<void> {
        auto buf = tx.process().alloc(kBytes);
        for (std::uint64_t i = 0; i < kMsgs; ++i) {
          (void)co_await tx.send_system(dst, buf, kBytes);
        }
        for (std::uint64_t i = 0; i < kMsgs; ++i) {
          (void)co_await tx.wait_send();
        }
      }(tx, rx.id()));
  std::uint64_t delivered = 0;
  c.engine().spawn(
      [](bcl::Endpoint& rx, std::uint64_t& delivered) -> Task<void> {
        for (std::uint64_t i = 0; i < kMsgs; ++i) {
          auto ev = co_await rx.wait_recv();
          (void)co_await rx.copy_out_system(ev);
          ++delivered;
        }
      }(rx, delivered));
  c.engine().run();

  EXPECT_EQ(delivered, kMsgs);
  const auto& mcp = c.node(0).mcp();
  EXPECT_EQ(mcp.recorder().count(bcl::NicEvent::kFastRetransmit), 1u);
  EXPECT_EQ(mcp.recorder().count(bcl::NicEvent::kTimeout), 0u);
  // One dup-ack replay covers the hole plus the few packets behind it.
  EXPECT_LE(mcp.recorder().count(bcl::NicEvent::kRetransmit), 8u);
  const auto& rates = mcp.cc().rates();
  ASSERT_EQ(rates.size(), 1u);
  EXPECT_EQ(rates.begin()->second.paced_wait, Time::zero())
      << "quiet-path launches must be wire-clocked, not pacer-clocked";
  EXPECT_EQ(rates.begin()->second.echoes, 0u)
      << "a dedicated hop must never mark";
}

}  // namespace
