// NIC-resident congestion control under N-to-1 incast.
//
// N senders blast one receiver through the crossbar fabric.  The switch's
// input backlogs ECN-mark the converging packets, the receiving MCP echoes
// the marks on its acks, and every sender's rate controller must take at
// least one multiplicative decrease — then, once its traffic ends, climb
// back to at least 90% of line rate within the additive-increase bound
// (line/ai epochs from the floor, plus slack for a cut landing right at
// the start of the quiet period).
//
// The deep case (--deep) runs a 32-to-1 incast on the 6x6 wormhole mesh
// twice — once with quantized proportional feedback (the default), once
// with the echoes degraded to batch-CNP "congested, extent unknown" — and
// asserts the proportional run converges in measurably fewer decrease
// epochs, loses nothing, and leaves no sender misclassified as storming in
// the post-mortem.
//
// Flags: --smoke   shrink the run (CI sanitizer job)
//        --deep    run the 32-to-1 mesh A/B case instead of the 8-to-1
// Exit code 1 on any acceptance violation, in all modes.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "bench_util.hpp"
#include "bcl/bcl.hpp"
#include "bcl/postmortem.hpp"

namespace {

constexpr std::size_t kBytes = 1024;

struct SenderOutcome {
  std::uint64_t echoes = 0;
  std::uint64_t decreases = 0;
  double min_rate_mbps = 0.0;    // paced rate right after the last send
  double final_rate_mbps = 0.0;  // paced rate after the recovery window
};

struct Result {
  int senders = 0;
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t fabric_marks = 0;
  std::uint64_t blocked_marks = 0;
  std::uint64_t marks_rx = 0;
  std::uint64_t max_decreases = 0;  // convergence epochs (worst sender)
  std::uint64_t storming = 0;       // post-mortem "storming" verdicts
  std::vector<SenderOutcome> per_sender;
};

struct IncastOpts {
  bool mesh = false;          // 6x6 wormhole mesh instead of the crossbar
  bool proportional = true;   // quantized feedback vs batch CNP
  bool classify = false;      // run the post-mortem storm check per sender
  // Deep incast: a sender's short burst finishes long before the 32-wide
  // merge drains, and acks (with their echoes) keep arriving for
  // milliseconds.  Start the bounded recovery clock only once this
  // sender's echo count has been quiet for a few epochs, so the bound
  // measures recovery, not the tail of the incast.
  bool drain_aware = false;
};

Result run_incast(int senders, std::uint64_t per_sender,
                  const IncastOpts& opts = {}) {
  bcl::ClusterConfig cfg;
  cfg.nodes = static_cast<std::uint32_t>(senders) + 1;
  cfg.node.mem_bytes = 8u << 20;
  cfg.cost.cc_proportional = opts.proportional;
  if (opts.mesh) cfg.fabric.kind = hw::FabricKind::kNwrcMesh;
  bcl::BclCluster c{cfg};
  const auto rx_node = static_cast<hw::NodeId>(senders);
  auto& rx = c.open_endpoint(rx_node);

  // Recovery window: worst case is a cut to the floor at the very end of
  // the sender's traffic; additive increase needs (line - floor) / ai
  // epochs from there.  Four extra epochs absorb straggler echoes.
  const double worst_epochs =
      (cfg.cost.cc_line_rate - cfg.cost.cc_min_rate) / cfg.cost.cc_ai_rate;
  const sim::Time recovery = cfg.cost.cc_epoch * (worst_epochs + 4.0);

  Result res;
  res.senders = senders;
  res.sent = static_cast<std::uint64_t>(senders) * per_sender;
  res.per_sender.resize(static_cast<std::size_t>(senders));
  // Drain flag for the deep case: set once the receiver has copied out
  // every message.  Echoes ride acks and credit updates, so a sender's
  // feedback can arrive milliseconds after its own last send completed —
  // the recovery clock must not start while the merge is still draining.
  struct Drain {
    std::uint64_t got = 0;
    std::uint64_t want = 0;
    bool done = false;
  } drain;
  drain.want = res.sent;
  for (int s = 0; s < senders; ++s) {
    auto& tx = c.open_endpoint(static_cast<hw::NodeId>(s));
    c.engine().spawn([](sim::Engine& eng, bcl::BclCluster& c, bcl::Endpoint& tx,
                        bcl::PortId dst, hw::NodeId me, hw::NodeId rx_node,
                        std::uint64_t msgs, sim::Time recovery,
                        bool drain_aware, const bool* drained,
                        SenderOutcome& out) -> sim::Task<void> {
      auto buf = tx.process().alloc(kBytes);
      for (std::uint64_t i = 0; i < msgs; ++i) {
        (void)co_await tx.send_system(dst, buf, kBytes);
        (void)co_await tx.wait_send();
      }
      auto& cc = c.node(me).mcp().cc();
      out.min_rate_mbps = cc.rate_of(rx_node) / 1e6;
      if (drain_aware) {
        const sim::Time epoch = c.config().cost.cc_epoch;
        while (!*drained) {
          co_await eng.sleep(epoch);
          out.min_rate_mbps =
              std::min(out.min_rate_mbps, cc.rate_of(rx_node) / 1e6);
        }
        // The last echoes are at most one ack/credit round trip behind the
        // final delivery; wait for this sender's echo count to sit still.
        std::uint64_t echoes = 0;
        int quiet = 0;
        while (quiet < 8) {
          co_await eng.sleep(epoch);
          out.min_rate_mbps =
              std::min(out.min_rate_mbps, cc.rate_of(rx_node) / 1e6);
          const auto it = cc.rates().find(rx_node);
          const std::uint64_t e =
              it == cc.rates().end() ? 0 : it->second.echoes;
          quiet = e == echoes ? quiet + 1 : 0;
          echoes = e;
        }
      }
      co_await eng.sleep(recovery);
      out.final_rate_mbps = cc.rate_of(rx_node) / 1e6;
      if (const auto it = cc.rates().find(rx_node); it != cc.rates().end()) {
        out.echoes = it->second.echoes;
        out.decreases = it->second.decreases;
      }
    }(c.engine(), c, tx, rx.id(), static_cast<hw::NodeId>(s), rx_node,
      per_sender, recovery, opts.drain_aware, &drain.done,
      res.per_sender[static_cast<std::size_t>(s)]));
  }
  c.engine().spawn_daemon([](bcl::Endpoint& rx, Drain& d) -> sim::Task<void> {
    for (;;) {
      auto ev = co_await rx.wait_recv();
      (void)co_await rx.copy_out_system(ev);
      if (++d.got == d.want) d.done = true;
    }
  }(rx, drain));
  c.engine().run();

  res.delivered = rx.port().messages_received();
  for (const auto& l : c.fabric().congestion_report()) {
    res.fabric_marks += l.ecn_marks;
    res.blocked_marks += l.blocked_marks;
  }
  res.marks_rx =
      c.node(rx_node).mcp().recorder().count(bcl::NicEvent::kEcnMarkRx);
  for (const auto& s : res.per_sender) {
    res.max_decreases = std::max(res.max_decreases, s.decreases);
  }
  if (opts.classify) {
    // A sender that took real cuts but still retransmitted at line rate
    // would read "storming" here — the proportional cut must quench the
    // incast without ever manufacturing a retransmit storm.
    for (int s = 0; s < senders; ++s) {
      const auto pm = bcl::build_postmortem(
          c, static_cast<hw::NodeId>(s), "bench-deep-incast",
          static_cast<int>(rx_node), "bench", 4);
      for (const auto& r : pm.cc_rates) {
        if (r.state == "storming") ++res.storming;
      }
    }
  }
  return res;
}

void print_json(const Result& r, double line_mbps, bool ok,
                const char* bench = "cc_incast") {
  std::printf("{\"bench\":\"%s\",\"senders\":%d,\"sent\":%llu,"
              "\"delivered\":%llu,\"fabric_marks\":%llu,"
              "\"blocked_marks\":%llu,\"marks_rx\":%llu,"
              "\"line_mbps\":%.1f,\"per_sender\":[",
              bench, r.senders, (unsigned long long)r.sent,
              (unsigned long long)r.delivered,
              (unsigned long long)r.fabric_marks,
              (unsigned long long)r.blocked_marks,
              (unsigned long long)r.marks_rx, line_mbps);
  for (std::size_t i = 0; i < r.per_sender.size(); ++i) {
    const auto& s = r.per_sender[i];
    std::printf("%s{\"echoes\":%llu,\"decreases\":%llu,"
                "\"min_rate_mbps\":%.1f,\"final_rate_mbps\":%.1f}",
                i == 0 ? "" : ",", (unsigned long long)s.echoes,
                (unsigned long long)s.decreases, s.min_rate_mbps,
                s.final_rate_mbps);
  }
  std::printf("],\"ok\":%s}\n", ok ? "true" : "false");
}

// 32-to-1 deep incast on the mesh: proportional quantized feedback vs the
// same run with echoes degraded to batch CNP.  Returns the exit code.
int run_deep(bool smoke, double line_mbps) {
  const int senders = 32;
  const std::uint64_t per_sender = smoke ? 15 : 40;

  IncastOpts prop_opts;
  prop_opts.mesh = true;
  prop_opts.proportional = true;
  prop_opts.classify = true;
  prop_opts.drain_aware = true;
  const Result prop = run_incast(senders, per_sender, prop_opts);

  IncastOpts batch_opts;
  batch_opts.mesh = true;
  batch_opts.proportional = false;
  batch_opts.drain_aware = true;
  const Result batch = run_incast(senders, per_sender, batch_opts);

  // -- acceptance -----------------------------------------------------------
  // 1. The deep incast genuinely congested the mesh and the marks reached
  //    the receiver's controller loop.
  const bool marked = prop.fabric_marks > 0 && prop.marks_rx > 0;
  // 2. The wide majority of senders throttled (XY routing merges most of
  //    the incast along one column; a sender rooming next to the receiver
  //    can squeeze its burst through unmarked), and every sender ended the
  //    bounded recovery window back at line.
  int throttled = 0;
  bool all_recovered = true;
  for (const auto& s : prop.per_sender) {
    if (s.decreases >= 1 && s.echoes >= 1) ++throttled;
    all_recovered = all_recovered && s.final_rate_mbps >= 0.9 * line_mbps;
  }
  const bool all_throttled = throttled >= (3 * senders) / 4;
  // 3. Convergence bound: a saturated quantized echo cuts to half line in
  //    one epoch, where batch CNP needs many alpha/2 nibbles — the worst
  //    proportional sender must converge in strictly fewer decrease epochs.
  const bool converged_faster = prop.max_decreases < batch.max_decreases;
  // 4. Rate control throttles, it does not lose — in either mode.
  const bool lossless =
      prop.delivered == prop.sent && batch.delivered == batch.sent;
  // 5. No sender's post-mortem verdict reads "storming": the deep incast
  //    was quenched by pacing, not survived by retransmission.
  const bool no_storm = prop.storming == 0;
  const bool ok =
      marked && all_throttled && all_recovered && converged_faster &&
      lossless && no_storm;

  if (!smoke) {
    benchutil::header("CC deep incast",
                      "proportional vs batch feedback, 32-to-1 on the mesh");
    benchutil::claim(
        "quantized congestion feedback quenches a deep incast in fewer "
        "multiplicative-decrease epochs than a single-bit CNP echo");
    std::printf("%d senders x %llu msgs x %zu B -> node %d (6x6 mesh)\n",
                senders, (unsigned long long)per_sender, kBytes, senders);
    std::printf("proportional: fabric marks %llu (%llu wormhole-blocked), "
                "echoed %llu\n",
                (unsigned long long)prop.fabric_marks,
                (unsigned long long)prop.blocked_marks,
                (unsigned long long)prop.marks_rx);
  }
  std::printf("decrease epochs to converge (worst sender): "
              "proportional %llu vs batch %llu\n",
              (unsigned long long)prop.max_decreases,
              (unsigned long long)batch.max_decreases);
  std::printf("\"deep\": {\"prop_epochs\":%llu,\"batch_epochs\":%llu,"
              "\"storming\":%llu}\n",
              (unsigned long long)prop.max_decreases,
              (unsigned long long)batch.max_decreases,
              (unsigned long long)prop.storming);
  print_json(prop, line_mbps, ok, "cc_incast_deep_prop");
  print_json(batch, line_mbps, ok, "cc_incast_deep_batch");
  if (!smoke) {
    std::printf("\nincast marked and echoed:             %s\n",
                marked ? "ok" : "DIFF");
    std::printf("every sender throttled (>=1 cut):     %s\n",
                all_throttled ? "ok" : "DIFF");
    std::printf("every sender recovered to >=90%% line: %s\n",
                all_recovered ? "ok" : "DIFF");
    std::printf("proportional converged faster:        %s\n",
                converged_faster ? "ok" : "DIFF");
    std::printf("nothing lost in either mode:          %s\n",
                lossless ? "ok" : "DIFF");
    std::printf("no sender classified storming:        %s\n",
                no_storm ? "ok" : "DIFF");
  }
  std::printf("cc deep incast: %s\n", ok ? "ok" : "DIFF");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool deep = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--deep") == 0) deep = true;
  }
  const double line_mbps = bcl::ClusterConfig{}.cost.cc_line_rate / 1e6;
  if (deep) return run_deep(smoke, line_mbps);

  const int senders = smoke ? 4 : 8;
  const std::uint64_t per_sender = smoke ? 25 : 60;

  const Result r = run_incast(senders, per_sender);

  // -- acceptance -------------------------------------------------------------
  // 1. The incast genuinely congested the fabric and the marks made it to
  //    the receiver's controller loop.
  const bool marked = r.fabric_marks > 0 && r.marks_rx > 0;
  // 2. Every sender throttled: at least one multiplicative decrease.
  // 3. Every sender recovered to >= 90% of line within the bounded
  //    recovery window.
  bool all_throttled = true, all_recovered = true;
  for (const auto& s : r.per_sender) {
    all_throttled = all_throttled && s.decreases >= 1 && s.echoes >= 1;
    all_recovered = all_recovered && s.final_rate_mbps >= 0.9 * line_mbps;
  }
  // 4. Rate control throttles, it does not lose: every message landed.
  const bool lossless = r.delivered == r.sent;
  const bool ok = marked && all_throttled && all_recovered && lossless;

  if (smoke) {
    print_json(r, line_mbps, ok);
    std::printf("cc incast smoke: %s\n", ok ? "ok" : "DIFF");
    return ok ? 0 : 1;
  }

  benchutil::header("CC incast", "ECN-driven rate control under N-to-1");
  benchutil::claim(
      "every sender converging on one receiver is throttled by echoed ECN "
      "marks and recovers to line rate once the incast ends");
  std::printf("%d senders x %llu msgs x %zu B -> node %d\n", r.senders,
              (unsigned long long)per_sender, kBytes, r.senders);
  std::printf("fabric marks %llu, accepted at receiver %llu\n",
              (unsigned long long)r.fabric_marks,
              (unsigned long long)r.marks_rx);
  std::printf("%7s %8s %10s %14s %16s\n", "sender", "echoes", "decreases",
              "rate@end(MB/s)", "rate+recov(MB/s)");
  for (std::size_t i = 0; i < r.per_sender.size(); ++i) {
    const auto& s = r.per_sender[i];
    std::printf("%7zu %8llu %10llu %14.1f %16.1f\n", i,
                (unsigned long long)s.echoes, (unsigned long long)s.decreases,
                s.min_rate_mbps, s.final_rate_mbps);
  }
  std::printf("\nincast marked and echoed:            %s\n",
              marked ? "ok" : "DIFF");
  std::printf("every sender throttled (>=1 cut):    %s\n",
              all_throttled ? "ok" : "DIFF");
  std::printf("every sender recovered to >=90%% line: %s\n",
              all_recovered ? "ok" : "DIFF");
  std::printf("nothing lost (%llu/%llu delivered):  %s\n",
              (unsigned long long)r.delivered, (unsigned long long)r.sent,
              lossless ? "ok" : "DIFF");
  print_json(r, line_mbps, ok);
  return ok ? 0 : 1;
}
