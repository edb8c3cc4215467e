#include "bcl/cc/controller.hpp"

#include <algorithm>
#include <cmath>

#include "sim/metrics.hpp"
#include "sim/trace.hpp"

namespace bcl::cc {

namespace {

// Alpha below this is "no recent congestion": one echo sets alpha to
// cc_g (1/16) and quiet epochs decay it by (1-g) each, so shaping stays
// on for ~2 dozen epochs (~1.5 ms) after the last mark, then the
// destination goes back to being wire-clocked.
constexpr double kQuietAlpha = 0.01;

}  // namespace

CongestionController::CongestionController(sim::Engine& eng,
                                           const CostConfig& cfg,
                                           std::string name,
                                           sim::Trace& trace,
                                           sim::MetricRegistry& metrics,
                                           FlightRecorder& recorder)
    : eng_{eng},
      cfg_{cfg},
      name_{std::move(name)},
      prefix_{name_ + ".cc."},
      trace_{trace},
      recorder_{recorder} {
  metrics.add_collector([this](sim::MetricSink& out) { collect(out); });
}

void CongestionController::on_accepted(const hw::Packet& p) {
  EchoWindow& w = windows_[p.src_node];
  if (w.accepted == 0) w.start = eng_.now();
  ++w.accepted;
  if (p.ecn) {
    ++w.marked;
    recorder_.add(NicEvent::kEcnMarkRx);
  }
}

void CongestionController::attach_echo(hw::Packet& p) {
  const auto it = windows_.find(p.dst_node);
  if (it == windows_.end()) return;
  EchoWindow& w = it->second;
  if (!cfg_.cc_proportional) {
    // Batch CNP semantics: any pending mark echoes immediately at full
    // strength; the window is just the pending-marks ledger.
    if (w.marked == 0) return;
    p.ecn_echo = 0xff;
    w = EchoWindow{};
    recorder_.add(NicEvent::kEcnEchoTx);
    return;
  }
  // QCN-style quantization: let the window fill before judging it — an
  // echo per ack would make every sample binary (1 packet, marked or not).
  if (w.accepted == 0 ||
      eng_.now() - w.start < cfg_.cc_echo_window) {
    return;
  }
  if (w.marked == 0) {
    w = EchoWindow{};  // quiet window: roll it, nothing to echo
    return;
  }
  const auto levels = static_cast<std::uint32_t>(
      std::min(255, std::max(1, cfg_.cc_feedback_levels)));
  // ceil(levels * marked / accepted), clamped to [1, levels]: on_echo
  // divides by cc_feedback_levels to recover the mark fraction.
  const std::uint32_t lvl = std::min(
      levels, (levels * w.marked + w.accepted - 1) / w.accepted);
  p.ecn_echo = static_cast<std::uint8_t>(std::max(1u, lvl));
  w = EchoWindow{};
  recorder_.add(NicEvent::kEcnEchoTx);
}

void CongestionController::trace_rate(hw::NodeId dst, const RateState& s) {
  if (!trace_.enabled()) return;
  double& last = traced_rate_[dst];
  // Relative threshold: rates live near 1e8 bytes/s, so an absolute
  // epsilon would emit a counter point for every +2MB/s AI tick and a long
  // recovery would flood the bounded trace buffer (evicting message events
  // via trace_event_cap).  A 3% move keeps the smallest multiplicative cut
  // visible (g/2 ~ 3.1% in batch mode; the proportional minimum f/2 is
  // 1/16) and samples a half-to-line recovery in ~2 dozen points.  The
  // first sample (last == 0) always emits.
  if (last != 0.0 && std::abs(s.rate - last) < 0.03 * std::abs(last)) return;
  last = s.rate;
  trace_.counter("cc." + name_, "rate_mbps.n" + std::to_string(dst),
                  s.rate / 1e6);
  trace_.counter("cc." + name_, "alpha.n" + std::to_string(dst), s.alpha);
}

// Lazy epoch advance.  Epochs elapse purely arithmetically (no per-epoch
// loop, so a destination idle for seconds is caught up in O(1)): n quiet
// epochs decay alpha by (1-g)^n and recover n * cc_ai_rate of rate, clamped
// to line rate.  Echo-driven decreases happen in on_echo, between ticks;
// the tick only ever recovers.
void CongestionController::tick(RateState& s) {
  const sim::Time now = eng_.now();
  const double epoch_us = cfg_.cc_epoch.to_us();
  if (epoch_us <= 0.0) return;
  const auto n = static_cast<std::int64_t>(
      (now - s.last_epoch).to_us() / epoch_us);
  if (n <= 0) return;
  s.last_epoch += cfg_.cc_epoch * static_cast<double>(n);
  double decay = 1.0;
  for (std::int64_t i = 0; i < std::min<std::int64_t>(n, 64); ++i) {
    decay *= 1.0 - cfg_.cc_g;  // (1-g)^min(n,64); beyond that alpha ~ 0
  }
  s.alpha *= decay;
  if (s.rate < cfg_.cc_line_rate && cfg_.cc_ai_rate > 0.0) {
    // Count only the AI steps that moved the rate: recovery may clamp at
    // line rate partway through the n quiet epochs, and crediting the
    // remainder would inflate the increases counter (skewing the
    // postmortem's storming/recovering read of a long-idle destination).
    const double deficit = cfg_.cc_line_rate - s.rate;
    const auto effective = std::min<std::int64_t>(
        n, static_cast<std::int64_t>(std::ceil(deficit / cfg_.cc_ai_rate)));
    s.rate = std::min(cfg_.cc_line_rate,
                      s.rate + cfg_.cc_ai_rate * static_cast<double>(n));
    s.increases += static_cast<std::uint64_t>(effective);
  }
}

RateState& CongestionController::state(hw::NodeId dst) {
  RateState& s = rates_[dst];
  if (s.rate <= 0.0) {
    s.rate = cfg_.cc_line_rate;  // first touch: start uncongested
    s.last_epoch = eng_.now();
  }
  tick(s);
  return s;
}

sim::Task<void> CongestionController::pace(hw::NodeId dst,
                                           std::size_t bytes,
                                           bool reserve) {
  RateState& s = state(dst);
  ++s.paced_packets;
  if (!reserve && s.rate >= cfg_.cc_line_rate && s.alpha < kQuietAlpha) {
    // No congestion signal on this destination: the wire is the clock, so
    // session traffic must not charge the cursor.  The cursor tracks
    // reservations, not transmissions — a window-gated burst would push it
    // ahead of the NIC tx queue's actual drain (per-packet overhead makes
    // the wire slower than bytes/line), and a later retransmit would then
    // pay that phantom debt, turning one lost packet into a dup-ack storm.
    // The cursor is still a fence, though: if always-reserve traffic (a
    // window replay, collective fan-out) holds outstanding reservations,
    // wait them out — overtaking a paced replay through the tx mutex
    // reorders the flow past the go-back-N hole and manufactures dup acks.
    // Re-check after each sleep: an in-flight replay keeps charging the
    // cursor while we wait, and leaving early would still overtake it.
    while (s.next_tx > eng_.now()) {
      const sim::Time wait = s.next_tx - eng_.now();
      s.paced_wait += wait;
      co_await eng_.sleep(wait);
    }
  } else {
    const sim::Time now = eng_.now();
    const sim::Time start = std::max(s.next_tx, now);
    s.next_tx = start + sim::Time::bytes_at(bytes, s.rate);
    if (start > now) {
      s.paced_wait += start - now;
      co_await eng_.sleep(start - now);
    }
  }
  trace_rate(dst, s);
}

sim::Time CongestionController::stagger_delay(hw::NodeId dst) {
  const RateState& s = state(dst);
  const sim::Time now = eng_.now();
  return s.next_tx > now ? s.next_tx - now : sim::Time::zero();
}

sim::Time CongestionController::drain_time(hw::NodeId dst,
                                           std::size_t bytes) {
  return sim::Time::bytes_at(bytes, state(dst).rate);
}

void CongestionController::on_echo(hw::NodeId dst, std::uint8_t echo) {
  if (echo == 0) return;  // no echo aboard
  // Quantized congestion extent: f = level/levels in (0, 1].  The
  // saturated byte (batch CNP) means "congested, extent unknown" and is
  // treated as full strength; with cc_proportional off the extent is
  // ignored entirely and the classic DCQCN alpha/2 cut applies.
  double f = 1.0;
  if (cfg_.cc_proportional && echo != 0xff && cfg_.cc_feedback_levels > 0) {
    f = std::min(1.0, static_cast<double>(echo) /
                          static_cast<double>(cfg_.cc_feedback_levels));
  }
  RateState& s = state(dst);  // lazy-ticks the epoch clock first
  ++s.echoes;
  s.alpha = (1.0 - cfg_.cc_g) * s.alpha + cfg_.cc_g * f;
  s.feedback = f;
  const sim::Time now = eng_.now();
  // At most one multiplicative decrease per epoch: a burst of echoes from
  // one congested window must not collapse the rate to the floor in one
  // step — DCQCN's rate-decrease timer, lazy-ticked.
  if (!s.decreased_once || now - s.last_decrease >= cfg_.cc_epoch) {
    const double cut =
        cfg_.cc_proportional ? std::max(s.alpha, f) / 2.0 : s.alpha / 2.0;
    s.rate = std::max(cfg_.cc_min_rate, s.rate * (1.0 - cut));
    s.last_decrease = now;
    s.decreased_once = true;
    ++s.decreases;
    trace_rate(dst, s);
  }
}

void CongestionController::collect(sim::MetricSink& out) const {
  std::uint64_t echoes = 0, decreases = 0, increases = 0, paced = 0;
  double paced_wait_us = 0;
  double throttled_peers = 0;
  double min_rate = cfg_.cc_line_rate;
  for (const auto& [dst, s] : rates_) {
    echoes += s.echoes;
    decreases += s.decreases;
    increases += s.increases;
    paced += s.paced_packets;
    paced_wait_us += s.paced_wait.to_us();
    if (throttled(s)) ++throttled_peers;
    min_rate = std::min(min_rate, s.rate);
  }
  out.counter(prefix_ + "echoes_rx", echoes);
  out.counter(prefix_ + "decreases", decreases);
  out.counter(prefix_ + "increases", increases);
  out.counter(prefix_ + "paced_packets", paced);
  out.gauge(prefix_ + "paced_wait_us", paced_wait_us);
  out.gauge(prefix_ + "throttled_peers", throttled_peers);
  out.gauge(prefix_ + "min_rate_mbps", min_rate / 1e6);
}

}  // namespace bcl::cc
