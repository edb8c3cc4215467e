#include "bcl/cc/controller.hpp"

#include <algorithm>
#include <cmath>

#include "sim/metrics.hpp"
#include "sim/trace.hpp"

namespace bcl::cc {

CongestionController::CongestionController(sim::Engine& eng,
                                           const CostConfig& cfg,
                                           std::string name,
                                           sim::Trace& trace,
                                           sim::MetricRegistry& metrics,
                                           FlightRecorder& recorder)
    : cfg_{cfg},
      name_{std::move(name)},
      prefix_{name_ + ".cc."},
      pacer_{eng, cfg},
      trace_{trace},
      recorder_{recorder} {
  metrics.add_collector([this](sim::MetricSink& out) { collect(out); });
}

void CongestionController::on_accepted(const hw::Packet& p) {
  EchoWindow& w = windows_[p.src_node];
  if (w.accepted == 0) w.start = pacer_.engine().now();
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
      pacer_.engine().now() - w.start < cfg_.cc_echo_window) {
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

sim::Task<void> CongestionController::pace(hw::NodeId dst,
                                           std::size_t bytes,
                                           bool reserve) {
  co_await pacer_.pace(dst, bytes, reserve);
  trace_rate(dst, pacer_.states().at(dst));
}

sim::Time CongestionController::stagger_delay(hw::NodeId dst) {
  return pacer_.stagger_delay(dst);
}

sim::Time CongestionController::drain_time(hw::NodeId dst,
                                           std::size_t bytes) {
  return pacer_.drain_time(dst, bytes);
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
  RateState& s = pacer_.state(dst);  // lazy-ticks the epoch clock first
  ++s.echoes;
  s.alpha = (1.0 - cfg_.cc_g) * s.alpha + cfg_.cc_g * f;
  s.feedback = f;
  const sim::Time now = pacer_.engine().now();
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
  double throttled = 0;
  double min_rate = cfg_.cc_line_rate;
  for (const auto& [dst, s] : pacer_.states()) {
    echoes += s.echoes;
    decreases += s.decreases;
    increases += s.increases;
    paced += s.paced_packets;
    paced_wait_us += s.paced_wait.to_us();
    if (s.rate < 0.9 * cfg_.cc_line_rate) ++throttled;
    min_rate = std::min(min_rate, s.rate);
  }
  out.counter(prefix_ + "echoes_rx", echoes);
  out.counter(prefix_ + "decreases", decreases);
  out.counter(prefix_ + "increases", increases);
  out.counter(prefix_ + "paced_packets", paced);
  out.gauge(prefix_ + "paced_wait_us", paced_wait_us);
  out.gauge(prefix_ + "throttled_peers", throttled);
  out.gauge(prefix_ + "min_rate_mbps", min_rate / 1e6);
}

}  // namespace bcl::cc
