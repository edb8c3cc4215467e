// NIC-resident congestion controller (the sender half of the ECN loop).
//
// Congested links/routers/switches set Packet::ecn in flight; the
// receiving MCP echoes the marks back piggybacked on acks, NACKs and
// credit grants (Packet::ecn_echo carries a QCN-style quantized level,
// the fraction of accepted packets marked over the echo window).  This
// controller consumes those echoes and runs an AIMD rate per destination,
// scaling the multiplicative decrease by the echoed extent f in (0, 1]
// (f = 1 under batch CNP semantics or when cc_proportional is off):
//
//   echo:        alpha <- (1-g)*alpha + g*f, then (at most once per epoch)
//                rate  <- max(min_rate, rate * (1 - max(alpha, f)/2))
//   quiet epoch: alpha <- (1-g)*alpha,       rate <- min(line, rate + ai)
//
// Cutting by max(alpha, f)/2 lets a fully-marked deep incast halve the
// rate on its very first echo (alpha has not learned yet, f = 1) instead
// of inching down at alpha/2 per epoch, while a grazing mark (f = 1/levels)
// still only dents the rate.
//
// Everything launching toward a destination — data, retransmits,
// flow-control packets, collective fan-out — goes through pace(), so a
// storming sender throttles itself at the source instead of melting the
// fabric into go-back-N retransmit storms.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bcl/config.hpp"
#include "hw/packet.hpp"
#include "sim/engine.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

#include "bcl/cc/pacer.hpp"
#include "bcl/cc/rate.hpp"

namespace sim {
class MetricRegistry;
class MetricSink;
class Trace;
}

namespace bcl::cc {

// Point-in-time copy of one destination's rate state, as folded into the
// post-mortem dump.
struct RateSnapshot {
  hw::NodeId dst = 0;
  double rate = 0.0;   // bytes/s
  double alpha = 0.0;
  double feedback = 0.0;  // last echoed congestion extent in (0, 1]
  std::uint64_t echoes = 0;
  std::uint64_t decreases = 0;
  std::uint64_t increases = 0;
  std::uint64_t paced_packets = 0;
  double paced_wait_us = 0.0;
};

class CongestionController {
 public:
  // Rate/echo counter tracks ("cc.<name>") go to `trace` while it is
  // enabled: one sample per rate change per destination.  The collector
  // registered in `metrics` writes "<name>.cc.echoes_rx/.decreases/
  // .increases/.paced_packets/.paced_wait_us/.throttled_peers/
  // .min_rate_mbps" (aggregated over destinations; this object must
  // outlive the registry's exports).
  CongestionController(sim::Engine& eng, const CostConfig& cfg,
                       std::string name, sim::Trace& trace,
                       sim::MetricRegistry& metrics);

  // Wait until `dst`'s pacing cursor allows launching `bytes`.  With
  // `reserve` true the cursor is always charged (collective fan-out);
  // otherwise quiet destinations are wire-clocked (see Pacer::pace).
  sim::Task<void> pace(hw::NodeId dst, std::size_t bytes,
                       bool reserve = false);

  // Peek how long a launch toward `dst` would currently wait (no reserve);
  // the collective engine staggers fan-out with this.
  sim::Time stagger_delay(hw::NodeId dst);

  // Serialization time of `bytes` at `dst`'s current rate; added to the
  // RTO for the unacked window so throttling never guarantees timeouts.
  sim::Time drain_time(hw::NodeId dst, std::size_t bytes);

  // Echoes with this level (the default) are treated as full-strength
  // regardless of cc_feedback_levels — the batch-CNP "congestion, extent
  // unknown" signal.
  static constexpr unsigned kEchoSaturated = ~0u;

  // Apply one quantized ECN echo from `dst`: EWMA alpha toward the echoed
  // extent f = level/cc_feedback_levels, and cut the rate by
  // max(alpha, f)/2 if this epoch has not already taken its cut.  With
  // cc_proportional off the level is ignored (classic alpha/2 cut).
  void on_echo(hw::NodeId dst, unsigned level = kEchoSaturated);

  // Current paced rate toward `dst` (line rate if never congested).
  double rate_of(hw::NodeId dst) { return pacer_.state(dst).rate; }

  // Current congestion-extent estimate (alpha) toward `dst`; the
  // collective engine breaks fan-out stagger ties with it.
  double congestion_extent(hw::NodeId dst) {
    return pacer_.state(dst).alpha;
  }

  std::vector<RateSnapshot> snapshot() const;

  const CostConfig& cfg() const { return cfg_; }

 private:
  void trace_rate(hw::NodeId dst, const RateState& s);
  void collect(sim::MetricSink& out) const;

  const CostConfig& cfg_;
  std::string name_;
  std::string prefix_;  // "<name>.cc.": the prefix of the series
  Pacer pacer_;
  sim::Trace& trace_;
  // Last rate emitted per destination, so recovery shows up as a track
  // without sampling on every single pace() call.
  std::map<hw::NodeId, double> traced_rate_;
};

}  // namespace bcl::cc
