// NIC-resident congestion control: both ends of the ECN echo loop and the
// per-destination rate law, one CongestionController per NIC.
//
// Congested links/routers/switches set Packet::ecn in flight.  The receiver
// half counts, per source, the packets the MCP accepted and how many
// arrived marked, and echoes Packet::ecn_echo aboard the acks, NACKs and
// credit updates going back: a QCN-style level, at most once per
// cc_echo_window, of ceil(levels * marked / accepted) out of
// cc_feedback_levels — or, under batch CNP semantics (cc_proportional
// off), the saturated byte 0xff at the first pending mark.  The sender
// half decodes each echo into an extent f in (0, 1] (f = 1 for 0xff or
// with cc_proportional off) and runs an AIMD rate per destination:
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
// fabric into go-back-N retransmit storms.  pace() is wait-then-reserve on
// a per-destination virtual transmit cursor (RateState::next_tx): it sleeps
// until the cursor, then advances it by the packet's serialization time at
// the current rate.  While a destination is at line rate with no recent
// congestion (alpha ~ 0), session traffic neither waits on nor charges the
// cursor — the wire is the clock for an uncongested flow, and letting
// reservations run ahead of the NIC tx queue's actual drain would make a
// later retransmit pay phantom delay.  Collective fan-out always reserves
// (it is burst-prone by construction), and once an echo raises alpha every
// path charges and waits, keeping burst shaping and fan-out stagger live
// through recovery until alpha decays over quiet epochs.
//
// The MCP only carries the loop's packets to on_accepted, attach_echo and
// take_echo.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>

#include "bcl/config.hpp"
#include "bcl/recorder.hpp"
#include "hw/packet.hpp"
#include "sim/engine.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace sim {
class MetricRegistry;
class MetricSink;
class Trace;
}

namespace bcl::cc {

// One destination's rate state.  `rate` is the paced launch rate in
// bytes/s, bounded to [cc_min_rate, cc_line_rate]; `alpha` is the EWMA
// congestion-extent estimate (DCQCN's alpha) that scales the
// multiplicative decrease.  There is no per-destination timer: epochs
// advance arithmetically whenever the state is touched.
struct RateState {
  double rate = 0.0;   // paced launch rate, bytes/s (0 until first touch)
  double alpha = 0.0;  // EWMA congestion extent in [0, 1]

  // Pacing cursor: earliest time the next launch may start.  pace() reserves
  // by advancing it; stagger_delay() only peeks.
  sim::Time next_tx = sim::Time::zero();

  // Epoch bookkeeping: at most one multiplicative decrease and one additive
  // increase per cc_epoch.
  sim::Time last_epoch = sim::Time::zero();     // last lazy-tick boundary
  sim::Time last_decrease = sim::Time::zero();  // last MD application
  bool decreased_once = false;  // distinguishes t=0 from "never cut"

  // Telemetry.
  double feedback = 0.0;  // last echo's quantized extent in (0, 1]; 0 = none
  std::uint64_t echoes = 0;         // ECN echoes applied to this destination
  std::uint64_t decreases = 0;      // multiplicative decreases taken
  std::uint64_t increases = 0;      // additive-increase epochs applied
  std::uint64_t paced_packets = 0;  // launches that went through pace()
  sim::Time paced_wait = sim::Time::zero();  // total launch delay added
};

class CongestionController {
 public:
  // Rate/echo counter tracks ("cc.<name>") go to `trace` while it is
  // enabled: one sample per rate change per destination.  The collector
  // registered in `metrics` writes "<name>.cc.echoes_rx/.decreases/
  // .increases/.paced_packets/.paced_wait_us/.throttled_peers/
  // .min_rate_mbps" (aggregated over destinations; this object must
  // outlive the registry's exports).  Marks received and echoes sent are
  // NIC events, counted in `recorder`.
  CongestionController(sim::Engine& eng, const CostConfig& cfg,
                       std::string name, sim::Trace& trace,
                       sim::MetricRegistry& metrics, FlightRecorder& recorder);

  // Counts accepted packet `p` in its source's echo window.  The MCP calls
  // it after the rx session's duplicate filter, so a mark counts at most
  // once per delivery.
  void on_accepted(const hw::Packet& p);
  // Puts the echo owed to p.dst_node, if one is due, aboard outbound `p`.
  void attach_echo(hw::Packet& p);
  // Forgets `src`'s window (its restart or fresh handshake), or every
  // window (local reboot).
  void forget(hw::NodeId src) { windows_.erase(src); }
  void forget_all() { windows_.clear(); }

  // Applies the echo aboard inbound packet `p`, if it carries one.
  void take_echo(const hw::Packet& p) { on_echo(p.src_node, p.ecn_echo); }
  // Applies echo byte `echo` from `dst` (0 is none): EWMA alpha toward its
  // extent f, and cut the rate by max(alpha, f)/2 — alpha/2 with
  // cc_proportional off — if this epoch has not already taken its cut.
  void on_echo(hw::NodeId dst, std::uint8_t echo);

  // Blocks until `dst`'s cursor allows a launch, then reserves `bytes` of
  // wire time at the current rate.  With `reserve` false (sessions,
  // retransmits, flow-control packets) a destination with no congestion
  // signal is wire-clocked: the call neither waits nor charges the cursor.
  // With `reserve` true (collective fan-out) the cursor is always charged,
  // so repeated fan-out toward the same child self-spaces even before the
  // first ECN echo arrives.
  sim::Task<void> pace(hw::NodeId dst, std::size_t bytes,
                       bool reserve = false);

  // How long a launch toward `dst` would wait right now (peek, no
  // reserve); the collective engine staggers fan-out with this without
  // double-charging the sessions that will pace the actual packets.
  sim::Time stagger_delay(hw::NodeId dst);

  // Serialization time of `bytes` at `dst`'s current rate; added to the
  // RTO for the unacked window so throttling never guarantees timeouts.
  sim::Time drain_time(hw::NodeId dst, std::size_t bytes);

  // Current paced rate toward `dst` (line rate if never congested).
  double rate_of(hw::NodeId dst) { return state(dst).rate; }

  // Current congestion-extent estimate (alpha) toward `dst`; the
  // collective engine breaks fan-out stagger ties with it.
  double congestion_extent(hw::NodeId dst) { return state(dst).alpha; }

  // Every destination's rate state, for diagnostics (the post-mortem
  // copies it).
  const std::map<hw::NodeId, RateState>& rates() const { return rates_; }

  // Whether `s` is meaningfully cut: below 0.9 x line rate.  A single
  // epoch's decrease at small alpha lands above it, so one stray mark
  // does not count a healthy destination as throttled.
  bool throttled(const RateState& s) const {
    return s.rate < 0.9 * cfg_.cc_line_rate;
  }

 private:
  // Accepted packets and marks since the first accepted packet after the
  // previous flush (idle gaps must not dilute the mark fraction).
  struct EchoWindow {
    std::uint32_t accepted = 0;
    std::uint32_t marked = 0;
    sim::Time start = sim::Time::zero();
  };

  // Lookup-or-create (new destinations start at line rate), then lazily
  // advance the AIMD epoch clock (tick).
  RateState& state(hw::NodeId dst);
  void tick(RateState& s);
  void trace_rate(hw::NodeId dst, const RateState& s);
  void collect(sim::MetricSink& out) const;

  sim::Engine& eng_;
  const CostConfig& cfg_;
  std::string name_;
  std::string prefix_;  // "<name>.cc.": the prefix of the series
  sim::Trace& trace_;
  FlightRecorder& recorder_;
  std::map<hw::NodeId, EchoWindow> windows_;
  std::map<hw::NodeId, RateState> rates_;
  // Last rate emitted per destination, so recovery shows up as a track
  // without sampling on every single pace() call.
  std::map<hw::NodeId, double> traced_rate_;
};

}  // namespace bcl::cc
