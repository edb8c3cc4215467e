// Point-to-point link and the fabric abstraction.
//
// A Link serializes packets at its bandwidth, optionally corrupts them
// (fault injection for the reliability tests), and delivers them to a sink
// callback after a propagation delay.  Links have a small input queue, so
// upstream senders feel backpressure, approximating wormhole flow control.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "hw/packet.hpp"
#include "sim/engine.hpp"
#include "sim/queue.hpp"
#include "sim/random.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace sim {
class MetricRegistry;
class MetricSink;
class Trace;
}

namespace hw {

class Nic;

// A network fabric: wires NICs together and knows how to route.
class Fabric {
 public:
  virtual ~Fabric() = default;

  // Congestion snapshot for one link, as returned by congestion_report().
  struct LinkStats {
    std::string name;
    double util = 0;           // lifetime busy fraction of the wire
    double busy_us = 0;        // total serialization time
    double queue_wait_us = 0;  // time packets sat in the input queue
    double blocked_us = 0;     // upstream wormhole-blocking time
    std::size_t queue_hwm = 0; // input-queue occupancy high-water
    std::uint64_t packets = 0;
    std::uint64_t retx_packets = 0;  // go-back-N resends through this link
    std::uint64_t dropped = 0;       // fault-plan discards
    std::uint64_t ecn_marks = 0;     // packets ECN-marked at this link
    std::uint64_t blocked_marks = 0; // of those, marked for wormhole blocking
    std::uint64_t failed_drops = 0;  // discarded by persistent fail-stop
  };

  // Connects `nic` as node `id`; must be called exactly once per node.
  virtual void attach(NodeId id, Nic& nic) = 0;
  // Fills in the packet's source route (no-op for fabrics that route
  // in-network, like the 2-D mesh).
  virtual void stamp_route(Packet& p) const = 0;
  virtual std::string name() const = 0;
  // Minimum number of link hops between two nodes (for latency models).
  virtual int hops(NodeId a, NodeId b) const = 0;
  // Number of distinct paths the fabric can offer between two nodes.
  // Fabrics with in-network or single-path routing report 1; the MCP's
  // path table sizes its per-destination health state from this.
  virtual int route_count(NodeId, NodeId) const { return 1; }
  // Position of a node along a locality-preserving curve through the
  // fabric's geometry: nodes near each other on the curve are few hops
  // apart.  -1 on fabrics with no geometry worth following (a switched
  // crossbar puts every pair of hosts the same distance apart).  NIC
  // collective groups lay their trees along it (coll::tree_order).
  virtual std::int64_t curve_index(NodeId) const { return -1; }
  // Exports wire-level observability (per-link bytes/packets/queue depth,
  // per-switch forward counts) through one collector for the whole
  // fabric.  Call after every node is attached; the fabric must outlive
  // the registry's exports.
  virtual void register_metrics(sim::MetricRegistry&) const {}
  // Congestion snapshot across every link (unordered); used by the
  // post-mortem dump to rank the hottest links.
  virtual std::vector<LinkStats> congestion_report() const { return {}; }
  // Names of the links directly adjacent to `node` (its ingress/egress
  // edges); the post-mortem lists these as suspects for a failed peer.
  virtual std::vector<std::string> links_of(NodeId) const { return {}; }
  // Attaches a trace so links emit wire/queue-wait spans for the
  // latency-attribution pipeline (recorded only while the trace is
  // enabled).  The trace must outlive the fabric's traffic.
  virtual void set_trace(sim::Trace*) {}
};

struct LinkConfig {
  double bandwidth = 160e6;                   // bytes/s (1.28 Gb/s Myrinet)
  sim::Time propagation = sim::Time::ns(50);  // cable flight time
  // Fixed per-packet cost on the wire: inter-packet gap, route/CRC bytes,
  // and the sending DMA engine's startup.  This is what keeps sustained
  // payload bandwidth below the raw link rate (BCL: 146 of 160 MB/s).
  sim::Time per_packet = sim::Time::zero();
  // Cut-through (wormhole) forwarding: the downstream hop sees the packet
  // after only the header has arrived, while this link stays occupied for
  // the full serialization time (contention is still modelled).  The final
  // link into a NIC must NOT be cut-through, so end-to-end latency pays
  // exactly one full serialization, as in a real wormhole network.
  bool cut_through = false;
  double corrupt_prob = 0.0;                  // fault injection
  std::size_t queue_depth = 4;
  // ECN marking (congestion notification for the NIC-resident rate
  // controller).  Routers and switches apply `ecn_queue_threshold` to their
  // own input backlog — that is where a wormhole fabric's congestion
  // actually accumulates, and those queues are shared between flows.  A
  // plain Link only marks when `ecn_self_mark` is set: a dedicated
  // point-to-point hop carrying one backpressured flow is busy, not
  // congested, and marking it would throttle solo senders below line rate
  // for no benefit.  With self-marking on, a packet is marked at
  // serialization start when the input queue still holds at least
  // `ecn_queue_threshold` more packets behind it (0 disables occupancy
  // marking), or when the wire's utilization over the trailing
  // `ecn_util_window` crossed `ecn_util_threshold`.
  bool ecn_self_mark = false;
  std::size_t ecn_queue_threshold = 3;
  double ecn_util_threshold = 0.90;
  sim::Time ecn_util_window = sim::Time::us(50);
  // Wormhole-blocked marking (routers/crossbar input ports, not plain
  // Links): a packet whose push into the downstream link's bounded queue
  // blocked for at least this long is ECN-marked even if no backlog ever
  // formed behind it — wormhole fabrics congest by blocking, and under a
  // wide shallow incast every input port can hold exactly one packet
  // (below ecn_queue_threshold) while the tree stalls.  Roughly one
  // MTU serialization at line rate by default; zero disables.
  sim::Time ecn_blocked_threshold = sim::Time::us(25);
};

// Deterministic fault schedule for one link.  All random draws come from a
// dedicated xoshiro stream seeded by `seed`, so a run replays bit-exactly
// regardless of what the rest of the simulation does with its generators.
struct FaultPlan {
  double drop_prob = 0.0;     // packet vanishes after serialization
  double dup_prob = 0.0;      // packet delivered twice
  double reorder_prob = 0.0;  // packet delayed so a later one overtakes it
  double corrupt_prob = 0.0;  // CRC-style payload corruption
  // Extra delivery delay applied to reordered packets; anything serialized
  // within this window passes them on the wire.
  sim::Time reorder_delay = sim::Time::us(8);
  // Deterministic drops by link-packet ordinal (0-based, sorted or not):
  // lets a bench kill exactly the Nth packet for replayable single-loss
  // experiments.
  std::vector<std::uint64_t> drop_nth;
  // Time-windowed fail-stop: every packet whose serialization starts in
  // [fail_from, fail_until) is silently discarded.  Time::max() disables.
  sim::Time fail_from = sim::Time::max();
  sim::Time fail_until = sim::Time::max();
  std::uint64_t seed = 1;

  bool active() const {
    return drop_prob > 0.0 || dup_prob > 0.0 || reorder_prob > 0.0 ||
           corrupt_prob > 0.0 || !drop_nth.empty() ||
           fail_from != sim::Time::max();
  }
};

class Link;

// Writes one link's "fabric.link.<name>.bytes/.packets/.corrupted/
// .dropped/.duplicated/.reordered/.busy_us/.queue/..." series (a fabric's
// collector calls it for each of its links).
void write_link_series(sim::MetricSink& out, const Link& link);

class Link {
 public:
  using Sink = std::function<void(Packet&&)>;

  Link(sim::Engine& eng, std::string name, const LinkConfig& cfg, Sink sink,
       std::uint64_t seed = 1);

  // Senders push packets here; send() blocks when the queue is full.
  sim::Channel<Packet>& in() { return in_; }

  const std::string& name() const { return name_; }
  std::uint64_t packets() const { return packets_; }
  std::uint64_t bytes() const { return bytes_; }
  std::uint64_t corrupted() const { return corrupted_; }
  std::uint64_t dropped() const { return dropped_; }
  std::uint64_t duplicated() const { return duplicated_; }
  std::uint64_t reordered() const { return reordered_; }
  sim::Time busy_time() const { return busy_; }
  std::size_t queue_depth() const { return in_.size(); }

  // -- congestion telemetry --------------------------------------------------
  // Time packets spent in the input queue (from the sender's push, stamped
  // in Packet::enqueued_at, to the start of serialization).
  sim::Time queue_wait() const { return queue_wait_; }
  // Input-queue occupancy high-water mark (includes the packet in service).
  std::size_t queue_hwm() const { return queue_hwm_; }
  // Go-back-N retransmissions that crossed this link.
  std::uint64_t retx_packets() const { return retx_packets_; }
  // Packets ECN-marked here (by the pump's own thresholds, or attributed by
  // the upstream router/switch that marked while pushing into this link).
  std::uint64_t ecn_marks() const { return ecn_marks_; }
  void note_ecn_mark() { ++ecn_marks_; }
  // Subset of ecn_marks() attributed to wormhole blocking: the upstream
  // pump was stalled pushing into this link for at least
  // ecn_blocked_threshold, with no deep backlog behind the packet.
  std::uint64_t blocked_marks() const { return blocked_marks_; }
  void note_blocked_mark() {
    ++ecn_marks_;
    ++blocked_marks_;
  }
  // Time upstream pumps (router/switch/NIC) spent blocked trying to push
  // into this link's full queue — wormhole head-of-line blocking.
  sim::Time blocked_time() const { return blocked_; }
  void add_blocked(sim::Time d) { blocked_ += d; }
  // Lifetime busy fraction of the wire.
  double utilization() const;
  // Busy fraction since the previous windowed_utilization() call (metric
  // samplers turn this into a utilization-over-time track).
  double windowed_utilization() const;
  Fabric::LinkStats stats() const;

  // Links emit wire/queue-wait spans into `tr` while it is enabled.
  void set_trace(sim::Trace* tr) { trace_ = tr; }

  void set_corrupt_prob(double p) { cfg_.corrupt_prob = p; }
  // Installs (or replaces) the fault schedule; reseeds the fault stream so
  // identical plans replay identically.
  void set_fault_plan(FaultPlan plan);
  const FaultPlan& fault_plan() const { return plan_; }

  // Persistent fail-stop, distinct from the FaultPlan time window: a failed
  // link eats its queue instantly (a dead wire exerts no backpressure) and
  // counts every discard in failed_drops until revive() is called.
  void fail() { failed_flag_ = true; }
  void revive() { failed_flag_ = false; }
  bool failed() const { return failed_flag_; }
  std::uint64_t failed_drops() const { return failed_drops_; }

 private:
  sim::Task<void> pump();
  bool plan_drops(std::uint64_t ordinal);
  bool should_mark_ecn();

  sim::Engine& eng_;
  std::string name_;
  LinkConfig cfg_;
  Sink sink_;
  sim::Channel<Packet> in_;
  sim::Rng rng_;
  FaultPlan plan_;
  sim::Rng fault_rng_{1};
  std::uint64_t packets_ = 0;
  std::uint64_t bytes_ = 0;
  std::uint64_t corrupted_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t duplicated_ = 0;
  std::uint64_t reordered_ = 0;
  sim::Time busy_ = sim::Time::zero();
  sim::Time queue_wait_ = sim::Time::zero();
  std::size_t queue_hwm_ = 0;
  std::uint64_t retx_packets_ = 0;
  std::uint64_t ecn_marks_ = 0;
  std::uint64_t blocked_marks_ = 0;
  bool failed_flag_ = false;
  std::uint64_t failed_drops_ = 0;
  sim::Time blocked_ = sim::Time::zero();
  sim::Trace* trace_ = nullptr;
  // Windowed-utilization checkpoint (mutable: reading advances the window).
  mutable sim::Time win_busy_ = sim::Time::zero();
  mutable sim::Time win_t_ = sim::Time::zero();
  // ECN marking keeps a private utilization window so metric samplers
  // reading windowed_utilization() cannot perturb the marking decision.
  sim::Time ecn_win_busy_ = sim::Time::zero();
  sim::Time ecn_win_t_ = sim::Time::zero();
  double ecn_util_ = 0.0;  // last completed window's busy fraction
};

}  // namespace hw
