// Point-to-point link and the fabric abstraction.
//
// A Link serializes packets at its bandwidth, applies its fault plan (the
// only source of random drops, duplicates, reorders and corruption on the
// wire), and delivers them to a sink callback after a propagation delay.
// Links have a small input queue, so upstream senders feel backpressure,
// approximating wormhole flow control.  A Fabric owns its links; its
// routers or switches hand each packet to an output link through
// Link::forward.
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
  std::size_t queue_depth = 4;
  // ECN marking (congestion notification for the NIC-resident rate
  // controller).  Link::forward applies `ecn_queue_threshold` to the
  // upstream router's or switch's input backlog — that is where a wormhole
  // fabric's congestion actually accumulates, and those queues are shared
  // between flows.  A Link's own pump only marks when `ecn_self_mark` is
  // set: a dedicated point-to-point hop carrying one backpressured flow is
  // busy, not congested, and marking it would throttle solo senders below
  // line rate for no benefit.  With self-marking on, a packet is marked at
  // serialization start when the input queue still holds at least
  // `ecn_queue_threshold` more packets behind it (0 disables occupancy
  // marking), or when the wire's utilization over the trailing
  // `ecn_util_window` crossed `ecn_util_threshold`.
  bool ecn_self_mark = false;
  std::size_t ecn_queue_threshold = 3;
  double ecn_util_threshold = 0.90;
  sim::Time ecn_util_window = sim::Time::us(50);
  // Wormhole-blocked marking (Link::forward, not a Link's own pump): a
  // packet whose push into this link's bounded queue blocked for at least
  // this long is ECN-marked even if no backlog ever formed behind it —
  // wormhole fabrics congest by blocking, and under a wide shallow incast
  // every input port can hold exactly one packet (below
  // ecn_queue_threshold) while the tree stalls.  Roughly one MTU
  // serialization at line rate by default; zero disables.
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

// Congestion snapshot for one link, as returned by
// Fabric::congestion_report().
struct LinkStats {
  std::string name;
  double util = 0;           // Link::utilization()
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

class Link {
 public:
  using Sink = std::function<void(Packet&&)>;

  Link(sim::Engine& eng, std::string name, const LinkConfig& cfg, Sink sink);

  // Senders push packets here; send() blocks when the queue is full.
  sim::Channel<Packet>& in() { return in_; }

  // One router or crossbar step into this link, in order: ECN-marks the
  // packet when at least ecn_queue_threshold packets still wait behind it
  // in the upstream input (`backlog`), waits for a queue slot (wormhole
  // head-of-line blocking, charged to blocked_time), marks it when that
  // wait reached ecn_blocked_threshold, then stamps enqueued_at and
  // enqueues it.  Stamping after the wait keeps queue_wait and
  // blocked_time disjoint.
  sim::Task<void> forward(Packet p, std::size_t backlog);

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
  // Packets ECN-marked here (by the pump's own thresholds, or by forward()
  // on the upstream router's or switch's behalf).
  std::uint64_t ecn_marks() const { return ecn_marks_; }
  // Subset of ecn_marks() attributed to wormhole blocking: forward() was
  // stalled pushing into this link for at least ecn_blocked_threshold,
  // with no deep backlog behind the packet.
  std::uint64_t blocked_marks() const { return blocked_marks_; }
  // Time forward() spent blocked on this link's full queue — wormhole
  // head-of-line blocking.
  sim::Time blocked_time() const { return blocked_; }
  // Fraction of elapsed time the wire spent serializing, counting only
  // the part of the current packet already sent, so it never exceeds 1.
  // Reading it changes nothing.
  double utilization() const;
  LinkStats stats() const;

  // Links emit wire/queue-wait spans into `tr` while it is enabled.
  void set_trace(sim::Trace* tr) { trace_ = tr; }

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
  FaultPlan plan_;
  sim::Rng fault_rng_{1};
  std::uint64_t packets_ = 0;
  std::uint64_t bytes_ = 0;
  std::uint64_t corrupted_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t duplicated_ = 0;
  std::uint64_t reordered_ = 0;
  sim::Time busy_ = sim::Time::zero();
  // When the packet now on the wire finishes serializing; busy_ already
  // holds its whole wire time.
  sim::Time busy_until_ = sim::Time::zero();
  sim::Time queue_wait_ = sim::Time::zero();
  std::size_t queue_hwm_ = 0;
  std::uint64_t retx_packets_ = 0;
  std::uint64_t ecn_marks_ = 0;
  std::uint64_t blocked_marks_ = 0;
  bool failed_flag_ = false;
  std::uint64_t failed_drops_ = 0;
  sim::Time blocked_ = sim::Time::zero();
  sim::Trace* trace_ = nullptr;
  // ECN self-marking's utilization window (decides simulated behaviour).
  sim::Time ecn_win_busy_ = sim::Time::zero();
  sim::Time ecn_win_t_ = sim::Time::zero();
  double ecn_util_ = 0.0;  // last completed window's busy fraction
};

// A network fabric: wires NICs together, knows how to route, and owns the
// links it wires them with.  Everything done per link (telemetry, the
// congestion report, lookup by name) lives here once; a concrete fabric
// adds its geometry, routing and switch or router devices.
class Fabric {
 public:
  using LinkStats = hw::LinkStats;

  virtual ~Fabric() = default;

  // Connects `nic` as node `id`; must be called exactly once per node.
  virtual void attach(NodeId id, Nic& nic) = 0;
  // Fills in the packet's source route (no-op for fabrics that route
  // in-network, like the 2-D mesh).
  virtual void stamp_route(Packet& p) const = 0;
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
  // Names of the links directly adjacent to `node` (its ingress/egress
  // edges); the post-mortem lists these as suspects for a failed peer.
  virtual std::vector<std::string> links_of(NodeId node) const = 0;

  // Exports wire-level observability (every link's bytes/packets/queue
  // depth series, then the fabric's switch or router series) through one
  // collector for the whole fabric.  Call after every node is attached;
  // the fabric must outlive the registry's exports.
  void register_metrics(sim::MetricRegistry& reg) const;
  // Congestion snapshot across every link (unordered); used by the
  // post-mortem dump to rank the hottest links.
  std::vector<LinkStats> congestion_report() const;
  // Attaches a trace so links emit wire/queue-wait spans for the
  // latency-attribution pipeline (recorded only while the trace is
  // enabled).  The trace must outlive the fabric's traffic.
  void set_trace(sim::Trace* tr);
  // The link named `name` (e.g. "l0->s2", "n5->sw", "m4->0"), for fault
  // injection: link(name).fail() or .set_fault_plan(plan).  Throws
  // std::invalid_argument on an unknown name.
  Link& link(const std::string& name);

 protected:
  Link& add_link(sim::Engine& eng, std::string name, const LinkConfig& cfg,
                 Link::Sink sink);
  const std::vector<std::unique_ptr<Link>>& links() const { return links_; }
  // Writes the fabric's switch or router series (register_metrics' hook).
  virtual void write_device_series(sim::MetricSink& out) const = 0;

 private:
  std::vector<std::unique_ptr<Link>> links_;
};

}  // namespace hw
