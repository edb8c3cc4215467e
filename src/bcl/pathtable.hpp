// Per-destination fabric-path health ledger (MCP SRAM state).
//
// The two-level Myrinet fabric offers one route per spine between
// cross-leaf pairs; the PathTable remembers, per destination, which of
// those paths the session currently rides and how each path has behaved.
// Health is judged ONLY by consecutive RTO expiries ("strikes") fed in by
// the go-back-N timer — ECN marks and congestion-inflated RTTs never touch
// this table, so congestion can slow a path down but can never fail it
// over (the adaptive RTO and the cc drain allowance absorb congestion;
// see docs/INTERNALS.md, "Fabric fault tolerance").
//
// Lifecycle per path: healthy -> (failover_retries strikes while current)
// -> quarantined -> (answered path probe) -> healthy.  When every path to
// a destination is quarantined the destination is "partitioned": the
// session keeps riding its last path, the escalation resets stop, and the
// eventual retry-budget death reports BclErr::kPartitioned instead of
// kPeerUnreachable.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "hw/packet.hpp"
#include "sim/engine.hpp"
#include "sim/time.hpp"

namespace bcl {

class PathTable {
 public:
  struct PathState {
    std::uint8_t id = 0;
    int strikes = 0;                  // consecutive strikes while current
    std::uint64_t total_strikes = 0;  // lifetime, for the postmortem
    bool quarantined = false;
    sim::Time last_good = sim::Time::zero();
    sim::Time quarantined_at = sim::Time::zero();
  };

  // One tracked destination: the path its session rides, the partition
  // verdict, and every path's health.
  struct Dest {
    std::uint8_t current = 0;
    bool partitioned = false;
    std::vector<PathState> paths;
  };

  // What one strike did to the destination's routing.
  enum class StrikeResult {
    kNoChange,     // below the failover threshold; stay on the path
    kFailedOver,   // current path quarantined, rotated to a healthy one
    kPartitioned,  // current path struck out and no healthy path remains
  };

  PathTable(sim::Engine& eng, int failover_retries)
      : eng_{eng}, failover_retries_{failover_retries} {}

  // Starts tracking dst across `route_count` paths (no-op when already
  // tracked or when route_count <= 1 — single-path destinations stay on
  // the fabric's default route forever).  The initial current path is
  // dst % route_count, which reproduces MyrinetFabric::spine_for, so an
  // untracked and a freshly tracked destination ride the same wire.
  void init(hw::NodeId dst, int route_count);

  bool tracked(hw::NodeId dst) const { return dests_.count(dst) != 0; }

  // Path the next packet toward dst should ride (kDefaultPath when
  // untracked: let the fabric pick).
  std::uint8_t current(hw::NodeId dst) const;

  // Forward progress on dst's current path: clear its strike count and
  // refresh last_good.  Called on every ack advance and RNR (the peer
  // answered — the wire works, whatever the congestion state).
  void note_good(hw::NodeId dst);

  // One RTO expiry on dst's current path.  At failover_retries strikes the
  // path is quarantined and the current pointer rotates to the next
  // healthy path (round-robin from the struck path).
  StrikeResult strike(hw::NodeId dst);

  // An answered probe on a quarantined path: requalify it.  Returns true
  // if the path was actually quarantined (callers log kPathRestore on
  // that).  Clears the partitioned verdict, and if the destination's
  // current path is itself quarantined, moves current to the healed path.
  bool restore(hw::NodeId dst, std::uint8_t path);

  bool partitioned(hw::NodeId dst) const;

  bool is_quarantined(hw::NodeId dst, std::uint8_t path) const;

  // Every tracked destination (the post-mortem copies it).
  const std::map<hw::NodeId, Dest>& dests() const { return dests_; }

  // MCP fail-stop: SRAM contents are gone.  The lifecycle counts are the
  // MCP's NIC events (path.failovers, .restores, .partitions), which
  // outlive a reboot.
  void reset() { dests_.clear(); }

  std::uint64_t quarantined_count() const;

 private:
  sim::Engine& eng_;
  int failover_retries_;
  std::map<hw::NodeId, Dest> dests_;
};

}  // namespace bcl
