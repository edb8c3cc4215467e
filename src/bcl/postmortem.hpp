// Post-mortem diagnosis: when a NIC declares a peer unreachable or a
// collective watchdog expires, the cluster assembles a structured dump of
// everything relevant to "why did this die" — the congestion-ranked link
// table from the fabric, the links adjacent to the victim pair (the usual
// suspects), every go-back-N session ledger, both credit tables, and the
// flight-recorder timeline that preserves the retransmit storm leading up
// to the failure.  to_json() renders the machine-readable artifact the
// benches write on abort and CI uploads.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bcl/cc/controller.hpp"
#include "bcl/flowctl.hpp"
#include "bcl/mcp.hpp"
#include "bcl/recorder.hpp"
#include "hw/link.hpp"

namespace bcl {

class BclCluster;

struct Postmortem {
  std::string reason;       // "peer-unreachable" | "collective-timeout"
  double time_us = 0;       // simulated time of the diagnosis
  hw::NodeId node = 0;      // the NIC that diagnosed the failure
  int peer = -1;            // unreachable peer (-1: not peer-specific)
  std::string victim;       // the operation that died, human-readable

  // Fabric-wide congestion table, hottest links first (ranked by
  // retransmit+drop traffic, then ECN marks, then queueing+blocking time).
  std::vector<hw::Fabric::LinkStats> top_links;
  // Links adjacent to the diagnosing node and the failed peer.
  std::vector<std::string> suspect_links;

  std::vector<Mcp::SessionSnapshot> sessions;

  // Per-destination multipath health from the diagnosing node: current
  // path, partition verdict, and the per-path strike history.  Empty on
  // single-switch fabrics (no alternative paths to track).
  std::map<hw::NodeId, PathTable::Dest> path_table;

  // Per-destination rate-controller state from the diagnosing node, each
  // with a coarse diagnosis: "storming" (retransmit traffic while the rate
  // still sits at line — the echoes never reached this sender, so it keeps
  // blasting into the congestion), "throttled-recovering" (the echoes
  // landed: the rate was cut and additive increase is climbing back), or
  // "clean" (no throttling in force, no uncontrolled retransmit pressure).
  struct CcRate {
    hw::NodeId dst = 0;
    cc::RateState rate;
    std::string state;
  };
  std::vector<CcRate> cc_rates;
  FlowController::Senders send_credits;
  FlowController::Ledgers recv_credits;

  // Flight-recorder snapshot, oldest first.
  std::vector<FlightEvent> timeline;
  // The retransmit-episode envelope within the timeline (first to last
  // retransmit/timeout/fast-retransmit event and how many there were).
  struct RetxStorm {
    double start_us = 0;
    double end_us = 0;
    std::uint64_t events = 0;
  };
  RetxStorm storm;

  std::string to_json() const;
};

// Assembles a Postmortem from the cluster's fabric and the diagnosing
// node's MCP state.  `top_n` bounds the congestion table.
Postmortem build_postmortem(BclCluster& cluster, hw::NodeId node,
                            const std::string& reason, int peer,
                            const std::string& victim, std::size_t top_n);

// JSON array of dumps plus the count suppressed once the per-cluster cap
// was reached (a 64-node failure cascade triggers on many NICs at once).
std::string postmortems_json(const std::vector<Postmortem>& dumps,
                             std::uint64_t dropped);

}  // namespace bcl
