// NIC protocol events and the per-NIC recorder that keeps them.
//
// BCL_NIC_EVENTS is the one table of everything the MCP firmware counts:
// go-back-N sessions, the rx and tx paths, flow and congestion control,
// crash-restart recovery, multipath failover and the collective engine.
// Each row names the kind, its counter's registry series under "<nic>."
// (the NIC's collector, Mcp::collect, exports every one that has a
// series), and the name its flight-recorder entries print under (the
// post-mortem timeline).
// A null series means counted but not exported; a null flight name means
// counted but never kept in the ring.
//
// The recorder counts every event over the NIC's whole life (a reboot
// does not reset it) and keeps the last N events of the kinds with a
// flight name in a bounded ring, at O(1) on the hot path.  The post-mortem
// dump (bcl/postmortem.hpp) snapshots that ring when a peer is declared
// unreachable or a collective times out, preserving the timeline that led
// to the failure — the retransmit storm, not just its aftermath.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <vector>

#include "hw/packet.hpp"
#include "sim/time.hpp"

namespace bcl {

// X(kind, series, flight).  Where a row's comment names fields, they are
// the FlightEvent's.
#define BCL_NIC_EVENTS(X)                                                    \
  /* Go-back-N sessions (reliable.cpp), one per destination. */              \
  X(kSend, nullptr, "send")                       /* msg_id, seq */          \
  X(kRetransmit, "mcp.retransmissions", "retransmit") /* msg_id, seq */      \
  X(kTimeout, "mcp.timeouts", "timeout")          /* aux = backoff level */  \
  X(kFastRetransmit, "rel.fast_retransmits", "fast-retransmit") /* seq */    \
  X(kRnr, nullptr, "rnr")             /* seq = ack, aux = hold us */         \
  X(kWindowStall, "mcp.window_stalls", "window-stall") /* msg_id */          \
  X(kAckRx, nullptr, "ack-rx")        /* seq = ack, aux = packets freed */   \
  /* Session poisoned: retry budget, crash or peer restart. */               \
  X(kSessionPoisoned, nullptr, "peer-failed") /* aux = packets dropped */    \
  /* The MCP's rx and tx paths. */                                           \
  X(kRxPacket, "mcp.rx_packets", nullptr)                                    \
  X(kCrcDrop, "mcp.crc_drops", nullptr)                                      \
  X(kSeqDrop, "mcp.seq_drops", nullptr)                                      \
  X(kNoPortDrop, "mcp.no_port_drops", nullptr)                               \
  X(kAckTx, "mcp.acks_sent", nullptr)                                        \
  X(kMessageSent, "mcp.messages_sent", nullptr)                              \
  X(kRmaReadServed, "mcp.rma_reads_served", nullptr)                         \
  X(kStrayAck, "rel.stray_acks", nullptr) /* no tx session to take it */     \
  X(kPeerFailure, "rel.peer_failures", nullptr) /* retry budget spent */     \
  /* Flow control. */                                                        \
  X(kRnrNackTx, "fc.rnr_nacks_tx", nullptr) /* pool full: NACK, not drop */  \
  X(kRnrNackRx, "fc.rnr_nacks_rx", nullptr)                                  \
  X(kCreditUpdateTx, "fc.credit_updates_tx", nullptr) /* standalone */       \
  X(kCreditUpdateRx, "fc.credit_updates_rx", nullptr)                        \
  X(kCreditProbeTx, "fc.probes_tx", nullptr)                                 \
  X(kCreditProbeRx, "fc.probes_rx", nullptr)                                 \
  X(kCreditGranted, "fc.credits_granted", nullptr) /* limit advance */       \
  /* Congestion control. */                                                  \
  X(kEcnMarkRx, "cc.marks_rx", nullptr)  /* marked packets accepted */       \
  X(kEcnEchoTx, "cc.echoes_tx", nullptr) /* echoes on acks and grants */     \
  /* Crash-restart recovery. */                                              \
  X(kCrash, nullptr, "mcp-crash")     /* aux = incarnation at death */       \
  X(kRestart, "rel.restarts", "mcp-restart") /* aux = new incarnation */     \
  X(kPeerRestart, "rel.peer_restarts", "peer-restart") /* aux = epoch */     \
  X(kStaleIncDrop, "rel.stale_inc_drops", nullptr) /* incarnation fence */   \
  X(kRestartNoticeTx, "rel.restart_notices_tx", nullptr) /* to stale dst */  \
  X(kSynTx, "rel.syns_tx", "syn")     /* msg_id = nonce, seq = iss, aux 0 */ \
  X(kSynRx, "rel.syns_rx", "syn")     /* msg_id = nonce, seq = iss, aux 1 */ \
  X(kSynAck, "rel.recovered_peers", "syn-ack") /* session re-established */  \
  X(kRevivalProbeTx, "rel.revival_probes_tx", "revival-probe") /* seq 0, */  \
                                                               /* aux 0 */   \
  X(kRevivalProbeRx, "rel.revival_probes_rx", nullptr)                       \
  /* Multipath failover. */                                                  \
  X(kPathFailover, "path.failovers", "path-failover") /* seq = old path, */  \
                                                      /* aux = new path */   \
  X(kPathPartition, "path.partitions", nullptr) /* no healthy path left */   \
  X(kPathRestore, "path.restores", "path-restore") /* aux = path */          \
  X(kPathProbeTx, "path.probes_tx", "revival-probe") /* seq = path+1, */     \
                                                     /* aux 1 */             \
  X(kPathProbeRx, "path.probes_rx", nullptr)                                 \
  /* A switch discarded a malformed route this NIC sent; recorded by the  */ \
  /* cluster's switch hook (peer = dst, aux = route position). */            \
  X(kRouteError, nullptr, "route-error")                                     \
  /* Collective engine (coll/engine.cpp). */                                 \
  X(kCollPost, "coll.posts", nullptr) /* post dequeued by the engine */      \
  X(kCollStart, nullptr, "coll-post") /* post found its group: */            \
                                      /* msg_id = seq, aux = group */        \
  X(kCollRxPacket, "coll.rx_packets", nullptr)                               \
  X(kCollForward, "coll.forwards", nullptr) /* packets originated */         \
  X(kCollCombine, "coll.combines", nullptr) /* fragment combines */          \
  X(kCollCombinedElements, "coll.combined_elements", nullptr)                \
  X(kCollCompletion, "coll.completions", nullptr)                            \
  X(kCollDrop, "coll.drops", nullptr) /* packets or posts refused */         \
  X(kCollSramExhausted, "coll.sram_exhausted", nullptr)                      \
  X(kCollTimeout, "coll.op_timeouts", "coll-timeout") /* msg_id = seq, */    \
                                                      /* aux = group */      \
  X(kGroupFailed, "coll.groups_failed", "group-failed") /* aux = group */    \
  X(kCollStaggered, "coll.staggered", nullptr) /* fan-out held by pacer */

enum class NicEvent : std::uint8_t {
#define BCL_NIC_EVENT_KIND(kind, series, flight) kind,
  BCL_NIC_EVENTS(BCL_NIC_EVENT_KIND)
#undef BCL_NIC_EVENT_KIND
};

struct NicEventNames {
  const char* series;  // the counter's registry name under "<nic>."
  const char* flight;  // the name the ring and the post-mortem print
};
inline constexpr NicEventNames kNicEventNames[] = {
#define BCL_NIC_EVENT_NAMES(kind, series, flight) {series, flight},
    BCL_NIC_EVENTS(BCL_NIC_EVENT_NAMES)
#undef BCL_NIC_EVENT_NAMES
};
inline constexpr std::size_t kNicEventCount = std::size(kNicEventNames);

inline const char* series_name(NicEvent k) {
  return kNicEventNames[static_cast<std::size_t>(k)].series;
}
inline const char* flight_name(NicEvent k) {
  return kNicEventNames[static_cast<std::size_t>(k)].flight;
}

struct FlightEvent {
  sim::Time t;
  NicEvent kind = NicEvent::kSend;
  hw::NodeId peer = 0;
  std::uint64_t msg_id = 0;
  std::uint32_t seq = 0;
  std::uint64_t aux = 0;
};

class FlightRecorder {
 public:
  explicit FlightRecorder(std::size_t capacity) : cap_{capacity} {
    ring_.reserve(cap_);
  }

  // One event: counts it, and keeps it in the ring if its kind has a
  // flight name.
  void record(const FlightEvent& e) {
    add(e.kind);
    if (cap_ == 0 || flight_name(e.kind) == nullptr) return;
    if (ring_.size() < cap_) {
      ring_.push_back(e);
    } else {
      ring_[head_] = e;
      head_ = (head_ + 1) % cap_;
    }
    ++total_;
  }
  // Counts `n` events of `kind` and keeps none: an amount (credits,
  // combined elements), or an event the ring does not keep.
  void add(NicEvent kind, std::uint64_t n = 1) {
    counts_[static_cast<std::size_t>(kind)] += n;
  }

  // Events of `kind` over the NIC's whole life.
  std::uint64_t count(NicEvent kind) const {
    return counts_[static_cast<std::size_t>(kind)];
  }

  std::size_t capacity() const { return cap_; }
  std::size_t size() const { return ring_.size(); }
  // Total ring entries ever recorded (size() once the ring wrapped).
  std::uint64_t total() const { return total_; }

  // Ring entries in arrival order, oldest first.
  std::vector<FlightEvent> snapshot() const {
    std::vector<FlightEvent> out;
    out.reserve(ring_.size());
    for (std::size_t i = 0; i < ring_.size(); ++i) {
      out.push_back(ring_[(head_ + i) % ring_.size()]);
    }
    return out;
  }

 private:
  std::size_t cap_;
  std::size_t head_ = 0;  // oldest element once the ring is full
  std::uint64_t total_ = 0;
  std::vector<FlightEvent> ring_;
  std::array<std::uint64_t, kNicEventCount> counts_{};
};

}  // namespace bcl
