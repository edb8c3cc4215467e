// MCP: the Message Control Program running on the NIC's LANai processor.
//
// Send side: polls the request queue the kernel module fills via PIO,
// fragments messages at the MTU, gathers payload from pinned host pages by
// DMA, and transmits through a go-back-N session per destination node.
//
// Receive side: verifies CRC, enforces in-order delivery, demultiplexes to
// the destination port's channel (system pool slot / posted normal buffer /
// open RMA window), scatters payload into user memory by DMA, and DMAs a
// completion event into the user-space event queue — no host kernel, no
// interrupt (the defining property of the semi-user-level architecture).
//
// The two end-to-end feedback loops each live in one module: credits in
// FlowController, the ECN echo in cc::CongestionController.  The MCP only
// carries their packets: it hands each accepted packet and each outbound
// ack, NACK, SYN-ACK and data packet to them, and builds, paces and
// launches the standalone credit updates and probes they ask for.
//
// Every protocol event the MCP, its sessions, its collective engine and
// its two controllers see is one call into the NIC's recorder
// (bcl/recorder.hpp), which counts it over the NIC's whole life and keeps
// it in the flight ring when its kind has a flight name;
// recorder().count(kind) reads it back, and the NIC's collector exports
// every kind that names a series.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bcl/cc/controller.hpp"
#include "bcl/config.hpp"
#include "bcl/flowctl.hpp"
#include "bcl/pathtable.hpp"
#include "bcl/port.hpp"
#include "bcl/recorder.hpp"
#include "bcl/reliable.hpp"
#include "bcl/types.hpp"
#include "hw/nic.hpp"
#include "sim/engine.hpp"
#include "sim/metrics.hpp"
#include "sim/queue.hpp"
#include "sim/sync.hpp"
#include "sim/trace.hpp"

namespace bcl {

namespace coll {
class CollectiveEngine;
}

// Owns the per-peer tx sessions as their SessionOwner: paths, strikes,
// verdicts and completions all resolve against the MCP's tables.
class Mcp : private SessionOwner {
 public:
  static constexpr std::uint16_t kProto = 1;

  // Spans, flow steps and the sessions' counter tracks go to `trace` under
  // the NIC's name; the NIC's series register in `metrics` here, along with
  // those of the collective engine and the flow controller it builds.
  Mcp(sim::Engine& eng, hw::Nic& nic, const CostConfig& cfg,
      sim::Trace& trace, sim::MetricRegistry& metrics);
  ~Mcp() override;

  // Port registry (NIC-resident port table).
  void register_port(Port* port);
  void unregister_port(std::uint32_t port_no);
  Port* find_port(std::uint32_t port_no);

  // The request queue the kernel module posts into.
  sim::Channel<SendDescriptor>& requests() { return requests_; }

  // The NIC-resident collective engine (barrier/bcast/reduce offload).
  coll::CollectiveEngine& coll() { return *coll_; }

  // Both credit tables: the sender's, read by the kernel on the send trap
  // and by the library's credit-wait poll loop, and the receiver's ledgers.
  FlowController& flow() { return *flow_; }
  const FlowController& flow() const { return *flow_; }

  // NIC-resident congestion controller: per-destination AIMD rate state
  // and the pacer every launch path consults.
  cc::CongestionController& cc() { return *cc_; }
  const cc::CongestionController& cc() const { return *cc_; }

  // Per-destination fabric-path health (multipath failover state).
  PathTable& path_table() { return *path_table_; }
  const PathTable& path_table() const { return *path_table_; }

  // Library-side doorbell: a system-channel pool slot was just released;
  // sends the standalone credit updates FlowController::doorbell asks for.
  void credit_doorbell(std::uint32_t port_no);
  // A stalled sender-side library asks the receiver for a fresh cumulative
  // grant (stand-in for reading the remote credit word; heals lost
  // updates).  Fire-and-forget.
  void fc_probe(PortId dst);

  // Engine-originated transmit: stamps a packet id and pushes the packet
  // through the per-destination go-back-N session.  Charges the engine's
  // lightweight per-packet cost (the full send path's descriptor fetch and
  // pin-table walk don't apply — group state is already in SRAM).  Always
  // run as a daemon from rx context (see the deadlock rule in INTERNALS).
  sim::Task<void> coll_send(hw::Packet p);

  // -- crash–restart recovery --------------------------------------------------
  // Fail-stop the MCP: halts the NIC (wire-level drop of all traffic both
  // ways) and discards the protocol SRAM state — every tx session is
  // poisoned with kPeerRestarted (in-flight and parked sends fail exactly
  // once through the event queue), queued request-ring descriptors are
  // failed the same way, collective groups and pending ops die, and queued
  // rx packets are dropped.  Host-side state (ports, channels, event
  // queues) survives: it lives in host memory, not SRAM.
  void crash();
  // Host-driven reboot (Driver::reset_nic, after the firmware reload
  // delay): clears the session/ledger tables for the new life, un-halts
  // the NIC under a bumped incarnation, and resumes service.  Sessions
  // created after a reboot re-establish with the SYN handshake.
  void reset();
  bool crashed() const { return crashed_; }
  std::uint32_t incarnation() const { return nic_.incarnation(); }

  TxSession& tx_session(hw::NodeId dst);
  // Lookup without creating: acks must never instantiate a session (a
  // stray or late ack for a peer we never sent to would otherwise grow
  // tx_sessions_ unboundedly).
  TxSession* find_tx_session(hw::NodeId dst);
  std::size_t tx_session_count() const { return tx_sessions_.size(); }

  // Gauges over the live sessions.
  std::size_t tx_in_flight() const;
  std::size_t unreachable_peers() const;

  // -- flight recorder / post-mortem -----------------------------------------
  // Fired when this NIC diagnoses a failure worth a post-mortem: a peer
  // declared unreachable (reason "peer-unreachable", peer >= 0) or a
  // collective watchdog expiry (reason "collective-timeout", peer -1).
  // `victim` names the operation that died.  The cluster installs a hook
  // that assembles a bcl::Postmortem from the fabric and session state.
  using DiagnosisHook = std::function<void(
      const std::string& reason, int peer, const std::string& victim)>;
  void set_diagnosis_hook(DiagnosisHook h) { diagnosis_hook_ = std::move(h); }
  // The NIC's protocol events: lifetime counts and the flight ring.
  FlightRecorder& recorder() { return recorder_; }
  const FlightRecorder& recorder() const { return recorder_; }
  // Collective watchdog expiry: record it and fire the diagnosis hook
  // before the group is torn down (called by the collective engine).
  void report_coll_timeout(std::uint16_t gid, std::uint64_t seq,
                           const char* what);
  // Go-back-N session state at a point in time (post-mortem ledger).
  struct SessionSnapshot {
    hw::NodeId peer = 0;
    double srtt_us = 0;
    double rto_us = 0;
    int backoff = 0;
    std::size_t in_flight = 0;
    std::uint64_t retransmissions = 0;
    std::uint64_t timeouts = 0;
    std::uint64_t fast_retransmits = 0;
    std::uint64_t window_stalls = 0;
    bool unreachable = false;
    std::uint32_t incarnation = 0;       // local boot epoch at snapshot time
    std::uint32_t peer_incarnation = 0;  // newest epoch seen from this peer
  };
  std::vector<SessionSnapshot> session_snapshot() const;
  // The rx queue's high-water mark, observed at dequeue time.
  std::size_t rx_queue_hwm() const { return rx_queue_hwm_; }

 private:
  sim::Task<void> tx_pump();
  sim::Task<void> rx_pump();
  sim::Task<void> send_message_locked(SendDescriptor d);
  sim::Task<void> send_message(const SendDescriptor& d);
  // Hands p to its port's receive rule (Port::land) and moves the bytes.
  // False means receiver-not-ready: the system pool had no slot and flow
  // control defers instead of discarding, so the caller must regress the
  // rx session and NACK instead of acking a silently discarded message.
  sim::Task<bool> handle_data(hw::Packet p);
  sim::Task<void> handle_rma_read(const hw::Packet& p);
  // Fail or complete `d` through its sender's event queue (no-op unless
  // d.notify_sender): ok exactly when err is kOk.
  sim::Task<void> complete_send(const SendDescriptor& d, BclErr err);

  // -- session-less control packets -------------------------------------------
  // Every control packet starts here: `kind` and `op`, the 16-byte header,
  // the fabric path (path_for) and the dst incarnation.
  hw::Packet ctrl_packet(hw::NodeId dst, hw::PacketKind kind, SendOp op,
                         std::uint8_t path = hw::kDefaultPath);
  // Stamps a fresh packet id, charges `proc` of LANai time, then transmits.
  sim::Task<void> launch(hw::Packet p, sim::Time proc);
  // Cumulative ack, or with `rnr` a receiver-not-ready NACK carrying the
  // backoff hint.  Both piggyback the current grant and ECN echo.
  sim::Task<void> send_ack(hw::NodeId dst, std::uint32_t ack,
                           sim::Time echo = sim::Time::zero(),
                           std::uint8_t path = hw::kDefaultPath,
                           bool rnr = false);
  sim::Task<void> send_fc_update(std::uint32_t port_no, hw::NodeId dst,
                                 std::uint8_t path = hw::kDefaultPath);
  sim::Task<void> send_fc_probe(PortId dst);
  // An inbound packet may carry a grant for our sender side and an ECN
  // echo for our rate controller.
  void apply_piggyback(const hw::Packet& p);
  // The LANai's event processing and the event's DMA into host memory.
  sim::Task<void> event_dma();
  sim::Task<void> deliver_send_event(Port* port, SendEvent ev);
  RxSession& rx_session(hw::NodeId src);
  // Retry budget exhausted toward `dst`: fail the collective groups that
  // include it, post a kPeerUnreachable notification event (msg_id 0) to
  // every local port's send-event queue, and start the bounded revival
  // prober that can later rescind the verdict.
  sim::Task<void> announce_peer_failure(hw::NodeId dst);
  // The NIC's collector: every NIC event that has a series (recorder.hpp)
  // and the NIC-wide gauges.
  void collect(sim::MetricSink& out);
  // Its per-peer collector: the <nic>.rel.peer<d>.* series, seven for every
  // peer that ever had a session.
  void collect_peers(sim::MetricSink& out);
  // Sums one per-session reading over the live sessions.
  template <typename T>
  std::uint64_t sum_sessions(T (TxSession::*read)() const) const;

  // -- SessionOwner -----------------------------------------------------------
  std::uint8_t path(hw::NodeId peer) override;
  bool strike(hw::NodeId peer) override;
  void progress(hw::NodeId peer) override;
  BclErr verdict(hw::NodeId peer) override;
  void failed(hw::NodeId peer) override;
  void completed(const TxNotify& n, BclErr err) override;

  // -- crash–restart internals -------------------------------------------------
  // Incarnation fence, applied to every inbound kProto packet before any
  // state is touched.  False means "fenced, drop it": the packet was
  // addressed to a previous boot of this NIC (stale dst — answered with a
  // rate-limited kProbeAck so the sender learns the new epoch) or carries
  // an epoch older than the newest seen from its source.  A *higher*
  // source epoch is the restart detection point: the dead session pair is
  // torn down before the packet proceeds.
  bool fence_incarnation(const hw::Packet& p);
  // The peer rebooted: poison+retire its tx session (kPeerRestarted), drop
  // its rx session and echo window, reset both credit halves toward it,
  // and mark the peer for a SYN handshake on the next session.
  void handle_peer_restart(hw::NodeId src);
  // Poison the session with `err` and move it to the graveyard (its timer
  // daemons may still be parked in a sleep and must wake on a live object).
  void teardown_session(hw::NodeId peer, BclErr err);
  // Stamp the outbound dst-incarnation belief for p.dst_node.
  void stamp_outbound(hw::Packet& p);
  std::uint32_t peer_inc(hw::NodeId dst) const;
  // Session-less recovery control packet (kSyn/kSynAck/kProbe/kProbeAck).
  // `path` pins the packet onto a specific fabric path (path probes ride
  // the path they test; replies ride the path the trigger arrived on);
  // kDefaultPath falls back to the destination's current table path.
  sim::Task<void> send_ctrl(hw::NodeId dst, SendOp op, std::uint32_t seq,
                            std::uint32_t dst_inc, std::uint64_t nonce = 0,
                            std::uint8_t path = hw::kDefaultPath);
  // The one bounded prober.  Without `syn` there is one per (dst, path)
  // (spawn_prober): kDefaultPath probes an unreachable peer (seq 0) until
  // its verdict is rescinded; any other path is quarantined and probed on
  // that path (seq = path+1) until an answer in handle_probe_ack
  // requalifies it.  With `syn` it retries that handshaking session's SYN
  // (a replaced session runs its own prober) until establishment or
  // teardown; a spent ladder draws the ordinary unreachable verdict.
  void spawn_prober(hw::NodeId dst, std::uint8_t path);
  sim::Task<void> prober(hw::NodeId dst, std::uint8_t path,
                         TxSession* syn = nullptr);
  // Whether the prober's next round is still wanted.
  bool probe_wanted(hw::NodeId dst, std::uint8_t path, const TxSession* syn);
  void handle_syn(const hw::Packet& p);
  void handle_syn_ack(const hw::Packet& p);
  void handle_probe_ack(const hw::Packet& p);

  // -- multipath failover internals --------------------------------------------
  // Resolve the fabric path for an outbound packet toward dst: an explicit
  // hint (ack-follows-data: replies ride the path the trigger arrived on)
  // wins; otherwise the destination's current table path (kDefaultPath for
  // untracked destinations — the fabric picks its static route).
  std::uint8_t path_for(hw::NodeId dst, std::uint8_t hint) const;

  sim::Engine& eng_;
  hw::Nic& nic_;
  const CostConfig& cfg_;
  sim::Trace& trace_;
  const std::string prefix_;  // "<nic>.": the prefix of the NIC's series
  // Ahead of the controllers that record into it.
  FlightRecorder recorder_;
  sim::Channel<SendDescriptor> requests_;
  sim::Mutex tx_mutex_;
  std::map<std::uint32_t, Port*> ports_;
  std::map<hw::NodeId, std::unique_ptr<TxSession>> tx_sessions_;
  std::map<hw::NodeId, RxSession> rx_sessions_;
  std::uint64_t next_packet_id_ = 1;
  std::unique_ptr<coll::CollectiveEngine> coll_;
  std::unique_ptr<FlowController> flow_;
  std::unique_ptr<cc::CongestionController> cc_;
  std::unique_ptr<PathTable> path_table_;
  // -- crash–restart state -----------------------------------------------------
  bool crashed_ = false;
  // Newest boot epoch seen from (and believed current for) each peer that
  // has restarted: compared against inbound src_incarnation, stamped into
  // outbound dst_incarnation.  A peer heard only in its first boot has no
  // entry; peer_inc() reads it as epoch 0.
  std::map<hw::NodeId, std::uint32_t> peer_incarnation_;
  // Torn-down sessions are parked here, never destroyed mid-run: their
  // timer/rnr daemons may be asleep holding `this` and must wake on a live
  // object (they observe the poisoned flag and exit).
  std::vector<std::unique_ptr<TxSession>> session_graveyard_;
  // Every peer that ever had a tx session, ascending: the per-peer metrics
  // collector exports each one's series from whatever session is current,
  // or zeros when there is none.
  std::vector<hw::NodeId> session_peers_;
  // Peers whose next tx session must open with a SYN handshake (their
  // restart was detected, or a revival probe was answered).
  std::set<hw::NodeId> needs_syn_;
  // (dst, path) pairs with an active prober daemon (see spawn_prober).
  std::set<std::pair<hw::NodeId, std::uint8_t>> probing_;
  // Rate limiter for stale-dst restart notices, per source.
  std::map<hw::NodeId, sim::Time> last_restart_notice_;
  // Receiver-side handshake idempotency: the (src incarnation, nonce) of
  // the last SYN applied per peer, so a late retried SYN can re-draw its
  // SYN-ACK without resetting an rx session that already took data.
  std::map<hw::NodeId, std::pair<std::uint32_t, std::uint64_t>> syn_seen_;

  DiagnosisHook diagnosis_hook_;
  std::size_t req_ring_hwm_ = 0;
  std::size_t rx_queue_hwm_ = 0;
  // Hot-path metric handles, resolved once at construction.
  sim::Counter& m_dma_tx_bytes_;
  sim::Counter& m_dma_rx_bytes_;
  sim::Counter& m_tx_descriptors_;
};

}  // namespace bcl
