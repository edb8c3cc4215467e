// Every tunable cost and size in the BCL stack, with defaults calibrated to
// the numbers the paper itself reports (see DESIGN.md section 2 for the
// derivation and EXPERIMENTS.md for paper-vs-measured).
#pragma once

#include <cstddef>
#include <cstdint>

#include "hw/node.hpp"
#include "hw/topology.hpp"
#include "osk/kernel.hpp"
#include "sim/time.hpp"

namespace bcl {

struct CostConfig {
  // -- user library -------------------------------------------------------------
  sim::Time compose_send = sim::Time::us(0.23);    // build the request
  sim::Time send_event_poll = sim::Time::us(0.82); // check send completion
  sim::Time recv_event_poll = sim::Time::us(1.01); // check receive completion
  sim::Time slot_release = sim::Time::us(0.10);    // return a pool slot

  // -- kernel module descriptor (PIO words to the NIC) --------------------------
  int desc_words_base = 9;
  int desc_words_per_seg = 2;

  // -- MCP (NIC firmware) --------------------------------------------------------
  // Per-packet LANai work; 5.65 us is the paper's own figure for the
  // reliable-transmission processing in stage 4 (section 5.1).
  sim::Time mcp_tx_proc = sim::Time::us(5.65);
  sim::Time mcp_rx_proc = sim::Time::us(1.90);
  sim::Time mcp_ack_proc = sim::Time::us(0.30);
  sim::Time mcp_rma_proc = sim::Time::us(0.80);
  sim::Time mcp_event_proc = sim::Time::us(0.50);  // build a completion event
  // The 32-byte completion-event write is interleaved by the LANai between
  // data cells, so it does not queue behind an in-flight payload DMA.
  sim::Time event_dma = sim::Time::us(0.75);

  std::size_t mtu = 4096;    // fragment payload size
  // LANai streams host DMA into the link (and the reverse): only this much
  // of each fragment's DMA sits on the latency path; the rest overlaps the
  // wire.  This is what places half-bandwidth below 4 KB (Fig. 9).
  std::size_t dma_lead_bytes = 512;

  // -- reliability (go-back-N per node pair) -------------------------------------
  bool reliable = true;
  int window = 16;
  sim::Time rto = sim::Time::us(300);  // fixed/initial RTO (pre-estimator)
  int ack_every = 1;  // cumulative ack frequency
  // Jacobson/Karn adaptive RTO: RTO = clamp(SRTT + 4*RTTVAR, rto_min,
  // rto_max); cfg.rto is used until the first RTT sample arrives.
  bool adaptive_rto = true;
  sim::Time rto_min = sim::Time::us(50);
  sim::Time rto_max = sim::Time::us(4000);
  // Fast retransmit after this many duplicate cumulative acks (0 disables).
  int dupack_k = 3;
  // Consecutive timeouts without progress before the peer is declared
  // unreachable (kPeerUnreachable); 0 retries forever, as before.
  int max_retries = 12;
  // Exponential backoff on successive timeouts: RTO doubles per level up to
  // this cap, plus uniform jitter to de-synchronize retransmit storms.
  int rto_backoff_cap = 6;
  double rto_backoff_jitter = 0.10;
  // Initial sequence number of every session (tx and rx).  Tunable so the
  // uint32 wraparound path is testable end to end.
  std::uint32_t first_seq = 1;

  // -- crash–restart recovery (incarnation fencing; docs/INTERNALS.md) -----------
  // Firmware reload time between Driver::reset_nic's PIO kick and the MCP
  // accepting traffic under the new incarnation.  The probe, SYN-ladder
  // and restart-notice timings are fixed constants in mcp.cpp.
  sim::Time mcp_reboot_delay = sim::Time::us(200);
  // End-to-end completion: defer a send's ok event until the final
  // fragment is cumulatively acked instead of completing when the message
  // is staged on the NIC.  Staging completion is the paper's semantics and
  // stays the default; the chaos harness enables this so "completed ok"
  // can never name a message a crashed peer silently lost.
  bool e2e_completion = false;

  // -- credit-based flow control (system-channel pool protection) ----------------
  // MPICH2-over-InfiniBand-style end-to-end credits: every remote
  // system-channel send consumes one credit toward its destination port;
  // the receiver returns credits as cumulative grants piggybacked on acks
  // and data (plus standalone update packets when traffic is one-sided).
  // When the pool is genuinely exhausted despite the credits (multiple
  // senders, intranode competition) the MCP answers with an RNR-NACK and a
  // backoff hint instead of silently discarding.  `flow_control = false`
  // is the paper's literal drop-on-overflow semantics.
  bool flow_control = true;
  // Initial per-sender grant, capped by the receiver's pool size (both
  // ends derive the cap from this shared config at channel setup).
  int fc_initial_credits = 16;
  // Standalone credit updates are sent when a starved sender can make
  // progress again or at least this many credits accumulated; smaller
  // top-ups ride piggybacked on reverse traffic only.
  int fc_credit_batch = 4;
  // Backoff hint carried in RNR-NACKs: how long the sender's session holds
  // retransmission before probing the pool again.
  sim::Time fc_rnr_backoff = sim::Time::us(150);
  // The kernel's credit check reads a host-memory credit word the MCP
  // keeps fresh by DMA (no PIO read on the fast path).
  sim::Time fc_check = sim::Time::us(0.05);
  // User-space credit-wait loop: cost of one poll of the mapped credit
  // word and the spacing between polls (receive-path rule: no traps).
  sim::Time fc_poll = sim::Time::us(0.12);
  sim::Time fc_poll_interval = sim::Time::us(2.0);
  // A stalled sender asks the receiver for a fresh cumulative grant this
  // often, healing lost credit updates under a lossy fabric.
  sim::Time fc_probe_every = sim::Time::us(200);
  // LANai work per flow-control packet (update/probe/grant bookkeeping).
  sim::Time mcp_fc_proc = sim::Time::us(0.30);

  // -- NIC-resident congestion control (cc::CongestionController) ----------------
  // DCQCN/Timely-style per-destination rate control run entirely in the
  // MCP.  Congested links/routers/switches set the packet's ECN bit; the
  // receiving MCP echoes marks back piggybacked on acks, NACKs and credit
  // grants (kCcEcho); the sending MCP keeps an AIMD rate per destination
  // and a pacer that spaces launches (data, retransmits, flow-control
  // packets, collective fan-out) at that rate.
  //
  // Rate bounds in bytes/s.  `cc_line_rate` is the uncongested ceiling
  // (matched to the 160 MB/s link by default: at line rate the pacer never
  // adds delay beyond the wire's own serialization); `cc_min_rate` is the
  // floor a storming destination can be cut to (1/40 of line — a 4:1 tree
  // fan-in plus pass-through flows can need well under 1/20 each).
  double cc_line_rate = 160e6;
  double cc_min_rate = 4e6;
  // Additive increase per epoch without an echo, bytes/s.  Recovery from
  // half line takes (line/2)/ai epochs (~2 ms at the defaults) — slow
  // enough that a throttled sender does not slam back to line while the
  // queues it built are still draining.
  double cc_ai_rate = 2e6;
  // EWMA gain for the congestion-extent estimate alpha (DCQCN's g):
  // alpha <- (1-g)*alpha + g on an echoed mark, decays by (1-g) each
  // quiet epoch; multiplicative decrease cuts rate by alpha/2.
  double cc_g = 1.0 / 16;
  // Rate-update epoch: at most one multiplicative decrease and one
  // additive increase per epoch (lazy-ticked; the controller has no timer).
  sim::Time cc_epoch = sim::Time::us(50);
  // Proportional (QCN-style) congestion feedback.  The receiver quantizes
  // the fraction of accepted packets that arrived ECN-marked over each
  // `cc_echo_window` into 1..cc_feedback_levels and carries that level in
  // Packet::ecn_echo; the sender scales its multiplicative decrease by the
  // level, so a deep incast (every packet marked) cuts toward rate/2 per
  // epoch while a grazing mark barely dents the rate.  With
  // `cc_proportional = false` it is batch-level DCQCN CNP: any pending mark
  // echoes immediately as a full-strength level and the cut is alpha/2
  // regardless of extent.
  bool cc_proportional = true;
  int cc_feedback_levels = 8;
  sim::Time cc_echo_window = sim::Time::us(50);

  // -- NIC-resident collectives (coll::CollectiveEngine) -------------------------
  // The engine's per-packet handler is far lighter than the full reliable
  // send path: no descriptor fetch, no pin-table segments, the group state
  // is already resident in SRAM (cf. Yu et al.'s NIC-based barrier).
  int coll_arity = 4;  // k of the combining/forwarding trees
  sim::Time mcp_coll_proc = sim::Time::us(1.40);
  sim::Time coll_combine_per_element = sim::Time::ns(9.0);
  std::size_t coll_max_groups = 64;         // descriptor slots in NIC SRAM
  std::size_t coll_buf_bytes = 64 * 1024;   // per-group pinned result buffer
  std::size_t coll_park_per_group = 64;     // pre-registration parking slots
  // Watchdog on every pending collective op: if it has not completed after
  // this long the whole group is failed (kPeerUnreachable) — the only way a
  // collective involving a fail-stopped member that nobody sends to can
  // unblock.  Always armed, so it must be positive.
  sim::Time coll_op_timeout = sim::Time::ms(25);

  // -- observability -------------------------------------------------------------
  // Per-NIC flight recorder: bounded ring of the last N protocol events
  // with a flight name (sends, retransmits, timeouts, collective posts,
  // ...; bcl/recorder.hpp) used by the post-mortem dump.  Depth 0 keeps no
  // ring; the recorder still counts every event.
  std::size_t flight_recorder_depth = 256;

  // -- channels ------------------------------------------------------------------
  std::uint32_t max_ports = 8;
  int sys_slots = 64;
  std::size_t sys_slot_bytes = 4096;
  std::uint16_t normal_channels = 16;
  std::uint16_t open_channels = 8;
  std::size_t event_queue_depth = 256;
  std::size_t request_queue_depth = 64;

  // -- intra-node shared-memory path ----------------------------------------------
  std::size_t intra_chunk = 2048;
  int intra_slots = 8;
  bool intra_pipeline = true;        // ablation A3 turns this off
  double shm_copy_bw = 455e6;        // bytes/s per copy (memory-bound)
  sim::Time shm_copy_setup = sim::Time::us(0.30);
  sim::Time intra_sync = sim::Time::us(0.43);  // flag + sequence bookkeeping
};

struct ClusterConfig {
  std::uint32_t nodes = 2;
  CostConfig cost{};
  osk::KernelConfig kernel{};
  hw::NodeConfig node{};
  hw::FabricOptions fabric = default_fabric();

  // -- observability -------------------------------------------------------------
  // The registry itself is always on (counters are cheap pointer bumps);
  // `sample_period` only controls the gauge-snapshot daemon, which is
  // started on demand via BclCluster::start_sampler().
  sim::Time sample_period = sim::Time::us(50);
  // Bound on each Trace event buffer (spans / counters / flows / message
  // ledger); overflow increments Trace::dropped_events().
  std::size_t trace_event_cap = 1u << 20;
  // Post-mortem dumps kept per cluster (a 64-node failure cascade fires the
  // trigger on many NICs; keep the first few, count the rest) and how many
  // congestion-ranked links each dump names.
  std::size_t postmortem_max = 8;
  std::size_t postmortem_top_links = 8;

  // Myrinet link defaults carry the per-packet wire overhead (route bytes,
  // CRC trailer, inter-packet gap) that calibrates the sustained 146 MB/s
  // payload bandwidth against the 160 MB/s raw link; see DESIGN.md.
  static hw::FabricOptions default_fabric() {
    hw::FabricOptions f;
    f.kind = hw::FabricKind::kMyrinet;
    f.myrinet.link.per_packet = sim::Time::us(0.65);
    f.mesh.link.per_packet = sim::Time::us(0.65);
    return f;
  }
};

}  // namespace bcl
