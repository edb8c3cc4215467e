// Go-back-N reliability sessions, one per ordered node pair, run by the MCP
// on the NIC ("BCL performs data checking and guarantees reliable
// transmission in the on-card control program", section 5.1).
//
// TxSession: sliding window, cumulative acks, adaptive (Jacobson) RTO with
// exponential backoff, dup-ack fast retransmit, and a max-retry budget that
// declares the peer unreachable instead of retrying forever.
// RxSession: in-order acceptance; out-of-order and corrupted packets drop.
#pragma once

#include <cstdint>

#include "bcl/config.hpp"
#include "bcl/recorder.hpp"
#include "bcl/types.hpp"
#include "hw/nic.hpp"
#include "hw/packet.hpp"
#include "sim/engine.hpp"
#include "sim/fifo.hpp"
#include "sim/random.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace sim {
class Trace;
}

namespace bcl {

namespace cc {
class CongestionController;
}

// RFC 1982 serial-number arithmetic over the uint32 sequence space: a < b
// iff the signed distance from b to a is negative.  Plain `<=` breaks the
// cumulative-ack comparison the moment next_seq_ wraps past UINT32_MAX.
inline constexpr bool seq_lt(std::uint32_t a, std::uint32_t b) {
  return static_cast<std::int32_t>(a - b) < 0;
}
inline constexpr bool seq_leq(std::uint32_t a, std::uint32_t b) {
  return static_cast<std::int32_t>(a - b) <= 0;
}

// One end-to-end completion the MCP registered with a session
// (cfg.e2e_completion): the message whose final fragment carries `seq`.
struct TxNotify {
  std::uint32_t seq = 0;
  std::uint64_t msg_id = 0;
  std::uint32_t src_port = 0;
  PortId dst{};
};

// What a TxSession needs from whoever runs it (the MCP).  Every method
// names the session's peer, so one owner can serve a session per node.
class SessionOwner {
 public:
  SessionOwner() = default;
  virtual ~SessionOwner() = default;

  SessionOwner(const SessionOwner&) = delete;
  SessionOwner& operator=(const SessionOwner&) = delete;

  // Fabric path to stamp on every outbound packet, first launches and
  // retransmits alike (kDefaultPath lets the fabric pick).
  virtual std::uint8_t path(hw::NodeId peer) = 0;
  // One RTO expiry charged to the current path.  True when the owner
  // rotated to a fresh path: the session then resets its escalation (the
  // old path's timeouts prove nothing about the new wire).  Only the
  // timer strikes; ECN marks and congestion-inflated RTTs never do.
  virtual bool strike(hw::NodeId peer) = 0;
  // Forward progress (ack advance or RNR): the current path works.
  virtual void progress(hw::NodeId peer) = 0;
  // The error the retry-budget death poisons with (kPartitioned when
  // every path to the peer is quarantined, else kPeerUnreachable).
  virtual BclErr verdict(hw::NodeId peer) = 0;
  // The session just died of its retry budget; called exactly once.
  virtual void failed(hw::NodeId peer) = 0;
  // A tracked completion resolved: kOk on its cumulative ack, the poison
  // error if the session died first.  Called exactly once per entry.
  virtual void completed(const TxNotify& n, BclErr err) = 0;
};

class TxSession {
 public:
  // The session toward `peer` reaches four collaborators, each outliving
  // it (the MCP owns them all):
  //   * `owner` picks the path, judges strikes and the death verdict, and
  //     resolves tracked completions (SessionOwner above);
  //   * `cc`, the NIC's congestion controller: every go-back-N resend waits
  //     on its pacing cursor, so a retransmit storm toward a congested peer
  //     throttles itself, and the RTO grows by the unacked window's drain
  //     time at the paced rate, so throttling never manufactures timeouts
  //     (first launches are paced by the MCP itself, outside the tx mutex);
  //   * `recorder`, the NIC's flight recorder: every protocol event is
  //     counted NIC-wide and kept in its ring;
  //   * `trace`: retransmit episodes are attributed to the victim message's
  //     MsgRecord.
  // `seed` starts the backoff-jitter stream.  With `handshake` set the
  // session opens un-established: send() parks on the establishment gate
  // until the MCP's SYN/SYN-ACK exchange completes (establish()) or the
  // session is poisoned.  Cold-start sessions at incarnation 0 skip the
  // handshake — both ends begin at cfg.first_seq by construction, and the
  // extra control packets would perturb the paper-calibrated baselines.
  TxSession(sim::Engine& eng, hw::Nic& nic, const CostConfig& cfg,
            SessionOwner& owner, hw::NodeId peer, cc::CongestionController& cc,
            FlightRecorder& recorder, sim::Trace& trace, std::uint64_t seed,
            bool handshake);

  // Stamps the next sequence number, records a retransmit copy, and
  // transmits.  Blocks while the window is full (and, for handshake
  // sessions, until establishment).  Returns the poison error (without
  // transmitting) once the session is dead: kPeerUnreachable after the
  // retry budget, kPeerRestarted after a crash–restart teardown.
  sim::Task<BclErr> send(hw::Packet p);

  // Parameterized teardown: marks the session dead so every parked and
  // future send fails with `err`, clears the retransmit state, and flushes
  // the end-to-end completion ledger with the error.  fail_peer() is
  // poison(owner verdict) plus SessionOwner::failed; the MCP's crash and
  // peer-restart paths poison with kPeerRestarted and no verdict (a
  // restart is not a diagnosis event).  Idempotent.
  void poison(BclErr err);
  // Exhausts the session the retry-budget way: poison with the owner's
  // verdict and report the failure.  Public so the MCP's SYN daemon can
  // apply the ordinary verdict when the handshake ladder is spent.
  void fail_peer();

  // -- establishment gate (crash–restart handshake) ---------------------------
  void establish() { established_.open(); }
  bool established() const { return established_.is_open(); }

  // -- end-to-end completion ledger (cfg.e2e_completion) ----------------------
  // The MCP registers a message's final-fragment sequence here after
  // staging; SessionOwner::completed resolves each entry exactly once.  On
  // an already-poisoned session it resolves immediately with the poison
  // error (the teardown flush already ran).
  void track(TxNotify n);

  // Newest sequence number handed to the wire (the final fragment's, right
  // after its send() returns).
  std::uint32_t last_seq() const { return next_seq_ - 1; }

  // Cumulative acknowledgement: releases everything with seq <= ack
  // (serial order).  A duplicate cumulative ack means the receiver dropped
  // something out of order; cfg.dupack_k of them trigger a fast retransmit.
  // `echo_stamp`, when nonzero, is the launch time the receiver echoed from
  // the packet that triggered this ack (Packet::echo_stamp): it yields an
  // RTT sample that is valid even for retransmitted packets, keeping the
  // RTO estimator honest while congestion inflates round trips.
  void on_ack(std::uint32_t ack, sim::Time echo_stamp = sim::Time::zero());

  // Receiver-not-ready NACK: releases the acked prefix like on_ack, then
  // holds retransmission for `hold` instead of backing off exponentially.
  // The peer is demonstrably alive, so the retry budget and backoff level
  // reset — a slow receiver must never be misdiagnosed as unreachable.
  void on_rnr(std::uint32_t ack, sim::Time hold);

  std::size_t in_flight() const { return unacked_.size(); }
  bool peer_unreachable() const { return unreachable_; }
  // This session's own counts (the post-mortem's session ledger and the
  // per-peer series); the NIC-wide ones are the recorder's.
  std::uint64_t retransmissions() const { return retransmissions_; }
  std::uint64_t timeouts() const { return timeouts_; }
  std::uint64_t window_stalls() const { return window_stalls_; }
  std::uint64_t fast_retransmits() const { return fast_retransmits_; }
  std::uint64_t rtt_samples() const { return rtt_samples_; }
  int backoff_level() const { return backoff_level_; }
  // Estimator state (zero until the first sample when adaptive).
  sim::Time srtt() const { return srtt_; }
  sim::Time rttvar() const { return rttvar_; }
  // The base RTO currently in force (estimator output or fixed cfg.rto),
  // before backoff and jitter.
  sim::Time rto() const;

 private:
  struct Outstanding {
    hw::Packet pkt;
    sim::Time sent_at = sim::Time::zero();
    bool retransmitted = false;  // Karn: never sample RTT from these
  };

  void arm_timer();
  sim::Task<void> timer();
  // One-shot daemon armed by on_rnr: sleeps out the receiver's hold hint,
  // then resends the window (the NACK regressed the rx session, so the
  // held packets must be replayed for the transfer to finish).
  sim::Task<void> rnr_resume(sim::Time hold);
  // Go-back-N: resend the whole outstanding window in order.  Snapshots the
  // window's sequence numbers before the first co_await — on_ack pops the
  // ring from the front while we are suspended in nic_.transmit, so
  // iterating by index would skip live packets or resend freed slots.
  sim::Task<void> retransmit_window();
  sim::Time effective_rto();
  void note_rtt(sim::Time sample);
  // Resolves every ledger entry with seq <= ack as kOk.
  void flush_notifies(std::uint32_t ack);
  void rec(NicEvent kind, std::uint64_t msg_id = 0, std::uint32_t seq = 0,
           std::uint64_t aux = 0) {
    recorder_.record({eng_.now(), kind, peer_, msg_id, seq, aux});
  }

  sim::Engine& eng_;
  hw::Nic& nic_;
  const CostConfig& cfg_;
  sim::Semaphore window_;
  sim::Rng rng_;  // backoff jitter (per-session deterministic stream)
  // Retransmit copies in seq order.  The ring is freed each time the
  // window drains (an ack or RNR releases the last copy, or poison()).
  sim::Fifo<Outstanding> unacked_;
  std::uint32_t next_seq_;
  std::uint32_t last_ack_;  // newest cumulative ack that released data
  int dup_acks_ = 0;
  int backoff_level_ = 0;
  int consecutive_timeouts_ = 0;
  bool have_srtt_ = false;
  sim::Time srtt_ = sim::Time::zero();
  sim::Time rttvar_ = sim::Time::zero();
  sim::Time last_progress_ = sim::Time::zero();
  bool timer_armed_ = false;
  bool retransmitting_ = false;
  bool unreachable_ = false;
  // Fast-retransmit recovery fence (NewReno's `recover`): no further
  // dup-ack-triggered replays until the cumulative ack passes the highest
  // sequence that was outstanding when the current replay started.
  bool in_recovery_ = false;
  std::uint32_t recover_ = 0;
  // Receiver-not-ready hold window: the timer must not count these quiet
  // periods as timeouts, and fast retransmit must not fire into the full
  // pool that just NACKed us.
  sim::Time rnr_hold_until_ = sim::Time::zero();
  bool rnr_wait_armed_ = false;
  // Why the session is dead (valid once unreachable_ is set): retry-budget
  // exhaustion keeps the historical kPeerUnreachable; crash–restart
  // teardowns poison with kPeerRestarted.
  BclErr fail_err_ = BclErr::kPeerUnreachable;
  // Establishment gate: open from birth for cold-start sessions, opened by
  // the SYN-ACK (or by poison, so parked senders fail instead of hanging)
  // for handshake sessions.
  sim::Gate established_;
  sim::Fifo<TxNotify> notifies_;  // e2e ledger, seq order
  SessionOwner& owner_;
  hw::NodeId peer_;
  cc::CongestionController& cc_;
  FlightRecorder& recorder_;
  sim::Trace& trace_;
  std::uint64_t retransmissions_ = 0;
  std::uint64_t timeouts_ = 0;
  std::uint64_t window_stalls_ = 0;
  std::uint64_t fast_retransmits_ = 0;
  std::uint64_t rtt_samples_ = 0;
};

class RxSession {
 public:
  explicit RxSession(std::uint32_t first_seq = 1) : expected_{first_seq} {}

  // True if the packet is the next expected one (accept it); false means
  // drop (duplicate or out of order after a loss).
  bool accept(std::uint32_t seq) {
    if (seq != expected_) return false;
    ++expected_;
    return true;
  }
  // Highest in-order sequence received (cumulative ack value).  Well
  // defined across wraparound because the sender compares with serial
  // arithmetic, not magnitude.
  std::uint32_t ack_value() const { return expected_ - 1; }

  // Undoes the most recent accept(): the packet was in sequence but the
  // receiver could not take it (pool exhausted, RNR-NACKed), so its
  // retransmission must be acceptable later.  Only valid immediately after
  // the accept it reverts, which the MCP's strictly serial rx pump
  // guarantees.
  void regress() { --expected_; }

 private:
  std::uint32_t expected_;
};

}  // namespace bcl
