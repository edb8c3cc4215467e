#include "bcl/reliable.hpp"

#include <algorithm>
#include <vector>

#include "bcl/cc/controller.hpp"
#include "sim/trace.hpp"

namespace bcl {

TxSession::TxSession(sim::Engine& eng, hw::Nic& nic, const CostConfig& cfg,
                     SessionOwner& owner, hw::NodeId peer,
                     cc::CongestionController& cc, FlightRecorder& recorder,
                     sim::Trace& trace, std::uint64_t seed, bool handshake)
    : eng_{eng},
      nic_{nic},
      cfg_{cfg},
      window_{eng, cfg.window},
      rng_{seed},
      next_seq_{cfg.first_seq},
      last_ack_{cfg.first_seq - 1},
      established_{eng},
      owner_{owner},
      peer_{peer},
      cc_{cc},
      recorder_{recorder},
      trace_{trace} {
  if (!handshake) established_.open();
}

sim::Task<BclErr> TxSession::send(hw::Packet p) {
  if (unreachable_) co_return fail_err_;
  if (!established_.is_open()) {
    // Handshake session: data holds until the SYN-ACK lands.  poison()
    // opens the gate too, so a failed handshake surfaces here as an error
    // instead of a parked-forever sender.
    co_await established_.wait();
    if (unreachable_) co_return fail_err_;
  }
  if (!window_.try_acquire()) {
    ++window_stalls_;  // go-back-N window full: the MCP tx path blocks here
    rec(NicEvent::kWindowStall, p.msg_id);
    co_await window_.acquire();
    // poison() releases parked senders; they must not transmit.
    if (unreachable_) co_return fail_err_;
  }
  // First launches are paced by the MCP before it takes the tx mutex (a
  // paced wait here would head-of-line block every other destination's
  // egress); only the session-originated resends pace inside the session.
  p.seq = next_seq_++;
  p.tx_stamp = eng_.now();
  p.path_id = owner_.path(peer_);
  rec(NicEvent::kSend, p.msg_id, p.seq);
  if (unacked_.empty()) last_progress_ = eng_.now();
  unacked_.push_back({p, eng_.now(), false});  // retransmit copy
  arm_timer();
  co_await nic_.transmit(std::move(p));
  co_return BclErr::kOk;
}

void TxSession::on_ack(std::uint32_t ack, sim::Time echo_stamp) {
  if (unreachable_) return;
  std::int64_t released = 0;
  bool have_sample = false;
  sim::Time sample = sim::Time::zero();
  // Timestamp echo: the receiver reflected the launch time of the packet
  // that triggered this ack, so the sample is valid even when that packet
  // was a retransmission — without it, Karn's rule silences the estimator
  // exactly when a congested fabric inflates the RTT past the current RTO
  // and every window gets resent before its (late) ack returns.
  const bool have_echo =
      echo_stamp > sim::Time::zero() && echo_stamp <= eng_.now();
  while (!unacked_.empty() && seq_leq(unacked_.front().pkt.seq, ack)) {
    // Karn's rule fallback for stampless acks: only packets that were never
    // retransmitted produce RTT samples (the newest released one is the
    // tightest measurement).
    if (!have_echo && !unacked_.front().retransmitted) {
      sample = eng_.now() - unacked_.front().sent_at;
      have_sample = true;
    }
    unacked_.pop_front();
    ++released;
  }
  // A drained window gives its ring of packet copies back: most sessions
  // sit idle between bursts.
  unacked_.release_if_empty();
  if (have_echo) {
    sample = eng_.now() - echo_stamp;
    have_sample = true;
    // An echo-stamped sample is valid even when this ack releases nothing:
    // a duplicate cumulative ack past a go-back-N hole still reflects the
    // launch time of the (out-of-order) packet that triggered it.  During
    // a congested window's replay these dup acks are the only acks flowing
    // — dropping their samples re-silences the estimator exactly when the
    // RTT is inflating, which is what the echo exists to prevent.
    if (released == 0 && !unacked_.empty() && ack == last_ack_) {
      note_rtt(sample);
    }
  }
  if (released > 0) {
    if (have_sample) note_rtt(sample);
    last_progress_ = eng_.now();
    last_ack_ = ack;
    dup_acks_ = 0;
    backoff_level_ = 0;
    consecutive_timeouts_ = 0;
    owner_.progress(peer_);
    if (in_recovery_ && seq_leq(recover_, ack)) in_recovery_ = false;
    window_.release(released);
    rec(NicEvent::kAckRx, 0, ack, static_cast<std::uint64_t>(released));
    flush_notifies(ack);
  } else if (!unacked_.empty() && ack == last_ack_) {
    // Duplicate cumulative ack: the receiver is re-acking because packets
    // arrive out of order past a hole.  k of them and we resend the window
    // now instead of waiting out the RTO — but at most once per window
    // (`in_recovery_`): dup acks echoing an in-flight replay carry no new
    // loss information.
    if (cfg_.dupack_k > 0 && ++dup_acks_ >= cfg_.dupack_k &&
        !retransmitting_ && !in_recovery_ && eng_.now() >= rnr_hold_until_) {
      dup_acks_ = 0;
      ++fast_retransmits_;
      rec(NicEvent::kFastRetransmit, 0, ack);
      eng_.spawn_daemon(retransmit_window());
    }
  }
  // else: stale ack from before last_ack_ (late duplicate on the wire).
}

void TxSession::on_rnr(std::uint32_t ack, sim::Time hold) {
  if (unreachable_) return;
  rec(NicEvent::kRnr, 0, ack,
      static_cast<std::uint64_t>(hold.to_us() > 0 ? hold.to_us() : 0));
  // The NACK still carries a cumulative ack: release the prefix the
  // receiver did take.  No RTT sample — the reply timing reflects pool
  // pressure, not path delay (same spirit as Karn's rule).
  std::int64_t released = 0;
  while (!unacked_.empty() && seq_leq(unacked_.front().pkt.seq, ack)) {
    unacked_.pop_front();
    ++released;
  }
  unacked_.release_if_empty();
  if (released > 0) {
    last_ack_ = ack;
    window_.release(released);
    flush_notifies(ack);
  }
  // An RNR proves the peer is alive and responsive: the retry budget,
  // backoff ladder, and dup-ack count all restart.  A merely-slow receiver
  // can therefore never ripen into kPeerUnreachable.
  consecutive_timeouts_ = 0;
  backoff_level_ = 0;
  dup_acks_ = 0;
  owner_.progress(peer_);
  last_progress_ = eng_.now();
  if (hold <= sim::Time::zero()) hold = cfg_.fc_rnr_backoff;
  rnr_hold_until_ = eng_.now() + hold;
  if (!rnr_wait_armed_ && !unacked_.empty()) {
    rnr_wait_armed_ = true;
    eng_.spawn_daemon(rnr_resume(hold));
  }
}

sim::Task<void> TxSession::rnr_resume(sim::Time hold) {
  co_await eng_.sleep(hold);
  rnr_wait_armed_ = false;
  if (!unacked_.empty() && !unreachable_) co_await retransmit_window();
}

void TxSession::arm_timer() {
  if (timer_armed_) return;
  timer_armed_ = true;
  eng_.spawn_daemon(timer());
}

sim::Task<void> TxSession::timer() {
  for (;;) {
    const sim::Time wait = effective_rto();
    co_await eng_.sleep(wait);
    if (unacked_.empty() || unreachable_) break;  // let the engine drain
    // Inside a receiver-not-ready hold the quiet is intentional: the
    // rnr_resume daemon owns the paced resend, and counting the silence
    // as timeouts would burn the retry budget against a live peer.
    if (eng_.now() < rnr_hold_until_) continue;
    if (eng_.now() - last_progress_ >= wait && !retransmitting_) {
      ++timeouts_;
      rec(NicEvent::kTimeout, 0, 0,
          static_cast<std::uint64_t>(backoff_level_));
      // Charge the expiry to the current fabric path before it can burn
      // the retry budget: a rotation hands the fresh path a fresh
      // escalation ladder, so a single dead spine is survived well before
      // the budget ripens into a peer-failure verdict.
      if (owner_.strike(peer_)) {
        consecutive_timeouts_ = 0;
        backoff_level_ = 0;
      }
      if (cfg_.max_retries > 0 &&
          ++consecutive_timeouts_ > cfg_.max_retries) {
        fail_peer();
        break;
      }
      co_await retransmit_window();
      if (backoff_level_ < cfg_.rto_backoff_cap) ++backoff_level_;
    }
  }
  timer_armed_ = false;
}

sim::Task<void> TxSession::retransmit_window() {
  if (retransmitting_ || unreachable_ || unacked_.empty()) co_return;
  retransmitting_ = true;
  // NewReno-style recovery point: the replay's own seq-dropped copies each
  // come back as one more duplicate cumulative ack, so without this fence
  // a paced replay (resends spread in time) would count its own echoes up
  // to dupack_k and re-trigger itself until the RTO fired.  Suppress fast
  // retransmit until the cumulative ack passes everything outstanding now;
  // the RTO stays armed as the backstop if the replay itself is lost.
  in_recovery_ = true;
  recover_ = unacked_.back().pkt.seq;
  // Snapshot before the first suspension point; mark everything outstanding
  // as retransmitted up front so acks racing the resend obey Karn's rule.
  std::vector<std::uint32_t> seqs;
  seqs.reserve(unacked_.size());
  for (auto& o : unacked_) {
    seqs.push_back(o.pkt.seq);
    o.retransmitted = true;
  }
  const auto find_seq = [this](std::uint32_t s) {
    return std::find_if(unacked_.begin(), unacked_.end(),
                        [s](const Outstanding& o) { return o.pkt.seq == s; });
  };
  for (const std::uint32_t s : seqs) {
    if (unreachable_) break;
    auto it = find_seq(s);
    if (it == unacked_.end()) continue;  // acked while we were suspended
    // Retransmissions launch through the pacing cursor too — this is the
    // loop that otherwise becomes a storm: every timeout replays the whole
    // window into the very link that is dropping for congestion.  Once
    // echoes have raised alpha the controller charges and spaces the
    // replay; toward a quiet destination it is wire-clocked like any first
    // transmission (spacing a replay the wire would space anyway only
    // reorders it against concurrent launches).
    co_await cc_.pace(it->pkt.dst_node, it->pkt.wire_bytes());
    if (unreachable_) break;
    it = find_seq(s);
    if (it == unacked_.end()) continue;  // acked during the paced wait
    hw::Packet copy = it->pkt;
    copy.retransmitted = true;  // per-link retransmit heat
    copy.tx_stamp = eng_.now();  // the echo samples THIS copy's round trip
    // Re-stamp the path: after a failover the whole in-window replay must
    // ride the new route, not the dead one the copies were born with.
    copy.path_id = owner_.path(peer_);
    ++retransmissions_;
    rec(NicEvent::kRetransmit, copy.msg_id, s);
    trace_.msg_retransmit(flow_key(nic_.node(), copy.msg_id));
    co_await nic_.transmit(std::move(copy));
  }
  last_progress_ = eng_.now();
  retransmitting_ = false;
}

sim::Time TxSession::rto() const {
  if (!cfg_.adaptive_rto || !have_srtt_) return cfg_.rto;
  sim::Time r = srtt_ + rttvar_ * 4.0;
  if (r < cfg_.rto_min) r = cfg_.rto_min;
  // rto_max bounds loss detection, but must never clamp the RTO below the
  // measured round trip: a wormhole fabric under incast inflates RTT past
  // any fixed cap without dropping anything, and an RTO below SRTT fires a
  // guaranteed-spurious go-back-N resend for every window — the very storm
  // the rate controller is trying to quench.
  sim::Time cap = cfg_.rto_max;
  if (srtt_ + rttvar_ > cap) cap = srtt_ + rttvar_;
  if (r > cap) r = cap;
  return r;
}

sim::Time TxSession::effective_rto() {
  const sim::Time base = rto();
  // The backoff ladder is capped at rto_max or the measured-RTT base,
  // whichever is larger — rto() may legitimately exceed rto_max when the
  // observed round trip does (see the comment there), and re-clamping
  // below it would undo that.
  const sim::Time cap = cfg_.rto_max > base ? cfg_.rto_max : base;
  sim::Time r = base;
  for (int i = 0; i < backoff_level_ && r < cap; ++i) r = r * 2.0;
  if (r > cap) r = cap;
  if (cfg_.rto_backoff_jitter > 0.0) {
    r = r * (1.0 + cfg_.rto_backoff_jitter * rng_.uniform());
  }
  // Drain-aware allowance: at the congestion-controlled floor the unacked
  // window's serialization alone (16 x ~4KB at 8 MB/s ~ 8 ms) exceeds
  // rto_max, so a throttled destination would fire guaranteed-spurious
  // timeouts forever.  The drain time is added on top of the clamped
  // backoff RTO, not folded into it, so the clamp still bounds the
  // loss-detection component.
  if (!unacked_.empty()) {
    std::size_t bytes = 0;
    for (const auto& o : unacked_) bytes += o.pkt.wire_bytes();
    r += cc_.drain_time(peer_, bytes);
  }
  return r;
}

void TxSession::note_rtt(sim::Time sample) {
  ++rtt_samples_;
  if (!have_srtt_) {
    have_srtt_ = true;
    srtt_ = sample;
    rttvar_ = sample * 0.5;
    return;
  }
  const sim::Time err = srtt_ > sample ? srtt_ - sample : sample - srtt_;
  rttvar_ = rttvar_ * 0.75 + err * 0.25;
  srtt_ = srtt_ * 0.875 + sample * 0.125;
}

void TxSession::flush_notifies(std::uint32_t ack) {
  while (!notifies_.empty() && seq_leq(notifies_.front().seq, ack)) {
    const TxNotify n = notifies_.front();
    notifies_.pop_front();
    owner_.completed(n, BclErr::kOk);
  }
}

void TxSession::track(TxNotify n) {
  if (unreachable_) {
    // The teardown flush already ran; this entry raced it (the session
    // died between the final fragment's transmit and its registration).
    owner_.completed(n, fail_err_);
    return;
  }
  notifies_.push_back(std::move(n));
}

void TxSession::poison(BclErr err) {
  if (unreachable_) return;
  unreachable_ = true;
  fail_err_ = err;
  rec(NicEvent::kSessionPoisoned, 0, 0,
      static_cast<std::uint64_t>(unacked_.size()));
  const auto freed = static_cast<std::int64_t>(unacked_.size());
  unacked_.clear();
  unacked_.release_if_empty();
  // Every e2e-tracked message still waiting on its cumulative ack surfaces
  // the error exactly once — never silently lost.
  while (!notifies_.empty()) {
    const TxNotify n = notifies_.front();
    notifies_.pop_front();
    owner_.completed(n, err);
  }
  // Wake every sender parked on the window; they observe unreachable_ and
  // fail their sends instead of transmitting into the void.
  window_.release(freed + static_cast<std::int64_t>(window_.waiting()) + 1);
  // And every sender parked on the handshake gate.
  established_.open();
}

void TxSession::fail_peer() {
  if (unreachable_) return;
  poison(owner_.verdict(peer_));
  owner_.failed(peer_);
}

}  // namespace bcl
