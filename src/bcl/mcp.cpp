#include "bcl/mcp.hpp"

#include <algorithm>
#include <functional>
#include <utility>

#include "bcl/coll/engine.hpp"

namespace bcl {

namespace {

// The prober is bounded because a sleeping prober schedules timer events:
// an honestly dead peer or path must not keep the simulation alive.
// Revival and quarantined-path probes share one cadence: a probe every
// kProbeInterval, at most kProbeRounds of them.
constexpr sim::Time kProbeInterval = sim::Time::us(500);
constexpr int kProbeRounds = 20;
// SYN re-establishment ladder: the first SYN goes out at once; a ladder
// spent without an answer fails the session like an ordinary retry-budget
// death.
constexpr sim::Time kSynRetry = sim::Time::us(300);
constexpr int kSynAttempts = 10;
// Rate limit on restart notices answering stale-epoch traffic (one
// straggler burst must not become a notice storm).
constexpr sim::Time kRestartNoticeInterval = sim::Time::us(100);
// Consecutive RTO expiries on one path before the session rotates to the
// next healthy path.  Well below max_retries, so several failovers fit
// inside one retry budget.
constexpr int kPathFailoverStrikes = 3;
// Header size of every session-less control packet.
constexpr std::size_t kCtrlHeaderBytes = 16;

}  // namespace

Mcp::Mcp(sim::Engine& eng, hw::Nic& nic, const CostConfig& cfg,
         sim::Trace& trace, sim::MetricRegistry& metrics)
    : eng_{eng},
      nic_{nic},
      cfg_{cfg},
      trace_{trace},
      prefix_{nic.name() + "."},
      recorder_{cfg.flight_recorder_depth},
      requests_{eng, cfg.request_queue_depth},
      tx_mutex_{eng},
      flow_{std::make_unique<FlowController>(
          eng, cfg, nic.name(), trace, metrics, recorder_,
          [this](std::uint32_t port_no) -> std::optional<std::uint32_t> {
            const Port* port = find_port(port_no);
            if (port == nullptr) return std::nullopt;
            return static_cast<std::uint32_t>(
                port->system().free_slots.size());
          })},
      cc_{std::make_unique<cc::CongestionController>(
          eng, cfg, nic.name(), trace, metrics, recorder_)},
      path_table_{std::make_unique<PathTable>(eng, kPathFailoverStrikes)},
      m_dma_tx_bytes_{metrics.counter(nic.name() + ".mcp.dma_tx_bytes")},
      m_dma_rx_bytes_{metrics.counter(nic.name() + ".mcp.dma_rx_bytes")},
      m_tx_descriptors_{metrics.counter(nic.name() + ".mcp.tx_descriptors")} {
  metrics.add_collector([this](sim::MetricSink& out) { collect(out); });
  metrics.add_peer_collector(
      [this](sim::MetricSink& out) { collect_peers(out); });
  coll_ = std::make_unique<coll::CollectiveEngine>(eng, nic, *this, cfg,
                                                   trace, metrics);
  eng_.spawn_daemon(tx_pump());
  eng_.spawn_daemon(rx_pump());
}

void Mcp::collect(sim::MetricSink& out) {
  // Every NIC event with a series: the recorder is the count's one home,
  // and MetricRegistry::reset() leaves it alone.
  for (std::size_t i = 0; i < kNicEventCount; ++i) {
    const auto kind = static_cast<NicEvent>(i);
    if (const char* series = series_name(kind)) {
      out.counter(prefix_ + series, recorder_.count(kind));
    }
  }
  const std::string mcp = prefix_ + "mcp.";
  out.gauge(mcp + "request_ring", static_cast<double>(requests_.size()));
  out.gauge(mcp + "request_ring_hwm", static_cast<double>(req_ring_hwm_));
  out.gauge(mcp + "rx_queue_hwm", static_cast<double>(rx_queue_hwm_));
  out.gauge(mcp + "tx_in_flight", static_cast<double>(tx_in_flight()));
  const std::string rel = prefix_ + "rel.";
  out.gauge(rel + "sessions", static_cast<double>(tx_sessions_.size()));
  out.gauge(rel + "unreachable_peers",
            static_cast<double>(unreachable_peers()));
  out.gauge(prefix_ + "path.quarantined",
            static_cast<double>(path_table_->quarantined_count()));
}

void Mcp::collect_peers(sim::MetricSink& out) {
  // Estimator series for every peer that ever had a session.  They read
  // the CURRENT session, so a session replaced after a peer restart never
  // leaves them on its graveyarded predecessor; a peer with no live
  // session reads zero.
  for (const hw::NodeId dst : session_peers_) {
    const TxSession* s = find_tx_session(dst);
    const std::string p = prefix_ + "rel.peer" + std::to_string(dst) + ".";
    out.gauge(p + "srtt_us", s != nullptr ? s->srtt().to_us() : 0.0);
    out.gauge(p + "rto_us", s != nullptr ? s->rto().to_us() : 0.0);
    out.gauge(p + "backoff", s != nullptr ? s->backoff_level() : 0);
    out.gauge(p + "in_flight",
              s != nullptr ? static_cast<double>(s->in_flight()) : 0.0);
    out.gauge(p + "unreachable",
              s != nullptr && s->peer_unreachable() ? 1.0 : 0.0);
    out.counter(p + "fast_retransmits",
                s != nullptr ? s->fast_retransmits() : 0);
    out.counter(p + "rtt_samples", s != nullptr ? s->rtt_samples() : 0);
  }
}

Mcp::~Mcp() = default;

sim::Task<void> Mcp::coll_send(hw::Packet p) {
  if (crashed_) co_return;  // fan-out from a dead MCP never reaches the wire
  stamp_outbound(p);
  co_await nic_.lanai().use(cfg_.mcp_coll_proc);
  // Admission pacing happens before the tx mutex: a throttled child must
  // delay only its own packet, never head-of-line block the other
  // destinations (or the release cascade) behind the shared egress path.
  // Fan-out always reserves cursor time — a tree interior node blasting
  // fragments at its children is the burst the fabric cannot absorb, so
  // repeated sends to the same child self-space even before the first
  // ECN echo comes back.
  co_await cc_->pace(p.dst_node, p.wire_bytes(), /*reserve=*/true);
  auto guard = co_await tx_mutex_.scoped();
  p.id = next_packet_id_++;
  if (cfg_.reliable) {
    // kPeerUnreachable is deliberately swallowed: failed() has already
    // failed every group containing the dead peer.
    (void)co_await tx_session(p.dst_node).send(std::move(p));
  } else {
    p.path_id = path_for(p.dst_node, p.path_id);
    co_await nic_.transmit(std::move(p));
  }
}

void Mcp::register_port(Port* port) { ports_[port->id().port] = port; }

void Mcp::unregister_port(std::uint32_t port_no) { ports_.erase(port_no); }

Port* Mcp::find_port(std::uint32_t port_no) {
  const auto it = ports_.find(port_no);
  return it == ports_.end() ? nullptr : it->second;
}

TxSession& Mcp::tx_session(hw::NodeId dst) {
  auto& s = tx_sessions_[dst];
  if (!s) {
    // Per-session deterministic jitter stream, distinct per ordered pair.
    const std::uint64_t seed =
        (static_cast<std::uint64_t>(nic_.node()) << 32) ^
        static_cast<std::uint64_t>(dst) ^ 0x5DEECE66Dull;
    // A session toward a peer that restarted (or answered a revival probe)
    // — or any session born after our own reboot — opens with the SYN
    // handshake.  Cold-start sessions at incarnation 0 skip it: both ends
    // begin at cfg.first_seq by construction, and the handshake packets
    // would perturb the calibrated baselines.
    const bool handshake =
        needs_syn_.count(dst) != 0 || nic_.incarnation() > 0;
    needs_syn_.erase(dst);
    SessionOwner& owner = *this;  // a private base: convert it here
    s = std::make_unique<TxSession>(eng_, nic_, cfg_, owner, dst, *cc_,
                                    recorder_, trace_, seed, handshake);
    // Multipath: when the fabric offers alternative routes toward dst,
    // track their health and let RTO strikes — never ECN marks or
    // congestion-inflated RTTs — rotate the session across paths.  A
    // single-route destination stays untracked on the default route.
    if (const hw::Fabric* fab = nic_.fabric()) {
      path_table_->init(dst, fab->route_count(nic_.node(), dst));
    }
    if (handshake) eng_.spawn_daemon(prober(dst, hw::kDefaultPath, s.get()));
    const auto at =
        std::lower_bound(session_peers_.begin(), session_peers_.end(), dst);
    if (at == session_peers_.end() || *at != dst) {
      session_peers_.insert(at, dst);
    }
  }
  return *s;
}

TxSession* Mcp::find_tx_session(hw::NodeId dst) {
  const auto it = tx_sessions_.find(dst);
  return it == tx_sessions_.end() ? nullptr : it->second.get();
}

sim::Task<void> Mcp::announce_peer_failure(hw::NodeId dst) {
  // Revival probing starts with the verdict: if the peer (or the path)
  // comes back, the prober's answered keepalive rescinds it and the next
  // send re-establishes the session.
  spawn_prober(dst, hw::kDefaultPath);
  // All fabric paths quarantined is a different disease than a dead peer:
  // report "partitioned" so the postmortem (and the send events) say so.
  const BclErr err = verdict(dst);
  const bool partitioned = err == BclErr::kPartitioned;
  if (diagnosis_hook_) {
    diagnosis_hook_(partitioned ? "partitioned" : "peer-unreachable",
                    static_cast<int>(dst),
                    (partitioned ? "all fabric paths " : "go-back-N session ") +
                        nic_.name() + " -> node " + std::to_string(dst));
  }
  co_await coll_->on_peer_failure(dst);
  for (auto& [no, port] : ports_) {
    co_await deliver_send_event(port, SendEvent{0, PortId{dst, 0}, false, err});
  }
}

RxSession& Mcp::rx_session(hw::NodeId src) {
  return rx_sessions_.try_emplace(src, cfg_.first_seq).first->second;
}

void Mcp::crash() {
  if (crashed_) return;
  crashed_ = true;
  nic_.halt();
  recorder_.record(
      {eng_.now(), NicEvent::kCrash, 0, 0, 0, nic_.incarnation()});
  // Every tx session dies with its SRAM.  Poisoning fails parked and
  // in-flight sends with kPeerRestarted — exactly once each, through the
  // failing fragment's event or the e2e ledger's error flush.
  for (auto& [dst, s] : tx_sessions_) s->poison(BclErr::kPeerRestarted);
  // Descriptors already queued in the request ring are SRAM content too:
  // fail them through the (host-resident) event queues so no sender waits
  // on a ring nobody will ever drain.  The kernel completes these on
  // behalf of the dead hardware.
  while (auto d = requests_.try_recv()) {
    eng_.spawn_daemon(complete_send(*d, BclErr::kPeerRestarted));
  }
  // Collective groups, parked fan-in packets, pending accumulators: gone.
  coll_->on_local_crash();
  // Inbound packets queued behind the pump are pre-crash SRAM as well.
  while (nic_.rx().try_recv()) {
  }
}

void Mcp::reset() {
  if (!crashed_) return;
  // The old sessions are already poisoned; retire them so their parked
  // timer daemons wake on live objects, and start the new incarnation
  // with empty tables.
  for (auto& [dst, s] : tx_sessions_) {
    session_graveyard_.push_back(std::move(s));
  }
  tx_sessions_.clear();
  rx_sessions_.clear();
  cc_->forget_all();
  peer_incarnation_.clear();
  last_restart_notice_.clear();
  syn_seen_.clear();
  needs_syn_.clear();
  path_table_->reset();
  flow_->reset_all();
  nic_.reboot();
  crashed_ = false;
  recorder_.record(
      {eng_.now(), NicEvent::kRestart, 0, 0, 0, nic_.incarnation()});
}

bool Mcp::fence_incarnation(const hw::Packet& p) {
  // Stale dst: the sender addressed a previous boot of this NIC.  Any
  // reply carries our new epoch (stamped at the NIC), so a rate-limited
  // kProbeAck doubles as a restart notice — the sender's own src fence
  // turns it into a session teardown.
  if (p.dst_incarnation != nic_.incarnation() &&
      p.dst_incarnation != hw::kAnyIncarnation) {
    recorder_.add(NicEvent::kStaleIncDrop);
    const auto it = last_restart_notice_.find(p.src_node);
    if (it == last_restart_notice_.end() ||
        eng_.now() - it->second >= kRestartNoticeInterval) {
      last_restart_notice_[p.src_node] = eng_.now();
      recorder_.add(NicEvent::kRestartNoticeTx);
      eng_.spawn_daemon(
          send_ctrl(p.src_node, SendOp::kProbeAck, 0, p.src_incarnation));
    }
    return false;
  }
  const std::uint32_t newest = peer_inc(p.src_node);
  if (p.src_incarnation < newest) {
    // Old-epoch straggler: fenced before its pre-crash sequence number
    // can alias the fresh session's space.
    recorder_.add(NicEvent::kStaleIncDrop);
    return false;
  }
  if (p.src_incarnation > newest) {
    peer_incarnation_[p.src_node] = p.src_incarnation;
    handle_peer_restart(p.src_node);
  }
  return true;
}

void Mcp::handle_peer_restart(hw::NodeId src) {
  recorder_.record({eng_.now(), NicEvent::kPeerRestart, src, 0, 0,
                    peer_inc(src)});
  teardown_session(src, BclErr::kPeerRestarted);
  rx_sessions_.erase(src);
  cc_->forget(src);
  flow_->reset_node(src);
  needs_syn_.insert(src);
}

void Mcp::teardown_session(hw::NodeId peer, BclErr err) {
  const auto it = tx_sessions_.find(peer);
  if (it == tx_sessions_.end()) return;
  it->second->poison(err);  // no-op if already dead: no duplicate events
  session_graveyard_.push_back(std::move(it->second));
  tx_sessions_.erase(it);
}

std::uint32_t Mcp::peer_inc(hw::NodeId dst) const {
  const auto it = peer_incarnation_.find(dst);
  return it == peer_incarnation_.end() ? 0 : it->second;
}

void Mcp::stamp_outbound(hw::Packet& p) {
  p.dst_incarnation = peer_inc(p.dst_node);
}

hw::Packet Mcp::ctrl_packet(hw::NodeId dst, hw::PacketKind kind, SendOp op,
                            std::uint8_t path) {
  hw::Packet p;
  p.dst_node = dst;
  p.proto = kProto;
  p.kind = kind;
  p.op_flags = static_cast<std::uint16_t>(op);
  p.path_id = path_for(dst, path);
  p.header_bytes = kCtrlHeaderBytes;
  stamp_outbound(p);
  return p;
}

sim::Task<void> Mcp::launch(hw::Packet p, sim::Time proc) {
  p.id = next_packet_id_++;
  co_await nic_.lanai().use(proc);
  co_await nic_.transmit(std::move(p));
}

sim::Task<void> Mcp::send_ctrl(hw::NodeId dst, SendOp op, std::uint32_t seq,
                               std::uint32_t dst_inc, std::uint64_t nonce,
                               std::uint8_t path) {
  hw::Packet p = ctrl_packet(dst, hw::PacketKind::kCtrl, op, path);
  p.seq = seq;
  p.msg_id = nonce;
  p.dst_incarnation = dst_inc;
  // A fresh allowance rides the SYN-ACK so the re-established sender can
  // move before the first data packet's piggyback.
  if (op == SendOp::kSynAck) flow_->attach_grant(p);
  co_await launch(std::move(p), cfg_.mcp_fc_proc);
}

void Mcp::spawn_prober(hw::NodeId dst, std::uint8_t path) {
  if (probing_.insert({dst, path}).second) {
    eng_.spawn_daemon(prober(dst, path));
  }
}

sim::Task<void> Mcp::prober(hw::NodeId dst, std::uint8_t path,
                            TxSession* syn) {
  const bool revival = syn == nullptr && path == hw::kDefaultPath;
  // One nonce per handshake: retried SYNs are idempotent at the receiver
  // (it re-draws the SYN-ACK without resetting an rx session that already
  // took post-handshake data).  A SYN's seq is the iss; a path probe's
  // names the path it tests; revival probes carry 0.
  const std::uint64_t nonce = syn != nullptr ? next_packet_id_++ : 0;
  const std::uint32_t seq = syn != nullptr ? cfg_.first_seq
                            : revival      ? 0
                                           : std::uint32_t{path} + 1;
  const NicEvent sent = syn != nullptr ? NicEvent::kSynTx
                        : revival      ? NicEvent::kRevivalProbeTx
                                       : NicEvent::kPathProbeTx;
  // A SYN goes out at once, and the ladder's last round draws the verdict
  // instead of sending.
  const int rounds = syn != nullptr ? kSynAttempts + 1 : kProbeRounds;
  for (int i = 0; i < rounds; ++i) {
    if (syn == nullptr || i > 0) {
      co_await eng_.sleep(syn != nullptr ? kSynRetry : kProbeInterval);
    }
    if (!probe_wanted(dst, path, syn)) break;
    if (syn != nullptr && i == kSynAttempts) {
      syn->fail_peer();  // failed() announces it, starts the revival prober
      break;
    }
    recorder_.record({eng_.now(), sent, dst, nonce, seq,
                      sent == NicEvent::kPathProbeTx ? 1u : 0u});
    if (syn != nullptr) {
      co_await send_ctrl(dst, SendOp::kSyn, seq, peer_inc(dst), nonce);
    } else {
      co_await send_ctrl(dst, SendOp::kProbe, seq, hw::kAnyIncarnation, 0,
                         path);
    }
  }
  if (syn == nullptr) probing_.erase({dst, path});
}

bool Mcp::probe_wanted(hw::NodeId dst, std::uint8_t path,
                       const TxSession* syn) {
  if (syn != nullptr) {
    // Not after a teardown replaced the session, nor once it is
    // established or dead (a crash poisons every session).
    return find_tx_session(dst) == syn && !syn->established() &&
           !syn->peer_unreachable();
  }
  if (crashed_) return false;
  if (path != hw::kDefaultPath) return path_table_->is_quarantined(dst, path);
  const TxSession* s = find_tx_session(dst);
  return s != nullptr && s->peer_unreachable();  // not yet revived
}

void Mcp::handle_syn(const hw::Packet& p) {
  recorder_.record(
      {eng_.now(), NicEvent::kSynRx, p.src_node, p.msg_id, p.seq, 1});
  const auto key = std::make_pair(p.src_incarnation, p.msg_id);
  auto [it, inserted] = syn_seen_.try_emplace(p.src_node, key);
  if (inserted || it->second != key) {
    it->second = key;
    // Fresh handshake: restart the rx half at the negotiated iss, the echo
    // window and the receiver's credit ledgers (the sender's halves reset
    // at its teardown).
    rx_sessions_.erase(p.src_node);
    cc_->forget(p.src_node);
    flow_->reset_receiver(p.src_node);
    rx_sessions_.emplace(p.src_node, RxSession{p.seq});
  }
  // Always answer — a lost SYN-ACK is healed by the retry drawing another.
  eng_.spawn_daemon(
      send_ctrl(p.src_node, SendOp::kSynAck, p.seq, p.src_incarnation));
}

void Mcp::handle_syn_ack(const hw::Packet& p) {
  TxSession* s = find_tx_session(p.src_node);
  if (s == nullptr || s->established() || s->peer_unreachable()) return;
  recorder_.record(
      {eng_.now(), NicEvent::kSynAck, p.src_node, p.msg_id, p.seq, 0});
  s->establish();
}

void Mcp::handle_probe_ack(const hw::Packet& p) {
  if (p.seq > 0) {
    // Path-probe answer: the echoed seq names the quarantined path that
    // just proved itself round-trip (the ack rode the probed path back).
    // Requalify it — this also clears a partitioned verdict and re-points
    // the destination's current path off a quarantined one.
    const auto path = static_cast<std::uint8_t>(p.seq - 1);
    if (path_table_->restore(p.src_node, path)) {
      recorder_.record(
          {eng_.now(), NicEvent::kPathRestore, p.src_node, 0, p.seq, path});
    }
  }
  // A rebooted peer was already handled by the src fence (higher epoch →
  // handle_peer_restart before we get here).  An answer reaching an
  // *unreachable* session at the very epoch that failed means the path
  // itself healed after the retry budget died: rescind the verdict by
  // teardown + re-establishment on the next send.
  TxSession* s = find_tx_session(p.src_node);
  if (s == nullptr || !s->peer_unreachable()) return;
  teardown_session(p.src_node, BclErr::kPeerUnreachable);
  needs_syn_.insert(p.src_node);
}

std::uint8_t Mcp::path_for(hw::NodeId dst, std::uint8_t hint) const {
  return hint != hw::kDefaultPath ? hint : path_table_->current(dst);
}

std::uint8_t Mcp::path(hw::NodeId peer) { return path_table_->current(peer); }

bool Mcp::strike(hw::NodeId dst) {
  const std::uint8_t old_path = path_table_->current(dst);
  const auto result = path_table_->strike(dst);
  if (result == PathTable::StrikeResult::kNoChange) return false;
  // The struck path is quarantined either way; probe it so an answered
  // probe can requalify it (and rescind a partition verdict).
  spawn_prober(dst, old_path);
  if (result == PathTable::StrikeResult::kFailedOver) {
    recorder_.record({eng_.now(), NicEvent::kPathFailover, dst, 0, old_path,
                      path_table_->current(dst)});
    return true;
  }
  // kPartitioned: no healthy path remains.  The session keeps its
  // escalation (no reset) so the retry budget ripens into the partitioned
  // verdict instead of rotating forever.
  recorder_.add(NicEvent::kPathPartition);
  return false;
}

void Mcp::progress(hw::NodeId peer) { path_table_->note_good(peer); }

BclErr Mcp::verdict(hw::NodeId peer) {
  return path_table_->partitioned(peer) ? BclErr::kPartitioned
                                        : BclErr::kPeerUnreachable;
}

void Mcp::failed(hw::NodeId peer) {
  recorder_.add(NicEvent::kPeerFailure);
  eng_.spawn_daemon(announce_peer_failure(peer));
}

void Mcp::completed(const TxNotify& n, BclErr err) {
  eng_.spawn_daemon(deliver_send_event(
      find_port(n.src_port),
      SendEvent{n.msg_id, n.dst, err == BclErr::kOk, err}));
}

template <typename T>
std::uint64_t Mcp::sum_sessions(T (TxSession::*read)() const) const {
  std::uint64_t n = 0;
  for (const auto& [node, s] : tx_sessions_) {
    n += static_cast<std::uint64_t>(std::invoke(read, *s));
  }
  return n;
}

std::size_t Mcp::tx_in_flight() const {
  return sum_sessions(&TxSession::in_flight);
}

std::size_t Mcp::unreachable_peers() const {
  return sum_sessions(&TxSession::peer_unreachable);
}

std::vector<Mcp::SessionSnapshot> Mcp::session_snapshot() const {
  std::vector<SessionSnapshot> out;
  out.reserve(tx_sessions_.size());
  for (const auto& [node, s] : tx_sessions_) {
    SessionSnapshot snap;
    snap.peer = node;
    snap.srtt_us = s->srtt().to_us();
    snap.rto_us = s->rto().to_us();
    snap.backoff = s->backoff_level();
    snap.in_flight = s->in_flight();
    snap.retransmissions = s->retransmissions();
    snap.timeouts = s->timeouts();
    snap.fast_retransmits = s->fast_retransmits();
    snap.window_stalls = s->window_stalls();
    snap.unreachable = s->peer_unreachable();
    snap.incarnation = nic_.incarnation();
    snap.peer_incarnation = peer_inc(node);
    out.push_back(snap);
  }
  return out;
}

void Mcp::report_coll_timeout(std::uint16_t gid, std::uint64_t seq,
                              const char* what) {
  recorder_.record({eng_.now(), NicEvent::kCollTimeout, 0, seq, 0, gid});
  if (diagnosis_hook_) {
    diagnosis_hook_("collective-timeout", -1,
                    std::string(what) + " group " + std::to_string(gid) +
                        " seq " + std::to_string(seq));
  }
}

sim::Task<void> Mcp::tx_pump() {
  for (;;) {
    SendDescriptor d = co_await requests_.recv();
    req_ring_hwm_ = std::max(req_ring_hwm_, requests_.size() + 1);
    co_await send_message_locked(std::move(d));
  }
}

sim::Task<void> Mcp::send_message_locked(SendDescriptor d) {
  auto guard = co_await tx_mutex_.scoped();
  co_await send_message(d);
}

sim::Task<void> Mcp::send_message(const SendDescriptor& d) {
  if (crashed_) {
    // The descriptor raced the fail-stop out of the request ring: the
    // kernel completes it with the restart verdict so the sender never
    // waits on dead hardware.
    co_await complete_send(d, BclErr::kPeerRestarted);
    co_return;
  }
  // An RMA read request is a single control packet regardless of the
  // amount of data it asks for; the data flows in the reply.
  const std::uint32_t frags =
      d.op == SendOp::kRmaRead
          ? 1
          : static_cast<std::uint32_t>(std::max<std::uint64_t>(
                1, (d.total_len + cfg_.mtu - 1) / cfg_.mtu));
  m_tx_descriptors_.inc();
  trace_.flow_step(nic_.name(), "msg", flow_key(nic_.node(), d.msg_id));
  if (d.extra_nic_cost > sim::Time::zero()) {
    // User-level front ends push address translation onto the NIC.
    co_await nic_.lanai().use(d.extra_nic_cost);
  }
  for (std::uint32_t i = 0; i < frags; ++i) {
    const std::uint64_t off = static_cast<std::uint64_t>(i) * cfg_.mtu;
    const std::size_t len = static_cast<std::size_t>(
        std::min<std::uint64_t>(cfg_.mtu, d.total_len - off));

    hw::Packet p;
    p.id = next_packet_id_++;
    p.dst_node = d.dst.node;
    p.proto = kProto;
    p.kind = d.op == SendOp::kRmaRead ? hw::PacketKind::kCtrl
                                      : hw::PacketKind::kData;
    p.dst_port = d.dst.port;
    p.src_port = d.src.port;
    p.channel = d.channel.encode();
    p.op_flags = static_cast<std::uint16_t>(
        static_cast<unsigned>(d.op) | static_cast<unsigned>(d.verdict) << 8);
    p.reply_channel = d.reply_channel;
    p.msg_id = d.msg_id;
    p.frag_index = i;
    p.frag_count = frags;
    p.msg_bytes = d.total_len;
    p.offset = d.rma_offset + off;
    flow_->attach_grant(p);  // credits for the reverse direction ride on data
    stamp_outbound(p);  // addressed to the peer epoch we have heard from

    // Per-fragment admission pacing (payload is not staged yet, so the
    // wire size is computed from the header and fragment length).  At line
    // rate this never waits; a throttled destination spaces its fragments
    // here instead of blasting the whole message into a congested path.
    co_await cc_->pace(d.dst.node, p.header_bytes + len);
    if (len > 0 && d.op != SendOp::kRmaRead) {
      auto span = trace_.span(nic_.name(), "nic-dma-host-to-nic", d.msg_id);
      co_await nic_.dma_gather(slice_segments(d.segs, off, len), p.payload,
                               cfg_.dma_lead_bytes);
      m_dma_tx_bytes_.add(len);
    }
    {
      auto span = trace_.span(nic_.name(), "mcp-tx-proc", d.msg_id);
      co_await nic_.lanai().use(cfg_.mcp_tx_proc);
    }
    if (cfg_.reliable) {
      TxSession& sess = tx_session(d.dst.node);
      const BclErr err = co_await sess.send(std::move(p));
      if (err != BclErr::kOk) {
        // Retry budget exhausted (or the peer restarted out from under the
        // session): abandon the remaining fragments and fail the send
        // through the event queue instead of blocking forever.
        trace_.msg_end(flow_key(nic_.node(), d.msg_id), false);
        co_await complete_send(d, err);
        co_return;
      }
      if (cfg_.e2e_completion && d.notify_sender && i + 1 == frags) {
        // End-to-end mode: completion waits for the cumulative ack of the
        // final fragment.  The session resolves each tracked send exactly
        // once (completed()) — kOk on ack, the poison verdict on death.
        sess.track({sess.last_seq(), d.msg_id, d.src.port, d.dst});
      }
    } else {
      co_await nic_.transmit(std::move(p));
    }
  }
  recorder_.add(NicEvent::kMessageSent);
  // End-to-end mode: the session's ledger completes the send (completed()).
  if (cfg_.reliable && cfg_.e2e_completion) co_return;
  // Local completion: the message is staged on the NIC (retransmission is
  // the session's business); notify the sender through its event queue.
  co_await complete_send(d, BclErr::kOk);
}

sim::Task<void> Mcp::complete_send(const SendDescriptor& d, BclErr err) {
  // Not a coroutine: the event is built here, so `d` may die before the
  // returned task runs.  A null port makes the delivery a no-op.
  return deliver_send_event(
      d.notify_sender ? find_port(d.src.port) : nullptr,
      SendEvent{d.msg_id, d.dst, err == BclErr::kOk, err});
}

sim::Task<void> Mcp::rx_pump() {
  for (;;) {
    hw::Packet p = co_await nic_.rx().recv();
    rx_queue_hwm_ = std::max(rx_queue_hwm_, nic_.rx().size() + 1);
    if (p.proto != kProto) continue;  // not ours
    // Fail-stopped MCPs hear nothing (the NIC drops at the wire; this
    // guard covers packets dequeued in the same tick as the crash), and
    // every accepted packet must pass the incarnation fence first so
    // old-epoch traffic can never alias the fresh sequence space.
    if (crashed_) continue;
    if (!fence_incarnation(p)) continue;
    switch (p.kind) {
      case hw::PacketKind::kAck: {
        co_await nic_.lanai().use(cfg_.mcp_ack_proc);
        apply_piggyback(p);
        TxSession* s = find_tx_session(p.src_node);
        if (s == nullptr) {
          recorder_.add(NicEvent::kStrayAck);  // no session: don't make one
          break;
        }
        s->on_ack(p.ack, p.echo_stamp);
        const std::string track = nic_.name() + ".rel";
        trace_.counter(track, "srtt_us", s->srtt().to_us());
        trace_.counter(track, "rto_us", s->rto().to_us());
        trace_.counter(track, "backoff",
                       static_cast<double>(s->backoff_level()));
        break;
      }
      case hw::PacketKind::kNack: {
        // Receiver-not-ready: the peer's pool was full.  Not a loss signal
        // — hand the session the hold hint instead of a timeout.
        co_await nic_.lanai().use(cfg_.mcp_ack_proc);
        if (p.corrupted) {
          recorder_.add(NicEvent::kCrcDrop);
          break;
        }
        apply_piggyback(p);
        recorder_.add(NicEvent::kRnrNackRx);
        if (TxSession* s = find_tx_session(p.src_node)) {
          s->on_rnr(p.ack, sim::Time::us(static_cast<double>(p.nack_hint_us)));
        }
        break;
      }
      case hw::PacketKind::kData:
      case hw::PacketKind::kCtrl: {
        const auto op = static_cast<SendOp>(p.op_flags & 0xff);
        if (op >= SendOp::kFcUpdate) {
          // Session-less control packets: idempotent cumulative state
          // carriers and handshake/revival traffic, never sequenced
          // through the rx session.
          co_await nic_.lanai().use(cfg_.mcp_fc_proc);
          if (p.corrupted) {
            recorder_.add(NicEvent::kCrcDrop);
            break;
          }
          apply_piggyback(p);
          if (op == SendOp::kFcProbe) {
            recorder_.add(NicEvent::kCreditProbeRx);
            if (flow_->on_probe(p.dst_port, p.src_node)) {
              // The answer rides the probe's arrival path, like an ack:
              // after a failover the default route may be dead.
              eng_.spawn_daemon(
                  send_fc_update(p.dst_port, p.src_node, p.path_id));
            }
          } else if (op == SendOp::kSyn) {
            handle_syn(p);
          } else if (op == SendOp::kSynAck) {
            handle_syn_ack(p);
          } else if (op == SendOp::kProbe) {
            // Revival keepalive (seq 0) or quarantined-path probe (seq =
            // path+1): any answer carries our live incarnation; the echoed
            // seq names the path the probe tested, and the reply rides the
            // arrival path so the proof is round-trip.
            recorder_.add(p.seq > 0 ? NicEvent::kPathProbeRx
                                    : NicEvent::kRevivalProbeRx);
            eng_.spawn_daemon(send_ctrl(p.src_node, SendOp::kProbeAck, p.seq,
                                        p.src_incarnation, 0, p.path_id));
          } else if (op == SendOp::kProbeAck) {
            handle_probe_ack(p);
          } else {
            recorder_.add(NicEvent::kCreditUpdateRx);
          }
          break;
        }
        recorder_.add(NicEvent::kRxPacket);
        {
          auto span = trace_.span(nic_.name(), "mcp-rx-proc", p.msg_id);
          co_await nic_.lanai().use(cfg_.mcp_rx_proc);
        }
        if (p.corrupted) {
          // CRC failure: drop; go-back-N recovers by timeout.
          recorder_.add(NicEvent::kCrcDrop);
          break;
        }
        apply_piggyback(p);  // reverse-traffic credit for our sender side
        if (cfg_.reliable) {
          auto& rx = rx_session(p.src_node);
          if (!rx.accept(p.seq)) {
            recorder_.add(NicEvent::kSeqDrop);
            // Duplicate / out-of-order: refresh the sender's view.  The
            // dup still gets its stamp echoed — during a go-back-N resend
            // of a congested window these are the only acks flowing, and
            // they carry the freshest round-trip measurement.
            co_await send_ack(p.src_node, rx.ack_value(), p.tx_stamp,
                              p.path_id);
            break;
          }
          cc_->on_accepted(p);  // after accept(): dupes don't count
          const hw::NodeId src = p.src_node;
          const sim::Time stamp = p.tx_stamp;
          const std::uint32_t ack = rx.ack_value();
          // Ack-follows-data: replies ride the path the data arrived on,
          // so a failed-over sender's acks avoid the dead spine too.
          const std::uint8_t rpath = p.path_id;
          const bool do_ack = (ack % static_cast<std::uint32_t>(
                                         cfg_.ack_every)) == 0 ||
                              p.frag_index + 1 == p.frag_count;
          if (!co_await handle_data(std::move(p))) {
            // No pool slot for an in-sequence message: roll the session
            // back so the paced retransmission is accepted later, and tell
            // the sender explicitly instead of acking data we discarded.
            rx.regress();
            co_await send_ack(src, rx.ack_value(), sim::Time::zero(), rpath,
                              /*rnr=*/true);
            break;
          }
          if (do_ack) co_await send_ack(src, ack, stamp, rpath);
        } else {
          cc_->on_accepted(p);
          (void)co_await handle_data(std::move(p));
        }
        break;
      }
      default:
        break;
    }
  }
}

sim::Task<bool> Mcp::handle_data(hw::Packet p) {
  // Collective packets carry the SendOp in the low op_flags byte (the
  // channel field holds the group id, not a ChannelRef) — demux first.
  if ((p.op_flags & 0xff) ==
      static_cast<std::uint16_t>(SendOp::kColl)) {
    co_await coll_->handle_packet(std::move(p));
    co_return true;
  }
  if (p.kind == hw::PacketKind::kCtrl &&
      static_cast<SendOp>(p.op_flags) == SendOp::kRmaRead) {
    co_await handle_rma_read(p);
    co_return true;
  }
  Port* port = find_port(p.dst_port);
  if (port == nullptr) {
    recorder_.add(NicEvent::kNoPortDrop);
    co_return true;
  }
  trace_.flow_step(nic_.name(), "msg", flow_key(p.src_node, p.msg_id));
  const ChannelRef ch = ChannelRef::decode(p.channel);
  const PortId src{p.src_node, p.src_port};
  // An RMA write pays for the window check whether or not it passes.
  const bool rma_write = ch.kind == ChanKind::kOpen;
  if (rma_write) co_await nic_.lanai().use(cfg_.mcp_rma_proc);
  Landing at = port->land(
      Piece{ch, src, p.msg_id, p.msg_bytes, p.offset, p.payload.size(),
            p.frag_index, cfg_.mtu},
      flow_->defer_when_full());
  if (at.err == BclErr::kWouldBlock) co_return false;
  if (at.err != BclErr::kOk) co_return true;
  if (ch.kind == ChanKind::kSystem) {
    flow_->on_delivered(port->id().port, p.src_node);
  }
  if (!p.payload.empty()) {
    // RMA writes complete silently at the target, outside any traced
    // message timeline.
    auto span = rma_write ? sim::Trace::Span{}
                          : trace_.span(nic_.name(), "nic-dma-nic-to-host",
                                        p.msg_id);
    co_await nic_.dma_scatter(p.payload, std::move(at.pages),
                              cfg_.dma_lead_bytes);
    m_dma_rx_bytes_.add(p.payload.size());
  }
  if (!rma_write && p.frag_index + 1 == p.frag_count) {
    // A refused RMA read's reply: no data, the target's verdict.
    auto post = port->complete(RecvEvent{
        p.msg_id, src, ch, static_cast<std::size_t>(p.msg_bytes), at.slot,
        static_cast<BclErr>(p.op_flags >> 8)});
    auto span = trace_.span(nic_.name(), "event-dma", p.msg_id);
    co_await event_dma();
    co_await post;
  }
  co_return true;
}

sim::Task<void> Mcp::handle_rma_read(const hw::Packet& p) {
  co_await nic_.lanai().use(cfg_.mcp_rma_proc);
  Port* port = find_port(p.dst_port);
  Landing from =
      port != nullptr
          ? port->rma_source(ChannelRef::decode(p.channel), p.offset,
                             static_cast<std::size_t>(p.msg_bytes))
          : Landing{BclErr::kNotBound};
  // Reply: a normal-channel message back to the requester, sent through
  // the regular tx path (serialized with local sends by the tx mutex).
  SendDescriptor d;
  d.msg_id = p.msg_id;
  d.src = PortId{nic_.node(), p.dst_port};
  d.dst = PortId{p.src_node, p.src_port};
  d.channel = ChannelRef{ChanKind::kNormal, p.reply_channel};
  d.op = SendOp::kSend;
  d.notify_sender = false;  // the target did not initiate a send
  if (from.err != BclErr::kOk) {
    // Refused (and counted by the target port): answered without data so
    // the requester's reply channel completes with the verdict the
    // intra-node path gives.
    d.verdict = BclErr::kNotBound;
  } else {
    recorder_.add(NicEvent::kRmaReadServed);
    d.segs = std::move(from.pages);
    d.total_len = p.msg_bytes;
  }
  eng_.spawn_daemon(send_message_locked(std::move(d)));
}

sim::Task<void> Mcp::send_ack(hw::NodeId dst, std::uint32_t ack,
                              sim::Time echo, std::uint8_t path, bool rnr) {
  recorder_.add(rnr ? NicEvent::kRnrNackTx : NicEvent::kAckTx);
  const auto kind = rnr ? hw::PacketKind::kNack : hw::PacketKind::kAck;
  hw::Packet p = ctrl_packet(dst, kind, SendOp::kSend, path);
  p.ack = ack;  // cumulative: everything the pool did take stays acked
  p.echo_stamp = echo;  // RTT timestamp echo (see Packet::tx_stamp)
  if (rnr) {
    p.nack_hint_us = static_cast<std::uint32_t>(cfg_.fc_rnr_backoff.to_us());
  }
  // The main piggyback path for credit return; aboard an RNR the current
  // limit also heals any lost earlier grant.
  flow_->attach_grant(p);
  cc_->attach_echo(p);
  co_await launch(std::move(p), cfg_.mcp_ack_proc);
}

void Mcp::apply_piggyback(const hw::Packet& p) {
  flow_->take_grant(p);
  cc_->take_echo(p);
}

void Mcp::credit_doorbell(std::uint32_t port_no) {
  for (const hw::NodeId dst : flow_->doorbell(port_no)) {
    eng_.spawn_daemon(send_fc_update(port_no, dst));
  }
}

sim::Task<void> Mcp::send_fc_update(std::uint32_t port_no, hw::NodeId dst,
                                    std::uint8_t path) {
  // Standalone updates launch through the pacer too: a starved sender's
  // credit top-ups must not themselves feed a congested path.  Pace before
  // reading the limit so the grant aboard is as fresh as possible — and
  // look the ledger up only then, since a crash, a peer restart or a fresh
  // handshake may have erased it during the wait.
  co_await cc_->pace(dst, kCtrlHeaderBytes);
  hw::Packet p =
      ctrl_packet(dst, hw::PacketKind::kCtrl, SendOp::kFcUpdate, path);
  if (!flow_->fill_update(p, port_no)) co_return;
  recorder_.add(NicEvent::kCreditUpdateTx);
  cc_->attach_echo(p);
  co_await launch(std::move(p), cfg_.mcp_fc_proc);
}

// Only a sender stalled on credits calls this, and only flow control
// stalls it.
void Mcp::fc_probe(PortId dst) { eng_.spawn_daemon(send_fc_probe(dst)); }

sim::Task<void> Mcp::send_fc_probe(PortId dst) {
  co_await cc_->pace(dst.node, kCtrlHeaderBytes);
  recorder_.add(NicEvent::kCreditProbeTx);
  hw::Packet p =
      ctrl_packet(dst.node, hw::PacketKind::kCtrl, SendOp::kFcProbe);
  p.dst_port = dst.port;
  co_await launch(std::move(p), cfg_.mcp_fc_proc);
}

sim::Task<void> Mcp::event_dma() {
  co_await nic_.lanai().use(cfg_.mcp_event_proc);
  co_await eng_.sleep(cfg_.event_dma);
}

sim::Task<void> Mcp::deliver_send_event(Port* port, SendEvent ev) {
  if (port == nullptr) co_return;  // no local sender to notify
  auto span = trace_.span(nic_.name(), "event-dma-send", ev.msg_id);
  co_await event_dma();
  co_await port->send_events().send(ev);
}

}  // namespace bcl
