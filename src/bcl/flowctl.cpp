#include "bcl/flowctl.hpp"

#include <algorithm>

#include "bcl/reliable.hpp"  // seq_lt: serial order shared with the sessions

namespace bcl {

namespace {

// Packet::credit_port value meaning "no credit grant aboard".
constexpr std::uint16_t kNoGrant = 0xffff;

}  // namespace

FlowController::FlowController(sim::Engine& eng, const CostConfig& cfg,
                               const std::string& nic_name, sim::Trace& trace,
                               sim::MetricRegistry& metrics,
                               FlightRecorder& recorder, FreeSlots free_slots)
    : eng_{eng},
      cfg_{cfg},
      trace_{trace},
      recorder_{recorder},
      free_slots_{std::move(free_slots)},
      track_{nic_name + ".fc"},
      credit_rtt_{metrics.summary(track_ + ".credit_rtt_us")} {
  metrics.add_collector([this](sim::MetricSink& out) { collect(out); });
}

std::uint32_t FlowController::initial() const {
  return static_cast<std::uint32_t>(
      std::max(0, std::min(cfg_.fc_initial_credits, cfg_.sys_slots)));
}

FlowController::Dst& FlowController::state(const PortId& dst) {
  auto [it, inserted] = dsts_.try_emplace(dst);
  if (inserted) it->second.limit = initial();
  return it->second;
}

void FlowController::note_level(const PortId& dst, const Dst& d) {
  trace_.counter(track_,
                 "credits_n" + std::to_string(dst.node) + "p" +
                     std::to_string(dst.port),
                 static_cast<double>(d.limit - d.used));
}

std::uint32_t FlowController::available(const PortId& dst) {
  const Dst& d = state(dst);
  return d.limit - d.used;  // serial distance: used never passes limit
}

bool FlowController::try_consume(const PortId& dst) {
  Dst& d = state(dst);
  if (d.limit == d.used) {
    if (!d.stalled) {
      d.stalled = true;
      d.stall_start = eng_.now();
      ++stalls_;
    }
    return false;
  }
  ++d.used;
  ++consumed_;
  note_level(dst, d);
  return true;
}

void FlowController::refund(const PortId& dst) {
  Dst& d = state(dst);
  --d.used;
  --consumed_;
  note_level(dst, d);
}

void FlowController::on_grant(const PortId& dst, std::uint32_t limit) {
  Dst& d = state(dst);
  if (!seq_lt(d.limit, limit)) return;  // stale or duplicate grant
  d.limit = limit;
  ++grants_rx_;
  if (d.stalled && d.limit != d.used) {
    d.stalled = false;
    credit_rtt_.add((eng_.now() - d.stall_start).to_us());
  }
  note_level(dst, d);
}

void FlowController::take_grant(const hw::Packet& p) {
  if (cfg_.flow_control && p.credit_port != kNoGrant) {
    on_grant(PortId{p.src_node, p.credit_port}, p.credit_limit);
  }
}

FlowController::Ledger& FlowController::ledger(std::uint32_t port_no,
                                               hw::NodeId src) {
  auto [it, inserted] = ledgers_.try_emplace({port_no, src});
  if (inserted) it->second.limit = initial();
  return it->second;
}

std::uint32_t FlowController::top_up(Ledger& l, std::uint32_t free) {
  // Per-sender window: raise this ledger's outstanding allowance toward
  // min(initial, slots free right now).  The cap keeps any single sender
  // from overrunning the pool on its own (its allowance never exceeds
  // what is free), but deliberately ignores the other ledgers: bounding
  // grants by free slots minus every OTHER ledger's outstanding allowance
  // deadlocks once idle senders hoard their unused initial grants — the
  // sum goes permanently non-positive and the one active sender starves.
  // The resulting cross-sender overcommit is what the RNR-NACK path
  // absorbs: a burst that collectively outruns the pool is NACKed and
  // retried, never dropped.
  const std::uint32_t outstanding = l.limit - l.delivered;
  const std::uint32_t cap = std::min(initial(), free);
  if (outstanding >= cap) return 0;
  const std::uint32_t grant = cap - outstanding;
  l.limit += grant;
  recorder_.add(NicEvent::kCreditGranted, grant);
  return grant;
}

void FlowController::attach_grant(hw::Packet& p) {
  if (!cfg_.flow_control) return;
  for (auto& [key, l] : ledgers_) {
    if (key.second != p.dst_node) continue;
    const auto free = free_slots_(key.first);
    if (!free) continue;
    top_up(l, *free);
    p.credit_port = static_cast<std::uint16_t>(key.first);
    p.credit_limit = l.limit;
    return;
  }
}

std::vector<hw::NodeId> FlowController::doorbell(std::uint32_t port_no) {
  std::vector<hw::NodeId> owed;
  const auto free = cfg_.flow_control ? free_slots_(port_no) : std::nullopt;
  if (!free) return owed;
  std::vector<Ledgers::value_type*> port_ledgers;
  for (auto& entry : ledgers_) {
    if (entry.first.first == port_no) port_ledgers.push_back(&entry);
  }
  if (port_ledgers.empty()) return owed;
  // The scan start rotates across doorbells, so the standalone updates
  // (and the sender wakeups they trigger) don't always favor the
  // lowest-numbered sender when several are starved at once.
  const std::size_t n = port_ledgers.size();
  const std::size_t start = doorbell_next_[port_no]++ % n;
  for (std::size_t i = 0; i < n; ++i) {
    auto& [key, l] = *port_ledgers[(start + i) % n];
    const bool starved = l.limit == l.delivered;
    const std::uint32_t granted = top_up(l, *free);
    // A starved sender's next packet would be the grant's only ride back;
    // smaller grants to a fed sender wait for piggyback rides unless a
    // whole batch accumulated.
    if (granted > 0 &&
        (starved || granted >= static_cast<std::uint32_t>(
                                   std::max(1, cfg_.fc_credit_batch)))) {
      owed.push_back(key.second);
    }
  }
  return owed;
}

bool FlowController::on_probe(std::uint32_t port_no, hw::NodeId src) {
  const auto free = cfg_.flow_control ? free_slots_(port_no) : std::nullopt;
  if (free) top_up(ledger(port_no, src), *free);
  return free.has_value();
}

bool FlowController::fill_update(hw::Packet& p, std::uint32_t port_no) const {
  const auto it = ledgers_.find({port_no, p.dst_node});
  if (it == ledgers_.end()) return false;
  p.credit_port = static_cast<std::uint16_t>(port_no);
  p.credit_limit = it->second.limit;
  return true;
}

void FlowController::reset_node(hw::NodeId node) {
  reset_receiver(node);
  std::erase_if(dsts_,
                [node](const auto& entry) { return entry.first.node == node; });
}

void FlowController::reset_receiver(hw::NodeId node) {
  std::erase_if(ledgers_, [node](const auto& entry) {
    return entry.first.second == node;
  });
}

void FlowController::collect(sim::MetricSink& out) const {
  const std::string fc = track_ + ".";
  out.counter(fc + "stalls", stalls_);
  out.counter(fc + "credits_consumed", consumed_);
  out.counter(fc + "grants_rx", grants_rx_);
  double send_credits = 0;
  for (const auto& [dst, d] : dsts_) {
    send_credits += static_cast<double>(d.limit - d.used);
  }
  out.gauge(fc + "send_credits", send_credits);
  double rx_outstanding = 0;
  for (const auto& [key, l] : ledgers_) {
    rx_outstanding += static_cast<double>(l.limit - l.delivered);
  }
  out.gauge(fc + "rx_outstanding", rx_outstanding);
}

}  // namespace bcl
