#include "bcl/flowctl.hpp"

#include <algorithm>
#include <iterator>

#include "bcl/reliable.hpp"  // seq_lt: serial order shared with the sessions

namespace bcl {

FlowController::FlowController(sim::Engine& eng, const CostConfig& cfg,
                               const std::string& nic_name, sim::Trace& trace,
                               sim::MetricRegistry& metrics)
    : eng_{eng},
      cfg_{cfg},
      trace_{trace},
      track_{nic_name + ".fc"},
      credit_rtt_{metrics.summary(track_ + ".credit_rtt_us")} {}

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

void FlowController::reset_node(hw::NodeId node) {
  for (auto it = dsts_.begin(); it != dsts_.end();) {
    it = it->first.node == node ? dsts_.erase(it) : std::next(it);
  }
}

double FlowController::total_available() const {
  double n = 0;
  for (const auto& [id, d] : dsts_) n += static_cast<double>(d.limit - d.used);
  return n;
}

}  // namespace bcl
