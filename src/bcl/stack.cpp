#include "bcl/stack.hpp"

#include <stdexcept>

#include "hw/myrinet_switch.hpp"

namespace bcl {

NodeStack::NodeStack(sim::Engine& eng, hw::NodeId id,
                     const ClusterConfig& cfg, sim::Trace* trace,
                     sim::MetricRegistry* metrics)
    : eng_{eng},
      cfg_{cfg},
      trace_{trace ? *trace : throw std::invalid_argument("null trace")},
      metrics_{metrics ? *metrics
                       : throw std::invalid_argument("null registry")},
      node_{eng, id, cfg.node},
      kernel_{eng, node_, cfg.kernel},
      mcp_{eng, node_.nic(), cfg.cost, trace_, metrics_},
      driver_{kernel_, mcp_, cfg.cost, cfg.nodes, trace_, metrics_},
      intra_{eng, kernel_, cfg.cost, metrics_},
      prefix_{"node" + std::to_string(id) + "."} {
  metrics_.add_collector([this](sim::MetricSink& out) { collect(out); });
}

void NodeStack::collect(sim::MetricSink& out) {
  // Kernel / pin-down cache (osk layer).
  const osk::PinDownTable& pins = kernel_.pindown();
  out.counter(prefix_ + "osk.traps", kernel_.traps());
  out.counter(prefix_ + "osk.pin_hits", pins.hits());
  out.counter(prefix_ + "osk.pin_misses", pins.misses());
  out.counter(prefix_ + "osk.pages_pinned_total", pins.pages_pinned_total());
  out.gauge(prefix_ + "osk.pinned_pages",
            static_cast<double>(pins.pinned_pages()));
  out.gauge(prefix_ + "osk.peak_pinned_pages",
            static_cast<double>(pins.peak_pinned_pages()));
  // NIC hardware counters.
  hw::Nic& nic = node_.nic();
  out.counter(prefix_ + "nic.tx_packets", nic.tx_packets());
  out.counter(prefix_ + "nic.rx_packets", nic.rx_packets());
  out.gauge(prefix_ + "nic.sram_free_bytes",
            static_cast<double>(nic.sram_free()));
  out.gauge(prefix_ + "nic.rx_queue", static_cast<double>(nic.rx().size()));
  // Every open port.
  for (const auto& ep : endpoints_) {
    Port& p = ep->port();
    const std::string port =
        prefix_ + "port" + std::to_string(p.id().port) + ".";
    out.counter(port + "messages_received", p.messages_received());
    out.counter(port + "messages_sent", p.messages_sent());
    out.counter(port + "sys_drops", p.sys_drops());
    out.counter(port + "rnr_events", p.rnr_events());
    out.counter(port + "not_posted_drops", p.not_posted_drops());
    out.counter(port + "rma_errors", p.rma_errors());
    out.gauge(port + "recv_cq_depth",
              static_cast<double>(p.recv_events().size()));
    out.gauge(port + "send_cq_depth",
              static_cast<double>(p.send_events().size()));
  }
}

Endpoint& NodeStack::open_endpoint() {
  if (next_port_ >= cfg_.cost.max_ports) {
    throw std::runtime_error("all BCL ports on this node are in use");
  }
  auto& proc = kernel_.create_process();
  const PortId pid{node_.id(), next_port_++};
  auto port = std::make_unique<Port>(eng_, pid, proc, cfg_.cost);
  endpoints_.push_back(std::make_unique<Endpoint>(
      eng_, cfg_.cost, driver_, mcp_, intra_, proc, std::move(port), trace_,
      metrics_));
  return *endpoints_.back();
}

BclCluster::BclCluster(const ClusterConfig& cfg)
    : cfg_{cfg}, trace_{eng_}, sampler_{eng_, metrics_} {
  // Spans feed per-stage summaries in the registry even when full event
  // recording is off, so registry and trace always agree.
  trace_.set_registry(&metrics_);
  fabric_ = hw::make_fabric(eng_, cfg_.nodes, cfg_.fabric);
  stacks_.reserve(cfg_.nodes);
  for (std::uint32_t i = 0; i < cfg_.nodes; ++i) {
    stacks_.push_back(
        std::make_unique<NodeStack>(eng_, i, cfg_, &trace_, &metrics_));
    fabric_->attach(i, stacks_.back()->node().nic());
  }
  // After attach: node links exist only once every NIC is wired in (the
  // Myrinet host links are created by attach itself, so the trace hookup
  // must also wait until here).
  fabric_->register_metrics(metrics_);
  fabric_->set_trace(&trace_);
  // Malformed source routes caught inside the crossbars surface as a
  // rate-limited kRouteError warning in the offending sender's flight
  // recorder (the switch counter alone says nothing about whose route).
  if (auto* myri = dynamic_cast<hw::MyrinetFabric*>(fabric_.get())) {
    myri->set_route_error_hook(
        [this](const std::string&, const hw::Packet& p) {
          if (p.src_node >= stacks_.size()) return;
          stacks_[p.src_node]->mcp().recorder().record(
              {eng_.now(), NicEvent::kRouteError, p.dst_node, p.msg_id,
               p.seq, p.route_pos});
        });
  }
  trace_.set_event_cap(cfg_.trace_event_cap);
  for (std::uint32_t i = 0; i < cfg_.nodes; ++i) {
    const hw::NodeId nid = i;
    stacks_[i]->mcp().set_diagnosis_hook(
        [this, nid](const std::string& reason, int peer,
                    const std::string& victim) {
          if (postmortems_.size() >= cfg_.postmortem_max) {
            ++postmortems_suppressed_;
            return;
          }
          postmortems_.push_back(build_postmortem(
              *this, nid, reason, peer, victim, cfg_.postmortem_top_links));
        });
  }
}

}  // namespace bcl
