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
      intra_{eng, kernel_, cfg.cost, metrics_} {
  register_node_metrics(metrics_);
}

void NodeStack::register_node_metrics(sim::MetricRegistry& m) {
  const std::string node_prefix = "node" + std::to_string(node_.id()) + ".";
  // Kernel / pin-down cache (osk layer).
  const std::string osk = node_prefix + "osk.";
  m.counter(osk + "traps", [this] { return kernel_.traps(); });
  m.counter(osk + "pin_hits", [this] { return kernel_.pindown().hits(); });
  m.counter(osk + "pin_misses", [this] { return kernel_.pindown().misses(); });
  m.counter(osk + "pages_pinned_total",
            [this] { return kernel_.pindown().pages_pinned_total(); });
  m.gauge(osk + "pinned_pages", [this] {
    return static_cast<double>(kernel_.pindown().pinned_pages());
  });
  m.gauge(osk + "peak_pinned_pages", [this] {
    return static_cast<double>(kernel_.pindown().peak_pinned_pages());
  });
  // NIC hardware counters.
  const std::string nic = node_prefix + "nic.";
  m.counter(nic + "tx_packets",
            [this] { return node_.nic().tx_packets(); });
  m.counter(nic + "rx_packets",
            [this] { return node_.nic().rx_packets(); });
  m.gauge(nic + "sram_free_bytes", [this] {
    return static_cast<double>(node_.nic().sram_free());
  });
  m.gauge(nic + "rx_queue", [this] {
    return static_cast<double>(node_.nic().rx().size());
  });
}

void NodeStack::register_port_metrics(sim::MetricRegistry& m, Port& port) {
  const std::string prefix = "node" + std::to_string(node_.id()) + ".port" +
                             std::to_string(port.id().port) + ".";
  Port* p = &port;  // ports are heap-allocated and outlive the registry user
  m.counter(prefix + "messages_received",
            [p] { return p->messages_received; });
  m.counter(prefix + "messages_sent", [p] { return p->messages_sent; });
  m.counter(prefix + "sys_drops", [p] { return p->sys_drops; });
  m.counter(prefix + "rnr_events", [p] { return p->rnr_events; });
  m.counter(prefix + "not_posted_drops",
            [p] { return p->not_posted_drops; });
  m.counter(prefix + "rma_errors", [p] { return p->rma_errors; });
  m.gauge(prefix + "recv_cq_depth",
          [p] { return static_cast<double>(p->recv_events().size()); });
  m.gauge(prefix + "send_cq_depth",
          [p] { return static_cast<double>(p->send_events().size()); });
}

Endpoint& NodeStack::open_endpoint() {
  if (next_port_ >= cfg_.cost.max_ports) {
    throw std::runtime_error("all BCL ports on this node are in use");
  }
  auto& proc = kernel_.create_process();
  const PortId pid{node_.id(), next_port_++};
  auto port = std::make_unique<Port>(eng_, pid, proc, cfg_.cost);
  if (driver_.setup_system_channel(proc, *port, cfg_.cost.sys_slots,
                                   cfg_.cost.sys_slot_bytes) != BclErr::kOk) {
    throw std::runtime_error("system channel setup failed");
  }
  register_port_metrics(metrics_, *port);
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
