#include "hw/myrinet_switch.hpp"

#include <stdexcept>
#include <utility>

#include "hw/nic.hpp"
#include "sim/metrics.hpp"

namespace hw {

CrossbarSwitch::CrossbarSwitch(sim::Engine& eng, std::string name, int ports,
                               sim::Time fall_through)
    : eng_{eng},
      name_{std::move(name)},
      fall_through_{fall_through},
      outputs_(static_cast<std::size_t>(ports), nullptr) {
  for (int p = 0; p < ports; ++p) {
    inputs_.push_back(std::make_unique<sim::Channel<Packet>>(eng_));
    eng_.spawn_daemon(pump(p));
  }
}

void CrossbarSwitch::connect_output(int port, Link& link) {
  outputs_.at(static_cast<std::size_t>(port)) = &link;
}

Link::Sink CrossbarSwitch::input_sink(int port) {
  auto* ch = inputs_.at(static_cast<std::size_t>(port)).get();
  return [ch](Packet&& p) { (void)ch->try_send(std::move(p)); };
}

// Malformed-route discards are diagnosable, not just counted: the first
// error (and at most one per 100 us thereafter) is surfaced through the
// installed hook so a flight recorder can log a kRouteError event without a
// misbehaving sender flooding the ring.
void CrossbarSwitch::note_route_error(const Packet& p) {
  if (!route_error_hook_) return;
  const sim::Time now = eng_.now();
  if (route_error_reported_ &&
      now - last_route_error_report_ < sim::Time::us(100)) {
    return;
  }
  route_error_reported_ = true;
  last_route_error_report_ = now;
  route_error_hook_(name_, p);
}

sim::Task<void> CrossbarSwitch::pump(int port) {
  auto& in = *inputs_[static_cast<std::size_t>(port)];
  for (;;) {
    Packet p = co_await in.recv();
    if (failed_flag_) {
      // Dead crossbar: consume instantly, nothing crosses the backplane.
      ++failed_drops_;
      continue;
    }
    if (p.route_pos >= p.route.size()) {
      ++route_errors_;
      note_route_error(p);
      continue;  // malformed route: drop (reliability layer recovers)
    }
    const int out = p.route[p.route_pos++];
    Link* link = out >= 0 && out < ports()
                     ? outputs_[static_cast<std::size_t>(out)]
                     : nullptr;
    if (link == nullptr) {
      ++route_errors_;
      note_route_error(p);
      continue;
    }
    co_await eng_.sleep(fall_through_);
    ++forwarded_;
    // The input backlog behind the packet is where a crossbar congests.
    co_await link->forward(std::move(p), in.size());
  }
}

MyrinetFabric::MyrinetFabric(sim::Engine& eng, std::uint32_t n_nodes,
                             const MyrinetConfig& cfg)
    : eng_{eng}, n_nodes_{n_nodes}, cfg_{cfg}, attached_(n_nodes, false) {
  host_uplinks_.resize(n_nodes, nullptr);
  const int uplinks = kPorts - cfg_.hosts_per_leaf;
  if (!two_level()) {
    switches_.push_back(std::make_unique<CrossbarSwitch>(
        eng_, "sw0", kPorts, cfg_.fall_through));
    switch_links_.resize(switches_.size());
    return;
  }
  const int leaves =
      static_cast<int>((n_nodes_ + cfg_.hosts_per_leaf - 1) /
                       static_cast<unsigned>(cfg_.hosts_per_leaf));
  if (leaves > kPorts) {
    throw std::invalid_argument(
        "two-level myrinet fabric supports at most " +
        std::to_string(kPorts * cfg_.hosts_per_leaf) + " nodes");
  }
  for (int l = 0; l < leaves; ++l) {
    switches_.push_back(std::make_unique<CrossbarSwitch>(
        eng_, "leaf" + std::to_string(l), kPorts, cfg_.fall_through));
  }
  for (int s = 0; s < uplinks; ++s) {
    switches_.push_back(std::make_unique<CrossbarSwitch>(
        eng_, "spine" + std::to_string(s), kPorts, cfg_.fall_through));
  }
  // Leaf l, uplink port hosts_per_leaf+s  <->  spine s, port l.
  // Inter-switch links forward cut-through (wormhole).
  switch_links_.resize(switches_.size());
  LinkConfig trunk = cfg_.link;
  trunk.cut_through = true;
  for (int l = 0; l < leaves; ++l) {
    for (int s = 0; s < uplinks; ++s) {
      auto& leaf = *switches_[static_cast<std::size_t>(l)];
      auto& spine = *switches_[static_cast<std::size_t>(leaves + s)];
      Link& up = add_link(
          eng_, "l" + std::to_string(l) + "->s" + std::to_string(s), trunk,
          spine.input_sink(l));
      leaf.connect_output(cfg_.hosts_per_leaf + s, up);
      Link& down = add_link(
          eng_, "s" + std::to_string(s) + "->l" + std::to_string(l), trunk,
          leaf.input_sink(cfg_.hosts_per_leaf + s));
      spine.connect_output(l, down);
      for (Link* t : {&up, &down}) {
        switch_links_[static_cast<std::size_t>(l)].push_back(t);
        switch_links_[static_cast<std::size_t>(leaves + s)].push_back(t);
      }
    }
  }
}

void MyrinetFabric::attach(NodeId id, Nic& nic) {
  if (id >= n_nodes_) throw std::out_of_range("node id out of range");
  if (attached_[id]) throw std::logic_error("node already attached");
  attached_[id] = true;
  CrossbarSwitch& sw = two_level()
                           ? *switches_[static_cast<std::size_t>(leaf_of(id))]
                           : *switches_[0];
  const int port = two_level() ? local_port(id) : static_cast<int>(id);
  // nic -> switch: cut-through (flits stream into the crossbar).
  LinkConfig up = cfg_.link;
  up.cut_through = true;
  const std::size_t sw_idx =
      two_level() ? static_cast<std::size_t>(leaf_of(id)) : 0;
  host_uplinks_[id] = &add_link(eng_, "n" + std::to_string(id) + "->sw", up,
                                sw.input_sink(port));
  switch_links_[sw_idx].push_back(host_uplinks_[id]);
  // switch -> nic: terminal hop, delivers after the last byte so the path
  // pays exactly one full serialization.
  Link& down = add_link(eng_, "sw->n" + std::to_string(id), cfg_.link,
                        [&nic](Packet&& p) { nic.deliver(std::move(p)); });
  sw.connect_output(port, down);
  switch_links_[sw_idx].push_back(&down);
  nic.wire(this, &host_uplinks_[id]->in());
}

std::vector<std::uint8_t> MyrinetFabric::route(NodeId src, NodeId dst) const {
  if (!two_level()) {
    return {static_cast<std::uint8_t>(dst)};
  }
  if (leaf_of(src) == leaf_of(dst)) {
    return {static_cast<std::uint8_t>(local_port(dst))};
  }
  const int spine = spine_for(dst);
  return {static_cast<std::uint8_t>(cfg_.hosts_per_leaf + spine),
          static_cast<std::uint8_t>(leaf_of(dst)),
          static_cast<std::uint8_t>(local_port(dst))};
}

std::vector<std::uint8_t> MyrinetFabric::route_via(NodeId src, NodeId dst,
                                                   std::uint8_t path_id) const {
  if (path_id == kDefaultPath || !two_level() || leaf_of(src) == leaf_of(dst)) {
    return route(src, dst);
  }
  const int spine =
      static_cast<int>(path_id) % static_cast<int>(spine_count());
  return {static_cast<std::uint8_t>(cfg_.hosts_per_leaf + spine),
          static_cast<std::uint8_t>(leaf_of(dst)),
          static_cast<std::uint8_t>(local_port(dst))};
}

std::vector<std::vector<std::uint8_t>> MyrinetFabric::routes(
    NodeId src, NodeId dst) const {
  std::vector<std::vector<std::uint8_t>> out;
  if (!two_level() || leaf_of(src) == leaf_of(dst)) {
    out.push_back(route(src, dst));
    return out;
  }
  for (std::size_t s = 0; s < spine_count(); ++s) {
    out.push_back(route_via(src, dst, static_cast<std::uint8_t>(s)));
  }
  return out;
}

int MyrinetFabric::route_count(NodeId src, NodeId dst) const {
  if (!two_level() || leaf_of(src) == leaf_of(dst)) return 1;
  return static_cast<int>(spine_count());
}

void MyrinetFabric::stamp_route(Packet& p) const {
  p.route = route_via(p.src_node, p.dst_node, p.path_id);
  p.route_pos = 0;
}

int MyrinetFabric::hops(NodeId a, NodeId b) const {
  if (a == b) return 0;
  if (!two_level() || leaf_of(a) == leaf_of(b)) return 2;  // host-sw, sw-host
  return 4;
}

void MyrinetFabric::fail_switch(std::size_t i) {
  switches_.at(i)->fail();
  for (Link* l : switch_links_.at(i)) l->fail();
}

void MyrinetFabric::revive_switch(std::size_t i) {
  switches_.at(i)->revive();
  for (Link* l : switch_links_.at(i)) l->revive();
}

void MyrinetFabric::set_route_error_hook(CrossbarSwitch::RouteErrorHook hook) {
  route_error_hook_ = std::move(hook);
  for (auto& sw : switches_) sw->set_route_error_hook(route_error_hook_);
}

void MyrinetFabric::set_host_link_fault_plan(NodeId node,
                                             const FaultPlan& plan) {
  host_uplinks_.at(node)->set_fault_plan(plan);
}

std::vector<std::string> MyrinetFabric::links_of(NodeId n) const {
  std::vector<std::string> out;
  const std::string id = std::to_string(n);
  for (const auto& l : links()) {
    const std::string& nm = l->name();
    if (nm == "n" + id + "->sw" || nm == "sw->n" + id) out.push_back(nm);
  }
  // Two-level: the node's traffic also rides its leaf's trunks, one pair
  // per spine — name them all so a postmortem can implicate a dying spine.
  if (two_level()) {
    const std::string leaf = std::to_string(leaf_of(n));
    for (std::size_t s = 0; s < spine_count(); ++s) {
      out.push_back("l" + leaf + "->s" + std::to_string(s));
      out.push_back("s" + std::to_string(s) + "->l" + leaf);
    }
  }
  return out;
}

void MyrinetFabric::write_device_series(sim::MetricSink& out) const {
  for (const auto& sw : switches_) {
    const std::string prefix = "fabric.switch." + sw->name() + ".";
    out.counter(prefix + "forwarded", sw->forwarded());
    out.counter(prefix + "route_errors", sw->route_errors());
    out.counter(prefix + "failed_drops", sw->failed_drops());
  }
}

}  // namespace hw
