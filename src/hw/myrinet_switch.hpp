// Myrinet-style source-routed crossbar switch (M2M-OCT-SW8) and the fabric
// that wires nodes through one or two levels of such switches.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "hw/link.hpp"
#include "hw/packet.hpp"
#include "sim/engine.hpp"
#include "sim/queue.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace hw {

// Cut-through crossbar: each input port reads the next route byte, waits the
// fall-through latency, and forwards to the selected output link
// (Link::forward, which ECN-marks by the input backlog and the blocking
// time against the output link's thresholds).  Output contention resolves
// FIFO through the output link's bounded input queue.
class CrossbarSwitch {
 public:
  CrossbarSwitch(sim::Engine& eng, std::string name, int ports,
                 sim::Time fall_through);

  int ports() const { return static_cast<int>(outputs_.size()); }
  const std::string& name() const { return name_; }

  // Wires output port `port` to `link` (not owned).
  void connect_output(int port, Link& link);

  // Sink callback for the link that feeds input port `port`.
  Link::Sink input_sink(int port);

  std::uint64_t forwarded() const { return forwarded_; }
  std::uint64_t route_errors() const { return route_errors_; }

  // Persistent fail-stop: a dead crossbar eats every packet that reaches an
  // input port (counted in failed_drops) until revive().
  void fail() { failed_flag_ = true; }
  void revive() { failed_flag_ = false; }
  bool failed() const { return failed_flag_; }
  std::uint64_t failed_drops() const { return failed_drops_; }

  // Called (rate-limited per switch, at most once per 100 us of simulated
  // time) when an input pump discards a malformed route, so the event is
  // diagnosable from a flight recorder instead of only a bare counter.
  using RouteErrorHook = std::function<void(const std::string& sw,
                                            const Packet& p)>;
  void set_route_error_hook(RouteErrorHook hook) {
    route_error_hook_ = std::move(hook);
  }

 private:
  sim::Task<void> pump(int port);
  void note_route_error(const Packet& p);

  sim::Engine& eng_;
  std::string name_;
  sim::Time fall_through_;
  std::vector<std::unique_ptr<sim::Channel<Packet>>> inputs_;
  std::vector<Link*> outputs_;
  std::uint64_t forwarded_ = 0;
  std::uint64_t route_errors_ = 0;
  bool failed_flag_ = false;
  std::uint64_t failed_drops_ = 0;
  RouteErrorHook route_error_hook_;
  bool route_error_reported_ = false;
  sim::Time last_route_error_report_ = sim::Time::zero();
};

struct MyrinetConfig {
  LinkConfig link;                                 // host and inter-switch links
  sim::Time fall_through = sim::Time::ns(300);     // per-switch latency
  int hosts_per_leaf = 4;                          // two-level layout
};

// Single-switch (n <= ports) or two-level leaf/spine topology of 8-port
// switches, with deterministic source routing.
class MyrinetFabric : public Fabric {
 public:
  static constexpr int kPorts = 8;

  MyrinetFabric(sim::Engine& eng, std::uint32_t n_nodes,
                const MyrinetConfig& cfg = {});

  void attach(NodeId id, Nic& nic) override;
  void stamp_route(Packet& p) const override;
  int hops(NodeId a, NodeId b) const override;
  int route_count(NodeId src, NodeId dst) const override;
  std::vector<std::string> links_of(NodeId n) const override;

  // Route as a sequence of switch output ports (deterministic default:
  // cross-leaf traffic rides spine `spine_for(dst)`).
  std::vector<std::uint8_t> route(NodeId src, NodeId dst) const;
  // Route over one specific redundant path.  For cross-leaf pairs,
  // path_id is the absolute spine index (0 .. spine_count()-1); pairs with
  // a single path ignore it.  kDefaultPath picks route().
  std::vector<std::uint8_t> route_via(NodeId src, NodeId dst,
                                      std::uint8_t path_id) const;
  // Every distinct path between src and dst, indexed by path id: one route
  // per spine for cross-leaf pairs, the single direct route otherwise.
  std::vector<std::vector<std::uint8_t>> routes(NodeId src, NodeId dst) const;

  // Fault injection on the host->switch link of `node`.
  void set_host_link_fault_plan(NodeId node, const FaultPlan& plan);
  Link& host_uplink(NodeId node) { return *host_uplinks_.at(node); }

  // -- fail-stop injection ---------------------------------------------------
  // Kills switch `i` (leaves first, then spines; see spine_switch_index):
  // the crossbar eats packets and every attached link goes dead, so nothing
  // escapes a dead switch in either direction.  One cable dies through
  // link(name).fail().
  void fail_switch(std::size_t i);
  void revive_switch(std::size_t i);

  CrossbarSwitch& switch_at(std::size_t i) { return *switches_[i]; }
  std::size_t switch_count() const { return switches_.size(); }
  // Two-level layout geometry (0 spines for the single-switch layout).
  std::size_t leaf_count() const {
    return two_level() ? switches_.size() - spine_count() : 1;
  }
  std::size_t spine_count() const {
    return two_level()
               ? static_cast<std::size_t>(kPorts - cfg_.hosts_per_leaf)
               : 0;
  }
  std::size_t spine_switch_index(std::size_t s) const {
    return leaf_count() + s;
  }
  int hosts_per_leaf() const { return cfg_.hosts_per_leaf; }

  // Installs the malformed-route warning hook on every crossbar.
  void set_route_error_hook(CrossbarSwitch::RouteErrorHook hook);

 private:
  void write_device_series(sim::MetricSink& out) const override;
  bool two_level() const { return n_nodes_ > kPorts; }
  int leaf_of(NodeId n) const { return static_cast<int>(n) / cfg_.hosts_per_leaf; }
  int local_port(NodeId n) const {
    return static_cast<int>(n) % cfg_.hosts_per_leaf;
  }
  int spine_for(NodeId dst) const {
    return static_cast<int>(dst) % (kPorts - cfg_.hosts_per_leaf);
  }

  sim::Engine& eng_;
  std::uint32_t n_nodes_;
  MyrinetConfig cfg_;
  std::vector<std::unique_ptr<CrossbarSwitch>> switches_;
  std::vector<Link*> host_uplinks_;  // node -> nic->switch link
  std::vector<bool> attached_;
  // Links attached to each switch (either direction), so fail_switch can
  // take the whole blast radius down at once.
  std::vector<std::vector<Link*>> switch_links_;
  CrossbarSwitch::RouteErrorHook route_error_hook_;
};

}  // namespace hw
