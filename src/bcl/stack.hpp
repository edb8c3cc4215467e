// Assembly: one NodeStack per node (hardware + kernel + MCP + driver +
// intra-node manager), and BclCluster wiring N stacks through a fabric.
// This is the top of the core library's public API: build a cluster, open
// endpoints, spawn application coroutines, run the engine.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "bcl/config.hpp"
#include "bcl/library.hpp"
#include "bcl/postmortem.hpp"
#include "hw/topology.hpp"
#include "sim/engine.hpp"
#include "sim/metrics.hpp"
#include "sim/trace.hpp"

namespace bcl {

// Every layer records into `trace` and `metrics`; a null one throws
// std::invalid_argument.
class NodeStack {
 public:
  NodeStack(sim::Engine& eng, hw::NodeId id, const ClusterConfig& cfg,
            sim::Trace* trace, sim::MetricRegistry* metrics);

  hw::Node& node() { return node_; }
  osk::Kernel& kernel() { return kernel_; }
  Mcp& mcp() { return mcp_; }
  Driver& driver() { return driver_; }
  IntraNode& intra() { return intra_; }

  // Creates a process plus its (single) BCL port, with the system-channel
  // pool configured.  Initialization is untimed (not on any measured path).
  Endpoint& open_endpoint();

  std::size_t endpoint_count() const { return endpoints_.size(); }
  Endpoint& endpoint(std::size_t i) { return *endpoints_.at(i); }

 private:
  // The node's collector: its osk, NIC-hardware and per-port series.
  void collect(sim::MetricSink& out);

  sim::Engine& eng_;
  const ClusterConfig& cfg_;
  sim::Trace& trace_;
  sim::MetricRegistry& metrics_;
  hw::Node node_;
  osk::Kernel kernel_;
  Mcp mcp_;
  Driver driver_;
  IntraNode intra_;
  std::string prefix_;  // "node<N>."
  std::vector<std::unique_ptr<Endpoint>> endpoints_;
  std::uint32_t next_port_ = 0;
};

class BclCluster {
 public:
  explicit BclCluster(const ClusterConfig& cfg = {});

  sim::Engine& engine() { return eng_; }
  sim::Trace& trace() { return trace_; }
  sim::MetricRegistry& metrics() { return metrics_; }
  sim::Sampler& sampler() { return sampler_; }
  // Starts the periodic gauge-snapshot daemon (cfg.sample_period).  Safe to
  // call once per run; the daemon parks itself when the workload drains.
  void start_sampler() { sampler_.start(cfg_.sample_period); }
  const ClusterConfig& config() const { return cfg_; }
  std::uint32_t nodes() const { return cfg_.nodes; }
  NodeStack& node(hw::NodeId id) { return *stacks_.at(id); }
  hw::Fabric& fabric() { return *fabric_; }

  Endpoint& open_endpoint(hw::NodeId node_id) {
    return node(node_id).open_endpoint();
  }

  // Post-mortem dumps collected so far (a diagnosis hook on every MCP fills
  // this on peer-unreachable / collective-timeout, bounded by
  // cfg.postmortem_max; the overflow count is kept separately).
  const std::vector<Postmortem>& postmortems() const { return postmortems_; }
  std::uint64_t postmortems_suppressed() const {
    return postmortems_suppressed_;
  }
  std::string postmortems_json() const {
    return bcl::postmortems_json(postmortems_, postmortems_suppressed_);
  }

 private:
  ClusterConfig cfg_;
  sim::Engine eng_;
  sim::Trace trace_;
  sim::MetricRegistry metrics_;
  sim::Sampler sampler_;
  std::unique_ptr<hw::Fabric> fabric_;
  std::vector<std::unique_ptr<NodeStack>> stacks_;
  std::vector<Postmortem> postmortems_;
  std::uint64_t postmortems_suppressed_ = 0;
};

}  // namespace bcl
