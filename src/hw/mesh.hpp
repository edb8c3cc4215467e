// nwrc-style 2-D mesh fabric: one wormhole router per node, XY
// (dimension-order) routing computed in-network, 40 MHz x 32-bit channels.
//
// This is the paper's second interconnect (the custom nwrc1032 routing
// chip); BCL runs on it unchanged, which is the heterogeneous-network
// portability claim of section 3.
#pragma once

#include <cstdint>
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

struct MeshConfig {
  LinkConfig link{.bandwidth = 160e6,  // 40 MHz x 32 bit
                  .propagation = sim::Time::ns(30),
                  .queue_depth = 4};
  sim::Time route_delay = sim::Time::ns(175);  // nwrc1032 per-hop latency
};

class MeshRouter;

class MeshFabric : public Fabric {
 public:
  MeshFabric(sim::Engine& eng, int width, int height,
             const MeshConfig& cfg = {});

  void attach(NodeId id, Nic& nic) override;
  void stamp_route(Packet&) const override {}  // routed in-network
  int hops(NodeId a, NodeId b) const override;
  // Index along the Hilbert curve through the smallest power-of-two square
  // that covers the mesh: consecutive nodes on a full square are one hop
  // apart, and every aligned run of the curve stays compact in 2-D.
  std::int64_t curve_index(NodeId n) const override;
  std::vector<std::string> links_of(NodeId n) const override;

  int width() const { return width_; }
  int height() const { return height_; }
  int x_of(NodeId n) const { return static_cast<int>(n) % width_; }
  int y_of(NodeId n) const { return static_cast<int>(n) / width_; }

  MeshRouter& router_at(NodeId n) { return *routers_[n]; }

 private:
  friend class MeshRouter;

  void write_device_series(sim::MetricSink& out) const override;

  sim::Engine& eng_;
  int width_;
  int height_;
  MeshConfig cfg_;
  std::vector<std::unique_ptr<MeshRouter>> routers_;
};

// One router: 4 neighbour directions plus a local (NIC) port.
class MeshRouter {
 public:
  enum Dir { kEast = 0, kWest, kNorth, kSouth, kLocal, kDirs };

  MeshRouter(MeshFabric& fab, sim::Engine& eng, NodeId node);

  Link::Sink input_sink(int dir);
  void connect_output(int dir, Link& link);
  void connect_local(Nic& nic) { local_nic_ = &nic; }

  sim::Channel<Packet>& injection() { return injection_; }

  std::uint64_t forwarded() const { return forwarded_; }

  // Persistent fail-stop: a dead routing chip eats every packet that
  // reaches any of its ports (counted in failed_drops) until revive().
  void fail() { failed_flag_ = true; }
  void revive() { failed_flag_ = false; }
  bool failed() const { return failed_flag_; }
  std::uint64_t failed_drops() const { return failed_drops_; }

 private:
  sim::Task<void> pump(int dir);
  int next_dir(const Packet& p) const;  // XY routing

  MeshFabric& fab_;
  sim::Engine& eng_;
  NodeId node_;
  std::vector<std::unique_ptr<sim::Channel<Packet>>> inputs_;
  sim::Channel<Packet> injection_;
  std::vector<Link*> outputs_;
  Nic* local_nic_ = nullptr;
  std::uint64_t forwarded_ = 0;
  bool failed_flag_ = false;
  std::uint64_t failed_drops_ = 0;
};

}  // namespace hw
