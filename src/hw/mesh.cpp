#include "hw/mesh.hpp"

#include <cstdlib>
#include <stdexcept>
#include <utility>

#include "hw/nic.hpp"
#include "sim/metrics.hpp"

namespace hw {

MeshRouter::MeshRouter(MeshFabric& fab, sim::Engine& eng, NodeId node)
    : fab_{fab},
      eng_{eng},
      node_{node},
      injection_{eng, /*capacity=*/4},
      outputs_(kDirs, nullptr) {
  for (int d = 0; d < kDirs; ++d) {
    inputs_.push_back(std::make_unique<sim::Channel<Packet>>(eng_));
    eng_.spawn_daemon(pump(d));
  }
  // Injection pump: the local NIC pushes here; treat like an input port.
  eng_.spawn_daemon([](MeshRouter& r) -> sim::Task<void> {
    for (;;) {
      Packet p = co_await r.injection_.recv();
      (void)r.inputs_[kLocal]->try_send(std::move(p));
    }
  }(*this));
}

Link::Sink MeshRouter::input_sink(int dir) {
  auto* ch = inputs_.at(static_cast<std::size_t>(dir)).get();
  return [ch](Packet&& p) { (void)ch->try_send(std::move(p)); };
}

void MeshRouter::connect_output(int dir, Link& link) {
  outputs_.at(static_cast<std::size_t>(dir)) = &link;
}

int MeshRouter::next_dir(const Packet& p) const {
  const int mx = fab_.x_of(node_), my = fab_.y_of(node_);
  const int dx = fab_.x_of(p.dst_node), dy = fab_.y_of(p.dst_node);
  if (dx > mx) return kEast;
  if (dx < mx) return kWest;
  if (dy > my) return kSouth;
  if (dy < my) return kNorth;
  return kLocal;
}

sim::Task<void> MeshRouter::pump(int dir) {
  auto& in = *inputs_[static_cast<std::size_t>(dir)];
  for (;;) {
    Packet p = co_await in.recv();
    if (failed_flag_) {
      // Dead routing chip: consume instantly, forward nothing.
      ++failed_drops_;
      continue;
    }
    co_await eng_.sleep(fab_.cfg_.route_delay);
    const int out = next_dir(p);
    ++forwarded_;
    if (out == kLocal) {
      // Ejection: the message is complete only after its last byte drains
      // from the wormhole — charge one full serialization here.
      co_await eng_.sleep(fab_.cfg_.link.per_packet +
                          sim::Time::bytes_at(p.wire_bytes(),
                                              fab_.cfg_.link.bandwidth));
      if (local_nic_ != nullptr) local_nic_->deliver(std::move(p));
      continue;
    }
    Link* link = outputs_[static_cast<std::size_t>(out)];
    if (link == nullptr) throw std::logic_error("mesh edge missing link");
    // The router's input channels are unbounded — this is where a congested
    // mesh actually accumulates backlog (the bounded link queues only feel
    // it as blocking).
    co_await link->forward(std::move(p), in.size());
  }
}

MeshFabric::MeshFabric(sim::Engine& eng, int width, int height,
                       const MeshConfig& cfg)
    : eng_{eng}, width_{width}, height_{height}, cfg_{cfg} {
  if (width < 1 || height < 1) throw std::invalid_argument("bad mesh shape");
  const int n = width * height;
  routers_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    routers_.push_back(std::make_unique<MeshRouter>(
        *this, eng_, static_cast<NodeId>(i)));
  }
  // Neighbour links, both directions; wormhole, so cut-through.  The full
  // serialization is paid once at ejection (MeshRouter::pump, kLocal).
  LinkConfig hop = cfg_.link;
  hop.cut_through = true;
  auto wire = [this, hop](NodeId from, NodeId to, int out_dir, int in_dir) {
    Link& link =
        add_link(eng_, "m" + std::to_string(from) + "->" + std::to_string(to),
                 hop, routers_[to]->input_sink(in_dir));
    routers_[from]->connect_output(out_dir, link);
  };
  for (int y = 0; y < height; ++y) {
    for (int x = 0; x < width; ++x) {
      const NodeId here = static_cast<NodeId>(y * width + x);
      if (x + 1 < width) {
        const NodeId east = here + 1;
        wire(here, east, MeshRouter::kEast, MeshRouter::kWest);
        wire(east, here, MeshRouter::kWest, MeshRouter::kEast);
      }
      if (y + 1 < height) {
        const NodeId south = here + static_cast<NodeId>(width);
        wire(here, south, MeshRouter::kSouth, MeshRouter::kNorth);
        wire(south, here, MeshRouter::kNorth, MeshRouter::kSouth);
      }
    }
  }
}

void MeshFabric::attach(NodeId id, Nic& nic) {
  if (id >= routers_.size()) throw std::out_of_range("node id out of range");
  routers_[id]->connect_local(nic);
  nic.wire(this, &routers_[id]->injection());
}

int MeshFabric::hops(NodeId a, NodeId b) const {
  return std::abs(x_of(a) - x_of(b)) + std::abs(y_of(a) - y_of(b));
}

std::int64_t MeshFabric::curve_index(NodeId n) const {
  int side = 1;
  while (side < width_ || side < height_) side *= 2;
  int x = x_of(n);
  int y = y_of(n);
  std::int64_t d = 0;
  // Classic xy -> d: pick the quadrant at each scale, then rotate/flip the
  // coordinates into that quadrant's frame.
  for (int s = side / 2; s > 0; s /= 2) {
    const int rx = (x & s) != 0 ? 1 : 0;
    const int ry = (y & s) != 0 ? 1 : 0;
    d += static_cast<std::int64_t>(s) * s * ((3 * rx) ^ ry);
    if (ry == 0) {
      if (rx == 1) {
        x = side - 1 - x;
        y = side - 1 - y;
      }
      std::swap(x, y);
    }
  }
  return d;
}

void MeshFabric::write_device_series(sim::MetricSink& out) const {
  for (std::size_t i = 0; i < routers_.size(); ++i) {
    out.counter("fabric.router.m" + std::to_string(i) + ".forwarded",
                routers_[i]->forwarded());
  }
}

std::vector<std::string> MeshFabric::links_of(NodeId n) const {
  std::vector<std::string> out;
  const std::string id = std::to_string(n);
  const std::string from = "m" + id + "->";
  const std::string to = "->" + id;
  for (const auto& l : links()) {
    const std::string& nm = l->name();  // "m<a>-><b>"
    if (nm.rfind(from, 0) == 0 ||
        (nm.size() >= to.size() &&
         nm.compare(nm.size() - to.size(), to.size(), to) == 0)) {
      out.push_back(nm);
    }
  }
  return out;
}

}  // namespace hw
