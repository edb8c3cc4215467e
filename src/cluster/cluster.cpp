#include "cluster/cluster.hpp"

#include <stdexcept>

namespace cluster {

World::World(const WorldConfig& cfg, int nprocs) : cfg_{cfg}, cluster_{[&] {
  auto c = cfg.cluster;
  if (c.nodes == 0) throw std::invalid_argument("cluster needs nodes");
  return c;
}()} {
  std::vector<bcl::PortId> world_ids;
  ranks_.resize(static_cast<std::size_t>(nprocs));
  for (int r = 0; r < nprocs; ++r) {
    hw::NodeId node;
    if (cfg_.placement == Placement::kRoundRobin) {
      node = static_cast<hw::NodeId>(r) % cluster_.nodes();
    } else {
      node = static_cast<hw::NodeId>(r / cfg_.cluster.node.cpus);
      if (node >= cluster_.nodes()) {
        throw std::invalid_argument("not enough nodes for packed placement");
      }
    }
    auto& rank = ranks_[static_cast<std::size_t>(r)];
    rank.node = node;
    rank.ep = &cluster_.open_endpoint(node);
    rank.dev = std::make_unique<eadi::Device>(cluster_.engine(), *rank.ep,
                                              cfg_.device);
    world_ids.push_back(rank.ep->id());
  }
  for (int r = 0; r < nprocs; ++r) {
    auto& rank = ranks_[static_cast<std::size_t>(r)];
    rank.mpi = std::make_unique<minimpi::Mpi>(
        cluster_.engine(), *rank.dev, world_ids, r, cfg_.mpi,
        cluster_.metrics());
  }
}

minipvm::Pvm& World::pvm(int rank) {
  auto& r = ranks_.at(static_cast<std::size_t>(rank));
  if (!r.pvm) {
    std::vector<bcl::PortId> world_ids;
    for (const auto& q : ranks_) world_ids.push_back(q.ep->id());
    r.pvm = std::make_unique<minipvm::Pvm>(cluster_.engine(), *r.dev,
                                           world_ids, rank, cfg_.pvm,
                                           cluster_.metrics());
  }
  return *r.pvm;
}

void World::run(std::function<sim::Task<void>(World&, int rank)> app) {
  for (int r = 0; r < nprocs(); ++r) {
    engine().spawn(app(*this, r));
  }
  engine().run();
}

void World::run_mpi(std::function<sim::Task<void>(minimpi::Mpi&)> app) {
  for (int r = 0; r < nprocs(); ++r) {
    engine().spawn(app(mpi(r)));
  }
  engine().run();
}

}  // namespace cluster
