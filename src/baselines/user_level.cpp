#include "baselines/user_level.hpp"

namespace baseline {

std::pair<int, int> TranslationCache::touch(std::uint32_t pid,
                                            std::uint64_t vaddr,
                                            std::size_t len) {
  if (len == 0) len = 1;
  const std::uint64_t first = vaddr / hw::kPageSize;
  const std::uint64_t last = (vaddr + len - 1) / hw::kPageSize;
  int hits = 0, misses = 0;
  for (std::uint64_t vp = first; vp <= last; ++vp) {
    const Key key = (static_cast<std::uint64_t>(pid) << 40) | vp;
    const auto it = map_.find(key);
    if (it != map_.end()) {
      ++hits;
      lru_.splice(lru_.begin(), lru_, it->second);
    } else {
      ++misses;
      lru_.push_front(key);
      map_[key] = lru_.begin();
      if (map_.size() > cap_) {
        map_.erase(lru_.back());
        lru_.pop_back();
      }
    }
  }
  hits_ += static_cast<std::uint64_t>(hits);
  misses_ += static_cast<std::uint64_t>(misses);
  return {hits, misses};
}

UlEndpoint::UlEndpoint(bcl::Endpoint& inner, bcl::Mcp& mcp, hw::PciBus& pci,
                       TranslationCache& cache, const UlConfig& cfg,
                       std::uint32_t cluster_nodes)
    : inner_{inner},
      mcp_{mcp},
      pci_{pci},
      cache_{cache},
      cfg_{cfg},
      cluster_nodes_{cluster_nodes} {}

sim::Task<bcl::Result<std::uint64_t>> UlEndpoint::send(
    bcl::PortId dst, bcl::ChannelRef ch, const osk::UserBuffer& buf,
    std::size_t len) {
  auto& proc = inner_.process();
  co_await proc.cpu().busy(cfg_.compose);
  // User-level libraries can only sanity-check locally; real enforcement
  // would have to live on the NIC (the security weakness of section 4.4).
  if (dst.node >= cluster_nodes_) {
    co_return bcl::Result<std::uint64_t>{0, bcl::BclErr::kBadTarget};
  }
  if (len > 0 && !proc.mapped(buf.vaddr, len)) {
    co_return bcl::Result<std::uint64_t>{0, bcl::BclErr::kBadBuffer};
  }

  bcl::SendDescriptor d;
  d.msg_id = (0x5ull << 60) | next_msg_id_++;
  d.src = inner_.id();
  d.dst = dst;
  d.channel = ch;
  d.total_len = len;
  if (len > 0) d.segs = proc.translate(buf.vaddr, len);
  // The NIC performs the translation work: charge cache costs there.
  const auto [hits, misses] = cache_.touch(proc.pid(), buf.vaddr, len);
  d.extra_nic_cost = cfg_.hit_cost * static_cast<double>(hits) +
                     cfg_.miss_cost * static_cast<double>(misses);

  const std::uint64_t msg_id = d.msg_id;
  // Same descriptor format as the kernel path writes (apples to apples).
  co_await pci_.pio_write(d.pio_words(/*base=*/9, /*per_seg=*/2));
  co_await mcp_.requests().send(std::move(d));
  inner_.port().count_sent();
  co_return bcl::Result<std::uint64_t>{msg_id, bcl::BclErr::kOk};
}

sim::Task<bcl::BclErr> UlEndpoint::post_recv(std::uint16_t channel,
                                             const osk::UserBuffer& buf) {
  auto& proc = inner_.process();
  co_await proc.cpu().busy(cfg_.compose);
  if (channel >= inner_.port().normal_count()) {
    co_return bcl::BclErr::kBadTarget;
  }
  if (inner_.port().normal(channel).posted) {
    co_return bcl::BclErr::kNoResources;
  }
  if (!proc.mapped(buf.vaddr, std::max<std::size_t>(buf.len, 1))) {
    co_return bcl::BclErr::kBadBuffer;
  }
  auto segs = proc.translate(buf.vaddr, buf.len);
  // Translation again happens NIC-side; warm the cache for the reception.
  (void)cache_.touch(proc.pid(), buf.vaddr, buf.len);
  co_await pci_.pio_write(9);
  co_await proc.cpu().busy(cfg_.doorbell);
  inner_.port().post(channel, buf, std::move(segs));
  co_return bcl::BclErr::kOk;
}

UlCluster::UlCluster(bcl::ClusterConfig cfg, UlConfig ul)
    : ul_{ul}, cluster_{cfg} {
  for (std::uint32_t i = 0; i < cluster_.nodes(); ++i) {
    caches_.push_back(std::make_unique<TranslationCache>(ul_.cache_pages));
  }
}

UlEndpoint& UlCluster::open_endpoint(hw::NodeId node) {
  auto& inner = cluster_.open_endpoint(node);
  auto& stack = cluster_.node(node);
  endpoints_.push_back(std::make_unique<UlEndpoint>(
      inner, stack.mcp(), stack.node().pci(), *caches_.at(node), ul_,
      cluster_.nodes()));
  return *endpoints_.back();
}

}  // namespace baseline
