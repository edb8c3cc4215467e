#include "bcl/coll/engine.hpp"

#include <algorithm>
#include <cstring>

#include "bcl/mcp.hpp"

namespace bcl::coll {

namespace {

const char* kind_name(CollKind k) {
  switch (k) {
    case CollKind::kBarrier:
      return "barrier";
    case CollKind::kBcast:
      return "bcast";
    case CollKind::kReduce:
      return "reduce";
    case CollKind::kAllreduce:
      return "allreduce";
  }
  return "?";
}

// Causal-ledger key of `member`'s participation in operation (g.id, seq).
std::uint64_t member_key(const GroupDescriptor& g, std::uint64_t seq,
                         int member) {
  return coll_member_key(
      g.id, seq,
      static_cast<int>(g.members[static_cast<std::size_t>(member)].node));
}

}  // namespace

CollectiveEngine::CollectiveEngine(sim::Engine& eng, hw::Nic& nic, Mcp& mcp,
                                   const CostConfig& cfg, sim::Trace* trace,
                                   sim::MetricRegistry* metrics)
    : eng_{eng},
      nic_{nic},
      mcp_{mcp},
      cfg_{cfg},
      trace_{trace},
      posts_{eng, cfg.request_queue_depth} {
  if (metrics != nullptr) {
    const std::string prefix = nic_.name() + ".coll.";
    metrics->counter(prefix + "posts", [this] { return stats_.posts; });
    metrics->counter(prefix + "rx_packets",
                     [this] { return stats_.packets_in; });
    metrics->counter(prefix + "forwards", [this] { return stats_.forwards; });
    metrics->counter(prefix + "combines", [this] { return stats_.combines; });
    metrics->counter(prefix + "combined_elements",
                     [this] { return stats_.combined_elements; });
    metrics->counter(prefix + "completions",
                     [this] { return stats_.completions; });
    metrics->counter(prefix + "drops", [this] { return stats_.drops; });
    metrics->counter(prefix + "sram_exhausted",
                     [this] { return stats_.sram_exhausted; });
    metrics->counter(prefix + "op_timeouts",
                     [this] { return stats_.op_timeouts; });
    metrics->counter(prefix + "groups_failed",
                     [this] { return stats_.groups_failed; });
    metrics->counter(prefix + "staggered",
                     [this] { return stats_.staggered; });
    metrics->gauge(prefix + "sram_bytes", [this] {
      return static_cast<double>(sram_bytes_);
    });
    metrics->gauge(prefix + "pending_ops", [this] {
      return static_cast<double>(pending_.size());
    });
    metrics->gauge(prefix + "groups", [this] {
      return static_cast<double>(groups_.size());
    });
    metrics->gauge(prefix + "tree_depth", [this] {
      return static_cast<double>(max_tree_depth());
    });
  }
  eng_.spawn_daemon(post_pump());
}

std::string CollectiveEngine::comp() const { return nic_.name(); }

int CollectiveEngine::max_tree_depth() const {
  int depth = 0;
  for (const auto& [id, g] : groups_) {
    depth = std::max(depth, tree_depth(g.size(), g.arity));
  }
  return depth;
}

BclErr CollectiveEngine::register_group(GroupDescriptor desc) {
  const std::uint16_t id = desc.id;
  const auto existing = groups_.find(id);
  if (existing != groups_.end()) {
    // Re-registering over a failure verdict replaces the dead descriptor —
    // the recovery path after a member crash.  A live duplicate id is
    // still a caller error.
    if (!existing->second.failed) return BclErr::kNoResources;
    groups_.erase(existing);
  } else if (groups_.size() >= cfg_.coll_max_groups) {
    return BclErr::kNoResources;
  }
  groups_.emplace(id, std::move(desc));
  // Replay packets from peers that raced ahead of our registration.
  const auto parked = pre_reg_.find(id);
  if (parked != pre_reg_.end()) {
    std::vector<hw::Packet> matched = std::move(parked->second);
    pre_reg_.erase(parked);
    for (auto& p : matched) eng_.spawn_daemon(replay(std::move(p)));
  }
  return BclErr::kOk;
}

sim::Task<void> CollectiveEngine::replay(hw::Packet p) {
  co_await handle_packet(std::move(p));
}

void CollectiveEngine::unregister_group(std::uint16_t id) {
  groups_.erase(id);
  pre_reg_.erase(id);  // late stragglers must not hold a parking slot
}

GroupDescriptor* CollectiveEngine::find_group(std::uint16_t id) {
  const auto it = groups_.find(id);
  return it == groups_.end() ? nullptr : &it->second;
}

TreeLinks CollectiveEngine::neighbors(const GroupDescriptor& g,
                                      int root) const {
  return tree_links(g.order, g.size(), g.arity, g.my_index, root);
}

hw::Packet CollectiveEngine::make_packet(const GroupDescriptor& g,
                                         int dst_member, CollWire wire,
                                         std::uint64_t seq,
                                         std::uint16_t root,
                                         CollOp op) const {
  hw::Packet p;
  const PortId dst = g.members.at(static_cast<std::size_t>(dst_member));
  p.dst_node = dst.node;
  p.dst_port = dst.port;
  p.src_port = g.members[g.my_index].port;
  p.proto = Mcp::kProto;
  p.kind = hw::PacketKind::kCtrl;
  p.channel = static_cast<std::uint32_t>(g.id) |
              (static_cast<std::uint32_t>(root) << 16);
  p.op_flags = coll_op_flags(wire);
  p.reply_channel = static_cast<std::uint16_t>(op);
  p.msg_id = seq;
  return p;
}

void CollectiveEngine::emit(hw::Packet p) {
  emit_after(sim::Time::zero(), std::move(p));
}

void CollectiveEngine::emit_after(sim::Time delay, hw::Packet p) {
  ++stats_.forwards;
  if (trace_) {
    trace_->flow_step(comp(), "coll",
                      coll_flow_key(static_cast<std::uint16_t>(p.channel),
                                    p.msg_id));
  }
  // Never transmit inline: handle_packet runs on the rx pump, which must
  // not wait for the tx mutex (the session it would block on drains its
  // window through this very pump).
  if (delay <= sim::Time::zero()) {
    eng_.spawn_daemon(mcp_.coll_send(std::move(p)));
  } else {
    ++stats_.staggered;
    eng_.spawn_daemon(delayed_send(delay, std::move(p)));
  }
}

sim::Task<void> CollectiveEngine::delayed_send(sim::Time delay,
                                               hw::Packet p) {
  co_await eng_.sleep(delay);
  co_await mcp_.coll_send(std::move(p));
}

void CollectiveEngine::emit_fanout(std::vector<hw::Packet> batch) {
  // Order by the destinations' current pacing delay so the uncongested
  // children's daemons reach the tx mutex first; each delayed daemon then
  // sleeps out its own stagger before contending.  Ties (typically: every
  // delay is zero right after the cursors drain) break on the quantized
  // congestion extent alpha, so the child whose path echoed the deepest
  // marks launches last and the recovering ones are not re-buried by the
  // fan-out burst.  With congestion control off (or nothing throttled)
  // every key is zero and this degenerates to the old
  // blast-all-children-in-one-tick behavior.
  struct Key {
    sim::Time delay;
    double alpha;
    std::size_t idx;
  };
  std::vector<Key> order;
  order.reserve(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    order.push_back({mcp_.cc().stagger_delay(batch[i].dst_node),
                     mcp_.cc().congestion_extent(batch[i].dst_node), i});
  }
  std::stable_sort(order.begin(), order.end(), [](const Key& a, const Key& b) {
    if (a.delay != b.delay) return a.delay < b.delay;
    return a.alpha < b.alpha;
  });
  for (const auto& k : order) {
    emit_after(k.delay, std::move(batch[k.idx]));
  }
}

void CollectiveEngine::reserve_sram(Pending& pd, std::size_t bytes) {
  if (bytes == 0) return;
  if (nic_.sram_reserve(bytes)) {
    pd.sram = bytes;
    sram_bytes_ += bytes;
  } else {
    ++stats_.sram_exhausted;  // accounting only; combining proceeds
  }
}

void CollectiveEngine::erase(const Key& key) {
  const auto it = pending_.find(key);
  if (it == pending_.end()) return;
  if (it->second.sram > 0) {
    nic_.sram_release(it->second.sram);
    sram_bytes_ -= it->second.sram;
  }
  pending_.erase(it);
}

CollectiveEngine::Pending& CollectiveEngine::touch_pending(
    const GroupDescriptor& g, std::uint64_t seq) {
  const Key key{g.id, seq};
  auto it = pending_.find(key);
  if (it == pending_.end()) {
    it = pending_.emplace(key, Pending{}).first;
    if (cfg_.coll_op_timeout > sim::Time::zero()) {
      eng_.spawn_daemon(watchdog(g.id, seq));
    }
  }
  return it->second;
}

sim::Task<void> CollectiveEngine::watchdog(std::uint16_t gid,
                                           std::uint64_t seq) {
  co_await eng_.sleep(cfg_.coll_op_timeout);
  const auto pit = pending_.find({gid, seq});
  if (pit == pending_.end()) co_return;  // completed
  // Fragments held for the host wait on the host, not the network;
  // host_done arms a fresh watchdog when it releases them.
  if (held(pit->second)) co_return;
  GroupDescriptor* g = find_group(gid);
  if (g == nullptr) co_return;  // unregistered meanwhile
  ++stats_.op_timeouts;
  // Record the expiry and fire the post-mortem hook while the victim op's
  // state is still intact; fail_group tears it down next.
  mcp_.report_coll_timeout(gid, seq, kind_name(pit->second.kind));
  co_await fail_group(*g);
}

sim::Task<void> CollectiveEngine::on_peer_failure(hw::NodeId node) {
  std::vector<std::uint16_t> ids;
  for (const auto& [id, g] : groups_) {
    if (g.failed) continue;
    for (const PortId& m : g.members) {
      if (m.node == node) {
        ids.push_back(id);
        break;
      }
    }
  }
  for (const std::uint16_t id : ids) {
    GroupDescriptor* g = find_group(id);
    if (g != nullptr && !g->failed) co_await fail_group(*g);
  }
}

sim::Task<void> CollectiveEngine::fail_group(GroupDescriptor& g) {
  if (g.failed) co_return;
  g.failed = true;
  ++stats_.groups_failed;
  mcp_.recorder().record(
      {eng_.now(), FlightKind::kGroupFailed, 0, 0, 0, g.id});
  // Flood the canonical tree so members that never exchange a packet with
  // the dead node (or with us) still learn within tree-depth hops.
  if (g.parent >= 0) {
    emit(make_packet(g, g.parent, CollWire::kFail, 0, 0, CollOp::kSum));
  }
  for (const int child : g.children) {
    emit(make_packet(g, child, CollWire::kFail, 0, 0, CollOp::kSum));
  }
  // Fail every in-flight operation of the group.
  std::vector<std::pair<std::uint64_t, Pending>> doomed;
  for (const auto& [key, pd] : pending_) {
    if (key.first == g.id) doomed.emplace_back(key.second, pd);
  }
  for (const auto& [seq, pd] : doomed) {
    erase({g.id, seq});
    co_await complete(g, seq, pd.kind, pd.root, 0, false,
                      BclErr::kPeerUnreachable);
  }
  // One group-wide failure notification (seq 0): a member may be blocked
  // on a sequence that never produced a pending entry here (e.g. a
  // broadcast receiver whose root died before sending).
  co_await complete(g, 0, CollKind::kBarrier, 0, 0, false,
                    BclErr::kPeerUnreachable);
}

void CollectiveEngine::on_local_crash() {
  // Complete every in-flight operation with the restart verdict before
  // dropping the SRAM.  complete() copies the descriptor into its frame,
  // so clearing groups_ below cannot invalidate the spawned daemons.
  std::vector<std::pair<Key, Pending>> doomed(pending_.begin(),
                                              pending_.end());
  for (auto& [key, pd] : doomed) {
    GroupDescriptor* g = find_group(key.first);
    erase(key);  // releases the accumulator's SRAM reservation
    if (g != nullptr && !pd.failed) {
      eng_.spawn_daemon(complete(*g, key.second, pd.kind, pd.root, 0, false,
                                 BclErr::kPeerRestarted));
    }
  }
  // One group-wide seq-0 failure per live group: a member may be blocked
  // on a sequence that never produced a pending entry here.
  for (auto& [id, g] : groups_) {
    if (g.failed) continue;
    ++stats_.groups_failed;
    eng_.spawn_daemon(complete(g, 0, CollKind::kBarrier, 0, 0, false,
                               BclErr::kPeerRestarted));
  }
  groups_.clear();
  pre_reg_.clear();
}

sim::Task<void> CollectiveEngine::post_pump() {
  for (;;) {
    CollPost post = co_await posts_.recv();
    co_await handle_post(std::move(post));
  }
}

sim::Task<void> CollectiveEngine::handle_post(CollPost post) {
  ++stats_.posts;
  co_await nic_.lanai().use(cfg_.mcp_coll_proc);
  GroupDescriptor* g = find_group(post.group);
  if (g == nullptr) {
    ++stats_.drops;  // driver validated; only an unregister race lands here
    co_return;
  }
  mcp_.recorder().record(
      {eng_.now(), FlightKind::kCollPost, 0, post.seq, 0, g->id});
  if (trace_) {
    trace_->flow_step(comp(), "coll", coll_flow_key(g->id, post.seq));
    // The local member's causal record: one per member per operation,
    // linked into the fan-out tree at the emit sites below.
    trace_->msg_begin(member_key(*g, post.seq, g->my_index),
                      kind_name(post.kind),
                      static_cast<int>(g->members[g->my_index].node), -1,
                      post.len);
  }
  if (g->failed) {
    // The group lost a member; every subsequent op fails fast.
    co_await complete(*g, post.seq, post.kind, post.root, 0, false,
                      BclErr::kPeerUnreachable);
    co_return;
  }
  switch (post.kind) {
    case CollKind::kBarrier: {
      Pending& pd = touch_pending(*g, post.seq);
      pd.kind = CollKind::kBarrier;
      pd.local_posted = true;
      ++pd.have;
      co_await handle_barrier_arrive(*g, pd, post.seq);
      break;
    }
    case CollKind::kReduce:
    case CollKind::kAllreduce: {
      Pending& pd = touch_pending(*g, post.seq);
      // From here on only this post says which operation the entry is: a
      // child's partial can land while the contribution DMA below is in
      // flight, and must not turn an allreduce back into a reduce.
      pd.kind = post.kind;
      pd.local_posted = true;
      pd.root = post.root;
      pd.op = post.op;
      pd.len = std::max(pd.len, post.len);
      // The local contribution moves host -> NIC SRAM by DMA and becomes
      // (or merges into) the accumulator.
      std::vector<std::byte> bytes;
      if (post.len > 0) {
        co_await nic_.dma_gather(slice_segments(post.segs, 0, post.len),
                                 bytes, cfg_.dma_lead_bytes);
      }
      pd.acc.resize(post.len / sizeof(double));
      if (!bytes.empty()) {
        std::memcpy(pd.acc.data(), bytes.data(),
                    pd.acc.size() * sizeof(double));
      }
      reserve_sram(pd, post.len);
      pd.acc_init = true;
      // Child partials that arrived before the post combine now.
      std::vector<hw::Packet> stash = std::move(pd.stash);
      pd.stash.clear();
      for (const auto& sp : stash) co_await combine_fragment(*g, pd, sp);
      ++pd.have;
      co_await advance_reduce(*g, pd, post.seq);
      break;
    }
    case CollKind::kBcast:
      // Only the root member posts a broadcast; everyone else just polls.
      co_await fan_out(*g, post.seq, post.root, post.op, post.len, {},
                       post.segs);
      co_await complete(*g, post.seq, CollKind::kBcast, post.root, post.len,
                        true);
      break;
  }
}

sim::Task<void> CollectiveEngine::fan_out(
    const GroupDescriptor& g, std::uint64_t seq, std::uint16_t root,
    CollOp op, std::size_t len, const std::vector<std::byte>& sram,
    const std::vector<hw::PhysSegment>& host) {
  const TreeLinks nb = neighbors(g, root);
  if (trace_) {
    for (const int child : nb.children) {
      trace_->msg_link(member_key(g, seq, g.my_index),
                       member_key(g, seq, child));
    }
  }
  const std::uint32_t frags = static_cast<std::uint32_t>(
      std::max<std::uint64_t>(1, (len + cfg_.mtu - 1) / cfg_.mtu));
  for (std::uint32_t i = 0; i < frags; ++i) {
    const std::uint64_t off = static_cast<std::uint64_t>(i) * cfg_.mtu;
    const std::size_t flen = static_cast<std::size_t>(
        std::min<std::uint64_t>(cfg_.mtu, len - off));
    std::vector<std::byte> chunk;
    if (flen > 0 && !sram.empty()) {
      chunk.assign(sram.begin() + static_cast<std::ptrdiff_t>(off),
                   sram.begin() + static_cast<std::ptrdiff_t>(off + flen));
    } else if (flen > 0) {
      co_await nic_.dma_gather(slice_segments(host, off, flen), chunk,
                               cfg_.dma_lead_bytes);
    }
    std::vector<hw::Packet> batch;
    batch.reserve(nb.children.size());
    for (const int child : nb.children) {
      hw::Packet q = make_packet(g, child, CollWire::kData, seq, root, op);
      q.frag_index = i;
      q.frag_count = frags;
      q.msg_bytes = len;
      q.offset = off;
      q.payload = chunk;
      batch.push_back(std::move(q));
    }
    emit_fanout(std::move(batch));
  }
}

sim::Task<void> CollectiveEngine::handle_packet(hw::Packet p) {
  ++stats_.packets_in;
  co_await nic_.lanai().use(cfg_.mcp_coll_proc);
  const std::uint16_t gid = static_cast<std::uint16_t>(p.channel & 0xffff);
  const std::uint16_t root = static_cast<std::uint16_t>(p.channel >> 16);
  const auto it = groups_.find(gid);
  if (it == groups_.end()) {
    // A peer beat our registration: park the packet for replay.  The
    // budget is per group id — and distinct parked ids are bounded like
    // descriptor slots — so one group that is slow to register (or never
    // registers) cannot exhaust the pool for unrelated groups.
    auto parked = pre_reg_.find(gid);
    if (parked == pre_reg_.end()) {
      if (pre_reg_.size() >= cfg_.coll_max_groups) {
        ++stats_.drops;
        co_return;
      }
      parked = pre_reg_.emplace(gid, std::vector<hw::Packet>{}).first;
    }
    if (parked->second.size() < cfg_.coll_park_per_group) {
      parked->second.push_back(std::move(p));
    } else {
      ++stats_.drops;
    }
    co_return;
  }
  GroupDescriptor& g = it->second;
  const std::uint64_t seq = p.msg_id;
  if (trace_) trace_->flow_step(comp(), "coll", coll_flow_key(gid, seq));
  const auto wire = static_cast<CollWire>(p.op_flags >> 8);
  if (wire == CollWire::kFail) {
    co_await fail_group(g);  // no-op if already failed (stops the flood)
    co_return;
  }
  if (g.failed) {
    ++stats_.drops;  // the group is dead; its traffic is noise
    co_return;
  }
  if (root >= g.size()) {
    ++stats_.drops;  // no such member: there is no tree to route along
    co_return;
  }
  switch (wire) {
    case CollWire::kArrive: {
      Pending& pd = touch_pending(g, seq);
      pd.kind = CollKind::kBarrier;
      ++pd.have;
      co_await handle_barrier_arrive(g, pd, seq);
      break;
    }
    case CollWire::kRelease:
      co_await handle_barrier_release(g, seq);
      break;
    case CollWire::kData: {
      Pending& pd = touch_pending(g, seq);
      pd.root = root;
      co_await handle_bcast_packet(g, pd, seq, std::move(p));
      break;
    }
    case CollWire::kPartial: {
      Pending& pd = touch_pending(g, seq);
      pd.root = root;
      co_await handle_reduce_packet(g, pd, seq, std::move(p));
      break;
    }
    default:
      ++stats_.drops;
      break;
  }
}

// Barriers always run on the canonical root-0 tree stored in the
// descriptor: combine arrivals up, then release down.
sim::Task<void> CollectiveEngine::handle_barrier_arrive(GroupDescriptor& g,
                                                        Pending& pd,
                                                        std::uint64_t seq) {
  const int need = static_cast<int>(g.children.size()) + 1;
  if (!pd.local_posted || pd.have < need || pd.sent_up) co_return;
  pd.sent_up = true;
  if (g.parent < 0) {
    // Root: the whole group has arrived; release the tree.
    std::vector<hw::Packet> batch;
    batch.reserve(g.children.size());
    for (const int child : g.children) {
      if (trace_) {
        trace_->msg_link(member_key(g, seq, g.my_index),
                         member_key(g, seq, child));
      }
      batch.push_back(make_packet(g, child, CollWire::kRelease, seq, 0,
                                  pd.op));
    }
    emit_fanout(std::move(batch));
    // The host completion is off the combine path: the release cascade is
    // already launched, and the event-build/DMA charges run as a daemon so
    // they never serialize behind the next hop's packet processing.
    erase({g.id, seq});
    eng_.spawn_daemon(complete(g, seq, CollKind::kBarrier, 0, 0, true));
  } else {
    if (trace_) {
      trace_->msg_link(member_key(g, seq, g.parent),
                       member_key(g, seq, g.my_index));
    }
    emit(make_packet(g, g.parent, CollWire::kArrive, seq, 0, pd.op));
    // Completion arrives with the release from above.
  }
}

sim::Task<void> CollectiveEngine::handle_barrier_release(GroupDescriptor& g,
                                                         std::uint64_t seq) {
  std::vector<hw::Packet> batch;
  batch.reserve(g.children.size());
  for (const int child : g.children) {
    if (trace_) {
      trace_->msg_link(member_key(g, seq, g.my_index),
                       member_key(g, seq, child));
    }
    batch.push_back(
        make_packet(g, child, CollWire::kRelease, seq, 0, CollOp::kSum));
  }
  emit_fanout(std::move(batch));
  // Asynchronous completion: the old inline event-build + event-DMA here
  // added ~1.25 us of rx-pump occupancy at EVERY tree level, which is what
  // kept the NIC barrier under 2x the host tree.  The release keeps
  // cascading; the host learns via the daemon.
  erase({g.id, seq});
  eng_.spawn_daemon(complete(g, seq, CollKind::kBarrier, 0, 0, true));
  co_return;
}

sim::Task<void> CollectiveEngine::handle_reduce_packet(GroupDescriptor& g,
                                                       Pending& pd,
                                                       std::uint64_t seq,
                                                       hw::Packet p) {
  // A partial that beats the local post marks the entry a reduce until the
  // post says which operation it is.
  if (!pd.local_posted) pd.kind = CollKind::kReduce;
  pd.op = static_cast<CollOp>(p.reply_channel);
  pd.len = std::max(pd.len, static_cast<std::size_t>(p.msg_bytes));
  const bool last = p.frag_index + 1 == p.frag_count;
  if (!pd.acc_init) {
    pd.stash.push_back(std::move(p));  // no accumulator until the post
  } else {
    co_await combine_fragment(g, pd, p);
  }
  if (last) {
    ++pd.have;  // one child subtree fully accounted
    co_await advance_reduce(g, pd, seq);
  }
}

sim::Task<void> CollectiveEngine::combine_fragment(GroupDescriptor& g,
                                                   Pending& pd,
                                                   const hw::Packet& p) {
  (void)g;
  const std::size_t elems = p.payload.size() / sizeof(double);
  if (elems > 0) {
    co_await nic_.lanai().use(cfg_.coll_combine_per_element *
                              static_cast<double>(elems));
    const std::size_t base =
        static_cast<std::size_t>(p.offset) / sizeof(double);
    if (base + elems > pd.acc.size()) pd.acc.resize(base + elems);
    for (std::size_t i = 0; i < elems; ++i) {
      double v = 0;
      std::memcpy(&v, p.payload.data() + i * sizeof(double), sizeof(double));
      pd.acc[base + i] = coll_apply(pd.op, pd.acc[base + i], v);
    }
  }
  ++stats_.combines;
  stats_.combined_elements += elems;
}

void CollectiveEngine::send_partial_up(const GroupDescriptor& g,
                                       int parent_member, std::uint64_t seq,
                                       const Pending& pd) {
  const std::uint32_t frags = static_cast<std::uint32_t>(
      std::max<std::uint64_t>(1, (pd.len + cfg_.mtu - 1) / cfg_.mtu));
  for (std::uint32_t i = 0; i < frags; ++i) {
    const std::uint64_t off = static_cast<std::uint64_t>(i) * cfg_.mtu;
    const std::size_t flen = static_cast<std::size_t>(
        std::min<std::uint64_t>(cfg_.mtu, pd.len - off));
    hw::Packet q =
        make_packet(g, parent_member, CollWire::kPartial, seq, pd.root,
                    pd.op);
    q.frag_index = i;
    q.frag_count = frags;
    q.msg_bytes = pd.len;
    q.offset = off;
    if (flen > 0) {
      q.payload.resize(flen);
      std::memcpy(q.payload.data(),
                  reinterpret_cast<const std::byte*>(pd.acc.data()) + off,
                  flen);
    }
    emit(std::move(q));
  }
}

sim::Task<void> CollectiveEngine::advance_reduce(GroupDescriptor& g,
                                                 Pending& pd,
                                                 std::uint64_t seq) {
  const TreeLinks nb = neighbors(g, pd.root);
  const int need = static_cast<int>(nb.children.size()) + 1;
  if (!pd.acc_init || pd.have < need || pd.sent_up) co_return;
  pd.sent_up = true;
  const Key key{g.id, seq};
  if (nb.parent >= 0) {
    // Interior/leaf: hand the combined subtree partial to the parent; the
    // host is never touched.
    if (trace_) {
      trace_->msg_link(member_key(g, seq, nb.parent),
                       member_key(g, seq, g.my_index));
    }
    send_partial_up(g, nb.parent, seq, pd);
    // An allreduce member completes when the result comes back down.
    if (pd.kind == CollKind::kAllreduce) co_return;
    co_await complete(g, seq, CollKind::kReduce, pd.root, 0, true);
    erase(key);
    co_return;
  }
  // Root: the combined vector is final.  An allreduce sends it back down
  // the tree straight out of SRAM, as this operation's data fragments,
  // before the root's own copy; then the root's only host DMA lands it in
  // the registration-pinned result buffer.
  std::vector<std::byte> result(pd.len);
  if (pd.len > 0) std::memcpy(result.data(), pd.acc.data(), pd.len);
  if (pd.kind == CollKind::kAllreduce) {
    co_await fan_out(g, seq, pd.root, pd.op, pd.len, result, {});
  }
  if (pd.len > 0) {
    co_await nic_.dma_scatter(result,
                              slice_segments(g.result_segs, 0, pd.len),
                              cfg_.dma_lead_bytes);
  }
  // A crash or a group failure during the DMA has completed the operation
  // already (and may have dropped the descriptor).
  const auto it = pending_.find(key);
  const GroupDescriptor* live = find_group(key.first);
  if (it == pending_.end() || live == nullptr) co_return;
  co_await complete(*live, seq, it->second.kind, it->second.root,
                    it->second.len, true);
  erase(key);
}

sim::Task<void> CollectiveEngine::handle_bcast_packet(GroupDescriptor& g,
                                                      Pending& pd,
                                                      std::uint64_t seq,
                                                      hw::Packet p) {
  // Broadcast receivers never post.  An allreduce member has posted: its
  // entry and causal record are its post's, and this is the result.
  if (!pd.local_posted) pd.kind = CollKind::kBcast;
  pd.len = static_cast<std::size_t>(p.msg_bytes);
  if (trace_ && !pd.local_posted && pd.frags_seen == 0 && pd.stash.empty()) {
    // A receiver's record starts at the first fragment (the parent edge
    // arrived with msg_link, possibly earlier).  A held fragment leaves
    // frags_seen at 0 but sits in the stash.
    trace_->msg_begin(member_key(g, seq, g.my_index), "bcast",
                      static_cast<int>(g.members[g.my_index].node), -1,
                      static_cast<std::size_t>(p.msg_bytes));
  }
  // Forward to children first (cut-through, straight from the packet
  // buffer), then scatter the fragment into the pinned result buffer.
  const TreeLinks nb = neighbors(g, pd.root);
  std::vector<hw::Packet> batch;
  batch.reserve(nb.children.size());
  for (const int child : nb.children) {
    if (trace_) {
      trace_->msg_link(member_key(g, seq, g.my_index),
                       member_key(g, seq, child));
    }
    hw::Packet q = p;
    const PortId dst = g.members.at(static_cast<std::size_t>(child));
    q.dst_node = dst.node;
    q.dst_port = dst.port;
    q.src_port = g.members[g.my_index].port;
    q.seq = 0;
    q.ack = 0;
    q.corrupted = false;
    q.ecn = false;  // marks belong to the inbound path, not the re-emit
    q.retransmitted = false;  // ditto for the inbound copy's retx stamp
    q.route.clear();
    q.route_pos = 0;
    batch.push_back(std::move(q));
  }
  emit_fanout(std::move(batch));
  if (seq > g.host_done + 1) {
    // The host has yet to read an earlier operation's result (a reduce
    // rooted here may even land after this fragment): keep the fragment in
    // SRAM until host_done releases it.
    pd.stash.push_back(std::move(p));
    co_return;
  }
  co_await deliver_fragment(g, pd, seq, p);
}

sim::Task<void> CollectiveEngine::deliver_fragment(GroupDescriptor& g,
                                                   Pending& pd,
                                                   std::uint64_t seq,
                                                   const hw::Packet& p) {
  if (!p.payload.empty() && !pd.failed) {
    if (p.offset + p.payload.size() > g.result_buf.len) {
      // This member registered a smaller result buffer than the root's
      // payload.  Fail the operation visibly — a silent drop would leave
      // the polling host waiting forever — and let the remaining
      // fragments drain below so the pending entry is reclaimed.
      ++stats_.drops;
      pd.failed = true;
      co_await complete(g, seq, pd.kind, pd.root, 0, false, BclErr::kTooBig);
    } else {
      co_await nic_.dma_scatter(
          p.payload,
          slice_segments(g.result_segs, p.offset, p.payload.size()),
          cfg_.dma_lead_bytes);
    }
  }
  ++pd.frags_seen;
  if (pd.frags_seen == p.frag_count) {
    if (!pd.failed) {
      co_await complete(g, seq, pd.kind, pd.root,
                        static_cast<std::size_t>(p.msg_bytes), true);
    }
    erase({g.id, seq});
  }
}

void CollectiveEngine::host_done(std::uint16_t gid, std::uint64_t seq) {
  GroupDescriptor* g = find_group(gid);
  if (g == nullptr || seq <= g->host_done) return;
  g->host_done = seq;
  const auto it = pending_.find({gid, seq + 1});
  if (it != pending_.end() && held(it->second)) {
    eng_.spawn_daemon(deliver_held(gid, seq + 1));
    if (cfg_.coll_op_timeout > sim::Time::zero()) {
      eng_.spawn_daemon(watchdog(gid, seq + 1));
    }
  }
}

sim::Task<void> CollectiveEngine::deliver_held(std::uint16_t gid,
                                               std::uint64_t seq) {
  // Re-find the entry per fragment: a group failure, crash or unregister
  // can drop it while a DMA is in flight.
  for (;;) {
    GroupDescriptor* g = find_group(gid);
    const auto it = pending_.find({gid, seq});
    if (g == nullptr || it == pending_.end() || it->second.stash.empty()) {
      co_return;
    }
    const hw::Packet p = std::move(it->second.stash.front());
    it->second.stash.erase(it->second.stash.begin());
    co_await deliver_fragment(*g, it->second, seq, p);
  }
}

sim::Task<void> CollectiveEngine::complete(GroupDescriptor g,
                                           std::uint64_t seq, CollKind kind,
                                           std::uint16_t root,
                                           std::size_t len, bool ok,
                                           BclErr err) {
  Port* port = mcp_.find_port(g.members[g.my_index].port);
  co_await nic_.lanai().use(cfg_.mcp_event_proc);
  co_await eng_.sleep(cfg_.event_dma);
  ++stats_.completions;
  if (trace_) {
    // Mirror the driver's convention: only the operation's root member
    // (member 0 for barriers) terminates the per-collective flow arrow.
    const std::uint16_t origin = kind == CollKind::kBarrier ? 0 : root;
    if (g.my_index == origin) {
      trace_->flow_end(comp(), "coll", coll_flow_key(g.id, seq));
    } else {
      trace_->flow_step(comp(), "coll", coll_flow_key(g.id, seq));
    }
    trace_->msg_end(member_key(g, seq, g.my_index), ok);
  }
  if (port != nullptr) {
    co_await port->coll_events(g.id).send(CollEvent{g.id, seq, kind, root,
                                                    len, ok, err});
  }
}

}  // namespace bcl::coll
