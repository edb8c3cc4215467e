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

// Operations whose root sends the combined result back down the tree: a
// barrier is a zero-byte allreduce.
bool is_allreduce(CollKind k) {
  return k == CollKind::kAllreduce || k == CollKind::kBarrier;
}

}  // namespace

CollectiveEngine::CollectiveEngine(sim::Engine& eng, hw::Nic& nic, Mcp& mcp,
                                   const CostConfig& cfg, sim::Trace& trace,
                                   sim::MetricRegistry& metrics)
    : eng_{eng},
      nic_{nic},
      mcp_{mcp},
      recorder_{mcp.recorder()},
      cfg_{cfg},
      trace_{trace},
      prefix_{nic.name() + ".coll."},
      posts_{eng, cfg.request_queue_depth} {
  // The engine's counters are NIC events (the MCP's collector writes
  // them); only its gauges are its own.
  metrics.add_collector([this](sim::MetricSink& out) {
    out.gauge(prefix_ + "sram_bytes", static_cast<double>(sram_bytes_));
    out.gauge(prefix_ + "pending_ops", static_cast<double>(pending_.size()));
    out.gauge(prefix_ + "groups", static_cast<double>(groups_.size()));
    out.gauge(prefix_ + "tree_depth", static_cast<double>(max_tree_depth()));
  });
  eng_.spawn_daemon(post_pump());
}

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
                                         std::uint16_t root, CollKind kind,
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
  p.reply_channel = coll_reply_channel(kind, op);
  p.msg_id = seq;
  return p;
}

void CollectiveEngine::emit(hw::Packet p) {
  emit_after(sim::Time::zero(), std::move(p));
}

void CollectiveEngine::emit_after(sim::Time delay, hw::Packet p) {
  recorder_.add(NicEvent::kCollForward);
  trace_.flow_step(nic_.name(), "coll",
                   coll_flow_key(static_cast<std::uint16_t>(p.channel),
                                 p.msg_id));
  // Never transmit inline: handle_packet runs on the rx pump, which must
  // not wait for the tx mutex (the session it would block on drains its
  // window through this very pump).
  if (delay <= sim::Time::zero()) {
    eng_.spawn_daemon(mcp_.coll_send(std::move(p)));
  } else {
    recorder_.add(NicEvent::kCollStaggered);
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
    recorder_.add(NicEvent::kCollSramExhausted);  // combining proceeds anyway
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

CollectiveEngine::Pending* CollectiveEngine::find_pending(const Key& key) {
  const auto it = pending_.find(key);
  return it == pending_.end() ? nullptr : &it->second;
}

CollectiveEngine::Pending& CollectiveEngine::touch_pending(
    const GroupDescriptor& g, std::uint64_t seq, CollKind kind) {
  const Key key{g.id, seq};
  auto it = pending_.find(key);
  if (it == pending_.end()) {
    it = pending_.emplace(key, Pending{}).first;
    it->second.kind = kind;
    arm(key);
  }
  return it->second;
}

void CollectiveEngine::arm(const Key& key) {
  deadlines_.push_back({eng_.now() + cfg_.coll_op_timeout, key});
  if (watchdog_running_) return;
  watchdog_running_ = true;
  eng_.spawn_daemon(watchdog());
}

sim::Task<void> CollectiveEngine::watchdog() {
  for (;;) {
    // An operation that completed leaves its deadline behind: drop it
    // without waking for it.
    while (!deadlines_.empty() &&
           find_pending(deadlines_.front().key) == nullptr) {
      deadlines_.pop_front();
    }
    if (deadlines_.empty()) break;
    const Deadline next = deadlines_.front();
    if (next.at > eng_.now()) {
      co_await eng_.sleep_until(next.at);
      continue;  // it may have completed meanwhile
    }
    deadlines_.pop_front();
    const auto [gid, seq] = next.key;
    const Pending& pd = *find_pending(next.key);
    // Fragments held for the host wait on the host, not the network;
    // host_done arms a fresh deadline when it releases them.
    if (held(pd)) continue;
    if (find_group(gid) == nullptr) continue;  // unregistered meanwhile
    // Record the expiry and fire the post-mortem hook while the victim op's
    // state is still intact; fail_group tears it down from a daemon of its
    // own, so one failure never delays the next expiry.
    mcp_.report_coll_timeout(gid, seq, kind_name(pd.kind));
    eng_.spawn_daemon(fail_group(gid));
  }
  deadlines_.release_if_empty();
  watchdog_running_ = false;
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
  for (const std::uint16_t id : ids) co_await fail_group(id);
}

sim::Task<void> CollectiveEngine::fail_group(std::uint16_t gid,
                                             bool notify) {
  GroupDescriptor* g = find_group(gid);
  if (g == nullptr || g->failed) co_return;
  g->failed = true;
  recorder_.record({eng_.now(), NicEvent::kGroupFailed, 0, 0, 0, gid});
  // The member that found the failure tells every other member itself: a
  // flood along any one tree can be cut where the dead member sits, and
  // a member with nothing pending has no watchdog of its own.
  for (int m = 0; notify && m < g->size(); ++m) {
    if (m == g->my_index) continue;
    emit(make_packet(*g, m, CollWire::kFail, 0, 0, CollKind::kBarrier,
                     CollOp::kSum));
  }
  const Member me = member(*g);
  // Fail every in-flight operation of the group.  A crash during one of
  // these completions completes the ones still pending itself.
  std::vector<std::uint64_t> doomed;
  for (const auto& [key, pd] : pending_) {
    if (key.first == gid) doomed.push_back(key.second);
  }
  for (const std::uint64_t seq : doomed) {
    const Pending* pd = find_pending({gid, seq});
    if (pd == nullptr) continue;
    const CollKind kind = pd->kind;
    const std::uint16_t root = pd->root;
    erase({gid, seq});
    co_await complete(me, seq, kind, root, 0, false,
                      BclErr::kPeerUnreachable);
  }
  // One group-wide failure notification (seq 0): a member may be blocked
  // on a sequence that never produced a pending entry here (e.g. a
  // broadcast receiver whose root died before sending).  It is owed even
  // if a crash has dropped the descriptor meanwhile, because on_local_crash
  // leaves failed groups to this notice.
  co_await complete(me, 0, CollKind::kBarrier, 0, 0, false,
                    BclErr::kPeerUnreachable);
}

void CollectiveEngine::on_local_crash() {
  // Complete every in-flight operation with the restart verdict before
  // dropping the SRAM.  complete() holds the member's identity by value,
  // so clearing groups_ below cannot invalidate the spawned daemons.
  std::vector<std::pair<Key, Pending>> doomed(pending_.begin(),
                                              pending_.end());
  for (auto& [key, pd] : doomed) {
    GroupDescriptor* g = find_group(key.first);
    erase(key);  // releases the accumulator's SRAM reservation
    if (g != nullptr && !pd.failed) {
      eng_.spawn_daemon(complete(member(*g), key.second, pd.kind, pd.root, 0,
                                 false, BclErr::kPeerRestarted));
    }
  }
  // One group-wide seq-0 failure per live group: a member may be blocked
  // on a sequence that never produced a pending entry here.
  for (auto& [id, g] : groups_) {
    if (g.failed) continue;
    recorder_.add(NicEvent::kGroupFailed);  // counted, not kept in the ring
    eng_.spawn_daemon(complete(member(g), 0, CollKind::kBarrier, 0, 0, false,
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
  recorder_.add(NicEvent::kCollPost);
  co_await nic_.lanai().use(cfg_.mcp_coll_proc);
  GroupDescriptor* g = find_group(post.group);
  if (g == nullptr) {
    recorder_.add(NicEvent::kCollDrop);  // driver-validated: unregister race
    co_return;
  }
  const Key key{g->id, post.seq};
  recorder_.record(
      {eng_.now(), NicEvent::kCollStart, 0, post.seq, 0, g->id});
  trace_.flow_step(nic_.name(), "coll", coll_flow_key(g->id, post.seq));
  // The local member's causal record: one per member per operation, linked
  // into the fan-out tree at the emit sites below.
  trace_.msg_begin(member_key(*g, post.seq, g->my_index),
                   kind_name(post.kind),
                   static_cast<int>(g->members[g->my_index].node), -1,
                   post.len);
  if (g->failed) {
    // The group lost a member; every subsequent op fails fast.
    co_await complete(member(*g), post.seq, post.kind, post.root, 0, false,
                      BclErr::kPeerUnreachable);
    co_return;
  }
  if (post.kind == CollKind::kBcast) {
    // Only the root member posts a broadcast; everyone else just polls.
    const Member me = member(*g);
    co_await fan_out(key, post.root, post.kind, post.op, post.len, {},
                     post.segs);
    if (find_group(key.first) == nullptr) co_return;  // dropped meanwhile
    co_await complete(me, post.seq, CollKind::kBcast, post.root, post.len,
                      true);
    co_return;
  }
  // Barrier, reduce or allreduce: the post is this member's contribution.
  {
    Pending& pd = touch_pending(*g, post.seq, post.kind);
    if (pd.kind != post.kind) {
      recorder_.add(NicEvent::kCollDrop);  // earlier packets named another op
      co_await fail_group(key.first);
      co_return;
    }
    pd.local_posted = true;
    pd.root = post.root;
    pd.op = post.op;
    pd.len = std::max(pd.len, post.len);
  }
  // The local contribution moves host -> NIC SRAM by DMA and becomes
  // (or merges into) the accumulator.
  std::vector<std::byte> bytes;
  if (post.len > 0) {
    co_await nic_.dma_gather(slice_segments(post.segs, 0, post.len), bytes,
                             cfg_.dma_lead_bytes);
  }
  Pending* pd = find_pending(key);
  if (pd == nullptr) co_return;
  pd->acc.resize(post.len / sizeof(double));
  if (!bytes.empty()) {
    std::memcpy(pd->acc.data(), bytes.data(), pd->acc.size() * sizeof(double));
  }
  reserve_sram(*pd, post.len);
  pd->acc_init = true;
  // Child partials that arrived before the post combine now.
  std::vector<hw::Packet> stash = std::move(pd->stash);
  pd->stash.clear();
  for (const auto& sp : stash) co_await combine_fragment(key, sp);
  pd = find_pending(key);
  if (pd == nullptr) co_return;
  ++pd->have;
  co_await advance_reduce(key);
}

sim::Task<void> CollectiveEngine::fan_out(
    Key key, std::uint16_t root, CollKind kind, CollOp op, std::size_t len,
    const std::vector<std::byte>& sram,
    const std::vector<hw::PhysSegment>& host) {
  const GroupDescriptor* g = find_group(key.first);
  if (g == nullptr) co_return;
  const std::uint64_t seq = key.second;
  const TreeLinks nb = neighbors(*g, root);
  for (const int child : nb.children) {
    trace_.msg_link(member_key(*g, seq, g->my_index),
                    member_key(*g, seq, child));
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
      g = find_group(key.first);
      if (g == nullptr) co_return;
    }
    std::vector<hw::Packet> batch;
    batch.reserve(nb.children.size());
    for (const int child : nb.children) {
      hw::Packet q =
          make_packet(*g, child, CollWire::kData, seq, root, kind, op);
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
  recorder_.add(NicEvent::kCollRxPacket);
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
        recorder_.add(NicEvent::kCollDrop);
        co_return;
      }
      parked = pre_reg_.emplace(gid, std::vector<hw::Packet>{}).first;
    }
    if (parked->second.size() < cfg_.coll_park_per_group) {
      parked->second.push_back(std::move(p));
    } else {
      recorder_.add(NicEvent::kCollDrop);
    }
    co_return;
  }
  GroupDescriptor& g = it->second;
  const Key key{gid, p.msg_id};
  trace_.flow_step(nic_.name(), "coll", coll_flow_key(gid, key.second));
  const auto wire = static_cast<CollWire>(p.op_flags >> 8);
  if (wire == CollWire::kFail) {
    co_await fail_group(gid, /*notify=*/false);
    co_return;
  }
  if (g.failed) {
    recorder_.add(NicEvent::kCollDrop);  // the group is dead: noise
    co_return;
  }
  if (root >= g.size()) {
    recorder_.add(NicEvent::kCollDrop);  // no such member: no tree to route
    co_return;
  }
  if (wire != CollWire::kData && wire != CollWire::kPartial) {
    recorder_.add(NicEvent::kCollDrop);
    co_return;
  }
  const auto kind = static_cast<CollKind>(p.reply_channel >> 8);
  Pending& pd = touch_pending(g, key.second, kind);
  if (pd.kind != kind) {
    recorder_.add(NicEvent::kCollDrop);  // members disagree on the operation
    co_await fail_group(gid);
    co_return;
  }
  pd.root = root;
  if (wire == CollWire::kData) {
    co_await handle_bcast_packet(key, std::move(p));
    co_return;
  }
  // A child subtree's partial.
  pd.op = static_cast<CollOp>(p.reply_channel & 0xff);
  pd.len = std::max(pd.len, static_cast<std::size_t>(p.msg_bytes));
  const bool last = p.frag_index + 1 == p.frag_count;
  if (!pd.acc_init) {
    pd.stash.push_back(std::move(p));  // no accumulator until the post
  } else {
    co_await combine_fragment(key, p);
  }
  if (!last) co_return;
  Pending* live = find_pending(key);
  if (live == nullptr) co_return;
  ++live->have;  // one child subtree fully accounted
  co_await advance_reduce(key);
}

sim::Task<void> CollectiveEngine::combine_fragment(Key key,
                                                   const hw::Packet& p) {
  // A barrier's partials are empty: there is nothing to combine or count.
  const std::size_t elems = p.payload.size() / sizeof(double);
  if (elems == 0) co_return;
  co_await nic_.lanai().use(cfg_.coll_combine_per_element *
                            static_cast<double>(elems));
  Pending* pd = find_pending(key);
  if (pd == nullptr) co_return;
  const std::size_t base = static_cast<std::size_t>(p.offset) / sizeof(double);
  if (base + elems > pd->acc.size()) pd->acc.resize(base + elems);
  for (std::size_t i = 0; i < elems; ++i) {
    double v = 0;
    std::memcpy(&v, p.payload.data() + i * sizeof(double), sizeof(double));
    pd->acc[base + i] = coll_apply(pd->op, pd->acc[base + i], v);
  }
  recorder_.add(NicEvent::kCollCombine);
  recorder_.add(NicEvent::kCollCombinedElements, elems);
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
    hw::Packet q = make_packet(g, parent_member, CollWire::kPartial, seq,
                               pd.root, pd.kind, pd.op);
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

sim::Task<void> CollectiveEngine::advance_reduce(Key key) {
  const GroupDescriptor* g = find_group(key.first);
  Pending* pd = find_pending(key);
  if (g == nullptr || pd == nullptr) co_return;
  const std::uint64_t seq = key.second;
  const TreeLinks nb = neighbors(*g, pd->root);
  const int need = static_cast<int>(nb.children.size()) + 1;
  if (!pd->acc_init || pd->have < need || pd->sent_up) co_return;
  pd->sent_up = true;
  if (nb.parent >= 0) {
    // Interior/leaf: hand the combined subtree partial to the parent; the
    // host is never touched.
    trace_.msg_link(member_key(*g, seq, nb.parent),
                    member_key(*g, seq, g->my_index));
    send_partial_up(*g, nb.parent, seq, *pd);
    // An allreduce member completes when the result comes back down.
    if (is_allreduce(pd->kind)) co_return;
    co_await complete(member(*g), seq, pd->kind, pd->root, 0, true);
    erase(key);
    co_return;
  }
  // Root: the combined vector is final.  An allreduce sends it back down
  // the tree straight out of SRAM, as this operation's data fragments,
  // before the root's own copy; then the root's only host DMA lands it in
  // the registration-pinned result buffer.
  const std::size_t len = pd->len;
  std::vector<std::byte> result(len);
  if (len > 0) std::memcpy(result.data(), pd->acc.data(), len);
  const std::vector<hw::PhysSegment> segs =
      slice_segments(g->result_segs, 0, len);
  if (is_allreduce(pd->kind)) {
    co_await fan_out(key, pd->root, pd->kind, pd->op, len, result, {});
  }
  if (len > 0) co_await nic_.dma_scatter(result, segs, cfg_.dma_lead_bytes);
  co_await finish(key);
}

sim::Task<void> CollectiveEngine::handle_bcast_packet(Key key,
                                                      hw::Packet p) {
  const GroupDescriptor* g = find_group(key.first);
  Pending* pd = find_pending(key);
  if (g == nullptr || pd == nullptr) co_return;
  const std::uint64_t seq = key.second;
  pd->len = static_cast<std::size_t>(p.msg_bytes);
  if (!pd->local_posted && pd->frags_seen == 0 && pd->stash.empty()) {
    // A receiver's record starts at the first fragment (the parent edge
    // arrived with msg_link, possibly earlier).  A held fragment leaves
    // frags_seen at 0 but sits in the stash.  An allreduce member has
    // posted: its causal record is its post's.
    trace_.msg_begin(member_key(*g, seq, g->my_index), "bcast",
                     static_cast<int>(g->members[g->my_index].node), -1,
                     static_cast<std::size_t>(p.msg_bytes));
  }
  // Forward to children first (cut-through, straight from the packet
  // buffer), then scatter the fragment into the pinned result buffer.
  const TreeLinks nb = neighbors(*g, pd->root);
  std::vector<hw::Packet> batch;
  batch.reserve(nb.children.size());
  for (const int child : nb.children) {
    trace_.msg_link(member_key(*g, seq, g->my_index),
                    member_key(*g, seq, child));
    hw::Packet q = p;
    const PortId dst = g->members.at(static_cast<std::size_t>(child));
    q.dst_node = dst.node;
    q.dst_port = dst.port;
    q.src_port = g->members[g->my_index].port;
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
  if (seq > g->host_done + 1) {
    // The host has yet to read an earlier operation's result (a reduce
    // rooted here may even land after this fragment): keep the fragment in
    // SRAM until host_done releases it.
    pd->stash.push_back(std::move(p));
    co_return;
  }
  co_await deliver_fragment(key, p);
}

sim::Task<void> CollectiveEngine::deliver_fragment(Key key,
                                                   const hw::Packet& p) {
  {
    const GroupDescriptor* g = find_group(key.first);
    Pending* pd = find_pending(key);
    if (g == nullptr || pd == nullptr) co_return;
    if (!p.payload.empty() && !pd->failed) {
      if (p.offset + p.payload.size() > g->result_buf.len) {
        // This member registered a smaller result buffer than the root's
        // payload.  Fail the operation visibly — a silent drop would leave
        // the polling host waiting forever — and let the remaining
        // fragments drain below so the pending entry is reclaimed.
        recorder_.add(NicEvent::kCollDrop);
        pd->failed = true;
        co_await complete(member(*g), key.second, pd->kind, pd->root, 0,
                          false, BclErr::kTooBig);
      } else {
        co_await nic_.dma_scatter(
            p.payload,
            slice_segments(g->result_segs, p.offset, p.payload.size()),
            cfg_.dma_lead_bytes);
      }
    }
  }
  Pending* pd = find_pending(key);
  if (pd == nullptr) co_return;
  ++pd->frags_seen;
  if (pd->frags_seen != p.frag_count) co_return;
  if (pd->failed) {
    erase(key);
  } else {
    co_await finish(key);
  }
}

sim::Task<void> CollectiveEngine::finish(Key key) {
  const GroupDescriptor* g = find_group(key.first);
  const Pending* pd = find_pending(key);
  if (g == nullptr || pd == nullptr) co_return;
  const Member me = member(*g);
  const CollKind kind = pd->kind;
  const std::uint16_t root = pd->root;
  const std::size_t len = pd->len;
  if (len == 0) {
    erase(key);
    eng_.spawn_daemon(complete(me, key.second, kind, root, 0, true));
    co_return;
  }
  co_await complete(me, key.second, kind, root, len, true);
  erase(key);
}

void CollectiveEngine::host_done(std::uint16_t gid, std::uint64_t seq) {
  GroupDescriptor* g = find_group(gid);
  if (g == nullptr || seq <= g->host_done) return;
  g->host_done = seq;
  const Pending* pd = find_pending({gid, seq + 1});
  if (pd != nullptr && held(*pd)) {
    eng_.spawn_daemon(deliver_held({gid, seq + 1}));
    arm({gid, seq + 1});
  }
}

sim::Task<void> CollectiveEngine::deliver_held(Key key) {
  for (;;) {
    Pending* pd = find_pending(key);
    if (find_group(key.first) == nullptr || pd == nullptr ||
        pd->stash.empty()) {
      co_return;
    }
    const hw::Packet p = std::move(pd->stash.front());
    pd->stash.erase(pd->stash.begin());
    co_await deliver_fragment(key, p);
  }
}

sim::Task<void> CollectiveEngine::complete(Member m, std::uint64_t seq,
                                           CollKind kind, std::uint16_t root,
                                           std::size_t len, bool ok,
                                           BclErr err) {
  Port* port = mcp_.find_port(m.port.port);
  co_await nic_.lanai().use(cfg_.mcp_event_proc);
  co_await eng_.sleep(cfg_.event_dma);
  recorder_.add(NicEvent::kCollCompletion);
  // Mirror the driver's convention: only the operation's root member
  // terminates the per-collective flow arrow.
  if (m.index == root) {
    trace_.flow_end(nic_.name(), "coll", coll_flow_key(m.group, seq));
  } else {
    trace_.flow_step(nic_.name(), "coll", coll_flow_key(m.group, seq));
  }
  trace_.msg_end(coll_member_key(m.group, seq, static_cast<int>(m.port.node)),
                 ok);
  if (port != nullptr) {
    co_await port->coll_events(m.group).send(
        CollEvent{m.group, seq, kind, root, len, ok, err});
  }
}

}  // namespace bcl::coll
