// CollectiveEngine: the MCP firmware extension that executes barrier,
// broadcast, reduce, and allreduce entirely on the NIC.
//
// The engine owns the group descriptors the driver's register_group trap
// PIOs into NIC SRAM, plus a post queue (one entry per locally-initiated
// collective).  Collective packets are recognised by Mcp::handle_data (low
// byte of op_flags == SendOp::kColl) and handed here; the engine combines
// (all)reduce partials in NIC SRAM, forwards data fragments to tree
// children straight out of the packet buffer, and DMAs a single completion
// event into the port's collective event queue — the host is involved only
// at the posting ioctl and the completion poll.  An allreduce's root turns
// the combined result around in SRAM: it fans it out as the operation's
// data fragments, so every member completes the whole allreduce on one post
// and one event.  A barrier is a zero-byte allreduce: it has no path of its
// own.
//
// The engine's counters (posts, forwards, combines, drops, timeouts, ...)
// are NIC events in the MCP's recorder (bcl/recorder.hpp): one call per
// event, read back with recorder().count(NicEvent::kColl...), exported as
// <nic>.coll.* with the MCP's own events.
//
// Deadlock rule (see docs/INTERNALS.md): handle_packet runs on the MCP's
// rx pump, which must never block on the tx mutex, so every packet the
// engine originates is emitted through a spawned daemon (Mcp::coll_send).
//
// Suspension rule: a crash, a group failure or an unregister can drop a
// descriptor or a pending entry while a coroutine waits on a DMA or a
// LANai charge.  So every coroutine names its operation by its (group,
// seq) key, looks the group and the entry up again after each co_await,
// and returns without completing if either is gone: whoever dropped it has
// completed the operation already.
#pragma once

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "bcl/coll/group.hpp"
#include "bcl/config.hpp"
#include "bcl/recorder.hpp"
#include "hw/nic.hpp"
#include "sim/engine.hpp"
#include "sim/fifo.hpp"
#include "sim/metrics.hpp"
#include "sim/queue.hpp"
#include "sim/task.hpp"
#include "sim/trace.hpp"

namespace bcl {

class Mcp;

namespace coll {

class CollectiveEngine {
 public:
  // Flow steps and causal records go to `trace` under the NIC's name; the
  // engine's collector writes the <nic>.coll.* gauges into `metrics`.
  CollectiveEngine(sim::Engine& eng, hw::Nic& nic, Mcp& mcp,
                   const CostConfig& cfg, sim::Trace& trace,
                   sim::MetricRegistry& metrics);

  // -- registration (state writes are instantaneous; the trap charges time) ------
  BclErr register_group(GroupDescriptor desc);
  void unregister_group(std::uint16_t id);
  GroupDescriptor* find_group(std::uint16_t id);

  // The queue the driver's coll_post trap PIOs operation descriptors into.
  sim::Channel<CollPost>& posts() { return posts_; }

  // Called by Mcp::handle_data for packets carrying SendOp::kColl.
  sim::Task<void> handle_packet(hw::Packet p);

  // The host is done with operations up to `seq` of group `gid`: it has
  // read their results out of the group's result buffer, which may now
  // take the next operation's data.  The host library writes this consumer
  // index (CollPort) into memory the NIC reads, so it costs no trap.
  void host_done(std::uint16_t gid, std::uint64_t seq);

  // A reliability session exhausted its retry budget toward `node`: fail
  // every group with a member there (kPeerUnreachable completions, kFail
  // flooded over the tree so members that never talk to the dead node
  // learn within tree-depth hops).
  sim::Task<void> on_peer_failure(hw::NodeId node);

  // This NIC's MCP fail-stopped: every descriptor, accumulator, and parked
  // partial is SRAM content and vanishes.  Local pending posters get a
  // kPeerRestarted completion (the kernel completes on behalf of the dead
  // hardware) and every live group emits its group-wide seq-0 failure so
  // blocked hosts unblock; after reboot the groups must re-register.
  void on_local_crash();

  std::size_t sram_bytes() const { return sram_bytes_; }
  std::size_t pending_ops() const { return pending_.size(); }
  std::size_t group_count() const { return groups_.size(); }

 private:
  // One in-flight collective operation on this NIC, keyed (group, seq).
  struct Pending {
    // Set by whatever created the entry, the local post or a packet; a post
    // or packet naming another kind fails the group.
    CollKind kind = CollKind::kBarrier;
    std::uint16_t root = 0;
    CollOp op = CollOp::kSum;
    std::size_t len = 0;
    int have = 0;             // self post + completed child subtrees
    bool local_posted = false;
    bool sent_up = false;     // this subtree already reported / forwarded
    bool failed = false;      // failure completion already emitted
    std::vector<double> acc;  // (all)reduce accumulator (NIC SRAM)
    bool acc_init = false;
    // Packets held back: (all)reduce partials that arrive before the local
    // contribution, broadcast fragments the host is not ready for
    // (host_done).
    std::vector<hw::Packet> stash;
    std::uint32_t frags_seen = 0;   // data-fragment reassembly progress
    std::size_t sram = 0;           // bytes reserved for acc
  };
  using Key = std::pair<std::uint16_t, std::uint64_t>;
  // The local member of a group, by value: a completion can outlive the
  // descriptor it was issued for.
  struct Member {
    std::uint16_t group = 0;
    std::uint16_t index = 0;
    PortId port;
  };
  static Member member(const GroupDescriptor& g) {
    return {g.id, g.my_index, g.members[g.my_index]};
  }

  sim::Task<void> post_pump();
  sim::Task<void> handle_post(CollPost post);
  sim::Task<void> handle_bcast_packet(Key key, hw::Packet p);
  // Lands one data fragment in the result buffer and completes the
  // operation with its last fragment.
  sim::Task<void> deliver_fragment(Key key, const hw::Packet& p);
  sim::Task<void> deliver_held(Key key);
  // A broadcast whose fragments wait in SRAM for the host (host_done).
  static bool held(const Pending& pd) {
    return pd.kind == CollKind::kBcast && !pd.stash.empty();
  }
  sim::Task<void> advance_reduce(Key key);
  // Fans operation `key`'s `len`-byte payload out to this member's children
  // in the tree rooted at `root`, one MTU-sized data fragment per fan-out
  // batch.  The payload is either already in NIC SRAM (`sram`: an
  // allreduce root's result) or in host pages the NIC DMAs one fragment at
  // a time (`host`: a broadcast root's source buffer).
  sim::Task<void> fan_out(Key key, std::uint16_t root, CollKind kind,
                          CollOp op, std::size_t len,
                          const std::vector<std::byte>& sram,
                          const std::vector<hw::PhysSegment>& host);
  sim::Task<void> combine_fragment(Key key, const hw::Packet& p);
  // Completes the local member's operation `key` once its data has landed
  // (or, at a root, been sent), and drops the entry.  An operation that
  // lands data completes inline; one that lands none (a barrier) completes
  // from a daemon, so a release hop never holds the rx pump for the event
  // build and DMA.
  sim::Task<void> finish(Key key);
  sim::Task<void> complete(Member m, std::uint64_t seq, CollKind kind,
                           std::uint16_t root, std::size_t len, bool ok,
                           BclErr err = BclErr::kOk);
  sim::Task<void> replay(hw::Packet p);
  Pending* find_pending(const Key& key);
  // Looks up or creates the pending entry for (g.id, seq); creation takes
  // `kind` and arms the operation's watchdog.
  Pending& touch_pending(const GroupDescriptor& g, std::uint64_t seq,
                         CollKind kind);
  // Arms operation `key`'s watchdog: its deadline, cfg.coll_op_timeout from
  // now, joins the deadline FIFO, and the watchdog daemon starts if none
  // runs.
  void arm(const Key& key);
  // The engine's one watchdog daemon.  It drops the deadlines of
  // operations that are no longer pending, sleeps until the front deadline
  // and fails the group of an operation that has not completed by then.
  // It ends when no deadline is left.
  sim::Task<void> watchdog();
  // First failure wins: marks the group failed, fails every pending op,
  // and emits one group-wide failure event (seq 0) so hosts blocked on any
  // sequence unblock.  With `notify` (this member found the failure) it
  // first sends kFail to every other member.
  sim::Task<void> fail_group(std::uint16_t gid, bool notify = true);

  // This member's tree links for an operation rooted at member `root`.
  TreeLinks neighbors(const GroupDescriptor& g, int root) const;
  hw::Packet make_packet(const GroupDescriptor& g, int dst_member,
                         CollWire wire, std::uint64_t seq, std::uint16_t root,
                         CollKind kind, CollOp op) const;
  void emit(hw::Packet p);  // spawn a daemon through Mcp::coll_send
  // Congestion-aware fan-out: each packet's emission daemon first sleeps
  // out its destination's current pacing delay (peeked from the rate
  // controller, not reserved — the reliability session paces the actual
  // launch), and the batch spawns least-congested first.  Without this,
  // every fan-out daemon piles onto the tx mutex in one tick and a single
  // throttled child head-of-line blocks the fast ones.
  void emit_fanout(std::vector<hw::Packet> batch);
  void emit_after(sim::Time delay, hw::Packet p);
  sim::Task<void> delayed_send(sim::Time delay, hw::Packet p);
  void send_partial_up(const GroupDescriptor& g, int parent_member,
                       std::uint64_t seq, const Pending& pd);
  void reserve_sram(Pending& pd, std::size_t bytes);
  void erase(const Key& key);
  int max_tree_depth() const;

  sim::Engine& eng_;
  hw::Nic& nic_;
  Mcp& mcp_;
  FlightRecorder& recorder_;  // the MCP's: the engine's events are NIC events
  const CostConfig& cfg_;
  sim::Trace& trace_;
  const std::string prefix_;  // "<nic>.coll.": the prefix of its gauges
  sim::Channel<CollPost> posts_;
  std::map<std::uint16_t, GroupDescriptor> groups_;
  std::map<Key, Pending> pending_;
  // Watchdog deadlines in arming order, which is deadline order: every
  // deadline is its arming time plus the one cfg.coll_op_timeout.  An
  // operation that completes leaves its deadline here; the daemon drops it
  // when it reaches the front.
  struct Deadline {
    sim::Time at;
    Key key;
  };
  sim::Fifo<Deadline> deadlines_;
  bool watchdog_running_ = false;
  // Packets for groups not yet registered on this NIC (a peer raced ahead);
  // replayed on registration.  Budgeted per group id (and the number of
  // distinct parked ids is bounded) so a group that never registers cannot
  // starve unrelated groups racing their registration.
  std::map<std::uint16_t, std::vector<hw::Packet>> pre_reg_;
  std::size_t sram_bytes_ = 0;
};

}  // namespace coll
}  // namespace bcl
