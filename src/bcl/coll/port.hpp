// CollPort: the user-level face of the NIC collective engine.
//
// One CollPort wraps one membership in one registered group: creation runs
// the register_group trap (allocating and pinning the group result buffer),
// and each operation is a single trap-accounted post ioctl followed by a
// user-space poll of the port's collective event queue.  Everything between
// those two ends executes on the NICs (coll::CollectiveEngine).
//
// Roots and destinations are *member indices* (one member per node); layers
// with several ranks per node (mini-MPI) funnel through a per-node leader.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "bcl/coll/group.hpp"
#include "bcl/library.hpp"

namespace bcl::coll {

class CollPort {
 public:
  // Registers `members` (one port per node, members[i] = member rank i) as
  // NIC group `group_id` on this endpoint's NIC.  `buf_bytes` bounds the
  // largest broadcast/reduction payload.  On failure (duplicate id, bad
  // membership, pin exhaustion) nothing is left registered and callers are
  // expected to fall back to host-level algorithms.
  static sim::Task<Result<std::unique_ptr<CollPort>>> create(
      Endpoint& ep, std::uint16_t group_id, std::vector<PortId> members,
      std::size_t buf_bytes);
  ~CollPort();
  CollPort(const CollPort&) = delete;
  CollPort& operator=(const CollPort&) = delete;

  int index() const { return my_index_; }
  int size() const { return n_; }
  std::size_t max_bytes() const { return buf_.len; }
  // True once the engine reported a group-wide failure (a member became
  // unreachable); every subsequent operation returns kPeerUnreachable.
  bool failed() const { return failed_; }

  // Every member calls every operation, in the same order (the shared
  // sequence number is derived locally from that discipline, exactly like
  // MPI's collective-call matching rule).
  sim::Task<BclErr> barrier();
  // Root sends buf[0, len); every other member receives into buf.
  sim::Task<BclErr> bcast(const osk::UserBuffer& buf, std::size_t len,
                          int root);
  // Element-wise reduction of `count` doubles; dst is written at the root.
  sim::Task<BclErr> reduce(const osk::UserBuffer& src,
                           const osk::UserBuffer& dst, std::size_t count,
                           CollOp op, int root);
  // One NIC operation: partials combine up the tree to member 0, whose MCP
  // sends the result straight back down out of NIC SRAM, so every member
  // posts once and polls one completion; dst is written everywhere.
  sim::Task<BclErr> allreduce(const osk::UserBuffer& src,
                              const osk::UserBuffer& dst, std::size_t count,
                              CollOp op);

 private:
  CollPort(Endpoint& ep, std::uint16_t id, std::uint16_t my_index, int n,
           osk::UserBuffer buf);
  // Polls this group's collective event queue until operation `seq`
  // completes.  Events for other sequence numbers (completions can ride
  // unordered packets) are held, not dropped.
  sim::Task<CollEvent> wait_event(std::uint64_t seq);
  // Takes the next sequence number.  The host is done with every earlier
  // operation, so the NIC may land this one's data.
  std::uint64_t begin_op();
  // Tells the NIC the host is done with the result buffer for operations
  // up to `seq` (CollectiveEngine::host_done): called once an operation's
  // result is read, or at its completion when it leaves none here.
  void release(std::uint64_t seq);
  // Copies operation `seq`'s result out of the pinned result buffer; once
  // read, the buffer is free for the next operation's data.
  sim::Task<void> copy_from_result(std::uint64_t seq,
                                   const osk::UserBuffer& dst,
                                   std::size_t len);
  // The error a failed completion carries to the caller.
  static BclErr event_err(const CollEvent& ev) {
    return ev.err != BclErr::kOk ? ev.err : BclErr::kTooBig;
  }

  Endpoint& ep_;
  std::uint16_t id_;
  std::uint16_t my_index_;
  int n_;
  osk::UserBuffer buf_;  // pinned group result buffer
  std::uint64_t next_seq_ = 1;
  bool failed_ = false;
  std::map<std::uint64_t, CollEvent> held_;  // completions awaiting their wait
};

}  // namespace bcl::coll
