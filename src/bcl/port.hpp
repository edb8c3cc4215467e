// A BCL port: the per-process communication endpoint state.
//
// Per the paper (section 2.2): each process creates exactly one port; a
// port has a send request queue (in NIC memory), a receiving buffer pool
// organized into channels, and send/receive event queues (in pinned user
// memory, polled without kernel involvement).
//
// The port owns its channels' rules.  Both transports that deliver into
// it, the MCP (section 4.1) and the shared-memory pipes (section 4.2),
// only move bytes: they hand each arriving piece of a message to land(),
// write the pages it returns, and call complete() after the last piece.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "bcl/channel.hpp"
#include "bcl/coll/group.hpp"
#include "bcl/config.hpp"
#include "bcl/types.hpp"
#include "osk/process.hpp"
#include "sim/engine.hpp"
#include "sim/queue.hpp"

namespace bcl {

// One piece of an arriving message.  A message of msg_bytes travels as
// pieces of piece_bytes (the NIC's mtu, the pipe's intra_chunk), so piece
// `index`, at `offset` in the channel's buffer, belongs to a message that
// spans [offset - index * piece_bytes, + msg_bytes).
struct Piece {
  ChannelRef channel{};
  PortId src{};
  std::uint64_t msg_id = 0;
  std::uint64_t msg_bytes = 0;
  std::uint64_t offset = 0;
  std::size_t len = 0;
  std::uint32_t index = 0;
  std::size_t piece_bytes = 0;
};

// The port's verdict on a piece, or on an RMA read's source window.
struct Landing {
  BclErr err = BclErr::kOk;
  std::vector<hw::PhysSegment> pages{};  // where the bytes go (kOk)
  int slot = -1;                         // system channel: the message's slot
  // Messages the port counted as refused while judging this piece: its
  // own at its first piece, and one it cut off.
  std::uint32_t refused = 0;
};

class Port {
 public:
  // Sets up the system channel's pool in `proc`: cfg.sys_slots slots of
  // cfg.sys_slot_bytes, each resolved to its physical pages once.
  Port(sim::Engine& eng, PortId id, osk::Process& proc,
       const CostConfig& cfg);

  PortId id() const { return id_; }
  osk::Process& process() { return proc_; }

  // Completion queues: written by the MCP via DMA, polled by the library.
  sim::Channel<SendEvent>& send_events() { return send_events_; }
  sim::Channel<RecvEvent>& recv_events() { return recv_events_; }
  // Collective completions get one queue per registered group (created on
  // first use): the EADI progress daemon drains recv_events_, so
  // interleaving them there would let it swallow collective completions —
  // and several groups share one port (split/dup communicators reuse the
  // endpoint), so a single queue would let one group's CollPort consume
  // another group's events.
  sim::Channel<coll::CollEvent>& coll_events(std::uint16_t group);
  // Discards events still queued for `group` so a later group reusing the
  // id starts clean (called when the group's CollPort is destroyed).
  void drain_coll_events(std::uint16_t group);

  const SystemChannelState& system() const { return system_; }
  const NormalChannelState& normal(std::uint16_t i) const {
    return normal_.at(i);
  }
  const OpenChannelState& open(std::uint16_t i) const { return open_.at(i); }
  std::uint16_t normal_count() const {
    return static_cast<std::uint16_t>(normal_.size());
  }
  std::uint16_t open_count() const {
    return static_cast<std::uint16_t>(open_.size());
  }

  // -- the host's side: buffers validated and pinned by the caller ----------
  // Normal channel `i` (not posted) takes `buf` for its next message.
  void post(std::uint16_t i, const osk::UserBuffer& buf,
            std::vector<hw::PhysSegment> segs);
  void bind(std::uint16_t i, const osk::UserBuffer& buf,
            std::vector<hw::PhysSegment> segs);
  void unbind(std::uint16_t i) { open_.at(i).bound = false; }
  // The library copied system slot `slot` out; the pool may fill it again.
  void release_slot(int slot) { system_.free_slots.push_back(slot); }

  // -- the receive rule, one for both transports ----------------------------
  // Where piece `p` lands, or why not.  A message's verdict is taken at its
  // first piece, which takes a free system slot or becomes the posted
  // normal channel's message; a refusal is counted there, once per message
  // (sys_drops, not_posted_drops or rma_errors).  Every piece is checked
  // against the message's whole extent.  A later piece lands only in what
  // its first piece took, and only in order: a message that loses a piece,
  // or whose posting a new first piece takes over, is cut off and counted
  // once then, its slot back in the pool.  So a system or normal message
  // completes whole or not at all; an RMA write that fits its window lands
  // piece by piece.  A first piece that finds the pool empty is discarded
  // (the paper's rule) or, with `defer_when_full`, answered kWouldBlock and
  // counted in rnr_events, for the transport to have the sender retry.
  Landing land(const Piece& p, bool defer_when_full);
  // The message's last piece has landed: un-posts a normal channel and
  // counts a received message (unless ev.err is a refused RMA read's
  // verdict) now; the task returned posts `ev`.
  sim::Task<void> complete(const RecvEvent& ev);
  // The pages an RMA read of [offset, offset + len) takes from open
  // channel `ch`, or kNotBound, counted in rma_errors.
  Landing rma_source(ChannelRef ch, std::uint64_t offset, std::size_t len);

  // -- statistics ---------------------------------------------------------------
  std::uint64_t sys_drops() const { return sys_drops_; }
  std::uint64_t rnr_events() const { return rnr_events_; }
  std::uint64_t not_posted_drops() const { return not_posted_drops_; }
  std::uint64_t rma_errors() const { return rma_errors_; }
  std::uint64_t messages_received() const { return messages_received_; }
  std::uint64_t messages_sent() const { return messages_sent_; }
  void count_sent() { ++messages_sent_; }

 private:
  PortId id_;
  osk::Process& proc_;
  sim::Engine& eng_;
  std::size_t event_queue_depth_;
  sim::Channel<SendEvent> send_events_;
  sim::Channel<RecvEvent> recv_events_;
  std::map<std::uint16_t, std::unique_ptr<sim::Channel<coll::CollEvent>>>
      coll_events_;
  SystemChannelState system_;
  std::vector<NormalChannelState> normal_;
  std::vector<OpenChannelState> open_;

  std::uint64_t sys_drops_ = 0;   // too big, or pool exhausted (discard)
  std::uint64_t rnr_events_ = 0;  // pool exhausted, RNR-NACK sent instead
  std::uint64_t not_posted_drops_ = 0;
  std::uint64_t rma_errors_ = 0;
  std::uint64_t messages_received_ = 0;
  std::uint64_t messages_sent_ = 0;
};

}  // namespace bcl
