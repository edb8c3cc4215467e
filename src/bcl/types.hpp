// Public BCL types: port/channel identifiers, events, error codes,
// and the send descriptor the kernel module posts to the NIC.
#pragma once

#include <cstdint>
#include <vector>

#include "hw/memory.hpp"
#include "hw/packet.hpp"
#include "sim/time.hpp"

namespace bcl {

// The pair (node, port) uniquely identifies a process (section 2.2).
struct PortId {
  hw::NodeId node = 0;
  std::uint32_t port = 0;
  auto operator<=>(const PortId&) const = default;
};

// Trace flow-arrow id for a message.  The wire msg_id is a per-sender
// sequence, so two nodes' messages can share one; qualifying with the
// source node keeps Perfetto from cross-linking their arrows.
constexpr std::uint64_t flow_key(hw::NodeId src, std::uint64_t msg_id) {
  return (static_cast<std::uint64_t>(src) + 1) << 48 | msg_id;
}

enum class ChanKind : std::uint8_t {
  kSystem = 0,  // small messages, FIFO pool, drop on overflow
  kNormal = 1,  // rendezvous: receiver posts a buffer first
  kOpen = 2,    // RMA window
};

struct ChannelRef {
  ChanKind kind = ChanKind::kSystem;
  std::uint16_t index = 0;

  std::uint32_t encode() const {
    return (static_cast<std::uint32_t>(kind) << 16) | index;
  }
  static ChannelRef decode(std::uint32_t v) {
    return {static_cast<ChanKind>((v >> 16) & 0xff),
            static_cast<std::uint16_t>(v & 0xffff)};
  }
  auto operator<=>(const ChannelRef&) const = default;
};

enum class BclErr : std::uint8_t {
  kOk = 0,
  kBadPid,       // caller identity mismatch
  kBadBuffer,    // unmapped / foreign buffer
  kBadTarget,    // node, port, or channel out of range
  kTooBig,       // message exceeds a system-channel slot
  kNotPosted,    // normal channel has no posted receive
  kNotBound,     // open channel has no bound window
  kNoResources,  // queue/pin-table exhaustion
  kPeerUnreachable,  // reliability retry budget exhausted (fail-stop peer)
  kWouldBlock,   // no send credits toward the destination right now
  // The peer's MCP (or our own) crashed and rebooted while the operation
  // was in flight.  The send fails exactly once with this code — it is
  // never silently lost and never duplicated into the peer's new
  // incarnation — and a retry after the automatic session
  // re-establishment is expected to succeed.
  kPeerRestarted,
  // Every redundant fabric path to the peer is quarantined: the retry
  // budget died on one path after failover had already struck out the
  // others, so this is a fabric partition, not a dead peer.  The path
  // prober keeps walking the quarantined paths; a healed path rescinds
  // the verdict the same way a revival probe rescinds kPeerUnreachable.
  kPartitioned,
};

const char* to_string(BclErr e);

// Minimal expected-like return for ioctls: value is valid iff err == kOk.
template <typename T>
struct Result {
  T value{};
  BclErr err = BclErr::kOk;
  bool ok() const { return err == BclErr::kOk; }
};

// Completion events (DMA'd by the MCP into user-space completion queues).
struct SendEvent {
  std::uint64_t msg_id = 0;
  PortId dst{};
  bool ok = true;
  BclErr err = BclErr::kOk;  // why ok is false (kPeerUnreachable, ...)
};

struct RecvEvent {
  std::uint64_t msg_id = 0;
  PortId src{};
  ChannelRef channel{};
  std::size_t len = 0;
  int sys_slot = -1;  // system-channel pool slot holding the payload
  // kOk, or why a normal channel completed without data: kNotBound when
  // the target of an RMA read refused it.
  BclErr err = BclErr::kOk;
};

// Operation requested of the NIC.  kColl marks collective-engine packets:
// the low byte of Packet::op_flags carries the SendOp and the high byte a
// coll::CollWire opcode, so the MCP can demultiplex before touching the
// channel field (which collective packets reuse for the group id).  On
// every other packet the high byte is the sender's verdict
// (SendDescriptor::verdict), kOk except on a refused RMA read's reply.
// kFcUpdate/kFcProbe are MCP-internal flow-control packets: session-less
// (no sequence number), idempotent carriers of a cumulative credit grant
// (update) or a request for one (probe).  kSyn/kSynAck carry the
// crash–restart re-establishment handshake (seq = the sender's initial
// sequence, msg_id = a handshake nonce for idempotent retries);
// kProbe/kProbeAck are the revival keepalives sent toward unreachable
// peers — all four are session-less control traffic like the fc packets.
enum class SendOp : std::uint8_t {
  kSend = 0,
  kRmaWrite,
  kRmaRead,
  kColl,
  kFcUpdate,
  kFcProbe,
  kSyn,
  kSynAck,
  kProbe,
  kProbeAck,
};

// What the kernel module writes (via PIO) into the NIC request queue.
struct SendDescriptor {
  std::uint64_t msg_id = 0;
  PortId src{};
  PortId dst{};
  ChannelRef channel{};
  SendOp op = SendOp::kSend;
  std::vector<hw::PhysSegment> segs;  // pinned source pages (empty for reads)
  std::uint64_t total_len = 0;
  std::uint64_t rma_offset = 0;       // target window offset for RMA
  std::uint16_t reply_channel = 0;    // requester's normal channel for reads
  bool notify_sender = true;          // false for MCP-internal sends
  // A refused RMA read's reply carries no data, only this verdict, which
  // completes the requester's reply channel.
  BclErr verdict = BclErr::kOk;
  // Extra LANai work attached by user-level front ends (address-translation
  // cache lookups happen on the NIC there, in the kernel here).
  sim::Time extra_nic_cost = sim::Time::zero();

  // Descriptor size on the wire to the NIC, in 32-bit PIO words.
  int pio_words(int base_words, int words_per_seg) const {
    return base_words + words_per_seg * static_cast<int>(segs.size());
  }
};

}  // namespace bcl
