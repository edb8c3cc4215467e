// Per-channel receive-side state.  Logically this state lives partly in NIC
// SRAM (so the MCP can match incoming packets without host help) and partly
// in pinned user memory (the buffers themselves).  Port owns it and is its
// only writer (see Port::land).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "bcl/types.hpp"
#include "hw/memory.hpp"
#include "osk/process.hpp"

namespace bcl {

// Slices a scatter/gather list to the physical range [off, off+len).
std::vector<hw::PhysSegment> slice_segments(
    const std::vector<hw::PhysSegment>& segs, std::uint64_t off,
    std::size_t len);

// A message whose first piece has landed, identified by source and id.
struct Assembly {
  PortId src{};
  std::uint64_t msg_id = 0;
  std::uint32_t next = 0;   // the piece expected next; count once all landed
  std::uint32_t count = 0;  // the message's pieces
  int slot = -1;            // system channel: the slot its first piece took
};

// System channel: a pool of fixed-size slots the MCP fills as messages
// arrive; the incoming message is discarded when no slot is free.  The free
// list is a stack: the MCP takes the most recently freed slot, so a port
// that keeps few messages in flight touches only that many of the pool's
// pages.
struct SystemChannelState {
  std::size_t slot_bytes = 0;
  osk::UserBuffer pool{};                           // backing user memory
  std::vector<std::vector<hw::PhysSegment>> slots;  // per-slot phys layout
  std::vector<int> free_slots;  // NIC-visible free stack (top = back)
  // Messages of more than one piece between their first and last piece,
  // each holding its slot (at most one per slot).
  std::vector<Assembly> assembling;
};

// Normal channel: rendezvous semantics; exactly one posted buffer at a time.
struct NormalChannelState {
  bool posted = false;
  osk::UserBuffer buf{};
  std::vector<hw::PhysSegment> segs;  // pinned at post time
  // The message whose first piece took this posting.
  std::optional<Assembly> receiving;
};

// Open channel: an RMA window other processes may read/write.
struct OpenChannelState {
  bool bound = false;
  osk::UserBuffer buf{};
  std::vector<hw::PhysSegment> segs;  // pinned at bind time
};

}  // namespace bcl
