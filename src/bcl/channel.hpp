// Per-channel receive-side state.  Logically this state lives partly in NIC
// SRAM (so the MCP can match incoming packets without host help) and partly
// in pinned user memory (the buffers themselves).
#pragma once

#include <cstdint>
#include <vector>

#include "hw/memory.hpp"
#include "osk/process.hpp"

namespace bcl {

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

  bool configured() const { return slot_bytes != 0; }
};

// Normal channel: rendezvous semantics; exactly one posted buffer at a time.
struct NormalChannelState {
  bool posted = false;
  osk::UserBuffer buf{};
  std::vector<hw::PhysSegment> segs;  // pinned at post time
};

// Open channel: an RMA window other processes may read/write.
struct OpenChannelState {
  bool bound = false;
  osk::UserBuffer buf{};
  std::vector<hw::PhysSegment> segs;  // pinned at bind time

  // Physical sub-range [off, off+len) of the window, for RMA access.
  std::vector<hw::PhysSegment> slice(std::uint64_t off, std::size_t len) const;
};

}  // namespace bcl
