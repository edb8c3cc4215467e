// Per-channel receive-side state.  Logically this state lives partly in NIC
// SRAM (so the MCP can match incoming packets without host help) and partly
// in pinned user memory (the buffers themselves).
#pragma once

#include <cstdint>
#include <vector>

#include "hw/memory.hpp"
#include "osk/process.hpp"
#include "sim/fifo.hpp"

namespace bcl {

// System channel: a FIFO pool of fixed-size slots, filled by the MCP in
// arrival order; the incoming message is discarded when no slot is free.
struct SystemChannelState {
  std::size_t slot_bytes = 0;
  osk::UserBuffer pool{};                           // backing user memory
  std::vector<std::vector<hw::PhysSegment>> slots;  // per-slot phys layout
  sim::Fifo<int> free_slots;                        // NIC-visible free list

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
