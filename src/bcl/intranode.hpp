// Intra-node communication over shared memory (section 4.2).
//
// Each ordered pair of ports gets a one-direction pipe: a ring of
// fixed-size slots in a kernel-created SHM segment.  The sender memcpys
// message chunks into ring slots; a receiver-side pump copies them out to
// where the destination port's rule (Port::land) puts them.  With more
// than one slot the two copies pipeline, which is the paper's "pipeline
// message passing technique" for hiding the extra copy.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "bcl/config.hpp"
#include "bcl/port.hpp"
#include "bcl/types.hpp"
#include "osk/kernel.hpp"
#include "sim/engine.hpp"
#include "sim/metrics.hpp"
#include "sim/queue.hpp"

namespace bcl {

class IntraNode {
 public:
  // The node<N>.shm.* series come from the path's collector.  The path
  // records no spans, so it takes no trace.
  IntraNode(sim::Engine& eng, osk::Kernel& kernel, const CostConfig& cfg,
            sim::MetricRegistry& metrics);

  void register_port(Port* port);
  void unregister_port(std::uint32_t port_no);

  // User-level send; no kernel trap on this path.
  sim::Task<Result<std::uint64_t>> send(Port& src_port, PortId dst,
                                        ChannelRef ch, osk::VirtAddr vaddr,
                                        std::size_t len,
                                        std::uint64_t rma_offset = 0);

  // Intra-node RMA read, in two steps.  rma_source judges the window at
  // once: the pages of [offset, offset + len) in port dst's open channel
  // `channel`, or why not (kBadTarget when dst has no port here).  After
  // the reader posts `reply_channel`, rma_read delivers those pages'
  // bytes to it as a message from dst.
  Landing rma_source(PortId dst, std::uint16_t channel, std::uint64_t offset,
                     std::size_t len);
  sim::Task<Result<std::uint64_t>> rma_read(
      Port& reader, PortId dst, std::uint16_t reply_channel,
      const std::vector<hw::PhysSegment>& from, std::size_t len);

 private:
  // One slot's worth of a message on its way through a pipe.
  struct Chunk {
    Piece piece;
    std::uint32_t dst_port = 0;
    std::uint32_t count = 1;  // the message's chunks
    int ring_slot = 0;        // where the bytes wait in the pipe's segment
  };

  // One direction of a port pair ("each pair of processes has two queues").
  struct Pipe {
    osk::ShmSegment seg{};
    std::unique_ptr<sim::Channel<int>> free_slots;
    std::unique_ptr<sim::Channel<Chunk>> full_slots;
  };

  Pipe& pipe_for(std::uint32_t src_port, std::uint32_t dst_port);
  sim::Task<void> receiver(Pipe& pipe);
  // Hands piece `p` of a message of `count` pieces to `port`'s receive
  // rule, copies `bytes` to where it lands on the port's CPU, and
  // completes the message after its last piece.
  sim::Task<BclErr> deliver(Port& port, const Piece& p, std::uint32_t count,
                            std::span<const std::byte> bytes);
  sim::Task<void> copy_in(osk::Process& proc, hw::PhysAddr dst,
                          osk::VirtAddr src_vaddr, std::size_t len);
  sim::Time copy_cost(std::size_t len) const;

  sim::Engine& eng_;
  osk::Kernel& kernel_;
  const CostConfig& cfg_;
  const std::string prefix_;  // "node<N>.shm."
  std::map<std::uint32_t, Port*> ports_;
  std::map<std::uint64_t, std::unique_ptr<Pipe>> pipes_;
  std::uint64_t next_msg_id_ = (1ull << 62);
  std::uint64_t messages_ = 0;
  std::uint64_t chunks_ = 0;
  // The ports' refusals on this path, by ChanKind (system, normal, open).
  std::array<std::uint64_t, 3> refused_{};
};

}  // namespace bcl
