// The BCL user-level library: the public API application code links
// against.  The APIs "are only the covers of some ioctl() syscall
// subcommands provided by the BCL kernel module" on the send side
// (section 4.1), while completion polling runs entirely in user space.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "bcl/driver.hpp"
#include "bcl/intranode.hpp"
#include "bcl/port.hpp"
#include "sim/trace.hpp"

namespace bcl {

class Endpoint {
 public:
  // Spans and flow ends go to `trace` as node<N>.lib; the
  // node<N>.lib.port<P>.* series register in `metrics`.
  Endpoint(sim::Engine& eng, const CostConfig& cfg, Driver& driver,
           Mcp& mcp, IntraNode& intra, osk::Process& proc,
           std::unique_ptr<Port> port, sim::Trace& trace,
           sim::MetricRegistry& metrics);
  ~Endpoint();
  Endpoint(const Endpoint&) = delete;
  Endpoint& operator=(const Endpoint&) = delete;

  PortId id() const { return port_->id(); }
  Port& port() { return *port_; }
  osk::Process& process() { return proc_; }
  Driver& driver() { return driver_; }
  Mcp& mcp() { return mcp_; }
  const CostConfig& cost() const { return cfg_; }

  // -- send ----------------------------------------------------------------------
  // Sends buf[off, off+len) to (dst, channel).  Same-node destinations take
  // the shared-memory path automatically.  Out of send credits toward dst,
  // the call blocks (polling the user-mapped credit word, no traps) until
  // credits return; send_deadline bounds that wait.
  //
  // Crash–restart semantics: if either end's MCP fail-stops while the
  // message is in flight, the send completes exactly once with
  // kPeerRestarted (through wait_send) — never silently lost, never
  // duplicated across incarnations.  Unlike kPeerUnreachable, the
  // condition is transient: once the peer reboots and the sessions
  // re-establish (automatic, incarnation-fenced), retrying the same send
  // is expected to succeed.
  sim::Task<Result<std::uint64_t>> send(PortId dst, ChannelRef ch,
                                        const osk::UserBuffer& buf,
                                        std::size_t len, std::size_t off = 0);
  // Same, with an explicit per-call credit-wait deadline (zero = forever).
  sim::Task<Result<std::uint64_t>> send_deadline(PortId dst, ChannelRef ch,
                                                 const osk::UserBuffer& buf,
                                                 std::size_t len,
                                                 sim::Time deadline,
                                                 std::size_t off = 0);
  // Nonblocking: kWouldBlock when no credits are available right now,
  // kNoResources when the request ring is full.  Never parks the caller.
  sim::Task<Result<std::uint64_t>> try_send(PortId dst, ChannelRef ch,
                                            const osk::UserBuffer& buf,
                                            std::size_t len,
                                            std::size_t off = 0);
  // Convenience: system channel.
  sim::Task<Result<std::uint64_t>> send_system(PortId dst,
                                               const osk::UserBuffer& buf,
                                               std::size_t len) {
    return send(dst, ChannelRef{ChanKind::kSystem, 0}, buf, len);
  }

  // Blocks (polling the send event queue) until a send completes.  A
  // completion's `err` is kOk, kPeerUnreachable (retry budget spent — the
  // path is declared dead), or kPeerRestarted (an MCP fail-stopped mid
  // flight — transient, retry after re-establishment).
  sim::Task<SendEvent> wait_send();

  // -- receive -------------------------------------------------------------------
  // Posts a buffer on a normal channel (required before the matching send).
  sim::Task<BclErr> post_recv(std::uint16_t channel,
                              const osk::UserBuffer& buf);
  // Blocks (polling the receive event queue) until any message arrives.
  sim::Task<RecvEvent> wait_recv();
  // One non-blocking poll of the receive event queue.
  sim::Task<std::optional<RecvEvent>> try_recv();
  // Copies a system-channel message out of its pool slot and frees the slot.
  sim::Task<std::vector<std::byte>> copy_out_system(const RecvEvent& ev);

  // -- RMA (open channels) ----------------------------------------------------------
  sim::Task<BclErr> bind_open(std::uint16_t channel,
                              const osk::UserBuffer& buf);
  sim::Task<Result<std::uint64_t>> rma_write(PortId dst,
                                             std::uint16_t dst_channel,
                                             std::uint64_t dst_offset,
                                             const osk::UserBuffer& src,
                                             std::size_t len);
  // Reads len bytes from the target window into `into`; completion arrives
  // as a receive event on `reply_channel` (post_recv(into) is done here).
  sim::Task<Result<std::uint64_t>> rma_read(PortId dst,
                                            std::uint16_t dst_channel,
                                            std::uint64_t offset,
                                            std::uint16_t reply_channel,
                                            const osk::UserBuffer& into,
                                            std::size_t len);

 private:
  bool local(PortId dst) const { return dst.node == port_->id().node; }
  sim::Task<Result<std::uint64_t>> send_impl(PortId dst, ChannelRef ch,
                                             const osk::UserBuffer& buf,
                                             std::size_t len, std::size_t off,
                                             sim::Time deadline,
                                             bool nonblock);

  sim::Engine& eng_;
  const CostConfig& cfg_;
  Driver& driver_;
  Mcp& mcp_;
  IntraNode& intra_;
  osk::Process& proc_;
  std::unique_ptr<Port> port_;
  sim::Trace& trace_;
  const std::string comp_;  // "node<N>.lib": the trace component
  // Library-level metric handles, resolved once at construction.
  sim::Counter& m_sends_;
  sim::Counter& m_recvs_;
  sim::Counter& m_recv_polls_;
  sim::Counter& m_recv_bytes_;
};

}  // namespace bcl
