// BCL kernel module.
//
// All NIC access goes through here (section 3): the send ioctl traps into
// the kernel, runs the security checks, walks the pin-down page table for
// virtual-to-physical translation, and fills the send-request descriptor
// into NIC memory with PIO.  Channel setup ioctls pin receive buffers and
// register them with the MCP.
#pragma once

#include <cstdint>
#include <optional>

#include "bcl/config.hpp"
#include "bcl/mcp.hpp"
#include "bcl/port.hpp"
#include "bcl/types.hpp"
#include "osk/kernel.hpp"
#include "sim/metrics.hpp"
#include "sim/task.hpp"
#include "sim/trace.hpp"

namespace bcl {

struct SendArgs {
  PortId dst{};
  ChannelRef channel{};
  osk::VirtAddr vaddr = 0;  // source buffer (ignored for RMA read)
  std::size_t len = 0;
  SendOp op = SendOp::kSend;
  std::uint64_t rma_offset = 0;
  std::uint16_t reply_channel = 0;
  // Nonblocking admission: a full request ring returns kNoResources
  // instead of parking the caller inside the (already exited) trap.
  bool nonblock = false;
};

// ioctl(BCL_REGISTER_GROUP): join a NIC collective group.  `members` lists
// one port per node (index = member rank); `result_buf` is where broadcast
// payloads and final reductions land, pinned for the group's lifetime.
struct RegisterGroupArgs {
  std::uint16_t group_id = 0;
  std::vector<PortId> members;
  std::uint16_t my_index = 0;
  osk::UserBuffer result_buf{};
};

// ioctl(BCL_COLL_POST): initiate this member's part of collective `seq`.
struct CollPostArgs {
  std::uint16_t group_id = 0;
  coll::CollKind kind = coll::CollKind::kBarrier;
  std::uint16_t root = 0;  // member index
  coll::CollOp op = coll::CollOp::kSum;
  std::uint64_t seq = 0;
  osk::VirtAddr vaddr = 0;  // contribution / broadcast source
  std::size_t len = 0;
};

class Driver {
 public:
  // Stage spans go to `trace` as node<N>.kernel; the node<N>.driver.*
  // series go to `metrics` (sends, PIO words and bytes as owned counters,
  // the rest through the driver's collector).
  Driver(osk::Kernel& kernel, Mcp& mcp, const CostConfig& cfg,
         std::uint32_t cluster_nodes, sim::Trace& trace,
         sim::MetricRegistry& metrics);

  // -- the hot path: ioctl(BCL_SEND) ------------------------------------------
  // Trap + checks + translate/pin + PIO descriptor fill.  Returns the
  // message id, or an error without touching the NIC.
  sim::Task<Result<std::uint64_t>> ioctl_send(osk::Process& proc, Port& port,
                                              const SendArgs& args);

  // -- setup ioctls (trap-accounted, used on slow paths) -------------------------
  sim::Task<BclErr> ioctl_post_recv(osk::Process& proc, Port& port,
                                    std::uint16_t channel,
                                    const osk::UserBuffer& buf);
  sim::Task<BclErr> ioctl_bind_open(osk::Process& proc, Port& port,
                                    std::uint16_t channel,
                                    const osk::UserBuffer& buf);

  // -- NIC collectives -----------------------------------------------------------
  // Validates the membership (caller identity, one member per node, every
  // target in range), pins the result buffer, and PIOs the group descriptor
  // (tree parent/children, combine op, sequence origin) into NIC SRAM —
  // the semi-user-level model applies to collectives unchanged.
  sim::Task<BclErr> ioctl_register_group(osk::Process& proc, Port& port,
                                         const RegisterGroupArgs& args);
  // Trap-accounted collective initiation; after this returns, the whole
  // operation runs on the NICs until the completion event is polled.
  sim::Task<Result<std::uint64_t>> ioctl_coll_post(osk::Process& proc,
                                                   Port& port,
                                                   const CollPostArgs& args);

  // -- crash recovery ------------------------------------------------------------
  // ioctl(BCL_RESET_NIC): host-driven MCP reboot after a fail-stop.  PIOs
  // the control-program image back into NIC SRAM (modelled as a fixed
  // reload window) and restarts the MCP under a bumped incarnation.
  // Port/channel registrations are kernel-resident and re-pushed as part
  // of the reload, so existing ports keep working; collective groups are
  // NIC-resident and must re-register.  No-op on a healthy NIC.
  sim::Task<void> reset_nic();

  // Failed ioctls of every kind (send, post_recv, bind_open,
  // register_group, coll_post); node<N>.driver.security_rejects reads it.
  // A send refused for credits (a credit block) or by a full request ring
  // after its trap is not a rejection.
  std::uint64_t security_rejects() const { return rejects_; }
  std::uint64_t credit_blocks() const { return credit_blocks_; }
  // Pages pinned by sends whose descriptors were never committed to the
  // NIC: every late error path must release its pins, so this is zero
  // whenever no send is mid-trap (asserted at teardown by the tests).
  std::uint64_t leaked_pages() const { return pinned_uncommitted_; }

  osk::Kernel& kernel() { return kernel_; }

 private:
  BclErr validate_send(osk::Process& proc, Port& port, const SendArgs& args);
  static std::uint64_t page_span(osk::VirtAddr vaddr, std::size_t len);
  // Translates and pins a trap's buffer.  A full pin-down table yields
  // nullopt, which every ioctl fails with kNoResources (its error path
  // co_awaits the trap exit, which a handler may not).
  sim::Task<std::optional<std::vector<hw::PhysSegment>>> try_pin(
      osk::Process& proc, osk::VirtAddr vaddr, std::size_t len);
  // Leaves the trap with `err`.  A failed ioctl counts its rejection here
  // and nowhere else.
  sim::Task<BclErr> leave(osk::Process& proc, BclErr err);
  // Error path after translate_and_pin: drop the references this send
  // added and settle the uncommitted-pages account.
  void release_pins(osk::Process& proc, const SendArgs& args,
                    std::uint64_t pages);

  osk::Kernel& kernel_;
  Mcp& mcp_;
  const CostConfig& cfg_;
  std::uint32_t cluster_nodes_;
  sim::Trace& trace_;
  const std::string node_;  // "node<N>.": the prefix of the driver's series
  const std::string comp_;  // "node<N>.kernel": the trace component
  std::uint64_t next_msg_id_ = 1;
  std::uint64_t rejects_ = 0;
  std::uint64_t credit_blocks_ = 0;
  std::uint64_t pinned_uncommitted_ = 0;
  // Counts only the registry reads, resolved once at construction.
  sim::Counter& m_sends_;
  sim::Counter& m_pio_words_;
  sim::Counter& m_send_bytes_;
};

}  // namespace bcl
