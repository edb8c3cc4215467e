// Sender-side credit state for the end-to-end flow control the MCP runs
// (MPICH2-over-InfiniBand style, Liu et al.): one cumulative credit pair
// per destination port.
//
// `limit` is the absolute number of messages the receiver has ever allowed
// toward that port; `used` is the absolute number this NIC has launched.
// Both advance monotonically (RFC 1982 serial order), so a grant carried on
// any later packet supersedes every lost one — the scheme needs no reliable
// delivery of its own control traffic.
//
// The table lives in NIC SRAM; the MCP mirrors the available count into a
// host-memory credit word the kernel reads on the send trap, and into a
// user-mapped word the library polls while waiting (no traps, matching the
// paper's receive-path rule).
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "bcl/config.hpp"
#include "bcl/types.hpp"
#include "sim/engine.hpp"
#include "sim/metrics.hpp"
#include "sim/trace.hpp"

namespace bcl {

class FlowController {
 public:
  // Credit levels go to `trace` as the "<nic>.fc" counter track, stall
  // durations to the <nic>.fc.credit_rtt_us summary in `metrics`.
  FlowController(sim::Engine& eng, const CostConfig& cfg,
                 const std::string& nic_name, sim::Trace& trace,
                 sim::MetricRegistry& metrics);

  // The per-destination grant both ends start from: the shared config caps
  // it by the receiver's pool size, standing in for the channel-setup
  // handshake (every pool in this cluster is cfg.sys_slots deep).
  std::uint32_t initial() const;

  // Send trap: consume one credit toward dst, or refuse (kWouldBlock).
  bool try_consume(const PortId& dst);
  // A consumed credit whose send failed later (full request ring) goes back.
  void refund(const PortId& dst);
  // A cumulative grant arrived (piggybacked or standalone); serial-monotone,
  // so stale and duplicated grants are no-ops.
  void on_grant(const PortId& dst, std::uint32_t limit);

  // The user-mapped credit word the library polls while blocked.
  std::uint32_t available(const PortId& dst);

  // Crash–restart: drop every ledger toward `node` (all its ports).  The
  // next send lazily re-creates them at the fresh initial() allowance,
  // matching the receiver's rebuilt rx ledgers — the paired reset that
  // keeps the serial-monotone grant comparison from wedging on pre-crash
  // `used` counts the new incarnation never granted against.
  void reset_node(hw::NodeId node);
  // Local MCP reboot: the whole table is SRAM state and is lost wholesale.
  void reset_all() { dsts_.clear(); }

  // Diagnostic snapshot of the cumulative pair per destination.
  struct DstSnapshot {
    PortId dst{};
    std::uint32_t limit = 0;
    std::uint32_t used = 0;
  };
  std::vector<DstSnapshot> snapshot() const {
    std::vector<DstSnapshot> out;
    for (const auto& [dst, d] : dsts_) out.push_back({dst, d.limit, d.used});
    return out;
  }

  std::uint64_t stalls() const { return stalls_; }
  std::uint64_t grants_rx() const { return grants_rx_; }
  std::uint64_t credits_consumed() const { return consumed_; }
  // Sum of available credits across destinations (gauge fodder).
  double total_available() const;

 private:
  struct Dst {
    std::uint32_t limit = 0;  // cumulative allowance from the receiver
    std::uint32_t used = 0;   // cumulative launches from this NIC
    bool stalled = false;
    sim::Time stall_start = sim::Time::zero();
  };

  Dst& state(const PortId& dst);
  void note_level(const PortId& dst, const Dst& d);

  sim::Engine& eng_;
  const CostConfig& cfg_;
  sim::Trace& trace_;
  const std::string track_;  // "<nic>.fc": the credit-level counter track
  sim::Summary& credit_rtt_;  // stall duration, us
  std::map<PortId, Dst> dsts_;
  std::uint64_t stalls_ = 0;
  std::uint64_t grants_rx_ = 0;
  std::uint64_t consumed_ = 0;
};

}  // namespace bcl
