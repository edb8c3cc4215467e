// End-to-end credit flow control (MPICH2-over-InfiniBand style, Liu et
// al.): both halves of the loop, one FlowController per NIC, in NIC SRAM.
//
// Sender half: one cumulative pair per destination port.  `limit` is the
// absolute number of messages the receiver has ever allowed toward that
// port; `used` is the absolute number this NIC has launched.  Both advance
// monotonically (RFC 1982 serial order), so a grant carried on any later
// packet supersedes every lost one — the scheme needs no reliable delivery
// of its own control traffic.  The MCP mirrors the available count into a
// host-memory credit word the kernel reads on the send trap, and into a
// user-mapped word the library polls while waiting (no traps, matching the
// paper's receive-path rule).
//
// Receiver half: one ledger per (local port, sending node), the cumulative
// allowance granted against the cumulative deliveries into the port's
// system pool.  The MCP only carries the loop's packets: it hands each
// inbound packet to take_grant and each outbound ack, NACK, SYN-ACK and
// data packet to attach_grant, and launches the standalone updates that
// doorbell() and on_probe() ask for.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bcl/config.hpp"
#include "bcl/recorder.hpp"
#include "bcl/types.hpp"
#include "hw/packet.hpp"
#include "sim/engine.hpp"
#include "sim/metrics.hpp"
#include "sim/trace.hpp"

namespace bcl {

class FlowController {
 public:
  // Free slots in local port `port_no`'s system pool, or nothing when the
  // NIC has no such port.
  using FreeSlots =
      std::function<std::optional<std::uint32_t>(std::uint32_t port_no)>;

  // Credit levels go to `trace` as the "<nic>.fc" counter track, granted
  // credits to `recorder`; the <nic>.fc.* series register in `metrics`.
  FlowController(sim::Engine& eng, const CostConfig& cfg,
                 const std::string& nic_name, sim::Trace& trace,
                 sim::MetricRegistry& metrics, FlightRecorder& recorder,
                 FreeSlots free_slots);

  // The grant both ends start from: the shared config caps it by the
  // receiver's pool size, standing in for the channel-setup handshake
  // (every pool in this cluster is cfg.sys_slots deep).
  std::uint32_t initial() const;

  // Send trap: consume one credit toward dst, or refuse (kWouldBlock).
  bool try_consume(const PortId& dst);
  // A consumed credit whose send failed later (full request ring) goes back.
  void refund(const PortId& dst);
  // A cumulative grant arrived; serial-monotone, so stale and duplicated
  // grants are no-ops.
  void on_grant(const PortId& dst, std::uint32_t limit);
  // The grant aboard inbound packet `p`, if it carries one.
  void take_grant(const hw::Packet& p);
  // The user-mapped credit word the library polls while blocked.
  std::uint32_t available(const PortId& dst);

  // A message from `src` took a slot of `port_no`'s system pool.
  void on_delivered(std::uint32_t port_no, hw::NodeId src) {
    if (cfg_.flow_control) ++ledger(port_no, src).delivered;
  }
  // Whether a first piece that finds the pool full is answered
  // receiver-not-ready, for the sender to retry, instead of discarded.
  // Credits stop one sender from overrunning a pool, but several senders
  // or the shared-memory path can still run it dry; without the reliable
  // transport nothing would retry.
  bool defer_when_full() const { return cfg_.flow_control && cfg_.reliable; }
  // Tops up the first ledger toward p.dst_node whose port is still there
  // and puts its grant aboard: one grant per packet, other ports' ledgers
  // ride later packets or standalone updates.
  void attach_grant(hw::Packet& p);
  // A slot of `port_no` was released: tops up each of its ledgers and
  // returns the senders owed a standalone update.
  std::vector<hw::NodeId> doorbell(std::uint32_t port_no);
  // A credit probe from `src` for `port_no`: tops its ledger up; true when
  // a standalone update answers it.
  bool on_probe(std::uint32_t port_no, hw::NodeId src);
  // Puts ledger (port_no, p.dst_node)'s grant aboard standalone update
  // `p`; false when a crash, a peer restart or a fresh handshake erased
  // that ledger while the update waited.
  bool fill_update(hw::Packet& p, std::uint32_t port_no) const;

  // `node` restarted: both halves toward it start over, paired, so the
  // serial-monotone grant comparison never wedges on pre-crash counts the
  // new incarnation never granted against.
  void reset_node(hw::NodeId node);
  // A fresh handshake from `node`: only the receiver half starts over (the
  // sender's half reset at its own teardown).
  void reset_receiver(hw::NodeId node);
  // Local MCP reboot: both tables are SRAM state and are lost wholesale.
  void reset_all() {
    dsts_.clear();
    ledgers_.clear();
  }

  // Both tables, for diagnostics: the sender's pair per destination port
  // and the receiver's ledger per (local port, sending node).
  struct Dst {
    std::uint32_t limit = 0;  // cumulative allowance from the receiver
    std::uint32_t used = 0;   // cumulative launches from this NIC
    bool stalled = false;
    sim::Time stall_start = sim::Time::zero();
  };
  struct Ledger {
    std::uint32_t limit = 0;      // cumulative allowance granted
    std::uint32_t delivered = 0;  // cumulative deliveries into the pool
  };
  using Senders = std::map<PortId, Dst>;
  using Ledgers = std::map<std::pair<std::uint32_t, hw::NodeId>, Ledger>;
  const Senders& senders() const { return dsts_; }
  const Ledgers& ledgers() const { return ledgers_; }

  std::uint64_t stalls() const { return stalls_; }
  std::uint64_t grants_rx() const { return grants_rx_; }
  std::uint64_t credits_consumed() const { return consumed_; }

 private:
  Dst& state(const PortId& dst);
  void note_level(const PortId& dst, const Dst& d);
  Ledger& ledger(std::uint32_t port_no, hw::NodeId src);
  // Raises `l` toward min(initial, free); returns the credits granted.
  std::uint32_t top_up(Ledger& l, std::uint32_t free);
  void collect(sim::MetricSink& out) const;

  sim::Engine& eng_;
  const CostConfig& cfg_;
  sim::Trace& trace_;
  FlightRecorder& recorder_;
  FreeSlots free_slots_;
  const std::string track_;  // "<nic>.fc": the credit-level counter track
  sim::Summary& credit_rtt_;  // stall duration, us
  Senders dsts_;
  Ledgers ledgers_;
  std::map<std::uint32_t, std::size_t> doorbell_next_;  // per-port scan start
  std::uint64_t stalls_ = 0;
  std::uint64_t grants_rx_ = 0;
  std::uint64_t consumed_ = 0;
};

}  // namespace bcl
