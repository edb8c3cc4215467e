// Kernel-level networking baseline (TCP/UDP-style), the first column of
// Table 1: OS traps on BOTH send and receive, interrupt-driven reception,
// and a data copy on each side of the wire.
//
// Send: trap -> socket layer -> copy user->kernel -> per-packet protocol
// output processing + checksum -> driver PIO -> NIC DMA -> wire.
// Receive: NIC DMA to kernel ring -> IRQ -> softirq protocol input
// processing + checksum -> socket queue -> recv() trap copies to user.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "baselines/testbed.hpp"
#include "hw/packet.hpp"
#include "osk/process.hpp"
#include "sim/queue.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace baseline {

struct KlConfig {
  sim::Time socket_layer = sim::Time::us(3.5);    // per syscall
  sim::Time proto_tx_per_pkt = sim::Time::us(10.0);
  sim::Time proto_rx_per_pkt = sim::Time::us(14.0);
  double checksum_bw = 220e6;                     // software checksum
  sim::Time wakeup = sim::Time::us(5.0);          // blocked-reader wakeup
  sim::Time nic_tx_proc = sim::Time::us(1.0);
  sim::Time nic_rx_proc = sim::Time::us(1.0);
  std::size_t mtu = 4096;
  int pio_desc_words = 4;
};

class KlSocket;

class KlNet {
 public:
  static constexpr std::uint16_t kProto = 2;

  KlNet(Testbed& tb, const KlConfig& cfg = {});
  ~KlNet();
  KlNet(const KlNet&) = delete;
  KlNet& operator=(const KlNet&) = delete;

  // Opens a socket on `node` bound to the next free port there.
  KlSocket& open(hw::NodeId node);

  const KlConfig& config() const { return cfg_; }
  Testbed& testbed() { return tb_; }

  std::uint64_t interrupts(hw::NodeId node) const;

 private:
  friend class KlSocket;
  struct NodeState {
    std::unique_ptr<sim::Channel<hw::Packet>> ring;  // kernel rx ring
    std::map<std::uint32_t, KlSocket*> sockets;
    std::uint32_t next_port = 0;
  };

  sim::Task<void> nic_rx_fw(hw::NodeId node);
  sim::Task<void> irq_handler(hw::NodeId node);

  Testbed& tb_;
  KlConfig cfg_;
  std::vector<NodeState> per_node_;
  std::vector<std::unique_ptr<KlSocket>> sockets_;
  std::uint64_t next_msg_id_ = 1;
};

// A connectionless message socket (think UDP with fragmentation, which is
// all the comparison needs).
class KlSocket {
 public:
  KlSocket(KlNet& net, osk::Kernel& kernel, osk::Process& proc,
           hw::NodeId node, std::uint32_t port);

  hw::NodeId node() const { return node_; }
  std::uint32_t port() const { return port_; }
  osk::Process& process() { return proc_; }

  // Blocking send of buf[0, len) to (dst_node, dst_port).
  sim::Task<void> send(hw::NodeId dst_node, std::uint32_t dst_port,
                       const osk::UserBuffer& buf, std::size_t len);
  // Blocking receive of one whole message into `buf`; returns its length.
  sim::Task<std::size_t> recv(const osk::UserBuffer& buf);

 private:
  friend class KlNet;
  void deliver_fragment(hw::Packet&& p);  // called from the softirq

  KlNet& net_;
  osk::Kernel& kernel_;
  osk::Process& proc_;
  hw::NodeId node_;
  std::uint32_t port_;
  sim::Channel<std::vector<std::byte>> messages_;
  std::map<std::uint64_t, std::pair<std::vector<std::byte>, std::uint32_t>>
      partial_;  // msg_id -> (bytes, frags seen)
};

}  // namespace baseline
