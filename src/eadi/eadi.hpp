// EADI-2: the middle-level communication device layer of Fig. 1.
//
// ADI-2-style device built on one BCL endpoint per process.  Small messages
// travel eagerly through the system channel behind a 32-byte envelope; a
// message to another node whose payload fits one system slot goes eager
// too, as a head (envelope and the slot's remaining bytes) plus a
// continuation carrying the rest.  Larger messages, and page-sized ones
// between processes of one node, use an RTS/CTS rendezvous that moves data
// in chunks over dynamically-assigned normal channels.  Tag/context/source
// matching with wildcards and an unexpected-message queue support the MPI
// and PVM implementations above it (which the paper reports in Table 3).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "bcl/bcl.hpp"

namespace eadi {

inline constexpr std::int32_t kAnyTag = -1;
inline constexpr hw::NodeId kAnyNode = 0xffffffff;
// Every system-channel message starts with this fixed-layout envelope.
inline constexpr std::size_t kEnvelopeBytes = 32;

struct DeviceConfig {
  // Per-call software overhead (request objects, queue management) —
  // calibrated against Table 3's MPI/PVM deltas over raw BCL.
  sim::Time call_overhead = sim::Time::us(1.30);
  sim::Time match_cost = sim::Time::us(1.00);
  std::size_t rendezvous_chunk = 64 * 1024;
  int staging_buffers = 8;
  double pack_bw = 850e6;  // envelope/eager packing memcpy
  sim::Time pack_setup = sim::Time::us(0.10);
  // How long an envelope send may wait for flow-control credits toward an
  // overloaded receiver before the device reports failure; zero blocks
  // until credits arrive (the default — MPI/PVM sends have no deadline
  // semantics of their own).
  sim::Time send_deadline = sim::Time::zero();
};

struct RecvResult {
  bcl::PortId src{};
  std::int32_t tag = 0;
  std::size_t len = 0;  // actual message length (may exceed buffer)
};

class Device {
 public:
  Device(sim::Engine& eng, bcl::Endpoint& ep,
         const DeviceConfig& cfg = {});
  ~Device();
  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  bcl::PortId id() const { return ep_.id(); }
  bcl::Endpoint& endpoint() { return ep_; }
  osk::Process& process() { return ep_.process(); }
  const DeviceConfig& config() const { return cfg_; }

  // Blocking send of buf[0, len) with (context, tag) addressing.  It
  // returns once buf may be reused: a rendezvous to another node waits for
  // its last chunk's send completion, since the NIC reads that chunk out of
  // buf by DMA after the trap returns.
  sim::Task<void> send(bcl::PortId dst, std::int32_t context,
                       std::int32_t tag, const osk::UserBuffer& buf,
                       std::size_t len);

  // Blocking receive into `buf`; src.node == kAnyNode matches any source,
  // tag == kAnyTag matches any tag.  Eager messages longer than the buffer
  // are truncated (result.len reports the full length).  A two-part eager
  // message matches on its head and completes when its continuation lands.
  sim::Task<RecvResult> recv(std::int32_t context, std::int32_t tag,
                             bcl::PortId src, const osk::UserBuffer& buf);

  // Non-consuming, non-blocking probe of the unexpected queue: does a
  // matching message (eager payload or rendezvous RTS) already wait here?
  sim::Task<std::optional<RecvResult>> probe(std::int32_t context,
                                             std::int32_t tag,
                                             bcl::PortId src);

  std::uint64_t unexpected_peak() const { return unexpected_peak_; }

  // Occupancy snapshot of the device's finite resources, for tests and
  // stall diagnosis (a hung collective usually shows up here as an
  // exhausted staging pool or channel list).
  struct DebugCounts {
    std::size_t staging_free = 0;
    std::size_t staging_in_flight = 0;  // awaiting send completion
    std::size_t free_channels = 0;
    std::size_t posted = 0;
    std::size_t unexpected = 0;
    std::size_t tx_rendezvous = 0;
    std::size_t rx_rendezvous = 0;
    // Eager heads whose continuation has not landed yet, queued as
    // unexpected or already matched to a receive.
    std::size_t awaiting_continuation = 0;
  };
  DebugCounts debug_counts() const;

 private:
  // kContinuation carries the bytes of a two-part eager message that did
  // not fit beside the envelope in its head.
  enum class Kind : std::uint8_t { kEager = 1, kRts, kCts, kContinuation };

  struct Envelope {
    Kind kind = Kind::kEager;
    std::int32_t context = 0;
    std::int32_t tag = 0;
    std::uint64_t len = 0;
    std::uint64_t xid = 0;      // rendezvous or two-part eager message id
    std::uint16_t channel = 0;  // CTS: receiver's normal channel
    std::uint64_t offset = 0;   // CTS: chunk granted; continuation: its bytes
  };

  struct PostedRecv {
    std::int32_t context;
    std::int32_t tag;
    bcl::PortId src;
    osk::UserBuffer buf;
    sim::Gate done;
    RecvResult result{};
    bool claimed = false;  // matched to a message; skip in match scans
    // Nonzero once a two-part eager head landed here: the xid its
    // continuation (from result.src) carries.
    std::uint64_t awaiting_xid = 0;
    PostedRecv(sim::Engine& e, std::int32_t c, std::int32_t t, bcl::PortId s,
               const osk::UserBuffer& b)
        : context{c}, tag{t}, src{s}, buf{b}, done{e} {}
  };

  struct Unexpected {
    Envelope env;
    bcl::PortId src;
    // Eager only; a head's first part until its continuation lands.
    std::vector<std::byte> payload;
    bool whole() const { return payload.size() == env.len; }
  };

  struct SendRendezvous {
    std::unique_ptr<sim::Channel<Envelope>> cts;
  };

  // A rendezvous sender waiting for its last chunk's send completion.
  struct LastChunk {
    sim::Gate done;
    bcl::BclErr err = bcl::BclErr::kOk;
    explicit LastChunk(sim::Engine& e) : done{e} {}
  };

  struct RecvRendezvous {
    PostedRecv* posted = nullptr;
    bcl::PortId src{};
    std::uint64_t xid = 0;
    std::uint64_t total = 0;
    std::uint64_t received = 0;
  };

  bool matches(const PostedRecv& p, const Envelope& env,
               bcl::PortId src) const;
  // The first unclaimed posted receive matching (env, src), now claimed.
  PostedRecv* claim(const Envelope& env, bcl::PortId src);
  // Copies `bytes` to p.buf at `offset`, truncated to the buffer.
  sim::Task<void> land(PostedRecv& p, std::size_t offset,
                       std::span<const std::byte> bytes);
  sim::Task<void> progress();
  sim::Task<void> drain_send_events();
  sim::Task<void> handle_envelope(Envelope env, bcl::PortId src,
                                  std::vector<std::byte> payload);
  sim::Task<void> grant_chunk(RecvRendezvous& rr, std::uint16_t channel);
  sim::Task<void> send_envelope(bcl::PortId dst, const Envelope& env,
                                std::span<const std::byte> payload);
  // Puts `slot` on top of the free stack: the next send takes it.
  void release_staging(int slot);

  static void encode(const Envelope& env, std::span<std::byte> out);
  static Envelope decode(std::span<const std::byte> in);

  sim::Engine& eng_;
  bcl::Endpoint& ep_;
  DeviceConfig cfg_;
  std::size_t slot_bytes_;  // one system-channel message, envelope included

  // Free staging slots, a stack: a send takes the most recently freed
  // buffer, whose page the pin-down table still holds, so a warm send
  // skips the page pin and the pool touches only the buffers it needs.
  // The semaphore holds one permit per free slot, so a send blocks while
  // the pool is empty.
  std::vector<int> staging_free_;
  sim::Semaphore staging_permits_;
  std::vector<osk::UserBuffer> staging_;
  std::map<std::uint64_t, int> staging_by_msg_;

  std::vector<std::unique_ptr<PostedRecv>> posted_;
  std::vector<Unexpected> unexpected_;
  std::map<std::uint64_t, SendRendezvous> tx_rendezvous_;
  std::map<std::uint64_t, LastChunk*> last_chunks_;  // by BCL msg id
  std::map<std::uint16_t, RecvRendezvous> rx_rendezvous_;  // by channel
  sim::Channel<std::uint16_t> free_channels_;
  std::uint64_t next_xid_ = 1;
  std::uint64_t unexpected_peak_ = 0;
};

}  // namespace eadi
