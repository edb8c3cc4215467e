#include "eadi/eadi.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <stdexcept>

namespace eadi {

namespace {

// Byte offsets of the envelope's fields on the wire.
constexpr std::size_t kKindAt = 0;
constexpr std::size_t kChannelAt = 2;
constexpr std::size_t kTagAt = 4;
constexpr std::size_t kContextAt = 8;
constexpr std::size_t kLenAt = 12;
constexpr std::size_t kXidAt = 20;
constexpr std::size_t kOffsetAt = 28;  // 32 bits: chunks are < 4 GiB
static_assert(kOffsetAt + sizeof(std::uint32_t) == kEnvelopeBytes);

}  // namespace

Device::Device(sim::Engine& eng, bcl::Endpoint& ep, const DeviceConfig& cfg)
    : eng_{eng},
      ep_{ep},
      cfg_{cfg},
      slot_bytes_{ep.port().system().slot_bytes},
      staging_permits_{eng, cfg.staging_buffers},
      free_channels_{eng, ep.port().normal_count()} {
  if (slot_bytes_ <= kEnvelopeBytes) {
    throw std::invalid_argument("system slot smaller than the envelope");
  }
  staging_free_.reserve(static_cast<std::size_t>(cfg_.staging_buffers));
  for (int i = 0; i < cfg_.staging_buffers; ++i) {
    staging_.push_back(ep_.process().alloc(slot_bytes_));
    staging_free_.push_back(cfg_.staging_buffers - 1 - i);  // slot 0 on top
  }
  for (std::uint16_t c = 0; c < ep_.port().normal_count(); ++c) {
    (void)free_channels_.try_send(c);
  }
  eng_.spawn_daemon(progress());
  eng_.spawn_daemon(drain_send_events());
}

Device::~Device() = default;

Device::DebugCounts Device::debug_counts() const {
  DebugCounts d{staging_free_.size(),  staging_by_msg_.size(),
                free_channels_.size(), posted_.size(),
                unexpected_.size(),    tx_rendezvous_.size(),
                rx_rendezvous_.size()};
  for (const auto& u : unexpected_) {
    if (u.env.kind == Kind::kEager && !u.whole()) ++d.awaiting_continuation;
  }
  for (const auto& p : posted_) {
    if (p->awaiting_xid != 0) ++d.awaiting_continuation;
  }
  return d;
}

void Device::encode(const Envelope& env, std::span<std::byte> out) {
  std::memset(out.data(), 0, kEnvelopeBytes);
  std::memcpy(out.data() + kKindAt, &env.kind, 1);
  std::memcpy(out.data() + kChannelAt, &env.channel, 2);
  std::memcpy(out.data() + kTagAt, &env.tag, 4);
  std::memcpy(out.data() + kContextAt, &env.context, 4);
  std::memcpy(out.data() + kLenAt, &env.len, 8);
  std::memcpy(out.data() + kXidAt, &env.xid, 8);
  const std::uint32_t off32 = static_cast<std::uint32_t>(env.offset);
  std::memcpy(out.data() + kOffsetAt, &off32, 4);
}

Device::Envelope Device::decode(std::span<const std::byte> in) {
  Envelope env;
  std::memcpy(&env.kind, in.data() + kKindAt, 1);
  std::memcpy(&env.channel, in.data() + kChannelAt, 2);
  std::memcpy(&env.tag, in.data() + kTagAt, 4);
  std::memcpy(&env.context, in.data() + kContextAt, 4);
  std::memcpy(&env.len, in.data() + kLenAt, 8);
  std::memcpy(&env.xid, in.data() + kXidAt, 8);
  std::uint32_t off32 = 0;
  std::memcpy(&off32, in.data() + kOffsetAt, 4);
  env.offset = off32;
  return env;
}

bool Device::matches(const PostedRecv& p, const Envelope& env,
                     bcl::PortId src) const {
  if (p.context != env.context) return false;
  if (p.tag != kAnyTag && p.tag != env.tag) return false;
  if (p.src.node != kAnyNode && !(p.src == src)) return false;
  return true;
}

Device::PostedRecv* Device::claim(const Envelope& env, bcl::PortId src) {
  for (const auto& p : posted_) {
    if (p->claimed || !matches(*p, env, src)) continue;
    p->claimed = true;
    p->result = RecvResult{src, env.tag, static_cast<std::size_t>(env.len)};
    return p.get();
  }
  return nullptr;
}

sim::Task<void> Device::land(PostedRecv& p, std::size_t offset,
                             std::span<const std::byte> bytes) {
  if (offset >= p.buf.len) co_return;
  const std::size_t n = std::min(bytes.size(), p.buf.len - offset);
  if (n == 0) co_return;
  auto& proc = ep_.process();
  co_await proc.cpu().busy(proc.cpu().memcpy_time(n));
  proc.poke(p.buf, offset, bytes.first(n));
}

sim::Task<void> Device::send_envelope(bcl::PortId dst, const Envelope& env,
                                      std::span<const std::byte> payload) {
  auto& proc = ep_.process();
  co_await staging_permits_.acquire();
  const int slot = staging_free_.back();
  staging_free_.pop_back();
  const std::size_t total = kEnvelopeBytes + payload.size();
  co_await proc.cpu().busy(cfg_.pack_setup +
                           sim::Time::bytes_at(total, cfg_.pack_bw));
  std::array<std::byte, kEnvelopeBytes> head;
  encode(env, head);
  proc.poke(staging_[static_cast<std::size_t>(slot)], 0, head);
  if (!payload.empty()) {
    proc.poke(staging_[static_cast<std::size_t>(slot)], kEnvelopeBytes,
              payload);
  }
  auto r = co_await ep_.send_deadline(dst, bcl::ChannelRef{},
                                      staging_[static_cast<std::size_t>(slot)],
                                      total, cfg_.send_deadline);
  if (!r.ok()) {
    // Failed sends never get a completion event, so the slot must go back
    // here or it leaks from the fixed staging pool.
    release_staging(slot);
    if (r.err == bcl::BclErr::kWouldBlock) {
      // Credit deadline expired: the receiver is overloaded, not gone.
      throw std::runtime_error(
          "eadi: send credit deadline exceeded (receiver overloaded)");
    }
    throw std::runtime_error("eadi: system send failed");
  }
  staging_by_msg_[r.value] = slot;
}

void Device::release_staging(int slot) {
  staging_free_.push_back(slot);
  staging_permits_.release();
}

sim::Task<void> Device::drain_send_events() {
  for (;;) {
    const bcl::SendEvent ev = co_await ep_.wait_send();
    if (const auto it = staging_by_msg_.find(ev.msg_id);
        it != staging_by_msg_.end()) {
      release_staging(it->second);
      staging_by_msg_.erase(it);
    } else if (const auto last = last_chunks_.find(ev.msg_id);
               last != last_chunks_.end()) {
      last->second->err = ev.err;
      last->second->done.open();
      last_chunks_.erase(last);
    }
  }
}

sim::Task<void> Device::send(bcl::PortId dst, std::int32_t context,
                             std::int32_t tag, const osk::UserBuffer& buf,
                             std::size_t len) {
  auto& proc = ep_.process();
  co_await proc.cpu().busy(cfg_.call_overhead);
  // Eager when the payload fits beside the envelope in one system slot.
  // Toward another node a payload that fits the slot alone is eager too,
  // in two messages: the receiver then takes no trap, where a rendezvous
  // costs it two (the post and the CTS).  Within a node the shared-memory
  // rendezvous is the faster of the two at that size.
  const std::size_t head_room = slot_bytes_ - kEnvelopeBytes;
  const bool local = dst.node == id().node;
  if (len <= (local ? head_room : slot_bytes_)) {
    Envelope env;
    env.kind = Kind::kEager;
    env.context = context;
    env.tag = tag;
    env.len = len;
    const std::size_t head = std::min(len, head_room);
    if (head < len) env.xid = next_xid_++;
    std::vector<std::byte> payload(len);
    if (len > 0) proc.peek(buf, 0, payload);
    co_await send_envelope(dst, env, std::span{payload}.first(head));
    if (head < len) {
      // The system channel is FIFO per (source, destination), so the
      // continuation lands after its head.
      env.kind = Kind::kContinuation;
      env.offset = head;
      co_await send_envelope(dst, env, std::span{payload}.subspan(head));
    }
    co_return;
  }
  // Rendezvous: RTS, then one chunk per CTS grant.
  const std::uint64_t xid = next_xid_++;
  auto& txr = tx_rendezvous_[xid];
  txr.cts = std::make_unique<sim::Channel<Envelope>>(eng_);
  Envelope rts;
  rts.kind = Kind::kRts;
  rts.context = context;
  rts.tag = tag;
  rts.len = len;
  rts.xid = xid;
  std::uint64_t last_msg = 0;
  try {
    co_await send_envelope(dst, rts, {});
    std::size_t sent = 0;
    while (sent < len) {
      const Envelope cts = co_await txr.cts->recv();
      const std::size_t chunk =
          std::min<std::size_t>(cfg_.rendezvous_chunk, len - cts.offset);
      auto r = co_await ep_.send(
          dst, bcl::ChannelRef{bcl::ChanKind::kNormal, cts.channel}, buf,
          chunk, static_cast<std::size_t>(cts.offset));
      if (!r.ok()) {
        throw std::runtime_error("eadi: rendezvous data send failed");
      }
      sent = static_cast<std::size_t>(cts.offset) + chunk;
      last_msg = r.value;
    }
  } catch (...) {
    // A refused RTS or chunk ends the exchange: the receiver grants no
    // further chunk, so nothing will look the entry up again.
    tx_rendezvous_.erase(xid);
    throw;
  }
  tx_rendezvous_.erase(xid);
  if (local) co_return;  // the shared-memory copy is done when send returns
  // Each CTS follows the previous chunk's arrival, so only the last chunk
  // can still be reading buf.  Its completion comes a DMA or more after its
  // trap returned, so the drain has not taken it yet.
  LastChunk last{eng_};
  last_chunks_.emplace(last_msg, &last);
  co_await last.done.wait();
  if (last.err != bcl::BclErr::kOk) {
    throw std::runtime_error("eadi: rendezvous data send failed");
  }
}

sim::Task<RecvResult> Device::recv(std::int32_t context, std::int32_t tag,
                                   bcl::PortId src,
                                   const osk::UserBuffer& buf) {
  auto& proc = ep_.process();
  co_await proc.cpu().busy(cfg_.call_overhead + cfg_.match_cost);
  auto posted = std::make_unique<PostedRecv>(eng_, context, tag, src, buf);
  PostedRecv* p = posted.get();

  // Check the unexpected queue first.
  const auto it = std::find_if(
      unexpected_.begin(), unexpected_.end(),
      [&](const Unexpected& u) { return matches(*p, u.env, u.src); });
  if (it == unexpected_.end()) {
    posted_.push_back(std::move(posted));
  } else {
    Unexpected u = std::move(*it);
    unexpected_.erase(it);
    p->claimed = true;
    p->result = RecvResult{u.src, u.env.tag,
                           static_cast<std::size_t>(u.env.len)};
    if (u.env.kind == Kind::kEager) {
      const bool whole = u.whole();
      if (!whole) {
        // Only the head is here: post before the copy suspends, so the
        // continuation finds this receive whenever it lands.
        p->awaiting_xid = u.env.xid;
        posted_.push_back(std::move(posted));
      }
      co_await land(*p, 0, u.payload);
      if (whole) co_return p->result;
    } else {
      // Unexpected RTS: start the rendezvous now that a buffer exists.
      const std::uint16_t channel = co_await free_channels_.recv();
      auto& rr = rx_rendezvous_[channel];
      rr.posted = p;
      rr.src = u.src;
      rr.xid = u.env.xid;
      rr.total = u.env.len;
      rr.received = 0;
      co_await grant_chunk(rr, channel);
      posted_.push_back(std::move(posted));  // completed via the gate
    }
  }
  co_await p->done.wait();
  const RecvResult res = p->result;
  posted_.erase(std::find_if(posted_.begin(), posted_.end(),
                             [p](const auto& q) { return q.get() == p; }));
  co_return res;
}

sim::Task<std::optional<RecvResult>> Device::probe(std::int32_t context,
                                                   std::int32_t tag,
                                                   bcl::PortId src) {
  co_await ep_.process().cpu().busy(cfg_.match_cost);
  PostedRecv pattern{eng_, context, tag, src, osk::UserBuffer{}};
  for (const auto& u : unexpected_) {
    if (matches(pattern, u.env, u.src)) {
      co_return RecvResult{u.src, u.env.tag,
                           static_cast<std::size_t>(u.env.len)};
    }
  }
  co_return std::nullopt;
}

sim::Task<void> Device::grant_chunk(RecvRendezvous& rr,
                                    std::uint16_t channel) {
  const std::size_t chunk = std::min<std::size_t>(
      cfg_.rendezvous_chunk, static_cast<std::size_t>(rr.total - rr.received));
  if (rr.posted->buf.len < rr.total) {
    throw std::logic_error("eadi: rendezvous receive buffer too small");
  }
  osk::UserBuffer slice{rr.posted->buf.vaddr + rr.received, chunk,
                        rr.posted->buf.owner};
  const bcl::BclErr err = co_await ep_.post_recv(channel, slice);
  if (err != bcl::BclErr::kOk) {
    throw std::runtime_error("eadi: post_recv failed");
  }
  Envelope cts;
  cts.kind = Kind::kCts;
  cts.context = rr.posted->context;
  cts.tag = rr.posted->tag;
  cts.xid = rr.xid;
  cts.channel = channel;
  cts.offset = rr.received;
  cts.len = rr.total;
  co_await send_envelope(rr.src, cts, {});
}

sim::Task<void> Device::handle_envelope(Envelope env, bcl::PortId src,
                                        std::vector<std::byte> payload) {
  auto& proc = ep_.process();
  co_await proc.cpu().busy(cfg_.match_cost);
  switch (env.kind) {
    case Kind::kEager: {
      if (PostedRecv* p = claim(env, src)) {
        const bool whole = payload.size() == env.len;
        if (!whole) p->awaiting_xid = env.xid;
        co_await land(*p, 0, payload);
        if (whole) p->done.open();
        co_return;
      }
      unexpected_.push_back(Unexpected{env, src, std::move(payload)});
      unexpected_peak_ =
          std::max<std::uint64_t>(unexpected_peak_, unexpected_.size());
      break;
    }
    case Kind::kContinuation: {
      // The head is still unexpected, or a receive took it.
      for (auto& u : unexpected_) {
        if (u.env.kind != Kind::kEager || u.env.xid != env.xid ||
            !(u.src == src)) {
          continue;
        }
        u.payload.insert(u.payload.end(), payload.begin(), payload.end());
        co_return;
      }
      for (const auto& p : posted_) {
        if (p->awaiting_xid != env.xid || !(p->result.src == src)) continue;
        p->awaiting_xid = 0;
        co_await land(*p, static_cast<std::size_t>(env.offset), payload);
        p->done.open();
        co_return;
      }
      throw std::logic_error("eadi: continuation without its head");
    }
    case Kind::kRts: {
      if (PostedRecv* p = claim(env, src)) {
        // Claiming a channel can block; do it off the progress loop.
        eng_.spawn_daemon([](Device& d, PostedRecv* p, Envelope env,
                             bcl::PortId src) -> sim::Task<void> {
          const std::uint16_t channel = co_await d.free_channels_.recv();
          auto& rr = d.rx_rendezvous_[channel];
          rr.posted = p;
          rr.src = src;
          rr.xid = env.xid;
          rr.total = env.len;
          rr.received = 0;
          co_await d.grant_chunk(rr, channel);
        }(*this, p, env, src));
        co_return;
      }
      unexpected_.push_back(Unexpected{env, src, {}});
      unexpected_peak_ =
          std::max<std::uint64_t>(unexpected_peak_, unexpected_.size());
      break;
    }
    case Kind::kCts: {
      const auto it = tx_rendezvous_.find(env.xid);
      if (it == tx_rendezvous_.end()) {
        throw std::logic_error("eadi: CTS for unknown rendezvous");
      }
      (void)it->second.cts->try_send(env);
      break;
    }
  }
}

sim::Task<void> Device::progress() {
  for (;;) {
    const bcl::RecvEvent ev = co_await ep_.wait_recv();
    if (ev.channel.kind == bcl::ChanKind::kSystem) {
      auto bytes = co_await ep_.copy_out_system(ev);
      if (bytes.size() < kEnvelopeBytes) {
        throw std::logic_error("eadi: runt system message");
      }
      Envelope env = decode(bytes);
      std::vector<std::byte> payload(
          bytes.begin() + static_cast<std::ptrdiff_t>(kEnvelopeBytes),
          bytes.end());
      co_await handle_envelope(env, ev.src, std::move(payload));
    } else if (ev.channel.kind == bcl::ChanKind::kNormal) {
      const auto it = rx_rendezvous_.find(ev.channel.index);
      if (it == rx_rendezvous_.end()) {
        throw std::logic_error("eadi: data on unknown channel");
      }
      auto& rr = it->second;
      rr.received += ev.len;
      if (rr.received >= rr.total) {
        rr.posted->done.open();
        const std::uint16_t channel = it->first;
        rx_rendezvous_.erase(it);
        (void)free_channels_.try_send(channel);
      } else {
        eng_.spawn_daemon([](Device& d, std::uint16_t channel)
                              -> sim::Task<void> {
          co_await d.grant_chunk(d.rx_rendezvous_.at(channel), channel);
        }(*this, ev.channel.index));
      }
    }
  }
}

}  // namespace eadi
