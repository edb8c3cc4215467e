#include "bcl/port.hpp"

#include <algorithm>
#include <stdexcept>

namespace bcl {

const char* to_string(BclErr e) {
  switch (e) {
    case BclErr::kOk:
      return "ok";
    case BclErr::kBadPid:
      return "bad pid";
    case BclErr::kBadBuffer:
      return "bad buffer";
    case BclErr::kBadTarget:
      return "bad target";
    case BclErr::kTooBig:
      return "message too big for system channel";
    case BclErr::kNotPosted:
      return "no receive posted";
    case BclErr::kNotBound:
      return "open channel not bound";
    case BclErr::kNoResources:
      return "out of resources";
    case BclErr::kPeerUnreachable:
      return "peer unreachable";
    case BclErr::kWouldBlock:
      return "no send credits (would block)";
    case BclErr::kPeerRestarted:
      return "peer restarted";
    case BclErr::kPartitioned:
      return "fabric partitioned (all paths quarantined)";
  }
  return "?";
}

Port::Port(sim::Engine& eng, PortId id, osk::Process& proc,
           const CostConfig& cfg)
    : id_{id},
      proc_{proc},
      eng_{eng},
      event_queue_depth_{cfg.event_queue_depth},
      send_events_{eng, cfg.event_queue_depth},
      recv_events_{eng, cfg.event_queue_depth},
      normal_(cfg.normal_channels),
      open_(cfg.open_channels) {
  const auto slots = static_cast<std::size_t>(cfg.sys_slots);
  const std::size_t bytes = cfg.sys_slot_bytes;
  system_.slot_bytes = bytes;
  system_.pool = proc.alloc(slots * bytes);
  system_.slots.reserve(slots);
  system_.free_slots.reserve(slots);
  for (int i = 0; i < cfg.sys_slots; ++i) {
    system_.slots.push_back(proc.translate(
        system_.pool.vaddr + static_cast<std::uint64_t>(i) * bytes, bytes));
    system_.free_slots.push_back(cfg.sys_slots - 1 - i);  // slot 0 on top
  }
}

sim::Channel<coll::CollEvent>& Port::coll_events(std::uint16_t group) {
  auto it = coll_events_.find(group);
  if (it == coll_events_.end()) {
    it = coll_events_
             .emplace(group, std::make_unique<sim::Channel<coll::CollEvent>>(
                                 eng_, event_queue_depth_))
             .first;
  }
  return *it->second;
}

void Port::drain_coll_events(std::uint16_t group) {
  const auto it = coll_events_.find(group);
  if (it == coll_events_.end()) return;
  // Drain rather than erase: a completion daemon may still be parked on
  // the channel's semaphores, so the channel object must stay alive for
  // the port's lifetime.
  while (it->second->try_recv()) {
  }
}

void Port::post(std::uint16_t i, const osk::UserBuffer& buf,
                std::vector<hw::PhysSegment> segs) {
  normal_.at(i) = NormalChannelState{true, buf, std::move(segs), {}};
}

void Port::bind(std::uint16_t i, const osk::UserBuffer& buf,
                std::vector<hw::PhysSegment> segs) {
  open_.at(i) = OpenChannelState{true, buf, std::move(segs)};
}

namespace {

// [base, base + bytes) lies within [0, limit), without wrapping.
bool fits(std::uint64_t base, std::uint64_t bytes, std::uint64_t limit) {
  return base <= limit && bytes <= limit - base;
}

// The pieces a message of `bytes` travels in, `piece_bytes` at a time.
std::uint32_t piece_count(std::uint64_t bytes, std::size_t piece_bytes) {
  return bytes <= piece_bytes
             ? 1
             : static_cast<std::uint32_t>((bytes + piece_bytes - 1) /
                                          piece_bytes);
}

bool same_message(const Assembly& a, const Piece& p) {
  return a.src == p.src && a.msg_id == p.msg_id;
}

}  // namespace

Landing Port::land(const Piece& p, bool defer_when_full) {
  const bool first = p.index == 0;
  const std::uint64_t base = p.offset - std::uint64_t{p.index} * p.piece_bytes;
  Landing out;
  const auto drop = [&out](std::uint64_t& counter) {
    ++counter;
    ++out.refused;
  };
  const auto refuse = [&](std::uint64_t& counter, BclErr err) {
    if (first) drop(counter);  // once per message
    out.err = err;
    return out;
  };
  const std::vector<hw::PhysSegment>* pages = nullptr;
  switch (p.channel.kind) {
    case ChanKind::kSystem: {
      if (!fits(base, p.msg_bytes, system_.slot_bytes)) {
        return refuse(sys_drops_, BclErr::kTooBig);
      }
      auto& held = system_.assembling;
      auto it = std::ranges::find_if(
          held, [&p](const Assembly& a) { return same_message(a, p); });
      if (it != held.end() && (first || it->next != p.index)) {
        // Cut off: the message started over, or a piece of it was lost.
        system_.free_slots.push_back(it->slot);
        held.erase(it);
        it = held.end();
        drop(sys_drops_);
      }
      if (!first) {
        if (it == held.end()) return refuse(sys_drops_, BclErr::kNoResources);
        out.slot = it->slot;
        if (++it->next == it->count) held.erase(it);
      } else if (!system_.free_slots.empty()) {
        out.slot = system_.free_slots.back();
        system_.free_slots.pop_back();
        const std::uint32_t count = piece_count(p.msg_bytes, p.piece_bytes);
        if (count > 1) held.push_back({p.src, p.msg_id, 1, count, out.slot});
      } else if (defer_when_full) {
        ++rnr_events_;
        out.err = BclErr::kWouldBlock;
        return out;
      } else {
        return refuse(sys_drops_, BclErr::kNoResources);
      }
      pages = &system_.slots[static_cast<std::size_t>(out.slot)];
      break;
    }
    case ChanKind::kNormal: {
      NormalChannelState* st = p.channel.index < normal_.size()
                                   ? &normal_[p.channel.index]
                                   : nullptr;
      if (st == nullptr || !st->posted ||
          !fits(base, p.msg_bytes, st->buf.len)) {
        return refuse(not_posted_drops_, BclErr::kNotPosted);
      }
      auto& rx = st->receiving;
      if (rx && rx->next < rx->count &&
          (first || (same_message(*rx, p) && rx->next != p.index))) {
        // Cut off: a new message takes the posting over (its sender may
        // have died mid-message), or a piece of this one was lost.
        rx.reset();
        drop(not_posted_drops_);
      }
      if (first && rx) {
        // Every piece of the posting's message has landed: consumed.
        return refuse(not_posted_drops_, BclErr::kNotPosted);
      }
      if (first) {
        rx = Assembly{p.src, p.msg_id, 0,
                      piece_count(p.msg_bytes, p.piece_bytes)};
      } else if (!rx || !same_message(*rx, p) || rx->next != p.index) {
        return refuse(not_posted_drops_, BclErr::kNotPosted);
      }
      ++rx->next;
      pages = &st->segs;
      break;
    }
    case ChanKind::kOpen: {
      const OpenChannelState* st =
          p.channel.index < open_.size() ? &open_[p.channel.index] : nullptr;
      if (st == nullptr || !st->bound ||
          !fits(base, p.msg_bytes, st->buf.len)) {
        return refuse(rma_errors_, BclErr::kNotBound);
      }
      pages = &st->segs;
      break;
    }
    default:
      out.err = BclErr::kBadTarget;
      return out;
  }
  out.pages = slice_segments(*pages, p.offset, p.len);
  return out;
}

sim::Task<void> Port::complete(const RecvEvent& ev) {
  if (ev.channel.kind == ChanKind::kNormal) {
    normal_.at(ev.channel.index).posted = false;  // rendezvous consumed
  }
  if (ev.err == BclErr::kOk) ++messages_received_;
  return recv_events_.send(ev);
}

Landing Port::rma_source(ChannelRef ch, std::uint64_t offset,
                         std::size_t len) {
  // Judged as a one-piece write of the same extent would be.
  if (ch.kind == ChanKind::kOpen) {
    return land(Piece{ch, {}, 0, len, offset, len, 0, len}, false);
  }
  ++rma_errors_;
  return Landing{BclErr::kNotBound, {}, -1, 1};
}

std::vector<hw::PhysSegment> slice_segments(
    const std::vector<hw::PhysSegment>& segs, std::uint64_t off,
    std::size_t len) {
  std::vector<hw::PhysSegment> out;
  for (const auto& seg : segs) {
    if (len == 0) break;
    if (off >= seg.len) {
      off -= seg.len;
      continue;
    }
    const std::size_t take = std::min<std::uint64_t>(seg.len - off, len);
    out.push_back({seg.addr + off, take});
    off = 0;
    len -= take;
  }
  if (len != 0) throw std::out_of_range("segment slice out of range");
  return out;
}

}  // namespace bcl
