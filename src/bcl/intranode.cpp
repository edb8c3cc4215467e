#include "bcl/intranode.hpp"

#include <algorithm>

#include "bcl/mcp.hpp"  // slice_segments

namespace bcl {

IntraNode::IntraNode(sim::Engine& eng, osk::Kernel& kernel,
                     const CostConfig& cfg, sim::MetricRegistry& metrics)
    : eng_{eng},
      kernel_{kernel},
      cfg_{cfg},
      prefix_{"node" + std::to_string(kernel_.node().id()) + ".shm."} {
  metrics.add_collector([this](sim::MetricSink& out) {
    out.counter(prefix_ + "messages", stats_.messages);
    out.counter(prefix_ + "chunks", stats_.chunks);
    out.counter(prefix_ + "sys_drops", stats_.sys_drops);
    out.counter(prefix_ + "not_posted_drops", stats_.not_posted_drops);
    out.counter(prefix_ + "rma_errors", stats_.rma_errors);
    out.gauge(prefix_ + "pipes", static_cast<double>(pipes_.size()));
  });
}

void IntraNode::register_port(Port* port) {
  ports_[port->id().port] = port;
}

void IntraNode::unregister_port(std::uint32_t port_no) {
  ports_.erase(port_no);
}

sim::Time IntraNode::copy_cost(std::size_t len) const {
  return cfg_.shm_copy_setup + sim::Time::bytes_at(len, cfg_.shm_copy_bw);
}

IntraNode::Pipe& IntraNode::pipe_for(std::uint32_t src_port,
                                     std::uint32_t dst_port) {
  const std::uint64_t key =
      (static_cast<std::uint64_t>(src_port) << 32) | dst_port;
  auto& p = pipes_[key];
  if (!p) {
    p = std::make_unique<Pipe>();
    const int slots = cfg_.intra_pipeline ? cfg_.intra_slots : 1;
    p->seg = kernel_.shm().create(static_cast<std::size_t>(slots) *
                                  cfg_.intra_chunk);
    p->free_slots = std::make_unique<sim::Channel<int>>(eng_);
    p->full_slots = std::make_unique<sim::Channel<Chunk>>(eng_);
    for (int i = 0; i < slots; ++i) (void)p->free_slots->try_send(i);
    eng_.spawn_daemon(receiver(*p));
  }
  return *p;
}

sim::Task<void> IntraNode::copy_in(osk::Process& proc, hw::PhysAddr dst,
                                   osk::VirtAddr src_vaddr, std::size_t len) {
  co_await proc.cpu().busy(copy_cost(len));
  auto& mem = kernel_.node().memory();
  std::uint64_t off = 0;
  if (len > 0) {
    for (const auto& seg : proc.translate(src_vaddr, len)) {
      mem.write(dst + off, mem.view(seg.addr, seg.len));
      off += seg.len;
    }
  }
}

sim::Task<Result<std::uint64_t>> IntraNode::send(
    Port& src_port, PortId dst, ChannelRef ch, osk::VirtAddr vaddr,
    std::size_t len, SendOp op, std::uint64_t rma_offset) {
  // User-level sanity check (no kernel on this path; SHM confines damage).
  if (ch.kind == ChanKind::kSystem && len > cfg_.sys_slot_bytes) {
    co_return Result<std::uint64_t>{0, BclErr::kTooBig};
  }
  auto& proc = src_port.process();
  if (len > 0 && !proc.mapped(vaddr, len)) {
    co_return Result<std::uint64_t>{0, BclErr::kBadBuffer};
  }
  const std::uint64_t msg_id = next_msg_id_++;
  Pipe& pipe = pipe_for(src_port.id().port, dst.port);
  const std::uint32_t count = static_cast<std::uint32_t>(
      std::max<std::uint64_t>(1, (len + cfg_.intra_chunk - 1) /
                                     cfg_.intra_chunk));
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint64_t off = static_cast<std::uint64_t>(i) * cfg_.intra_chunk;
    const std::size_t clen = static_cast<std::size_t>(
        std::min<std::uint64_t>(cfg_.intra_chunk, len - off));
    const int slot = co_await pipe.free_slots->recv();
    co_await copy_in(proc,
                     pipe.seg.base +
                         static_cast<std::uint64_t>(slot) * cfg_.intra_chunk,
                     vaddr + off, clen);
    co_await proc.cpu().busy(cfg_.intra_sync);  // publish the slot flag
    ++stats_.chunks;
    co_await pipe.full_slots->send(Chunk{msg_id, src_port.id().port, dst.port,
                                         ch, op, rma_offset + off, i, count,
                                         len, slot, clen});
  }
  ++stats_.messages;
  ++src_port.messages_sent;
  // Local completion event (sender-side bookkeeping, no NIC involved).
  (void)src_port.send_events().try_send(SendEvent{msg_id, dst, true});
  co_return Result<std::uint64_t>{msg_id, BclErr::kOk};
}

sim::Task<void> IntraNode::receiver(Pipe& pipe) {
  auto& mem = kernel_.node().memory();
  for (;;) {
    Chunk c = co_await pipe.full_slots->recv();
    const hw::PhysAddr src =
        pipe.seg.base + static_cast<std::uint64_t>(c.slot) * cfg_.intra_chunk;
    Port* port = nullptr;
    if (const auto it = ports_.find(c.dst_port); it != ports_.end()) {
      port = it->second;
    }
    if (port != nullptr) {
      auto& rproc = port->process();
      switch (c.channel.kind) {
        case ChanKind::kSystem: {
          auto& sys = port->system();
          if (c.index == 0) {
            pipe.dropping = false;
            if (!sys.configured() || c.msg_bytes > sys.slot_bytes ||
                sys.free_slots.empty()) {
              pipe.dropping = true;
              ++stats_.sys_drops;
              ++port->sys_drops;
            } else {
              pipe.sys_slot = sys.free_slots.back();
              sys.free_slots.pop_back();
            }
          }
          if (!pipe.dropping) {
            co_await rproc.cpu().busy(copy_cost(c.len) + cfg_.intra_sync);
            if (c.len > 0) {
              auto segs = slice_segments(
                  sys.slots[static_cast<std::size_t>(pipe.sys_slot)],
                  c.offset, c.len);
              std::uint64_t soff = 0;
              for (const auto& seg : segs) {
                mem.write(seg.addr, mem.view(src + soff, seg.len));
                soff += seg.len;
              }
            }
            if (c.index + 1 == c.count) {
              ++port->messages_received;
              co_await port->recv_events().send(
                  RecvEvent{c.msg_id, PortId{kernel_.node().id(), c.src_port},
                            c.channel, static_cast<std::size_t>(c.msg_bytes),
                            pipe.sys_slot});
            }
          }
          break;
        }
        case ChanKind::kNormal: {
          if (c.channel.index >= port->normal_count() ||
              !port->normal(c.channel.index).posted ||
              c.offset + c.len > port->normal(c.channel.index).buf.len) {
            ++stats_.not_posted_drops;
            ++port->not_posted_drops;
            break;
          }
          auto& st = port->normal(c.channel.index);
          co_await rproc.cpu().busy(copy_cost(c.len) + cfg_.intra_sync);
          if (c.len > 0) {
            auto segs = slice_segments(st.segs, c.offset, c.len);
            std::uint64_t soff = 0;
            for (const auto& seg : segs) {
              mem.write(seg.addr, mem.view(src + soff, seg.len));
              soff += seg.len;
            }
          }
          if (c.index + 1 == c.count) {
            st.posted = false;
            ++port->messages_received;
            co_await port->recv_events().send(
                RecvEvent{c.msg_id, PortId{kernel_.node().id(), c.src_port},
                          c.channel, static_cast<std::size_t>(c.msg_bytes),
                          -1});
          }
          break;
        }
        case ChanKind::kOpen: {
          if (c.channel.index >= port->open_count() ||
              !port->open(c.channel.index).bound ||
              c.offset + c.len > port->open(c.channel.index).buf.len) {
            ++stats_.rma_errors;
            ++port->rma_errors;
            break;
          }
          auto& st = port->open(c.channel.index);
          co_await rproc.cpu().busy(copy_cost(c.len) + cfg_.intra_sync);
          if (c.len > 0) {
            auto segs = slice_segments(st.segs, c.offset, c.len);
            std::uint64_t soff = 0;
            for (const auto& seg : segs) {
              mem.write(seg.addr, mem.view(src + soff, seg.len));
              soff += seg.len;
            }
          }
          break;
        }
      }
    }
    co_await pipe.free_slots->send(c.slot);
  }
}

sim::Task<Result<std::uint64_t>> IntraNode::rma_read(
    Port& src_port, PortId dst, std::uint16_t dst_channel,
    std::uint64_t offset, std::uint16_t reply_channel,
    const osk::UserBuffer& into, std::size_t len) {
  auto it = ports_.find(dst.port);
  if (it == ports_.end()) {
    co_return Result<std::uint64_t>{0, BclErr::kBadTarget};
  }
  Port& target = *it->second;
  if (dst_channel >= target.open_count() || !target.open(dst_channel).bound ||
      offset + len > target.open(dst_channel).buf.len) {
    // Counted at the target port too, as the NIC path counts it.
    ++stats_.rma_errors;
    ++target.rma_errors;
    co_return Result<std::uint64_t>{0, BclErr::kNotBound};
  }
  auto& proc = src_port.process();
  if (!proc.mapped(into.vaddr, std::max<std::size_t>(len, 1))) {
    co_return Result<std::uint64_t>{0, BclErr::kBadBuffer};
  }
  const std::uint64_t msg_id = next_msg_id_++;
  // Direct copy window -> local buffer on the caller's CPU.
  co_await proc.cpu().busy(copy_cost(len));
  if (len > 0) {
    auto& mem = kernel_.node().memory();
    auto src_segs = slice_segments(target.open(dst_channel).segs, offset, len);
    std::vector<std::byte> tmp;
    tmp.reserve(len);
    for (const auto& seg : src_segs) {
      auto v = mem.view(seg.addr, seg.len);
      tmp.insert(tmp.end(), v.begin(), v.end());
    }
    proc.poke(into, 0, tmp);
  }
  co_await src_port.recv_events().send(
      RecvEvent{msg_id, dst, ChannelRef{ChanKind::kNormal, reply_channel},
                len, -1});
  co_return Result<std::uint64_t>{msg_id, BclErr::kOk};
}

}  // namespace bcl
