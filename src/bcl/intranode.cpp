#include "bcl/intranode.hpp"

#include <algorithm>
#include <span>
#include <vector>

namespace bcl {

IntraNode::IntraNode(sim::Engine& eng, osk::Kernel& kernel,
                     const CostConfig& cfg, sim::MetricRegistry& metrics)
    : eng_{eng},
      kernel_{kernel},
      cfg_{cfg},
      prefix_{"node" + std::to_string(kernel_.node().id()) + ".shm."} {
  metrics.add_collector([this](sim::MetricSink& out) {
    out.counter(prefix_ + "messages", messages_);
    out.counter(prefix_ + "chunks", chunks_);
    out.counter(prefix_ + "sys_drops", refused_[0]);
    out.counter(prefix_ + "not_posted_drops", refused_[1]);
    out.counter(prefix_ + "rma_errors", refused_[2]);
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
    std::size_t len, std::uint64_t rma_offset) {
  // User-level sanity check (no kernel on this path; SHM confines damage).
  if (ch.kind > ChanKind::kOpen) {
    co_return Result<std::uint64_t>{0, BclErr::kBadTarget};
  }
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
    ++chunks_;
    co_await pipe.full_slots->send(
        Chunk{Piece{ch, src_port.id(), msg_id, len, rma_offset + off, clen, i,
                    cfg_.intra_chunk},
              dst.port, count, slot});
  }
  ++messages_;
  src_port.count_sent();
  // Local completion event (sender-side bookkeeping, no NIC involved).
  (void)src_port.send_events().try_send(SendEvent{msg_id, dst, true});
  co_return Result<std::uint64_t>{msg_id, BclErr::kOk};
}

sim::Task<void> IntraNode::receiver(Pipe& pipe) {
  for (;;) {
    const Chunk c = co_await pipe.full_slots->recv();
    if (const auto it = ports_.find(c.dst_port); it != ports_.end()) {
      (void)co_await deliver(
          *it->second, c.piece, c.count,
          kernel_.node().memory().view(
              pipe.seg.base +
                  static_cast<std::uint64_t>(c.ring_slot) * cfg_.intra_chunk,
              c.piece.len));
    }
    co_await pipe.free_slots->send(c.ring_slot);
  }
}

sim::Task<BclErr> IntraNode::deliver(Port& port, const Piece& p,
                                     std::uint32_t count,
                                     std::span<const std::byte> bytes) {
  const Landing at = port.land(p, /*defer_when_full=*/false);
  refused_[static_cast<std::size_t>(p.channel.kind)] += at.refused;
  if (at.err != BclErr::kOk) co_return at.err;
  co_await port.process().cpu().busy(copy_cost(p.len) + cfg_.intra_sync);
  for (const auto& seg : at.pages) {
    kernel_.node().memory().write(seg.addr, bytes.first(seg.len));
    bytes = bytes.subspan(seg.len);
  }
  if (p.channel.kind != ChanKind::kOpen && p.index + 1 == count) {
    co_await port.complete(RecvEvent{p.msg_id, p.src, p.channel,
                                     static_cast<std::size_t>(p.msg_bytes),
                                     at.slot});
  }
  co_return BclErr::kOk;
}

Landing IntraNode::rma_source(PortId dst, std::uint16_t channel,
                              std::uint64_t offset, std::size_t len) {
  const auto it = ports_.find(dst.port);
  if (it == ports_.end()) return Landing{BclErr::kBadTarget};
  // Refused reads are counted at the target port, as the NIC path counts
  // them, and in the shm series.
  Landing window = it->second->rma_source(
      ChannelRef{ChanKind::kOpen, channel}, offset, len);
  refused_[static_cast<std::size_t>(ChanKind::kOpen)] += window.refused;
  return window;
}

sim::Task<Result<std::uint64_t>> IntraNode::rma_read(
    Port& reader, PortId dst, std::uint16_t reply_channel,
    const std::vector<hw::PhysSegment>& from, std::size_t len) {
  const std::uint64_t msg_id = next_msg_id_++;
  std::vector<std::byte> bytes;
  bytes.reserve(len);
  for (const auto& seg : from) {
    const auto v = kernel_.node().memory().view(seg.addr, seg.len);
    bytes.insert(bytes.end(), v.begin(), v.end());
  }
  // The reply is a one-piece message on the reader's reply channel.
  const BclErr err = co_await deliver(
      reader,
      Piece{ChannelRef{ChanKind::kNormal, reply_channel}, dst, msg_id, len, 0,
            len, 0, len},
      1, bytes);
  co_return Result<std::uint64_t>{err == BclErr::kOk ? msg_id : 0, err};
}

}  // namespace bcl
