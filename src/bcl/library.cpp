#include "bcl/library.hpp"

namespace bcl {

namespace {

// "node<N>.lib.port<P>.<what>"
std::string port_series(PortId id, const char* what) {
  return "node" + std::to_string(id.node) + ".lib.port" +
         std::to_string(id.port) + "." + what;
}

}  // namespace

Endpoint::Endpoint(sim::Engine& eng, const CostConfig& cfg, Driver& driver,
                   Mcp& mcp, IntraNode& intra, osk::Process& proc,
                   std::unique_ptr<Port> port, sim::Trace& trace,
                   sim::MetricRegistry& metrics)
    : eng_{eng},
      cfg_{cfg},
      driver_{driver},
      mcp_{mcp},
      intra_{intra},
      proc_{proc},
      port_{std::move(port)},
      trace_{trace},
      comp_{"node" + std::to_string(port_->id().node) + ".lib"},
      m_sends_{metrics.counter(port_series(port_->id(), "sends"))},
      m_recvs_{metrics.counter(port_series(port_->id(), "recvs"))},
      m_recv_polls_{metrics.counter(port_series(port_->id(), "recv_polls"))},
      m_recv_bytes_{metrics.counter(port_series(port_->id(), "recv_bytes"))} {
  mcp_.register_port(port_.get());
  intra_.register_port(port_.get());
}

Endpoint::~Endpoint() {
  mcp_.unregister_port(port_->id().port);
  intra_.unregister_port(port_->id().port);
}

sim::Task<Result<std::uint64_t>> Endpoint::send(PortId dst, ChannelRef ch,
                                                const osk::UserBuffer& buf,
                                                std::size_t len,
                                                std::size_t off) {
  co_return co_await send_impl(dst, ch, buf, len, off, sim::Time::zero(),
                               false);
}

sim::Task<Result<std::uint64_t>> Endpoint::send_deadline(
    PortId dst, ChannelRef ch, const osk::UserBuffer& buf, std::size_t len,
    sim::Time deadline, std::size_t off) {
  co_return co_await send_impl(dst, ch, buf, len, off, deadline, false);
}

sim::Task<Result<std::uint64_t>> Endpoint::try_send(PortId dst, ChannelRef ch,
                                                    const osk::UserBuffer& buf,
                                                    std::size_t len,
                                                    std::size_t off) {
  co_return co_await send_impl(dst, ch, buf, len, off, sim::Time::zero(),
                               true);
}

sim::Task<Result<std::uint64_t>> Endpoint::send_impl(
    PortId dst, ChannelRef ch, const osk::UserBuffer& buf, std::size_t len,
    std::size_t off, sim::Time deadline, bool nonblock) {
  {
    auto span = trace_.span(comp_, "user-compose", 0);
    co_await proc_.cpu().busy(cfg_.compose_send);
  }
  if (off + len > buf.len) {
    co_return Result<std::uint64_t>{0, BclErr::kBadBuffer};
  }
  if (local(dst)) {
    // Intranode transfers bypass the NIC (and its credit table); the
    // shared-memory path applies its own backpressure.
    auto r = co_await intra_.send(*port_, dst, ch, buf.vaddr + off, len);
    co_return r;
  }
  SendArgs args;
  args.dst = dst;
  args.channel = ch;
  args.vaddr = buf.vaddr + off;
  args.len = len;
  args.nonblock = nonblock;
  const sim::Time start = eng_.now();
  sim::Time last_probe = start;
  for (;;) {
    auto r = co_await driver_.ioctl_send(proc_, *port_, args);
    if (r.ok()) {
      port_->count_sent();
      m_sends_.inc();
      co_return r;
    }
    if (r.err != BclErr::kWouldBlock || nonblock) co_return r;
    // Out of credits: spin on the user-mapped credit word (receive-path
    // rule: waiting involves no traps).  A stalled sender periodically
    // probes the receiver for a fresh cumulative grant so a lost credit
    // update cannot wedge the transfer.
    const sim::Time wait_start = eng_.now();
    auto span = trace_.span(comp_, "credit-wait", 0);
    while (mcp_.flow().available(dst) == 0) {
      if (deadline > sim::Time::zero() && eng_.now() - start >= deadline) {
        co_return Result<std::uint64_t>{0, BclErr::kWouldBlock};
      }
      if (eng_.now() - last_probe >= cfg_.fc_probe_every) {
        last_probe = eng_.now();
        mcp_.fc_probe(dst);
      }
      co_await proc_.cpu().busy(cfg_.fc_poll);
      co_await eng_.sleep(cfg_.fc_poll_interval);
    }
    span.end();
    // The stall predates the message id (the trap that assigns it comes
    // next); park it per node and let msg_begin fold it into the record.
    trace_.msg_credit_wait_pending(static_cast<int>(port_->id().node),
                                   eng_.now() - wait_start);
    // Credits visible again; retry the trap (another sender on this node
    // may still win the race, in which case we loop back to waiting).
  }
}

sim::Task<SendEvent> Endpoint::wait_send() {
  SendEvent ev = co_await port_->send_events().recv();
  co_await proc_.cpu().busy(cfg_.send_event_poll);
  co_return ev;
}

sim::Task<BclErr> Endpoint::post_recv(std::uint16_t channel,
                                      const osk::UserBuffer& buf) {
  // Intra-node sends look the posted state up directly, inter-node sends
  // through the NIC; either way the registration traps into the kernel
  // ("making ready for message buffer still needs switch into kernel
  // mode", section 4.1).
  co_return co_await driver_.ioctl_post_recv(proc_, *port_, channel, buf);
}

sim::Task<RecvEvent> Endpoint::wait_recv() {
  RecvEvent ev = co_await port_->recv_events().recv();
  auto span = trace_.span(comp_, "recv-poll", ev.msg_id);
  co_await proc_.cpu().busy(cfg_.recv_event_poll);
  m_recvs_.inc();
  m_recv_polls_.inc();
  m_recv_bytes_.add(ev.len);
  trace_.flow_end(comp_, "msg", flow_key(ev.src.node, ev.msg_id));
  // Receive-side completion closes the causal record.
  trace_.msg_end(flow_key(ev.src.node, ev.msg_id));
  co_return ev;
}

sim::Task<std::optional<RecvEvent>> Endpoint::try_recv() {
  // The poll touches the user-space completion queue whether or not an
  // event is present.
  co_await proc_.cpu().busy(cfg_.recv_event_poll);
  m_recv_polls_.inc();
  auto ev = port_->recv_events().try_recv();
  if (ev) {
    m_recvs_.inc();
    m_recv_bytes_.add(ev->len);
    trace_.flow_end(comp_, "msg", flow_key(ev->src.node, ev->msg_id));
    trace_.msg_end(flow_key(ev->src.node, ev->msg_id));
  }
  co_return ev;
}

sim::Task<std::vector<std::byte>> Endpoint::copy_out_system(
    const RecvEvent& ev) {
  const auto& sys = port_->system();
  std::vector<std::byte> out(ev.len);
  if (ev.len > 0) {
    co_await proc_.cpu().busy(proc_.cpu().memcpy_time(ev.len));
    proc_.peek(sys.pool,
               static_cast<std::size_t>(ev.sys_slot) * sys.slot_bytes,
               out);
  }
  co_await proc_.cpu().busy(cfg_.slot_release);
  port_->release_slot(ev.sys_slot);
  // Slot-release doorbell: the MCP tops up the sender ledgers and pushes a
  // standalone credit update to anyone starved (the piggyback path covers
  // the common case where reverse traffic exists).
  mcp_.credit_doorbell(port_->id().port);
  co_return out;
}

sim::Task<BclErr> Endpoint::bind_open(std::uint16_t channel,
                                      const osk::UserBuffer& buf) {
  co_return co_await driver_.ioctl_bind_open(proc_, *port_, channel, buf);
}

sim::Task<Result<std::uint64_t>> Endpoint::rma_write(
    PortId dst, std::uint16_t dst_channel, std::uint64_t dst_offset,
    const osk::UserBuffer& src, std::size_t len) {
  co_await proc_.cpu().busy(cfg_.compose_send);
  const ChannelRef ch{ChanKind::kOpen, dst_channel};
  if (local(dst)) {
    auto r = co_await intra_.send(*port_, dst, ch, src.vaddr, len,
                                  dst_offset);
    co_return r;
  }
  SendArgs args;
  args.dst = dst;
  args.channel = ch;
  args.vaddr = src.vaddr;
  args.len = len;
  args.op = SendOp::kRmaWrite;
  args.rma_offset = dst_offset;
  auto r = co_await driver_.ioctl_send(proc_, *port_, args);
  co_return r;
}

sim::Task<Result<std::uint64_t>> Endpoint::rma_read(
    PortId dst, std::uint16_t dst_channel, std::uint64_t offset,
    std::uint16_t reply_channel, const osk::UserBuffer& into,
    std::size_t len) {
  co_await proc_.cpu().busy(cfg_.compose_send);
  // Over shared memory the window is judged before the reply channel is
  // posted, so a refused read posts nothing.
  const Landing window =
      local(dst) ? intra_.rma_source(dst, dst_channel, offset, len)
                 : Landing{};
  if (window.err != BclErr::kOk) co_return Result<std::uint64_t>{0, window.err};
  // Arm the reply channel, then issue the read.
  if (const BclErr err = co_await post_recv(reply_channel, into);
      err != BclErr::kOk) {
    co_return Result<std::uint64_t>{0, err};
  }
  if (local(dst)) {
    co_return co_await intra_.rma_read(*port_, dst, reply_channel,
                                       window.pages, len);
  }
  SendArgs args;
  args.dst = dst;
  args.channel = ChannelRef{ChanKind::kOpen, dst_channel};
  args.len = len;
  args.op = SendOp::kRmaRead;
  args.rma_offset = offset;
  args.reply_channel = reply_channel;
  auto r = co_await driver_.ioctl_send(proc_, *port_, args);
  co_return r;
}

}  // namespace bcl
