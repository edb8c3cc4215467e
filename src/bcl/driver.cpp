#include "bcl/driver.hpp"

#include <algorithm>
#include <set>
#include <utility>

#include "bcl/coll/engine.hpp"

namespace bcl {

namespace {

std::string node_prefix(osk::Kernel& k) {
  return "node" + std::to_string(k.node().id()) + ".";
}

}  // namespace

Driver::Driver(osk::Kernel& kernel, Mcp& mcp, const CostConfig& cfg,
               std::uint32_t cluster_nodes, sim::Trace& trace,
               sim::MetricRegistry& metrics)
    : kernel_{kernel},
      mcp_{mcp},
      cfg_{cfg},
      cluster_nodes_{cluster_nodes},
      trace_{trace},
      node_{node_prefix(kernel)},
      comp_{node_ + "kernel"},
      m_sends_{metrics.counter(node_ + "driver.sends")},
      m_pio_words_{metrics.counter(node_ + "driver.pio_words")},
      m_send_bytes_{metrics.counter(node_ + "driver.send_bytes")} {
  metrics.add_collector([this](sim::MetricSink& out) {
    out.counter(node_ + "driver.security_rejects", rejects_);
    out.counter(node_ + "driver.credit_blocks", credit_blocks_);
    // Under the pindown prefix next to the osk gauges: pages pinned by
    // sends that failed late and were (or were not) released.
    out.gauge(node_ + "pindown.leaked_pages",
              static_cast<double>(pinned_uncommitted_));
  });
}

std::uint64_t Driver::page_span(osk::VirtAddr vaddr, std::size_t len) {
  if (len == 0) len = 1;
  const std::uint64_t first = vaddr / hw::kPageSize;
  const std::uint64_t last = (vaddr + len - 1) / hw::kPageSize;
  return last - first + 1;
}

void Driver::release_pins(osk::Process& proc, const SendArgs& args,
                          std::uint64_t pages) {
  kernel_.pindown().unpin(proc, args.vaddr, args.len);
  pinned_uncommitted_ -= pages;
}

sim::Task<std::optional<std::vector<hw::PhysSegment>>> Driver::try_pin(
    osk::Process& proc, osk::VirtAddr vaddr, std::size_t len) {
  try {
    co_return co_await kernel_.pindown().translate_and_pin(proc, vaddr, len);
  } catch (const std::runtime_error&) {
    co_return std::nullopt;
  }
}

sim::Task<BclErr> Driver::leave(osk::Process& proc, BclErr err) {
  if (err != BclErr::kOk) ++rejects_;
  co_await kernel_.trap_exit(proc);
  co_return err;
}

BclErr Driver::validate_send(osk::Process& proc, Port& port,
                             const SendArgs& args) {
  // The paper (4.4): the checked parameters include the application
  // process ID, the communication buffer pointer, and the target.
  if (kernel_.validate_caller(proc, port.process().pid()) !=
      osk::KernErr::kOk) {
    return BclErr::kBadPid;
  }
  if (kernel_.validate_target(args.dst.node, cluster_nodes_, args.dst.port,
                              cfg_.max_ports) != osk::KernErr::kOk) {
    return BclErr::kBadTarget;
  }
  if (args.channel.kind > ChanKind::kOpen) return BclErr::kBadTarget;
  switch (args.channel.kind) {
    case ChanKind::kSystem:
      if (args.len > cfg_.sys_slot_bytes) return BclErr::kTooBig;
      break;
    case ChanKind::kNormal:
      if (args.channel.index >= cfg_.normal_channels) {
        return BclErr::kBadTarget;
      }
      break;
    case ChanKind::kOpen:
      if (args.channel.index >= cfg_.open_channels) {
        return BclErr::kBadTarget;
      }
      break;
  }
  if (args.op != SendOp::kRmaRead && args.len > 0 &&
      kernel_.validate_buffer(proc, args.vaddr, args.len) !=
          osk::KernErr::kOk) {
    return BclErr::kBadBuffer;
  }
  return BclErr::kOk;
}

sim::Task<Result<std::uint64_t>> Driver::ioctl_send(osk::Process& proc,
                                                    Port& port,
                                                    const SendArgs& args) {
  const std::uint64_t msg_id = next_msg_id_++;
  {
    auto span = trace_.span(comp_, "trap-enter", msg_id);
    co_await kernel_.trap_enter(proc);
  }
  {
    auto span = trace_.span(comp_, "security-check", msg_id);
    co_await kernel_.charge_check(proc);
  }
  if (const BclErr err = validate_send(proc, port, args);
      err != BclErr::kOk) {
    co_return Result<std::uint64_t>{0, co_await leave(proc, err)};
  }

  SendDescriptor d;
  d.msg_id = msg_id;
  d.src = port.id();
  d.dst = args.dst;
  d.channel = args.channel;
  d.op = args.op;
  d.total_len = args.len;
  d.rma_offset = args.rma_offset;
  d.reply_channel = args.reply_channel;
  const bool pins_pages = args.op != SendOp::kRmaRead && args.len > 0;
  const std::uint64_t pages = pins_pages ? page_span(args.vaddr, args.len) : 0;
  if (pins_pages) {
    auto span = trace_.span(comp_, "translate-pin", msg_id);
    auto segs = co_await try_pin(proc, args.vaddr, args.len);
    if (!segs) {
      span.end();
      co_return Result<std::uint64_t>{
          0, co_await leave(proc, BclErr::kNoResources)};
    }
    d.segs = std::move(*segs);
    pinned_uncommitted_ += pages;
  } else {
    // Zero-length / RMA read: the table search still happens, and it is
    // part of the kernel's 4.17 us increment, so it gets the same stage.
    auto span = trace_.span(comp_, "translate-pin", msg_id);
    co_await proc.cpu().busy(kernel_.config().pindown.lookup);
  }

  // Credit check: remote system-channel sends consume one end-to-end
  // credit.  The MCP keeps a host-memory credit word fresh by DMA, so the
  // kernel reads host memory here, not NIC SRAM.  Refusing now (instead of
  // launching a packet the receiver must RNR or drop) is the whole point:
  // the pages pinned above are released, nothing touched the NIC.
  const bool fc = cfg_.flow_control && args.op == SendOp::kSend &&
                  args.channel.kind == ChanKind::kSystem;
  if (fc) {
    co_await proc.cpu().busy(cfg_.fc_check);
    if (!mcp_.flow().try_consume(args.dst)) {
      ++credit_blocks_;
      if (pins_pages) release_pins(proc, args, pages);
      co_await kernel_.trap_exit(proc);
      co_return Result<std::uint64_t>{0, BclErr::kWouldBlock};
    }
  }

  const int pio_words =
      d.pio_words(cfg_.desc_words_base, cfg_.desc_words_per_seg);
  {
    // Fill the send request descriptor in NIC SRAM word by word.
    auto span = trace_.span(comp_, "pio-fill", msg_id);
    co_await kernel_.node().pci().pio_write(pio_words);
  }
  m_sends_.inc();
  m_send_bytes_.add(args.len);
  m_pio_words_.add(static_cast<std::uint64_t>(pio_words));
  trace_.flow_begin(comp_, "msg", flow_key(kernel_.node().id(), msg_id));
  // Causal ledger entry for the attribution pipeline; the begin time also
  // absorbs any credit-wait the library parked for this node.
  trace_.msg_begin(flow_key(kernel_.node().id(), msg_id), "send",
                   static_cast<int>(kernel_.node().id()),
                   static_cast<int>(args.dst.node), args.len);
  {
    auto span = trace_.span(comp_, "trap-exit", msg_id);
    co_await kernel_.trap_exit(proc);
  }
  // The descriptor's valid bit is armed as the ioctl returns, so the MCP
  // picks it up only now — this matches the paper's stage accounting, where
  // the whole 4.17 us of kernel work precedes NIC processing (Fig. 7).
  // Blocking here models a full request ring.
  if (args.nonblock) {
    if (!mcp_.requests().try_send(std::move(d))) {
      // Descriptor ring full: undo the credit and the pins — the caller
      // asked never to park, and nothing reached the NIC.
      if (fc) mcp_.flow().refund(args.dst);
      if (pins_pages) release_pins(proc, args, pages);
      co_return Result<std::uint64_t>{0, BclErr::kNoResources};
    }
  } else {
    co_await mcp_.requests().send(std::move(d));
  }
  if (pins_pages) pinned_uncommitted_ -= pages;  // descriptor committed
  co_return Result<std::uint64_t>{msg_id, BclErr::kOk};
}

sim::Task<void> Driver::reset_nic() {
  if (!mcp_.crashed()) co_return;
  // Reload the control program: a PIO burst for the image header, then the
  // fixed reboot window while the MCP reinitialises its SRAM tables.  The
  // kernel's port/channel registrations are host-resident and re-pushed as
  // part of this reload, so they need no per-port replay here.
  co_await kernel_.node().pci().pio_write(cfg_.desc_words_base);
  co_await kernel_.engine().sleep(cfg_.mcp_reboot_delay);
  mcp_.reset();
}

sim::Task<BclErr> Driver::ioctl_post_recv(osk::Process& proc, Port& port,
                                          std::uint16_t channel,
                                          const osk::UserBuffer& buf) {
  co_await kernel_.trap_enter(proc);
  co_await kernel_.charge_check(proc);
  BclErr err = BclErr::kOk;
  if (kernel_.validate_caller(proc, port.process().pid()) !=
      osk::KernErr::kOk) {
    err = BclErr::kBadPid;
  } else if (channel >= port.normal_count()) {
    err = BclErr::kBadTarget;
  } else if (kernel_.validate_buffer(proc, buf.vaddr, buf.len) !=
             osk::KernErr::kOk) {
    err = BclErr::kBadBuffer;
  } else {
    if (port.normal(channel).posted) {
      err = BclErr::kNoResources;  // one posted buffer at a time
    } else if (auto segs = co_await try_pin(proc, buf.vaddr, buf.len)) {
      port.post(channel, buf, std::move(*segs));
      // Registering the channel descriptor with the NIC costs a few words.
      co_await kernel_.node().pci().pio_write(cfg_.desc_words_base);
    } else {
      err = BclErr::kNoResources;
    }
  }
  co_return co_await leave(proc, err);
}

sim::Task<BclErr> Driver::ioctl_bind_open(osk::Process& proc, Port& port,
                                          std::uint16_t channel,
                                          const osk::UserBuffer& buf) {
  co_await kernel_.trap_enter(proc);
  co_await kernel_.charge_check(proc);
  BclErr err = BclErr::kOk;
  if (kernel_.validate_caller(proc, port.process().pid()) !=
      osk::KernErr::kOk) {
    err = BclErr::kBadPid;
  } else if (channel >= port.open_count()) {
    err = BclErr::kBadTarget;
  } else if (kernel_.validate_buffer(proc, buf.vaddr, buf.len) !=
             osk::KernErr::kOk) {
    err = BclErr::kBadBuffer;
  } else {
    const auto& st = port.open(channel);
    if (st.bound) kernel_.pindown().unpin(proc, st.buf.vaddr, st.buf.len);
    if (auto segs = co_await try_pin(proc, buf.vaddr, buf.len)) {
      port.bind(channel, buf, std::move(*segs));
      co_await kernel_.node().pci().pio_write(cfg_.desc_words_base);
    } else {
      port.unbind(channel);  // the old window's pins are gone
      err = BclErr::kNoResources;
    }
  }
  co_return co_await leave(proc, err);
}

sim::Task<BclErr> Driver::ioctl_register_group(osk::Process& proc,
                                               Port& port,
                                               const RegisterGroupArgs& args) {
  co_await kernel_.trap_enter(proc);
  co_await kernel_.charge_check(proc);
  BclErr err = BclErr::kOk;
  const std::size_t n = args.members.size();
  if (kernel_.validate_caller(proc, port.process().pid()) !=
      osk::KernErr::kOk) {
    err = BclErr::kBadPid;
  } else if (n < 2 || n > 0xffff || args.my_index >= n) {
    err = BclErr::kBadTarget;
  } else if (!(args.members[args.my_index] == port.id())) {
    // The registering port must be the member slot it claims.
    err = BclErr::kBadPid;
  } else if (args.result_buf.len == 0 ||
             kernel_.validate_buffer(proc, args.result_buf.vaddr,
                                     args.result_buf.len) !=
                 osk::KernErr::kOk) {
    err = BclErr::kBadBuffer;
  } else {
    std::set<hw::NodeId> nodes;
    for (const PortId& m : args.members) {
      if (kernel_.validate_target(m.node, cluster_nodes_, m.port,
                                  cfg_.max_ports) != osk::KernErr::kOk ||
          !nodes.insert(m.node).second) {  // one member per node
        err = BclErr::kBadTarget;
        break;
      }
    }
  }
  if (err == BclErr::kOk) {
    coll::GroupDescriptor desc;
    desc.id = args.group_id;
    desc.members = args.members;
    desc.my_index = args.my_index;
    desc.arity = std::max(1, cfg_.coll_arity);
    desc.result_buf = args.result_buf;
    // The tree follows the fabric's geometry; every operation derives its
    // links from this order on the NIC.
    if (const hw::Fabric* fabric = kernel_.node().nic().fabric()) {
      desc.order = coll::tree_order(*fabric, args.members);
    }
    auto segs =
        co_await try_pin(proc, args.result_buf.vaddr, args.result_buf.len);
    if (!segs) {
      err = BclErr::kNoResources;
    } else {
      desc.result_segs = std::move(*segs);
      // The descriptor (members, curve order, buffer pages) goes to NIC
      // SRAM word by word; the NIC inverts the order itself.
      co_await kernel_.node().pci().pio_write(
          cfg_.desc_words_base + 2 * static_cast<int>(n) +
          static_cast<int>(desc.order.members.size()) +
          cfg_.desc_words_per_seg * static_cast<int>(desc.result_segs.size()));
      const osk::UserBuffer pinned = desc.result_buf;
      err = mcp_.coll().register_group(std::move(desc));
      if (err != BclErr::kOk) {
        kernel_.pindown().unpin(proc, pinned.vaddr, pinned.len);
      }
    }
  }
  co_return co_await leave(proc, err);
}

sim::Task<Result<std::uint64_t>> Driver::ioctl_coll_post(
    osk::Process& proc, Port& port, const CollPostArgs& args) {
  co_await kernel_.trap_enter(proc);
  co_await kernel_.charge_check(proc);
  BclErr err = BclErr::kOk;
  coll::GroupDescriptor* g = mcp_.coll().find_group(args.group_id);
  if (kernel_.validate_caller(proc, port.process().pid()) !=
      osk::KernErr::kOk) {
    err = BclErr::kBadPid;
  } else if (g == nullptr ||
             args.root >= static_cast<std::uint16_t>(g->size())) {
    err = BclErr::kBadTarget;
  } else if (!(g->members[g->my_index] == port.id())) {
    err = BclErr::kBadPid;
  } else if (args.len > g->result_buf.len) {
    err = BclErr::kTooBig;  // the pinned result buffer must hold it
  } else if ((args.kind == coll::CollKind::kBarrier && args.len != 0) ||
             ((args.kind == coll::CollKind::kReduce ||
               args.kind == coll::CollKind::kAllreduce) &&
              args.len % sizeof(double) != 0)) {
    // A barrier carries nothing, and reductions combine whole doubles; a
    // ragged length would make the NIC accumulator read past its last
    // element.
    err = BclErr::kBadBuffer;
  } else if (args.len > 0 &&
             kernel_.validate_buffer(proc, args.vaddr, args.len) !=
                 osk::KernErr::kOk) {
    err = BclErr::kBadBuffer;
  }
  coll::CollPost post;
  // Read before the pin and PIO below: a crash meanwhile frees `g`.
  const bool origin = err == BclErr::kOk && g->my_index == args.root;
  if (err == BclErr::kOk) {
    post.group = args.group_id;
    post.kind = args.kind;
    post.root = args.root;
    post.op = args.op;
    post.seq = args.seq;
    post.len = args.len;
    if (args.len > 0) {
      auto segs = co_await try_pin(proc, args.vaddr, args.len);
      if (segs) {
        post.segs = std::move(*segs);
      } else {
        err = BclErr::kNoResources;
      }
    } else {
      co_await proc.cpu().busy(kernel_.config().pindown.lookup);
    }
  }
  if (err != BclErr::kOk) {
    co_return Result<std::uint64_t>{0, co_await leave(proc, err)};
  }
  const int pio_words =
      cfg_.desc_words_base +
      cfg_.desc_words_per_seg * static_cast<int>(post.segs.size());
  co_await kernel_.node().pci().pio_write(pio_words);
  m_pio_words_.add(static_cast<std::uint64_t>(pio_words));
  // One flow arrow per collective: the operation's root member owns
  // begin/end; everyone else contributes steps.
  if (origin) {
    trace_.flow_begin(comp_, "coll",
                      coll::coll_flow_key(args.group_id, args.seq));
  } else {
    trace_.flow_step(comp_, "coll",
                     coll::coll_flow_key(args.group_id, args.seq));
  }
  co_await kernel_.trap_exit(proc);
  // As with sends, the valid bit arms as the ioctl returns; blocking here
  // models a full collective-post ring.
  co_await mcp_.coll().posts().send(std::move(post));
  co_return Result<std::uint64_t>{args.seq, BclErr::kOk};
}

}  // namespace bcl
