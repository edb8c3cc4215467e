#include "bcl/coll/port.hpp"

#include "bcl/coll/engine.hpp"

namespace bcl::coll {

CollPort::CollPort(Endpoint& ep, std::uint16_t id, std::uint16_t my_index,
                   int n, osk::UserBuffer buf)
    : ep_{ep}, id_{id}, my_index_{my_index}, n_{n}, buf_{buf} {}

sim::Task<Result<std::unique_ptr<CollPort>>> CollPort::create(
    Endpoint& ep, std::uint16_t group_id, std::vector<PortId> members,
    std::size_t buf_bytes) {
  std::uint16_t idx = 0;
  bool found = false;
  for (std::size_t i = 0; i < members.size(); ++i) {
    if (members[i] == ep.id()) {
      idx = static_cast<std::uint16_t>(i);
      found = true;
      break;
    }
  }
  if (!found || buf_bytes == 0) {
    co_return Result<std::unique_ptr<CollPort>>{nullptr, BclErr::kBadTarget};
  }
  bool alloc_failed = false;
  osk::UserBuffer buf{};
  try {
    buf = ep.process().alloc(buf_bytes);
  } catch (const std::bad_alloc&) {
    alloc_failed = true;
  }
  if (alloc_failed) {
    co_return Result<std::unique_ptr<CollPort>>{nullptr,
                                                BclErr::kNoResources};
  }
  RegisterGroupArgs args;
  args.group_id = group_id;
  args.members = members;
  args.my_index = idx;
  args.result_buf = buf;
  const BclErr err = co_await ep.driver().ioctl_register_group(
      ep.process(), ep.port(), args);
  if (err != BclErr::kOk) {
    ep.process().free(buf);
    co_return Result<std::unique_ptr<CollPort>>{nullptr, err};
  }
  co_return Result<std::unique_ptr<CollPort>>{
      std::unique_ptr<CollPort>(new CollPort(
          ep, group_id, idx, static_cast<int>(members.size()), buf)),
      BclErr::kOk};
}

CollPort::~CollPort() {
  ep_.mcp().coll().unregister_group(id_);
  ep_.port().drain_coll_events(id_);
  ep_.driver().kernel().pindown().unpin(ep_.process(), buf_.vaddr,
                                        buf_.len);
  ep_.process().free(buf_);
}

sim::Task<CollEvent> CollPort::wait_event(std::uint64_t seq) {
  if (failed_) {
    co_return CollEvent{id_, seq, CollKind::kBarrier, 0, 0, false,
                        BclErr::kPeerUnreachable};
  }
  const auto it = held_.find(seq);
  if (it != held_.end()) {
    const CollEvent ev = it->second;
    held_.erase(it);
    co_return ev;
  }
  for (;;) {
    CollEvent ev = co_await ep_.port().coll_events(id_).recv();
    co_await ep_.process().cpu().busy(ep_.cost().recv_event_poll);
    if (!ev.ok && ev.seq == 0) {
      // Group-wide failure: unblocks this wait whatever sequence it was
      // parked on, and fails every later operation fast.
      failed_ = true;
      co_return ev;
    }
    if (ev.seq == seq) co_return ev;
    held_.emplace(ev.seq, ev);  // a later wait will claim it
  }
}

std::uint64_t CollPort::begin_op() {
  const std::uint64_t seq = next_seq_++;
  release(seq - 1);
  return seq;
}

void CollPort::release(std::uint64_t seq) {
  ep_.mcp().coll().host_done(id_, seq);
}

sim::Task<void> CollPort::copy_from_result(std::uint64_t seq,
                                           const osk::UserBuffer& dst,
                                           std::size_t len) {
  if (len == 0) co_return;
  std::vector<std::byte> tmp(len);
  ep_.process().peek(buf_, 0, tmp);
  release(seq);
  co_await ep_.process().cpu().busy(ep_.process().cpu().memcpy_time(len));
  ep_.process().poke(dst, 0, tmp);
}

sim::Task<BclErr> CollPort::barrier() {
  const std::uint64_t seq = begin_op();
  CollPostArgs a;
  a.group_id = id_;
  a.kind = CollKind::kBarrier;
  a.seq = seq;
  const auto r =
      co_await ep_.driver().ioctl_coll_post(ep_.process(), ep_.port(), a);
  if (!r.ok()) co_return r.err;
  const CollEvent ev = co_await wait_event(seq);
  release(seq);
  co_return ev.ok ? BclErr::kOk : event_err(ev);
}

sim::Task<BclErr> CollPort::bcast(const osk::UserBuffer& buf,
                                  std::size_t len, int root) {
  const std::uint64_t seq = begin_op();
  if (len > buf_.len) co_return BclErr::kTooBig;
  if (root == my_index_) {
    CollPostArgs a;
    a.group_id = id_;
    a.kind = CollKind::kBcast;
    a.root = static_cast<std::uint16_t>(root);
    a.seq = seq;
    a.vaddr = buf.vaddr;
    a.len = len;
    const auto r =
        co_await ep_.driver().ioctl_coll_post(ep_.process(), ep_.port(), a);
    if (!r.ok()) co_return r.err;
    const CollEvent ev = co_await wait_event(seq);
    release(seq);
    if (!ev.ok) co_return event_err(ev);
  } else {
    // Receivers only poll: the data lands in the pinned result buffer by
    // NIC DMA, announced by a single completion event.  A failed event
    // means the root's payload overflowed our result buffer (or the
    // group lost a member).
    const CollEvent ev = co_await wait_event(seq);
    if (!ev.ok) co_return event_err(ev);
    co_await copy_from_result(seq, buf, len);
  }
  co_return BclErr::kOk;
}

sim::Task<BclErr> CollPort::reduce(const osk::UserBuffer& src,
                                   const osk::UserBuffer& dst,
                                   std::size_t count, CollOp op, int root) {
  const std::uint64_t seq = begin_op();
  const std::size_t bytes = count * sizeof(double);
  if (bytes > buf_.len) co_return BclErr::kTooBig;
  CollPostArgs a;
  a.group_id = id_;
  a.kind = CollKind::kReduce;
  a.root = static_cast<std::uint16_t>(root);
  a.op = op;
  a.seq = seq;
  a.vaddr = src.vaddr;
  a.len = bytes;
  const auto r =
      co_await ep_.driver().ioctl_coll_post(ep_.process(), ep_.port(), a);
  if (!r.ok()) co_return r.err;
  const CollEvent ev = co_await wait_event(seq);
  if (root != my_index_) release(seq);
  if (!ev.ok) co_return event_err(ev);
  if (root == my_index_) co_await copy_from_result(seq, dst, bytes);
  co_return BclErr::kOk;
}

sim::Task<BclErr> CollPort::allreduce(const osk::UserBuffer& src,
                                      const osk::UserBuffer& dst,
                                      std::size_t count, CollOp op) {
  const std::uint64_t seq = begin_op();
  const std::size_t bytes = count * sizeof(double);
  if (bytes > buf_.len) co_return BclErr::kTooBig;
  CollPostArgs a;
  a.group_id = id_;
  a.kind = CollKind::kAllreduce;
  a.root = 0;
  a.op = op;
  a.seq = seq;
  a.vaddr = src.vaddr;
  a.len = bytes;
  const auto r =
      co_await ep_.driver().ioctl_coll_post(ep_.process(), ep_.port(), a);
  if (!r.ok()) co_return r.err;
  const CollEvent ev = co_await wait_event(seq);
  if (!ev.ok) co_return event_err(ev);
  co_await copy_from_result(seq, dst, bytes);
  co_return BclErr::kOk;
}

}  // namespace bcl::coll
