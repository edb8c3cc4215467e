#include "minipvm/pvm.hpp"

#include <cstring>
#include <stdexcept>

namespace minipvm {

namespace {

// "pvm.tid<t>.<what>"
std::string tid_series(int tid, const char* what) {
  return "pvm.tid" + std::to_string(tid) + "." + what;
}

}  // namespace

Pvm::Pvm(sim::Engine& eng, eadi::Device& dev, std::vector<bcl::PortId> world,
         int tid, const PvmConfig& cfg, sim::MetricRegistry& metrics)
    : eng_{eng},
      dev_{dev},
      world_{std::move(world)},
      tid_{tid},
      cfg_{cfg},
      m_sends_{metrics.counter(tid_series(tid, "sends"))},
      m_recvs_{metrics.counter(tid_series(tid, "recvs"))},
      m_packed_bytes_{metrics.counter(tid_series(tid, "packed_bytes"))},
      m_send_bytes_{metrics.histogram(tid_series(tid, "send_bytes"))} {
  if (tid_ < 0 || tid_ >= ntasks()) throw std::invalid_argument("bad tid");
  send_buf_ = process().alloc(cfg_.max_message);
  recv_buf_ = process().alloc(cfg_.max_message);
}

int Pvm::tid_of(bcl::PortId id) const {
  for (int t = 0; t < ntasks(); ++t) {
    if (world_[static_cast<std::size_t>(t)] == id) return t;
  }
  return kAnyTid;
}

void Pvm::initsend() { send_size_ = 0; }

sim::Task<void> Pvm::pack_raw(std::span<const std::byte> raw) {
  if (send_size_ + raw.size() > cfg_.max_message) {
    throw std::length_error("pvm send buffer overflow");
  }
  // Large raw blocks take the PvmDataInPlace route: no encode pass.  (The
  // bytes still land in the pack buffer here — that is simulation
  // bookkeeping, not a modelled cost.)
  const sim::Time cost =
      raw.size() >= cfg_.inplace_threshold
          ? cfg_.pack_setup
          : cfg_.pack_setup + sim::Time::bytes_at(raw.size(), cfg_.pack_bw);
  co_await process().cpu().busy(cost);
  m_packed_bytes_.add(raw.size());
  process().poke(send_buf_, send_size_, raw);
  send_size_ += raw.size();
}

sim::Task<void> Pvm::unpack_raw(std::span<std::byte> out) {
  if (recv_pos_ + out.size() > recv_size_) {
    throw std::length_error("pvm unpack past message end");
  }
  const sim::Time cost =
      out.size() >= cfg_.inplace_threshold
          ? cfg_.pack_setup
          : cfg_.pack_setup + sim::Time::bytes_at(out.size(), cfg_.pack_bw);
  co_await process().cpu().busy(cost);
  process().peek(recv_buf_, recv_pos_, out);
  recv_pos_ += out.size();
}

sim::Task<void> Pvm::pkint(std::span<const std::int32_t> v) {
  co_await pack_raw(std::as_bytes(v));
}
sim::Task<void> Pvm::pkdouble(std::span<const double> v) {
  co_await pack_raw(std::as_bytes(v));
}
sim::Task<void> Pvm::pkfloat(std::span<const float> v) {
  co_await pack_raw(std::as_bytes(v));
}
sim::Task<void> Pvm::pkbytes(std::span<const std::byte> v) {
  co_await pack_raw(v);
}

sim::Task<void> Pvm::pkstr(std::string_view s) {
  const std::uint32_t len = static_cast<std::uint32_t>(s.size());
  co_await pack_raw(std::as_bytes(std::span{&len, 1}));
  co_await pack_raw(std::as_bytes(std::span{s.data(), s.size()}));
}

sim::Task<void> Pvm::send(int dst_tid, int tag) {
  co_await process().cpu().busy(cfg_.call_overhead);
  m_sends_.inc();
  m_send_bytes_.add(static_cast<double>(send_size_));
  co_await dev_.send(world_.at(static_cast<std::size_t>(dst_tid)),
                     kPvmContext, tag, send_buf_, send_size_);
}

sim::Task<int> Pvm::recv(int src_tid, int tag) {
  co_await process().cpu().busy(cfg_.call_overhead);
  const bcl::PortId from =
      src_tid == kAnyTid
          ? bcl::PortId{eadi::kAnyNode, 0}
          : world_.at(static_cast<std::size_t>(src_tid));
  const auto r = co_await dev_.recv(
      kPvmContext, tag == kAnyTag ? eadi::kAnyTag : tag, from, recv_buf_);
  recv_size_ = r.len;
  recv_pos_ = 0;
  m_recvs_.inc();
  co_return tid_of(r.src);
}

sim::Task<void> Pvm::upkint(std::span<std::int32_t> v) {
  co_await unpack_raw(std::as_writable_bytes(v));
}
sim::Task<void> Pvm::upkdouble(std::span<double> v) {
  co_await unpack_raw(std::as_writable_bytes(v));
}
sim::Task<void> Pvm::upkfloat(std::span<float> v) {
  co_await unpack_raw(std::as_writable_bytes(v));
}
sim::Task<void> Pvm::upkbytes(std::span<std::byte> v) {
  co_await unpack_raw(v);
}

sim::Task<std::string> Pvm::upkstr() {
  std::uint32_t len = 0;
  co_await unpack_raw(std::as_writable_bytes(std::span{&len, 1}));
  std::string s(len, '\0');
  co_await unpack_raw(std::as_writable_bytes(std::span{s.data(), s.size()}));
  co_return s;
}

sim::Task<void> Pvm::mcast(std::span<const int> dst_tids, int tag) {
  // PVM's mcast is unicast under the hood on most transports; the paper's
  // BCL explicitly leaves collective messaging to the upper layers.
  for (const int tid : dst_tids) {
    if (tid == tid_) continue;  // pvm_mcast excludes the sender
    co_await send(tid, tag);
  }
}

}  // namespace minipvm
