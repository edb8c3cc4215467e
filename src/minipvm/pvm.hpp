// Mini-PVM over EADI-2 (the paper implements PVM on EADI-2 rather than
// directly on BCL — section 2.1 — which is why Table 3 reports both).
//
// The classic PVM model: pack typed data into the active send buffer,
// pvm_send it to a task id, pvm_recv into the active receive buffer, and
// unpack in order.  Packing costs an encode pass over the data.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "eadi/eadi.hpp"
#include "sim/metrics.hpp"

namespace minipvm {

inline constexpr int kAnyTid = -1;
inline constexpr int kAnyTag = -1;

struct PvmConfig {
  sim::Time call_overhead = sim::Time::us(0.30);  // pvm_* entry cost
  double pack_bw = 700e6;                         // typed encode memcpy
  sim::Time pack_setup = sim::Time::us(0.12);
  // Blocks at least this large go through the PvmDataInPlace path: no
  // encode pass, the message references the user data directly.
  std::size_t inplace_threshold = 8192;
  std::size_t max_message = 1u << 20;
};

class Pvm {
 public:
  // Counts into the task's pvm.tid<t>.* series in `metrics`.
  Pvm(sim::Engine& eng, eadi::Device& dev, std::vector<bcl::PortId> world,
      int tid, const PvmConfig& cfg, sim::MetricRegistry& metrics);

  int tid() const { return tid_; }
  int ntasks() const { return static_cast<int>(world_.size()); }
  osk::Process& process() { return dev_.process(); }

  // -- send side ----------------------------------------------------------------
  void initsend();  // resets the active send buffer
  sim::Task<void> pkint(std::span<const std::int32_t> v);
  sim::Task<void> pkdouble(std::span<const double> v);
  sim::Task<void> pkfloat(std::span<const float> v);
  sim::Task<void> pkbytes(std::span<const std::byte> v);
  // Length-prefixed string (unpacked with upkstr).
  sim::Task<void> pkstr(std::string_view s);
  sim::Task<void> send(int dst_tid, int tag);
  // pvm_mcast: the same buffer to several tasks.
  sim::Task<void> mcast(std::span<const int> dst_tids, int tag);

  // -- receive side -----------------------------------------------------------------
  // Blocks for a message from dst (kAnyTid) with tag (kAnyTag); the payload
  // becomes the active receive buffer.  Returns the sender's tid.
  sim::Task<int> recv(int src_tid, int tag);
  sim::Task<void> upkint(std::span<std::int32_t> v);
  sim::Task<void> upkdouble(std::span<double> v);
  sim::Task<void> upkfloat(std::span<float> v);
  sim::Task<void> upkbytes(std::span<std::byte> v);
  sim::Task<std::string> upkstr();

  std::size_t recv_len() const { return recv_size_; }

 private:
  static constexpr std::int32_t kPvmContext = 2;

  int tid_of(bcl::PortId id) const;
  sim::Task<void> pack_raw(std::span<const std::byte> raw);
  sim::Task<void> unpack_raw(std::span<std::byte> out);

  sim::Engine& eng_;
  eadi::Device& dev_;
  std::vector<bcl::PortId> world_;
  int tid_;
  PvmConfig cfg_;

  osk::UserBuffer send_buf_{};   // active send buffer (user memory)
  std::size_t send_size_ = 0;
  osk::UserBuffer recv_buf_{};   // active receive buffer
  std::size_t recv_size_ = 0;
  std::size_t recv_pos_ = 0;
  // Metric handles, resolved once at construction.
  sim::Counter& m_sends_;
  sim::Counter& m_recvs_;
  sim::Counter& m_packed_bytes_;
  sim::Histogram& m_send_bytes_;
};

}  // namespace minipvm
