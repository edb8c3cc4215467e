#include "cluster/workload.hpp"

#include "sim/random.hpp"

namespace cluster::workload {

sim::Task<void> shift_traffic(minimpi::Mpi& me, int rounds,
                              std::size_t bytes, std::uint64_t seed) {
  sim::Rng rng{seed};  // same stream on every rank
  const int n = me.size();
  auto sbuf = me.process().alloc(std::max<std::size_t>(bytes, 1));
  auto rbuf = me.process().alloc(std::max<std::size_t>(bytes, 1));
  for (int r = 0; r < rounds; ++r) {
    const int shift = 1 + static_cast<int>(rng.below(
                              static_cast<std::uint64_t>(n > 1 ? n - 1 : 1)));
    const int dst = (me.rank() + shift) % n;
    const int src = (me.rank() - shift + n) % n;
    auto sreq = me.isend(sbuf, bytes, dst, /*tag=*/900 + r);
    (void)co_await me.recv(rbuf, src, /*tag=*/900 + r);
    (void)co_await me.wait(sreq);
  }
  me.process().free(sbuf);
  me.process().free(rbuf);
}

sim::Task<void> bsp_ring(minimpi::Mpi& me, int rounds, std::size_t bytes,
                         double compute_us) {
  const int n = me.size();
  const int left = (me.rank() - 1 + n) % n;
  const int right = (me.rank() + 1) % n;
  auto out_l = me.process().alloc(std::max<std::size_t>(bytes, 1));
  auto out_r = me.process().alloc(std::max<std::size_t>(bytes, 1));
  auto in_l = me.process().alloc(std::max<std::size_t>(bytes, 1));
  auto in_r = me.process().alloc(std::max<std::size_t>(bytes, 1));
  for (int r = 0; r < rounds; ++r) {
    co_await me.process().cpu().busy(sim::Time::us(compute_us));
    auto s1 = me.isend(out_l, bytes, left, /*tag=*/700);
    auto s2 = me.isend(out_r, bytes, right, /*tag=*/701);
    auto r1 = me.irecv(in_r, right, /*tag=*/700);
    auto r2 = me.irecv(in_l, left, /*tag=*/701);
    std::vector<minimpi::Mpi::Request> reqs{s1, s2, r1, r2};
    co_await me.waitall(std::move(reqs));
  }
  for (const auto& buf : {out_l, out_r, in_l, in_r}) me.process().free(buf);
}

}  // namespace cluster::workload
