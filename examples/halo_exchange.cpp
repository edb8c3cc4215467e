// Jacobi heat diffusion with halo exchange over mini-MPI.
//
// A 1-D domain decomposition of a 2-D grid across 8 ranks on 4 nodes:
// each iteration exchanges boundary rows with both neighbours, relaxes the
// interior, and every few iterations the ranks allreduce the residual.
// The example verifies the parallel result against a serial computation.
//
// Run: ./build/examples/halo_exchange
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "cluster/cluster.hpp"

namespace {

constexpr int kRanks = 8;
constexpr int kNx = 64;            // columns
constexpr int kRowsPerRank = 8;    // interior rows per rank
constexpr int kNy = kRanks * kRowsPerRank;
constexpr int kIters = 30;

double initial_value(int y, int x) {
  // Hot edge at y == 0, a hot spot in the middle.
  if (y == 0) return 100.0;
  if (y == kNy / 2 && x == kNx / 2) return 50.0;
  return 0.0;
}

bool is_fixed(int y, int x) {
  return y == 0 || (y == kNy / 2 && x == kNx / 2);
}

// Serial reference: full-grid Jacobi.
std::vector<double> serial_solution() {
  std::vector<double> grid(kNy * kNx), next(kNy * kNx);
  for (int y = 0; y < kNy; ++y) {
    for (int x = 0; x < kNx; ++x) grid[y * kNx + x] = initial_value(y, x);
  }
  for (int it = 0; it < kIters; ++it) {
    for (int y = 0; y < kNy; ++y) {
      for (int x = 0; x < kNx; ++x) {
        if (is_fixed(y, x) || y == kNy - 1 || x == 0 || x == kNx - 1) {
          next[y * kNx + x] = grid[y * kNx + x];
          continue;
        }
        next[y * kNx + x] = 0.25 * (grid[(y - 1) * kNx + x] +
                                    grid[(y + 1) * kNx + x] +
                                    grid[y * kNx + x - 1] +
                                    grid[y * kNx + x + 1]);
      }
    }
    grid.swap(next);
  }
  return grid;
}

// Leaves the rank's interior rows in `out` and the simulated time it
// finished in `done_at`.
sim::Task<void> jacobi_rank(cluster::World& world, int rank,
                            std::vector<double>& out, sim::Time& done_at) {
  auto& me = world.mpi(rank);
  const int y0 = rank * kRowsPerRank;  // first owned row
  constexpr std::size_t kRowBytes = kNx * sizeof(double);

  // Local block with one halo row above and below.
  std::vector<double> grid((kRowsPerRank + 2) * kNx, 0.0);
  std::vector<double> next = grid;
  for (int r = 0; r < kRowsPerRank; ++r) {
    for (int x = 0; x < kNx; ++x) {
      grid[(r + 1) * kNx + x] = initial_value(y0 + r, x);
    }
  }
  auto up_out = me.process().alloc(kRowBytes);
  auto down_out = me.process().alloc(kRowBytes);
  auto up_in = me.process().alloc(kRowBytes);
  auto down_in = me.process().alloc(kRowBytes);

  for (int it = 0; it < kIters; ++it) {
    // Exchange halos with neighbours (no wrap-around).
    std::vector<minimpi::Mpi::Request> reqs;
    if (rank > 0) {
      me.write_doubles(up_out, std::span{grid}.subspan(kNx, kNx));
      reqs.push_back(me.isend(up_out, kRowBytes, rank - 1, 10));
      reqs.push_back(me.irecv(up_in, rank - 1, 11));
    }
    if (rank < kRanks - 1) {
      me.write_doubles(down_out,
                       std::span{grid}.subspan(kRowsPerRank * kNx, kNx));
      reqs.push_back(me.isend(down_out, kRowBytes, rank + 1, 11));
      reqs.push_back(me.irecv(down_in, rank + 1, 10));
    }
    co_await me.waitall(std::move(reqs));
    if (rank > 0) {
      const auto halo = me.read_doubles(up_in, kNx);
      std::copy(halo.begin(), halo.end(), grid.begin());
    }
    if (rank < kRanks - 1) {
      const auto halo = me.read_doubles(down_in, kNx);
      std::copy(halo.begin(), halo.end(),
                grid.begin() + (kRowsPerRank + 1) * kNx);
    }

    // Relax the interior (cost model: a few ns per cell).
    co_await me.process().cpu().busy(
        sim::Time::ns(5.0 * kRowsPerRank * kNx));
    for (int r = 1; r <= kRowsPerRank; ++r) {
      const int y = y0 + r - 1;
      for (int x = 0; x < kNx; ++x) {
        // Global boundaries and fixed cells hold; everything else relaxes
        // (halo rows supply the cross-rank neighbours).
        if (y == 0 || y == kNy - 1 || x == 0 || x == kNx - 1 ||
            is_fixed(y, x)) {
          next[r * kNx + x] = grid[r * kNx + x];
        } else {
          next[r * kNx + x] = 0.25 * (grid[(r - 1) * kNx + x] +
                                      grid[(r + 1) * kNx + x] +
                                      grid[r * kNx + x - 1] +
                                      grid[r * kNx + x + 1]);
        }
      }
    }
    grid.swap(next);

    if (it % 10 == 9) {
      // Global heat via allreduce (diagnostic).
      double local = 0;
      for (int r = 1; r <= kRowsPerRank; ++r) {
        for (int x = 0; x < kNx; ++x) {
          local += grid[r * kNx + x];
        }
      }
      auto in = me.process().alloc(sizeof(double));
      auto out_buf = me.process().alloc(sizeof(double));
      me.write_doubles(in, std::vector<double>{local});
      co_await me.allreduce(in, out_buf, 1);
      if (rank == 0) {
        std::printf("  iter %2d: total heat %.3f (t=%s)\n", it + 1,
                    me.read_doubles(out_buf, 1)[0],
                    world.engine().now().str().c_str());
      }
      me.process().free(in);
      me.process().free(out_buf);
    }
  }
  out.assign(grid.begin() + kNx, grid.begin() + (kRowsPerRank + 1) * kNx);
  done_at = world.engine().now();
}

}  // namespace

int main() {
  std::printf("Jacobi %dx%d on %d MPI ranks over BCL (4 nodes x 2 ranks)\n",
              kNy, kNx, kRanks);
  cluster::WorldConfig cfg;
  cfg.cluster.nodes = 4;
  cfg.cluster.node.mem_bytes = 32u << 20;
  cluster::World world{cfg, kRanks};
  std::vector<std::vector<double>> blocks(kRanks);
  std::vector<sim::Time> done_at(kRanks);
  for (int r = 0; r < kRanks; ++r) {
    world.engine().spawn(jacobi_rank(world, r, blocks[r], done_at[r]));
  }
  world.engine().run();

  const auto reference = serial_solution();
  double max_err = 0;
  for (int rank = 0; rank < kRanks; ++rank) {
    for (int r = 0; r < kRowsPerRank; ++r) {
      for (int x = 0; x < kNx; ++x) {
        const double got = blocks[rank][r * kNx + x];
        const double want =
            reference[(rank * kRowsPerRank + r) * kNx + x];
        max_err = std::max(max_err, std::abs(got - want));
      }
    }
  }
  std::printf("max |parallel - serial| = %.2e  (%s)\n", max_err,
              max_err < 1e-9 ? "MATCH" : "MISMATCH");
  // When the last rank finished: the engine's own clock runs on past it, to
  // the collective watchdog's last deadline.
  std::printf("simulated wall time: %s\n",
              std::max_element(done_at.begin(), done_at.end())->str().c_str());
  return max_err < 1e-9 ? 0 : 1;
}
