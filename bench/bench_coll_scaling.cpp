// Scaling of the NIC collective engine vs the host-level algorithms:
// barrier / broadcast / reduce / allreduce latency as the node count grows,
// one rank per node.  The NIC path combines and forwards on the MCPs along
// k-ary trees (no host trap at interior hops), so barrier latency should grow
// ~O(log n) and clearly beat the host dissemination barrier at scale
// (cf. Yu et al., "Efficient and Scalable Barrier over Quadrics and
// Myrinet with a New NIC-Based Collective Message Passing Protocol").
//
// Output: a human table plus one JSON line per (op, path, nodes) sample,
// suitable for plotting the scaling series.
//
//   --smoke    quick sanitizer-friendly run (2-8 nodes, few iterations)
//   --scale    the long sweep, 2-1024 nodes (powers of two, few
//              iterations): the NIC must beat the host for barrier,
//              broadcast, reduce and allreduce at every size
#include <cstdio>
#include <cstring>
#include <map>
#include <string>

#include "bench_util.hpp"
#include "cluster/cluster.hpp"

namespace {

constexpr std::size_t kBcastBytes = 8 * 1024;
constexpr std::size_t kReduceCount = 1024;

// Exit code for a diagnosed collective abort (peer declared unreachable
// under congestion).  CI allowlists exactly this value for the 64-node
// case and expects the post-mortem artifact next to it.
constexpr int kAbortExit = 42;
constexpr const char* kPostmortemFile = "postmortem_coll_scaling.json";

struct Meas {
  double barrier_us = 0;
  double bcast_us = 0;
  double reduce_us = 0;
  double allreduce_us = 0;
  bool aborted = false;
  std::string abort_what;
  // Hottest link by go-back-N resend count, from the fabric's congestion
  // report: the DCQCN-style rate controller should keep this near zero
  // where the uncontrolled column-ring pattern used to see ~850 per link.
  std::uint64_t max_retx = 0;
  std::string max_retx_link;
};

// An aborted case dumps the cluster's post-mortems (the flight-recorder
// timeline, congestion-ranked links, session ledgers) to kPostmortemFile
// and prints the headline diagnosis, instead of dying with a bare what().
void dump_postmortem(cluster::World& w, const char* kase,
                     const std::exception& e) {
  std::printf("\nABORT in %s: %s\n", kase, e.what());
  const auto& dumps = w.cluster().postmortems();
  if (!dumps.empty()) {
    const auto& pm = dumps.front();
    std::printf("post-mortem: %s diagnosed by node %u at t=%.1f us "
                "(victim: %s)\n",
                pm.reason.c_str(), pm.node, pm.time_us, pm.victim.c_str());
    std::printf("  retransmit storm: %llu events in [%.1f, %.1f] us\n",
                static_cast<unsigned long long>(pm.storm.events),
                pm.storm.start_us, pm.storm.end_us);
    std::printf("  hottest links (retx/dropped, queue_wait_us, "
                "blocked_us, hwm):\n");
    for (const auto& l : pm.top_links) {
      std::printf("    %-12s retx=%llu dropped=%llu queue_wait=%.1f "
                  "blocked=%.1f hwm=%zu\n",
                  l.name.c_str(),
                  static_cast<unsigned long long>(l.retx_packets),
                  static_cast<unsigned long long>(l.dropped),
                  l.queue_wait_us, l.blocked_us, l.queue_hwm);
    }
  }
  FILE* f = std::fopen(kPostmortemFile, "w");
  if (f != nullptr) {
    const std::string js = w.cluster().postmortems_json();
    std::fwrite(js.data(), 1, js.size(), f);
    std::fclose(f);
    std::printf("post-mortem JSON written to %s (%zu dumps, %llu "
                "suppressed)\n",
                kPostmortemFile, dumps.size(),
                static_cast<unsigned long long>(
                    w.cluster().postmortems_suppressed()));
  }
}

Meas run_case(std::uint32_t nodes, bool nic, int iters) {
  cluster::WorldConfig cfg;
  cfg.cluster.nodes = nodes;
  cfg.cluster.node.mem_bytes = 16u << 20;
  cfg.mpi.nic_collectives = nic;
  // The two-level Myrinet fabric tops out at 32 nodes; larger sweeps run
  // on the nwrc mesh (same NIC/MCP model, different interconnect).
  if (nodes > 32) cfg.cluster.fabric.kind = hw::FabricKind::kNwrcMesh;
  cluster::World w{cfg, static_cast<int>(nodes)};
  Meas m;
  try {
    w.run([&](cluster::World& world, int rank) -> sim::Task<void> {
    auto& me = world.mpi(rank);
    auto& eng = world.engine();
    auto buf = me.process().alloc(
        std::max(kBcastBytes, kReduceCount * sizeof(double)));
    auto out = me.process().alloc(kReduceCount * sizeof(double));
    me.write_doubles(buf, std::vector<double>(kReduceCount, rank + 1.0));
    // Warm up: triggers group registration and page-table priming so the
    // timed loops measure steady state.
    co_await me.barrier();
    co_await me.bcast(buf, kBcastBytes, 0);
    co_await me.reduce(buf, out, kReduceCount, 0);
    co_await me.barrier();

    sim::Time t0 = eng.now();
    for (int i = 0; i < iters; ++i) co_await me.barrier();
    if (rank == 0) {
      m.barrier_us = (eng.now() - t0).to_us() / iters;
    }
    co_await me.barrier();
    t0 = eng.now();
    for (int i = 0; i < iters; ++i) {
      co_await me.bcast(buf, kBcastBytes, 0);
    }
    co_await me.barrier();
    if (rank == 0) {
      // Barrier-closed so the sample covers completion at every rank.
      m.bcast_us = (eng.now() - t0).to_us() / iters;
    }
    t0 = eng.now();
    for (int i = 0; i < iters; ++i) {
      co_await me.reduce(buf, out, kReduceCount, 0);
    }
    co_await me.barrier();
    if (rank == 0) {
      m.reduce_us = (eng.now() - t0).to_us() / iters;
    }
    t0 = eng.now();
    for (int i = 0; i < iters; ++i) {
      co_await me.allreduce(buf, out, kReduceCount);
    }
    co_await me.barrier();
    if (rank == 0) {
      m.allreduce_us = (eng.now() - t0).to_us() / iters;
    }
    });
  } catch (const minimpi::PeerUnreachableError& e) {
    m.aborted = true;
    m.abort_what = e.what();
    char kase[64];
    std::snprintf(kase, sizeof kase, "%u-node %s case", nodes,
                  nic ? "nic" : "host");
    dump_postmortem(w, kase, e);
  }
  for (const auto& l : w.cluster().fabric().congestion_report()) {
    if (l.retx_packets > m.max_retx) {
      m.max_retx = l.retx_packets;
      m.max_retx_link = l.name;
    }
  }
  return m;
}

const char* pass(bool ok) { return ok ? "ok" : "DIFF"; }

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool scale = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--scale") == 0) scale = true;
  }
  std::vector<std::uint32_t> sweep{2, 4, 8, 16, 32, 64};
  int iters = 8;
  if (smoke) {
    sweep = {2, 4, 8};
    iters = 3;
  } else if (scale) {
    sweep = {2, 4, 8, 16, 32, 64, 128, 256, 512, 1024};
    iters = 3;
  }
  benchutil::header("coll-scaling",
                    scale ? "NIC collective engine vs host algorithms, "
                            "2-1024 nodes"
                          : "NIC collective engine vs host algorithms, "
                            "2-64 nodes");
  benchutil::claim(
      "NIC-offloaded barrier grows ~O(log n) and beats the host "
      "dissemination barrier by ~2x at 16 nodes");

  std::printf("%5s | %21s | %21s | %21s | %21s\n", "", "barrier us",
              "bcast 8K us", "reduce 1Kdbl us", "allreduce 1Kdbl us");
  std::printf("%5s | %10s %10s | %10s %10s | %10s %10s | %10s %10s\n",
              "nodes", "host", "nic", "host", "nic", "host", "nic", "host",
              "nic");
  std::map<std::uint32_t, std::pair<Meas, Meas>> rows;  // nodes -> (host, nic)
  bool any_abort = false;
  for (const std::uint32_t n : sweep) {
    const Meas host = run_case(n, /*nic=*/false, iters);
    const Meas nic = run_case(n, /*nic=*/true, iters);
    any_abort = any_abort || host.aborted || nic.aborted;
    rows.emplace(n, std::pair{host, nic});
    std::printf(
        "%5u | %10.2f %10.2f | %10.2f %10.2f | %10.2f %10.2f | %10.2f "
        "%10.2f%s\n",
        n, host.barrier_us, nic.barrier_us, host.bcast_us, nic.bcast_us,
        host.reduce_us, nic.reduce_us, host.allreduce_us, nic.allreduce_us,
        host.aborted || nic.aborted ? "  [ABORTED]" : "");
    for (const auto& [path, m] :
         {std::pair<const char*, const Meas&>{"host", host},
          std::pair<const char*, const Meas&>{"nic", nic}}) {
      std::printf(
          "{\"bench\":\"coll_scaling\",\"path\":\"%s\",\"nodes\":%u,"
          "\"barrier_us\":%.3f,\"bcast_us\":%.3f,\"reduce_us\":%.3f,"
          "\"allreduce_us\":%.3f,\"aborted\":%s}\n",
          path, n, m.barrier_us, m.bcast_us, m.reduce_us, m.allreduce_us,
          m.aborted ? "true" : "false");
    }
  }

  if (scale) {
    // An aborted case measured nothing, so it can only fail this check.
    std::printf("\nchecks:\n");
    for (const auto& [n, row] : rows) {
      const auto& [host, nic] = row;
      const bool ok = !host.aborted && !nic.aborted &&
                      nic.barrier_us < host.barrier_us &&
                      nic.bcast_us < host.bcast_us &&
                      nic.reduce_us < host.reduce_us &&
                      nic.allreduce_us < host.allreduce_us;
      std::printf("  nic beats host at %4u nodes: barrier %.2fx bcast %.2fx "
                  "reduce %.2fx allreduce %.2fx (>1x) %s\n",
                  n, host.barrier_us / nic.barrier_us,
                  host.bcast_us / nic.bcast_us,
                  host.reduce_us / nic.reduce_us,
                  host.allreduce_us / nic.allreduce_us, pass(ok));
    }
  } else if (!smoke) {
    const Meas& host2 = rows.at(2).first;
    const Meas& nic2 = rows.at(2).second;
    const Meas& host16 = rows.at(16).first;
    const Meas& nic16 = rows.at(16).second;
    const Meas& host64 = rows.at(64).first;
    const Meas& nic64 = rows.at(64).second;
    const double speedup16 = host16.barrier_us / nic16.barrier_us;
    std::printf("\nchecks:\n");
    // Measures 2.0x since the release path completes asynchronously: the
    // interior hops pay neither the host trap nor the inline event DMA, so
    // the timed loop's only host involvement is one post + one poll.
    std::printf("  barrier speedup at 16 nodes: %.2fx (>=2.0x) %s\n",
                speedup16, pass(speedup16 >= 2.0));
    if (nic64.aborted) {
      std::printf("  nic barrier growth 16->64:   skipped (64-node case "
                  "aborted; see %s)\n",
                  kPostmortemFile);
    } else {
      // O(log n): 16 -> 64 nodes is 1.5x the tree depth; allow 2.5x.
      const double growth = nic64.barrier_us / nic16.barrier_us;
      std::printf("  nic barrier growth 16->64:   %.2fx (<=2.5x) %s\n",
                  growth, pass(growth <= 2.5));
    }
    // The 64-node mesh case used to melt down here: the column-ring
    // reduce/bcast pattern drove ~850 go-back-N resends through the hot
    // mesh links and the run aborted with a collective timeout.  With ECN
    // marking + per-destination pacing the storm self-throttles; require
    // at least the 10x reduction the congestion-control arc claims.
    std::printf("  64-node nic hottest link:    %s retx=%llu (<=85)  %s\n",
                nic64.max_retx_link.empty() ? "-" : nic64.max_retx_link.c_str(),
                static_cast<unsigned long long>(nic64.max_retx),
                pass(nic64.max_retx <= 85));
    std::printf("  nic bcast  beats host at 16: %.2fx (>1x)   %s\n",
                host16.bcast_us / nic16.bcast_us,
                pass(nic16.bcast_us < host16.bcast_us));
    std::printf("  nic reduce beats host at 16: %.2fx (>1x)   %s\n",
                host16.reduce_us / nic16.reduce_us,
                pass(nic16.reduce_us < host16.reduce_us));
    // The bars sit between a heap over member index (1.31x / 1.21x; its
    // hottest XY link carries 8 tree edges) and trees along the mesh's
    // Hilbert curve (2.37x / 1.62x; 5 edges), so they catch a tree that
    // ignores the fabric's geometry.
    const double bcast64 = host64.bcast_us / nic64.bcast_us;
    const double reduce64 = host64.reduce_us / nic64.reduce_us;
    std::printf("  nic bcast  speedup at 64:    %.2fx (>=1.8x) %s\n", bcast64,
                pass(!nic64.aborted && bcast64 >= 1.8));
    std::printf("  nic reduce speedup at 64:    %.2fx (>=1.4x) %s\n",
                reduce64, pass(!nic64.aborted && reduce64 >= 1.4));
    // An allreduce is one NIC operation: the root's MCP fans the combined
    // result out of SRAM.  Run as a reduce plus a second broadcast, the
    // root's host had to poll the reduce, trap again and have its NIC DMA
    // the result back before the fan-out: at 2 nodes and this bench's 8
    // iterations that measured 1.41x, against 1.83x as one operation.
    const double allreduce2 = host2.allreduce_us / nic2.allreduce_us;
    std::printf("  nic allreduce speedup at 2:  %.2fx (>=1.6x) %s\n",
                allreduce2, pass(!nic2.aborted && allreduce2 >= 1.6));
  }
  if (any_abort) {
    std::printf("\nexiting %d: at least one case aborted with a diagnosed "
                "post-mortem (%s)\n",
                kAbortExit, kPostmortemFile);
    return kAbortExit;
  }
  return 0;
}
