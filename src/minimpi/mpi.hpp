// Mini-MPI over EADI-2 (the paper's Fig. 1 stack: MPI -> EADI-2 -> BCL).
//
// Point-to-point send/recv with tag and wildcard matching, nonblocking
// operations with requests, and the collectives the paper says live above
// BCL ("All other collective message passing should be implemented in the
// higher level software", section 4).  Element type for reductions is
// double, which covers every experiment in this repository.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "eadi/eadi.hpp"
#include "sim/metrics.hpp"

namespace minimpi {

inline constexpr int kAnySource = -1;
inline constexpr int kAnyTag = -1;

// Thrown out of a collective when the reliability layer declared a member's
// node unreachable (retry budget exhausted) or a member's MCP fail-stopped:
// THIS operation cannot complete — its group descriptor is dead — so
// blocking would deadlock the rank.  The verdict is per-operation, not
// forever: if the peer reboots (or a revival probe is answered), sessions
// re-establish and a re-registered group works again.  Catchable per rank —
// survivors decide their own recovery or shutdown policy.
class PeerUnreachableError : public std::runtime_error {
 public:
  explicit PeerUnreachableError(const std::string& what)
      : std::runtime_error(what) {}
};

struct Status {
  int source = kAnySource;
  int tag = kAnyTag;
  std::size_t len = 0;
};

struct MpiConfig {
  sim::Time call_overhead = sim::Time::us(0.30);  // MPI-layer bookkeeping
  sim::Time reduce_per_element = sim::Time::ns(3.0);
  // Offload barrier/bcast/reduce/allreduce to the NIC collective engine
  // when the communicator spans >= 2 nodes and group registration succeeds
  // on every node leader; host-level algorithms remain the fallback.
  bool nic_collectives = true;
};

class Mpi {
 public:
  // Counts into the rank's mpi.rank<r>.* series in `metrics`, which every
  // communicator split() or dup() derives from this one shares.
  Mpi(sim::Engine& eng, eadi::Device& dev, std::vector<bcl::PortId> world,
      int rank, const MpiConfig& cfg, sim::MetricRegistry& metrics);

  int rank() const { return rank_; }
  int size() const { return static_cast<int>(world_.size()); }
  osk::Process& process() { return dev_.process(); }
  eadi::Device& device() { return dev_; }
  std::int32_t context() const { return context_; }

  // -- communicators ---------------------------------------------------------
  // Splits this communicator: ranks with equal `color` form a new one,
  // ordered by (key, old rank).  color < 0 returns nullptr (the rank opts
  // out).  Collective: every rank must call it.
  sim::Task<std::unique_ptr<Mpi>> split(int color, int key);
  // A plain copy with an isolated context (tag spaces don't collide).
  sim::Task<std::unique_ptr<Mpi>> dup();

  // -- point to point ----------------------------------------------------------
  sim::Task<void> send(const osk::UserBuffer& buf, std::size_t len, int dst,
                       int tag);
  sim::Task<Status> recv(const osk::UserBuffer& buf, int src, int tag);

  // -- nonblocking ---------------------------------------------------------------
  class Request {
   public:
    Request() = default;
    bool valid() const { return state_ != nullptr; }

   private:
    friend class Mpi;
    struct State {
      explicit State(sim::Engine& e) : done{e} {}
      sim::Gate done;
      Status status{};
    };
    std::shared_ptr<State> state_;
  };
  Request isend(const osk::UserBuffer& buf, std::size_t len, int dst,
                int tag);
  Request irecv(const osk::UserBuffer& buf, int src, int tag);
  sim::Task<Status> wait(Request req);
  sim::Task<void> waitall(std::vector<Request> reqs);

  // Combined send+receive without deadlock regardless of pairing order.
  sim::Task<Status> sendrecv(const osk::UserBuffer& sendbuf,
                             std::size_t send_len, int dst, int stag,
                             const osk::UserBuffer& recvbuf, int src,
                             int rtag);
  // Non-blocking probe: has a matching message already arrived?
  sim::Task<std::optional<Status>> iprobe(int src, int tag);

  // -- collectives (context-isolated from p2p traffic) ---------------------------
  enum class Op { kSum, kProd, kMin, kMax };
  sim::Task<void> barrier();
  sim::Task<void> bcast(const osk::UserBuffer& buf, std::size_t len,
                        int root);
  // Reduction over `count` doubles: send -> recv (valid at root).
  sim::Task<void> reduce(const osk::UserBuffer& sendbuf,
                         const osk::UserBuffer& recvbuf, std::size_t count,
                         int root, Op op = Op::kSum);
  sim::Task<void> allreduce(const osk::UserBuffer& sendbuf,
                            const osk::UserBuffer& recvbuf,
                            std::size_t count, Op op = Op::kSum);
  // Inclusive prefix reduction: rank r receives op(v_0 .. v_r).
  sim::Task<void> scan(const osk::UserBuffer& sendbuf,
                       const osk::UserBuffer& recvbuf, std::size_t count,
                       Op op = Op::kSum);
  // Every rank gathers every rank's `len`-byte block.
  sim::Task<void> allgather(const osk::UserBuffer& sendbuf, std::size_t len,
                            const osk::UserBuffer& recvbuf);
  // Fixed-size blocks of `len` bytes per rank.
  sim::Task<void> gather(const osk::UserBuffer& sendbuf, std::size_t len,
                         const osk::UserBuffer& recvbuf, int root);
  sim::Task<void> scatter(const osk::UserBuffer& sendbuf, std::size_t len,
                          const osk::UserBuffer& recvbuf, int root);
  sim::Task<void> alltoall(const osk::UserBuffer& sendbuf, std::size_t len,
                           const osk::UserBuffer& recvbuf);

  // -- typed helpers (simulation-side, used by apps and tests) -------------------
  std::vector<double> read_doubles(const osk::UserBuffer& buf,
                                   std::size_t count) const;
  void write_doubles(const osk::UserBuffer& buf,
                     std::span<const double> values);

 private:
  // The rank's metric handles; message sizes land in a power-of-two
  // size-class histogram.
  struct Series {
    sim::Counter& sends;
    sim::Counter& recvs;
    sim::Histogram& send_bytes;
  };
  // split() builds each child communicator over its parent's series.
  Mpi(sim::Engine& eng, eadi::Device& dev, std::vector<bcl::PortId> world,
      int rank, const MpiConfig& cfg, std::int32_t context, Series series);

  // Each communicator owns one EADI context (collectives are isolated
  // from p2p by reserved tag ranges).  Children derive their context
  // deterministically so all members agree without negotiation.
  std::int32_t p2p_context() const { return context_; }
  static constexpr std::int32_t kBarrierBase = 1'000'000;
  static constexpr std::int32_t kBcastTag = 2'000'000;
  static constexpr std::int32_t kReduceTag = 3'000'000;
  static constexpr std::int32_t kGatherTag = 4'000'000;
  static constexpr std::int32_t kScatterTag = 5'000'000;
  static constexpr std::int32_t kAlltoallTag = 6'000'000;
  static constexpr std::int32_t kScanTag = 7'000'000;
  static constexpr std::int32_t kAllgatherTag = 8'000'000;
  // Node-local funnel traffic for NIC collectives (ranks <-> node leader).
  static constexpr std::int32_t kNicUpTag = 9'000'000;
  static constexpr std::int32_t kNicDownTag = 9'500'000;

  static double apply(Op op, double a, double b);
  static bcl::coll::CollOp to_coll(Op op);

  // -- NIC collective offload ----------------------------------------------------
  // One registered group per communicator: members are the per-node leader
  // ranks (lowest rank on each node), computed locally from world_ without
  // communication so every rank agrees.
  struct NicColl {
    bool checked = false;   // lazy: resolved at the first collective call
    bool enabled = false;   // all leaders registered successfully
    std::unique_ptr<bcl::coll::CollPort> port;  // leaders only
    int my_leader = -1;            // leader rank of this rank's node
    std::vector<int> local_ranks;  // ranks on this node, ascending
    std::vector<int> member_of;    // rank -> member index of its node
    std::size_t max_bytes = 0;     // largest NIC-eligible payload
  };
  // Registers the group (leaders) and agrees on the outcome with a
  // host-level allreduce(min), which doubles as the barrier that keeps any
  // collective packet from racing a peer's registration.
  sim::Task<void> ensure_nic_coll();
  bool nic_leader() const { return nic_.my_leader == rank_; }
  sim::Task<void> nic_barrier();
  sim::Task<void> nic_bcast(const osk::UserBuffer& buf, std::size_t len,
                            int root);
  sim::Task<void> nic_reduce(const osk::UserBuffer& sendbuf,
                             const osk::UserBuffer& recvbuf,
                             std::size_t count, int root, Op op);
  sim::Task<void> nic_allreduce(const osk::UserBuffer& sendbuf,
                                const osk::UserBuffer& recvbuf,
                                std::size_t count, Op op);
  // Folds node-local contributions into the leader's accumulator.
  sim::Task<std::vector<double>> gather_local(const osk::UserBuffer& sendbuf,
                                              std::size_t count, Op op);

  // Host-level algorithms (the pre-offload implementations; always correct,
  // used for single-node communicators and as the registration fallback).
  sim::Task<void> host_barrier();
  sim::Task<void> host_bcast(const osk::UserBuffer& buf, std::size_t len,
                             int root);
  sim::Task<void> host_reduce(const osk::UserBuffer& sendbuf,
                              const osk::UserBuffer& recvbuf,
                              std::size_t count, int root, Op op);
  sim::Task<void> host_allreduce(const osk::UserBuffer& sendbuf,
                                 const osk::UserBuffer& recvbuf,
                                 std::size_t count, Op op);

  bcl::PortId port_of(int rank) const { return world_.at(rank); }
  int rank_of(bcl::PortId id) const;
  osk::UserBuffer slice(const osk::UserBuffer& buf, std::size_t off,
                        std::size_t len) const {
    return osk::UserBuffer{buf.vaddr + off, len, buf.owner};
  }
  // Scratch buffers, grown on demand.  scratch2 exists so the leader's NIC
  // contribution can live alongside the receive staging in scratch.
  osk::UserBuffer scratch(std::size_t bytes);
  osk::UserBuffer scratch2(std::size_t bytes);

  sim::Engine& eng_;
  eadi::Device& dev_;
  std::vector<bcl::PortId> world_;
  int rank_;
  MpiConfig cfg_;
  std::int32_t context_;
  int next_split_seq_ = 1;
  osk::UserBuffer scratch_{};
  osk::UserBuffer scratch2_{};
  NicColl nic_;
  Series series_;
};

}  // namespace minimpi
