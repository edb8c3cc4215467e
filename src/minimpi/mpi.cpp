#include "minimpi/mpi.hpp"

#include <algorithm>
#include <cstring>
#include <memory>
#include <stdexcept>

namespace minimpi {

namespace {

// "mpi.rank<r>.<what>"
std::string rank_series(int rank, const char* what) {
  return "mpi.rank" + std::to_string(rank) + "." + what;
}

}  // namespace

Mpi::Mpi(sim::Engine& eng, eadi::Device& dev, std::vector<bcl::PortId> world,
         int rank, const MpiConfig& cfg, sim::MetricRegistry& metrics)
    : Mpi(eng, dev, std::move(world), rank, cfg, /*context=*/0,
          Series{metrics.counter(rank_series(rank, "sends")),
                 metrics.counter(rank_series(rank, "recvs")),
                 metrics.histogram(rank_series(rank, "send_bytes"))}) {}

Mpi::Mpi(sim::Engine& eng, eadi::Device& dev, std::vector<bcl::PortId> world,
         int rank, const MpiConfig& cfg, std::int32_t context, Series series)
    : eng_{eng},
      dev_{dev},
      world_{std::move(world)},
      rank_{rank},
      cfg_{cfg},
      context_{context},
      series_{series} {
  if (rank_ < 0 || rank_ >= size()) throw std::invalid_argument("bad rank");
  if (!(world_.at(rank_) == dev_.id())) {
    throw std::invalid_argument("device/world rank mismatch");
  }
}

sim::Task<std::unique_ptr<Mpi>> Mpi::split(int color, int key) {
  // Exchange (color, key) from every member, then all members compute the
  // same grouping locally.
  const int n = size();
  auto mine = process().alloc(2 * sizeof(double));
  auto all = process().alloc(2 * sizeof(double) * static_cast<size_t>(n));
  write_doubles(mine, std::vector<double>{static_cast<double>(color),
                                          static_cast<double>(key)});
  co_await allgather(mine, 2 * sizeof(double), all);
  const auto flat = read_doubles(all, 2 * static_cast<std::size_t>(n));
  process().free(mine);
  process().free(all);

  // Members of my color, ordered by (key, old rank).
  struct Member {
    int key;
    int old_rank;
  };
  std::vector<Member> members;
  for (int r = 0; r < n; ++r) {
    if (static_cast<int>(flat[2 * static_cast<std::size_t>(r)]) == color) {
      members.push_back(
          {static_cast<int>(flat[2 * static_cast<std::size_t>(r) + 1]), r});
    }
  }
  const int seq = next_split_seq_++;
  if (color < 0) co_return nullptr;
  std::sort(members.begin(), members.end(),
            [](const Member& a, const Member& b) {
              return a.key != b.key ? a.key < b.key : a.old_rank < b.old_rank;
            });
  std::vector<bcl::PortId> new_world;
  int new_rank = -1;
  for (std::size_t i = 0; i < members.size(); ++i) {
    new_world.push_back(
        world_[static_cast<std::size_t>(members[i].old_rank)]);
    if (members[i].old_rank == rank_) new_rank = static_cast<int>(i);
  }
  // Deterministic child context: every member computes the same value
  // (same parent context, same split sequence number, same color).
  const std::int32_t child_ctx = context_ * 131 + seq * 17 + color + 3;
  // The child counts into this rank's series, so the totals are per rank,
  // not per communicator.
  co_return std::unique_ptr<Mpi>(new Mpi(eng_, dev_, std::move(new_world),
                                         new_rank, cfg_, child_ctx, series_));
}

sim::Task<std::unique_ptr<Mpi>> Mpi::dup() {
  co_return co_await split(/*color=*/0, /*key=*/rank_);
}

int Mpi::rank_of(bcl::PortId id) const {
  for (int r = 0; r < size(); ++r) {
    if (world_[static_cast<std::size_t>(r)] == id) return r;
  }
  return kAnySource;
}

osk::UserBuffer Mpi::scratch(std::size_t bytes) {
  if (scratch_.len < bytes) {
    if (scratch_.len > 0) process().free(scratch_);
    scratch_ = process().alloc(bytes);
  }
  return scratch_;
}

osk::UserBuffer Mpi::scratch2(std::size_t bytes) {
  if (scratch2_.len < bytes) {
    if (scratch2_.len > 0) process().free(scratch2_);
    scratch2_ = process().alloc(bytes);
  }
  return scratch2_;
}

sim::Task<void> Mpi::send(const osk::UserBuffer& buf, std::size_t len,
                          int dst, int tag) {
  co_await process().cpu().busy(cfg_.call_overhead);
  series_.sends.inc();
  series_.send_bytes.add(static_cast<double>(len));
  co_await dev_.send(port_of(dst), p2p_context(), tag, buf, len);
}

sim::Task<Status> Mpi::recv(const osk::UserBuffer& buf, int src, int tag) {
  co_await process().cpu().busy(cfg_.call_overhead);
  const bcl::PortId from =
      src == kAnySource ? bcl::PortId{eadi::kAnyNode, 0} : port_of(src);
  const auto r = co_await dev_.recv(
      p2p_context(), tag == kAnyTag ? eadi::kAnyTag : tag, from, buf);
  series_.recvs.inc();
  co_return Status{rank_of(r.src), r.tag, r.len};
}

Mpi::Request Mpi::isend(const osk::UserBuffer& buf, std::size_t len, int dst,
                        int tag) {
  Request req;
  req.state_ = std::make_shared<Request::State>(eng_);
  eng_.spawn_daemon([](Mpi& self, osk::UserBuffer buf, std::size_t len,
                       int dst, int tag,
                       std::shared_ptr<Request::State> st)
                        -> sim::Task<void> {
    co_await self.send(buf, len, dst, tag);
    st->status = Status{dst, tag, len};
    st->done.open();
  }(*this, buf, len, dst, tag, req.state_));
  return req;
}

Mpi::Request Mpi::irecv(const osk::UserBuffer& buf, int src, int tag) {
  Request req;
  req.state_ = std::make_shared<Request::State>(eng_);
  eng_.spawn_daemon([](Mpi& self, osk::UserBuffer buf, int src, int tag,
                       std::shared_ptr<Request::State> st)
                        -> sim::Task<void> {
    st->status = co_await self.recv(buf, src, tag);
    st->done.open();
  }(*this, buf, src, tag, req.state_));
  return req;
}

sim::Task<Status> Mpi::wait(Request req) {
  if (!req.valid()) throw std::invalid_argument("wait on null request");
  co_await req.state_->done.wait();
  co_return req.state_->status;
}

sim::Task<void> Mpi::waitall(std::vector<Request> reqs) {
  for (auto& r : reqs) (void)co_await wait(r);
}

sim::Task<Status> Mpi::sendrecv(const osk::UserBuffer& sendbuf,
                                std::size_t send_len, int dst, int stag,
                                const osk::UserBuffer& recvbuf, int src,
                                int rtag) {
  Request s = isend(sendbuf, send_len, dst, stag);
  const Status st = co_await recv(recvbuf, src, rtag);
  (void)co_await wait(s);
  co_return st;
}

sim::Task<std::optional<Status>> Mpi::iprobe(int src, int tag) {
  co_await process().cpu().busy(cfg_.call_overhead);
  const bcl::PortId from =
      src == kAnySource ? bcl::PortId{eadi::kAnyNode, 0} : port_of(src);
  const auto r = co_await dev_.probe(
      p2p_context(), tag == kAnyTag ? eadi::kAnyTag : tag, from);
  if (!r) co_return std::nullopt;
  co_return Status{rank_of(r->src), r->tag, r->len};
}

std::vector<double> Mpi::read_doubles(const osk::UserBuffer& buf,
                                      std::size_t count) const {
  std::vector<double> out(count);
  std::vector<std::byte> raw(count * sizeof(double));
  dev_.process().peek(buf, 0, raw);
  std::memcpy(out.data(), raw.data(), raw.size());
  return out;
}

void Mpi::write_doubles(const osk::UserBuffer& buf,
                        std::span<const double> values) {
  std::vector<std::byte> raw(values.size() * sizeof(double));
  std::memcpy(raw.data(), values.data(), raw.size());
  dev_.process().poke(buf, 0, raw);
}

}  // namespace minimpi
