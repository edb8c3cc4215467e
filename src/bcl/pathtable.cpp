#include "bcl/pathtable.hpp"

namespace bcl {

void PathTable::init(hw::NodeId dst, int route_count) {
  if (route_count <= 1 || dests_.count(dst) != 0) return;
  Dest d;
  d.current = static_cast<std::uint8_t>(
      dst % static_cast<hw::NodeId>(route_count));
  d.paths.resize(static_cast<std::size_t>(route_count));
  for (int i = 0; i < route_count; ++i) {
    d.paths[static_cast<std::size_t>(i)].id = static_cast<std::uint8_t>(i);
  }
  dests_.emplace(dst, std::move(d));
}

std::uint8_t PathTable::current(hw::NodeId dst) const {
  const auto it = dests_.find(dst);
  return it == dests_.end() ? hw::kDefaultPath : it->second.current;
}

void PathTable::note_good(hw::NodeId dst) {
  const auto it = dests_.find(dst);
  if (it == dests_.end()) return;
  PathState& p = it->second.paths[it->second.current];
  p.strikes = 0;
  p.last_good = eng_.now();
}

PathTable::StrikeResult PathTable::strike(hw::NodeId dst) {
  const auto it = dests_.find(dst);
  if (it == dests_.end()) return StrikeResult::kNoChange;
  Dest& d = it->second;
  if (d.partitioned) return StrikeResult::kNoChange;
  PathState& cur = d.paths[d.current];
  ++cur.total_strikes;
  if (++cur.strikes < failover_retries_) return StrikeResult::kNoChange;
  // The current path struck out: quarantine it and rotate round-robin to
  // the next healthy path.
  cur.quarantined = true;
  cur.quarantined_at = eng_.now();
  const std::size_t n = d.paths.size();
  for (std::size_t i = 1; i < n; ++i) {
    const std::size_t cand = (d.current + i) % n;
    if (!d.paths[cand].quarantined) {
      d.current = static_cast<std::uint8_t>(cand);
      return StrikeResult::kFailedOver;
    }
  }
  d.partitioned = true;
  return StrikeResult::kPartitioned;
}

bool PathTable::restore(hw::NodeId dst, std::uint8_t path) {
  const auto it = dests_.find(dst);
  if (it == dests_.end()) return false;
  Dest& d = it->second;
  if (path >= d.paths.size()) return false;
  PathState& p = d.paths[path];
  if (!p.quarantined) return false;
  p.quarantined = false;
  p.strikes = 0;
  p.last_good = eng_.now();
  d.partitioned = false;
  if (d.paths[d.current].quarantined) d.current = path;
  return true;
}

bool PathTable::partitioned(hw::NodeId dst) const {
  const auto it = dests_.find(dst);
  return it != dests_.end() && it->second.partitioned;
}

bool PathTable::is_quarantined(hw::NodeId dst, std::uint8_t path) const {
  const auto it = dests_.find(dst);
  if (it == dests_.end() || path >= it->second.paths.size()) return false;
  return it->second.paths[path].quarantined;
}

std::uint64_t PathTable::quarantined_count() const {
  std::uint64_t n = 0;
  for (const auto& [dst, d] : dests_) {
    for (const PathState& p : d.paths) n += p.quarantined ? 1 : 0;
  }
  return n;
}

}  // namespace bcl
