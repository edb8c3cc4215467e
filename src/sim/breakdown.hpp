// Per-stage latency attribution from a span timeline.
//
// LatencyBreakdown::project() sweeps the traced spans across an end-to-end
// window [t0, t1] and attributes every instant of the window to exactly one
// stage: the innermost (latest-starting) span active at that instant, or a
// synthetic gap stage ("wait/queue" by default) where no span is active.
//
// Because the projection partitions the window, the per-stage sums equal
// the measured end-to-end latency *by construction* — the cross-check in
// the benchmarks is that no double counting or clock skew crept in, and
// that the residual gap bucket (time covered by no instrumented stage:
// queueing, cut-through fall-through, propagation) stays an explicit,
// visible line instead of silently inflating other stages.  Overlapping
// spans (a host-DMA under an MCP processing span, a wire span under a
// retransmit episode) resolve to the most specific one.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "sim/time.hpp"
#include "sim/trace.hpp"

namespace sim {

class LatencyBreakdown {
 public:
  // Optional event filter: return false to exclude a span from attribution
  // (e.g. a receiver's long-lived poll span that covers the whole window).
  using Filter = std::function<bool(const TraceEvent&)>;

  static LatencyBreakdown project(const std::vector<TraceEvent>& events,
                                  Time t0, Time t1,
                                  const Filter& include = {},
                                  std::string gap_stage = "wait/queue");

  // Window the projection covered (t1 - t0).
  Time window() const { return window_; }
  double window_us() const { return window_.to_us(); }
  // Sum over all attributed stages; equals window() by construction.
  double sum_us() const;
  // Attributed time for one stage (0 if absent).
  double stage_us(const std::string& stage) const;
  const std::map<std::string, Time>& stages() const { return stages_; }
  const std::string& gap_stage() const { return gap_stage_; }

  // Human-readable table, stages sorted by attributed time (descending),
  // with per-stage share of the window.
  std::string table(const std::string& title) const;

 private:
  Time window_ = Time::zero();
  std::map<std::string, Time> stages_;
  std::string gap_stage_;
};

}  // namespace sim
