#include "sim/breakdown.hpp"

#include <algorithm>
#include <cstdio>

namespace sim {

LatencyBreakdown LatencyBreakdown::project(
    const std::vector<TraceEvent>& events, Time t0, Time t1,
    const Filter& include, std::string gap_stage) {
  LatencyBreakdown out;
  out.gap_stage_ = std::move(gap_stage);
  if (t1 <= t0) return out;
  out.window_ = t1 - t0;

  // Clip candidate spans to the window; zero-length spans (marks) carry no
  // time and are skipped.
  struct Clipped {
    Time start;
    Time end;
    const TraceEvent* ev;
  };
  std::vector<Clipped> spans;
  spans.reserve(events.size());
  for (const auto& e : events) {
    if (e.end <= e.start) continue;
    if (e.end <= t0 || e.start >= t1) continue;
    if (include && !include(e)) continue;
    spans.push_back(Clipped{std::max(e.start, t0), std::min(e.end, t1), &e});
  }

  // Elementary intervals: every clipped span boundary plus the window
  // edges.  Within one elementary interval the set of active spans is
  // constant, so "innermost active span" is well defined per interval.
  std::vector<Time> cuts;
  cuts.reserve(spans.size() * 2 + 2);
  cuts.push_back(t0);
  cuts.push_back(t1);
  for (const auto& s : spans) {
    cuts.push_back(s.start);
    cuts.push_back(s.end);
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());

  for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
    const Time a = cuts[i];
    const Time b = cuts[i + 1];
    const Clipped* innermost = nullptr;
    for (const auto& s : spans) {
      if (s.start > a || s.end < b) continue;  // not active here
      // Latest original start wins (most specific); ties resolve to the
      // later-recorded event, which in practice is the deeper layer.
      if (innermost == nullptr ||
          s.ev->start >= innermost->ev->start) {
        innermost = &s;
      }
    }
    const std::string& stage =
        innermost != nullptr ? innermost->ev->stage : out.gap_stage_;
    out.stages_[stage] += b - a;
  }
  return out;
}

double LatencyBreakdown::sum_us() const {
  Time total = Time::zero();
  for (const auto& [stage, t] : stages_) total += t;
  return total.to_us();
}

double LatencyBreakdown::stage_us(const std::string& stage) const {
  auto it = stages_.find(stage);
  return it == stages_.end() ? 0.0 : it->second.to_us();
}

std::string LatencyBreakdown::table(const std::string& title) const {
  std::vector<std::pair<std::string, Time>> rows(stages_.begin(),
                                                 stages_.end());
  std::stable_sort(rows.begin(), rows.end(),
                   [](const auto& a, const auto& b) {
                     return a.second > b.second;
                   });
  std::string out;
  char line[160];
  std::snprintf(line, sizeof line, "%s (window %.3f us)\n", title.c_str(),
                window_us());
  out += line;
  std::snprintf(line, sizeof line, "  %-28s %12s %8s\n", "stage", "us",
                "share");
  out += line;
  const double win = window_us();
  for (const auto& [stage, t] : rows) {
    std::snprintf(line, sizeof line, "  %-28s %12.3f %7.1f%%\n",
                  stage.c_str(), t.to_us(),
                  win > 0 ? 100.0 * t.to_us() / win : 0.0);
    out += line;
  }
  std::snprintf(line, sizeof line, "  %-28s %12.3f %7.1f%%\n", "TOTAL",
                sum_us(), win > 0 ? 100.0 * sum_us() / win : 0.0);
  out += line;
  return out;
}

}  // namespace sim
