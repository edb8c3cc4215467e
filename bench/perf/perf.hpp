// bcl_perf: the repository's performance benchmark.
//
// Four seeded workloads drive the simulator through its public API only.
// Each (workload, rep) runs in its own forked child so set-up time is cold
// and peak RSS is per run.  A rep reports two kinds of numbers:
//  * host metrics: what the simulator costs its users (wall time, set-up,
//    events per second, memory).  Noisy; compared as medians over reps.
//  * simulated metrics: what the modelled BCL stack delivers (latency,
//    goodput, per-layer protocol counts).  Deterministic for a seed, so
//    every rep of one (workload, seed) must report them bit-identically.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace bcl {
struct ClusterConfig;
}

namespace perf {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Host metrics are measured on the host clock; simulated ones are outputs
// of the model and are checked for exact repeatability.
enum class Kind { kHost, kSim };
enum class Scope { kEndToEnd, kPerLayer };
// The statistic over a run's reps that the benchmark reports.  Contention
// from other tenants only ever slows a rep down, so host run times report
// the best rep; everything else reports the median.
enum class Report { kMedian, kBest };

struct MetricDef {
  const char* name;
  const char* unit;
  const char* better;  // "lower" | "higher"
  Scope scope;
  Kind kind;
  Report report = Report::kMedian;
};

// Every metric the benchmark can print, in output order.
const std::vector<MetricDef>& catalogue();
const MetricDef* find_metric(const std::string& name);

const std::vector<std::string>& workload_names();
// The cluster configuration a workload runs on (probes reuse it).
bcl::ClusterConfig workload_cluster(const std::string& name);

struct RepOptions {
  std::uint64_t seed = 1;
  // Work multiplier on the calibrated default size (--smoke uses 0.01).
  double scale = 1.0;
  // Nonzero: run only the first `prefix_ops` operations (the traced run
  // and its untraced twin).
  std::uint64_t prefix_ops = 0;
  bool traced = false;
  // A traced rep writes its Perfetto JSON here when non-empty.
  std::string perfetto_path;
};

// Everything one rep reports.  `values` holds host and simulated metrics by
// catalogue name (plus a few diagnostics); `digest` hashes every simulated
// output so two reps (or two commits) can be compared exactly.
struct RepResult {
  std::map<std::string, double> values;
  std::uint64_t digest = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string error;  // non-empty: a correctness check failed
};

// Runs one rep in the calling process.  Never throws: failures land in
// RepResult::error.
RepResult run_rep(const std::string& workload, const RepOptions& opt);

// Outside-in host microbenchmarks of public layer functions for one
// workload's configuration; each probe samples for `min_seconds` or up to a
// fixed sample cap, whichever comes first, and reports the median sample.
std::map<std::string, double> run_probes(const std::string& workload,
                                         double min_seconds);

}  // namespace perf
