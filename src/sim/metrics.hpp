// Cluster-wide metric registry and periodic sampler.
//
// A MetricRegistry exports hierarchical named series — monotonic counters,
// point-in-time gauges, and the Summary / Histogram distributions from
// stats.hpp — as a JSON snapshot or Prometheus-style text.  Names are
// dot-separated paths ("node0.nic.mcp.dma_tx_bytes"); every export lists
// them in sorted order, so it is deterministic for a deterministic run.
//
// A counter or gauge series has one of two sources.  An owned instrument
// is created on first lookup and lives as long as the registry; hot paths
// resolve it once and keep the reference, so the steady-state cost of a
// metric is one integer add.  Everything a layer already holds (queue
// depths, pin-table occupancy, link byte counts, its protocol-event counts)
// comes from that layer's collector instead: one callback per layer
// instance that writes the layer's series into a MetricSink while an export
// runs.  The registry stores nothing per collected series, and a series
// name exists only while an export builds it.  Each export runs every
// collector once.
//
// Detail whose size grows with the peers a layer talks to (the MCP's
// seven <nic>.rel.peer<N>.* series for every peer that ever had a
// go-back-N session, O(N^2) names over a cluster) comes from a per-peer
// collector.  The exports that show series by name run it too: to_json(),
// to_prometheus(), every Sampler tick (its CSV row and its trace
// counters) and value(name).  The flat lists (counter_values(),
// gauge_values(), scalar_values()) do not: their callers sum or count
// over them and read no per-peer series, and on a 64-node mesh the
// per-peer names would be most of the list and the largest block of heap
// a read builds.  Their length does not grow with the number of sessions.
//
// The Sampler is a daemon coroutine that snapshots every counter and
// gauge on a fixed period into an in-memory time series (exported as
// CSV) and, when a Trace is attached, emits Perfetto counter-track
// events so queue-depth graphs appear under the message timeline.  It
// parks itself once the engine has no live root tasks, so Engine::run()
// still terminates.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/engine.hpp"
#include "sim/stats.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace sim {

class Trace;

// Monotonically increasing event count, owned by the registry.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { v_ += n; }
  void add(std::uint64_t n) { v_ += n; }
  std::uint64_t value() const { return v_; }
  void reset() { v_ = 0; }

 private:
  std::uint64_t v_ = 0;
};

// Point-in-time value (queue depth, occupancy, ...), owned by the registry.
class Gauge {
 public:
  void set(double v) { v_ = v; }
  void add(double d) { v_ += d; }
  double value() const { return v_; }
  void reset() { v_ = 0.0; }

 private:
  double v_ = 0.0;
};

// Where collectors write their series (see MetricRegistry::add_collector).
// The registry also hands one export's readings around in it: the owned
// instruments merged in, counters and gauges each sorted by name.
class MetricSink {
 public:
  void counter(std::string name, std::uint64_t value) {
    counters_.emplace_back(std::move(name), value);
  }
  void gauge(std::string name, double value) {
    gauges_.emplace_back(std::move(name), value);
  }

 private:
  friend class MetricRegistry;
  friend class Sampler;
  std::vector<std::pair<std::string, std::uint64_t>> counters_;
  std::vector<std::pair<std::string, double>> gauges_;
};

class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  // Lookup-or-create.  References are stable for the registry's lifetime.
  // A collector's series is not an instrument: counter(name) given its
  // name creates a second, owned series of that name.  Read it with
  // value().
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Summary& summary(const std::string& name);
  Histogram& histogram(const std::string& name);

  // The reading of counter or gauge series `name`, owned or collected
  // (running every collector and every per-peer collector once), or
  // nothing when no series has that name.  Creates nothing.
  std::optional<double> value(std::string_view name) const;

  // One collector per layer instance: it writes every series the layer
  // already holds into the sink, building each name as it goes.  Every
  // export runs each collector once and merges what it writes with the
  // owned instruments in name order; a collector must therefore only
  // read, and its names must not collide with any other series.
  void add_collector(std::function<void(MetricSink&)> fn);
  // A collector of per-peer detail, under the same rules.  Only the exports
  // by name run it (to_json, to_prometheus, Sampler ticks, value); the flat
  // lists below never do.
  void add_peer_collector(std::function<void(MetricSink&)> fn);

  // Zeroes every owned instrument and distribution; collectors are left
  // alone (their source of truth lives in the layer).  Used by benches to
  // scope the registry to a measurement window.
  void reset();

  // -- introspection (sorted by name) -----------------------------------------
  // Every counter / gauge reading, instruments and collector series alike,
  // without the per-peer collectors' series.  Each call, like each export
  // below, runs every collector once.
  std::vector<std::pair<std::string, std::uint64_t>> counter_values() const;
  std::vector<std::pair<std::string, double>> gauge_values() const;
  const std::map<std::string, std::unique_ptr<Summary>>& summaries() const {
    return summaries_;
  }
  const std::map<std::string, std::unique_ptr<Histogram>>& histograms() const {
    return histograms_;
  }

  // counter_values() then gauge_values(), flattened to (name, value): two
  // runs, each sorted by name, not one.  Callers that sum over it rely on
  // this element order.
  std::vector<std::pair<std::string, double>> scalar_values() const;

  // -- exporters ---------------------------------------------------------------
  // Both carry every series, the per-peer collectors' included.
  // {"counters":{...},"gauges":{...},"summaries":{...},"histograms":{...}}
  std::string to_json() const;
  // Prometheus text exposition: names sanitized to [a-zA-Z0-9_:], "bcl_"
  // prefix, # TYPE comments, summaries as _count/_sum/_min/_max, histogram
  // quantiles as {quantile="0.5"} labels.
  std::string to_prometheus() const;

 private:
  friend class Sampler;

  // Which collectors one read runs: a flat list the collectors, an export
  // by name the per-peer collectors as well.
  enum class Reach { kFlat, kNamed };

  // Runs the collectors `reach` covers into `sink`, each once.
  void collect(MetricSink& sink, Reach reach) const;
  // One read's readings: its collectors run once, the owned instruments
  // merged in, counters and gauges each sorted by name.
  MetricSink snapshot(Reach reach) const;
  // Counters then gauges as (name, value), the names moved, not copied,
  // and each run of `s` freed as soon as it has moved.
  static std::vector<std::pair<std::string, double>> flatten(MetricSink s);

  // std::less<> so value() finds a string_view without building a string.
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Summary>> summaries_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::vector<std::function<void(MetricSink&)>> collectors_;
  std::vector<std::function<void(MetricSink&)>> peer_collectors_;
};

// Periodic snapshot daemon.  start() spawns the loop; each tick records
// every counter and gauge value, per-peer series included.  The loop exits
// on stop() or when the engine's non-daemon tasks have all finished
// (checked after each sleep), so it never keeps Engine::run() alive on its
// own.
class Sampler {
 public:
  Sampler(Engine& eng, MetricRegistry& reg) : eng_{eng}, reg_{reg} {}

  void start(Time period);
  void stop() { running_ = false; }
  bool running() const { return running_; }

  // When set, each tick also emits one Perfetto counter event per gauge
  // (only while the trace is enabled).
  void set_trace(Trace* tr) { trace_ = tr; }

  std::size_t samples() const { return ticks_.size(); }

  // CSV time series: header "time_us,<name>,...", one row per tick.
  // Columns are the union of names seen across all ticks (a metric born
  // mid-run reads 0 before its first sample).
  std::string to_csv() const;

 private:
  struct Tick {
    Time at;
    std::vector<std::pair<std::string, double>> values;
  };

  Task<void> loop();
  void tick();

  Engine& eng_;
  MetricRegistry& reg_;
  Trace* trace_ = nullptr;
  Time period_ = Time::us(20);
  bool running_ = false;
  std::vector<Tick> ticks_;
};

// Renders a double for JSON / CSV: finite values with enough digits to
// round-trip, non-finite values as 0 (JSON has no inf/nan).
std::string format_metric_value(double v);

// Escapes `s` for use inside a JSON string literal.
std::string json_escape(const std::string& s);

}  // namespace sim
