// Cluster-wide metric registry and periodic sampler.
//
// A MetricRegistry holds hierarchical named instruments — monotonic
// Counters, point-in-time Gauges, and the Summary / Histogram
// distributions from stats.hpp — and renders them as a JSON snapshot or
// Prometheus-style text.  Names are dot-separated paths
// ("node0.nic.mcp.dma_tx_bytes"); the registry keeps them in sorted
// order so every export is deterministic for a deterministic run.
//
// Instruments are created on first lookup and live as long as the
// registry; hot paths resolve them once and keep the reference, so the
// steady-state cost of a metric is one integer add.  Gauges and Counters
// may instead be backed by a callback, which lets existing layer state
// (queue depths, pin-table occupancy, link byte counts) be exported
// without touching the layer's hot path at all.  A collector goes one
// step further for families of series that grow with the cluster (one
// set per peer, per pair): it writes the whole family at export time, so
// the registry stores nothing per series.
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
#include <string>
#include <utility>
#include <vector>

#include "sim/engine.hpp"
#include "sim/stats.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace sim {

class Trace;

// Monotonically increasing event count.  Either owned (inc/add) or
// backed by a callback reading an existing layer counter.
class Counter {
 public:
  Counter() = default;
  explicit Counter(std::function<std::uint64_t()> fn) : fn_{std::move(fn)} {}

  void inc(std::uint64_t n = 1) { v_ += n; }
  void add(std::uint64_t n) { v_ += n; }
  std::uint64_t value() const { return fn_ ? fn_() : v_; }
  bool callback_backed() const { return static_cast<bool>(fn_); }
  void reset() { v_ = 0; }

 private:
  std::uint64_t v_ = 0;
  std::function<std::uint64_t()> fn_;
};

// Point-in-time value (queue depth, occupancy, ...).
class Gauge {
 public:
  Gauge() = default;
  explicit Gauge(std::function<double()> fn) : fn_{std::move(fn)} {}

  void set(double v) { v_ = v; }
  void add(double d) { v_ += d; }
  double value() const { return fn_ ? fn_() : v_; }
  bool callback_backed() const { return static_cast<bool>(fn_); }
  void reset() { v_ = 0.0; }

 private:
  double v_ = 0.0;
  std::function<double()> fn_;
};

// Where a collector writes its series (see MetricRegistry::add_collector).
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
  std::vector<std::pair<std::string, std::uint64_t>> counters_;
  std::vector<std::pair<std::string, double>> gauges_;
};

class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  // Lookup-or-create.  References are stable for the registry's lifetime.
  Counter& counter(const std::string& name);
  Counter& counter(const std::string& name, std::function<std::uint64_t()> fn);
  Gauge& gauge(const std::string& name);
  Gauge& gauge(const std::string& name, std::function<double()> fn);
  Summary& summary(const std::string& name);
  Histogram& histogram(const std::string& name);

  // Export-time source of counter and gauge series.  Each
  // counter_values() / gauge_values() call (and so every export, which
  // builds on them) runs every collector and merges what it writes with
  // the instruments in name order, exactly as if each series were a
  // callback-backed instrument; a collector must therefore only read.
  // Collector series are not instruments: their names must not collide
  // with registered ones, and counter()/gauge() cannot look them up.
  void add_collector(std::function<void(MetricSink&)> fn);

  // Zeroes every owned instrument (callback-backed ones and collectors are
  // left alone — their source of truth lives in the layer).  Used by
  // benches to scope the registry to a measurement window.
  void reset();

  // -- introspection (sorted by name) -----------------------------------------
  // Every counter / gauge reading, instruments and collector series alike.
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
  // {"counters":{...},"gauges":{...},"summaries":{...},"histograms":{...}}
  std::string to_json() const;
  // Prometheus text exposition: names sanitized to [a-zA-Z0-9_:], "bcl_"
  // prefix, # TYPE comments, summaries as _count/_sum/_min/_max, histogram
  // quantiles as {quantile="0.5"} labels.
  std::string to_prometheus() const;

 private:
  // Every collector's series, each list sorted by name.
  MetricSink collect() const;

  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Summary>> summaries_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::vector<std::function<void(MetricSink&)>> collectors_;
};

// Periodic snapshot daemon.  start() spawns the loop; each tick records
// every counter and gauge value.  The loop exits on stop() or when the
// engine's non-daemon tasks have all finished (checked after each sleep),
// so it never keeps Engine::run() alive on its own.
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

}  // namespace sim
