#include "sim/metrics.hpp"

#include <algorithm>
#include <cassert>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <set>
#include <utility>

#include "sim/trace.hpp"

namespace sim {

std::string format_metric_value(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char esc[8];
          std::snprintf(esc, sizeof esc, "\\u%04x", c);
          out += esc;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

namespace {

std::string prom_name(const std::string& name) {
  std::string out = "bcl_";
  for (unsigned char c : name) {
    out += (std::isalnum(c) || c == '_' || c == ':') ? static_cast<char>(c)
                                                     : '_';
  }
  return out;
}

constexpr auto kByName = [](const auto& a, const auto& b) {
  return a.first < b.first;
};

// Sorts one kind's readings by name.  Names are unique across instruments
// and collectors, so the order does not depend on the sort's stability.
template <typename V>
void sort_by_name(std::vector<std::pair<std::string, V>>& values) {
  std::sort(values.begin(), values.end(), kByName);
  assert(std::adjacent_find(values.begin(), values.end(),
                            [](const auto& a, const auto& b) {
                              return a.first == b.first;
                            }) == values.end());
}

// Adds the owned instruments' readings to one kind's collected series.
template <typename V, typename Instruments>
void append_instruments(std::vector<std::pair<std::string, V>>& out,
                        const Instruments& instruments) {
  out.reserve(out.size() + instruments.size());
  for (const auto& [name, inst] : instruments) {
    out.emplace_back(name, inst->value());
  }
}

}  // namespace

Counter& MetricRegistry::counter(const std::string& name) {
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricRegistry::gauge(const std::string& name) {
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Summary& MetricRegistry::summary(const std::string& name) {
  auto& slot = summaries_[name];
  if (!slot) slot = std::make_unique<Summary>();
  return *slot;
}

Histogram& MetricRegistry::histogram(const std::string& name) {
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

std::optional<double> MetricRegistry::value(std::string_view name) const {
  if (const auto it = counters_.find(name); it != counters_.end()) {
    return static_cast<double>(it->second->value());
  }
  if (const auto it = gauges_.find(name); it != gauges_.end()) {
    return it->second->value();
  }
  MetricSink sink;
  collect(sink, Reach::kNamed);
  for (const auto& [n, v] : sink.counters_) {
    if (n == name) return static_cast<double>(v);
  }
  for (const auto& [n, v] : sink.gauges_) {
    if (n == name) return v;
  }
  return std::nullopt;
}

void MetricRegistry::add_collector(std::function<void(MetricSink&)> fn) {
  collectors_.push_back(std::move(fn));
}

void MetricRegistry::add_peer_collector(
    std::function<void(MetricSink&)> fn) {
  peer_collectors_.push_back(std::move(fn));
}

void MetricRegistry::collect(MetricSink& sink, Reach reach) const {
  for (const auto& fn : collectors_) fn(sink);
  if (reach == Reach::kNamed) {
    for (const auto& fn : peer_collectors_) fn(sink);
  }
}

MetricSink MetricRegistry::snapshot(Reach reach) const {
  MetricSink sink;
  collect(sink, reach);
  append_instruments(sink.counters_, counters_);
  append_instruments(sink.gauges_, gauges_);
  sort_by_name(sink.counters_);
  sort_by_name(sink.gauges_);
  return sink;
}

std::vector<std::pair<std::string, double>> MetricRegistry::flatten(
    MetricSink s) {
  std::vector<std::pair<std::string, double>> out;
  out.reserve(s.counters_.size() + s.gauges_.size());
  for (auto& [name, v] : s.counters_) {
    out.emplace_back(std::move(name), static_cast<double>(v));
  }
  // Each run's storage goes as soon as its readings have moved, so the
  // pages of the result and of at most one run are touched at once: on a
  // large cluster the export is the peak of a run's memory.
  std::exchange(s.counters_, {});
  out.insert(out.end(), std::make_move_iterator(s.gauges_.begin()),
             std::make_move_iterator(s.gauges_.end()));
  std::exchange(s.gauges_, {});
  return out;
}

std::vector<std::pair<std::string, std::uint64_t>>
MetricRegistry::counter_values() const {
  return snapshot(Reach::kFlat).counters_;
}

std::vector<std::pair<std::string, double>> MetricRegistry::gauge_values()
    const {
  return snapshot(Reach::kFlat).gauges_;
}

void MetricRegistry::reset() {
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, s] : summaries_) *s = Summary{};
  for (auto& [name, h] : histograms_) *h = Histogram{};
}

std::vector<std::pair<std::string, double>> MetricRegistry::scalar_values()
    const {
  return flatten(snapshot(Reach::kFlat));
}

std::string MetricRegistry::to_json() const {
  const MetricSink values = snapshot(Reach::kNamed);
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, v] : values.counters_) {
    out += first ? "\n" : ",\n";
    out += "    \"" + json_escape(name) + "\": " + std::to_string(v);
    first = false;
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, v] : values.gauges_) {
    out += first ? "\n" : ",\n";
    out += "    \"" + json_escape(name) + "\": " + format_metric_value(v);
    first = false;
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"summaries\": {";
  first = true;
  for (const auto& [name, s] : summaries_) {
    out += first ? "\n" : ",\n";
    out += "    \"" + json_escape(name) + "\": {\"count\": " +
           std::to_string(s->count()) + ", \"sum\": " +
           format_metric_value(s->sum()) + ", \"mean\": " +
           format_metric_value(s->mean()) + ", \"min\": " +
           format_metric_value(s->min()) + ", \"max\": " +
           format_metric_value(s->max()) + "}";
    first = false;
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    out += first ? "\n" : ",\n";
    out += "    \"" + json_escape(name) + "\": {\"count\": " +
           std::to_string(h->count()) + ", \"p0\": " +
           format_metric_value(h->percentile(0.0)) + ", \"p50\": " +
           format_metric_value(h->percentile(50.0)) + ", \"p90\": " +
           format_metric_value(h->percentile(90.0)) + ", \"p99\": " +
           format_metric_value(h->percentile(99.0)) + ", \"p100\": " +
           format_metric_value(h->percentile(100.0)) + "}";
    first = false;
  }
  out += first ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

std::string MetricRegistry::to_prometheus() const {
  const MetricSink values = snapshot(Reach::kNamed);
  std::string out;
  for (const auto& [name, v] : values.counters_) {
    const std::string p = prom_name(name);
    out += "# TYPE " + p + " counter\n";
    out += p + " " + std::to_string(v) + "\n";
  }
  for (const auto& [name, v] : values.gauges_) {
    const std::string p = prom_name(name);
    out += "# TYPE " + p + " gauge\n";
    out += p + " " + format_metric_value(v) + "\n";
  }
  for (const auto& [name, s] : summaries_) {
    const std::string p = prom_name(name);
    out += "# TYPE " + p + " summary\n";
    out += p + "_count " + std::to_string(s->count()) + "\n";
    out += p + "_sum " + format_metric_value(s->sum()) + "\n";
    out += p + "_min " + format_metric_value(s->min()) + "\n";
    out += p + "_max " + format_metric_value(s->max()) + "\n";
  }
  for (const auto& [name, h] : histograms_) {
    const std::string p = prom_name(name);
    out += "# TYPE " + p + " summary\n";
    out += p + "_count " + std::to_string(h->count()) + "\n";
    for (const double q : {0.5, 0.9, 0.99}) {
      out += p + "{quantile=\"" + format_metric_value(q) + "\"} " +
             format_metric_value(h->percentile(q * 100.0)) + "\n";
    }
  }
  return out;
}

void Sampler::start(Time period) {
  if (running_) return;
  period_ = period;
  running_ = true;
  eng_.spawn_daemon(loop());
}

void Sampler::tick() {
  MetricSink values = reg_.snapshot(MetricRegistry::Reach::kNamed);
  if (trace_ != nullptr && trace_->enabled()) {
    for (const auto& [name, v] : values.gauges_) {
      trace_->counter(name, "value", v);
    }
  }
  ticks_.push_back(
      Tick{eng_.now(), MetricRegistry::flatten(std::move(values))});
}

Task<void> Sampler::loop() {
  // Sample-then-sleep: the first tick lands at start time, and the loop
  // re-checks liveness after each period so a finished workload gets one
  // trailing sample and then lets the event queue drain.
  do {
    tick();
    co_await eng_.sleep(period_);
  } while (running_ && eng_.active_tasks() > 0);
  running_ = false;
}

std::string Sampler::to_csv() const {
  std::set<std::string> names;
  for (const auto& t : ticks_) {
    for (const auto& [name, value] : t.values) names.insert(name);
  }
  std::string out = "time_us";
  for (const auto& n : names) {
    out += ',';
    out += n;
  }
  out += "\n";
  for (const auto& t : ticks_) {
    out += format_metric_value(t.at.to_us());
    // A tick holds two sorted runs (counters, then gauges); sort them into
    // one so a single linear merge against the header finds every value.
    auto values = t.values;
    std::stable_sort(values.begin(), values.end(), kByName);
    auto it = values.begin();
    for (const auto& n : names) {
      while (it != values.end() && it->first < n) ++it;
      out += ',';
      if (it != values.end() && it->first == n) {
        out += format_metric_value(it->second);
      } else {
        out += '0';
      }
    }
    out += "\n";
  }
  return out;
}

}  // namespace sim
