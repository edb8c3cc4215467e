// Tests for MetricRegistry, Sampler, exporters, and the trace/registry
// integration: determinism across identical runs, JSON validity of every
// exporter, and agreement between registry summaries and trace events.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "bcl/bcl.hpp"
#include "heap_counter.hpp"
#include "sim/metrics.hpp"
#include "sim/trace.hpp"

namespace {

using sim::Engine;
using sim::MetricRegistry;
using sim::Sampler;
using sim::Task;
using sim::Time;

// ---------------------------------------------------------------------------
// A minimal recursive-descent JSON validator: enough of RFC 8259 to catch
// unescaped quotes, truncated documents, and trailing garbage.
class JsonChecker {
 public:
  explicit JsonChecker(std::string s) : s_{std::move(s)} {}
  bool valid() {
    ws();
    if (!value()) return false;
    ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++pos_;  // '{'
    ws();
    if (peek() == '}') { ++pos_; return true; }
    for (;;) {
      ws();
      if (!string()) return false;
      ws();
      if (peek() != ':') return false;
      ++pos_;
      ws();
      if (!value()) return false;
      ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    ws();
    if (peek() == ']') { ++pos_; return true; }
    for (;;) {
      ws();
      if (!value()) return false;
      ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c == '"') { ++pos_; return true; }
      if (static_cast<unsigned char>(c) < 0x20) return false;  // raw control
      if (c == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
        const char e = s_[pos_];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= s_.size() || !std::isxdigit(
                    static_cast<unsigned char>(s_[pos_]))) {
              return false;
            }
          }
        } else if (std::string{"\"\\/bfnrt"}.find(e) == std::string::npos) {
          return false;
        }
      }
      ++pos_;
    }
    return false;  // unterminated
  }
  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    if (peek() == '.') {
      ++pos_;
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    return pos_ > start;
  }
  bool literal(const char* lit) {
    const std::string l{lit};
    if (s_.compare(pos_, l.size(), l) != 0) return false;
    pos_ += l.size();
    return true;
  }
  void ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\t' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }
  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }

  std::string s_;
  std::size_t pos_ = 0;
};

TEST(MetricRegistry, CounterAndGaugeBasics) {
  MetricRegistry reg;
  auto& c = reg.counter("a.b.sends");
  c.inc();
  c.add(4);
  EXPECT_EQ(c.value(), 5u);
  // Lookup-or-create returns the same instrument.
  EXPECT_EQ(&reg.counter("a.b.sends"), &c);
  EXPECT_EQ(reg.counter("a.b.sends").value(), 5u);

  auto& g = reg.gauge("a.b.depth");
  g.set(3.5);
  g.add(0.5);
  EXPECT_DOUBLE_EQ(g.value(), 4.0);
  EXPECT_EQ(&reg.gauge("a.b.depth"), &g);
}

// A collector reads the layer's state when an export runs, not when it is
// added.
TEST(MetricRegistry, CollectorReadsLayerStateAtExport) {
  MetricRegistry reg;
  std::uint64_t source = 7;
  reg.add_collector([&source](sim::MetricSink& out) {
    out.counter("cb.count", source);
    out.gauge("cb.depth", static_cast<double>(source) / 2.0);
  });
  EXPECT_EQ(reg.value("cb.count"), 7.0);
  source = 10;
  EXPECT_EQ(reg.value("cb.count"), 10.0);
  EXPECT_EQ(reg.value("cb.depth"), 5.0);
  using Counters = std::vector<std::pair<std::string, std::uint64_t>>;
  EXPECT_EQ(reg.counter_values(), (Counters{{"cb.count", 10}}));
}

TEST(MetricRegistry, ResetZeroesOwnedOnly) {
  MetricRegistry reg;
  std::uint64_t source = 42;
  reg.counter("owned").inc(9);
  reg.gauge("owned.g").set(1.5);
  reg.add_collector(
      [&source](sim::MetricSink& out) { out.counter("cb", source); });
  reg.summary("s").add(2.0);
  reg.histogram("h").add(3.0);
  reg.reset();
  EXPECT_EQ(reg.counter("owned").value(), 0u);
  EXPECT_DOUBLE_EQ(reg.gauge("owned.g").value(), 0.0);
  EXPECT_EQ(reg.value("cb"), 42.0);  // the collector's source is untouched
  EXPECT_EQ(reg.summary("s").count(), 0u);
  EXPECT_EQ(reg.histogram("h").count(), 0u);
}

// value() reads owned and collected series alike and creates nothing: an
// unknown name reads as nothing and leaves every export as it was.
TEST(MetricRegistry, ValueLooksUpWithoutCreating) {
  MetricRegistry reg;
  reg.counter("owned.c").inc(3);
  reg.gauge("owned.g").set(0.5);
  reg.add_collector([](sim::MetricSink& out) {
    out.counter("col.c", 4);
    out.gauge("col.g", 1.5);
  });
  const std::string json = reg.to_json();
  const std::string prom = reg.to_prometheus();
  const auto scalars = reg.scalar_values();
  EXPECT_EQ(reg.value("owned.c"), 3.0);
  EXPECT_EQ(reg.value("owned.g"), 0.5);
  EXPECT_EQ(reg.value("col.c"), 4.0);
  EXPECT_EQ(reg.value("col.g"), 1.5);
  EXPECT_EQ(reg.value("no.such.series"), std::nullopt);
  EXPECT_EQ(reg.value("col"), std::nullopt);  // a prefix names no series
  EXPECT_EQ(reg.to_json(), json);
  EXPECT_EQ(reg.to_prometheus(), prom);
  EXPECT_EQ(reg.scalar_values(), scalars);
}

// Each export runs every collector once, however many kinds of series it
// writes: scalar_values(), to_json() and one Sampler tick that also emits
// trace counter events each collect one time.  A per-peer collector runs
// once for each export by name and never for a flat list.
TEST(MetricRegistry, EachExportRunsEveryCollectorOnce) {
  Engine eng;
  MetricRegistry reg;
  reg.counter("owned.c").inc();
  int runs_a = 0;
  int runs_b = 0;
  int runs_peer = 0;
  reg.add_collector([&runs_a](sim::MetricSink& out) {
    ++runs_a;
    out.counter("a.c", 1);
    out.gauge("a.g", 2.0);
  });
  reg.add_collector([&runs_b](sim::MetricSink& out) {
    ++runs_b;
    out.gauge("b.g", 3.0);
  });
  reg.add_peer_collector([&runs_peer](sim::MetricSink& out) {
    ++runs_peer;
    out.counter("p.peer1.c", 4);
    out.gauge("p.peer1.g", 5.0);
  });
  const auto runs = [&](const auto& export_once) {
    runs_a = 0;
    runs_b = 0;
    runs_peer = 0;
    export_once();
    return std::tuple{runs_a, runs_b, runs_peer};
  };
  const std::tuple named{1, 1, 1};
  const std::tuple flat{1, 1, 0};
  EXPECT_EQ(runs([&] { (void)reg.scalar_values(); }), flat);
  EXPECT_EQ(runs([&] { (void)reg.to_json(); }), named);
  EXPECT_EQ(runs([&] { (void)reg.to_prometheus(); }), named);
  EXPECT_EQ(runs([&] { (void)reg.counter_values(); }), flat);
  EXPECT_EQ(runs([&] { (void)reg.gauge_values(); }), flat);
  EXPECT_EQ(runs([&] { (void)reg.value("a.c"); }), named);

  sim::Trace tr{eng};
  tr.enable();
  Sampler sampler{eng, reg};
  sampler.set_trace(&tr);
  EXPECT_EQ(runs([&] {
              sampler.start(Time::us(10));
              eng.run();  // no live task: exactly one tick
            }),
            named);
  EXPECT_EQ(sampler.samples(), 1u);
  EXPECT_EQ(tr.counter_events().size(), 3u);  // a.g, b.g and p.peer1.g
}

TEST(MetricRegistry, JsonExportIsValid) {
  MetricRegistry reg;
  reg.counter("node0.driver.sends").inc(3);
  reg.gauge("node0.nic.rx_queue").set(2.0);
  reg.summary("node0.kernel.trap-enter.us").add(1.25);
  reg.histogram("mpi.rank0.send_bytes").add(4096.0);
  // A hostile name: quotes, backslash, newline must be escaped.
  reg.counter("weird.\"name\"\\with\nnasties").inc();
  const std::string json = reg.to_json();
  JsonChecker chk{json};
  EXPECT_TRUE(chk.valid()) << json;
  EXPECT_NE(json.find("node0.driver.sends"), std::string::npos);
}

TEST(MetricRegistry, EmptyJsonIsValid) {
  MetricRegistry reg;
  JsonChecker chk{reg.to_json()};
  EXPECT_TRUE(chk.valid());
}

TEST(MetricRegistry, PrometheusExport) {
  MetricRegistry reg;
  reg.counter("node0.driver.sends").inc(3);
  reg.gauge("node0.nic.rx_queue").set(2.0);
  reg.summary("node0.kernel.trap-enter.us").add(1.25);
  const std::string prom = reg.to_prometheus();
  EXPECT_NE(prom.find("# TYPE bcl_node0_driver_sends counter"),
            std::string::npos) << prom;
  EXPECT_NE(prom.find("bcl_node0_driver_sends 3"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE bcl_node0_nic_rx_queue gauge"),
            std::string::npos);
  EXPECT_NE(prom.find("_count"), std::string::npos);
}

// A histogram exports as a Prometheus summary: its count and the p50, p90
// and p99 quantiles, each the upper edge of the log2 bin that reaches it.
TEST(MetricRegistry, PrometheusExportsHistogramQuantiles) {
  MetricRegistry reg;
  auto& h = reg.histogram("node0.mpi.wait-us");
  for (const double x : {1.0, 2.0, 3.0, 100.0}) h.add(x);
  const std::string prom = reg.to_prometheus();
  EXPECT_NE(prom.find("# TYPE bcl_node0_mpi_wait_us summary\n"),
            std::string::npos) << prom;
  EXPECT_NE(prom.find("bcl_node0_mpi_wait_us_count 4\n"), std::string::npos)
      << prom;
  EXPECT_NE(prom.find("bcl_node0_mpi_wait_us{quantile=\"0.5\"} 4\n"),
            std::string::npos) << prom;
  EXPECT_NE(prom.find("bcl_node0_mpi_wait_us{quantile=\"0.9\"} 128\n"),
            std::string::npos) << prom;
  EXPECT_NE(prom.find("bcl_node0_mpi_wait_us{quantile=\"0.99\"} 128\n"),
            std::string::npos) << prom;
}

TEST(Sampler, TicksAndCsv) {
  Engine eng;
  MetricRegistry reg;
  auto& g = reg.gauge("load");
  Sampler sampler{eng, reg};
  sampler.start(Time::us(10));
  eng.spawn([](Engine& e, sim::Gauge& gauge) -> Task<void> {
    for (int i = 0; i < 10; ++i) {
      gauge.set(static_cast<double>(i));
      co_await e.sleep(Time::us(10));
    }
  }(eng, g));
  eng.run();  // must terminate: the sampler parks when the task drains
  EXPECT_GE(sampler.samples(), 5u);
  const std::string csv = sampler.to_csv();
  EXPECT_EQ(csv.rfind("time_us,", 0), 0u) << csv;
  EXPECT_NE(csv.find("load"), std::string::npos);
  // Rows: header + one per tick.
  std::size_t rows = 0;
  for (char ch : csv) rows += ch == '\n' ? 1 : 0;
  EXPECT_EQ(rows, sampler.samples() + 1);
}

// Column `name` of a Sampler CSV, one field per data row (metric names
// carry no commas or quotes, so no CSV quoting to undo).
std::vector<std::string> csv_column(const std::string& csv,
                                    const std::string& name) {
  std::istringstream lines{csv};
  std::string line;
  const auto fields = [](const std::string& row) {
    std::vector<std::string> out;
    std::istringstream in{row};
    for (std::string f; std::getline(in, f, ',');) out.push_back(f);
    return out;
  };
  std::getline(lines, line);
  const std::vector<std::string> header = fields(line);
  std::size_t col = 0;
  while (col < header.size() && header[col] != name) ++col;
  std::vector<std::string> out;
  if (col == header.size()) return out;
  while (std::getline(lines, line)) out.push_back(fields(line).at(col));
  return out;
}

// scalar_values() is two sorted runs, counters then gauges.  A gauge
// whose name sorts before a counter's must still land in its own column,
// not read 0 because the merge against the header already walked past it.
TEST(Sampler, CsvCarriesGaugesThatSortBeforeCounters) {
  Engine eng;
  MetricRegistry reg;
  auto& count = reg.counter("b.count");
  auto& level = reg.gauge("a.level");
  Sampler sampler{eng, reg};
  sampler.start(Time::us(10));
  eng.spawn([](Engine& e, sim::Counter& c, sim::Gauge& g) -> Task<void> {
    for (int i = 1; i <= 5; ++i) {
      c.inc();
      g.set(10.0 * i);
      co_await e.sleep(Time::us(10));
    }
  }(eng, count, level));
  eng.run();
  const std::string csv = sampler.to_csv();
  const std::vector<std::string> counts = csv_column(csv, "b.count");
  const std::vector<std::string> levels = csv_column(csv, "a.level");
  ASSERT_EQ(levels.size(), sampler.samples()) << csv;
  ASSERT_EQ(counts.size(), levels.size());
  for (std::size_t i = 0; i < levels.size(); ++i) {
    EXPECT_EQ(std::stod(levels[i]), 10.0 * std::stod(counts[i])) << csv;
  }
  EXPECT_EQ(levels.back(), "50") << csv;
}

// A collector's series read exactly as if each were an instrument: at its
// sorted position in every export, untouched by reset(), in the Sampler's
// CSV and in its trace counter events.
TEST(MetricRegistry, CollectorSeriesMergeAtSortedPositions) {
  Engine eng;
  MetricRegistry reg;
  reg.counter("m.c2").inc(2);
  reg.gauge("m.g2").set(2.5);
  double level = 1.5;
  reg.add_collector([&level](sim::MetricSink& out) {
    out.gauge("m.g3", level);  // written out of order on purpose
    out.counter("m.c3", 3);
    out.gauge("m.g1", -level);
    out.counter("m.c1", 1);
  });
  using Counters = std::vector<std::pair<std::string, std::uint64_t>>;
  using Scalars = std::vector<std::pair<std::string, double>>;
  EXPECT_EQ(reg.counter_values(),
            (Counters{{"m.c1", 1}, {"m.c2", 2}, {"m.c3", 3}}));
  EXPECT_EQ(reg.gauge_values(),
            (Scalars{{"m.g1", -1.5}, {"m.g2", 2.5}, {"m.g3", 1.5}}));
  EXPECT_EQ(reg.scalar_values(), (Scalars{{"m.c1", 1},
                                          {"m.c2", 2},
                                          {"m.c3", 3},
                                          {"m.g1", -1.5},
                                          {"m.g2", 2.5},
                                          {"m.g3", 1.5}}));
  const std::string json = reg.to_json();
  EXPECT_TRUE(JsonChecker{json}.valid()) << json;
  EXPECT_NE(json.find("{\n    \"m.c1\": 1,\n    \"m.c2\": 2,\n"
                      "    \"m.c3\": 3\n  }"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("{\n    \"m.g1\": -1.5,\n    \"m.g2\": 2.5,\n"
                      "    \"m.g3\": 1.5\n  }"),
            std::string::npos)
      << json;
  const std::string prom = reg.to_prometheus();
  EXPECT_EQ(prom.rfind("# TYPE bcl_m_c1 counter\nbcl_m_c1 1\n"
                       "# TYPE bcl_m_c2 counter\nbcl_m_c2 2\n"
                       "# TYPE bcl_m_c3 counter\nbcl_m_c3 3\n"
                       "# TYPE bcl_m_g1 gauge\nbcl_m_g1 -1.5\n"
                       "# TYPE bcl_m_g2 gauge\nbcl_m_g2 2.5\n"
                       "# TYPE bcl_m_g3 gauge\nbcl_m_g3 1.5\n",
                       0),
            0u)
      << prom;
  reg.reset();  // zeroes the owned instruments only
  EXPECT_EQ(reg.counter_values(),
            (Counters{{"m.c1", 1}, {"m.c2", 0}, {"m.c3", 3}}));

  sim::Trace tr{eng};
  tr.enable();
  Sampler sampler{eng, reg};
  sampler.set_trace(&tr);
  sampler.start(Time::us(10));
  eng.spawn([](Engine& e, double& level) -> Task<void> {
    co_await e.sleep(Time::us(5));
    level = 4.0;
    co_await e.sleep(Time::us(20));  // alive through the ticks at 10 and 20
  }(eng, level));
  eng.run();
  const std::string csv = sampler.to_csv();
  EXPECT_EQ(csv_column(csv, "m.g3"),
            (std::vector<std::string>{"1.5", "4", "4"}))
      << csv;
  EXPECT_EQ(csv_column(csv, "m.g1"),
            (std::vector<std::string>{"-1.5", "-4", "-4"}))
      << csv;
  EXPECT_EQ(csv_column(csv, "m.c3"),
            (std::vector<std::string>{"3", "3", "3"}))
      << csv;
  // One counter event per gauge per tick, in name order.
  std::vector<std::pair<std::string, double>> events;
  for (const auto& ev : tr.counter_events()) {
    events.emplace_back(ev.track, ev.value);
  }
  ASSERT_EQ(events.size(), 9u);
  EXPECT_EQ(events[0], (std::pair<std::string, double>{"m.g1", -1.5}));
  EXPECT_EQ(events[2], (std::pair<std::string, double>{"m.g3", 1.5}));
  EXPECT_EQ(events[3], (std::pair<std::string, double>{"m.g1", -4.0}));
  EXPECT_EQ(events[8], (std::pair<std::string, double>{"m.g3", 4.0}));
}

// A per-peer collector's series show wherever series are shown by name:
// in to_json, to_prometheus, a Sampler tick (its CSV row and its trace
// counters) and value(name).  The flat lists that callers sum over carry
// none of them.
TEST(MetricRegistry, PerPeerSeriesStayOutOfTheFlatLists) {
  Engine eng;
  MetricRegistry reg;
  reg.counter("n.c").inc(2);
  reg.add_collector([](sim::MetricSink& out) { out.gauge("n.g", 0.5); });
  reg.add_peer_collector([](sim::MetricSink& out) {
    out.counter("n.peer1.c", 7);
    out.gauge("n.peer1.g", 1.5);
  });
  using Counters = std::vector<std::pair<std::string, std::uint64_t>>;
  using Scalars = std::vector<std::pair<std::string, double>>;
  EXPECT_EQ(reg.counter_values(), (Counters{{"n.c", 2}}));
  EXPECT_EQ(reg.gauge_values(), (Scalars{{"n.g", 0.5}}));
  EXPECT_EQ(reg.scalar_values(), (Scalars{{"n.c", 2}, {"n.g", 0.5}}));

  EXPECT_EQ(reg.value("n.peer1.c"), 7.0);
  EXPECT_EQ(reg.value("n.peer1.g"), 1.5);
  EXPECT_EQ(reg.value("n.g"), 0.5);
  const std::string json = reg.to_json();
  EXPECT_TRUE(JsonChecker{json}.valid()) << json;
  EXPECT_NE(json.find("{\n    \"n.c\": 2,\n    \"n.peer1.c\": 7\n  }"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("{\n    \"n.g\": 0.5,\n    \"n.peer1.g\": 1.5\n  }"),
            std::string::npos)
      << json;
  const std::string prom = reg.to_prometheus();
  EXPECT_NE(prom.find("# TYPE bcl_n_peer1_c counter\nbcl_n_peer1_c 7\n"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("# TYPE bcl_n_peer1_g gauge\nbcl_n_peer1_g 1.5\n"),
            std::string::npos)
      << prom;

  sim::Trace tr{eng};
  tr.enable();
  Sampler sampler{eng, reg};
  sampler.set_trace(&tr);
  sampler.start(Time::us(10));
  eng.run();  // no live task: exactly one tick
  ASSERT_EQ(sampler.samples(), 1u);
  const std::string csv = sampler.to_csv();
  EXPECT_EQ(csv_column(csv, "n.peer1.c"), (std::vector<std::string>{"7"}))
      << csv;
  EXPECT_EQ(csv_column(csv, "n.peer1.g"), (std::vector<std::string>{"1.5"}))
      << csv;
  std::vector<std::pair<std::string, double>> events;
  for (const auto& ev : tr.counter_events()) {
    events.emplace_back(ev.track, ev.value);
  }
  EXPECT_EQ(events, (Scalars{{"n.g", 0.5}, {"n.peer1.g", 1.5}}));
}

// ---------------------------------------------------------------------------
// Cluster-level: a fixed workload on a 2-node cluster.
struct RunArtifacts {
  std::string json;
  std::string prom;
  std::string csv;
  std::string trace;
};

RunArtifacts run_cluster_once() {
  bcl::ClusterConfig cfg;
  cfg.nodes = 2;
  bcl::BclCluster c{cfg};
  auto& tx = c.open_endpoint(0);
  auto& rx = c.open_endpoint(1);
  c.trace().enable();
  c.sampler().set_trace(&c.trace());
  c.start_sampler();
  c.engine().spawn([](bcl::Endpoint& ep, bcl::PortId dst) -> Task<void> {
    auto buf = ep.process().alloc(2048);
    for (int i = 0; i < 3; ++i) {
      auto r = co_await ep.send_system(dst, buf, 512);
      EXPECT_TRUE(r.ok());
      (void)co_await ep.wait_send();
    }
  }(tx, rx.id()));
  c.engine().spawn([](bcl::Endpoint& ep) -> Task<void> {
    for (int i = 0; i < 3; ++i) {
      auto ev = co_await ep.wait_recv();
      (void)co_await ep.copy_out_system(ev);
    }
  }(rx));
  c.engine().run();
  return RunArtifacts{c.metrics().to_json(), c.metrics().to_prometheus(),
                      c.sampler().to_csv(), c.trace().to_chrome_json()};
}

TEST(ClusterMetrics, DeterministicAcrossIdenticalRuns) {
  const RunArtifacts a = run_cluster_once();
  const RunArtifacts b = run_cluster_once();
  EXPECT_EQ(a.json, b.json);
  EXPECT_EQ(a.prom, b.prom);
  EXPECT_EQ(a.csv, b.csv);
  EXPECT_EQ(a.trace, b.trace);
}

TEST(ClusterMetrics, ExportsAreValidAndPopulated) {
  const RunArtifacts a = run_cluster_once();
  JsonChecker json_chk{a.json};
  EXPECT_TRUE(json_chk.valid());
  JsonChecker trace_chk{a.trace};
  EXPECT_TRUE(trace_chk.valid());
  // Every layer shows up in the registry.
  for (const char* name :
       {"node0.driver.sends", "node0.osk.pin_misses",
        "node0.nic.mcp.dma_tx_bytes", "node0.nic.tx_packets",
        "node1.lib.port0.recvs", "fabric.link."}) {
    EXPECT_NE(a.json.find(name), std::string::npos) << name;
  }
  EXPECT_EQ(a.csv.rfind("time_us,", 0), 0u);
}

TEST(ClusterMetrics, TraceCarriesSpansCountersAndFlows) {
  bcl::ClusterConfig cfg;
  cfg.nodes = 2;
  bcl::BclCluster c{cfg};
  auto& tx = c.open_endpoint(0);
  auto& rx = c.open_endpoint(1);
  c.trace().enable();
  c.sampler().set_trace(&c.trace());
  c.start_sampler();
  c.engine().spawn([](bcl::Endpoint& ep, bcl::PortId dst) -> Task<void> {
    auto buf = ep.process().alloc(256);
    auto r = co_await ep.send_system(dst, buf, 256);
    EXPECT_TRUE(r.ok());
    (void)co_await ep.wait_send();
  }(tx, rx.id()));
  c.engine().spawn([](bcl::Endpoint& ep) -> Task<void> {
    auto ev = co_await ep.wait_recv();
    (void)co_await ep.copy_out_system(ev);
  }(rx));
  c.engine().run();

  EXPECT_FALSE(c.trace().events().empty());
  EXPECT_FALSE(c.trace().counter_events().empty());
  // One full flow: begin at the sender kernel, steps at both NICs, end at
  // the receiver library.
  char phases[3] = {0, 0, 0};
  for (const auto& f : c.trace().flow_events()) {
    if (f.phase == 's') phases[0] = 1;
    if (f.phase == 't') phases[1] = 1;
    if (f.phase == 'f') phases[2] = 1;
  }
  EXPECT_EQ(phases[0] + phases[1] + phases[2], 3);
  const std::string json = c.trace().to_chrome_json();
  JsonChecker chk{json};
  EXPECT_TRUE(chk.valid());
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"t\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
}

// Telemetry costs nothing until it is read: building a 64-node mesh
// cluster adds one collector per layer instance, and owned counters only
// where a hot path bumps them.  With a callback instrument per series
// (9,856 of them, each a heap name, a map node, an instrument and a
// std::function) the same build made 48,240 heap allocations.
TEST(ClusterMetrics, MeshBuildAllocatesNothingPerCollectedSeries) {
#if defined(__SANITIZE_ADDRESS__)
  GTEST_SKIP() << "counts the allocations of an uninstrumented build";
#else
  bcl::ClusterConfig cfg;
  cfg.nodes = 64;
  cfg.fabric.kind = hw::FabricKind::kNwrcMesh;
  std::unique_ptr<bcl::BclCluster> c;
  const std::size_t allocations = heap_counter::allocations_during(
      [&] { c = std::make_unique<bcl::BclCluster>(cfg); });
  EXPECT_LE(allocations, 48'240u * 6 / 10);
  // Every series is still exported.
  EXPECT_GT(c->metrics().scalar_values().size(), 9'000u);
#endif
}

TEST(ClusterMetrics, RegistrySummariesAgreeWithTraceEvents) {
  bcl::ClusterConfig cfg;
  cfg.nodes = 2;
  bcl::BclCluster c{cfg};
  auto& tx = c.open_endpoint(0);
  auto& rx = c.open_endpoint(1);
  c.trace().enable();
  c.engine().spawn([](bcl::Endpoint& ep, bcl::PortId dst) -> Task<void> {
    auto buf = ep.process().alloc(1024);
    auto r = co_await ep.send_system(dst, buf, 1024);
    EXPECT_TRUE(r.ok());
    (void)co_await ep.wait_send();
  }(tx, rx.id()));
  c.engine().spawn([](bcl::Endpoint& ep) -> Task<void> {
    auto ev = co_await ep.wait_recv();
    (void)co_await ep.copy_out_system(ev);
  }(rx));
  c.engine().run();

  // For every per-stage summary, the sum must match replaying the events.
  std::size_t compared = 0;
  for (const auto& [name, s] : c.metrics().summaries()) {
    if (name.size() < 4 || name.compare(name.size() - 3, 3, ".us") != 0) {
      continue;
    }
    const std::string path = name.substr(0, name.size() - 3);
    const std::size_t dot = path.rfind('.');
    EXPECT_NE(dot, std::string::npos);
    const std::string component = path.substr(0, dot);
    const std::string stage = path.substr(dot + 1);
    double from_events = 0.0;
    std::uint64_t n_events = 0;
    for (const auto& e : c.trace().events()) {
      if (e.component == component && e.stage == stage) {
        from_events += (e.end - e.start).to_us();
        ++n_events;
      }
    }
    EXPECT_EQ(s->count(), n_events) << name;
    EXPECT_NEAR(s->sum(), from_events, 1e-6) << name;
    ++compared;
  }
  EXPECT_GT(compared, 5u);
}

}  // namespace
