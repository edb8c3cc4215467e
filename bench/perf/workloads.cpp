// The four seeded workloads, their correctness gate, the registry read-out
// of per-layer counts, and the traced per-op attribution.  Only public API
// is used: BclCluster/Endpoint for raw BCL, World/Mpi for the MPI tier.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <span>
#include <stdexcept>
#include <string_view>
#include <type_traits>
#include <unordered_map>

#include "bcl/bcl.hpp"
#include "cluster/cluster.hpp"
#include "cluster/workload.hpp"
#include "perf.hpp"
#include "sim/breakdown.hpp"
#include "sim/random.hpp"
#include "sim/sync.hpp"

namespace perf {

namespace {

using sim::Task;
using sim::Time;

// Work per rep at scale 1, calibrated so one rep takes a few seconds of
// host time on the reference box (README.md records the measurement).
constexpr std::uint64_t kPingPongRoundTrips = 100'000;
constexpr std::uint64_t kBulkMessages = 12'000;
constexpr std::uint64_t kIncastPerSender = 12'000;
constexpr std::uint64_t kMeshIterations = 60;

// Message sizes come in strata: a share of 0-byte messages (the paper's
// headline case), the rest split equally over kOctaves octaves
// [lo << k, lo << (k+1)), uniform inside each, in seeded random order.
// Simulated latency is an exact function of size (in steps of one MTU on
// the wire), so the mix must be both wide and fixed: with a few exact sizes
// a percentile reads one size's latency for every seed, and with freely
// drawn octaves it jumps between fragment counts from seed to seed.
constexpr std::size_t kSmallLo = 64;  // 64 B .. 4 KiB (one MTU)
constexpr std::size_t kBulkLo = 16u << 10;  // 16 KiB .. 1 MiB
constexpr int kOctaves = 6;
constexpr double kSmallZeroShare = 0.2;
constexpr std::size_t kSmallMax = kSmallLo << kOctaves;
constexpr std::size_t kBulkMax = kBulkLo << kOctaves;
constexpr std::size_t kBulkSlots = 4;  // sender buffers used in rotation
constexpr std::uint64_t kPingPongWarmup = 1000;
constexpr std::uint64_t kBulkWarmup = 2 * kBulkSlots;  // first pins
constexpr int kIncastNodes = 16;
constexpr std::size_t kIncastBytes = 1024;
constexpr int kIncastWindow = 8;  // sends outstanding per sender
constexpr std::uint64_t kIncastWarmup = kIncastWindow;  // per sender
// 15 senders x 1 KiB every 175 us on average is 88 MB/s in aggregate: 60%
// of the 146 MB/s payload rate of the receiver's link.  Above ~65% the
// congestion controller's oscillation dominates the tail and the simulated
// p99 moves by 5-20% from seed to seed; at 60% acks, ECN marks and pacing,
// and RTO recovery from the drops all stay busy and the p99 repeats within
// ~2.5%.
constexpr double kIncastMeanGapUs = 175.0;
constexpr double kIncastDropProb = 0.005;
constexpr int kMeshNodes = 64;
constexpr std::size_t kMeshShiftBytes = 4096;
constexpr std::size_t kMeshReduceCount = 128;

// An independent seeded stream per purpose, so a change to one input's
// draws never shifts another's.
std::uint64_t stream(std::uint64_t seed, std::uint64_t purpose) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + purpose;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// Sizes for `n` ops, stratified as described above (integer-only, so the
// draws repeat on any libm).
std::vector<std::uint32_t> draw_sizes(std::uint64_t n, std::size_t lo,
                                      double zero_share, sim::Rng& rng) {
  const auto zeros = static_cast<std::uint64_t>(
      std::llround(static_cast<double>(n) * zero_share));
  std::vector<std::uint32_t> sizes(zeros, 0);
  for (std::uint64_t i = zeros; i < n; ++i) {
    const std::size_t base = lo << (i % kOctaves);
    sizes.push_back(static_cast<std::uint32_t>(base + rng.below(base)));
  }
  for (std::uint64_t i = n; i > 1; --i) {
    std::swap(sizes[i - 1], sizes[rng.below(i)]);
  }
  return sizes;
}

// Warm-up ops get their own strata so the measured ops hold the exact mix.
std::vector<std::uint32_t> draw_sizes(std::uint64_t warm, std::uint64_t n,
                                      std::size_t lo, double zero_share,
                                      sim::Rng& rng) {
  auto sizes = draw_sizes(warm, lo, zero_share, rng);
  const auto rest = draw_sizes(n - warm, lo, zero_share, rng);
  sizes.insert(sizes.end(), rest.begin(), rest.end());
  return sizes;
}

std::uint64_t scaled(std::uint64_t n, const RepOptions& opt) {
  return std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::llround(static_cast<double>(n) *
                                                 opt.scale)));
}

// -- operations and the correctness ledger ------------------------------------

struct Op {
  Time start = Time::zero();
  Time end = Time::zero();
  std::uint64_t msg_id = 0;  // driver id of the carrying send
  std::uint32_t bytes = 0;
  std::uint16_t src = 0;
  std::uint16_t dst = 0;
  bool warm = false;  // excluded from the latency statistics
  bool issued = false;
  bool done = false;
};

struct Ledger {
  std::vector<Op> ops;
  std::uint64_t error_completions = 0;
  std::uint64_t corrupted = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t wrong_results = 0;
  std::vector<double> lag_us;  // open-loop generator lag per send

  void arrive(std::uint64_t uid, Time t) {
    Op& op = ops[uid];
    if (op.done) {
      ++duplicated;
      return;
    }
    op.done = true;
    op.end = t;
  }
};

// Payload layout: the op uid in the first 8 bytes when the message has room
// for it, and Process::fill_pattern's byte formula everywhere else.
std::byte pattern_byte(std::size_t i, std::uint64_t pattern) {
  return static_cast<std::byte>((i * 197 + pattern * 31 + 7) & 0xff);
}

void make_payload(std::vector<std::byte>& out, std::size_t len,
                  std::uint64_t uid) {
  out.resize(len);
  for (std::size_t i = 0; i < len; ++i) out[i] = pattern_byte(i, uid);
  if (len >= sizeof uid) std::memcpy(out.data(), &uid, sizeof uid);
}

bool payload_ok(std::span<const std::byte> data, std::size_t want_len,
                std::uint64_t uid) {
  if (data.size() != want_len) return false;
  std::size_t i = 0;
  if (want_len >= sizeof uid) {
    std::uint64_t got = 0;
    std::memcpy(&got, data.data(), sizeof got);
    if (got != uid) return false;
    i = sizeof uid;
  }
  for (; i < want_len; ++i) {
    if (data[i] != pattern_byte(i, uid)) return false;
  }
  return true;
}

std::uint64_t peek_uid(std::span<const std::byte> data) {
  std::uint64_t uid = ~std::uint64_t{0};
  if (data.size() >= sizeof uid) std::memcpy(&uid, data.data(), sizeof uid);
  return uid;
}

// Sends one op's message and waits for its local completion.  A failed send
// cannot be retried inside a closed loop, so it ends the rep.
Task<void> send_op(bcl::Endpoint& ep, bcl::PortId dst, bcl::ChannelRef ch,
                   const osk::UserBuffer& buf, Op& op, Ledger& L) {
  const auto r = co_await ep.send(dst, ch, buf, op.bytes);
  if (!r.ok()) {
    ++L.error_completions;
    throw std::runtime_error(std::string{"send failed: "} +
                             bcl::to_string(r.err));
  }
  op.msg_id = r.value;
  const bcl::SendEvent ev = co_await ep.wait_send();
  if (!ev.ok) {
    ++L.error_completions;
    throw std::runtime_error(std::string{"send completed with "} +
                             bcl::to_string(ev.err));
  }
}

// -- host-side timing of one rep ----------------------------------------------

struct Phases {
  Clock::time_point t0 = Clock::now();
  double ctor_s = 0;  // cluster or World constructor
  double setup_s = 0;
  double run_s = 0;
  double teardown_s = 0;
};

// -- registry read-out --------------------------------------------------------

bool starts_with(std::string_view s, std::string_view p) {
  return s.size() >= p.size() && s.compare(0, p.size(), p) == 0;
}
bool ends_with(std::string_view s, std::string_view p) {
  return s.size() >= p.size() &&
         s.compare(s.size() - p.size(), p.size(), p) == 0;
}

class RegistryView {
 public:
  explicit RegistryView(const sim::MetricRegistry& reg)
      : reg_{reg}, scalars_{reg.scalar_values()} {}

  double sum(std::string_view prefix, std::string_view suffix) const {
    double v = 0;
    for (const auto& [name, x] : scalars_) {
      if (starts_with(name, prefix) && ends_with(name, suffix)) v += x;
    }
    return v;
  }
  double max(std::string_view prefix, std::string_view suffix) const {
    double v = 0;
    for (const auto& [name, x] : scalars_) {
      if (starts_with(name, prefix) && ends_with(name, suffix)) {
        v = std::max(v, x);
      }
    }
    return v;
  }
  // Summed span time (Summary::sum) and sample count over matching series.
  double summary_sum(std::string_view suffix) const {
    double v = 0;
    for (const auto& [name, s] : reg_.summaries()) {
      if (starts_with(name, "node") && ends_with(name, suffix)) v += s->sum();
    }
    return v;
  }
  double summary_count(std::string_view suffix) const {
    double v = 0;
    for (const auto& [name, s] : reg_.summaries()) {
      if (starts_with(name, "node") && ends_with(name, suffix)) {
        v += static_cast<double>(s->count());
      }
    }
    return v;
  }

 private:
  const sim::MetricRegistry& reg_;
  std::vector<std::pair<std::string, double>> scalars_;
};

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  // Nearest rank: the smallest sample with at least p% of samples <= it.
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
  return sorted[std::min(sorted.size(), std::max<std::size_t>(rank, 1)) - 1];
}

void collect_registry(std::map<std::string, double>& v,
                      const sim::MetricRegistry& reg, double ops) {
  const RegistryView R{reg};
  v["hw.link.packets"] = R.sum("fabric.link.", ".packets");
  v["hw.link.bytes"] = R.sum("fabric.link.", ".bytes");
  v["hw.link.dropped"] = R.sum("fabric.link.", ".dropped");
  v["hw.link.ecn_marks"] = R.sum("fabric.link.", ".ecn_marks");
  v["hw.link.retx_packets"] = R.sum("fabric.link.", ".retx_packets");
  v["hw.link.queue_wait_us"] = R.sum("fabric.link.", ".queue_wait_us");
  v["hw.link.blocked_us"] = R.sum("fabric.link.", ".blocked_us");
  v["hw.link.util_max"] = R.max("fabric.link.", ".util");
  v["hw.switch.forwarded"] = R.sum("fabric.switch.", ".forwarded") +
                             R.sum("fabric.router.", ".forwarded");

  v["osk.traps_per_op"] = ratio(R.sum("node", ".osk.traps"), ops);
  const double hits = R.sum("node", ".osk.pin_hits");
  v["osk.pin_hit_ratio"] = ratio(hits, hits + R.sum("node", ".osk.pin_misses"));
  v["osk.leaked_pages"] = R.sum("node", ".pindown.leaked_pages");
  v["osk.stage.trap_enter_us"] =
      ratio(R.summary_sum(".kernel.trap-enter.us"), ops);
  v["osk.stage.trap_exit_us"] =
      ratio(R.summary_sum(".kernel.trap-exit.us"), ops);
  v["osk.stage.security_check_us"] =
      ratio(R.summary_sum(".kernel.security-check.us"), ops);
  v["osk.stage.translate_pin_us"] =
      ratio(R.summary_sum(".kernel.translate-pin.us"), ops);
  v["osk.stage.pio_fill_us"] = ratio(R.summary_sum(".kernel.pio-fill.us"), ops);

  v["bcl.lib.recv_polls_per_recv"] =
      ratio(R.sum("node", ".recvs"), R.sum("node", ".recv_polls"));
  v["bcl.lib.stage.recv_poll_us"] =
      ratio(R.summary_sum(".lib.recv-poll.us"), ops);
  v["bcl.lib.stage.user_compose_us"] =
      ratio(R.summary_sum(".lib.user-compose.us"), ops);
  v["bcl.driver.pio_words_per_send"] = ratio(
      R.sum("node", ".driver.pio_words"), R.sum("node", ".driver.sends"));
  v["bcl.driver.credit_blocks"] = R.sum("node", ".driver.credit_blocks");

  const double tx_packets = R.sum("node", ".nic.tx_packets");
  // Distinct data packets: every first transmission is accepted exactly
  // once, except RNR-refused ones, which are accepted again later.
  const double useful =
      R.sum("node", ".mcp.rx_packets") - R.sum("node", ".mcp.seq_drops") -
      R.sum("node", ".mcp.crc_drops") - R.sum("node", ".fc.rnr_nacks_tx");
  v["bcl.mcp.packets_per_op"] = ratio(tx_packets, ops);
  v["bcl.mcp.useful_share"] = ratio(useful, tx_packets);
  v["bcl.mcp.acks_sent"] = R.sum("node", ".mcp.acks_sent");
  v["bcl.mcp.retransmissions"] = R.sum("node", ".mcp.retransmissions");
  v["bcl.mcp.timeouts"] = R.sum("node", ".mcp.timeouts");
  v["bcl.mcp.window_stalls"] = R.sum("node", ".mcp.window_stalls");
  v["bcl.rel.fast_retransmits"] = R.sum("node", ".rel.fast_retransmits");
  v["bcl.path.failovers"] = R.sum("node", ".path.failovers");
  v["bcl.path.probes_tx"] = R.sum("node", ".path.probes_tx");
  v["bcl.mcp.stage.tx_proc_us"] =
      ratio(R.summary_sum(".nic.mcp-tx-proc.us"), ops);
  v["bcl.mcp.stage.rx_proc_us"] =
      ratio(R.summary_sum(".nic.mcp-rx-proc.us"), ops);
  v["bcl.mcp.stage.dma_us"] =
      ratio(R.summary_sum(".nic.nic-dma-host-to-nic.us") +
                R.summary_sum(".nic.nic-dma-nic-to-host.us"),
            ops);

  v["bcl.fc.stalls"] = R.sum("node", ".fc.stalls");
  v["bcl.fc.credit_updates_tx"] = R.sum("node", ".fc.credit_updates_tx");
  v["bcl.fc.probes_tx"] = R.sum("node", ".fc.probes_tx");
  v["bcl.fc.rnr_nacks_tx"] = R.sum("node", ".fc.rnr_nacks_tx");
  v["bcl.fc.credit_rtt_us_mean"] = ratio(R.summary_sum(".fc.credit_rtt_us"),
                                         R.summary_count(".fc.credit_rtt_us"));
  v["bcl.cc.decreases"] = R.sum("node", ".cc.decreases");
  v["bcl.cc.paced_packets"] = R.sum("node", ".cc.paced_packets");
  v["bcl.cc.paced_wait_us"] = R.sum("node", ".cc.paced_wait_us");

  v["bcl.coll.posts"] = R.sum("node", ".coll.posts");
  v["bcl.coll.forwards"] = R.sum("node", ".coll.forwards");
  v["bcl.coll.combines"] = R.sum("node", ".coll.combines");
  v["bcl.coll.op_timeouts"] = R.sum("node", ".coll.op_timeouts");
  v["minimpi.sends_per_iter"] = ratio(R.sum("mpi.rank", ".sends"), ops);
  v["minimpi.recvs_per_iter"] = ratio(R.sum("mpi.rank", ".recvs"), ops);
}

// Latency, goodput, makespan and failures from the op ledger.
void collect_ops(RepResult& out, const Ledger& L) {
  auto& v = out.values;
  std::vector<double> lat;
  double bytes = 0;
  double lat_sum = 0;
  Time first = Time::max();
  Time last = Time::zero();
  std::uint64_t lost = 0;
  std::uint64_t done = 0;
  for (const Op& op : L.ops) {
    if (op.issued) first = std::min(first, op.start);
    if (!op.done) {
      ++lost;
      continue;
    }
    ++done;
    last = std::max(last, op.end);
    if (op.warm) continue;
    const double us = (op.end - op.start).to_us();
    lat.push_back(us);
    lat_sum += us;
    bytes += op.bytes;
  }
  std::sort(lat.begin(), lat.end());
  v["sim.op_samples"] = static_cast<double>(lat.size());
  v["sim_op_us_p50"] = percentile(lat, 50);
  v["sim_op_us_p99"] = percentile(lat, 99);
  v["sim_goodput_mbps"] = ratio(bytes, lat_sum);  // bytes/us == MB/s
  v["sim_makespan_ms"] = done > 0 ? (last - first).to_ms() : 0.0;
  std::vector<double> lag = L.lag_us;
  std::sort(lag.begin(), lag.end());
  v["gen.lag_us_p99"] = percentile(lag, 99);

  out.attempted = L.ops.size();
  out.failed = L.error_completions + lost + L.duplicated + L.corrupted +
               L.wrong_results;
  v["failed_op_frac"] = ratio(static_cast<double>(out.failed),
                              static_cast<double>(out.attempted));
  v["ops_done"] = static_cast<double>(done);
}

// FNV-1a over every simulated output of the rep.
class Digest {
 public:
  void add(std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (x >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ull;
    }
  }
  void add(double x) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &x, sizeof bits);
    add(bits);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

std::uint64_t digest_of(const Ledger& L,
                        const std::map<std::string, double>& v) {
  Digest d;
  for (const Op& op : L.ops) {
    d.add(static_cast<std::uint64_t>(op.start.picos()));
    d.add(static_cast<std::uint64_t>(op.end.picos()));
    d.add(std::uint64_t{op.done});
  }
  for (const MetricDef& m : catalogue()) {
    if (m.kind != Kind::kSim) continue;
    const auto it = v.find(m.name);
    if (it != v.end()) d.add(it->second);
  }
  return d.value();
}

// -- traced attribution -------------------------------------------------------

// Node index of a "node<N>.<layer>" component, or -1 (links).
int node_of(const std::string& component) {
  if (!starts_with(component, "node")) return -1;
  int n = 0;
  std::size_t i = 4;
  for (; i < component.size() && component[i] >= '0' && component[i] <= '9';
       ++i) {
    n = n * 10 + (component[i] - '0');
  }
  return i > 4 ? n : -1;
}

// Spans bucketed so each op's candidate set is found without scanning the
// whole trace: by tag (message-scoped spans) and by node (everything a node
// recorded, in start order, for window lookups).
class TraceIndex {
 public:
  explicit TraceIndex(const std::vector<sim::TraceEvent>& events)
      : events_{events} {
    for (std::size_t i = 0; i < events_.size(); ++i) {
      const auto& e = events_[i];
      if (e.end <= e.start) continue;  // marks carry no time
      by_tag_[e.tag].push_back(i);
      const int n = node_of(e.component);
      if (n < 0) continue;
      if (static_cast<std::size_t>(n) >= by_node_.size()) {
        by_node_.resize(static_cast<std::size_t>(n) + 1);
      }
      by_node_[n].idx.push_back(i);
      by_node_[n].max_len = std::max(by_node_[n].max_len, e.end - e.start);
    }
    for (auto& b : by_node_) {
      std::stable_sort(b.idx.begin(), b.idx.end(), [&](auto a, auto c) {
        return events_[a].start < events_[c].start;
      });
    }
  }

  const std::vector<std::size_t>& tagged(std::uint64_t tag) const {
    static const std::vector<std::size_t> none;
    const auto it = by_tag_.find(tag);
    return it == by_tag_.end() ? none : it->second;
  }

  // Spans of node `n` overlapping [t0, t1].
  template <class F>
  void node_window(int n, Time t0, Time t1, F&& f) const {
    if (n < 0 || static_cast<std::size_t>(n) >= by_node_.size()) return;
    const auto& b = by_node_[n];
    const Time from = t0 - b.max_len;
    auto it = std::lower_bound(
        b.idx.begin(), b.idx.end(), from,
        [&](std::size_t i, Time t) { return events_[i].start < t; });
    for (; it != b.idx.end() && events_[*it].start < t1; ++it) {
      if (events_[*it].end > t0) f(*it);
    }
  }

  const sim::TraceEvent& at(std::size_t i) const { return events_[i]; }

 private:
  struct NodeBucket {
    std::vector<std::size_t> idx;
    Time max_len = Time::zero();
  };
  const std::vector<sim::TraceEvent>& events_;
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> by_tag_;
  std::vector<NodeBucket> by_node_;
};

// Keeps every violation a rep finds, in the order found.
void add_error(RepResult& out, const std::string& what) {
  if (!out.error.empty()) out.error += "; ";
  out.error += what;
}

std::string attr_name(const std::string& stage) {
  if (stage == "wait/queue") return "attr.wait_queue_us";
  std::string s = stage;
  std::replace(s.begin(), s.end(), '-', '_');
  return "attr." + s + "_us";
}

// Projects every measured op onto the traced span timeline.  BCL ops keep
// the spans of their own message (driver id on its two nodes, flow key on
// the wire) plus the sender library's untagged spans; an MPI iteration
// keeps everything its rank's node recorded.  The projection partitions
// the window, so the stage sums must equal the op latency exactly.
void attribute(RepResult& out, const Ledger& L, const sim::Trace& trace,
               bool per_node) {
  auto& v = out.values;
  for (const MetricDef& m : catalogue()) {
    if (starts_with(m.name, "attr.")) v[m.name] = 0.0;
  }
  const auto& events = trace.events();
  const TraceIndex index{events};
  std::map<std::string, Time> totals;
  std::uint64_t n = 0;
  std::vector<sim::TraceEvent> cand;
  for (const Op& op : L.ops) {
    if (!op.done || op.warm) continue;
    cand.clear();
    if (per_node) {
      index.node_window(op.src, op.start, op.end,
                        [&](std::size_t i) { cand.push_back(index.at(i)); });
    } else {
      for (std::size_t i : index.tagged(bcl::flow_key(op.src, op.msg_id))) {
        cand.push_back(index.at(i));
      }
      for (std::size_t i : index.tagged(op.msg_id)) {
        const int node = node_of(index.at(i).component);
        if (node == op.src || node == op.dst) cand.push_back(index.at(i));
      }
      index.node_window(op.src, op.start, op.end, [&](std::size_t i) {
        const auto& e = index.at(i);
        if (e.tag == 0 && ends_with(e.component, ".lib")) cand.push_back(e);
      });
    }
    const auto bd = sim::LatencyBreakdown::project(cand, op.start, op.end);
    Time sum = Time::zero();
    for (const auto& [stage, t] : bd.stages()) {
      sum += t;
      totals[stage] += t;
    }
    if (sum != op.end - op.start) {
      add_error(out, "traced attribution does not sum to the op latency");
      return;
    }
    ++n;
  }
  for (const auto& [stage, t] : totals) {
    const std::string name = attr_name(stage);
    if (find_metric(name) == nullptr) {
      add_error(out, "unlisted trace stage " + stage);
      return;
    }
    v[name] = ratio(t.to_us(), static_cast<double>(n));
  }
  v["trace.spans_per_op"] =
      ratio(static_cast<double>(events.size()),
            static_cast<double>(L.ops.size()));
  v["trace.dropped_events"] = static_cast<double>(trace.dropped_events());
  if (trace.dropped_events() != 0) {
    add_error(out, "trace dropped events: shorten the traced prefix");
  }
}

// Everything after the engine ran, in the order the numbers are needed:
// op statistics, registry counts and the digest while the cluster is alive.
void finish(RepResult& out, const Ledger& L, const sim::MetricRegistry& reg,
            const sim::Engine& eng) {
  collect_ops(out, L);
  auto& v = out.values;
  const double ops = v["ops_done"];
  collect_registry(v, reg, ops);
  v["sim.events"] = static_cast<double>(eng.events_processed());
  v["sim.events_per_op"] = ratio(v["sim.events"], ops);
  out.digest = digest_of(L, v);
  if (out.failed != 0) {
    add_error(out, std::to_string(out.failed) + " of " +
                       std::to_string(out.attempted) + " ops failed");
  }
  if (v["osk.leaked_pages"] != 0) add_error(out, "pinned pages leaked");
}

void finish_host(RepResult& out, const Phases& ph) {
  auto& v = out.values;
  v["setup_s"] = ph.setup_s;
  v["wall_s"] = ph.setup_s + ph.run_s + ph.teardown_s;
  v["run_s"] = ph.run_s;
  v["host_ops_per_s"] = ratio(v["ops_done"], ph.run_s);
  v["sim.ns_per_event"] = ratio(ph.run_s * 1e9, v["sim.events"]);
  v["cluster.world.ctor_s"] = ph.ctor_s;
}

bcl::BclCluster& cluster_of(bcl::BclCluster& c) { return c; }
bcl::BclCluster& cluster_of(cluster::World& w) { return w.cluster(); }

// Times one rep: `make` builds the cluster (or World), `spawn_apps` opens
// endpoints and spawns the application coroutines, then the engine runs and
// everything is read out before the timed teardown.
template <class Make, class Spawn>
void run_timed(const RepOptions& opt, Ledger& L, RepResult& out, Phases& ph,
               Make&& make, Spawn&& spawn_apps) {
  const auto tc = Clock::now();
  auto owner = make();
  ph.ctor_s = seconds_since(tc);
  bcl::BclCluster& c = cluster_of(*owner);
  if (opt.traced) c.trace().enable();
  spawn_apps(*owner);
  ph.setup_s = seconds_since(ph.t0);
  const auto tr = Clock::now();
  c.engine().run();
  ph.run_s = seconds_since(tr);
  finish(out, L, c.metrics(), c.engine());
  if (opt.traced) {
    // An MPI iteration spans many messages: attribute it by node, not by id.
    constexpr bool per_node =
        std::is_same_v<std::decay_t<decltype(*owner)>, cluster::World>;
    attribute(out, L, c.trace(), per_node);
    if (!opt.perfetto_path.empty()) {
      if (FILE* f = std::fopen(opt.perfetto_path.c_str(), "w")) {
        const std::string js = c.trace().to_chrome_json();
        std::fwrite(js.data(), 1, js.size(), f);
        std::fclose(f);
      }
    }
  }
  const auto td = Clock::now();
  owner.reset();
  ph.teardown_s = seconds_since(td);
  finish_host(out, ph);
}

template <class Spawn>
void run_bcl(const std::string& name, const RepOptions& opt, Ledger& L,
             RepResult& out, Phases& ph, Spawn&& spawn_apps) {
  run_timed(
      opt, L, out, ph,
      [&] { return std::make_unique<bcl::BclCluster>(workload_cluster(name)); },
      spawn_apps);
}

// -- pingpong_small -----------------------------------------------------------

Task<void> pp_client(sim::Engine& eng, bcl::Endpoint& ep, bcl::PortId peer,
                     Ledger& L) {
  auto buf = ep.process().alloc(kSmallMax);
  std::vector<std::byte> payload;
  const bcl::ChannelRef sys{bcl::ChanKind::kSystem, 0};
  for (std::uint64_t uid = 0; uid < L.ops.size(); uid += 2) {
    Op& ping = L.ops[uid];
    make_payload(payload, ping.bytes, uid);
    if (ping.bytes > 0) ep.process().poke(buf, 0, payload);
    ping.start = eng.now();
    ping.issued = true;
    co_await send_op(ep, peer, sys, buf, ping, L);
    const bcl::RecvEvent ev = co_await ep.wait_recv();
    const Time t = eng.now();
    const auto data = co_await ep.copy_out_system(ev);
    if (!payload_ok(data, L.ops[uid + 1].bytes, uid + 1)) {
      ++L.corrupted;
      throw std::runtime_error("pong payload mismatch");
    }
    L.arrive(uid + 1, t);
  }
}

Task<void> pp_server(sim::Engine& eng, bcl::Endpoint& ep, bcl::PortId peer,
                     Ledger& L) {
  auto buf = ep.process().alloc(kSmallMax);
  std::vector<std::byte> payload;
  const bcl::ChannelRef sys{bcl::ChanKind::kSystem, 0};
  for (std::uint64_t uid = 0; uid < L.ops.size(); uid += 2) {
    const bcl::RecvEvent ev = co_await ep.wait_recv();
    const Time t = eng.now();
    const auto data = co_await ep.copy_out_system(ev);
    if (!payload_ok(data, L.ops[uid].bytes, uid)) {
      ++L.corrupted;
      throw std::runtime_error("ping payload mismatch");
    }
    L.arrive(uid, t);
    Op& pong = L.ops[uid + 1];
    make_payload(payload, pong.bytes, uid + 1);
    if (pong.bytes > 0) ep.process().poke(buf, 0, payload);
    pong.start = eng.now();
    pong.issued = true;
    co_await send_op(ep, peer, sys, buf, pong, L);
  }
}

void run_pingpong(const RepOptions& opt, RepResult& out) {
  Phases ph;
  const std::uint64_t rts = opt.prefix_ops > 0
                                ? std::max<std::uint64_t>(1, opt.prefix_ops / 2)
                                : scaled(kPingPongRoundTrips, opt);
  // Short (smoke, traced-prefix) runs keep most of their ops measured.
  const std::uint64_t warm_rts = std::min(kPingPongWarmup / 2, rts / 4);
  sim::Rng rng{stream(opt.seed, 1)};
  // One size per round trip: the pong echoes the ping's length.
  const auto sizes =
      draw_sizes(warm_rts, rts, kSmallLo, kSmallZeroShare, rng);
  Ledger L;
  L.ops.resize(2 * rts);
  for (std::uint64_t uid = 0; uid < L.ops.size(); ++uid) {
    Op& op = L.ops[uid];
    op.bytes = sizes[uid / 2];
    op.src = static_cast<std::uint16_t>(uid % 2);
    op.dst = static_cast<std::uint16_t>(1 - uid % 2);
    op.warm = uid / 2 < warm_rts;
  }
  run_bcl("pingpong_small", opt, L, out, ph, [&](bcl::BclCluster& c) {
    auto& a = c.open_endpoint(0);
    auto& b = c.open_endpoint(1);
    c.engine().spawn(pp_client(c.engine(), a, b.id(), L));
    c.engine().spawn(pp_server(c.engine(), b, a.id(), L));
  });
}

// -- oneway_bulk --------------------------------------------------------------

std::vector<std::byte> slot_pattern(std::size_t slot) {
  std::vector<std::byte> p(kBulkMax);
  for (std::size_t i = 0; i < p.size(); ++i) p[i] = pattern_byte(i, slot + 1);
  return p;
}

// Sender: waits for the receiver's ready token, then sends the next message
// from one of kBulkSlots pre-patterned buffers with the uid stamped in.
Task<void> bulk_tx(sim::Engine& eng, bcl::Endpoint& ep, bcl::PortId dst,
                   Ledger& L) {
  std::vector<osk::UserBuffer> slots;
  for (std::size_t s = 0; s < kBulkSlots; ++s) {
    slots.push_back(ep.process().alloc(kBulkMax));
    ep.process().poke(slots.back(), 0, slot_pattern(s));
  }
  const bcl::ChannelRef normal{bcl::ChanKind::kNormal, 0};
  for (std::uint64_t uid = 0; uid < L.ops.size(); ++uid) {
    const bcl::RecvEvent token = co_await ep.wait_recv();
    (void)co_await ep.copy_out_system(token);
    const auto& buf = slots[uid % kBulkSlots];
    ep.process().poke(
        buf, 0, std::as_bytes(std::span<const std::uint64_t>{&uid, 1}));
    Op& op = L.ops[uid];
    op.start = eng.now();
    op.issued = true;
    co_await send_op(ep, dst, normal, buf, op, L);
  }
}

// The received bytes, compared in place (no copy) against the slot's
// pattern; the first 8 bytes must hold the uid.
bool bulk_ok(osk::Process& proc, const osk::UserBuffer& rbuf, std::size_t len,
             std::uint64_t uid, const std::vector<std::byte>& ref) {
  std::uint64_t got = ~uid;
  proc.peek(rbuf, 0, std::as_writable_bytes(std::span<std::uint64_t>{&got, 1}));
  if (got != uid) return false;
  hw::HostMemory& mem = proc.kernel().node().memory();
  std::size_t off = 0;
  for (const auto& seg : proc.translate(rbuf.vaddr, len)) {
    const auto view = mem.view(seg.addr, seg.len);
    const std::size_t skip = off < sizeof uid ? sizeof uid - off : 0;
    if (skip < seg.len &&
        std::memcmp(view.data() + skip, ref.data() + off + skip,
                    seg.len - skip) != 0) {
      return false;
    }
    off += seg.len;
  }
  return true;
}

Task<void> bulk_rx(sim::Engine& eng, bcl::Endpoint& ep, bcl::PortId back,
                   Ledger& L) {
  auto rbuf = ep.process().alloc(kBulkMax);
  auto token = ep.process().alloc(1);
  std::vector<std::vector<std::byte>> refs;
  for (std::size_t s = 0; s < kBulkSlots; ++s) refs.push_back(slot_pattern(s));
  for (std::uint64_t uid = 0; uid < L.ops.size(); ++uid) {
    if (co_await ep.post_recv(0, rbuf) != bcl::BclErr::kOk) {
      throw std::runtime_error("post_recv failed");
    }
    const auto r = co_await ep.send_system(back, token, 0);
    if (!r.ok() || !(co_await ep.wait_send()).ok) {
      throw std::runtime_error("ready token failed");
    }
    const bcl::RecvEvent ev = co_await ep.wait_recv();
    const Time t = eng.now();
    if (ev.len != L.ops[uid].bytes ||
        !bulk_ok(ep.process(), rbuf, ev.len, uid, refs[uid % kBulkSlots])) {
      ++L.corrupted;
      throw std::runtime_error("bulk payload mismatch");
    }
    L.arrive(uid, t);
  }
}

void run_bulk(const RepOptions& opt, RepResult& out) {
  Phases ph;
  const std::uint64_t n =
      opt.prefix_ops > 0 ? opt.prefix_ops : scaled(kBulkMessages, opt);
  const std::uint64_t warm = std::min(kBulkWarmup, n / 2);
  sim::Rng rng{stream(opt.seed, 2)};
  const auto sizes = draw_sizes(warm, n, kBulkLo, 0.0, rng);
  Ledger L;
  L.ops.resize(n);
  for (std::uint64_t uid = 0; uid < n; ++uid) {
    Op& op = L.ops[uid];
    op.bytes = sizes[uid];
    op.src = 0;
    op.dst = 1;
    op.warm = uid < warm;
  }
  run_bcl("oneway_bulk", opt, L, out, ph, [&](bcl::BclCluster& c) {
    auto& tx = c.open_endpoint(0);
    auto& rx = c.open_endpoint(1);
    c.engine().spawn(bulk_tx(c.engine(), tx, rx.id(), L));
    c.engine().spawn(bulk_rx(c.engine(), rx, tx.id(), L));
  });
}

// -- incast_lossy16 -----------------------------------------------------------

struct IncastSender {
  explicit IncastSender(sim::Engine& eng) : window{eng, kIncastWindow} {}
  sim::Semaphore window;  // sends issued but not yet completed locally
  std::vector<osk::UserBuffer> bufs;
  std::vector<int> free_bufs;
  std::unordered_map<std::uint64_t, int> inflight;  // msg id -> buffer
};

// Open-loop generator: sends fall due on a seeded Poisson schedule whatever
// the system does; latency counts from the due time.
Task<void> incast_issue(sim::Engine& eng, bcl::Endpoint& ep, bcl::PortId dst,
                        IncastSender& s, Ledger& L, std::uint64_t first_uid,
                        std::uint64_t count, std::uint64_t seed) {
  sim::Rng rng{seed};
  std::vector<std::byte> payload;
  Time due = Time::zero();
  for (std::uint64_t k = 0; k < count; ++k) {
    due += Time::us(rng.exponential(kIncastMeanGapUs));
    co_await s.window.acquire();
    if (eng.now() < due) co_await eng.sleep_until(due);
    L.lag_us.push_back((eng.now() - due).to_us());
    const std::uint64_t uid = first_uid + k;
    Op& op = L.ops[uid];
    op.start = due;
    op.issued = true;
    const int b = s.free_bufs.back();
    s.free_bufs.pop_back();
    make_payload(payload, op.bytes, uid);
    ep.process().poke(s.bufs[b], 0, payload);
    const auto r = co_await ep.send_system(dst, s.bufs[b], op.bytes);
    if (!r.ok()) {
      ++L.error_completions;
      s.free_bufs.push_back(b);
      s.window.release();
      continue;
    }
    op.msg_id = r.value;
    s.inflight[r.value] = b;
  }
}

Task<void> incast_complete(bcl::Endpoint& ep, IncastSender& s, Ledger& L) {
  for (;;) {
    const bcl::SendEvent ev = co_await ep.wait_send();
    if (!ev.ok) ++L.error_completions;
    const auto it = s.inflight.find(ev.msg_id);
    if (it == s.inflight.end()) continue;  // a verdict notice, not a send
    s.free_bufs.push_back(it->second);
    s.inflight.erase(it);
    s.window.release();
  }
}

Task<void> incast_receive(sim::Engine& eng, bcl::Endpoint& ep, Ledger& L) {
  for (;;) {
    const bcl::RecvEvent ev = co_await ep.wait_recv();
    const Time t = eng.now();
    const auto data = co_await ep.copy_out_system(ev);
    const std::uint64_t uid = peek_uid(data);
    if (uid >= L.ops.size() || !payload_ok(data, L.ops[uid].bytes, uid)) {
      ++L.corrupted;
      continue;
    }
    L.arrive(uid, t);
  }
}

void run_incast(const RepOptions& opt, RepResult& out) {
  Phases ph;
  constexpr int senders = kIncastNodes - 1;
  const std::uint64_t per =
      opt.prefix_ops > 0
          ? std::max<std::uint64_t>(1, opt.prefix_ops / senders)
          : scaled(kIncastPerSender, opt);
  Ledger L;
  L.ops.resize(per * senders);
  for (std::uint64_t uid = 0; uid < L.ops.size(); ++uid) {
    Op& op = L.ops[uid];
    op.bytes = kIncastBytes;
    op.src = static_cast<std::uint16_t>(1 + uid / per);
    op.dst = 0;
    op.warm = uid % per < kIncastWarmup;
  }
  std::vector<std::unique_ptr<IncastSender>> state;
  run_bcl("incast_lossy16", opt, L, out, ph, [&](bcl::BclCluster& c) {
    auto& fabric = dynamic_cast<hw::MyrinetFabric&>(c.fabric());
    for (int n = 0; n < kIncastNodes; ++n) {
      hw::FaultPlan plan;
      plan.drop_prob = kIncastDropProb;
      plan.seed = stream(opt.seed, 100 + n);
      fabric.set_host_link_fault_plan(static_cast<hw::NodeId>(n), plan);
    }
    auto& rx = c.open_endpoint(0);
    c.engine().spawn_daemon(incast_receive(c.engine(), rx, L));
    for (int s = 0; s < senders; ++s) {
      auto& ep = c.open_endpoint(static_cast<hw::NodeId>(s + 1));
      auto st = std::make_unique<IncastSender>(c.engine());
      for (int b = 0; b < kIncastWindow; ++b) {
        st->bufs.push_back(ep.process().alloc(kIncastBytes));
        st->free_bufs.push_back(b);
      }
      c.engine().spawn_daemon(incast_complete(ep, *st, L));
      c.engine().spawn(incast_issue(c.engine(), ep, rx.id(), *st, L,
                                    static_cast<std::uint64_t>(s) * per, per,
                                    stream(opt.seed, 200 + s)));
      state.push_back(std::move(st));
    }
  });
}

// -- mpi_mesh64 ---------------------------------------------------------------

struct MeshInputs {
  std::uint64_t seed = 0;
  std::uint64_t iters = 0;
  // Rank r contributes base[it][j] + r, so every allreduce has the exact
  // integer-valued answer 64 * base + (0 + 1 + ... + 63).
  std::vector<double> base;
};

Task<void> mesh_rank(sim::Engine& eng, minimpi::Mpi& me, const MeshInputs& in,
                     Ledger& L) {
  const int r = me.rank();
  const int n = me.size();
  auto sb = me.process().alloc(kMeshReduceCount * sizeof(double));
  auto rb = me.process().alloc(kMeshReduceCount * sizeof(double));
  std::vector<double> mine(kMeshReduceCount);
  const double rank_sum = n * (n - 1) / 2.0;
  for (std::uint64_t it = 0; it < in.iters; ++it) {
    Op& op = L.ops[static_cast<std::uint64_t>(r) * in.iters + it];
    op.start = eng.now();
    op.issued = true;
    co_await cluster::workload::shift_traffic(me, 1, kMeshShiftBytes,
                                              stream(in.seed, 5000 + it));
    const double* base = &in.base[it * kMeshReduceCount];
    for (std::size_t j = 0; j < kMeshReduceCount; ++j) mine[j] = base[j] + r;
    me.write_doubles(sb, mine);
    co_await me.allreduce(sb, rb, kMeshReduceCount);
    const auto got = me.read_doubles(rb, kMeshReduceCount);
    for (std::size_t j = 0; j < kMeshReduceCount; ++j) {
      if (got[j] != n * base[j] + rank_sum) {
        ++L.wrong_results;
        break;
      }
    }
    L.arrive(static_cast<std::uint64_t>(r) * in.iters + it, eng.now());
  }
}

void run_mesh(const RepOptions& opt, RepResult& out) {
  Phases ph;
  MeshInputs in;
  in.seed = opt.seed;
  in.iters = opt.prefix_ops > 0
                 ? std::max<std::uint64_t>(2, opt.prefix_ops / kMeshNodes)
                 : std::max<std::uint64_t>(2, scaled(kMeshIterations, opt));
  sim::Rng rng{stream(opt.seed, 3)};
  in.base.resize(in.iters * kMeshReduceCount);
  for (double& b : in.base) b = static_cast<double>(rng.below(1u << 20));
  Ledger L;
  L.ops.resize(in.iters * kMeshNodes);
  for (std::uint64_t uid = 0; uid < L.ops.size(); ++uid) {
    Op& op = L.ops[uid];
    op.bytes = kMeshShiftBytes + kMeshReduceCount * sizeof(double);
    op.src = static_cast<std::uint16_t>(uid / in.iters);
    op.warm = uid % in.iters == 0;  // group registration
  }
  cluster::WorldConfig wc;
  wc.cluster = workload_cluster("mpi_mesh64");
  run_timed(
      opt, L, out, ph,
      [&] { return std::make_unique<cluster::World>(wc, kMeshNodes); },
      [&](cluster::World& w) {
        for (int r = 0; r < kMeshNodes; ++r) {
          w.engine().spawn(mesh_rank(w.engine(), w.mpi(r), in, L));
        }
      });
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "pingpong_small", "oneway_bulk", "incast_lossy16", "mpi_mesh64"};
  return names;
}

bcl::ClusterConfig workload_cluster(const std::string& name) {
  bcl::ClusterConfig cfg;
  if (name == "incast_lossy16") {
    cfg.nodes = kIncastNodes;  // two-level Myrinet: 4 leaves, 4 spines
  } else if (name == "mpi_mesh64") {
    cfg.nodes = kMeshNodes;
    cfg.fabric.kind = hw::FabricKind::kNwrcMesh;
  }
  return cfg;
}

RepResult run_rep(const std::string& workload, const RepOptions& opt) {
  RepResult out;
  try {
    if (workload == "pingpong_small") {
      run_pingpong(opt, out);
    } else if (workload == "oneway_bulk") {
      run_bulk(opt, out);
    } else if (workload == "incast_lossy16") {
      run_incast(opt, out);
    } else if (workload == "mpi_mesh64") {
      run_mesh(opt, out);
    } else {
      add_error(out, "unknown workload " + workload);
    }
  } catch (const std::exception& e) {
    add_error(out, workload + ": " + e.what());
  }
  return out;
}

}  // namespace perf
