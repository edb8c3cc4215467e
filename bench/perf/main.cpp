// bcl_perf: runs the benchmark workloads, one forked child per (workload,
// rep), checks correctness and determinism, and prints a human table
// followed by one JSON object on the last line of standard output.
//
//   bcl_perf [--workload W]... [--seed N] [--reps R] [--seconds S]
//            [--traced] [--smoke]
//
// --seconds S replaces the fixed rep count with a budget: reps start while
// the elapsed time plus the longest rep so far fits in S (at least two, so
// determinism is always checked).  --traced adds the per-layer host probes
// and the traced prefix run.  Exit status is nonzero on any violation.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "perf.hpp"

namespace {

using perf::Clock;
using perf::Kind;
using perf::RepOptions;
using perf::RepResult;
using perf::seconds_since;

// Traced-run prefix per workload: sized to stay well inside the trace's
// 1 Mi event cap (trace.dropped_events must stay 0).
std::uint64_t traced_prefix(const std::string& w) {
  if (w == "pingpong_small") return 20'000;
  if (w == "oneway_bulk") return 400;
  if (w == "incast_lossy16") return 15'000;
  return 64 * 24;  // mpi_mesh64: 24 iterations of 64 ranks
}

// A rep that hangs is killed rather than stalling the whole benchmark.
constexpr unsigned kRepTimeoutS = 150;

// -- child side ---------------------------------------------------------------

std::string serialize(const RepResult& r) {
  std::string s;
  char line[256];
  std::snprintf(line, sizeof line, "digest %" PRIu64 "\nattempted %" PRIu64
                "\nfailed %" PRIu64 "\n",
                r.digest, r.attempted, r.failed);
  s += line;
  for (const auto& [name, v] : r.values) {
    std::snprintf(line, sizeof line, "v %s %.17g\n", name.c_str(), v);
    s += line;
  }
  if (!r.error.empty()) s += "error " + r.error + "\n";
  return s;
}

RepResult parse(const std::string& text) {
  RepResult r;
  std::istringstream in{text};
  std::string key;
  while (in >> key) {
    if (key == "digest") {
      in >> r.digest;
    } else if (key == "attempted") {
      in >> r.attempted;
    } else if (key == "failed") {
      in >> r.failed;
    } else if (key == "v") {
      std::string name;
      double v = 0;
      in >> name >> v;
      r.values[name] = v;
    } else if (key == "error") {
      std::getline(in, r.error);
      if (!r.error.empty() && r.error.front() == ' ') r.error.erase(0, 1);
    }
  }
  return r;
}

// Runs `work` (one rep, or the probes) in a forked child and returns its
// result plus the child's peak RSS.  The parent never holds simulator state:
// a child starts with its parent's resident memory, so anything the parent
// kept would inflate every later rep's RSS and set-up time.
template <class Work>
RepResult run_child(Work&& work) {
  int fds[2];
  if (pipe(fds) != 0) {
    RepResult r;
    r.error = std::string{"pipe: "} + std::strerror(errno);
    return r;
  }
  std::fflush(stdout);
  const pid_t pid = fork();
  if (pid < 0) {
    RepResult r;
    r.error = std::string{"fork: "} + std::strerror(errno);
    return r;
  }
  if (pid == 0) {
    close(fds[0]);
    alarm(kRepTimeoutS);
    const std::string out = serialize(work());
    std::size_t off = 0;
    while (off < out.size()) {
      const ssize_t n = write(fds[1], out.data() + off, out.size() - off);
      if (n <= 0) _exit(3);
      off += static_cast<std::size_t>(n);
    }
    close(fds[1]);
    _exit(0);
  }
  close(fds[1]);
  std::string text;
  char buf[4096];
  for (;;) {
    const ssize_t n = read(fds[0], buf, sizeof buf);
    if (n > 0) {
      text.append(buf, static_cast<std::size_t>(n));
    } else if (n == 0 || errno != EINTR) {
      break;
    }
  }
  close(fds[0]);
  int status = 0;
  struct rusage ru {};
  while (wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {
  }
  RepResult r = parse(text);
  if (WIFSIGNALED(status)) {
    r.error = "child killed by signal " + std::to_string(WTERMSIG(status));
  } else if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    r.error =
        "child exited with status " + std::to_string(WEXITSTATUS(status));
  }
  r.values["peak_rss_mb"] = static_cast<double>(ru.ru_maxrss) / 1024.0;
  return r;
}

// -- statistics ---------------------------------------------------------------

struct Stat {
  double value = 0;  // what the metric reports: median or best rep
  double median = 0, q1 = 0, q3 = 0, best = 0;
  std::size_t n = 0;
};

// Median and quartiles the way Python's statistics.quantiles(n=4) (the
// default "exclusive" method) computes them, plus the best sample.
Stat stat_of(const perf::MetricDef& m, std::vector<double> xs) {
  Stat s;
  s.n = xs.size();
  if (xs.empty()) return s;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  s.median = n % 2 ? xs[n / 2] : (xs[n / 2 - 1] + xs[n / 2]) / 2;
  s.best = std::string_view{m.better} == "lower" ? xs.front() : xs.back();
  s.value = m.report == perf::Report::kBest ? s.best : s.median;
  if (n < 2) {
    s.q1 = s.q3 = s.median;
    return s;
  }
  const auto quart = [&](std::size_t i) {
    const std::size_t m = n + 1;
    std::size_t j = i * m / 4;
    j = std::clamp<std::size_t>(j, 1, n - 1);
    const double delta =
        static_cast<double>(i * m) - static_cast<double>(j * 4);
    return (xs[j - 1] * (4 - delta) + xs[j] * delta) / 4;
  };
  s.q1 = quart(1);
  s.q3 = quart(3);
  return s;
}

// -- one workload -------------------------------------------------------------

struct Options {
  std::vector<std::string> workloads;
  std::uint64_t seed = 1;
  int reps = 3;
  double seconds = 0;  // > 0: rep budget instead of a fixed count
  bool traced = false;
  bool smoke = false;
  std::string out_dir;
};

struct WorkloadReport {
  std::string name;
  std::vector<std::string> errors;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t digest = 0;
  std::size_t reps = 0;
  std::map<std::string, std::vector<double>> samples;  // metric -> per rep
};

// Simulated outputs that must repeat exactly between two runs of one seed
// (the traced run's own attribution aside).
void check_same(const RepResult& a, const RepResult& b, const std::string& what,
                std::vector<std::string>& errors) {
  if (a.digest != b.digest) errors.push_back(what + ": digest differs");
  for (const perf::MetricDef& m : perf::catalogue()) {
    const std::string name = m.name;
    if (m.kind != Kind::kSim || name.rfind("attr.", 0) == 0 ||
        name.rfind("trace.", 0) == 0) {
      continue;
    }
    const auto ia = a.values.find(m.name);
    const auto ib = b.values.find(m.name);
    if ((ia == a.values.end()) != (ib == b.values.end()) ||
        (ia != a.values.end() && ia->second != ib->second)) {
      errors.push_back(what + ": " + m.name + " differs");
    }
  }
}

WorkloadReport run_workload(const std::string& w, const Options& o) {
  WorkloadReport rep;
  rep.name = w;
  RepOptions ro;
  ro.seed = o.seed;
  ro.scale = o.smoke ? 0.01 : 1.0;
  std::vector<RepResult> results;
  const auto t0 = Clock::now();
  double longest = 0;
  for (;;) {
    const auto tr = Clock::now();
    results.push_back(run_child([&] { return perf::run_rep(w, ro); }));
    longest = std::max(longest, seconds_since(tr));
    std::fprintf(stderr, "  %s rep %zu: %.2f s\n", w.c_str(), results.size(),
                 seconds_since(tr));
    if (!results.back().error.empty()) break;
    const std::size_t n = results.size();
    if (o.seconds > 0) {
      if (n >= 2 && seconds_since(t0) + longest > o.seconds) break;
    } else if (n >= static_cast<std::size_t>(o.reps)) {
      break;
    }
  }
  rep.reps = results.size();
  for (std::size_t i = 0; i < results.size(); ++i) {
    const RepResult& r = results[i];
    if (!r.error.empty()) {
      rep.errors.push_back("rep " + std::to_string(i + 1) + ": " + r.error);
    }
    if (i > 0) {
      check_same(results[0], r, "rep " + std::to_string(i + 1) + " vs rep 1",
                 rep.errors);
    }
    rep.attempted += r.attempted;
    rep.failed += r.failed;
    for (const auto& [name, v] : r.values) rep.samples[name].push_back(v);
  }
  rep.digest = results.front().digest;
  // The p99 needs at least ten samples beyond it to mean anything.
  const auto samples = rep.samples.find("sim.op_samples");
  if (!o.smoke && samples != rep.samples.end() && samples->second[0] < 1000) {
    rep.errors.push_back("fewer than 10 latency samples beyond the p99");
  }
  if (!o.traced || !rep.errors.empty()) return rep;

  const RepResult probes = run_child([&] {
    RepResult r;
    try {
      r.values = perf::run_probes(w, o.smoke ? 0.05 : 0.5);
    } catch (const std::exception& e) {
      r.error = e.what();
    }
    return r;
  });
  if (!probes.error.empty()) rep.errors.push_back("probes: " + probes.error);
  for (const auto& [name, v] : probes.values) {
    if (name != "peak_rss_mb") rep.samples[name].push_back(v);
  }
  // The traced prefix and its untraced twin: tracing must not perturb the
  // simulation, and the twin prices the tracing overhead.
  RepOptions po = ro;
  po.prefix_ops = traced_prefix(w);
  if (o.smoke) po.prefix_ops = std::max<std::uint64_t>(po.prefix_ops / 50, 64);
  const RepResult plain = run_child([&] { return perf::run_rep(w, po); });
  po.traced = true;
  if (w == "pingpong_small" && !o.out_dir.empty()) {
    po.perfetto_path = o.out_dir + "/trace_pingpong_small.json";
  }
  const RepResult traced = run_child([&] { return perf::run_rep(w, po); });
  for (const RepResult* r : {&plain, &traced}) {
    if (!r->error.empty()) rep.errors.push_back("traced prefix: " + r->error);
  }
  if (!rep.errors.empty()) return rep;
  check_same(plain, traced, "traced prefix vs untraced", rep.errors);
  const auto per_op = [](const RepResult& r) {
    return r.values.at("run_s") / r.values.at("ops_done");
  };
  rep.samples["trace.overhead_x"].push_back(per_op(traced) / per_op(plain));
  for (const auto& [name, v] : traced.values) {
    if (name.rfind("attr.", 0) == 0 || name.rfind("trace.", 0) == 0) {
      rep.samples[name].push_back(v);
    }
  }
  return rep;
}

// -- output -------------------------------------------------------------------

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

void print_table(const WorkloadReport& r) {
  std::printf("\n== %s  (%zu reps, %" PRIu64 " ops attempted, %" PRIu64
              " failed, digest %016" PRIx64 ")\n",
              r.name.c_str(), r.reps, r.attempted, r.failed, r.digest);
  std::printf("  %-32s %-9s %14s %14s %14s %14s %3s\n", "metric", "unit",
              "value", "median", "q1", "q3", "n");
  perf::Scope scope = perf::Scope::kEndToEnd;
  for (const perf::MetricDef& m : perf::catalogue()) {
    const auto it = r.samples.find(m.name);
    if (it == r.samples.end()) continue;
    if (m.scope != scope) {
      scope = m.scope;
      std::printf("  -- per layer\n");
    }
    const Stat s = stat_of(m, it->second);
    std::printf("  %-32s %-9s %14.6g %14.6g %14.6g %14.6g %3zu\n", m.name,
                m.unit, s.value, s.median, s.q1, s.q3, s.n);
  }
  for (const auto& e : r.errors) std::printf("  ERROR %s\n", e.c_str());
}

std::string workload_json(const WorkloadReport& r) {
  char head[256];
  std::snprintf(head, sizeof head,
                "\"%s\":{\"correct\":%s,\"reps\":%zu,\"attempted\":%" PRIu64
                ",\"failed\":%" PRIu64 ",\"digest\":\"%016" PRIx64
                "\",\"errors\":[",
                r.name.c_str(), r.errors.empty() ? "true" : "false", r.reps,
                r.attempted, r.failed, r.digest);
  std::string s = head;
  for (std::size_t i = 0; i < r.errors.size(); ++i) {
    s += i ? ",\"" : "\"";
    s += json_escape(r.errors[i]);
    s += '"';
  }
  s += "],\"metrics\":{";
  bool first = true;
  for (const perf::MetricDef& m : perf::catalogue()) {
    const auto it = r.samples.find(m.name);
    if (it == r.samples.end()) continue;
    const Stat st = stat_of(m, it->second);
    char entry[640];
    std::snprintf(entry, sizeof entry,
                  "%s\"%s\":{\"unit\":\"%s\",\"better\":\"%s\",\"kind\":\"%s\","
                  "\"scope\":\"%s\",\"value\":%s,\"median\":%s,\"q1\":%s,"
                  "\"q3\":%s,\"best\":%s,\"n\":%zu}",
                  first ? "" : ",", m.name, m.unit, m.better,
                  m.kind == Kind::kSim ? "sim" : "host",
                  m.scope == perf::Scope::kEndToEnd ? "end_to_end"
                                                    : "per_layer",
                  num(st.value).c_str(), num(st.median).c_str(),
                  num(st.q1).c_str(), num(st.q3).c_str(), num(st.best).c_str(),
                  st.n);
    s += entry;
    first = false;
  }
  return s + "}}";
}

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "bcl_perf: %s\nusage: bcl_perf [--workload W]... [--seed N] "
               "[--reps R] [--seconds S] [--traced] [--smoke]\n",
               msg);
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        const std::string w = value();
        const auto& names = perf::workload_names();
        if (std::find(names.begin(), names.end(), w) == names.end()) {
          usage(("unknown workload " + w).c_str());
        }
        o.workloads.push_back(w);
      } else if (a == "--seed") {
        o.seed = std::stoull(value());
      } else if (a == "--reps") {
        o.reps = std::stoi(value());
        if (o.reps < 1) usage("--reps must be at least 1");
      } else if (a == "--seconds") {
        o.seconds = std::stod(value());
        if (!(o.seconds > 0)) usage("--seconds must be positive");
      } else if (a == "--traced") {
        o.traced = true;
      } else if (a == "--smoke") {
        o.smoke = true;
      } else {
        usage(("unknown argument " + a).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + a).c_str());
    }
  }
  if (o.workloads.empty()) o.workloads = perf::workload_names();
  if (o.smoke) {
    o.traced = true;
    o.reps = std::min(o.reps, 2);
  }
  // Traces land next to the binary (build/perf/ for the documented build).
  char exe[4096];
  const ssize_t n = readlink("/proc/self/exe", exe, sizeof exe - 1);
  if (n > 0) {
    exe[n] = '\0';
    std::string dir{exe};
    o.out_dir = dir.substr(0, dir.rfind('/'));
  }
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse_args(argc, argv);
  std::vector<WorkloadReport> reports;
  bool correct = true;
  for (const auto& w : o.workloads) {
    reports.push_back(run_workload(w, o));
    print_table(reports.back());
    correct = correct && reports.back().errors.empty();
  }
  std::printf("{\"bench\":\"bcl_perf\",\"seed\":%" PRIu64
              ",\"scale\":%s,\"traced\":%s,\"correct\":%s,\"workloads\":{",
              o.seed, num(o.smoke ? 0.01 : 1.0).c_str(),
              o.traced ? "true" : "false", correct ? "true" : "false");
  for (std::size_t i = 0; i < reports.size(); ++i) {
    std::printf("%s%s", i ? "," : "", workload_json(reports[i]).c_str());
  }
  std::printf("}}\n");
  return correct ? 0 : 1;
}
