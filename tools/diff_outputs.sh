#!/usr/bin/env bash
# Checks that two builds produce the same outputs:
#
#   tools/diff_outputs.sh PARENT_BUILD CHANGE_BUILD
#
# In each build tree it runs
#   * every bench in <build>/bench except bench_engine, which times the host;
#   * bench_coll_scaling --scale, bench_chaos --seed 3, bench_cc_incast --deep;
#   * the six example programs;
#   * metrics_dashboard, in a fresh directory, keeping its six export files;
#   * perf/bcl_perf --smoke --seed N for N = 1..10, keeping of each workload
#     only what the simulation decides: its digest, attempted and failed
#     operations and every metric of kind "sim" (never a host timing);
# then prints "same" or the first differing lines for each output (a
# program's stdout, with its exit status when nonzero, or an export file).
# Exits 1 if any output differs.  The outputs stay in a temporary directory
# whose path is printed last.  --scale takes about a minute per build, the
# ten bcl_perf runs about 15 s.  Each build needs its bcl_perf, built with
#   cmake -S bench/perf -B <build>/perf && cmake --build <build>/perf
set -euo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 PARENT_BUILD CHANGE_BUILD" >&2
  exit 2
fi
parent_build=$(cd "$1" && pwd)
change_build=$(cd "$2" && pwd)
for build in "$parent_build" "$change_build"; do
  if [[ ! -x $build/perf/bcl_perf ]]; then
    echo "$0: no $build/perf/bcl_perf; build it with" >&2
    echo "  cmake -S bench/perf -B $build/perf && cmake --build $build/perf" >&2
    exit 2
  fi
done
out=$(mktemp -d "${TMPDIR:-/tmp}/diff_outputs.XXXXXX")

# run DIR NAME PROGRAM [ARGS...]: PROGRAM's stdout into DIR/NAME, run from
# DIR/work so files a bench leaves behind stay out of the comparison.
run() {
  local dir=$1 name=$2
  shift 2
  local rc=0
  (cd "$dir/work" && "$@") >"$dir/$name" 2>/dev/null || rc=$?
  if [[ $rc -ne 0 ]]; then echo "exit status $rc" >>"$dir/$name"; fi
}

# perf_sim ARGS...: runs bcl_perf and prints, one line each, every
# workload's digest and operation counts and each of its "sim" metrics from
# the JSON report on the last line of its stdout.
perf_sim() {
  "$@" | python3 -c '
import json, sys
lines = sys.stdin.read().splitlines()
report = json.loads(lines[-1]) if lines else {"workloads": {}}
for name, w in sorted(report["workloads"].items()):
    print(name, "digest", w["digest"], "attempted", w["attempted"],
          "failed", w["failed"])
    for metric, m in sorted(w["metrics"].items()):
        if m["kind"] == "sim":
            print(name, metric, m["value"], m["median"], m["q1"], m["q3"],
                  m["best"], m["n"])
'
}

collect() {
  local build=$1 dir=$2
  mkdir -p "$dir/work" "$dir/dashboard"
  local exe name
  for exe in "$build"/bench/bench_*; do
    name=$(basename "$exe")
    if [[ -f $exe && -x $exe && $name != bench_engine ]]; then
      run "$dir" "$name" "$exe"
    fi
  done
  run "$dir" bench_coll_scaling--scale "$build/bench/bench_coll_scaling" --scale
  run "$dir" bench_chaos--seed-3 "$build/bench/bench_chaos" --seed 3
  run "$dir" bench_cc_incast--deep "$build/bench/bench_cc_incast" --deep
  for name in quickstart halo_exchange pvm_taskfarm rma_pagerank \
              hetero_fabric security_demo; do
    run "$dir" "$name" "$build/examples/$name"
  done
  # A relative path keeps the directory the dashboard prints the same.
  run "$dir" metrics_dashboard "$build/examples/metrics_dashboard" ../dashboard
  local seed
  for seed in 1 2 3 4 5 6 7 8 9 10; do
    run "$dir" "bcl_perf--seed-$seed" perf_sim "$build/perf/bcl_perf" \
      --smoke --seed "$seed"
  done
}

collect "$parent_build" "$out/parent"
collect "$change_build" "$out/change"

status=0
while IFS= read -r f; do
  if cmp -s "$out/parent/$f" "$out/change/$f"; then
    echo "same  $f"
  else
    echo "DIFF  $f"
    diff "$out/parent/$f" "$out/change/$f" | head -n 8 | cut -c 1-160 |
      sed 's/^/      /' || true
    status=1
  fi
done < <(cd "$out/parent" && find . -type f ! -path './work/*' | sed 's|^\./||' | sort)
echo "outputs in $out"
exit $status
