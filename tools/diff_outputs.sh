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
# then prints "same" or the first differing lines for each output (a
# program's stdout, with its exit status when nonzero, or an export file).
# Exits 1 if any output differs.  The outputs stay in a temporary directory
# whose path is printed last.  --scale takes about a minute per build.
set -euo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 PARENT_BUILD CHANGE_BUILD" >&2
  exit 2
fi
parent_build=$(cd "$1" && pwd)
change_build=$(cd "$2" && pwd)
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
