#!/usr/bin/env bash
# Line coverage of src/ over everything the repository runs:
#
#   tools/coverage.sh BUILD_DIR      (build-cov is ignored by git)
#
# Configures and builds a Debug tree with --coverage in BUILD_DIR, then runs
#   * ctest;
#   * every bench in BUILD_DIR/bench except bench_engine, which times the
#     host, at default arguments;
#   * bench_chaos --seed 3 and bench_cc_incast --deep;
#   * the seven example programs;
# and prints each file under src/ that has lines no run executed, with
# those line numbers, then the total.  gcov reports each object file on its
# own, and a header compiled into several objects appears in each of their
# reports: a line counts as executed if any object executed it.  An object
# no program linked counts as never executed.  Files the programs leave
# behind go to a temporary directory whose path is printed last.  Takes
# about 5 minutes on a 4-vCPU machine, most of it the build.
set -euo pipefail

if [[ $# -ne 1 ]]; then
  echo "usage: $0 BUILD_DIR" >&2
  exit 2
fi
src_root=$(cd "$(dirname "$0")/.." && pwd)
mkdir -p "$1"
build=$(cd "$1" && pwd)
jobs=$(nproc)

# The build's own output goes to BUILD_DIR/coverage-build.log.
log=$build/coverage-build.log
if ! { cmake -S "$src_root" -B "$build" -DCMAKE_BUILD_TYPE=Debug \
         -DCMAKE_CXX_FLAGS=--coverage &&
       cmake --build "$build" -j "$jobs"; } >"$log" 2>&1; then
  tail -20 "$log" >&2
  exit 1
fi
find "$build" -name '*.gcda' -delete  # count this run only

work=$(mktemp -d "${TMPDIR:-/tmp}/coverage.XXXXXX")
# run PROGRAM [ARGS...]: from $work, output discarded; a failure is
# reported but does not stop the sweep (its counts still land).
run() {
  local rc=0
  (cd "$work" && "$@") >/dev/null 2>&1 || rc=$?
  if [[ $rc -ne 0 ]]; then echo "$0: $* exited $rc" >&2; fi
}
run ctest --test-dir "$build" -j "$jobs"
for exe in "$build"/bench/bench_*; do
  if [[ -f $exe && -x $exe && $(basename "$exe") != bench_engine ]]; then
    run "$exe"
  fi
done
run "$build/bench/bench_chaos" --seed 3
run "$build/bench/bench_cc_incast" --deep
for name in quickstart halo_exchange pvm_taskfarm rma_pagerank \
            hetero_fabric security_demo metrics_dashboard; do
  run "$build/examples/$name"
done

python3 - "$build" "$src_root/src" "$jobs" <<'EOF'
import concurrent.futures, json, os, subprocess, sys

build, src, jobs = sys.argv[1], sys.argv[2], int(sys.argv[3])
notes = [os.path.join(d, f) for d, _, fs in os.walk(build)
         for f in fs if f.endswith(".gcno")]

def report(note):
    out = subprocess.run(["gcov", "--json-format", "--stdout", note],
                         cwd=os.path.dirname(note), capture_output=True,
                         text=True).stdout
    return [json.loads(line) for line in out.splitlines() if line.strip()]

# executed[file][line]: whether any object executed the line.
executed = {}
with concurrent.futures.ThreadPoolExecutor(jobs) as pool:
    for docs in pool.map(report, notes):
        for doc in docs:
            cwd = doc["current_working_directory"]
            for f in doc["files"]:
                path = os.path.normpath(os.path.join(cwd, f["file"]))
                if os.path.commonpath([path, src]) != src:
                    continue
                lines = executed.setdefault(path, {})
                for ln in f["lines"]:
                    n = ln["line_number"]
                    lines[n] = lines.get(n, False) or ln["count"] > 0

def ranges(ns):
    out, start = [], None
    for i, n in enumerate(ns):
        if start is None:
            start = n
        if i + 1 == len(ns) or ns[i + 1] != n + 1:
            out.append(str(start) if start == n else f"{start}-{n}")
            start = None
    return " ".join(out)

root = os.path.dirname(src)
total = missed = 0
for path in sorted(executed):
    lines = executed[path]
    cold = sorted(n for n, hit in lines.items() if not hit)
    total += len(lines)
    missed += len(cold)
    if cold:
        print(f"{os.path.relpath(path, root)}: {ranges(cold)}")
pct = 100.0 * (total - missed) / total if total else 0.0
print(f"total: {missed} of {total} lines unexecuted ({pct:.1f}% executed)")
EOF
echo "program output and leftovers: $work"
