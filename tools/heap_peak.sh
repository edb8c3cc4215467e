#!/usr/bin/env bash
# What a program's heap holds at its peak, by allocating function:
#
#   tools/heap_peak.sh [-n N] PROGRAM [ARGS...]
#   tools/heap_peak.sh -n 10 build/perf/bcl_perf --workload mpi_mesh64 --reps 1
#
# Builds tools/heap_peak.cpp into an LD_PRELOAD library that replaces
# operator new and operator delete and records live bytes per allocation
# call stack, runs PROGRAM under it, and prints, for each process PROGRAM
# ran (forked children included, largest peak first), the heap at that
# process's peak: the top N sites (default 20), each with its bytes and
# blocks.  A site is the innermost function of a stack outside the
# allocator and the C++ standard library, symbolized with addr2line and
# followed by its two callers; the stacks of one site are summed.  Sizes
# are what the program asked of operator new, without malloc's overhead
# or anything allocated with malloc directly.  A Release build without -g
# gives function names; -g adds inlined functions and source lines.  The
# library and the per-process tables stay in a temporary directory whose
# path is printed last.  Exits with PROGRAM's status.
set -euo pipefail

top=20
if [[ ${1:-} == -n ]]; then
  top=$2
  shift 2
fi
if [[ $# -lt 1 ]]; then
  echo "usage: $0 [-n N] PROGRAM [ARGS...]" >&2
  exit 2
fi
src_root=$(cd "$(dirname "$0")/.." && pwd)
out=$(mktemp -d "${TMPDIR:-/tmp}/heap_peak.XXXXXX")

g++ -std=c++20 -O2 -Wall -Wextra -fPIC -shared \
  -o "$out/heap_peak.so" "$src_root/tools/heap_peak.cpp"
rc=0
LD_PRELOAD=$out/heap_peak.so "$@" >"$out/stdout" || rc=$?

python3 - "$out" "$top" <<'EOF'
import collections, glob, os, re, subprocess, sys

out, top = sys.argv[1], int(sys.argv[2])

# The allocator, the C++ runtime and the standard library's templates: a
# site is the innermost frame that is none of these.
LIBRARY = re.compile(
    r"^(\?\?|operator new|operator delete|__|_Unwind|(\S+ )?(std|__gnu_cxx)::)")

tables = []
for path in glob.glob(os.path.join(out, "heap_peak.*")):
    if path.endswith(".so"):
        continue
    with open(path) as f:
        head = f.readline().split()
        modules, stacks = {}, []
        for line in f:
            parts = line.split()
            if parts[0] == "module":
                modules[parts[1]] = " ".join(parts[2:])
            else:
                frames = [tuple(fr.split(":")) for fr in parts[2:]]
                stacks.append((int(parts[0]), int(parts[1]), frames))
    tables.append({"pid": head[2], "peak": int(head[4]),
                   "blocks": int(head[6]), "modules": modules,
                   "stacks": stacks, "path": path})

# addr2line, once per module: each return address, minus one so it falls
# inside the call, to its chain of (inlined) function names, innermost
# first.
wanted = collections.defaultdict(set)
for t in tables:
    for _, _, frames in t["stacks"]:
        for mod, addr in frames:
            if mod in t["modules"]:
                wanted[t["modules"][mod]].add(int(addr, 16))
names = {}
for module, addrs in wanted.items():
    addrs = sorted(addrs)
    query = "".join("%x\n" % (a - 1) for a in addrs)
    try:
        text = subprocess.run(["addr2line", "-a", "-f", "-i", "-C", "-e",
                               module], input=query, capture_output=True,
                              text=True, check=True).stdout
    except (OSError, subprocess.CalledProcessError):
        continue
    chains, lines = [], text.splitlines()
    i = 0
    while i < len(lines):
        if lines[i].startswith("0x"):
            chains.append([])
            i += 1
        else:  # a function name, then its source location
            chains[-1].append(lines[i])
            i += 2
    for a, chain in zip(addrs, chains):
        names[(module, a)] = chain

def frame_names(t, frame):
    mod, addr = frame
    module = t["modules"].get(mod)
    return names.get((module, int(addr, 16)), ["??"]) if module else ["??"]

for t in sorted(tables, key=lambda t: -t["peak"]):
    sites = collections.defaultdict(lambda: [0, 0])
    for size, blocks, frames in t["stacks"]:
        chain = [n for fr in frames for n in frame_names(t, fr)]
        at = next((i for i, n in enumerate(chain) if not LIBRARY.match(n)), 0)
        key = " <- ".join(chain[at:at + 3]) if chain else "??"
        sites[key][0] += size
        sites[key][1] += blocks
    print("pid %s: heap peak %d B in %d blocks, %d stacks"
          % (t["pid"], t["peak"], t["blocks"], len(t["stacks"])))
    print("%12s %9s  %s" % ("bytes", "blocks", "site <- its callers"))
    ranked = sorted(sites.items(), key=lambda kv: -kv[1][0])
    for key, (size, blocks) in ranked[:top]:
        print("%12d %9d  %s" % (size, blocks, key))
    print()
EOF
echo "tables and PROGRAM's stdout: $out"
exit "$rc"
