#!/usr/bin/env bash
# Where one benchmark workload spends its wall time, by sampling.
#
#   scripts/profile.sh <pf-benchmark binary> <workload> [seconds=5] [seed=7] [top=25] [callee]
#
# Build the binary with frame pointers, into a target directory of its own
# so that the benchmark's build is left as it is:
#
#   RUSTFLAGS="-C force-frame-pointers=yes" cargo build --release --offline \
#       --manifest-path bench/Cargo.toml --target-dir ../pf-fp-target
#
# Runs the workload once, untraced (`--trace 0`), attaches scripts/sampler.c
# (compiled with cc into a temporary directory) at 1 kHz for the whole
# run, and prints the `top` functions by self samples (the innermost frame)
# and by inclusive samples (anywhere on the stack, once a sample), named
# with `nm`. Given `callee`, a function-name substring, it then prints the
# `top` three-frame caller chains (innermost first) of the samples whose
# innermost frame's name contains it: who keeps calling a hot function.
# Functions the compiler inlined are charged to their caller,
# and the standard library, built without frame pointers, can cut a walk
# short. A sampler's share says where time goes, not what a change saves:
# compare two builds with scripts/pairs.sh.
set -euo pipefail

if [[ $# -lt 2 ]]; then
    sed -n '2,22p' "$0" | sed 's/^# \{0,1\}//' >&2
    exit 2
fi
binary="$(realpath "$1")" workload="$2" seconds="${3:-5}" seed="${4:-7}" top="${5:-25}" callee="${6:-}"

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
cc -O2 -o "$tmp/sampler" "$(dirname "$0")/sampler.c"

"$binary" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 > "$tmp/result" &
pid=$!
# Attach once the process is the benchmark, and note where its image sits.
until [[ "$(readlink "/proc/$pid/exe" 2> /dev/null)" == "$binary" ]]; do sleep 0.001; done
image="$(awk -v exe="$binary" '$6 == exe { split($1, a, "-"); if (!lo) lo = a[1]; hi = a[2] } END { print lo, hi }' "/proc/$pid/maps")"
"$tmp/sampler" "$pid" 1000 > "$tmp/samples"
wait "$pid"
tail -n 1 "$tmp/result"
nm --defined-only -C "$binary" > "$tmp/symbols"

python3 - "$tmp/samples" "$tmp/symbols" $image "$top" "$callee" <<'EOF'
import bisect, collections, re, sys

samples, symbols, top, callee = sys.argv[1], sys.argv[2], int(sys.argv[5]), sys.argv[6]
base, end = int(sys.argv[3], 16), int(sys.argv[4], 16)
starts, names = [], []
for line in open(symbols):
    parts = line.split(" ", 2)
    if len(parts) == 3 and parts[1] in "tTwW":
        starts.append(int(parts[0], 16))
        names.append(re.sub(r"::h[0-9a-f]{16}$", "", parts[2].strip()))
order = sorted(range(len(starts)), key=starts.__getitem__)
starts, names = [starts[i] for i in order], [names[i] for i in order]

def name(addr, is_return):
    if not base <= addr < end:
        return "(outside the binary)"
    # A return address can sit one past its call's function: look one byte back.
    i = bisect.bisect_right(starts, addr - base - is_return) - 1
    return names[i] if i >= 0 else "?"

selfs, inclusive, chains, n = collections.Counter(), collections.Counter(), collections.Counter(), 0
for line in open(samples):
    addrs = [int(a, 16) for a in line.split()]
    if not addrs:
        continue
    n += 1
    stack = [name(a, k > 0) for k, a in enumerate(addrs)]
    selfs[stack[0]] += 1
    inclusive.update(set(stack))
    if callee and callee in stack[0]:
        chains[" <- ".join(stack[:3])] += 1
print(f"{n} samples")
views = [("self", selfs), ("inclusive", inclusive)]
if callee:
    views.append((f"callers of {callee!r}", chains))
for title, counts in views:
    print(f"\n{title:>9}  function")
    for fn, c in counts.most_common(top):
        print(f"{100 * c / n:8.1f}%  {fn}")
EOF
