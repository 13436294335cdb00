#!/usr/bin/env bash
# Parent against change on one benchmark workload, in alternating pairs —
# the comparison a performance claim rests on (bench/README.md; wall rows
# move between runs on a shared box, so one run of each says nothing).
#
#   scripts/pairs.sh <parent-binary> <change-binary> <workload|all> [pairs=10] [seed=7] [seconds]
#
# The binaries are two builds of `pf-benchmark` (bench/target/release/ of
# each checkout), built once each. Every run is untraced (`--trace 0`) at
# the benchmark's own run length — or `seconds`, passed through as
# `--seconds`, for a table of one metric against run length; a claim
# rests on the benchmark's own. The side that goes first alternates.
# Prints, per end-to-end metric: each side's median and quartiles, the
# change's median over the parent's, pairs won (ties count for neither),
# whether every change run beat every parent run, and whether the rule a
# claimed gain must meet holds: at least ten pairs, the change ahead in nine
# tenths of them and the medians apart, the change's way, by more than the
# parent's interquartile range. A metric that read the same in every run
# of both sides gets one line saying so. Beside `setup_s`, each side's
# minor page faults (the child's `ru_minflt`). Before each workload's
# summary, one row a run in the order made: pair, side, the side that went
# first in its pair, `setup_s`, `frames_per_s`, `peak_rss_mb` and minor
# faults. `all` for the workload runs every workload of BENCHMARK.json in
# turn and ends with one markdown table, a row a workload: `frames_per_s`
# with its ratio and pairs won, `peak_rss_mb`, `setup_s` and minor faults.
set -euo pipefail

if [[ $# -lt 3 ]]; then
    sed -n '2,25p' "$0" | sed 's/^# \{0,1\}//' >&2
    exit 2
fi
parent="$1" change="$2" pairs="${4:-10}" seed="${5:-7}"
length=(${6:+--seconds "$6"})
benchmark="$(dirname "$0")/../BENCHMARK.json"
workloads=("$3")
if [[ "$3" == all ]]; then
    workloads=($(python3 -c 'import json, sys
print(*(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' "$benchmark"))
fi

runs="$(mktemp)"
trap 'rm -f "$runs"' EXIT

run() { # <side> <binary> <pair>: appends "<workload> <side> <pair> <result object> <minor faults>"
    local result
    # The run's last line, and the child's minor page faults: a struct
    # that changed size can make glibc trim and refault the heap between
    # set-up reps, which reads as a slower setup_s.
    result="$(python3 -c 'import resource, subprocess, sys
out = subprocess.run(sys.argv[1:], stdout=subprocess.PIPE, text=True, check=True).stdout
print(out.splitlines()[-1], resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt)' \
        "$2" --workload "$workload" --seed "$seed" --trace 0 "${length[@]}")"
    echo "$workload $1 $3 $result" >> "$runs"
    echo "$workload pair $3 $1 done" >&2
}

for workload in "${workloads[@]}"; do
    for ((i = 1; i <= pairs; i++)); do
        if ((i % 2)); then
            run parent "$parent" "$i"
            run change "$change" "$i"
        else
            run change "$change" "$i"
            run parent "$parent" "$i"
        fi
    done
done

python3 - "$runs" "$seed" "$benchmark" <<'EOF'
import json, sys

LOWER_IS_BETTER = {m["name"] for m in json.load(open(sys.argv[3]))["end_to_end"] if m["better"] == "lower"}

def quartiles(xs):
    xs = sorted(xs)
    def at(q):
        pos = q * (len(xs) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(xs) - 1)
        return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)
    return at(0.25), at(0.5), at(0.75)

# workload -> side -> metric -> one value a run, in pair order
workloads = {}
failed = {}
faults = {}
# workload -> (pair, side, result, minor faults), one a run, in the order run
made = {}
for line in open(sys.argv[1]):
    workload, side, pair, result = line.split(" ", 3)
    result, minflt = result.rsplit(" ", 1)
    result = json.loads(result)
    made.setdefault(workload, []).append((pair, side, result, int(minflt)))
    assert result["correct"], f"{workload}: {side} run of pair {pair} failed its own checks"
    failed.setdefault(workload, {"parent": 0, "change": 0})[side] += result["failed"]
    faults.setdefault(workload, {"parent": [], "change": []})[side].append(int(minflt))
    sides = workloads.setdefault(workload, {"parent": {}, "change": {}})
    for name, m in result["metrics"].items():
        sides[side].setdefault(name, []).append(m["value"])

for workload, sides in workloads.items():
    print(f"{workload}, seed {sys.argv[2]}: every run, in the order made")
    print(f"{'pair':<6}{'side':<8}{'first':<8}{'setup_s':>14}{'frames_per_s':>14}{'peak_rss_mb':>14}{'minor faults':>14}")
    first = {}
    for pair, side, result, minflt in made[workload]:
        m = {name: v["value"] for name, v in result["metrics"].items()}
        print(f"{pair:<6}{side:<8}{first.setdefault(pair, side):<8}{m['setup_s']:>14.6g}"
              f"{m['frames_per_s']:>14.6g}{m['peak_rss_mb']:>14.6g}{minflt:>14}")
    n = len(next(iter(sides["parent"].values())))
    print(f"{workload}, seed {sys.argv[2]}, {n} pairs; ops failed: "
          f"parent {failed[workload]['parent']}, change {failed[workload]['change']}")
    print(f"{'metric':<20}{'side':<8}{'median':>14}{'q1':>14}{'q3':>14}")
    for name, parent in sides["parent"].items():
        change = sides["change"][name]
        if len(set(parent + change)) == 1:
            print(f"{name:<20}identical in all {2 * n} runs: {parent[0]:.6g}")
            continue
        better = (lambda c, p: c < p) if name in LOWER_IS_BETTER else (lambda c, p: c > p)
        for side, xs in (("parent", parent), ("change", change)):
            q1, med, q3 = quartiles(xs)
            print(f"{name:<20}{side:<8}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}")
        if name == "setup_s":
            for side in ("parent", "change"):
                q1, med, q3 = quartiles(faults[workload][side])
                print(f"{'  minor faults':<20}{side:<8}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}")
        (pq1, pmed, pq3), (_, cmed, _) = quartiles(parent), quartiles(change)
        wins = sum(better(c, p) for c, p in zip(change, parent))
        losses = sum(better(p, c) for c, p in zip(change, parent))
        clean = all(better(c, p) for c in change for p in parent)
        claim = 10 * wins >= 9 * n and better(cmed, pmed) and abs(cmed - pmed) > pq3 - pq1
        ratio = f"{cmed / pmed:.3f}x" if pmed else "n/a"
        print(f"{'':<20}change/parent {ratio}, change ahead in {wins}/{n} pairs (behind in {losses}), "
              f"medians apart {abs(cmed - pmed):.6g} vs parent IQR {pq3 - pq1:.6g}, "
              f"every change run ahead of every parent run: {'yes' if clean else 'no'}")
        verdict = "not judged on fewer than 10 pairs" if n < 10 else "holds" if claim else "does not hold"
        print(f"{'':<20}claim rule (ahead in >= 9/10 of pairs, medians apart by more than the parent's IQR): {verdict}")

if len(workloads) > 1:
    def cell(xs, scale, digits, spread=False):
        q1, med, q3 = (q * scale for q in quartiles(xs))
        return f"{med:.{digits}f}" + (f" [{q1:.{digits}f}, {q3:.{digits}f}]" if spread else "")
    print()
    print("| workload | `frames_per_s` (M), parent → change, median [q1, q3] | ratio | pairs won "
          "| `peak_rss_mb` | `setup_s` (ms) | minor faults |")
    print("|---|---|---|---|---|---|---|")
    for workload, sides in workloads.items():
        parent, change = sides["parent"], sides["change"]
        fp, fc = parent["frames_per_s"], change["frames_per_s"]
        print(f"| `{workload}` | {cell(fp, 1e-6, 3, True)} → {cell(fc, 1e-6, 3, True)} "
              f"| {quartiles(fc)[1] / quartiles(fp)[1]:.3f}× | {sum(c > p for c, p in zip(fc, fp))}/{len(fp)} "
              f"| {cell(parent['peak_rss_mb'], 1, 2)} → {cell(change['peak_rss_mb'], 1, 2)} "
              f"| {cell(parent['setup_s'], 1e3, 1)} → {cell(change['setup_s'], 1e3, 1)} "
              f"| {cell(faults[workload]['parent'], 1, 0)} → {cell(faults[workload]['change'], 1, 0)} |")
EOF
