#!/usr/bin/env bash
# Offline CI gate for the workspace. Everything here runs hermetically —
# no network, no external crates (rand/proptest/criterion are commented
# out of the manifests; see each Cargo.toml for how to restore them).
#
#   scripts/ci.sh            # the default, fully offline gate
#   scripts/ci.sh --benches  # additionally compile the criterion benches
#                            # (requires the `criterion` dev-dependency
#                            # restored and the registry reachable)
set -euo pipefail
cd "$(dirname "$0")/.."

run() {
    echo "==> $*"
    "$@"
}

run bash -n scripts/pairs.sh
run cargo fmt --check
run cargo clippy --workspace --all-targets -- -D warnings
run cargo build --release
run cargo test --workspace -q
# The native template JIT (pf-ir's off-by-default `jit` feature: no
# dependencies, so this lane is as hermetic as the rest). Linux
# x86-64/aarch64 run emitted code; elsewhere it is the threaded fallback.
run cargo clippy -p pf-ir --all-targets --features jit -- -D warnings
run cargo test -p pf-ir -q --features jit
# The paper's tables run on the simulated clock, so they are exact:
# paper-report, minus the six wall-clock engine-ladder lines, must equal
# the committed copy (regenerate it with this same pipeline into the file).
echo "==> paper-report | diff - docs/paper_report.txt"
cargo run -q -p pf-bench --release --bin paper-report \
    | grep -v 'checked [0-9]*ns, ' | diff - docs/paper_report.txt
# Chaos-campaign invariants (zero panics, eventual delivery, bounded
# retries); --stdout keeps the checked-in full-sweep BENCH_chaos.json.
echo "==> cargo run -p pf-bench --release --bin bench_chaos -- --smoke --stdout"
cargo run -p pf-bench --release --bin bench_chaos -- --smoke --stdout > /dev/null
# Overload-campaign invariants (flat full-armor goodput past saturation,
# no-armor livelock cliff, drop-at-NIC vs after-demux accounting); the
# smoke artifact goes to a temp path so the checked-in full-sweep
# BENCH_overload.json stays intact, and must parse as JSON.
echo "==> cargo run -p pf-bench --release --bin bench_overload -- --smoke --out <tmp>"
overload_json="$(mktemp)"
cargo run -p pf-bench --release --bin bench_overload -- --smoke --out "$overload_json" > /dev/null
python3 -m json.tool "$overload_json" > /dev/null
rm -f "$overload_json"
# Multi-core campaign invariants (frame conservation, RSS pinning and
# steering, 4-core >= 3x one-core goodput, batching beats batch=1 cost);
# same temp-path treatment so the checked-in BENCH_mc.json stays intact.
echo "==> cargo run -p pf-bench --release --bin bench_mc -- --smoke --out <tmp>"
mc_json="$(mktemp)"
cargo run -p pf-bench --release --bin bench_mc -- --smoke --out "$mc_json" > /dev/null
python3 -m json.tool "$mc_json" > /dev/null
rm -f "$mc_json"
# Demux-scaling invariants: the smoke run carries sweep-internal asserts
# on geom's own work counters (at most two members evaluated per packet
# on pure-exact populations, under a tenth of the population on the
# range-heavy ladder, sublinear probe growth up the ladder, churn
# compactions amortized); same temp-path treatment, and the artifact —
# rows + range_rows + churn_rows — must parse as JSON.
echo "==> cargo run -p pf-bench --release --bin bench_demux -- --smoke --out <tmp>"
demux_json="$(mktemp)"
cargo run -p pf-bench --release --bin bench_demux -- --smoke --out "$demux_json" > /dev/null
python3 -m json.tool "$demux_json" > /dev/null
# Then the sweep whole (under 15 s), so that the committed BENCH_demux.json
# still describes the code: its exact fields — engine, population and the
# work counters, never an ns_* field — must equal a fresh run's.
echo "==> cargo run -p pf-bench --release --bin bench_demux -- --out <tmp> | exact fields vs BENCH_demux.json"
cargo run -p pf-bench --release --bin bench_demux -- --out "$demux_json" > /dev/null
python3 - "$demux_json" BENCH_demux.json <<'EOF'
import json, sys

EXACT = ("engine", "population", "filters_evaluated_per_packet", "ops_executed_per_packet",
         "nodes_visited_per_packet", "updates", "rebuilds")

def exact_rows(path):
    tables = {name: rows for name, rows in json.load(open(path)).items() if isinstance(rows, list)}
    return [(name, {f: row[f] for f in EXACT if f in row}) for name, rows in tables.items() for row in rows]

fresh, committed = exact_rows(sys.argv[1]), exact_rows(sys.argv[2])
for was, now in zip(committed, fresh):
    if was != now:
        print(f"BENCH_demux.json says {was}, the code says {now}", file=sys.stderr)
sys.exit(fresh != committed)
EOF
rm -f "$demux_json"
# Adversarial-traffic campaign invariants: every family's undefended row
# must collapse and its hardened row must hold goodput/coverage — the
# collapse and recovery claims are sweep-internal asserts, so the run
# itself is the proof. Same temp-path treatment; artifact must parse.
echo "==> cargo run -p pf-bench --release --bin bench_adversary -- --smoke --out <tmp>"
adversary_json="$(mktemp)"
cargo run -p pf-bench --release --bin bench_adversary -- --smoke --out "$adversary_json" > /dev/null
python3 -m json.tool "$adversary_json" > /dev/null
rm -f "$adversary_json"
# Internet-scale topology campaign invariants: exact routed delivery per
# host, bit-identical histories when a cell is run twice — both
# sweep-internal asserts; no wall-clock comparison can fail the run.
# Same temp-path treatment; artifact must parse.
echo "==> cargo run -p pf-bench --release --bin bench_net -- --smoke --out <tmp>"
net_json="$(mktemp)"
cargo run -p pf-bench --release --bin bench_net -- --smoke --out "$net_json" > /dev/null
python3 -m json.tool "$net_json" > /dev/null
rm -f "$net_json"
# Fabric-chaos campaign invariants: exact undefended blackhole
# accounting, hardened >=99% surviving-path recovery inside a
# diameter-aware convergence bound, zero TTL loops, bounded route
# churn — all sweep-internal asserts. Same temp-path treatment;
# artifact must parse.
echo "==> cargo run -p pf-bench --release --bin bench_fabric -- --smoke --out <tmp>"
fabric_json="$(mktemp)"
cargo run -p pf-bench --release --bin bench_fabric -- --smoke --out "$fabric_json" > /dev/null
python3 -m json.tool "$fabric_json" > /dev/null
rm -f "$fabric_json"
# The repository's benchmark (bench/, its own workspace): its helper,
# generator and contract tests, then one --smoke pass per workload — every
# code path and correctness check at sizes that take seconds. The last
# output line is the result object; it must parse and say "correct":true.
run cargo test --offline --manifest-path bench/Cargo.toml -q
for workload in lan_paper routed_fabric demux_exact demux_range_churn overload_flood; do
    echo "==> pf-benchmark --workload $workload --smoke --trace 0"
    result="$(cargo run --release --offline --quiet --manifest-path bench/Cargo.toml -- \
        --workload "$workload" --smoke --trace 0 | tail -n 1)"
    python3 -m json.tool <<<"$result" > /dev/null
    grep -q '"correct":true' <<<"$result"
done
# Structured fuzzing (>= 10k seeded iterations per target: word decoder,
# validator, every execution engine, geom churn; frame codec and fault
# schedules; the admission gate under config churn; device-level bind/
# close churn per compiled engine) — hermetic but too slow for the
# default `cargo test`, so it rides its own feature. pf-sim's lane is the
# event-queue model test at ten times its default length; pf-ir's also
# runs geom's seeded stab-against-brute-force property ten times over.
run cargo test -p pf-sim --release --features fuzz-tests -q
run cargo test -p pf-ir --release --features fuzz-tests -q
run cargo test -p pf-net --release --features fuzz-tests -q
run cargo test -p pf-kernel --release --features fuzz-tests -q

if [[ "${1:-}" == "--benches" ]]; then
    run cargo bench --workspace --features criterion-benches --no-run
fi

echo "ci: all checks passed"
