#!/usr/bin/env bash
# Offline CI gate for the workspace. Everything here runs hermetically:
# no network, no external crates. The workspace has no cargo features and
# no cfg-gated module, so the plain `cargo clippy`, `cargo build` and
# `cargo test --workspace` below compile every line of code in the tree.
set -euo pipefail
cd "$(dirname "$0")/.."

run() {
    echo "==> $*"
    "$@"
}

run bash -n scripts/pairs.sh
run bash -n scripts/profile.sh
run gcc -fsyntax-only scripts/sampler.c
run cargo fmt --check
run cargo clippy --workspace --all-targets -- -D warnings
# Rustdoc with warnings as errors: a doc link left pointing at a deleted
# or private item fails here.
run env RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline
run cargo build --release
# Every example runs end to end (clippy above only compiles them): the
# examples are the non-test consumers that make a crate's item public.
# etherfind runs with the figure 3-9 text of its own doc comment: the
# assembler reads its mnemonics back from the instruction words' Display,
# so etherfind must echo figure 3-9's eight words as it printed them.
for example in quickstart network_monitor pup_transfer rarp_boot vmtp_compare; do
    echo "==> $example"
    cargo run -q --release --example "$example" > /dev/null
done
echo "==> etherfind with figure 3-9"
fig_3_9="$(cargo run -q --release --example etherfind -- 'PUSHWORD+8, PUSHLIT|CAND, 35,
                                  PUSHWORD+7, PUSHZERO|CAND,
                                  PUSHWORD+1, PUSHLIT|EQ, 2')"
grep -q 'filter(priority=200, length=8):' <<<"$fig_3_9"
grep -q 'PUSHLIT | CAND, 35' <<<"$fig_3_9"
grep -q 'PUSHZERO | CAND' <<<"$fig_3_9"
run cargo test --workspace -q
# The campaigns' --smoke sweeps. What each one claims is a sweep-internal
# assert, so the run is the proof and no wall clock can fail it: zero
# panics and eventual delivery under chaos; flat full-armor goodput past
# saturation and the no-armor livelock cliff; on one World host given 1 or
# 4 cores, every frame delivered or dropped once, every flow reader pinned
# to its flow's core, junk crossing cores to the wildcard reader, 4-core >=
# 3x one-core goodput and poll batch 32 cheaper per packet than poll batch
# 1; geom's work counters (at most two members evaluated per packet on
# pure-exact populations, under a tenth of the population on the
# range-heavy ladder, amortized churn compactions); every adversary family
# collapsing undefended and holding hardened; exact, drop-free routed
# delivery in every fault-free fabric cell; exact blackhole accounting and
# bounded reconvergence. A smoke sweep prints its artifact, so that the
# committed full-sweep BENCH_*.json stays intact; what it prints must parse
# as JSON. The campaigns are the BENCH_<name>.json files at the root, which
# crates/pf-bench/tests/artifacts.rs keeps equal to the campaign table, so
# none can be skipped. (The full sweeps are held to the committed
# artifacts, and each fabric cell's recorded history digest to its run, by
# that test in the release run that ends this script; paper-report and its
# cells are held to docs/ by crates/pf-bench/tests/paper.rs.)
for artifact in BENCH_*.json; do
    c="${artifact#BENCH_}"
    c="${c%.json}"
    echo "==> campaign $c --smoke"
    cargo run -q -p pf-bench --release --bin campaign -- "$c" --smoke | python3 -m json.tool > /dev/null
done
# The repository's benchmark (bench/, its own workspace): its helper,
# generator and contract tests, then one --smoke pass per workload of
# BENCHMARK.json (read from it, so that none can be skipped) — every code
# path and correctness check at sizes that take seconds. The last output
# line is the result object; it must parse and say "correct":true. The
# tests build with warnings as errors: bench/ is frozen while a benchmark
# claim rests on it, so an API change in crates/ that leaves it compiling
# with a warning fails here. (Rustc warnings only: bench/ is not held to
# clippy.)
run env RUSTFLAGS="-D warnings" cargo test --offline --manifest-path bench/Cargo.toml -q
workloads="$(python3 -c 'import json; print(*(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')"
for workload in $workloads; do
    echo "==> pf-benchmark --workload $workload --smoke --trace 0"
    result="$(cargo run --release --offline --quiet --manifest-path bench/Cargo.toml -- \
        --workload "$workload" --smoke --trace 0 | tail -n 1)"
    python3 -m json.tool <<<"$result" > /dev/null
    grep -q '"correct":true' <<<"$result"
done
# pairs.sh's summariser, a Python heredoc that `bash -n` above does not
# parse: one A/A pair, the release pf-benchmark the smoke passes built on
# both sides, on demux_exact for a second a run. It must reach the verdict
# line, which one pair cannot pass.
echo "==> pairs.sh, one A/A pair on demux_exact"
benchmark=bench/target/release/pf-benchmark
verdict="$(scripts/pairs.sh "$benchmark" "$benchmark" demux_exact 1 7 1 2> /dev/null)"
grep -q 'not judged on fewer than 10 pairs' <<<"$verdict"
# Every seeded suite at full length. A test's length comes from the build
# profile, so this is the debug run's tests again at ten times the
# iterations: 10k per fuzz target (word decoder, validator, every execution
# engine, geom churn; frame codec and fault schedules; the admission gate
# under config churn; device-level bind/close churn per compiled engine),
# 20k steps of the event-queue model, geom's stab-against-brute-force
# property ten times over.
run cargo test --workspace --release -q

echo "ci: all checks passed"
