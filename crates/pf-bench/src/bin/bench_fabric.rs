//! Writes `BENCH_fabric.json`: the fault-tolerant-fabric campaign.
//! Ring topologies of {16, 64, 256} nodes carry flowgen traffic
//! through three chaos scenarios — router kill, link-flap train,
//! partition-and-heal — each run both undefended (static routes) and
//! hardened (hello probing, backup failover, LSU flooding, bounded
//! reconvergence). Every recovery claim — exact undefended blackhole
//! accounting, ≥99% surviving-path goodput after the convergence
//! deadline, zero TTL loops, bounded route churn — is an `assert!`, so
//! a zero exit *is* the campaign's proof.
//!
//! ```text
//! cargo run -p pf-bench --release --bin bench_fabric            # full sweep
//! cargo run -p pf-bench --release --bin bench_fabric -- --smoke # tiny CI sweep
//! cargo run -p pf-bench --release --bin bench_fabric -- --stdout
//! cargo run -p pf-bench --release --bin bench_fabric -- --out /tmp/fabric.json
//! ```

use pf_bench::{cli, fabric};

fn main() {
    let args = cli::parse_or_exit("bench_fabric", true);
    // Chaos cells model single-core routed nodes; reject the shared
    // multi-core flags loudly rather than silently ignoring them.
    if args.cores.as_deref().is_some_and(|c| c != [1]) {
        eprintln!(
            "bench_fabric: multi-core sweeps live in bench_mc \
             (bench_fabric models single-core routed nodes; got --cores {:?})",
            args.cores.unwrap()
        );
        std::process::exit(2);
    }
    if args.batch.as_deref().is_some_and(|b| b != [1]) {
        eprintln!(
            "bench_fabric: batched execution is swept by bench_mc \
             (bench_fabric forwards per frame; got --batch {:?})",
            args.batch.unwrap()
        );
        std::process::exit(2);
    }
    let report = fabric::sweep(args.smoke, args.seed.unwrap_or(fabric::FABRIC_SEED));
    let json = fabric::to_json(&report);
    let Some(path) = args.out_path(fabric::default_path()) else {
        print!("{json}");
        return;
    };
    std::fs::write(&path, &json).expect("write BENCH_fabric.json");
    println!("wrote {} ({} rows)", path.display(), report.rows.len());
    for p in &report.rows {
        println!(
            "  {:>14} {:>3}n {:>10}  delivered {:>6}/{:<6} \
             recovered {:>5.3}  conv {:>6.1} ms  churn {:>4}  {:>8.1} ms wall",
            p.scenario,
            p.nodes,
            p.deploy,
            p.delivered,
            p.packets,
            p.recovered_frac,
            p.convergence_ms,
            p.route_churn,
            p.wall_ms
        );
    }
}
