//! Writes `BENCH_net.json`: the internet-scale topology campaign.
//! Ring topologies of {4, 16, 64, 256} nodes carry flow-level workloads
//! of {1k, 10k, 100k} flows; a hold-model microbench times the event
//! queue alone. Every signature claim — exact routed delivery,
//! bit-identical histories across reruns — is an `assert!`, so a zero
//! exit *is* the campaign's proof.
//!
//! ```text
//! cargo run -p pf-bench --release --bin bench_net            # full sweep
//! cargo run -p pf-bench --release --bin bench_net -- --smoke # tiny CI sweep
//! cargo run -p pf-bench --release --bin bench_net -- --stdout
//! cargo run -p pf-bench --release --bin bench_net -- --out /tmp/net.json
//! ```

use pf_bench::{cli, netbench};

fn main() {
    let args = cli::parse_or_exit("bench_net", true);
    // The topology campaign models routed forwarding on single-core
    // nodes; the shared flags are accepted only in their single-core
    // shape so a multi-core invocation fails loudly instead of silently
    // measuring one core.
    if args.cores.as_deref().is_some_and(|c| c != [1]) {
        eprintln!(
            "bench_net: multi-core sweeps live in bench_mc \
             (bench_net models single-core routed nodes; got --cores {:?})",
            args.cores.unwrap()
        );
        std::process::exit(2);
    }
    if args.batch.as_deref().is_some_and(|b| b != [1]) {
        eprintln!(
            "bench_net: batched execution is swept by bench_mc \
             (bench_net forwards per frame; got --batch {:?})",
            args.batch.unwrap()
        );
        std::process::exit(2);
    }
    let report = netbench::sweep(args.smoke, args.seed.unwrap_or(netbench::DEFAULT_SEED));
    let json = netbench::to_json(&report);
    let Some(path) = args.out_path(netbench::default_path()) else {
        print!("{json}");
        return;
    };
    std::fs::write(&path, &json).expect("write BENCH_net.json");
    println!(
        "wrote {} ({} topology rows, {} event-core rows)",
        path.display(),
        report.topology.len(),
        report.event_core.len()
    );
    for p in &report.topology {
        println!(
            "  {:>3} nodes {:>6} flows  delivered {:>7}/{:<7} \
             forwarded {:>8}  {:>9.1} ms wall  {:>10.0} pkt/s",
            p.nodes, p.flows, p.delivered, p.packets, p.forwarded, p.wall_ms, p.pkts_per_sec
        );
    }
    for p in &report.event_core {
        println!(
            "  hold {:>7} pending  {:>11.0} ops/s",
            p.pending, p.ops_per_sec
        );
    }
}
