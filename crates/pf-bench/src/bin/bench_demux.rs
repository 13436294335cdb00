//! Writes `BENCH_demux.json`: the demux-scaling race between the
//! flat-sequential, decision-table and geometric tuple-space engines
//! over growing multi-ethertype populations, plus the geometric
//! classifier's mixed exact/range ladder to 100k filters and its
//! insert/delete churn column.
//!
//! ```text
//! cargo run -p pf-bench --release --bin bench_demux            # full sweep, 1..512 + 1k..100k ladder
//! cargo run -p pf-bench --release --bin bench_demux -- --smoke # tiny CI sweep
//! cargo run -p pf-bench --release --bin bench_demux -- --stdout
//! cargo run -p pf-bench --release --bin bench_demux -- --out /tmp/demux.json
//! ```

use pf_bench::{cli, demux_json};

fn main() {
    let args = cli::parse_or_exit("bench_demux", true);
    let points = demux_json::sweep(args.smoke);
    let (ladder, churn) = demux_json::range_sweep(args.smoke);
    let json = demux_json::to_json(&points, &ladder, &churn, args.seed.unwrap_or(0));
    let Some(path) = args.out_path(demux_json::default_path()) else {
        print!("{json}");
        return;
    };
    std::fs::write(&path, &json).expect("write BENCH_demux.json");
    println!(
        "wrote {} ({} rows, {} ladder rows, {} churn rows)",
        path.display(),
        points.len(),
        ladder.len(),
        churn.len()
    );
    for p in &points {
        println!(
            "  {:>10} n={:<4} {:>10.1} ns/pkt  {:.2} members",
            p.engine, p.population, p.ns_per_packet, p.filters_evaluated_per_packet,
        );
    }
    println!("mixed exact/range ladder:");
    for p in &ladder {
        println!(
            "  {:>10} n={:<6} {:>10.1} ns/pkt  {:.2} members, {:.2} ops, {:.2} probe nodes",
            p.engine,
            p.population,
            p.ns_per_packet,
            p.filters_evaluated_per_packet,
            p.ops_executed_per_packet,
            p.nodes_visited_per_packet,
        );
    }
    println!("churn (remove+reinsert at standing population):");
    for p in &churn {
        println!(
            "  {:>10} n={:<6} {:>10.1} ns/update over {} updates, {} rebuilds",
            p.engine, p.population, p.ns_per_update, p.updates, p.rebuilds,
        );
    }
}
