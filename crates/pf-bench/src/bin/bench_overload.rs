//! Writes `BENCH_overload.json`: the saturation campaign sweeping
//! offered load from 0.5× to 8× of unarmored receive capacity across the
//! overload-armor tiers {none, polling, shedding, full} and the demux
//! engines {dtree, geom}. Every signature claim — flat full-armor
//! goodput past saturation, the no-armor livelock cliff, drop-at-NIC vs
//! drop-after-demux accounting — is an `assert!`, so a zero exit *is* the
//! campaign's proof.
//!
//! ```text
//! cargo run -p pf-bench --release --bin bench_overload            # full sweep
//! cargo run -p pf-bench --release --bin bench_overload -- --smoke # tiny CI sweep
//! cargo run -p pf-bench --release --bin bench_overload -- --stdout
//! cargo run -p pf-bench --release --bin bench_overload -- --out /tmp/overload.json
//! ```

use pf_bench::{cli, overload};

fn main() {
    let args = cli::parse_or_exit("bench_overload", true);
    // This campaign models the classic single-core receive path; the
    // shared flags are accepted only in their single-core shape so a
    // multi-core invocation fails loudly instead of silently measuring
    // one core.
    if args.cores.as_deref().is_some_and(|c| c != [1]) {
        eprintln!(
            "bench_overload: multi-core sweeps live in bench_mc \
             (bench_overload models the single-core receive path; got --cores {:?})",
            args.cores.unwrap()
        );
        std::process::exit(2);
    }
    if args.batch.as_deref().is_some_and(|b| b != [1]) {
        eprintln!(
            "bench_overload: batched execution is swept by bench_mc \
             (bench_overload demultiplexes per frame; got --batch {:?})",
            args.batch.unwrap()
        );
        std::process::exit(2);
    }
    let report = overload::sweep(args.smoke, args.seed.unwrap_or(overload::DEFAULT_SEED));
    let json = overload::to_json(&report);
    let Some(path) = args.out_path(overload::default_path()) else {
        print!("{json}");
        return;
    };
    std::fs::write(&path, &json).expect("write BENCH_overload.json");
    println!(
        "wrote {} ({} rows, capacity {} pps, wanted {} pps)",
        path.display(),
        report.rows.len(),
        report.capacity_pps,
        report.wanted_pps
    );
    for p in &report.rows {
        println!(
            "  {:>7} {:>8} {:>4.1}x  goodput {:>7.1} pps  useful {:>5.3}  \
             drops adm/q/ring {:>6}/{:>6}/{:>6}  p99 {:>8} us",
            p.engine,
            p.armor,
            p.offered_x,
            p.goodput_pps,
            p.useful_frac,
            p.drops_admission,
            p.drops_queue_full,
            p.drops_interface,
            p.p99_latency_us
        );
    }
}
