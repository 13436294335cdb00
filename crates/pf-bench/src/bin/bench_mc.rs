//! Writes `BENCH_mc.json`: the multi-core scaling campaign sweeping
//! worker cores × engine batch sizes × demux engines under a saturating
//! burst. The signature claims — 4 cores deliver ≥ 3× one core, batch=32
//! beats batch=1 per-packet cost on the geom engine — are `assert!`s,
//! so a zero exit *is* the campaign's proof.
//!
//! ```text
//! cargo run -p pf-bench --release --bin bench_mc            # full sweep
//! cargo run -p pf-bench --release --bin bench_mc -- --smoke # tiny CI sweep
//! cargo run -p pf-bench --release --bin bench_mc -- --cores 1,4 --batch 1,32
//! cargo run -p pf-bench --release --bin bench_mc -- --out /tmp/mc.json
//! ```

use pf_bench::{cli, mc};

fn main() {
    let args = cli::parse_or_exit("bench_mc", true);
    let report = mc::sweep(
        args.smoke,
        args.cores.as_deref(),
        args.batch.as_deref(),
        args.seed.unwrap_or(0),
    );
    let json = mc::to_json(&report);
    let Some(path) = args.out_path(mc::default_path()) else {
        print!("{json}");
        return;
    };
    std::fs::write(&path, &json).expect("write BENCH_mc.json");
    println!(
        "wrote {} ({} rows, population {}, {} frames per cell)",
        path.display(),
        report.rows.len(),
        report.population,
        report.frames
    );
    for p in &report.rows {
        println!(
            "  {:>7} {:>2} cores batch {:>3}  goodput {:>8.1} pps  cost {:>7.1} us/pkt  \
             p99 {:>8} us  steered/wakeups/steals {:>5}/{:>5}/{:>4}",
            p.engine,
            p.cores,
            p.batch,
            p.goodput_pps,
            p.cost_per_packet_us,
            p.p99_latency_us,
            p.frames_steered,
            p.cross_core_wakeups,
            p.queue_steals
        );
    }
}
