//! Runs the campaigns behind the committed `BENCH_*.json` artifacts: all
//! six with no argument, or the named ones (`campaign mc overload`).
//! Every claim a campaign makes is an `assert!` inside its sweep, so a
//! zero exit *is* the proof; the artifact is one row per line.
//!
//! ```text
//! cargo run -p pf-bench --release --bin campaign                 # every full sweep, each into its BENCH_<name>.json
//! cargo run -p pf-bench --release --bin campaign -- mc           # one full sweep into BENCH_mc.json
//! cargo run -p pf-bench --release --bin campaign -- mc --smoke   # the tiny CI sweep, printed
//! cargo run -p pf-bench --release --bin campaign -- fabric --out /tmp/fabric.json
//! cargo run -p pf-bench --release --bin campaign -- adversary --stdout --seed 0xC0FFEE
//! ```

#![forbid(unsafe_code)]

use pf_bench::cli::{self, CAMPAIGNS};

fn main() {
    let args = cli::parse_or_exit();
    for (name, default_seed, run) in CAMPAIGNS {
        if !args.selects(name) {
            continue;
        }
        let artifact = run(args.smoke, args.seed.unwrap_or(default_seed)).render();
        let Some(path) = args.destination(name) else {
            print!("{artifact}");
            continue;
        };
        if let Err(e) = std::fs::write(&path, artifact) {
            eprintln!("campaign: cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
        println!("wrote {}", path.display());
    }
}
