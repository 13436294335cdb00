//! Regenerates the paper's evaluation section: every table and figure
//! with no argument, or the named sections (`paper-report table_6_3
//! figures`). `--cells` prints the paper-versus-measured cells of the same
//! reports as tab-separated lines instead of the tables.

#![forbid(unsafe_code)]

use pf_bench::cli::{paper_report, SECTIONS};

fn main() {
    let mut cells = false;
    let mut names: Vec<String> = Vec::new();
    for arg in std::env::args().skip(1) {
        if arg == "--cells" {
            cells = true;
        } else if SECTIONS.iter().any(|(name, _)| *name == arg) {
            names.push(arg);
        } else {
            let mut known: Vec<&str> = SECTIONS.iter().map(|(name, _)| *name).collect();
            known.dedup();
            eprintln!("paper-report: unknown argument `{arg}`");
            eprintln!("usage: paper-report [--cells] [{}]", known.join("|"));
            std::process::exit(2);
        }
    }
    print!("{}", paper_report(&names, cells));
}
