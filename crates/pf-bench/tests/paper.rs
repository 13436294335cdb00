//! The paper's tables run on the simulated clock, so they are exact:
//! `paper-report` must print `docs/paper_report.txt`, less the engine
//! ladder's wall-clock lines, and `paper-report --cells` must print
//! `docs/paper_cells.tsv`. After an intended change to a paper table,
//! regenerate both files:
//! `cargo run -p pf-bench --release --bin paper-report | grep -v 'checked [0-9]*ns, ' > docs/paper_report.txt`
//! and `… --bin paper-report -- --cells > docs/paper_cells.tsv`.

use pf_bench::cli::paper_report;
use std::path::Path;

/// The committed copy of `docs/<name>`.
fn committed(name: &str) -> String {
    let docs = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../docs")
        .join(name);
    std::fs::read_to_string(&docs).unwrap_or_else(|e| panic!("cannot read {}: {e}", docs.display()))
}

/// Whether `line` is one of the engine ladder's wall-clock timings
/// (`… checked 6ns, validated 4ns, …`).
fn wall_clock(line: &str) -> bool {
    line.split("checked ").skip(1).any(|rest| {
        let digits = rest.bytes().take_while(u8::is_ascii_digit).count();
        rest[digits..].starts_with("ns, ")
    })
}

/// The first line where `fresh` and `committed` differ, if any.
fn first_difference(fresh: &str, committed: &str) -> Option<String> {
    let mut lines = fresh.lines().zip(committed.lines()).enumerate();
    if let Some((at, (now, was))) = lines.find(|(_, (now, was))| now != was) {
        return Some(format!(
            "line {}:\n  committed: {was}\n  printed:   {now}",
            at + 1
        ));
    }
    (fresh.lines().count() != committed.lines().count())
        .then(|| "one side is a prefix of the other".to_string())
}

#[test]
fn paper_report_prints_the_committed_tables() {
    let printed: String = paper_report(&[], false)
        .lines()
        .filter(|l| !wall_clock(l))
        .flat_map(|l| [l, "\n"])
        .collect();
    let diff = first_difference(&printed, &committed("paper_report.txt"));
    assert!(
        diff.is_none(),
        "docs/paper_report.txt is stale at {}",
        diff.unwrap()
    );
}

#[test]
fn paper_report_cells_are_the_committed_cells() {
    let diff = first_difference(&paper_report(&[], true), &committed("paper_cells.tsv"));
    assert!(
        diff.is_none(),
        "docs/paper_cells.tsv is stale at {}",
        diff.unwrap()
    );
}

#[test]
fn only_the_ladder_timings_are_wall_clock() {
    assert!(wall_clock(
        "   9 instructions   checked 34ns, validated 29ns, dtree 200ns"
    ));
    assert!(!wall_clock("checked interpreter   34 ns per packet"));
    assert!(!wall_clock("Table 6-9: checked 3 ports"));
}
