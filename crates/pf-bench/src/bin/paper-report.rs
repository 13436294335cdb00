//! Regenerates the paper's evaluation section: every table and figure
//! with no argument, or the named sections (`paper-report table_6_3
//! figures`). `--cells` prints the paper-versus-measured cells of the same
//! reports as tab-separated lines instead of the tables.
use pf_bench::report::{cells_tsv, Report};
use pf_bench::{ablations, breakeven, figures, profile61, recvcost, sendcost};
use pf_bench::{streams, telnet_exp, vmtp_exp};

/// A name the command line selects, and a report it prints.
type Section = (&'static str, fn() -> Report);

/// Every report in print order (`figures` selects three).
const SECTIONS: [Section; 16] = [
    ("table_6_1", sendcost::report),
    ("section_6_1", profile61::report_section_6_1),
    ("table_6_2", vmtp_exp::report_table_6_2),
    ("table_6_3", vmtp_exp::report_table_6_3),
    ("table_6_4", vmtp_exp::report_table_6_4),
    ("table_6_5", vmtp_exp::report_table_6_5),
    ("table_6_6", streams::report_table_6_6),
    ("table_6_7", telnet_exp::report_table_6_7),
    ("table_6_8", recvcost::report_table_6_8),
    ("table_6_9", recvcost::report_table_6_9),
    ("table_6_10", recvcost::report_table_6_10),
    ("figures", figures::report_fig_2_1_2_2),
    ("figures", figures::report_fig_2_3),
    ("figures", figures::report_fig_3_4_3_5),
    ("break_even", breakeven::report_break_even),
    ("ablations", ablations::report_ablations),
];

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
    let reports = SECTIONS
        .iter()
        .filter(|(name, _)| names.is_empty() || names.iter().any(|n| n == name))
        .map(|(_, report)| report());
    if cells {
        print!("{}", cells_tsv(&reports.collect::<Vec<_>>()));
        return;
    }
    if names.is_empty() {
        println!("Reproduction report: The Packet Filter (SOSP 1987)");
        println!("===================================================\n");
    }
    for report in reports {
        println!("{report}");
    }
}
