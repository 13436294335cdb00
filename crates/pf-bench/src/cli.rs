//! What the two binaries run. `paper-report [--cells] [section …]` prints
//! the [`SECTIONS`] named, every one by default ([`paper_report`]). The
//! campaigns have a command line of their own:
//! `campaign [name …] [--smoke] [--stdout] [--out <path>] [--seed <u64>]`.
//!
//! * a name selects a campaign of [`CAMPAIGNS`]; no name selects all six;
//! * `--smoke` — the tiny CI sweep instead of the full one, printed to
//!   stdout so that it never replaces a committed full-sweep artifact;
//! * `--stdout` — print the artifact instead of writing a file;
//! * `--out <path>` — write the artifact to `<path>` instead of
//!   `BENCH_<name>.json` at the repository root (one name only);
//! * `--seed <u64>` — run under this seed instead of the campaign's own.

use crate::json::Json;
use crate::report::{cells_tsv, Report};
use crate::{ablations, breakeven, figures, profile61, recvcost, sendcost};
use crate::{adversary, chaos, demux_json, fabric, mc, overload};
use crate::{streams, telnet_exp, vmtp_exp};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// A `paper-report` section: the name that selects it, and a report it
/// prints.
pub type Section = (&'static str, fn() -> Report);

/// Every `paper-report` section in print order (`figures` selects three).
pub const SECTIONS: [Section; 16] = [
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

/// What `paper-report` prints for the sections `names` (every section when
/// there are none): the tables under a title, or with `cells` their
/// paper-versus-measured cells ([`cells_tsv`]).
pub fn paper_report(names: &[String], cells: bool) -> String {
    let reports: Vec<Report> = SECTIONS
        .iter()
        .filter(|(name, _)| names.is_empty() || names.iter().any(|n| n == name))
        .map(|(_, report)| report())
        .collect();
    if cells {
        return cells_tsv(&reports);
    }
    let mut out = String::new();
    if names.is_empty() {
        out.push_str("Reproduction report: The Packet Filter (SOSP 1987)\n");
        out.push_str("===================================================\n\n");
    }
    for report in reports {
        let _ = writeln!(out, "{report}");
    }
    out
}

/// A campaign: its name, the seed its committed artifact was run under,
/// and the sweep as `fn(smoke, seed)`. Every claim a campaign makes is an
/// `assert!` inside its sweep, so returning at all is the proof; the value
/// returned is the artifact, wall-clock fields tagged [`Json::Wall`].
pub type Campaign = (&'static str, u64, fn(bool, u64) -> Json);

/// Every campaign, cheapest first.
pub const CAMPAIGNS: [Campaign; 6] = [
    ("chaos", chaos::DEFAULT_SEED, |smoke, seed| {
        chaos::sweep(smoke, seed).json()
    }),
    ("adversary", adversary::DEFAULT_SEED, |smoke, seed| {
        adversary::sweep(smoke, seed).json()
    }),
    ("mc", 0, |smoke, seed| mc::sweep(smoke, seed).json()),
    ("overload", overload::DEFAULT_SEED, |smoke, seed| {
        overload::sweep(smoke, seed).json()
    }),
    ("demux", 0, |smoke, seed| {
        let (ladder, churn) = demux_json::range_sweep(smoke);
        demux_json::json(&demux_json::sweep(smoke), &ladder, &churn, seed)
    }),
    ("fabric", fabric::DEFAULT_SEED, |smoke, seed| {
        fabric::sweep(smoke, seed).json()
    }),
];

/// Where the committed artifact of campaign `name` lives:
/// `BENCH_<name>.json` at the repository root.
pub fn artifact_path(name: &str) -> PathBuf {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).ancestors().nth(2);
    root.expect("crates/pf-bench is two levels below the root")
        .join(format!("BENCH_{name}.json"))
}

/// Parsed `campaign` arguments.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CampaignArgs {
    /// The campaigns named; empty selects every one.
    pub names: Vec<String>,
    /// Run the tiny CI sweep.
    pub smoke: bool,
    /// Print to stdout instead of writing the output file.
    pub stdout: bool,
    /// Explicit output path (overrides the default location).
    pub out: Option<PathBuf>,
    /// Campaign seed (`--seed <u64>`, decimal or `0x`-hex); `None` keeps
    /// the campaign's own. Every campaign records the seed it ran under in
    /// its artifact, so any row is reproducible from the record alone.
    pub seed: Option<u64>,
}

/// Parses a `--seed` value: decimal, or hex with an `0x`/`0X` prefix.
fn parse_seed(value: &str) -> Result<u64, String> {
    let v = value.trim();
    let parsed = match v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => v.parse(),
    };
    parsed.map_err(|_| format!("--seed must be a u64 (decimal or 0x-hex), got `{value}`"))
}

impl CampaignArgs {
    /// Whether the command line selects campaign `name`.
    pub fn selects(&self, name: &str) -> bool {
        self.names.is_empty() || self.names.iter().any(|n| n == name)
    }

    /// Where campaign `name`'s artifact goes: `None` is stdout (asked for,
    /// or a smoke sweep with no `--out`), otherwise the `--out` path or
    /// the committed artifact's.
    pub fn destination(&self, name: &str) -> Option<PathBuf> {
        if self.stdout || (self.smoke && self.out.is_none()) {
            return None;
        }
        Some(self.out.clone().unwrap_or_else(|| artifact_path(name)))
    }
}

/// Parses `campaign` arguments from an iterator (exposed for tests).
pub fn try_parse<I>(args: I) -> Result<CampaignArgs, String>
where
    I: IntoIterator<Item = String>,
{
    let mut out = CampaignArgs::default();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => out.smoke = true,
            "--stdout" => out.stdout = true,
            "--out" => match it.next() {
                Some(p) => out.out = Some(PathBuf::from(p)),
                None => return Err("--out requires a path".into()),
            },
            "--seed" => match it.next() {
                Some(v) => out.seed = Some(parse_seed(&v)?),
                None => return Err("--seed requires a value (e.g. --seed 0xC0FFEE)".into()),
            },
            name if CAMPAIGNS.iter().any(|(known, ..)| *known == name) => out.names.push(a),
            other => {
                let names: Vec<&str> = CAMPAIGNS.iter().map(|(name, ..)| *name).collect();
                return Err(format!(
                    "unknown argument `{other}` (valid campaigns: {}; valid flags: --smoke, \
                     --stdout, --out <path>, --seed <u64>)",
                    names.join(", ")
                ));
            }
        }
    }
    if out.out.is_some() && out.names.len() != 1 {
        return Err(format!(
            "--out takes one artifact, so it needs exactly one campaign name, got {}",
            out.names.len()
        ));
    }
    Ok(out)
}

/// Parses `std::env::args()`; on error prints usage to stderr and exits
/// with status 2.
pub fn parse_or_exit() -> CampaignArgs {
    match try_parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("campaign: {e}");
            eprintln!(
                "usage: campaign [name …] [--smoke] [--stdout] [--out <path>] [--seed <u64>]"
            );
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(v: &[&str]) -> Result<CampaignArgs, String> {
        try_parse(v.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_full_vocabulary() {
        let a = parse(&["mc", "--smoke", "--out", "x.json"]).unwrap();
        assert_eq!(a.names, ["mc"]);
        assert!(a.smoke);
        assert!(!a.stdout);
        assert_eq!(a.destination("mc"), Some("x.json".into()));
        assert!(a.selects("mc") && !a.selects("fabric"));
    }

    #[test]
    fn defaults_run_every_campaign_into_its_committed_artifact() {
        let a = parse(&[]).unwrap();
        assert_eq!(a, CampaignArgs::default());
        for (name, ..) in CAMPAIGNS {
            assert!(a.selects(name));
            let path = a.destination(name).expect("a file");
            assert!(path.ends_with(format!("BENCH_{name}.json")), "{path:?}");
        }
    }

    #[test]
    fn stdout_wins_over_paths_and_smoke_never_replaces_an_artifact() {
        let a = parse(&["fabric", "--stdout", "--out", "x.json"]).unwrap();
        assert_eq!(a.destination("fabric"), None);
        let a = parse(&["mc", "fabric", "--smoke"]).unwrap();
        assert_eq!((a.destination("mc"), a.destination("fabric")), (None, None));
    }

    #[test]
    fn out_needs_exactly_one_name() {
        let e = parse(&["--out", "x.json"]).unwrap_err();
        assert!(e.contains("exactly one campaign name, got 0"), "{e}");
        let e = parse(&["mc", "fabric", "--out", "x.json"]).unwrap_err();
        assert!(e.contains("exactly one campaign name, got 2"), "{e}");
        assert!(parse(&["mc", "--out"]).is_err(), "missing path");
    }

    #[test]
    fn parses_seed_in_decimal_and_hex() {
        assert_eq!(parse(&["--seed", "12345"]).unwrap().seed, Some(12345));
        assert_eq!(parse(&["--seed", "0xC0FFEE"]).unwrap().seed, Some(0xC0FFEE));
        assert_eq!(parse(&[]).unwrap().seed, None);
        let e = parse(&["--seed", "lucky"]).unwrap_err();
        assert!(e.contains("--seed") && e.contains("`lucky`"), "{e}");
        assert!(parse(&["--seed"]).is_err(), "missing value");
    }

    #[test]
    fn unknown_names_and_flags_list_the_valid_vocabulary() {
        // A misspelled `--smoke` or campaign must fail loudly (not silently
        // run the full sweep of all six) and say what would have worked.
        for wrong in ["--smok", "demuxx"] {
            let e = parse(&["mc", wrong]).unwrap_err();
            assert!(e.contains(wrong), "{e}");
            assert!(
                e.contains("--smoke") && e.contains("--stdout") && e.contains("--out"),
                "{e}"
            );
            for (name, ..) in CAMPAIGNS {
                assert!(e.contains(name), "{e}");
            }
        }
    }
}
