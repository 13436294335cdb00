//! The command line: one workload (what the benchmark driver runs), every
//! workload (one process each, so that `peak_rss_mb` is per workload), or a
//! comparison of two earlier results.

use crate::json::Value;
use crate::workloads::{self, Cfg, Report, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::Command;

const USAGE: &str = "\
usage: pf-benchmark --seed <u64> [--workload <name>] [--seconds <n>] [--trace [0|1]] [--out <dir>] [--smoke]
       pf-benchmark --compare <A.json> <B.json>

With --workload, runs that workload once: untraced it prints the end-to-end
metrics, with --trace 1 the per-layer metrics and writes trace_<name>.json.
Without, runs every workload in a process of its own (untraced, then traced
if --trace is given) and writes result.json. Files go to --out (default
bench/out).";

/// Seconds one run measures for, unless told otherwise: `run_seconds` of
/// `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 15.0;

#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: Option<String>,
    pub cfg: Cfg,
    pub out: PathBuf,
    pub compare: Option<(String, String)>,
}

/// Parses the arguments after the program name.
///
/// # Errors
///
/// Returns what is wrong with them.
pub fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        cfg: Cfg {
            seed: 0x5EED,
            seconds: DEFAULT_SECONDS,
            trace: false,
            smoke: false,
        },
        out: Path::new(env!("CARGO_MANIFEST_DIR")).join("out"),
        compare: None,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs {what}"))
        };
        match arg.as_str() {
            "--workload" => out.workload = Some(value("a workload name")?),
            "--seed" => {
                out.cfg.seed = value("a u64")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                out.cfg.seconds = value("a number of seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(out.cfg.seconds > 0.0 && out.cfg.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--out" => out.out = PathBuf::from(value("a directory")?),
            "--smoke" => out.cfg.smoke = true,
            "--compare" => out.compare = Some((value("two files")?, value("two files")?)),
            // `--trace` alone switches tracing on; the driver writes 0 or 1.
            "--trace" => {
                out.cfg.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--help" | "-h" => return Err(USAGE.into()),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    Ok(out)
}

fn metrics_json(report: &Report, detail: bool) -> Value {
    Value::object(report.table.rows().iter().map(|m| {
        let v = if detail {
            m.to_json()
        } else {
            Value::object([
                ("value", Value::Num(m.value)),
                ("unit", Value::from(m.def().unit)),
            ])
        };
        (m.def_name, v)
    }))
}

/// The object a run ends its output with: exactly `correct`, `attempted`,
/// `failed` and `metrics`. With `detail`, wall metrics keep their quartiles.
pub fn result_json(report: &Report, detail: bool) -> Value {
    Value::object([
        ("correct", Value::Bool(report.checks.failed == 0)),
        ("attempted", Value::Int(report.checks.attempted.max(1))),
        ("failed", Value::Int(report.checks.failed)),
        ("metrics", metrics_json(report, detail)),
    ])
}

/// The line before the last carries the same result with quartiles, for the
/// all-workloads mode to collect.
const DETAIL_PREFIX: &str = "#detail ";

/// Runs one workload in this process and prints its result.
fn run_one(name: &str, args: &Args) -> Result<bool, String> {
    let report = workloads::run(name, &args.cfg)?;
    if let Some(spans) = &report.spans {
        std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
        let path = args.out.join(format!("trace_{name}.json"));
        std::fs::write(&path, spans.to_pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("# spans written to {}", path.display());
    }
    for m in report.table.rows() {
        println!("{name} {} {} {}", m.def_name, m.value, m.def().unit);
    }
    println!(
        "# {name}: {} untraced reps, {:.3} s each when undisturbed",
        report.reps, report.rep_wall_s
    );
    println!("{name} ops_attempted {} count", report.checks.attempted);
    println!("{name} ops_failed {} count", report.checks.failed);
    for note in &report.checks.notes {
        println!("# FAILED {note}");
    }
    println!("{DETAIL_PREFIX}{}", result_json(&report, true).to_line());
    println!("{}", result_json(&report, false).to_line());
    Ok(report.checks.failed == 0)
}

/// First line of a command's output, or "unknown".
fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// Runs `name` in a child process; returns its detailed result.
fn run_child(name: &str, args: &Args, trace: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name, "--seed", &args.cfg.seed.to_string()])
        .args([
            "--seconds",
            &args.cfg.seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .arg("--out")
        .arg(&args.out);
    if args.cfg.smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child to end.
    let output = cmd.output().map_err(|e| format!("{name}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    let detail = stdout
        .lines()
        .rev()
        .find_map(|l| l.strip_prefix(DETAIL_PREFIX))
        .ok_or_else(|| format!("{name}: no result (exit {:?})", output.status.code()))?;
    crate::json::parse(detail).map_err(|e| format!("{name}: {e}"))
}

/// Runs every workload, each in a process of its own, and writes
/// `result.json`.
fn run_all(args: &Args) -> Result<bool, String> {
    let mut all_correct = true;
    let mut per_workload = Vec::new();
    for (name, _) in WORKLOADS {
        let untraced = run_child(name, args, false)?;
        let correct = |v: &Value| v.get("correct").and_then(Value::as_bool) == Some(true);
        let mut ok = correct(&untraced);
        let mut fields = vec![
            (
                "counts",
                Value::object([
                    (
                        "ops_attempted",
                        untraced.get("attempted").cloned().unwrap_or(Value::Null),
                    ),
                    (
                        "ops_failed",
                        untraced.get("failed").cloned().unwrap_or(Value::Null),
                    ),
                ]),
            ),
            (
                "end_to_end",
                untraced.get("metrics").cloned().unwrap_or(Value::Null),
            ),
        ];
        if args.cfg.trace {
            let traced = run_child(name, args, true)?;
            ok &= correct(&traced);
            fields.push((
                "per_layer",
                traced.get("metrics").cloned().unwrap_or(Value::Null),
            ));
        }
        fields.insert(0, ("correct", Value::Bool(ok)));
        all_correct &= ok;
        per_workload.push((name, Value::object(fields)));
    }
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    let doc = Value::object([
        ("seed", Value::Int(args.cfg.seed)),
        ("seconds", Value::Num(args.cfg.seconds)),
        ("smoke", Value::Bool(args.cfg.smoke)),
        (
            "commit",
            Value::from(first_line_of("git", &["rev-parse", "HEAD"]).as_str()),
        ),
        ("nproc", Value::Int(nproc)),
        (
            "rustc",
            Value::from(first_line_of("rustc", &["--version"]).as_str()),
        ),
        ("workloads", Value::object(per_workload)),
    ]);
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let path = args.out.join("result.json");
    std::fs::write(&path, doc.to_pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("# result written to {}", path.display());
    Ok(all_correct)
}

/// Runs the command line; returns the process exit code.
pub fn main(args: &[String]) -> i32 {
    let outcome = parse_args(args).and_then(|a| match (&a.compare, &a.workload) {
        (Some((x, y)), _) => crate::compare::run(x, y),
        (None, Some(name)) => run_one(name, &a),
        (None, None) => run_all(&a),
    });
    match outcome {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(msg) => {
            eprintln!("{msg}");
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_driver_form_and_the_issue_form_both_parse() {
        let a = parse(&[
            "--workload",
            "demux_exact",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "0",
        ])
        .unwrap();
        assert_eq!(
            (
                a.workload.as_deref(),
                a.cfg.seed,
                a.cfg.seconds,
                a.cfg.trace
            ),
            (Some("demux_exact"), 7, 10.0, false)
        );
        assert!(
            parse(&["--seed", "7", "--trace", "1", "--workload", "x"])
                .unwrap()
                .cfg
                .trace
        );
        let b = parse(&[
            "--seed",
            "18446744073709551615",
            "--trace",
            "--out",
            "/tmp/x",
            "--smoke",
        ])
        .unwrap();
        assert_eq!(
            (b.cfg.seed, b.cfg.trace, b.cfg.smoke, b.workload),
            (u64::MAX, true, true, None)
        );
        assert_eq!(b.out, PathBuf::from("/tmp/x"));
        let c = parse(&["--compare", "a.json", "b.json"]).unwrap();
        assert_eq!(c.compare, Some(("a.json".into(), "b.json".into())));
    }

    #[test]
    fn bad_arguments_are_refused() {
        for bad in [
            &["--seed"][..],
            &["--seed", "-1"],
            &["--seconds", "0"],
            &["--frobnicate"],
            &["--compare", "only-one"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }
}
