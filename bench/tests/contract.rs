//! Holds `BENCHMARK.json` at the repository root to the tables in the code
//! and to the limits the benchmark contract sets.

use pf_benchmark::json::{parse, Value};
use pf_benchmark::metrics::{END_TO_END, PER_LAYER};
use pf_benchmark::workloads::WORKLOADS;

fn expected() -> Value {
    let strings = |items: &[&str]| Value::Array(items.iter().map(|&s| Value::from(s)).collect());
    let metric = |d: &pf_benchmark::metrics::Def, bounded: bool| {
        let mut fields = vec![
            ("name", Value::from(d.name)),
            ("unit", Value::from(d.unit)),
            ("better", Value::from(d.better.as_str())),
        ];
        if bounded {
            fields.push(("bound", Value::Num(d.bound)));
        }
        Value::object(fields)
    };
    Value::object([
        (
            "command",
            strings(&[
                "cargo",
                "run",
                "--release",
                "--offline",
                "--quiet",
                "--manifest-path",
                "bench/Cargo.toml",
                "--",
            ]),
        ),
        ("paths", strings(&["bench"])),
        (
            "run_seconds",
            Value::Int(pf_benchmark::cli::DEFAULT_SECONDS as u64),
        ),
        (
            "workloads",
            Value::Array(
                WORKLOADS
                    .iter()
                    .map(|&(name, why)| {
                        Value::object([("name", Value::from(name)), ("why", Value::from(why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Array(END_TO_END.iter().map(|d| metric(d, true)).collect()),
        ),
        (
            "per_layer",
            Value::Array(PER_LAYER.iter().map(|d| metric(d, false)).collect()),
        ),
    ])
}

#[test]
fn benchmark_json_follows_the_tables() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let got = parse(&text).expect("BENCHMARK.json parses");
    let want = expected();
    assert!(
        got == want,
        "BENCHMARK.json is out of date; it should read:\n{}",
        want.to_pretty()
    );
    assert!(text.len() <= 64 * 1024, "at most 64 KiB");
}

#[test]
fn workloads_fit_the_contract_limits() {
    assert!((2..=8).contains(&WORKLOADS.len()));
    let mut names = std::collections::HashSet::new();
    for (name, why) in WORKLOADS {
        assert!(names.insert(name), "{name} is used twice");
        assert!(
            name.len() <= 64
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "{name}"
        );
        assert!(
            why.len() <= 200 && !why.contains('\n'),
            "{name}: why has {} characters",
            why.len()
        );
    }
    assert!(
        END_TO_END
            .iter()
            .chain(PER_LAYER)
            .all(|d| names.insert(d.name)),
        "a metric shares a workload's name"
    );
}
