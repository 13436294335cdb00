//! Every workload at `--smoke` size, with all its checks, untraced and
//! traced; and the files the command writes, read back by an independent
//! JSON parser.

use pf_benchmark::json::{parse, Value};
use pf_benchmark::metrics::{END_TO_END, PER_LAYER};
use pf_benchmark::workloads::{self, Cfg, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

fn smoke(trace: bool) -> Cfg {
    Cfg {
        seed: 42,
        seconds: 0.2,
        trace,
        smoke: true,
    }
}

#[test]
fn every_workload_passes_its_checks_at_smoke_size_in_under_ten_seconds() {
    let started = Instant::now();
    for (name, _) in WORKLOADS {
        let r = workloads::run(name, &smoke(false)).expect("a known workload");
        assert_eq!(r.checks.failed, 0, "{name}: {:?}", r.checks.notes);
        assert!(r.checks.attempted > 0, "{name} checked nothing");
        assert_eq!(r.table.rows().len(), END_TO_END.len());
        for m in r.table.rows() {
            assert!(
                m.value > 0.0 && m.value.is_finite(),
                "{name} {} = {}",
                m.def_name,
                m.value
            );
        }
        assert!(r.reps >= 3, "{name}: {} reps", r.reps);
    }
    let took = started.elapsed().as_secs_f64();
    assert!(took < 10.0, "the smoke size took {took:.1} s");
}

#[test]
fn the_traced_run_reports_every_layer_and_the_bypass_counts_separate_them() {
    for (name, _) in WORKLOADS {
        let r = workloads::run(name, &smoke(true)).expect("a known workload");
        assert_eq!(r.checks.failed, 0, "{name}: {:?}", r.checks.notes);
        assert_eq!(r.table.rows().len(), PER_LAYER.len());
        let get = |metric| r.table.get(metric);
        assert_eq!(get("pf-filter.oracle_disagreements"), 0.0, "{name}");
        assert_eq!(
            get("pf-proto.forwards") > 0.0,
            name == "routed_fabric",
            "{name}: forwards only in the routed fabric"
        );
        assert_eq!(
            get("pf-kernel.shed_frac") > 0.0,
            name == "overload_flood",
            "{name}: shedding only under the flood"
        );
        let device_only = name.starts_with("demux_");
        assert_eq!(
            get("pf-sim.events") == 0.0,
            device_only,
            "{name}: no events without a World"
        );
        assert_eq!(
            get("pf-net.transmits") == 0.0,
            device_only || name == "overload_flood",
            "{name}"
        );
        assert!(
            get("pf-kernel.demux_ns_per_frame") > 0.0,
            "{name}: every workload demultiplexes"
        );
        assert!(get("pf-benchmark.trace_overhead_ratio") > 0.0, "{name}");
        let spans = r.spans.expect("a traced run has spans");
        let names: Vec<&str> = spans
            .get("spans")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .filter_map(|s| s.get("name")?.as_str())
            .collect();
        for phase in [name, "setup", "run", "run.traced", "verify", "layers"] {
            assert!(
                names.contains(&phase),
                "{name}: no {phase} span in {names:?}"
            );
        }
        assert!(
            names.iter().any(|n| n.starts_with("layers.pf-kernel")),
            "{name}: replays nest under layers"
        );
    }
}

#[test]
fn a_second_seed_changes_the_simulated_values_and_still_passes() {
    for (name, _) in WORKLOADS {
        let run = |seed| {
            workloads::run(
                name,
                &Cfg {
                    seed,
                    ..smoke(false)
                },
            )
            .unwrap()
        };
        let (a, again, b) = (run(1), run(1), run(2));
        assert_eq!(b.checks.failed, 0, "{name}: {:?}", b.checks.notes);
        let sim = |r: &workloads::Report| {
            (
                r.table.get("sim_us_per_frame").to_bits(),
                r.checks.attempted,
            )
        };
        assert_eq!(
            sim(&a),
            sim(&again),
            "{name}: one seed, one simulated history"
        );
        assert_ne!(
            a.table.get("sim_us_per_frame").to_bits(),
            b.table.get("sim_us_per_frame").to_bits(),
            "{name}: another seed, another history"
        );
    }
}

fn out_dir(test: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(test);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn bench(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_pf-benchmark"))
        .args(args)
        .output()
        .expect("the benchmark runs");
    (out.status.success(), String::from_utf8(out.stdout).unwrap())
}

/// Whether `python3 -m json.tool` accepts the file.
fn python_reads(path: &Path) -> bool {
    Command::new("python3")
        .args(["-m", "json.tool"])
        .arg(path)
        .output()
        .expect("python3 runs")
        .status
        .success()
}

#[test]
fn the_driver_form_ends_with_the_result_object_and_nothing_else() {
    let dir = out_dir("driver_form");
    for trace in ["0", "1"] {
        let (ok, stdout) = bench(&[
            "--workload",
            "overload_flood",
            "--seed",
            "9",
            "--seconds",
            "0.2",
            "--trace",
            trace,
            "--smoke",
            "--out",
            dir.to_str().unwrap(),
        ]);
        assert!(ok, "{stdout}");
        let last = parse(stdout.lines().last().unwrap()).expect("the last line is JSON");
        let keys: Vec<&str> = last
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(last.get("correct"), Some(&Value::Bool(true)));
        assert!(last.get("attempted").and_then(Value::as_u64).unwrap() >= 1);
        let metrics = last.get("metrics").and_then(Value::as_object).unwrap();
        let want: Vec<&str> = if trace == "1" { PER_LAYER } else { END_TO_END }
            .iter()
            .map(|d| d.name)
            .collect();
        assert_eq!(
            metrics.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>(),
            want
        );
        for (name, m) in metrics {
            let fields: Vec<&str> = m
                .as_object()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(fields, ["value", "unit"], "{name}");
        }
    }
    assert!(python_reads(&dir.join("trace_overload_flood.json")));
    let (ok, _) = bench(&["--workload", "no_such_workload", "--seed", "1"]);
    assert!(!ok, "an unknown workload is an error");
}

#[test]
fn the_full_command_writes_json_python_reads_and_two_runs_agree() {
    let (a, b) = (out_dir("full_a"), out_dir("full_b"));
    for dir in [&a, &b] {
        let (ok, stdout) = bench(&[
            "--seed",
            "5",
            "--seconds",
            "0.2",
            "--trace",
            "--smoke",
            "--out",
            dir.to_str().unwrap(),
        ]);
        assert!(ok, "{stdout}");
        assert!(python_reads(&dir.join("result.json")));
        for (name, _) in WORKLOADS {
            assert!(
                python_reads(&dir.join(format!("trace_{name}.json"))),
                "{name}"
            );
        }
    }
    let doc = parse(&std::fs::read_to_string(a.join("result.json")).unwrap()).unwrap();
    for key in ["seed", "commit", "nproc", "rustc", "workloads"] {
        assert!(doc.get(key).is_some(), "result.json has no {key}");
    }
    // Smoke sizes are far too small for steady wall numbers, so only the
    // exact rows are held: every simulated metric and count is identical.
    let (_, table) = bench(&[
        "--compare",
        a.join("result.json").to_str().unwrap(),
        b.join("result.json").to_str().unwrap(),
    ]);
    assert!(table.contains("identical"), "{table}");
    assert!(
        !table.contains("CHANGED") && !table.contains("MISSING"),
        "{table}"
    );
}
