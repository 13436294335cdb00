//! `--compare A.json B.json`: holds run B to run A, one row per
//! (workload, metric).
//!
//! Wall metrics: B is *within* when it is no worse than A by more than the
//! metric's bound and no better by more than it, else *better* or *worse*;
//! *unresolved* when the change exceeds the bound but either run's own
//! spread (quartile distance over median) is wider than the bound.
//! Per-layer wall metrics have no bound: they are judged against the same
//! 10% band for the reader and never fail the comparison. Simulated metrics
//! and counts must be bit-identical between two runs of one seed.

use crate::json::Value;
use crate::metrics::{lookup, Better, Clock};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Within,
    Better,
    Worse,
    Unresolved,
    /// Exact metric, identical.
    Identical,
    /// Exact metric, not identical: a behaviour change until explained.
    Changed,
    /// Present in one file only.
    Missing,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Within => "within",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
            Verdict::Identical => "identical",
            Verdict::Changed => "CHANGED",
            Verdict::Missing => "MISSING",
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub a: f64,
    pub b: f64,
    pub verdict: Verdict,
    /// Whether this row makes the comparison fail.
    pub fails: bool,
}

/// The band per-layer wall metrics are judged against.
const LAYER_BAND: f64 = 0.10;

/// Spread of one side as a share of its median, when the file recorded it.
fn spread(m: &Value) -> f64 {
    let q = |k| m.get(k).and_then(Value::as_f64);
    match (q("q1"), q("q3"), q("value")) {
        (Some(q1), Some(q3), Some(v)) if v != 0.0 => ((q3 - q1) / v).abs(),
        _ => 0.0,
    }
}

/// Judges one metric. `same_seed` says whether exact values can be held to
/// each other bit for bit.
pub fn judge(name: &str, a: &Value, b: &Value, same_seed: bool) -> (Verdict, bool) {
    let (Some(va), Some(vb)) = (
        a.get("value").and_then(Value::as_f64),
        b.get("value").and_then(Value::as_f64),
    ) else {
        return (Verdict::Missing, true);
    };
    let Some(def) = lookup(name) else {
        return (Verdict::Missing, true);
    };
    if def.clock == Clock::Exact && same_seed {
        let same = va.to_bits() == vb.to_bits();
        return (
            if same {
                Verdict::Identical
            } else {
                Verdict::Changed
            },
            !same,
        );
    }
    let (band, gates) = if def.bound > 0.0 {
        (def.bound, true)
    } else {
        (LAYER_BAND, false)
    };
    // Positive when B is worse than A, as a share of A.
    let worse_by = match def.better {
        Better::Lower => (vb - va) / va.abs().max(f64::MIN_POSITIVE),
        Better::Higher => (va - vb) / va.abs().max(f64::MIN_POSITIVE),
    };
    let verdict = if worse_by.abs() <= band || va == vb {
        Verdict::Within
    } else if spread(a) > band || spread(b) > band {
        Verdict::Unresolved
    } else if worse_by > 0.0 {
        Verdict::Worse
    } else {
        Verdict::Better
    };
    (verdict, gates && verdict == Verdict::Worse)
}

/// Compares two `result.json` documents.
pub fn compare(a: &Value, b: &Value) -> Vec<Row> {
    let same_seed = a.get("seed") == b.get("seed");
    let workloads = a.get("workloads").and_then(Value::as_object).unwrap_or(&[]);
    let mut rows = Vec::new();
    for (workload, wa) in workloads {
        let wb = b.get("workloads").and_then(|w| w.get(workload));
        for group in ["counts", "end_to_end", "per_layer"] {
            let Some(ma) = wa.get(group).and_then(Value::as_object) else {
                continue;
            };
            for (metric, va) in ma {
                let vb = wb.and_then(|w| w.get(group)).and_then(|g| g.get(metric));
                let (verdict, fails) = match vb {
                    Some(vb) if group == "counts" => {
                        let same = !same_seed || va == vb;
                        (
                            if same {
                                Verdict::Identical
                            } else {
                                Verdict::Changed
                            },
                            !same,
                        )
                    }
                    Some(vb) => judge(metric, va, vb, same_seed),
                    None => (Verdict::Missing, true),
                };
                let num = |v: Option<&Value>| {
                    v.and_then(|v| v.get("value").or(Some(v)))
                        .and_then(Value::as_f64)
                        .unwrap_or(f64::NAN)
                };
                rows.push(Row {
                    workload: workload.clone(),
                    metric: metric.clone(),
                    a: num(Some(va)),
                    b: num(vb),
                    verdict,
                    fails,
                });
            }
        }
    }
    rows
}

/// Prints the comparison of the two files; returns whether B holds up.
///
/// # Errors
///
/// Returns what is wrong with a file that cannot be read or parsed.
pub fn run(path_a: &str, path_b: &str) -> Result<bool, String> {
    let load = |p: &str| -> Result<Value, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        crate::json::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    let (a, b) = (load(path_a)?, load(path_b)?);
    if a.get("seed") != b.get("seed") {
        println!("# seeds differ: simulated metrics and counts are judged by their bounds, not bit for bit");
    }
    let rows = compare(&a, &b);
    println!(
        "{:<18} {:<42} {:>16} {:>16} {:>8}  verdict",
        "workload", "metric", "A", "B", "B/A"
    );
    for r in &rows {
        println!(
            "{:<18} {:<42} {:>16.4} {:>16.4} {:>8.3}  {}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.b / r.a,
            r.verdict.as_str()
        );
    }
    let failing = rows.iter().filter(|r| r.fails).count();
    println!("# {} rows, {} failing", rows.len(), failing);
    Ok(failing == 0 && !rows.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(value: f64, q1: f64, q3: f64) -> Value {
        Value::object([
            ("value", Value::Num(value)),
            ("q1", Value::Num(q1)),
            ("q3", Value::Num(q3)),
        ])
    }

    /// A measurement `shift` bounds of `metric` away from 1000, with a
    /// spread of `spread` bounds.
    fn off_by(metric: &str, shift: f64, spread: f64) -> Value {
        let bound = lookup(metric).unwrap().bound;
        let v = 1000.0 * (1.0 + shift * bound);
        m(
            v,
            v * (1.0 - spread * bound / 2.0),
            v * (1.0 + spread * bound / 2.0),
        )
    }

    #[test]
    fn wall_metrics_are_judged_against_their_bound_and_direction() {
        let verdict = |metric: &str, shift: f64, spread: f64| {
            judge(
                metric,
                &off_by(metric, 0.0, 0.1),
                &off_by(metric, shift, spread),
                true,
            )
        };
        // Higher is better for throughput.
        assert_eq!(verdict("frames_per_s", -0.5, 0.1), (Verdict::Within, false));
        assert_eq!(verdict("frames_per_s", 0.5, 0.1), (Verdict::Within, false));
        assert_eq!(verdict("frames_per_s", -1.5, 0.1), (Verdict::Worse, true));
        assert_eq!(verdict("frames_per_s", 1.5, 0.1), (Verdict::Better, false));
        assert_eq!(
            verdict("frames_per_s", -1.5, 1.5),
            (Verdict::Unresolved, false)
        );
        // Lower is better for set-up time and memory.
        for metric in ["setup_s", "peak_rss_mb"] {
            assert_eq!(
                verdict(metric, 0.9, 0.1),
                (Verdict::Within, false),
                "{metric}"
            );
            assert_eq!(
                verdict(metric, 1.5, 0.1),
                (Verdict::Worse, true),
                "{metric}"
            );
            assert_eq!(
                verdict(metric, -1.5, 0.1),
                (Verdict::Better, false),
                "{metric}"
            );
        }
    }

    #[test]
    fn per_layer_wall_metrics_never_fail_and_exact_ones_must_be_identical() {
        let (a, b) = (m(100.0, 99.0, 101.0), m(150.0, 149.0, 151.0));
        assert_eq!(
            judge("pf-sim.queue_ns_per_op", &a, &b, true),
            (Verdict::Worse, false)
        );
        let count = |v: f64| Value::object([("value", Value::Num(v))]);
        assert_eq!(
            judge("pf-sim.events", &count(7.0), &count(7.0), true),
            (Verdict::Identical, false)
        );
        assert_eq!(
            judge("pf-sim.events", &count(7.0), &count(8.0), true),
            (Verdict::Changed, true)
        );
        assert_eq!(
            judge("sim_us_per_frame", &count(7.0), &count(7.000001), true),
            (Verdict::Changed, true)
        );
        // Another seed: the bound applies instead.
        assert_eq!(
            judge("sim_us_per_frame", &count(7.0), &count(7.1), false),
            (Verdict::Within, false)
        );
        assert_eq!(
            judge("no.such.metric", &count(1.0), &count(1.0), true),
            (Verdict::Missing, true)
        );
    }

    #[test]
    fn documents_compare_row_by_row_and_missing_metrics_fail() {
        let doc = |fps: f64, events: u64, extra: bool| {
            let mut layer = vec![(
                "pf-sim.events",
                Value::object([("value", Value::Num(events as f64))]),
            )];
            if extra {
                layer.push((
                    "pf-proto.forwards",
                    Value::object([("value", Value::Num(0.0))]),
                ));
            }
            Value::object([
                ("seed", Value::Int(1)),
                (
                    "workloads",
                    Value::object([(
                        "demux_exact",
                        Value::object([
                            ("counts", Value::object([("ops_failed", Value::Int(0))])),
                            (
                                "end_to_end",
                                Value::object([("frames_per_s", m(fps, fps, fps))]),
                            ),
                            ("per_layer", Value::object(layer)),
                        ]),
                    )]),
                ),
            ])
        };
        let rows = compare(&doc(100.0, 5, true), &doc(101.0, 5, true));
        assert_eq!(rows.len(), 4);
        assert!(rows.iter().all(|r| !r.fails), "{rows:?}");
        let rows = compare(&doc(100.0, 5, true), &doc(50.0, 6, false));
        let failing: Vec<&str> = rows
            .iter()
            .filter(|r| r.fails)
            .map(|r| r.metric.as_str())
            .collect();
        assert_eq!(
            failing,
            ["frames_per_s", "pf-sim.events", "pf-proto.forwards"]
        );
    }
}
