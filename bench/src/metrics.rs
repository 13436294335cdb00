//! Every metric the benchmark reports, defined once: `BENCHMARK.json`, the
//! README glossary, the result line and `--compare` all follow this table
//! (a test holds `BENCHMARK.json` to it).

use crate::json::Value;
use crate::stats::Summary;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// Which clock a metric reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Host time or host memory: noisy, reported as a median, compared
    /// within a bound.
    Wall,
    /// Simulated time, or a count: the same seed gives the same value bit
    /// for bit, so two runs of one commit compare exactly.
    Exact,
}

#[derive(Debug, Clone, Copy)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub clock: Clock,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only; 0 for per-layer metrics, which have none).
    pub bound: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    clock: Clock,
    bound: f64,
) -> Def {
    Def {
        name,
        unit,
        better,
        clock,
        bound,
    }
}

const fn wall(name: &'static str, unit: &'static str, better: Better) -> Def {
    e2e(name, unit, better, Clock::Wall, 0.0)
}

const fn exact(name: &'static str, unit: &'static str, better: Better) -> Def {
    e2e(name, unit, better, Clock::Exact, 0.0)
}

use Better::{Higher, Lower};

/// What a user of the simulator sees. The simulated pair is exact for one
/// seed; its bound only has to absorb the driver's seed-to-seed spread.
pub const END_TO_END: &[Def] = &[
    e2e("setup_s", "s", Lower, Clock::Wall, 0.25),
    e2e("frames_per_s", "frames/s", Higher, Clock::Wall, 0.25),
    e2e("peak_rss_mb", "MB", Lower, Clock::Wall, 0.25),
    e2e("sim_us_per_frame", "sim_us", Lower, Clock::Exact, 0.05),
    e2e("sim_delivered_frac", "ratio", Higher, Clock::Exact, 0.05),
];

/// One layer each; the prefix is the crate the layer lives in.
pub const PER_LAYER: &[Def] = &[
    exact("pf-sim.events", "count", Lower),
    wall("pf-sim.queue_ns_per_op", "ns", Lower),
    exact("pf-sim.charges", "count", Lower),
    wall("pf-sim.charge_ns_per_call", "ns", Lower),
    exact("pf-net.transmits", "count", Lower),
    wall("pf-net.transmit_ns_per_call", "ns", Lower),
    exact("pf-net.deliveries_per_transmit", "ratio", Lower),
    exact("pf-net.bytes_copied_per_transmit", "bytes", Lower),
    wall("pf-net.parse_ns_per_frame", "ns", Lower),
    exact("pf-proto.forwards", "count", Lower),
    wall("pf-proto.forward_ns_per_call", "ns", Lower),
    wall("pf-proto.bsp_ns_per_pup", "ns", Lower),
    exact("pf-proto.retransmits", "count", Lower),
    wall("pf-kernel.step_ns_p50", "ns", Lower),
    wall("pf-kernel.step_ns_p99", "ns", Lower),
    wall("pf-kernel.demux_ns_per_frame", "ns", Lower),
    wall("pf-kernel.demux_ns_per_frame.sequential", "ns", Lower),
    wall("pf-kernel.demux_ns_per_frame.dtree", "ns", Lower),
    wall("pf-kernel.device_overhead_ns", "ns", Lower),
    wall("pf-kernel.bind_us_per_op", "us", Lower),
    wall("pf-kernel.close_us_per_op", "us", Lower),
    wall("pf-kernel.enqueue_ns_per_frame", "ns", Lower),
    wall("pf-kernel.admit_ns_per_frame", "ns", Lower),
    exact("pf-kernel.shed_frac", "ratio", Lower),
    exact("pf-kernel.drops.interface", "count", Lower),
    exact("pf-kernel.drops.admission", "count", Lower),
    exact("pf-kernel.drops.queue_full", "count", Lower),
    exact("pf-kernel.drops.no_match", "count", Lower),
    exact("pf-kernel.sim_us_per_frame.driver", "sim_us", Lower),
    exact("pf-kernel.sim_us_per_frame.pf", "sim_us", Lower),
    exact("pf-kernel.sim_us_per_frame.kern", "sim_us", Lower),
    exact("pf-kernel.sim_us_per_frame.user", "sim_us", Lower),
    exact("pf-kernel.sim_us_per_frame.ip", "sim_us", Lower),
    wall("pf-kernel.world_residual_frac", "ratio", Lower),
    wall("pf-ir.geom_match_ns_per_frame", "ns", Lower),
    exact("pf-ir.geom_candidates_per_frame", "ratio", Lower),
    wall("pf-ir.geom_insert_us_per_op", "us", Lower),
    wall("pf-ir.geom_remove_us_per_op", "us", Lower),
    exact("pf-ir.ops_per_frame", "count", Lower),
    wall("pf-filter.checked_ns_per_eval", "ns", Lower),
    exact("pf-filter.instructions_per_frame", "count", Lower),
    exact("pf-filter.oracle_disagreements", "count", Lower),
    wall("pf-monitor.decode_ns_per_frame", "ns", Lower),
    exact("pf-monitor.captured", "count", Higher),
    exact("pf-monitor.overflowed", "count", Lower),
    wall("pf-bench.flowgen_ns_per_packet", "ns", Lower),
    wall("pf-benchmark.trace_overhead_ratio", "ratio", Higher),
];

pub fn lookup(name: &str) -> Option<&'static Def> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// One measured value. Wall metrics carry the quartiles of the reps behind
/// their median, so `--compare` can tell a change from the noise.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub def_name: &'static str,
    pub value: f64,
    pub spread: Option<Summary>,
}

impl Metric {
    pub fn def(&self) -> &'static Def {
        lookup(self.def_name).expect("metrics are built from the table")
    }

    /// The `{"value": .., "unit": ..}` object of the result line.
    pub fn to_json(&self) -> Value {
        let mut fields = vec![
            ("value", Value::Num(self.value)),
            ("unit", Value::from(self.def().unit)),
        ];
        if let Some(s) = self.spread {
            fields.push(("median", Value::Num(s.median)));
            fields.push(("q1", Value::Num(s.q1)));
            fields.push(("q3", Value::Num(s.q3)));
            fields.push(("n", Value::Int(s.n as u64)));
        }
        Value::object(fields)
    }
}

/// The metrics of one run, in table order. Every name of the table is
/// present from the start: a layer the workload bypasses reads 0.
#[derive(Debug, Clone)]
pub struct Table {
    rows: Vec<Metric>,
}

impl Table {
    pub fn new(defs: &'static [Def]) -> Self {
        Table {
            rows: defs
                .iter()
                .map(|d| Metric {
                    def_name: d.name,
                    value: 0.0,
                    spread: None,
                })
                .collect(),
        }
    }

    fn row(&mut self, name: &str) -> &mut Metric {
        self.rows
            .iter_mut()
            .find(|m| m.def_name == name)
            .unwrap_or_else(|| panic!("metric {name} is not in this table"))
    }

    pub fn set(&mut self, name: &str, value: f64) {
        self.row(name).value = value;
    }

    /// A wall metric read off the summary of `samples` by `pick`; the summary
    /// is kept.
    pub fn set_summary(
        &mut self,
        name: &str,
        samples: &mut [f64],
        pick: impl Fn(&crate::stats::Summary) -> f64,
    ) {
        let s = crate::stats::summarize(samples);
        let row = self.row(name);
        row.value = pick(&s);
        row.spread = Some(s);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.rows
            .iter()
            .find(|m| m.def_name == name)
            .unwrap_or_else(|| panic!("metric {name} is not in this table"))
            .value
    }

    pub fn rows(&self) -> &[Metric] {
        &self.rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_units_fit_the_benchmark_contract() {
        let ok = |s: &str, extra: &str, max: usize| {
            !s.is_empty()
                && s.len() <= max
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        let mut seen = std::collections::HashSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                ok(d.name, "_.-", 64) && d.name.starts_with(|c: char| c.is_ascii_alphanumeric()),
                "{}",
                d.name
            );
            assert!(ok(d.unit, "_/%.-", 16), "{} unit {}", d.name, d.unit);
            assert!(seen.insert(d.name), "{} is defined twice", d.name);
        }
        assert!(END_TO_END.iter().all(|d| d.bound > 0.0 && d.bound <= 0.25));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        let setup = lookup("setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(
            END_TO_END.iter().all(|d| d.bound <= setup.bound),
            "setup_s has the largest bound"
        );
    }

    #[test]
    fn a_table_starts_complete_and_rejects_unknown_names() {
        let mut t = Table::new(PER_LAYER);
        assert_eq!(t.rows().len(), PER_LAYER.len());
        t.set("pf-sim.events", 5.0);
        t.set_summary("pf-sim.queue_ns_per_op", &mut [3.0, 1.0, 2.0], |s| s.median);
        assert_eq!(t.get("pf-sim.events"), 5.0);
        assert_eq!(t.get("pf-sim.queue_ns_per_op"), 2.0);
        assert_eq!(t.get("pf-proto.forwards"), 0.0);
        assert!(std::panic::catch_unwind(move || t.set("no.such.metric", 1.0)).is_err());
    }
}
