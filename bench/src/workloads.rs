//! The five workloads and the harness that measures them.
//!
//! A run repeats a fixed amount of work until `--seconds` of wall time have
//! gone by. On a shared two-core box reps are disturbed from outside, always
//! towards slower, so throughput is read off the fast decile of the reps and
//! set-up time off the median of the set-ups. Simulated values and counts
//! are the same on every rep of one seed, and the harness fails the run if
//! they are not.

pub mod demux;
pub mod fabric;
pub mod flood;
pub mod lan;

use crate::metrics::{Table, END_TO_END, PER_LAYER};
use crate::stats::Log2Hist;
use crate::sut::{DeviceLayers, FilterSpec, Replayer, Wire, WorldCounts, SIM_PREFIXES};
use crate::trace::Tracer;
use std::time::{Duration, Instant};

/// Name and one-line reason of each workload, in the order they run. The
/// reasons are `BENCHMARK.json`'s `why` lines.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "lan_paper",
        "closed loop in the paper's own environment: protocol machines, port read/wakeup/copyout and Cpu::charge do the work; queue, router and bulk engines idle",
    ),
    (
        "routed_fabric",
        "open loop over a 256-node routed ring: the event queue with every send pending, transmit/fan-out copies and IpRouter::forward do the work; engines and protocols idle",
    ),
    (
        "demux_exact",
        "bare PfDevice under Geom, 512 exact filters, no binds while timed: the paper's central per-packet cost at a population where the engine matters",
    ),
    (
        "demux_range_churn",
        "same layer with range filters and a close/open/bind every 8,192 frames: a lookup gain that makes insert dearer loses here; an incremental-bind gain shows only here",
    ),
    (
        "overload_flood",
        "open loop at 8x capacity under full armor: the only workload where most frames leave the fast path and drops are expected; goodput guards against shedding wanted frames",
    ),
];

/// What one invocation was asked to do.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cfg {
    pub seed: u64,
    /// Wall seconds the measuring loop (set-ups and timed reps) lasts.
    pub seconds: f64,
    /// Report the per-layer metrics from a traced run instead of the
    /// end-to-end metrics from an untraced one.
    pub trace: bool,
    /// Tiny sizes: every code path and check in a few seconds of a debug
    /// build. The numbers mean nothing.
    pub smoke: bool,
}

/// Correctness checks of a run: what was attempted, what failed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the reader.
    pub notes: Vec<String>,
}

impl Checks {
    /// `n` operations attempted of which `bad` failed the check `what`.
    pub fn count(&mut self, n: u64, bad: u64, what: impl FnOnce() -> String) {
        self.attempted += n;
        self.failed += bad;
        if bad > 0 && self.notes.len() < 8 {
            self.notes.push(format!("{bad} of {n}: {}", what()));
        }
    }

    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.count(1, u64::from(!ok), what);
    }

    pub fn expect_eq(&mut self, got: u64, want: u64, what: &str) {
        self.expect(got == want, || format!("{what}: got {got}, want {want}"));
    }
}

/// What one rep established beyond its wall time. Everything here repeats
/// exactly from rep to rep.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Exact {
    /// Frames of the timed region: received by any station, or passed to
    /// `demux` for a bare device.
    pub frames: u64,
    /// `SimClock::step` calls that did work.
    pub events: u64,
    /// Frames delivered where delivery was expected, and how many were
    /// expected.
    pub delivered: u64,
    pub expected: u64,
    pub counts: WorldCounts,
    /// What the rep decided, folded to a number (frames accepted, bytes
    /// delivered): a second rep that decides otherwise fails the run.
    pub digest: u64,
    /// Exact per-layer values the workload sets by name.
    pub layer: Vec<(&'static str, f64)>,
}

impl Exact {
    fn sim_us_per_frame(&self, sim_frames: u64) -> f64 {
        self.counts.busy_ns as f64 / 1e3 / sim_frames.max(1) as f64
    }
}

/// One workload: a system it can build, run once (World workloads) or many
/// times (device workloads), check, and take apart layer by layer.
pub trait Workload {
    type Sys;

    fn name(&self) -> &'static str;

    /// Whether the system is spent by one run, as a World is, and must be
    /// built again for every rep. A device runs rep after rep; it is built
    /// [`DEVICE_BUILDS`] times for the sake of `setup_s`.
    fn runs_once(&self) -> bool;

    /// Builds inputs and system: everything before the first timed call.
    fn setup(&self, tr: &mut Tracer) -> Self::Sys;

    /// The timed region. Returns the `SimClock::step` calls that did work
    /// (0 without a World); with `calls`, takes a timestamp per call into
    /// the system.
    fn run(&self, sys: &mut Self::Sys, calls: Option<&mut Log2Hist>) -> u64;

    /// Checks the rep and states what it established.
    fn settle(&self, sys: &Self::Sys, events: u64, checks: &mut Checks) -> Exact;

    /// Work after the last rep that the end-to-end metrics need: device
    /// workloads verify against the oracle and make their simulated pass.
    /// Returns the frames the simulated numbers are per.
    fn finish(
        &self,
        _sys: &mut Self::Sys,
        exact: &mut Exact,
        _checks: &mut Checks,
        _tr: &mut Tracer,
    ) -> u64 {
        exact.frames
    }

    /// The layer replays of the traced run. `rep_wall_s` is the wall time of
    /// an undisturbed untraced rep, for the residual.
    fn layers(
        &self,
        sys: &mut Self::Sys,
        exact: &Exact,
        rep_wall_s: f64,
        replayer: &Replayer,
        tr: &mut Tracer,
        t: &mut Table,
    );
}

/// The result of one run.
#[derive(Debug, Clone)]
pub struct Report {
    pub checks: Checks,
    /// The end-to-end table (untraced) or the per-layer table (traced).
    pub table: Table,
    /// The span file's content, when traced.
    pub spans: Option<crate::json::Value>,
    /// Untraced-rep count and the wall time of an undisturbed one, for the
    /// reader.
    pub reps: usize,
    pub rep_wall_s: f64,
}

/// `VmHWM` of this process in MB: the most resident memory it ever held.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Set-ups of a system that could run every rep, so that `setup_s` is a
/// median of several. The traced run reports no set-up time and builds once.
const DEVICE_BUILDS: usize = 3;

/// The traced run spends this share of `--seconds` on reps (alternately
/// untraced and traced) and the rest on layer replays.
const TRACED_REP_SHARE: f64 = 0.4;
/// Layer replays in a traced run, at most (some workloads skip a few).
const REPLAYS: f64 = 16.0;

/// Measures `w` as `cfg` asks.
pub fn drive<W: Workload>(w: &W, cfg: &Cfg) -> Report {
    let mut tr = Tracer::new(cfg.trace);
    let root = tr.begin(w.name());
    let mut checks = Checks::default();
    let (mut setup_s, mut rates, mut traced_rates, mut walls) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut steps = Log2Hist::default();
    let mut first: Option<Exact> = None;
    let mut sys: Option<W::Sys> = None;
    let (min_reps, measure_for) = if cfg.trace {
        (4, cfg.seconds * TRACED_REP_SHARE)
    } else {
        (3, cfg.seconds)
    };
    let started = Instant::now();
    let mut rep = 0;
    while rep < min_reps || started.elapsed().as_secs_f64() < measure_for {
        if sys.is_none() || w.runs_once() || (!cfg.trace && rep < DEVICE_BUILDS) {
            // Free the old system first, so the peak is one system's.
            drop(sys.take());
            let t = Instant::now();
            sys = Some(tr.scope("setup", |tr| w.setup(tr)));
            setup_s.push(t.elapsed().as_secs_f64());
        }
        let s = sys.as_mut().expect("just built");
        let traced_rep = cfg.trace && rep % 2 == 1;
        let span = tr.begin(if traced_rep { "run.traced" } else { "run" });
        let t = Instant::now();
        let events = w.run(s, traced_rep.then_some(&mut steps));
        let wall = t.elapsed().as_secs_f64();
        tr.end(span);
        // Every rep runs the same checks; only the first one's count as
        // attempted, so that `attempted` does not depend on how many reps
        // fitted the run. Failures count from every rep.
        let mut rep_checks = Checks::default();
        let exact = tr.scope("verify", |_| w.settle(s, events, &mut rep_checks));
        if rep == 0 {
            checks.attempted += rep_checks.attempted;
        }
        checks.failed += rep_checks.failed;
        checks.notes.extend(rep_checks.notes);
        checks.notes.truncate(8);
        if traced_rep {
            traced_rates.push(exact.frames as f64 / wall);
        } else {
            rates.push(exact.frames as f64 / wall);
            walls.push(wall);
        }
        match &first {
            None => first = Some(exact),
            Some(f) => {
                if *f != exact {
                    checks.count(0, 1, || format!("rep {rep} does not repeat rep 0 exactly"));
                }
            }
        }
        rep += 1;
    }
    let s = sys.as_mut().expect("at least one rep ran");
    let mut exact = first.expect("at least one rep ran");
    let sim_frames = w.finish(s, &mut exact, &mut checks, &mut tr);

    let rep_wall_s = crate::stats::undisturbed(&mut walls, false);
    let table = if cfg.trace {
        let mut t = Table::new(PER_LAYER);
        set_counted_rows(&mut t, &exact, sim_frames);
        if exact.events > 0 {
            t.set("pf-kernel.step_ns_p50", steps.percentile(50.0));
            t.set("pf-kernel.step_ns_p99", steps.percentile(99.0));
        }
        t.set(
            "pf-benchmark.trace_overhead_ratio",
            crate::stats::undisturbed(&mut traced_rates, true)
                / crate::stats::undisturbed(&mut rates, true),
        );
        let replayer = Replayer {
            budget: Duration::from_secs_f64(cfg.seconds * (1.0 - TRACED_REP_SHARE) / REPLAYS),
        };
        tr.scope("layers", |tr| {
            w.layers(s, &exact, rep_wall_s, &replayer, tr, &mut t)
        });
        t
    } else {
        let mut t = Table::new(END_TO_END);
        t.set_summary("setup_s", &mut setup_s, |s| s.median);
        t.set_summary("frames_per_s", &mut rates, |s| s.fast(true));
        t.set("sim_us_per_frame", exact.sim_us_per_frame(sim_frames));
        t.set(
            "sim_delivered_frac",
            exact.delivered as f64 / exact.expected.max(1) as f64,
        );
        // Last, so it covers everything the run held.
        t.set("peak_rss_mb", peak_rss_mb());
        t
    };
    tr.end(root);
    Report {
        checks,
        table,
        spans: cfg.trace.then(|| tr.to_json(w.name(), cfg.seed, &steps)),
        reps: walls.len(),
        rep_wall_s,
    }
}

/// The per-layer rows that are counted or simulated, not timed.
fn set_counted_rows(t: &mut Table, exact: &Exact, sim_frames: u64) {
    let c = &exact.counts;
    t.set("pf-sim.events", exact.events as f64);
    t.set("pf-sim.charges", c.charges as f64);
    t.set("pf-net.transmits", c.transmits as f64);
    t.set("pf-proto.forwards", c.forwards as f64);
    t.set(
        "pf-kernel.drops.interface",
        c.total(|h| h.drops_interface) as f64,
    );
    t.set(
        "pf-kernel.drops.admission",
        c.total(|h| h.drops_admission) as f64,
    );
    t.set(
        "pf-kernel.drops.queue_full",
        c.total(|h| h.drops_queue_full) as f64,
    );
    t.set(
        "pf-kernel.drops.no_match",
        c.total(|h| h.drops_no_match) as f64,
    );
    let received = c.total(|h| h.received).max(1);
    t.set(
        "pf-kernel.shed_frac",
        c.total(|h| h.drops_admission) as f64 / received as f64,
    );
    for (prefix, ns) in SIM_PREFIXES.iter().zip(c.prefix_ns) {
        let per_frame = ns as f64 / 1e3 / sim_frames.max(1) as f64;
        t.set(&format!("pf-kernel.sim_us_per_frame.{prefix}"), per_frame);
    }
    for &(name, value) in &exact.layer {
        t.set(name, value);
    }
}

/// Runs the workload called `name`.
///
/// # Errors
///
/// Returns the known names when `name` is not one of them.
pub fn run(name: &str, cfg: &Cfg) -> Result<Report, String> {
    match name {
        "lan_paper" => Ok(drive(&lan::LanPaper::new(cfg), cfg)),
        "routed_fabric" => Ok(drive(&fabric::RoutedFabric::new(cfg), cfg)),
        "demux_exact" => Ok(drive(&demux::Demux::exact(cfg), cfg)),
        "demux_range_churn" => Ok(drive(&demux::Demux::range_churn(cfg), cfg)),
        "overload_flood" => Ok(drive(&flood::OverloadFlood::new(cfg), cfg)),
        _ => Err(format!(
            "unknown workload {name:?}; the workloads are {}",
            WORKLOADS.map(|(n, _)| n).join(", ")
        )),
    }
}

/// What the host-side replays measured, for the residual.
#[derive(Debug, Clone, Copy)]
pub(crate) struct HostLayers {
    pub parse_ns: f64,
    pub device: DeviceLayers,
    pub enqueue_ns: f64,
}

/// The layers a frame crosses inside any host, replayed with one filter
/// population and the frames a host with those filters saw: frame parsing,
/// `PfDevice::demux` under the three named engines, binds, the bare
/// `GeomSet`, the checked interpreter, and `Port::enqueue`.
pub(crate) fn host_layers(
    r: &Replayer,
    tr: &mut Tracer,
    wire: Wire,
    specs: &[FilterSpec],
    frames: &[Vec<u8>],
    t: &mut Table,
) -> HostLayers {
    let parse_ns = tr.scope("layers.pf-net.parse", |_| r.parse_frames(wire, frames));
    let d = tr.scope("layers.pf-kernel.device", |_| {
        r.device_layers(specs, frames)
    });
    let g = tr.scope("layers.pf-ir.geom", |_| r.geom_layers(specs, frames));
    let c = tr.scope("layers.pf-filter.checked", |_| {
        r.checked_layers(specs, frames)
    });
    let enqueue_ns = tr.scope("layers.pf-kernel.enqueue", |_| r.enqueue_frames(frames));
    t.set("pf-net.parse_ns_per_frame", parse_ns);
    t.set("pf-kernel.demux_ns_per_frame", d.geom_ns);
    t.set("pf-kernel.demux_ns_per_frame.sequential", d.sequential_ns);
    t.set("pf-kernel.demux_ns_per_frame.dtree", d.dtree_ns);
    t.set("pf-kernel.device_overhead_ns", d.geom_ns - g.match_ns);
    t.set("pf-kernel.bind_us_per_op", d.bind_us);
    t.set("pf-kernel.close_us_per_op", d.close_us);
    t.set("pf-kernel.enqueue_ns_per_frame", enqueue_ns);
    t.set("pf-ir.ops_per_frame", d.ops_per_frame);
    t.set("pf-ir.geom_match_ns_per_frame", g.match_ns);
    t.set("pf-ir.geom_candidates_per_frame", g.candidates_per_frame);
    t.set("pf-ir.geom_insert_us_per_op", g.insert_us);
    t.set("pf-ir.geom_remove_us_per_op", g.remove_us);
    t.set("pf-filter.checked_ns_per_eval", c.ns_per_eval);
    t.set("pf-filter.instructions_per_frame", c.instructions_per_frame);
    HostLayers {
        parse_ns,
        device: d,
        enqueue_ns,
    }
}

/// Σ(layer ns per call × calls in situ) as a share of the rep's wall time,
/// subtracted from 1: the share no layer accounts for (dispatch, allocation,
/// callbacks). `parts` is `(ns per call, calls)`.
pub(crate) fn residual_frac(parts: &[(f64, u64)], rep_wall_s: f64) -> f64 {
    let accounted_ns: f64 = parts.iter().map(|&(ns, calls)| ns * calls as f64).sum();
    1.0 - accounted_ns / (rep_wall_s * 1e9)
}
