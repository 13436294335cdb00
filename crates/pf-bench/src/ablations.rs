//! Ablations of the design choices the paper calls out.
//!
//! * §3.2 — priority assignment: "if priorities are assigned proportional
//!   to the likelihood that a filter will accept a packet, then the
//!   'average' packet will match one of the first few filters";
//! * §3.2 — adaptive reordering: "the interpreter may occasionally reorder
//!   such filters to place the busier ones first";
//! * §7 — write batching: "a write-batching option (to send several
//!   packets in one system call) might also improve performance".

use crate::report::Report;
use pf_filter::program::FilterProgram;
use pf_filter::samples;
use pf_ir::singleton_engines;
use pf_kernel::app::App;
use pf_kernel::device::DemuxEngine;
use pf_kernel::types::{Fd, PortConfig, ReadError, ReadMode, RecvPacket};
use pf_kernel::world::{ProcCtx, World};
use pf_net::medium::Medium;
use pf_net::segment::FaultModel;
use pf_sim::cost::CostModel;
use pf_sim::rng::SplitMix64;
use pf_sim::time::{SimDuration, SimTime};
use pf_sim::SimClock;
use std::hint::black_box;
use std::time::Instant;

/// Ports in the reordering experiment.
const PORTS: usize = 16;
/// Fraction of traffic aimed at the single hot port.
const HOT_SHARE: f64 = 0.9;
const PACKETS: usize = 4_000;

struct Sink {
    filter: pf_filter::program::FilterProgram,
    fd: Option<Fd>,
}

impl App for Sink {
    fn start(&mut self, k: &mut ProcCtx<'_>) {
        let fd = k.pf_open();
        k.pf_set_filter(fd, self.filter.clone());
        k.pf_configure(
            fd,
            PortConfig {
                read_mode: ReadMode::Batch,
                max_queue: 1 << 16,
                ..Default::default()
            },
        );
        self.fd = Some(fd);
        k.pf_read(fd);
    }
    fn on_packets(&mut self, fd: Fd, _p: Vec<RecvPacket>, k: &mut ProcCtx<'_>) {
        k.pf_read(fd);
    }
    fn on_read_error(&mut self, fd: Fd, _e: ReadError, k: &mut ProcCtx<'_>) {
        k.pf_read(fd);
    }
}

/// Demultiplexing-order policies under skewed traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrderPolicy {
    /// Equal priorities, no adaptive reordering: the hot port (inserted
    /// last) is always tested last.
    StaticWorstCase,
    /// Equal priorities with §3.2's adaptive reordering.
    Adaptive,
    /// The hot port assigned a higher priority by its owner.
    PriorityHint,
}

/// Runs skewed traffic through 16 socket filters; returns the mean number
/// of predicates applied per packet.
pub(crate) fn predicates_per_packet(policy: OrderPolicy) -> f64 {
    let mut w = World::new(14);
    let seg = w.add_segment(Medium::experimental_3mb(), FaultModel::default());
    let h = w.add_host("host", seg, 0x0B, CostModel::microvax_ii());
    w.set_nic_capacity(h, 1 << 20);
    if policy != OrderPolicy::Adaptive {
        w.set_adaptive_reorder(h, false);
    }
    // Cold ports first; the hot port (socket 15) inserted last, so a
    // static demultiplexer always tests it last.
    for i in 0..PORTS {
        let prio = if policy == OrderPolicy::PriorityHint && i == PORTS - 1 {
            20
        } else {
            10
        };
        w.spawn(
            h,
            Box::new(Sink {
                filter: samples::pup_socket_filter(prio, 0, i as u16),
                fd: None,
            }),
        );
    }
    w.run_until(SimTime(5_000_000));
    let before = *w.counters(h);

    let mut rng = SplitMix64::new(7);
    for i in 0..PACKETS {
        let sock = if rng.next_f64() < HOT_SHARE {
            (PORTS - 1) as u16
        } else {
            rng.below((PORTS - 1) as u64) as u16
        };
        let at = SimTime(10_000_000) + SimDuration::from_micros(4_000).times(i as u64);
        w.inject_frame(h, samples::pup_packet_3mb(2, 0, sock, 1), at);
    }
    w.run();
    let counters = *w.counters(h) - before;
    counters.filters_applied as f64 / PACKETS as f64
}

/// One table 6-10 filter shape timed on every execution surface
/// (nanoseconds per evaluation, real wall clock).
pub struct LadderRow {
    /// Shape label (instruction count or figure name).
    pub shape: String,
    /// `(engine name, ns/eval)` per surface, in
    /// [`pf_ir::singleton_engines`] ladder order — so a new surface shows
    /// up here without this module changing.
    pub ns: Vec<(&'static str, f64)>,
}

fn time_ns<F: FnMut() -> bool>(iters: u32, mut f: F) -> f64 {
    for _ in 0..iters / 8 {
        black_box(f());
    }
    let start = Instant::now();
    for _ in 0..iters {
        black_box(f());
    }
    start.elapsed().as_nanos() as f64 / f64::from(iters)
}

/// Measures the real (host wall-clock, not simulated) cost of one filter
/// evaluation on each execution surface, over the table 6-10 shapes plus
/// the paper's two workhorse filters. The surfaces come from
/// [`pf_ir::singleton_engines`], so the ladder automatically covers every
/// rung the workspace has.
pub(crate) fn engine_ladder(iters: u32) -> Vec<LadderRow> {
    let packet = samples::pup_packet_3mb(2, 0, 35, 50);
    let shapes: Vec<(String, FilterProgram)> = [0usize, 1, 9, 21]
        .iter()
        .map(|&len| {
            (
                format!("{len} instructions"),
                samples::padded_accept_filter(10, len),
            )
        })
        .chain([
            (
                "fig 3-8 (type range)".to_string(),
                samples::fig_3_8_pup_type_range(),
            ),
            (
                "fig 3-9 (socket 35)".to_string(),
                samples::fig_3_9_pup_socket_35(),
            ),
        ])
        .collect();
    shapes
        .into_iter()
        .map(|(shape, program)| {
            let ns = singleton_engines(&program)
                .iter_mut()
                .map(|engine| {
                    let name = engine.name();
                    let ns = time_ns(iters, || engine.matches(black_box(&packet)).is_some());
                    (name, ns)
                })
                .collect();
            LadderRow { shape, ns }
        })
        .collect()
}

/// Simulated CPU cost (virtual ms per packet) of demultiplexing skewed
/// traffic through 16 socket filters under each kernel demux engine, with
/// adaptive reordering off and the hot port tested last — the sequential
/// loop's worst case, and exactly where §7 promises compiled engines help.
pub(crate) fn demux_cpu_ms_per_packet(engine: DemuxEngine) -> f64 {
    const DEMUX_PACKETS: usize = 1_000;
    let mut w = World::new(21);
    let seg = w.add_segment(Medium::experimental_3mb(), FaultModel::default());
    let h = w.add_host("host", seg, 0x0B, CostModel::microvax_ii());
    w.set_nic_capacity(h, 1 << 20);
    w.set_adaptive_reorder(h, false);
    for i in 0..PORTS {
        w.spawn(
            h,
            Box::new(Sink {
                filter: samples::pup_socket_filter(10, 0, i as u16),
                fd: None,
            }),
        );
    }
    w.run_until(SimTime(5_000_000));
    w.set_demux_engine(h, engine);
    let before = w.cpu(h).busy_time();
    let mut rng = SplitMix64::new(7);
    for i in 0..DEMUX_PACKETS {
        let sock = if rng.next_f64() < HOT_SHARE {
            (PORTS - 1) as u16
        } else {
            rng.below((PORTS - 1) as u64) as u16
        };
        let at = SimTime(10_000_000) + SimDuration::from_micros(4_000).times(i as u64);
        w.inject_frame(h, samples::pup_packet_3mb(2, 0, sock, 1), at);
    }
    w.run();
    (w.cpu(h).busy_time() - before).as_millis_f64() / DEMUX_PACKETS as f64
}

/// Per-packet send cost (ms) for `count` small frames, batched or not
/// (§7's write-batching proposal).
pub(crate) fn send_cost_ms(batched: bool) -> f64 {
    const COUNT: usize = 256;
    struct Blaster {
        batched: bool,
    }
    impl App for Blaster {
        fn start(&mut self, k: &mut ProcCtx<'_>) {
            let fd = k.pf_open();
            let frame = samples::pup_packet_3mb(2, 0, 9, 1);
            if self.batched {
                // 16 frames per writev.
                let batch: Vec<Vec<u8>> = (0..16).map(|_| frame.clone()).collect();
                for _ in 0..(COUNT / 16) {
                    k.pf_write_batch(fd, &batch).expect("frames fit");
                }
            } else {
                for _ in 0..COUNT {
                    k.pf_write(fd, &frame).expect("frame fits");
                }
            }
        }
    }
    let mut w = World::new(3);
    let seg = w.add_segment(Medium::experimental_3mb(), FaultModel::default());
    let h = w.add_host("sender", seg, 0x0A, CostModel::microvax_ii());
    w.spawn(h, Box::new(Blaster { batched }));
    w.run();
    w.cpu(h).busy_time().as_millis_f64() / COUNT as f64
}

/// Builds the ablation report.
pub(crate) fn report_ablations() -> Report {
    let worst = predicates_per_packet(OrderPolicy::StaticWorstCase);
    let adaptive = predicates_per_packet(OrderPolicy::Adaptive);
    let hinted = predicates_per_packet(OrderPolicy::PriorityHint);
    let plain = send_cost_ms(false);
    let batched = send_cost_ms(true);
    let mut r = Report::new("Ablations", "Design choices the paper calls out").headers(&[
        "experiment",
        "configuration",
        "measured",
    ]);
    r.row(&[
        "filter ordering (90% of traffic to 1 of 16 ports)".into(),
        "static, hot port last".into(),
        format!("{worst:.1} predicates/packet"),
    ]);
    r.row(&[
        "".into(),
        "adaptive reordering (§3.2)".into(),
        format!("{adaptive:.1} predicates/packet"),
    ]);
    r.row(&[
        "".into(),
        "owner-assigned priority (§3.2)".into(),
        format!("{hinted:.1} predicates/packet"),
    ]);
    r.row(&[
        "send path".into(),
        "one write(2) per packet".into(),
        format!("{plain:.2} ms/packet"),
    ]);
    r.row(&[
        "".into(),
        "write batching, 16/syscall (§7)".into(),
        format!("{batched:.2} ms/packet"),
    ]);
    for engine in [
        DemuxEngine::Sequential,
        DemuxEngine::DecisionTable,
        DemuxEngine::Geom,
    ] {
        let ms = demux_cpu_ms_per_packet(engine);
        let label = match engine {
            DemuxEngine::Sequential => "demux engine (16 filters, hot port last)",
            _ => "",
        };
        let config = match engine {
            DemuxEngine::Sequential => "sequential interpreter (figure 4-1)",
            DemuxEngine::DecisionTable => "decision table (§7)",
            DemuxEngine::Geom => "geometric tuple-space classifier",
        };
        r.row(&[
            label.into(),
            config.into(),
            format!("{ms:.3} ms/packet (simulated)"),
        ]);
    }
    for (i, row) in engine_ladder(40_000).into_iter().enumerate() {
        let label = if i == 0 {
            "engine ladder (real wall clock)"
        } else {
            ""
        };
        let cells: Vec<String> = row
            .ns
            .into_iter()
            .map(|(e, ns)| format!("{e} {ns:.0}ns"))
            .collect();
        r.row(&[label.into(), row.shape, cells.join(", ")]);
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adaptive_reordering_moves_the_busy_filter_forward() {
        let worst = predicates_per_packet(OrderPolicy::StaticWorstCase);
        let adaptive = predicates_per_packet(OrderPolicy::Adaptive);
        // Static worst case tests nearly all 16 filters for 90% of
        // packets; adaptive converges to testing the hot filter first.
        assert!(worst > 12.0, "worst case {worst:.1} predicates/packet");
        assert!(
            adaptive < worst * 0.4,
            "adaptive {adaptive:.1} vs worst {worst:.1}"
        );
    }

    #[test]
    fn priority_hint_matches_or_beats_adaptive() {
        let adaptive = predicates_per_packet(OrderPolicy::Adaptive);
        let hinted = predicates_per_packet(OrderPolicy::PriorityHint);
        // §3.2: likelihood-proportional priorities get the average packet
        // matched "against one of the first few filters" from the start.
        assert!(
            hinted <= adaptive + 0.3,
            "hinted {hinted:.1} vs adaptive {adaptive:.1}"
        );
        assert!(hinted < 3.0, "hinted {hinted:.1} predicates/packet");
    }

    #[test]
    fn compiled_demux_engines_beat_sequential_worst_case() {
        let seq = demux_cpu_ms_per_packet(DemuxEngine::Sequential);
        let table = demux_cpu_ms_per_packet(DemuxEngine::DecisionTable);
        let geom = demux_cpu_ms_per_packet(DemuxEngine::Geom);
        // Worst-case sequential interprets ~15 whole filters per packet;
        // the table probes per shape and the geom set evaluates one
        // member per packet.
        assert!(table < seq, "table {table:.3} vs sequential {seq:.3}");
        assert!(geom < seq, "geom {geom:.3} vs sequential {seq:.3}");
    }

    #[test]
    fn engine_ladder_covers_every_execution_surface() {
        // The ladder is a timing harness; pin that it times exactly the
        // surfaces `singleton_engines` hands out and that every timing is
        // sane (the real equivalence suite lives in pf-ir's differential
        // tests).
        let expected = pf_ir::singleton_surface_count();
        for row in engine_ladder(16) {
            assert_eq!(row.ns.len(), expected, "{}", row.shape);
            assert!(row.ns.iter().all(|&(_, ns)| ns >= 0.0), "{}", row.shape);
        }
    }

    #[test]
    fn write_batching_helps_the_send_path() {
        let plain = send_cost_ms(false);
        let batched = send_cost_ms(true);
        // One syscall's overhead (~0.15 ms) spread over 16 frames.
        assert!(
            batched < plain - 0.10,
            "batched {batched:.2} vs plain {plain:.2}"
        );
        // But copies and driver work remain: the win is bounded.
        assert!(
            batched > plain * 0.8,
            "batched {batched:.2} not implausibly cheap"
        );
    }
}
