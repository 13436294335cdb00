//! Multi-core scaling campaign: `BENCH_mc.json`.
//!
//! One `World` host, given 1, 2, 4 or 8 cores by [`World::set_rss`]
//! hashing the destination-socket word, takes a saturating burst under the
//! overload armor. The sweep crosses core counts with the armor's
//! `poll_batch` and two demultiplexing engines, and measures what each
//! shape achieves:
//!
//! * **goodput** — packets delivered per second of makespan (the first
//!   arrival to the last core going idle), the aggregate throughput
//!   observable;
//! * **cost per packet** — CPU busy time summed over the cores, over
//!   packets delivered: the polled drain's amortization shows up here even
//!   when goodput is makespan-limited;
//! * **p99 latency** — emission (stamped into each frame's tail) to the
//!   reader's `on_packets`, ring residency included;
//! * **placement and traffic counters** — readers pinned, frames steered,
//!   cross-core wakeups, drops by reason.
//!
//! The workload: `POPULATION` single-socket flows, each read by its own
//! process whose filter carries an admission signature on the hashed word
//! (so the reader runs on the core its flow steers to), plus ~5% junk on
//! sockets no flow filter wants, read by one wildcard process on core 0 —
//! the junk crosses cores to reach it. Every reader works 200 µs on each
//! packet, as the adversary campaign's consumer does.
//!
//! The signature results are sweep-internal `assert!`s: every frame is
//! delivered or dropped under one named counter, 4 cores deliver at least
//! 3× the 1-core goodput at every `poll_batch`, and `poll_batch` 32 beats
//! `poll_batch` 1 on cost per packet for the geom engine. A zero exit is
//! the campaign's proof.

use crate::adversary::AdvConsumer;
use crate::json::Json;
use crate::report::p99_us;
use pf_filter::samples;
use pf_kernel::world::{OverloadConfig, World};
use pf_kernel::{DemuxEngine, RssConfig};
use pf_net::medium::Medium;
use pf_net::segment::FaultModel;
use pf_sim::cost::CostModel;
use pf_sim::time::{SimDuration, SimTime};
use pf_sim::SimClock;

/// Flows in the population, one reader each.
pub const POPULATION: u16 = 128;
/// First destination socket of the population (sockets must be non-zero
/// so the filters keep their literal admission signatures).
pub const FIRST_SOCK: u16 = 100;
/// Every `JUNK_EVERY`-th frame goes to a socket outside the population
/// (~5% junk, read only by the wildcard).
pub const JUNK_EVERY: usize = 20;
/// The packet word the RSS hash covers: the low destination-socket word,
/// which is also where the population's admission signatures live.
pub const HASH_WORD: u16 = 8;
/// Frames each core's receive queue holds.
pub const NIC_RING: usize = 256;

/// Core counts the full campaign sweeps.
pub const CORES: [usize; 4] = [1, 2, 4, 8];
/// The armor's `poll_batch` values the full campaign sweeps.
pub const POLL_BATCHES: [usize; 4] = [1, 8, 32, 128];

/// The engines the campaign sweeps (the compiled ladder).
pub const ENGINES: [(DemuxEngine, &str); 2] = [
    (DemuxEngine::Geom, "geom"),
    (DemuxEngine::DecisionTable, "dtree"),
];

/// The saturating burst driven through every cell: `n` frames 100 µs
/// apart — an offered rate several times any single core's service rate
/// (per-frame costs are on the order of a millisecond), so queues stay
/// deep and the cell measures capacity, not arrival rate. Frame `i` goes to
/// flow `i`, or to a junk socket every `JUNK_EVERY`-th frame, and carries
/// its emission time in its last 8 bytes.
pub fn burst(n: usize) -> Vec<(SimTime, Vec<u8>)> {
    (0..n)
        .map(|i| {
            let sock = if i % JUNK_EVERY == JUNK_EVERY - 1 {
                40_000 + (i as u16 % 977)
            } else {
                FIRST_SOCK + (i as u16 % POPULATION)
            };
            let at = SimTime((i as u64 + 1) * 100_000);
            let frame = samples::pup_packet_3mb_with_data(2, 1, 0, sock, 1, &at.0.to_be_bytes());
            (at, frame)
        })
        .collect()
}

/// One cell's measurements.
#[derive(Debug, Clone, Copy)]
pub struct McPoint {
    /// Engine label.
    pub engine: &'static str,
    /// Cores.
    pub cores: usize,
    /// The armor's `poll_batch`.
    pub poll_batch: usize,
    /// Frames offered.
    pub offered: u64,
    /// Packets queued to a reader's port.
    pub delivered: u64,
    /// Delivered per second of makespan.
    pub goodput_pps: f64,
    /// CPU busy time summed over the cores, over delivered packets, µs.
    pub cost_per_packet_us: f64,
    /// p99 emission → read latency, µs.
    pub p99_latency_us: u64,
    /// Frames steered to a queue other than 0.
    pub frames_steered: u64,
    /// Deliveries that woke a reader on another core.
    pub cross_core_wakeups: u64,
    /// Frames dropped at a full receive queue.
    pub drops_interface: u64,
    /// Frames dropped at a full port queue.
    pub drops_queue_full: u64,
    /// Frames no filter accepted.
    pub drops_no_match: u64,
    /// Readers whose filter pinned them to their flow's core.
    pub pinned: u64,
}

/// Runs one (engine, cores, poll batch) cell over an `n`-frame burst.
/// Fully deterministic.
pub fn run_cell(
    engine: DemuxEngine,
    engine_label: &'static str,
    cores: usize,
    poll_batch: usize,
    n: usize,
) -> McPoint {
    let mut w = World::new(0);
    let seg = w.add_segment(Medium::experimental_3mb(), FaultModel::default());
    let host = w.add_host("mc", seg, 0x0B, CostModel::microvax_ii());
    let rss = if cores == 1 {
        RssConfig::single_queue()
    } else {
        RssConfig::multi_queue(cores, vec![HASH_WORD])
    };
    w.set_rss(host, rss.clone());
    w.set_nic_capacity(host, NIC_RING);
    w.set_demux_engine(host, engine);
    w.set_overload_armor(
        host,
        Some(OverloadConfig {
            hi_watermark: 16,
            lo_watermark: 4,
            poll_batch,
            poll_interval: SimDuration::from_millis(2),
        }),
    );
    let filters = (0..POPULATION)
        .map(|i| samples::pup_socket_filter(10, 0, FIRST_SOCK + i))
        .chain([samples::accept_all(1)]);
    let mut pinned = 0;
    let readers: Vec<_> = filters
        .map(|f| {
            pinned += u64::from(rss.placement_of(&f).is_some());
            w.spawn(host, Box::new(AdvConsumer::new(f)))
        })
        .collect();

    let arrivals = burst(n);
    let offered = arrivals.len() as u64;
    for (at, frame) in arrivals {
        w.inject_frame(host, frame, at);
    }
    w.run();

    let cpus = (0..cores).map(|c| w.core_cpu(host, c));
    let finish = cpus.clone().map(|c| c.free_at()).max().unwrap_or_default();
    let busy_ns: u64 = cpus.map(|c| c.busy_time().as_nanos()).sum();
    let mut read = 0;
    let mut latencies = Vec::new();
    for &r in &readers {
        let app = w.app_ref::<AdvConsumer>(host, r).expect("a reader");
        read += app.got;
        latencies.extend_from_slice(&app.latencies_ns);
    }
    let c = w.counters(host);
    assert_eq!(read, c.packets_delivered, "every queued packet was read");
    McPoint {
        engine: engine_label,
        cores,
        poll_batch,
        offered,
        delivered: c.packets_delivered,
        goodput_pps: c.packets_delivered as f64
            / finish.saturating_since(SimTime::ZERO).as_secs_f64(),
        cost_per_packet_us: busy_ns as f64 / 1_000.0 / c.packets_delivered.max(1) as f64,
        p99_latency_us: p99_us(latencies),
        frames_steered: c.frames_steered,
        cross_core_wakeups: c.cross_core_wakeups,
        drops_interface: c.drops_interface,
        drops_queue_full: c.drops_queue_full,
        drops_no_match: c.drops_no_match,
        pinned,
    }
}

/// The whole campaign.
#[derive(Debug, Clone)]
pub struct MultiCoreReport {
    /// Seed recorded for artifact provenance. This campaign draws no
    /// randomness (arrivals and steering are fully pinned), so the seed
    /// does not change results; it is recorded so every BENCH_*.json
    /// carries the same replay field.
    pub seed: u64,
    /// Flow population (one pinned reader each).
    pub population: u16,
    /// Frames offered per cell.
    pub frames: usize,
    /// Every (engine × cores × poll batch) cell.
    pub rows: Vec<McPoint>,
}

impl MultiCoreReport {
    /// The row for one cell.
    pub fn cell(&self, engine: &str, cores: usize, poll_batch: usize) -> &McPoint {
        self.rows
            .iter()
            .find(|r| r.engine == engine && r.cores == cores && r.poll_batch == poll_batch)
            .expect("cell swept")
    }
}

/// Runs the sweep and asserts the campaign's invariants: every cell
/// accounts for every offered frame under one named counter; multi-core
/// cells pin the whole population and steer real traffic; 4 cores deliver
/// ≥ 3× the 1-core goodput at the same `poll_batch`; and `poll_batch` 32
/// beats `poll_batch` 1 on cost per packet for the geom engine. A violated
/// invariant panics with the offending cell.
pub fn sweep(smoke: bool, seed: u64) -> MultiCoreReport {
    let cores: &[usize] = if smoke { &[1, 4] } else { &CORES };
    let batches: &[usize] = if smoke { &[1, 32] } else { &POLL_BATCHES };
    let engines: &[(DemuxEngine, &str)] = if smoke { &ENGINES[..1] } else { &ENGINES };
    // The smoke sweep's burst is the full one: a shorter burst leaves the
    // 4-core cells' makespan to the start-up transient on core 0.
    let frames = 2400;

    let mut rows = Vec::new();
    for &(engine, label) in engines {
        for &c in cores {
            for &b in batches {
                rows.push(run_cell(engine, label, c, b, frames));
            }
        }
    }
    let report = MultiCoreReport {
        seed,
        population: POPULATION,
        frames,
        rows,
    };

    for p in &report.rows {
        // Conservation: each frame has one acceptor at most, so it is
        // delivered once or dropped once, under a counter we can name.
        assert_eq!(
            p.delivered + p.drops_interface + p.drops_queue_full + p.drops_no_match,
            p.offered,
            "unaccounted frames: {p:?}"
        );
        assert_eq!(p.drops_no_match, 0, "the wildcard must catch junk: {p:?}");
        if p.cores > 1 {
            assert_eq!(
                p.pinned,
                u64::from(POPULATION),
                "every flow reader must pin: {p:?}"
            );
            assert!(p.frames_steered > 0, "RSS must steer: {p:?}");
            assert!(
                p.cross_core_wakeups > 0,
                "junk must cross cores to the wildcard reader: {p:?}"
            );
        }
    }
    for &(_, label) in engines {
        for &b in batches {
            let one = report.cell(label, 1, b);
            let four = report.cell(label, 4, b);
            assert!(
                four.goodput_pps >= 3.0 * one.goodput_pps,
                "{label} poll_batch {b}: 4 cores must deliver >= 3x one core: \
                 {:.1} pps vs {:.1} pps",
                four.goodput_pps,
                one.goodput_pps
            );
        }
    }
    for &c in cores {
        let b1 = report.cell("geom", c, 1);
        let b32 = report.cell("geom", c, 32);
        assert!(
            b32.cost_per_packet_us < b1.cost_per_packet_us,
            "geom {c} cores: poll_batch 32 must beat poll_batch 1 per packet: \
             {:.1} us vs {:.1} us",
            b32.cost_per_packet_us,
            b1.cost_per_packet_us
        );
    }
    report
}

impl McPoint {
    fn json(&self) -> Json {
        Json::object([
            ("engine", self.engine.into()),
            ("cores", self.cores.into()),
            ("poll_batch", self.poll_batch.into()),
            ("offered", self.offered.into()),
            ("delivered", self.delivered.into()),
            ("goodput_pps", Json::Float(self.goodput_pps, 3)),
            (
                "cost_per_packet_us",
                Json::Float(self.cost_per_packet_us, 3),
            ),
            ("p99_latency_us", self.p99_latency_us.into()),
            ("frames_steered", self.frames_steered.into()),
            ("cross_core_wakeups", self.cross_core_wakeups.into()),
            ("drops_interface", self.drops_interface.into()),
            ("drops_queue_full", self.drops_queue_full.into()),
            ("drops_no_match", self.drops_no_match.into()),
            ("pinned", self.pinned.into()),
        ])
    }
}

impl MultiCoreReport {
    /// The campaign's artifact: every cell, and per engine the 4-core over
    /// 1-core goodput at `poll_batch` 32.
    pub fn json(&self) -> Json {
        let mut engines: Vec<&'static str> = self.rows.iter().map(|r| r.engine).collect();
        engines.dedup();
        let signature = engines.into_iter().map(|label| {
            let (one, four) = (self.cell(label, 1, 32), self.cell(label, 4, 32));
            let speedup = Json::Float(four.goodput_pps / one.goodput_pps, 3);
            let speedup = Json::object([("speedup_4c_over_1c_at_poll_batch_32", speedup)]);
            (label, speedup)
        });
        Json::object([
            ("experiment", "mc".into()),
            (
                "workload",
                "saturating burst over a population of single-socket flows, one reader \
                 each, plus ~5% junk read by a wildcard on core 0, on one host swept \
                 across cores, the armor's poll batch, and demux engines"
                    .into(),
            ),
            ("seed", self.seed.into()),
            ("population", self.population.into()),
            ("frames_per_cell", self.frames.into()),
            ("rows", Json::array(&self.rows, McPoint::json)),
            ("signature", Json::object(signature)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_sweep_holds_every_invariant() {
        let report = sweep(true, 0);
        // 1 engine x 2 core counts x 2 poll batches.
        assert_eq!(report.rows.len(), 4);
    }
}
