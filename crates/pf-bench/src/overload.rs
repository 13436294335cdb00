//! Saturation campaign: `BENCH_overload.json`.
//!
//! Sweeps offered load from 0.5× to 8× of the unarmored receive path's
//! nominal capacity, across the four overload-armor tiers and two
//! demultiplexing engines, and measures what each configuration actually
//! *delivers* under that load:
//!
//! * **goodput** — wanted (high-priority) packets consumed by the user
//!   process per second, the receive-livelock observable;
//! * **useful-work fraction** — user CPU time over wall-clock, versus the
//!   demux and driver fractions that eat it under livelock;
//! * **drop location** — shed at the NIC by the admission gate, dropped
//!   at the ring, or dropped after demultiplexing at a full port queue;
//! * **p99 port latency** — demux-stamp → user-delivery delay on the
//!   wanted port (queue residency plus scheduling delay; time parked in
//!   the polling backlog before demux is *not* included).
//!
//! The signature result: the full-armor goodput curve stays flat past
//! saturation (8× within 20% of 1×) while the no-armor curve falls off a
//! cliff — the kernel spends its cycles on per-frame interrupts for
//! traffic it then throws away, and the consumer starves. A completed
//! sweep is itself the proof: every claim is an `assert!`.

use crate::json::Json;
use crate::report::p99_us;
use pf_filter::program::{Assembler, FilterProgram};
use pf_filter::samples;
use pf_filter::word::BinaryOp;
use pf_kernel::app::App;
use pf_kernel::types::{Fd, HostId, PortConfig, ReadMode, RecvPacket};
use pf_kernel::world::{OverloadConfig, ProcCtx, World};
use pf_kernel::{AdmissionConfig, AdmissionQuota, DemuxEngine};
use pf_net::medium::Medium;
use pf_net::segment::FaultModel;
use pf_sim::cost::CostModel;
use pf_sim::time::{SimDuration, SimTime};
use pf_sim::SimClock;

/// Destination socket of the wanted (high-priority, protected) stream.
pub const WANTED_SOCK: u16 = 35;
/// Destination socket of the best-effort junk flood.
pub const JUNK_SOCK: u16 = 99;
/// NIC receive-ring capacity used by every cell (hardware is held
/// constant across tiers; only the software armor varies).
pub const NIC_RING: usize = 256;

/// Default campaign seed (the value the committed artifact was produced
/// under); `--seed` overrides it.
pub const DEFAULT_SEED: u64 = 0x0E11_0AD5;
/// Per-packet application cost of consuming one wanted packet.
pub const CONSUME: SimDuration = SimDuration::from_micros(200);

/// The armor parameters every armored cell runs: a 16-frame high-water
/// mark, and a poll tick whose admitted-demux ceiling (16 frames / 8 ms
/// = 2000 pps) sits comfortably above the wanted rate, so bounding the
/// batch never becomes the bottleneck for protected traffic.
pub const BENCH_ARMOR: OverloadConfig = OverloadConfig {
    hi_watermark: 16,
    lo_watermark: 4,
    poll_batch: 16,
    poll_interval: SimDuration::from_millis(8),
};

/// The junk port's token bucket in the shedding tiers: a trickle, so
/// nearly the whole flood is shed at the NIC for the cost of one probe.
pub const JUNK_QUOTA: AdmissionQuota = AdmissionQuota {
    rate_pps: 50,
    burst: 32,
};

/// Nominal capacity of the *unarmored* receive path, packets per second:
/// the fixed per-frame interrupt cost plus one engine probe plus the
/// demux bookkeeping — what the kernel pays even for a frame it drops
/// right after demultiplexing. Offered-load multipliers are anchored to
/// this, so 1× is the edge of the livelock regime by construction.
pub fn capacity_pps() -> u64 {
    let m = CostModel::microvax_ii();
    let per = m.driver_rx_cost(frame_to_host(WANTED_SOCK).len()) + m.dtree_probe + m.pf_bookkeeping;
    1_000_000_000 / per.as_nanos().max(1)
}

/// Rate of the wanted stream: a quarter of nominal capacity, so even at
/// 0.5× total offered load the junk flood is the larger component.
pub fn wanted_pps() -> u64 {
    (capacity_pps() / 4).max(1)
}

/// A Pup frame link-addressed to the bench host, dst socket `sock`.
fn frame_to_host(sock: u16) -> Vec<u8> {
    let mut f = samples::pup_packet_3mb(2, 0, sock, 1);
    f[0] = 0x0B; // EtherDst
    f[1] = 0x0A; // EtherSrc
    f
}

/// A one-test filter whose leading comparison doubles as its admission
/// signature: `packet[DstSocketLo] == sock`.
fn socket_eq_filter(priority: u8, sock: u16) -> FilterProgram {
    Assembler::new(priority)
        .pushword(samples::WORD_DSTSOCKET_LO)
        .pushlit_op(BinaryOp::Eq, sock)
        .finish()
}

/// The armor tiers the campaign compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Armor {
    /// Per-packet interrupts all the way down (the seed behavior).
    None,
    /// Interrupt→polling switchover only.
    Polling,
    /// Polling plus the admission gate with a junk-port quota.
    Shedding,
    /// Shedding plus backpressure marks on both ports.
    Full,
}

impl Armor {
    /// Every tier, in escalation order.
    pub const ALL: [Armor; 4] = [Armor::None, Armor::Polling, Armor::Shedding, Armor::Full];

    /// Row label.
    pub fn label(self) -> &'static str {
        match self {
            Armor::None => "none",
            Armor::Polling => "polling",
            Armor::Shedding => "shedding",
            Armor::Full => "full",
        }
    }

    fn polling(self) -> bool {
        self != Armor::None
    }

    fn shedding(self) -> bool {
        matches!(self, Armor::Shedding | Armor::Full)
    }

    fn full(self) -> bool {
        self == Armor::Full
    }
}

/// The engines the campaign sweeps (the compiled ladder).
pub const ENGINES: [(DemuxEngine, &str); 2] = [
    (DemuxEngine::DecisionTable, "dtree"),
    (DemuxEngine::Geom, "geom"),
];

/// The consumer of the wanted stream: batch reads, per-packet compute,
/// and a demux-stamp → delivery latency sample per packet.
struct Consumer {
    backpressure_mark: Option<usize>,
    fd: Option<Fd>,
    got: u64,
    latencies_ns: Vec<u64>,
}

impl App for Consumer {
    fn start(&mut self, k: &mut ProcCtx<'_>) {
        let fd = k.pf_open();
        assert!(k.pf_set_filter(fd, socket_eq_filter(200, WANTED_SOCK)));
        k.pf_configure(
            fd,
            PortConfig {
                read_mode: ReadMode::Batch,
                max_queue: 64,
                timestamp: true,
                backpressure_mark: self.backpressure_mark,
                ..Default::default()
            },
        );
        self.fd = Some(fd);
        k.pf_read(fd);
    }

    fn on_packets(&mut self, fd: Fd, packets: Vec<RecvPacket>, k: &mut ProcCtx<'_>) {
        let now = k.now();
        for p in &packets {
            if let Some(stamp) = p.stamp {
                self.latencies_ns.push(now.since(stamp).as_nanos());
            }
        }
        self.got += packets.len() as u64;
        k.compute("user:consume", CONSUME.times(packets.len() as u64));
        k.pf_read(fd);
    }
}

/// The junk port's owner: binds the best-effort filter (and its quota /
/// backpressure mark where the tier arms them) and never reads, so junk
/// that survives admission piles up and drops after demultiplexing.
struct Sink {
    quota: Option<AdmissionQuota>,
    backpressure_mark: Option<usize>,
}

impl App for Sink {
    fn start(&mut self, k: &mut ProcCtx<'_>) {
        let fd = k.pf_open();
        assert!(k.pf_set_filter(fd, socket_eq_filter(10, JUNK_SOCK)));
        k.pf_configure(
            fd,
            PortConfig {
                max_queue: 64,
                backpressure_mark: self.backpressure_mark,
                ..Default::default()
            },
        );
        if self.quota.is_some() {
            k.pf_set_quota(fd, self.quota);
        }
    }
}

/// Injects a periodic stream of `pps` frames to `sock` over
/// `[start, end)`, phase-shifted by `phase_ns`; returns the count.
fn inject_stream(
    w: &mut World,
    host: HostId,
    sock: u16,
    pps: u64,
    start: SimTime,
    end: SimTime,
    phase_ns: u64,
) -> u64 {
    if pps == 0 {
        return 0;
    }
    let step = 1_000_000_000 / pps;
    let mut t = start.0 + phase_ns;
    let mut n = 0;
    while t < end.0 {
        w.inject_frame(host, frame_to_host(sock), SimTime(t));
        t += step;
        n += 1;
    }
    n
}

/// One cell's measurements.
#[derive(Debug, Clone, Copy)]
pub struct OverloadPoint {
    /// Engine label.
    pub engine: &'static str,
    /// Armor-tier label.
    pub armor: &'static str,
    /// Offered load as a multiple of [`capacity_pps`].
    pub offered_x: f64,
    /// Total offered rate, packets per second.
    pub offered_pps: u64,
    /// Wanted / junk frames injected.
    pub wanted_offered: u64,
    /// Junk frames injected.
    pub junk_offered: u64,
    /// Wanted packets consumed by the user process, per second.
    pub goodput_pps: f64,
    /// User CPU time / wall clock.
    pub useful_frac: f64,
    /// Packet-filter (admit + demux + deliver) CPU time / wall clock.
    pub demux_frac: f64,
    /// Driver (interrupt + poll) CPU time / wall clock.
    pub driver_frac: f64,
    /// Frames shed by the admission gate (drop-at-NIC).
    pub drops_admission: u64,
    /// Frames dropped at a full port queue (drop-after-demux).
    pub drops_queue_full: u64,
    /// Frames dropped at the receive ring / polling backlog.
    pub drops_interface: u64,
    /// Frames no filter accepted.
    pub drops_no_match: u64,
    /// p99 demux-stamp → delivery latency on the wanted port, µs.
    pub p99_latency_us: u64,
    /// Poll ticks taken.
    pub poll_batches: u64,
    /// Interrupt↔polling transitions.
    pub rx_mode_switches: u64,
    /// Backpressure notifications delivered.
    pub backpressure_signals: u64,
}

/// Runs one (engine, armor, offered-multiple) cell for `duration` of
/// simulated time and returns its measurements. Fully deterministic for
/// a given `seed` (the world's fault/arrival randomness source).
pub fn run_cell(
    engine: DemuxEngine,
    engine_label: &'static str,
    armor: Armor,
    mult: f64,
    duration: SimDuration,
    seed: u64,
) -> OverloadPoint {
    let mut w = World::new(seed);
    let seg = w.add_segment(Medium::experimental_3mb(), FaultModel::default());
    let host = w.add_host("bob", seg, 0x0B, CostModel::microvax_ii());
    w.set_nic_capacity(host, NIC_RING);
    w.set_demux_engine(host, engine);
    if armor.polling() {
        w.set_overload_armor(host, Some(BENCH_ARMOR));
    }
    if armor.shedding() {
        w.set_admission_control(host, Some(AdmissionConfig::default()));
    }
    let consumer = w.spawn(
        host,
        Box::new(Consumer {
            backpressure_mark: armor.full().then_some(48),
            fd: None,
            got: 0,
            latencies_ns: Vec::new(),
        }),
    );
    w.spawn(
        host,
        Box::new(Sink {
            quota: armor.shedding().then_some(JUNK_QUOTA),
            backpressure_mark: armor.full().then_some(48),
        }),
    );

    let wanted = wanted_pps();
    let offered = (mult * capacity_pps() as f64).round() as u64;
    let junk = offered.saturating_sub(wanted);
    let start = SimTime(1_000_000);
    let end = SimTime(start.0 + duration.as_nanos());
    let wanted_offered = inject_stream(&mut w, host, WANTED_SOCK, wanted, start, end, 0);
    let junk_offered = inject_stream(&mut w, host, JUNK_SOCK, junk, start, end, 7_001);
    w.run_until(end);

    let app = w.app_ref::<Consumer>(host, consumer).expect("consumer");
    let p99_latency_us = p99_us(app.latencies_ns.clone());
    let wall = duration.as_nanos() as f64;
    let frac = |prefix: &str| w.profiler(host).time_with_prefix(prefix).as_nanos() as f64 / wall;
    let c = w.counters(host);
    OverloadPoint {
        engine: engine_label,
        armor: armor.label(),
        offered_x: mult,
        offered_pps: offered,
        wanted_offered,
        junk_offered,
        goodput_pps: app.got as f64 / duration.as_secs_f64(),
        useful_frac: frac("user:"),
        demux_frac: frac("pf:"),
        driver_frac: frac("driver:"),
        drops_admission: c.drops_admission,
        drops_queue_full: c.drops_queue_full,
        drops_interface: c.drops_interface,
        drops_no_match: c.drops_no_match,
        p99_latency_us,
        poll_batches: c.poll_batches,
        rx_mode_switches: c.rx_mode_switches,
        backpressure_signals: c.backpressure_signals,
    }
}

/// The whole campaign.
#[derive(Debug, Clone)]
pub struct OverloadReport {
    /// Seed every cell's [`World`] ran under (recorded for replay).
    pub seed: u64,
    /// Nominal unarmored capacity the multipliers are anchored to.
    pub capacity_pps: u64,
    /// Wanted-stream rate.
    pub wanted_pps: u64,
    /// Per-cell simulated duration.
    pub duration: SimDuration,
    /// Every (engine × armor × offered-multiple) cell.
    pub rows: Vec<OverloadPoint>,
}

impl OverloadReport {
    /// The row for one cell.
    pub fn cell(&self, engine: &str, armor: &str, mult: f64) -> &OverloadPoint {
        self.rows
            .iter()
            .find(|r| r.engine == engine && r.armor == armor && r.offered_x == mult)
            .expect("cell swept")
    }
}

/// Runs the sweep and asserts the campaign's invariants for every
/// engine: the full-armor goodput at 8× is within 20% of its 1× value
/// (flat past saturation), the no-armor goodput at 8× is less than half
/// its 1× value (the livelock cliff), shedding moves drops from
/// after-demux to the NIC, and armor buys back useful-work fraction at
/// saturation. A violated invariant panics with the offending cell.
pub fn sweep(smoke: bool, seed: u64) -> OverloadReport {
    let mults: &[f64] = if smoke {
        &[1.0, 8.0]
    } else {
        &[0.5, 1.0, 2.0, 4.0, 8.0]
    };
    let duration = if smoke {
        SimDuration::from_millis(800)
    } else {
        SimDuration::from_secs(3)
    };
    let mut rows = Vec::new();
    for (engine, label) in ENGINES {
        for armor in Armor::ALL {
            for &mult in mults {
                rows.push(run_cell(engine, label, armor, mult, duration, seed));
            }
        }
    }
    let report = OverloadReport {
        seed,
        capacity_pps: capacity_pps(),
        wanted_pps: wanted_pps(),
        duration,
        rows,
    };

    for (_, label) in ENGINES {
        let full_1 = report.cell(label, "full", 1.0);
        let full_8 = report.cell(label, "full", 8.0);
        let none_1 = report.cell(label, "none", 1.0);
        let none_8 = report.cell(label, "none", 8.0);
        assert!(
            full_8.goodput_pps >= 0.8 * full_1.goodput_pps && full_8.goodput_pps > 0.0,
            "{label}: full armor must stay flat past saturation: \
             1x {:.1} pps vs 8x {:.1} pps",
            full_1.goodput_pps,
            full_8.goodput_pps
        );
        assert!(
            none_8.goodput_pps < 0.5 * none_1.goodput_pps,
            "{label}: no armor must fall off the livelock cliff: \
             1x {:.1} pps vs 8x {:.1} pps",
            none_1.goodput_pps,
            none_8.goodput_pps
        );
        assert!(
            full_8.useful_frac > none_8.useful_frac,
            "{label}: armor must buy back useful work at 8x: \
             full {:.3} vs none {:.3}",
            full_8.useful_frac,
            none_8.useful_frac
        );
        // Drop location: with the gate armed the flood is shed at the
        // NIC; without it, it is paid for and then thrown away after
        // demultiplexing (or overruns the ring).
        assert!(
            full_8.drops_admission > full_8.drops_queue_full,
            "{label}: full armor sheds at the NIC: {full_8:?}"
        );
        assert!(
            none_8.drops_queue_full + none_8.drops_interface > 0,
            "{label}: unarmored overload drops after paying for demux: {none_8:?}"
        );
        // The armored tiers actually engaged their machinery.
        assert!(
            full_8.poll_batches > 0 && full_8.rx_mode_switches >= 1,
            "{label}: polling must engage at 8x: {full_8:?}"
        );
    }
    report
}

impl OverloadPoint {
    fn json(&self) -> Json {
        Json::object([
            ("engine", self.engine.into()),
            ("armor", self.armor.into()),
            ("offered_x", Json::Float(self.offered_x, 3)),
            ("offered_pps", self.offered_pps.into()),
            ("wanted_offered", self.wanted_offered.into()),
            ("junk_offered", self.junk_offered.into()),
            ("goodput_pps", Json::Float(self.goodput_pps, 3)),
            ("useful_frac", Json::Float(self.useful_frac, 3)),
            ("demux_frac", Json::Float(self.demux_frac, 3)),
            ("driver_frac", Json::Float(self.driver_frac, 3)),
            ("drops_admission", self.drops_admission.into()),
            ("drops_queue_full", self.drops_queue_full.into()),
            ("drops_interface", self.drops_interface.into()),
            ("drops_no_match", self.drops_no_match.into()),
            ("p99_latency_us", self.p99_latency_us.into()),
            ("poll_batches", self.poll_batches.into()),
            ("rx_mode_switches", self.rx_mode_switches.into()),
            ("backpressure_signals", self.backpressure_signals.into()),
        ])
    }
}

impl OverloadReport {
    /// The campaign's artifact: every cell, and per engine the 8× over 1×
    /// goodput with full armor and with none.
    pub fn json(&self) -> Json {
        let signature = ENGINES.map(|(_, label)| {
            let ratio = |armor: &str| {
                let eight = self.cell(label, armor, 8.0).goodput_pps;
                Json::Float(eight / self.cell(label, armor, 1.0).goodput_pps, 3)
            };
            let ratios = Json::object([
                ("full_8x_over_1x", ratio("full")),
                ("none_8x_over_1x", ratio("none")),
            ]);
            (label, ratios)
        });
        Json::object([
            ("experiment", "overload".into()),
            (
                "workload",
                "protected high-priority stream plus a best-effort flood, offered at 0.5x-8x \
                 of unarmored receive capacity, across armor tiers {none, polling, shedding, \
                 full} and demux engines {dtree, geom}"
                    .into(),
            ),
            ("seed", self.seed.into()),
            ("capacity_pps", self.capacity_pps.into()),
            ("wanted_pps", self.wanted_pps.into()),
            ("duration_ms", (self.duration.as_nanos() / 1_000_000).into()),
            ("rows", Json::array(&self.rows, OverloadPoint::json)),
            ("signature", Json::object(signature)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_are_deterministic() {
        let d = SimDuration::from_millis(300);
        let a = run_cell(DemuxEngine::Geom, "geom", Armor::Full, 4.0, d, DEFAULT_SEED);
        let b = run_cell(DemuxEngine::Geom, "geom", Armor::Full, 4.0, d, DEFAULT_SEED);
        assert_eq!(a.goodput_pps, b.goodput_pps);
        assert_eq!(a.drops_admission, b.drops_admission);
        assert_eq!(a.p99_latency_us, b.p99_latency_us);
    }

    #[test]
    fn smoke_sweep_holds_every_invariant() {
        let report = sweep(true, DEFAULT_SEED);
        // 2 engines x 4 tiers x 2 multiples.
        assert_eq!(report.rows.len(), 16);
    }
}
