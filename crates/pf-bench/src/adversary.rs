//! Adversarial-traffic campaign: `BENCH_adversary.json`.
//!
//! The overload campaign (`overload.rs`) proves the receive path
//! survives a *dumb* flood. This campaign attacks the armor itself:
//! every scenario is built from a probabilistic traffic state machine
//! ([`TrafficMachine`], maybenot-style: states × sampled dwell timers ×
//! weighted transitions, deterministic from a seed) shaped against a
//! specific mechanism, and every family runs twice — once against the
//! *undefended* build of that mechanism, once against the hardened one:
//!
//! * **rss_collision** — flows precomputed against the well-known
//!   default RSS key so the whole flood steers onto the victim flow's
//!   queue; hardened by a per-boot keyed hash
//!   ([`RssConfig::keyed`]).
//! * **mimicry** — a flood wearing a protected flow's admission
//!   signature, so the gate classifies it as protected and the junk
//!   quota never touches it; hardened by signature re-selection under
//!   unmatched-admit pressure ([`AdmissionConfig::mimicry_threshold`]).
//! * **quota_gaming** — on/off bursts tuned to the token bucket's full
//!   refill period, so every burst finds a full bank and slams the demux
//!   path while the *average* rate stays inside quota; hardened by
//!   keyed refill jitter ([`AdmissionConfig::refill_jitter_key`]).
//! * **geom_bomb** — a wide-overlap range population plus probe traffic
//!   stabbing the point every interval covers, making candidate
//!   evaluation dominate; hardened by the priority-pruned candidate cap
//!   ([`World::set_geom_candidate_cap`]).
//! * **monitor_evasion** — traffic shaped to satisfy a lenient endpoint
//!   but violate the monitor's stricter approximation of it (plus
//!   padding, which honestly does *not* help the evader against
//!   word-offset filters); hardened by capturing with the endpoint's
//!   own predicate ([`pf_monitor::capture::covering_filter`]).
//!
//! Every claimed collapse and every claimed recovery is a
//! sweep-internal `assert!`, so a zero exit *is* the campaign's proof:
//! the undefended row measurably degrades, the hardened row holds
//! goodput (or capture coverage) at ≥ 0.95 under the same offered load.

use crate::json::Json;
use crate::overload::{capacity_pps, wanted_pps, BENCH_ARMOR, NIC_RING, WANTED_SOCK};
use crate::report::p99_us;
use pf_filter::program::{Assembler, FilterProgram};
use pf_filter::samples;
use pf_filter::word::BinaryOp;
use pf_kernel::app::App;
use pf_kernel::types::{Fd, PortConfig, ReadError, ReadMode, RecvPacket};
use pf_kernel::world::{ProcCtx, World};
use pf_kernel::{AdmissionConfig, AdmissionQuota, DemuxEngine, RssConfig};
use pf_net::frame;
use pf_net::medium::Medium;
use pf_net::segment::FaultModel;
use pf_sim::cost::CostModel;
use pf_sim::rng::SplitMix64;
use pf_sim::time::{SimDuration, SimTime};
use pf_sim::SimClock;

/// Default campaign seed (the value the committed artifact was produced
/// under); `--seed` overrides it.
pub const DEFAULT_SEED: u64 = 0xAD5E_7A11;

// ---------------------------------------------------------------------------
// The workload state-machine DSL.
// ---------------------------------------------------------------------------

/// A sampled delay. All sampling draws from the machine's own
/// [`SplitMix64`] stream, so a schedule is a pure function of
/// (machine, seed, window).
#[derive(Debug, Clone, Copy)]
pub enum Delay {
    /// Exactly `ns` nanoseconds.
    Fixed(u64),
    /// Uniform in `[lo, hi]` nanoseconds.
    UniformNs {
        /// Inclusive lower bound.
        lo: u64,
        /// Inclusive upper bound.
        hi: u64,
    },
}

impl Delay {
    fn sample(self, rng: &mut SplitMix64) -> u64 {
        match self {
            Delay::Fixed(ns) => ns,
            Delay::UniformNs { lo, hi } => lo + rng.next_u64() % (hi - lo + 1),
        }
    }
}

/// How an emitting state picks among its frame variants.
#[derive(Debug, Clone, Copy)]
pub enum Pick {
    /// Round-robin through the variants (collision sets, shaped cycles).
    Cycle,
    /// Sample a variant uniformly per emission.
    Random,
}

/// What a state emits when entered.
#[derive(Debug, Clone)]
pub struct Emit {
    /// The frame variants this state can send.
    pub variants: Vec<Vec<u8>>,
    /// Variant selection policy.
    pub pick: Pick,
    /// Frames emitted back-to-back per entry (1 = a single frame).
    pub burst: u64,
    /// Spacing between frames inside the burst.
    pub gap: Delay,
    /// Zero-pad every emitted frame to this length
    /// ([`frame::pad`], clamped to the medium's maximum).
    pub(crate) pad_to: Option<usize>,
    /// Overwrite the last 8 bytes of every emitted frame with its
    /// emission time (big-endian nanoseconds), so a consumer can
    /// measure honest end-to-end latency including ring residency.
    /// The variant must reserve an 8-byte tail. Applied *after*
    /// padding.
    pub(crate) stamp_tail: bool,
}

impl Emit {
    /// A steady single-variant emitter with no padding or stamping.
    pub fn steady(frame: Vec<u8>) -> Self {
        Emit {
            variants: vec![frame],
            pick: Pick::Cycle,
            burst: 1,
            gap: Delay::Fixed(0),
            pad_to: None,
            stamp_tail: false,
        }
    }
}

/// One machine state: an optional emission on entry, a sampled dwell,
/// and weighted transitions.
#[derive(Debug, Clone)]
pub struct State {
    /// Label (for debugging and docs; unused by the walker).
    pub name: &'static str,
    /// Emission on entry, if any.
    pub emit: Option<Emit>,
    /// Sampled time spent in the state before transitioning.
    pub(crate) dwell: Delay,
    /// `(weight, next-state-index)`; sampled by weight. Empty = self-loop.
    pub next: Vec<(u32, usize)>,
}

/// A probabilistic traffic state machine (maybenot-style): the
/// adversary families are expressed as machines, so bursts, quiet
/// phases, collision cycling, and shaping are all the same small
/// vocabulary — and every schedule is deterministic from its seed.
#[derive(Debug, Clone)]
pub struct TrafficMachine {
    /// The states; the walk starts at index 0.
    pub states: Vec<State>,
}

impl TrafficMachine {
    /// Walks the machine over `[start, end)` and returns the emitted,
    /// timestamped frames in emission order.
    pub fn schedule(
        &self,
        seed: u64,
        medium: &Medium,
        start: SimTime,
        end: SimTime,
    ) -> Vec<(SimTime, Vec<u8>)> {
        assert!(!self.states.is_empty(), "machine needs at least one state");
        let mut rng = SplitMix64::new(seed);
        let mut out = Vec::new();
        let mut cursors = vec![0usize; self.states.len()];
        let mut si = 0usize;
        let mut t = start.0;
        while t < end.0 {
            let s = &self.states[si];
            if let Some(e) = &s.emit {
                for b in 0..e.burst {
                    if t >= end.0 {
                        break;
                    }
                    let vi = match e.pick {
                        Pick::Cycle => {
                            let c = cursors[si];
                            cursors[si] = (c + 1) % e.variants.len();
                            c
                        }
                        Pick::Random => (rng.next_u64() % e.variants.len() as u64) as usize,
                    };
                    let mut f = e.variants[vi].clone();
                    if let Some(len) = e.pad_to {
                        frame::pad(medium, &mut f, len);
                    }
                    if e.stamp_tail {
                        let n = f.len();
                        assert!(n >= 8, "stamp_tail needs an 8-byte tail");
                        f[n - 8..].copy_from_slice(&t.to_be_bytes());
                    }
                    out.push((SimTime(t), f));
                    if b + 1 < e.burst {
                        t += e.gap.sample(&mut rng);
                    }
                }
            }
            t += s.dwell.sample(&mut rng);
            si = if s.next.is_empty() {
                si
            } else {
                let total: u64 = s.next.iter().map(|(w, _)| u64::from(*w)).sum();
                let mut roll = rng.next_u64() % total.max(1);
                let mut chosen = s.next[0].1;
                for (w, n) in &s.next {
                    if roll < u64::from(*w) {
                        chosen = *n;
                        break;
                    }
                    roll -= u64::from(*w);
                }
                chosen
            };
        }
        out
    }
}

/// A single-state machine emitting `frame` every `interval_ns`, with a
/// small sampled phase jitter so concurrent streams interleave rather
/// than collide on identical instants.
pub(crate) fn steady_stream(frame: Vec<u8>, interval_ns: u64) -> TrafficMachine {
    TrafficMachine {
        states: vec![State {
            name: "stream",
            emit: Some(Emit::steady(frame)),
            dwell: Delay::UniformNs {
                lo: interval_ns.saturating_sub(interval_ns / 16).max(1),
                hi: interval_ns + interval_ns / 16,
            },
            next: Vec::new(),
        }],
    }
}

// ---------------------------------------------------------------------------
// Shared measurement plumbing.
// ---------------------------------------------------------------------------

/// One family × mode cell.
#[derive(Debug, Clone, Copy)]
pub struct AdversaryPoint {
    /// Adversary family label.
    pub family: &'static str,
    /// `"undefended"` or `"hardened"`.
    pub mode: &'static str,
    /// Wanted (protected) frames offered.
    pub(crate) wanted_offered: u64,
    /// Attack frames offered.
    pub(crate) attack_offered: u64,
    /// Wanted frames delivered over wanted frames offered (for
    /// `monitor_evasion`: capture coverage — captured over seen by the
    /// endpoint).
    pub(crate) goodput_ratio: f64,
    /// p99 end-to-end (emission → consumption) latency of the wanted
    /// stream, µs; 0 where the family measures coverage instead.
    pub(crate) p99_latency_us: u64,
    /// Frames shed by quota at the admission gate.
    pub drops_admission: u64,
    /// Frames dropped at the receive ring.
    pub drops_interface: u64,
    /// Frames dropped at a full port queue after demux.
    pub drops_queue_full: u64,
    /// Mimic frames shed after gate re-signature.
    pub drops_mimicry_shed: u64,
    /// Gate signature re-selections.
    pub(crate) gate_resignatures: u64,
    /// Geom candidates pruned by the candidate cap.
    pub candidates_capped: u64,
}

impl AdversaryPoint {
    fn zeroed(family: &'static str, mode: &'static str) -> Self {
        AdversaryPoint {
            family,
            mode,
            wanted_offered: 0,
            attack_offered: 0,
            goodput_ratio: 0.0,
            p99_latency_us: 0,
            drops_admission: 0,
            drops_interface: 0,
            drops_queue_full: 0,
            drops_mimicry_shed: 0,
            gate_resignatures: 0,
            candidates_capped: 0,
        }
    }
}

/// The wanted stream's consumer (and each reader of the mc campaign): one
/// filter, read in batches, per-packet compute, end-to-end latency
/// recovered from the frame's stamped tail.
pub(crate) struct AdvConsumer {
    filter: FilterProgram,
    /// Packets read.
    pub(crate) got: u64,
    /// Emission → read latency of each stamped packet, ns.
    pub(crate) latencies_ns: Vec<u64>,
}

impl AdvConsumer {
    pub(crate) fn new(filter: FilterProgram) -> Self {
        AdvConsumer {
            filter,
            got: 0,
            latencies_ns: Vec::new(),
        }
    }
}

/// Per-packet application cost of consuming one wanted packet.
const CONSUME: SimDuration = SimDuration::from_micros(200);

impl App for AdvConsumer {
    fn start(&mut self, k: &mut ProcCtx<'_>) {
        let fd = k.pf_open();
        assert!(k.pf_set_filter(fd, self.filter.clone()));
        k.pf_configure(
            fd,
            PortConfig {
                read_mode: ReadMode::Batch,
                max_queue: 64,
                ..Default::default()
            },
        );
        k.pf_read(fd);
    }

    fn on_packets(&mut self, fd: Fd, packets: Vec<RecvPacket>, k: &mut ProcCtx<'_>) {
        let now = k.now().0;
        for p in &packets {
            let n = p.bytes.len();
            if n >= 8 {
                let sent = u64::from_be_bytes(p.bytes[n - 8..].try_into().unwrap());
                if sent > 0 && sent <= now {
                    self.latencies_ns.push(now - sent);
                }
            }
        }
        self.got += packets.len() as u64;
        k.compute("user:consume", CONSUME.times(packets.len() as u64));
        k.pf_read(fd);
    }

    fn on_read_error(&mut self, fd: Fd, _err: ReadError, k: &mut ProcCtx<'_>) {
        k.pf_read(fd);
    }
}

/// A port owner that binds filters and never reads: surviving traffic
/// piles up and drops after demultiplexing — the cost the adversary
/// wants the kernel to keep paying.
struct MultiSink {
    filters: Vec<FilterProgram>,
    quota: Option<AdmissionQuota>,
}

impl App for MultiSink {
    fn start(&mut self, k: &mut ProcCtx<'_>) {
        for f in &self.filters {
            let fd = k.pf_open();
            assert!(k.pf_set_filter(fd, f.clone()));
            k.pf_configure(
                fd,
                PortConfig {
                    max_queue: 64,
                    ..Default::default()
                },
            );
            if self.quota.is_some() {
                k.pf_set_quota(fd, self.quota);
            }
        }
    }
}

/// A wanted-stream frame addressed to the bench host, with an 8-byte
/// tail reserved for the emission stamp.
fn wanted_frame() -> Vec<u8> {
    let mut f = samples::pup_packet_3mb_with_data(2, 1, 0, WANTED_SOCK, 1, &[0u8; 8]);
    f[0] = 0x0B;
    f[1] = 0x0A;
    f
}

/// An attack frame to socket `sock` with ethertype `ethertype`.
fn attack_frame(ethertype: u16, sock: u16) -> Vec<u8> {
    let mut f = samples::pup_packet_3mb(ethertype, 0, sock, 1);
    f[0] = 0x0B;
    f[1] = 0x0A;
    f
}

/// The wanted stream as a machine: steady at [`wanted_pps`], stamped
/// for end-to-end latency.
fn wanted_machine() -> TrafficMachine {
    let mut m = steady_stream(wanted_frame(), 1_000_000_000 / wanted_pps());
    m.states[0].emit.as_mut().unwrap().stamp_tail = true;
    m
}

/// Simulated traffic window per cell.
fn window(smoke: bool) -> SimDuration {
    if smoke {
        SimDuration::from_millis(900)
    } else {
        SimDuration::from_secs(2)
    }
}

/// Builds a single-host world with polling armor (the baseline defenses
/// every family runs under — the adversary's job is to defeat them).
fn armored_world(seed: u64, engine: DemuxEngine) -> (World, pf_kernel::types::HostId) {
    let mut w = World::new(seed);
    let seg = w.add_segment(Medium::experimental_3mb(), FaultModel::default());
    let host = w.add_host("bob", seg, 0x0B, CostModel::microvax_ii());
    w.set_nic_capacity(host, NIC_RING);
    w.set_demux_engine(host, engine);
    w.set_overload_armor(host, Some(BENCH_ARMOR));
    (w, host)
}

/// Injects a machine's schedule into `host`, returning the frame count.
fn inject_machine(
    w: &mut World,
    host: pf_kernel::types::HostId,
    m: &TrafficMachine,
    seed: u64,
    start: SimTime,
    end: SimTime,
) -> u64 {
    let sched = m.schedule(seed, &Medium::experimental_3mb(), start, end);
    let n = sched.len() as u64;
    for (t, f) in sched {
        w.inject_frame(host, f, t);
    }
    n
}

// ---------------------------------------------------------------------------
// Family: mimicry.
// ---------------------------------------------------------------------------

/// Mimicry flood: frames wearing the protected flow's admission
/// signature (dst-socket word == 35) but failing the rest of its filter
/// (wrong ethertype), at 4× capacity. Undefended, the gate classifies
/// every mimic as protected traffic — the junk quota never applies —
/// and the kernel pays full demux for a flood that matches nothing.
fn run_mimicry(hardened: bool, smoke: bool, seed: u64) -> AdversaryPoint {
    let (mut w, host) = armored_world(seed ^ 0x3131, DemuxEngine::Geom);
    w.set_admission_control(
        host,
        Some(AdmissionConfig {
            mimicry_threshold: hardened.then_some(48),
            ..Default::default()
        }),
    );
    let consumer = w.spawn(
        host,
        Box::new(AdvConsumer::new(samples::pup_socket_filter(
            200,
            0,
            WANTED_SOCK,
        ))),
    );

    let attack_pps = 4 * capacity_pps();
    let mimic = steady_stream(attack_frame(9, WANTED_SOCK), 1_000_000_000 / attack_pps);
    let start = SimTime(1_000_000);
    let traffic_end = SimTime(start.0 + window(smoke).as_nanos());
    let drain_end = SimTime(traffic_end.0 + 600_000_000);
    let wanted_offered = inject_machine(&mut w, host, &wanted_machine(), seed, start, traffic_end);
    let attack_offered = inject_machine(&mut w, host, &mimic, seed ^ 0xA77A, start, traffic_end);
    w.run_until(drain_end);

    let app = w.app_ref::<AdvConsumer>(host, consumer).expect("consumer");
    let c = w.counters(host);
    AdversaryPoint {
        wanted_offered,
        attack_offered,
        goodput_ratio: app.got as f64 / wanted_offered as f64,
        p99_latency_us: p99_us(app.latencies_ns.clone()),
        drops_admission: c.drops_admission,
        drops_interface: c.drops_interface,
        drops_queue_full: c.drops_queue_full,
        drops_mimicry_shed: c.drops_mimicry_shed,
        gate_resignatures: c.gate_resignature_events,
        ..AdversaryPoint::zeroed("mimicry", if hardened { "hardened" } else { "undefended" })
    }
}

// ---------------------------------------------------------------------------
// Family: quota gaming.
// ---------------------------------------------------------------------------

/// The gamed junk quota: 200 pps sustained, 128-frame burst bank.
const GAMED_QUOTA: AdmissionQuota = AdmissionQuota {
    rate_pps: 200,
    burst: 128,
};

/// Quota gaming: the attacker idles exactly one full-refill period
/// (burst/rate = 640 ms), then fires the whole bank as one burst — the
/// classic bucket admits every frame because the *average* rate is
/// within quota, and each burst stalls the demux path ahead of wanted
/// traffic. The damage is latency, not loss: both rows hold goodput,
/// the undefended row's wanted p99 balloons.
fn run_quota_gaming(hardened: bool, smoke: bool, seed: u64) -> AdversaryPoint {
    let (mut w, host) = armored_world(seed ^ 0x9A3E, DemuxEngine::Geom);
    w.set_admission_control(
        host,
        Some(AdmissionConfig {
            refill_jitter_key: hardened.then_some(seed ^ 0xB17E),
            ..Default::default()
        }),
    );
    let consumer = w.spawn(
        host,
        Box::new(AdvConsumer::new(samples::pup_socket_filter(
            200,
            0,
            WANTED_SOCK,
        ))),
    );
    w.spawn(
        host,
        Box::new(MultiSink {
            filters: vec![samples::pup_socket_filter(10, 0, 99)],
            quota: Some(GAMED_QUOTA),
        }),
    );

    let refill_ns = GAMED_QUOTA.burst * 1_000_000_000 / GAMED_QUOTA.rate_pps;
    let gaming = TrafficMachine {
        states: vec![
            State {
                name: "quiet",
                emit: None,
                dwell: Delay::Fixed(refill_ns),
                next: vec![(1, 1)],
            },
            State {
                name: "burst",
                emit: Some(Emit {
                    variants: vec![attack_frame(2, 99)],
                    pick: Pick::Cycle,
                    burst: GAMED_QUOTA.burst,
                    gap: Delay::Fixed(50_000),
                    pad_to: None,
                    stamp_tail: false,
                }),
                dwell: Delay::Fixed(0),
                next: vec![(1, 0)],
            },
        ],
    };

    // Longer window than the other families: the burst cadence is
    // 640 ms, and the campaign needs several epochs of jittered caps.
    let dur = if smoke {
        SimDuration::from_millis(1_400)
    } else {
        SimDuration::from_secs(4)
    };
    let start = SimTime(1_000_000);
    let traffic_end = SimTime(start.0 + dur.as_nanos());
    let drain_end = SimTime(traffic_end.0 + 600_000_000);
    let wanted_offered = inject_machine(&mut w, host, &wanted_machine(), seed, start, traffic_end);
    let attack_offered = inject_machine(&mut w, host, &gaming, seed ^ 0x0FF0, start, traffic_end);
    w.run_until(drain_end);

    let app = w.app_ref::<AdvConsumer>(host, consumer).expect("consumer");
    let c = w.counters(host);
    AdversaryPoint {
        wanted_offered,
        attack_offered,
        goodput_ratio: app.got as f64 / wanted_offered as f64,
        p99_latency_us: p99_us(app.latencies_ns.clone()),
        drops_admission: c.drops_admission,
        drops_interface: c.drops_interface,
        drops_queue_full: c.drops_queue_full,
        ..AdversaryPoint::zeroed(
            "quota_gaming",
            if hardened { "hardened" } else { "undefended" },
        )
    }
}

// ---------------------------------------------------------------------------
// Family: geom overlap bomb.
// ---------------------------------------------------------------------------

/// Nested range filters in the bomb population; every interval
/// contains the probe socket, so each probe gathers the whole
/// population as candidates.
const BOMB_RANGES: u16 = 64;
/// The socket every bomb interval covers.
const BOMB_SOCK: u16 = 5_000;

/// Geom overlap bomb: a population of nested socket ranges — all
/// covering one point — plus probe traffic stabbing that point, so the
/// undefended geom engine evaluates the whole candidate list per
/// packet and demux cost explodes. Hardened, the priority-pruned
/// candidate cap bounds evaluation per packet and sheds only the
/// lowest-priority wide-overlap members.
fn run_geom_bomb(hardened: bool, smoke: bool, seed: u64) -> AdversaryPoint {
    let (mut w, host) = armored_world(seed ^ 0x6E08, DemuxEngine::Geom);
    if hardened {
        w.set_geom_candidate_cap(host, Some(4));
    }
    let consumer = w.spawn(
        host,
        Box::new(AdvConsumer::new(samples::pup_socket_filter(
            200,
            0,
            WANTED_SOCK,
        ))),
    );
    let ranges = (0..BOMB_RANGES)
        .map(|i| samples::socket_range_filter(10, 4_000 + i, 6_000 - i))
        .collect();
    w.spawn(
        host,
        Box::new(MultiSink {
            filters: ranges,
            quota: None,
        }),
    );

    let attack_pps = (capacity_pps() / 5).max(1);
    let probe = steady_stream(attack_frame(2, BOMB_SOCK), 1_000_000_000 / attack_pps);
    let start = SimTime(1_000_000);
    let traffic_end = SimTime(start.0 + window(smoke).as_nanos());
    let drain_end = SimTime(traffic_end.0 + 600_000_000);
    let wanted_offered = inject_machine(&mut w, host, &wanted_machine(), seed, start, traffic_end);
    let attack_offered = inject_machine(&mut w, host, &probe, seed ^ 0xB0B0, start, traffic_end);
    w.run_until(drain_end);

    let app = w.app_ref::<AdvConsumer>(host, consumer).expect("consumer");
    let c = w.counters(host);
    let capped = w.device(host).engine_stats().geom_candidates_capped;
    AdversaryPoint {
        wanted_offered,
        attack_offered,
        goodput_ratio: app.got as f64 / wanted_offered as f64,
        p99_latency_us: p99_us(app.latencies_ns.clone()),
        drops_interface: c.drops_interface,
        drops_queue_full: c.drops_queue_full,
        candidates_capped: capped,
        ..AdversaryPoint::zeroed(
            "geom_bomb",
            if hardened { "hardened" } else { "undefended" },
        )
    }
}

// ---------------------------------------------------------------------------
// Family: RSS collision flood.
// ---------------------------------------------------------------------------

/// Cores of the host in the collision cell.
const RSS_CORES: usize = 4;
/// Collision flows the adversary precomputes.
const RSS_FLOWS: usize = 48;
/// The packet word the RSS hash covers (the dst-socket word).
const RSS_HASH_WORD: u16 = 8;

/// RSS collision flood: the adversary knows the NIC's well-known
/// default hash key, precomputes [`RSS_FLOWS`] sockets that all steer
/// to the wanted flow's queue, and floods them — the whole attack lands
/// on the core the wanted reader runs on while the other cores idle.
/// Hardened, the per-boot keyed hash invalidates the precomputation and
/// the same flood spreads across all queues.
fn run_rss_collision(hardened: bool, smoke: bool, seed: u64) -> AdversaryPoint {
    let default_rss = RssConfig::multi_queue(RSS_CORES, vec![RSS_HASH_WORD]);
    let victim_queue = default_rss.steer(&wanted_frame());
    // The attacker's precomputation, against the *default* key: sockets
    // whose frames steer onto the victim queue.
    let mut collision = Vec::new();
    let mut sock = 20_000u16;
    while collision.len() < RSS_FLOWS {
        let f = attack_frame(2, sock);
        if sock != WANTED_SOCK && default_rss.steer(&f) == victim_queue {
            collision.push(f);
        }
        sock += 1;
    }

    let rss = if hardened {
        let keyed = RssConfig::keyed(RSS_CORES, vec![RSS_HASH_WORD], seed ^ 0xB007);
        // The defense's whole claim: the precomputed set no longer
        // concentrates. Check it directly against the keyed steering.
        let on_victim = collision
            .iter()
            .filter(|f| keyed.steer(f) == keyed.steer(&wanted_frame()))
            .count();
        assert!(
            on_victim * 2 < collision.len(),
            "keyed RSS must break the collision precomputation \
             ({on_victim}/{} still on the victim queue)",
            collision.len()
        );
        keyed
    } else {
        default_rss
    };

    let (mut w, host) = armored_world(seed ^ 0x5C01, DemuxEngine::Geom);
    w.set_rss(host, rss);
    let consumer = w.spawn(
        host,
        Box::new(AdvConsumer::new(samples::pup_socket_filter(
            200,
            0,
            WANTED_SOCK,
        ))),
    );

    // Three times the single-core anchor: past what one core's poll tick
    // drains (16 frames per 8 ms), within it once spread over 4 queues.
    let attack_pps = capacity_pps() * 3;
    let flood = TrafficMachine {
        states: vec![State {
            name: "collision-flood",
            emit: Some(Emit {
                variants: collision,
                pick: Pick::Cycle,
                burst: 1,
                gap: Delay::Fixed(0),
                pad_to: None,
                stamp_tail: false,
            }),
            dwell: Delay::Fixed(1_000_000_000 / attack_pps),
            next: Vec::new(),
        }],
    };
    let start = SimTime(1_000_000);
    let traffic_end = SimTime(start.0 + window(smoke).as_nanos());
    let drain_end = SimTime(traffic_end.0 + 600_000_000);
    let wanted_offered = inject_machine(&mut w, host, &wanted_machine(), seed, start, traffic_end);
    let attack_offered = inject_machine(&mut w, host, &flood, seed ^ 0xC011, start, traffic_end);
    w.run_until(drain_end);

    let app = w.app_ref::<AdvConsumer>(host, consumer).expect("consumer");
    let c = w.counters(host);
    AdversaryPoint {
        wanted_offered,
        attack_offered,
        goodput_ratio: app.got as f64 / wanted_offered as f64,
        p99_latency_us: p99_us(app.latencies_ns.clone()),
        drops_interface: c.drops_interface,
        drops_queue_full: c.drops_queue_full,
        ..AdversaryPoint::zeroed(
            "rss_collision",
            if hardened { "hardened" } else { "undefended" },
        )
    }
}

// ---------------------------------------------------------------------------
// Family: monitor evasion.
// ---------------------------------------------------------------------------

/// Replays a precomputed schedule onto the wire (one timer per frame),
/// so machine-shaped traffic crosses a real segment and a promiscuous
/// monitor can see it.
struct Replayer {
    schedule: Vec<(SimTime, Vec<u8>)>,
    fd: Option<Fd>,
}

impl App for Replayer {
    fn start(&mut self, k: &mut ProcCtx<'_>) {
        self.fd = Some(k.pf_open());
        let now = k.now();
        for (i, (t, _)) in self.schedule.iter().enumerate() {
            k.set_timer(t.saturating_since(now), i as u64);
        }
    }

    fn on_timer(&mut self, token: u64, k: &mut ProcCtx<'_>) {
        let frame = self.schedule[token as usize].1.clone();
        let _ = k.pf_write(self.fd.unwrap(), &frame);
    }
}

/// Counts packets accepted by one filter (the endpoint under watch).
struct CountApp {
    filter: FilterProgram,
    got: u64,
}

impl App for CountApp {
    fn start(&mut self, k: &mut ProcCtx<'_>) {
        let fd = k.pf_open();
        assert!(k.pf_set_filter(fd, self.filter.clone()));
        k.pf_configure(
            fd,
            PortConfig {
                read_mode: ReadMode::Batch,
                max_queue: 64,
                ..Default::default()
            },
        );
        k.pf_read(fd);
    }

    fn on_packets(&mut self, fd: Fd, packets: Vec<RecvPacket>, k: &mut ProcCtx<'_>) {
        self.got += packets.len() as u64;
        k.pf_read(fd);
    }

    fn on_read_error(&mut self, fd: Fd, _err: ReadError, k: &mut ProcCtx<'_>) {
        k.pf_read(fd);
    }
}

/// Monitor evasion: the endpoint is lenient (checks only the
/// dst-socket word); the classic monitor approximates it with the
/// stricter figure-3-9 filter. A shaping machine cycles through frames
/// that satisfy the endpoint but violate the approximation — wrong
/// ethertype, set socket-hi word, padded — and most of the
/// conversation escapes the trace. The hardened monitor captures with
/// the endpoint's *own* predicate ([`pf_monitor::capture::covering_filter`]),
/// closing the gap by construction. (Padding alone evades nothing:
/// word-offset filters are padding-blind — the evasion is the header
/// shaping. The padded variant is in the cycle to prove exactly that.)
fn run_monitor_evasion(smoke: bool, seed: u64) -> (AdversaryPoint, AdversaryPoint) {
    let endpoint_filter = Assembler::new(10)
        .pushword(samples::WORD_DSTSOCKET_LO)
        .pushlit_op(BinaryOp::Eq, WANTED_SOCK)
        .finish();

    // One state per shaped variant, cycled — the DSL's state walk *is*
    // the shaping schedule.
    let shape = |ethertype: u16, hi: u16| {
        let mut f = samples::pup_packet_3mb(ethertype, hi, WANTED_SOCK, 1);
        f[0] = 0x0B;
        f[1] = 0x0A;
        f
    };
    let dwell = Delay::UniformNs {
        lo: 4_000_000,
        hi: 6_000_000,
    };
    let state = |name, f: Vec<u8>, pad_to: Option<usize>, next: usize| State {
        name,
        emit: Some(Emit {
            variants: vec![f],
            pick: Pick::Cycle,
            burst: 1,
            gap: Delay::Fixed(0),
            pad_to,
            stamp_tail: false,
        }),
        dwell,
        next: vec![(1, next)],
    };
    let shaper = TrafficMachine {
        states: vec![
            state("standard", shape(2, 0), None, 1),
            state("ethertype-shaped", shape(9, 0), None, 2),
            state("sockethi-shaped", shape(2, 7), None, 3),
            state("padded", shape(2, 0), Some(120), 0),
        ],
    };

    let mut w = World::new(seed ^ 0x30_0E);
    let seg = w.add_segment(Medium::experimental_3mb(), FaultModel::default());
    let shaper_host = w.add_host("shaper", seg, 0x0A, CostModel::microvax_ii());
    let endpoint_host = w.add_host("endpoint", seg, 0x0B, CostModel::microvax_ii());
    let monitor_host = w.add_host("monitor", seg, 0x0C, CostModel::microvax_ii());

    let dur = if smoke {
        SimDuration::from_millis(600)
    } else {
        SimDuration::from_secs(2)
    };
    let start = SimTime(1_000_000);
    let end = SimTime(start.0 + dur.as_nanos());
    let schedule = shaper.schedule(seed, &Medium::experimental_3mb(), start, end);
    let offered = schedule.len() as u64;
    w.spawn(shaper_host, Box::new(Replayer { schedule, fd: None }));
    let ep = w.spawn(
        endpoint_host,
        Box::new(CountApp {
            filter: endpoint_filter.clone(),
            got: 0,
        }),
    );
    let strict = w.spawn(
        monitor_host,
        Box::new(pf_monitor::capture::CaptureApp::with_filter(
            samples::pup_socket_filter(200, 0, WANTED_SOCK),
            usize::MAX,
        )),
    );
    let covering = w.spawn(
        monitor_host,
        Box::new(pf_monitor::capture::CaptureApp::with_filter(
            pf_monitor::capture::covering_filter(&endpoint_filter, 190),
            usize::MAX,
        )),
    );
    w.run_until(SimTime(end.0 + 600_000_000));

    let seen = w
        .app_ref::<CountApp>(endpoint_host, ep)
        .expect("endpoint")
        .got;
    assert!(
        seen == offered,
        "every shaped variant must satisfy the endpoint: {seen}/{offered}"
    );
    let coverage = |proc| {
        let cap = w
            .app_ref::<pf_monitor::capture::CaptureApp>(monitor_host, proc)
            .expect("capture");
        cap.captured() as u64
    };
    let point = |mode, captured: u64| AdversaryPoint {
        wanted_offered: seen,
        attack_offered: offered,
        goodput_ratio: captured as f64 / seen.max(1) as f64,
        ..AdversaryPoint::zeroed("monitor_evasion", mode)
    };
    (
        point("undefended", coverage(strict)),
        point("hardened", coverage(covering)),
    )
}

// ---------------------------------------------------------------------------
// The campaign.
// ---------------------------------------------------------------------------

/// The whole campaign.
#[derive(Debug, Clone)]
pub struct AdversaryReport {
    /// Seed every cell derives its streams from.
    pub seed: u64,
    /// Single-core junk service capacity the rates are anchored to.
    pub capacity_pps: u64,
    /// Wanted-stream rate.
    pub(crate) wanted_pps: u64,
    /// Every family × mode cell.
    pub rows: Vec<AdversaryPoint>,
}

impl AdversaryReport {
    /// The row for one cell.
    pub(crate) fn cell(&self, family: &str, mode: &str) -> &AdversaryPoint {
        self.rows
            .iter()
            .find(|r| r.family == family && r.mode == mode)
            .expect("cell swept")
    }
}

/// Runs every family undefended and hardened, asserting the campaign's
/// claims: each undefended row measurably degrades (goodput collapse,
/// coverage collapse, or a latency blow-up with after-demux drops), and
/// each hardened row holds goodput / coverage at ≥ 0.95 under the same
/// offered load with its defense's counters visibly engaged.
pub fn sweep(smoke: bool, seed: u64) -> AdversaryReport {
    let mut rows = Vec::new();
    for hardened in [false, true] {
        rows.push(run_rss_collision(hardened, smoke, seed));
        rows.push(run_mimicry(hardened, smoke, seed));
        rows.push(run_quota_gaming(hardened, smoke, seed));
        rows.push(run_geom_bomb(hardened, smoke, seed));
    }
    let (und, hard) = run_monitor_evasion(smoke, seed);
    rows.push(und);
    rows.push(hard);
    let report = AdversaryReport {
        seed,
        capacity_pps: capacity_pps(),
        wanted_pps: wanted_pps(),
        rows,
    };

    let collapse = |family: &str| {
        let u = report.cell(family, "undefended");
        let h = report.cell(family, "hardened");
        assert!(
            u.goodput_ratio < 0.8,
            "{family}: undefended build must collapse: {u:?}"
        );
        assert!(
            h.goodput_ratio >= 0.95,
            "{family}: hardened build must hold goodput: {h:?}"
        );
    };
    collapse("rss_collision");
    collapse("mimicry");
    collapse("geom_bomb");

    let mim_u = report.cell("mimicry", "undefended");
    let mim_h = report.cell("mimicry", "hardened");
    assert_eq!(
        mim_u.drops_mimicry_shed, 0,
        "the classic gate has no mimic defense: {mim_u:?}"
    );
    assert!(
        mim_h.gate_resignatures >= 1,
        "mimicry pressure must re-signature the gate: {mim_h:?}"
    );
    assert!(
        mim_h.drops_mimicry_shed > mim_h.attack_offered / 2,
        "the re-signatured gate must shed the bulk of the flood: {mim_h:?}"
    );

    let q_u = report.cell("quota_gaming", "undefended");
    let q_h = report.cell("quota_gaming", "hardened");
    assert_eq!(
        q_u.drops_admission, 0,
        "the gamed bucket admits every burst (that is the attack): {q_u:?}"
    );
    assert!(
        q_u.drops_queue_full > 0,
        "the admitted bursts must be paid for and then dropped: {q_u:?}"
    );
    assert!(
        q_h.drops_admission >= q_h.attack_offered / 4,
        "refill jitter must shed a sizable cut of every burst: {q_h:?}"
    );
    for p in [q_u, q_h] {
        assert!(
            p.goodput_ratio >= 0.95,
            "quota gaming damages latency, not delivery: {p:?}"
        );
    }
    assert!(
        q_u.p99_latency_us as f64 > 1.5 * q_h.p99_latency_us as f64,
        "the undefended wanted p99 must balloon versus hardened: \
         {} us vs {} us",
        q_u.p99_latency_us,
        q_h.p99_latency_us
    );

    let g_u = report.cell("geom_bomb", "undefended");
    let g_h = report.cell("geom_bomb", "hardened");
    assert_eq!(g_u.candidates_capped, 0, "no cap, nothing pruned: {g_u:?}");
    assert!(
        g_h.candidates_capped > g_h.attack_offered,
        "the cap must prune candidates on virtually every probe: {g_h:?}"
    );

    let m_u = report.cell("monitor_evasion", "undefended");
    let m_h = report.cell("monitor_evasion", "hardened");
    assert!(
        m_u.goodput_ratio <= 0.6,
        "the strict approximation must miss the shaped variants: {m_u:?}"
    );
    assert!(
        m_h.goodput_ratio >= 0.95,
        "the covering filter must capture the whole conversation: {m_h:?}"
    );

    report
}

impl AdversaryPoint {
    fn json(&self) -> Json {
        Json::object([
            ("family", self.family.into()),
            ("mode", self.mode.into()),
            ("wanted_offered", self.wanted_offered.into()),
            ("attack_offered", self.attack_offered.into()),
            ("goodput_ratio", Json::Float(self.goodput_ratio, 3)),
            ("p99_latency_us", self.p99_latency_us.into()),
            ("drops_admission", self.drops_admission.into()),
            ("drops_interface", self.drops_interface.into()),
            ("drops_queue_full", self.drops_queue_full.into()),
            ("drops_mimicry_shed", self.drops_mimicry_shed.into()),
            ("gate_resignatures", self.gate_resignatures.into()),
            ("candidates_capped", self.candidates_capped.into()),
        ])
    }
}

impl AdversaryReport {
    /// The campaign's artifact: every cell, and per family the undefended
    /// cell beside the hardened one.
    pub fn json(&self) -> Json {
        let families = [
            "rss_collision",
            "mimicry",
            "quota_gaming",
            "geom_bomb",
            "monitor_evasion",
        ];
        let signature = families.map(|family| {
            let u = self.cell(family, "undefended");
            let h = self.cell(family, "hardened");
            let pair = Json::object([
                ("undefended_ratio", Json::Float(u.goodput_ratio, 3)),
                ("hardened_ratio", Json::Float(h.goodput_ratio, 3)),
                ("undefended_p99_us", u.p99_latency_us.into()),
                ("hardened_p99_us", h.p99_latency_us.into()),
            ]);
            (family, pair)
        });
        Json::object([
            ("experiment", "adversary".into()),
            (
                "workload",
                "state-machine-generated hostile flows (RSS collision flood, \
                 admission-signature mimicry, quota-gamed bursts, geom overlap bomb, \
                 monitor-evading shaping), each against the undefended and the hardened \
                 build of the mechanism it targets"
                    .into(),
            ),
            ("seed", self.seed.into()),
            ("capacity_pps", self.capacity_pps.into()),
            ("wanted_pps", self.wanted_pps.into()),
            ("rows", Json::array(&self.rows, AdversaryPoint::json)),
            ("signature", Json::object(signature)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn machine_schedules_are_deterministic() {
        let m = steady_stream(attack_frame(2, 99), 1_000_000);
        let med = Medium::experimental_3mb();
        let a = m.schedule(7, &med, SimTime(0), SimTime(50_000_000));
        let b = m.schedule(7, &med, SimTime(0), SimTime(50_000_000));
        assert_eq!(a, b);
        assert!(!a.is_empty());
        let c = m.schedule(8, &med, SimTime(0), SimTime(50_000_000));
        assert_ne!(a, c, "a different seed must shift the jittered timing");
    }

    #[test]
    fn machine_bursts_pad_and_stamp() {
        let base = wanted_frame();
        let m = TrafficMachine {
            states: vec![State {
                name: "burst",
                emit: Some(Emit {
                    variants: vec![base.clone()],
                    pick: Pick::Cycle,
                    burst: 5,
                    gap: Delay::Fixed(1_000),
                    pad_to: Some(100),
                    stamp_tail: true,
                }),
                dwell: Delay::Fixed(10_000_000),
                next: Vec::new(),
            }],
        };
        let med = Medium::experimental_3mb();
        let out = m.schedule(3, &med, SimTime(500), SimTime(9_000_000));
        assert_eq!(out.len(), 5, "one burst fits the window");
        for (t, f) in &out {
            assert_eq!(f.len(), 100, "padded to length");
            let stamp = u64::from_be_bytes(f[92..100].try_into().unwrap());
            assert_eq!(stamp, t.0, "tail stamp is the emission time");
            assert_eq!(&f[..base.len() - 8], &base[..base.len() - 8]);
        }
        assert_eq!(out[1].0 .0 - out[0].0 .0, 1_000, "intra-burst gap");
    }

    #[test]
    fn weighted_transitions_visit_both_branches() {
        let m = TrafficMachine {
            states: vec![
                State {
                    name: "root",
                    emit: None,
                    dwell: Delay::Fixed(1_000),
                    next: vec![(1, 1), (1, 2)],
                },
                State {
                    name: "left",
                    emit: Some(Emit::steady(attack_frame(2, 1))),
                    dwell: Delay::Fixed(1_000),
                    next: vec![(1, 0)],
                },
                State {
                    name: "right",
                    emit: Some(Emit::steady(attack_frame(2, 2))),
                    dwell: Delay::Fixed(1_000),
                    next: vec![(1, 0)],
                },
            ],
        };
        let med = Medium::experimental_3mb();
        let out = m.schedule(11, &med, SimTime(0), SimTime(1_000_000));
        let view = |f: &[u8]| u16::from_be_bytes([f[16], f[17]]);
        let lefts = out.iter().filter(|(_, f)| view(f) == 1).count();
        let rights = out.iter().filter(|(_, f)| view(f) == 2).count();
        assert!(lefts > 0 && rights > 0, "{lefts} / {rights}");
    }

    #[test]
    fn cells_are_deterministic() {
        let a = run_quota_gaming(true, true, DEFAULT_SEED);
        let b = run_quota_gaming(true, true, DEFAULT_SEED);
        assert_eq!(a.goodput_ratio, b.goodput_ratio);
        assert_eq!(a.p99_latency_us, b.p99_latency_us);
        assert_eq!(a.drops_admission, b.drops_admission);
    }

    #[test]
    fn smoke_sweep_holds_every_invariant() {
        let report = sweep(true, DEFAULT_SEED);
        // 4 two-row families + monitor evasion's pair.
        assert_eq!(report.rows.len(), 10);
        assert_eq!(report.seed, DEFAULT_SEED);
    }
}
