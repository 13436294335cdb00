//! The multi-core data plane: RSS multi-queue receive, per-core demux
//! workers, and batched filter execution.
//!
//! The paper's demultiplexer runs one frame at a time on one CPU. Every
//! modern fast path scales past that the same way: the NIC hashes each
//! arriving frame's headers and steers it to one of N receive queues
//! (receive-side scaling), one worker core owns each queue, and workers
//! push packets through the classifier in batches so fixed dispatch work
//! amortizes. This module models that pipeline on the `pf-sim` substrate:
//!
//! * [`RssConfig`] — a Toeplitz-like hash over configurable header words.
//!   The default single-queue configuration steers every frame to queue 0
//!   without hashing, keeping today's behavior bit-identical.
//! * [`McPipeline`] — per-core demux workers, each owning one receive
//!   queue, one [`PfDevice`] holding its shard of the filter population,
//!   its own [`pf_sim::Counters`], and its own interrupt→polling overload
//!   armor state (the PR-5 armor, per core). Costs are charged to a
//!   [`CpuPool`]; cross-core handoffs and work stealing pay explicit
//!   `mc_wakeup`/`queue_steal` costs.
//! * Batched execution — workers drain their queue in runs of at most
//!   `batch` frames and pay the fixed `batch_dispatch` cost once per run
//!   instead of a per-frame setup. Batching is a property of the cost
//!   model: each frame of a run still goes through [`PfDevice::demux`].
//!
//! # Filter sharding soundness
//!
//! A filter is *pinned* to one core only when every RSS-hashed word is
//! provably pinned to a single value by the filter: the syntactic
//! admission signature (`crate::device::admission_signature`) supplies
//! `packet[word] == literal` for leading equality tests, and the compiled
//! code's required-interval analysis (`pf_ir::geom::required_constraints`)
//! supplies the same witness for equality guards buried in multi-word or
//! range programs (a required interval with `lo == hi`). When each hashed
//! word carries such a witness, every accepting packet hashes identically
//! and steers to the one queue whose core holds the filter. Packets too
//! short to carry a required word cannot match the filter either (an
//! out-of-packet load rejects), so short frames are safe wherever they
//! land. A *range* constraint on a hashed word never pins (different
//! in-range values hash to different queues), and any filter that fails
//! the test is *replicated* to every core instead: correctness never
//! depends on the hash, only the pinning optimization does.

use crate::device::{admission_signature, DemuxEngine, PfDevice, PortIdx};
use crate::types::{Fd, ProcId};
use crate::world::OverloadConfig;
use pf_filter::packet::PacketView;
use pf_filter::program::FilterProgram;
use pf_ir::geom::required_constraints;
use pf_sim::clock::SimClock;
use pf_sim::cost::CostModel;
use pf_sim::counters::Counters;
use pf_sim::cpu::CpuPool;
use pf_sim::time::{SimDuration, SimTime};
use std::collections::VecDeque;

/// Default RSS hash key (an arbitrary odd 64-bit constant; reproducible
/// runs want a fixed default, and any key gives the same steering
/// invariants).
pub const DEFAULT_RSS_KEY: u64 = 0x6d5a_6d5a_6d5a_6d5a;

/// Receive-side-scaling configuration: which header words the NIC hashes
/// and how many receive queues it steers across.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RssConfig {
    /// Number of receive queues (= worker cores). Must be at least 1.
    pub queues: usize,
    /// The 16-bit packet words hashed (e.g. the destination-socket word).
    /// Words past the end of a short frame are skipped, never faulted.
    pub hash_words: Vec<u16>,
    /// Hash key; two NICs with the same key steer identically.
    pub key: u64,
}

impl RssConfig {
    /// The default front end: one queue, no hashing — behavior identical
    /// to the single-core receive path.
    pub fn single_queue() -> Self {
        RssConfig {
            queues: 1,
            hash_words: Vec::new(),
            key: DEFAULT_RSS_KEY,
        }
    }

    /// A multi-queue front end hashing the given header words.
    pub fn multi_queue(queues: usize, hash_words: Vec<u16>) -> Self {
        assert!(queues >= 1, "need at least one receive queue");
        RssConfig {
            queues,
            hash_words,
            key: DEFAULT_RSS_KEY,
        }
    }

    /// A multi-queue front end whose hash key is derived from a per-boot
    /// seed (forced odd, like the default key). With the well-known
    /// default key an adversary can precompute flows that all steer to
    /// one queue and pile a whole flood onto one core; a keyed boot seed
    /// makes the queue assignment unpredictable from outside the host.
    /// Single-queue steering ([`RssConfig::steer`]) never consults the
    /// key, so `queues == 1` stays bit-identical to the classic path
    /// under any seed.
    pub fn keyed(queues: usize, hash_words: Vec<u16>, boot_seed: u64) -> Self {
        let mut cfg = Self::multi_queue(queues, hash_words);
        cfg.key = pf_sim::rng::SplitMix64::new(boot_seed).next_u64() | 1;
        cfg
    }

    /// The Toeplitz-like hash over the configured words of `frame`.
    ///
    /// Each present word is mixed with a key schedule derived by rotating
    /// the key per position; a final avalanche spreads the result so
    /// `hash % queues` is well distributed even for small word values.
    /// Missing words (short/truncated frames) are skipped — the hash is
    /// total over arbitrary byte strings and never faults.
    pub fn hash(&self, frame: &[u8]) -> u64 {
        let view = PacketView::new(frame);
        let mut h: u64 = self.key;
        for (i, &w) in self.hash_words.iter().enumerate() {
            let Some(v) = view.word(usize::from(w)) else {
                continue;
            };
            let k = self.key.rotate_left(((i * 17) % 64) as u32) | 1;
            h ^= (u64::from(v).wrapping_add(0x9E37_79B9_7F4A_7C15)).wrapping_mul(k);
            h = h.rotate_left(29);
        }
        // splitmix64 avalanche.
        h ^= h >> 30;
        h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h ^= h >> 27;
        h = h.wrapping_mul(0x94D0_49BB_1331_11EB);
        h ^ (h >> 31)
    }

    /// The receive queue `frame` steers to. Single-queue configurations
    /// return 0 without hashing.
    pub fn steer(&self, frame: &[u8]) -> usize {
        if self.queues == 1 {
            return 0;
        }
        (self.hash(frame) % self.queues as u64) as usize
    }
}

/// Configuration of one multi-core receive pipeline.
#[derive(Debug, Clone)]
pub struct McConfig {
    /// Frames demultiplexed per batched engine dispatch. Must be ≥ 1.
    pub batch: usize,
    /// The demultiplexing engine every core's device runs.
    pub engine: DemuxEngine,
    /// The NIC front end; one worker core per receive queue.
    pub rss: RssConfig,
    /// Per-core receive-ring capacity (arrivals beyond it drop at the
    /// interface, exactly like the single-core NIC ring).
    pub nic_ring: usize,
    /// Per-core interrupt→polling overload armor; `None` leaves every
    /// core on per-packet interrupts.
    pub armor: Option<OverloadConfig>,
    /// Idle cores steal the back half of the deepest sibling queue when
    /// it holds at least `2 × batch` frames.
    pub steal: bool,
    /// Application cost to consume one delivered packet, charged on the
    /// owning port's home core.
    pub consume: SimDuration,
    /// The cost model all cores share.
    pub costs: CostModel,
}

impl McConfig {
    /// A single-core, batch-1 pipeline — the configuration that mirrors
    /// the classic one-CPU receive path.
    pub fn single_core(engine: DemuxEngine) -> Self {
        McConfig {
            batch: 1,
            engine,
            rss: RssConfig::single_queue(),
            nic_ring: 256,
            armor: None,
            steal: false,
            consume: SimDuration::from_micros(200),
            costs: CostModel::microvax_ii(),
        }
    }
}

/// How one registered filter was placed across the worker cores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Sound to pin: lives on exactly one core's device.
    Pinned {
        /// The owning core.
        core: usize,
    },
    /// Replicated to every core's device; deliveries consume on core 0.
    Replicated,
}

/// A frame waiting in a core's receive ring.
#[derive(Debug)]
struct Frame {
    bytes: Vec<u8>,
    arrival: SimTime,
    /// The core whose filter shard must judge this frame (differs from
    /// the holding core only for stolen frames).
    origin: usize,
}

/// Per-core worker state.
#[derive(Debug)]
struct Worker {
    device: PfDevice,
    ring: VecDeque<Frame>,
    /// Pending arrivals for this queue, time-ordered (index into the run's
    /// steered arrival list).
    arrivals: VecDeque<(SimTime, Vec<u8>)>,
    /// Cross-core deliveries awaiting consumption here: `(sent, arrival)`
    /// per packet, in no particular order (senders run on their own
    /// clocks). Deferred rather than charged immediately so a sender
    /// running ahead in virtual time cannot push this core's `free_at`
    /// into the future past its own queued work — the home core consumes
    /// a handoff when its own clock reaches `sent`.
    handoffs: Vec<(SimTime, SimTime)>,
    counters: Counters,
    polling: bool,
    /// Earliest time the next poll tick may fire.
    poll_due: SimTime,
}

/// Results of one [`McPipeline::run`].
#[derive(Debug, Clone)]
pub struct McReport {
    /// Per-core counters.
    pub per_core: Vec<Counters>,
    /// Element-wise sum of `per_core`.
    pub total: Counters,
    /// When the last core went idle (makespan of the run).
    pub finish: SimTime,
    /// Per-core CPU busy time.
    pub busy: Vec<SimDuration>,
    /// Delivery latencies (completion − arrival), one per delivered
    /// packet, in delivery order.
    pub latencies: Vec<SimDuration>,
}

impl McReport {
    /// The `q`-quantile (0.0–1.0) of delivery latency, by nearest-rank.
    pub fn latency_quantile(&self, q: f64) -> SimDuration {
        if self.latencies.is_empty() {
            return SimDuration::ZERO;
        }
        let mut sorted = self.latencies.clone();
        sorted.sort();
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1;
        sorted[rank]
    }
}

/// The multi-core receive pipeline: N queues, N workers, batched demux.
///
/// Register filters with [`McPipeline::add_filter`], then drive a
/// time-ordered arrival schedule through [`McPipeline::run`]. The
/// pipeline is a deterministic offline model: workers interleave in
/// virtual-time order (ties to the lowest core), so identical inputs give
/// identical reports.
#[derive(Debug)]
pub struct McPipeline {
    config: McConfig,
    pool: CpuPool,
    workers: Vec<Worker>,
    /// How each registered filter was placed, by handle.
    ports: Vec<Placement>,
    /// Home core per (core, device-port): where deliveries consume.
    home: Vec<Vec<usize>>,
    latencies: Vec<SimDuration>,
    /// Latest scheduled arrival (the time-ordering assertion).
    last_arrival: SimTime,
    /// Virtual time of the last serviced step (the pipeline's clock).
    clock: SimTime,
}

impl McPipeline {
    /// Builds the pipeline: one worker, device, and queue per core.
    pub fn new(config: McConfig) -> Self {
        let cores = config.rss.queues;
        assert!(cores >= 1, "need at least one receive queue");
        assert!(config.batch >= 1, "batch must be at least 1");
        let workers = (0..cores)
            .map(|_| Worker {
                device: PfDevice::builder().engine(config.engine).build(),
                ring: VecDeque::new(),
                arrivals: VecDeque::new(),
                handoffs: Vec::new(),
                counters: Counters::new(),
                polling: false,
                poll_due: SimTime::ZERO,
            })
            .collect();
        McPipeline {
            pool: CpuPool::new(cores),
            home: vec![Vec::new(); cores],
            workers,
            ports: Vec::new(),
            latencies: Vec::new(),
            last_arrival: SimTime::ZERO,
            clock: SimTime::ZERO,
            config,
        }
    }

    /// Registers a filter, pinning it to the core its flow steers to when
    /// that is provably sound (see the module docs) and replicating it to
    /// every core otherwise. Returns the port handle.
    pub fn add_filter(&mut self, program: FilterProgram) -> usize {
        let handle = self.ports.len();
        let placement = self.placement_of(&program);
        match placement {
            Placement::Pinned { core } => {
                let idx = self.open_on(core, handle, &program);
                self.home[core].resize(idx + 1, core);
                self.home[core][idx] = core;
            }
            Placement::Replicated => {
                for core in 0..self.workers.len() {
                    let idx = self.open_on(core, handle, &program);
                    self.home[core].resize(idx + 1, 0);
                    self.home[core][idx] = 0;
                }
            }
        }
        self.ports.push(placement);
        handle
    }

    /// Where `program` may live: pinned iff every RSS-hashed word is
    /// provably pinned to one value by the filter (see the module docs).
    fn placement_of(&self, program: &FilterProgram) -> Placement {
        if self.workers.len() == 1 {
            return Placement::Pinned { core: 0 };
        }
        if self.config.rss.hash_words.is_empty() {
            return Placement::Replicated;
        }
        // Each hashed word needs an equality witness: the syntactic
        // admission signature, or an exact required interval from the
        // compiled code's analysis (which also finds equality guards
        // buried in multi-word and range programs). A *range* constraint
        // never pins — different in-range values hash apart.
        let syntactic = admission_signature(program);
        let required = required_constraints(program);
        let exact_literal = |w: u16| -> Option<u16> {
            if let Some((sw, lit)) = syntactic {
                if u16::from(sw) == w {
                    return Some(lit);
                }
            }
            required
                .iter()
                .find(|iv| iv.word == w && iv.is_exact())
                .map(|iv| iv.lo)
        };
        let mut pins: Vec<(u16, u16)> = Vec::new();
        for &w in &self.config.rss.hash_words {
            match exact_literal(w) {
                Some(lit) => pins.push((w, lit)),
                None => return Placement::Replicated,
            }
        }
        // Steer a synthetic frame carrying every hashed word's pinned
        // literal; all matching packets hash identically (the hash reads
        // only those words, and a matching packet must carry each).
        let max_word = pins.iter().map(|&(w, _)| w).max().expect("non-empty");
        let len = 2 * (usize::from(max_word) + 1);
        let mut synthetic = vec![0u8; len];
        for (w, lit) in pins {
            let off = 2 * usize::from(w);
            synthetic[off] = (lit >> 8) as u8;
            synthetic[off + 1] = (lit & 0xFF) as u8;
        }
        let core = self.config.rss.steer(&synthetic);
        Placement::Pinned { core }
    }

    fn open_on(&mut self, core: usize, handle: usize, program: &FilterProgram) -> PortIdx {
        let d = &mut self.workers[core].device;
        let idx = d.open((ProcId(handle), Fd(core)));
        d.set_filter(idx, program.clone());
        idx
    }

    /// How a registered filter was placed.
    pub fn placement(&self, handle: usize) -> Placement {
        self.ports[handle]
    }

    /// Per-core counters (after a run).
    pub fn counters(&self, core: usize) -> &Counters {
        &self.workers[core].counters
    }

    /// The worker cores' CPUs: per-core busy time and per-routine profile.
    pub fn pool(&self) -> &CpuPool {
        &self.pool
    }

    /// Schedules one frame's arrival at the NIC front end. The hardware
    /// steers it to its receive queue immediately (DMA costs nothing on a
    /// CPU; the hash cost is charged to the owning core at service time).
    /// Arrival times must be non-decreasing across calls.
    pub fn schedule_arrival(&mut self, t: SimTime, frame: Vec<u8>) {
        assert!(t >= self.last_arrival, "arrivals must be time-ordered");
        self.last_arrival = t;
        let q = self.config.rss.steer(&frame);
        if q != 0 {
            self.workers[q].counters.frames_steered += 1;
        }
        self.workers[q].arrivals.push_back((t, frame));
    }

    /// Schedules a time-ordered batch of arrivals.
    pub fn schedule_arrivals(&mut self, arrivals: impl IntoIterator<Item = (SimTime, Vec<u8>)>) {
        for (t, frame) in arrivals {
            self.schedule_arrival(t, frame);
        }
    }

    /// Snapshot of per-core counters, busy time, makespan, and delivery
    /// latencies accumulated so far.
    pub fn report(&self) -> McReport {
        let per_core: Vec<Counters> = self.workers.iter().map(|w| w.counters).collect();
        let total = per_core.iter().fold(Counters::new(), |sum, &c| sum + c);
        let finish = (0..self.workers.len())
            .map(|c| self.pool.core(c).free_at())
            .max()
            .unwrap_or(SimTime::ZERO);
        McReport {
            total,
            finish,
            busy: (0..self.workers.len())
                .map(|c| self.pool.core(c).busy_time())
                .collect(),
            latencies: self.latencies.clone(),
            per_core,
        }
    }

    /// The next `(time, core)` to service: the earliest core with frames
    /// ringed or arriving or handoffs to consume (ties to the lowest
    /// core), or an idle thief when stealing is enabled and a sibling
    /// queue is deep enough.
    fn next_step(&self) -> Option<(SimTime, usize)> {
        let mut best: Option<(SimTime, usize)> = None;
        for c in 0..self.workers.len() {
            let w = &self.workers[c];
            let mut base = if !w.ring.is_empty() {
                Some(w.ring.front().map(|f| f.arrival).unwrap_or(SimTime::ZERO))
            } else {
                w.arrivals.front().map(|&(t, _)| t)
            };
            if let Some(&(sent, _)) = w.handoffs.iter().min_by_key(|h| h.0) {
                base = Some(base.map_or(sent, |b| b.min(sent)));
            }
            let t = match base {
                Some(b) => {
                    let mut t = b.max(self.pool.core(c).free_at());
                    if w.polling && !w.ring.is_empty() {
                        t = t.max(w.poll_due);
                    }
                    t
                }
                None => {
                    if !self.config.steal || self.steal_victim(c).is_none() {
                        continue;
                    }
                    let v = self.steal_victim(c).expect("just checked");
                    let newest = self.workers[v]
                        .ring
                        .back()
                        .map(|f| f.arrival)
                        .unwrap_or(SimTime::ZERO);
                    newest.max(self.pool.core(c).free_at())
                }
            };
            if best.map(|(bt, bc)| (t, c) < (bt, bc)).unwrap_or(true) {
                best = Some((t, c));
            }
        }
        best
    }

    /// The deepest sibling ring deep enough to be worth stealing from:
    /// two batches' worth, capped at eight frames so large-batch
    /// configurations still rebalance the tail of a burst instead of
    /// leaving the last core to drain its queue alone.
    fn steal_victim(&self, thief: usize) -> Option<usize> {
        let trigger = (2 * self.config.batch).min(8);
        (0..self.workers.len())
            .filter(|&v| v != thief)
            .filter(|&v| self.workers[v].ring.len() >= trigger)
            .max_by_key(|&v| (self.workers[v].ring.len(), std::cmp::Reverse(v)))
    }

    /// One service step for `core` at time `t`: consume ripe handoffs,
    /// admit arrivals, run armor transitions, drain one batch through the
    /// device, deliver.
    fn service_step(&mut self, core: usize, t: SimTime) {
        self.consume_handoffs(core, t);
        self.admit_arrivals(core, t);
        if self.workers[core].ring.is_empty() {
            if self.config.steal {
                self.steal_into(core, t);
            }
            if self.workers[core].ring.is_empty() {
                return;
            }
        }

        // Drain budget and driver charges, per receive mode.
        let armor = self.config.armor;
        let polling = self.workers[core].polling;
        let take = if polling {
            armor.map(|a| a.poll_batch).unwrap_or(self.config.batch)
        } else {
            self.config.batch
        }
        .min(self.workers[core].ring.len())
        .max(1);
        let mut frames: Vec<Frame> = Vec::with_capacity(take);
        for _ in 0..take {
            frames.push(self.workers[core].ring.pop_front().expect("take <= len"));
        }
        let costs = &self.config.costs;
        if polling {
            self.workers[core].counters.poll_batches += 1;
            self.pool.charge(core, "driver:poll", t, costs.poll_batch);
            for _ in &frames {
                self.pool
                    .charge(core, "driver:poll", t, costs.poll_per_packet);
            }
            if let Some(a) = armor {
                self.workers[core].poll_due = t + a.poll_interval;
                if self.workers[core].ring.len() <= a.lo_watermark {
                    self.workers[core].polling = false;
                    self.workers[core].counters.rx_mode_switches += 1;
                }
            }
        } else {
            for f in &frames {
                let c = costs.driver_rx_cost(f.bytes.len());
                self.pool.charge(core, "driver:rx", t, c);
            }
        }
        // RSS hash: charged per frame on multi-queue front ends only.
        if self.config.rss.queues > 1 {
            for _ in &frames {
                self.pool.charge(core, "driver:rss", t, costs.rss_hash);
            }
        }

        // Batched demultiplexing: group the run by origin device (stolen
        // frames are judged by their origin core's shard), one batched
        // dispatch per group. Groups never exceed the engine batch size
        // even when the polling drain takes more frames per tick — the
        // poll batch is a driver drain knob, not an engine one.
        let mut i = 0;
        while i < frames.len() {
            let origin = frames[i].origin;
            let mut j = i + 1;
            while j < frames.len() && j - i < self.config.batch && frames[j].origin == origin {
                j += 1;
            }
            let group = &frames[i..j];
            self.demux_group(core, origin, group, t);
            i = j;
        }
    }

    /// Consumes every cross-core handoff whose `sent` time this core's
    /// clock has reached, charging the application cost here and
    /// recording the arrival → consumption latency.
    fn consume_handoffs(&mut self, core: usize, t: SimTime) {
        let mut ripe: Vec<(SimTime, SimTime)> = Vec::new();
        self.workers[core].handoffs.retain(|&(sent, arrival)| {
            if sent <= t {
                ripe.push((sent, arrival));
                false
            } else {
                true
            }
        });
        ripe.sort();
        for (sent, arrival) in ripe {
            let done = self
                .pool
                .charge(core, "app:consume", sent.max(t), self.config.consume);
            self.latencies.push(done.saturating_since(arrival));
        }
    }

    /// Moves ripe arrivals into the ring, dropping on overflow and
    /// running the armor's hi-watermark transition.
    fn admit_arrivals(&mut self, core: usize, t: SimTime) {
        let nic_ring = self.config.nic_ring;
        let armor = self.config.armor;
        let mut switched = false;
        {
            let w = &mut self.workers[core];
            while let Some(&(at, _)) = w.arrivals.front() {
                if at > t {
                    break;
                }
                let (arrival, bytes) = w.arrivals.pop_front().expect("peeked");
                w.counters.packets_received += 1;
                if w.ring.len() >= nic_ring {
                    w.counters.drops_interface += 1;
                    continue;
                }
                w.ring.push_back(Frame {
                    bytes,
                    arrival,
                    origin: core,
                });
                if let Some(a) = armor {
                    if !w.polling && w.ring.len() >= a.hi_watermark {
                        w.polling = true;
                        w.counters.rx_mode_switches += 1;
                        switched = true;
                    }
                }
            }
        }
        if switched {
            if let Some(a) = armor {
                self.workers[core].poll_due = t + a.poll_interval;
            }
        }
    }

    /// Steals the back half of the deepest eligible sibling queue into
    /// `core`'s ring, in arrival order. A frame keeps the origin
    /// `admit_arrivals` gave it however often it is stolen: the victim's
    /// ring may itself hold stolen frames, and only the shard the NIC
    /// steered a frame to is sure to hold its pinned filter.
    fn steal_into(&mut self, core: usize, t: SimTime) {
        let Some(victim) = self.steal_victim(core) else {
            return;
        };
        let n = self.workers[victim].ring.len() / 2;
        if n == 0 {
            return;
        }
        self.pool
            .charge(core, "mc:steal", t, self.config.costs.queue_steal);
        self.workers[core].counters.queue_steals += 1;
        let keep = self.workers[victim].ring.len() - n;
        let stolen = self.workers[victim].ring.split_off(keep);
        self.workers[core].ring.extend(stolen);
    }

    /// Demultiplexes one same-origin group on `core`'s CPU through the
    /// origin shard's device, charging the batched engine costs and
    /// delivering accepts.
    fn demux_group(&mut self, core: usize, origin: usize, group: &[Frame], t: SimTime) {
        let costs = &self.config.costs;
        let device = &mut self.workers[origin].device;
        // The whole group's outcomes are held at once: each is a copy of
        // the one the device lends.
        let outs: Vec<_> = group
            .iter()
            .map(|f| device.demux(&f.bytes).clone())
            .collect();
        self.workers[core].counters.batches_executed += 1;
        let engine = self.config.engine;
        // One dispatch launch per batched group for the compiled engines;
        // the sequential engine applies filters one at a time and gains
        // nothing from batching.
        if engine != DemuxEngine::Sequential {
            self.pool
                .charge(core, "pf:dispatch", t, costs.batch_dispatch);
        }
        // Decision-table shapes or geom tuples: one read for the group,
        // after all of it is demultiplexed (a budget quarantine inside a
        // demux can change the tuple count).
        let probes = self.workers[origin].device.index_probes();
        for (f, out) in group.iter().zip(&outs) {
            // Marginal per-frame engine cost: no per-frame set-up, the
            // dispatch above covers it.
            let pool = &mut self.pool;
            out.charge_engine_work(
                engine,
                probes,
                costs,
                false,
                &mut self.workers[core].counters,
                |routine, cost| {
                    pool.charge(core, routine, t, cost);
                },
            );
            if out.accepted.is_empty() {
                self.workers[core].counters.drops_no_match += 1;
                continue;
            }
            for &idx in &out.accepted {
                let done = self.pool.charge(core, "pf:input", t, costs.pf_bookkeeping);
                let home = self.home[origin][idx];
                if home == core {
                    let completion =
                        self.pool
                            .charge(core, "app:consume", done, self.config.consume);
                    self.latencies.push(completion.saturating_since(f.arrival));
                } else {
                    // Hand off to the consumer's core: IPI + cache-line
                    // bounce on the sender now; the home core consumes the
                    // handoff once *its own* clock reaches the send time
                    // (charging it immediately at the sender's clock would
                    // teleport the home core's `free_at` into the future
                    // and starve its own queue).
                    let sent = self.pool.charge(core, "mc:wakeup", done, costs.mc_wakeup);
                    self.workers[core].counters.cross_core_wakeups += 1;
                    self.workers[home].handoffs.push((sent, f.arrival));
                }
                self.workers[core].counters.packets_delivered += 1;
            }
        }
    }
}

/// The unified run-loop: scheduled arrivals drain through worker service
/// steps in virtual-time order (earliest ready core, ties to the lowest),
/// exactly as the old inherent drive loop did. Drive with
/// `SimClock::run(&mut pl)` (or plain `pl.run()` now that the deprecated
/// inherent shim is gone).
impl SimClock for McPipeline {
    fn now(&self) -> SimTime {
        self.clock
    }

    fn next_event_time(&mut self) -> Option<SimTime> {
        self.next_step().map(|(t, _)| t)
    }

    fn step(&mut self) -> bool {
        match self.next_step() {
            Some((t, core)) => {
                self.clock = self.clock.max(t);
                self.service_step(core, t);
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pf_filter::samples;

    /// The destination-socket low word of a 3 Mb PUP frame (what
    /// `samples::pup_socket_filter(_, 0, sock)` tests).
    const SOCK_WORD: u16 = 8;

    fn pkt(sock: u16) -> Vec<u8> {
        samples::pup_packet_3mb(2, 0, sock, 1)
    }

    fn steady_arrivals(n: usize, gap_us: u64, socks: &[u16]) -> Vec<(SimTime, Vec<u8>)> {
        (0..n)
            .map(|i| {
                (
                    SimTime(i as u64 * gap_us * 1_000),
                    pkt(socks[i % socks.len()]),
                )
            })
            .collect()
    }

    #[test]
    fn rss_same_flow_same_queue() {
        let rss = RssConfig::multi_queue(4, vec![SOCK_WORD]);
        for sock in 0..200u16 {
            let a = rss.steer(&pkt(sock));
            // Same socket, different payloads/lengths: identical steering.
            let mut other = pkt(sock);
            other.extend_from_slice(&[0xAA; 37]);
            assert_eq!(a, rss.steer(&other), "sock {sock}");
            assert!(a < 4);
        }
    }

    #[test]
    fn rss_spreads_flows() {
        let rss = RssConfig::multi_queue(4, vec![SOCK_WORD]);
        let mut hit = [false; 4];
        for sock in 0..64u16 {
            hit[rss.steer(&pkt(sock))] = true;
        }
        assert!(hit.iter().all(|&h| h), "64 flows must cover 4 queues");
    }

    #[test]
    fn rss_short_frames_never_panic() {
        let rss = RssConfig::multi_queue(8, vec![0, SOCK_WORD, 300]);
        for len in 0..32usize {
            let frame = vec![0x5Au8; len];
            assert!(rss.steer(&frame) < 8);
        }
        assert!(rss.steer(&[]) < 8);
    }

    #[test]
    fn rss_single_queue_is_identity() {
        let rss = RssConfig::single_queue();
        for sock in 0..50u16 {
            assert_eq!(rss.steer(&pkt(sock)), 0);
        }
        assert_eq!(rss.steer(&[]), 0);
    }

    #[test]
    fn rss_keyed_seeds_change_steering() {
        let a = RssConfig::keyed(4, vec![SOCK_WORD], 0x0A);
        let b = RssConfig::keyed(4, vec![SOCK_WORD], 0x0B);
        assert_ne!(a.key, b.key, "distinct boot seeds derive distinct keys");
        let flows: Vec<Vec<u8>> = (0..64u16).map(|s| pkt(100 + s)).collect();
        let steer_a: Vec<usize> = flows.iter().map(|f| a.steer(f)).collect();
        let steer_b: Vec<usize> = flows.iter().map(|f| b.steer(f)).collect();
        assert_ne!(steer_a, steer_b, "same flow set, two seeds: new steering");
        // Each seed is still a valid, flow-stable front end.
        for (f, &q) in flows.iter().zip(&steer_a) {
            assert!(q < 4);
            assert_eq!(a.steer(f), q);
        }
    }

    #[test]
    fn rss_keyed_single_queue_is_bit_identical_to_classic() {
        // The key is never consulted at queues == 1: steering matches the
        // classic single-queue path for every frame, any seed.
        let classic = RssConfig::single_queue();
        for seed in [0u64, 1, 0xDEAD_BEEF, u64::MAX] {
            let keyed = RssConfig::keyed(1, vec![SOCK_WORD], seed);
            for sock in 0..50u16 {
                assert_eq!(keyed.steer(&pkt(sock)), classic.steer(&pkt(sock)));
            }
            assert_eq!(keyed.steer(&[]), 0);
        }
    }

    #[test]
    fn signature_filters_pin_to_their_flow_queue() {
        let mut cfg = McConfig::single_core(DemuxEngine::Geom);
        cfg.rss = RssConfig::multi_queue(4, vec![SOCK_WORD]);
        let mut pl = McPipeline::new(cfg.clone());
        for sock in 100..120u16 {
            let h = pl.add_filter(samples::pup_socket_filter(10, 0, sock));
            let Placement::Pinned { core } = pl.placement(h) else {
                panic!("socket filter must pin");
            };
            assert_eq!(core, cfg.rss.steer(&pkt(sock)), "sock {sock}");
        }
        // A filter without a signature on the hashed word replicates.
        let h = pl.add_filter(samples::accept_all(1));
        assert_eq!(pl.placement(h), Placement::Replicated);
    }

    #[test]
    fn interval_analysis_pins_multi_word_and_guarded_filters() {
        // Hash *both* socket words: the syntactic signature covers only
        // the low word, but the high word's `PUSHZERO CAND` is an exact
        // required constraint, so the compiled analysis pins the pair —
        // the old single-word rule had to replicate this.
        let mut cfg = McConfig::single_core(DemuxEngine::Geom);
        cfg.rss = RssConfig::multi_queue(4, vec![u16::from(samples::WORD_DSTSOCKET_HI), SOCK_WORD]);
        let mut pl = McPipeline::new(cfg.clone());
        let h = pl.add_filter(samples::pup_socket_filter(10, 0, 35));
        let Placement::Pinned { core } = pl.placement(h) else {
            panic!("multi-word equality filter must pin");
        };
        assert_eq!(core, cfg.rss.steer(&pkt(35)));

        // A range filter pins when the hash reads its equality *guard*
        // (every accepted packet carries ethertype == 2)…
        let mut cfg = McConfig::single_core(DemuxEngine::Geom);
        cfg.rss = RssConfig::multi_queue(4, vec![u16::from(samples::WORD_ETHERTYPE)]);
        let mut pl = McPipeline::new(cfg.clone());
        let h = pl.add_filter(samples::socket_range_filter(10, 100, 200));
        let Placement::Pinned { core } = pl.placement(h) else {
            panic!("ethertype guard is an exact required constraint");
        };
        assert_eq!(core, cfg.rss.steer(&pkt(150)));

        // …but never when the hash reads the *ranged* word: different
        // in-range values hash to different queues.
        let mut cfg = McConfig::single_core(DemuxEngine::Geom);
        cfg.rss = RssConfig::multi_queue(4, vec![SOCK_WORD]);
        let mut pl = McPipeline::new(cfg);
        let h = pl.add_filter(samples::socket_range_filter(10, 100, 200));
        assert_eq!(pl.placement(h), Placement::Replicated);
    }

    #[test]
    fn geom_engine_delivers_range_flows_across_cores() {
        // Port-range filters replicate under a socket-word hash; the geom
        // engine's delivery totals must match the single-core run anyway.
        let ranges: [(u16, u16); 4] = [(100, 120), (200, 260), (300, 310), (400, 480)];
        let socks: Vec<u16> = vec![105, 115, 210, 250, 305, 410, 470, 999];
        let arrivals = steady_arrivals(240, 3_000, &socks);
        let mut totals = Vec::new();
        for cores in [1usize, 4] {
            let mut cfg = McConfig::single_core(DemuxEngine::Geom);
            cfg.rss = if cores == 1 {
                RssConfig::single_queue()
            } else {
                RssConfig::multi_queue(cores, vec![SOCK_WORD])
            };
            let mut pl = McPipeline::new(cfg);
            for &(lo, hi) in &ranges {
                pl.add_filter(samples::socket_range_filter(10, lo, hi));
            }
            pl.schedule_arrivals(arrivals.clone());
            SimClock::run(&mut pl);
            let report = pl.report();
            totals.push(report.total);
        }
        assert_eq!(totals[0].packets_delivered, totals[1].packets_delivered);
        assert_eq!(totals[0].drops_no_match, totals[1].drops_no_match);
        assert!(totals[0].drops_no_match > 0, "sock 999 matches nothing");
    }

    #[test]
    fn four_cores_deliver_what_one_core_delivers() {
        // Satellite invariant: per-core counters sum to the single-core
        // totals at a rate every configuration keeps up with.
        let socks: Vec<u16> = (100..116).collect();
        let arrivals = steady_arrivals(400, 3_000, &socks);
        let mut totals = Vec::new();
        for cores in [1usize, 4] {
            let mut cfg = McConfig::single_core(DemuxEngine::Geom);
            cfg.rss = if cores == 1 {
                RssConfig::single_queue()
            } else {
                RssConfig::multi_queue(cores, vec![SOCK_WORD])
            };
            let mut pl = McPipeline::new(cfg);
            for &s in &socks {
                pl.add_filter(samples::pup_socket_filter(10, 0, s));
            }
            pl.schedule_arrivals(arrivals.clone());
            SimClock::run(&mut pl);
            let report = pl.report();
            totals.push(report.total);
        }
        assert_eq!(totals[0].packets_received, 400);
        assert_eq!(totals[1].packets_received, 400);
        assert_eq!(totals[0].packets_delivered, totals[1].packets_delivered);
        assert_eq!(totals[0].drops_no_match, totals[1].drops_no_match);
        assert_eq!(totals[0].drops_interface, 0);
        assert_eq!(totals[1].drops_interface, 0);
        assert!(totals[1].frames_steered > 0, "multi-queue must steer");
    }

    #[test]
    fn batch_one_geom_cost_matches_legacy_curve() {
        // dispatch(= filter_setup) + instr × filter_instr must equal the
        // classic filter_cost(ops) charge (beside the one tuple probe):
        // batching is an amortization, not a discount, so batch=1
        // reproduces single-frame costs.
        let cfg = McConfig::single_core(DemuxEngine::Geom);
        let costs = cfg.costs.clone();
        let mut pl = McPipeline::new(cfg);
        pl.add_filter(samples::pup_socket_filter(10, 0, 35));
        pl.schedule_arrival(SimTime::ZERO, pkt(35));
        SimClock::run(&mut pl);
        let report = pl.report();
        assert_eq!(report.total.packets_delivered, 1);
        let p = pl.pool.core(0).profiler();
        let ops = report.total.filter_instructions;
        let charged = p.stats("pf:dispatch").time + p.stats("pf:geom").time;
        assert_eq!(charged, costs.filter_cost(ops as u32) + costs.geom_probe);
    }

    #[test]
    fn batching_amortizes_dispatch() {
        // 64 frames at batch 32 must charge far fewer dispatch launches
        // than at batch 1 (2 vs 64), with identical delivery counts.
        let socks: Vec<u16> = (100..108).collect();
        let mut results = Vec::new();
        for batch in [1usize, 32] {
            let mut cfg = McConfig::single_core(DemuxEngine::Geom);
            cfg.batch = batch;
            let mut pl = McPipeline::new(cfg);
            for &s in &socks {
                pl.add_filter(samples::pup_socket_filter(10, 0, s));
            }
            // Burst arrival: everything at t=0, so full batches form.
            let arrivals: Vec<(SimTime, Vec<u8>)> = (0..64)
                .map(|i| (SimTime::ZERO, pkt(socks[i % 8])))
                .collect();
            pl.schedule_arrivals(arrivals);
            SimClock::run(&mut pl);
            let report = pl.report();
            let dispatches = pl.pool.core(0).profiler().stats("pf:dispatch").calls;
            results.push((report.total.packets_delivered, dispatches, report.finish));
        }
        assert_eq!(results[0].0, 64);
        assert_eq!(results[1].0, 64);
        assert_eq!(results[0].1, 64, "batch=1: one dispatch per frame");
        assert_eq!(results[1].1, 2, "batch=32: two dispatches for 64");
        assert!(results[1].2 < results[0].2, "batching must finish sooner");
    }

    #[test]
    fn per_core_armor_engages_under_flood() {
        let mut cfg = McConfig::single_core(DemuxEngine::Geom);
        cfg.rss = RssConfig::multi_queue(2, vec![SOCK_WORD]);
        cfg.armor = Some(OverloadConfig::default());
        let mut pl = McPipeline::new(cfg);
        for sock in 100..104u16 {
            pl.add_filter(samples::pup_socket_filter(10, 0, sock));
        }
        // Flood: 2000 frames back-to-back (1 µs apart — far beyond
        // capacity), all four flows.
        let socks: Vec<u16> = (100..104).collect();
        let arrivals = steady_arrivals(2000, 1, &socks);
        pl.schedule_arrivals(arrivals);
        SimClock::run(&mut pl);
        let report = pl.report();
        assert!(report.total.rx_mode_switches >= 2, "both cores switch");
        assert!(report.total.poll_batches > 0);
        assert_eq!(
            report.total.packets_received, 2000,
            "every arrival accounted"
        );
        // Flood is absorbed: delivered + dropped = received.
        let accounted = report.total.packets_delivered
            + report.total.drops_interface
            + report.total.drops_no_match;
        assert_eq!(accounted, 2000);
    }

    #[test]
    fn cross_core_wakeups_charged_for_replicated_consumers() {
        // A replicated wildcard is homed on core 0; junk frames steered
        // to core 1 must pay a cross-core wakeup to deliver.
        let mut cfg = McConfig::single_core(DemuxEngine::Geom);
        cfg.rss = RssConfig::multi_queue(2, vec![SOCK_WORD]);
        let mut pl = McPipeline::new(cfg.clone());
        pl.add_filter(samples::accept_all(1));
        let mut arrivals = Vec::new();
        let mut t = 0u64;
        let mut off_core0 = 0;
        for sock in 0..32u16 {
            if cfg.rss.steer(&pkt(sock)) != 0 {
                off_core0 += 1;
            }
            arrivals.push((SimTime(t), pkt(sock)));
            t += 5_000_000;
        }
        assert!(off_core0 > 0, "some flows must steer off core 0");
        pl.schedule_arrivals(arrivals);
        SimClock::run(&mut pl);
        let report = pl.report();
        assert_eq!(report.total.packets_delivered, 32);
        assert_eq!(report.total.cross_core_wakeups, off_core0);
    }

    #[test]
    fn idle_core_steals_from_a_deep_sibling() {
        // All flows chosen to steer to one queue, their filters pinned
        // there too — the other core is fully idle and must steal.
        let mut cfg = McConfig::single_core(DemuxEngine::Geom);
        cfg.batch = 4;
        cfg.steal = true;
        cfg.rss = RssConfig::multi_queue(2, vec![SOCK_WORD]);
        let socks: Vec<u16> = (100..300)
            .filter(|&s| cfg.rss.steer(&pkt(s)) == 1)
            .take(4)
            .collect();
        assert_eq!(socks.len(), 4, "need four flows steering to queue 1");
        let mut pl = McPipeline::new(cfg);
        for &s in &socks {
            pl.add_filter(samples::pup_socket_filter(10, 0, s));
        }
        let arrivals = steady_arrivals(64, 1, &socks);
        pl.schedule_arrivals(arrivals);
        SimClock::run(&mut pl);
        let report = pl.report();
        assert!(report.total.queue_steals > 0, "idle core must steal");
        assert_eq!(report.total.packets_delivered, 64, "no frame lost");
        // Both cores did real demux work.
        assert!(report.busy[0] > SimDuration::ZERO);
        assert!(report.busy[1] > SimDuration::ZERO);
        // Stolen frames were judged by the origin shard, so every frame
        // still found its pinned filter.
        assert_eq!(report.total.drops_no_match, 0);
    }

    #[test]
    fn latency_quantiles_are_ordered() {
        let mut cfg = McConfig::single_core(DemuxEngine::Geom);
        cfg.batch = 8;
        let mut pl = McPipeline::new(cfg);
        pl.add_filter(samples::pup_socket_filter(10, 0, 35));
        let arrivals = steady_arrivals(100, 100, &[35]);
        pl.schedule_arrivals(arrivals);
        SimClock::run(&mut pl);
        let report = pl.report();
        assert_eq!(report.latencies.len(), 100);
        let p50 = report.latency_quantile(0.5);
        let p99 = report.latency_quantile(0.99);
        assert!(p50 <= p99);
        assert!(p99 > SimDuration::ZERO);
    }

    /// Migrated from the removed `McPipeline::run` shim's pinning test:
    /// the schedule/run/report triple is deterministic — two identical
    /// pipelines driven through `SimClock::run` produce identical
    /// reports (what the shim equivalence used to witness).
    #[test]
    fn schedule_then_clock_run_is_deterministic() {
        let arrivals = steady_arrivals(50, 10, &[35]);
        let drive = |arrivals: Vec<(SimTime, Vec<u8>)>| {
            let mut pl = McPipeline::new(McConfig::single_core(DemuxEngine::Geom));
            pl.add_filter(samples::pup_socket_filter(10, 0, 35));
            pl.schedule_arrivals(arrivals);
            SimClock::run(&mut pl);
            pl.report()
        };
        let a = drive(arrivals.clone());
        let b = drive(arrivals);
        assert_eq!(a.total, b.total);
        assert_eq!(a.finish, b.finish);
        assert_eq!(a.latencies, b.latencies);
        assert_eq!(a.latencies.len(), 50, "every arrival was delivered");
    }
}
