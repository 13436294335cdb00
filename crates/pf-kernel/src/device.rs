//! The packet-filter pseudo-device: ports, filters, and the
//! priority-ordered demultiplexing loop of figure 4-1.
//!
//! ```text
//! Accepted := false;
//! for priority := MaxPriority downto MinPriority do
//!     for i := FirstFilter[priority] to LastFilter[priority] do
//!         if Apply(Filter[i], rcvd-pkt) = MATCH then
//!             Deliver(Port[i], rcvd-pkt);
//!             Accepted := true;
//!         end;
//!     end;
//! end;
//! if not Accepted then Drop(rcvd-pkt);
//! ```
//!
//! (The published loop keeps testing after a match; §3.2 narrows this: a
//! packet accepted by a port is *not* submitted to further filters unless
//! the accepting port set the deliver-to-lower option. This module
//! implements the §3.2 semantics.)
//!
//! Within one priority level the order is unspecified, and "the interpreter
//! may occasionally reorder such filters to place the busier ones first" —
//! implemented here as a periodic stable re-sort by acceptance count.
//!
//! This module is independent of the event loop: it decides *which* ports
//! accept a packet and reports the interpretation work done, and the world
//! model (`crate::world`) turns that into virtual time and queue activity.

use crate::types::{Fd, OverflowPolicy, PortConfig, PortStats, ProcId, RecvPacket};
use pf_filter::dtree::{FilterId, FilterSet};
use pf_filter::error::{RuntimeError, ValidateError};
use pf_filter::form::Form;
use pf_filter::interp::{CheckedInterpreter, EvalStats};
use pf_filter::packet::PacketView;
use pf_filter::program::FilterProgram;
use pf_filter::validate::ValidatedProgram;
use pf_ir::geom::GeomSet;
use pf_sim::cost::CostModel;
use pf_sim::counters::Counters;
use pf_sim::rng::SplitMix64;
use pf_sim::time::{SimDuration, SimTime};
use std::collections::VecDeque;

/// The compiled set behind a non-sequential engine, keyed by port index:
/// the one seam through which the device inserts, removes and evaluates
/// members whichever engine is active. Both order matches by
/// `(priority descending, id)` — the device's own `order` — so a member
/// inserted again keeps its place among its equals.
// One per device, so the spread in variant sizes costs nothing; a `Box`
// would put a pointer chase on the per-packet path.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
enum EngineSet {
    /// The decision table, with the match list of its last evaluation.
    Table(FilterSet, Vec<FilterId>),
    Geom(GeomSet),
}

impl EngineSet {
    /// An empty set for `engine`; `None` for the sequential engine, which
    /// keeps no compiled state.
    fn new(engine: DemuxEngine, geom_cap: Option<usize>) -> Option<Self> {
        Some(match engine {
            DemuxEngine::Sequential => return None,
            DemuxEngine::DecisionTable => EngineSet::Table(FilterSet::new(), Vec::new()),
            DemuxEngine::Geom => {
                let mut set = GeomSet::new();
                set.set_candidate_cap(geom_cap);
                EngineSet::Geom(set)
            }
        })
    }

    /// Inserts a valid program and its form (the device quarantines the
    /// other programs): the bind's one validation and one analysis.
    fn insert(&mut self, id: FilterId, program: ValidatedProgram, form: Form) {
        match self {
            EngineSet::Table(s, _) => s.insert_analysed(id, program.into_program(), form),
            EngineSet::Geom(s) => s.insert_validated(id, program, form),
        }
    }

    /// Removes the member for `id`; `true` if there was one.
    fn remove(&mut self, id: FilterId) -> bool {
        match self {
            EngineSet::Table(s, _) => s.remove(id),
            EngineSet::Geom(s) => s.remove(id),
        }
    }

    /// Ids of every member accepting `packet`, in match order, borrowed
    /// from the set's own scratch; the evaluation work is recorded in
    /// `out`: the decision table's interpreted members as applications,
    /// geom's threaded-code operations in `ir_ops`.
    fn matches(&mut self, packet: PacketView<'_>, out: &mut DemuxOutcome) -> &[FilterId] {
        match self {
            EngineSet::Table(s, hits) => {
                *hits = s.matches_reporting(packet, |id, accepted, stats| {
                    out.applied.push(Application {
                        port: id as PortIdx,
                        accepted,
                        stats,
                    });
                });
                hits
            }
            EngineSet::Geom(s) => {
                let (matches, stats) = s.matches_with_stats(packet);
                out.ir_ops = stats.ops_executed;
                matches
            }
        }
    }

    /// Index probes one packet costs whatever the population: decision-table
    /// shapes or geom tuples.
    fn index_probes(&self) -> usize {
        match self {
            EngineSet::Table(s, _) => s.shape_count(),
            EngineSet::Geom(s) => s.tuple_count(),
        }
    }

    /// Writes the counters this set maintains into `stats`.
    fn fill_stats(&self, stats: &mut EngineStats) {
        match self {
            EngineSet::Table(s, _) => stats.table_shapes = s.shape_count(),
            EngineSet::Geom(s) => {
                stats.geom_tuple_count = s.tuple_count();
                stats.geom_residue = s.residue_len();
                stats.geom_overlaps = s.overlap_count();
                stats.geom_shadows = s.shadow_count();
                stats.geom_candidates_capped = s.candidates_capped();
            }
        }
    }
}

/// How the device matches received packets against the active filters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DemuxEngine {
    /// The paper's production loop (figure 4-1): interpret each filter in
    /// priority order until one accepts.
    #[default]
    Sequential,
    /// §7's proposal: "compile the set of active filters into a decision
    /// table, which should provide the best possible performance" — one
    /// hash probe per filter *shape*, with interpreted fallback for
    /// filters whose form the table cannot fold, charged as the
    /// sequential engine charges an application.
    DecisionTable,
    /// The geometric (tuple-space) classifier: filters compiled through
    /// the `pf-ir` CFG pipeline to threaded code and indexed by the
    /// interval constraints their form requires
    /// (`packet[word] ∈ [lo, hi]`; equality is the degenerate case).
    /// Members keyed on an equality share one hash bucket per joint value
    /// of all their exact words — one probe per distinct word-set — and
    /// members keyed on a range sit in a sparse radix-16 segment tree per
    /// word (an arena walked four bits of the packet word at a time, at
    /// most 5 nodes and no hashing), so port-*range* rules, which have no
    /// equality literal to key on, still demultiplex in
    /// O(#tuples · log U) index work.
    Geom,
}

/// How many demultiplex operations between adaptive re-sorts of
/// equal-priority filters ("occasionally").
pub const REORDER_INTERVAL: u64 = 256;

/// Index of a port within the device.
pub type PortIdx = usize;

/// Why a port's filter is quarantined (served by the checked interpreter
/// instead of being handed to the compiled demultiplexing engines). Both
/// are decided when the filter is bound or the budget set: a program has
/// no branches, so no evaluation runs longer than its static count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuarantineReason {
    /// Bind-time validation rejected the program; the checked interpreter
    /// still evaluates it (short-circuit operators can accept a packet
    /// before reaching the defect), but the compiled engines never see it.
    Validation(ValidateError),
    /// The program's static instruction count exceeds the device's
    /// instruction budget.
    BudgetExceeded,
}

/// What happened when a packet was offered to a port's input queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnqueueOutcome {
    /// The packet was queued; nothing was lost.
    Stored,
    /// The packet was queued after evicting the oldest queued packet
    /// ([`OverflowPolicy::DropOldest`]).
    StoredDroppingOldest,
    /// The queue was full and the arriving packet was dropped
    /// ([`OverflowPolicy::DropTail`]).
    Rejected,
}

/// A token-bucket admission quota: `rate_pps` packets per second
/// sustained, with bursts of up to `burst` packets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionQuota {
    /// Sustained admission rate, packets per second.
    pub rate_pps: u64,
    /// Burst capacity, packets (also the bucket's initial fill).
    pub burst: u64,
}

/// Configuration of the pre-demux admission gate.
///
/// The gate is the cheap first line of overload defense: it classifies an
/// arriving frame with at most one packet-word probe (no filter runs) and
/// sheds best-effort traffic at the NIC when its port's token bucket is
/// empty. Classification uses each filter's *admission signature* — a
/// packet word the filter's form requires to fall in an interval
/// (`packet[word] ∈ [lo, hi]`): the leading `packet[word] == literal`
/// test ([`Form::lead`]: a `CAND`, or a single-test `EQ` program), and
/// for range filters a required atom ([`Form::required`]).
/// Filters without a signature, and packets matching no signature, are
/// never shed at the gate; the filter ladder remains the arbiter for
/// them. Ports at or above [`PROTECTED_PRIORITY`] are admitted
/// unconditionally; every other port draws on its own quota
/// ([`PfDevice::set_port_quota`]) or [`DEFAULT_QUOTA`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AdmissionConfig {
    /// Mimicry defense: after this many gate-admitted frames attributed
    /// to a protected entry matched *no* filter
    /// ([`PfDevice::note_unmatched_admit`]), the entry re-selects its
    /// signature — it starts verifying every other word the protected
    /// filter provably requires, and sheds covered frames that fail the
    /// verification ([`AdmissionVerdict::ShedMimic`]). `None` (the
    /// default) disables re-selection; the gate behaves classically.
    pub mimicry_threshold: Option<u32>,
    /// Quota-gaming defense: a per-boot key that jitters every token
    /// bucket's *accumulation cap* per refill epoch (the cap walks
    /// pseudorandomly in `[burst/8, burst/2]`, keyed by this value, the
    /// port, and the epoch). Steady traffic at or under `rate_pps` is
    /// unaffected; on/off bursts tuned to the full-refill period lose
    /// most of their burst. `None` (the default) keeps the classic
    /// fixed-burst bucket.
    pub refill_jitter_key: Option<u64>,
}

/// Ports whose filter priority is at or above this are *protected*: the
/// admission gate admits their traffic unconditionally. The top quarter of
/// the priority space.
pub const PROTECTED_PRIORITY: u8 = 192;

/// The token bucket of every best-effort port without a quota of its own:
/// generous, so that shedding takes real overload, not a burst.
pub const DEFAULT_QUOTA: AdmissionQuota = AdmissionQuota {
    rate_pps: 2_000,
    burst: 64,
};

/// The admission gate's verdict on one arriving frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionVerdict {
    /// Deliver the frame to the demultiplexer.
    Admit,
    /// Shed the frame at the NIC, charged to the named port's quota.
    Shed {
        /// The best-effort port whose empty bucket shed the frame.
        port: PortIdx,
    },
    /// Shed the frame at the NIC as a signature mimic: it wore a
    /// protected port's (re-selected) admission signature but failed a
    /// word the protected filter provably requires, and no other gate
    /// entry claimed it. Only possible after
    /// [`AdmissionConfig::mimicry_threshold`] triggered a re-selection.
    ShedMimic {
        /// The protected port whose signature the frame mimicked.
        port: PortIdx,
    },
}

/// Micro-tokens per token (integer token-bucket arithmetic stays exact
/// for any rate expressible in packets per second).
const MICRO_TOKENS: u64 = 1_000_000;

/// Micro-tokens `rate_pps` packets per second earn in `elapsed_ns`: in
/// `u64` when the product fits, else in `u128` with the quotient cast to
/// `u64`.
fn micro_tokens_gained(rate_pps: u64, elapsed_ns: u64) -> u64 {
    match rate_pps.checked_mul(elapsed_ns) {
        Some(product) => product / 1_000,
        None => (u128::from(rate_pps) * u128::from(elapsed_ns) / 1_000) as u64,
    }
}

#[derive(Debug, Clone, Copy)]
struct TokenBucket {
    quota: AdmissionQuota,
    micro_tokens: u64,
    last_refill: SimTime,
    /// Refill jitter `(boot key, port salt)`
    /// ([`AdmissionConfig::refill_jitter_key`]); `None` keeps the classic
    /// fixed-burst cap.
    jitter: Option<(u64, u64)>,
}

impl TokenBucket {
    fn new(quota: AdmissionQuota) -> Self {
        TokenBucket {
            quota,
            micro_tokens: quota.burst * MICRO_TOKENS,
            last_refill: SimTime::ZERO,
            jitter: None,
        }
    }

    /// The accumulation cap in effect at `now`: the full burst, or — with
    /// jitter on — a keyed pseudorandom walk over `[burst/8, burst/2]`
    /// (at least one token, never more than `burst`), re-sampled once per
    /// full-refill period. An attacker who knows the quota but not the
    /// boot key cannot predict how much burst any silent period banks.
    fn burst_cap(&self, now: SimTime) -> u64 {
        let Some((key, salt)) = self.jitter else {
            return self.quota.burst;
        };
        let period_ns = (self
            .quota
            .burst
            .saturating_mul(1_000_000_000)
            .checked_div(self.quota.rate_pps.max(1)))
        .unwrap_or(u64::MAX)
        .max(1);
        let epoch = now.as_nanos() / period_ns;
        let lo = (self.quota.burst / 8).max(1).min(self.quota.burst);
        let hi = (self.quota.burst / 2).max(lo);
        lo + SplitMix64::new(key ^ salt.rotate_left(32) ^ epoch).next_u64() % (hi - lo + 1)
    }

    /// Refills for the time since the last call and takes one token if
    /// available.
    fn admit(&mut self, now: SimTime) -> bool {
        let elapsed_ns = now.saturating_since(self.last_refill).as_nanos();
        self.last_refill = now;
        let gained = micro_tokens_gained(self.quota.rate_pps, elapsed_ns);
        self.micro_tokens = (self.micro_tokens.saturating_add(gained))
            .min(self.burst_cap(now).saturating_mul(MICRO_TOKENS));
        if self.micro_tokens >= MICRO_TOKENS {
            self.micro_tokens -= MICRO_TOKENS;
            true
        } else {
            false
        }
    }
}

#[derive(Debug)]
struct GateEntry {
    port: PortIdx,
    word: u8,
    /// Inclusive admitted interval for `packet[word]`; an exact-literal
    /// signature is the degenerate `lo == hi` case.
    lo: u16,
    hi: u16,
    protected: bool,
    bucket: TokenBucket,
    /// Re-selected signature: further `(word, lo, hi)` constraints the
    /// protected filter provably requires, verified before this entry
    /// admits. Empty until mimicry pressure triggers re-selection.
    verify: Vec<(u8, u16, u16)>,
    /// Gate-admitted frames attributed to this entry that matched no
    /// filter — the mimicry-pressure statistic driving re-selection.
    mimicry_misses: u32,
}

#[derive(Debug)]
struct AdmissionState {
    config: AdmissionConfig,
    /// Gate entries in demux (priority) order, one per open port whose
    /// filter has an extractable signature.
    entries: Vec<GateEntry>,
    /// Every such port's candidate signatures, sorted by port index: read
    /// off the filter's form when it is bound, so that a rebuild only
    /// ranks them.
    candidates: Vec<(PortIdx, GateCandidates)>,
}

impl AdmissionState {
    /// Files the candidates port `idx`'s filter offers, read off its
    /// `form`; `None` (the port closed) files none.
    fn file(&mut self, idx: PortIdx, form: Option<&Form>) {
        let offered = form
            .map(|f| {
                (
                    f.lead().map(|l| (l.word as u8, l.lo, l.hi)),
                    admission_candidates(f),
                )
            })
            .filter(|(exact, ranged)| exact.is_some() || !ranged.is_empty());
        match (self.candidates.binary_search_by_key(&idx, |c| c.0), offered) {
            (Ok(at), Some(c)) => self.candidates[at].1 = c,
            (Ok(at), None) => drop(self.candidates.remove(at)),
            (Err(at), Some(c)) => self.candidates.insert(at, (idx, c)),
            (Err(_), None) => {}
        }
    }

    /// Port `idx`'s candidates, if it has any.
    fn candidates_of(&self, idx: PortIdx) -> Option<&GateCandidates> {
        let at = self.candidates.binary_search_by_key(&idx, |c| c.0).ok()?;
        Some(&self.candidates[at].1)
    }
}

/// A filter's candidate *interval* admission signatures: every packet
/// word its form requires to lie in `[lo, hi]` (inclusive) for the filter
/// to accept ([`Form::required`]). Each is a sound shedding witness — a
/// packet the filter accepts must satisfy it — so port-*range* filters,
/// which have no leading equality test ([`Form::lead`]), still get gate
/// entries. Trivial (full-domain) intervals and words outside the gate's
/// one-byte index are dropped.
pub(crate) fn admission_candidates(form: &Form) -> Vec<(u8, u16, u16)> {
    form.required()
        .iter()
        .filter(|iv| iv.word <= u16::from(u8::MAX) && (iv.lo, iv.hi) != (0, u16::MAX))
        .map(|iv| (iv.word as u8, iv.lo, iv.hi))
        .collect()
}

/// One port's gate-key candidates: the form's leading test widened to a
/// `(word, lo, hi)` interval (if any), plus every required interval from
/// [`admission_candidates`].
type GateCandidates = (Option<(u8, u16, u16)>, Vec<(u8, u16, u16)>);

/// A pending blocked read on a port.
#[derive(Debug)]
pub struct PendingRead {
    /// Monotonic generation, so a stale timeout cannot complete a newer
    /// read.
    pub generation: u64,
    /// Handle of the scheduled timeout event, if any.
    pub timeout: Option<pf_sim::queue::EventHandle>,
}

/// One packet-filter port (a minor device a process opened).
#[derive(Debug)]
pub struct Port {
    /// The owning process and its descriptor for this port.
    pub owner: (ProcId, Fd),
    /// The bound filter; a port with no filter accepts nothing.
    pub filter: Option<FilterProgram>,
    /// Port configuration (§3.3).
    pub config: PortConfig,
    /// Queued packets awaiting a read.
    pub queue: VecDeque<RecvPacket>,
    /// The blocked read, if the owner is waiting.
    pub pending: Option<PendingRead>,
    /// Packets dropped because the queue was full (reported to readers).
    pub drops: u64,
    /// Packets this port's filter accepted (the adaptive-reorder "busyness").
    pub accepts: u64,
    /// This port's index: its open order, which breaks ties between equal
    /// priorities on every engine.
    index: PortIdx,
    /// Whether the port is open.
    pub open: bool,
    /// Read-generation counter.
    pub(crate) next_generation: u64,
    /// Why the filter is quarantined, if it is.
    pub quarantined: Option<QuarantineReason>,
    /// Evaluations of this port's filter terminated by the instruction
    /// budget; only a quarantined filter can overrun.
    pub budget_overruns: u64,
    /// Per-port admission-quota override (`None`: the gate's default).
    pub quota: Option<AdmissionQuota>,
    /// Packets classified to this port but shed by the admission gate.
    /// Part of ROADMAP item 2(a)'s drop ledger; read by `tests/fuzz.rs`.
    pub admission_drops: u64,
    /// Whether a backpressure notification is outstanding (set when the
    /// queue crosses `config.backpressure_mark`, re-armed when it drains
    /// below the mark). Maintained by the world model.
    pub(crate) backpressured: bool,
}

impl Port {
    /// A freshly opened port at `index`: no filter, default configuration.
    fn new(owner: (ProcId, Fd), index: PortIdx) -> Self {
        Port {
            owner,
            filter: None,
            config: PortConfig::default(),
            queue: VecDeque::new(),
            pending: None,
            drops: 0,
            accepts: 0,
            index,
            open: true,
            next_generation: 0,
            quarantined: None,
            budget_overruns: 0,
            quota: None,
            admission_drops: 0,
            backpressured: false,
        }
    }

    /// A closed port that never was anybody's: it owns no heap.
    fn closed() -> Self {
        Port {
            open: false,
            ..Port::new((ProcId(0), Fd(0)), 0)
        }
    }

    /// The filter's priority (ports with no filter sort last).
    pub fn priority(&self) -> u8 {
        self.filter.as_ref().map_or(0, |f| f.priority())
    }

    /// The static demux key: priority descending, then the port index.
    fn order_key(&self) -> (core::cmp::Reverse<u8>, PortIdx) {
        (core::cmp::Reverse(self.priority()), self.index)
    }

    /// The filter a compiled set holds for this port: the bound one,
    /// unless it is quarantined.
    fn member_filter(&self) -> Option<&FilterProgram> {
        self.filter.as_ref().filter(|_| self.quarantined.is_none())
    }

    /// Applies the bound filter with the checked interpreter, under the
    /// device's instruction budget if one is set, records the application
    /// in `out` and counts an overrun. Returns whether the filter accepted;
    /// `None` if there is no filter.
    fn apply_checked(
        &mut self,
        budget: Option<u32>,
        packet: PacketView<'_>,
        out: &mut DemuxOutcome,
    ) -> Option<bool> {
        let filter = self.filter.as_ref()?;
        let (accepted, stats) = match budget {
            Some(b) => CheckedInterpreter.eval_budgeted(filter, packet, b),
            None => CheckedInterpreter.eval_with_stats(filter, packet),
        };
        if matches!(stats.error, Some(RuntimeError::BudgetExceeded { .. })) {
            debug_assert!(self.quarantined.is_some(), "an unquarantined overrun");
            out.budget_overruns += 1;
            self.budget_overruns += 1;
        }
        out.applied.push(Application {
            port: self.index,
            accepted,
            stats,
        });
        Some(accepted)
    }

    /// Offers a packet to the input queue, applying the port's
    /// [`OverflowPolicy`] when full. Every overflow increments `drops`,
    /// whichever packet loses.
    pub fn enqueue(&mut self, pkt: RecvPacket) -> EnqueueOutcome {
        if self.queue.len() < self.config.max_queue {
            self.queue.push_back(pkt);
            return EnqueueOutcome::Stored;
        }
        self.drops += 1;
        match self.config.overflow {
            OverflowPolicy::DropTail => EnqueueOutcome::Rejected,
            OverflowPolicy::DropOldest => {
                if self.queue.pop_front().is_none() {
                    // max_queue of zero: nothing to evict, nothing to keep.
                    return EnqueueOutcome::Rejected;
                }
                self.queue.push_back(pkt);
                EnqueueOutcome::StoredDroppingOldest
            }
        }
    }

    /// A status snapshot of this port (§3.3, plus degradation counters).
    pub fn stats(&self) -> PortStats {
        PortStats {
            drops: self.drops,
            accepts: self.accepts,
            queued: self.queue.len(),
            quarantined: self.quarantined.is_some(),
            budget_overruns: self.budget_overruns,
            admission_drops: self.admission_drops,
        }
    }
}

/// Marks a port index whose port has been closed in [`PortTable::slot_of`].
const CLOSED: u32 = u32::MAX;

/// The device's ports, by port index. Indices are handed out in open order
/// and never reused — `order_key` ties on the index, and callers keep
/// tables of their own by port index — but a closed port gives its storage
/// back: the table costs O(open ports) plus four bytes per port ever
/// opened.
#[derive(Debug)]
struct PortTable {
    /// Port index → slot in `slab`, or [`CLOSED`].
    slot_of: Vec<u32>,
    /// The open ports, and vacated slots (which hold a closed port with no
    /// heap of its own) until `free` hands them out again.
    slab: Vec<Port>,
    free: Vec<u32>,
    /// What every closed index answers: not open, no filter, empty queue.
    closed: Port,
}

impl PortTable {
    fn new() -> Self {
        PortTable {
            slot_of: Vec::new(),
            slab: Vec::new(),
            free: Vec::new(),
            closed: Port::closed(),
        }
    }

    /// Opens a port owned by `owner` under the next index and returns it.
    fn open(&mut self, owner: (ProcId, Fd)) -> PortIdx {
        let idx = self.slot_of.len();
        let port = Port::new(owner, idx);
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = port;
                slot
            }
            None => {
                self.slab.push(port);
                (self.slab.len() - 1) as u32
            }
        };
        self.slot_of.push(slot);
        idx
    }

    /// The open port at `idx`; `None` once closed, or if never opened.
    fn open_mut(&mut self, idx: PortIdx) -> Option<&mut Port> {
        match *self.slot_of.get(idx)? {
            CLOSED => None,
            slot => Some(&mut self.slab[slot as usize]),
        }
    }

    /// Gives the storage of the open port at `idx` back and returns what
    /// was in it.
    fn vacate(&mut self, idx: PortIdx) -> Option<Port> {
        let entry = self.slot_of.get_mut(idx).filter(|slot| **slot != CLOSED)?;
        let slot = std::mem::replace(entry, CLOSED);
        self.free.push(slot);
        Some(std::mem::replace(
            &mut self.slab[slot as usize],
            Port::closed(),
        ))
    }
}

impl std::ops::Index<PortIdx> for PortTable {
    type Output = Port;

    fn index(&self, idx: PortIdx) -> &Port {
        match self.slot_of[idx] {
            CLOSED => &self.closed,
            slot => &self.slab[slot as usize],
        }
    }
}

impl std::ops::IndexMut<PortIdx> for PortTable {
    fn index_mut(&mut self, idx: PortIdx) -> &mut Port {
        self.open_mut(idx).expect("an open port")
    }
}

/// One filter application during a demultiplex.
#[derive(Debug, Clone, Copy)]
pub struct Application {
    /// The port whose filter was applied.
    pub port: PortIdx,
    /// Whether the filter accepted the packet.
    pub accepted: bool,
    /// Interpreter counters for cost accounting.
    pub stats: EvalStats,
}

/// One snapshot of the active engine's compiled state, replacing the
/// per-engine accessors (`table_shapes`, `geom_tuple_count`, …) with a
/// single struct so callers do not need to know which engine maintains
/// which counter. Counters an engine does not maintain read zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineStats {
    /// The engine the snapshot describes.
    pub engine: DemuxEngine,
    /// Decision-table shapes (hash probes per packet); decision-table
    /// engine only.
    /// Part of ROADMAP item 2(b)'s facade observation.
    pub table_shapes: usize,
    /// Tuples every packet probes in the geometric index — exact
    /// word-sets plus per-word range classes — including tuples only
    /// removed members still occupy (removal
    /// tombstones; the probe goes on until the set compacts); geom engine
    /// only.
    /// Part of ROADMAP item 2(b)'s facade observation.
    pub geom_tuple_count: usize,
    /// Members with no provable interval constraint, walked on every
    /// packet; geom engine only.
    /// Part of ROADMAP item 2(b)'s facade observation.
    pub geom_residue: usize,
    /// Same-word interval overlaps detected at insertion (two members
    /// whose required intervals on the indexed word intersect), cumulative
    /// over every bind since the last full rebuild — closes and rebinds do
    /// not take their conflicts back; geom engine only.
    /// Part of ROADMAP item 2(b)'s facade observation.
    pub geom_overlaps: u64,
    /// Shadowing conflicts detected at insertion (a member whose indexed
    /// interval is contained in an equal-or-higher-priority member's),
    /// cumulative like `geom_overlaps`; geom engine only.
    /// Part of ROADMAP item 2(b)'s facade observation; N8 reports from it.
    pub geom_shadows: u64,
    /// Open ports whose filters are quarantined (served by the checked
    /// interpreter under every engine).
    pub quarantined_ports: usize,
    /// Times the compiled set was rebuilt from every open port since the
    /// device was constructed: engine selection, and a budget sweep that
    /// quarantined something. Binds, rebinds and closes update the set in
    /// place and never count.
    /// Part of ROADMAP item 2(b)'s facade observation; read by `tests/device_churn.rs`.
    pub engine_rebuilds: u64,
    /// Geom candidates pruned by the per-packet candidate cap
    /// ([`PfDevice::set_geom_candidate_cap`]) since the last full rebuild;
    /// geom engine only.
    pub geom_candidates_capped: u64,
}

/// The outcome of demultiplexing one received packet.
#[derive(Debug, Clone, Default)]
pub struct DemuxOutcome {
    /// Ports that accepted the packet, in delivery order.
    pub accepted: Vec<PortIdx>,
    /// Every checked-interpreter application performed, in order: the
    /// sequential walk itself, and under the compiled engines the decision
    /// table's interpreted members and the quarantined ports.
    pub applied: Vec<Application>,
    /// Threaded-code operations executed, when the geom engine handled
    /// the packet (the cost-accounting analogue of `applied`'s
    /// instruction counters).
    pub ir_ops: u32,
    /// Evaluations terminated by the instruction budget during this demux.
    pub budget_overruns: u32,
}

impl DemuxOutcome {
    /// Empties the outcome, keeping what its vectors have allocated.
    fn clear(&mut self) {
        self.accepted.clear();
        self.applied.clear();
        self.ir_ops = 0;
        self.budget_overruns = 0;
    }

    /// Charges this frame's engine work and bumps the counters it moves:
    /// the one place an engine's cost curve is written down. `charge`
    /// receives `(routine, cost)` in the order the work was done.
    pub(crate) fn charge_engine_work(
        &self,
        engine: DemuxEngine,
        index_probes: usize,
        costs: &CostModel,
        counters: &mut Counters,
        mut charge: impl FnMut(&'static str, SimDuration),
    ) {
        // One probe per decision-table shape or geom tuple, whatever the
        // population.
        let probes = (index_probes as u64).max(1);
        match engine {
            DemuxEngine::Sequential => {}
            DemuxEngine::DecisionTable => charge("pf:dtree", costs.dtree_probe.times(probes)),
            DemuxEngine::Geom => {
                // The index probe, then the threaded-code operations of
                // the members it could not rule out, on the interpreter's
                // per-instruction curve.
                charge("pf:geom", costs.geom_probe.times(probes));
                counters.filter_instructions += u64::from(self.ir_ops);
                let ops = costs.filter_instr.times(u64::from(self.ir_ops));
                charge("pf:geom", costs.filter_setup + ops);
            }
        }
        // Every checked application, whichever engine made it, is on the
        // interpreter's curve.
        for a in &self.applied {
            counters.filters_applied += 1;
            counters.filter_instructions += u64::from(a.stats.instructions);
            charge("pf:filter", costs.filter_cost(a.stats.instructions));
        }
        counters.filter_budget_overruns += u64::from(self.budget_overruns);
    }
}

/// The packet-filter device of one host.
#[derive(Debug)]
pub struct PfDevice {
    ports: PortTable,
    /// Demultiplex order: indices of the open ports, sorted by priority
    /// descending, then port index. The sequential engine's adaptive
    /// reordering puts busyness between the two keys; a compiled engine
    /// has no walk to shorten and keeps the static order at all times.
    order: Vec<PortIdx>,
    /// Open ports whose filter is quarantined.
    quarantined: usize,
    demux_ops: u64,
    adaptive: bool,
    engine: DemuxEngine,
    /// The active engine's compiled set (`None` under the sequential
    /// engine). Its members are exactly the open, filtered, unquarantined
    /// ports, and its match order is `order` restricted to them.
    set: Option<EngineSet>,
    engine_rebuilds: u64,
    /// Per-evaluation instruction budget; `None` means unbounded. Every
    /// filter that could exceed it is quarantined, and the checked
    /// interpreter enforces it on each evaluation.
    budget: Option<u32>,
    /// The pre-demux admission gate, when enabled.
    admission: Option<AdmissionState>,
    /// Per-packet candidate bound applied to the geom engine
    /// ([`GeomSet::set_candidate_cap`]); survives engine rebuilds.
    geom_candidate_cap: Option<usize>,
    /// What [`Self::demux`] fills and lends out, call after call.
    outcome: DemuxOutcome,
}

impl Default for PfDevice {
    fn default() -> Self {
        Self::new()
    }
}

impl PfDevice {
    /// A device with no open ports; adaptive reordering on, sequential
    /// engine (the paper's production configuration).
    pub fn new() -> Self {
        PfDevice {
            ports: PortTable::new(),
            order: Vec::new(),
            quarantined: 0,
            demux_ops: 0,
            adaptive: true,
            engine: DemuxEngine::Sequential,
            set: None,
            engine_rebuilds: 0,
            budget: None,
            admission: None,
            geom_candidate_cap: None,
            outcome: DemuxOutcome::default(),
        }
    }

    /// Sets (or clears) the per-evaluation instruction budget. An
    /// evaluation that exceeds the budget rejects the packet.
    ///
    /// The filter language has no branches, so a program's static
    /// instruction count is its exact worst case; ports whose bound filter
    /// *could* exceed the new budget are quarantined here — excluded from
    /// the compiled engines and served by the budgeted checked interpreter
    /// (their verdicts are unchanged: it only faults on evaluations that
    /// actually run over). Returns how many ports this call quarantined.
    pub fn set_instruction_budget(&mut self, budget: Option<u32>) -> u32 {
        self.budget = budget;
        let mut newly = 0;
        if let Some(b) = budget {
            for &idx in &self.order {
                let p = &mut self.ports[idx];
                let Some(f) = p.member_filter() else { continue };
                let overlong =
                    ValidatedProgram::new(f.clone()).is_ok_and(|v| v.instructions() > b as usize);
                if overlong {
                    p.quarantined = Some(QuarantineReason::BudgetExceeded);
                    newly += 1;
                }
            }
        }
        if newly > 0 {
            self.quarantined += newly as usize;
            self.rebuild_engine();
        }
        newly
    }

    /// Enables (or, with `None`, disables) the pre-demux admission gate.
    pub fn set_admission_control(&mut self, config: Option<AdmissionConfig>) {
        self.admission = config.map(|config| {
            let mut state = AdmissionState {
                config,
                entries: Vec::new(),
                candidates: Vec::new(),
            };
            for &idx in &self.order {
                if let Some(f) = &self.ports[idx].filter {
                    state.file(idx, Some(&Form::of(f)));
                }
            }
            state
        });
        self.rebuild_gate();
    }

    /// The admission gate's configuration, when enabled.
    /// Read by this crate's `tests/fuzz.rs` to drive the gate under config churn.
    pub fn admission_control(&self) -> Option<AdmissionConfig> {
        self.admission.as_ref().map(|s| s.config)
    }

    /// Overrides (or, with `None`, restores the default for) one port's
    /// admission quota.
    pub fn set_port_quota(&mut self, idx: PortIdx, quota: Option<AdmissionQuota>) {
        if let Some(p) = self.ports.open_mut(idx) {
            p.quota = quota;
        }
        self.rebuild_gate();
    }

    /// Offers one arriving frame to the admission gate ahead of demux.
    ///
    /// With the gate disabled every frame is admitted. Otherwise the frame
    /// is classified by the first admission signature it matches, in demux
    /// order: protected ports admit unconditionally, best-effort ports
    /// charge their token bucket and shed the frame (drop-at-NIC) when it
    /// is empty. Unclassifiable frames are always admitted — the gate only
    /// ever sheds traffic it can attribute to a port.
    pub fn admit(&mut self, packet: &[u8], now: SimTime) -> AdmissionVerdict {
        let Some(state) = &mut self.admission else {
            return AdmissionVerdict::Admit;
        };
        let view = PacketView::new(packet);
        let mut mimic: Option<PortIdx> = None;
        for e in &mut state.entries {
            let covered = view
                .word(usize::from(e.word))
                .is_some_and(|w| e.lo <= w && w <= e.hi);
            if !covered {
                continue;
            }
            if e.protected && !e.verify.is_empty() {
                let verified = e.verify.iter().all(|&(w, lo, hi)| {
                    view.word(usize::from(w))
                        .is_some_and(|v| lo <= v && v <= hi)
                });
                if !verified {
                    // Wears this protected entry's primary signature but
                    // fails a word the protected filter provably requires:
                    // a suspected mimic. Let a later entry claim the frame;
                    // shed it only if none does.
                    mimic.get_or_insert(e.port);
                    continue;
                }
            }
            if e.protected || e.bucket.admit(now) {
                return AdmissionVerdict::Admit;
            }
            self.ports[e.port].admission_drops += 1;
            return AdmissionVerdict::Shed { port: e.port };
        }
        if let Some(port) = mimic {
            return AdmissionVerdict::ShedMimic { port };
        }
        AdmissionVerdict::Admit
    }

    /// Reports that a gate-admitted frame went on to match *no* filter —
    /// the feedback signal behind gate-signature re-selection. The first
    /// protected entry whose primary signature covers the frame takes a
    /// mimicry-pressure mark; once the marks reach
    /// [`AdmissionConfig::mimicry_threshold`], the entry re-selects its
    /// signature to also verify every other word the protected filter
    /// provably requires. Returns whether this call performed a
    /// re-selection. No-op (and `false`) when the gate is off, the
    /// threshold is `None`, no protected entry covers the frame, or the
    /// protected filter requires no other word (a single-word signature
    /// cannot be strengthened — an honest residual weakness).
    /// Called by this crate's `tests/fuzz.rs`, the gate's mimicry model.
    pub fn note_unmatched_admit(&mut self, packet: &[u8]) -> bool {
        let Some(state) = &mut self.admission else {
            return false;
        };
        let Some(threshold) = state.config.mimicry_threshold else {
            return false;
        };
        let view = PacketView::new(packet);
        for i in 0..state.entries.len() {
            let e = &state.entries[i];
            if !e.protected {
                continue;
            }
            let covered = view
                .word(usize::from(e.word))
                .is_some_and(|w| e.lo <= w && w <= e.hi);
            if !covered {
                continue;
            }
            let (port, word) = (e.port, e.word);
            state.entries[i].mimicry_misses += 1;
            if state.entries[i].mimicry_misses >= threshold && state.entries[i].verify.is_empty() {
                let Some((_, ranged)) = state.candidates_of(port) else {
                    return false;
                };
                let verify: Vec<(u8, u16, u16)> = ranged
                    .iter()
                    .copied()
                    .filter(|&(w, _, _)| w != word)
                    .collect();
                if !verify.is_empty() {
                    state.entries[i].verify = verify;
                    return true;
                }
            }
            return false;
        }
        false
    }

    /// Rebuilds the gate's per-port entries (after open/close/bind/quota
    /// changes), carrying over bucket fill for ports whose quota is
    /// unchanged so a rebind cannot mint free burst capacity.
    ///
    /// Each port contributes one entry, chosen among the candidates its
    /// bind filed ([`GateCandidates`]), so a rebuild analyses nothing and
    /// allocates the same whatever the port count. The leading exact test
    /// is preferred when present (the program itself sheds on it first); a
    /// filter without one — a port-range filter — falls back to its
    /// required atoms, choosing the word with the most distinct intervals
    /// across the whole gate (the geometric classifier's diversity score: a
    /// word that distinguishes ports classifies better than a narrow guard
    /// they all share), then the narrowest interval, then the lowest word.
    fn rebuild_gate(&mut self) {
        let Some(AdmissionState {
            config,
            entries,
            candidates,
        }) = &mut self.admission
        else {
            return;
        };
        // Every candidate interval, distinct: a word's diversity is its run.
        let signatures = candidates
            .iter()
            .map(|(_, (e, r))| usize::from(e.is_some()) + r.len());
        let mut intervals = Vec::with_capacity(signatures.sum());
        for (_, (exact, ranged)) in candidates.iter() {
            intervals.extend(exact.iter().chain(ranged));
        }
        intervals.sort_unstable();
        intervals.dedup();
        let diversity = |w: u8| {
            intervals.partition_point(|i: &(u8, u16, u16)| i.0 <= w)
                - intervals.partition_point(|i| i.0 < w)
        };
        // The old entries by port, to carry their state over.
        let mut old = std::mem::replace(entries, Vec::with_capacity(candidates.len()));
        old.sort_unstable_by_key(|e| e.port);
        for &idx in &self.order {
            let Ok(at) = candidates.binary_search_by_key(&idx, |c| c.0) else {
                continue;
            };
            let (exact, ranged) = &candidates[at].1;
            let chosen = exact.or_else(|| {
                ranged.iter().copied().max_by_key(|&(w, lo, hi)| {
                    (
                        diversity(w),
                        core::cmp::Reverse(hi - lo),
                        core::cmp::Reverse(w),
                    )
                })
            });
            let Some((word, lo, hi)) = chosen else {
                continue;
            };
            let p = &self.ports[idx];
            let quota = p.quota.unwrap_or(DEFAULT_QUOTA);
            let mut prior = old
                .binary_search_by_key(&idx, |e| e.port)
                .ok()
                .map(|at| &mut old[at]);
            let mut bucket = prior
                .as_ref()
                .filter(|e| e.bucket.quota == quota)
                .map_or_else(|| TokenBucket::new(quota), |e| e.bucket);
            bucket.jitter = config.refill_jitter_key.map(|key| (key, idx as u64));
            // A re-selected signature is only meaningful relative to the
            // primary word it strengthens: carry it (and the pressure
            // marks) over iff the chosen word is unchanged.
            let (verify, mimicry_misses) = prior
                .take()
                .filter(|e| e.word == word)
                .map_or((Vec::new(), 0), |e| {
                    (std::mem::take(&mut e.verify), e.mimicry_misses)
                });
            entries.push(GateEntry {
                port: idx,
                word,
                lo,
                hi,
                protected: p.priority() >= PROTECTED_PRIORITY,
                bucket,
                verify,
                mimicry_misses,
            });
        }
    }

    /// A snapshot of the active engine's compiled state: every per-engine
    /// counter lives in one struct, and counters the active engine does
    /// not maintain read zero.
    pub fn engine_stats(&self) -> EngineStats {
        debug_assert_eq!(
            self.quarantined,
            self.order
                .iter()
                .filter(|&&idx| self.ports[idx].quarantined.is_some())
                .count(),
            "quarantine count out of step with the ports"
        );
        let mut stats = EngineStats {
            engine: self.engine,
            quarantined_ports: self.quarantined,
            engine_rebuilds: self.engine_rebuilds,
            ..Default::default()
        };
        if let Some(set) = &self.set {
            set.fill_stats(&mut stats);
        }
        stats
    }

    /// Index probes the active engine charges per packet whatever the
    /// population — decision-table shapes or geom tuples, zero under the
    /// other engines — without assembling a whole [`EngineStats`].
    pub(crate) fn index_probes(&self) -> usize {
        self.set.as_ref().map_or(0, EngineSet::index_probes)
    }

    /// Selects the demultiplexing engine: [`DemuxEngine::Sequential`]
    /// (§4's interpreter loop), [`DemuxEngine::DecisionTable`] (§7's
    /// decision table) or [`DemuxEngine::Geom`] (pf-ir's geometric
    /// classifier).
    pub fn set_engine(&mut self, engine: DemuxEngine) {
        self.engine = engine;
        self.resort();
        self.rebuild_engine();
    }

    /// The active demultiplexing engine.
    pub fn engine(&self) -> DemuxEngine {
        self.engine
    }

    /// Builds the active engine's compiled set from every open port.
    /// Quarantined ports never reach the set; `demux` serves them through
    /// the checked interpreter. Runs on engine selection and after a
    /// budget sweep.
    fn rebuild_engine(&mut self) {
        self.set = EngineSet::new(self.engine, self.geom_candidate_cap);
        let Some(set) = &mut self.set else { return };
        self.engine_rebuilds += 1;
        for &idx in &self.order {
            if let Some(f) = self.ports[idx].member_filter() {
                let program = ValidatedProgram::new(f.clone()).expect("a member validates");
                set.insert(idx as FilterId, program, Form::of(f));
            }
        }
    }

    /// Where open port `idx` sits in `order`: one binary search on its key
    /// while `order` is sorted by key alone — under a compiled engine, or
    /// with adaptive reordering off — else a scan.
    fn order_position(&self, idx: PortIdx) -> usize {
        let ports = &self.ports;
        let at = if self.set.is_some() || !self.adaptive {
            let key = ports[idx].order_key();
            self.order.partition_point(|&o| ports[o].order_key() < key)
        } else {
            let at = self.order.iter().position(|&o| o == idx);
            at.expect("an open port is in the order")
        };
        debug_assert_eq!(self.order.get(at), Some(&idx), "port {idx} out of order");
        at
    }

    /// Moves a port bound under a compiled engine from `order[old_at]` to
    /// its new place (the order is static there, so one binary search and
    /// no sort) and in the set, which orders by the same key: one `insert`
    /// of its validated program and form, or one `remove` if the bind
    /// quarantined it.
    fn rehome(&mut self, idx: PortIdx, old_at: usize, member: Option<(ValidatedProgram, Form)>) {
        let ports = &self.ports;
        self.order.remove(old_at);
        let key = ports[idx].order_key();
        let at = self.order.partition_point(|&o| ports[o].order_key() < key);
        self.order.insert(at, idx);
        let set = self.set.as_mut().expect("a compiled engine is selected");
        match member {
            Some((program, form)) => set.insert(idx as FilterId, program, form),
            None => {
                set.remove(idx as FilterId);
            }
        }
    }

    /// Bounds candidates evaluated per packet under the geom engine
    /// (`None` removes the bound — the default). The cap prunes the
    /// priority-sorted candidate list, so only the lowest-priority
    /// candidates are shed; the overlap-bomb mitigation for hostile
    /// wide-overlap filter populations. Inert under every other engine.
    pub fn set_geom_candidate_cap(&mut self, cap: Option<usize>) {
        self.geom_candidate_cap = cap;
        if let Some(EngineSet::Geom(g)) = &mut self.set {
            g.set_candidate_cap(cap);
        }
    }

    /// Enables or disables adaptive same-priority reordering (§3.2). The
    /// busyness key belongs to the sequential walk; under a compiled
    /// engine the setting only waits for the sequential engine to return.
    pub fn set_adaptive_reorder(&mut self, on: bool) {
        self.adaptive = on;
        if !on {
            // Restore pure (priority, index) order.
            self.resort();
        }
    }

    /// Opens a new port owned by `(proc, fd)` and returns its index. A
    /// port without a filter is in neither the compiled set nor the gate.
    pub fn open(&mut self, owner: (ProcId, Fd)) -> PortIdx {
        let idx = self.ports.open(owner);
        // Lowest priority, highest index: the new port sorts last. The
        // sequential walk also takes the occasion to re-sort by busyness.
        self.order.push(idx);
        if self.set.is_none() {
            self.resort();
        }
        idx
    }

    /// Closes a port; its queue, filter and counters are discarded.
    pub fn close(&mut self, idx: PortIdx) {
        // The index is never handed out again; all it keeps is its marker
        // in the table, and `port(idx)` answers the shared closed port.
        if self.ports.open_mut(idx).is_none() {
            return;
        }
        self.order.remove(self.order_position(idx));
        let p = self.ports.vacate(idx).expect("an open port");
        self.quarantined -= usize::from(p.quarantined.is_some());
        if let Some(set) = &mut self.set {
            set.remove(idx as FilterId);
        }
        if let Some(state) = &mut self.admission {
            state.file(idx, None);
        }
        self.rebuild_gate();
    }

    /// Binds (replaces) the filter on a port. "A new filter can be bound at
    /// any time" (§3.1).
    ///
    /// The program is validated at bind time; one that fails validation is
    /// still bound but *quarantined* — the compiled engines never see it,
    /// and the checked interpreter serves it in priority position (a defect
    /// degrades that one port's cost, never the demultiplexer). Returns
    /// `false` when the bind quarantined the filter. Rebinding clears a
    /// previous quarantine, including one earned by exceeding the
    /// instruction budget. A closed or unknown index binds nothing (the
    /// verdict on the program is still returned).
    pub fn set_filter(&mut self, idx: PortIdx, filter: FilterProgram) -> bool {
        // The bind's one validation, whose copy of the program a compiled
        // set keeps.
        let validated = ValidatedProgram::new(filter.clone());
        let quarantined = match &validated {
            // Branch-free programs have a static worst case; one that could
            // exceed the budget never reaches the compiled engines.
            Ok(v) if self.budget.is_some_and(|b| v.instructions() > b as usize) => {
                Some(QuarantineReason::BudgetExceeded)
            }
            Ok(_) => None,
            Err(e) => Some(QuarantineReason::Validation(*e)),
        };
        let clean = quarantined.is_none();
        if self.ports.open_mut(idx).is_none() {
            return clean;
        }
        // Found before the port's key moves.
        let old_at = self.set.is_some().then(|| self.order_position(idx));
        // The bind's one analysis, for the compiled set and the gate.
        let analysed = self.set.is_some() && clean || self.admission.is_some();
        let form = analysed.then(|| Form::of(&filter));
        if let Some(state) = &mut self.admission {
            state.file(idx, form.as_ref());
        }
        let p = &mut self.ports[idx];
        self.quarantined += usize::from(!clean);
        self.quarantined -= usize::from(p.quarantined.is_some());
        p.quarantined = quarantined;
        p.filter = Some(filter);
        p.accepts = 0;
        p.budget_overruns = 0;
        match old_at {
            None => self.resort(),
            Some(old_at) => {
                let member = validated.ok().filter(|_| clean).zip(form);
                self.rehome(idx, old_at, member);
            }
        }
        self.rebuild_gate();
        clean
    }

    /// Access a port. Every closed index answers one shared closed port:
    /// `open == false`, no filter, an empty queue, counters at zero.
    ///
    /// # Panics
    ///
    /// Panics on an index `open` never returned.
    pub fn port(&self, idx: PortIdx) -> &Port {
        &self.ports[idx]
    }

    /// Mutable access to an open port.
    ///
    /// # Panics
    ///
    /// Panics on an index that is not an open port's.
    pub fn port_mut(&mut self, idx: PortIdx) -> &mut Port {
        &mut self.ports[idx]
    }

    /// Number of open ports.
    pub fn open_ports(&self) -> usize {
        self.order.len()
    }

    /// The current demultiplex order (for tests and introspection).
    pub fn order(&self) -> &[PortIdx] {
        &self.order
    }

    /// Demultiplexes one received packet: applies filters in priority order
    /// until one accepts (continuing past accepting ports that set
    /// `deliver_to_lower`), recording every application.
    ///
    /// The outcome is the device's own, lent until the next call, which
    /// overwrites it: a demux allocates nothing once the outcome's vectors
    /// have grown to what the traffic needs. A caller that must change the
    /// device while it reads the outcome keeps one of its own and calls
    /// `Self::demux_into`.
    ///
    /// Queueing is *not* performed here — the world model enqueues to the
    /// accepted ports so it can charge bookkeeping costs and handle wakeups.
    pub fn demux(&mut self, packet: &[u8]) -> &DemuxOutcome {
        let mut out = std::mem::take(&mut self.outcome);
        self.demux_into(packet, &mut out);
        self.outcome = out;
        &self.outcome
    }

    /// [`Self::demux`] into an outcome the caller owns and reuses: `out`
    /// is cleared first, so nothing of an earlier packet survives in it.
    pub(crate) fn demux_into(&mut self, packet: &[u8], out: &mut DemuxOutcome) {
        out.clear();
        self.demux_ops += 1;
        let view = PacketView::new(packet);
        if self.set.is_none() && self.adaptive && self.demux_ops.is_multiple_of(REORDER_INTERVAL) {
            self.resort();
        }
        // A compiled engine evaluates its set first; with nothing
        // quarantined its matches are the whole answer.
        let matches = self.set.as_mut().map(|set| set.matches(view, out));
        if let Some(matches) = matches.filter(|_| self.quarantined == 0) {
            Self::deliver_matches(&mut self.ports, matches, out);
            return;
        }
        // The figure 4-1 walk: a port the compiled set holds reads its
        // verdict from the matches; every other port — each one under the
        // sequential engine, the quarantined ones under a compiled engine
        // — is applied with the checked interpreter.
        for &idx in &self.order {
            let port = &mut self.ports[idx];
            let accepted = match matches {
                Some(matches) if port.quarantined.is_none() => matches.contains(&(idx as FilterId)),
                _ => match port.apply_checked(self.budget, view, out) {
                    Some(accepted) => accepted,
                    None => continue,
                },
            };
            if accepted {
                port.accepts += 1;
                out.accepted.push(idx);
                if !port.config.deliver_to_lower {
                    break;
                }
            }
        }
    }

    /// Applies the §3.2 deliver-to-lower rule to a priority-ordered match
    /// list and records the per-port accept bookkeeping — a compiled-engine
    /// demux with nothing quarantined.
    fn deliver_matches(ports: &mut PortTable, matches: &[FilterId], out: &mut DemuxOutcome) {
        for &id in matches {
            let port = &mut ports[id as PortIdx];
            port.accepts += 1;
            out.accepted.push(id as PortIdx);
            if !port.config.deliver_to_lower {
                break;
            }
        }
    }

    /// Re-sorts the demultiplex order: priority descending; within a
    /// priority, busier filters first (sequential engine with adaptive
    /// reordering only: §3.2 reorders to shorten the walk, and a compiled
    /// index has none), then port index.
    fn resort(&mut self) {
        let ports = &self.ports;
        let by_busyness = self.adaptive && self.engine == DemuxEngine::Sequential;
        self.order.sort_by(|&a, &b| {
            let (pa, pb) = (&ports[a], &ports[b]);
            let busy = if by_busyness {
                pb.accepts.cmp(&pa.accepts)
            } else {
                core::cmp::Ordering::Equal
            };
            pb.priority().cmp(&pa.priority()).then(busy).then(a.cmp(&b))
        });
    }
}

#[cfg(test)]
#[path = "../../pf-filter/tests/support/soup.rs"]
mod soup;

#[cfg(test)]
mod tests {
    use super::*;
    use pf_filter::samples;
    use pf_sim::time::SimTime;

    fn pkt(sock: u16) -> Vec<u8> {
        samples::pup_packet_3mb(2, 0, sock, 1)
    }

    #[test]
    fn micro_tokens_agree_with_the_u128_formula_across_u64_overflow() {
        let wide = |rate: u64, ns: u64| (u128::from(rate) * u128::from(ns) / 1_000) as u64;
        // u64::MAX = 65_537 × 281_470_681_808_895: a product of exactly
        // u64::MAX, then one just above it.
        let (rate, ns) = (65_537u64, u64::MAX / 65_537);
        assert_eq!(u128::from(rate) * u128::from(ns), u128::from(u64::MAX));
        for (rate, ns) in [(rate, ns), (rate, ns + 1), (ns, rate), (ns + 1, rate)] {
            assert_eq!(
                micro_tokens_gained(rate, ns),
                wide(rate, ns),
                "{rate} × {ns}"
            );
        }
        assert!(
            rate.checked_mul(ns + 1).is_none(),
            "the u128 side was taken"
        );
        for (rate, ns) in [
            (0, u64::MAX),
            (u64::MAX, u64::MAX),
            (1_000_000, 999),
            (7, 3),
        ] {
            assert_eq!(
                micro_tokens_gained(rate, ns),
                wide(rate, ns),
                "{rate} × {ns}"
            );
        }
    }

    fn recv(bytes: &[u8]) -> RecvPacket {
        RecvPacket {
            bytes: bytes.to_vec(),
            stamp: None,
            dropped_before: 0,
        }
    }

    fn dev_with(filters: Vec<FilterProgram>) -> PfDevice {
        let mut d = PfDevice::new();
        for (i, f) in filters.into_iter().enumerate() {
            let idx = d.open((ProcId(i), Fd(0)));
            d.set_filter(idx, f);
        }
        d
    }

    #[test]
    fn first_match_stops_by_default() {
        let mut d = dev_with(vec![
            samples::pup_socket_filter(10, 0, 35),
            samples::accept_all(5),
        ]);
        let out = d.demux(&pkt(35));
        assert_eq!(
            out.accepted,
            vec![0],
            "higher priority wins, no fall-through"
        );
        assert_eq!(out.applied.len(), 1, "stopped at first match");
    }

    #[test]
    fn falls_through_to_lower_priority_on_reject() {
        let mut d = dev_with(vec![
            samples::pup_socket_filter(10, 0, 35),
            samples::accept_all(5),
        ]);
        let out = d.demux(&pkt(99));
        assert_eq!(out.accepted, vec![1]);
        assert_eq!(out.applied.len(), 2);
    }

    #[test]
    fn priority_decides_between_overlapping_filters() {
        let mut d = dev_with(vec![
            samples::accept_all(5),
            samples::accept_all(20), // inserted later but higher priority
        ]);
        let out = d.demux(&pkt(1));
        assert_eq!(out.accepted, vec![1]);
    }

    #[test]
    fn equal_priority_insertion_order() {
        let mut d = dev_with(vec![samples::accept_all(10), samples::accept_all(10)]);
        let out = d.demux(&pkt(1));
        assert_eq!(out.accepted, vec![0]);
    }

    #[test]
    fn deliver_to_lower_produces_copies() {
        let mut d = PfDevice::new();
        let monitor = d.open((ProcId(0), Fd(0)));
        d.set_filter(monitor, samples::accept_all(30));
        d.port_mut(monitor).config.deliver_to_lower = true;
        let consumer = d.open((ProcId(1), Fd(0)));
        d.set_filter(consumer, samples::pup_socket_filter(10, 0, 35));
        let out = d.demux(&pkt(35));
        assert_eq!(out.accepted, vec![monitor, consumer], "both get a copy");
    }

    #[test]
    fn no_match_accepts_nobody() {
        let mut d = dev_with(vec![samples::pup_socket_filter(10, 0, 35)]);
        let out = d.demux(&pkt(36));
        assert!(out.accepted.is_empty());
        assert_eq!(out.applied.len(), 1);
        assert!(!out.applied[0].accepted);
    }

    #[test]
    fn port_without_filter_accepts_nothing() {
        let mut d = PfDevice::new();
        d.open((ProcId(0), Fd(0)));
        let out = d.demux(&pkt(1));
        assert!(out.accepted.is_empty());
        assert!(out.applied.is_empty(), "no filter, no interpretation work");
    }

    #[test]
    fn closed_port_is_skipped() {
        let mut d = dev_with(vec![samples::accept_all(10)]);
        d.close(0);
        assert_eq!(d.open_ports(), 0);
        let out = d.demux(&pkt(1));
        assert!(out.accepted.is_empty());
    }

    #[test]
    fn a_closed_index_answers_the_shared_closed_port_and_a_new_port_its_own_index() {
        let mut d = dev_with(vec![
            samples::accept_all(10),
            samples::pup_socket_filter(5, 0, 35),
        ]);
        let _ = d.port_mut(0).enqueue(recv(&pkt(1)));
        d.close(0);
        let closed = d.port(0);
        assert!(!closed.open && closed.filter.is_none() && closed.queue.is_empty());
        assert!(!d.set_filter(0, shortcircuit_then_garbage(10, 1)));
        assert!(d.set_filter(0, samples::accept_all(10)), "binds nothing");
        assert!(d.port(0).filter.is_none());
        d.close(0);
        assert_eq!(d.open_ports(), 1);
        // The vacated storage is handed out again, the index is not.
        let reopened = d.open((ProcId(9), Fd(0)));
        assert_eq!(reopened, 2);
        assert_eq!(d.port(reopened).owner, (ProcId(9), Fd(0)));
        assert!(d.port(reopened).open && d.port(reopened).queue.is_empty());
        assert!(!d.port(0).open);
        assert_eq!(d.demux(&pkt(35)).accepted, vec![1]);
        assert!(d.set_filter(reopened, samples::accept_all(10)));
        assert_eq!(d.demux(&pkt(35)).accepted, vec![reopened]);
        assert_eq!(d.order(), [reopened, 1]);
    }

    #[test]
    fn a_demux_outcome_carries_nothing_over_from_the_call_before() {
        type Fields = (Vec<PortIdx>, usize, u32, u32);
        fn fields(o: &DemuxOutcome) -> Fields {
            (
                o.accepted.clone(),
                o.applied.len(),
                o.ir_ops,
                o.budget_overruns,
            )
        }
        let stray = samples::pup_packet_3mb(3, 0, 99, 1);
        for engine in [
            DemuxEngine::Sequential,
            DemuxEngine::DecisionTable,
            DemuxEngine::Geom,
        ] {
            let build = |budget: Option<u32>| {
                let mut d = dev_with(vec![
                    samples::fig_3_8_pup_type_range(),    // priority 10, 10 instrs
                    samples::pup_socket_filter(5, 0, 35), // priority 5, 6 instrs
                ]);
                d.set_engine(engine);
                d.set_instruction_budget(budget);
                d
            };
            // What a device that has seen nothing else says of one frame.
            let alone = |budget, frame: &[u8]| fields(build(budget).demux(frame));

            let mut d = build(None);
            let full = fields(d.demux(&pkt(35)));
            assert_eq!(full.0, vec![0], "{engine:?}");
            assert_eq!(fields(d.demux(&stray)), alone(None, &stray), "{engine:?}");
            // Across a budget quarantine: the long filter now overruns in
            // the checked fallback, and the short one takes the frame.
            assert_eq!(d.set_instruction_budget(Some(6)), 1);
            let overrun = fields(d.demux(&pkt(35)));
            assert_eq!(overrun, alone(Some(6), &pkt(35)), "{engine:?}");
            assert_eq!((overrun.0, overrun.3), (vec![1], 1), "{engine:?}");
            assert!(overrun.1 >= 1, "{engine:?}: the fallback is an application");
            assert_eq!(
                fields(d.demux(&stray)),
                alone(Some(6), &stray),
                "{engine:?}"
            );

            // The same through an outcome the caller owns, handed in dirty.
            let mut out = d.demux(&pkt(35)).clone();
            (out.ir_ops, out.budget_overruns) = (7, 3);
            d.demux_into(&stray, &mut out);
            assert_eq!(fields(&out), alone(Some(6), &stray), "{engine:?}");
        }
    }

    #[test]
    fn queue_limit_drops_and_counts() {
        let mut d = dev_with(vec![samples::accept_all(10)]);
        d.port_mut(0).config.max_queue = 2;
        assert_eq!(d.port_mut(0).enqueue(recv(&pkt(1))), EnqueueOutcome::Stored);
        assert_eq!(d.port_mut(0).enqueue(recv(&pkt(2))), EnqueueOutcome::Stored);
        assert_eq!(
            d.port_mut(0).enqueue(recv(&pkt(3))),
            EnqueueOutcome::Rejected
        );
        assert_eq!(d.port(0).drops, 1);
        assert_eq!(d.port(0).queue.len(), 2);
    }

    #[test]
    fn drop_oldest_keeps_the_newest_packets() {
        let mut d = dev_with(vec![samples::accept_all(10)]);
        d.port_mut(0).config.max_queue = 2;
        d.port_mut(0).config.overflow = OverflowPolicy::DropOldest;
        assert_eq!(d.port_mut(0).enqueue(recv(&pkt(1))), EnqueueOutcome::Stored);
        assert_eq!(d.port_mut(0).enqueue(recv(&pkt(2))), EnqueueOutcome::Stored);
        assert_eq!(
            d.port_mut(0).enqueue(recv(&pkt(3))),
            EnqueueOutcome::StoredDroppingOldest
        );
        assert_eq!(d.port(0).drops, 1, "the evicted packet is still counted");
        let queued: Vec<Vec<u8>> = d.port(0).queue.iter().map(|p| p.bytes.clone()).collect();
        assert_eq!(queued, vec![pkt(2), pkt(3)], "oldest was evicted");
    }

    #[test]
    fn drop_oldest_with_zero_capacity_rejects() {
        let mut d = dev_with(vec![samples::accept_all(10)]);
        d.port_mut(0).config.max_queue = 0;
        d.port_mut(0).config.overflow = OverflowPolicy::DropOldest;
        assert_eq!(
            d.port_mut(0).enqueue(recv(&pkt(1))),
            EnqueueOutcome::Rejected
        );
        assert!(d.port(0).queue.is_empty());
    }

    /// A program the validator rejects (garbage after a short-circuit) but
    /// the checked interpreter accepts for `sock`-addressed Pup packets:
    /// the CAND terminates *true* before reaching the undecodable word.
    fn shortcircuit_then_garbage(priority: u8, sock: u16) -> FilterProgram {
        use pf_filter::word::BinaryOp;
        let mut words = pf_filter::program::Assembler::new(priority)
            .pushword(8) // DstSocketLo on the 3Mb medium
            .pushlit_op(BinaryOp::Cnand, sock)
            .finish()
            .words()
            .to_vec();
        words.push(15 << 6); // reserved encoding: fails validation
        FilterProgram::from_words(priority, words)
    }

    #[test]
    fn invalid_filter_is_quarantined_but_still_served() {
        let mut d = PfDevice::new();
        let p = d.open((ProcId(0), Fd(0)));
        assert!(!d.set_filter(p, shortcircuit_then_garbage(10, 35)));
        assert!(matches!(
            d.port(p).quarantined,
            Some(QuarantineReason::Validation(_))
        ));
        assert_eq!(d.engine_stats().quarantined_ports, 1);
        // Wrong socket: CNAND terminates true before the garbage word.
        assert_eq!(d.demux(&pkt(44)).accepted, vec![p]);
        // Right socket: evaluation reaches the garbage word and rejects.
        assert!(d.demux(&pkt(35)).accepted.is_empty());
    }

    #[test]
    fn quarantined_filter_served_under_every_engine() {
        for engine in [
            DemuxEngine::Sequential,
            DemuxEngine::DecisionTable,
            DemuxEngine::Geom,
        ] {
            let mut d = PfDevice::new();
            let clean = d.open((ProcId(0), Fd(0)));
            d.set_filter(clean, samples::pup_socket_filter(10, 0, 35));
            let bad = d.open((ProcId(1), Fd(0)));
            assert!(!d.set_filter(bad, shortcircuit_then_garbage(20, 35)));
            d.set_engine(engine);
            // The quarantined (higher-priority) filter accepts mismatched
            // sockets; the compiled member accepts socket 35.
            assert_eq!(d.demux(&pkt(44)).accepted, vec![bad], "{engine:?}");
            assert_eq!(d.demux(&pkt(35)).accepted, vec![clean], "{engine:?}");
        }
    }

    #[test]
    fn budget_quarantines_overlong_filters_eagerly() {
        let mut d = dev_with(vec![
            samples::fig_3_8_pup_type_range(), // 10 instructions
            samples::accept_all(5),            // 1 instruction
        ]);
        // The branch-free worst case is the static count, so the long
        // filter is quarantined the moment the budget drops below it.
        assert_eq!(d.set_instruction_budget(Some(6)), 1);
        assert_eq!(
            d.port(0).quarantined,
            Some(QuarantineReason::BudgetExceeded)
        );
        let out = d.demux(&pkt(35));
        // The budgeted fallback faults at instruction 7 (rejecting); the
        // short filter catches the packet.
        assert_eq!(out.budget_overruns, 1);
        assert_eq!(out.accepted, vec![1]);
        assert_eq!(d.port(0).budget_overruns, 1);
        // Clearing the budget and rebinding restores full service.
        assert_eq!(d.set_instruction_budget(None), 0);
        assert!(d.set_filter(0, samples::fig_3_8_pup_type_range()));
        assert_eq!(d.port(0).quarantined, None);
        assert_eq!(d.demux(&pkt(35)).accepted, vec![0]);
    }

    #[test]
    fn binding_an_overlong_filter_under_a_budget_quarantines() {
        let mut d = PfDevice::new();
        let p = d.open((ProcId(0), Fd(0)));
        d.set_instruction_budget(Some(6));
        assert!(!d.set_filter(p, samples::fig_3_8_pup_type_range()));
        assert_eq!(
            d.port(p).quarantined,
            Some(QuarantineReason::BudgetExceeded)
        );
        // A filter that fits the budget binds cleanly (6 instructions).
        assert!(d.set_filter(p, samples::pup_socket_filter(10, 0, 35)));
        assert_eq!(d.port(p).quarantined, None);
    }

    #[test]
    fn budget_quarantine_excludes_port_from_compiled_sets() {
        let mut d = dev_with(vec![
            samples::fig_3_8_pup_type_range(),    // priority 10, 10 instrs
            samples::pup_socket_filter(5, 0, 35), // priority 5, 6 instrs
        ]);
        d.set_engine(DemuxEngine::Geom);
        assert_eq!(d.set_instruction_budget(Some(6)), 1);
        assert_eq!(d.engine_stats().quarantined_ports, 1);
        // The quarantined member no longer contributes threaded code; the
        // merged walk still consults it (as a budgeted checked eval), and
        // the compiled member catches the packet.
        let out = d.demux(&pkt(35));
        assert_eq!(out.accepted, vec![1], "budget rejects the long filter");
        assert_eq!(out.applied.len(), 1, "one checked fallback application");
        assert!(out.applied[0].stats.error.is_some());
    }

    #[test]
    fn port_stats_snapshot() {
        let mut d = dev_with(vec![samples::accept_all(10)]);
        d.port_mut(0).config.max_queue = 1;
        let _ = d.demux(&pkt(1));
        let _ = d.port_mut(0).enqueue(recv(&pkt(1)));
        let _ = d.port_mut(0).enqueue(recv(&pkt(2)));
        let s = d.port(0).stats();
        assert_eq!(s.accepts, 1);
        assert_eq!(s.queued, 1);
        assert_eq!(s.drops, 1);
        assert!(!s.quarantined);
        assert_eq!(s.budget_overruns, 0);
    }

    #[test]
    fn adaptive_reorder_moves_busy_filter_first() {
        // Two equal-priority filters; the second one matches everything we
        // send. After REORDER_INTERVAL demuxes it must be tested first.
        let mut d = dev_with(vec![
            samples::pup_socket_filter(10, 0, 1),  // never matches below
            samples::pup_socket_filter(10, 0, 35), // always matches
        ]);
        assert_eq!(d.order(), &[0, 1]);
        for _ in 0..=REORDER_INTERVAL {
            let _ = d.demux(&pkt(35));
        }
        assert_eq!(d.order(), &[1, 0], "busier filter reordered to front");
        // And now the busy filter is applied first: one application only.
        let out = d.demux(&pkt(35));
        assert_eq!(out.applied.len(), 1);
        assert_eq!(out.applied[0].port, 1);
    }

    #[test]
    fn reorder_never_crosses_priority_levels() {
        let mut d = dev_with(vec![
            samples::pup_socket_filter(20, 0, 1), // high priority, never busy
            samples::accept_all(10),              // low priority, always busy
        ]);
        for _ in 0..=REORDER_INTERVAL {
            let _ = d.demux(&pkt(35));
        }
        assert_eq!(d.order(), &[0, 1], "priority dominates busyness");
    }

    /// Busyness ordering belongs to the sequential walk. Under a compiled
    /// engine neither traffic, nor a later bind, nor toggling `adaptive`
    /// re-sorts anything, so the set's tie-break (the healthy path) and
    /// `order`'s (the quarantine-merge walk) cannot part company.
    #[test]
    fn adaptive_toggle_changes_nothing_under_compiled_engines() {
        for engine in [DemuxEngine::DecisionTable, DemuxEngine::Geom] {
            for quarantine in [false, true] {
                let ctx = format!("{engine:?}, quarantined port: {quarantine}");
                let mut d = PfDevice::new();
                d.set_engine(engine);
                let bind = |d: &mut PfDevice, f: FilterProgram| {
                    let p = d.open((ProcId(d.open_ports()), Fd(0)));
                    d.set_filter(p, f)
                };
                // Overlapping filters of one priority; the later two get
                // all the traffic.
                assert!(bind(&mut d, samples::socket_range_filter(10, 30, 40)));
                assert!(bind(&mut d, samples::socket_range_filter(10, 35, 50)));
                assert!(bind(&mut d, samples::accept_all(10)));
                if quarantine {
                    assert!(!bind(&mut d, shortcircuit_then_garbage(5, 1)));
                }
                for _ in 0..=REORDER_INTERVAL {
                    assert_eq!(d.demux(&pkt(45)).accepted, vec![1], "{ctx}");
                    assert_eq!(d.demux(&pkt(99)).accepted, vec![2], "{ctx}");
                }
                // A bind after traffic is where busyness used to leak in.
                assert!(bind(&mut d, samples::pup_socket_filter(20, 0, 7)));
                let order = d.order().to_vec();
                let verdicts = |d: &mut PfDevice| {
                    [7, 38, 45, 99].map(|sock| d.demux(&pkt(sock)).accepted.clone())
                };
                let before = verdicts(&mut d);
                assert_eq!(before[1], vec![0], "{ctx}: the port index breaks the tie");
                for on in [false, true, false] {
                    d.set_adaptive_reorder(on);
                    assert_eq!(d.order(), order, "{ctx}: adaptive={on}");
                    assert_eq!(verdicts(&mut d), before, "{ctx}: adaptive={on}");
                }
            }
        }
    }

    #[test]
    fn rebinding_a_filter_is_allowed_any_time() {
        let mut d = dev_with(vec![samples::pup_socket_filter(10, 0, 35)]);
        assert_eq!(d.demux(&pkt(44)).accepted.len(), 0);
        d.set_filter(0, samples::pup_socket_filter(10, 0, 44));
        assert_eq!(d.demux(&pkt(44)).accepted, vec![0]);
    }

    #[test]
    fn geom_engine_agrees_with_sequential() {
        let filters = vec![
            samples::pup_socket_filter(10, 0, 35),
            samples::pup_socket_filter(10, 0, 44),
            samples::socket_range_filter(10, 100, 200),
            samples::accept_all(5),
            samples::fig_3_8_pup_type_range(),
        ];
        for sock in [35u16, 44, 99, 100, 150, 200, 201] {
            let mut seq = dev_with(filters.clone());
            seq.set_adaptive_reorder(false);
            let mut geo = dev_with(filters.clone());
            geo.set_adaptive_reorder(false);
            geo.set_engine(DemuxEngine::Geom);
            let p = pkt(sock);
            assert_eq!(
                seq.demux(&p).accepted,
                geo.demux(&p).accepted,
                "sock={sock}"
            );
        }
    }

    #[test]
    fn geom_engine_reports_tuples_and_conflicts() {
        let mut d = dev_with(vec![
            samples::socket_range_filter(10, 100, 200),
            samples::socket_range_filter(5, 150, 250),
        ]);
        d.set_engine(DemuxEngine::Geom);
        let stats = d.engine_stats();
        assert_eq!(stats.engine, DemuxEngine::Geom);
        assert!(stats.geom_tuple_count >= 1, "socket word indexed");
        assert_eq!(stats.geom_residue, 0, "both members have constraints");
        assert_eq!(stats.geom_overlaps, 1, "[100,200] meets [150,250]");
        assert_eq!(stats.geom_shadows, 0);
        let out = d.demux(&pkt(150));
        assert_eq!(out.accepted, vec![0], "higher priority wins the overlap");
        assert!(
            out.applied.is_empty(),
            "geom engine does not itemize applications"
        );
        assert!(out.ir_ops > 0, "threaded-code work is accounted");
    }

    #[test]
    fn geom_engine_files_exact_filters_in_one_tuple() {
        let mut d = dev_with(vec![
            samples::pup_socket_filter(10, 0, 35),
            samples::pup_socket_filter(10, 0, 44),
        ]);
        d.set_engine(DemuxEngine::Geom);
        // Both members constrain the same three words (ethertype and the
        // two socket words): one directory tuple, one probe per packet.
        let stats = d.engine_stats();
        assert_eq!(stats.geom_tuple_count, 1);
        assert_eq!(d.index_probes(), 1);
        let out = d.demux(&pkt(35));
        assert_eq!(out.accepted, vec![0]);
        assert!(
            out.applied.is_empty(),
            "geom engine does not itemize applications"
        );
        let one_member = out.ir_ops;
        assert!(one_member > 0, "threaded-code work is accounted");
        // A socket nobody holds selects no member at all.
        assert_eq!(d.demux(&pkt(99)).ir_ops, 0);
        assert_eq!(d.demux(&pkt(44)).ir_ops, one_member);
    }

    #[test]
    fn geom_engine_tracks_filter_rebinding_and_close() {
        // A range-keyed member, then an exact-keyed one.
        let range = |lo| samples::socket_range_filter(10, lo, lo + 20);
        let exact = |sock| samples::pup_socket_filter(10, 0, sock);
        for (before, after) in [(range(100), range(240)), (exact(100), exact(250))] {
            let mut d = dev_with(vec![before]);
            d.set_engine(DemuxEngine::Geom);
            assert!(d.demux(&pkt(250)).accepted.is_empty());
            d.set_filter(0, after);
            assert_eq!(d.demux(&pkt(250)).accepted, vec![0]);
            assert!(d.demux(&pkt(100)).accepted.is_empty());
            d.close(0);
            assert!(d.demux(&pkt(250)).accepted.is_empty());
        }
    }

    #[test]
    fn geom_engine_respects_deliver_to_lower() {
        for consumer_filter in [
            samples::socket_range_filter(10, 30, 40),
            samples::pup_socket_filter(10, 0, 35),
        ] {
            let mut d = PfDevice::new();
            let monitor = d.open((ProcId(0), Fd(0)));
            d.set_filter(monitor, samples::accept_all(30));
            d.port_mut(monitor).config.deliver_to_lower = true;
            let consumer = d.open((ProcId(1), Fd(0)));
            d.set_filter(consumer, consumer_filter);
            d.set_engine(DemuxEngine::Geom);
            let out = d.demux(&pkt(35));
            assert_eq!(out.accepted, vec![monitor, consumer]);
        }
    }

    fn tight_quota() -> AdmissionQuota {
        AdmissionQuota {
            rate_pps: 0,
            burst: 2,
        }
    }

    /// Opens a port bound to `filter` on a gated device, under `quota`.
    fn gated_port(d: &mut PfDevice, filter: FilterProgram, quota: AdmissionQuota) -> PortIdx {
        let p = d.open((ProcId(0), Fd(d.open_ports())));
        d.set_filter(p, filter);
        d.set_port_quota(p, Some(quota));
        p
    }

    #[test]
    fn admission_gate_protects_high_priority_and_sheds_best_effort() {
        let mut d = PfDevice::new();
        d.set_admission_control(Some(AdmissionConfig::default()));
        let vip = gated_port(
            &mut d,
            samples::pup_socket_filter(PROTECTED_PRIORITY, 0, 35),
            tight_quota(),
        );
        let be = gated_port(
            &mut d,
            samples::pup_socket_filter(PROTECTED_PRIORITY - 1, 0, 44),
            tight_quota(),
        );
        let now = SimTime::ZERO;
        for _ in 0..8 {
            assert_eq!(d.admit(&pkt(35), now), AdmissionVerdict::Admit, "vip");
        }
        assert_eq!(d.admit(&pkt(44), now), AdmissionVerdict::Admit);
        assert_eq!(d.admit(&pkt(44), now), AdmissionVerdict::Admit);
        assert_eq!(
            d.admit(&pkt(44), now),
            AdmissionVerdict::Shed { port: be },
            "burst exhausted, zero refill"
        );
        assert_eq!(d.port(be).admission_drops, 1);
        assert_eq!(d.port(vip).admission_drops, 0);
        assert_eq!(d.port(be).drops, 0, "drop-at-NIC is not a queue drop");
    }

    #[test]
    fn admission_gate_refills_with_time() {
        let mut d = PfDevice::new();
        d.set_admission_control(Some(AdmissionConfig::default()));
        let quota = AdmissionQuota {
            rate_pps: 1_000,
            burst: 1,
        };
        let p = gated_port(&mut d, samples::pup_socket_filter(10, 0, 35), quota);
        assert_eq!(d.admit(&pkt(35), SimTime(0)), AdmissionVerdict::Admit);
        assert_eq!(
            d.admit(&pkt(35), SimTime(0)),
            AdmissionVerdict::Shed { port: p }
        );
        // 1000 pps = one token per millisecond.
        assert_eq!(
            d.admit(&pkt(35), SimTime(1_000_000)),
            AdmissionVerdict::Admit
        );
        assert_eq!(d.port(p).admission_drops, 1);
    }

    #[test]
    fn admission_gate_never_sheds_unclassifiable_traffic() {
        let mut d = PfDevice::new();
        d.set_admission_control(Some(AdmissionConfig::default()));
        // accept_all has no admission signature: the gate cannot attribute
        // its traffic, so it never sheds it.
        let empty = AdmissionQuota {
            rate_pps: 0,
            burst: 0,
        };
        let p = gated_port(&mut d, samples::accept_all(10), empty);
        for _ in 0..16 {
            assert_eq!(d.admit(&pkt(1), SimTime::ZERO), AdmissionVerdict::Admit);
        }
        assert_eq!(d.port(p).admission_drops, 0);
    }

    #[test]
    fn per_port_quota_overrides_the_default() {
        let mut d = PfDevice::new();
        d.set_admission_control(Some(AdmissionConfig::default()));
        let p = d.open((ProcId(0), Fd(0)));
        d.set_filter(p, samples::pup_socket_filter(10, 0, 35));
        let admitted = |d: &mut PfDevice| {
            (0..100)
                .filter(|_| d.admit(&pkt(35), SimTime::ZERO) == AdmissionVerdict::Admit)
                .count() as u64
        };
        assert_eq!(admitted(&mut d), DEFAULT_QUOTA.burst, "the default burst");
        d.set_port_quota(
            p,
            Some(AdmissionQuota {
                rate_pps: 0,
                burst: 5,
            }),
        );
        assert_eq!(admitted(&mut d), 5, "the override's burst");
    }

    #[test]
    fn rebinding_does_not_mint_burst_capacity() {
        let mut d = PfDevice::new();
        d.set_admission_control(Some(AdmissionConfig::default()));
        let p = gated_port(&mut d, samples::pup_socket_filter(10, 0, 35), tight_quota());
        assert_eq!(d.admit(&pkt(35), SimTime::ZERO), AdmissionVerdict::Admit);
        assert_eq!(d.admit(&pkt(35), SimTime::ZERO), AdmissionVerdict::Admit);
        // Rebinding the same-quota filter must keep the drained bucket.
        d.set_filter(p, samples::pup_socket_filter(10, 0, 35));
        assert_eq!(
            d.admit(&pkt(35), SimTime::ZERO),
            AdmissionVerdict::Shed { port: p }
        );
    }

    /// Every consumer's answer on every sample and figure program: the
    /// decision table's member kind and shape count, geom's required atoms
    /// and chosen key, the gate's signature and candidates, and RSS
    /// placement hashing word 8 — the answers the analysers the form
    /// replaced gave.
    #[test]
    fn the_consumers_answers_on_the_corpus_are_pinned() {
        let answers = |p: &FilterProgram| {
            let mut table = FilterSet::new();
            table.insert(1, p.clone());
            let mut geom = GeomSet::new();
            geom.insert(1, p.clone());
            let form = Form::of(p);
            let tuple = |i: &pf_filter::form::Interval| (i.word, i.lo, i.hi);
            let atoms: Vec<_> = form.required().iter().map(tuple).collect();
            format!(
                "{:?} {} | {atoms:?} {:?} | {:?} {:?} | {:?}",
                table.member_kind(1).unwrap(),
                table.shape_count(),
                geom.key(1).as_ref().map(tuple),
                form.lead().map(|l| (l.word as u8, l.lo)),
                admission_candidates(&form),
                crate::rss::RssConfig::multi_queue(4, vec![8]).placement_of(p),
            )
        };
        let pinned = [
            "Residual 0 | [] None | None [] | None",
            "Table 1 | [(8, 35, 35), (7, 0, 0), (1, 2, 2)] Some((8, 35, 35)) | Some((8, 35)) [(8, 35, 35), (7, 0, 0), (1, 2, 2)] | Some(2)",
            "Table 1 | [(8, 35, 35), (7, 1, 1), (1, 2, 2)] Some((8, 35, 35)) | Some((8, 35)) [(8, 35, 35), (7, 1, 1), (1, 2, 2)] | Some(2)",
            "Residual 0 | [(8, 100, 200), (1, 2, 2)] Some((8, 100, 200)) | None [(8, 100, 200), (1, 2, 2)] | None",
            "Residual 0 | [(8, 7, 65535), (8, 0, 7), (1, 2, 2)] Some((8, 0, 7)) | None [(8, 7, 65535), (8, 0, 7), (1, 2, 2)] | None",
            "Residual 0 | [(8, 0, 65535), (1, 2, 2)] Some((8, 0, 65535)) | None [(1, 2, 2)] | None",
            "Residual 0 | [(1, 2, 2)] Some((1, 2, 2)) | None [(1, 2, 2)] | None",
            "Table 1 | [(1, 2, 2)] Some((1, 2, 2)) | Some((1, 2)) [(1, 2, 2)] | None",
            "Table 1 | [] None | None [] | None",
            "NeverMatches 0 | [] None | None [] | None",
            "Table 1 | [] None | None [] | None",
            "Table 1 | [] None | None [] | None",
            "Table 1 | [] None | None [] | None",
            "Table 1 | [(1, 2, 2), (7, 0, 0), (8, 35, 35)] Some((8, 35, 35)) | Some((1, 2)) [(1, 2, 2), (7, 0, 0), (8, 35, 35)] | Some(2)",
            "NeverMatches 0 | [(0, 1, 1), (0, 2, 2)] Some((0, 2, 2)) | Some((0, 1)) [(0, 1, 1), (0, 2, 2)] | None",
            "Table 1 | [] None | None [] | None",
            "Residual 0 | [(0, 7, 7)] Some((0, 7, 7)) | Some((0, 7)) [(0, 7, 7)] | None",
            "Residual 0 | [] None | None [] | None",
        ];
        let corpus = soup::corpus();
        assert_eq!(corpus.len(), pinned.len());
        for (p, pin) in corpus.iter().zip(pinned) {
            assert_eq!(answers(p), pin, "{p}");
        }
    }

    #[test]
    fn admission_candidates_cover_range_filters() {
        // No leading equality test, so no primary signature…
        let f = Form::of(&samples::socket_range_filter(10, 100, 200));
        assert_eq!(f.lead(), None);
        // …but the required atoms still yield sound witnesses: the socket
        // range and the ethertype guard.
        let cands = admission_candidates(&f);
        assert!(cands.contains(&(8, 100, 200)), "socket interval: {cands:?}");
        assert!(cands.contains(&(1, 2, 2)), "ethertype guard: {cands:?}");
        assert!(admission_candidates(&Form::of(&samples::accept_all(10))).is_empty());
    }

    #[test]
    fn admission_gate_sheds_range_filter_traffic_to_the_right_port() {
        let mut d = PfDevice::new();
        d.set_admission_control(Some(AdmissionConfig::default()));
        // Two port-range filters share the ethertype guard; the gate must
        // classify on the socket word (two distinct intervals) so each
        // port's overload is charged to that port, not the first entry.
        let one = AdmissionQuota {
            rate_pps: 0,
            burst: 1,
        };
        let low = gated_port(&mut d, samples::socket_range_filter(10, 100, 200), one);
        let high = gated_port(&mut d, samples::socket_range_filter(10, 300, 400), one);
        let now = SimTime::ZERO;
        assert_eq!(d.admit(&pkt(150), now), AdmissionVerdict::Admit);
        assert_eq!(
            d.admit(&pkt(150), now),
            AdmissionVerdict::Shed { port: low },
            "burst spent, attributed to the low-range port"
        );
        assert_eq!(
            d.admit(&pkt(350), now),
            AdmissionVerdict::Admit,
            "the high-range port still has its own burst"
        );
        assert_eq!(
            d.admit(&pkt(350), now),
            AdmissionVerdict::Shed { port: high }
        );
        // A socket outside both ranges matches no signature: never shed.
        assert_eq!(d.admit(&pkt(250), now), AdmissionVerdict::Admit);
        assert_eq!(d.port(low).admission_drops, 1);
        assert_eq!(d.port(high).admission_drops, 1);
    }

    #[test]
    fn mimicry_pressure_resignatures_the_gate_and_sheds_mimics() {
        let mut d = PfDevice::new();
        d.set_admission_control(Some(AdmissionConfig {
            mimicry_threshold: Some(3),
            ..Default::default()
        }));
        let vip = d.open((ProcId(0), Fd(0)));
        d.set_filter(vip, samples::pup_socket_filter(200, 0, 35));
        // A mimic wears the protected signature word (socket-lo == 35)
        // under the wrong ethertype: the gate's one-word probe admits it,
        // the filter rejects it.
        let mimic = samples::pup_packet_3mb(9, 0, 35, 1);
        let now = SimTime::ZERO;
        for i in 0..3 {
            assert_eq!(d.admit(&mimic, now), AdmissionVerdict::Admit);
            assert!(d.demux(&mimic).accepted.is_empty());
            let resigned = d.note_unmatched_admit(&mimic);
            assert_eq!(resigned, i == 2, "re-selects exactly at the threshold");
        }
        assert!(
            !d.note_unmatched_admit(&mimic),
            "a re-selected entry is not re-selected again"
        );
        // Hardened: the mimic now fails the verified ethertype word and
        // is shed at the NIC, attributed as a mimicry drop…
        assert_eq!(
            d.admit(&mimic, now),
            AdmissionVerdict::ShedMimic { port: vip }
        );
        // …while genuine protected traffic still admits unconditionally,
        // and the port's quota counters never saw the mimics.
        assert_eq!(d.admit(&pkt(35), now), AdmissionVerdict::Admit);
        assert!(!d.demux(&pkt(35)).accepted.is_empty());
        assert_eq!(d.port(vip).admission_drops, 0);
    }

    #[test]
    fn mimicry_threshold_off_keeps_the_classic_gate() {
        let mut d = PfDevice::new();
        d.set_admission_control(Some(AdmissionConfig::default()));
        let vip = d.open((ProcId(0), Fd(0)));
        d.set_filter(vip, samples::pup_socket_filter(200, 0, 35));
        let mimic = samples::pup_packet_3mb(9, 0, 35, 1);
        for _ in 0..32 {
            assert_eq!(d.admit(&mimic, SimTime::ZERO), AdmissionVerdict::Admit);
            assert!(!d.note_unmatched_admit(&mimic), "defense disarmed");
        }
    }

    #[test]
    fn refill_jitter_caps_banked_burst_unpredictably() {
        let burst_after_idle = |jitter: Option<u64>| {
            let mut d = PfDevice::new();
            d.set_admission_control(Some(AdmissionConfig {
                refill_jitter_key: jitter,
                ..Default::default()
            }));
            let quota = AdmissionQuota {
                rate_pps: 1_000,
                burst: 64,
            };
            gated_port(&mut d, samples::pup_socket_filter(10, 0, 35), quota);
            // A long silence banks the full burst; then fire back-to-back
            // (no refill between probes: rate × 0 elapsed).
            let now = SimTime(10_000_000_000);
            (0..128)
                .filter(|_| d.admit(&pkt(35), now) == AdmissionVerdict::Admit)
                .count()
        };
        assert_eq!(burst_after_idle(None), 64, "classic bucket banks it all");
        let jittered = burst_after_idle(Some(0xB007_5EED));
        assert!(
            (8..=32).contains(&jittered),
            "jittered cap stays in [burst/8, burst/2], got {jittered}"
        );
    }

    #[test]
    fn refill_jitter_keeps_a_zero_burst_cap_at_zero() {
        let admitted_at_rate = |jitter: Option<u64>| {
            let mut d = PfDevice::new();
            d.set_admission_control(Some(AdmissionConfig {
                refill_jitter_key: jitter,
                ..Default::default()
            }));
            let quota = AdmissionQuota {
                rate_pps: 1_000,
                burst: 0,
            };
            gated_port(&mut d, samples::pup_socket_filter(10, 0, 35), quota);
            // Steady traffic at the quota's rate: one frame a millisecond.
            (1..=100u64)
                .filter(|&i| d.admit(&pkt(35), SimTime(i * 1_000_000)) == AdmissionVerdict::Admit)
                .count()
        };
        assert_eq!(
            admitted_at_rate(None),
            0,
            "a zero-burst bucket banks nothing"
        );
        assert_eq!(
            admitted_at_rate(Some(0xB007_5EED)),
            0,
            "jitter must not lift a zero-burst cap"
        );
    }

    /// Satellite: DropOldest on a quarantined-filter port must evict from
    /// the budgeted-fallback path too, and the port's drop counters must
    /// reconcile with the injected totals.
    #[test]
    fn drop_oldest_evicts_on_the_budgeted_fallback_path() {
        let mut d = PfDevice::new();
        d.set_instruction_budget(Some(16));
        let p = d.open((ProcId(0), Fd(0)));
        // Quarantined by validation; the CNAND accepts any socket != 35
        // through the budgeted checked interpreter.
        assert!(!d.set_filter(p, shortcircuit_then_garbage(10, 35)));
        assert!(d.port(p).quarantined.is_some());
        d.port_mut(p).config.max_queue = 2;
        d.port_mut(p).config.overflow = OverflowPolicy::DropOldest;
        let injected = 10u64;
        let mut accepted = 0u64;
        let mut evictions = 0u64;
        for i in 0..injected {
            let frame = pkt(100 + i as u16);
            let out = d.demux(&frame);
            assert_eq!(out.accepted, vec![p], "fallback path accepts");
            accepted += 1;
            match d.port_mut(p).enqueue(recv(&frame)) {
                EnqueueOutcome::Stored => {}
                EnqueueOutcome::StoredDroppingOldest => evictions += 1,
                EnqueueOutcome::Rejected => panic!("DropOldest never rejects here"),
            }
        }
        let s = d.port(p).stats();
        assert!(s.quarantined);
        assert_eq!(s.accepts, accepted);
        assert_eq!(evictions, injected - 2, "all but max_queue evicted");
        assert_eq!(s.drops, evictions, "every eviction counted");
        assert_eq!(
            s.drops + s.queued as u64 + s.admission_drops,
            injected,
            "drop counters reconcile with the injected total"
        );
        // The newest packets survived (DropOldest keeps recency).
        let queued: Vec<Vec<u8>> = d.port(p).queue.iter().map(|q| q.bytes.clone()).collect();
        assert_eq!(queued, vec![pkt(108), pkt(109)]);
    }

    #[test]
    fn recv_packet_metadata_fields() {
        let p = RecvPacket {
            bytes: vec![1, 2],
            stamp: Some(SimTime(5)),
            dropped_before: 3,
        };
        assert_eq!(p.stamp, Some(SimTime(5)));
        assert_eq!(p.dropped_before, 3);
    }
}
