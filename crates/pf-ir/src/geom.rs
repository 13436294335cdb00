//! Geometric (tuple-space) packet classification: sublinear demux over
//! mixed exact-match and *range* filter populations.
//!
//! Every member is keyed on the *required atoms* of its form
//! ([`Form::required`]: the intervals `packet[w] ∈ [lo,hi]` every packet
//! it accepts satisfies — an equality test is just the degenerate
//! interval `[lit,lit]`), and members are partitioned into **tuples**. A member keyed on an equality goes into
//! the *exact-tuple directory*: it is filed under the set of words its
//! exact atoms constrain, in one hash bucket keyed by those words'
//! literals taken together, so one probe per distinct word-set selects
//! the members whose *every* key literal the packet carries — the figure
//! 3-9 port demultiplexers cost one probe and one member evaluation
//! whatever the population. A member keyed on a proper interval — a
//! port-*range* rule has no equality literal to key on — goes into its
//! word's range tuple, a sparse radix-16 segment tree over the 16-bit
//! word domain in which an interval is listed under the widest parts it
//! covers whole, so a *stabbing query* — "which intervals contain this
//! packet's word value?" — walks one root-to-leaf path, at most five
//! nodes, and reports exactly the covering members. The tree is an arena
//! of nodes linked by index, so the walk follows the value's four-bit
//! digits and hashes nothing. A packet therefore probes at most five
//! index nodes a range tuple and one a directory tuple, plus the members
//! its own bytes select, instead of O(n) members.
//!
//! Updates are incremental: an insert touches only the member's own tuple
//! (at most thirty lists a level of the segment tree, or one directory
//! bucket), a remove tombstones the slot, and the slab is compacted —
//! members re-keyed against fresh word statistics — only once tombstones
//! outnumber live members. Inserts also report *conflicts* on the key
//! word: how many existing key intervals the new one overlaps, and
//! whether one fully shadows the other at a priority that makes the
//! narrower filter unable to win first-match (see
//! [`GeomSet::overlap_count`]).
//!
//! Skipping a member its tuple does not select is sound because every
//! key atom is a *required* interval: the member cannot accept unless
//! the packet word lies in it, so a packet that differs
//! from a directory key in any one literal, or falls outside a range
//! key, cannot be accepted — *provided* the packet is long enough for
//! the compiled path. Shorter packets take a slow path that walks every
//! member, preserving the checked-fallback semantics. Only programs that
//! validate join the set: the kernel serves the others from its
//! quarantine. Match results are priority-ordered with ties by id, exactly
//! like every other engine.
//!
//! The same argument lets a candidate skip work: a member whose code is a
//! plain conjunction ([`crate::exec`]) runs only the tests its own slot
//! does not prove, and is charged the whole filter's op count.

use crate::exec::IrFilter;
use pf_filter::dtree::FilterId;
use pf_filter::form::{Form, Interval};
use pf_filter::packet::PacketView;
use pf_filter::program::FilterProgram;
use pf_filter::validate::ValidatedProgram;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

/// Counters from one whole-set evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GeomStats {
    /// Members whose bodies (or fallbacks) were evaluated.
    pub filters_evaluated: u32,
    /// Members the tuple index let the packet skip outright.
    pub filters_skipped: u32,
    /// Tuple sub-structures probed (one literal map or one range tree).
    pub tuples_probed: u32,
    /// Index nodes visited across all probes: one per literal-map lookup,
    /// and the segment-tree levels the probe actually visited, ≤ 5 a
    /// range tuple (a walk ends where the tree does) — the sublinearity
    /// witness: this is bounded by tuple count and log of the domain,
    /// whatever the member count.
    pub nodes_visited: u32,
    /// Threaded-code (or fallback interpreter) instructions executed.
    pub ops_executed: u32,
    /// Candidates rejected by a test their index slot does not prove: the
    /// index selected the member, and a required atom other than its key
    /// turned the packet away.
    pub residual_rejects: u32,
}

// ---------------------------------------------------------------------
// The sparse segment tree backing one range tuple.
// ---------------------------------------------------------------------

/// Bits of the word one level of a [`RangeTree`] consumes. Four: a stab
/// reads five lists and an insert files its interval under at most
/// 15 + 15 parts a level, in 88-byte nodes. Eight would be three reads,
/// but up to 510 list pushes an insert and 1 KB nodes; one — the binary
/// tree this replaced — is seventeen dependent loads a packet.
const DIGIT_BITS: u32 = 4;
const FAN: usize = 1 << DIGIT_BITS;

/// One inner node of a [`RangeTree`]: the intervals that cover its whole
/// span, and the `FAN` equal parts of that span by index (0 — the root
/// among nodes, a reserved entry among leaves, neither anybody's child —
/// means the part holds nothing).
#[derive(Debug, Default)]
struct RangeNode {
    kids: [u32; FAN],
    list: Vec<u32>,
}

/// A sparse radix-16 segment tree over the 16-bit word domain. The root
/// spans the domain and every inner node splits its span in sixteen by
/// the word's next four bits: four inner levels (spans of 65,536, 4,096,
/// 256 and 16 values) over a fifth of single-value leaves, which have no
/// children and are bare lists. An interval is filed under the widest
/// parts it covers whole — at most 15 + 15 a level, the ragged edge on
/// each side — and a stabbing query for `v` reads the lists on the path
/// `v`'s digits spell, at most five, stopping where the tree does, and
/// reports each covering interval exactly once. Nodes exist only where
/// some interval reached, and the arena is bounded by the domain whatever
/// the population: at most 1 + 16 + 256 + 4,096 = 4,369 inner nodes and
/// 65,536 leaves. Nodes are linked by index, so a probe hashes nothing
/// (EXPERIMENTS.md, "The range path, before and after"), and the fan-out
/// is what it is because a probe's cost is its dependent loads
/// ("A range stab in five nodes").
#[derive(Debug)]
struct RangeTree {
    /// Inner nodes, the root at 0.
    nodes: Vec<RangeNode>,
    /// Single-value leaves; entry 0 is reserved and stays empty.
    leaves: Vec<Vec<u32>>,
    /// Interval start → member slots, for output-sensitive overlap
    /// enumeration: everything intersecting `[lo,hi]` either *starts*
    /// inside it (this map) or covers `lo` (a stab).
    starts: BTreeMap<u16, Vec<u32>>,
}

impl Default for RangeTree {
    fn default() -> Self {
        RangeTree {
            nodes: vec![RangeNode::default()],
            leaves: vec![Vec::new()],
            starts: BTreeMap::new(),
        }
    }
}

impl RangeTree {
    fn insert(&mut self, lo: u16, hi: u16, slot: u32) {
        self.starts.entry(lo).or_default().push(slot);
        self.cover(0, 16 - DIGIT_BITS, 0, u32::from(lo), u32::from(hi), slot);
    }

    /// Files `slot` under the widest parts of `[lo, hi]` at or below
    /// `node`, whose span starts at `nlo`, meets the interval, and splits
    /// into parts of `1 << shift` values.
    fn cover(&mut self, node: usize, shift: u32, nlo: u32, lo: u32, hi: u32, slot: u32) {
        let nhi = nlo + ((FAN as u32) << shift) - 1;
        if lo <= nlo && nhi <= hi {
            self.nodes[node].list.push(slot);
            return;
        }
        let first = (lo.max(nlo) - nlo) >> shift;
        let last = (hi.min(nhi) - nlo) >> shift;
        for digit in first..=last {
            if shift == 0 {
                // A part of one value the interval meets is covered.
                let leaf = self.leaf(node, digit as usize);
                self.leaves[leaf].push(slot);
            } else {
                let kid = self.kid(node, digit as usize);
                self.cover(
                    kid,
                    shift - DIGIT_BITS,
                    nlo + (digit << shift),
                    lo,
                    hi,
                    slot,
                );
            }
        }
    }

    /// The arena index of inner `node`'s part `digit`, itself an inner
    /// node, created if this is the first interval to reach into it.
    fn kid(&mut self, node: usize, digit: usize) -> usize {
        if self.nodes[node].kids[digit] == 0 {
            self.nodes[node].kids[digit] = self.nodes.len() as u32;
            self.nodes.push(RangeNode::default());
        }
        self.nodes[node].kids[digit] as usize
    }

    /// The same for a node of the last inner level, whose parts are
    /// leaves.
    fn leaf(&mut self, node: usize, digit: usize) -> usize {
        if self.nodes[node].kids[digit] == 0 {
            self.nodes[node].kids[digit] = self.leaves.len() as u32;
            self.leaves.push(Vec::new());
        }
        self.nodes[node].kids[digit] as usize
    }

    /// Collects every stored interval containing `v` into `out`; returns
    /// the number of tree levels visited.
    fn stab(&self, v: u16, out: &mut Vec<u32>) -> u32 {
        let digit = |shift: u32| usize::from(v >> shift) % FAN;
        let mut node = &self.nodes[0];
        out.extend_from_slice(&node.list);
        let mut levels = 1;
        let mut shift = 16 - DIGIT_BITS;
        while shift > 0 {
            let kid = node.kids[digit(shift)];
            if kid == 0 {
                return levels;
            }
            node = &self.nodes[kid as usize];
            out.extend_from_slice(&node.list);
            levels += 1;
            shift -= DIGIT_BITS;
        }
        match node.kids[digit(0)] {
            0 => levels,
            leaf => {
                out.extend_from_slice(&self.leaves[leaf as usize]);
                levels + 1
            }
        }
    }
}

/// Most exact atoms one directory key packs: four 16-bit literals fill
/// the `u64` a bucket is keyed by.
const TUPLE_WORDS: usize = 4;

/// The packet words one exact tuple reads, ascending (unused tail zero).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct TupleWords {
    len: u8,
    words: [u16; TUPLE_WORDS],
}

impl TupleWords {
    fn as_slice(&self) -> &[u16] {
        &self.words[..usize::from(self.len)]
    }

    /// The packet's literals at these words packed 16 bits each, or
    /// `None` when the packet is too short to carry them all — no member
    /// of the tuple can then accept on its compiled path.
    fn key_of(&self, packet: PacketView<'_>) -> Option<u64> {
        self.as_slice().iter().try_fold(0u64, |key, &w| {
            Some(key << 16 | u64::from(packet.word(usize::from(w))?))
        })
    }

    /// The exact atoms a packet whose [`TupleWords::key_of`] is `key`
    /// satisfies: each word at its literal.
    fn pinned(&self, key: u64) -> impl Iterator<Item = Interval> + '_ {
        let words = self.as_slice();
        words.iter().enumerate().map(move |(i, &word)| {
            Interval::exact(word, (key >> (16 * (words.len() - 1 - i))) as u16)
        })
    }
}

/// Where a member keyed on an exact atom is filed: the words its exact
/// atoms constrain (the deepest [`TUPLE_WORDS`] of them when there are
/// more — every member of one shape then lands in one tuple whatever the
/// statistics were when it arrived) and those words' literals, packed as
/// [`TupleWords::key_of`] packs a packet's.
fn exact_tuple(atoms: &[Interval]) -> (TupleWords, u64) {
    let mut tuple = TupleWords {
        len: 0,
        words: [0; TUPLE_WORDS],
    };
    // The deepest words, filled in from the back, each at its least
    // literal (two literals required of one word never both hold, so
    // either keys it), and packed from the key's low end.
    let (mut key, mut above) = (0u64, u32::MAX);
    for word in tuple.words.iter_mut().rev() {
        let exact = atoms.iter().filter(|a| a.is_exact());
        let below = exact.filter(|a| u32::from(a.word) < above);
        let Some(a) = below.min_by_key(|a| (Reverse(a.word), a.lo)) else {
            break;
        };
        key |= u64::from(a.lo) << (16 * tuple.len);
        (*word, above) = (a.word, u32::from(a.word));
        tuple.len += 1;
    }
    tuple
        .words
        .rotate_left(TUPLE_WORDS - usize::from(tuple.len));
    (tuple, key)
}

/// An interval as one integer, for [`PackedKeyHasher`].
fn packed(a: &Interval) -> u64 {
    u64::from(a.word) << 32 | u64::from(a.lo) << 16 | u64::from(a.hi)
}

/// Hashes a packed key — a directory bucket's literals, or a key of the
/// set's bookkeeping: one multiply and a fold, so the bits the table
/// indexes by depend on every packed field. The standard library's keyed
/// SipHash costs as much per probe as the rest of the lookup together
/// (EXPERIMENTS.md, "Retired, and why (PR 15)"), and what it defends does
/// not arise here: keys enter a table only through `insert` — the bind
/// path, bounded by the port count — while a packet merely probes.
#[derive(Debug, Default, Clone, Copy)]
struct PackedKeyHasher(u64);

impl Hasher for PackedKeyHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("directory keys are hashed as one u64");
    }

    fn write_u64(&mut self, key: u64) {
        let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A map keyed by a packed integer, hashed by [`PackedKeyHasher`].
type PackedMap<V> = HashMap<u64, V, BuildHasherDefault<PackedKeyHasher>>;

/// One exact tuple of the directory: every member whose exact atoms
/// constrain the same words, bucketed by those words' literals taken
/// together — one hash probe per packet selects the members whose
/// *every* key literal the packet carries.
type ExactTuple = PackedMap<Vec<u32>>;

/// What a packet probes on the fast path. Every packet walks both tuple
/// lists whole and a set has one to three tuples, so they are vectors
/// kept sorted by key, not maps.
#[derive(Debug, Default)]
struct TupleIndex {
    /// The exact-tuple directory: members keyed on an exact atom, by the
    /// word-set of all their exact atoms. One hash probe per entry per
    /// packet.
    exact: Vec<(TupleWords, ExactTuple)>,
    /// The range tuples: members keyed on a proper interval, by word.
    ranges: Vec<(u16, RangeTree)>,
    /// Members with no usable key, candidates for every packet.
    residue: Vec<u32>,
}

/// The tuple filed under `key` in a list sorted by key, made if absent.
fn tuple_entry<K: Ord + Copy, T: Default>(tuples: &mut Vec<(K, T)>, key: K) -> &mut T {
    let at = tuples
        .binary_search_by_key(&key, |t| t.0)
        .unwrap_or_else(|at| {
            tuples.insert(at, (key, T::default()));
            at
        });
    &mut tuples[at].1
}

impl TupleIndex {
    /// Appends every slot the index cannot rule out for `packet` (stale
    /// tombstoned slots included) to `cand`.
    fn probe(&self, packet: PacketView<'_>, cand: &mut Vec<u32>, stats: &mut GeomStats) {
        for (words, tuple) in &self.exact {
            let Some(key) = words.key_of(packet) else {
                continue;
            };
            stats.tuples_probed += 1;
            stats.nodes_visited += 1;
            if let Some(list) = tuple.get(&key) {
                cand.extend_from_slice(list);
            }
        }
        for (word, tree) in &self.ranges {
            let Some(v) = packet.word(usize::from(*word)) else {
                continue;
            };
            stats.tuples_probed += 1;
            stats.nodes_visited += tree.stab(v, cand);
        }
        cand.extend_from_slice(&self.residue);
    }
}

// ---------------------------------------------------------------------
// The set.
// ---------------------------------------------------------------------

#[derive(Debug)]
struct GeomMember {
    id: FilterId,
    priority: u8,
    /// The form's required atoms — kept for re-keying at compaction and
    /// for the word statistics.
    atoms: Vec<Interval>,
    /// The atom the statistics chose to key this member on (`None` =
    /// residue): a proper interval files it in that word's range tuple,
    /// an exact one in the directory under *all* its exact atoms.
    key: Option<Interval>,
    /// For an indexed member whose code is a plain conjunction, the mask
    /// of its tests the slot does not prove (see
    /// [`GeomSet::index_member`]); `None` for every other member.
    residual: Option<u8>,
    filter: IrFilter,
}

/// Below this population a compaction is too cheap to defer.
const COMPACT_MIN: usize = 16;

/// A geometric demultiplexing set over mixed exact and range filters.
///
/// Members are valid programs, compiled to threaded code; matches come in
/// `(priority descending, id)` order.
///
/// # Examples
///
/// ```
/// use pf_filter::packet::PacketView;
/// use pf_filter::samples;
/// use pf_ir::geom::GeomSet;
///
/// let mut set = GeomSet::new();
/// set.insert(7, samples::pup_socket_filter(10, 0, 35));
/// set.insert(9, samples::socket_range_filter(10, 40, 49));
/// let pkt = samples::pup_packet_3mb(2, 0, 44, 1);
/// assert_eq!(set.first_match(PacketView::new(&pkt)), Some(9));
/// // One exact tuple (ethertype and both socket words) and one range
/// // tuple on the low socket word.
/// assert_eq!(set.tuple_count(), 2);
/// ```
#[derive(Debug, Default)]
pub struct GeomSet {
    /// Member slab; `None` is a tombstone awaiting compaction.
    slots: Vec<Option<GeomMember>>,
    id_to_slot: PackedMap<u32>,
    /// `(Reverse(priority), id, slot)`, sorted — match order. Tombstoned
    /// slots stay until compaction (their sort key is in the tuple).
    order: Vec<(Reverse<u8>, FilterId, u32)>,
    index: TupleIndex,
    /// `(word, literal, slot)` of every exact key atom, for conflict
    /// counting at insert; packets never read it.
    exact_keys: BTreeSet<(u16, u16, u32)>,
    /// Each distinct required interval (packed by [`packed`]) → its
    /// refcount over *all* atoms of live members, and each word → how
    /// many of those intervals it carries: the key-choice statistic
    /// (most-diverse word wins). Neither is hashed by SipHash, and a bind
    /// allocates in neither once it has grown.
    interval_refs: PackedMap<u32>,
    diversity: PackedMap<u32>,
    /// Packets shorter than this take the walk-everything slow path.
    fast_min_words: usize,
    live: usize,
    dead: usize,
    compactions: u64,
    overlaps: u64,
    shadows: u64,
    /// Reused match-result buffer: evaluating a packet allocates nothing.
    scratch: Vec<FilterId>,
    /// Reused candidate-slot buffer.
    cand: Vec<u32>,
    /// Optional bound on candidates evaluated per packet. Under a
    /// wide-overlap population a hostile probe can select nearly every
    /// member; the cap keeps per-packet evaluation bounded by pruning the
    /// candidate list *after* the priority sort, so only the
    /// lowest-priority (highest-id) candidates are shed.
    candidate_cap: Option<usize>,
    /// Candidates pruned by the cap, cumulative over all evaluations.
    candidates_capped: u64,
}

impl GeomSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of live filters in the set.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether the set holds no live filters.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Occupied tuples — exact word-sets plus per-word range classes —
    /// what every packet probes. Entries are made only by an insert and
    /// dropped only by a compaction, so none is ever empty of entries.
    pub fn tuple_count(&self) -> usize {
        self.index.exact.len() + self.index.ranges.len()
    }

    /// The atom member `id` is keyed on: `None` for the residue, or a
    /// filter that is not a member.
    pub fn key(&self, id: FilterId) -> Option<Interval> {
        let slot = self.id_to_slot.get(&u64::from(id))?;
        self.slots[*slot as usize].as_ref()?.key
    }

    /// Members in no tuple, walked for every packet.
    pub fn residue_len(&self) -> usize {
        self.index
            .residue
            .iter()
            .filter(|&&s| self.slots[s as usize].is_some())
            .count()
    }

    /// Tombstoned slots awaiting compaction.
    pub fn tombstones(&self) -> usize {
        self.dead
    }

    /// Slab/index compactions performed (each re-keys every member).
    pub fn compaction_count(&self) -> u64 {
        self.compactions
    }

    /// Key-tuple interval overlaps observed across all inserts: each
    /// counts one existing member whose key interval intersected a newly
    /// inserted member's on the same word.
    pub fn overlap_count(&self) -> u64 {
        self.overlaps
    }

    /// Shadowing conflicts observed across all inserts: an overlap where
    /// one interval fully contains the other *and* the containing filter
    /// matches first (higher priority, or equal priority and a lower id),
    /// so the narrower filter can never win first-match among
    /// packets distinguished only by this word.
    pub fn shadow_count(&self) -> u64 {
        self.shadows
    }

    /// Bounds candidates evaluated per packet to `cap` (`None` removes
    /// the bound — the default). The candidate list is pruned *after* the
    /// priority sort, so the cap sheds only the lowest-priority /
    /// highest-id candidates: a first-match winner among the top
    /// `cap` candidates is unaffected; members beyond the cap are
    /// deliberately not evaluated (their would-be matches are shed).
    pub fn set_candidate_cap(&mut self, cap: Option<usize>) {
        self.candidate_cap = cap;
    }

    /// Candidates pruned by the cap, cumulative over all evaluations.
    pub fn candidates_capped(&self) -> u64 {
        self.candidates_capped
    }

    /// Inserts (or replaces) the filter for `id`, and returns whether the
    /// program validated and joined the set. An invalid program is left
    /// out, along with what `id` held before.
    pub fn insert(&mut self, id: FilterId, program: FilterProgram) -> bool {
        let Ok(program) = ValidatedProgram::new(program) else {
            self.remove(id);
            return false;
        };
        let form = Form::of(program.program());
        self.insert_validated(id, program, form);
        true
    }

    /// [`GeomSet::insert`] for a program already validated and analysed:
    /// `form` is `Form::of(program.program())`. A bind that validated and
    /// analysed the program for its own reasons hands both over, so
    /// neither runs twice.
    pub fn insert_validated(&mut self, id: FilterId, program: ValidatedProgram, form: Form) {
        self.remove(id);
        let priority = program.priority();
        let atoms = form.into_required();
        let filter = IrFilter::from_validated(program);
        for a in &atoms {
            let refs = self.interval_refs.entry(packed(a)).or_insert(0);
            if *refs == 0 {
                *self.diversity.entry(u64::from(a.word)).or_insert(0) += 1;
            }
            *refs += 1;
        }
        let key = self.choose_key(&atoms);
        if let Some(k) = key {
            self.record_conflicts(k, priority);
        }
        let slot = self.slots.len() as u32;
        let mut member = GeomMember {
            id,
            priority,
            atoms,
            key,
            residual: None,
            filter,
        };
        self.index_member(slot, &mut member);
        self.slots.push(Some(member));
        self.id_to_slot.insert(u64::from(id), slot);
        let entry = (Reverse(priority), id, slot);
        let at = self
            .order
            .partition_point(|e| (e.0, e.1) <= (entry.0, entry.1));
        self.order.insert(at, entry);
        self.live += 1;
    }

    /// Removes the filter for `id`; `true` if it was present.
    ///
    /// The slot is tombstoned — index buckets keep the stale entry, which
    /// walks skip — and the slab is compacted (tombstones dropped, every
    /// member re-keyed against fresh word statistics) only once
    /// tombstones outnumber live members, so steady churn costs O(log U)
    /// per operation rather than a full rebuild.
    pub fn remove(&mut self, id: FilterId) -> bool {
        let Some(slot) = self.id_to_slot.remove(&u64::from(id)) else {
            return false;
        };
        let m = self.slots[slot as usize].take().expect("live slot");
        self.live -= 1;
        self.dead += 1;
        for a in &m.atoms {
            let refs = self.interval_refs.get_mut(&packed(a));
            let refs = refs.expect("a live member's atoms are counted");
            *refs -= 1;
            if *refs == 0 {
                self.interval_refs.remove(&packed(a));
                *self.diversity.get_mut(&u64::from(a.word)).expect("counted") -= 1;
            }
        }
        self.maybe_compact();
        true
    }

    /// The key the statistics favor: the word carrying the most distinct
    /// required intervals set-wide (the most discriminating), tie-broken
    /// toward deeper header words and then narrower intervals.
    fn choose_key(&self, atoms: &[Interval]) -> Option<Interval> {
        atoms.iter().copied().max_by_key(|a| {
            let diversity = self.diversity.get(&u64::from(a.word)).copied();
            (diversity.unwrap_or(0), a.word, Reverse(a.hi - a.lo))
        })
    }

    /// Files `member` under its key in slot `slot`, and drops from its
    /// test list what the slot proves of every packet it selects the
    /// member for: a directory bucket, every literal packed into its key;
    /// a range tuple, the key interval. A test left out would pass on each
    /// such packet, so the rest decide verdict and op count alike.
    fn index_member(&mut self, slot: u32, member: &mut GeomMember) {
        member.residual = None;
        let filter = &member.filter;
        match member.key {
            Some(k) => {
                let conjunction = filter.conjunction();
                if k.is_exact() {
                    let (words, key) = exact_tuple(&member.atoms);
                    member.residual = conjunction
                        .map(|c| c.unproven(|t| words.pinned(key).any(|p| t.implied_by(&p))));
                    let tuple = tuple_entry(&mut self.index.exact, words);
                    tuple.entry(key).or_default().push(slot);
                    self.exact_keys.insert((k.word, k.lo, slot));
                } else {
                    member.residual = conjunction.map(|c| c.unproven(|t| t.implied_by(&k)));
                    tuple_entry(&mut self.index.ranges, k.word).insert(k.lo, k.hi, slot);
                }
                self.fast_min_words = self.fast_min_words.max(filter.min_packet_words());
            }
            None => self.index.residue.push(slot),
        }
    }

    /// Counts overlap and shadowing conflicts between `key` and the live
    /// intervals already indexed on the same word. Output-sensitive:
    /// one literal-map range scan, one start-map range scan, one stab.
    fn record_conflicts(&mut self, key: Interval, priority: u8) {
        // The per-packet candidate buffer, lent: no packet is in flight.
        let mut seen = std::mem::take(&mut self.cand);
        seen.clear();
        let literals = (key.word, key.lo, 0)..=(key.word, key.hi, u32::MAX);
        seen.extend(self.exact_keys.range(literals).map(|e| e.2));
        let ranges = &self.index.ranges;
        if let Ok(at) = ranges.binary_search_by_key(&key.word, |t| t.0) {
            let tree = &ranges[at].1;
            for (_, list) in tree.starts.range(key.lo..=key.hi) {
                seen.extend_from_slice(list);
            }
            tree.stab(key.lo, &mut seen);
        }
        seen.sort_unstable();
        seen.dedup();
        for &s in &seen {
            let Some(m) = self.slots[s as usize].as_ref() else {
                continue;
            };
            let Some(ok) = m.key else { continue };
            self.overlaps += 1;
            // Shadowed in either direction: the containing interval's
            // member matches first (new-over-old needs strictly higher
            // priority; old-over-new wins priority ties by id).
            let new_shadows_old = key.contains(&ok) && priority > m.priority;
            let old_shadows_new = ok.contains(&key) && m.priority >= priority;
            if new_shadows_old || old_shadows_new {
                self.shadows += 1;
            }
        }
        self.cand = seen;
    }

    fn maybe_compact(&mut self) {
        if self.dead == 0 {
            return;
        }
        let total = self.live + self.dead;
        if total < COMPACT_MIN || self.dead > self.live {
            self.compact();
        }
    }

    /// Drops tombstones and rebuilds the index, re-keying every member
    /// against the current word statistics (so a population whose
    /// discriminating word drifted re-clusters on the better key).
    fn compact(&mut self) {
        self.compactions += 1;
        let mut old_slots = std::mem::take(&mut self.slots);
        let old_order = std::mem::take(&mut self.order);
        self.index = TupleIndex::default();
        self.exact_keys.clear();
        self.fast_min_words = 0;
        self.dead = 0;
        // `interval_refs` and `diversity` are already maintained
        // incrementally and count only live members; keys are re-chosen
        // against them wholesale.
        let mut members: Vec<GeomMember> = old_order
            .into_iter()
            .filter_map(|(_, _, s)| old_slots[s as usize].take())
            .collect();
        for m in &mut members {
            m.key = self.choose_key(&m.atoms);
        }
        for (slot, m) in members.iter_mut().enumerate() {
            self.index_member(slot as u32, m);
        }
        self.order = members
            .iter()
            .enumerate()
            .map(|(slot, m)| (Reverse(m.priority), m.id, slot as u32))
            .collect();
        self.id_to_slot = members
            .iter()
            .enumerate()
            .map(|(slot, m)| (u64::from(m.id), slot as u32))
            .collect();
        self.slots = members.into_iter().map(Some).collect();
    }

    /// Ids of every filter accepting the packet, in match order (priority
    /// descending, then id).
    pub fn matches(&mut self, packet: PacketView<'_>) -> Vec<FilterId> {
        self.matches_with_stats(packet).0.to_vec()
    }

    /// The first (highest-priority) accepting filter, if any.
    pub fn first_match(&mut self, packet: PacketView<'_>) -> Option<FilterId> {
        self.walk(packet, true).1.first().copied()
    }

    /// [`GeomSet::matches`] plus execution counters. The returned slice
    /// borrows the set's reused scratch buffer — no per-packet
    /// allocation — and is valid until the next evaluation.
    pub fn matches_with_stats(&mut self, packet: PacketView<'_>) -> (&[FilterId], GeomStats) {
        let (stats, ids) = self.walk(packet, false);
        (ids, stats)
    }

    /// Ids of the members an evaluation of `packet` runs, in match order:
    /// those the index selects (after the candidate cap), or every live
    /// member when the packet is too short for the index.
    pub fn candidates(&self, packet: PacketView<'_>) -> Vec<FilterId> {
        let mut slots = Vec::new();
        if packet.word_len() >= self.fast_min_words {
            let mut stats = GeomStats::default();
            Self::gather(
                &self.index,
                &self.slots,
                packet,
                &mut slots,
                &mut stats,
                self.candidate_cap,
            );
        } else {
            slots.extend(self.order.iter().map(|&(_, _, s)| s));
        }
        slots
            .iter()
            .filter_map(|&s| self.slots[s as usize].as_ref().map(|m| m.id))
            .collect()
    }

    /// Gathers the candidate slots the tuple index selects for `packet`
    /// into `cand`, sorted into match order, then prunes to `cap` if one
    /// is set (highest-priority candidates survive). Returns how many
    /// candidates the cap shed. Fast-path only.
    fn gather(
        index: &TupleIndex,
        slots: &[Option<GeomMember>],
        packet: PacketView<'_>,
        cand: &mut Vec<u32>,
        stats: &mut GeomStats,
        cap: Option<usize>,
    ) -> u64 {
        cand.clear();
        index.probe(packet, cand, stats);
        cand.retain(|&s| slots[s as usize].is_some());
        cand.sort_unstable_by_key(|&s| {
            let m = slots[s as usize].as_ref().expect("retained live");
            (Reverse(m.priority), m.id)
        });
        match cap {
            Some(cap) if cand.len() > cap => {
                let pruned = cand.len() - cap;
                cand.truncate(cap);
                pruned as u64
            }
            _ => 0,
        }
    }

    fn walk(&mut self, packet: PacketView<'_>, stop_at_first: bool) -> (GeomStats, &[FilterId]) {
        let Self {
            slots,
            order,
            index,
            fast_min_words,
            live,
            scratch,
            cand,
            candidate_cap,
            candidates_capped,
            ..
        } = self;
        scratch.clear();
        let mut stats = GeomStats::default();
        if packet.word_len() >= *fast_min_words {
            *candidates_capped +=
                Self::gather(index, slots, packet, cand, &mut stats, *candidate_cap);
            for &s in cand.iter() {
                let m = slots[s as usize].as_ref().expect("retained live");
                if eval_candidate(m, packet, &mut stats) {
                    scratch.push(m.id);
                    if stop_at_first {
                        break;
                    }
                }
            }
        } else {
            // Short packet: the index says nothing about the members'
            // checked fallbacks, so walk every live member in match order.
            for &(_, _, s) in order.iter() {
                let Some(m) = slots[s as usize].as_ref() else {
                    continue;
                };
                if eval_member(m, packet, &mut stats) {
                    scratch.push(m.id);
                    if stop_at_first {
                        break;
                    }
                }
            }
        }
        stats.filters_skipped = *live as u32 - stats.filters_evaluated;
        (stats, scratch)
    }
}

/// Evaluates a member the index selected for a packet at least
/// `fast_min_words` long: a conjunction runs only the tests its slot does
/// not prove, which gives the whole filter's verdict and op count.
fn eval_candidate(m: &GeomMember, packet: PacketView<'_>, stats: &mut GeomStats) -> bool {
    if let Some(mask) = m.residual {
        if let Some(conjunction) = m.filter.conjunction() {
            stats.filters_evaluated += 1;
            let (accept, ops) = conjunction.run(packet, mask);
            stats.ops_executed += ops;
            stats.residual_rejects += u32::from(!accept);
            return accept;
        }
    }
    eval_member(m, packet, stats)
}

/// Evaluates one member. [`IrFilter::eval_with_stats`] routes packets
/// shorter than the member's own static minimum to its checked fallback
/// internally, so per-member semantics match every other engine.
fn eval_member(m: &GeomMember, packet: PacketView<'_>, stats: &mut GeomStats) -> bool {
    stats.filters_evaluated += 1;
    let (accept, s) = m.filter.eval_with_stats(packet);
    stats.ops_executed += s.ops_executed;
    accept
}

#[cfg(test)]
mod tests {
    use super::*;
    use pf_filter::dtree::FilterSet;
    use pf_filter::interp::CheckedInterpreter;
    use pf_filter::program::Assembler;
    use pf_filter::samples;
    use pf_filter::word::BinaryOp;
    use pf_sim::rng::SplitMix64;

    fn pkt(sock: u16) -> Vec<u8> {
        samples::pup_packet_3mb(2, 0, sock, 1)
    }

    #[test]
    fn range_tree_stab_reports_exactly_covering_intervals() {
        let mut t = RangeTree::default();
        t.insert(10, 20, 0);
        t.insert(15, 30, 1);
        t.insert(0, u16::MAX, 2);
        t.insert(21, 21, 3);
        for (v, expect) in [
            (9u16, vec![2u32]),
            (10, vec![0, 2]),
            (17, vec![0, 1, 2]),
            (21, vec![1, 2, 3]),
            (31, vec![2]),
            (u16::MAX, vec![2]),
        ] {
            let mut got = Vec::new();
            t.stab(v, &mut got);
            got.sort_unstable();
            assert_eq!(got, expect, "v={v}");
        }
    }

    /// One seeded interval: a point (anywhere, or at either end of the
    /// domain), the whole domain, a range touching either end, one that
    /// straddles a multiple of 16, 256 or 4,096, a block of one of those
    /// widths exactly aligned, one nested in or abutting an earlier
    /// interval, or any range at all.
    fn seeded_interval(rng: &mut SplitMix64, earlier: &[(u16, u16)]) -> (u16, u16) {
        let any = |rng: &mut SplitMix64| rng.below(1 << 16) as u16;
        let width = |rng: &mut SplitMix64| [16u32, 256, 4_096][rng.below(3) as usize];
        let prev = earlier.get(rng.below(earlier.len() as u64) as usize);
        match (rng.below(11), prev) {
            (0, _) => {
                let v = any(rng);
                (v, v)
            }
            (1, _) => (0, u16::MAX),
            (2, _) => (0, any(rng)),
            (3, _) => (any(rng), u16::MAX),
            (4, Some(&(lo, hi))) => {
                let a = lo + rng.below(u64::from(hi - lo) + 1) as u16;
                (a, a + rng.below(u64::from(hi - a) + 1) as u16)
            }
            (5, Some(&(_, hi))) if hi < u16::MAX => {
                let a = hi + 1;
                (
                    a,
                    a + rng.below(u64::from((u16::MAX - a).min(255)) + 1) as u16,
                )
            }
            (6, _) => {
                // Ends up to a block's width either side of a boundary.
                let w = width(rng);
                let at = w * (1 + rng.below(u64::from((1 << 16) / w - 1)) as u32);
                let lo = at - 1 - rng.below(u64::from(w)) as u32;
                let hi = at + rng.below(u64::from(w)) as u32;
                (lo as u16, hi as u16)
            }
            (7, _) => {
                let w = width(rng);
                let lo = w * rng.below(u64::from((1 << 16) / w)) as u32;
                (lo as u16, (lo + w - 1) as u16)
            }
            (8, _) => (0, 0),
            (9, _) => (u16::MAX, u16::MAX),
            _ => {
                let (a, b) = (any(rng), any(rng));
                (a.min(b), a.max(b))
            }
        }
    }

    /// Both ends of the domain, every interval's ends and their outside
    /// neighbours in turn, then anything, up to `n` values.
    fn seeded_probes(rng: &mut SplitMix64, intervals: &[(u16, u16)], n: usize) -> Vec<u16> {
        let mut probes = vec![0, u16::MAX];
        while probes.len() < n {
            let (lo, hi) = intervals[rng.below(intervals.len() as u64) as usize];
            probes.push(match rng.below(5) {
                0 => lo,
                1 => hi,
                2 => lo.saturating_sub(1),
                3 => hi.saturating_add(1),
                _ => rng.below(1 << 16) as u16,
            });
        }
        probes
    }

    #[test]
    fn stabs_agree_with_brute_force_on_seeded_intervals() {
        const INTERVALS: usize = 2_000;
        let iterations = if cfg!(debug_assertions) { 1 } else { 10 };
        for iteration in 0..iterations {
            let mut rng = SplitMix64::new(0x57AB_0000 + iteration);
            let mut intervals: Vec<(u16, u16)> = Vec::with_capacity(INTERVALS);
            let mut tree = RangeTree::default();
            for slot in 0..INTERVALS {
                let (lo, hi) = seeded_interval(&mut rng, &intervals);
                tree.insert(lo, hi, slot as u32);
                intervals.push((lo, hi));
            }
            // Every interval's ends and their outside neighbours, then the
            // seeded draw.
            let ends = intervals
                .iter()
                .flat_map(|&(lo, hi)| [lo.saturating_sub(1), lo, hi, hi.saturating_add(1)]);
            let probes: Vec<u16> = ends
                .chain(seeded_probes(&mut rng, &intervals, 4_096))
                .collect();
            let mut got = Vec::new();
            for v in probes {
                got.clear();
                let levels = tree.stab(v, &mut got);
                assert!((1..=5).contains(&levels), "v={v}: {levels} levels");
                got.sort_unstable();
                let covering: Vec<u32> = (0..INTERVALS as u32)
                    .filter(|&s| {
                        let (lo, hi) = intervals[s as usize];
                        lo <= v && v <= hi
                    })
                    .collect();
                assert_eq!(got, covering, "iteration {iteration}, v={v}");
            }

            // The same intervals as range filters of seeded priority in a
            // set, against the checked interpreter applied in priority
            // order: at full population, over tombstones, across the
            // compaction the removes force, and after binding again.
            let program = |slot: usize| {
                let (lo, hi) = intervals[slot];
                samples::socket_range_filter(1 + (slot * 7 % 5) as u8, lo, hi)
            };
            let checked = CheckedInterpreter;
            let mut set = GeomSet::new();
            // Live members as `(id, slot)`.
            let mut live: Vec<(FilterId, usize)> = Vec::new();
            for slot in 0..INTERVALS {
                set.insert(slot as FilterId, program(slot));
                live.push((slot as FilterId, slot));
            }
            let check = |set: &mut GeomSet,
                         live: &[(FilterId, usize)],
                         rng: &mut SplitMix64,
                         stage: &str| {
                let mut order: Vec<(FilterId, FilterProgram)> =
                    live.iter().map(|&(id, slot)| (id, program(slot))).collect();
                order.sort_by_key(|(id, f)| (Reverse(f.priority()), *id));
                for v in seeded_probes(rng, &intervals, 48) {
                    let frame = pkt(v);
                    let view = PacketView::new(&frame);
                    let expect: Vec<FilterId> = order
                        .iter()
                        .filter(|(_, f)| checked.eval(f, view))
                        .map(|&(id, _)| id)
                        .collect();
                    assert_eq!(
                        set.matches(view),
                        expect,
                        "iteration {iteration}, {stage}, v={v}"
                    );
                }
            };
            check(&mut set, &live, &mut rng, "full");
            for _ in 0..INTERVALS * 2 / 5 {
                let (id, _) = live.remove(rng.below(live.len() as u64) as usize);
                assert!(set.remove(id));
            }
            assert_eq!(set.compaction_count(), 0, "iteration {iteration}");
            check(&mut set, &live, &mut rng, "over tombstones");
            while set.compaction_count() == 0 {
                let (id, _) = live.remove(rng.below(live.len() as u64) as usize);
                assert!(set.remove(id));
            }
            check(&mut set, &live, &mut rng, "compacted");
            for n in 0..INTERVALS / 4 {
                let slot = rng.below(INTERVALS as u64) as usize;
                let id = (INTERVALS + n) as FilterId;
                set.insert(id, program(slot));
                live.push((id, slot));
            }
            check(&mut set, &live, &mut rng, "bound again");
        }
    }

    #[test]
    fn the_arena_is_bounded_by_the_domain_not_the_population() {
        let intervals = if cfg!(debug_assertions) {
            20_000
        } else {
            200_000
        };
        let mut rng = SplitMix64::new(0xA7E4_A000);
        let mut drawn: Vec<(u16, u16)> = Vec::with_capacity(intervals);
        let mut tree = RangeTree::default();
        for slot in 0..intervals {
            let (lo, hi) = seeded_interval(&mut rng, &drawn);
            tree.insert(lo, hi, slot as u32);
            drawn.push((lo, hi));
        }
        // 1 + 16 + 256 + 4,096 inner nodes; a leaf a value, entry 0 apart.
        let (inner, leaves) = (tree.nodes.len(), tree.leaves.len() - 1);
        assert!(inner <= 4_369, "{inner} inner nodes");
        assert!(leaves <= 65_536, "{leaves} leaves");
    }

    #[test]
    fn ranges_and_exacts_share_priority_order() {
        let mut set = GeomSet::new();
        set.insert(1, samples::pup_socket_filter(10, 0, 44)); // exact
        set.insert(2, samples::socket_range_filter(20, 40, 49)); // range, higher prio
        set.insert(3, samples::socket_range_filter(10, 0, u16::MAX)); // catch-all range
        set.insert(4, samples::accept_all(1)); // residue
        let p = pkt(44);
        assert_eq!(set.matches(PacketView::new(&p)), vec![2, 1, 3, 4]);
        assert_eq!(set.first_match(PacketView::new(&p)), Some(2));
        let p = pkt(99);
        assert_eq!(set.matches(PacketView::new(&p)), vec![3, 4]);
    }

    #[test]
    fn index_skips_non_covering_members() {
        let mut set = GeomSet::new();
        for i in 0..32u16 {
            set.insert(u32::from(i), samples::pup_socket_filter(10, 0, 100 + i));
        }
        for i in 0..32u16 {
            let lo = 1000 + 10 * i;
            set.insert(
                u32::from(100 + i),
                samples::socket_range_filter(10, lo, lo + 9),
            );
        }
        let p = pkt(115);
        let (ids, stats) = set.matches_with_stats(PacketView::new(&p));
        assert_eq!(ids, vec![15]);
        assert_eq!(stats.filters_evaluated, 1, "{stats:?}");
        assert_eq!(stats.filters_skipped, 63, "{stats:?}");
        let p = pkt(1155);
        let (ids, stats) = set.matches_with_stats(PacketView::new(&p));
        assert_eq!(ids, vec![115]);
        assert_eq!(stats.filters_evaluated, 1, "{stats:?}");
    }

    #[test]
    fn agrees_with_sequential_checked_walk_on_mixed_population() {
        let mut geom = GeomSet::new();
        let mut invalid = Assembler::new(15)
            .pushword(0)
            .pushlit_op(BinaryOp::Cor, 0x0102)
            .finish()
            .words()
            .to_vec();
        invalid.push(15 << 6);
        let filters = [
            (1u32, samples::pup_socket_filter(10, 0, 35)),
            (2, samples::pup_socket_filter(10, 0, 44)),
            (3, samples::socket_range_filter(10, 40, 60)),
            (4, samples::socket_range_filter(20, 50, 55)),
            (5, samples::fig_3_8_pup_type_range()),
            (6, samples::ethertype_filter(5, 2)),
            (7, samples::accept_all(1)),
            (8, samples::reject_all(30)),
        ];
        for (id, f) in &filters {
            assert!(geom.insert(*id, f.clone()));
        }
        assert!(!geom.insert(9, FilterProgram::from_words(15, invalid)));
        let checked = CheckedInterpreter;
        let mut order: Vec<&(u32, FilterProgram)> = filters.iter().collect();
        order.sort_by_key(|(_, f)| Reverse(f.priority()));
        let mut frames: Vec<Vec<u8>> = Vec::new();
        for sock in [35u16, 40, 44, 52, 60, 61, 99] {
            for et in [2u16, 3] {
                frames.push(samples::pup_packet_3mb(et, 0, sock, 1));
            }
        }
        frames.push(pkt(44)[..6].to_vec()); // truncated
        frames.push(Vec::new()); // empty
        for (i, f) in frames.iter().enumerate() {
            let v = PacketView::new(f);
            let expect: Vec<FilterId> = order
                .iter()
                .filter(|(_, p)| checked.eval(p, v))
                .map(|(id, _)| *id)
                .collect();
            assert_eq!(geom.matches(v), expect, "frame {i}");
        }
    }

    #[test]
    fn short_packets_walk_everything() {
        let mut set = GeomSet::new();
        set.insert(1, samples::pup_socket_filter(10, 0, 35));
        set.insert(2, samples::socket_range_filter(10, 100, 200));
        // Too short for word 8: must reject via fallback, not panic.
        assert_eq!(set.first_match(PacketView::new(&[1, 2, 3, 4])), None);
    }

    #[test]
    fn remove_tombstones_then_compaction_fires() {
        let mut set = GeomSet::new();
        for i in 0..32u16 {
            set.insert(
                u32::from(i),
                samples::socket_range_filter(10, 100 * i, 100 * i + 50),
            );
        }
        for i in 0..16u32 {
            assert!(set.remove(i));
        }
        assert_eq!(set.compaction_count(), 0, "deferred while dead <= live");
        assert_eq!(set.tombstones(), 16);
        assert!(set.remove(16));
        assert_eq!(set.compaction_count(), 1, "dead > live compacts");
        assert_eq!(set.tombstones(), 0);
        assert_eq!(set.len(), 15);
        let p = pkt(2025);
        assert_eq!(set.matches(PacketView::new(&p)), vec![20]);
    }

    #[test]
    fn churn_is_incremental_no_compactions() {
        let mut set = GeomSet::new();
        for i in 0..64u16 {
            set.insert(
                u32::from(i),
                samples::socket_range_filter(10, 100 * i, 100 * i + 50),
            );
        }
        // Balanced remove+insert churn: tombstones never outnumber live.
        for round in 0..60u16 {
            let id = u32::from(round % 64);
            assert!(set.remove(id));
            let lo = 100 * (round % 64);
            set.insert(id, samples::socket_range_filter(10, lo, lo + 50));
        }
        assert_eq!(set.compaction_count(), 0, "steady churn must not rebuild");
        let p = pkt(2025);
        assert_eq!(set.matches(PacketView::new(&p)), vec![20]);
    }

    #[test]
    fn overlap_and_shadow_counters() {
        let mut set = GeomSet::new();
        set.insert(1, samples::socket_range_filter(10, 100, 200));
        assert_eq!(set.overlap_count(), 0);
        // Disjoint: no conflict.
        set.insert(2, samples::socket_range_filter(10, 300, 400));
        assert_eq!(set.overlap_count(), 0);
        // Overlaps 1 without containment: overlap, no shadow.
        set.insert(3, samples::socket_range_filter(10, 150, 250));
        assert_eq!(set.overlap_count(), 1);
        assert_eq!(set.shadow_count(), 0);
        // Nested inside 1 at lower priority: 1 matches first everywhere
        // in [120,130] — shadowed on this tuple.
        set.insert(4, samples::socket_range_filter(5, 120, 130));
        assert_eq!(set.overlap_count(), 2, "(3 vs 1) and (4 vs 1)");
        assert_eq!(set.shadow_count(), 1);
        // A higher-priority cover arriving later shadows the covered one.
        set.insert(5, samples::socket_range_filter(30, 0, 1000));
        assert!(set.shadow_count() >= 2, "{}", set.shadow_count());
    }

    #[test]
    fn replace_keeps_single_entry() {
        let mut set = GeomSet::new();
        set.insert(1, samples::socket_range_filter(10, 0, 100));
        set.insert(1, samples::socket_range_filter(10, 200, 300));
        assert_eq!(set.len(), 1);
        assert_eq!(set.first_match(PacketView::new(&pkt(50))), None);
        assert_eq!(set.first_match(PacketView::new(&pkt(250))), Some(1));
    }

    #[test]
    fn probe_work_is_logarithmic_in_population() {
        // The sublinearity witness: growing the population 16x must not
        // grow per-packet index work (tuple probes are fixed by the
        // tuple count; tree descent is fixed by the domain).
        let mut small = GeomSet::new();
        let mut big = GeomSet::new();
        for i in 0..64u32 {
            small.insert(
                i,
                samples::socket_range_filter(10, (i as u16) * 8, (i as u16) * 8 + 7),
            );
        }
        for i in 0..1024u32 {
            big.insert(
                i,
                samples::socket_range_filter(10, (i as u16) * 8, (i as u16) * 8 + 7),
            );
        }
        let p = pkt(100);
        let (_, s_small) = small.matches_with_stats(PacketView::new(&p));
        let (_, s_big) = big.matches_with_stats(PacketView::new(&p));
        assert_eq!(
            s_small.nodes_visited, s_big.nodes_visited,
            "{s_small:?} vs {s_big:?}"
        );
        assert_eq!(s_big.filters_evaluated, 1, "{s_big:?}");
    }

    #[test]
    fn candidate_cap_bounds_wide_overlap_evaluation() {
        // An overlap bomb: 40 nested ranges that all contain the probe
        // point, so the index can rule nothing out and evaluation, not
        // probing, dominates.
        let mut set = GeomSet::new();
        for i in 0..40u32 {
            let w = i as u16;
            set.insert(i, samples::socket_range_filter(10, 1000 + w, 3000 - w));
        }
        assert!(set.overlap_count() > 0, "nested inserts overlap");
        assert!(
            set.shadow_count() > 0,
            "narrower later inserts are shadowed"
        );
        let p = pkt(2000);
        let (_, undefended) = set.matches_with_stats(PacketView::new(&p));
        assert_eq!(undefended.filters_evaluated, 40, "{undefended:?}");
        // The mitigation: cap candidates per packet; the priority-sorted
        // pruning keeps the first-match winner (lowest id at equal
        // priority) and bounds evaluation.
        set.set_candidate_cap(Some(8));
        let (_, capped) = set.matches_with_stats(PacketView::new(&p));
        assert!(capped.filters_evaluated <= 8, "{capped:?}");
        assert_eq!(set.candidates_capped(), 32);
        assert_eq!(set.first_match(PacketView::new(&p)), Some(0));
    }

    #[test]
    fn matches_in_priority_then_id_order_and_a_reinsert_keeps_its_place() {
        let mut set = GeomSet::new();
        set.insert(1, samples::accept_all(5));
        set.insert(3, samples::accept_all(20));
        set.insert(2, samples::accept_all(20));
        assert_eq!(set.matches(PacketView::new(&pkt(1))), vec![2, 3, 1]);
        assert_eq!(set.first_match(PacketView::new(&pkt(1))), Some(2));
        set.insert(2, samples::accept_all(20));
        assert_eq!(set.matches(PacketView::new(&pkt(1))), vec![2, 3, 1]);
    }

    #[test]
    fn replace_and_remove() {
        let mut set = GeomSet::new();
        set.insert(1, samples::pup_socket_filter(10, 0, 35));
        assert_eq!(set.first_match(PacketView::new(&pkt(44))), None);
        set.insert(1, samples::pup_socket_filter(10, 0, 44));
        assert_eq!(set.len(), 1);
        assert_eq!(set.first_match(PacketView::new(&pkt(35))), None);
        assert_eq!(set.first_match(PacketView::new(&pkt(44))), Some(1));
        assert!(set.remove(1));
        assert!(!set.remove(1));
        assert!(set.is_empty());
    }

    #[test]
    fn an_invalid_program_does_not_join() {
        // COR accepts matching packets *before* the trailing garbage word
        // is ever decoded, but the program fails validation: the kernel's
        // quarantine serves it, never the set.
        let mut words = Assembler::new(10)
            .pushword(0)
            .pushlit_op(BinaryOp::Cor, 0x0102)
            .finish()
            .words()
            .to_vec();
        words.push(15 << 6); // reserved opcode: fails validation
        let mut set = GeomSet::new();
        assert!(set.insert(1, samples::accept_all(10)));
        assert!(!set.insert(1, FilterProgram::from_words(10, words)));
        assert!(set.is_empty());
        assert_eq!(set.residue_len(), 0);
        assert_eq!(set.first_match(PacketView::new(&pkt(35))), None);
    }

    #[test]
    fn agrees_with_decision_table_set() {
        let mut geom = GeomSet::new();
        let mut dt = FilterSet::new();
        let filters = [
            (1u32, samples::pup_socket_filter(10, 0, 35)),
            (2, samples::pup_socket_filter(10, 0, 44)),
            (3, samples::ethertype_filter(20, 2)),
            (4, samples::fig_3_8_pup_type_range()),
            (5, samples::reject_all(30)),
        ];
        for (id, f) in &filters {
            geom.insert(*id, f.clone());
            dt.insert(*id, f.clone());
        }
        for sock in [35u16, 44, 99] {
            for ethertype in [2u16, 3] {
                let p = samples::pup_packet_3mb(ethertype, 0, sock, 1);
                let view = PacketView::new(&p);
                assert_eq!(
                    geom.matches(view),
                    dt.matches(view),
                    "sock={sock} et={ethertype}"
                );
            }
        }
    }

    /// The figure 3-9 idiom over two words: socket `CAND`, ethertype `EQ`.
    fn socket_and_type(socket: u16, ethertype: u16) -> FilterProgram {
        Assembler::new(10)
            .pushword(8)
            .pushlit_op(BinaryOp::Cand, socket)
            .pushword(1)
            .pushlit_op(BinaryOp::Eq, ethertype)
            .finish()
    }

    #[test]
    fn directory_keys_on_every_exact_atom_jointly() {
        // 4 ethertypes x 16 sockets, inserted so that the word statistics
        // favour the ethertype word first and the socket word later: one
        // word-set, one tuple, whichever atom each member was keyed on.
        let mut set = GeomSet::new();
        for i in 0..64u16 {
            set.insert(u32::from(i), socket_and_type(100 + i / 4, 2 + i % 4));
        }
        assert_eq!(set.tuple_count(), 1);
        for i in 0..64u16 {
            let p = samples::pup_packet_3mb(2 + i % 4, 0, 100 + i / 4, 1);
            let (ids, stats) = set.matches_with_stats(PacketView::new(&p));
            assert_eq!(ids, [u32::from(i)]);
            assert_eq!(stats.filters_evaluated, 1, "member {i}: {stats:?}");
            assert_eq!(stats.tuples_probed, 1, "member {i}: {stats:?}");
        }
        // A socket somebody holds under an ethertype nobody holds selects
        // no candidate at all.
        let stray = samples::pup_packet_3mb(0x600, 0, 100, 1);
        let (ids, stats) = set.matches_with_stats(PacketView::new(&stray));
        assert!(ids.is_empty());
        assert_eq!(stats.filters_evaluated, 0, "{stats:?}");
    }

    #[test]
    fn wider_than_one_key_members_share_the_deepest_words() {
        // Six exact atoms: the key packs the four deepest words (4, 6, 7,
        // 8), so two members that differ only in the ethertype share a
        // bucket and are told apart by evaluation.
        let wide = |id: u32, ethertype: u16| {
            let f = Assembler::new(10)
                .pushword(8)
                .pushlit_op(BinaryOp::Cand, 35)
                .pushword(7)
                .pushlit_op(BinaryOp::Cand, 0)
                .pushword(6)
                .pushlit_op(BinaryOp::Cand, 0x0A0B)
                .pushword(4)
                .pushlit_op(BinaryOp::Cand, 0xBEEF)
                .pushword(0)
                .pushlit_op(BinaryOp::Cand, 0x0102)
                .pushword(1)
                .pushlit_op(BinaryOp::Eq, ethertype)
                .finish();
            (id, f)
        };
        let mut set = GeomSet::new();
        for (id, f) in [wide(1, 2), wide(2, 3)] {
            let atoms = Form::of(&f).required().to_vec();
            assert_eq!(atoms.iter().filter(|a| a.is_exact()).count(), 6);
            let (words, _) = exact_tuple(&atoms);
            assert_eq!(words.as_slice(), [4, 6, 7, 8]);
            set.insert(id, f);
        }
        assert_eq!(set.tuple_count(), 1);
        let (ids, stats) = set.matches_with_stats(PacketView::new(&pkt(35)));
        assert_eq!(ids, [1]);
        assert_eq!(stats.filters_evaluated, 2, "{stats:?}");
        // Member 2's ethertype test, outside the key, turned it away.
        assert_eq!(stats.residual_rejects, 1, "{stats:?}");
        let (ids, stats) = set.matches_with_stats(PacketView::new(&pkt(36)));
        assert!(ids.is_empty());
        assert_eq!(stats.filters_evaluated, 0, "{stats:?}");
    }

    #[test]
    fn conflicts_count_across_exact_and_range_keys() {
        // An exact key inside a range key on the same word is one overlap
        // and — the containing range matching first — one shadow,
        // whichever arrives first. Both members key on the socket word:
        // it is the deeper of two equally diverse words.
        let range = || samples::socket_range_filter(20, 100, 200);
        let exact = || socket_and_type(150, 2);
        for range_first in [true, false] {
            let mut set = GeomSet::new();
            if range_first {
                set.insert(1, range());
                set.insert(2, exact());
            } else {
                set.insert(2, exact());
                set.insert(1, range());
            }
            assert_eq!(set.overlap_count(), 1, "range_first={range_first}");
            assert_eq!(set.shadow_count(), 1, "range_first={range_first}");
            // Outside the range: no conflict.
            set.insert(3, socket_and_type(250, 2));
            assert_eq!(set.overlap_count(), 1, "range_first={range_first}");
            // The same exact key again: one more overlap, and the earlier
            // equal-priority twin shadows the later.
            set.insert(4, exact());
            assert_eq!(set.overlap_count(), 3, "range_first={range_first}");
            assert_eq!(set.shadow_count(), 3, "range_first={range_first}");
            assert_eq!(
                set.matches(PacketView::new(&pkt(150))),
                vec![1, 2, 4],
                "range_first={range_first}"
            );
        }
    }

    #[test]
    fn packet_missing_a_tuple_word_skips_the_tuple() {
        let (words, key) = exact_tuple(Form::of(&socket_and_type(35, 2)).required());
        assert_eq!(words.as_slice(), [1, 8]);
        assert_eq!(words.key_of(PacketView::new(&pkt(35))), Some(key));
        // Eight words carry the ethertype but not the socket: no key.
        assert_eq!(words.key_of(PacketView::new(&pkt(35)[..16])), None);

        // At the set, the same packet is below `fast_min_words` and takes
        // the walk-everything path: nothing is skipped, the member rejects
        // on its own checked fallback, and a residue member still accepts.
        let mut set = GeomSet::new();
        set.insert(1, socket_and_type(35, 2));
        set.insert(2, samples::accept_all(5));
        let (ids, stats) = set.matches_with_stats(PacketView::new(&pkt(35)[..16]));
        assert_eq!(ids, [2]);
        assert_eq!(stats.filters_evaluated, 2, "{stats:?}");
        assert_eq!(stats.tuples_probed, 0, "{stats:?}");
        let (ids, stats) = set.matches_with_stats(PacketView::new(&pkt(35)));
        assert_eq!(ids, [1, 2]);
        assert_eq!(stats.tuples_probed, 1, "{stats:?}");
    }

    /// The residual test mask of member `id`.
    fn residual(set: &GeomSet, id: FilterId) -> Option<u8> {
        let slot = set.id_to_slot.get(&u64::from(id))?;
        set.slots[*slot as usize].as_ref()?.residual
    }

    #[test]
    fn a_slot_drops_the_tests_it_proves() {
        let programs = [
            // A directory bucket proves every literal of figure 3-9.
            samples::fig_3_9_pup_socket_35(),
            // A range slot proves the socket range, not the ethertype:
            // tests run range first, so the second is left.
            samples::socket_range_filter(10, 40, 60),
            // Figure 3-8 is no conjunction, and the residue holds no slot.
            samples::fig_3_8_pup_type_range(),
            samples::accept_all(1),
        ];
        let mut set = GeomSet::new();
        for (id, f) in programs.iter().enumerate() {
            set.insert(id as FilterId, f.clone());
        }
        assert_eq!(residual(&set, 0), Some(0));
        assert_eq!(residual(&set, 1), Some(0b10));
        assert_eq!(residual(&set, 2), None);
        assert_eq!(residual(&set, 3), None);

        let hit = samples::pup_packet_3mb(2, 0, 50, 1);
        let (ids, stats) = set.matches_with_stats(PacketView::new(&hit));
        assert_eq!(ids, [1, 2, 3]);
        assert_eq!(stats.residual_rejects, 0, "{stats:?}");
        // Selected by its range, refused by its ethertype.
        let stray = samples::pup_packet_3mb(3, 0, 50, 1);
        let view = PacketView::new(&stray);
        let whole: u32 = set
            .candidates(view)
            .iter()
            .map(|&id| {
                let f = IrFilter::compile(programs[id as usize].clone()).unwrap();
                f.eval_with_stats(view).1.ops_executed
            })
            .sum();
        let (ids, stats) = set.matches_with_stats(view);
        assert_eq!(ids, [3]);
        assert_eq!(stats.filters_evaluated, 3, "{stats:?}");
        assert_eq!(stats.residual_rejects, 1, "{stats:?}");
        // The op count is the whole filters', proven tests included.
        assert_eq!(stats.ops_executed, whole, "{stats:?}");
    }
}
