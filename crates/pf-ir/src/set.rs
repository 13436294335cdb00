//! The sharded, value-numbered demultiplexing set.
//!
//! Demultiplexing filters overwhelmingly share structure: every BSP port's
//! filter starts with the same `EtherType == Pup` and `DstSocketHi == 0`
//! guards before the per-port socket test. Compiled independently, a set of
//! N such filters re-executes the shared guards N times per packet.
//!
//! [`ShardedVnSet`] removes that work on two axes: members are rewritten
//! by the [`crate::vn`] value-numbering pass, so each distinct
//! `(word, literal)` equality test — leading guard or not — is evaluated
//! at most **once** per packet set-wide, and they are indexed by a
//! guard-keyed shard map, so a packet walks only the members whose
//! required discriminating test its first distinguishing word selects.
//! Arbitrary filters — including programs that fail validation, whose
//! runtime behavior the checked interpreter defines — remain fully
//! supported.
//!
//! Match results are priority-ordered with insertion-order ties, exactly
//! like sequential demultiplexing and [`pf_filter::dtree::FilterSet`].

use crate::exec::IrFilter;
use crate::vn::{eval_vn, required_tests, value_number, TestTable, VnProgram, VnSetStats};
use pf_filter::dtree::FilterId;
use pf_filter::interp::{CheckedInterpreter, InterpConfig};
use pf_filter::packet::PacketView;
use pf_filter::program::FilterProgram;
use std::collections::{HashMap, HashSet};

/// How a sharded-set member is executed.
#[derive(Debug)]
enum VnMemberKind {
    /// Value-numbered against the set's shared [`TestTable`]. `required`
    /// holds the resolved `(word, literal)` tests the compiled path must
    /// pass to accept — the shard index's soundness witness.
    Compiled {
        filter: IrFilter,
        code: VnProgram,
        required: Vec<(u16, u16)>,
    },
    /// Failed validation; the checked interpreter defines its behavior.
    Checked(FilterProgram),
}

#[derive(Debug)]
struct VnMember {
    id: FilterId,
    priority: u8,
    seq: u64,
    kind: VnMemberKind,
}

/// A sharded, value-numbered demultiplexing set: set-level cross-filter
/// CSE plus a guard-keyed shard index.
///
/// Two mechanisms compose:
///
/// * **Value numbering** ([`crate::vn`]): every member's word-equality
///   tests — leading guards *and* mid-program/terminal compares — are
///   interned into one shared, lazily-memoized table, so each distinct
///   `(word, literal)` test runs at most once per packet set-wide.
/// * **Sharding**: members are partitioned by their required test on the
///   set's most discriminating packet word (chosen automatically — the
///   word the most members require, e.g. the destination socket across a
///   figure 3-9 population, or the ethertype across a protocol mix).
///   A packet walks only the shard its word selects plus the unsharded
///   residue, skipping every other member outright.
///
/// Skipping is sound because a skipped member's compiled path *requires*
/// `packet[word] == lit` for some other literal ([`crate::vn::required_tests`]);
/// packets too short for every sharded member's compiled path take a slow
/// path that walks all members, preserving the checked-fallback semantics
/// for short packets.
///
/// Match results are priority-ordered with insertion-order ties, exactly
/// like every other engine.
///
/// # Examples
///
/// ```
/// use pf_filter::packet::PacketView;
/// use pf_filter::samples;
/// use pf_ir::set::ShardedVnSet;
///
/// let mut set = ShardedVnSet::new();
/// set.insert(7, samples::pup_socket_filter(10, 0, 35));
/// set.insert(9, samples::pup_socket_filter(10, 0, 44));
/// let pkt = samples::pup_packet_3mb(2, 0, 44, 1);
/// assert_eq!(set.first_match(PacketView::new(&pkt)), Some(9));
/// // The socket word discriminates: each member sits in its own shard.
/// assert_eq!(set.shard_count(), 2);
/// ```
#[derive(Debug, Default)]
pub struct ShardedVnSet {
    config: InterpConfig,
    next_seq: u64,
    /// Members sorted by (priority desc, seq asc) — match order.
    members: Vec<VnMember>,
    table: TestTable,
    /// The discriminating packet word the shard index keys on.
    shard_word: Option<u16>,
    /// Literal → member indices (ascending, i.e. match order).
    shards: HashMap<u16, Vec<usize>>,
    /// Member indices walked for every packet (ascending).
    residue: Vec<usize>,
    /// word → (members requiring a test on it, literal → refcount):
    /// the exact shard-word statistic, maintained incrementally so an
    /// insert or remove re-scores one member, not the whole population.
    word_stats: HashMap<u16, (u32, HashMap<u16, u32>)>,
    /// Full index repartitions performed (see
    /// [`ShardedVnSet::repartition_count`]).
    repartitions: u64,
    /// Packets shorter than this (in words) take the slow path that walks
    /// all members: a sharded member's compiled-path requirement says
    /// nothing about its short-packet checked fallback.
    fast_min_words: usize,
    /// Reused match-result buffer: evaluating a packet allocates nothing.
    scratch: Vec<FilterId>,
    /// Reused merged-walk-order buffer for the batch path.
    idx_scratch: Vec<usize>,
    /// Table compactions performed (see [`ShardedVnSet::gc_count`]).
    gc_count: u64,
}

/// Below this table size a compaction is too cheap to be worth deferring;
/// GC runs eagerly so tiny sets never carry dead tests.
const GC_MIN_TABLE: usize = 16;

impl ShardedVnSet {
    /// An empty set under the default configuration (classic dialect,
    /// paper-style short circuits) — the kernel device's configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty set under an explicit interpreter configuration.
    pub fn with_config(config: InterpConfig) -> Self {
        ShardedVnSet {
            config,
            ..Default::default()
        }
    }

    /// Number of filters in the set.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Number of distinct interned tests still consulted by some member.
    ///
    /// Removals defer table compaction (see [`ShardedVnSet::remove`]), so
    /// this counts *live* tests; [`ShardedVnSet::raw_test_count`] exposes
    /// the physical table size including not-yet-collected dead entries.
    pub fn test_count(&self) -> usize {
        self.live_tests().iter().filter(|&&l| l).count()
    }

    /// Physical size of the interned test table, dead entries included.
    pub fn raw_test_count(&self) -> usize {
        self.table.len()
    }

    /// How many deferred table compactions removals have triggered.
    pub fn gc_count(&self) -> u64 {
        self.gc_count
    }

    /// Liveness bitmap over the interned test table.
    fn live_tests(&self) -> Vec<bool> {
        let mut live = vec![false; self.table.len()];
        for m in &self.members {
            if let VnMemberKind::Compiled { code, .. } = &m.kind {
                for t in code.tests_used() {
                    live[t as usize] = true;
                }
            }
        }
        live
    }

    /// Number of interned tests used by more than one member — the
    /// cross-filter work value numbering shares per packet.
    pub fn shared_tests(&self) -> usize {
        let mut counts = vec![0u32; self.table.len()];
        for m in &self.members {
            if let VnMemberKind::Compiled { code, .. } = &m.kind {
                for t in code.tests_used() {
                    counts[t as usize] += 1;
                }
            }
        }
        counts.iter().filter(|&&c| c > 1).count()
    }

    /// How many members compiled to value-numbered threaded code (the
    /// rest run on the checked interpreter, in the residue).
    pub fn compiled(&self) -> usize {
        self.members
            .iter()
            .filter(|m| matches!(m.kind, VnMemberKind::Compiled { .. }))
            .count()
    }

    /// The packet word the shard index keys on, if any.
    pub fn shard_word(&self) -> Option<u16> {
        self.shard_word
    }

    /// Number of shards (distinct literals of the discriminating word).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Members in no shard, walked for every packet.
    pub fn residue_len(&self) -> usize {
        self.residue.len()
    }

    /// Full index repartitions performed. A repartition re-homes every
    /// member and happens only when the *discriminating word itself*
    /// flips (the population's shape changed) — steady insert/remove
    /// churn on a stable population must never trigger one.
    pub fn repartition_count(&self) -> u64 {
        self.repartitions
    }

    /// Inserts (or replaces) the filter for `id`.
    ///
    /// Index maintenance is incremental: the member's required tests
    /// adjust the persistent word statistics, and unless the best
    /// discriminating word flipped (which forces a counted repartition),
    /// only the member's own shard is touched.
    pub fn insert(&mut self, id: FilterId, program: FilterProgram) {
        self.remove(id);
        let seq = self.next_seq;
        self.next_seq += 1;
        let priority = program.priority();
        let kind = match IrFilter::compile_with_config(program.clone(), self.config) {
            Ok(filter) => {
                let code = value_number(&filter, &mut self.table);
                let required = required_tests(&code)
                    .into_iter()
                    .map(|t| self.table.test(t))
                    .collect();
                VnMemberKind::Compiled {
                    filter,
                    code,
                    required,
                }
            }
            Err(_) => VnMemberKind::Checked(program),
        };
        if let VnMemberKind::Compiled { required, .. } = &kind {
            score_insert(&mut self.word_stats, required);
        }
        let member = VnMember {
            id,
            priority,
            seq,
            kind,
        };
        let at = self.members.partition_point(|m| {
            (m.priority, std::cmp::Reverse(m.seq)) >= (priority, std::cmp::Reverse(seq))
        });
        self.members.insert(at, member);
        if self.best_word() != self.shard_word {
            self.repartition();
        } else {
            // Later members' indices all shifted up by one.
            for v in self.shards.values_mut() {
                for x in v.iter_mut() {
                    if *x >= at {
                        *x += 1;
                    }
                }
            }
            for x in self.residue.iter_mut() {
                if *x >= at {
                    *x += 1;
                }
            }
            self.place(at);
        }
    }

    /// Removes the filter for `id`; `true` if it was present.
    ///
    /// Table compaction is *deferred*: a remove strands its private tests
    /// as dead entries (harmless — never consulted, memo never touched)
    /// and the table is only compacted once dead entries outnumber live
    /// ones. Index maintenance is incremental: the member leaves its own
    /// shard, and a full repartition happens only if the discriminating
    /// word flipped.
    pub fn remove(&mut self, id: FilterId) -> bool {
        let Some(p) = self.members.iter().position(|m| m.id == id) else {
            return false;
        };
        let member = self.members.remove(p);
        if let VnMemberKind::Compiled { required, .. } = &member.kind {
            score_remove(&mut self.word_stats, required);
        }
        self.maybe_gc();
        if self.best_word() != self.shard_word {
            self.repartition();
        } else {
            self.unplace(p, &member);
            for v in self.shards.values_mut() {
                for x in v.iter_mut() {
                    if *x > p {
                        *x -= 1;
                    }
                }
            }
            for x in self.residue.iter_mut() {
                if *x > p {
                    *x -= 1;
                }
            }
        }
        true
    }

    /// The word the statistics currently favor: required by the most
    /// members, ties broken toward more distinct literals, then the
    /// lowest word — identical to what a from-scratch rebuild picks.
    fn best_word(&self) -> Option<u16> {
        self.word_stats
            .iter()
            .map(|(&word, (count, lits))| (word, *count, lits.len()))
            .max_by_key(|&(word, count, lits)| (count, lits, std::cmp::Reverse(word)))
            .map(|(word, ..)| word)
    }

    /// Homes the member at index `at` (just inserted; all other indices
    /// already adjusted) into its shard or the residue.
    fn place(&mut self, at: usize) {
        let m = &self.members[at];
        if let (
            VnMemberKind::Compiled {
                filter, required, ..
            },
            Some(d),
        ) = (&m.kind, self.shard_word)
        {
            if let Some(&(_, lit)) = required.iter().find(|&&(word, _)| word == d) {
                let v = self.shards.entry(lit).or_default();
                let pos = v.partition_point(|&x| x < at);
                v.insert(pos, at);
                self.fast_min_words = self.fast_min_words.max(filter.min_packet_words());
                return;
            }
        }
        let pos = self.residue.partition_point(|&x| x < at);
        self.residue.insert(pos, at);
    }

    /// Removes index `p` (the just-removed `member`'s old home) from its
    /// shard or the residue. `fast_min_words` is left as-is — possibly
    /// conservatively high, which only routes more packets to the
    /// walk-everything slow path; a repartition recomputes it exactly.
    fn unplace(&mut self, p: usize, member: &VnMember) {
        if let (VnMemberKind::Compiled { required, .. }, Some(d)) = (&member.kind, self.shard_word)
        {
            if let Some(&(_, lit)) = required.iter().find(|&&(word, _)| word == d) {
                if let Some(v) = self.shards.get_mut(&lit) {
                    let pos = v.partition_point(|&x| x < p);
                    if v.get(pos) == Some(&p) {
                        v.remove(pos);
                    }
                    if v.is_empty() {
                        self.shards.remove(&lit);
                    }
                }
                return;
            }
        }
        let pos = self.residue.partition_point(|&x| x < p);
        if self.residue.get(pos) == Some(&p) {
            self.residue.remove(pos);
        }
    }

    /// Compacts the shared table if the dead-test ratio crossed the
    /// threshold (strictly more dead than live, and at least `GC_MIN_TABLE`
    /// entries — small tables compact eagerly since a rebuild is trivial).
    fn maybe_gc(&mut self) {
        let live = self.live_tests();
        let live_n = live.iter().filter(|&&l| l).count();
        let total = self.table.len();
        let dead = total - live_n;
        if dead == 0 {
            return;
        }
        if total < GC_MIN_TABLE || dead > live_n {
            self.gc_tests(&live);
            self.gc_count += 1;
        }
    }

    /// Compacts the shared table to the tests surviving members still
    /// consult, remapping every program's ids.
    fn gc_tests(&mut self, live: &[bool]) {
        let remap = self.table.compact(live);
        for m in &mut self.members {
            if let VnMemberKind::Compiled { code, .. } = &mut m.kind {
                code.remap_tests(&remap);
            }
        }
    }

    /// Rebuilds the shard index from scratch against the (incrementally
    /// maintained) word statistics: adopts the current best word and
    /// re-homes every member. Only runs when the discriminating word
    /// flips — the counted, amortized event.
    fn repartition(&mut self) {
        self.repartitions += 1;
        self.shards.clear();
        self.residue.clear();
        self.shard_word = self.best_word();
        self.fast_min_words = 0;
        for (i, m) in self.members.iter().enumerate() {
            let sharded = match (&m.kind, self.shard_word) {
                (
                    VnMemberKind::Compiled {
                        filter, required, ..
                    },
                    Some(d),
                ) => {
                    match required.iter().find(|&&(word, _)| word == d) {
                        Some(&(_, lit)) => {
                            // A member requiring two literals for the same
                            // word can never accept on the compiled path;
                            // either shard is a sound home.
                            self.shards.entry(lit).or_default().push(i);
                            self.fast_min_words =
                                self.fast_min_words.max(filter.min_packet_words());
                            true
                        }
                        None => false,
                    }
                }
                _ => false,
            };
            if !sharded {
                self.residue.push(i);
            }
        }
    }

    /// Ids of every filter accepting the packet, in match order.
    pub fn matches(&mut self, packet: PacketView<'_>) -> Vec<FilterId> {
        self.matches_with_stats(packet).0.to_vec()
    }

    /// The first (highest-priority) accepting filter, if any.
    pub fn first_match(&mut self, packet: PacketView<'_>) -> Option<FilterId> {
        self.walk(packet, true).1.first().copied()
    }

    /// [`ShardedVnSet::matches`] plus execution counters. The returned
    /// slice borrows the set's reused scratch buffer — no per-packet
    /// allocation — and is valid until the next evaluation.
    pub fn matches_with_stats(&mut self, packet: PacketView<'_>) -> (&[FilterId], VnSetStats) {
        let (stats, ids) = self.walk(packet, false);
        (ids, stats)
    }

    /// [`ShardedVnSet::matches`] over a batch of packets, with per-packet
    /// counters.
    ///
    /// Per-packet verdict lists are identical to calling `matches` on each
    /// packet in turn. What the batch amortizes is the walk-order setup:
    /// the shard-map lookup and the shard∪residue merge are computed once
    /// per *run* of same-key packets (RSS steering delivers flow-grouped
    /// batches, so runs are long) instead of once per packet. Test
    /// memoization stays per-packet — the generation stamp advances for
    /// every frame, as correctness requires.
    pub fn matches_batch_with_stats(
        &mut self,
        packets: &[PacketView<'_>],
    ) -> (Vec<Vec<FilterId>>, Vec<VnSetStats>) {
        let mut out = Vec::with_capacity(packets.len());
        let mut out_stats = Vec::with_capacity(packets.len());
        // The cached walk order: `None` = nothing cached yet; the inner
        // `Option<u16>` is the shard key (None = short/slow path marker,
        // never cached).
        let mut cached_key: Option<u16> = None;
        let mut cache_valid = false;
        for &packet in packets {
            let mut stats = VnSetStats::default();
            let fast = packet.word_len() >= self.fast_min_words;
            let key = match (fast, self.shard_word) {
                (true, Some(d)) => packet.word(usize::from(d)),
                _ => None,
            };
            let ids = match (fast, self.shard_word, key) {
                (true, Some(_), Some(k)) => {
                    if !cache_valid || cached_key != Some(k) {
                        let Self {
                            shards,
                            residue,
                            idx_scratch,
                            ..
                        } = self;
                        idx_scratch.clear();
                        static EMPTY: &[usize] = &[];
                        let shard: &[usize] = shards.get(&k).map_or(EMPTY, Vec::as_slice);
                        // Merge by member index — match order, exactly as
                        // the scalar walk does.
                        let (mut i, mut j) = (0, 0);
                        loop {
                            match (shard.get(i), residue.get(j)) {
                                (Some(&a), Some(&b)) if a < b => {
                                    i += 1;
                                    idx_scratch.push(a);
                                }
                                (_, Some(&b)) => {
                                    j += 1;
                                    idx_scratch.push(b);
                                }
                                (Some(&a), None) => {
                                    i += 1;
                                    idx_scratch.push(a);
                                }
                                (None, None) => break,
                            }
                        }
                        cached_key = Some(k);
                        cache_valid = true;
                    }
                    let Self {
                        members,
                        table,
                        idx_scratch,
                        config,
                        ..
                    } = self;
                    table.begin_packet();
                    let mut ids = Vec::new();
                    for &i in idx_scratch.iter() {
                        let m = &members[i];
                        if eval_vn_member(m, packet, table, *config, &mut stats) {
                            ids.push(m.id);
                        }
                    }
                    ids
                }
                _ => {
                    // Short packet, no discriminating word, or the shard
                    // word is absent from the frame: same slow/empty-shard
                    // semantics as the scalar walk.
                    let Self {
                        members,
                        table,
                        residue,
                        config,
                        ..
                    } = self;
                    table.begin_packet();
                    let mut ids = Vec::new();
                    if fast && self.shard_word.is_some() {
                        // Fast path with a missing/unmatched key word:
                        // scalar walk visits only the residue.
                        for &i in residue.iter() {
                            let m = &members[i];
                            if eval_vn_member(m, packet, table, *config, &mut stats) {
                                ids.push(m.id);
                            }
                        }
                    } else {
                        for m in members.iter() {
                            if eval_vn_member(m, packet, table, *config, &mut stats) {
                                ids.push(m.id);
                            }
                        }
                    }
                    ids
                }
            };
            stats.filters_skipped = self.members.len() as u32 - stats.filters_evaluated;
            out_stats.push(stats);
            out.push(ids);
        }
        (out, out_stats)
    }

    fn walk(&mut self, packet: PacketView<'_>, stop_at_first: bool) -> (VnSetStats, &[FilterId]) {
        let Self {
            members,
            table,
            shards,
            residue,
            shard_word,
            fast_min_words,
            scratch,
            config,
            ..
        } = self;
        table.begin_packet();
        scratch.clear();
        let mut stats = VnSetStats::default();
        let fast = packet.word_len() >= *fast_min_words;
        let mut eval_at = |i: usize, stats: &mut VnSetStats| {
            let m = &members[i];
            if eval_vn_member(m, packet, table, *config, stats) {
                scratch.push(m.id);
                stop_at_first
            } else {
                false
            }
        };
        match (fast, *shard_word) {
            (true, Some(d)) => {
                // Walk the selected shard merged with the residue; merge
                // by member index, which is match order (the members
                // vector is globally sorted).
                static EMPTY: &[usize] = &[];
                let shard: &[usize] = packet
                    .word(usize::from(d))
                    .and_then(|key| shards.get(&key))
                    .map_or(EMPTY, Vec::as_slice);
                let (mut i, mut j) = (0, 0);
                loop {
                    let next = match (shard.get(i), residue.get(j)) {
                        (Some(&a), Some(&b)) if a < b => {
                            i += 1;
                            a
                        }
                        (_, Some(&b)) => {
                            j += 1;
                            b
                        }
                        (Some(&a), None) => {
                            i += 1;
                            a
                        }
                        (None, None) => break,
                    };
                    if eval_at(next, &mut stats) {
                        break;
                    }
                }
            }
            _ => {
                // Slow path (short packet) or no discriminating word:
                // walk every member, exactly like the flat set.
                for i in 0..members.len() {
                    if eval_at(i, &mut stats) {
                        break;
                    }
                }
            }
        }
        stats.filters_skipped = members.len() as u32 - stats.filters_evaluated;
        (stats, scratch)
    }
}

/// Adds one member's required tests to the word statistics: the member
/// count bumps once per distinct word, the literal refcount once per
/// `(word, literal)` pair (distinct within a member by interning).
fn score_insert(stats: &mut HashMap<u16, (u32, HashMap<u16, u32>)>, required: &[(u16, u16)]) {
    let mut seen = HashSet::new();
    for &(word, lit) in required {
        let entry = stats.entry(word).or_default();
        if seen.insert(word) {
            entry.0 += 1;
        }
        *entry.1.entry(lit).or_insert(0) += 1;
    }
}

/// Exact inverse of [`score_insert`]; words and literals no member
/// requires any more drop out entirely, so `best_word` sees the same
/// statistics a from-scratch rescore would compute.
fn score_remove(stats: &mut HashMap<u16, (u32, HashMap<u16, u32>)>, required: &[(u16, u16)]) {
    let mut seen = HashSet::new();
    for &(word, lit) in required {
        let Some(entry) = stats.get_mut(&word) else {
            continue;
        };
        if seen.insert(word) {
            entry.0 -= 1;
        }
        if let Some(c) = entry.1.get_mut(&lit) {
            *c -= 1;
            if *c == 0 {
                entry.1.remove(&lit);
            }
        }
        if entry.0 == 0 {
            stats.remove(&word);
        }
    }
}

/// Evaluates one sharded-set member, sharing test verdicts through the
/// set's memoized table.
fn eval_vn_member(
    m: &VnMember,
    packet: PacketView<'_>,
    table: &mut TestTable,
    config: InterpConfig,
    stats: &mut VnSetStats,
) -> bool {
    stats.filters_evaluated += 1;
    match &m.kind {
        VnMemberKind::Checked(program) => {
            let (accept, s) = CheckedInterpreter::new(config).eval_with_stats(program, packet);
            stats.ops_executed += s.instructions;
            accept
        }
        VnMemberKind::Compiled { filter, code, .. } => {
            if packet.word_len() < filter.min_packet_words() {
                // Short packet: the member's own checked fallback defines
                // the semantics; test sharing does not apply.
                let (accept, s) = filter.eval_with_stats(packet);
                stats.ops_executed += s.ops_executed;
                return accept;
            }
            eval_vn(code, packet, table, stats)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pf_filter::dtree::FilterSet;
    use pf_filter::program::{Assembler, FilterProgram};
    use pf_filter::samples;
    use pf_filter::word::BinaryOp;

    fn pkt(sock: u16) -> Vec<u8> {
        samples::pup_packet_3mb(2, 0, sock, 1)
    }

    #[test]
    fn matches_in_priority_then_insertion_order() {
        let mut set = ShardedVnSet::new();
        set.insert(1, samples::accept_all(5));
        set.insert(2, samples::accept_all(20));
        set.insert(3, samples::accept_all(20));
        assert_eq!(set.matches(PacketView::new(&pkt(1))), vec![2, 3, 1]);
        assert_eq!(set.first_match(PacketView::new(&pkt(1))), Some(2));
    }

    #[test]
    fn replace_and_remove() {
        let mut set = ShardedVnSet::new();
        set.insert(1, samples::pup_socket_filter(10, 0, 35));
        assert_eq!(set.first_match(PacketView::new(&pkt(44))), None);
        set.insert(1, samples::pup_socket_filter(10, 0, 44));
        assert_eq!(set.len(), 1);
        assert_eq!(set.first_match(PacketView::new(&pkt(44))), Some(1));
        assert!(set.remove(1));
        assert!(!set.remove(1));
        assert!(set.is_empty());
    }

    #[test]
    fn test_sharing_matches_independent_eval() {
        // pup_socket_filter starts with the per-port test; the ethertype
        // and `DstSocketHi == 0` tests behind it are shared. Sharing must
        // not change verdicts.
        let mut set = ShardedVnSet::new();
        for (id, sock) in [(1u32, 35u16), (2, 44), (3, 55)] {
            set.insert(id, samples::pup_socket_filter(10, 0, sock));
        }
        assert_eq!(set.shared_tests(), 2);
        for sock in [35u16, 44, 55, 99] {
            let p = pkt(sock);
            let expected: Vec<FilterId> = [(1u32, 35u16), (2, 44), (3, 55)]
                .iter()
                .filter(|&&(_, s)| s == sock)
                .map(|&(id, _)| id)
                .collect();
            assert_eq!(set.matches(PacketView::new(&p)), expected, "sock={sock}");
        }
    }

    #[test]
    fn invalid_program_keeps_checked_semantics() {
        // COR accepts matching packets *before* the trailing garbage word
        // is ever decoded; the set must preserve that behavior.
        let mut words = Assembler::new(10)
            .pushword(0)
            .pushlit_op(BinaryOp::Cor, 0x0102)
            .finish()
            .words()
            .to_vec();
        words.push(15 << 6); // reserved opcode: fails validation
        let p = FilterProgram::from_words(10, words);
        let mut set = ShardedVnSet::new();
        set.insert(1, p);
        assert_eq!(set.compiled(), 0);
        assert_eq!(set.first_match(PacketView::new(&pkt(35))), Some(1));
        assert_eq!(set.first_match(PacketView::new(&[0u8, 0])), None);
    }

    #[test]
    fn agrees_with_decision_table_set() {
        let mut sharded = ShardedVnSet::new();
        let mut dt = FilterSet::new();
        let filters = [
            (1u32, samples::pup_socket_filter(10, 0, 35)),
            (2, samples::pup_socket_filter(10, 0, 44)),
            (3, samples::ethertype_filter(20, 2)),
            (4, samples::fig_3_8_pup_type_range()),
            (5, samples::reject_all(30)),
        ];
        for (id, f) in &filters {
            sharded.insert(*id, f.clone());
            dt.insert(*id, f.clone());
        }
        for sock in [35u16, 44, 99] {
            for ethertype in [2u16, 3] {
                let p = samples::pup_packet_3mb(ethertype, 0, sock, 1);
                let view = PacketView::new(&p);
                assert_eq!(
                    sharded.matches(view),
                    dt.matches(view),
                    "sock={sock} et={ethertype}"
                );
            }
        }
    }

    #[test]
    fn short_packets_use_member_fallback() {
        let mut set = ShardedVnSet::new();
        set.insert(1, samples::pup_socket_filter(10, 0, 35));
        // Too short for word 8: must reject, not panic.
        assert_eq!(set.first_match(PacketView::new(&[1, 2, 3, 4])), None);
    }

    #[test]
    fn sharded_remove_defers_gc_under_churn() {
        // The regression this pins: remove used to compact the shared
        // table (and remap every member's program) on *every* removal.
        // Steady remove/insert churn on a large population must not GC at
        // all — each removal kills at most a couple of private tests, far
        // below the dead>live threshold.
        let mut set = ShardedVnSet::new();
        for i in 0..64u16 {
            set.insert(u32::from(i), samples::pup_socket_filter(10, 0, 100 + i));
        }
        let live_before = set.test_count();
        assert!(set.raw_test_count() >= GC_MIN_TABLE);
        for round in 0..40u16 {
            let id = u32::from(round % 64);
            assert!(set.remove(id));
            set.insert(id, samples::pup_socket_filter(10, 0, 100 + (round % 64)));
        }
        assert_eq!(set.gc_count(), 0, "churn must not trigger compaction");
        assert_eq!(set.test_count(), live_before, "live tests preserved");
        // Re-inserting the same filters re-uses the interned entries, so
        // the physical table does not grow either.
        assert_eq!(set.raw_test_count(), set.test_count());
        // Verdicts unaffected throughout.
        let p = pkt(137);
        assert_eq!(set.matches(PacketView::new(&p)), vec![37]);
    }

    #[test]
    fn sharded_gc_fires_once_dead_tests_dominate() {
        let mut set = ShardedVnSet::new();
        for i in 0..64u16 {
            set.insert(u32::from(i), samples::pup_socket_filter(10, 0, 100 + i));
        }
        let raw = set.raw_test_count();
        // Remove most of the population without re-inserting: dead tests
        // accumulate (no GC) until they outnumber the live ones, then one
        // compaction shrinks the physical table back to the live count.
        let mut fired_at = None;
        for i in 0..48u32 {
            assert!(set.remove(i));
            if set.gc_count() > 0 {
                fired_at = Some(i);
                break;
            }
            assert!(set.raw_test_count() <= raw, "table never grows on remove");
        }
        let fired_at = fired_at.expect("dead-majority must eventually compact");
        assert!(fired_at > 4, "GC deferred well past the first removals");
        assert_eq!(set.raw_test_count(), set.test_count(), "compact table");
        // Still correct after the compaction remap.
        let p = pkt(163);
        assert_eq!(set.matches(PacketView::new(&p)), vec![63]);
    }

    #[test]
    fn sharded_churn_never_repartitions() {
        // The satellite regression this pins: insert and remove used to
        // rebuild the whole shard index (rescoring every member's
        // required tests) on *every* mutation. With incremental word
        // statistics, steady churn on a stable population touches only
        // the mutated member's shard; a full repartition happens only
        // when the discriminating word itself flips.
        let mut set = ShardedVnSet::new();
        for i in 0..64u16 {
            set.insert(u32::from(i), samples::pup_socket_filter(10, 0, 100 + i));
        }
        // Build settles quickly: first insert adopts a word, the second
        // flips to the socket word once its literals diversify, then the
        // remaining 62 inserts extend shards in place.
        let after_build = set.repartition_count();
        assert!(after_build <= 2, "build settles the word early");
        for round in 0..80u16 {
            let id = u32::from(round % 64);
            assert!(set.remove(id));
            set.insert(id, samples::pup_socket_filter(10, 0, 100 + (round % 64)));
        }
        assert_eq!(
            set.repartition_count(),
            after_build,
            "churn must not repartition"
        );
        assert_eq!(set.shard_word(), Some(8));
        assert_eq!(set.shard_count(), 64);
        let p = pkt(137);
        assert_eq!(set.matches(PacketView::new(&p)), vec![37]);
    }

    #[test]
    fn discriminator_flip_repartitions_once() {
        // Four socket filters key the index on word 8; piling on
        // ethertype-only filters makes word 1 the majority requirement,
        // which must flip the shard word (matching a fresh rebuild) via
        // exactly one repartition at the crossing point.
        let mut set = ShardedVnSet::new();
        for i in 0..4u16 {
            set.insert(u32::from(i), samples::pup_socket_filter(10, 0, 100 + i));
        }
        assert_eq!(set.shard_word(), Some(8));
        let before = set.repartition_count();
        for i in 0..8u16 {
            set.insert(u32::from(100 + i), samples::ethertype_filter(10, 10 + i));
        }
        assert_eq!(set.shard_word(), Some(1), "ethertype now discriminates");
        assert_eq!(
            set.repartition_count(),
            before + 1,
            "one flip, one repartition"
        );
        let p = samples::pup_packet_3mb(12, 0, 999, 1);
        assert_eq!(set.matches(PacketView::new(&p)), vec![102]);
    }

    #[test]
    fn sharded_batch_matches_scalar() {
        let mut set = ShardedVnSet::new();
        for (id, sock) in [(1u32, 35u16), (2, 44), (3, 55), (4, 66)] {
            set.insert(id, samples::pup_socket_filter(10, 0, sock));
        }
        set.insert(5, samples::fig_3_8_pup_type_range()); // residue
        set.insert(6, samples::accept_all(1)); // residue, always matches
        let frames: Vec<Vec<u8>> = vec![
            pkt(35),
            pkt(44),
            pkt(44), // same-key run: exercises the cached walk order
            pkt(99),
            pkt(55)[..6].to_vec(), // truncated: slow path
            Vec::new(),            // empty frame
        ];
        let views: Vec<PacketView<'_>> = frames.iter().map(|f| PacketView::new(f)).collect();
        let (batched, stats) = set.matches_batch_with_stats(&views);
        assert_eq!(batched.len(), views.len());
        assert_eq!(stats.len(), views.len());
        for (i, v) in views.iter().enumerate() {
            let (expect, expect_stats) = {
                let (ids, s) = set.matches_with_stats(*v);
                (ids.to_vec(), s)
            };
            assert_eq!(batched[i], expect, "packet {i} diverged");
            assert_eq!(stats[i], expect_stats, "packet {i} stats diverged");
        }
    }
}
