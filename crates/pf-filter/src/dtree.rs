//! Compiling a *set* of active filters into a decision table.
//!
//! §7 of the paper: "Finally, with a redesigned filter language it might be
//! possible to compile the set of active filters into a decision table,
//! which should provide the best possible performance."
//!
//! [`FilterSet`] implements that proposal without redesigning the language:
//! a symbolic analyzer recognizes filters that are conjunctions of
//! *packet-word equals constant* tests — the overwhelmingly common shape in
//! practice (figure 3-9, every demultiplexing filter) — and folds them into
//! hash tables keyed by the tested words. Evaluating a packet then costs
//! one hash probe per distinct *shape* (set of tested word indices) instead
//! of one interpretation per filter. Filters the analyzer cannot convert
//! are kept on a sequential fallback list and interpreted as usual, so the
//! set accepts arbitrary programs and remains observationally identical to
//! priority-ordered sequential interpretation (a property test verifies
//! this).

use crate::interp::CheckedInterpreter;
use crate::packet::PacketView;
use crate::program::FilterProgram;
use crate::word::{BinaryOp, Instr, StackAction};
use std::collections::HashMap;

/// Identifier a caller associates with each filter in the set (a port
/// number, in the kernel's use).
pub type FilterId = u32;

/// A set of active filters compiled into decision tables.
///
/// Filters are applied "in order of decreasing priority" (§3.2); ties
/// break by insertion order, matching the kernel's stable ordering.
///
/// # Examples
///
/// ```
/// use pf_filter::dtree::FilterSet;
/// use pf_filter::packet::PacketView;
/// use pf_filter::samples;
///
/// let mut set = FilterSet::new();
/// set.insert(7, samples::pup_socket_filter(10, 0, 35));
/// set.insert(9, samples::pup_socket_filter(10, 0, 44));
/// let pkt = samples::pup_packet_3mb(2, 0, 44, 1);
/// assert_eq!(set.first_match(PacketView::new(&pkt)), Some(9));
/// ```
#[derive(Debug, Default)]
pub struct FilterSet {
    /// Monotonic insertion counter for stable tie-breaking.
    next_seq: u64,
    /// Table-compiled filters, grouped by shape.
    shapes: Vec<Shape>,
    /// Filters the analyzer could not convert; interpreted sequentially.
    residual: Vec<Residual>,
    /// All members, for removal and introspection.
    members: HashMap<FilterId, MemberInfo>,
}

/// How a member is executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemberKind {
    /// Folded into a decision table.
    Table,
    /// Interpreted sequentially.
    Residual,
    /// Statically can never match (contradictory constraints); stored but
    /// never consulted.
    NeverMatches,
}

#[derive(Debug)]
struct MemberInfo {
    kind: MemberKind,
}

/// One decision table: all table-compiled filters that test exactly the
/// word indices in `words`.
#[derive(Debug)]
struct Shape {
    /// Sorted, deduplicated word indices this shape tests.
    words: Vec<u16>,
    /// Constraint values (in `words` order) → matching filters.
    table: HashMap<Vec<u16>, Vec<Entry>>,
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    id: FilterId,
    priority: u8,
    seq: u64,
}

#[derive(Debug)]
struct Residual {
    id: FilterId,
    priority: u8,
    seq: u64,
    program: FilterProgram,
}

impl FilterSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        FilterSet::default()
    }

    /// Number of filters in the set.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// How many filters were folded into decision tables.
    pub fn table_compiled(&self) -> usize {
        self.members
            .values()
            .filter(|m| m.kind == MemberKind::Table)
            .count()
    }

    /// Number of distinct shapes (hash probes per packet).
    pub fn shape_count(&self) -> usize {
        self.shapes.len()
    }

    /// How a given filter is executed, if present.
    pub fn member_kind(&self, id: FilterId) -> Option<MemberKind> {
        self.members.get(&id).map(|m| m.kind)
    }

    /// Inserts (or replaces) the filter for `id`.
    pub fn insert(&mut self, id: FilterId, program: FilterProgram) {
        self.remove(id);
        let seq = self.next_seq;
        self.next_seq += 1;
        let priority = program.priority();
        let kind = match analyze(&program) {
            Analysis::Conjunction(constraints) => {
                match normalize(constraints) {
                    Some(pairs) => {
                        self.insert_table(Entry { id, priority, seq }, pairs);
                        MemberKind::Table
                    }
                    // Contradictory constraints: never matches anything.
                    None => MemberKind::NeverMatches,
                }
            }
            Analysis::Disjunction(branches) => {
                // One table entry per satisfiable branch; `matches`
                // deduplicates ids so overlapping branches deliver once.
                let mut normalized: Vec<Vec<(u16, u16)>> =
                    branches.into_iter().filter_map(normalize).collect();
                normalized.sort();
                normalized.dedup();
                if normalized.is_empty() {
                    MemberKind::NeverMatches
                } else {
                    for pairs in normalized {
                        self.insert_table(Entry { id, priority, seq }, pairs);
                    }
                    MemberKind::Table
                }
            }
            Analysis::NeverMatches => MemberKind::NeverMatches,
            Analysis::Opaque => {
                self.residual.push(Residual {
                    id,
                    priority,
                    seq,
                    program,
                });
                MemberKind::Residual
            }
        };
        self.members.insert(id, MemberInfo { kind });
    }

    /// Removes the filter for `id`; returns whether it was present.
    pub fn remove(&mut self, id: FilterId) -> bool {
        let Some(info) = self.members.remove(&id) else {
            return false;
        };
        match info.kind {
            MemberKind::Residual => self.residual.retain(|r| r.id != id),
            MemberKind::Table => {
                for shape in &mut self.shapes {
                    shape.table.retain(|_, v| {
                        v.retain(|e| e.id != id);
                        !v.is_empty()
                    });
                }
                self.shapes.retain(|s| !s.table.is_empty());
            }
            MemberKind::NeverMatches => {}
        }
        true
    }

    fn insert_table(&mut self, entry: Entry, pairs: Vec<(u16, u16)>) {
        let words: Vec<u16> = pairs.iter().map(|p| p.0).collect();
        let values: Vec<u16> = pairs.iter().map(|p| p.1).collect();
        let shape = match self.shapes.iter_mut().find(|s| s.words == words) {
            Some(s) => s,
            None => {
                self.shapes.push(Shape {
                    words,
                    table: HashMap::new(),
                });
                self.shapes.last_mut().expect("just pushed")
            }
        };
        shape.table.entry(values).or_default().push(entry);
    }

    /// All matching filter ids, highest priority first (ties by insertion
    /// order) — the order the kernel's demultiplexing loop would deliver.
    pub fn matches(&self, packet: PacketView<'_>) -> Vec<FilterId> {
        let mut hits: Vec<(u8, u64, FilterId)> = Vec::new();

        for shape in &self.shapes {
            let mut key = Vec::with_capacity(shape.words.len());
            let mut complete = true;
            for &w in &shape.words {
                match packet.word(usize::from(w)) {
                    Some(v) => key.push(v),
                    None => {
                        // A packet too short for the tested word rejects in
                        // the interpreter too (out-of-packet fault).
                        complete = false;
                        break;
                    }
                }
            }
            if !complete {
                continue;
            }
            if let Some(entries) = shape.table.get(&key) {
                hits.extend(entries.iter().map(|e| (e.priority, e.seq, e.id)));
            }
        }

        for r in &self.residual {
            if CheckedInterpreter.eval(&r.program, packet) {
                hits.push((r.priority, r.seq, r.id));
            }
        }

        hits.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        // A disjunctive filter may match through several branches; it still
        // receives the packet once.
        let mut seen = std::collections::HashSet::new();
        hits.into_iter()
            .map(|(_, _, id)| id)
            .filter(|id| seen.insert(*id))
            .collect()
    }

    /// The highest-priority matching filter id, if any.
    pub fn first_match(&self, packet: PacketView<'_>) -> Option<FilterId> {
        // `matches` allocates; a dedicated scan would avoid that, but the
        // dominant cost (hash probes + residual interpretation) is shared.
        self.matches(packet).into_iter().next()
    }
}

/// Result of symbolically analyzing a program.
enum Analysis {
    /// Accepts exactly the packets satisfying all `(word, value)` equality
    /// constraints (unnormalized; may repeat or contradict).
    Conjunction(Vec<(u16, u16)>),
    /// Accepts exactly the packets satisfying *any* of the constraint
    /// lists (a `COR` chain, e.g. `type == 2 || type == 6`); each disjunct
    /// gets its own decision-table entry.
    Disjunction(Vec<Vec<(u16, u16)>>),
    /// Statically rejects every packet.
    NeverMatches,
    /// Not convertible; interpret it.
    Opaque,
}

/// Symbolic stack values for the analyzer.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Sym {
    /// A compile-time constant.
    Const(u16),
    /// The value of packet word `n`.
    Word(u16),
    /// A boolean that is TRUE iff all listed `(word, value)` equalities
    /// hold. The empty list is constant TRUE.
    Conj(Vec<(u16, u16)>),
}

/// Symbolically evaluates a program, recognizing pure conjunctions of
/// word/constant equalities.
fn analyze(program: &FilterProgram) -> Analysis {
    let words = program.words();
    // Zero-length filters accept everything (historical semantics).
    if words.is_empty() {
        return Analysis::Conjunction(Vec::new());
    }
    let mut stack: Vec<Sym> = Vec::new();
    // Equalities implied by continuing past a CAND.
    let mut path: Vec<(u16, u16)> = Vec::new();
    // Alternatives accumulated from continuing past CORs: each would have
    // accepted on its own. Only tracked for pure COR chains (no CANDs).
    let mut alternatives: Vec<Vec<(u16, u16)>> = Vec::new();
    // The highest packet word read so far. Reading it faults (rejects) on
    // a shorter packet, so an accepting branch becomes a table entry only
    // if one of its own constraints reaches at least this word — a table
    // probe skips a packet too short for any tested word.
    let mut max_read: Option<u16> = None;
    let covers = |constraints: &[(u16, u16)], max_read: Option<u16>| {
        max_read.is_none_or(|m| constraints.iter().any(|&(w, _)| w >= m))
    };
    let mut pc = 0usize;

    while pc < words.len() {
        let Some(instr) = Instr::decode(words[pc]) else {
            return Analysis::Opaque;
        };
        pc += 1;
        if instr.is_extended() {
            return Analysis::Opaque;
        }

        match instr.action {
            StackAction::NoPush => {}
            StackAction::PushLit => {
                let Some(&lit) = words.get(pc) else {
                    return Analysis::Opaque;
                };
                pc += 1;
                stack.push(Sym::Const(lit));
            }
            StackAction::PushWord(n) => {
                max_read = max_read.max(Some(u16::from(n)));
                stack.push(Sym::Word(u16::from(n)));
            }
            StackAction::PushInd => return Analysis::Opaque,
            named => stack.push(Sym::Const(named.constant().unwrap_or_default())),
        }

        if instr.op.pops() {
            if stack.len() < 2 {
                return Analysis::Opaque;
            }
            let t1 = stack.pop().expect("len checked");
            let t2 = stack.pop().expect("len checked");
            match instr.op {
                BinaryOp::Eq => match eq_test(&t2, &t1) {
                    Some(sym) => stack.push(sym),
                    None => return Analysis::Opaque,
                },
                BinaryOp::And => match conj_and(&t2, &t1) {
                    Some(sym) => stack.push(sym),
                    None => return Analysis::Opaque,
                },
                BinaryOp::Cand => {
                    if !alternatives.is_empty() {
                        // Mixed COR/CAND forms stay residual.
                        return Analysis::Opaque;
                    }
                    match eq_test(&t2, &t1) {
                        // Continuing past CAND implies the equality held
                        // and pushes TRUE.
                        Some(Sym::Conj(cs)) => {
                            path.extend(cs);
                            stack.push(Sym::Const(1));
                        }
                        Some(Sym::Const(0)) => return Analysis::NeverMatches,
                        Some(Sym::Const(_)) => stack.push(Sym::Const(1)),
                        _ => return Analysis::Opaque,
                    }
                }
                BinaryOp::Cor => {
                    if !path.is_empty() {
                        // A COR below CAND path constraints would need
                        // per-branch paths; keep such filters residual.
                        return Analysis::Opaque;
                    }
                    match eq_test(&t2, &t1) {
                        // Terminating accepts on the equality alone;
                        // continuing pushes FALSE.
                        Some(Sym::Conj(cs)) if covers(&cs, max_read) => {
                            alternatives.push(cs);
                            stack.push(Sym::Const(0));
                        }
                        // A constant-TRUE COR accepts every packet long
                        // enough for the words read before it.
                        Some(Sym::Const(c)) if c != 0 && max_read.is_none() => {
                            return Analysis::Conjunction(Vec::new())
                        }
                        Some(Sym::Const(c)) if c != 0 => return Analysis::Opaque,
                        Some(Sym::Const(_)) => stack.push(Sym::Const(0)),
                        _ => return Analysis::Opaque,
                    }
                }
                _ => return Analysis::Opaque,
            }
        }
    }

    let final_conj = match stack.last() {
        None => None, // empty stack at exit rejects
        Some(Sym::Const(0)) => None,
        Some(Sym::Const(_)) => Some(path.clone()),
        Some(Sym::Conj(cs)) => {
            let mut all = path.clone();
            all.extend(cs.iter().copied());
            Some(all)
        }
        Some(Sym::Word(_)) => return Analysis::Opaque,
    };
    if final_conj.as_ref().is_some_and(|c| !covers(c, max_read)) {
        return Analysis::Opaque;
    }
    if alternatives.is_empty() {
        match final_conj {
            Some(c) => Analysis::Conjunction(c),
            None => Analysis::NeverMatches,
        }
    } else {
        // Accept if any COR alternative matched, or the final expression
        // does. (With alternatives present, `path` is empty by
        // construction.)
        if let Some(c) = final_conj {
            alternatives.push(c);
        }
        Analysis::Disjunction(alternatives)
    }
}

/// Symbolic `EQ`: word-vs-constant gives a `Conj`, constants fold.
fn eq_test(t2: &Sym, t1: &Sym) -> Option<Sym> {
    Some(match (t2, t1) {
        (Sym::Word(n), Sym::Const(c)) | (Sym::Const(c), Sym::Word(n)) => Sym::Conj(vec![(*n, *c)]),
        (Sym::Const(a), Sym::Const(b)) => Sym::Const(u16::from(a == b)),
        _ => return None,
    })
}

/// Symbolic bitwise `AND` restricted to boolean-valued operands.
fn conj_and(t2: &Sym, t1: &Sym) -> Option<Sym> {
    // Only sound when both sides are known to be 0/1-valued (Conj, or the
    // constants 0/1). Arbitrary constants would make `AND` bit-twiddling.
    fn as_bool(s: &Sym) -> Option<BoolSym> {
        match s {
            Sym::Conj(cs) => Some(BoolSym::Conj(cs.clone())),
            Sym::Const(0) => Some(BoolSym::False),
            Sym::Const(1) => Some(BoolSym::True),
            _ => None,
        }
    }
    enum BoolSym {
        True,
        False,
        Conj(Vec<(u16, u16)>),
    }
    let (a, b) = (as_bool(t2)?, as_bool(t1)?);
    Some(match (a, b) {
        (BoolSym::False, _) | (_, BoolSym::False) => Sym::Const(0),
        (BoolSym::True, BoolSym::True) => Sym::Const(1),
        (BoolSym::True, BoolSym::Conj(c)) | (BoolSym::Conj(c), BoolSym::True) => Sym::Conj(c),
        (BoolSym::Conj(mut c1), BoolSym::Conj(c2)) => {
            c1.extend(c2);
            Sym::Conj(c1)
        }
    })
}

/// Sorts and deduplicates constraints; `None` if contradictory.
fn normalize(mut constraints: Vec<(u16, u16)>) -> Option<Vec<(u16, u16)>> {
    constraints.sort_unstable();
    constraints.dedup();
    for pair in constraints.windows(2) {
        if pair[0].0 == pair[1].0 {
            return None; // same word constrained to two different values
        }
    }
    Some(constraints)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::CheckedInterpreter;
    use crate::program::Assembler;
    use crate::samples;

    /// Reference semantics: priority-ordered sequential interpretation.
    fn sequential_matches(
        filters: &[(FilterId, FilterProgram)],
        packet: PacketView<'_>,
    ) -> Vec<FilterId> {
        let interp = CheckedInterpreter;
        let mut hits: Vec<(u8, usize, FilterId)> = filters
            .iter()
            .enumerate()
            .filter(|(_, (_, f))| interp.eval(f, packet))
            .map(|(seq, (id, f))| (f.priority(), seq, *id))
            .collect();
        hits.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        // A disjunctive filter may match through several branches; it still
        // receives the packet once.
        let mut seen = std::collections::HashSet::new();
        hits.into_iter()
            .map(|(_, _, id)| id)
            .filter(|id| seen.insert(*id))
            .collect()
    }

    #[test]
    fn socket_filters_are_table_compiled() {
        let mut set = FilterSet::new();
        for (i, sock) in [35u16, 44, 99].iter().enumerate() {
            set.insert(i as FilterId, samples::pup_socket_filter(10, 0, *sock));
        }
        assert_eq!(set.table_compiled(), 3);
        assert_eq!(set.shape_count(), 1, "same shape shares one table");
        let pkt = samples::pup_packet_3mb(2, 0, 44, 1);
        assert_eq!(set.matches(PacketView::new(&pkt)), vec![1]);
    }

    #[test]
    fn fig_3_8_is_residual() {
        // Range tests cannot go in an equality table.
        let mut set = FilterSet::new();
        set.insert(1, samples::fig_3_8_pup_type_range());
        assert_eq!(set.member_kind(1), Some(MemberKind::Residual));
        let pkt = samples::pup_packet_3mb(2, 0, 35, 50);
        assert_eq!(set.matches(PacketView::new(&pkt)), vec![1]);
    }

    #[test]
    fn reject_all_never_consulted() {
        let mut set = FilterSet::new();
        set.insert(1, samples::reject_all(10));
        assert_eq!(set.member_kind(1), Some(MemberKind::NeverMatches));
        assert!(set.matches(PacketView::new(&[0; 32])).is_empty());
    }

    #[test]
    fn accept_all_matches_everything() {
        let mut set = FilterSet::new();
        set.insert(1, samples::accept_all(10));
        assert_eq!(set.member_kind(1), Some(MemberKind::Table));
        assert_eq!(set.matches(PacketView::new(&[0; 4])), vec![1]);
        assert_eq!(set.matches(PacketView::new(&[])), vec![1]);
    }

    #[test]
    fn a_word_read_outside_the_constraints_keeps_its_fault() {
        // Word 10 is read and dropped: a packet too short for it faults
        // in the interpreter, so neither filter may become an entry that
        // ignores the word.
        let dead_then_true = Assembler::new(0)
            .pushword(4)
            .pushword(10)
            .pushone()
            .finish();
        let dead_then_cor = Assembler::new(0)
            .pushword(10)
            .pushword(0)
            .pushlit_op(BinaryOp::Cor, 5)
            .pushzero()
            .finish();
        let mut short = vec![0u8; 18];
        short[1] = 5;
        let mut long = short.clone();
        long.resize(22, 0);
        for f in [dead_then_true, dead_then_cor] {
            let mut set = FilterSet::new();
            set.insert(1, f.clone());
            assert_eq!(set.member_kind(1), Some(MemberKind::Residual), "{f}");
            let filters = [(1, f)];
            for pkt in [&short, &long] {
                let view = PacketView::new(pkt);
                assert_eq!(set.matches(view), sequential_matches(&filters, view));
            }
            assert!(set.matches(PacketView::new(&short)).is_empty());
            assert_eq!(set.matches(PacketView::new(&long)), vec![1]);
        }
    }

    #[test]
    fn priority_orders_matches() {
        let mut set = FilterSet::new();
        set.insert(1, samples::ethertype_filter(5, 2));
        set.insert(2, samples::pup_socket_filter(20, 0, 35)); // higher prio
        set.insert(3, samples::accept_all(1));
        let pkt = samples::pup_packet_3mb(2, 0, 35, 1);
        assert_eq!(set.matches(PacketView::new(&pkt)), vec![2, 1, 3]);
        assert_eq!(set.first_match(PacketView::new(&pkt)), Some(2));
    }

    #[test]
    fn equal_priority_ties_break_by_insertion() {
        let mut set = FilterSet::new();
        set.insert(10, samples::ethertype_filter(5, 2));
        set.insert(11, samples::ethertype_filter(5, 2));
        let pkt = samples::pup_packet_3mb(2, 0, 35, 1);
        assert_eq!(set.matches(PacketView::new(&pkt)), vec![10, 11]);
    }

    #[test]
    fn remove_works_for_both_kinds() {
        let mut set = FilterSet::new();
        set.insert(1, samples::pup_socket_filter(10, 0, 35));
        set.insert(2, samples::fig_3_8_pup_type_range());
        assert!(set.remove(1));
        assert!(set.remove(2));
        assert!(!set.remove(2));
        assert!(set.is_empty());
        assert_eq!(set.shape_count(), 0);
        let pkt = samples::pup_packet_3mb(2, 0, 35, 1);
        assert!(set.matches(PacketView::new(&pkt)).is_empty());
    }

    #[test]
    fn reinsert_replaces() {
        let mut set = FilterSet::new();
        set.insert(1, samples::pup_socket_filter(10, 0, 35));
        set.insert(1, samples::pup_socket_filter(10, 0, 44));
        assert_eq!(set.len(), 1);
        let pkt35 = samples::pup_packet_3mb(2, 0, 35, 1);
        let pkt44 = samples::pup_packet_3mb(2, 0, 44, 1);
        assert!(set.matches(PacketView::new(&pkt35)).is_empty());
        assert_eq!(set.matches(PacketView::new(&pkt44)), vec![1]);
    }

    #[test]
    fn contradictory_constraints_never_match() {
        // word0 == 1 AND word0 == 2.
        let f = Assembler::new(10)
            .pushword(0)
            .pushlit_op(BinaryOp::Cand, 1)
            .pushword(0)
            .pushlit_op(BinaryOp::Eq, 2)
            .finish();
        let mut set = FilterSet::new();
        set.insert(1, f);
        assert_eq!(set.member_kind(1), Some(MemberKind::NeverMatches));
    }

    #[test]
    fn and_combined_equalities_are_table_compiled() {
        // PUSHWORD/EQ pairs joined by trailing ANDs (fig 3-8 style but all
        // equality): still a conjunction.
        let f = Assembler::new(10)
            .pushword(1)
            .pushlit_op(BinaryOp::Eq, 2)
            .pushword(8)
            .pushlit_op(BinaryOp::Eq, 35)
            .op(BinaryOp::And)
            .finish();
        let mut set = FilterSet::new();
        set.insert(1, f.clone());
        assert_eq!(set.member_kind(1), Some(MemberKind::Table));
        for pkt in [
            samples::pup_packet_3mb(2, 0, 35, 1),
            samples::pup_packet_3mb(2, 0, 36, 1),
            samples::pup_packet_3mb(3, 0, 35, 1),
        ] {
            assert_eq!(
                set.matches(PacketView::new(&pkt)),
                sequential_matches(&[(1, f.clone())], PacketView::new(&pkt))
            );
        }
    }

    #[test]
    fn cor_disjunction_is_table_compiled() {
        // type == 2 || type == 6 || type == 8 — the builder's COR chain.
        use crate::builder::Expr;
        let f = Expr::word(1)
            .eq(2)
            .or(Expr::word(1).eq(6))
            .or(Expr::word(1).eq(8))
            .compile(10)
            .unwrap();
        let mut set = FilterSet::new();
        set.insert(1, f.clone());
        assert_eq!(set.member_kind(1), Some(MemberKind::Table));
        for (et, expect) in [(2u16, true), (6, true), (8, true), (7, false)] {
            let pkt = samples::pup_packet_3mb(et, 0, 35, 1);
            assert_eq!(
                set.matches(PacketView::new(&pkt)),
                sequential_matches(&[(1, f.clone())], PacketView::new(&pkt)),
                "ethertype {et}"
            );
            assert_eq!(!set.matches(PacketView::new(&pkt)).is_empty(), expect);
        }
    }

    #[test]
    fn overlapping_disjuncts_deliver_once() {
        // word0 == 1 || word1 == 2: a packet matching both branches still
        // reaches the filter exactly once.
        use crate::builder::Expr;
        let f = Expr::word(0)
            .eq(0x0102)
            .or(Expr::word(1).eq(2))
            .compile(10)
            .unwrap();
        let mut set = FilterSet::new();
        set.insert(1, f);
        let both = [0x01u8, 0x02, 0x00, 0x02];
        assert_eq!(set.matches(PacketView::new(&both)), vec![1]);
    }

    #[test]
    fn mixed_cor_cand_stays_residual() {
        // CAND path constraints under a COR need per-branch paths; such
        // filters must stay on the interpreted fallback (and still work).
        let f = Assembler::new(10)
            .pushword(0)
            .pushlit_op(BinaryOp::Cand, 7)
            .pushword(1)
            .pushlit_op(BinaryOp::Cor, 9)
            .pushword(2)
            .pushlit_op(BinaryOp::Eq, 3)
            .finish();
        let mut set = FilterSet::new();
        set.insert(1, f.clone());
        assert_eq!(set.member_kind(1), Some(MemberKind::Residual));
        for pkt in [
            [0x00u8, 0x07, 0x00, 0x09, 0x00, 0x00],
            [0x00, 0x07, 0x00, 0x08, 0x00, 0x03],
            [0x00, 0x06, 0x00, 0x09, 0x00, 0x03],
        ] {
            assert_eq!(
                set.matches(PacketView::new(&pkt)),
                sequential_matches(&[(1, f.clone())], PacketView::new(&pkt))
            );
        }
    }

    #[test]
    fn short_packets_reject_consistently() {
        let filters = vec![
            (1, samples::pup_socket_filter(10, 0, 35)),
            (2, samples::fig_3_8_pup_type_range()),
        ];
        let mut set = FilterSet::new();
        for (id, f) in &filters {
            set.insert(*id, f.clone());
        }
        let short = [0x01u8, 0x02, 0x00, 0x02]; // 2 words only
        assert_eq!(
            set.matches(PacketView::new(&short)),
            sequential_matches(&filters, PacketView::new(&short))
        );
    }

    #[test]
    fn mixed_set_equivalent_to_sequential() {
        let filters: Vec<(FilterId, FilterProgram)> = vec![
            (1, samples::pup_socket_filter(10, 0, 35)),
            (2, samples::pup_socket_filter(10, 0, 44)),
            (3, samples::fig_3_8_pup_type_range()),
            (4, samples::ethertype_filter(8, 3)),
            (5, samples::accept_all(1)),
            (6, samples::reject_all(30)),
        ];
        let mut set = FilterSet::new();
        for (id, f) in &filters {
            set.insert(*id, f.clone());
        }
        for et in [2u16, 3, 4] {
            for sock in [35u16, 44, 50] {
                for ptype in [0u8, 5, 200] {
                    let pkt = samples::pup_packet_3mb(et, 0, sock, ptype);
                    assert_eq!(
                        set.matches(PacketView::new(&pkt)),
                        sequential_matches(&filters, PacketView::new(&pkt)),
                        "et={et} sock={sock} ptype={ptype}"
                    );
                }
            }
        }
    }
}
