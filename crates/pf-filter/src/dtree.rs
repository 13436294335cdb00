//! Compiling a *set* of active filters into a decision table.
//!
//! §7 of the paper: "Finally, with a redesigned filter language it might be
//! possible to compile the set of active filters into a decision table,
//! which should provide the best possible performance."
//!
//! [`FilterSet`] implements that proposal without redesigning the language.
//! It reads each filter's [`Form`]: a filter whose form is a disjunction
//! of conjunctions of *packet-word equals constant* tests — the
//! overwhelmingly common shape in practice (figure 3-9, every
//! demultiplexing filter) — is folded into hash tables keyed by the tested
//! words, one entry a disjunct. Evaluating a packet then costs one hash
//! probe per distinct *shape* (set of tested word indices) instead of one
//! interpretation per filter. Any other filter — an `Opaque` form, an
//! ordering compare, a disjunct a probe cannot stand for
//! ([`Disjunct::covers`](crate::form::Disjunct::covers)) — is kept on a
//! sequential fallback list and interpreted as usual, so the set accepts
//! arbitrary programs and remains observationally identical to
//! priority-ordered sequential interpretation (a property test verifies
//! this). Those interpretations are the set's only per-filter work, and
//! [`FilterSet::matches_reporting`] hands each one to the caller to be
//! charged.

use crate::form::Form;
use crate::interp::{CheckedInterpreter, EvalStats};
use crate::packet::PacketView;
use crate::program::FilterProgram;
use std::collections::HashMap;

/// Identifier a caller associates with each filter in the set (a port
/// number, in the kernel's use).
pub type FilterId = u32;

/// A set of active filters compiled into decision tables.
///
/// Filters are applied "in order of decreasing priority" (§3.2); ties
/// break by id, lowest first — the kernel's port order — so replacing a
/// filter never moves it among its equals.
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
    /// Table-compiled filters, grouped by shape.
    shapes: Vec<Shape>,
    /// Filters no table can hold; interpreted sequentially.
    residual: Vec<Residual>,
    /// All members, for removal and introspection.
    members: HashMap<FilterId, MemberKind>,
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
}

#[derive(Debug)]
struct Residual {
    id: FilterId,
    priority: u8,
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
            .filter(|&&kind| kind == MemberKind::Table)
            .count()
    }

    /// Number of distinct shapes (hash probes per packet).
    pub fn shape_count(&self) -> usize {
        self.shapes.len()
    }

    /// How a given filter is executed, if present.
    /// Read by pf-kernel's and pf-proto's unit tests to pin which filters the table interprets.
    pub fn member_kind(&self, id: FilterId) -> Option<MemberKind> {
        self.members.get(&id).copied()
    }

    /// Inserts (or replaces) the filter for `id`.
    pub fn insert(&mut self, id: FilterId, program: FilterProgram) {
        let form = Form::of(&program);
        self.insert_analysed(id, program, form);
    }

    /// [`FilterSet::insert`] for a program already analysed: `form` is
    /// `Form::of(&program)`, so a bind that analysed the program for its
    /// own reasons does not analyse it again.
    pub fn insert_analysed(&mut self, id: FilterId, program: FilterProgram, form: Form) {
        self.remove(id);
        let priority = program.priority();
        // The form is dropped before the table grows: a temporary that
        // outlived the table's allocations left them where glibc trimmed
        // the heap under them between `overload_flood`'s set-ups (29×
        // the minor faults, `setup_s` 2.3×).
        let entries = table_entries(&form);
        drop(form);
        let kind = match entries {
            // One table entry per satisfiable disjunct; `matches`
            // deduplicates ids so overlapping disjuncts deliver once.
            Some(entries) if !entries.is_empty() => {
                for pairs in entries {
                    self.insert_table(Entry { id, priority }, pairs);
                }
                MemberKind::Table
            }
            Some(_) => MemberKind::NeverMatches,
            None => {
                self.residual.push(Residual {
                    id,
                    priority,
                    program,
                });
                MemberKind::Residual
            }
        };
        self.members.insert(id, kind);
    }

    /// Removes the filter for `id`; returns whether it was present.
    pub fn remove(&mut self, id: FilterId) -> bool {
        let Some(kind) = self.members.remove(&id) else {
            return false;
        };
        match kind {
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

    /// All matching filter ids, highest priority first (ties by id) — the
    /// order the kernel's demultiplexing loop would deliver.
    pub fn matches(&self, packet: PacketView<'_>) -> Vec<FilterId> {
        self.matches_reporting(packet, |_, _, _| {})
    }

    /// [`Self::matches`], handing `interpreted` every residual member's
    /// checked evaluation as `(id, accepted, stats)`: the interpretation
    /// work a table probe does not cover.
    pub fn matches_reporting(
        &self,
        packet: PacketView<'_>,
        mut interpreted: impl FnMut(FilterId, bool, EvalStats),
    ) -> Vec<FilterId> {
        let mut hits: Vec<(u8, FilterId)> = Vec::new();

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
                hits.extend(entries.iter().map(|e| (e.priority, e.id)));
            }
        }

        for r in &self.residual {
            let (accepted, stats) = CheckedInterpreter.eval_with_stats(&r.program, packet);
            interpreted(r.id, accepted, stats);
            if accepted {
                hits.push((r.priority, r.id));
            }
        }

        hits.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        // A disjunctive filter may match through several branches; it still
        // receives the packet once. (Collected from a borrow, into a list
        // of its own: the hit list, the seen-set and the returned list are
        // the allocations the §7 baseline is measured with.)
        let mut seen = std::collections::HashSet::new();
        hits.iter()
            .map(|&(_, id)| id)
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

/// The table entries a filter's form folds into, as sorted, deduplicated
/// `(word, value)` lists: one per satisfiable disjunct, none for a filter
/// that never accepts. `None` keeps the filter on the interpreted list: an
/// `Opaque` form, an ordering compare (a point it pins stays an interval
/// test), or a disjunct a probe cannot stand for.
fn table_entries(form: &Form) -> Option<Vec<Vec<(u16, u16)>>> {
    let disjuncts = form.disjuncts().filter(|_| !form.is_ordered())?;
    if !disjuncts.iter().all(|d| d.covers()) {
        return None;
    }
    let mut entries: Vec<Vec<(u16, u16)>> = disjuncts
        .iter()
        .filter_map(|d| d.normalized())
        .map(|atoms| atoms.iter().map(|a| (a.word, a.lo)).collect())
        .collect();
    entries.sort();
    entries.dedup();
    Some(entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::CheckedInterpreter;
    use crate::program::Assembler;
    use crate::samples;
    use crate::word::BinaryOp;

    /// Reference semantics: sequential interpretation in `(priority
    /// descending, id)` order.
    fn sequential_matches(
        filters: &[(FilterId, FilterProgram)],
        packet: PacketView<'_>,
    ) -> Vec<FilterId> {
        let mut hits: Vec<(u8, FilterId)> = filters
            .iter()
            .filter(|(_, f)| CheckedInterpreter.eval(f, packet))
            .map(|(id, f)| (f.priority(), *id))
            .collect();
        hits.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        hits.into_iter().map(|(_, id)| id).collect()
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
    fn a_program_that_overflows_the_stack_is_interpreted() {
        // Thirty-three pushes of TRUE: the interpreter faults on the last
        // and rejects, so the set must not hold the filter as accept-all.
        let mut a = Assembler::new(10);
        for _ in 0..=crate::interp::STACK_SIZE {
            a = a.pushone();
        }
        let f = a.finish();
        let mut set = FilterSet::new();
        set.insert(1, f.clone());
        assert_eq!(set.member_kind(1), Some(MemberKind::Residual));
        let view = PacketView::new(&[0; 4]);
        assert_eq!(set.matches(view), sequential_matches(&[(1, f)], view));
        assert!(set.matches(view).is_empty());
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
    fn equal_priority_ties_break_by_id_and_a_reinsert_keeps_its_place() {
        // One table member and one residual member per id.
        for residual in [false, true] {
            let filter = || match residual {
                false => samples::ethertype_filter(5, 2),
                true => samples::fig_3_8_pup_type_range(),
            };
            let mut set = FilterSet::new();
            set.insert(11, filter());
            set.insert(10, filter());
            let pkt = samples::pup_packet_3mb(2, 0, 35, 50);
            assert_eq!(set.matches(PacketView::new(&pkt)), vec![10, 11]);
            set.insert(10, filter());
            assert_eq!(set.matches(PacketView::new(&pkt)), vec![10, 11]);
        }
    }

    #[test]
    fn every_residual_evaluation_is_reported() {
        let mut set = FilterSet::new();
        set.insert(1, samples::pup_socket_filter(10, 0, 35));
        set.insert(2, samples::fig_3_8_pup_type_range());
        for (ptype, accepted) in [(50u8, true), (200, false)] {
            let pkt = samples::pup_packet_3mb(2, 0, 35, ptype);
            let view = PacketView::new(&pkt);
            let mut reported = Vec::new();
            let ids = set.matches_reporting(view, |id, a, s| reported.push((id, a, s)));
            let (_, stats) =
                CheckedInterpreter.eval_with_stats(&samples::fig_3_8_pup_type_range(), view);
            assert_eq!(reported, vec![(2, accepted, stats)], "ptype {ptype}");
            assert_eq!(ids, set.matches(view));
        }
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
