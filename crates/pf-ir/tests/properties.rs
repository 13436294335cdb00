// Property suites need the external `proptest` crate; the default build is
// hermetic (offline), so this whole file is gated behind a feature. See the
// crate manifest for how to restore the dev-dependency. The deterministic
// in-tree version of these invariants runs unconditionally in
// `tests/differential.rs`.
#![cfg(feature = "proptest-tests")]

//! Property-based engine agreement: checked interpreter, validated fast
//! interpreter, compiled micro-ops, IR threaded code and the geometric
//! classifier are observationally identical on arbitrary programs and
//! packets.

use pf_filter::compile::CompiledFilter;
use pf_filter::interp::{CheckedInterpreter, Dialect, InterpConfig, ShortCircuitStyle};
use pf_filter::packet::PacketView;
use pf_filter::program::{Assembler, FilterProgram};
use pf_filter::validate::ValidatedProgram;
use pf_filter::word::{BinaryOp, Instr, StackAction};
use pf_ir::{GeomSet, IrFilter};
use proptest::prelude::*;

fn any_stack_action() -> impl Strategy<Value = StackAction> {
    prop_oneof![
        Just(StackAction::NoPush),
        Just(StackAction::PushLit),
        Just(StackAction::PushZero),
        Just(StackAction::PushOne),
        Just(StackAction::PushFFFF),
        Just(StackAction::PushFF00),
        Just(StackAction::Push00FF),
        Just(StackAction::PushInd),
        (0u8..48).prop_map(StackAction::PushWord),
    ]
}

fn any_binary_op() -> impl Strategy<Value = BinaryOp> {
    prop_oneof![
        Just(BinaryOp::Nop),
        Just(BinaryOp::Eq),
        Just(BinaryOp::Neq),
        Just(BinaryOp::Lt),
        Just(BinaryOp::Le),
        Just(BinaryOp::Gt),
        Just(BinaryOp::Ge),
        Just(BinaryOp::And),
        Just(BinaryOp::Or),
        Just(BinaryOp::Xor),
        Just(BinaryOp::Cor),
        Just(BinaryOp::Cand),
        Just(BinaryOp::Cnor),
        Just(BinaryOp::Cnand),
        Just(BinaryOp::Add),
        Just(BinaryOp::Sub),
        Just(BinaryOp::Mul),
        Just(BinaryOp::Div),
        Just(BinaryOp::Mod),
        Just(BinaryOp::Lsh),
        Just(BinaryOp::Rsh),
    ]
}

fn structured_words() -> impl Strategy<Value = Vec<u16>> {
    prop::collection::vec(
        prop_oneof![
            (any_stack_action(), any_binary_op()).prop_map(|(a, o)| Instr::new(a, o).encode()),
            any::<u16>(),
        ],
        0..40,
    )
}

fn packet_bytes() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(any::<u8>(), 0..128)
}

/// A random figure-3-8-style *range* program: one to three
/// `lo <= packet[w] <= hi` constraints, each ordering compare feeding a
/// `CNOR 0` (reject immediately when false), closed by an equality
/// guard — the shape `samples::socket_range_filter` pins down, with
/// every word, bound, and literal randomized.
fn range_member() -> impl Strategy<Value = FilterProgram> {
    (
        prop::collection::vec((0u8..10, any::<u16>(), any::<u16>()), 1..4),
        0u8..10,
        any::<u16>(),
        0u8..30,
    )
        .prop_map(|(ranges, guard_word, guard_lit, prio)| {
            let mut a = Assembler::new(prio);
            for (w, x, y) in ranges {
                let (lo, hi) = if x <= y { (x, y) } else { (y, x) };
                a = a
                    .pushword(w)
                    .pushlit_op(BinaryOp::Ge, lo)
                    .pushzero_op(BinaryOp::Cnor)
                    .pushword(w)
                    .pushlit_op(BinaryOp::Le, hi)
                    .pushzero_op(BinaryOp::Cnor);
            }
            a.pushword(guard_word)
                .pushlit_op(BinaryOp::Eq, guard_lit)
                .finish()
        })
}

proptest! {
    /// If a program validates, the IR engine (and everything below it)
    /// agrees with the checked interpreter; if it does not validate, the
    /// IR compiler rejects it too.
    #[test]
    fn five_engines_agree(words in structured_words(), pkt in packet_bytes()) {
        for dialect in [Dialect::Classic, Dialect::Extended] {
            for style in [ShortCircuitStyle::Paper, ShortCircuitStyle::Historical] {
                let cfg = InterpConfig { dialect, short_circuit: style };
                let prog = FilterProgram::from_words(10, words.clone());
                let Ok(validated) = ValidatedProgram::with_config(prog.clone(), cfg) else {
                    prop_assert!(IrFilter::compile_with_config(prog, cfg).is_err());
                    continue;
                };
                let compiled = CompiledFilter::from_validated(validated.clone());
                let ir = IrFilter::from_validated(&validated);
                let view = PacketView::new(&pkt);
                let checked = CheckedInterpreter::new(cfg).eval(&prog, view);
                prop_assert_eq!(validated.eval(view), checked, "validated vs checked");
                prop_assert_eq!(compiled.eval(view), checked, "compiled vs checked");
                prop_assert_eq!(ir.eval(view), checked, "ir vs checked");
            }
        }
    }

    /// The geometric set (default configuration) is equivalent to checking
    /// each member independently, on arbitrary mixed populations.
    #[test]
    fn geom_set_equivalent_to_independent_eval(
        programs in prop::collection::vec((structured_words(), 0u8..30), 0..6),
        pkt in packet_bytes(),
    ) {
        let filters: Vec<(u32, FilterProgram)> = programs
            .into_iter()
            .enumerate()
            .map(|(i, (words, prio))| (i as u32, FilterProgram::from_words(prio, words)))
            .collect();
        let mut set = GeomSet::new();
        for (id, f) in &filters {
            set.insert(*id, f.clone());
        }
        let view = PacketView::new(&pkt);
        let checked = CheckedInterpreter::default();
        let mut order: Vec<usize> = (0..filters.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(filters[i].1.priority()));
        let expect: Vec<u32> = order
            .iter()
            .filter(|&&i| checked.eval(&filters[i].1, view))
            .map(|&i| filters[i].0)
            .collect();
        prop_assert_eq!(set.matches(view), expect);
    }

    /// The validator accepts the range-program shape, and the checked
    /// interpreter, the threaded code, and the geometric classifier all
    /// agree on it, on arbitrary packets, including short ones that force
    /// the classifier's fallback.
    #[test]
    fn geom_agrees_on_random_range_programs(
        members in prop::collection::vec(range_member(), 1..6),
        pkts in prop::collection::vec(packet_bytes(), 1..8),
    ) {
        let checked = CheckedInterpreter::default();
        let mut set = GeomSet::new();
        for (i, f) in members.iter().enumerate() {
            prop_assert!(
                ValidatedProgram::new(f.clone()).is_ok(),
                "range shape validates"
            );
            let ir = IrFilter::compile(f.clone()).expect("validated, so compiles");
            set.insert(i as u32, f.clone());
            for p in &pkts {
                let view = PacketView::new(p);
                prop_assert_eq!(ir.eval(view), checked.eval(f, view), "ir vs checked");
            }
        }
        let mut order: Vec<usize> = (0..members.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(members[i].priority()));
        for p in &pkts {
            let view = PacketView::new(p);
            let expect: Vec<u32> = order
                .iter()
                .filter(|&&i| checked.eval(&members[i], view))
                .map(|&i| i as u32)
                .collect();
            prop_assert_eq!(set.matches(view), expect, "geom");
        }
    }
}
