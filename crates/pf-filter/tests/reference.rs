//! The checked interpreter — the oracle everything else in the workspace
//! is held to — against the two things that can check *it*: a direct
//! evaluator of the builder's `Expr` trees, which shares no code with the
//! compiler or the interpreter, and totality on programs the validator
//! rejects. Seeded from the in-tree `SplitMix64`; the release profile runs
//! ten times the cases of the debug one.

use pf_filter::builder::{CmpOp, Expr};
use pf_filter::interp::CheckedInterpreter;
use pf_filter::packet::PacketView;
use pf_filter::program::FilterProgram;
use pf_filter::validate::ValidatedProgram;
use pf_sim::rng::SplitMix64;

const CASES: u32 = if cfg!(debug_assertions) { 512 } else { 5_120 };

/// A value expression: a packet word, a literal, or down to `depth`
/// levels of bitwise operators over them.
fn value_expr(rng: &mut SplitMix64, depth: u32) -> Expr {
    let op = if depth == 0 {
        rng.below(2)
    } else {
        rng.below(5)
    };
    if op < 2 {
        return if op == 0 {
            Expr::Word(rng.below(48) as u16)
        } else {
            Expr::Lit(rng.next_u64() as u16)
        };
    }
    let (a, b) = (value_expr(rng, depth - 1), value_expr(rng, depth - 1));
    match op {
        2 => a.bitand(b),
        3 => a.bitor(b),
        _ => Expr::BitXor(Box::new(a), Box::new(b)),
    }
}

/// A predicate: a comparison of two values, or down to `depth` levels of
/// `and`/`or`/`not` over comparisons.
fn pred_expr(rng: &mut SplitMix64, depth: u32) -> Expr {
    let op = if depth == 0 { 0 } else { rng.below(4) };
    match op {
        0 => {
            let (a, b) = (value_expr(rng, 1), value_expr(rng, 1));
            match rng.below(6) {
                0 => a.eq(b),
                1 => a.ne(b),
                2 => a.lt(b),
                3 => a.le(b),
                4 => a.gt(b),
                _ => a.ge(b),
            }
        }
        1 => pred_expr(rng, depth - 1).and(pred_expr(rng, depth - 1)),
        2 => pred_expr(rng, depth - 1).or(pred_expr(rng, depth - 1)),
        _ => pred_expr(rng, depth - 1).not(),
    }
}

/// What an expression means, read straight off the tree. The packets are
/// long enough that no word is out of range, so there are no faults to
/// model.
fn reference(e: &Expr, pkt: &PacketView<'_>) -> u16 {
    match e {
        Expr::Word(n) => pkt.word(usize::from(*n)).expect("packet long enough"),
        Expr::Lit(v) => *v,
        Expr::BitAnd(a, b) => reference(a, pkt) & reference(b, pkt),
        Expr::BitOr(a, b) => reference(a, pkt) | reference(b, pkt),
        Expr::BitXor(a, b) => reference(a, pkt) ^ reference(b, pkt),
        Expr::Cmp(op, a, b) => {
            let (x, y) = (reference(a, pkt), reference(b, pkt));
            u16::from(match op {
                CmpOp::Eq => x == y,
                CmpOp::Ne => x != y,
                CmpOp::Lt => x < y,
                CmpOp::Le => x <= y,
                CmpOp::Gt => x > y,
                CmpOp::Ge => x >= y,
            })
        }
        Expr::And(a, b) => u16::from(reference(a, pkt) != 0 && reference(b, pkt) != 0),
        Expr::Or(a, b) => u16::from(reference(a, pkt) != 0 || reference(b, pkt) != 0),
        Expr::Not(a) => u16::from(reference(a, pkt) == 0),
        Expr::WordAt(_) | Expr::Arith(..) => unreachable!("not generated"),
    }
}

#[test]
fn compiled_expression_matches_reference() {
    let mut rng = SplitMix64::new(0xE4A9_0001);
    let (mut compiled, mut accepted) = (0u32, 0u32);
    for case in 0..CASES {
        let e = pred_expr(&mut rng, 3);
        // Two packets in three are mostly zero words, so that equalities
        // between packet words hold often enough for both verdicts to show.
        let sparse = case % 3 != 0;
        let pkt: Vec<u8> = (0..96 + rng.below(64))
            .map(|_| {
                if sparse && rng.chance(0.8) {
                    0
                } else {
                    rng.next_u64() as u8
                }
            })
            .collect();
        // A deep tree can exceed the program or stack limits: a legitimate
        // error, not a semantic failure.
        let Ok(prog) = e.compile(10) else {
            continue;
        };
        compiled += 1;
        let view = PacketView::new(&pkt);
        let expected = reference(&e, &view) != 0;
        accepted += u32::from(expected);
        assert_eq!(
            CheckedInterpreter.eval(&prog, view),
            expected,
            "case {case}, expr: {e:?}\nprogram:\n{prog}"
        );
    }
    assert!(compiled > CASES / 2, "only {compiled} trees compiled");
    let rejected = compiled - accepted;
    assert!(
        accepted > CASES / 10 && rejected > CASES / 10,
        "one-sided verdicts: {accepted} accepts, {rejected} rejects"
    );
}

/// The contract the kernel's quarantine path stands on (serve
/// validation-rejected filters through the checked interpreter): on
/// arbitrary word soup and arbitrary packets `eval` and `eval_budgeted`
/// return a verdict instead of panicking, and a budget the evaluation
/// fits in is invisible.
#[test]
fn checked_interpreter_never_panics_on_rejected_programs() {
    let mut rng = SplitMix64::new(0xE4A9_0002);
    let interp = CheckedInterpreter;
    let mut rejected = 0u32;
    for case in 0..CASES {
        let words = (0..rng.below(48)).map(|_| rng.next_u64() as u16).collect();
        let pkt: Vec<u8> = (0..rng.below(160)).map(|_| rng.next_u64() as u8).collect();
        let budget = 1 + rng.below(63) as u32;
        let prog = FilterProgram::from_words(10, words);
        let view = PacketView::new(&pkt);
        let plain = interp.eval(&prog, view);
        let (budgeted, stats) = interp.eval_budgeted(&prog, view, budget);
        if stats.error.is_none() {
            assert_eq!(budgeted, plain, "case {case}");
            assert!(stats.instructions <= budget, "case {case}");
        }
        if ValidatedProgram::new(prog).is_err() {
            rejected += 1;
        }
    }
    assert!(
        rejected > CASES / 2,
        "only {rejected} programs were rejected"
    );
}
