//! The filter programs the lanes share: every sample and figure program,
//! word soup (`pf-ir`'s
//! `tests/fuzz.rs`, the form's oracle lane in `pf-filter`'s
//! `tests/form.rs`, `pf-kernel`'s RSS lane), programs of conjunction
//! clauses (`pf_ir::exec`'s test-list pins, the oracle lane) and of
//! short-circuit tests (the oracle lane, the compiled-code pin). Each
//! includes this file as a module and uses what it needs.
#![allow(dead_code)]

use pf_filter::builder::Expr;
use pf_filter::form::{Form, Interval};
use pf_filter::program::{Assembler, FilterProgram};
use pf_filter::samples;
use pf_filter::word::{BinaryOp, Instr, StackAction};
use pf_sim::rng::SplitMix64;

/// Raw word soup with a bias toward decodable instructions, so both the
/// reject path and the deep-execution path see real traffic.
pub fn fuzz_words(rng: &mut SplitMix64) -> Vec<u16> {
    let len = rng.below(48) as usize;
    (0..len)
        .map(|_| {
            if rng.chance(0.25) {
                rng.next_u64() as u16
            } else {
                let action = if rng.chance(0.3) {
                    // Full 6-bit field range (`encode` panics by design
                    // above MAX_PUSHWORD_INDEX; the raw-word arm covers
                    // reserved encodings instead).
                    StackAction::PushWord(rng.below(48) as u8)
                } else {
                    match rng.below(8) {
                        0 => StackAction::NoPush,
                        1 => StackAction::PushLit,
                        2 => StackAction::PushZero,
                        3 => StackAction::PushOne,
                        4 => StackAction::PushFFFF,
                        5 => StackAction::PushFF00,
                        6 => StackAction::Push00FF,
                        _ => StackAction::PushInd,
                    }
                };
                let op = match rng.below(21) {
                    0 => BinaryOp::Nop,
                    1 => BinaryOp::Eq,
                    2 => BinaryOp::Neq,
                    3 => BinaryOp::Lt,
                    4 => BinaryOp::Le,
                    5 => BinaryOp::Gt,
                    6 => BinaryOp::Ge,
                    7 => BinaryOp::And,
                    8 => BinaryOp::Or,
                    9 => BinaryOp::Xor,
                    10 => BinaryOp::Cor,
                    11 => BinaryOp::Cand,
                    12 => BinaryOp::Cnor,
                    13 => BinaryOp::Cnand,
                    14 => BinaryOp::Add,
                    15 => BinaryOp::Sub,
                    16 => BinaryOp::Mul,
                    17 => BinaryOp::Div,
                    18 => BinaryOp::Mod,
                    19 => BinaryOp::Lsh,
                    _ => BinaryOp::Rsh,
                };
                Instr::new(action, op).encode()
            }
        })
        .collect()
}

/// Stack-balanced word stream: pops never outrun pushes, so a large
/// fraction validates and the accepted-program paths (fast interpreter,
/// compiled engines) see deep execution rather than early rejects.
pub fn fuzz_balanced_words(rng: &mut SplitMix64) -> Vec<u16> {
    let n = 1 + rng.below(16);
    let mut depth = 0u64;
    let mut words = Vec::new();
    for _ in 0..n {
        let action = if depth == 0 || rng.chance(0.6) {
            match rng.below(6) {
                0 => StackAction::PushLit,
                1 => StackAction::PushZero,
                2 => StackAction::PushOne,
                3 => StackAction::PushFFFF,
                _ => StackAction::PushWord(rng.below(12) as u8),
            }
        } else {
            StackAction::NoPush
        };
        let mut d = depth + u64::from(action != StackAction::NoPush);
        let op = if d >= 2 && rng.chance(0.7) {
            d -= 1;
            const OPS: [BinaryOp; 13] = [
                BinaryOp::Eq,
                BinaryOp::Neq,
                BinaryOp::Lt,
                BinaryOp::Le,
                BinaryOp::Gt,
                BinaryOp::Ge,
                BinaryOp::And,
                BinaryOp::Or,
                BinaryOp::Xor,
                BinaryOp::Cor,
                BinaryOp::Cand,
                BinaryOp::Cnor,
                BinaryOp::Cnand,
            ];
            OPS[rng.below(13) as usize]
        } else {
            BinaryOp::Nop
        };
        words.push(Instr::new(action, op).encode());
        if action == StackAction::PushLit {
            words.push(rng.next_u64() as u16);
        }
        depth = d;
    }
    words
}

/// A seeded program built mostly of the clauses a conjunction is made
/// of — `CAND` equalities, ordering compares (literal either side)
/// closed by `CNOR 0`, a final compare — with clauses that leave the
/// fragment mixed in: `CNOR`/`COR` on a literal, a masked word, an
/// `OR` verdict. Literals favour the domain's ends.
pub fn clause_program(rng: &mut SplitMix64) -> FilterProgram {
    const ORDER: [BinaryOp; 4] = [BinaryOp::Lt, BinaryOp::Le, BinaryOp::Gt, BinaryOp::Ge];
    const VERDICT: [BinaryOp; 5] = [
        BinaryOp::Eq,
        BinaryOp::Lt,
        BinaryOp::Le,
        BinaryOp::Gt,
        BinaryOp::Ge,
    ];
    let lit = |rng: &mut SplitMix64| match rng.below(4) {
        0 => 0,
        1 => u16::MAX,
        2 => rng.below(8) as u16,
        _ => rng.next_u64() as u16,
    };
    let word = |rng: &mut SplitMix64| rng.below(12) as u8;
    let mut a = Assembler::new(rng.below(30) as u8);
    for _ in 0..rng.below(7) {
        let (w, l) = (word(rng), lit(rng));
        let order = ORDER[rng.below(4) as usize];
        a = match rng.below(9) {
            0..=2 => a.pushword(w).pushlit_op(BinaryOp::Cand, l),
            3 | 4 => a
                .pushword(w)
                .pushlit_op(order, l)
                .pushzero_op(BinaryOp::Cnor),
            5 => a
                .pushlit(l)
                .pushword_op(w, order)
                .pushzero_op(BinaryOp::Cnor),
            6 => a.pushword(w).pushlit_op(BinaryOp::Cnor, l),
            7 => a.pushword(w).pushlit_op(BinaryOp::Cor, l),
            _ => a
                .pushword(w)
                .push_op(StackAction::Push00FF, BinaryOp::And)
                .pushzero_op(BinaryOp::Cnor),
        };
    }
    let (w, l) = (word(rng), lit(rng));
    match rng.below(5) {
        0..=2 => a.pushword(w).pushlit_op(VERDICT[rng.below(5) as usize], l),
        3 => a
            .pushword(w)
            .pushlit_op(BinaryOp::Eq, l)
            .pushword(word(rng))
            .pushlit_op(BinaryOp::Eq, lit(rng))
            .op(BinaryOp::Or),
        _ => a.pushone(),
    }
    .finish()
}

/// A seeded program of short-circuit tests: each a packet word alone, or
/// compared with a literal by `EQ` or an ordering operator, then tested
/// against zero, one, all ones or a literal by any short-circuit operator;
/// then a last compare or TRUE.
pub fn short_circuit_program(rng: &mut SplitMix64) -> FilterProgram {
    const CMP: [BinaryOp; 6] = [
        BinaryOp::Nop,
        BinaryOp::Eq,
        BinaryOp::Lt,
        BinaryOp::Le,
        BinaryOp::Gt,
        BinaryOp::Ge,
    ];
    const SC: [BinaryOp; 4] = [
        BinaryOp::Cand,
        BinaryOp::Cor,
        BinaryOp::Cnor,
        BinaryOp::Cnand,
    ];
    let lit = |rng: &mut SplitMix64| [0, 1, u16::MAX, rng.below(8) as u16][rng.below(4) as usize];
    let mut a = Assembler::new(10);
    for _ in 0..1 + rng.below(4) {
        a = a.pushword(rng.below(6) as u8);
        let cmp = CMP[rng.below(6) as usize];
        if cmp != BinaryOp::Nop {
            a = a.pushlit_op(cmp, lit(rng));
        }
        a = a.pushlit_op(SC[rng.below(4) as usize], lit(rng));
    }
    match rng.below(3) {
        0 => a.pushone(),
        _ => a
            .pushword(rng.below(6) as u8)
            .pushlit_op(CMP[1 + rng.below(5) as usize], lit(rng)),
    }
    .finish()
}

/// The highest word a `PUSHWORD` of the program names.
fn highest_word(program: &FilterProgram) -> usize {
    let pushes = program.words().iter().filter_map(|&w| Instr::decode(w));
    pushes
        .filter_map(|i| match i.action {
            StackAction::PushWord(n) => Some(usize::from(n)),
            _ => None,
        })
        .max()
        .unwrap_or(0)
}

/// Packets of every byte length up to two words past the highest word
/// `program` reads, three a length: noise, with the word of each atom its
/// form names written inside the atom, at an end, just outside it, or left
/// as it was.
pub fn probes(program: &FilterProgram, rng: &mut SplitMix64) -> Vec<Vec<u8>> {
    let form = Form::of(program);
    let mut atoms: Vec<Interval> = form.required().to_vec();
    atoms.extend(form.lead());
    for d in form.disjuncts().unwrap_or_default() {
        atoms.extend(&d.atoms);
    }
    let mut out = Vec::new();
    for len in 0..=2 * (highest_word(program) + 3) {
        for _ in 0..3 {
            let mut p: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            for a in &atoms {
                let v = match rng.below(8) {
                    0 | 1 => a.lo + rng.below(u64::from(a.hi - a.lo) + 1) as u16,
                    2 => a.lo,
                    3 => a.hi,
                    4 => a.lo.wrapping_sub(1),
                    5 => a.hi.wrapping_add(1),
                    _ => continue,
                };
                let at = 2 * usize::from(a.word);
                if let Some(bytes) = p.get_mut(at..at + 2) {
                    bytes.copy_from_slice(&v.to_be_bytes());
                }
            }
            out.push(p);
        }
    }
    out
}

/// Every sample and figure program, and the shapes the decision table's
/// tests name.
pub fn corpus() -> Vec<FilterProgram> {
    let word_eq = |w, v| Expr::word(w).eq(v);
    vec![
        samples::fig_3_8_pup_type_range(),
        samples::fig_3_9_pup_socket_35(),
        samples::pup_socket_filter(3, 1, 35),
        samples::socket_range_filter(10, 100, 200),
        samples::socket_range_filter(10, 7, 7),
        samples::socket_range_filter(10, 0, u16::MAX),
        samples::socket_range_filter(10, 200, 100),
        samples::ethertype_filter(5, 2),
        samples::accept_all(1),
        samples::reject_all(1),
        samples::padded_accept_filter(0, 9),
        FilterProgram::empty(0),
        word_eq(1, 2)
            .or(word_eq(1, 6))
            .or(word_eq(1, 8))
            .compile(10)
            .unwrap(),
        word_eq(1, 2)
            .and(word_eq(7, 0))
            .and(word_eq(8, 35))
            .compile(10)
            .unwrap(),
        // Contradictory; AND-joined; mixed COR/CAND; a word read and
        // dropped.
        Assembler::new(10)
            .pushword(0)
            .pushlit_op(BinaryOp::Cand, 1)
            .pushword(0)
            .pushlit_op(BinaryOp::Eq, 2)
            .finish(),
        Assembler::new(10)
            .pushword(1)
            .pushlit_op(BinaryOp::Eq, 2)
            .pushword(8)
            .pushlit_op(BinaryOp::Eq, 35)
            .op(BinaryOp::And)
            .finish(),
        Assembler::new(10)
            .pushword(0)
            .pushlit_op(BinaryOp::Cand, 7)
            .pushword(1)
            .pushlit_op(BinaryOp::Cor, 9)
            .pushword(2)
            .pushlit_op(BinaryOp::Eq, 3)
            .finish(),
        Assembler::new(0)
            .pushword(4)
            .pushword(10)
            .pushone()
            .finish(),
    ]
}
