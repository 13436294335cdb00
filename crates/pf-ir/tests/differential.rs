//! Deterministic differential verification: every execution surface in
//! the workspace — checked interpreter, the same loop with its checks
//! hoisted to bind time, the decision-table set, the IR threaded-code
//! engine and the geometric range classifier — must be observationally
//! identical.
//! The surfaces come from [`pf_ir::engine::singleton_engines`], so a new
//! engine is pinned here by registering one [`pf_ir::FilterEngine`] impl.
//!
//! Programs and packets come from the workspace's own
//! [`pf_sim::rng::SplitMix64`], so every case is reproducible from its
//! test's constant seed.

use pf_filter::builder::Expr;
use pf_filter::dtree::FilterSet;
use pf_filter::interp::CheckedInterpreter;
use pf_filter::packet::PacketView;
use pf_filter::program::{Assembler, DisasmItem, FilterProgram};
use pf_filter::samples;
use pf_filter::validate::ValidatedProgram;
use pf_filter::word::{BinaryOp, Instr, StackAction};
use pf_ir::engine::{singleton_engines, singleton_surface_count};
use pf_ir::{GeomSet, IrFilter};
use pf_sim::rng::SplitMix64;

const ACTIONS: [StackAction; 8] = [
    StackAction::NoPush,
    StackAction::PushLit,
    StackAction::PushZero,
    StackAction::PushOne,
    StackAction::PushFFFF,
    StackAction::PushFF00,
    StackAction::Push00FF,
    StackAction::PushInd,
];

const OPS: [BinaryOp; 21] = [
    BinaryOp::Nop,
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
    BinaryOp::Add,
    BinaryOp::Sub,
    BinaryOp::Mul,
    BinaryOp::Div,
    BinaryOp::Mod,
    BinaryOp::Lsh,
    BinaryOp::Rsh,
];

/// Random program words: mostly well-formed instructions (so a useful
/// fraction validates), some raw garbage.
fn random_words(rng: &mut SplitMix64) -> Vec<u16> {
    let len = rng.below(40) as usize;
    (0..len)
        .map(|_| {
            if rng.chance(0.15) {
                rng.next_u64() as u16 // literal or garbage
            } else {
                let action = if rng.chance(0.25) {
                    StackAction::PushWord(rng.below(48) as u8)
                } else {
                    ACTIONS[rng.below(ACTIONS.len() as u64) as usize]
                };
                let op = OPS[rng.below(OPS.len() as u64) as usize];
                Instr::new(action, op).encode()
            }
        })
        .collect()
}

/// Random *stack-balanced* program: depth is tracked so pops never
/// underflow, which makes most outputs validate and gives the compiled
/// engines real work. The paper's figure 3-6 operators dominate;
/// short-circuit and §7 operators are mixed in.
fn random_balanced_words(rng: &mut SplitMix64) -> Vec<u16> {
    let n = 1 + rng.below(14);
    let mut depth = 0u64;
    let mut words = Vec::new();
    for _ in 0..n {
        let action = if depth == 0 || rng.chance(0.6) {
            match rng.below(6) {
                0 => StackAction::PushLit,
                1 => StackAction::PushZero,
                2 => StackAction::PushOne,
                3 => StackAction::PushFFFF,
                _ => StackAction::PushWord(rng.below(10) as u8),
            }
        } else {
            StackAction::NoPush
        };
        let mut d = depth + u64::from(action != StackAction::NoPush);
        let op = if d >= 2 && rng.chance(0.7) {
            d -= 1;
            let r = rng.next_f64();
            if r < 0.70 {
                const CLASSIC: [BinaryOp; 9] = [
                    BinaryOp::Eq,
                    BinaryOp::Neq,
                    BinaryOp::Lt,
                    BinaryOp::Le,
                    BinaryOp::Gt,
                    BinaryOp::Ge,
                    BinaryOp::And,
                    BinaryOp::Or,
                    BinaryOp::Xor,
                ];
                CLASSIC[rng.below(9) as usize]
            } else if r < 0.90 {
                const SC: [BinaryOp; 4] = [
                    BinaryOp::Cor,
                    BinaryOp::Cand,
                    BinaryOp::Cnor,
                    BinaryOp::Cnand,
                ];
                SC[rng.below(4) as usize]
            } else {
                const EXT: [BinaryOp; 7] = [
                    BinaryOp::Add,
                    BinaryOp::Sub,
                    BinaryOp::Mul,
                    BinaryOp::Div,
                    BinaryOp::Mod,
                    BinaryOp::Lsh,
                    BinaryOp::Rsh,
                ];
                EXT[rng.below(7) as usize]
            }
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

fn random_packet(rng: &mut SplitMix64) -> Vec<u8> {
    // Bias short so the fallback path is exercised, but cover full frames.
    let len = if rng.chance(0.3) {
        rng.below(24) as usize
    } else {
        rng.below(128) as usize
    };
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

/// The core pin: for every seeded (program, packet) pair, every execution
/// surface [`singleton_engines`] yields — five for a valid program — agrees
/// with the checked interpreter.
#[test]
fn all_engines_agree_on_seeded_pairs() {
    let mut rng = SplitMix64::new(0x5eed_0087);
    let (mut validated_cases, mut section_7_cases) = (0u32, 0u32);
    for case in 0..600 {
        // Half balanced (mostly validating), half unconstrained soup
        // (mostly exercising the must-also-reject path).
        let words = if case % 2 == 0 {
            random_balanced_words(&mut rng)
        } else {
            random_words(&mut rng)
        };
        let packets: Vec<Vec<u8>> = (0..3).map(|_| random_packet(&mut rng)).collect();
        let prog = FilterProgram::from_words(10, words);
        let valid = ValidatedProgram::new(prog.clone()).is_ok();
        if valid {
            validated_cases += 1;
            section_7_cases += u32::from(
                prog.disassemble()
                    .iter()
                    .any(|i| matches!(i, DisasmItem::Instr(x) if x.is_extended())),
            );
        } else {
            // The compiled surfaces must reject exactly the programs
            // validation rejects.
            assert!(
                IrFilter::compile(prog.clone()).is_err(),
                "case {case}: IR compiled a program validation rejects"
            );
        }
        let mut engines = singleton_engines(&prog);
        if valid {
            assert_eq!(
                engines.len(),
                singleton_surface_count(),
                "case {case}: missing surface"
            );
        }
        let checked = CheckedInterpreter;
        for (pi, pkt) in packets.iter().enumerate() {
            let expect = checked.eval(&prog, PacketView::new(pkt)).then_some(0);
            for engine in &mut engines {
                assert_eq!(
                    engine.matches(pkt),
                    expect,
                    "{} vs checked: case {case} packet {pi}",
                    engine.name()
                );
            }
        }
    }
    // The generator must actually exercise the compiled paths, §7
    // opcodes included.
    assert!(
        validated_cases > 200,
        "only {validated_cases} validated cases"
    );
    assert!(
        section_7_cases > 40,
        "only {section_7_cases} validated cases use a §7 opcode"
    );
}

/// Set-level pin: the geometric set and the decision-table set agree with
/// a sequential priority-ordered walk of the checked interpreter over
/// mixed filter populations — socket and ethertype equalities,
/// builder-compiled COR chains, figure 3-8's range — including programs
/// that fail validation.
#[test]
fn set_engines_agree_on_seeded_populations() {
    let mut rng = SplitMix64::new(0xdeca_f00d);
    let checked = CheckedInterpreter;
    for case in 0..150 {
        // A population of well-known shapes plus random programs.
        let mut filters: Vec<(u32, FilterProgram)> = Vec::new();
        let mut id = 0u32;
        for _ in 0..rng.below(4) {
            let prio = rng.below(30) as u8;
            let sock = 30 + rng.below(8) as u16;
            filters.push((id, samples::pup_socket_filter(prio, 0, sock)));
            id += 1;
        }
        for _ in 0..rng.below(3) {
            let prio = rng.below(30) as u8;
            let et = rng.below(6) as u16;
            filters.push((id, samples::ethertype_filter(prio, et)));
            id += 1;
        }
        for _ in 0..rng.below(3) {
            // A COR chain: ethertype in a set of one to three.
            let mut e = Expr::word(1).eq(rng.below(6) as u16);
            for _ in 0..rng.below(3) {
                e = e.or(Expr::word(1).eq(rng.below(6) as u16));
            }
            let prio = rng.below(30) as u8;
            filters.push((id, e.compile(prio).expect("compiles")));
            id += 1;
        }
        for _ in 0..rng.below(3) {
            filters.push((id, FilterProgram::from_words(7, random_words(&mut rng))));
            id += 1;
        }
        if rng.chance(0.5) {
            filters.push((id, samples::fig_3_8_pup_type_range()));
        }
        let mut geom = GeomSet::new();
        let mut table = FilterSet::new();
        for (fid, f) in &filters {
            geom.insert(*fid, f.clone());
            table.insert(*fid, f.clone());
        }
        for pi in 0..4 {
            let pkt = if rng.chance(0.7) {
                let et = rng.below(6) as u16;
                let sock = 28 + rng.below(12) as u16;
                samples::pup_packet_3mb(et, 0, sock, rng.below(120) as u8)
            } else {
                random_packet(&mut rng)
            };
            let view = PacketView::new(&pkt);
            // Reference: priority-descending, insertion-stable walk.
            let mut order: Vec<usize> = (0..filters.len()).collect();
            order.sort_by_key(|&i| std::cmp::Reverse(filters[i].1.priority()));
            let expect: Vec<u32> = order
                .iter()
                .filter(|&&i| checked.eval(&filters[i].1, view))
                .map(|&i| filters[i].0)
                .collect();
            let ctx = format!("case {case} packet {pi}");
            assert_eq!(geom.matches(view), expect, "geom vs sequential: {ctx}");
            assert_eq!(table.matches(view), expect, "table vs sequential: {ctx}");
        }
    }
}

/// A figure-3-8-style *range* program with everything randomized: one to
/// three `lo <= packet[w] <= hi` constraints, each ordering compare feeding
/// a `CNOR 0` (reject at once when false), closed by an equality guard —
/// the shape `samples::socket_range_filter` pins down. Beside it, a
/// `(word, value)` list that satisfies it unless two constraints on one
/// word disagree.
fn random_range_program(rng: &mut SplitMix64) -> (FilterProgram, Vec<(u8, u16)>) {
    let mut a = Assembler::new(rng.below(30) as u8);
    let mut witness = Vec::new();
    for _ in 0..1 + rng.below(3) {
        let w = rng.below(10) as u8;
        let (x, y) = (rng.next_u64() as u16, rng.next_u64() as u16);
        let (lo, hi) = (x.min(y), x.max(y));
        a = a
            .pushword(w)
            .pushlit_op(BinaryOp::Ge, lo)
            .pushzero_op(BinaryOp::Cnor)
            .pushword(w)
            .pushlit_op(BinaryOp::Le, hi)
            .pushzero_op(BinaryOp::Cnor);
        witness.push((w, if rng.chance(0.5) { lo } else { hi }));
    }
    let (w, lit) = (rng.below(10) as u8, rng.next_u64() as u16);
    witness.push((w, lit));
    (
        a.pushword(w).pushlit_op(BinaryOp::Eq, lit).finish(),
        witness,
    )
}

/// The validator accepts the range-program shape, and the checked
/// interpreter, the threaded code and the geometric classifier agree on
/// populations of it — on packets written to satisfy a member, on noise,
/// and on short ones that force the classifier's fallback.
#[test]
fn geom_agrees_on_random_range_programs() {
    let mut rng = SplitMix64::new(0x4a46_e000);
    let checked = CheckedInterpreter;
    let mut matched = 0u32;
    for case in 0..200 {
        let (members, witnesses): (Vec<_>, Vec<_>) = (0..1 + rng.below(5))
            .map(|_| random_range_program(&mut rng))
            .unzip();
        // Noise almost never passes a 16-bit equality guard, so every other
        // packet carries one member's witness.
        let packets: Vec<Vec<u8>> = (0..6)
            .map(|n| {
                let mut pkt = random_packet(&mut rng);
                if n % 2 == 0 {
                    pkt.resize(20, 0);
                    for &(w, value) in &witnesses[rng.below(members.len() as u64) as usize] {
                        pkt[2 * usize::from(w)..][..2].copy_from_slice(&value.to_be_bytes());
                    }
                }
                pkt
            })
            .collect();
        let mut set = GeomSet::new();
        for (i, f) in members.iter().enumerate() {
            assert!(ValidatedProgram::new(f.clone()).is_ok(), "case {case}");
            let ir = IrFilter::compile(f.clone()).expect("validated, so compiles");
            set.insert(i as u32, f.clone());
            for p in &packets {
                let view = PacketView::new(p);
                assert_eq!(ir.eval(view), checked.eval(f, view), "case {case}: ir");
            }
        }
        let mut order: Vec<usize> = (0..members.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(members[i].priority()));
        for p in &packets {
            let view = PacketView::new(p);
            let expect: Vec<u32> = order
                .iter()
                .filter(|&&i| checked.eval(&members[i], view))
                .map(|&i| i as u32)
                .collect();
            matched += expect.len() as u32;
            assert_eq!(set.matches(view), expect, "case {case}: geom");
        }
    }
    assert!(matched > 300, "only {matched} matches: the packets miss");
}

/// Six word equalities in the figure 3-9 idiom: more exact atoms than
/// one directory key packs, so the ethertype stays out of the key and
/// same-socket members of different protocols share a bucket.
fn wide_exact_filter(priority: u8, ethertype: u16, socket: u16) -> FilterProgram {
    Assembler::new(priority)
        .pushword(8)
        .pushlit_op(BinaryOp::Cand, socket)
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
        .finish()
}

/// A socket-range filter under any Ethernet type: the range and the type
/// are both required, so either word can key it.
fn typed_range_filter(priority: u8, ethertype: u16, lo: u16, hi: u16) -> FilterProgram {
    Assembler::new(priority)
        .pushword(8)
        .pushlit_op(BinaryOp::Ge, lo)
        .pushzero_op(BinaryOp::Cnor)
        .pushword(8)
        .pushlit_op(BinaryOp::Le, hi)
        .pushzero_op(BinaryOp::Cnor)
        .pushword(1)
        .pushlit_op(BinaryOp::Eq, ethertype)
        .finish()
}

/// `set` answers `view` as a priority-ordered walk of the checked
/// interpreter over `live` does, and its `ops_executed` is the sum of
/// its candidates' whole evaluations — threaded code for a member that
/// compiles, the checked interpreter's count for one that does not —
/// however few of their tests the index left it to run.
fn assert_geom_answers(
    set: &mut GeomSet,
    live: &[(u32, FilterProgram)],
    view: PacketView<'_>,
    ctx: &str,
) -> Vec<u32> {
    let checked = CheckedInterpreter;
    let mut order: Vec<usize> = (0..live.len()).collect();
    order.sort_by_key(|&j| std::cmp::Reverse(live[j].1.priority()));
    let expect: Vec<u32> = order
        .into_iter()
        .filter(|&j| checked.eval(&live[j].1, view))
        .map(|j| live[j].0)
        .collect();
    let ops: u32 = set
        .candidates(view)
        .iter()
        .map(|id| {
            let (_, f) = live.iter().find(|(fid, _)| fid == id).expect("live");
            match IrFilter::compile(f.clone()) {
                Ok(ir) => ir.eval_with_stats(view).1.ops_executed,
                Err(_) => checked.eval_with_stats(f, view).1.instructions,
            }
        })
        .sum();
    let (ids, stats) = set.matches_with_stats(view);
    assert_eq!(ids, expect, "{ctx}: vs checked");
    assert_eq!(stats.ops_executed, ops, "{ctx}: ops vs whole evaluations");
    expect
}

/// Seeded churn for the geometric classifier: a population mixing exact,
/// range, wider-than-one-key exact and unvalidatable members under
/// inserts, rebinds of a live id, removals (tombstones), and the
/// compactions they trigger stays equivalent to a sequential walk of
/// the checked interpreter and to a from-scratch rebuild, op count
/// included. Directory buckets and interval-tree nodes are where a stale
/// tombstone or a mis-filed key would surface; a member re-keyed by a
/// compaction is where a test list trimmed for its old slot would.
#[test]
fn geom_set_survives_churn() {
    let mut rng = SplitMix64::new(0x9e0_37a7e);
    let mut live: Vec<(u32, FilterProgram)> = Vec::new();
    let mut set = GeomSet::new();
    let mut rebinds = 0u32;
    for step in 0..200u64 {
        if !live.is_empty() && rng.chance(0.4) {
            let at = rng.below(live.len() as u64) as usize;
            let (fid, _) = live.remove(at);
            assert!(set.remove(fid));
        } else {
            // One insert in four rebinds a live id, which moves it to the
            // back of its new priority class.
            let fid = if !live.is_empty() && rng.chance(0.25) {
                rebinds += 1;
                live.remove(rng.below(live.len() as u64) as usize).0
            } else {
                step as u32
            };
            let f = match rng.below(5) {
                0 => {
                    let lo = 20 + rng.below(30) as u16;
                    samples::socket_range_filter(rng.below(30) as u8, lo, lo + rng.below(20) as u16)
                }
                1 => samples::pup_socket_filter(rng.below(30) as u8, 0, 20 + rng.below(40) as u16),
                2 => samples::ethertype_filter(rng.below(30) as u8, rng.below(6) as u16),
                3 => wide_exact_filter(
                    rng.below(30) as u8,
                    rng.below(6) as u16,
                    20 + rng.below(40) as u16,
                ),
                _ => FilterProgram::from_words(7, random_words(&mut rng)),
            };
            set.insert(fid, f.clone());
            live.push((fid, f));
        }
        assert_eq!(set.len(), live.len(), "step {step}");
        if step % 20 != 0 {
            continue;
        }
        let mut fresh = GeomSet::new();
        for (fid, f) in &live {
            fresh.insert(*fid, f.clone());
        }
        // The residue is history-free; the tuple count is not (a key is
        // chosen against the statistics of its day and kept until the
        // next compaction), so only the former is held to the rebuild.
        assert_eq!(set.residue_len(), fresh.residue_len(), "step {step}");
        let batch: Vec<Vec<u8>> = (0..8)
            .map(|_| {
                samples::pup_packet_3mb(
                    rng.below(6) as u16,
                    0,
                    20 + rng.below(44) as u16,
                    rng.below(120) as u8,
                )
            })
            .collect();
        let views: Vec<PacketView<'_>> = batch.iter().map(|p| PacketView::new(p)).collect();
        for (i, view) in views.iter().enumerate() {
            let ctx = format!("step {step} pkt {i}");
            let expect = assert_geom_answers(&mut set, &live, *view, &ctx);
            let stats = set.matches_with_stats(*view).1;
            assert_eq!(fresh.matches(*view), expect, "{ctx}: fresh");
            assert!(
                stats.filters_evaluated as usize + stats.filters_skipped as usize >= expect.len(),
                "step {step} pkt {i}: stats account for every match"
            );
        }
    }
    // Churn with a 40% removal rate must actually have exercised the
    // tombstone path, at least one compaction, and the rebind path.
    assert!(set.compaction_count() > 0, "compaction never fired");
    assert!(rebinds > 10, "only {rebinds} rebinds");

    // A key that drifts across a compaction. Sixteen ranges over one
    // socket window under sixteen Ethernet types key on the type word, so
    // each sits in a directory bucket and is left its range test. Forty
    // distinct ranges under one type then make the socket word the more
    // diverse; removals force a compaction, and the four survivors of the
    // first group are re-keyed into the socket word's range tree, where
    // only their type test tells them apart. Kept from the old slot, their
    // range tests would accept a stray type.
    let mut set = GeomSet::new();
    let mut live: Vec<(u32, FilterProgram)> = Vec::new();
    for i in 0..16u16 {
        let f = typed_range_filter(10, 100 + i, 20, 40);
        set.insert(u32::from(i), f.clone());
        live.push((u32::from(i), f));
    }
    for i in 0..40u16 {
        let f = typed_range_filter(10, 100, 20 + 2 * i, 25 + 2 * i);
        set.insert(u32::from(100 + i), f.clone());
        live.push((u32::from(100 + i), f));
    }
    assert_eq!(set.tuple_count(), 2, "type directory and socket ranges");
    let probes = |live: &[(u32, FilterProgram)]| -> Vec<Vec<u8>> {
        let mut types: Vec<u16> = vec![7, 100, 131];
        types.extend(
            live.iter()
                .map(|(id, _)| 100 + *id as u16)
                .filter(|&t| t < 116),
        );
        types
            .iter()
            .flat_map(|&t| {
                (15..110)
                    .step_by(3)
                    .map(move |s| samples::pup_packet_3mb(t, 0, s, 1))
            })
            .collect()
    };
    let mut compactions = set.compaction_count();
    for (i, p) in probes(&live).iter().enumerate() {
        assert_geom_answers(
            &mut set,
            &live,
            PacketView::new(p),
            &format!("drift, before, pkt {i}"),
        );
    }
    while set.compaction_count() == compactions {
        // The first group down to ids 12..16, then the second from the back.
        let at = live
            .iter()
            .position(|(id, _)| *id < 12)
            .unwrap_or(live.len() - 1);
        let (id, _) = live.remove(at);
        assert!(set.remove(id));
    }
    compactions = set.compaction_count();
    assert_eq!(set.tuple_count(), 1, "everyone re-keyed on the socket word");
    let mut accepted = 0;
    for (i, p) in probes(&live).iter().enumerate() {
        let ids = assert_geom_answers(
            &mut set,
            &live,
            PacketView::new(p),
            &format!("drift, after, pkt {i}"),
        );
        accepted += ids.iter().filter(|&&id| id < 16).count();
    }
    assert!(accepted > 0, "no survivor of the first group ever matched");
    assert_eq!(set.compaction_count(), compactions);
}

/// Chaos differential: damaged packets — seeded single-bit corruptions
/// and *every* truncation prefix — get one verdict from every engine.
/// A filter's view of a short or bit-flipped packet exercises exactly
/// the out-of-range-word fallback paths the engines implement
/// separately, so this is where a divergence would hide.
#[test]
fn engines_agree_on_corrupted_and_truncated_packets() {
    let mut rng = SplitMix64::new(0xbadc_0de5);
    let checked = CheckedInterpreter;
    for case in 0..120 {
        let words = if case % 2 == 0 {
            random_balanced_words(&mut rng)
        } else {
            random_words(&mut rng)
        };
        let prog = FilterProgram::from_words(10, words);
        let mut engines = singleton_engines(&prog);

        let base = samples::pup_packet_3mb(
            rng.below(6) as u16,
            rng.below(2) as u16,
            30 + rng.below(12) as u16,
            rng.below(120) as u8,
        );
        // Four independent single-bit corruptions, then every prefix
        // (including the empty packet).
        let mut damaged: Vec<Vec<u8>> = (0..4)
            .map(|_| {
                let mut m = base.clone();
                let at = rng.below(m.len() as u64) as usize;
                m[at] ^= 1u8 << rng.below(8);
                m
            })
            .collect();
        damaged.extend((0..=base.len()).map(|k| base[..k].to_vec()));

        for (pi, pkt) in damaged.iter().enumerate() {
            let expect = checked.eval(&prog, PacketView::new(pkt)).then_some(0);
            for engine in &mut engines {
                assert_eq!(
                    engine.matches(pkt),
                    expect,
                    "{} vs checked: case {case} damaged packet {pi} ({} bytes)",
                    engine.name(),
                    pkt.len()
                );
            }
        }
    }
}
