// Structured fuzzing for the hostile-input surfaces: the word decoder,
// the validator, all five execution engines, and the geometric
// classifier's insert/remove churn. Like `tests/differential.rs` these
// are hermetic seeded loops: all randomness comes from the in-tree
// `pf_sim::rng::SplitMix64`, so a failure reproduces from the constant
// seed. Each target runs 1,000 seeded iterations under the debug profile
// and 10,000 under `cargo test --release`.

use pf_filter::interp::CheckedInterpreter;
use pf_filter::packet::PacketView;
use pf_filter::program::FilterProgram;
use pf_filter::samples;
use pf_filter::validate::ValidatedProgram;
use pf_filter::word::{BinaryOp, Instr, StackAction};
use pf_filter::RuntimeError;
use pf_ir::engine::singleton_engines;
use pf_ir::GeomSet;
use pf_sim::rng::SplitMix64;
use soup::{fuzz_balanced_words, fuzz_words};

#[path = "../../pf-filter/tests/support/soup.rs"]
mod soup;

const ITERS: u32 = if cfg!(debug_assertions) {
    1_000
} else {
    10_000
};

/// Hostile packet shapes: empty, single-byte, odd-length, and full
/// frames of pure noise.
fn fuzz_packet(rng: &mut SplitMix64) -> Vec<u8> {
    let len = match rng.below(10) {
        0 => 0,
        1 => 1,
        2 => 3,
        3..=5 => rng.below(24) as usize,
        _ => rng.below(160) as usize,
    };
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

/// Target 1 — decoder totality: `Instr::decode` (and the action/op
/// decoders under it) must accept every possible `u16` without panicking,
/// and every decodable word must survive a decode -> encode -> decode
/// round trip unchanged.
#[test]
fn fuzz_decoder_total_and_roundtrip() {
    // Totality is small enough to prove exhaustively, not just sample.
    for word in 0..=u16::MAX {
        let instr = Instr::decode(word);
        let action = StackAction::decode(word & pf_filter::word::STACK_ACTION_MASK);
        let op = BinaryOp::decode(word >> pf_filter::word::STACK_ACTION_BITS);
        if let Some(i) = instr {
            assert_eq!(i.encode(), word, "roundtrip changed {word:#06x}");
        }
        // A word decodes as an instruction exactly when both of its
        // fields decode.
        assert_eq!(
            instr.is_some(),
            action.is_some() && op.is_some(),
            "{word:#06x}"
        );
        if let Some(a) = action {
            assert_eq!(StackAction::decode(a.encode()), Some(a), "{word:#06x}");
        }
        if let Some(o) = op {
            assert_eq!(BinaryOp::decode(o.encode()), Some(o), "{word:#06x}");
        }
    }
    // And the sampled constructed instructions must encode into their own
    // decode image.
    let mut rng = SplitMix64::new(0xF022_DEC0);
    for case in 0..ITERS {
        let words = fuzz_words(&mut rng);
        for &w in &words {
            if let Some(i) = Instr::decode(w) {
                assert_eq!(Instr::decode(i.encode()), Some(i), "case {case}");
            }
        }
    }
}

/// Target 2 — validator totality and safety: `ValidatedProgram` must
/// reach a verdict on arbitrary word soup without panicking; and when it
/// says Ok, the fast interpreter must execute the program against hostile
/// packets without panicking, agree with the checked interpreter, and hit
/// no fault the validator exists to rule out.
#[test]
fn fuzz_validator_verdicts_are_total_and_accepts_are_safe() {
    let mut rng = SplitMix64::new(0xF022_7A11);
    let checked = CheckedInterpreter;
    let mut accepted = 0u32;
    for case in 0..ITERS {
        // Half raw soup (reject-path totality), half balanced (accepted
        // programs whose execution must then be safe).
        let words = if case % 2 == 0 {
            fuzz_words(&mut rng)
        } else {
            fuzz_balanced_words(&mut rng)
        };
        let prio = rng.next_u64() as u8;
        let packets: [Vec<u8>; 2] = [fuzz_packet(&mut rng), fuzz_packet(&mut rng)];
        let prog = FilterProgram::from_words(prio, words);
        let Ok(validated) = ValidatedProgram::new(prog.clone()) else {
            continue;
        };
        accepted += 1;
        for pkt in &packets {
            let view = PacketView::new(pkt);
            let (verdict, stats) = checked.eval_with_stats(&prog, view);
            assert_eq!(validated.eval(view), verdict, "case {case}");
            // Validation is sound: what it accepts can still fault on the
            // packet's length or on a zero divisor, never on the stack or
            // the decoder.
            assert!(
                matches!(
                    stats.error,
                    None | Some(
                        RuntimeError::OutOfPacket { .. } | RuntimeError::DivideByZero { .. }
                    )
                ),
                "case {case}: {:?} after validation",
                stats.error
            );
        }
    }
    assert!(accepted > ITERS / 5, "only {accepted} programs validated");
}

/// Target 3 — engine differential: on arbitrary (program, packet) pairs
/// every execution surface `singleton_engines` yields — five for a valid
/// program — must agree with the checked interpreter bit for bit. Zero
/// disagreements over `ITERS` pairs.
#[test]
fn fuzz_engines_agree_with_checked_interpreter() {
    let mut rng = SplitMix64::new(0xF022_E46E);
    let checked = CheckedInterpreter;
    let mut surfaces_run = 0u64;
    for case in 0..ITERS {
        let words = if case % 2 == 0 {
            fuzz_words(&mut rng)
        } else {
            fuzz_balanced_words(&mut rng)
        };
        let pkt = fuzz_packet(&mut rng);
        let prog = FilterProgram::from_words(10, words);
        let expect = checked.eval(&prog, PacketView::new(&pkt)).then_some(0);
        for engine in &mut singleton_engines(&prog) {
            assert_eq!(
                engine.matches(&pkt),
                expect,
                "{} vs checked: case {case}",
                engine.name()
            );
            surfaces_run += 1;
        }
    }
    // Every case runs at least the interpreter surfaces; validating
    // programs add the compiled ones.
    assert!(surfaces_run > u64::from(ITERS), "{surfaces_run} surfaces");
}

/// Target 4 — geometric classifier churn: a seeded insert/remove/eval
/// interleaving (mixed exact and range filters, including nested and
/// mutually shadowing ranges) must keep `GeomSet` equivalent to a
/// priority-ordered sequential walk, through tombstone accumulation and
/// compaction; and turning the candidate cap on must only ever shed
/// matches, never invent them.
#[test]
fn fuzz_geom_churn_agrees_with_sequential_walk() {
    let mut rng = SplitMix64::new(0xF022_6E03);
    let checked = CheckedInterpreter;
    let mut geom = GeomSet::new();
    let mut capped = GeomSet::new();
    capped.set_candidate_cap(Some(3));
    // Live reference population (scrambled by swap_remove).
    let mut live: Vec<(u32, FilterProgram)> = Vec::new();
    let mut next_id = 0u32;
    for case in 0..ITERS {
        // Churn step: grow toward ~48 live filters, then hover.
        let grow = live.len() < 8 || (live.len() < 48 && rng.chance(0.55));
        if grow {
            let prio = rng.below(32) as u8;
            let f = match rng.below(4) {
                0 => samples::pup_socket_filter(prio, 0, 4000 + rng.below(64) as u16),
                1 => samples::ethertype_filter(prio, rng.below(8) as u16),
                _ => {
                    // Ranges that nest, overlap, and duplicate endpoints.
                    let lo = 4000 + rng.below(48) as u16;
                    let hi = lo + rng.below(48) as u16;
                    samples::socket_range_filter(prio, lo, hi)
                }
            };
            geom.insert(next_id, f.clone());
            capped.insert(next_id, f.clone());
            live.push((next_id, f));
            next_id += 1;
        } else {
            let victim = rng.below(live.len() as u64) as usize;
            let (id, _) = live.swap_remove(victim);
            assert!(geom.remove(id), "case {case}: live id {id} not in set");
            assert!(capped.remove(id), "case {case}: live id {id} not capped");
        }
        // Eval step: a packet aimed into the populated socket band, or
        // hostile noise.
        let pkt = if rng.chance(0.8) {
            samples::pup_packet_3mb(rng.below(8) as u16, 0, 3990 + rng.below(120) as u16, 1)
        } else {
            fuzz_packet(&mut rng)
        };
        let view = PacketView::new(&pkt);
        // Match order is priority descending, then id.
        let mut order: Vec<usize> = (0..live.len()).collect();
        order.sort_by_key(|&i| (std::cmp::Reverse(live[i].1.priority()), live[i].0));
        let expect: Vec<u32> = order
            .iter()
            .filter(|&&i| checked.eval(&live[i].1, view))
            .map(|&i| live[i].0)
            .collect();
        assert_eq!(geom.matches(view), expect, "case {case}");
        // The cap prunes *candidates* (which include non-matching
        // filters), so it may legitimately shed any match — the invariant
        // is that the survivors are an order-preserving subsequence of
        // the uncapped result, never an invention or a reorder.
        let shed = capped.matches(view);
        let mut tail = expect.iter();
        assert!(
            shed.iter().all(|id| tail.any(|e| e == id)),
            "case {case}: capped result is not a subsequence of uncapped"
        );
    }
    assert!(
        geom.compaction_count() > 0,
        "churn never reached a compaction"
    );
    assert!(
        capped.candidates_capped() > 0,
        "cap never actually pruned a candidate"
    );
}
