//! One oracle: the checked interpreter is the specification of the filter
//! language, and everything else that evaluates a filter must answer as
//! it does. This is the fast, tier-1 copy of the conformance pins that
//! live behind `--workspace` and the fuzz lanes: every execution surface
//! [`singleton_engines`] yields, and a [`PfDevice`] under each kernel
//! engine, over the `samples` corpus, a filter built with the §7
//! extensions and 2,000 seeded frames — whole,
//! bit-flipped, truncated and random — with zero disagreements; and
//! every surface over the operator table, against `BinaryOp::apply`.

use packet_filter::filter::builder::{ArithOp, Expr};
use packet_filter::filter::interp::CheckedInterpreter;
use packet_filter::filter::packet::PacketView;
use packet_filter::filter::program::{Assembler, FilterProgram};
use packet_filter::filter::samples;
use packet_filter::filter::word::BinaryOp;
use packet_filter::kernel::types::{Fd, ProcId};
use packet_filter::sim::rng::SplitMix64;
use packet_filter::{singleton_engines, singleton_surface_count, DemuxEngine, PfDevice};

const FRAMES: usize = 2_000;

/// The sample filters, one that uses the §7 extensions, and one the
/// validator rejects: its `COR` accepts frames for station 1 from station
/// 2 before the reserved opcode behind it is ever decoded, so even the
/// surfaces that only fall back must accept those frames.
fn corpus() -> Vec<FilterProgram> {
    let mut rejected = Assembler::new(15)
        .pushword(0)
        .pushlit_op(BinaryOp::Cor, 0x0102)
        .finish()
        .words()
        .to_vec();
    rejected.push(15 << 6);
    vec![
        samples::fig_3_8_pup_type_range(),
        samples::fig_3_9_pup_socket_35(),
        samples::pup_socket_filter(10, 0, 44),
        samples::socket_range_filter(10, 30, 40),
        samples::ethertype_filter(9, samples::PUP_ETHERTYPE_3MB),
        samples::accept_all(1),
        samples::reject_all(30),
        samples::padded_accept_filter(5, 12),
        section_7_filter(),
        FilterProgram::from_words(15, rejected),
    ]
}

/// A Pup frame (ethertype 2) whose low socket word is 30–37, found by
/// §7 means: `PUSHIND` fetches word `ethertype + 6`, and `SUB` turns the
/// range test into one unsigned compare.
fn section_7_filter() -> FilterProgram {
    let socket_lo = Expr::word_at(Expr::word(1).arith(ArithOp::Add, 6));
    Expr::word(1)
        .eq(samples::PUP_ETHERTYPE_3MB)
        .and(socket_lo.arith(ArithOp::Sub, 30).lt(8))
        .compile(12)
        .expect("the §7 filter compiles")
}

/// Pup frames around the corpus's sockets and types; one in eight cut to a
/// random prefix (down to empty), one in eight with one bit flipped, one in
/// eight random bytes.
fn frames(seed: u64) -> Vec<Vec<u8>> {
    let mut rng = SplitMix64::new(seed);
    (0..FRAMES)
        .map(|i| {
            if i % 8 == 7 {
                return (0..rng.below(64)).map(|_| rng.next_u64() as u8).collect();
            }
            let mut frame = samples::pup_packet_3mb(
                rng.below(4) as u16,
                rng.below(2) as u16,
                28 + rng.below(20) as u16,
                rng.below(120) as u8,
            );
            match i % 8 {
                3 => frame.truncate(rng.below(frame.len() as u64 + 1) as usize),
                5 => {
                    let at = rng.below(frame.len() as u64) as usize;
                    frame[at] ^= 1 << rng.below(8);
                }
                _ => {}
            }
            frame
        })
        .collect()
}

#[test]
fn every_execution_surface_agrees_with_the_checked_interpreter() {
    let checked = CheckedInterpreter;
    let frames = frames(0xA9EE_0001);
    let mut verdicts = 0u64;
    let corpus = corpus();
    for (pi, program) in corpus.iter().enumerate() {
        let mut engines = singleton_engines(program);
        // All but the last validate and get every surface.
        if pi + 1 < corpus.len() {
            assert_eq!(
                engines.len(),
                singleton_surface_count(),
                "program {pi}: a surface is missing"
            );
        }
        for (fi, frame) in frames.iter().enumerate() {
            let expect = checked.eval(program, PacketView::new(frame)).then_some(0);
            for engine in &mut engines {
                assert_eq!(
                    engine.matches(frame),
                    expect,
                    "{} vs checked: program {pi}, frame {fi} ({} bytes)",
                    engine.name(),
                    frame.len()
                );
                verdicts += 1;
            }
        }
    }
    assert!(verdicts > 8 * 5 * FRAMES as u64, "only {verdicts} verdicts");
    // The §7 member discriminates: the oracle accepts some frames and
    // rejects others.
    let section_7 = section_7_filter();
    let accepted = frames
        .iter()
        .filter(|f| checked.eval(&section_7, PacketView::new(f)))
        .count();
    assert!(
        0 < accepted && accepted < frames.len(),
        "the §7 filter accepts {accepted} of {} frames",
        frames.len()
    );
}

#[test]
fn a_device_under_every_kernel_engine_agrees_with_the_checked_interpreter() {
    let checked = CheckedInterpreter;
    let corpus = corpus();
    // Every port passes the frame on, so `accepted` lists every acceptor
    // in match order: priority descending, then port order.
    let mut order: Vec<usize> = (0..corpus.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(corpus[i].priority()));
    let frames = frames(0xA9EE_0002);
    for engine in [
        DemuxEngine::Sequential,
        DemuxEngine::DecisionTable,
        DemuxEngine::Geom,
    ] {
        let mut dev = PfDevice::new();
        dev.set_engine(engine);
        dev.set_adaptive_reorder(false);
        for (i, program) in corpus.iter().enumerate() {
            let port = dev.open((ProcId(0), Fd(i)));
            assert_eq!(port, i);
            dev.set_filter(port, program.clone());
            dev.port_mut(port).config.deliver_to_lower = true;
        }
        for (fi, frame) in frames.iter().enumerate() {
            let view = PacketView::new(frame);
            let expect: Vec<usize> = order
                .iter()
                .copied()
                .filter(|&i| checked.eval(&corpus[i], view))
                .collect();
            assert_eq!(
                dev.demux(frame).accepted,
                expect,
                "{engine:?} vs checked: frame {fi} ({} bytes)",
                frame.len()
            );
        }
    }
}

/// The operator table, pinned on every surface: each `BinaryOp` over an
/// edge grid of operands (the sign boundary, all-ones, and the shift
/// counts either side of 16), with each operand pushed as a literal — so
/// that IR's constant folder computes the value — and as a packet word —
/// so that its threaded code computes it at run time. `T2 op T1` is compared with
/// `BinaryOp::apply`'s value by a trailing `EQ`, so a surface that
/// computes any other word, faults where `apply` does not (or the other
/// way round), or mistakes a short circuit's verdict, disagrees.
#[test]
fn every_operator_agrees_with_its_table_on_every_surface() {
    const GRID: [u16; 8] = [0, 1, 0x7FFF, 0x8000, 0xFFFF, 15, 16, 17];
    let checked = CheckedInterpreter;
    let ops: Vec<BinaryOp> = (0..1024).filter_map(BinaryOp::decode).collect();
    assert_eq!(ops.len(), 21);
    let mut faults = 0u32;
    for &op in &ops {
        for t2 in GRID {
            for t1 in GRID {
                let value = op.apply(t2, t1);
                faults += u32::from(value.is_none());
                // A fault rejects; a short circuit that terminates gives
                // its verdict; anything else reaches `EQ value`.
                let expect = match (value, op.short_circuit_rule()) {
                    (None, _) => false,
                    (Some(r), Some((when, verdict))) if (r != 0) == when => verdict,
                    (Some(_), _) => true,
                };
                let frame: Vec<u8> = [t2, t1].iter().flat_map(|w| w.to_be_bytes()).collect();
                // Each operand a literal or a packet word: both folded,
                // both loaded, and the two mixed shapes guard fusion sees.
                for (t2_word, t1_word) in
                    [(false, false), (true, true), (true, false), (false, true)]
                {
                    let a = Assembler::new(10);
                    let a = if t2_word {
                        a.pushword(0)
                    } else {
                        a.pushlit(t2)
                    };
                    let a = if t1_word {
                        a.pushword_op(1, op)
                    } else {
                        a.pushlit_op(op, t1)
                    };
                    let program = a.pushlit_op(BinaryOp::Eq, value.unwrap_or(0)).finish();
                    let case =
                        format!("{t2:#06x} {op} {t1:#06x}, packet words: {t2_word} {t1_word}");
                    let view = PacketView::new(&frame);
                    assert_eq!(checked.eval(&program, view), expect, "checked: {case}");
                    let mut engines = singleton_engines(&program);
                    assert_eq!(engines.len(), singleton_surface_count(), "{case}");
                    for engine in &mut engines {
                        assert_eq!(
                            engine.matches(&frame),
                            expect.then_some(0),
                            "{}: {case}",
                            engine.name()
                        );
                    }
                }
            }
        }
    }
    // DIV and MOD by each zero in the grid, against each dividend.
    assert_eq!(faults, 2 * GRID.len() as u32);
}
