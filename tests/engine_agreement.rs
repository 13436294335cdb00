//! One oracle: the checked interpreter is the specification of the filter
//! language, and everything else that evaluates a filter must answer as
//! it does. This is the fast, tier-1 copy of the conformance pins that
//! live behind `--workspace` and the fuzz lanes: every execution surface
//! [`singleton_engines`] yields, and a [`PfDevice`] under each kernel
//! engine, over the `samples` corpus and 2,000 seeded frames — whole,
//! bit-flipped, truncated and random — with zero disagreements.

use packet_filter::filter::interp::{CheckedInterpreter, InterpConfig};
use packet_filter::filter::packet::PacketView;
use packet_filter::filter::program::{Assembler, FilterProgram};
use packet_filter::filter::samples;
use packet_filter::filter::word::BinaryOp;
use packet_filter::kernel::types::{Fd, ProcId};
use packet_filter::sim::rng::SplitMix64;
use packet_filter::{singleton_engines, singleton_surface_count, DemuxEngine, PfDevice};

const FRAMES: usize = 2_000;

/// The sample filters, plus one the validator rejects: its `COR` accepts
/// frames for station 1 from station 2 before the reserved opcode behind
/// it is ever decoded, so even the surfaces that only fall back must
/// accept those frames.
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
        FilterProgram::from_words(15, rejected),
    ]
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
    let checked = CheckedInterpreter::default();
    let frames = frames(0xA9EE_0001);
    let mut verdicts = 0u64;
    let corpus = corpus();
    for (pi, program) in corpus.iter().enumerate() {
        let mut engines = singleton_engines(program, InterpConfig::default());
        // All but the last validate and get every surface.
        if pi + 1 < corpus.len() {
            assert_eq!(
                engines.len(),
                singleton_surface_count(InterpConfig::default()),
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
}

#[test]
fn a_device_under_every_kernel_engine_agrees_with_the_checked_interpreter() {
    let checked = CheckedInterpreter::default();
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
