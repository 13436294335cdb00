//! The form against the one oracle: on every sample and figure program, on
//! seeded word soup, on seeded programs of conjunction clauses (range tests
//! behind `CNOR 0` among them) and of short-circuit tests, every packet the checked
//! interpreter accepts satisfies every required atom and the leading
//! test, and wherever the form is not `Opaque` its verdict is the
//! interpreter's on every packet. Packets of every length from empty to
//! two words past the highest word the program reads, with the words the
//! form tests written in, at the ends of and just outside each atom.
//! 1,000 seeded programs under the debug profile and 10,000 under
//! `cargo test --release`.

use pf_filter::form::Form;
use pf_filter::interp::CheckedInterpreter;
use pf_filter::packet::PacketView;
use pf_filter::program::FilterProgram;
use pf_sim::rng::SplitMix64;
use soup::{
    clause_program, corpus, fuzz_balanced_words, fuzz_words, probes, short_circuit_program,
};

#[path = "support/soup.rs"]
mod soup;

const ITERS: u32 = if cfg!(debug_assertions) {
    1_000
} else {
    10_000
};

/// Holds `program`'s form to the checked interpreter on seeded packets;
/// returns whether the form was `Opaque`.
fn check(program: &FilterProgram, rng: &mut SplitMix64, ctx: &str) -> bool {
    let form = Form::of(program);
    for p in probes(program, rng) {
        let view = PacketView::new(&p);
        let accepted = CheckedInterpreter.eval(program, view);
        if accepted {
            for a in form.required().iter().chain(&form.lead()) {
                assert!(
                    a.holds(view),
                    "{ctx}: accepted {p:?} fails {a:?}\n{program}"
                );
            }
        }
        if let Some(verdict) = form.accepts(view) {
            assert_eq!(verdict, accepted, "{ctx}: {p:?}\n{program}\n{form:?}");
        }
    }
    form.disjuncts().is_none()
}

#[test]
fn the_corpus_keeps_to_the_interpreter() {
    let mut rng = SplitMix64::new(0xF0F0_0001);
    for (i, program) in corpus().iter().enumerate() {
        check(program, &mut rng, &format!("corpus {i}"));
    }
}

#[test]
fn seeded_soup_keeps_to_the_interpreter() {
    let mut rng = SplitMix64::new(0xF0F0_0002);
    let (mut opaque, mut required) = (0, 0);
    for case in 0..ITERS {
        let program = match case % 4 {
            0 => FilterProgram::from_words(10, fuzz_words(&mut rng)),
            1 => FilterProgram::from_words(10, fuzz_balanced_words(&mut rng)),
            2 => clause_program(&mut rng),
            _ => short_circuit_program(&mut rng),
        };
        opaque += u32::from(check(&program, &mut rng, &format!("case {case}")));
        required += u32::from(!Form::of(&program).required().is_empty());
    }
    // Both halves of the form must see traffic.
    assert!(
        opaque > ITERS / 4 && opaque < ITERS,
        "{opaque} opaque forms"
    );
    assert!(required > ITERS / 20, "{required} forms require an atom");
}
