//! A pin on the compiler's output. Geom bills a member's threaded-code op
//! counts on the simulated clock, so what `IrFilter` decides for a program
//! — the threaded code, the fallback bound, the register file, the test
//! list with each test's op count and the accept's — may only move on
//! purpose. All of it is in the filter's `Debug` form; this folds that
//! form, for every sample program and 1,000 seeded programs of the four
//! soup families, into one FNV-1a digest.

use pf_filter::program::FilterProgram;
use pf_ir::IrFilter;
use pf_sim::rng::SplitMix64;
use soup::{clause_program, corpus, fuzz_balanced_words, fuzz_words, short_circuit_program};

#[path = "../../pf-filter/tests/support/soup.rs"]
mod soup;

#[test]
fn compiled_code_is_pinned() {
    let mut rng = SplitMix64::new(0xC04A_0004);
    let mut programs = corpus();
    programs.extend((0..1_000).map(|case| match case % 4 {
        0 => FilterProgram::from_words(10, fuzz_words(&mut rng)),
        1 => FilterProgram::from_words(10, fuzz_balanced_words(&mut rng)),
        2 => clause_program(&mut rng),
        _ => short_circuit_program(&mut rng),
    }));
    let mut digest = 0xCBF2_9CE4_8422_2325u64;
    let mut compiled = 0;
    for f in programs
        .into_iter()
        .filter_map(|p| IrFilter::compile(p).ok())
    {
        for b in format!("{f:?}\n").bytes() {
            digest = (digest ^ u64::from(b)).wrapping_mul(0x100_0000_01B3);
        }
        compiled += 1;
    }
    assert_eq!(compiled, 776, "programs that validate");
    assert_eq!(digest, 0x36DB_AC8F_5942_44AE, "{digest:#018X}");
}
