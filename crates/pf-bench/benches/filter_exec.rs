//! Real wall-clock measurement of the §7 execution-engine ladder.
//!
//! The simulation charges *virtual* time for filter interpretation; this
//! bench measures the *actual* Rust implementations, verifying the §7
//! improvement claims with real numbers: hoisting per-instruction checks
//! to bind time speeds evaluation, pre-compiling filters speeds it
//! further, and the pf-ir CFG pipeline compiles the short-circuit chains
//! down to straight-line guards. Filter lengths mirror table 6-10
//! (0/1/9/21 instructions).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pf_filter::compile::CompiledFilter;
use pf_filter::interp::CheckedInterpreter;
use pf_filter::packet::PacketView;
use pf_filter::samples;
use pf_filter::validate::ValidatedProgram;
use pf_ir::IrFilter;
use std::hint::black_box;

fn engines(c: &mut Criterion) {
    let mut group = c.benchmark_group("filter_exec");
    let packet = samples::pup_packet_3mb(2, 0, 35, 50);
    let interp = CheckedInterpreter::default();

    let shapes: Vec<(String, pf_filter::program::FilterProgram)> = [0usize, 1, 9, 21]
        .iter()
        .map(|&len| (len.to_string(), samples::padded_accept_filter(10, len)))
        .chain([
            ("fig_3_8".to_string(), samples::fig_3_8_pup_type_range()),
            ("fig_3_9".to_string(), samples::fig_3_9_pup_socket_35()),
        ])
        .collect();

    for (name, program) in &shapes {
        let validated = ValidatedProgram::new(program.clone()).unwrap();
        let compiled = CompiledFilter::from_validated(validated.clone());
        let ir = IrFilter::from_validated(&validated);

        group.bench_function(BenchmarkId::new("checked", name), |b| {
            b.iter(|| interp.eval(black_box(program), PacketView::new(black_box(&packet))))
        });
        group.bench_function(BenchmarkId::new("validated", name), |b| {
            b.iter(|| validated.eval(PacketView::new(black_box(&packet))))
        });
        group.bench_function(BenchmarkId::new("compiled", name), |b| {
            b.iter(|| compiled.eval(PacketView::new(black_box(&packet))))
        });
        group.bench_function(BenchmarkId::new("ir", name), |b| {
            b.iter(|| ir.eval(PacketView::new(black_box(&packet))))
        });
    }
    group.finish();
}

criterion_group!(benches, engines);
criterion_main!(benches);
