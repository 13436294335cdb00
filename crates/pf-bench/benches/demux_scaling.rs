//! Demultiplexing a packet against N active filters: the sequential
//! priority-ordered loop of figure 4-1 versus §7's proposed decision
//! table ([`pf_filter::dtree::FilterSet`]) and the geometric classifier
//! ([`pf_ir::GeomSet`]).
//!
//! The sequential loop is O(N) filter applications per packet (the §6.5
//! break-even analysis); the decision table is one hash probe per filter
//! *shape*; the geometric set evaluates only the members filed under the
//! packet's own exact words.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pf_filter::dtree::FilterSet;
use pf_filter::interp::CheckedInterpreter;
use pf_filter::packet::PacketView;
use pf_filter::program::FilterProgram;
use pf_filter::samples;
use pf_ir::GeomSet;
use std::hint::black_box;

/// Sequential reference: first match in priority order.
fn sequential_first_match(
    interp: &CheckedInterpreter,
    filters: &[(u32, FilterProgram)],
    packet: PacketView<'_>,
) -> Option<u32> {
    filters
        .iter()
        .find(|(_, f)| interp.eval(f, packet))
        .map(|(id, _)| *id)
}

fn demux_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("demux_scaling");
    let interp = CheckedInterpreter::default();

    for n in [1usize, 4, 16, 64, 256] {
        // n socket filters; the packet matches the *last* one (worst case
        // for the sequential loop, median for a hash table).
        let filters: Vec<(u32, FilterProgram)> = (0..n)
            .map(|i| (i as u32, samples::pup_socket_filter(10, 0, i as u16)))
            .collect();
        let mut set = FilterSet::new();
        for (id, f) in &filters {
            set.insert(*id, f.clone());
        }
        let packet = samples::pup_packet_3mb(2, 0, (n - 1) as u16, 1);

        group.throughput(Throughput::Elements(1));
        group.bench_with_input(BenchmarkId::new("sequential", n), &n, |b, _| {
            b.iter(|| {
                sequential_first_match(
                    &interp,
                    black_box(&filters),
                    PacketView::new(black_box(&packet)),
                )
            })
        });
        group.bench_with_input(BenchmarkId::new("decision_table", n), &n, |b, _| {
            b.iter(|| set.first_match(PacketView::new(black_box(&packet))))
        });
        let mut geom = GeomSet::new();
        for (id, f) in &filters {
            geom.insert(*id, f.clone());
        }
        group.bench_with_input(BenchmarkId::new("geom", n), &n, |b, _| {
            b.iter(|| geom.first_match(PacketView::new(black_box(&packet))))
        });
    }
    group.finish();
}

criterion_group!(benches, demux_scaling);
criterion_main!(benches);
