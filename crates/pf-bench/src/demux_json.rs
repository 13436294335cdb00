//! Machine-readable demux-scaling results: `BENCH_demux.json`.
//!
//! The breakeven sweep and the ablation table live in EXPERIMENTS.md
//! prose; this module races the demultiplexing engines
//! (flat-sequential interpreter, §7 decision table, sharded
//! value-numbered set, geometric tuple-space classifier, and — with the
//! `jit` feature — a priority-ordered walk of template-JIT native
//! filters) over growing multi-ethertype populations and writes the
//! results as JSON — engine, population size, ns/packet, and per-packet
//! executed-test counts — so the perf trajectory can be tracked across
//! PRs by a machine instead of a reader.
//!
//! Two further sections target the geometric classifier specifically: a
//! mixed exact/range *ladder* to 100k+ filters (where every exact-match
//! engine degenerates to a linear walk and only the interval index stays
//! sublinear) and a *churn* column measuring incremental insert/delete
//! cost at a standing population (tombstones + threshold compaction
//! versus rebuild-the-world). Both carry sweep-internal asserts on the
//! deterministic work counters — geom must beat the sharded set on
//! range-heavy populations, stay within 2x on pure-exact ones, and show
//! sublinear probe growth up the ladder — so a regression fails the run
//! rather than quietly bending a curve.
//!
//! Timing is real wall clock over the set structures themselves (no
//! simulated world), averaged over a deterministic round-robin traffic
//! mix. The executed-test counters come from the sets' own stats and are
//! exact; tests assert on those (deterministic), never on timing.

use crate::report::fmt_f64;
use pf_filter::dtree::FilterSet;
use pf_filter::interp::CheckedInterpreter;
use pf_filter::packet::PacketView;
use pf_filter::program::{Assembler, FilterProgram};
use pf_filter::samples;
use pf_filter::word::BinaryOp;
use pf_ir::set::ShardedVnSet;
use pf_ir::GeomSet;
use std::hint::black_box;
use std::time::Instant;

/// Ethernet types cycled through the synthetic population: a protocol
/// mix, so neither "everything shares one guard" nor "nothing shares".
pub const ETHERTYPES: [u16; 8] = [2, 3, 5, 8, 11, 17, 23, 29];

/// Engines raced per population point (the `jit` feature adds one more).
pub const ENGINES_RACED: usize = 4 + if cfg!(feature = "jit") { 1 } else { 0 };

/// One engine × population measurement.
#[derive(Debug, Clone)]
pub struct DemuxPoint {
    /// Engine label: `sequential`, `dtree`, `sharded`, `geom`, or `jit`.
    pub engine: &'static str,
    /// Active filters.
    pub population: usize,
    /// Mean wall-clock nanoseconds per packet.
    pub ns_per_packet: f64,
    /// Mean interned tests evaluated fresh per packet (0 for engines
    /// without a shared test table).
    pub tests_evaluated_per_packet: f64,
    /// Mean memoized test hits per packet.
    pub tests_memoized_per_packet: f64,
    /// Mean members evaluated per packet.
    pub filters_evaluated_per_packet: f64,
}

/// The `i`-th member of the multi-ethertype population, in the figure 3-9
/// idiom: the selective per-member socket test first (`CAND`, so the
/// common mismatch exits early), the protocol's ethertype compare *last*.
/// That trailing compare is what sharing only leading guards would miss
/// and set-level value numbering reaches; the socket word is what the
/// shard index discriminates on.
pub fn multi_ethertype_filter(i: usize) -> FilterProgram {
    let ethertype = ETHERTYPES[i % ETHERTYPES.len()];
    let socket = 100 + (i / ETHERTYPES.len()) as u16;
    Assembler::new(10)
        .pushword(8)
        .pushlit_op(BinaryOp::Cand, socket)
        .pushword(1)
        .pushlit_op(BinaryOp::Eq, ethertype)
        .finish()
}

/// The packet the `i`-th member (and only it) accepts.
pub fn packet_for(i: usize) -> Vec<u8> {
    let ethertype = ETHERTYPES[i % ETHERTYPES.len()];
    let socket = 100 + (i / ETHERTYPES.len()) as u16;
    samples::pup_packet_3mb(ethertype, 0, socket, 1)
}

/// A deterministic traffic mix over a population of `n`: every fourth
/// packet matches nobody (a stray ethertype), the rest round-robin over
/// the members.
pub fn traffic(n: usize, packets: usize) -> Vec<Vec<u8>> {
    (0..packets)
        .map(|j| {
            if j % 4 == 3 {
                samples::pup_packet_3mb(0x600, 0, 1, 1) // no member matches
            } else {
                packet_for((j * 7) % n) // coprime stride: all shards hit
            }
        })
        .collect()
}

fn time_per_packet(packets: &[Vec<u8>], mut eval: impl FnMut(&[u8])) -> f64 {
    for p in packets.iter().take(packets.len() / 4) {
        eval(black_box(p));
    }
    let start = Instant::now();
    for p in packets {
        eval(black_box(p));
    }
    start.elapsed().as_nanos() as f64 / packets.len() as f64
}

/// Measures all four engines at one population size.
pub fn measure(population: usize, packets_per_point: usize) -> Vec<DemuxPoint> {
    let filters: Vec<(u32, FilterProgram)> = (0..population)
        .map(|i| (i as u32, multi_ethertype_filter(i)))
        .collect();
    let packets = traffic(population, packets_per_point);
    let n = packets.len() as f64;
    let mut out = Vec::new();

    // Flat-sequential: the figure 4-1 loop over checked interpretations.
    let interp = CheckedInterpreter::default();
    let ns = time_per_packet(&packets, |p| {
        let view = PacketView::new(p);
        black_box(filters.iter().find(|(_, f)| interp.eval(f, view)));
    });
    out.push(DemuxPoint {
        engine: "sequential",
        population,
        ns_per_packet: ns,
        tests_evaluated_per_packet: 0.0,
        tests_memoized_per_packet: 0.0,
        filters_evaluated_per_packet: {
            // First-match walk: count members actually interpreted.
            let mut applied = 0u64;
            for p in &packets {
                let view = PacketView::new(p);
                for (_, f) in &filters {
                    applied += 1;
                    if interp.eval(f, view) {
                        break;
                    }
                }
            }
            applied as f64 / n
        },
    });

    // §7 decision table.
    let mut dtree = FilterSet::new();
    for (id, f) in &filters {
        dtree.insert(*id, f.clone());
    }
    let ns = time_per_packet(&packets, |p| {
        black_box(dtree.first_match(PacketView::new(p)));
    });
    out.push(DemuxPoint {
        engine: "dtree",
        population,
        ns_per_packet: ns,
        tests_evaluated_per_packet: 0.0,
        tests_memoized_per_packet: 0.0,
        filters_evaluated_per_packet: 0.0,
    });

    // Sharded value-numbered set.
    let mut sharded = ShardedVnSet::new();
    for (id, f) in &filters {
        sharded.insert(*id, f.clone());
    }
    let ns = time_per_packet(&packets, |p| {
        black_box(sharded.matches_with_stats(PacketView::new(p)).0.len());
    });
    let mut te = 0u64;
    let mut tm = 0u64;
    let mut fe = 0u64;
    for p in &packets {
        let (_, s) = sharded.matches_with_stats(PacketView::new(p));
        te += u64::from(s.tests_evaluated);
        tm += u64::from(s.tests_memoized);
        fe += u64::from(s.filters_evaluated);
    }
    out.push(DemuxPoint {
        engine: "sharded",
        population,
        ns_per_packet: ns,
        tests_evaluated_per_packet: te as f64 / n,
        tests_memoized_per_packet: tm as f64 / n,
        filters_evaluated_per_packet: fe as f64 / n,
    });

    // Geometric tuple-space classifier: on this pure-exact population it
    // degenerates gracefully — every member keys into one exact tuple on
    // the socket word, so the probe is a hash lookup plus the same
    // same-socket candidate walk the shard index does.
    let mut geom = GeomSet::new();
    for (id, f) in &filters {
        geom.insert(*id, f.clone());
    }
    let ns = time_per_packet(&packets, |p| {
        black_box(geom.matches_with_stats(PacketView::new(p)).0.len());
    });
    let mut fe = 0u64;
    for p in &packets {
        let (_, s) = geom.matches_with_stats(PacketView::new(p));
        fe += u64::from(s.filters_evaluated);
    }
    out.push(DemuxPoint {
        engine: "geom",
        population,
        ns_per_packet: ns,
        tests_evaluated_per_packet: 0.0,
        tests_memoized_per_packet: 0.0,
        filters_evaluated_per_packet: fe as f64 / n,
    });

    // Template JIT: a priority-ordered first-match walk of per-member
    // native code (the kernel's `DemuxEngine::Jit` shape), no set-level
    // sharing at all — the race shows where raw per-member speed beats
    // structural work-sharing and where it stops scaling.
    #[cfg(feature = "jit")]
    {
        let jitted: Vec<pf_ir::JitFilter> = filters
            .iter()
            .map(|(_, f)| pf_ir::JitFilter::compile(f.clone()).expect("population validates"))
            .collect();
        let ns = time_per_packet(&packets, |p| {
            let view = PacketView::new(p);
            black_box(jitted.iter().position(|f| f.eval(view)));
        });
        let mut fe = 0u64;
        for p in &packets {
            let view = PacketView::new(p);
            for f in &jitted {
                fe += 1;
                if f.eval(view) {
                    break;
                }
            }
        }
        out.push(DemuxPoint {
            engine: "jit",
            population,
            ns_per_packet: ns,
            tests_evaluated_per_packet: 0.0,
            tests_memoized_per_packet: 0.0,
            filters_evaluated_per_packet: fe as f64 / n,
        });
    }

    out
}

/// The full sweep (1 → 512 filters), or the tiny CI smoke sweep.
pub fn sweep(smoke: bool) -> Vec<DemuxPoint> {
    let populations: &[usize] = if smoke {
        &[1, 4, 16]
    } else {
        &[1, 4, 16, 64, 256, 512]
    };
    let packets = if smoke { 400 } else { 2_000 };
    let points: Vec<DemuxPoint> = populations
        .iter()
        .flat_map(|&n| measure(n, packets))
        .collect();
    // Sweep-internal assert: on a *pure-exact* population the geometric
    // classifier must stay within 2x of the sharded set's per-packet
    // member work (both should select the same-socket candidates).
    for &n in populations.iter().filter(|&&n| n >= 16) {
        let work = |engine: &str| {
            points
                .iter()
                .find(|p| p.engine == engine && p.population == n)
                .expect("raced engine present")
                .filters_evaluated_per_packet
        };
        let (geom, sharded) = (work("geom"), work("sharded"));
        assert!(
            geom <= 2.0 * sharded + 1.0,
            "geom loses >2x to sharded on pure-exact n={n}: {geom:.2} vs {sharded:.2}"
        );
    }
    points
}

/// Range share of the mixed ladder population, in percent.
pub const RANGE_SHARE_PERCENT: usize = 75;

/// One engine × population point on the mixed exact/range ladder.
#[derive(Debug, Clone)]
pub struct RangePoint {
    /// `sharded` or `geom` — the only engines still in the race at 100k.
    pub engine: &'static str,
    /// Active filters (mixed exact/range).
    pub population: usize,
    /// Mean wall-clock nanoseconds per packet.
    pub ns_per_packet: f64,
    /// Mean members evaluated per packet — the linear-walk tell.
    pub filters_evaluated_per_packet: f64,
    /// Mean threaded-code ops executed per packet.
    pub ops_executed_per_packet: f64,
    /// Mean index nodes visited per packet (0 for sharded): the geometric
    /// probe cost, asserted to grow sublinearly up the ladder.
    pub nodes_visited_per_packet: f64,
}

/// One engine × population churn measurement: the amortized cost of a
/// remove+reinsert cycle at a standing population.
#[derive(Debug, Clone)]
pub struct ChurnPoint {
    /// `sharded` or `geom`.
    pub engine: &'static str,
    /// Standing population across the whole churn run.
    pub population: usize,
    /// Remove+insert cycles performed.
    pub updates: usize,
    /// Mean wall-clock nanoseconds per remove+insert cycle.
    pub ns_per_update: f64,
    /// Whole-index maintenance events during the run: geom compactions /
    /// sharded repartitions. Churn without full rebuilds means this stays
    /// far below `updates`.
    pub rebuilds: u64,
}

/// The `i`-th member of the mixed ladder: `RANGE_SHARE_PERCENT` of
/// indices are §3.8-style socket-range filters over narrow windows
/// spread deterministically across the 16-bit socket space (coprime
/// stride, width 4–16); the rest are the exact multi-ethertype members.
/// Ranges defeat every exact-match index, so this is the population
/// where the interval structures earn their keep.
pub fn mixed_filter(i: usize) -> FilterProgram {
    if i % 100 < RANGE_SHARE_PERCENT {
        let lo = ((i * 9973) % 65_000) as u16;
        let hi = lo + 4 + (i % 13) as u16;
        samples::socket_range_filter(10, lo, hi)
    } else {
        multi_ethertype_filter(i)
    }
}

/// Deterministic traffic over the mixed population: half the packets
/// probe random-looking sockets under the range filters' ethertype, a
/// quarter target exact members, a quarter are no-match strays.
pub fn mixed_traffic(n: usize, packets: usize) -> Vec<Vec<u8>> {
    (0..packets)
        .map(|j| match j % 4 {
            0 | 2 => {
                let sock = ((j * 7919) % 65_536) as u16;
                samples::pup_packet_3mb(2, 0, sock, 1)
            }
            1 => packet_for((j * 7) % n),
            _ => samples::pup_packet_3mb(0x600, 0, 1, 1),
        })
        .collect()
}

/// Races the sharded set against the geometric classifier at one mixed
/// exact/range population size. The linear engines (sequential, dtree)
/// are out of the race here by construction — at 100k filters a full walk
/// per packet would take longer than the whole sweep.
pub fn measure_range(population: usize, packets_per_point: usize) -> Vec<RangePoint> {
    let filters: Vec<(u32, FilterProgram)> = (0..population)
        .map(|i| (i as u32, mixed_filter(i)))
        .collect();
    let packets = mixed_traffic(population, packets_per_point);
    let n = packets.len() as f64;
    let mut out = Vec::new();

    let mut sharded = ShardedVnSet::new();
    for (id, f) in &filters {
        sharded.insert(*id, f.clone());
    }
    let ns = time_per_packet(&packets, |p| {
        black_box(sharded.matches_with_stats(PacketView::new(p)).0.len());
    });
    let mut fe = 0u64;
    let mut ops = 0u64;
    for p in &packets {
        let (_, s) = sharded.matches_with_stats(PacketView::new(p));
        fe += u64::from(s.filters_evaluated);
        ops += u64::from(s.ops_executed);
    }
    out.push(RangePoint {
        engine: "sharded",
        population,
        ns_per_packet: ns,
        filters_evaluated_per_packet: fe as f64 / n,
        ops_executed_per_packet: ops as f64 / n,
        nodes_visited_per_packet: 0.0,
    });

    let mut geom = GeomSet::new();
    for (id, f) in &filters {
        geom.insert(*id, f.clone());
    }
    let ns = time_per_packet(&packets, |p| {
        black_box(geom.matches_with_stats(PacketView::new(p)).0.len());
    });
    let mut fe = 0u64;
    let mut ops = 0u64;
    let mut nodes = 0u64;
    for p in &packets {
        let (_, s) = geom.matches_with_stats(PacketView::new(p));
        fe += u64::from(s.filters_evaluated);
        ops += u64::from(s.ops_executed);
        nodes += u64::from(s.nodes_visited);
    }
    out.push(RangePoint {
        engine: "geom",
        population,
        ns_per_packet: ns,
        filters_evaluated_per_packet: fe as f64 / n,
        ops_executed_per_packet: ops as f64 / n,
        nodes_visited_per_packet: nodes as f64 / n,
    });

    out
}

/// Measures incremental management cost: `updates` remove+reinsert
/// cycles against a standing mixed population of `population` filters,
/// per engine. Returns the per-cycle wall clock and the whole-index
/// maintenance count (compactions / repartitions) each engine incurred.
pub fn measure_churn(population: usize, updates: usize) -> Vec<ChurnPoint> {
    let filters: Vec<(u32, FilterProgram)> = (0..population)
        .map(|i| (i as u32, mixed_filter(i)))
        .collect();
    let mut out = Vec::new();

    let mut sharded = ShardedVnSet::new();
    for (id, f) in &filters {
        sharded.insert(*id, f.clone());
    }
    let rebuilds_before = sharded.repartition_count();
    let start = Instant::now();
    for t in 0..updates {
        let id = (t % population) as u32;
        assert!(sharded.remove(id), "churn removes a live filter");
        sharded.insert(id, mixed_filter(population + t));
    }
    let ns = start.elapsed().as_nanos() as f64 / updates as f64;
    assert_eq!(sharded.len(), population, "churn preserves the population");
    out.push(ChurnPoint {
        engine: "sharded",
        population,
        updates,
        ns_per_update: ns,
        rebuilds: sharded.repartition_count() - rebuilds_before,
    });

    let mut geom = GeomSet::new();
    for (id, f) in &filters {
        geom.insert(*id, f.clone());
    }
    let rebuilds_before = geom.compaction_count();
    let start = Instant::now();
    for t in 0..updates {
        let id = (t % population) as u32;
        assert!(geom.remove(id), "churn removes a live filter");
        geom.insert(id, mixed_filter(population + t));
    }
    let ns = start.elapsed().as_nanos() as f64 / updates as f64;
    assert_eq!(geom.len(), population, "churn preserves the population");
    let rebuilds = geom.compaction_count() - rebuilds_before;
    // The whole point of tombstoning: compactions amortize to at most one
    // per `population` removals (plus slack for the threshold crossing),
    // never one per update.
    assert!(
        rebuilds as usize <= updates / population.max(1) + 2,
        "geom churn is not amortized: {rebuilds} compactions over {updates} updates at n={population}"
    );
    out.push(ChurnPoint {
        engine: "geom",
        population,
        updates,
        ns_per_update: ns,
        rebuilds,
    });

    out
}

/// The mixed exact/range ladder plus the churn column: 1k → 100k in the
/// full run, a miniature two-rung ladder in CI smoke. Asserts the
/// acceptance-criteria shape on the deterministic counters.
pub fn range_sweep(smoke: bool) -> (Vec<RangePoint>, Vec<ChurnPoint>) {
    let (populations, packets, updates): (&[usize], usize, usize) = if smoke {
        (&[256, 1_024], 200, 400)
    } else {
        (&[1_000, 10_000, 100_000], 192, 2_000)
    };
    let ladder: Vec<RangePoint> = populations
        .iter()
        .flat_map(|&n| measure_range(n, packets))
        .collect();
    let churn: Vec<ChurnPoint> = populations
        .iter()
        .flat_map(|&n| measure_churn(n, updates))
        .collect();

    // Range-heavy assert: at every rung the geometric classifier must
    // evaluate at least 4x fewer members per packet than the sharded
    // set — ranges push the sharded set into a linear walk while the
    // interval index keeps selecting a handful of candidates.
    for &n in populations {
        let work = |engine: &str| {
            ladder
                .iter()
                .find(|p| p.engine == engine && p.population == n)
                .expect("both engines raced")
                .filters_evaluated_per_packet
        };
        let (geom, sharded) = (work("geom"), work("sharded"));
        assert!(
            geom * 4.0 < sharded,
            "geom does not beat sharded on range-heavy n={n}: {geom:.2} vs {sharded:.2}"
        );
    }
    // Sublinear-probe assert: between the bottom and top of the ladder
    // (a >=4x population growth) the geometric probe cost may grow by at
    // most 2x — O(log n + matches), not O(n).
    let probe = |n: usize| {
        ladder
            .iter()
            .find(|p| p.engine == "geom" && p.population == n)
            .expect("geom raced")
            .nodes_visited_per_packet
    };
    let (lo, hi) = (
        probe(populations[0]),
        probe(*populations.last().expect("non-empty ladder")),
    );
    assert!(
        hi <= 2.0 * lo + 1.0,
        "geom probe cost is not sublinear: {lo:.2} nodes/pkt at n={} vs {hi:.2} at n={}",
        populations[0],
        populations.last().expect("non-empty ladder"),
    );

    (ladder, churn)
}

/// Renders the sweep, the mixed exact/range ladder, and the churn
/// column as one JSON document (hand-rolled: the build is hermetic, no
/// serde).
pub fn to_json(
    points: &[DemuxPoint],
    ladder: &[RangePoint],
    churn: &[ChurnPoint],
    seed: u64,
) -> String {
    let mut s = String::from("{\n  \"experiment\": \"demux_scaling\",\n");
    // This campaign draws no randomness (populations and traffic are
    // pinned); the seed is recorded so every BENCH_*.json carries the
    // same replay field.
    s.push_str(&format!("  \"seed\": {seed},\n"));
    s.push_str("  \"unit\": \"ns/packet, wall clock\",\n");
    s.push_str(
        "  \"workload\": \"multi-ethertype population (8 ethertypes x n/8 sockets), \
         round-robin traffic with 25% no-match strays\",\n",
    );
    s.push_str("  \"rows\": [\n");
    for (i, p) in points.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"engine\": \"{}\", \"population\": {}, \"ns_per_packet\": {}, \
             \"tests_evaluated_per_packet\": {}, \"tests_memoized_per_packet\": {}, \
             \"filters_evaluated_per_packet\": {}}}{}\n",
            p.engine,
            p.population,
            fmt_f64(p.ns_per_packet, 2),
            fmt_f64(p.tests_evaluated_per_packet, 2),
            fmt_f64(p.tests_memoized_per_packet, 2),
            fmt_f64(p.filters_evaluated_per_packet, 2),
            if i + 1 == points.len() { "" } else { "," }
        ));
    }
    s.push_str("  ],\n");
    s.push_str(&format!(
        "  \"range_workload\": \"mixed exact/range population ({RANGE_SHARE_PERCENT}% narrow \
         socket-range filters), socket-probe traffic with 25% exact hits and 25% strays\",\n",
    ));
    s.push_str("  \"range_rows\": [\n");
    for (i, p) in ladder.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"engine\": \"{}\", \"population\": {}, \"ns_per_packet\": {}, \
             \"filters_evaluated_per_packet\": {}, \"ops_executed_per_packet\": {}, \
             \"nodes_visited_per_packet\": {}}}{}\n",
            p.engine,
            p.population,
            fmt_f64(p.ns_per_packet, 2),
            fmt_f64(p.filters_evaluated_per_packet, 2),
            fmt_f64(p.ops_executed_per_packet, 2),
            fmt_f64(p.nodes_visited_per_packet, 2),
            if i + 1 == ladder.len() { "" } else { "," }
        ));
    }
    s.push_str("  ],\n");
    s.push_str(
        "  \"churn_unit\": \"ns/update, wall clock, one update = remove + reinsert at a \
         standing population\",\n",
    );
    s.push_str("  \"churn_rows\": [\n");
    for (i, p) in churn.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"engine\": \"{}\", \"population\": {}, \"updates\": {}, \
             \"ns_per_update\": {}, \"rebuilds\": {}}}{}\n",
            p.engine,
            p.population,
            p.updates,
            fmt_f64(p.ns_per_update, 2),
            p.rebuilds,
            if i + 1 == churn.len() { "" } else { "," }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// Default output path: the repository root's `BENCH_demux.json`.
pub fn default_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_demux.json")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// All bulk engines agree on every verdict over the traffic mix.
    #[test]
    fn engines_agree_on_the_synthetic_population() {
        let n = 40;
        let filters: Vec<(u32, FilterProgram)> = (0..n)
            .map(|i| (i as u32, multi_ethertype_filter(i)))
            .collect();
        let interp = CheckedInterpreter::default();
        let mut dtree = FilterSet::new();
        let mut sharded = ShardedVnSet::new();
        let mut geom = GeomSet::new();
        for (id, f) in &filters {
            dtree.insert(*id, f.clone());
            sharded.insert(*id, f.clone());
            geom.insert(*id, f.clone());
        }
        for p in traffic(n, 200) {
            let view = PacketView::new(&p);
            let expect: Vec<u32> = filters
                .iter()
                .filter(|(_, f)| interp.eval(f, view))
                .map(|(id, _)| *id)
                .collect();
            assert_eq!(dtree.matches(view), expect);
            assert_eq!(sharded.matches(view), expect);
            assert_eq!(geom.matches(view), expect);
        }
    }

    /// The sharded set and the geometric classifier agree on the mixed
    /// exact/range ladder population — the ladder races verdict-identical
    /// engines, so ns/packet differences are pure data-structure cost.
    #[test]
    fn ladder_engines_agree_on_the_mixed_population() {
        let n = 120;
        let filters: Vec<(u32, FilterProgram)> =
            (0..n).map(|i| (i as u32, mixed_filter(i))).collect();
        let interp = CheckedInterpreter::default();
        let mut sharded = ShardedVnSet::new();
        let mut geom = GeomSet::new();
        for (id, f) in &filters {
            sharded.insert(*id, f.clone());
            geom.insert(*id, f.clone());
        }
        for p in mixed_traffic(n, 240) {
            let view = PacketView::new(&p);
            let expect: Vec<u32> = filters
                .iter()
                .filter(|(_, f)| interp.eval(f, view))
                .map(|(id, _)| *id)
                .collect();
            assert_eq!(sharded.matches(view), expect);
            assert_eq!(geom.matches(view), expect);
        }
    }

    /// The deterministic half of the range-heavy acceptance criterion:
    /// at a 512-filter mixed population the geometric classifier selects
    /// a handful of candidates per packet where the sharded set, with no
    /// exact word to discriminate three quarters of the members, walks
    /// them linearly.
    #[test]
    fn geom_work_beats_sharded_on_the_range_population() {
        let n = 512;
        let mut sharded = ShardedVnSet::new();
        let mut geom = GeomSet::new();
        for i in 0..n {
            sharded.insert(i as u32, mixed_filter(i));
            geom.insert(i as u32, mixed_filter(i));
        }
        let packets = mixed_traffic(n, 64);
        let (mut geom_fe, mut sh_fe) = (0u64, 0u64);
        for p in &packets {
            let view = PacketView::new(p);
            geom_fe += u64::from(geom.matches_with_stats(view).1.filters_evaluated);
            sh_fe += u64::from(sharded.matches_with_stats(view).1.filters_evaluated);
        }
        assert!(
            geom_fe * 4 < sh_fe,
            "geom evaluated {geom_fe} members, sharded {sh_fe}"
        );
    }

    /// Churn at a standing population keeps both sets live and asserts
    /// the geom compaction amortization internally; here we additionally
    /// pin that the measurement machinery reports sane rows.
    #[test]
    fn churn_measurement_reports_both_engines() {
        let points = measure_churn(64, 200);
        assert_eq!(points.len(), 2);
        for p in &points {
            assert_eq!(p.population, 64);
            assert_eq!(p.updates, 200);
            assert!(p.ns_per_update.is_finite() && p.ns_per_update > 0.0);
        }
        let geom = points
            .iter()
            .find(|p| p.engine == "geom")
            .expect("geom row");
        assert!(
            geom.rebuilds as usize <= 200 / 64 + 2,
            "geom churn amortization: {} rebuilds",
            geom.rebuilds
        );
    }

    /// The acceptance-criteria shape, asserted on deterministic counters
    /// rather than wall clock: at a 256-filter multi-ethertype population
    /// the sharded set evaluates a small bounded number of tests and
    /// members per packet, where a flat walk would visit all 256.
    #[test]
    fn sharded_work_is_population_independent_at_256() {
        let n = 256;
        let mut sharded = ShardedVnSet::new();
        for i in 0..n {
            sharded.insert(i as u32, multi_ethertype_filter(i));
        }
        let p = packet_for(37);
        let view = PacketView::new(&p);
        let (sh_ids, sh_stats) = sharded.matches_with_stats(view);
        assert_eq!(sh_ids, vec![37]);
        // The shard index (keyed on the socket word) selects the 8
        // same-socket members; everyone else is skipped outright.
        assert_eq!(sh_stats.filters_evaluated, 8, "{sh_stats:?}");
        assert_eq!(sh_stats.filters_skipped, 248, "{sh_stats:?}");
        // Shared tests run at most once per packet: the socket test once
        // fresh, then 7 memoized hits; each member's ethertype test is
        // distinct (8 ethertypes), so at most 9 fresh evaluations.
        assert!(
            sh_stats.tests_evaluated <= 9,
            "shared tests evaluated at most once each: {sh_stats:?}"
        );
        assert!(sh_stats.tests_memoized >= 7, "{sh_stats:?}");
        // The op count collapses with the shard walk (9 when this was
        // written, where a flat walk paid 64); pin a comfortable margin
        // rather than the exact engine-version-dependent figure.
        assert!(sh_stats.ops_executed < 16, "{sh_stats:?}");
    }

    #[test]
    fn json_rows_are_well_formed() {
        let points = vec![DemuxPoint {
            engine: "sharded",
            population: 16,
            ns_per_packet: 123.456,
            tests_evaluated_per_packet: 2.5,
            tests_memoized_per_packet: 1.5,
            filters_evaluated_per_packet: 2.0,
        }];
        let ladder = vec![RangePoint {
            engine: "geom",
            population: 100_000,
            ns_per_packet: 512.0,
            filters_evaluated_per_packet: 3.25,
            ops_executed_per_packet: 19.5,
            nodes_visited_per_packet: 24.0,
        }];
        let churn = vec![ChurnPoint {
            engine: "geom",
            population: 100_000,
            updates: 2_000,
            ns_per_update: 900.0,
            rebuilds: 1,
        }];
        let json = to_json(&points, &ladder, &churn, 7);
        assert!(json.contains("\"seed\": 7"));
        assert!(json.contains("\"engine\": \"sharded\""));
        assert!(json.contains("\"population\": 16"));
        assert!(json.contains("\"ns_per_packet\": 123.46"));
        assert!(json.contains("\"range_rows\""));
        assert!(json.contains("\"nodes_visited_per_packet\": 24.00"));
        assert!(json.contains("\"churn_rows\""));
        assert!(json.contains("\"rebuilds\": 1"));
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "balanced braces:\n{json}"
        );
    }

    #[test]
    fn smoke_sweep_produces_all_engines() {
        let points = sweep(true);
        assert_eq!(
            points.len(),
            3 * ENGINES_RACED,
            "3 populations x every raced engine"
        );
        for engine in ["sequential", "dtree", "sharded", "geom"] {
            assert!(points.iter().any(|p| p.engine == engine));
        }
        assert_eq!(
            points.iter().any(|p| p.engine == "jit"),
            cfg!(feature = "jit")
        );
    }

    /// Feature `jit`: the native walk agrees with the checked first-match
    /// over the whole traffic mix (timing is raced in the binary; verdict
    /// parity is what the test suite pins).
    #[cfg(feature = "jit")]
    #[test]
    fn jit_walk_matches_checked_first_match() {
        let n = 40;
        let filters: Vec<FilterProgram> = (0..n).map(multi_ethertype_filter).collect();
        let jitted: Vec<pf_ir::JitFilter> = filters
            .iter()
            .map(|f| pf_ir::JitFilter::compile(f.clone()).expect("validates"))
            .collect();
        let interp = CheckedInterpreter::default();
        for p in traffic(n, 200) {
            let view = PacketView::new(&p);
            let expect = filters.iter().position(|f| interp.eval(f, view));
            let got = jitted.iter().position(|f| f.eval(view));
            assert_eq!(got, expect);
        }
    }
}
