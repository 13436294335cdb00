//! Machine-readable demux-scaling results: `BENCH_demux.json`.
//!
//! The breakeven sweep and the ablation table live in EXPERIMENTS.md
//! prose; this module races the demultiplexing engines
//! (flat-sequential interpreter, §7 decision table, geometric
//! tuple-space classifier) over growing multi-ethertype populations and
//! writes the results as JSON — engine, population size, ns/packet, and
//! members evaluated per packet — so the perf trajectory can be tracked
//! across PRs by a machine instead of a reader.
//!
//! Two further sections target the geometric classifier specifically: a
//! mixed exact/range *ladder* to 100k+ filters (where a member walk is
//! linear and only the interval index stays sublinear) and a *churn*
//! column measuring incremental insert/delete cost at a standing
//! population (tombstones + threshold compaction instead of
//! rebuild-the-world). All three carry sweep-internal asserts on the
//! deterministic work counters — at most two members evaluated per packet
//! on pure-exact populations, under a tenth of the population on
//! range-heavy ones, sublinear probe growth up the ladder, compactions
//! amortized under churn — so a regression fails the run rather than
//! quietly bending a curve.
//!
//! Timing is real wall clock over the set structures themselves (no
//! simulated world), averaged over a deterministic round-robin traffic
//! mix. The work counters come from the sets' own stats and are exact;
//! asserts and tests read those (deterministic), never the timing.

use crate::json::Json;
use pf_filter::dtree::FilterSet;
use pf_filter::interp::CheckedInterpreter;
use pf_filter::packet::PacketView;
use pf_filter::program::{Assembler, FilterProgram};
use pf_filter::samples;
use pf_filter::word::BinaryOp;
use pf_ir::GeomSet;
use std::hint::black_box;
use std::time::Instant;

/// Ethernet types cycled through the synthetic population: a protocol
/// mix, so neither "everything shares one guard" nor "nothing shares".
pub const ETHERTYPES: [u16; 8] = [2, 3, 5, 8, 11, 17, 23, 29];

/// Engines raced per population point.
pub const ENGINES_RACED: usize = 3;

/// One engine × population measurement.
#[derive(Debug, Clone)]
pub struct DemuxPoint {
    /// Engine label: `sequential`, `dtree`, or `geom`.
    pub engine: &'static str,
    /// Active filters.
    pub population: usize,
    /// Mean wall-clock nanoseconds per packet.
    pub(crate) ns_per_packet: f64,
    /// Mean members evaluated per packet (0 for the decision table, which
    /// evaluates shapes, not members).
    pub(crate) filters_evaluated_per_packet: f64,
}

/// The `i`-th member of the multi-ethertype population, in the figure 3-9
/// idiom: the selective per-member socket test first (`CAND`, so the
/// common mismatch exits early), the protocol's ethertype compare *last*.
/// An index keyed on the socket word alone still has to evaluate every
/// same-socket member to reject it on that trailing compare; a key over
/// both words does not.
pub(crate) fn multi_ethertype_filter(i: usize) -> FilterProgram {
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
pub(crate) fn packet_for(i: usize) -> Vec<u8> {
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
                packet_for((j * 7) % n) // coprime stride: every member hit
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

/// Measures every raced engine at one population size.
pub fn measure(population: usize, packets_per_point: usize) -> Vec<DemuxPoint> {
    let filters: Vec<(u32, FilterProgram)> = (0..population)
        .map(|i| (i as u32, multi_ethertype_filter(i)))
        .collect();
    let packets = traffic(population, packets_per_point);
    let n = packets.len() as f64;
    let mut out = Vec::new();

    // Flat-sequential: the figure 4-1 loop over checked interpretations.
    let interp = CheckedInterpreter;
    let ns = time_per_packet(&packets, |p| {
        let view = PacketView::new(p);
        black_box(filters.iter().find(|(_, f)| interp.eval(f, view)));
    });
    out.push(DemuxPoint {
        engine: "sequential",
        population,
        ns_per_packet: ns,
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
        filters_evaluated_per_packet: 0.0,
    });

    // Geometric tuple-space classifier: on this pure-exact population
    // every member files into one exact tuple over the socket and
    // ethertype words, so a packet costs one hash probe and evaluates the
    // one member that carries both its literals (none, for a stray).
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
        filters_evaluated_per_packet: fe as f64 / n,
    });

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
    // Sweep-internal assert: on a *pure-exact* population the directory
    // selects the members carrying every literal of the packet, so member
    // work per packet is bounded whatever the population.
    for p in points.iter().filter(|p| p.engine == "geom") {
        assert!(
            p.filters_evaluated_per_packet <= 2.0,
            "geom evaluates {:.2} members/packet on pure-exact n={}",
            p.filters_evaluated_per_packet,
            p.population
        );
    }
    points
}

/// Range share of the mixed ladder population, in percent.
pub const RANGE_SHARE_PERCENT: usize = 75;

/// One population point of the geometric classifier on the mixed
/// exact/range ladder.
#[derive(Debug, Clone)]
pub struct RangePoint {
    /// `geom` — the only engine still in the race at 100k.
    pub engine: &'static str,
    /// Active filters (mixed exact/range).
    pub population: usize,
    /// Mean wall-clock nanoseconds per packet.
    pub(crate) ns_per_packet: f64,
    /// Mean members evaluated per packet — the linear-walk tell.
    pub(crate) filters_evaluated_per_packet: f64,
    /// Mean threaded-code ops executed per packet.
    pub(crate) ops_executed_per_packet: f64,
    /// Mean index nodes visited per packet: the geometric probe cost,
    /// asserted to grow sublinearly up the ladder.
    pub(crate) nodes_visited_per_packet: f64,
}

/// One population's churn measurement: the amortized cost of a
/// remove+reinsert cycle at a standing population.
#[derive(Debug, Clone)]
pub struct ChurnPoint {
    /// `geom`.
    pub engine: &'static str,
    /// Standing population across the whole churn run.
    pub population: usize,
    /// Remove+insert cycles performed.
    pub updates: usize,
    /// Mean wall-clock nanoseconds per remove+insert cycle.
    pub(crate) ns_per_update: f64,
    /// Whole-index maintenance events (compactions) during the run. Churn
    /// without full rebuilds means this stays far below `updates`.
    pub rebuilds: u64,
}

/// The `i`-th member of the mixed ladder: `RANGE_SHARE_PERCENT` of
/// indices are §3.8-style socket-range filters over narrow windows
/// spread deterministically across the 16-bit socket space (coprime
/// stride, width 4–16); the rest are the exact multi-ethertype members.
/// Ranges defeat every exact-match index, so this is the population
/// where the interval structures earn their keep.
pub(crate) fn mixed_filter(i: usize) -> FilterProgram {
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
pub(crate) fn mixed_traffic(n: usize, packets: usize) -> Vec<Vec<u8>> {
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

/// Measures the geometric classifier at one mixed exact/range population
/// size. The engines that walk members (sequential, dtree's interpreted
/// fallback for ranges) are out of the race here by construction — at
/// 100k filters a full walk per packet would take longer than the whole
/// sweep.
pub(crate) fn measure_range(population: usize, packets_per_point: usize) -> RangePoint {
    let filters: Vec<(u32, FilterProgram)> = (0..population)
        .map(|i| (i as u32, mixed_filter(i)))
        .collect();
    let packets = mixed_traffic(population, packets_per_point);
    let n = packets.len() as f64;

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
    RangePoint {
        engine: "geom",
        population,
        ns_per_packet: ns,
        filters_evaluated_per_packet: fe as f64 / n,
        ops_executed_per_packet: ops as f64 / n,
        nodes_visited_per_packet: nodes as f64 / n,
    }
}

/// Measures incremental management cost: `updates` remove+reinsert
/// cycles against a standing mixed population of `population` filters.
/// Returns the per-cycle wall clock and the compactions incurred.
pub(crate) fn measure_churn(population: usize, updates: usize) -> ChurnPoint {
    let filters: Vec<(u32, FilterProgram)> = (0..population)
        .map(|i| (i as u32, mixed_filter(i)))
        .collect();
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
    ChurnPoint {
        engine: "geom",
        population,
        updates,
        ns_per_update: ns,
        rebuilds,
    }
}

/// The mixed exact/range ladder plus the churn column: 1k → 100k in the
/// full run, a miniature two-rung ladder in CI smoke. Asserts the
/// acceptance-criteria shape on the deterministic counters.
pub(crate) fn range_sweep(smoke: bool) -> (Vec<RangePoint>, Vec<ChurnPoint>) {
    let (populations, packets, updates): (&[usize], usize, usize) = if smoke {
        (&[256, 1_024], 200, 400)
    } else {
        (&[1_000, 10_000, 100_000], 192, 2_000)
    };
    let ladder: Vec<RangePoint> = populations
        .iter()
        .map(|&n| measure_range(n, packets))
        .collect();
    let churn: Vec<ChurnPoint> = populations
        .iter()
        .map(|&n| measure_churn(n, updates))
        .collect();

    // Range-heavy assert: at every rung the interval index must keep
    // selecting a handful of candidates. A set that cannot index a range
    // walks every range member under the packet's ethertype — 0.4 n on
    // this traffic; the bound is a quarter of that walk.
    for p in &ladder {
        assert!(
            p.filters_evaluated_per_packet * 10.0 < p.population as f64,
            "geom walks {:.2} members/packet on range-heavy n={}",
            p.filters_evaluated_per_packet,
            p.population
        );
    }
    // Sublinear-probe assert: between the bottom and top of the ladder
    // (a >=4x population growth) the geometric probe cost may grow by at
    // most 2x — O(log n + matches), not O(n).
    let (bottom, top) = (&ladder[0], ladder.last().expect("non-empty ladder"));
    assert!(
        top.nodes_visited_per_packet <= 2.0 * bottom.nodes_visited_per_packet + 1.0,
        "geom probe cost is not sublinear: {:.2} nodes/pkt at n={} vs {:.2} at n={}",
        bottom.nodes_visited_per_packet,
        bottom.population,
        top.nodes_visited_per_packet,
        top.population,
    );

    (ladder, churn)
}

/// The campaign's artifact: the race, the mixed exact/range ladder and
/// the churn column. This campaign draws no randomness (populations and
/// traffic are pinned); the seed is recorded so every `BENCH_*.json`
/// carries the same replay field.
pub fn json(points: &[DemuxPoint], ladder: &[RangePoint], churn: &[ChurnPoint], seed: u64) -> Json {
    let counted = |x: f64| Json::Float(x, 2);
    let rows = Json::array(points, |p| {
        Json::object([
            ("engine", p.engine.into()),
            ("population", p.population.into()),
            ("ns_per_packet", Json::Wall(p.ns_per_packet, 2)),
            (
                "filters_evaluated_per_packet",
                counted(p.filters_evaluated_per_packet),
            ),
        ])
    });
    let range_rows = Json::array(ladder, |p| {
        Json::object([
            ("engine", p.engine.into()),
            ("population", p.population.into()),
            ("ns_per_packet", Json::Wall(p.ns_per_packet, 2)),
            (
                "filters_evaluated_per_packet",
                counted(p.filters_evaluated_per_packet),
            ),
            (
                "ops_executed_per_packet",
                counted(p.ops_executed_per_packet),
            ),
            (
                "nodes_visited_per_packet",
                counted(p.nodes_visited_per_packet),
            ),
        ])
    });
    let churn_rows = Json::array(churn, |p| {
        Json::object([
            ("engine", p.engine.into()),
            ("population", p.population.into()),
            ("updates", p.updates.into()),
            ("ns_per_update", Json::Wall(p.ns_per_update, 2)),
            ("rebuilds", p.rebuilds.into()),
        ])
    });
    let range_workload = format!(
        "mixed exact/range population ({RANGE_SHARE_PERCENT}% narrow socket-range filters), \
         socket-probe traffic with 25% exact hits and 25% strays"
    );
    Json::object([
        ("experiment", "demux_scaling".into()),
        ("seed", seed.into()),
        ("unit", "ns/packet, wall clock".into()),
        (
            "workload",
            "multi-ethertype population (8 ethertypes x n/8 sockets), round-robin traffic \
             with 25% no-match strays"
                .into(),
        ),
        ("rows", rows),
        ("range_workload", Json::Str(range_workload)),
        ("range_rows", range_rows),
        (
            "churn_unit",
            "ns/update, wall clock, one update = remove + reinsert at a standing population".into(),
        ),
        ("churn_rows", churn_rows),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bulk engines agree with the checked walk on every verdict over
    /// both populations the sweeps measure, so ns/packet differences are
    /// pure data-structure cost.
    #[test]
    fn engines_agree_on_the_synthetic_populations() {
        let interp = CheckedInterpreter;
        type Population = (usize, fn(usize) -> FilterProgram, Vec<Vec<u8>>);
        let populations: [Population; 2] = [
            (40, multi_ethertype_filter, traffic(40, 200)),
            (120, mixed_filter, mixed_traffic(120, 240)),
        ];
        for (n, member, packets) in populations {
            let filters: Vec<(u32, FilterProgram)> =
                (0..n).map(|i| (i as u32, member(i))).collect();
            let mut dtree = FilterSet::new();
            let mut geom = GeomSet::new();
            for (id, f) in &filters {
                dtree.insert(*id, f.clone());
                geom.insert(*id, f.clone());
            }
            for p in packets {
                let view = PacketView::new(&p);
                let expect: Vec<u32> = filters
                    .iter()
                    .filter(|(_, f)| interp.eval(f, view))
                    .map(|(id, _)| *id)
                    .collect();
                assert_eq!(dtree.matches(view), expect);
                assert_eq!(geom.matches(view), expect);
            }
        }
    }

    /// The directory's acceptance shape, on deterministic counters: with
    /// the 512-member multi-ethertype population inserted in index order —
    /// the word statistics favour the ethertype word for the first few
    /// dozen members and the socket word after — every member lands in
    /// one tuple and no packet of the traffic mix evaluates more than the
    /// one member that carries both its literals.
    #[test]
    fn geom_evaluates_at_most_one_member_per_packet_at_512() {
        let n = 512;
        let mut geom = GeomSet::new();
        for i in 0..n {
            geom.insert(i as u32, multi_ethertype_filter(i));
        }
        assert_eq!(geom.tuple_count(), 1);
        for (j, p) in traffic(n, 2_000).iter().enumerate() {
            let (ids, stats) = geom.matches_with_stats(PacketView::new(p));
            assert!(stats.filters_evaluated <= 1, "packet {j}: {stats:?}");
            assert_eq!(ids.len(), usize::from(j % 4 != 3), "packet {j}");
            assert_eq!(stats.tuples_probed, 1, "packet {j}: {stats:?}");
        }
    }

    /// The deterministic half of the range-heavy acceptance criterion:
    /// at a 512-filter mixed population the geometric classifier selects
    /// a handful of candidates per packet where a walk of the range
    /// members under the packet's ethertype would evaluate some 150.
    #[test]
    fn geom_work_is_bounded_on_the_range_population() {
        let n = 512;
        let mut geom = GeomSet::new();
        for i in 0..n {
            geom.insert(i as u32, mixed_filter(i));
        }
        let packets = mixed_traffic(n, 64);
        let evaluated: u64 = packets
            .iter()
            .map(|p| {
                u64::from(
                    geom.matches_with_stats(PacketView::new(p))
                        .1
                        .filters_evaluated,
                )
            })
            .sum();
        assert!(
            evaluated <= 2 * packets.len() as u64,
            "geom evaluated {evaluated} members over {} packets",
            packets.len()
        );
    }

    /// Churn at a standing population keeps the set live and asserts the
    /// compaction amortization internally; here we additionally pin that
    /// the measurement machinery reports a sane row.
    #[test]
    fn churn_measurement_reports_a_sane_row() {
        let p = measure_churn(64, 200);
        assert_eq!(p.population, 64);
        assert_eq!(p.updates, 200);
        assert!(p.ns_per_update.is_finite() && p.ns_per_update > 0.0);
        assert!(
            p.rebuilds as usize <= 200 / 64 + 2,
            "geom churn amortization: {} rebuilds",
            p.rebuilds
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
        for engine in ["sequential", "dtree", "geom"] {
            assert!(points.iter().any(|p| p.engine == engine));
        }
    }
}
