//! `flowgen::generate` emits its schedule in `(at, flow)` order as it draws
//! it, with no sort. Here it is held to a copy of the expansion it
//! replaced — every packet pushed flow by flow, then stably sorted by
//! `(at, flow)` — on seeded specs, and to an allocation budget: the output
//! vector once and the growth steps of the heap of sending flows, nothing
//! per packet.

use pf_bench::flowgen::{generate, Arrival, FlowPacket, FlowSpec, Pattern, SizeMix, Transport};
use pf_sim::rng::SplitMix64;
use pf_sim::time::SimTime;

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{count_during, Counting};

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Seeds per spec shape: ten times as many in the release run.
const SEEDS: u64 = if cfg!(debug_assertions) { 4 } else { 40 };

/// The expansion `generate` replaced: the same draws in the same order
/// (gap, size, source, destination), every packet pushed, then a stable
/// sort by `(at, flow)`.
fn by_sorting(spec: &FlowSpec, endpoints: usize, seed: u64) -> Vec<FlowPacket> {
    let mut rng = SplitMix64::new(seed);
    let mut packets = Vec::new();
    let mut flow_start = spec.start;
    for flow in 0..spec.flows {
        let secs = match spec.arrival {
            Arrival::Poisson { rate_fps } => -(1.0 - rng.next_f64()).ln() / rate_fps,
            Arrival::Pareto { rate_fps, alpha } => {
                let xm = (1.0 / rate_fps) * (alpha - 1.0) / alpha;
                xm / (1.0 - rng.next_f64()).powf(1.0 / alpha)
            }
        };
        flow_start = SimTime(flow_start.0 + (secs * 1e9) as u64);
        let count = match spec.sizes {
            SizeMix::Fixed(n) => n,
            SizeMix::ElephantsAndMice {
                mice,
                elephants,
                elephant_fraction,
            } => {
                if rng.chance(elephant_fraction) {
                    elephants
                } else {
                    mice
                }
            }
        };
        let src = rng.below(endpoints as u64) as usize;
        let dst = match spec.pattern {
            Pattern::Incast { fraction } if rng.chance(fraction) => usize::from(src == 0),
            _ => {
                let d = rng.below(endpoints as u64 - 1) as usize;
                if d >= src {
                    d + 1
                } else {
                    d
                }
            }
        };
        let transport = spec.transports[flow % spec.transports.len()];
        for k in 0..count {
            packets.push(FlowPacket {
                at: SimTime(flow_start.0 + k as u64 * spec.packet_gap_ns),
                src,
                dst,
                payload: spec.payload,
                transport,
                flow,
            });
        }
    }
    packets.sort_by_key(|p| (p.at, p.flow));
    packets
}

fn spec(flows: usize, sizes: SizeMix, packet_gap_ns: u64) -> FlowSpec {
    FlowSpec {
        flows,
        arrival: Arrival::Poisson { rate_fps: 50_000.0 },
        sizes,
        pattern: Pattern::Incast { fraction: 0.2 },
        transports: vec![Transport::Udp],
        payload: 64,
        packet_gap_ns,
        churn_events: 0,
        start: SimTime(1_000),
    }
}

/// The size mixes the schedule must survive: empty flows, one packet a
/// flow (no heap at all), many a flow, mice of no packets beside
/// elephants, and the `routed_fabric` benchmark's own mix.
const SIZES: [SizeMix; 5] = [
    SizeMix::Fixed(0),
    SizeMix::Fixed(1),
    SizeMix::Fixed(7),
    SizeMix::ElephantsAndMice {
        mice: 0,
        elephants: 9,
        elephant_fraction: 0.3,
    },
    SizeMix::ElephantsAndMice {
        mice: 1,
        elephants: 4,
        elephant_fraction: 0.1,
    },
];

#[test]
fn the_one_pass_schedule_is_the_sorted_one() {
    let mut compared = 0usize;
    for seed in 0..SEEDS {
        for sizes in SIZES {
            // Gap 0: a flow's packets tie on time with each other and with
            // the next flows' starts. 7 µs: packets interleave with the
            // next few flows. 200 µs: with about ten.
            for gap in [0, 7_000, 200_000] {
                for arrival in [
                    Arrival::Poisson { rate_fps: 50_000.0 },
                    Arrival::Pareto {
                        rate_fps: 50_000.0,
                        alpha: 1.5,
                    },
                ] {
                    for (transports, endpoints, pattern) in [
                        (vec![Transport::Udp], 16, Pattern::Incast { fraction: 0.2 }),
                        (vec![Transport::Bsp, Transport::Vmtp], 2, Pattern::Uniform),
                    ] {
                        let s = FlowSpec {
                            arrival,
                            transports,
                            pattern,
                            ..spec(300, sizes, gap)
                        };
                        let seed = 0x5EED_0000 + seed;
                        let want = by_sorting(&s, endpoints, seed);
                        assert_eq!(
                            generate(&s, endpoints, seed),
                            want,
                            "seed {seed:#x}, {sizes:?}, gap {gap}, {arrival:?}, {endpoints} endpoints"
                        );
                        compared += want.len();
                    }
                }
            }
        }
    }
    assert!(compared > 0);
}

/// The `routed_fabric` benchmark's spec (one elephant of 4 packets to nine
/// mice of 1, 200 µs apart) at 3k and 30k flows. The output is allocated
/// once, at its size, and nothing else reaches a quarter of it (a sort's
/// scratch, a growth step's copy). The rest are the heap's growth steps,
/// fewer than one a doubling of the schedule's length (5 and 7
/// allocations in all for 3,873 and 39,084 packets); a per-packet
/// allocation would be thousands.
#[test]
fn a_schedule_allocates_its_growth_steps_and_nothing_per_packet() {
    for flows in [3_000, 30_000] {
        let s = FlowSpec {
            arrival: Arrival::Poisson {
                rate_fps: flows as f64 * 50.0,
            },
            ..spec(flows, SIZES[4], 200_000)
        };
        // The schedule's length, from a run outside the count.
        let len = generate(&s, 1_280, 7).len();
        let quarter = len * std::mem::size_of::<FlowPacket>() / 4;
        let (allocations, large) = count_during(quarter, || {
            assert_eq!(generate(&s, 1_280, 7).len(), len);
        });
        let doublings = u64::from(usize::BITS - len.leading_zeros());
        assert!(len > flows, "{flows} flows made {len} packets");
        assert_eq!(large, 1, "{flows} flows, {len} packets: the output alone");
        assert!(
            allocations <= 1 + doublings,
            "{flows} flows, {len} packets: {allocations} allocations"
        );
    }
}
