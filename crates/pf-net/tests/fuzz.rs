// Structured fuzzing for pf-net's hostile-input surfaces: the frame
// codec (build / parse / payload / pad) on both media, the fabric
// fault-schedule builder, and who a segment delivers a frame to. All
// randomness comes from the in-tree `pf_sim::rng::SplitMix64`, so a
// failure reproduces from the constant seed. Each target runs 1,000
// seeded iterations under the debug profile and 10,000 under
// `cargo test --release`.

use pf_net::fabric::{FabricAction, FabricSchedule};
use pf_net::frame;
use pf_net::medium::Medium;
use pf_net::segment::{FaultModel, Network};
use pf_net::{LinkId, NodeId};
use pf_sim::rng::SplitMix64;
use pf_sim::time::{SimDuration, SimTime};

const ITERS: u32 = if cfg!(debug_assertions) {
    1_000
} else {
    10_000
};

fn media() -> [Medium; 2] {
    [Medium::experimental_3mb(), Medium::standard_10mb()]
}

/// A link address biased toward the medium's boundary cases: in-range,
/// exactly at the width limit, far out of range, broadcast.
fn fuzz_addr(rng: &mut SplitMix64, medium: &Medium) -> u64 {
    let bits = medium.addr_len * 8;
    match rng.below(5) {
        0 => rng.next_u64(),
        1 if bits < 64 => 1u64 << bits,
        2 if bits < 64 => (1u64 << bits) - 1,
        3 => medium.broadcast,
        _ => rng.next_u64() & ((1u64 << bits.min(63)) - 1),
    }
}

/// `build` must be total (no panics), reject exactly the documented
/// inputs, and everything it accepts must round-trip through `parse`
/// and `payload` bit-for-bit.
#[test]
fn frame_build_parse_round_trip_is_total() {
    let mut rng = SplitMix64::new(0xF8A_0001);
    let media = media();
    for _ in 0..ITERS {
        let medium = &media[rng.below(2) as usize];
        let dst = fuzz_addr(&mut rng, medium);
        let src = fuzz_addr(&mut rng, medium);
        let ethertype = rng.next_u64() as u16;
        // Bias payload lengths around the max-packet boundary.
        let len = if rng.chance(0.3) {
            let slack = medium.max_packet - medium.header_len;
            (slack as u64)
                .saturating_add(rng.below(8))
                .saturating_sub(4) as usize
        } else {
            rng.below(medium.max_packet as u64 + 64) as usize
        };
        let payload: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();

        let bits = medium.addr_len * 8;
        let fits = |a: u64| bits >= 64 || a < (1u64 << bits);
        let too_long = medium.header_len + payload.len() > medium.max_packet;
        match frame::build(medium, dst, src, ethertype, &payload) {
            Ok(f) => {
                assert!(fits(dst) && fits(src) && !too_long);
                assert_eq!(f.len(), medium.header_len + payload.len());
                let h = frame::parse(medium, &f).expect("built frames parse");
                assert_eq!((h.dst, h.src, h.ethertype), (dst, src, ethertype));
                assert_eq!(frame::payload(medium, &f).unwrap(), &payload[..]);
            }
            Err(_) => assert!(!fits(dst) || !fits(src) || too_long),
        }
    }
}

/// `parse` and `payload` never panic on arbitrary byte soup — including
/// truncations below the header — and agree with each other on whether
/// the header fits.
#[test]
fn frame_parse_survives_corruption_and_truncation() {
    let mut rng = SplitMix64::new(0xF8A_0002);
    let media = media();
    for _ in 0..ITERS {
        let medium = &media[rng.below(2) as usize];
        let mut bytes: Vec<u8> = (0..rng.below(80)).map(|_| rng.next_u64() as u8).collect();
        if rng.chance(0.5) && !bytes.is_empty() {
            // Flip a few bits of an otherwise-valid frame too.
            let f = frame::build(medium, 1, 2, 0x0800, &bytes.clone())
                .unwrap_or_else(|_| bytes.clone());
            bytes = f;
            for _ in 0..rng.below(4) {
                let i = rng.below(bytes.len() as u64) as usize;
                bytes[i] ^= 1 << rng.below(8);
            }
            if rng.chance(0.3) {
                bytes.truncate(rng.below(bytes.len() as u64 + 1) as usize);
            }
        }
        let parsed = frame::parse(medium, &bytes);
        let body = frame::payload(medium, &bytes);
        assert_eq!(
            parsed.is_ok(),
            bytes.len() >= medium.header_len,
            "parse succeeds exactly when the header fits"
        );
        assert_eq!(parsed.is_ok(), body.is_ok(), "parse and payload agree");
        if let Ok(b) = body {
            assert_eq!(b.len(), bytes.len() - medium.header_len);
        }
    }
}

/// `pad` is clamped, monotone, and prefix-preserving for any request.
#[test]
fn frame_pad_is_clamped_and_prefix_preserving() {
    let mut rng = SplitMix64::new(0xF8A_0003);
    let media = media();
    for _ in 0..ITERS {
        let medium = &media[rng.below(2) as usize];
        let mut f: Vec<u8> = (0..rng.below(medium.max_packet as u64 + 16))
            .map(|_| rng.next_u64() as u8)
            .collect();
        let before = f.clone();
        let want = rng.below(2 * medium.max_packet as u64) as usize;
        let added = frame::pad(medium, &mut f, want);
        assert_eq!(f.len(), before.len() + added);
        assert!(f.len() >= before.len(), "pad never shrinks");
        assert!(
            f.len() <= medium.max_packet.max(before.len()),
            "pad never grows past the medium's maximum"
        );
        assert_eq!(&f[..before.len()], &before[..], "existing bytes untouched");
        assert!(f[before.len()..].iter().all(|&b| b == 0));
    }
}

/// The fault-schedule builder keeps its event list time-sorted and
/// stable under arbitrary interleavings of every constructor, and
/// `random_chaos` is a pure function of its seed.
#[test]
fn fabric_schedule_stays_sorted_and_deterministic() {
    let mut rng = SplitMix64::new(0xF8A_0004);
    for _ in 0..ITERS {
        let mut s = FabricSchedule::new();
        let ops = rng.below(12);
        for _ in 0..ops {
            let at = SimTime(rng.below(5_000_000_000));
            let node = NodeId(rng.below(16) as usize);
            let link = LinkId(rng.below(16) as usize);
            match rng.below(5) {
                0 => s.push(
                    at,
                    if rng.chance(0.5) {
                        FabricAction::RouterDown(node)
                    } else {
                        FabricAction::RouterUp(node)
                    },
                ),
                1 => s.router_outage(
                    node,
                    at,
                    rng.chance(0.5).then(|| SimTime(at.0 + rng.below(1 << 30))),
                ),
                2 => s.link_outage(
                    link,
                    at,
                    rng.chance(0.5).then(|| SimTime(at.0 + rng.below(1 << 30))),
                ),
                3 => s.link_flaps(
                    link,
                    at,
                    SimDuration(1 + rng.below(1 << 24)),
                    SimDuration(1 + rng.below(1 << 24)),
                    rng.below(6) as u32,
                ),
                _ => s.partition(
                    &[link],
                    at,
                    rng.chance(0.5).then(|| SimTime(at.0 + rng.below(1 << 30))),
                ),
            }
        }
        let events = s.events();
        assert_eq!(events.len(), s.len());
        assert!(
            events.windows(2).all(|w| w[0].at <= w[1].at),
            "events come out time-sorted"
        );
    }

    // Seed-purity of the chaos generator: same inputs, same schedule.
    let routers: Vec<NodeId> = (0..8usize).map(NodeId).collect();
    let links: Vec<LinkId> = (0..8usize).map(LinkId).collect();
    for seed in 0..64u64 {
        let a = FabricSchedule::random_chaos(
            &routers,
            &links,
            SimTime(2_000_000_000),
            SimDuration::from_millis(200),
            10,
            seed,
        );
        let b = FabricSchedule::random_chaos(
            &routers,
            &links,
            SimTime(2_000_000_000),
            SimDuration::from_millis(200),
            10,
            seed,
        );
        assert_eq!(a.events(), b.events());
    }
}

/// A longer frame never takes less time on either wire, and the 3 Mb
/// wire is strictly slower for any non-empty frame.
#[test]
fn transmission_delay_is_monotonic() {
    let mut rng = SplitMix64::new(0xF8A_0005);
    let [slow, fast] = media();
    for _ in 0..ITERS {
        let (a, b) = (rng.below(2_000) as usize, rng.below(2_000) as usize);
        for m in [&slow, &fast] {
            assert!(m.transmission_delay(a.min(b)) <= m.transmission_delay(a.max(b)));
        }
        assert!(slow.transmission_delay(a + 1) > fast.transmission_delay(a + 1));
    }
}

/// Stations 1..=n on one 3 Mb segment with the given loss rate, station 1
/// transmitting.
fn one_segment(seed: u64, n: u64, loss: f64) -> (Network, Vec<pf_net::StationId>) {
    let mut net = Network::new(seed);
    let seg = net.add_segment(
        Medium::experimental_3mb(),
        FaultModel {
            loss,
            ..FaultModel::default()
        },
    );
    let stations = (1..=n).map(|addr| net.add_station(seg, addr)).collect();
    (net, stations)
}

/// With loss a unicast frame arrives once or not at all — and never at
/// anyone but its addressee.
#[test]
fn unicast_never_leaks_to_third_parties() {
    let mut rng = SplitMix64::new(0xF8A_0006);
    let m = Medium::experimental_3mb();
    for _ in 0..ITERS {
        let n = 3 + rng.below(5);
        let dst = 1 + rng.below(n - 1) as usize;
        let (mut net, stations) = one_segment(rng.next_u64(), n, rng.next_f64() * 0.5);
        let f = frame::build(&m, dst as u64 + 1, 1, 2, &[0; 10]).unwrap();
        let (_, deliveries) = net.transmit(stations[0], &f, SimTime::ZERO);
        assert!(deliveries.len() <= 1);
        assert!(deliveries.iter().all(|d| d.station == stations[dst]));
    }
}

#[test]
fn fault_free_broadcast_reaches_everyone_else() {
    let mut rng = SplitMix64::new(0xF8A_0007);
    let m = Medium::experimental_3mb();
    for _ in 0..ITERS {
        let n = 2 + rng.below(8);
        let (mut net, stations) = one_segment(rng.next_u64(), n, 0.0);
        let f = frame::build(&m, m.broadcast, 1, 2, &[]).unwrap();
        let (_, deliveries) = net.transmit(stations[0], &f, SimTime::ZERO);
        let mut reached: Vec<usize> = deliveries.iter().map(|d| d.station.0).collect();
        reached.sort_unstable();
        let others: Vec<usize> = stations[1..].iter().map(|s| s.0).collect();
        assert_eq!(reached, others);
    }
}
