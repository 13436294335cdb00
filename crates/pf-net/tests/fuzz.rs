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
use pf_net::segment::{Delivery, FaultCounters, FaultModel, Network, SegmentId};
use pf_net::{LinkId, NodeId, StationId};
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
/// stable under arbitrary interleavings of every constructor.
#[test]
fn fabric_schedule_stays_sorted() {
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

/// A station as the reference sees it.
struct RefStation {
    segment: usize,
    addr: u64,
    promiscuous: bool,
    groups: Vec<u64>,
}

/// A segment as the reference sees it.
struct RefSegment {
    medium: Medium,
    faults: FaultModel,
    up: bool,
    partition_until: SimTime,
    stations: Vec<StationId>,
}

/// `Network` as a scan of every station on the segment, in order, asking
/// each whether it wants the frame: the specification the receiver walk is
/// held to, including the module doc's fault-draw order.
struct Reference {
    rng: SplitMix64,
    segments: Vec<RefSegment>,
    stations: Vec<RefStation>,
    tallies: Vec<FaultCounters>,
}

/// `Segment::propagation`: every segment's, and not public.
const PROPAGATION: SimDuration = SimDuration::from_micros(5);

impl Reference {
    fn transmit(&mut self, from: StationId, f: &[u8], now: SimTime) -> (SimTime, Vec<Delivery>) {
        let seg_id = self.stations[from.0].segment;
        let seg = &mut self.segments[seg_id];
        let (medium, faults, up) = (seg.medium, seg.faults, seg.up);
        let tx_done = now + medium.transmission_delay(f.len());
        let arrival = tx_done + PROPAGATION;
        let tally = &mut self.tallies[seg_id];
        if up && now >= seg.partition_until && self.rng.chance(faults.partition) {
            seg.partition_until = now + faults.partition_duration;
            tally.partition_events += 1;
        }
        let partitioned = now < seg.partition_until;
        let header = frame::parse(&medium, f).ok();
        let mut out = Vec::new();
        for &rcv in &seg.stations {
            let r = &self.stations[rcv.0];
            let wants = r.promiscuous
                || header.is_some_and(|h| {
                    h.dst == r.addr
                        || medium.is_broadcast(h.dst)
                        || (medium.is_multicast(h.dst) && r.groups.contains(&h.dst))
                });
            if rcv == from || !wants {
                continue;
            }
            if !up {
                tally.link_down_drops += 1;
                continue;
            }
            if partitioned {
                tally.partition_drops += 1;
                continue;
            }
            let rng = &mut self.rng;
            let gates = [
                faults.loss,
                faults.duplication,
                faults.corruption,
                faults.truncation,
                faults.reorder,
            ];
            let [lose, dup, corrupt, trunc, reorder] = gates.map(|p| rng.chance(p));
            let mut primary = f.to_vec();
            let mut primary_arrival = arrival;
            if corrupt && !primary.is_empty() {
                let byte = rng.below(primary.len() as u64) as usize;
                primary[byte] ^= 1 << rng.below(8);
                tally.corrupted += 1;
            }
            if trunc && primary.len() > 1 {
                primary.truncate(1 + rng.below(primary.len() as u64 - 1) as usize);
                tally.truncated += 1;
            }
            if reorder && faults.reorder_jitter > SimDuration::ZERO {
                let jitter = 1 + rng.below(faults.reorder_jitter.as_nanos());
                primary_arrival = arrival + SimDuration::from_nanos(jitter);
                tally.reordered += 1;
            }
            if lose {
                tally.lost += 1;
            } else {
                out.push(Delivery {
                    station: rcv,
                    arrival: primary_arrival,
                    frame: primary,
                });
            }
            if dup {
                tally.duplicated += 1;
                out.push(Delivery {
                    station: rcv,
                    arrival: arrival + PROPAGATION,
                    frame: f.to_vec(),
                });
            }
        }
        (tx_done, out)
    }
}

/// Multicast groups on the 10 Mb/s wire, and (as plain listeners that want
/// nothing) on the 3 Mb/s one.
const GROUPS: [u64; 2] = [0x0100_0000_0001, 0x0100_0000_0002];

/// A segment visits only its receivers: on random segments with duplicate
/// addresses, stations going promiscuous and back, joining groups, links
/// going down and partitions starting under every fault gate, broadcasts,
/// group frames, unicasts to held and unheld addresses, runts and empty
/// frames — `Network`'s walk and the every-station scan
/// hand out the same deliveries in the same order, keep the same tallies,
/// and so draw their RNG for the same receivers in the same order.
#[test]
fn the_receiver_walk_matches_a_scan_of_every_station() {
    let mut rng = SplitMix64::new(0xF8A_0008);
    let mut total = FaultCounters::default();
    let mut listener_runts = 0;
    for run in 0..ITERS / 50 {
        let seed = rng.next_u64();
        let mut net = Network::new(seed);
        let mut model = Reference {
            rng: SplitMix64::new(seed),
            segments: Vec::new(),
            stations: Vec::new(),
            tallies: Vec::new(),
        };
        let mut stations = Vec::new();
        for s in 0..1 + rng.below(3) as usize {
            let medium = media()[rng.below(2) as usize];
            let faults = FaultModel {
                loss: 0.05 + 0.2 * rng.next_f64(),
                duplication: 0.05 + 0.2 * rng.next_f64(),
                corruption: 0.05 + 0.2 * rng.next_f64(),
                truncation: 0.05 + 0.2 * rng.next_f64(),
                reorder: 0.05 + 0.2 * rng.next_f64(),
                reorder_jitter: SimDuration::from_micros(1 + rng.below(300)),
                partition: 0.005 + 0.02 * rng.next_f64(),
                partition_duration: SimDuration::from_micros(1 + rng.below(400)),
            };
            assert_eq!(net.add_segment(medium, faults), SegmentId(s));
            model.segments.push(RefSegment {
                medium,
                faults,
                up: true,
                partition_until: SimTime::ZERO,
                stations: Vec::new(),
            });
            model.tallies.push(FaultCounters::default());
            // Few addresses, so that several stations hold each.
            for _ in 0..2 + rng.below(11) {
                let addr = 1 + rng.below(4);
                let id = net.add_station(SegmentId(s), addr);
                model.segments[s].stations.push(id);
                model.stations.push(RefStation {
                    segment: s,
                    addr,
                    promiscuous: false,
                    groups: Vec::new(),
                });
                stations.push(id);
            }
        }
        let mut now = SimTime::ZERO;
        let mut out = Vec::new();
        for step in 0..300 {
            let ctx = format!("run {run} step {step}");
            // Stations change what they listen for, links go up and down.
            let who = stations[rng.below(stations.len() as u64) as usize];
            let r = &mut model.stations[who.0];
            match rng.below(8) {
                0 => {
                    r.promiscuous = !r.promiscuous;
                    net.station(who).set_promiscuous(r.promiscuous);
                }
                1 => {
                    let g = GROUPS[rng.below(2) as usize];
                    if !r.groups.contains(&g) {
                        r.groups.push(g);
                    }
                    net.station(who).join_multicast(g);
                }
                3 if rng.chance(0.3) => {
                    let s = rng.below(model.segments.len() as u64) as usize;
                    let up = !model.segments[s].up;
                    model.segments[s].up = up;
                    net.set_link_state(SegmentId(s), up);
                }
                _ => {}
            }

            let from = stations[rng.below(stations.len() as u64) as usize];
            let medium = *net.medium_of(from);
            let dst = match rng.below(6) {
                0 => medium.broadcast,
                1 if medium.addr_len > 1 => GROUPS[rng.below(2) as usize],
                // Held by nobody.
                2 => 9,
                _ => 1 + rng.below(4),
            };
            let mut f =
                frame::build(&medium, dst, net.addr_of(from), 2, &[step as u8; 20]).unwrap();
            let runt = rng.chance(0.1);
            if runt {
                f.truncate(rng.below(medium.header_len as u64) as usize);
            }
            now += SimDuration::from_micros(rng.below(200));
            let (want_done, want) = model.transmit(from, &f, now);
            out.clear();
            let done = net.transmit_owned(from, f, now, &mut out);
            assert_eq!(done, want_done, "{ctx}: tx_done");
            let key = |d: &Delivery| (d.station, d.arrival, d.frame.clone());
            assert_eq!(
                out.iter().map(key).collect::<Vec<_>>(),
                want.iter().map(key).collect::<Vec<_>>(),
                "{ctx}: deliveries"
            );
            listener_runts += u64::from(runt) * out.len() as u64;
            for s in 0..model.segments.len() {
                assert_eq!(net.faults_on(SegmentId(s)), model.tallies[s], "{ctx}");
            }
        }
        for t in &model.tallies {
            total = FaultCounters {
                lost: total.lost + t.lost,
                duplicated: total.duplicated + t.duplicated,
                corrupted: total.corrupted + t.corrupted,
                truncated: total.truncated + t.truncated,
                reordered: total.reordered + t.reordered,
                partition_events: total.partition_events + t.partition_events,
                partition_drops: total.partition_drops + t.partition_drops,
                link_down_drops: total.link_down_drops + t.link_down_drops,
            };
        }
    }
    // Every gate and every drop fired somewhere, and runts reached their
    // listeners, or the comparison is hollow.
    let fired = [
        total.lost,
        total.duplicated,
        total.corrupted,
        total.truncated,
        total.reordered,
        total.partition_events,
        total.partition_drops,
        total.link_down_drops,
        listener_runts,
    ];
    assert!(fired.iter().all(|&n| n > 0), "{total:?}, {listener_runts}");
}
