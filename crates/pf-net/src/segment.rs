//! Shared-bus segments and attached stations.
//!
//! A [`Network`] holds one or more Ethernet segments. Transmitting a frame
//! computes its time on the wire from the medium's bandwidth and produces a
//! [`Delivery`] for every station whose address filter would accept it
//! (unicast match, broadcast, subscribed multicast, or promiscuous mode).
//! Deterministic fault injection is per segment: loss, duplication, byte
//! corruption (seeded bit flips), truncation, bounded reorder jitter, and
//! transient whole-segment partitions, each with its own rate knob and a
//! per-segment [`FaultCounters`] tally.
//!
//! ## Fault draw order
//!
//! Seed stability matters more than elegance here, so the RNG consumption
//! pattern is part of the contract: per `transmit` call one partition-onset
//! gate is drawn first; then, for every accepting receiver (unless the
//! segment is currently partitioned), the five Bernoulli gates are drawn
//! **unconditionally and in a fixed order** — loss, duplication,
//! corruption, truncation, reorder — followed by the parameter draws for
//! whichever gates fired (corrupt byte index then bit index, kept
//! truncation length, reorder jitter), again in gate order. Because every
//! gate consumes its draw regardless of earlier outcomes, the effective
//! fault rates are independent: a lost frame still consumes the
//! duplication draw, so raising the loss rate no longer skews the
//! duplicate rate (or vice versa).
//!
//! ## Who is visited
//!
//! A transmit visits only the stations that can want the frame, in station
//! order: the holders of its destination address merged with the segment's
//! listeners (promiscuous or multicast-subscribed stations) — every station
//! for a broadcast, the listeners alone for a frame whose header does not
//! parse. Every other station would refuse it, and a refusal draws nothing,
//! so the receivers served and the draws made are those of a scan of every
//! station.
//!
//! The network layer is passive: the host simulation (in `pf-kernel`)
//! schedules the returned deliveries on its event queue. That keeps this
//! crate free of any event-loop coupling.

use crate::frame;
use crate::medium::Medium;
use pf_sim::rng::SplitMix64;
use pf_sim::time::{SimDuration, SimTime};

/// Identifies a segment within a [`Network`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SegmentId(pub usize);

/// Identifies a station (an attached network interface) within a network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StationId(pub usize);

/// Deterministic fault-injection knobs for a segment.
///
/// All probabilities apply per candidate delivery (per accepting receiver)
/// and are drawn independently in the order documented at the module level,
/// except `partition`, which is drawn once per `transmit` call.
#[derive(Debug, Clone, Copy)]
pub struct FaultModel {
    /// Probability a given delivery is silently lost.
    pub loss: f64,
    /// Probability a given delivery is duplicated. The duplicate is a
    /// pristine copy of the transmitted frame arriving one propagation
    /// delay after the nominal arrival, and it is produced even when the
    /// primary copy was selected for loss (two copies on the wire, one
    /// lost).
    pub duplication: f64,
    /// Probability a delivered frame has one randomly chosen bit flipped
    /// in one randomly chosen byte. Corruption happens after the address
    /// decision (the NIC saw the pristine destination) and applies to the
    /// primary copy only.
    pub corruption: f64,
    /// Probability a delivered frame is truncated to a uniformly chosen
    /// prefix of at least one byte (no-op on frames of a single byte).
    pub truncation: f64,
    /// Probability a delivered frame is delayed by extra jitter drawn
    /// uniformly from `(0, reorder_jitter]`, letting later transmissions
    /// overtake it.
    pub reorder: f64,
    /// Upper bound on the reorder jitter. Zero disables reordering even
    /// when the `reorder` gate fires.
    pub reorder_jitter: SimDuration,
    /// Probability, per `transmit` call, that the segment enters a
    /// transient partition during which every delivery on the segment is
    /// dropped (the transmitter still holds the wire; nothing arrives).
    pub partition: f64,
    /// How long a transient partition lasts once it starts.
    pub partition_duration: SimDuration,
}

impl Default for FaultModel {
    fn default() -> Self {
        FaultModel {
            loss: 0.0,
            duplication: 0.0,
            corruption: 0.0,
            truncation: 0.0,
            reorder: 0.0,
            reorder_jitter: SimDuration::from_micros(500),
            partition: 0.0,
            partition_duration: SimDuration::from_millis(20),
        }
    }
}

/// Per-segment tallies of injected faults, one counter per fault kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Deliveries suppressed by the loss gate.
    pub lost: u64,
    /// Extra copies produced by the duplication gate.
    pub duplicated: u64,
    /// Frames that had a bit flipped.
    pub corrupted: u64,
    /// Frames truncated to a prefix.
    pub truncated: u64,
    /// Frames delayed by reorder jitter.
    pub reordered: u64,
    /// Transient partitions that started.
    pub partition_events: u64,
    /// Deliveries suppressed because the segment was partitioned.
    pub partition_drops: u64,
    /// Deliveries suppressed because the link was administratively down
    /// (routing-plane fault injection; see [`Network::set_link_state`]).
    pub link_down_drops: u64,
}

/// One frame arriving at one station.
#[derive(Debug, Clone)]
pub struct Delivery {
    /// The receiving station.
    pub station: StationId,
    /// When the frame has fully arrived.
    pub arrival: SimTime,
    /// The frame bytes (complete, with data-link header).
    pub frame: Vec<u8>,
}

#[derive(Debug)]
struct Station {
    segment: SegmentId,
    addr: u64,
    promiscuous: bool,
    multicast: Vec<u64>,
}

#[derive(Debug)]
struct Segment {
    medium: Medium,
    faults: FaultModel,
    /// Station propagation delay (end-to-end cable time; tiny vs. the
    /// transmission delay, but nonzero keeps causality strict).
    propagation: SimDuration,
    /// Every attached station, in station order.
    stations: Vec<StationId>,
    /// Every attached station by `(addr, station)`: a unicast frame's
    /// holders are one run of it.
    by_addr: Vec<(u64, StationId)>,
    /// Promiscuous or multicast-subscribed stations, in station order.
    listeners: Vec<StationId>,
    /// The segment drops every delivery until this instant (transient
    /// partition fault).
    partition_until: SimTime,
    /// Administrative link state: while `false`, every delivery on the
    /// segment is dropped and no fault draws are consumed.
    up: bool,
}

/// A collection of Ethernet segments and the stations attached to them.
#[derive(Debug)]
pub struct Network {
    segments: Vec<Segment>,
    stations: Vec<Station>,
    rng: SplitMix64,
    /// Frames transmitted per segment (for monitor-style statistics).
    transmitted: Vec<u64>,
    /// Injected-fault tallies per segment.
    faults: Vec<FaultCounters>,
}

impl Network {
    /// Creates an empty network with a deterministic fault-injection seed.
    pub fn new(seed: u64) -> Self {
        Network {
            segments: Vec::new(),
            stations: Vec::new(),
            rng: SplitMix64::new(seed),
            transmitted: Vec::new(),
            faults: Vec::new(),
        }
    }

    /// Adds a segment with the given medium and fault model.
    pub fn add_segment(&mut self, medium: Medium, faults: FaultModel) -> SegmentId {
        let id = SegmentId(self.segments.len());
        self.segments.push(Segment {
            medium,
            faults,
            propagation: SimDuration::from_micros(5),
            stations: Vec::new(),
            by_addr: Vec::new(),
            listeners: Vec::new(),
            partition_until: SimTime::ZERO,
            up: true,
        });
        self.transmitted.push(0);
        self.faults.push(FaultCounters::default());
        id
    }

    /// Replaces a segment's fault model (e.g. to heal or degrade a link
    /// mid-experiment). Counters and partition state are kept.
    pub fn set_faults(&mut self, segment: SegmentId, faults: FaultModel) {
        self.segments[segment.0].faults = faults;
    }

    /// Sets a segment's administrative link state. While down, every
    /// delivery on the segment is dropped (counted in
    /// [`FaultCounters::link_down_drops`]) and *no* fault-model draws
    /// are consumed, so seeded fault patterns on other segments — and on
    /// this one after it comes back — are unaffected by the outage.
    pub fn set_link_state(&mut self, segment: SegmentId, up: bool) {
        self.segments[segment.0].up = up;
    }

    /// Attaches a station with link address `addr` to a segment and
    /// returns its id; use [`Network::station`] for the handle carrying
    /// the per-station operations (promiscuous mode, multicast groups).
    ///
    /// # Panics
    ///
    /// Panics if the segment id is unknown.
    pub fn add_station(&mut self, segment: SegmentId, addr: u64) -> StationId {
        assert!(segment.0 < self.segments.len(), "unknown segment");
        let id = StationId(self.stations.len());
        self.stations.push(Station {
            segment,
            addr,
            promiscuous: false,
            multicast: Vec::new(),
        });
        let seg = &mut self.segments[segment.0];
        seg.stations.push(id);
        // The newest station sorts last among the holders of its address.
        let at = seg.by_addr.partition_point(|&(a, _)| a <= addr);
        seg.by_addr.insert(at, (addr, id));
        id
    }

    /// Files a station under its segment's listeners, or takes it out,
    /// after its promiscuous flag or multicast groups changed.
    fn refile_listener(&mut self, id: StationId) {
        let s = &self.stations[id.0];
        let listens = s.promiscuous || !s.multicast.is_empty();
        let listeners = &mut self.segments[s.segment.0].listeners;
        match (listeners.binary_search_by_key(&id.0, |l| l.0), listens) {
            (Err(at), true) => listeners.insert(at, id),
            (Ok(at), false) => {
                listeners.remove(at);
            }
            _ => {}
        }
    }

    /// A borrow-handle for one station, carrying the per-station surface
    /// that used to live as free methods on `Network`.
    pub fn station(&mut self, id: StationId) -> StationHandle<'_> {
        assert!(id.0 < self.stations.len(), "unknown station");
        StationHandle { net: self, id }
    }

    /// The medium of the segment a station is attached to.
    pub fn medium_of(&self, station: StationId) -> &Medium {
        &self.segments[self.stations[station.0].segment.0].medium
    }

    /// The link address of a station.
    pub fn addr_of(&self, station: StationId) -> u64 {
        self.stations[station.0].addr
    }

    /// Frames transmitted on a segment so far.
    pub fn transmitted_on(&self, segment: SegmentId) -> u64 {
        self.transmitted[segment.0]
    }

    /// Deliveries suppressed by injected loss on a segment so far.
    pub fn lost_on(&self, segment: SegmentId) -> u64 {
        self.faults[segment.0].lost
    }

    /// All injected-fault tallies for a segment so far.
    pub fn faults_on(&self, segment: SegmentId) -> FaultCounters {
        self.faults[segment.0]
    }

    /// Transmits `frame` from `station` starting at `now`: the borrowed
    /// form of [`transmit_owned`](Network::transmit_owned), for callers
    /// that keep their frame.
    ///
    /// Returns the time the transmitter finishes (sender side busy until
    /// then) and the resulting deliveries.
    pub fn transmit(
        &mut self,
        station: StationId,
        frame_bytes: &[u8],
        now: SimTime,
    ) -> (SimTime, Vec<Delivery>) {
        let mut out = Vec::new();
        let tx_done = self.transmit_owned(station, frame_bytes.to_vec(), now, &mut out);
        (tx_done, out)
    }

    /// Transmits `frame` from `station` starting at `now`, pushing the
    /// resulting deliveries onto `out`, and returns the time the
    /// transmitter finishes (sender side busy until then). The sender
    /// never receives its own frame (Ethernet interfaces do not loop
    /// back).
    ///
    /// The buffer travels with the frame: every accepting receiver but the
    /// last is handed a copy, the last one `frame` itself, so a unicast
    /// frame crosses the wire without being copied at all.
    pub fn transmit_owned(
        &mut self,
        station: StationId,
        frame: Vec<u8>,
        now: SimTime,
        out: &mut Vec<Delivery>,
    ) -> SimTime {
        let seg_id = self.stations[station.0].segment.0;
        let seg = &self.segments[seg_id];
        let medium = seg.medium;
        let tx_done = now + medium.transmission_delay(frame.len());
        let arrival = tx_done + seg.propagation;
        self.transmitted[seg_id] += 1;

        // An administratively-down link consumes no fault draws at all:
        // the transmitter still holds the wire for the frame time, every
        // would-be delivery is counted and dropped, and the seeded fault
        // pattern resumes exactly where it left off once the link heals.
        let up = seg.up;
        // Fault application follows the draw order documented at the module
        // level; changing the order or adding a draw changes every seeded
        // fault pattern, so treat it as a wire-format-stable contract.
        if up && now >= seg.partition_until && self.rng.chance(seg.faults.partition) {
            let seg = &mut self.segments[seg_id];
            seg.partition_until = now + seg.faults.partition_duration;
            self.faults[seg_id].partition_events += 1;
        }
        let partitioned = now < self.segments[seg_id].partition_until;

        let header = frame::parse(&medium, &frame).ok();
        let wants = |r: &Station| {
            r.promiscuous
                || header.is_some_and(|h| {
                    h.dst == r.addr
                        || medium.is_broadcast(h.dst)
                        || (medium.is_multicast(h.dst) && r.multicast.contains(&h.dst))
                })
        };
        // Who may want it (module docs, "Who is visited"): every station
        // for a broadcast; otherwise the holders of the destination,
        // `by_addr[i..hi]` (none for a runt), merged with the listeners.
        let seg = &self.segments[seg_id];
        let (everyone, mut i, hi) = match header {
            Some(h) if medium.is_broadcast(h.dst) => (true, 0, 0),
            Some(h) => (
                false,
                seg.by_addr.partition_point(|&(a, _)| a < h.dst),
                seg.by_addr.partition_point(|&(a, _)| a <= h.dst),
            ),
            None => (false, 0, 0),
        };
        let mut j = 0;
        // The receiver whose delivery is still owed: it is served with a
        // copy once a later receiver turns up, with `frame` itself if none
        // does. Receivers are served, and their fault draws made, in
        // station order either way.
        let mut owed: Option<StationId> = None;
        loop {
            let seg = &self.segments[seg_id];
            let (holder, listener) = if everyone {
                (seg.stations.get(i).copied(), None)
            } else {
                let holder = seg.by_addr[..hi].get(i).map(|&(_, s)| s);
                (holder, seg.listeners.get(j).copied())
            };
            let rcv = match (holder, listener) {
                (None, None) => break,
                (Some(h), Some(l)) if l.0 < h.0 => {
                    j += 1;
                    l
                }
                (Some(h), l) => {
                    i += 1;
                    j += usize::from(l == Some(h));
                    h
                }
                (None, Some(l)) => {
                    j += 1;
                    l
                }
            };
            if rcv == station || !wants(&self.stations[rcv.0]) {
                continue;
            }
            if !up {
                self.faults[seg_id].link_down_drops += 1;
            } else if partitioned {
                self.faults[seg_id].partition_drops += 1;
            } else if let Some(earlier) = owed.replace(rcv) {
                self.deliver(seg_id, earlier, frame.clone(), arrival, out);
            }
        }
        if let Some(last) = owed {
            self.deliver(seg_id, last, frame, arrival, out);
        }
        tx_done
    }

    /// Passes one receiver's copy of a frame through the segment's fault
    /// gates and pushes what survives (and any duplicate) onto `out`.
    fn deliver(
        &mut self,
        seg_id: usize,
        rcv: StationId,
        mut primary: Vec<u8>,
        arrival: SimTime,
        out: &mut Vec<Delivery>,
    ) {
        let faults = self.segments[seg_id].faults;
        let tally = &mut self.faults[seg_id];
        // Independent Bernoulli gates, fixed order (see module docs).
        let lose = self.rng.chance(faults.loss);
        let dup = self.rng.chance(faults.duplication);
        let corrupt = self.rng.chance(faults.corruption);
        let trunc = self.rng.chance(faults.truncation);
        let reorder = self.rng.chance(faults.reorder);

        // The duplicate is pristine: taken before any damage is done.
        let duplicate = dup.then(|| primary.clone());
        let mut primary_arrival = arrival;
        if corrupt && !primary.is_empty() {
            let byte = self.rng.below(primary.len() as u64) as usize;
            let bit = self.rng.below(8) as u32;
            primary[byte] ^= 1u8 << bit;
            tally.corrupted += 1;
        }
        if trunc && primary.len() > 1 {
            let keep = 1 + self.rng.below(primary.len() as u64 - 1) as usize;
            primary.truncate(keep);
            tally.truncated += 1;
        }
        if reorder && faults.reorder_jitter > SimDuration::ZERO {
            let jitter = 1 + self.rng.below(faults.reorder_jitter.as_nanos());
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
        if let Some(frame) = duplicate {
            tally.duplicated += 1;
            out.push(Delivery {
                station: rcv,
                arrival: arrival + self.segments[seg_id].propagation,
                frame,
            });
        }
    }
}

/// Mutable handle to one attached station.
///
/// Returned by [`Network::station`] (and, for deployed topologies, by
/// the topology layer); carries the per-station operations that used to
/// be free methods on [`Network`]:
///
/// ```
/// use pf_net::medium::Medium;
/// use pf_net::segment::{FaultModel, Network};
///
/// let mut net = Network::new(0);
/// let seg = net.add_segment(Medium::standard_10mb(), FaultModel::default());
/// let id = net.add_station(seg, 0x11);
/// net.station(id).set_promiscuous(true);
/// net.station(id).join_multicast(0x0180_0000_0001);
/// assert_eq!(net.station(id).addr(), 0x11);
/// ```
pub struct StationHandle<'a> {
    net: &'a mut Network,
    id: StationId,
}

impl StationHandle<'_> {
    /// The station's id (stable across the life of the network).
    pub fn id(&self) -> StationId {
        self.id
    }

    /// The segment this station is attached to.
    pub fn segment(&self) -> SegmentId {
        self.net.stations[self.id.0].segment
    }

    /// The station's link address.
    pub fn addr(&self) -> u64 {
        self.net.stations[self.id.0].addr
    }

    /// The medium of the segment this station is attached to.
    pub fn medium(&self) -> &Medium {
        self.net.medium_of(self.id)
    }

    /// Puts the station in (or out of) promiscuous mode — it then
    /// receives every frame on its segment, as a network monitor's
    /// interface does.
    pub fn set_promiscuous(&mut self, on: bool) {
        self.net.stations[self.id.0].promiscuous = on;
        self.net.refile_listener(self.id);
    }

    /// Subscribes the station to a multicast group address.
    pub fn join_multicast(&mut self, group: u64) {
        let s = &mut self.net.stations[self.id.0];
        if !s.multicast.contains(&group) {
            s.multicast.push(group);
        }
        self.net.refile_listener(self.id);
    }

    /// Leaves a multicast group.
    pub fn leave_multicast(&mut self, group: u64) {
        self.net.stations[self.id.0]
            .multicast
            .retain(|g| *g != group);
        self.net.refile_listener(self.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::build;

    fn net_with_three_stations() -> (Network, SegmentId, StationId, StationId, StationId) {
        let mut net = Network::new(1);
        let seg = net.add_segment(Medium::experimental_3mb(), FaultModel::default());
        let a = net.add_station(seg, 0x0A);
        let b = net.add_station(seg, 0x0B);
        let c = net.add_station(seg, 0x0C);
        (net, seg, a, b, c)
    }

    #[test]
    fn unicast_reaches_only_destination() {
        let (mut net, _, a, b, _c) = net_with_three_stations();
        let m = *net.medium_of(a);
        let f = build(&m, 0x0B, 0x0A, 2, &[1, 2]).unwrap();
        let (_done, deliveries) = net.transmit(a, &f, SimTime::ZERO);
        assert_eq!(deliveries.len(), 1);
        assert_eq!(deliveries[0].station, b);
        assert_eq!(deliveries[0].frame, f);
    }

    #[test]
    fn broadcast_reaches_everyone_but_sender() {
        let (mut net, _, a, b, c) = net_with_three_stations();
        let m = *net.medium_of(a);
        let f = build(&m, m.broadcast, 0x0A, 2, &[]).unwrap();
        let (_, deliveries) = net.transmit(a, &f, SimTime::ZERO);
        let mut stations: Vec<_> = deliveries.iter().map(|d| d.station).collect();
        stations.sort_by_key(|s| s.0);
        assert_eq!(stations, vec![b, c]);
    }

    #[test]
    fn promiscuous_station_sees_everything() {
        let (mut net, _, a, b, c) = net_with_three_stations();
        net.station(c).set_promiscuous(true);
        let m = *net.medium_of(a);
        let f = build(&m, 0x0B, 0x0A, 2, &[]).unwrap();
        let (_, deliveries) = net.transmit(a, &f, SimTime::ZERO);
        let mut stations: Vec<_> = deliveries.iter().map(|d| d.station).collect();
        stations.sort_by_key(|s| s.0);
        assert_eq!(stations, vec![b, c]);
    }

    #[test]
    fn timing_follows_bandwidth() {
        let (mut net, _, a, _b, _c) = net_with_three_stations();
        let m = *net.medium_of(a);
        let f = build(&m, 0x0B, 0x0A, 2, &vec![0u8; 371]).unwrap(); // 375 bytes
        let (done, deliveries) = net.transmit(a, &f, SimTime::ZERO);
        // 375 B × 8 / 3 Mb/s = 1 ms.
        assert_eq!(done, SimTime(1_000_000));
        assert_eq!(deliveries[0].arrival, SimTime(1_005_000)); // + 5 µs propagation
    }

    #[test]
    fn multicast_on_10mb() {
        let mut net = Network::new(1);
        let seg = net.add_segment(Medium::standard_10mb(), FaultModel::default());
        let a = net.add_station(seg, 0x0200_0000_000A);
        let b = net.add_station(seg, 0x0200_0000_000B);
        let c = net.add_station(seg, 0x0200_0000_000C);
        let group = 0x0100_0000_0077u64;
        net.station(b).join_multicast(group);
        let m = *net.medium_of(a);
        let f = build(&m, group, net.addr_of(a), 0x0800, &[]).unwrap();
        let (_, deliveries) = net.transmit(a, &f, SimTime::ZERO);
        assert_eq!(deliveries.len(), 1);
        assert_eq!(deliveries[0].station, b);
        let _ = c;
        // After leaving, nobody receives.
        net.station(b).leave_multicast(group);
        let (_, deliveries) = net.transmit(a, &f, SimTime::ZERO);
        assert!(deliveries.is_empty());
    }

    #[test]
    fn loss_injection_suppresses_deliveries() {
        let mut net = Network::new(7);
        let seg = net.add_segment(
            Medium::experimental_3mb(),
            FaultModel {
                loss: 1.0,
                ..FaultModel::default()
            },
        );
        let a = net.add_station(seg, 1);
        let _b = net.add_station(seg, 2);
        let m = *net.medium_of(a);
        let f = build(&m, 2, 1, 2, &[]).unwrap();
        let (_, deliveries) = net.transmit(a, &f, SimTime::ZERO);
        assert!(deliveries.is_empty());
        assert_eq!(net.lost_on(seg), 1);
        assert_eq!(net.transmitted_on(seg), 1);
    }

    #[test]
    fn duplication_injection() {
        let mut net = Network::new(7);
        let seg = net.add_segment(
            Medium::experimental_3mb(),
            FaultModel {
                duplication: 1.0,
                ..FaultModel::default()
            },
        );
        let a = net.add_station(seg, 1);
        let b = net.add_station(seg, 2);
        let m = *net.medium_of(a);
        let f = build(&m, 2, 1, 2, &[]).unwrap();
        let (_, deliveries) = net.transmit(a, &f, SimTime::ZERO);
        assert_eq!(deliveries.len(), 2);
        assert!(deliveries.iter().all(|d| d.station == b));
        assert!(deliveries[1].arrival > deliveries[0].arrival);
    }

    #[test]
    fn determinism_across_runs() {
        let run = || {
            let mut net = Network::new(99);
            let seg = net.add_segment(
                Medium::experimental_3mb(),
                FaultModel {
                    loss: 0.3,
                    duplication: 0.1,
                    corruption: 0.2,
                    truncation: 0.1,
                    reorder: 0.2,
                    partition: 0.01,
                    ..FaultModel::default()
                },
            );
            let a = net.add_station(seg, 1);
            let _b = net.add_station(seg, 2);
            let m = *net.medium_of(a);
            let f = build(&m, 2, 1, 2, &[0; 32]).unwrap();
            let mut pattern = Vec::new();
            for _ in 0..50 {
                let (_, d) = net.transmit(a, &f, SimTime::ZERO);
                pattern.push(d.len());
            }
            pattern
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn corruption_flips_exactly_one_bit() {
        let mut net = Network::new(11);
        let seg = net.add_segment(
            Medium::experimental_3mb(),
            FaultModel {
                corruption: 1.0,
                ..FaultModel::default()
            },
        );
        let a = net.add_station(seg, 1);
        let _b = net.add_station(seg, 2);
        let m = *net.medium_of(a);
        let f = build(&m, 2, 1, 2, &[0xAA; 64]).unwrap();
        for _ in 0..20 {
            let (_, deliveries) = net.transmit(a, &f, SimTime::ZERO);
            assert_eq!(deliveries.len(), 1);
            let got = &deliveries[0].frame;
            assert_eq!(got.len(), f.len());
            let flipped: u32 = got
                .iter()
                .zip(f.iter())
                .map(|(x, y)| (x ^ y).count_ones())
                .sum();
            assert_eq!(flipped, 1, "exactly one bit flips per corruption");
        }
        assert_eq!(net.faults_on(seg).corrupted, 20);
    }

    #[test]
    fn truncation_yields_proper_prefix() {
        let mut net = Network::new(12);
        let seg = net.add_segment(
            Medium::experimental_3mb(),
            FaultModel {
                truncation: 1.0,
                ..FaultModel::default()
            },
        );
        let a = net.add_station(seg, 1);
        let _b = net.add_station(seg, 2);
        let m = *net.medium_of(a);
        let f = build(&m, 2, 1, 2, &[7; 40]).unwrap();
        for _ in 0..20 {
            let (_, deliveries) = net.transmit(a, &f, SimTime::ZERO);
            let got = &deliveries[0].frame;
            assert!(!got.is_empty() && got.len() < f.len());
            assert_eq!(got[..], f[..got.len()], "truncation keeps a prefix");
        }
        assert_eq!(net.faults_on(seg).truncated, 20);
    }

    #[test]
    fn reorder_delays_primary_within_bound() {
        let jitter = SimDuration::from_micros(100);
        let mut net = Network::new(13);
        let seg = net.add_segment(
            Medium::experimental_3mb(),
            FaultModel {
                reorder: 1.0,
                reorder_jitter: jitter,
                ..FaultModel::default()
            },
        );
        let a = net.add_station(seg, 1);
        let _b = net.add_station(seg, 2);
        let m = *net.medium_of(a);
        let f = build(&m, 2, 1, 2, &[]).unwrap();
        let (done, deliveries) = net.transmit(a, &f, SimTime::ZERO);
        let nominal = done + SimDuration::from_micros(5);
        assert!(deliveries[0].arrival > nominal);
        assert!(deliveries[0].arrival <= nominal + jitter);
        assert_eq!(net.faults_on(seg).reordered, 1);
    }

    #[test]
    fn partition_drops_everything_then_heals() {
        let mut net = Network::new(14);
        let seg = net.add_segment(
            Medium::experimental_3mb(),
            FaultModel {
                partition: 1.0,
                partition_duration: SimDuration::from_millis(20),
                ..FaultModel::default()
            },
        );
        let a = net.add_station(seg, 1);
        let _b = net.add_station(seg, 2);
        let m = *net.medium_of(a);
        let f = build(&m, 2, 1, 2, &[]).unwrap();
        let (_, d) = net.transmit(a, &f, SimTime::ZERO);
        assert!(d.is_empty(), "partition drops all deliveries");
        assert_eq!(net.faults_on(seg).partition_events, 1);
        assert_eq!(net.faults_on(seg).partition_drops, 1);
        // Heal the fault model: the existing partition still runs out its
        // clock, then deliveries resume.
        net.set_faults(seg, FaultModel::default());
        let (_, d) = net.transmit(a, &f, SimTime(1_000_000));
        assert!(d.is_empty(), "still inside the 20 ms partition window");
        let (_, d) = net.transmit(a, &f, SimTime(25_000_000));
        assert_eq!(d.len(), 1, "partition over, delivery resumes");
    }

    #[test]
    fn duplication_rate_is_independent_of_loss_rate() {
        // Satellite fix: the duplication gate must consume its draw even
        // for lost frames, so the effective duplicate rate cannot be
        // skewed by the loss rate (the pre-fix code skipped the dup draw
        // whenever loss fired).
        let dup_count = |loss: f64| {
            let mut net = Network::new(4242);
            let seg = net.add_segment(
                Medium::experimental_3mb(),
                FaultModel {
                    loss,
                    duplication: 0.3,
                    ..FaultModel::default()
                },
            );
            let a = net.add_station(seg, 1);
            let _b = net.add_station(seg, 2);
            let m = *net.medium_of(a);
            let f = build(&m, 2, 1, 2, &[]).unwrap();
            for _ in 0..2000 {
                net.transmit(a, &f, SimTime::ZERO);
            }
            net.faults_on(seg).duplicated
        };
        let lossless = dup_count(0.0);
        let lossy = dup_count(0.8);
        for n in [lossless, lossy] {
            assert!(
                (500..700).contains(&n),
                "≈ 0.3 × 2000 duplicates expected regardless of loss, got {n}"
            );
        }
    }

    #[test]
    fn separate_segments_are_isolated() {
        let mut net = Network::new(1);
        let s1 = net.add_segment(Medium::experimental_3mb(), FaultModel::default());
        let s2 = net.add_segment(Medium::experimental_3mb(), FaultModel::default());
        let a = net.add_station(s1, 1);
        let _b = net.add_station(s2, 1); // same address, different wire
        let m = *net.medium_of(a);
        let f = build(&m, 1, 1, 2, &[]).unwrap();
        let (_, deliveries) = net.transmit(a, &f, SimTime::ZERO);
        assert!(deliveries.is_empty(), "no cross-segment delivery");
    }

    /// Migrated from the removed one-PR deprecation shims
    /// (`Network::attach/set_promiscuous/join_multicast/leave_multicast`):
    /// the `StationHandle` surface covers the same multicast + snoop
    /// scenario the shims were pinned against.
    #[test]
    fn station_handle_surface_covers_former_shims() {
        let group = 0x0100_0000_0001u64;
        let mut net = Network::new(9);
        let seg = net.add_segment(Medium::standard_10mb(), FaultModel::default());
        let a = net.add_station(seg, 1);
        let b = net.add_station(seg, 2);
        let snoop = net.add_station(seg, 3);
        net.station(snoop).set_promiscuous(true);
        net.station(b).join_multicast(group);
        let m = *net.medium_of(a);
        let f = build(&m, group, 1, 2, &[]).unwrap();
        let (_, deliveries) = net.transmit(a, &f, SimTime::ZERO);
        let mut who: Vec<usize> = deliveries.iter().map(|d| d.station.0).collect();
        who.sort_unstable();
        assert_eq!(
            who,
            vec![b.0, snoop.0],
            "multicast member + promiscuous snoop"
        );
        net.station(b).leave_multicast(group);
        let (_, deliveries) = net.transmit(a, &f, SimTime::ZERO);
        let who: Vec<usize> = deliveries.iter().map(|d| d.station.0).collect();
        assert_eq!(who, vec![snoop.0], "after leave only the snoop hears it");
    }

    /// `transmit` as it stood before frames were owned end to end: one
    /// copy per accepting receiver, made whether or not the frame survives.
    /// Kept as the specification of deliveries, tallies and draw order.
    fn reference_transmit(
        net: &mut Network,
        station: StationId,
        frame_bytes: &[u8],
        now: SimTime,
    ) -> (SimTime, Vec<Delivery>) {
        let seg_id = net.stations[station.0].segment;
        let seg = &net.segments[seg_id.0];
        let (medium, faults, propagation, up) = (seg.medium, seg.faults, seg.propagation, seg.up);
        let tx_done = now + medium.transmission_delay(frame_bytes.len());
        let arrival = tx_done + propagation;
        net.transmitted[seg_id.0] += 1;
        let header = frame::parse(&medium, frame_bytes).ok();
        let mut out = Vec::new();
        let receivers: Vec<StationId> = seg.stations.clone();
        if up && now >= net.segments[seg_id.0].partition_until && net.rng.chance(faults.partition) {
            net.segments[seg_id.0].partition_until = now + faults.partition_duration;
            net.faults[seg_id.0].partition_events += 1;
        }
        let partitioned = now < net.segments[seg_id.0].partition_until;
        for rcv in receivers {
            let r = &net.stations[rcv.0];
            let wants = r.promiscuous
                || header.is_some_and(|h| {
                    h.dst == r.addr
                        || medium.is_broadcast(h.dst)
                        || (medium.is_multicast(h.dst) && r.multicast.contains(&h.dst))
                });
            if rcv == station || !wants {
                continue;
            }
            if !up {
                net.faults[seg_id.0].link_down_drops += 1;
                continue;
            }
            if partitioned {
                net.faults[seg_id.0].partition_drops += 1;
                continue;
            }
            let lose = net.rng.chance(faults.loss);
            let dup = net.rng.chance(faults.duplication);
            let corrupt = net.rng.chance(faults.corruption);
            let trunc = net.rng.chance(faults.truncation);
            let reorder = net.rng.chance(faults.reorder);
            let mut primary = frame_bytes.to_vec();
            let mut primary_arrival = arrival;
            if corrupt && !primary.is_empty() {
                let byte = net.rng.below(primary.len() as u64) as usize;
                let bit = net.rng.below(8) as u32;
                primary[byte] ^= 1u8 << bit;
                net.faults[seg_id.0].corrupted += 1;
            }
            if trunc && primary.len() > 1 {
                let keep = 1 + net.rng.below(primary.len() as u64 - 1) as usize;
                primary.truncate(keep);
                net.faults[seg_id.0].truncated += 1;
            }
            if reorder && faults.reorder_jitter > SimDuration::ZERO {
                let jitter = 1 + net.rng.below(faults.reorder_jitter.as_nanos());
                primary_arrival = arrival + SimDuration::from_nanos(jitter);
                net.faults[seg_id.0].reordered += 1;
            }
            if lose {
                net.faults[seg_id.0].lost += 1;
            } else {
                out.push(Delivery {
                    station: rcv,
                    arrival: primary_arrival,
                    frame: primary,
                });
            }
            if dup {
                net.faults[seg_id.0].duplicated += 1;
                out.push(Delivery {
                    station: rcv,
                    arrival: arrival + propagation,
                    frame: frame_bytes.to_vec(),
                });
            }
        }
        (tx_done, out)
    }

    /// Two segments under every fault at once, five stations each: plain,
    /// promiscuous, and (on the 10 Mb/s wire) multicast members.
    fn faulty_network(seed: u64) -> (Network, Vec<StationId>) {
        let faults = FaultModel {
            loss: 0.2,
            duplication: 0.15,
            corruption: 0.2,
            truncation: 0.15,
            reorder: 0.2,
            partition: 0.02,
            partition_duration: SimDuration::from_micros(300),
            ..FaultModel::default()
        };
        let mut net = Network::new(seed);
        let mut stations = Vec::new();
        for medium in [Medium::experimental_3mb(), Medium::standard_10mb()] {
            let seg = net.add_segment(medium, faults);
            for addr in 1..=5u64 {
                let id = net.add_station(seg, addr);
                net.station(id).set_promiscuous(addr == 4);
                if addr % 2 == 1 {
                    net.station(id).join_multicast(0x0100_0000_0001);
                }
                stations.push(id);
            }
        }
        (net, stations)
    }

    #[test]
    fn owned_transmit_matches_the_reference_under_every_fault() {
        for seed in 0..6u64 {
            let (mut net, stations) = faulty_network(seed);
            let (mut reference, _) = faulty_network(seed);
            let mut rng = SplitMix64::new(0x7E57 ^ seed);
            let mut now = SimTime::ZERO;
            let mut out = Vec::new();
            for step in 0..2_000 {
                let from = stations[rng.below(stations.len() as u64) as usize];
                let medium = *net.medium_of(from);
                let dst = match rng.below(4) {
                    0 => medium.broadcast,
                    1 => 0x0100_0000_0001 & ((1 << (8 * medium.addr_len)) - 1),
                    _ => 1 + rng.below(6),
                };
                let mut f = build(&medium, dst, net.addr_of(from), 2, &[step as u8; 24]).unwrap();
                // Runts, down to the empty frame, reach only the snoop.
                if rng.chance(0.1) {
                    f.truncate(rng.below(medium.header_len as u64) as usize);
                }
                if rng.chance(0.05) {
                    let seg = SegmentId(rng.below(2) as usize);
                    let up = rng.chance(0.5);
                    net.set_link_state(seg, up);
                    reference.set_link_state(seg, up);
                }
                now += SimDuration::from_micros(rng.below(200));
                let want = reference_transmit(&mut reference, from, &f, now);
                // The borrowed adapter and the owned core are one path.
                let got = if step % 2 == 0 {
                    net.transmit(from, &f, now)
                } else {
                    out.clear();
                    (net.transmit_owned(from, f, now, &mut out), out.clone())
                };
                assert_eq!(got.0, want.0, "seed {seed} step {step}: tx_done");
                let key = |d: &Delivery| (d.station, d.arrival, d.frame.clone());
                assert_eq!(
                    got.1.iter().map(key).collect::<Vec<_>>(),
                    want.1.iter().map(key).collect::<Vec<_>>(),
                    "seed {seed} step {step}: deliveries"
                );
                assert_eq!(
                    net.rng.clone().next_u64(),
                    reference.rng.clone().next_u64(),
                    "seed {seed} step {step}: RNG stream"
                );
            }
            for seg in [SegmentId(0), SegmentId(1)] {
                let tally = net.faults_on(seg);
                assert_eq!(tally, reference.faults_on(seg));
                assert_eq!(net.transmitted_on(seg), reference.transmitted_on(seg));
                // Every gate fired somewhere, or the comparison is hollow.
                let fired = [
                    tally.lost,
                    tally.duplicated,
                    tally.corrupted,
                    tally.truncated,
                    tally.reordered,
                    tally.partition_events,
                    tally.partition_drops,
                    tally.link_down_drops,
                ];
                assert!(fired.iter().all(|&n| n > 0), "seed {seed}: {tally:?}");
            }
        }
    }

    #[test]
    fn unicast_with_a_snoop_is_copied_once_and_alone_not_at_all() {
        let (mut net, _, a, b, c) = net_with_three_stations();
        let m = *net.medium_of(a);
        let f = build(&m, 0x0B, 0x0A, 2, &[7; 40]).unwrap();
        let buffer = f.as_ptr();
        let mut out = Vec::new();
        net.transmit_owned(a, f.clone(), SimTime::ZERO, &mut out);
        assert_eq!(out.len(), 1);
        net.station(c).set_promiscuous(true);
        net.transmit_owned(a, f, SimTime::ZERO, &mut out);
        let who: Vec<StationId> = out.iter().map(|d| d.station).collect();
        assert_eq!(who, vec![b, b, c], "deliveries are appended to `out`");
        assert_eq!(
            out[2].frame.as_ptr(),
            buffer,
            "the last receiver gets the buffer"
        );
        assert_ne!(out[1].frame.as_ptr(), buffer, "the one before it a copy");
    }

    #[test]
    fn link_down_drops_everything_and_consumes_no_draws() {
        let faults = FaultModel {
            loss: 0.3,
            duplication: 0.2,
            corruption: 0.2,
            ..FaultModel::default()
        };
        // Reference pattern: 20 transmits on an always-up link.
        let pattern = |downs: &[usize]| {
            let mut net = Network::new(77);
            let seg = net.add_segment(Medium::experimental_3mb(), faults);
            let a = net.add_station(seg, 1);
            let _b = net.add_station(seg, 2);
            let m = *net.medium_of(a);
            let f = build(&m, 2, 1, 2, &[0; 16]).unwrap();
            let mut got = Vec::new();
            for i in 0..20 {
                let down = downs.contains(&i);
                net.set_link_state(seg, !down);
                let (_, d) = net.transmit(a, &f, SimTime::ZERO);
                if down {
                    assert!(d.is_empty(), "down link delivers nothing");
                } else {
                    got.push(d.len());
                }
            }
            (got, net.faults_on(seg).link_down_drops)
        };
        let (up_pattern, none_dropped) = pattern(&[]);
        assert_eq!(none_dropped, 0);
        // Interleave outages: the surviving transmits must see the exact
        // same seeded fault pattern, because the down transmits consumed
        // no draws.
        let (with_outages, dropped) = pattern(&[3, 4, 11]);
        assert_eq!(dropped, 3, "one accepting receiver per down transmit");
        assert_eq!(with_outages.len(), 17);
        assert_eq!(
            with_outages[..],
            up_pattern[..with_outages.len()],
            "surviving transmits replay the same seeded draws"
        );
    }
}
