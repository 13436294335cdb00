//! The flow-level workload generator: declarative specs → deterministic
//! packet schedules.
//!
//! Topology-scale experiments need traffic that looks like an internet,
//! not like a loop: thousands to millions of concurrent flows with
//! realistic arrival processes (Poisson for aggregate background load,
//! Pareto for the bursty heavy tail), elephant/mice size mixes, incast
//! fan-in hot spots, and scheduled routing-churn events. A [`FlowSpec`]
//! declares all of that; [`generate`] expands it into a time-ordered
//! packet schedule, driven entirely by one [`SplitMix64`] stream so the
//! same `(spec, endpoints, seed)` triple is byte-reproducible — the
//! property every BENCH artifact's `seed` field promises.
//!
//! The generator is transport-flavored but payload-agnostic: it emits
//! *who sends how much to whom when* ([`FlowPacket`]); the campaign maps
//! packets onto wire frames for whatever topology it deployed.

use std::cmp::Ordering;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

use pf_sim::rng::SplitMix64;
use pf_sim::time::SimTime;

/// Flow inter-arrival process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arrival {
    /// Poisson flow arrivals at `rate_fps` flows/second (exponential
    /// gaps, memoryless — aggregate background traffic).
    Poisson {
        /// Mean flow-arrival rate, flows per second.
        rate_fps: f64,
    },
    /// Pareto (heavy-tailed) gaps with shape `alpha` and the same mean
    /// rate — bursty arrivals where a few long silences separate packed
    /// trains. `alpha` must exceed 1 for the mean to exist; 1.5–2.5 is
    /// the classic self-similar-traffic range.
    Pareto {
        /// Mean flow-arrival rate, flows per second.
        rate_fps: f64,
        /// Tail shape; smaller is burstier. Must be > 1.
        alpha: f64,
    },
}

/// Flow size mix, in packets per flow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SizeMix {
    /// Every flow carries exactly this many packets.
    Fixed(usize),
    /// The classic bimodal internet mix: most flows are mice, a small
    /// fraction are elephants carrying most of the bytes.
    ElephantsAndMice {
        /// Packets in a mouse flow.
        mice: usize,
        /// Packets in an elephant flow.
        elephants: usize,
        /// Fraction of flows that are elephants (0.0–1.0).
        elephant_fraction: f64,
    },
}

/// Who talks to whom.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pattern {
    /// Source and destination drawn uniformly (and distinctly) across
    /// all endpoints.
    Uniform,
    /// Incast: `fraction` of flows converge on endpoint 0 (the fan-in
    /// hot spot); the rest are uniform.
    Incast {
        /// Fraction of flows whose destination is endpoint 0.
        fraction: f64,
    },
}

/// Transport flavor, for campaigns that frame packets differently per
/// protocol (maps onto the workspace's BSP / VMTP / kernel-UDP stacks).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// Kernel-resident UDP datagrams.
    Udp,
    /// The user-level byte-stream protocol (§5.1).
    Bsp,
    /// The request/response transaction protocol (§5.2).
    Vmtp,
}

impl Transport {
    /// A short lowercase label for artifacts.
    pub fn label(self) -> &'static str {
        match self {
            Transport::Udp => "udp",
            Transport::Bsp => "bsp",
            Transport::Vmtp => "vmtp",
        }
    }
}

/// A declarative workload: how many flows, arriving how, sized how,
/// patterned how, over which transports.
#[derive(Debug, Clone)]
pub struct FlowSpec {
    /// Number of flows to synthesize.
    pub flows: usize,
    /// Flow arrival process.
    pub arrival: Arrival,
    /// Packets per flow.
    pub sizes: SizeMix,
    /// Endpoint selection pattern.
    pub pattern: Pattern,
    /// Transport mix, cycled per flow (`[Udp]` for single-protocol
    /// runs; `[Udp, Bsp, Vmtp]` interleaves all three).
    pub transports: Vec<Transport>,
    /// Payload bytes per packet (before any headers the campaign adds).
    pub payload: usize,
    /// Gap between a flow's consecutive packets, nanoseconds.
    pub packet_gap_ns: u64,
    /// Scheduled routing-churn events: route flips injected at evenly
    /// spaced times across the workload's span (`churn_times`).
    pub churn_events: usize,
    /// First flow's earliest start.
    pub start: SimTime,
}

/// One synthesized packet: who sends how much to whom, when.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowPacket {
    /// Scheduled hand-to-NIC time.
    pub at: SimTime,
    /// Sending endpoint index (into the campaign's endpoint list).
    pub src: usize,
    /// Receiving endpoint index.
    pub dst: usize,
    /// Payload bytes.
    pub payload: usize,
    /// Transport flavor.
    pub transport: Transport,
    /// The flow this packet belongs to (0-based synthesis order).
    pub flow: usize,
}

/// Draws the next inter-arrival gap in nanoseconds.
fn gap_ns(arrival: Arrival, rng: &mut SplitMix64) -> u64 {
    match arrival {
        Arrival::Poisson { rate_fps } => {
            assert!(rate_fps > 0.0, "Poisson rate must be positive");
            let u = rng.next_f64();
            // Exponential via inversion; 1 - u avoids ln(0).
            let secs = -(1.0 - u).ln() / rate_fps;
            (secs * 1e9) as u64
        }
        Arrival::Pareto { rate_fps, alpha } => {
            assert!(rate_fps > 0.0, "Pareto rate must be positive");
            assert!(alpha > 1.0, "Pareto alpha must exceed 1 for a finite mean");
            // Scale chosen so the mean gap is 1/rate: mean = xm·α/(α−1).
            let mean = 1.0 / rate_fps;
            let xm = mean * (alpha - 1.0) / alpha;
            let u = rng.next_f64();
            let secs = xm / (1.0 - u).powf(1.0 / alpha);
            (secs * 1e9) as u64
        }
    }
}

/// Expands `spec` into a time-ordered packet schedule over `endpoints`
/// endpoints (indices `0..endpoints`), deterministically from `seed`.
///
/// Flows start at cumulative inter-arrival gaps from `spec.start`; each
/// flow's packets follow at `packet_gap_ns` spacing. Sources and
/// destinations are always distinct. The result is ordered by `(at, flow)`
/// — stable across runs, platforms, and queue backends.
///
/// The schedule is emitted in that order as it is drawn, with no sort:
/// flows start in nondecreasing time and a flow's `k`-th packet sits at
/// `start + k·packet_gap_ns`, so every packet due by a flow's start
/// belongs to an earlier flow and goes out before that flow's first. The
/// later packets of the flows still sending wait in a min-heap on
/// `(at, flow)`, one entry a flow. (Two packets that tie on `(at, flow)`
/// are the same flow's at gap 0, equal in every field.)
pub fn generate(spec: &FlowSpec, endpoints: usize, seed: u64) -> Vec<FlowPacket> {
    assert!(endpoints >= 2, "need at least two endpoints");
    assert!(!spec.transports.is_empty(), "need at least one transport");
    let mut rng = SplitMix64::new(seed);
    let mut packets = Vec::with_capacity(capacity(spec));
    let mut sending = BinaryHeap::new();
    let mut flow_start = spec.start;
    for flow in 0..spec.flows {
        flow_start = SimTime(flow_start.0 + gap_ns(spec.arrival, &mut rng));
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
            Pattern::Incast { fraction } if rng.chance(fraction) => {
                if src == 0 {
                    // The hot spot cannot talk to itself; bounce to 1.
                    1
                } else {
                    0
                }
            }
            _ => {
                // Uniform over everyone but the source.
                let d = rng.below(endpoints as u64 - 1) as usize;
                if d >= src {
                    d + 1
                } else {
                    d
                }
            }
        };
        let transport = spec.transports[flow % spec.transports.len()];
        emit_due(&mut packets, &mut sending, flow_start, spec.packet_gap_ns);
        if count == 0 {
            continue;
        }
        let first = FlowPacket {
            at: flow_start,
            src,
            dst,
            payload: spec.payload,
            transport,
            flow,
        };
        packets.push(first);
        if count > 1 {
            sending.push(Sending {
                next: FlowPacket {
                    at: SimTime(flow_start.0 + spec.packet_gap_ns),
                    ..first
                },
                after: count - 2,
            });
        }
    }
    emit_due(
        &mut packets,
        &mut sending,
        SimTime(u64::MAX),
        spec.packet_gap_ns,
    );
    packets
}

/// A flow with packets still to send: its next one, and how many follow it.
/// Ordered so that `BinaryHeap`'s top is the least `(at, flow)`.
#[derive(Debug, PartialEq, Eq)]
struct Sending {
    next: FlowPacket,
    after: usize,
}

impl Ord for Sending {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.next.at, other.next.flow).cmp(&(self.next.at, self.next.flow))
    }
}

impl PartialOrd for Sending {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Moves every waiting packet due by `until` to `packets`, in `(at, flow)`
/// order, each flow's next one taking its place in the heap.
fn emit_due(
    packets: &mut Vec<FlowPacket>,
    sending: &mut BinaryHeap<Sending>,
    until: SimTime,
    gap_ns: u64,
) {
    while let Some(mut top) = sending.peek_mut() {
        if top.next.at > until {
            break;
        }
        packets.push(top.next);
        if top.after == 0 {
            PeekMut::pop(top);
        } else {
            top.after -= 1;
            top.next.at = SimTime(top.next.at.0 + gap_ns);
        }
    }
}

/// The schedule's length, or under a size mix its mean plus four standard
/// deviations: the output vector is sized once and, but for a four-sigma
/// draw, never grows.
fn capacity(spec: &FlowSpec) -> usize {
    match spec.sizes {
        SizeMix::Fixed(n) => spec.flows * n,
        SizeMix::ElephantsAndMice {
            mice,
            elephants,
            elephant_fraction,
        } => {
            let flows = spec.flows as f64;
            let p = elephant_fraction.clamp(0.0, 1.0);
            let mean = flows * (mice as f64 + p * (elephants as f64 - mice as f64));
            let sd = (flows * p * (1.0 - p)).sqrt() * (elephants as f64 - mice as f64).abs();
            (mean + 4.0 * sd).ceil() as usize
        }
    }
}

/// The routing-churn schedule for a generated workload: `churn_events`
/// instants evenly spaced across the packet span (between the first and
/// last scheduled packet, exclusive of both ends). Empty when the spec
/// asks for no churn or the schedule is empty.
pub(crate) fn churn_times(spec: &FlowSpec, packets: &[FlowPacket]) -> Vec<SimTime> {
    if spec.churn_events == 0 || packets.is_empty() {
        return Vec::new();
    }
    let first = packets.first().expect("non-empty").at.0;
    let last = packets.last().expect("non-empty").at.0.max(first + 1);
    let step = (last - first) / (spec.churn_events as u64 + 1);
    (1..=spec.churn_events as u64)
        .map(|k| SimTime(first + k * step.max(1)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `flows` uniform UDP flows of 4 packets, arriving Poisson at 50k/s.
    fn spec(flows: usize) -> FlowSpec {
        FlowSpec {
            flows,
            arrival: Arrival::Poisson { rate_fps: 50_000.0 },
            sizes: SizeMix::Fixed(4),
            pattern: Pattern::Uniform,
            transports: vec![Transport::Udp],
            payload: 64,
            packet_gap_ns: 200_000,
            churn_events: 0,
            start: SimTime(1_000),
        }
    }

    #[test]
    fn byte_reproducible_under_a_seed() {
        let s = spec(500);
        let a = generate(&s, 16, 0xFEED);
        let b = generate(&s, 16, 0xFEED);
        assert_eq!(a, b, "same seed, same schedule");
        let c = generate(&s, 16, 0xBEEF);
        assert_ne!(a, c, "different seed, different schedule");
    }

    #[test]
    fn schedule_is_time_ordered_with_distinct_endpoints() {
        let s = spec(1_000);
        let pkts = generate(&s, 8, 1);
        assert_eq!(pkts.len(), 4_000, "4 packets per flow");
        for w in pkts.windows(2) {
            assert!(w[0].at <= w[1].at, "time-ordered");
        }
        for p in &pkts {
            assert_ne!(p.src, p.dst, "no self-traffic");
            assert!(p.src < 8 && p.dst < 8);
        }
    }

    #[test]
    fn poisson_mean_rate_is_roughly_honored() {
        let s = spec(20_000);
        let pkts = generate(&s, 4, 7);
        let starts: Vec<u64> = pkts.iter().filter(|p| p.at.0 > 0).map(|p| p.at.0).collect();
        let span_s = (starts.iter().max().unwrap() - starts.iter().min().unwrap()) as f64 / 1e9;
        let rate = 20_000.0 / span_s;
        assert!(
            (25_000.0..100_000.0).contains(&rate),
            "empirical flow rate {rate} fps (asked 50k)"
        );
    }

    #[test]
    fn pareto_is_burstier_than_poisson() {
        let mut s = spec(20_000);
        let poisson = generate(&s, 4, 11);
        s.arrival = Arrival::Pareto {
            rate_fps: 50_000.0,
            alpha: 1.5,
        };
        let pareto = generate(&s, 4, 11);
        let max_gap = |pkts: &[FlowPacket]| {
            // One start time per flow (its earliest packet).
            let mut start_of = std::collections::HashMap::new();
            for p in pkts {
                let e = start_of.entry(p.flow).or_insert(p.at.0);
                *e = (*e).min(p.at.0);
            }
            let mut starts: Vec<u64> = start_of.into_values().collect();
            starts.sort_unstable();
            starts.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0)
        };
        assert!(
            max_gap(&pareto) > max_gap(&poisson),
            "the heavy tail must show up as longer silences"
        );
    }

    #[test]
    fn elephants_and_mice_split_the_population() {
        let mut s = spec(4_000);
        s.sizes = SizeMix::ElephantsAndMice {
            mice: 2,
            elephants: 64,
            elephant_fraction: 0.1,
        };
        let pkts = generate(&s, 8, 3);
        let mut per_flow = std::collections::HashMap::new();
        for p in &pkts {
            *per_flow.entry(p.flow).or_insert(0usize) += 1;
        }
        let elephants = per_flow.values().filter(|&&n| n == 64).count();
        let mice = per_flow.values().filter(|&&n| n == 2).count();
        assert_eq!(elephants + mice, 4_000, "every flow is one or the other");
        assert!((200..=600).contains(&elephants), "{elephants} elephants");
        // Elephants dominate the bytes even as a small minority.
        assert!(elephants * 64 > mice * 2);
    }

    #[test]
    fn incast_converges_on_the_victim() {
        let mut s = spec(2_000);
        s.pattern = Pattern::Incast { fraction: 0.8 };
        let pkts = generate(&s, 32, 5);
        let to_victim = pkts.iter().filter(|p| p.dst == 0).count();
        assert!(
            to_victim * 10 > pkts.len() * 7,
            "≈80% of packets must fan into endpoint 0, got {to_victim}/{}",
            pkts.len()
        );
        assert!(pkts.iter().all(|p| p.src != p.dst));
    }

    #[test]
    fn transports_cycle_per_flow() {
        let mut s = spec(9);
        s.transports = vec![Transport::Udp, Transport::Bsp, Transport::Vmtp];
        let pkts = generate(&s, 4, 2);
        for p in &pkts {
            assert_eq!(p.transport, s.transports[p.flow % 3]);
        }
    }

    #[test]
    fn churn_times_space_across_the_span() {
        let mut s = spec(100);
        s.churn_events = 3;
        let pkts = generate(&s, 4, 9);
        let churn = churn_times(&s, &pkts);
        assert_eq!(churn.len(), 3);
        let first = pkts.first().unwrap().at;
        let last = pkts.last().unwrap().at;
        for w in churn.windows(2) {
            assert!(w[0] < w[1], "strictly increasing");
        }
        assert!(churn[0] > first && churn[2] < last, "inside the span");
        assert!(churn_times(&spec(10), &pkts).is_empty(), "no churn asked");
    }

    #[test]
    fn scales_to_a_million_flows() {
        let mut s = spec(1_000_000);
        s.sizes = SizeMix::Fixed(1);
        let pkts = generate(&s, 256, 0xA5);
        assert_eq!(pkts.len(), 1_000_000);
    }
}
