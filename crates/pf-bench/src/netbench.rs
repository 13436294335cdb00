//! The internet-scale topology campaign (`BENCH_net.json`): routed
//! multi-segment simulation under flow-level workloads, swept across
//! topology size × flow count.
//!
//! Each cell builds a ring-of-routers topology (one host LAN per
//! router), synthesizes a [`flowgen`](crate::flowgen) workload —
//! Poisson arrivals, elephant/mice sizes, a 20% incast hot spot, all
//! three transports, scheduled routing churn — maps every packet onto
//! an IP-over-Ethernet frame via the topology's first-hop tables, and
//! drives the kernel [`World`] through [`SimClock`]. The sweep is its
//! own referee:
//!
//! * **Routed delivery is exact**: every cell asserts each host
//!   received precisely the packets addressed to it — no interface
//!   drops, no routing black holes, no TTL deaths — at every size up
//!   to 256 nodes × 100k flows.
//! * **Reruns agree**: each cell runs twice; final virtual time and
//!   every per-host counter must match bit-for-bit, pinning the event
//!   queue's `(time, seq)` order under real traffic.
//!
//! A classic hold-model microbench reports the event queue's raw
//! `pop`+`schedule` throughput per pending population beside the sweep.
//! It is wall-clock and asserts nothing.

use crate::flowgen::{self, Arrival, FlowSpec, Pattern, SizeMix, Transport};
use crate::json::Json;
use pf_kernel::World;
use pf_net::frame;
use pf_net::medium::Medium;
use pf_net::segment::FaultModel;
use pf_net::topology::Route;
use pf_net::{LinkId, NodeId, Topology};
use pf_proto::ip::{encode_ip, IpHeader, IP_ETHERTYPE};
use pf_proto::router::deploy;
use pf_sim::cost::CostModel;
use pf_sim::queue::EventQueue;
use pf_sim::rng::SplitMix64;
use pf_sim::time::SimTime;
use pf_sim::SimClock;

/// Default workload seed (spells "flow seed", squinting).
pub const DEFAULT_SEED: u64 = 0xF10E_5EED;

/// One topology-sweep measurement.
#[derive(Debug, Clone)]
pub struct TopoPoint {
    /// Total nodes (routers + hosts).
    pub nodes: usize,
    /// Router count (ring size).
    pub routers: usize,
    /// Host count.
    pub hosts: usize,
    /// Segment count (ring links + host LANs).
    pub links: usize,
    /// Flows synthesized.
    pub flows: usize,
    /// Packets scheduled (elephants make this > flows).
    pub packets: usize,
    /// Routing-churn route flips injected mid-run.
    pub churn_events: usize,
    /// Packets received by their addressed host.
    pub delivered: u64,
    /// delivered / packets (asserted to be exactly 1.0).
    pub delivery_frac: f64,
    /// Router forward operations summed over the run.
    pub forwarded: u64,
    /// Final virtual time, nanoseconds.
    pub sim_end_ns: u64,
    /// Wall-clock run time, milliseconds (the faster of the two runs).
    pub wall_ms: f64,
    /// Wall-clock throughput, packets/second.
    pub pkts_per_sec: f64,
}

/// One hold-model event-core measurement.
#[derive(Debug, Clone)]
pub struct HoldPoint {
    /// Steady-state pending-event population.
    pub pending: usize,
    /// pop+schedule operations timed.
    pub ops: usize,
    /// Best-of-three throughput, operations/second.
    pub ops_per_sec: f64,
}

/// The full campaign artifact.
#[derive(Debug, Clone)]
pub struct NetReport {
    /// Workload seed.
    pub seed: u64,
    /// Whether this was the reduced CI sweep.
    pub smoke: bool,
    /// Topology sweep rows.
    pub topology: Vec<TopoPoint>,
    /// Event-core microbench rows.
    pub event_core: Vec<HoldPoint>,
}

/// A ring of `nodes/4` routers, each with a 3-host LAN: the sweep's
/// standard shape. Returns the frozen plan plus the router and host
/// node ids (hosts in endpoint order).
pub fn ring_topology(nodes: usize) -> (Topology, Vec<NodeId>, Vec<NodeId>) {
    assert!(nodes >= 2, "need at least one router and one host");
    let r_count = (nodes / 4).max(1);
    let h_count = nodes - r_count;
    let mut b = Topology::builder();
    let routers: Vec<NodeId> = (0..r_count).map(|i| b.router(format!("r{i}"))).collect();
    let hosts: Vec<NodeId> = (0..h_count).map(|i| b.host(format!("h{i}"))).collect();
    let m = Medium::standard_10mb();
    // Ring links first (link ids 0..r_count), then one LAN per router
    // (link id r_count + r) — the churn injector depends on this order.
    if r_count >= 3 {
        for i in 0..r_count {
            b.link(
                routers[i],
                routers[(i + 1) % r_count],
                m,
                FaultModel::default(),
            );
        }
    } else if r_count == 2 {
        b.link(routers[0], routers[1], m, FaultModel::default());
    }
    for (r, router) in routers.iter().enumerate() {
        let mut members = vec![*router];
        members.extend(hosts.iter().skip(r).step_by(r_count));
        if members.len() >= 2 {
            b.lan(&members, m, FaultModel::default());
        }
    }
    (b.build(), routers, hosts)
}

/// The sweep's workload shape for one cell: Poisson flow arrivals
/// scaled to the flow count, a bimodal size mix, a 20% incast hot spot
/// on host 0, all three transports cycled, and two routing-churn
/// events whenever the ring is big enough to have antipodal paths.
fn cell_spec(flows: usize, routers: usize) -> FlowSpec {
    FlowSpec {
        flows,
        arrival: Arrival::Poisson {
            rate_fps: flows as f64 * 50.0,
        },
        sizes: SizeMix::ElephantsAndMice {
            mice: 1,
            elephants: 4,
            elephant_fraction: 0.1,
        },
        pattern: Pattern::Incast { fraction: 0.2 },
        transports: vec![Transport::Udp, Transport::Bsp, Transport::Vmtp],
        payload: 64,
        packet_gap_ns: 200_000,
        churn_events: if routers >= 4 && routers.is_multiple_of(2) {
            2
        } else {
            0
        },
        start: SimTime(1_000),
    }
}

fn ip_proto(t: Transport) -> u8 {
    match t {
        Transport::Udp => 17,
        Transport::Bsp => 99,
        Transport::Vmtp => 81,
    }
}

/// What one cell run produced; everything except `wall_ms` must be
/// identical across reruns.
#[derive(Debug, Clone, PartialEq)]
struct CellOutcome {
    end: SimTime,
    received: Vec<u64>,
    forwarded: u64,
    packets: usize,
}

/// Builds the cell's world, injects the whole packet schedule, runs it
/// (pausing at each churn instant to flip router 0's antipodal route),
/// and asserts exact delivery.
fn run_cell(nodes: usize, flows: usize, seed: u64) -> (CellOutcome, f64) {
    let (topo, routers, hosts) = ring_topology(nodes);
    let spec = cell_spec(flows, routers.len());
    let cell_seed = seed ^ ((nodes as u64) << 32) ^ flows as u64;
    let packets = flowgen::generate(&spec, hosts.len(), cell_seed);
    let churn = flowgen::churn_times(&spec, &packets);

    let mut w = World::new(cell_seed);
    let d = deploy(&topo, &mut w, &CostModel::microvax_ii());
    for h in &hosts {
        // The incast victim sees a large standing backlog; a deep ring
        // keeps "no interface drops" a property of routing, not luck.
        w.set_nic_capacity(d.host(*h), 1 << 20);
    }

    let mut expected = vec![0u64; hosts.len()];
    for p in &packets {
        expected[p.dst] += 1;
        let src = hosts[p.src];
        let dst_ip = topo.ip(hosts[p.dst]);
        let (iface, next_eth) = topo.first_hop(src, dst_ip).expect("ring is connected");
        let src_if = topo.interfaces(src)[iface];
        let packet = encode_ip(
            &IpHeader {
                proto: ip_proto(p.transport),
                ttl: 64,
                src: topo.ip(src),
                dst: dst_ip,
                total_len: 0,
            },
            &vec![0xA5u8; p.payload],
        );
        let f = frame::build(
            topo.medium(src_if.link),
            next_eth,
            src_if.eth,
            IP_ETHERTYPE,
            &packet,
        )
        .expect("frame fits the medium");
        w.send_frame_at(d.host(src), f, p.at);
    }

    let started = std::time::Instant::now();
    if churn.is_empty() {
        SimClock::run(&mut w);
    } else {
        // Router 0 sits exactly between the two equal-cost ring paths
        // to the antipodal router's LAN; churn toggles which one it
        // uses. Both are shortest, so delivery stays exact mid-flip.
        let r_count = routers.len();
        let antipodal_lan = LinkId(r_count + r_count / 2);
        let prefix = topo.subnet(antipodal_lan);
        let via = |neighbor: usize, link: usize| -> Option<u32> {
            topo.interfaces(routers[neighbor])
                .iter()
                .find(|i| i.link == LinkId(link))
                .map(|i| i.ip)
        };
        let clockwise = via(1, 0).expect("ring link 0");
        let counter = via(r_count - 1, r_count - 1).expect("ring link r-1");
        for (k, &at) in churn.iter().enumerate() {
            SimClock::run_until(&mut w, at);
            let (iface, next_hop) = if k % 2 == 0 {
                (0, clockwise)
            } else {
                (1, counter)
            };
            let flipped = w.update_route(
                d.router(routers[0]),
                Route {
                    prefix,
                    len: 24,
                    iface,
                    next_hop: Some(next_hop),
                },
            );
            assert!(flipped, "router 0 must accept the churn route");
        }
        SimClock::run(&mut w);
    }
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;

    let received: Vec<u64> = hosts
        .iter()
        .map(|h| w.counters(d.host(*h)).packets_received)
        .collect();
    let mut forwarded = 0;
    for r in &routers {
        let stats = w.router_stats(d.router(*r));
        assert_eq!(stats.no_route, 0, "static routes cover every subnet");
        assert_eq!(stats.ttl_expired, 0, "TTL 64 outlives a {nodes}-node ring");
        assert_eq!(stats.not_routable, 0, "every frame is well-formed IP");
        forwarded += stats.forwarded;
    }
    for (i, h) in hosts.iter().enumerate() {
        let c = w.counters(d.host(*h));
        assert_eq!(c.drops_interface, 0, "host {i}: no NIC overruns");
        assert_eq!(
            c.packets_received, expected[i],
            "host {i} must receive exactly its addressed packets"
        );
    }
    (
        CellOutcome {
            end: w.now(),
            received,
            forwarded,
            packets: packets.len(),
        },
        wall_ms,
    )
}

/// Classic hold-model throughput: prefill `pending` events, then time
/// `ops` iterations of pop-one/schedule-one (the population stays
/// constant, the event horizon slides forward). Best of three runs.
fn hold_ops_per_sec(pending: usize, ops: usize, seed: u64) -> f64 {
    let mut best = 0.0f64;
    for rep in 0..3 {
        let mut q: EventQueue<u32> = EventQueue::new();
        let mut rng = SplitMix64::new(seed.wrapping_add(rep));
        for i in 0..pending {
            q.schedule(SimTime(rng.below(1_000_000_000)), i as u32);
        }
        let started = std::time::Instant::now();
        for _ in 0..ops {
            let (t, v) = q.pop().expect("population never drains");
            q.schedule(SimTime(t.0 + 1 + rng.below(1_000_000)), v);
        }
        let secs = started.elapsed().as_secs_f64().max(1e-9);
        best = best.max(ops as f64 / secs);
    }
    best
}

/// Runs the campaign. `smoke` shrinks the grid for CI; every assert
/// still fires. Panics (never lies) when routed delivery is not exact or
/// a rerun of a cell simulates a different history.
pub fn sweep(smoke: bool, seed: u64) -> NetReport {
    let (node_sizes, flow_sizes): (&[usize], &[usize]) = if smoke {
        (&[4, 16], &[1_000])
    } else {
        (&[4, 16, 64, 256], &[1_000, 10_000, 100_000])
    };

    let mut topology = Vec::new();
    for &nodes in node_sizes {
        for &flows in flow_sizes {
            let (out, wall_ms) = run_cell(nodes, flows, seed);
            let (again, wall_again_ms) = run_cell(nodes, flows, seed);
            assert_eq!(
                out, again,
                "{nodes} nodes/{flows} flows: a rerun must simulate the identical history"
            );
            let wall_ms = wall_ms.min(wall_again_ms);
            let (topo_shape, routers, hosts) = ring_topology(nodes);
            let spec = cell_spec(flows, routers.len());
            topology.push(TopoPoint {
                nodes,
                routers: routers.len(),
                hosts: hosts.len(),
                links: topo_shape.link_count(),
                flows,
                packets: out.packets,
                churn_events: spec.churn_events,
                delivered: out.received.iter().sum(),
                delivery_frac: 1.0,
                forwarded: out.forwarded,
                sim_end_ns: out.end.0,
                wall_ms,
                pkts_per_sec: out.packets as f64 / (wall_ms / 1e3).max(1e-9),
            });
        }
    }

    let (hold_sizes, hold_ops): (&[usize], usize) = if smoke {
        (&[1_000, 10_000], 60_000)
    } else {
        (&[1_000, 10_000, 100_000], 300_000)
    };
    let event_core = hold_sizes
        .iter()
        .map(|&pending| HoldPoint {
            pending,
            ops: hold_ops,
            ops_per_sec: hold_ops_per_sec(pending, hold_ops, seed),
        })
        .collect();

    if !smoke {
        let flagship = topology
            .iter()
            .any(|p| p.nodes == 256 && p.flows >= 100_000);
        assert!(flagship, "the 256-node × 100k-flow cell must run");
    }
    NetReport {
        seed,
        smoke,
        topology,
        event_core,
    }
}

impl NetReport {
    /// The campaign's artifact: the claims the sweep asserted, every
    /// topology cell and the event-queue hold model.
    pub fn json(&self) -> Json {
        let topology = Json::array(&self.topology, |p| {
            Json::object([
                ("nodes", p.nodes.into()),
                ("routers", p.routers.into()),
                ("hosts", p.hosts.into()),
                ("links", p.links.into()),
                ("flows", p.flows.into()),
                ("packets", p.packets.into()),
                ("churn_events", p.churn_events.into()),
                ("delivered", p.delivered.into()),
                ("delivery_frac", Json::Float(p.delivery_frac, 3)),
                ("forwarded", p.forwarded.into()),
                ("sim_end_ns", p.sim_end_ns.into()),
                ("wall_ms", Json::Wall(p.wall_ms, 3)),
                ("pkts_per_sec", Json::Wall(p.pkts_per_sec, 3)),
            ])
        });
        let event_core = Json::array(&self.event_core, |p| {
            Json::object([
                ("pending", p.pending.into()),
                ("ops", p.ops.into()),
                ("ops_per_sec", Json::Wall(p.ops_per_sec, 3)),
            ])
        });
        let asserts = [
            "exact routed delivery per host",
            "rerun histories identical",
        ];
        Json::object([
            ("campaign", "net".into()),
            ("seed", self.seed.into()),
            ("smoke", self.smoke.into()),
            ("asserts", Json::array(asserts, Json::from)),
            ("topology", topology),
            ("event_core", event_core),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_shape_matches_the_sweep_contract() {
        let (topo, routers, hosts) = ring_topology(16);
        assert_eq!(routers.len(), 4);
        assert_eq!(hosts.len(), 12);
        // 4 ring links + 4 host LANs.
        assert_eq!(topo.link_count(), 8);
        assert_eq!(topo.node_count(), 16);
        // Every host can reach every other host's IP.
        for a in &hosts {
            for b in &hosts {
                if a != b {
                    assert!(topo.first_hop(*a, topo.ip(*b)).is_some());
                }
            }
        }
    }

    #[test]
    fn tiny_ring_degenerates_to_one_lan() {
        let (topo, routers, hosts) = ring_topology(4);
        assert_eq!(routers.len(), 1);
        assert_eq!(hosts.len(), 3);
        assert_eq!(topo.link_count(), 1, "one router, no ring: a single LAN");
    }

    #[test]
    fn reruns_simulate_identical_histories_with_churn() {
        // 16 nodes → 4 routers, so the churn path (run_until +
        // update_route) is exercised, on a workload small enough for
        // debug builds.
        let (first, _) = run_cell(16, 300, 0xD0_0D);
        let (again, _) = run_cell(16, 300, 0xD0_0D);
        assert_eq!(first, again);
        assert!(first.forwarded > 0, "inter-LAN traffic crossed the ring");
        let delivered: u64 = first.received.iter().sum();
        assert_eq!(delivered as usize, first.packets, "exact delivery");
    }

    #[test]
    fn hold_model_reports_finite_throughput() {
        let ops = hold_ops_per_sec(256, 2_000, 1);
        assert!(ops.is_finite() && ops > 0.0, "{ops}");
    }
}
