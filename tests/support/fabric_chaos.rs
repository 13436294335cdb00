//! A hardened routed ring driven through a router kill and a link-flap
//! train, reduced to everything observable about the run.
//!
//! Fault injection, hello probing, failover, LSU flooding and
//! reconvergence all ride the one event core, so any hidden
//! nondeterminism (hash-map iteration order, wall-clock leakage, a changed
//! event order) shows up as a [`History`] mismatch between two runs.
//!
//! Shared by the facade's `tests/determinism.rs` (tier-1, 16 nodes) and
//! `crates/pf-proto/tests/fault_determinism.rs` (8 nodes; `#[path]`
//! include), so it names the crates directly rather than through the
//! facade.

use pf_kernel::{SimClock, World};
use pf_net::fabric::FabricSchedule;
use pf_net::medium::Medium;
use pf_net::segment::FaultModel;
use pf_net::{LinkId, NodeId, Topology};
use pf_proto::ip::PROTO_UDP;
use pf_proto::router::{deploy_hardened, ip_frame, HelloConfig};
use pf_sim::cost::CostModel;
use pf_sim::time::{SimDuration, SimTime};

/// Frames sent per run whatever the ring size, 25 ms apart: the traffic
/// spans the fault windows and ends before the run does.
const SENDS: usize = 320;

/// A ring of `n` routers, one host per router (ring links get ids `0..n`,
/// LANs `n..2n`), with a kill-plus-flap chaos schedule attached.
fn chaos_ring(n: usize) -> (Topology, Vec<NodeId>, Vec<NodeId>) {
    let mut b = Topology::builder();
    let r: Vec<NodeId> = (0..n).map(|i| b.router(format!("r{i}"))).collect();
    let h: Vec<NodeId> = (0..n).map(|i| b.host(format!("h{i}"))).collect();
    let m = Medium::standard_10mb();
    for i in 0..n {
        b.link(r[i], r[(i + 1) % n], m, FaultModel::default());
    }
    for i in 0..n {
        b.lan(&[r[i], h[i]], m, FaultModel::default());
    }
    let mut sched = FabricSchedule::new();
    // The router opposite r0 dies mid-run and comes back; the r0–r1 link
    // flaps twice with down-windows long enough (100ms > the 60ms dead
    // interval) to trigger real detection, failover, and re-adjacency
    // each cycle.
    sched.router_outage(r[n / 2], SimTime(300_000_000), Some(SimTime(700_000_000)));
    sched.link_flaps(
        LinkId(0),
        SimTime(400_000_000),
        SimDuration::from_millis(100),
        SimDuration::from_millis(150),
        2,
    );
    (b.build().with_fabric(sched), r, h)
}

/// (forwarded, hellos_sent, control_in, neighbors_lost,
/// neighbors_recovered, failovers, reconvergences, route_churn).
pub type RouterStats = (u64, u64, u64, u64, u64, u64, u64, u64);

/// Everything observable about one run, for exact comparison.
#[derive(Debug, PartialEq)]
pub struct History {
    pub end_ns: u64,
    pub digest: u64,
    pub received: Vec<u64>,
    pub router_stats: Vec<RouterStats>,
    pub router_frames: Vec<(u64, u64, u64)>,
}

/// One run over a ring of `ring` routers and as many hosts.
pub fn run(ring: usize, seed: u64) -> History {
    let (topo, routers, hosts) = chaos_ring(ring);
    let mut w = World::new(seed);
    let d = deploy_hardened(
        &topo,
        &mut w,
        &CostModel::microvax_ii(),
        HelloConfig::default(),
    );

    // Cross-ring traffic before, during, and after the fault windows,
    // from every host to its antipode and its neighbor.
    let mut at = SimTime(1_000);
    for round in 0..SENDS / (2 * ring) {
        for (i, &src) in hosts.iter().enumerate() {
            for dst in [hosts[(i + ring / 2) % ring], hosts[(i + 1) % ring]] {
                let f = ip_frame(&topo, src, dst, PROTO_UDP, 64, &[round as u8; 32]);
                w.send_frame_at(d.host(src), f, at);
                at = SimTime(at.0 + 25_000_000);
            }
        }
    }

    // Hardened routers tick forever; bound the run by virtual time.
    SimClock::run_until(&mut w, SimTime(9_000_000_000));
    History {
        end_ns: w.now().0,
        digest: w.history_digest(),
        received: hosts
            .iter()
            .map(|h| w.counters(d.host(*h)).packets_received)
            .collect(),
        router_stats: routers
            .iter()
            .map(|r| {
                let s = w.router_stats(d.router(*r));
                (
                    s.forwarded,
                    s.hellos_sent,
                    s.control_in,
                    s.neighbors_lost,
                    s.neighbors_recovered,
                    s.failovers,
                    s.reconvergences,
                    s.route_churn,
                )
            })
            .collect(),
        router_frames: routers
            .iter()
            .map(|r| {
                let c = w.router_counters(d.router(*r));
                (c.frames_in, c.frames_out, c.frames_dropped_down)
            })
            .collect(),
    }
}
