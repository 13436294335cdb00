//! Deterministic multi-hop routing through a deployed topology: a frame
//! crosses host → router → router → host over three segments, TTL expiry
//! kills over-aged packets at the second hop, and per-link fault models
//! apply independently per segment.

use pf_kernel::{SimClock, World};
use pf_net::medium::Medium;
use pf_net::segment::FaultModel;
use pf_net::{NodeId, Topology};
use pf_proto::ip::PROTO_UDP;
use pf_proto::router::{deploy, ip_frame};
use pf_sim::cost::CostModel;
use pf_sim::time::SimTime;

/// h1 — r1 — r2 — h2 over three 10 Mb segments, with `mid_faults` on the
/// router–router link.
fn line_topology(mid_faults: FaultModel) -> (Topology, [NodeId; 4]) {
    let mut b = Topology::builder();
    let h1 = b.host("h1");
    let r1 = b.router("r1");
    let r2 = b.router("r2");
    let h2 = b.host("h2");
    let m = Medium::standard_10mb();
    b.link(h1, r1, m, FaultModel::default());
    b.link(r1, r2, m, mid_faults);
    b.link(r2, h2, m, FaultModel::default());
    (b.build(), [h1, r1, r2, h2])
}

#[test]
fn frame_traverses_host_router_router_host() {
    let (topo, [h1, r1, r2, h2]) = line_topology(FaultModel::default());
    let mut w = World::new(7);
    let d = deploy(&topo, &mut w, &CostModel::microvax_ii());

    for k in 0..4u64 {
        let f = ip_frame(&topo, h1, h2, PROTO_UDP, 64, b"across the internet");
        w.send_frame_at(d.host(h1), f, SimTime(1_000 + k * 5_000_000));
    }
    let end = SimClock::run(&mut w);
    assert!(end > SimTime::ZERO);

    // Every frame made all three hops.
    assert_eq!(w.router_counters(d.router(r1)).frames_in, 4);
    assert_eq!(w.router_stats(d.router(r1)).forwarded, 4);
    assert_eq!(w.router_counters(d.router(r2)).frames_out, 4);
    assert_eq!(w.counters(d.host(h2)).packets_received, 4);
    // Nothing leaked back to the sender's LAN or died en route.
    assert_eq!(w.counters(d.host(h1)).packets_received, 0);
    assert_eq!(w.router_stats(d.router(r1)).ttl_expired, 0);
    assert_eq!(w.router_stats(d.router(r2)).no_route, 0);
    // Each hop charged forwarding work on the router CPUs.
    assert!(w.router_cpu(d.router(r1)).busy_time() > pf_sim::SimDuration::ZERO);
}

#[test]
fn routed_delivery_is_deterministic() {
    let run = || {
        let (topo, [h1, _, _, h2]) = line_topology(FaultModel::default());
        let mut w = World::new(99);
        let d = deploy(&topo, &mut w, &CostModel::microvax_ii());
        for k in 0..8u64 {
            let f = ip_frame(&topo, h1, h2, PROTO_UDP, 32, &k.to_be_bytes());
            w.send_frame_at(d.host(h1), f, SimTime(k * 777_777));
        }
        let end = SimClock::run(&mut w);
        (end, w.counters(d.host(h2)).packets_received)
    };
    assert_eq!(run(), run(), "identical seeds give identical runs");
}

#[test]
fn ttl_expires_at_the_second_router() {
    let (topo, [h1, r1, r2, h2]) = line_topology(FaultModel::default());
    let mut w = World::new(7);
    let d = deploy(&topo, &mut w, &CostModel::microvax_ii());

    // TTL 2: r1 forwards at TTL 1; r2 must refuse to forward it further.
    let f = ip_frame(&topo, h1, h2, PROTO_UDP, 2, b"too old");
    w.send_frame_at(d.host(h1), f, SimTime(1_000));
    SimClock::run(&mut w);

    assert_eq!(w.router_stats(d.router(r1)).forwarded, 1);
    assert_eq!(w.router_stats(d.router(r2)).ttl_expired, 1);
    assert_eq!(w.router_stats(d.router(r2)).forwarded, 0);
    assert_eq!(w.counters(d.host(h2)).packets_received, 0, "never arrives");
}

#[test]
fn per_link_faults_apply_to_one_segment_only() {
    let lossy = FaultModel {
        loss: 1.0,
        ..FaultModel::default()
    };
    let (topo, [h1, r1, r2, h2]) = line_topology(lossy);
    let mut w = World::new(7);
    let d = deploy(&topo, &mut w, &CostModel::microvax_ii());

    for k in 0..3u64 {
        let f = ip_frame(&topo, h1, h2, PROTO_UDP, 64, b"doomed");
        w.send_frame_at(d.host(h1), f, SimTime(1_000 + k * 5_000_000));
    }
    SimClock::run(&mut w);

    // The first segment is clean: r1 hears and forwards every frame.
    assert_eq!(w.router_counters(d.router(r1)).frames_in, 3);
    assert_eq!(w.router_stats(d.router(r1)).forwarded, 3);
    // The middle link eats every copy: r2 never hears a thing.
    assert_eq!(w.router_counters(d.router(r2)).frames_in, 0);
    assert_eq!(w.counters(d.host(h2)).packets_received, 0);
}
