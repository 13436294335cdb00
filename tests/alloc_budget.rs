//! The allocation budget of `World`'s per-frame path, counted by a global
//! allocator of this test binary's own: a frame crossing a router must not
//! cost the heap more than one allocation in the steady state (it cost six
//! while every layer copied the frame it was handed), and a shared wire
//! copies a frame once per *extra* receiver, not once per receiver.

use packet_filter::kernel::world::World;
use packet_filter::net::frame;
use packet_filter::net::medium::Medium;
use packet_filter::net::segment::{FaultModel, Network};
use packet_filter::net::topology::Topology;
use packet_filter::proto::ip::{encode_ip, IpHeader, IP_ETHERTYPE, PROTO_UDP};
use packet_filter::proto::router::deploy;
use packet_filter::sim::cost::CostModel;
use packet_filter::sim::time::SimTime;
use packet_filter::SimClock;

#[path = "support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{count_during, Counting};

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocations_during(work: impl FnOnce()) -> u64 {
    count_during(usize::MAX, work).0
}

/// Heap allocations while `frames` minimum-size datagrams cross a chain of
/// `routers` routers between two hosts, after a first batch has warmed
/// every buffer. The receiving host binds no filter: what it does with a
/// frame costs the same whatever the chain's length.
fn allocations_crossing(routers: usize, frames: u64) -> u64 {
    let mut b = Topology::builder();
    let (src, dst) = (b.host("src"), b.host("dst"));
    let chain: Vec<_> = (0..routers).map(|i| b.router(format!("r{i}"))).collect();
    let m = Medium::standard_10mb();
    b.link(src, chain[0], m, FaultModel::default());
    for pair in chain.windows(2) {
        b.link(pair[0], pair[1], m, FaultModel::default());
    }
    b.link(chain[routers - 1], dst, m, FaultModel::default());
    let topo = b.build();

    let mut w = World::new(1);
    let d = deploy(&topo, &mut w, &CostModel::microvax_ii());
    let (first_iface, first_eth) = topo.first_hop(src, topo.ip(dst)).expect("a chain");
    let header = IpHeader {
        proto: PROTO_UDP,
        ttl: 255,
        src: topo.ip(src),
        dst: topo.ip(dst),
        total_len: 0,
    };
    let own = topo.interfaces(src)[first_iface];
    let datagram = frame::build(
        &m,
        first_eth,
        own.eth,
        IP_ETHERTYPE,
        &encode_ip(&header, &[0xA5; 64]),
    )
    .expect("fits the medium");

    let batch = |w: &mut World| {
        let start = w.now().as_nanos();
        for i in 0..frames {
            let at = SimTime(start + 1_000 + i * 250_000);
            w.send_frame_at(d.host(src), datagram.clone(), at);
        }
        allocations_during(|| {
            w.run();
        })
    };
    batch(&mut w);
    let counted = batch(&mut w);
    let crossed = w.router_stats(d.router(chain[routers - 1])).forwarded;
    assert_eq!(crossed, 2 * frames, "every frame crossed the whole chain");
    counted
}

#[test]
fn a_forwarded_hop_costs_the_heap_at_most_one_allocation() {
    const FRAMES: u64 = 400;
    let (short, long) = (8, 40);
    let extra_hops = FRAMES * (long - short) as u64;
    let extra =
        allocations_crossing(long, FRAMES).saturating_sub(allocations_crossing(short, FRAMES));
    let per_hop = extra as f64 / extra_hops as f64;
    assert!(
        per_hop <= 1.0,
        "{per_hop:.2} allocations per forwarded hop ({extra} over {extra_hops} hops)"
    );
}

#[test]
fn a_snooped_unicast_frame_is_copied_once() {
    let mut net = Network::new(0);
    let m = Medium::experimental_3mb();
    let seg = net.add_segment(m, FaultModel::default());
    let a = net.add_station(seg, 0x0A);
    let _b = net.add_station(seg, 0x0B);
    let _bystander = net.add_station(seg, 0x0C);
    let snoop = net.add_station(seg, 0x0D);
    net.station(snoop).set_promiscuous(true);
    let f = frame::build(&m, 0x0B, 0x0A, 2, &[7; 100]).expect("fits the medium");
    let mut out = Vec::with_capacity(4);
    let copies = allocations_during(|| {
        net.transmit_owned(a, f, SimTime::ZERO, &mut out);
    });
    assert_eq!(out.len(), 2, "the addressee and the snoop");
    assert!(copies <= 1, "{copies} allocations for two receivers");
}
