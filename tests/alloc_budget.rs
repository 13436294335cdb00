//! The allocation budget of `World`'s per-frame path, counted by a global
//! allocator of this test binary's own: a frame crossing a router must not
//! cost the heap more than one allocation in the steady state (it cost six
//! while every layer copied the frame it was handed), and a shared wire
//! copies a frame once per *extra* receiver, not once per receiver. A
//! user-level VMTP transaction allocates its frames and its reads' packet
//! lists and nothing else. And the
//! bare device, once its buffers have grown, demultiplexes without touching
//! the heap at all (it allocated an outcome per accepted frame while
//! `demux` returned one by value).

use packet_filter::filter::program::{Assembler, FilterProgram};
use packet_filter::filter::samples;
use packet_filter::filter::word::BinaryOp;
use packet_filter::kernel::device::AdmissionConfig;
use packet_filter::kernel::types::{Fd, ProcId};
use packet_filter::kernel::world::World;
use packet_filter::net::frame;
use packet_filter::net::medium::Medium;
use packet_filter::net::segment::{FaultModel, Network};
use packet_filter::net::topology::Topology;
use packet_filter::proto::ip::PROTO_UDP;
use packet_filter::proto::router::{deploy, ip_frame};
use packet_filter::proto::vmtp_user::{VmtpUserClient, VmtpUserServer, Workload};
use packet_filter::sim::cost::CostModel;
use packet_filter::sim::time::SimTime;
use packet_filter::{DemuxEngine, PfDevice, SimClock};

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
    let datagram = ip_frame(&topo, src, dst, PROTO_UDP, 255, &[0xA5; 64]);

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

/// Heap allocations per minimal VMTP transaction between a user-level
/// client and server on a lossless two-host 10 Mb/s wire, in the steady
/// state: the difference between a long run of transactions and a short
/// one, so start-up and the buffers that only grow cancel.
fn heap_per_minimal_transaction() -> f64 {
    let transactions = |ops: u64| {
        let mut w = World::new(3);
        let seg = w.add_segment(Medium::standard_10mb(), FaultModel::default());
        let c = w.add_host("client", seg, 0x0A, CostModel::microvax_ii());
        let s = w.add_host("server", seg, 0x0B, CostModel::microvax_ii());
        w.spawn(s, Box::new(VmtpUserServer::new(0x20)));
        let workload = Workload {
            ops,
            response_bytes: 0,
        };
        let client = VmtpUserClient::new(0x10, 0x20, 0x0B, workload);
        let p = w.spawn(c, Box::new(client));
        let counted = allocations_during(|| {
            w.run();
        });
        let app = w.app_ref::<VmtpUserClient>(c, p).expect("the client");
        assert!(app.is_done() && app.machine_retries() == 0, "lossless");
        counted
    };
    let (short, long) = (50, 450);
    (transactions(long) - transactions(short)) as f64 / (long - short) as f64
}

/// A transaction is three frames — request, response, ack — each read by
/// its own `pf_read`. Measured at 16.0 allocations while every frame was
/// encoded into a body and then copied into a frame (6), every machine call
/// that had an effect returned a fresh vector (5), the server built and
/// cloned a response group per answer (2) and the client a receive map per
/// transaction (1), beside the three reads' packet lists. Now 6.0: one
/// buffer per frame and one list per read. The machines push onto vectors
/// their embedding lends, and the cached group and the receive map are
/// refilled in place.
#[test]
fn a_minimal_vmtp_transaction_allocates_its_frames_and_reads_alone() {
    let per = heap_per_minimal_transaction();
    assert!(
        per <= 6.0,
        "{per:.2} allocations per transaction (was 16.0)"
    );
}

/// Ports of the device populations below; each has a slot of 32 sockets.
const PORTS: usize = 512;

fn slot_base(slot: usize) -> u16 {
    64 + 32 * slot as u16
}

/// The two populations the benchmark's device workloads bind, 512 ports
/// each: figure 3-9 socket filters alone (`demux_exact`), or every fourth
/// one of those and `socket_range_filter`s between (`demux_range_churn`).
fn slot_filter(slot: usize, ranges: bool) -> FilterProgram {
    let base = slot_base(slot);
    if ranges && !slot.is_multiple_of(4) {
        samples::socket_range_filter(10, base + 12, base + 19)
    } else {
        samples::pup_socket_filter(10, 0, base + 15)
    }
}

/// Of every eight frames six are wanted by exactly one port and two stray:
/// a bound socket under a foreign Ethernet type, and a socket beyond every
/// slot.
fn device_frames() -> Vec<Vec<u8>> {
    let pup = samples::PUP_ETHERTYPE_3MB;
    (0..64)
        .map(|i| {
            let wanted = slot_base(i * 37 % PORTS) + 15;
            match i % 8 {
                6 => samples::pup_packet_3mb(pup + 1, 0, wanted, 1),
                7 => samples::pup_packet_3mb(pup, 0, slot_base(PORTS) + i as u16, 1),
                _ => samples::pup_packet_3mb(pup, 0, wanted, 1),
            }
        })
        .collect()
}

/// `(allocations, frames accepted)` over 10,000 `demux` calls on a device
/// of `engine` holding one of the populations, after every frame has been
/// through it four times.
fn demux_allocations(engine: DemuxEngine, ranges: bool) -> (u64, u64) {
    let mut dev = PfDevice::new();
    dev.set_engine(engine);
    for slot in 0..PORTS {
        let p = dev.open((ProcId(0), Fd(slot)));
        assert!(dev.set_filter(p, slot_filter(slot, ranges)));
    }
    let frames = device_frames();
    for f in frames.iter().cycle().take(4 * frames.len()) {
        dev.demux(f);
    }
    let mut accepted = 0;
    let allocations = allocations_during(|| {
        for f in frames.iter().cycle().take(10_000) {
            accepted += dev.demux(f).accepted.len() as u64;
        }
    });
    assert_eq!(accepted, 7_500, "{engine:?}: six frames of every eight");
    (allocations, accepted)
}

/// (The sequential walk re-sorts its order every 256 frames; at 512 ports
/// the sort's scratch fits the stack.)
#[test]
fn a_warm_device_demultiplexes_without_allocating() {
    for engine in [DemuxEngine::Geom, DemuxEngine::Sequential] {
        for ranges in [false, true] {
            let (allocations, _) = demux_allocations(engine, ranges);
            assert_eq!(allocations, 0, "{engine:?}, ranges: {ranges}");
        }
    }
}

/// The §7 baseline is left as it is: `FilterSet::matches` builds a key
/// `Vec` per shape for every packet and, for a packet somebody wants, a
/// hit list, a seen-set and the list it returns. Pinned so that the number
/// EXPERIMENTS.md quotes stays the code's.
#[test]
fn the_decision_table_allocates_per_shape_and_per_hit() {
    // One shape in either population: the range filters are residual.
    for ranges in [false, true] {
        let (allocations, accepted) = demux_allocations(DemuxEngine::DecisionTable, ranges);
        assert_eq!(allocations, 10_000 + 3 * accepted, "ranges: {ranges}");
    }
}

/// The figure 3-9 idiom as the benchmark's device workloads bind it:
/// destination socket under `CAND`, then Ethernet type under `EQ`.
fn socket_idiom(slot: usize) -> FilterProgram {
    Assembler::new(10)
        .pushword(samples::WORD_DSTSOCKET_LO)
        .pushlit_op(BinaryOp::Cand, slot_base(slot) + 15)
        .pushword(samples::WORD_ETHERTYPE)
        .pushlit_op(BinaryOp::Eq, samples::PUP_ETHERTYPE_3MB)
        .finish()
}

fn socket_range(slot: usize) -> FilterProgram {
    samples::socket_range_filter(10, slot_base(slot) + 12, slot_base(slot) + 19)
}

/// Heap allocations of each of `binds` binds, in order, on a device of
/// `engine` (the admission gate on when `gated`): each opens a port and
/// binds `filter(slot)` to it. The open is not counted, and the program
/// handed over is a copy, as the benchmark's binds hand it.
fn bind_allocations(
    engine: DemuxEngine,
    gated: bool,
    binds: usize,
    filter: fn(usize) -> FilterProgram,
) -> Vec<u64> {
    let mut dev = PfDevice::new();
    dev.set_engine(engine);
    if gated {
        dev.set_admission_control(Some(AdmissionConfig::default()));
    }
    (0..binds)
        .map(|slot| {
            let p = dev.open((ProcId(0), Fd(slot)));
            let program = filter(slot);
            let mut clean = false;
            let n = allocations_during(|| clean = dev.set_filter(p, program.clone()));
            assert!(clean);
            n
        })
        .collect()
}

/// A bind validates its program once, in place, analyses it once,
/// compiles it on arrays sized once, and hands what it made to the set
/// that keeps it; only a compiled set gets a copy of the program. The
/// second bind of a device (the first grows the set's vectors) cost 82,
/// 118, 29 and 2 allocations while the program was validated twice and
/// cloned three times, the compiler's passes kept their facts in hash
/// maps, and geom hashed its bookkeeping; the sequential walk's 2 became 1,
/// the copy handed over, when validation stopped cloning the program for a
/// set the sequential walk does not have.
#[test]
fn a_bind_allocates_little_more_than_it_keeps() {
    let second = |engine, filter| bind_allocations(engine, false, 2, filter)[1];
    assert_eq!(
        second(DemuxEngine::Geom, socket_idiom),
        37,
        "figure 3-9 under Geom"
    );
    assert_eq!(
        second(DemuxEngine::Geom, socket_range),
        57,
        "a range under Geom"
    );
    assert_eq!(
        second(DemuxEngine::DecisionTable, socket_idiom),
        24,
        "the decision table"
    );
    assert_eq!(
        second(DemuxEngine::Sequential, socket_idiom),
        1,
        "the sequential walk"
    );
}

/// With the admission gate on, a bind files its own port's signature
/// candidates and re-ranks those every bind filed, so it costs the same at
/// any population; it analysed every filtered port again, 5,146
/// allocations at the 256th bind of the sequential engine's device
/// against 47 at the 2nd. (The sequential walk's bind is otherwise one
/// allocation, so what remains is the gate's.)
#[test]
fn a_gated_bind_costs_the_same_at_any_population() {
    for engine in [DemuxEngine::Sequential, DemuxEngine::DecisionTable] {
        let counts = bind_allocations(engine, true, 256, socket_idiom);
        assert!(counts[255] <= counts[1], "{engine:?}: {counts:?}");
    }
}
