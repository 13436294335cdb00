//! End-to-end scenarios under the compiled set engine,
//! [`DemuxEngine::Geom`]: it drives the same full-stack conversations as
//! the sequential engine — identical delivery and drops, deterministic
//! runs — while charging its cost as index probes and threaded-code
//! operations.

use packet_filter::filter::packet::PacketView;
use packet_filter::filter::samples;
use packet_filter::ir::{GeomSet, IrFilter};
use packet_filter::kernel::app::App;
use packet_filter::kernel::device::DemuxEngine;
use packet_filter::kernel::types::{Fd, ProcId, RecvPacket, SockId};
use packet_filter::kernel::world::{ProcCtx, World};
use packet_filter::net::medium::Medium;
use packet_filter::net::segment::FaultModel;
use packet_filter::proto::bsp::BspConfig;
use packet_filter::proto::bsp_app::{BspReceiverApp, BspSenderApp};
use packet_filter::proto::ip::{encode_ip, encode_udp, IpHeader, KernelIp, PROTO_UDP};
use packet_filter::proto::pup::PupAddr;
use packet_filter::sim::cost::CostModel;
use packet_filter::sim::time::SimTime;
use packet_filter::{PfDevice, SimClock};

#[test]
fn bsp_transfer_with_loss_under_geom_engine() {
    // The full user-level BSP stack, demultiplexed by the geom engine, on
    // a lossy wire: the transfer still completes exactly.
    let mut w = World::new(42);
    let seg = w.add_segment(
        Medium::experimental_3mb(),
        FaultModel {
            loss: 0.03,
            duplication: 0.01,
            ..FaultModel::default()
        },
    );
    let a = w.add_host("alice", seg, 0x0A, CostModel::microvax_ii());
    let b = w.add_host("bob", seg, 0x0B, CostModel::microvax_ii());
    w.set_demux_engine(a, DemuxEngine::Geom);
    w.set_demux_engine(b, DemuxEngine::Geom);

    let src = PupAddr::new(1, 0x0A, 0x300);
    let dst = PupAddr::new(1, 0x0B, 0x400);
    let cfg = BspConfig::default();
    const TOTAL: usize = 30_000;
    let payload: Vec<u8> = (0..TOTAL).map(|i| (i % 241) as u8).collect();
    let rx = w.spawn(b, Box::new(BspReceiverApp::new(dst, cfg.clone())));
    w.spawn(a, Box::new(BspSenderApp::new(src, dst, payload, cfg)));
    w.run_until(SimTime(600 * 1_000_000_000));

    let receiver = w.app_ref::<BspReceiverApp>(b, rx).unwrap();
    assert!(receiver.is_done(), "transfer finished despite loss");
    assert_eq!(receiver.bytes as usize, TOTAL, "byte stream exact");
    assert!(
        w.counters(b).filter_instructions > 0,
        "threaded-code operations were charged to the filter-instruction counter"
    );
}

/// A process using both a UDP kernel socket and a packet-filter port
/// (figure 3-3's coexistence scenario), with a compiled engine
/// demultiplexing.
struct DualStack {
    udp_got: u64,
    pf_got: u64,
}

impl App for DualStack {
    fn start(&mut self, k: &mut ProcCtx<'_>) {
        let sock = k.ksock_open("ip").expect("ip registered");
        k.ksock_request(
            sock,
            packet_filter::proto::ip::ops::UDP_BIND,
            Vec::new(),
            [77, 0, 0, 0],
        );
        let fd = k.pf_open();
        k.pf_set_filter(fd, samples::pup_socket_filter(10, 0, 35));
        k.pf_read(fd);
    }
    fn on_socket(&mut self, _s: SockId, op: u32, _d: Vec<u8>, _m: [u64; 4], _k: &mut ProcCtx<'_>) {
        if op == packet_filter::proto::ip::ops::UDP_RECV {
            self.udp_got += 1;
        }
    }
    fn on_packets(&mut self, fd: Fd, packets: Vec<RecvPacket>, k: &mut ProcCtx<'_>) {
        self.pf_got += packets.len() as u64;
        k.pf_read(fd);
    }
}

#[test]
fn geom_engine_coexists_with_kernel_protocols() {
    use packet_filter::net::frame;
    use packet_filter::proto::ip::IP_ETHERTYPE;

    let medium = Medium::experimental_3mb();
    let mut w = World::new(3);
    let seg = w.add_segment(medium, FaultModel::default());
    let h = w.add_host("dual", seg, 0x0B, CostModel::microvax_ii());
    w.set_demux_engine(h, DemuxEngine::Geom);
    w.register_protocol(h, Box::new(KernelIp::new(11)));
    let p = w.spawn(
        h,
        Box::new(DualStack {
            udp_got: 0,
            pf_got: 0,
        }),
    );

    let udp = encode_ip(
        &IpHeader {
            proto: PROTO_UDP,
            ttl: 30,
            src: 10,
            dst: 11,
            total_len: 0,
        },
        &encode_udp(9, 77, b"hello"),
    );
    let udp_frame = frame::build(&medium, 0x0B, 0x0A, IP_ETHERTYPE, &udp).unwrap();
    w.inject_frame(h, udp_frame, SimTime(1_000_000));
    w.inject_frame(h, samples::pup_packet_3mb(2, 0, 35, 1), SimTime(2_000_000));
    w.inject_frame(h, samples::pup_packet_3mb(2, 0, 99, 1), SimTime(3_000_000));
    w.run();

    let app = w.app_ref::<DualStack>(h, p).unwrap();
    assert_eq!(app.udp_got, 1, "UDP went through the kernel stack");
    assert_eq!(app.pf_got, 1, "the Pup went through the geom demultiplexer");
    assert_eq!(w.counters(h).drops_no_match, 1, "the stray Pup was dropped");
}

#[test]
fn geom_engine_delivery_matches_sequential_and_is_deterministic() {
    // The same seeded lossy BSP run under each engine. Delivery must be
    // identical content-wise; the runs under one engine must be
    // bit-deterministic. (Timing-sensitive counters are *not* compared
    // across engines: the engines charge different per-packet costs, so
    // retransmission schedules may legitimately differ.)
    let run = |engine: DemuxEngine| {
        let mut w = World::new(1234);
        let seg = w.add_segment(
            Medium::experimental_3mb(),
            FaultModel {
                loss: 0.05,
                duplication: 0.02,
                ..FaultModel::default()
            },
        );
        let a = w.add_host("a", seg, 0x0A, CostModel::microvax_ii());
        let b = w.add_host("b", seg, 0x0B, CostModel::microvax_ii());
        w.set_demux_engine(a, engine);
        w.set_demux_engine(b, engine);
        let src = PupAddr::new(1, 0x0A, 0x300);
        let dst = PupAddr::new(1, 0x0B, 0x400);
        let cfg = BspConfig::default();
        let rx = w.spawn(b, Box::new(BspReceiverApp::new(dst, cfg.clone())));
        w.spawn(
            a,
            Box::new(BspSenderApp::new(src, dst, vec![9u8; 25_000], cfg)),
        );
        let end = w.run_until(SimTime(600 * 1_000_000_000));
        let r = w.app_ref::<BspReceiverApp>(b, rx).unwrap();
        (end, r.is_done(), r.bytes, *w.counters(b))
    };
    let seq = run(DemuxEngine::Sequential);
    let geom1 = run(DemuxEngine::Geom);
    let geom2 = run(DemuxEngine::Geom);
    assert!(seq.1 && geom1.1, "both engines complete the transfer");
    assert_eq!(seq.2, geom1.2, "identical bytes delivered");
    assert_eq!(geom1, geom2, "geom runs are bit-deterministic");
}

#[test]
fn geom_charges_each_candidate_its_threaded_op_count() {
    // The simulated clock bills a geom demux by `ir_ops`. The index lets
    // a candidate skip the tests its slot proves, and the bill must still
    // be each candidate's whole threaded-code evaluation, summed — here
    // over the paper's figure filters plus a socket range, on hits,
    // near misses and a truncated frame.
    let filters = [
        samples::fig_3_8_pup_type_range(),
        samples::fig_3_9_pup_socket_35(),
        samples::pup_socket_filter(10, 0, 44),
        samples::socket_range_filter(10, 40, 60),
        samples::ethertype_filter(5, 3),
    ];
    let mut dev = PfDevice::new();
    dev.set_engine(DemuxEngine::Geom);
    let mut twin = GeomSet::new();
    for (i, f) in filters.iter().enumerate() {
        let port = dev.open((ProcId(0), Fd(i)));
        assert!(dev.set_filter(port, f.clone()));
        twin.insert(i as u32, f.clone());
    }
    let mut frames = Vec::new();
    for ethertype in [2u16, 3] {
        for socket in [35u16, 44, 50, 99] {
            for ptype in [0u8, 50, 101] {
                frames.push(samples::pup_packet_3mb_typed(
                    ethertype, ptype, 0, socket, 1,
                ));
            }
        }
    }
    frames.push(samples::pup_packet_3mb(2, 0, 35, 1)[..12].to_vec());
    let mut billed = 0;
    for (i, frame) in frames.iter().enumerate() {
        let view = PacketView::new(frame);
        let threaded: u32 = twin
            .candidates(view)
            .iter()
            .map(|&id| {
                let f = IrFilter::compile(filters[id as usize].clone()).unwrap();
                f.eval_with_stats(view).1.ops_executed
            })
            .sum();
        assert_eq!(dev.demux(frame).ir_ops, threaded, "frame {i}");
        billed += threaded;
    }
    assert!(billed > 0, "no candidate was evaluated");
    // Figure 3-9's hit: two guards, then load, constant, compare, return.
    let hit = samples::pup_packet_3mb(2, 0, 35, 1);
    let fig_3_9 = IrFilter::compile(samples::fig_3_9_pup_socket_35()).unwrap();
    assert_eq!(
        fig_3_9
            .eval_with_stats(PacketView::new(&hit))
            .1
            .ops_executed,
        6
    );
}
