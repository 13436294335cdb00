//! Event order is a correctness property: the same seed must give the
//! same history. A 16-node hardened fabric (8 routers in a ring, a host
//! beside each) is run twice through a router kill and a link-flap train
//! (harness in `support/fabric_chaos.rs`), and everything observable — end
//! time, per-host received, per-router control-plane stats and frame
//! counts — must match exactly.
//!
//! Equal end states do not make equal histories, so three single-core runs
//! are also pinned by `World::history_digest`, a fold of every event the
//! run fired: the fabric, an armored host flooded at eight times its
//! capacity under two engines, and a BSP pair on a lossy wire beside a
//! promiscuous monitor. A refactor that moves one event moves the digest,
//! and giving a host its one receive queue explicitly moves none.

#[path = "support/fabric_chaos.rs"]
mod fabric_chaos;

use packet_filter::filter::samples;
use packet_filter::kernel::app::App;
use packet_filter::kernel::types::{Fd, PortConfig, ReadMode, RecvPacket};
use packet_filter::kernel::world::{OverloadConfig, ProcCtx, World};
use packet_filter::kernel::{AdmissionConfig, AdmissionQuota, DemuxEngine, RssConfig};
use packet_filter::monitor::capture::CaptureApp;
use packet_filter::net::medium::Medium;
use packet_filter::net::segment::FaultModel;
use packet_filter::proto::bsp::BspConfig;
use packet_filter::proto::bsp_app::{BspReceiverApp, BspSenderApp};
use packet_filter::proto::pup::PupAddr;
use packet_filter::sim::cost::CostModel;
use packet_filter::sim::time::{SimDuration, SimTime};
use packet_filter::SimClock;

#[test]
fn a_hardened_fabric_under_faults_replays_identically() {
    let first = fabric_chaos::run(8, 0x5EED_D373);
    let again = fabric_chaos::run(8, 0x5EED_D373);
    assert_eq!(first, again, "reruns at one seed must be bit-identical");
    assert_eq!(first.digest, FABRIC_DIGEST, "the fabric's history moved");

    // The comparison is not vacuous: the faults cost adjacencies, the
    // fabric reconverged, and traffic got through.
    let lost: u64 = first.router_stats.iter().map(|s| s.3).sum();
    let reconverged: u64 = first.router_stats.iter().map(|s| s.6).sum();
    assert!(lost >= 2, "kill + flaps must cost adjacencies (got {lost})");
    assert!(reconverged >= 4, "every event wave triggers reconvergence");
    assert!(first.received.iter().sum::<u64>() > 0);
}

/// Recorded when the digest was introduced, before hosts had cores.
const FABRIC_DIGEST: u64 = 0x4ec6_c393_9f78_bff0;
const FLOOD_DIGESTS: [(DemuxEngine, u64); 2] = [
    (DemuxEngine::Geom, 0x6816_28af_feb1_dad0),
    (DemuxEngine::DecisionTable, 0x902e_50ed_1a29_b1f8),
];
const BSP_DIGEST: u64 = 0x079f_c548_6978_73b4;

/// Reads socket 35 in batches at a protected priority and works 200 µs on
/// every packet.
struct Consumer;

impl App for Consumer {
    fn start(&mut self, k: &mut ProcCtx<'_>) {
        let fd = k.pf_open();
        k.pf_set_filter(fd, samples::pup_socket_filter(200, 0, 35));
        k.pf_configure(
            fd,
            PortConfig {
                read_mode: ReadMode::Batch,
                max_queue: 64,
                ..Default::default()
            },
        );
        k.pf_read(fd);
    }

    fn on_packets(&mut self, fd: Fd, packets: Vec<RecvPacket>, k: &mut ProcCtx<'_>) {
        k.compute(
            "user:consume",
            SimDuration::from_micros(200).times(packets.len() as u64),
        );
        k.pf_read(fd);
    }
}

/// Owns socket 99 under a trickle quota and never reads it.
struct JunkSink;

impl App for JunkSink {
    fn start(&mut self, k: &mut ProcCtx<'_>) {
        let fd = k.pf_open();
        k.pf_set_filter(fd, samples::pup_socket_filter(10, 0, 99));
        k.pf_set_quota(
            fd,
            Some(AdmissionQuota {
                rate_pps: 50,
                burst: 32,
            }),
        );
    }
}

/// The digest of one fully armored host flooded for 300 ms: junk on socket
/// 99 every 118 µs (eight times the ≈ 1,060 pps an interrupt-driven host
/// can demultiplex) over a wanted stream on socket 35 every 3.7 ms. With
/// `explicit_rss` the host is first given its one queue by `set_rss`.
fn armored_flood(engine: DemuxEngine, explicit_rss: bool) -> u64 {
    let mut w = World::new(0xF100D);
    let seg = w.add_segment(Medium::experimental_3mb(), FaultModel::default());
    let h = w.add_host("flooded", seg, 0x0B, CostModel::microvax_ii());
    if explicit_rss {
        w.set_rss(h, RssConfig::single_queue());
    }
    w.set_nic_capacity(h, 256);
    w.set_demux_engine(h, engine);
    w.set_overload_armor(
        h,
        Some(OverloadConfig {
            hi_watermark: 16,
            lo_watermark: 4,
            poll_batch: 16,
            poll_interval: SimDuration::from_millis(8),
        }),
    );
    w.set_admission_control(h, Some(AdmissionConfig::default()));
    w.spawn(h, Box::new(Consumer));
    w.spawn(h, Box::new(JunkSink));
    for (sock, every_ns) in [(35, 3_700_000), (99, 118_000)] {
        let frame = samples::pup_packet_3mb(2, 0, sock, 1);
        for k in 0..300_000_000 / every_ns {
            w.inject_frame(h, frame.clone(), SimTime(1_000 + k * every_ns));
        }
    }
    w.run();
    assert!(
        w.counters(h).poll_batches > 0,
        "the flood engaged the armor"
    );
    w.history_digest()
}

/// The digest of an 8 KB BSP transfer on a 3 Mb wire that loses 3% and
/// duplicates 1% of its frames, watched by a promiscuous monitor; with
/// `explicit_rss`, every host given its one queue by `set_rss`.
fn monitored_bsp_pair(explicit_rss: bool) -> u64 {
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
    let m = w.add_host("monitor", seg, 0x0C, CostModel::microvax_ii());
    if explicit_rss {
        for host in [a, b, m] {
            w.set_rss(host, RssConfig::single_queue());
        }
    }
    let (src, dst) = (PupAddr::new(1, 0x0A, 0x300), PupAddr::new(1, 0x0B, 0x400));
    let payload: Vec<u8> = (0..8_000).map(|i| (i % 241) as u8).collect();
    let rx = w.spawn(b, Box::new(BspReceiverApp::new(dst, BspConfig::default())));
    w.spawn(
        a,
        Box::new(BspSenderApp::new(src, dst, payload, BspConfig::default())),
    );
    w.spawn(m, Box::new(CaptureApp::promiscuous(10_000)));
    w.run_until(SimTime(60 * 1_000_000_000));
    let receiver = w.app_ref::<BspReceiverApp>(b, rx).expect("the receiver");
    assert!(receiver.is_done(), "the transfer finished despite loss");
    w.history_digest()
}

#[test]
fn single_core_histories_keep_their_digests() {
    for (engine, digest) in FLOOD_DIGESTS {
        assert_eq!(armored_flood(engine, false), digest, "{engine:?} flood");
    }
    assert_eq!(monitored_bsp_pair(false), BSP_DIGEST, "monitored BSP pair");
}

#[test]
fn one_explicit_receive_queue_changes_no_digest() {
    for (engine, digest) in FLOOD_DIGESTS {
        assert_eq!(armored_flood(engine, true), digest, "{engine:?} flood");
    }
    assert_eq!(monitored_bsp_pair(true), BSP_DIGEST, "monitored BSP pair");
}
