//! Table 6-6: relative performance of stream protocol implementations.
//!
//! ```text
//! Implementation       Rate
//! Packet filter BSP    38 KB/s
//! Unix kernel TCP      222 KB/s
//! ```
//!
//! Plus the §6.4 text observations: forcing TCP down to BSP's 568-byte
//! packets cuts its throughput in half; feeding TCP from a disk file (the
//! FTP case) halves it again, while BSP is unchanged — the network, not
//! the disk, limits BSP.

use crate::report::Report;
use pf_kernel::world::World;
use pf_net::medium::Medium;
use pf_net::segment::FaultModel;
use pf_proto::bsp::BspConfig;
use pf_proto::bsp_app::{BspReceiverApp, BspSenderApp};
use pf_proto::ip::KernelIp;
use pf_proto::pup::PupAddr;
use pf_proto::stream::{TcpBulkReceiver, TcpBulkSender};
use pf_sim::cost::CostModel;
use pf_sim::time::{SimDuration, SimTime};
use pf_sim::SimClock;

const TOTAL: usize = 512 * 1024;
const RUN_CAP: SimTime = SimTime(900 * 1_000_000_000);

/// A 1987-era disk read of one 16 KB chunk (seek + rotation + transfer).
pub const DISK_CHUNK_COST: SimDuration = SimDuration::from_micros(55_000);

/// BSP bulk throughput in KB/s; `disk_source` charges [`DISK_CHUNK_COST`]
/// per 16 KB chunk.
pub(crate) fn bsp_bulk_kbs(disk_source: bool) -> f64 {
    let mut w = World::new(55);
    let seg = w.add_segment(Medium::experimental_3mb(), FaultModel::default());
    let a = w.add_host("sender", seg, 0x0A, CostModel::microvax_ii());
    let b = w.add_host("receiver", seg, 0x0B, CostModel::microvax_ii());
    w.set_contended(a, true);
    w.set_contended(b, true);
    let src = PupAddr::new(1, 0x0A, 0x300);
    let dst = PupAddr::new(1, 0x0B, 0x400);
    // The Stanford BSP implementation (1982) predates received-packet
    // batching, checksums its Pups in software, and runs a small window —
    // the configuration behind table 6-6's 38 KB/s.
    let cfg = BspConfig {
        window: 2,
        checksummed: true,
        batch: false,
        ..Default::default()
    };
    let payload: Vec<u8> = (0..TOTAL).map(|i| (i % 251) as u8).collect();
    let rx = w.spawn(b, Box::new(BspReceiverApp::new(dst, cfg.clone())));
    let mut sender = BspSenderApp::new(src, dst, payload, cfg);
    if disk_source {
        sender = sender.with_chunked_source(16 * 1024, DISK_CHUNK_COST);
    }
    w.spawn(a, Box::new(sender));
    w.run_until(RUN_CAP);
    let r = w.app_ref::<BspReceiverApp>(b, rx).expect("receiver");
    assert!(r.is_done(), "BSP transfer finished ({} bytes)", r.bytes);
    assert_eq!(r.bytes as usize, TOTAL);
    r.throughput_bps().expect("done") / 1024.0
}

/// Kernel TCP bulk throughput in KB/s with the given MSS (`0` = default
/// 1024-byte segments, i.e. 1078-byte wire packets); `disk_source`
/// charges [`DISK_CHUNK_COST`] per 16 KB chunk.
pub(crate) fn tcp_bulk_kbs(mss: usize, disk_source: bool) -> f64 {
    let mut w = World::new(55);
    let seg = w.add_segment(Medium::standard_10mb(), FaultModel::default());
    let a = w.add_host("sender", seg, 0x0A, CostModel::microvax_ii());
    let b = w.add_host("receiver", seg, 0x0B, CostModel::microvax_ii());
    w.register_protocol(a, Box::new(KernelIp::new(10)));
    w.register_protocol(b, Box::new(KernelIp::new(11)));
    let rx = w.spawn(b, Box::new(TcpBulkReceiver::new(5000)));
    let mut tx = TcpBulkSender::new(11, 5000, 0x0B, TOTAL, mss);
    if disk_source {
        tx = tx.with_source_cost(DISK_CHUNK_COST);
    }
    w.spawn(a, Box::new(tx));
    w.run_until(RUN_CAP);
    let r = w.app_ref::<TcpBulkReceiver>(b, rx).expect("receiver");
    assert!(r.is_done(), "TCP transfer finished ({} bytes)", r.bytes);
    assert_eq!(r.bytes as usize, TOTAL);
    r.throughput_bps().expect("done") / 1024.0
}

/// Builds the table 6-6 report (with the §6.4 extra rows).
pub(crate) fn report_table_6_6() -> Report {
    let bsp = bsp_bulk_kbs(false);
    let tcp = tcp_bulk_kbs(0, false);
    let tcp_small = tcp_bulk_kbs(514, false);
    let tcp_disk = tcp_bulk_kbs(0, true);
    let bsp_disk = bsp_bulk_kbs(true);
    let mut r = Report::new("Table 6-6", "Relative performance of stream protocols").headers(&[
        "implementation",
        "paper",
        "measured",
    ]);
    r.row(&[
        "Packet filter BSP".into(),
        "38 KB/s".into(),
        format!("{bsp:.0} KB/s"),
    ]);
    r.row(&[
        "Unix kernel TCP".into(),
        "222 KB/s".into(),
        format!("{tcp:.0} KB/s"),
    ]);
    r.row(&[
        "TCP, 568-byte packets".into(),
        "~111 KB/s (half)".into(),
        format!("{tcp_small:.0} KB/s"),
    ]);
    r.row(&[
        "TCP, disk file source".into(),
        "~111 KB/s (half)".into(),
        format!("{tcp_disk:.0} KB/s"),
    ]);
    r.row(&[
        "BSP, disk file source".into(),
        "38 KB/s (unchanged)".into(),
        format!("{bsp_disk:.0} KB/s"),
    ]);
    r.note("network is the rate-limiting factor for BSP file transfer (§6.4)");
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_6_6_shape() {
        let bsp = bsp_bulk_kbs(false);
        let tcp = tcp_bulk_kbs(0, false);
        // Bands around the paper's absolute numbers.
        assert!((20.0..90.0).contains(&bsp), "BSP {bsp:.0} KB/s (paper 38)");
        assert!(
            (130.0..330.0).contains(&tcp),
            "TCP {tcp:.0} KB/s (paper 222)"
        );
        // The headline: kernel TCP is severalfold faster than user BSP.
        let ratio = tcp / bsp;
        assert!(
            (2.5..9.0).contains(&ratio),
            "TCP/BSP ratio {ratio:.1} (paper ~5.8)"
        );
    }

    #[test]
    fn small_packets_halve_tcp() {
        let tcp = tcp_bulk_kbs(0, false);
        let small = tcp_bulk_kbs(514, false);
        let ratio = tcp / small;
        assert!(
            (1.5..2.8).contains(&ratio),
            "small-packet ratio {ratio:.2} (paper ~2)"
        );
    }

    #[test]
    fn disk_source_halves_tcp_but_not_bsp() {
        let tcp = tcp_bulk_kbs(0, false);
        let tcp_disk = tcp_bulk_kbs(0, true);
        let tcp_ratio = tcp / tcp_disk;
        assert!(
            (1.4..2.8).contains(&tcp_ratio),
            "TCP disk ratio {tcp_ratio:.2} (paper ~2)"
        );

        let bsp = bsp_bulk_kbs(false);
        let bsp_disk = bsp_bulk_kbs(true);
        let bsp_ratio = bsp / bsp_disk;
        assert!(
            (0.9..1.25).contains(&bsp_ratio),
            "BSP unchanged by disk source: ratio {bsp_ratio:.2}"
        );
    }
}
