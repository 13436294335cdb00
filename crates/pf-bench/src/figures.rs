//! The paper's cost-diagram figures, reproduced as measured event counts.
//!
//! Figures 2-1/2-2 (context switches and system calls per packet for
//! user-process vs kernel demultiplexing), figure 2-3 (kernel-resident
//! protocols confine overhead packets to the kernel), and figures 3-4/3-5
//! (received-packet batching amortizes per-packet system calls) are
//! diagrams in the paper; here each becomes a table of per-packet counter
//! measurements from the simulated kernel.

use crate::recvcost::{self, DemuxMode, RecvConfig};
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
use pf_sim::counters::Counters;
use pf_sim::time::SimTime;
use pf_sim::SimClock;

/// Per-packet overhead events for one demultiplexing mode.
#[derive(Debug, Clone, Copy)]
pub struct DemuxEvents {
    /// Context switches per packet.
    pub switches: f64,
    /// System calls per packet.
    pub syscalls: f64,
    /// Data copies per packet.
    pub copies: f64,
}

/// Measures figure 2-1/2-2 event counts for one mode.
pub(crate) fn demux_events(mode: DemuxMode) -> DemuxEvents {
    let r = recvcost::run(&RecvConfig {
        mode,
        count: 300,
        spacing_us: if mode == DemuxMode::Kernel {
            900
        } else {
            1_900
        },
        ..Default::default()
    });
    DemuxEvents {
        switches: r.context_switches_per_packet,
        syscalls: r.syscalls_per_packet,
        copies: r.copies_per_packet,
    }
}

/// Figures 2-1/2-2 report.
pub(crate) fn report_fig_2_1_2_2() -> Report {
    let kernel = demux_events(DemuxMode::Kernel);
    let user = demux_events(DemuxMode::UserProcess);
    let mut r = Report::new(
        "Figures 2-1/2-2",
        "Per-packet overhead events: user-process vs kernel demultiplexing",
    )
    .headers(&[
        "demultiplexing in",
        "ctx switches/pkt",
        "syscalls/pkt",
        "copies/pkt",
    ]);
    r.row(&[
        "kernel (fig 2-2)".into(),
        format!("{:.2}", kernel.switches),
        format!("{:.2}", kernel.syscalls),
        format!("{:.2}", kernel.copies),
    ]);
    r.row(&[
        "user process (fig 2-1)".into(),
        format!("{:.2}", user.switches),
        format!("{:.2}", user.syscalls),
        format!("{:.2}", user.copies),
    ]);
    r.note("paper: user demux needs at least 2 extra switches and 2 extra copies per packet");
    r
}

/// Domain crossings per useful (stream payload) kilobyte, for a user-level
/// protocol vs a kernel-resident one — figure 2-3's claim quantified.
#[derive(Debug, Clone, Copy)]
pub struct CrossingCounts {
    /// Domain crossings per payload KB for user-level BSP.
    pub(crate) user_bsp_per_kb: f64,
    /// Domain crossings per payload KB for kernel TCP.
    pub(crate) kernel_tcp_per_kb: f64,
}

/// Measures figure 2-3.
pub fn crossings() -> CrossingCounts {
    const TOTAL: usize = 128 * 1024;

    // User-level BSP: every data, ack, and control packet crosses.
    let mut w = World::new(17);
    let seg = w.add_segment(Medium::experimental_3mb(), FaultModel::default());
    let a = w.add_host("sender", seg, 0x0A, CostModel::microvax_ii());
    let b = w.add_host("receiver", seg, 0x0B, CostModel::microvax_ii());
    let src = PupAddr::new(1, 0x0A, 0x300);
    let dst = PupAddr::new(1, 0x0B, 0x400);
    let cfg = BspConfig::default();
    let payload = vec![7u8; TOTAL];
    let rx = w.spawn(b, Box::new(BspReceiverApp::new(dst, cfg.clone())));
    w.spawn(a, Box::new(BspSenderApp::new(src, dst, payload, cfg)));
    w.run_until(SimTime(900 * 1_000_000_000));
    assert!(w.app_ref::<BspReceiverApp>(b, rx).expect("rx").is_done());
    let user: Counters = *w.counters(b);
    let user_bsp_per_kb = user.domain_crossings as f64 / (TOTAL as f64 / 1024.0);

    // Kernel TCP: acks and control stay in the kernel.
    let mut w = World::new(17);
    let seg = w.add_segment(Medium::standard_10mb(), FaultModel::default());
    let a = w.add_host("sender", seg, 0x0A, CostModel::microvax_ii());
    let b = w.add_host("receiver", seg, 0x0B, CostModel::microvax_ii());
    w.register_protocol(a, Box::new(KernelIp::new(10)));
    w.register_protocol(b, Box::new(KernelIp::new(11)));
    let rx = w.spawn(b, Box::new(TcpBulkReceiver::new(5000)));
    w.spawn(a, Box::new(TcpBulkSender::new(11, 5000, 0x0B, TOTAL, 0)));
    w.run_until(SimTime(900 * 1_000_000_000));
    assert!(w.app_ref::<TcpBulkReceiver>(b, rx).expect("rx").is_done());
    let kernel: Counters = *w.counters(b);
    let kernel_tcp_per_kb = kernel.domain_crossings as f64 / (TOTAL as f64 / 1024.0);

    CrossingCounts {
        user_bsp_per_kb,
        kernel_tcp_per_kb,
    }
}

/// Figure 2-3 report.
pub(crate) fn report_fig_2_3() -> Report {
    let c = crossings();
    let mut r = Report::new(
        "Figure 2-3",
        "Kernel-resident protocols reduce domain crossings (receiver side)",
    )
    .headers(&["implementation", "domain crossings / payload KB"]);
    r.row(&["user-level BSP".into(), format!("{:.2}", c.user_bsp_per_kb)]);
    r.row(&["kernel TCP".into(), format!("{:.2}", c.kernel_tcp_per_kb)]);
    r.note("every ack and control packet costs a user-level implementation a crossing");
    r
}

/// Figures 3-4/3-5: system calls per packet with and without batching.
pub(crate) fn report_fig_3_4_3_5() -> Report {
    let plain = recvcost::run(&RecvConfig {
        count: 300,
        spacing_us: 400,
        ..Default::default()
    });
    let batched = recvcost::run(&RecvConfig {
        count: 300,
        batching: true,
        spacing_us: 400,
        ..Default::default()
    });
    let mut r = Report::new(
        "Figures 3-4/3-5",
        "Received-packet batching amortizes per-packet overheads",
    )
    .headers(&[
        "mode",
        "syscalls/pkt",
        "ctx switches/pkt",
        "per-packet time",
    ]);
    r.row(&[
        "one packet per read (fig 3-4)".into(),
        format!("{:.2}", plain.syscalls_per_packet),
        format!("{:.2}", plain.context_switches_per_packet),
        format!("{:.2} ms", plain.per_packet_ms),
    ]);
    r.row(&[
        "batched reads (fig 3-5)".into(),
        format!("{:.2}", batched.syscalls_per_packet),
        format!("{:.2}", batched.context_switches_per_packet),
        format!("{:.2} ms", batched.per_packet_ms),
    ]);
    r.note("one system call returns all pending packets (§3)");
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig_2_user_demux_pays_more_of_everything() {
        let k = demux_events(DemuxMode::Kernel);
        let u = demux_events(DemuxMode::UserProcess);
        // The paper's diagram: at least 2 extra context switches, 2 extra
        // system calls (demux read + pipe write... plus the receiver's
        // read), and 2 extra copies per packet.
        assert!(u.switches > k.switches + 0.9, "switches {u:?} vs {k:?}");
        assert!(u.syscalls >= k.syscalls + 1.9, "syscalls {u:?} vs {k:?}");
        assert!(u.copies >= k.copies + 1.9, "copies {u:?} vs {k:?}");
    }

    #[test]
    fn fig_2_3_kernel_protocol_crosses_less() {
        let c = crossings();
        assert!(
            c.user_bsp_per_kb > 2.0 * c.kernel_tcp_per_kb,
            "user {:.2} vs kernel {:.2} crossings/KB",
            c.user_bsp_per_kb,
            c.kernel_tcp_per_kb
        );
    }

    #[test]
    fn fig_3_4_3_5_batching_cuts_syscalls() {
        let plain = recvcost::run(&RecvConfig {
            count: 200,
            spacing_us: 400,
            ..Default::default()
        });
        let batched = recvcost::run(&RecvConfig {
            count: 200,
            batching: true,
            spacing_us: 400,
            ..Default::default()
        });
        assert!(
            batched.syscalls_per_packet < 0.6 * plain.syscalls_per_packet,
            "batched {:.2} vs plain {:.2} syscalls/pkt",
            batched.syscalls_per_packet,
            plain.syscalls_per_packet
        );
    }
}
