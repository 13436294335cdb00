//! Tables 6-2 through 6-5: the VMTP comparisons.
//!
//! * table 6-2 — minimal round-trip (read zero bytes from a file):
//!   packet filter 14.7 ms, Unix kernel 7.44 ms, V kernel 7.32 ms;
//! * table 6-3 — bulk data (repeated 16 KB file-segment reads, ~1 MB):
//!   packet filter 112 KB/s, Unix kernel 336 KB/s, V kernel 278 KB/s,
//!   Unix kernel TCP 222 KB/s;
//! * table 6-4 — received-packet batching: 112 vs 64 KB/s;
//! * table 6-5 — an interposed user-level demultiplexing process:
//!   +20 % latency on minimal operations, bulk 112 → 25 KB/s.

use crate::report::Report;
use pf_kernel::types::{HostId, ProcId};
use pf_kernel::world::World;
use pf_net::medium::Medium;
use pf_net::segment::FaultModel;
use pf_proto::ip::KernelIp;
use pf_proto::stream::{TcpBulkReceiver, TcpBulkSender};
use pf_proto::vmtp::SEGMENT_BYTES;
use pf_proto::vmtp_kernel::{KVmtpClient, KVmtpServer, KernelVmtp};
use pf_proto::vmtp_user::{DemuxProcess, VmtpUserClient, VmtpUserServer, Workload};
use pf_sim::cost::CostModel;
use pf_sim::time::SimTime;
use pf_sim::SimClock;

const SERVER_ENTITY: u32 = 0x20;
const CLIENT_ENTITY: u32 = 0x10;
const SERVER_ETH: u64 = 0x0B;
const MINIMAL_OPS: u64 = 50;
/// ~1 MB transferred per bulk trial, as in the paper ("about 1 Mb").
const BULK_OPS: u64 = 64;
const RUN_CAP: SimTime = SimTime(900 * 1_000_000_000);

/// Which VMTP implementation to measure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// User-level over the packet filter.
    PacketFilter,
    /// Ditto, without received-packet batching (table 6-4).
    PacketFilterNoBatch,
    /// Ditto, receiving through a user-level demultiplexer (table 6-5).
    PacketFilterViaDemux,
    /// Kernel-resident, Unix cost model.
    UnixKernel,
    /// Kernel-resident, V-kernel cost model.
    VKernel,
}

/// One measurement: per-op latency and bulk throughput.
#[derive(Debug, Clone, Copy)]
pub struct VmtpMeasurement {
    /// Milliseconds per minimal operation.
    pub per_op_ms: f64,
    /// Bulk throughput in KB/s.
    pub bulk_kbs: f64,
}

fn world_for(costs: &CostModel, kernel_vmtp: bool) -> (World, HostId, HostId) {
    let mut w = World::new(77);
    let seg = w.add_segment(Medium::standard_10mb(), FaultModel::default());
    let c = w.add_host("client", seg, 0x0A, costs.clone());
    let s = w.add_host("server", seg, SERVER_ETH, costs.clone());
    if kernel_vmtp {
        w.register_protocol(c, Box::new(KernelVmtp::new()));
        w.register_protocol(s, Box::new(KernelVmtp::new()));
    }
    (w, c, s)
}

fn run_user(variant: Variant, ops: u64, response_bytes: u32) -> (World, HostId, ProcId) {
    let (mut w, c, s) = world_for(&CostModel::microvax_ii(), false);
    // The measured machines were timesharing systems with other active
    // processes (§6.5.1): wakeups cost two context switches.
    w.set_contended(c, true);
    w.set_contended(s, true);
    let server = match variant {
        Variant::PacketFilterNoBatch => VmtpUserServer::new(SERVER_ENTITY).without_batching(),
        _ => VmtpUserServer::new(SERVER_ENTITY),
    };
    w.spawn(s, Box::new(server));
    let mut client = VmtpUserClient::new(
        CLIENT_ENTITY,
        SERVER_ENTITY,
        SERVER_ETH,
        Workload {
            ops,
            response_bytes,
        },
    );
    client = match variant {
        Variant::PacketFilterNoBatch => client.without_batching(),
        Variant::PacketFilterViaDemux => client.via_pipe(),
        _ => client,
    };
    let filter = client.filter();
    let p = w.spawn(c, Box::new(client));
    if variant == Variant::PacketFilterViaDemux {
        w.spawn(c, Box::new(DemuxProcess::new(filter, p).with_queue(1024)));
    }
    w.run_until(RUN_CAP);
    (w, c, p)
}

fn run_kernel(costs: CostModel, ops: u64, response_bytes: u32) -> (World, HostId, ProcId) {
    let (mut w, c, s) = world_for(&costs, true);
    w.spawn(s, Box::new(KVmtpServer::new(SERVER_ENTITY)));
    let p = w.spawn(
        c,
        Box::new(KVmtpClient::new(
            CLIENT_ENTITY,
            SERVER_ENTITY,
            SERVER_ETH,
            Workload {
                ops,
                response_bytes,
            },
        )),
    );
    w.run_until(RUN_CAP);
    (w, c, p)
}

/// Measures one variant: minimal RTT and bulk throughput.
pub fn measure(variant: Variant) -> VmtpMeasurement {
    let (per_op_ms, bulk_kbs);
    match variant {
        Variant::UnixKernel | Variant::VKernel => {
            let costs = if variant == Variant::VKernel {
                CostModel::v_kernel()
            } else {
                CostModel::microvax_ii()
            };
            let (w, c, p) = run_kernel(costs.clone(), MINIMAL_OPS, 0);
            let app = w.app_ref::<KVmtpClient>(c, p).expect("client");
            assert!(app.is_done(), "kernel minimal workload finished");
            per_op_ms = app.per_op().expect("done").as_millis_f64();
            let (w, c, p) = run_kernel(costs, BULK_OPS, SEGMENT_BYTES as u32);
            let app = w.app_ref::<KVmtpClient>(c, p).expect("client");
            assert!(app.is_done(), "kernel bulk workload finished");
            bulk_kbs = app.throughput_bps().expect("done") / 1024.0;
        }
        _ => {
            let (w, c, p) = run_user(variant, MINIMAL_OPS, 0);
            let app = w.app_ref::<VmtpUserClient>(c, p).expect("client");
            assert!(
                app.is_done(),
                "user minimal workload finished ({variant:?})"
            );
            per_op_ms = app.per_op().expect("done").as_millis_f64();
            let (w, c, p) = run_user(variant, BULK_OPS, SEGMENT_BYTES as u32);
            let app = w.app_ref::<VmtpUserClient>(c, p).expect("client");
            assert!(app.is_done(), "user bulk workload finished ({variant:?})");
            bulk_kbs = app.throughput_bps().expect("done") / 1024.0;
        }
    }
    VmtpMeasurement {
        per_op_ms,
        bulk_kbs,
    }
}

/// Table 6-2: relative performance of VMTP for small messages.
pub fn report_table_6_2() -> Report {
    let rows = [
        ("Packet filter", Variant::PacketFilter, 14.7),
        ("Unix kernel", Variant::UnixKernel, 7.44),
        ("V kernel", Variant::VKernel, 7.32),
    ];
    let mut r = Report::new("Table 6-2", "VMTP minimal round-trip operation").headers(&[
        "implementation",
        "paper",
        "measured",
    ]);
    for (name, v, paper) in rows {
        let m = measure(v);
        r.row(&[
            name.to_string(),
            format!("{paper:.2} ms"),
            format!("{:.2} ms", m.per_op_ms),
        ]);
    }
    r.note("user-level implementation costs almost exactly a factor of two (§6.3)");
    r
}

/// Table 6-3: VMTP bulk data transfer, plus the kernel TCP row.
pub fn report_table_6_3() -> Report {
    let rows = [
        ("Packet filter", Variant::PacketFilter, 112.0),
        ("Unix kernel VMTP", Variant::UnixKernel, 336.0),
        ("V kernel VMTP", Variant::VKernel, 278.0),
    ];
    let mut r = Report::new("Table 6-3", "VMTP bulk data transfer").headers(&[
        "implementation",
        "paper",
        "measured",
    ]);
    for (name, v, paper) in rows {
        let m = measure(v);
        r.row(&[
            name.to_string(),
            format!("{paper:.0} KB/s"),
            format!("{:.0} KB/s", m.bulk_kbs),
        ]);
    }
    let tcp = measure_kernel_tcp_bulk();
    r.row(&[
        "Unix kernel TCP".to_string(),
        "222 KB/s".to_string(),
        format!("{tcp:.0} KB/s"),
    ]);
    r.note("user-level bulk pays about a factor of three (§6.3)");
    r
}

/// Kernel TCP bulk throughput in KB/s (the table 6-3 comparison row).
pub fn measure_kernel_tcp_bulk() -> f64 {
    let mut w = World::new(77);
    let seg = w.add_segment(Medium::standard_10mb(), FaultModel::default());
    let a = w.add_host("sender", seg, 0x0A, CostModel::microvax_ii());
    let b = w.add_host("receiver", seg, 0x0B, CostModel::microvax_ii());
    w.register_protocol(a, Box::new(KernelIp::new(10)));
    w.register_protocol(b, Box::new(KernelIp::new(11)));
    let rx = w.spawn(b, Box::new(TcpBulkReceiver::new(5000)));
    w.spawn(
        a,
        Box::new(TcpBulkSender::new(11, 5000, 0x0B, 1024 * 1024, 0)),
    );
    w.run_until(RUN_CAP);
    let r = w.app_ref::<TcpBulkReceiver>(b, rx).expect("receiver");
    assert!(r.is_done(), "TCP bulk finished");
    r.throughput_bps().expect("done") / 1024.0
}

/// Table 6-4: effect of received-packet batching.
pub fn report_table_6_4() -> Report {
    let with = measure(Variant::PacketFilter);
    let without = measure(Variant::PacketFilterNoBatch);
    let mut r = Report::new("Table 6-4", "Effect of received-packet batching")
        .headers(&["batching", "paper", "measured"]);
    r.row(&[
        "yes".into(),
        "112 KB/s".into(),
        format!("{:.0} KB/s", with.bulk_kbs),
    ]);
    r.row(&[
        "no".into(),
        "64 KB/s".into(),
        format!("{:.0} KB/s", without.bulk_kbs),
    ]);
    r.note(format!(
        "batching improves throughput by {:.0}% (paper: ~75%)",
        100.0 * (with.bulk_kbs / without.bulk_kbs - 1.0)
    ));
    r
}

/// Table 6-5: effect of a user-level demultiplexing process.
pub fn report_table_6_5() -> Report {
    let direct = measure(Variant::PacketFilter);
    let demux = measure(Variant::PacketFilterViaDemux);
    let mut r = Report::new("Table 6-5", "Effect of user-level demultiplexing").headers(&[
        "demultiplexing in",
        "minimal op (paper)",
        "minimal op (measured)",
        "bulk (paper)",
        "bulk (measured)",
    ]);
    r.row(&[
        "kernel".into(),
        "14.72 ms".into(),
        format!("{:.2} ms", direct.per_op_ms),
        "112 KB/s".into(),
        format!("{:.0} KB/s", direct.bulk_kbs),
    ]);
    r.row(&[
        "user process".into(),
        "18.08 ms".into(),
        format!("{:.2} ms", demux.per_op_ms),
        "25 KB/s".into(),
        format!("{:.0} KB/s", demux.bulk_kbs),
    ]);
    r.note("small cost for short messages, large cost for bulk (§6.3)");
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_6_2_shape() {
        let pf = measure(Variant::PacketFilter).per_op_ms;
        let unix = measure(Variant::UnixKernel).per_op_ms;
        let v = measure(Variant::VKernel).per_op_ms;
        // Bands around the paper's absolute numbers…
        assert!(
            (9.0..22.0).contains(&pf),
            "pf per-op {pf:.2} ms (paper 14.7)"
        );
        assert!(
            (4.5..11.0).contains(&unix),
            "unix per-op {unix:.2} ms (paper 7.44)"
        );
        // …and the headline ratio: "almost exactly a factor of two".
        let ratio = pf / unix;
        assert!((1.5..2.8).contains(&ratio), "pf/unix ratio {ratio:.2}");
        // The V kernel is no slower than the Unix kernel.
        assert!(v <= unix * 1.05, "v {v:.2} vs unix {unix:.2}");
    }

    #[test]
    fn table_6_3_shape() {
        let pf = measure(Variant::PacketFilter).bulk_kbs;
        let unix = measure(Variant::UnixKernel).bulk_kbs;
        let tcp = measure_kernel_tcp_bulk();
        assert!(
            (60.0..200.0).contains(&pf),
            "pf bulk {pf:.0} KB/s (paper 112)"
        );
        assert!(
            (200.0..500.0).contains(&unix),
            "unix bulk {unix:.0} (paper 336)"
        );
        assert!(
            (130.0..330.0).contains(&tcp),
            "tcp bulk {tcp:.0} (paper 222)"
        );
        // Kernel VMTP beats kernel TCP (no checksums), which beats user pf.
        assert!(unix > tcp, "unchecksummed kernel VMTP beats TCP");
        assert!(tcp > pf, "kernel TCP beats user-level VMTP");
        // The paper saw a factor of three; our simulated pipeline overlaps
        // the two hosts' CPUs more than the 1987 system did, landing
        // nearer 1.5x — the ordering and direction are what we pin.
        let ratio = unix / pf;
        assert!(
            (1.3..4.5).contains(&ratio),
            "kernel/user bulk ratio {ratio:.2}"
        );
    }

    #[test]
    fn table_6_4_batching_helps_substantially() {
        let with = measure(Variant::PacketFilter).bulk_kbs;
        let without = measure(Variant::PacketFilterNoBatch).bulk_kbs;
        let gain = with / without - 1.0;
        // Paper: +75%.
        assert!(gain > 0.25, "batching gain {:.0}%", gain * 100.0);
    }

    #[test]
    fn table_6_5_demux_hurts_bulk_much_more_than_latency() {
        let direct = measure(Variant::PacketFilter);
        let demux = measure(Variant::PacketFilterViaDemux);
        let latency_penalty = demux.per_op_ms / direct.per_op_ms;
        let bulk_penalty = direct.bulk_kbs / demux.bulk_kbs;
        // Paper: 1.23x latency, 4.5x bulk.
        assert!(
            (1.02..1.8).contains(&latency_penalty),
            "latency {latency_penalty:.2}x"
        );
        assert!(
            bulk_penalty > 1.8,
            "bulk penalty {bulk_penalty:.2}x (paper ~4.5x)"
        );
        assert!(
            bulk_penalty > latency_penalty * 1.5,
            "bulk suffers much more than latency"
        );
    }
}
