//! Table 6-7: relative performance of Telnet.
//!
//! ```text
//! Telnet protocol   Network      Output rate
//! Pup/BSP           10 Mbit/s    1635 c/s   (MC68010 workstation display)
//! IP/TCP            10 Mbit/s    1757 c/s
//! Pup/BSP            3 Mbit/s     878 c/s   (9600-baud terminal)
//! IP/TCP             3 Mbit/s     933 c/s
//! ```
//!
//! (The paper's first two rows are display-limited and the last two
//! terminal-limited; the network column hardly matters, which is the
//! point: "these output rates are clearly limited by the display terminal,
//! not by network performance.")

use crate::report::Report;
use pf_kernel::world::World;
use pf_net::medium::Medium;
use pf_net::segment::FaultModel;
use pf_proto::bsp_app::BspReceiverApp;
use pf_proto::ip::KernelIp;
use pf_proto::pup::PupAddr;
use pf_proto::stream::TcpBulkReceiver;
use pf_proto::telnet::{
    telnet_bsp_client, TelnetBspServer, TelnetTcpServer, TERMINAL_9600_CHAR_COST,
    WORKSTATION_CHAR_COST,
};
use pf_sim::cost::CostModel;
use pf_sim::time::{SimDuration, SimTime};
use pf_sim::SimClock;

const CHARS: usize = 8_000;
const RUN_CAP: SimTime = SimTime(300 * 1_000_000_000);

/// Output rate (characters/second) for telnet over user-level BSP.
pub(crate) fn bsp_rate(char_cost: SimDuration) -> f64 {
    let mut w = World::new(61);
    let seg = w.add_segment(Medium::experimental_3mb(), FaultModel::default());
    let server = w.add_host("server", seg, 0x0A, CostModel::microvax_ii());
    let user = w.add_host("user", seg, 0x0B, CostModel::microvax_ii());
    let src = PupAddr::new(1, 0x0A, 0x17);
    let dst = PupAddr::new(1, 0x0B, 0x18);
    let rx = w.spawn(user, Box::new(telnet_bsp_client(dst, char_cost)));
    w.spawn(server, Box::new(TelnetBspServer::new(src, dst, CHARS)));
    w.run_until(RUN_CAP);
    let r = w.app_ref::<BspReceiverApp>(user, rx).expect("client");
    assert!(
        r.is_done(),
        "telnet/BSP stream finished ({} chars)",
        r.bytes
    );
    r.throughput_bps().expect("done")
}

/// Output rate (characters/second) for telnet over kernel TCP.
pub(crate) fn tcp_rate(char_cost: SimDuration) -> f64 {
    let mut w = World::new(61);
    let seg = w.add_segment(Medium::standard_10mb(), FaultModel::default());
    let server = w.add_host("server", seg, 0x0A, CostModel::microvax_ii());
    let user = w.add_host("user", seg, 0x0B, CostModel::microvax_ii());
    w.register_protocol(server, Box::new(KernelIp::new(10)));
    w.register_protocol(user, Box::new(KernelIp::new(11)));
    let rx = w.spawn(
        user,
        Box::new(TcpBulkReceiver::new(23).with_per_byte_cost(char_cost)),
    );
    w.spawn(server, Box::new(TelnetTcpServer::new(11, 23, 0x0B, CHARS)));
    w.run_until(RUN_CAP);
    let r = w.app_ref::<TcpBulkReceiver>(user, rx).expect("client");
    assert!(
        r.is_done(),
        "telnet/TCP stream finished ({} chars)",
        r.bytes
    );
    r.throughput_bps().expect("done")
}

/// Builds the table 6-7 report.
pub(crate) fn report_table_6_7() -> Report {
    let rows = [
        (
            "Pup/BSP, workstation display",
            WORKSTATION_CHAR_COST,
            1635.0,
            true,
        ),
        (
            "IP/TCP, workstation display",
            WORKSTATION_CHAR_COST,
            1757.0,
            false,
        ),
        (
            "Pup/BSP, 9600-baud terminal",
            TERMINAL_9600_CHAR_COST,
            878.0,
            true,
        ),
        (
            "IP/TCP, 9600-baud terminal",
            TERMINAL_9600_CHAR_COST,
            933.0,
            false,
        ),
    ];
    let mut r = Report::new("Table 6-7", "Relative performance of Telnet").headers(&[
        "configuration",
        "paper",
        "measured",
    ]);
    for (name, cost, paper, is_bsp) in rows {
        let rate = if is_bsp {
            bsp_rate(cost)
        } else {
            tcp_rate(cost)
        };
        r.row(&[
            name.to_string(),
            format!("{paper:.0} c/s"),
            format!("{rate:.0} c/s"),
        ]);
    }
    r.note("output rates limited by the display, not the protocol (§6.4)");
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_6_7_shape() {
        let bsp_ws = bsp_rate(WORKSTATION_CHAR_COST);
        let tcp_ws = tcp_rate(WORKSTATION_CHAR_COST);
        let bsp_tt = bsp_rate(TERMINAL_9600_CHAR_COST);
        let tcp_tt = tcp_rate(TERMINAL_9600_CHAR_COST);
        // Workstation rows land near the paper's ~1700 c/s.
        assert!((1_100.0..2_400.0).contains(&bsp_ws), "BSP ws {bsp_ws:.0}");
        assert!((1_100.0..2_400.0).contains(&tcp_ws), "TCP ws {tcp_ws:.0}");
        // Terminal rows below the 960 c/s line ceiling.
        assert!((700.0..960.0).contains(&bsp_tt), "BSP term {bsp_tt:.0}");
        assert!((700.0..960.0).contains(&tcp_tt), "TCP term {tcp_tt:.0}");
        // The protocol choice moves the needle only slightly (paper: ≤8%);
        // allow a generous 35%.
        assert!((tcp_ws / bsp_ws - 1.0).abs() < 0.35);
        assert!((tcp_tt / bsp_tt - 1.0).abs() < 0.35);
        // Terminal rows are strictly slower than workstation rows.
        assert!(bsp_tt < bsp_ws && tcp_tt < tcp_ws);
    }
}
