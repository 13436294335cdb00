//! Table 6-1: the cost of sending packets.
//!
//! ```text
//! Total packet size   via packet filter   via UDP
//! 128 bytes           1.9 mSec            3.1 mSec
//! 1500 bytes          3.6 mSec            4.9 mSec
//! ```
//!
//! "Although sending datagrams via the packet filter costs less than
//! sending an unchecksummed UDP datagram of the same size … the packet
//! filter has a slight edge, since it does not need to choose a route for
//! the datagram or compute a checksum."

use crate::report::Report;
use pf_kernel::app::App;
use pf_kernel::types::HostId;
use pf_kernel::world::{ProcCtx, World};
use pf_net::frame;
use pf_net::medium::Medium;
use pf_net::segment::FaultModel;
use pf_proto::ip::{KernelIp, IP_HEADER, UDP_HEADER};
use pf_sim::cost::CostModel;
use pf_sim::SimClock;

/// Number of packets sent per measurement.
const COUNT: usize = 200;

/// Measured send costs for one packet size.
#[derive(Debug, Clone, Copy)]
pub struct SendCost {
    /// Total frame size in bytes.
    pub frame_bytes: usize,
    /// Milliseconds of elapsed (CPU) time per packet via `pf_write`.
    pub(crate) via_pf_ms: f64,
    /// Milliseconds per packet via the kernel UDP socket.
    pub(crate) via_udp_ms: f64,
}

struct PfBlaster {
    frame: Vec<u8>,
}

impl App for PfBlaster {
    fn start(&mut self, k: &mut ProcCtx<'_>) {
        let fd = k.pf_open();
        for _ in 0..COUNT {
            k.pf_write(fd, &self.frame).expect("frame fits");
        }
    }
}

struct UdpBlaster {
    data: Vec<u8>,
}

impl App for UdpBlaster {
    fn start(&mut self, k: &mut ProcCtx<'_>) {
        let sock = k.ksock_open("ip").expect("ip registered");
        for _ in 0..COUNT {
            k.ksock_request(
                sock,
                pf_proto::ip::ops::UDP_SEND,
                self.data.clone(),
                [99, 7, 0x0B, 0],
            );
        }
    }
}

fn lone_host() -> (World, HostId) {
    let mut w = World::new(1);
    let seg = w.add_segment(Medium::standard_10mb(), FaultModel::default());
    let h = w.add_host("sender", seg, 0x0A, CostModel::microvax_ii());
    w.register_protocol(h, Box::new(KernelIp::new(10)));
    (w, h)
}

/// Elapsed CPU milliseconds per packet for one sender app.
fn measure(app: Box<dyn App>) -> f64 {
    let (mut w, h) = lone_host();
    w.spawn(h, app);
    w.run();
    w.cpu(h).busy_time().as_millis_f64() / COUNT as f64
}

/// Runs the experiment for both packet sizes.
pub fn run() -> Vec<SendCost> {
    let medium = Medium::standard_10mb();
    [128usize, 1500]
        .into_iter()
        .map(|size| {
            let payload = vec![0xA5u8; size - medium.header_len];
            let pf_frame = frame::build(&medium, 0x0B, 0x0A, 0x7777, &payload).expect("fits");
            assert_eq!(pf_frame.len(), size);
            let via_pf_ms = measure(Box::new(PfBlaster { frame: pf_frame }));
            // A UDP datagram whose whole frame is `size` bytes.
            let data = vec![0x5Au8; size - medium.header_len - IP_HEADER - UDP_HEADER];
            let via_udp_ms = measure(Box::new(UdpBlaster { data }));
            SendCost {
                frame_bytes: size,
                via_pf_ms,
                via_udp_ms,
            }
        })
        .collect()
}

/// Paper values for the report.
pub const PAPER: [(usize, f64, f64); 2] = [(128, 1.9, 3.1), (1500, 3.6, 4.9)];

/// Builds the printable report.
pub fn report() -> Report {
    let results = run();
    let mut r = Report::new("Table 6-1", "Cost of sending packets").headers(&[
        "packet size",
        "pf (paper)",
        "pf (measured)",
        "UDP (paper)",
        "UDP (measured)",
    ]);
    for (res, (sz, p_pf, p_udp)) in results.iter().zip(PAPER) {
        assert_eq!(res.frame_bytes, sz);
        r.row(&[
            format!("{} bytes", res.frame_bytes),
            format!("{p_pf:.1} ms"),
            format!("{:.2} ms", res.via_pf_ms),
            format!("{p_udp:.1} ms"),
            format!("{:.2} ms", res.via_udp_ms),
        ]);
    }
    r.note("the packet filter wins: no route choice, no checksum (§6.2)");
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_matches_table_6_1() {
        let results = run();
        for (res, (sz, p_pf, p_udp)) in results.iter().zip(PAPER) {
            assert_eq!(res.frame_bytes, sz);
            // Within ±35% of the paper's absolute numbers.
            assert!(
                (res.via_pf_ms / p_pf - 1.0).abs() < 0.35,
                "pf {} bytes: {:.2} vs paper {p_pf}",
                sz,
                res.via_pf_ms
            );
            assert!(
                (res.via_udp_ms / p_udp - 1.0).abs() < 0.35,
                "udp {} bytes: {:.2} vs paper {p_udp}",
                sz,
                res.via_udp_ms
            );
            // And the ordering claim: pf is cheaper than UDP.
            assert!(res.via_pf_ms < res.via_udp_ms);
        }
    }
}
