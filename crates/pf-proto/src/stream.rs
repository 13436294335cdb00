//! Bulk-stream workload processes over kernel TCP (tables 6-3 and 6-6).
//!
//! "Table 6-6 shows the rates at which the two implementations can
//! transfer bulk data from process to process": these apps are the kernel
//! TCP side of that comparison (the BSP side is
//! [`crate::bsp_app::BspSenderApp`]/[`crate::bsp_app::BspReceiverApp`]).

use crate::ip::ops;
use pf_kernel::app::App;
use pf_kernel::types::SockId;
use pf_kernel::world::ProcCtx;
use pf_sim::time::{SimDuration, SimTime};

/// Bytes handed to the kernel per `write(2)`.
pub const WRITE_CHUNK: usize = 16 * 1024;

/// A process that connects and streams `total_bytes` through kernel TCP.
pub struct TcpBulkSender {
    dst_ip: u32,
    dst_port: u16,
    dst_eth: u64,
    mss: usize,
    total: usize,
    sent: usize,
    sock: Option<SockId>,
    /// Per-chunk data-source cost (zero for memory-to-memory; table 6-6's
    /// FTP variant charges a disk read here).
    pub(crate) source_cost_per_chunk: SimDuration,
    /// Connect time.
    pub(crate) started_at: Option<SimTime>,
    /// When the final byte was handed to the kernel and acknowledged.
    pub(crate) finished_at: Option<SimTime>,
}

impl TcpBulkSender {
    /// Creates a sender for `total_bytes` to `dst_port` at
    /// `dst_ip`/`dst_eth`; `mss = 0` uses the kernel default.
    pub fn new(dst_ip: u32, dst_port: u16, dst_eth: u64, total_bytes: usize, mss: usize) -> Self {
        TcpBulkSender {
            dst_ip,
            dst_port,
            dst_eth,
            mss,
            total: total_bytes,
            sent: 0,
            sock: None,
            source_cost_per_chunk: SimDuration::ZERO,
            started_at: None,
            finished_at: None,
        }
    }

    /// Adds a per-chunk source cost (e.g. reading from a disk file).
    pub fn with_source_cost(mut self, cost: SimDuration) -> Self {
        self.source_cost_per_chunk = cost;
        self
    }

    fn write_next(&mut self, k: &mut ProcCtx<'_>) {
        let sock = self.sock.expect("connected");
        if self.sent >= self.total {
            k.ksock_request(sock, ops::TCP_CLOSE, Vec::new(), [0; 4]);
            self.finished_at = Some(k.now());
            return;
        }
        let n = (self.total - self.sent).min(WRITE_CHUNK);
        if self.source_cost_per_chunk > SimDuration::ZERO {
            k.compute("user:source", self.source_cost_per_chunk);
        }
        let chunk: Vec<u8> = (self.sent..self.sent + n)
            .map(|i| (i % 251) as u8)
            .collect();
        self.sent += n;
        k.ksock_request(sock, ops::TCP_SEND, chunk, [0; 4]);
    }
}

impl App for TcpBulkSender {
    fn start(&mut self, k: &mut ProcCtx<'_>) {
        let sock = k.ksock_open("ip").expect("ip stack registered");
        self.sock = Some(sock);
        self.started_at = Some(k.now());
        k.ksock_request(
            sock,
            ops::TCP_CONNECT,
            Vec::new(),
            [
                u64::from(self.dst_ip),
                u64::from(self.dst_port),
                self.dst_eth,
                self.mss as u64,
            ],
        );
    }

    fn on_socket(
        &mut self,
        _sock: SockId,
        op: u32,
        _data: Vec<u8>,
        _meta: [u64; 4],
        k: &mut ProcCtx<'_>,
    ) {
        match op {
            ops::TCP_CONNECTED | ops::TCP_SENDABLE => self.write_next(k),
            _ => {}
        }
    }
}

/// A process that accepts one stream and counts delivered bytes.
pub struct TcpBulkReceiver {
    port: u16,
    sock: Option<SockId>,
    /// Per-byte consumer cost (display, disk write…).
    pub(crate) per_byte_cost: SimDuration,
    /// Bytes delivered in order.
    pub bytes: u64,
    /// First-data time.
    pub(crate) first_byte_at: Option<SimTime>,
    /// Stream-close time.
    pub(crate) closed_at: Option<SimTime>,
}

impl TcpBulkReceiver {
    /// Creates a receiver listening on `port`.
    pub fn new(port: u16) -> Self {
        TcpBulkReceiver {
            port,
            sock: None,
            per_byte_cost: SimDuration::ZERO,
            bytes: 0,
            first_byte_at: None,
            closed_at: None,
        }
    }

    /// Adds a per-byte consumer cost.
    pub fn with_per_byte_cost(mut self, cost: SimDuration) -> Self {
        self.per_byte_cost = cost;
        self
    }

    /// Whether the stream closed.
    pub fn is_done(&self) -> bool {
        self.closed_at.is_some()
    }

    /// Achieved throughput in bytes/second, if complete.
    pub fn throughput_bps(&self) -> Option<f64> {
        let secs = self.closed_at?.since(self.first_byte_at?).as_secs_f64();
        (secs > 0.0).then(|| self.bytes as f64 / secs)
    }
}

impl App for TcpBulkReceiver {
    fn start(&mut self, k: &mut ProcCtx<'_>) {
        let sock = k.ksock_open("ip").expect("ip stack registered");
        self.sock = Some(sock);
        k.ksock_request(
            sock,
            ops::TCP_LISTEN,
            Vec::new(),
            [u64::from(self.port), 0, 0, 0],
        );
    }

    fn on_socket(
        &mut self,
        _sock: SockId,
        op: u32,
        data: Vec<u8>,
        _meta: [u64; 4],
        k: &mut ProcCtx<'_>,
    ) {
        match op {
            ops::TCP_RECV => {
                if self.first_byte_at.is_none() {
                    self.first_byte_at = Some(k.now());
                }
                self.bytes += data.len() as u64;
                if self.per_byte_cost > SimDuration::ZERO {
                    k.compute(
                        "user:consume",
                        SimDuration::from_nanos(self.per_byte_cost.as_nanos() * data.len() as u64),
                    );
                }
            }
            ops::TCP_CLOSED => self.closed_at = Some(k.now()),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ip::KernelIp;
    use pf_kernel::types::HostId;
    use pf_kernel::world::World;
    use pf_net::medium::Medium;
    use pf_net::segment::FaultModel;
    use pf_sim::cost::CostModel;
    use pf_sim::SimClock;

    fn tcp_world(faults: FaultModel) -> (World, HostId, HostId) {
        let mut w = World::new(31);
        let seg = w.add_segment(Medium::standard_10mb(), faults);
        let a = w.add_host("sender", seg, 0x0A, CostModel::microvax_ii());
        let b = w.add_host("receiver", seg, 0x0B, CostModel::microvax_ii());
        w.register_protocol(a, Box::new(KernelIp::new(10)));
        w.register_protocol(b, Box::new(KernelIp::new(11)));
        (w, a, b)
    }

    fn run_bulk(total: usize, mss: usize, faults: FaultModel) -> (f64, World, HostId) {
        let (mut w, a, b) = tcp_world(faults);
        let rx = w.spawn(b, Box::new(TcpBulkReceiver::new(5000)));
        w.spawn(a, Box::new(TcpBulkSender::new(11, 5000, 0x0B, total, mss)));
        w.run_until(SimTime(600 * 1_000_000_000));
        let r = w.app_ref::<TcpBulkReceiver>(b, rx).unwrap();
        assert!(r.is_done(), "stream closed ({} bytes)", r.bytes);
        assert_eq!(r.bytes as usize, total, "exact delivery");
        let tput = r.throughput_bps().unwrap();
        (tput, w, b)
    }

    #[test]
    fn bulk_transfer_delivers_and_lands_near_paper_rate() {
        let (tput, _, _) = run_bulk(256 * 1024, 0, FaultModel::default());
        let kbs = tput / 1024.0;
        // §6.4: kernel TCP moved 222 KB/s process-to-process.
        assert!((100.0..400.0).contains(&kbs), "TCP bulk {kbs:.0} KB/s");
    }

    #[test]
    fn small_mss_roughly_halves_throughput() {
        // §6.4: "if TCP is forced to use the smaller packet size, its
        // performance is cut in half."
        let (big, _, _) = run_bulk(128 * 1024, 0, FaultModel::default());
        let (small, _, _) = run_bulk(128 * 1024, 514, FaultModel::default());
        let ratio = big / small;
        assert!((1.5..3.0).contains(&ratio), "MSS ratio {ratio:.2}");
    }

    #[test]
    fn survives_loss() {
        let (tput, w, b) = run_bulk(
            64 * 1024,
            0,
            FaultModel {
                loss: 0.03,
                duplication: 0.0,
                ..FaultModel::default()
            },
        );
        assert!(tput > 0.0);
        let ip = w.protocol_ref::<KernelIp>(b).unwrap();
        let _ = ip;
    }

    #[test]
    fn profiler_sees_tcp_routines() {
        let (_, w, b) = run_bulk(64 * 1024, 0, FaultModel::default());
        let prof = w.profiler(b);
        assert!(prof.stats("tcp:input").calls > 0);
        assert!(prof.stats("ip:input").calls > 0);
        assert!(prof.stats("tcp:cksum").calls > 0, "TCP checksums all data");
    }
}
