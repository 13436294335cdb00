//! Telnet-style remote-terminal streams (table 6-7).
//!
//! "A program on the 'server' host prints characters which are transmitted
//! across the network and displayed at the 'user' host." The same
//! character stream runs over the user-level Pup/BSP implementation and
//! over kernel TCP; the paper's point is that the *display*, not the
//! protocol implementation, is the bottleneck — BSP and TCP land within a
//! few percent of each other on both a fast workstation display and a
//! 9600-baud terminal.
//!
//! Display sinks are modeled as per-character consumer costs:
//!
//! * the MC68010 workstation "capable of displaying about 3350 characters
//!   per second" achieved ~half that end to end — the per-character cost
//!   here is display plus tty-driver processing (~590 µs/char ≈ 1700 c/s
//!   ceiling);
//! * a 9600-baud terminal draws at most 960 c/s (1042 µs/char).

use crate::bsp::{BspConfig, Effect, SenderMachine};
use crate::bsp_app::BspReceiverApp;
use crate::ip::ops;
use crate::pup::{Pup, PupAddr};
use pf_kernel::app::App;
use pf_kernel::types::{Fd, PortConfig, ReadError, ReadMode, RecvPacket, SockId, TimerId};
use pf_kernel::world::ProcCtx;
use pf_net::medium::Medium;
use pf_sim::time::SimDuration;

/// Characters written per chunk by the printing program.
pub const TELNET_CHUNK: usize = 64;

/// Server-side cost to produce one character (the printing program plus
/// the pseudo-terminal path into the network process).
pub const CHAR_GEN_COST: SimDuration = SimDuration::from_micros(200);

/// Per-character sink cost for the MC68010 workstation display path.
pub const WORKSTATION_CHAR_COST: SimDuration = SimDuration::from_micros(590);

/// Per-character sink cost for a 9600-baud terminal (960 c/s ceiling).
pub const TERMINAL_9600_CHAR_COST: SimDuration = SimDuration::from_micros(1042);

/// Keep at most this many characters buffered in the protocol machine.
const BUFFER_TARGET: usize = 4 * TELNET_CHUNK;

/// The telnet "server" over user-level BSP: generates `total_chars` and
/// streams them in push mode.
pub struct TelnetBspServer {
    machine: SenderMachine,
    total: usize,
    generated: usize,
    fd: Option<Fd>,
    timer: Option<TimerId>,
    local: PupAddr,
    finish_issued: bool,
    /// Whether the stream has fully closed.
    pub done: bool,
}

impl TelnetBspServer {
    /// Creates a server streaming `total_chars` from `local` to `remote`.
    pub fn new(local: PupAddr, remote: PupAddr, total_chars: usize) -> Self {
        let cfg = BspConfig {
            push: true,
            segment: TELNET_CHUNK,
            window: 4,
            ..Default::default()
        };
        TelnetBspServer {
            machine: SenderMachine::new(local, remote, cfg),
            total: total_chars,
            generated: 0,
            fd: None,
            timer: None,
            local,
            finish_issued: false,
            done: false,
        }
    }

    /// Generates more characters while the machine's buffer has room.
    fn generate(&mut self, k: &mut ProcCtx<'_>) {
        while self.generated < self.total
            && self.machine.is_established()
            && self.machine.buffered_bytes() < BUFFER_TARGET
        {
            let n = TELNET_CHUNK.min(self.total - self.generated);
            k.compute("user:print", CHAR_GEN_COST.times(n as u64));
            let chunk: Vec<u8> = (0..n)
                .map(|i| b'a' + ((self.generated + i) % 26) as u8)
                .collect();
            self.generated += n;
            let fx = self.machine.offer(&chunk);
            self.apply(fx, k);
        }
        if self.generated >= self.total && !self.finish_issued && self.machine.is_established() {
            self.finish_issued = true;
            let fx = self.machine.finish();
            self.apply(fx, k);
        }
    }

    fn apply(&mut self, fx: Vec<Effect>, k: &mut ProcCtx<'_>) {
        let medium = Medium::experimental_3mb();
        for e in fx {
            match e {
                Effect::Send(pup) => {
                    k.compute("user:bsp", crate::bsp_app::USER_PROTO_COST);
                    let f = pup.encode_frame(&medium, false);
                    let _ = k.pf_write_owned(self.fd.expect("open"), f);
                }
                Effect::SetTimer(d, token) => {
                    if let Some(t) = self.timer.take() {
                        k.cancel_timer(t);
                    }
                    self.timer = Some(k.set_timer(d, token));
                }
                Effect::CancelTimer(_) => {
                    if let Some(t) = self.timer.take() {
                        k.cancel_timer(t);
                    }
                }
                Effect::Connected => {}
                Effect::Closed => self.done = true,
                // The telnet experiment runs over a lossless segment; a
                // give-up would only mean the experiment is misconfigured.
                Effect::Failed => self.done = true,
                Effect::Deliver(_) => {}
            }
        }
    }
}

impl App for TelnetBspServer {
    fn start(&mut self, k: &mut ProcCtx<'_>) {
        let fd = k.pf_open();
        k.pf_set_filter(fd, Pup::socket_filter(10, self.local.socket));
        k.pf_configure(
            fd,
            PortConfig {
                read_mode: ReadMode::Batch,
                ..Default::default()
            },
        );
        self.fd = Some(fd);
        k.pf_read(fd);
        let fx = self.machine.connect();
        self.apply(fx, k);
    }

    fn on_packets(&mut self, fd: Fd, packets: Vec<RecvPacket>, k: &mut ProcCtx<'_>) {
        let medium = Medium::experimental_3mb();
        for p in packets {
            k.compute("user:bsp", crate::bsp_app::USER_PROTO_COST);
            if let Ok(pup) = Pup::decode_frame(&medium, &p.bytes) {
                let fx = self.machine.on_pup(&pup);
                self.apply(fx, k);
            }
        }
        self.generate(k);
        k.pf_read(fd);
    }

    fn on_timer(&mut self, token: u64, k: &mut ProcCtx<'_>) {
        self.timer = None;
        let fx = self.machine.on_timer(token);
        self.apply(fx, k);
    }

    fn on_read_error(&mut self, fd: Fd, _err: ReadError, k: &mut ProcCtx<'_>) {
        k.pf_read(fd);
    }
}

/// The telnet "user" side over BSP is just a [`BspReceiverApp`] with a
/// per-character display cost.
pub fn telnet_bsp_client(local: PupAddr, char_cost: SimDuration) -> BspReceiverApp {
    let cfg = BspConfig {
        push: true,
        segment: TELNET_CHUNK,
        window: 4,
        ..Default::default()
    };
    BspReceiverApp::new(local, cfg).with_per_byte_cost(char_cost)
}

/// The telnet server over kernel TCP: same generation pattern, writes
/// [`TELNET_CHUNK`]-character chunks through the socket.
pub struct TelnetTcpServer {
    dst_ip: u32,
    dst_port: u16,
    dst_eth: u64,
    total: usize,
    generated: usize,
    sock: Option<SockId>,
}

impl TelnetTcpServer {
    /// Creates a server streaming `total_chars` to `dst_port` at
    /// `dst_ip`/`dst_eth`.
    pub fn new(dst_ip: u32, dst_port: u16, dst_eth: u64, total_chars: usize) -> Self {
        TelnetTcpServer {
            dst_ip,
            dst_port,
            dst_eth,
            total: total_chars,
            generated: 0,
            sock: None,
        }
    }

    fn write_next(&mut self, k: &mut ProcCtx<'_>) {
        let sock = self.sock.expect("connected");
        if self.generated >= self.total {
            k.ksock_request(sock, ops::TCP_CLOSE, Vec::new(), [0; 4]);
            return;
        }
        let n = TELNET_CHUNK.min(self.total - self.generated);
        k.compute("user:print", CHAR_GEN_COST.times(n as u64));
        let chunk: Vec<u8> = (0..n)
            .map(|i| b'a' + ((self.generated + i) % 26) as u8)
            .collect();
        self.generated += n;
        k.ksock_request(sock, ops::TCP_SEND, chunk, [0; 4]);
    }
}

impl App for TelnetTcpServer {
    fn start(&mut self, k: &mut ProcCtx<'_>) {
        let sock = k.ksock_open("ip").expect("ip registered");
        self.sock = Some(sock);
        k.ksock_request(
            sock,
            ops::TCP_CONNECT,
            Vec::new(),
            [
                u64::from(self.dst_ip),
                u64::from(self.dst_port),
                self.dst_eth,
                0,
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
        if op == ops::TCP_CONNECTED || op == ops::TCP_SENDABLE {
            self.write_next(k);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ip::KernelIp;
    use crate::stream::TcpBulkReceiver;
    use pf_kernel::world::World;
    use pf_net::segment::FaultModel;
    use pf_sim::cost::CostModel;
    use pf_sim::time::SimTime;
    use pf_sim::SimClock;

    const CHARS: usize = 4_000;

    fn bsp_rate(char_cost: SimDuration) -> f64 {
        let mut w = World::new(9);
        let seg = w.add_segment(Medium::experimental_3mb(), FaultModel::default());
        let server = w.add_host("server", seg, 0x0A, CostModel::microvax_ii());
        let user = w.add_host("user", seg, 0x0B, CostModel::microvax_ii());
        let src = PupAddr::new(1, 0x0A, 0x17);
        let dst = PupAddr::new(1, 0x0B, 0x18);
        let rx = w.spawn(user, Box::new(telnet_bsp_client(dst, char_cost)));
        w.spawn(server, Box::new(TelnetBspServer::new(src, dst, CHARS)));
        w.run_until(SimTime(300 * 1_000_000_000));
        let r = w.app_ref::<BspReceiverApp>(user, rx).unwrap();
        assert!(r.is_done(), "stream closed; got {} chars", r.bytes);
        assert_eq!(r.bytes as usize, CHARS);
        r.throughput_bps().unwrap()
    }

    fn tcp_rate(char_cost: SimDuration) -> f64 {
        let mut w = World::new(9);
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
        w.run_until(SimTime(300 * 1_000_000_000));
        let r = w.app_ref::<TcpBulkReceiver>(user, rx).unwrap();
        assert!(r.is_done(), "stream closed; got {} chars", r.bytes);
        assert_eq!(r.bytes as usize, CHARS);
        r.throughput_bps().unwrap()
    }

    #[test]
    fn workstation_display_rates_match_table_6_7_band() {
        // Paper: BSP 1635 c/s, TCP 1757 c/s on the fast display.
        let bsp = bsp_rate(WORKSTATION_CHAR_COST);
        let tcp = tcp_rate(WORKSTATION_CHAR_COST);
        assert!((1_000.0..2_500.0).contains(&bsp), "BSP {bsp:.0} c/s");
        assert!((1_000.0..2_500.0).contains(&tcp), "TCP {tcp:.0} c/s");
    }

    #[test]
    fn terminal_9600_rates_match_table_6_7_band() {
        // Paper: BSP 878 c/s, TCP 933 c/s on the 9600-baud terminal.
        let bsp = bsp_rate(TERMINAL_9600_CHAR_COST);
        let tcp = tcp_rate(TERMINAL_9600_CHAR_COST);
        assert!((700.0..960.0).contains(&bsp), "BSP {bsp:.0} c/s");
        assert!((700.0..960.0).contains(&tcp), "TCP {tcp:.0} c/s");
    }

    #[test]
    fn display_is_the_bottleneck_not_the_protocol() {
        // The paper's qualitative claim: output rates vary "only slightly
        // according to whether TCP or BSP (and thus the packet filter) is
        // used" — the display rate dominates.
        let bsp = bsp_rate(TERMINAL_9600_CHAR_COST);
        let tcp = tcp_rate(TERMINAL_9600_CHAR_COST);
        let ratio = tcp / bsp;
        assert!((0.8..1.35).contains(&ratio), "BSP {bsp:.0} vs TCP {tcp:.0}");
    }
}
