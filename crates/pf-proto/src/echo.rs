//! Pup Echo — the simplest Pup protocol (§5.1), and the clearest example
//! of the §3 programming model: "Simple programs can be written using a
//! 'write; read with timeout; retry if necessary' paradigm."
//!
//! The server answers `EchoMe` Pups with `ImAnEcho`, payload intact; the
//! client pings N times, measuring round trips and retrying lost ones.

use crate::pup::{types, Pup, PupAddr};
use pf_kernel::app::App;
use pf_kernel::types::{BlockPolicy, Fd, PortConfig, ReadError, RecvPacket};
use pf_kernel::world::ProcCtx;
use pf_net::medium::Medium;
use pf_sim::time::{SimDuration, SimTime};

/// The user-level Pup echo server.
pub struct EchoServer {
    local: PupAddr,
    fd: Option<Fd>,
    /// Echoes answered.
    pub answered: u64,
}

impl EchoServer {
    /// Creates a server listening on `local`.
    pub fn new(local: PupAddr) -> Self {
        EchoServer {
            local,
            fd: None,
            answered: 0,
        }
    }
}

impl App for EchoServer {
    fn start(&mut self, k: &mut ProcCtx<'_>) {
        let fd = k.pf_open();
        k.pf_set_filter(fd, Pup::socket_filter(10, self.local.socket));
        self.fd = Some(fd);
        k.pf_read(fd);
    }

    fn on_packets(&mut self, fd: Fd, packets: Vec<RecvPacket>, k: &mut ProcCtx<'_>) {
        let medium = Medium::experimental_3mb();
        for p in packets {
            let Ok(pup) = Pup::decode_frame(&medium, &p.bytes) else {
                continue;
            };
            if pup.ptype != types::ECHO_ME {
                continue;
            }
            self.answered += 1;
            let reply = Pup::new(types::IM_AN_ECHO, pup.id, pup.src, self.local, pup.data);
            let _ = k.pf_write_owned(fd, reply.encode_frame(&medium, false));
        }
        k.pf_read(fd);
    }

    fn on_read_error(&mut self, fd: Fd, _e: ReadError, k: &mut ProcCtx<'_>) {
        k.pf_read(fd);
    }
}

/// The echo client: the §3 "write; read with timeout; retry" paradigm.
pub struct EchoClient {
    local: PupAddr,
    server: PupAddr,
    remaining: u32,
    payload: Vec<u8>,
    timeout: SimDuration,
    fd: Option<Fd>,
    next_id: u32,
    sent_at: Option<SimTime>,
    /// Round-trip times of completed echoes.
    /// Read by `tests/busy_ethernet.rs`.
    pub rtts: Vec<SimDuration>,
    /// Retransmissions forced by timeouts.
    pub retries: u64,
    /// Replies whose payload did not match what was sent.
    pub corrupt: u64,
}

impl EchoClient {
    /// Creates a client that will ping `server` `count` times with the
    /// given payload.
    pub fn new(local: PupAddr, server: PupAddr, count: u32, payload: Vec<u8>) -> Self {
        EchoClient {
            local,
            server,
            remaining: count,
            payload,
            timeout: SimDuration::from_millis(200),
            fd: None,
            next_id: 1,
            sent_at: None,
            rtts: Vec::new(),
            retries: 0,
            corrupt: 0,
        }
    }

    /// Whether all echoes completed.
    pub fn is_done(&self) -> bool {
        self.remaining == 0
    }

    fn ping(&mut self, k: &mut ProcCtx<'_>) {
        // write…
        let medium = Medium::experimental_3mb();
        let pup = Pup::new(
            types::ECHO_ME,
            self.next_id,
            self.server,
            self.local,
            self.payload.clone(),
        );
        let _ = k.pf_write_owned(self.fd.expect("open"), pup.encode_frame(&medium, false));
        self.sent_at = Some(k.now());
        // …read with timeout…
        k.pf_read(self.fd.expect("open"));
    }
}

impl App for EchoClient {
    fn start(&mut self, k: &mut ProcCtx<'_>) {
        let fd = k.pf_open();
        k.pf_set_filter(fd, Pup::socket_filter(10, self.local.socket));
        k.pf_configure(
            fd,
            PortConfig {
                block: BlockPolicy::Timeout(self.timeout),
                ..Default::default()
            },
        );
        self.fd = Some(fd);
        if self.remaining > 0 {
            self.ping(k);
        }
    }

    fn on_packets(&mut self, fd: Fd, packets: Vec<RecvPacket>, k: &mut ProcCtx<'_>) {
        let medium = Medium::experimental_3mb();
        for p in packets {
            let Ok(pup) = Pup::decode_frame(&medium, &p.bytes) else {
                continue;
            };
            if pup.ptype != types::IM_AN_ECHO || pup.id != self.next_id {
                continue; // stale or foreign echo
            }
            if pup.data != self.payload {
                self.corrupt += 1;
            }
            if let Some(t0) = self.sent_at.take() {
                self.rtts.push(k.now().since(t0));
            }
            self.remaining -= 1;
            self.next_id += 1;
            if self.remaining > 0 {
                self.ping(k);
                return;
            }
            return;
        }
        // Nothing useful in the batch: keep waiting out the timeout.
        if self.remaining > 0 {
            k.pf_read(fd);
        }
    }

    fn on_read_error(&mut self, _fd: Fd, err: ReadError, k: &mut ProcCtx<'_>) {
        // …retry if necessary.
        if err == ReadError::TimedOut && self.remaining > 0 {
            self.retries += 1;
            self.ping(k);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pf_kernel::world::World;
    use pf_net::segment::FaultModel;
    use pf_sim::cost::CostModel;
    use pf_sim::SimClock;

    fn echo_world(loss: f64) -> (World, pf_kernel::types::HostId, pf_kernel::types::HostId) {
        let mut w = World::new(31);
        let seg = w.add_segment(
            Medium::experimental_3mb(),
            FaultModel {
                loss,
                duplication: 0.0,
                ..FaultModel::default()
            },
        );
        let c = w.add_host("client", seg, 0x0A, CostModel::microvax_ii());
        let s = w.add_host("server", seg, 0x0B, CostModel::microvax_ii());
        (w, c, s)
    }

    #[test]
    fn echoes_complete_with_sane_rtts() {
        let (mut w, c, s) = echo_world(0.0);
        let client = PupAddr::new(1, 0x0A, 0x111);
        let server = PupAddr::new(1, 0x0B, 0x5); // the well-known echo socket
        w.spawn(s, Box::new(EchoServer::new(server)));
        let p = w.spawn(
            c,
            Box::new(EchoClient::new(client, server, 20, b"ping".to_vec())),
        );
        w.run_until(SimTime(60_000_000_000));
        let app = w.app_ref::<EchoClient>(c, p).unwrap();
        assert!(app.is_done());
        assert_eq!(app.rtts.len(), 20);
        assert_eq!(app.retries, 0);
        assert_eq!(app.corrupt, 0);
        let rtt = app.rtts.iter().map(|r| r.as_millis_f64()).sum::<f64>() / 20.0;
        // Send (~1.9) + recv (~2) on each side, plus wire time.
        assert!((4.0..15.0).contains(&rtt), "mean RTT {rtt:.2} ms");
    }

    #[test]
    fn retries_recover_from_loss() {
        let (mut w, c, s) = echo_world(0.25);
        let client = PupAddr::new(1, 0x0A, 0x111);
        let server = PupAddr::new(1, 0x0B, 0x5);
        let srv = w.spawn(s, Box::new(EchoServer::new(server)));
        let p = w.spawn(
            c,
            Box::new(EchoClient::new(client, server, 15, vec![7; 100])),
        );
        w.run_until(SimTime(300_000_000_000));
        let app = w.app_ref::<EchoClient>(c, p).unwrap();
        assert!(app.is_done(), "completed {} of 15", app.rtts.len());
        assert!(app.retries > 0, "25% loss must force retries");
        assert!(w.app_ref::<EchoServer>(s, srv).unwrap().answered >= 15);
    }

    #[test]
    fn echo_payload_round_trips_exactly() {
        let (mut w, c, s) = echo_world(0.0);
        let client = PupAddr::new(1, 0x0A, 0x111);
        let server = PupAddr::new(1, 0x0B, 0x5);
        w.spawn(s, Box::new(EchoServer::new(server)));
        let payload: Vec<u8> = (0..=255).collect();
        let p = w.spawn(c, Box::new(EchoClient::new(client, server, 3, payload)));
        w.run_until(SimTime(30_000_000_000));
        let app = w.app_ref::<EchoClient>(c, p).unwrap();
        assert!(app.is_done());
        assert_eq!(app.corrupt, 0);
    }
}
