//! RARP, implemented entirely at user level over the packet filter (§5.3).
//!
//! "One issue in the definition of this protocol was whether it should be
//! a layer above IP, or a parallel layer. The former leads to a
//! chicken-or-egg dilemma; the latter is cleaner but raised questions of
//! implementability under 4.2BSD. With the packet filter, however, a RARP
//! implementation was easy; the work was done in a few weeks by a student
//! who had no experience with network programming."
//!
//! The server keeps the Ethernet→IP table and answers requests; the client
//! is a diskless workstation determining its own IP address at boot, with
//! timeout-driven retries — the §3 "write; read with timeout; retry if
//! necessary" paradigm verbatim.

use crate::arp::{oper, ArpPacket, RARP_ETHERTYPE};
use pf_filter::builder::Expr;
use pf_filter::program::FilterProgram;
use pf_kernel::app::App;
use pf_kernel::types::{BlockPolicy, Fd, PortConfig, ReadError, RecvPacket};
use pf_kernel::world::ProcCtx;
use pf_net::frame;
use pf_sim::time::{SimDuration, SimTime};
use std::collections::HashMap;

/// A packet-filter program accepting RARP packets with the given
/// operation code, built with the expression DSL (the filter tests two
/// layers at once, as §3.1 notes filters may).
///
/// On the 10 Mb Ethernet the type field is word 6 and the ARP `oper`
/// field word 10.
pub fn rarp_filter(priority: u8, op: u16) -> FilterProgram {
    Expr::word(6)
        .eq(RARP_ETHERTYPE)
        .and(Expr::word(10).eq(op))
        .compile(priority)
        .expect("static filter compiles")
}

/// The user-level RARP server.
pub struct RarpServer {
    /// Ethernet address → IP address assignments.
    table: HashMap<u64, u32>,
    fd: Option<Fd>,
    /// Requests answered.
    pub answered: u64,
    /// Requests for unknown hardware addresses (ignored, per the RFC).
    pub unknown: u64,
}

impl RarpServer {
    /// Creates a server with the given Ethernet→IP table.
    pub fn new(table: HashMap<u64, u32>) -> Self {
        RarpServer {
            table,
            fd: None,
            answered: 0,
            unknown: 0,
        }
    }
}

impl App for RarpServer {
    fn start(&mut self, k: &mut ProcCtx<'_>) {
        let fd = k.pf_open();
        k.pf_set_filter(fd, rarp_filter(10, oper::RARP_REQUEST));
        self.fd = Some(fd);
        k.pf_read(fd);
    }

    fn on_packets(&mut self, fd: Fd, packets: Vec<RecvPacket>, k: &mut ProcCtx<'_>) {
        let (medium, my_eth) = k.link_info();
        for p in packets {
            let Ok(body) = frame::payload(&medium, &p.bytes) else {
                continue;
            };
            let Some(req) = ArpPacket::decode_body(body) else {
                continue;
            };
            if req.oper != oper::RARP_REQUEST {
                continue;
            }
            match self.table.get(&req.tha) {
                Some(&ip) => {
                    self.answered += 1;
                    let reply = ArpPacket {
                        oper: oper::RARP_REPLY,
                        sha: my_eth,
                        spa: 0,
                        tha: req.tha,
                        tpa: ip,
                    };
                    let f = reply.encode_frame(&medium, RARP_ETHERTYPE, req.sha, my_eth);
                    let _ = k.pf_write_owned(fd, f);
                }
                None => self.unknown += 1,
            }
        }
        k.pf_read(fd);
    }

    fn on_read_error(&mut self, fd: Fd, _err: ReadError, k: &mut ProcCtx<'_>) {
        k.pf_read(fd);
    }
}

/// The diskless-workstation RARP client: broadcasts "who am I?" until a
/// server answers (or it gives up).
pub struct RarpClient {
    fd: Option<Fd>,
    attempts_left: u32,
    /// Retry interval.
    pub retry_after: SimDuration,
    /// The learned IP address, once a reply arrives.
    pub my_ip: Option<u32>,
    /// When the address was learned.
    pub resolved_at: Option<SimTime>,
    /// Requests transmitted.
    pub requests_sent: u64,
}

impl RarpClient {
    /// Creates a client that retries up to `attempts` times.
    pub fn new(attempts: u32) -> Self {
        RarpClient {
            fd: None,
            attempts_left: attempts,
            retry_after: SimDuration::from_millis(500),
            my_ip: None,
            resolved_at: None,
            requests_sent: 0,
        }
    }

    fn send_request(&mut self, k: &mut ProcCtx<'_>) {
        let (medium, my_eth) = k.link_info();
        let req = ArpPacket {
            oper: oper::RARP_REQUEST,
            sha: my_eth,
            spa: 0,
            tha: my_eth, // asking about ourselves
            tpa: 0,
        };
        let f = req.encode_frame(&medium, RARP_ETHERTYPE, medium.broadcast, my_eth);
        let _ = k.pf_write_owned(self.fd.expect("port open"), f);
        self.requests_sent += 1;
        k.pf_read(self.fd.expect("port open"));
    }
}

impl App for RarpClient {
    fn start(&mut self, k: &mut ProcCtx<'_>) {
        let fd = k.pf_open();
        k.pf_set_filter(fd, rarp_filter(10, oper::RARP_REPLY));
        k.pf_configure(
            fd,
            PortConfig {
                block: BlockPolicy::Timeout(self.retry_after),
                ..Default::default()
            },
        );
        self.fd = Some(fd);
        self.send_request(k);
    }

    fn on_packets(&mut self, _fd: Fd, packets: Vec<RecvPacket>, k: &mut ProcCtx<'_>) {
        let (medium, my_eth) = k.link_info();
        for p in packets {
            let Ok(body) = frame::payload(&medium, &p.bytes) else {
                continue;
            };
            let Some(reply) = ArpPacket::decode_body(body) else {
                continue;
            };
            if reply.oper == oper::RARP_REPLY && reply.tha == my_eth && self.my_ip.is_none() {
                self.my_ip = Some(reply.tpa);
                self.resolved_at = Some(k.now());
            }
        }
    }

    fn on_read_error(&mut self, _fd: Fd, err: ReadError, k: &mut ProcCtx<'_>) {
        // The §3 paradigm: write; read with timeout; retry if necessary.
        if err == ReadError::TimedOut && self.my_ip.is_none() && self.attempts_left > 0 {
            self.attempts_left -= 1;
            self.send_request(k);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pf_kernel::world::World;
    use pf_net::medium::Medium;
    use pf_net::segment::FaultModel;
    use pf_sim::cost::CostModel;
    use pf_sim::SimClock;

    fn world_with_server(loss: f64) -> (World, pf_kernel::types::HostId, pf_kernel::types::HostId) {
        let mut w = World::new(5);
        let seg = w.add_segment(
            Medium::standard_10mb(),
            FaultModel {
                loss,
                duplication: 0.0,
                ..FaultModel::default()
            },
        );
        let station = w.add_host("diskless", seg, 0x0A, CostModel::microvax_ii());
        let server = w.add_host("server", seg, 0x0B, CostModel::microvax_ii());
        (w, station, server)
    }

    #[test]
    fn boot_exchange_resolves_address() {
        let (mut w, station, server) = world_with_server(0.0);
        let mut table = HashMap::new();
        table.insert(0x0Au64, 0xC0A8_000A_u32);
        let srv = w.spawn(server, Box::new(RarpServer::new(table)));
        let cli = w.spawn(station, Box::new(RarpClient::new(3)));
        w.run_until(SimTime(10_000_000_000));
        let c = w.app_ref::<RarpClient>(station, cli).unwrap();
        assert_eq!(c.my_ip, Some(0xC0A8_000A));
        assert_eq!(c.requests_sent, 1, "no retries needed");
        assert_eq!(w.app_ref::<RarpServer>(server, srv).unwrap().answered, 1);
    }

    #[test]
    fn client_retries_through_loss() {
        let (mut w, station, server) = world_with_server(0.7);
        let mut table = HashMap::new();
        table.insert(0x0Au64, 7);
        w.spawn(server, Box::new(RarpServer::new(table)));
        let cli = w.spawn(station, Box::new(RarpClient::new(50)));
        w.run_until(SimTime(120_000_000_000));
        let c = w.app_ref::<RarpClient>(station, cli).unwrap();
        assert_eq!(
            c.my_ip,
            Some(7),
            "resolved after {} attempts",
            c.requests_sent
        );
        assert!(c.requests_sent > 1, "loss forced retries");
    }

    #[test]
    fn unknown_stations_are_ignored() {
        let (mut w, station, server) = world_with_server(0.0);
        let srv = w.spawn(server, Box::new(RarpServer::new(HashMap::new())));
        let cli = w.spawn(station, Box::new(RarpClient::new(2)));
        w.run_until(SimTime(30_000_000_000));
        let c = w.app_ref::<RarpClient>(station, cli).unwrap();
        assert_eq!(c.my_ip, None);
        let s = w.app_ref::<RarpServer>(server, srv).unwrap();
        assert_eq!(s.answered, 0);
        assert_eq!(s.unknown, 3, "initial + 2 retries, all unknown");
    }

    #[test]
    fn filters_separate_requests_from_replies() {
        // The server's filter must not accept its own replies (or other
        // servers' replies), and the client's must not see requests.
        use pf_filter::interp::CheckedInterpreter;
        use pf_filter::packet::PacketView;
        let medium = Medium::standard_10mb();
        let interp = CheckedInterpreter::default();
        let req = ArpPacket {
            oper: oper::RARP_REQUEST,
            sha: 1,
            spa: 0,
            tha: 1,
            tpa: 0,
        }
        .encode_frame(&medium, RARP_ETHERTYPE, medium.broadcast, 1);
        let rep = ArpPacket {
            oper: oper::RARP_REPLY,
            sha: 2,
            spa: 0,
            tha: 1,
            tpa: 9,
        }
        .encode_frame(&medium, RARP_ETHERTYPE, 1, 2);
        let f_req = rarp_filter(10, oper::RARP_REQUEST);
        let f_rep = rarp_filter(10, oper::RARP_REPLY);
        assert!(interp.eval(&f_req, PacketView::new(&req)));
        assert!(!interp.eval(&f_req, PacketView::new(&rep)));
        assert!(interp.eval(&f_rep, PacketView::new(&rep)));
        assert!(!interp.eval(&f_rep, PacketView::new(&req)));
    }
}
