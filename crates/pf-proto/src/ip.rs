//! The kernel-resident IP/UDP stack (figure 3-2's "vanilla 4.3BSD" model).
//!
//! This is the baseline the packet filter coexists with (figure 3-3) and
//! is compared against: §6.1 profiles its per-packet input cost (~0.49 ms
//! in the IP layer, ~1.77 ms through UDP/TCP), and table 6-1 its datagram
//! send cost. The stack is deliberately "lite" — real header formats and
//! real demultiplexing, with protocol processing charged from the
//! calibrated cost model rather than re-implemented instruction by
//! instruction.
//!
//! TCP lives in [`crate::tcp`] and plugs into this module's dispatcher.

use crate::tcp::{self, TcpState};
use pf_kernel::kproto::KernelProtocol;
use pf_kernel::types::{ProcId, SockId};
use pf_kernel::world::KernelCtx;
use pf_net::frame;
use pf_sim::time::SimDuration;
use std::collections::HashMap;

/// Ethernet type for IP.
pub const IP_ETHERTYPE: u16 = 0x0800;

/// IP header length (no options — §7 notes option-bearing headers defeat
/// constant-offset filters; the kernel stack doesn't need them).
pub const IP_HEADER: usize = 20;

/// UDP header length.
pub const UDP_HEADER: usize = 8;

/// IP protocol numbers.
pub const PROTO_TCP: u8 = 6;
/// See [`PROTO_TCP`].
pub const PROTO_UDP: u8 = 17;

/// Kernel UDP input processing above the IP layer.
pub const UDP_INPUT_COST: SimDuration = SimDuration::from_micros(310);

/// User request ops for the `ip` kernel protocol.
pub mod ops {
    /// Bind a UDP socket to port `meta[0]`.
    pub const UDP_BIND: u32 = 1;
    /// Send a UDP datagram: `meta = [dst_ip, dst_port, dst_eth, checksum]`.
    pub const UDP_SEND: u32 = 2;
    /// TCP passive open on port `meta[0]`.
    pub const TCP_LISTEN: u32 = 3;
    /// TCP active open: `meta = [dst_ip, dst_port, dst_eth, 0]`.
    pub const TCP_CONNECT: u32 = 4;
    /// Send stream data on a connected TCP socket.
    pub const TCP_SEND: u32 = 5;
    /// Close a TCP stream (sends FIN after queued data).
    pub const TCP_CLOSE: u32 = 6;
    /// Completion: UDP datagram arrived; `meta = [src_ip, src_port, 0, 0]`.
    pub const UDP_RECV: u32 = 10;
    /// Completion: TCP connection established.
    pub const TCP_CONNECTED: u32 = 11;
    /// Completion: in-order TCP stream data.
    pub const TCP_RECV: u32 = 12;
    /// Completion: peer closed its direction (all data delivered).
    pub const TCP_CLOSED: u32 = 13;
    /// Completion: everything the application queued has been sent and
    /// acknowledged; it may write more (the write-side flow control).
    pub const TCP_SENDABLE: u32 = 14;
}

/// A decoded IP header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IpHeader {
    /// IP protocol number ([`PROTO_TCP`]/[`PROTO_UDP`]).
    pub proto: u8,
    /// Time to live.
    pub ttl: u8,
    /// Source address.
    pub src: u32,
    /// Destination address.
    pub dst: u32,
    /// Total length (header + payload).
    pub total_len: u16,
}

/// Writes `h` over the first [`IP_HEADER`] bytes of `b` as the header of
/// a datagram carrying `payload_len` bytes: every field [`IpHeader`] does
/// not carry (TOS, id, fragment, checksum) is zero, `h.total_len` is
/// ignored.
///
/// # Panics
///
/// Panics if `b` is shorter than [`IP_HEADER`].
pub fn put_ip_header(b: &mut [u8], h: &IpHeader, payload_len: usize) {
    let b = &mut b[..IP_HEADER];
    b.fill(0); // TOS, id, frag; header checksum (simulated as valid)
    b[0] = 0x45; // version 4, IHL 5
    b[2..4].copy_from_slice(&((IP_HEADER + payload_len) as u16).to_be_bytes());
    b[8] = h.ttl;
    b[9] = h.proto;
    b[12..16].copy_from_slice(&h.src.to_be_bytes());
    b[16..20].copy_from_slice(&h.dst.to_be_bytes());
}

/// Encodes an IP packet (header + payload).
pub fn encode_ip(h: &IpHeader, payload: &[u8]) -> Vec<u8> {
    let mut b = Vec::with_capacity(IP_HEADER + payload.len());
    b.resize(IP_HEADER, 0);
    put_ip_header(&mut b, h, payload.len());
    b.extend_from_slice(payload);
    b
}

/// Decodes an IP packet; returns the header and payload slice.
pub fn decode_ip(b: &[u8]) -> Option<(IpHeader, &[u8])> {
    if b.len() < IP_HEADER || b[0] != 0x45 {
        return None;
    }
    let total_len = u16::from_be_bytes([b[2], b[3]]);
    let total = usize::from(total_len);
    if total < IP_HEADER || total > b.len() {
        return None;
    }
    Some((
        IpHeader {
            ttl: b[8],
            proto: b[9],
            src: u32::from_be_bytes([b[12], b[13], b[14], b[15]]),
            dst: u32::from_be_bytes([b[16], b[17], b[18], b[19]]),
            total_len,
        },
        &b[IP_HEADER..total],
    ))
}

/// Encodes a UDP datagram (header + data).
pub fn encode_udp(src_port: u16, dst_port: u16, data: &[u8]) -> Vec<u8> {
    let mut b = Vec::with_capacity(UDP_HEADER + data.len());
    b.extend_from_slice(&src_port.to_be_bytes());
    b.extend_from_slice(&dst_port.to_be_bytes());
    b.extend_from_slice(&((UDP_HEADER + data.len()) as u16).to_be_bytes());
    b.extend_from_slice(&[0, 0]); // checksum (the unchecksummed variant)
    b.extend_from_slice(data);
    b
}

/// Decodes a UDP datagram; returns (src_port, dst_port, data).
pub fn decode_udp(b: &[u8]) -> Option<(u16, u16, &[u8])> {
    if b.len() < UDP_HEADER {
        return None;
    }
    let len = usize::from(u16::from_be_bytes([b[4], b[5]]));
    if len < UDP_HEADER || len > b.len() {
        return None;
    }
    Some((
        u16::from_be_bytes([b[0], b[1]]),
        u16::from_be_bytes([b[2], b[3]]),
        &b[UDP_HEADER..len],
    ))
}

/// The kernel-resident IP stack: UDP sockets plus TCP-lite connections.
pub struct KernelIp {
    /// This host's IP address.
    pub ip: u32,
    udp_binds: HashMap<u16, SockId>,
    next_ephemeral: u16,
    pub(crate) tcp: TcpState,
    /// IP datagrams processed by `ip_input`.
    pub packets_in: u64,
}

impl KernelIp {
    /// Creates the stack for a host with address `ip`.
    pub fn new(ip: u32) -> Self {
        KernelIp {
            ip,
            udp_binds: HashMap::new(),
            next_ephemeral: 1024,
            tcp: TcpState::default(),
            packets_in: 0,
        }
    }
}

/// Transmits an IP payload from `src_ip` to `dst_ip` at data-link address
/// `dst_eth`, charging output-path costs.
pub(crate) fn ip_output_raw(
    src_ip: u32,
    k: &mut KernelCtx<'_>,
    proto: u8,
    dst_ip: u32,
    dst_eth: u64,
    payload: &[u8],
) {
    let cost = k.costs().ip_input; // output ≈ input at the IP layer
    k.charge("ip:output", cost);
    let ip = encode_ip(
        &IpHeader {
            proto,
            ttl: 30,
            src: src_ip,
            dst: dst_ip,
            total_len: 0,
        },
        payload,
    );
    let (medium, my_eth) = k.link_info();
    let f = frame::build(&medium, dst_eth, my_eth, IP_ETHERTYPE, &ip)
        .expect("IP packet sized for the medium");
    k.transmit(f);
}

impl KernelProtocol for KernelIp {
    fn name(&self) -> &'static str {
        "ip"
    }

    fn claims(&self, ethertype: u16) -> bool {
        ethertype == IP_ETHERTYPE
    }

    fn input(&mut self, frame_bytes: Vec<u8>, k: &mut KernelCtx<'_>) {
        let (medium, _) = k.link_info();
        let Ok(payload) = frame::payload(&medium, &frame_bytes) else {
            return;
        };
        let Some((header, eth)) = frame::parse(&medium, &frame_bytes).ok().map(|h| (h, h.src))
        else {
            return;
        };
        let _ = header;
        self.packets_in += 1;
        let ip_cost = k.costs().ip_input;
        k.charge("ip:input", ip_cost);
        let Some((ih, body)) = decode_ip(payload) else {
            return;
        };
        if ih.dst != self.ip {
            return; // not ours; no forwarding in this host stack
        }
        match ih.proto {
            PROTO_UDP => {
                k.charge("udp:input", UDP_INPUT_COST);
                let Some((src_port, dst_port, data)) = decode_udp(body) else {
                    return;
                };
                if let Some(&sock) = self.udp_binds.get(&dst_port) {
                    k.complete(
                        sock,
                        ops::UDP_RECV,
                        data.to_vec(),
                        [u64::from(ih.src), u64::from(src_port), 0, 0],
                    );
                }
            }
            PROTO_TCP => {
                tcp::tcp_input(self, ih.src, eth, body.to_vec(), k);
            }
            _ => {}
        }
    }

    fn user_request(
        &mut self,
        _proc: ProcId,
        sock: SockId,
        op: u32,
        data: Vec<u8>,
        meta: [u64; 4],
        k: &mut KernelCtx<'_>,
    ) {
        match op {
            ops::UDP_BIND => {
                self.udp_binds.insert(meta[0] as u16, sock);
            }
            ops::UDP_SEND => {
                let dst_ip = meta[0] as u32;
                let dst_port = meta[1] as u16;
                let dst_eth = meta[2];
                let src_port = self.next_ephemeral;
                self.next_ephemeral = self.next_ephemeral.wrapping_add(1).max(1024);
                // Socket-layer + UDP output processing (table 6-1's
                // "choose a route … compute a checksum" work lives here).
                let cost = k.costs().udp_send_fixed;
                k.charge("udp:output", cost);
                let udp = encode_udp(src_port, dst_port, &data);
                ip_output_raw(self.ip, k, PROTO_UDP, dst_ip, dst_eth, &udp);
            }
            ops::TCP_LISTEN => tcp::user_listen(self, sock, meta[0] as u16),
            ops::TCP_CONNECT => tcp::user_connect(
                self,
                sock,
                meta[0] as u32,
                meta[1] as u16,
                meta[2],
                meta[3] as usize,
                k,
            ),
            ops::TCP_SEND => tcp::user_send(self, sock, data, k),
            ops::TCP_CLOSE => tcp::user_close(self, sock, k),
            _ => {}
        }
    }

    fn on_timer(&mut self, token: u64, k: &mut KernelCtx<'_>) {
        tcp::on_timer(self, token, k);
    }

    fn sock_closed(&mut self, sock: SockId, k: &mut KernelCtx<'_>) {
        self.udp_binds.retain(|_, s| *s != sock);
        tcp::sock_closed(self, sock, k);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pf_net::medium::Medium;

    #[test]
    fn ip_round_trip() {
        let h = IpHeader {
            proto: PROTO_UDP,
            ttl: 30,
            src: 0xC0A80001,
            dst: 0xC0A80002,
            total_len: 0,
        };
        let p = encode_ip(&h, &[1, 2, 3]);
        let (q, body) = decode_ip(&p).unwrap();
        assert_eq!(q.proto, PROTO_UDP);
        assert_eq!(q.src, 0xC0A80001);
        assert_eq!(q.dst, 0xC0A80002);
        assert_eq!(q.total_len as usize, IP_HEADER + 3);
        assert_eq!(body, &[1, 2, 3]);
    }

    #[test]
    fn ip_rejects_garbage() {
        assert!(decode_ip(&[0; 10]).is_none());
        let mut p = encode_ip(
            &IpHeader {
                proto: 6,
                ttl: 1,
                src: 1,
                dst: 2,
                total_len: 0,
            },
            &[],
        );
        p[0] = 0x46; // IHL 6: options unsupported
        assert!(decode_ip(&p).is_none());
        // Declared length beyond the buffer.
        let mut p = encode_ip(
            &IpHeader {
                proto: 6,
                ttl: 1,
                src: 1,
                dst: 2,
                total_len: 0,
            },
            &[1, 2],
        );
        p[2] = 0xFF;
        p[3] = 0xFF;
        assert!(decode_ip(&p).is_none());
    }

    #[test]
    fn udp_round_trip() {
        let d = encode_udp(1234, 53, b"query");
        let (s, dp, data) = decode_udp(&d).unwrap();
        assert_eq!((s, dp), (1234, 53));
        assert_eq!(data, b"query");
    }

    #[test]
    fn udp_rejects_bad_length() {
        let mut d = encode_udp(1, 2, b"xy");
        d[4] = 0xFF;
        d[5] = 0xFF;
        assert!(decode_udp(&d).is_none());
        assert!(decode_udp(&[0; 4]).is_none());
    }

    #[test]
    fn ip_payload_nests_in_ethernet_frame() {
        let medium = Medium::standard_10mb();
        let h = IpHeader {
            proto: PROTO_UDP,
            ttl: 30,
            src: 10,
            dst: 11,
            total_len: 0,
        };
        let ip = encode_ip(&h, &encode_udp(99, 100, &[7; 64]));
        let f = frame::build(&medium, 0x0B, 0x0A, IP_ETHERTYPE, &ip).unwrap();
        let body = frame::payload(&medium, &f).unwrap();
        let (ih, udp) = decode_ip(body).unwrap();
        assert_eq!(ih.dst, 11);
        let (_, _, data) = decode_udp(udp).unwrap();
        assert_eq!(data, &[7u8; 64][..]);
    }
}
