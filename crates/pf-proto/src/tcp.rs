//! TCP-lite: the kernel-resident stream protocol of the §6.4 comparison.
//!
//! A deliberately compact TCP: real segment headers (ports, 32-bit
//! sequence/ack numbers, SYN/ACK/FIN flags, a window), sliding-window
//! byte-stream delivery with cumulative acks and go-back-N timeout
//! recovery, and — the §6.3/§6.4 distinction — *checksummed data*: every
//! data byte is charged checksum time on both send and receive, which
//! VMTP and BSP skip.
//!
//! Omissions (documented, deliberate): no sequence wraparound (transfers
//! are far below 2³¹ bytes), no congestion control (1987 predates it), no
//! out-of-order reassembly (drop and re-ack, like the BSP receiver), no
//! simultaneous opens. None of these affect what the paper measures.
//!
//! "TCP in 4.3BSD uses 1078-byte packets": 14 (Ethernet) + 20 (IP) +
//! 20 (TCP) + [`MSS_DEFAULT`] = 1078 bytes on the wire. Table 6-6's
//! "forced to use the smaller packet size" run passes an MSS that matches
//! BSP's 568-byte Pups.

use crate::ip::{ops, KernelIp, PROTO_TCP};
use pf_kernel::types::SockId;
use pf_kernel::world::KernelCtx;
use pf_sim::queue::EventHandle;
use pf_sim::time::SimDuration;
use std::collections::{HashMap, VecDeque};

/// TCP header length (no options).
pub const TCP_HEADER: usize = 20;

/// Default maximum segment size (data bytes per segment).
pub const MSS_DEFAULT: usize = 1024;

/// Send/receive window in bytes.
pub const TCP_WINDOW: usize = 4096;

/// Retransmission timeout.
pub const TCP_RTO: SimDuration = SimDuration::from_millis(300);

/// Checksum cost per data byte, charged on both input and output ("note
/// that TCP checksums all data, whereas these implementations of VMTP do
/// not" — §6.3).
pub const CKSUM_PER_BYTE_NS: u64 = 600;

/// Processing cost of a pure acknowledgment (no data) above the IP layer,
/// on input or output — far below the data path's `transport_input`.
pub const PURE_ACK_COST: SimDuration = SimDuration::from_micros(350);

/// Segment flags.
pub mod flags {
    /// Connection request.
    pub const SYN: u8 = 0x02;
    /// Acknowledgment field valid.
    pub const ACK: u8 = 0x10;
    /// Sender is done.
    pub const FIN: u8 = 0x01;
}

/// A decoded TCP segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number of the first data byte (or of SYN/FIN).
    pub seq: u32,
    /// Cumulative acknowledgment.
    pub ack: u32,
    /// Flag bits.
    pub flags: u8,
    /// Advertised window.
    pub window: u16,
    /// Data.
    pub data: Vec<u8>,
}

impl Segment {
    /// Encodes the segment.
    pub fn encode(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(TCP_HEADER + self.data.len());
        b.extend_from_slice(&self.src_port.to_be_bytes());
        b.extend_from_slice(&self.dst_port.to_be_bytes());
        b.extend_from_slice(&self.seq.to_be_bytes());
        b.extend_from_slice(&self.ack.to_be_bytes());
        b.push(5 << 4); // data offset 5 words
        b.push(self.flags);
        b.extend_from_slice(&self.window.to_be_bytes());
        b.extend_from_slice(&[0, 0, 0, 0]); // checksum, urgent (simulated)
        b.extend_from_slice(&self.data);
        b
    }

    /// Decodes a segment.
    pub fn decode(b: &[u8]) -> Option<Segment> {
        if b.len() < TCP_HEADER || (b[12] >> 4) != 5 {
            return None;
        }
        Some(Segment {
            src_port: u16::from_be_bytes([b[0], b[1]]),
            dst_port: u16::from_be_bytes([b[2], b[3]]),
            seq: u32::from_be_bytes([b[4], b[5], b[6], b[7]]),
            ack: u32::from_be_bytes([b[8], b[9], b[10], b[11]]),
            flags: b[13],
            window: u16::from_be_bytes([b[14], b[15]]),
            data: b[TCP_HEADER..].to_vec(),
        })
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ConnState {
    SynSent,
    SynRcvd,
    Estab,
    Closed,
}

#[derive(Debug)]
struct Conn {
    sock: SockId,
    local_port: u16,
    remote_port: u16,
    remote_ip: u32,
    remote_eth: u64,
    mss: usize,
    state: ConnState,
    /// First unacknowledged sequence number.
    snd_una: u32,
    /// Next sequence number to send.
    snd_nxt: u32,
    /// Unacknowledged + unsent bytes; front byte has sequence `snd_una`.
    send_buf: VecDeque<u8>,
    /// User asked to close once the buffer drains.
    fin_pending: bool,
    /// Sequence number of our FIN, once sent.
    fin_seq: Option<u32>,
    /// Next expected receive sequence.
    rcv_nxt: u32,
    /// The application is waiting for a send-complete notification.
    app_waiting: bool,
    timer: Option<EventHandle>,
}

/// All TCP state within a [`KernelIp`].
#[derive(Debug, Default)]
pub struct TcpState {
    conns: Vec<Conn>,
    listens: HashMap<u16, SockId>,
    next_port: u16,
    /// Segments retransmitted (observability for loss tests).
    pub retransmits: u64,
}

/// Timer tokens namespace: `TCP_TIMER_BASE + conn index`.
const TCP_TIMER_BASE: u64 = 0x7C90_0000;

fn cksum_cost(bytes: usize) -> SimDuration {
    SimDuration::from_nanos(CKSUM_PER_BYTE_NS * bytes as u64)
}

/// Registers a passive open.
pub(crate) fn user_listen(kip: &mut KernelIp, sock: SockId, port: u16) {
    kip.tcp.listens.insert(port, sock);
}

/// Starts an active open.
pub(crate) fn user_connect(
    kip: &mut KernelIp,
    sock: SockId,
    dst_ip: u32,
    dst_port: u16,
    dst_eth: u64,
    mss: usize,
    k: &mut KernelCtx<'_>,
) {
    kip.tcp.next_port = kip.tcp.next_port.wrapping_add(1).max(2048);
    let local_port = kip.tcp.next_port;
    let conn = Conn {
        sock,
        local_port,
        remote_port: dst_port,
        remote_ip: dst_ip,
        remote_eth: dst_eth,
        mss: if mss == 0 { MSS_DEFAULT } else { mss },
        state: ConnState::SynSent,
        snd_una: 0,
        snd_nxt: 1,
        send_buf: VecDeque::new(),
        fin_pending: false,
        fin_seq: None,
        rcv_nxt: 0,
        app_waiting: false,
        timer: None,
    };
    kip.tcp.conns.push(conn);
    let ci = kip.tcp.conns.len() - 1;
    send_segment(kip, ci, 0, flags::SYN, Vec::new(), k);
    arm(kip, ci, k);
}

/// Queues stream data on a connection.
pub(crate) fn user_send(kip: &mut KernelIp, sock: SockId, data: Vec<u8>, k: &mut KernelCtx<'_>) {
    let Some(ci) = conn_by_sock(kip, sock) else {
        return;
    };
    kip.tcp.conns[ci].send_buf.extend(data);
    kip.tcp.conns[ci].app_waiting = true;
    pump(kip, ci, k);
}

/// Asks for an orderly close after queued data.
pub(crate) fn user_close(kip: &mut KernelIp, sock: SockId, k: &mut KernelCtx<'_>) {
    let Some(ci) = conn_by_sock(kip, sock) else {
        return;
    };
    kip.tcp.conns[ci].fin_pending = true;
    pump(kip, ci, k);
}

/// A TCP segment arrived inside an IP packet from `src_ip`/`eth_src`.
pub(crate) fn tcp_input(
    kip: &mut KernelIp,
    src_ip: u32,
    eth_src: u64,
    body: Vec<u8>,
    k: &mut KernelCtx<'_>,
) {
    let Some(seg) = Segment::decode(&body) else {
        return;
    };
    if seg.data.is_empty() {
        k.charge("tcp:input", PURE_ACK_COST);
    } else {
        let in_cost = k.costs().transport_input;
        k.charge("tcp:input", in_cost);
        k.charge("tcp:cksum", cksum_cost(seg.data.len()));
    }

    // Existing connection?
    let found = kip.tcp.conns.iter().position(|c| {
        c.state != ConnState::Closed
            && c.local_port == seg.dst_port
            && c.remote_port == seg.src_port
            && c.remote_ip == src_ip
    });
    if let Some(ci) = found {
        return conn_input(kip, ci, seg, k);
    }

    // New connection to a listener?
    if seg.flags & flags::SYN != 0 && seg.flags & flags::ACK == 0 {
        if let Some(&sock) = kip.tcp.listens.get(&seg.dst_port) {
            let conn = Conn {
                sock,
                local_port: seg.dst_port,
                remote_port: seg.src_port,
                remote_ip: src_ip,
                remote_eth: eth_src,
                mss: MSS_DEFAULT,
                state: ConnState::SynRcvd,
                snd_una: 0,
                snd_nxt: 1,
                send_buf: VecDeque::new(),
                fin_pending: false,
                fin_seq: None,
                rcv_nxt: seg.seq.wrapping_add(1),
                app_waiting: false,
                timer: None,
            };
            kip.tcp.conns.push(conn);
            let ci = kip.tcp.conns.len() - 1;
            send_segment(kip, ci, 0, flags::SYN | flags::ACK, Vec::new(), k);
            arm(kip, ci, k);
        }
    }
}

fn conn_input(kip: &mut KernelIp, ci: usize, seg: Segment, k: &mut KernelCtx<'_>) {
    let state = kip.tcp.conns[ci].state;
    match state {
        ConnState::SynSent => {
            if seg.flags & (flags::SYN | flags::ACK) == (flags::SYN | flags::ACK) && seg.ack == 1 {
                {
                    let c = &mut kip.tcp.conns[ci];
                    c.snd_una = 1;
                    c.rcv_nxt = seg.seq.wrapping_add(1);
                    c.state = ConnState::Estab;
                }
                disarm(kip, ci, k);
                send_ack(kip, ci, k);
                let sock = kip.tcp.conns[ci].sock;
                k.complete(sock, ops::TCP_CONNECTED, Vec::new(), [0; 4]);
                pump(kip, ci, k);
            }
        }
        ConnState::SynRcvd => {
            if seg.flags & flags::ACK != 0 && seg.ack >= 1 {
                kip.tcp.conns[ci].snd_una = 1;
                kip.tcp.conns[ci].state = ConnState::Estab;
                disarm(kip, ci, k);
                let sock = kip.tcp.conns[ci].sock;
                k.complete(sock, ops::TCP_CONNECTED, Vec::new(), [0; 4]);
                // Fall through to normal processing for piggybacked data.
                if !seg.data.is_empty() || seg.flags & flags::FIN != 0 {
                    estab_input(kip, ci, seg, k);
                }
            }
        }
        ConnState::Estab => estab_input(kip, ci, seg, k),
        ConnState::Closed => {}
    }
}

fn estab_input(kip: &mut KernelIp, ci: usize, seg: Segment, k: &mut KernelCtx<'_>) {
    // Acknowledgment processing.
    if seg.flags & flags::ACK != 0 {
        let (made_progress, all_acked, fin_acked) = {
            let c = &mut kip.tcp.conns[ci];
            let fin_acked = c.fin_seq.is_some_and(|f| seg.ack > f);
            if seg.ack > c.snd_una {
                let newly = (seg.ack - c.snd_una) as usize;
                // FIN occupies one sequence number but no buffer byte.
                let buffered = newly.min(c.send_buf.len());
                c.send_buf.drain(..buffered);
                c.snd_una = seg.ack;
                (true, c.send_buf.is_empty(), fin_acked)
            } else {
                (false, false, fin_acked)
            }
        };
        if made_progress {
            disarm(kip, ci, k);
            let c = &kip.tcp.conns[ci];
            if c.snd_nxt > c.snd_una && !fin_acked {
                arm(kip, ci, k);
            }
            pump(kip, ci, k);
            // Notify a waiting writer once everything it queued has been
            // packetized (the window keeps moving while it prepares the
            // next chunk).
            let _ = all_acked;
            let c = &mut kip.tcp.conns[ci];
            // The FIN occupies a sequence number but no buffer byte.
            let unsent = c
                .send_buf
                .len()
                .saturating_sub((c.snd_nxt - c.snd_una) as usize);
            if c.app_waiting && unsent == 0 {
                c.app_waiting = false;
                let sock = c.sock;
                k.complete(sock, ops::TCP_SENDABLE, Vec::new(), [0; 4]);
            }
        }
    }

    // Data processing (in-order only; drop-and-reack otherwise).
    if !seg.data.is_empty() {
        let (deliver, sock) = {
            let c = &mut kip.tcp.conns[ci];
            if seg.seq == c.rcv_nxt {
                c.rcv_nxt = c.rcv_nxt.wrapping_add(seg.data.len() as u32);
                (true, c.sock)
            } else {
                (false, c.sock)
            }
        };
        if deliver {
            k.complete(sock, ops::TCP_RECV, seg.data.clone(), [0; 4]);
        }
        send_ack(kip, ci, k);
    }

    // FIN processing.
    if seg.flags & flags::FIN != 0 {
        let fin_seq = seg.seq.wrapping_add(seg.data.len() as u32);
        let (consume, sock) = {
            let c = &mut kip.tcp.conns[ci];
            if fin_seq == c.rcv_nxt {
                c.rcv_nxt = c.rcv_nxt.wrapping_add(1);
                (true, c.sock)
            } else {
                (false, c.sock)
            }
        };
        send_ack(kip, ci, k);
        if consume {
            k.complete(sock, ops::TCP_CLOSED, Vec::new(), [0; 4]);
        }
    }
}

/// Sends window-permitted segments from the buffer, then a FIN if due.
fn pump(kip: &mut KernelIp, ci: usize, k: &mut KernelCtx<'_>) {
    loop {
        let (seq, chunk) = {
            let c = &kip.tcp.conns[ci];
            if c.state != ConnState::Estab {
                return;
            }
            let inflight = (c.snd_nxt - c.snd_una) as usize;
            let unsent_off = inflight;
            let unsent = c.send_buf.len().saturating_sub(unsent_off);
            if unsent == 0 || inflight >= TCP_WINDOW {
                break;
            }
            let n = unsent.min(c.mss).min(TCP_WINDOW - inflight);
            let chunk: Vec<u8> = c
                .send_buf
                .iter()
                .skip(unsent_off)
                .take(n)
                .copied()
                .collect();
            (c.snd_nxt, chunk)
        };
        let n = chunk.len() as u32;
        send_segment(kip, ci, seq, flags::ACK, chunk, k);
        let c = &mut kip.tcp.conns[ci];
        c.snd_nxt = c.snd_nxt.wrapping_add(n);
        if c.timer.is_none() {
            arm(kip, ci, k);
        }
    }
    // FIN once the buffer is fully sent.
    let send_fin = {
        let c = &kip.tcp.conns[ci];
        c.state == ConnState::Estab
            && c.fin_pending
            && c.fin_seq.is_none()
            && (c.snd_nxt - c.snd_una) as usize == c.send_buf.len()
    };
    if send_fin {
        let seq = kip.tcp.conns[ci].snd_nxt;
        kip.tcp.conns[ci].fin_seq = Some(seq);
        kip.tcp.conns[ci].snd_nxt = seq.wrapping_add(1);
        send_segment(kip, ci, seq, flags::FIN | flags::ACK, Vec::new(), k);
        arm(kip, ci, k);
    }
}

/// Retransmission: resend everything outstanding from `snd_una`.
pub(crate) fn on_timer(kip: &mut KernelIp, token: u64, k: &mut KernelCtx<'_>) {
    if !(TCP_TIMER_BASE..TCP_TIMER_BASE + 0x10000).contains(&token) {
        return;
    }
    let ci = (token - TCP_TIMER_BASE) as usize;
    if ci >= kip.tcp.conns.len() {
        return;
    }
    kip.tcp.conns[ci].timer = None;
    match kip.tcp.conns[ci].state {
        ConnState::SynSent => {
            kip.tcp.retransmits += 1;
            send_segment(kip, ci, 0, flags::SYN, Vec::new(), k);
            arm(kip, ci, k);
        }
        ConnState::SynRcvd => {
            kip.tcp.retransmits += 1;
            send_segment(kip, ci, 0, flags::SYN | flags::ACK, Vec::new(), k);
            arm(kip, ci, k);
        }
        ConnState::Estab => {
            let mut resend = Vec::new();
            {
                let c = &kip.tcp.conns[ci];
                let outstanding = (c.snd_nxt - c.snd_una) as usize;
                let data_outstanding = outstanding.min(c.send_buf.len());
                let mut off = 0usize;
                while off < data_outstanding {
                    let n = (data_outstanding - off).min(c.mss);
                    let chunk: Vec<u8> = c.send_buf.iter().skip(off).take(n).copied().collect();
                    resend.push((c.snd_una.wrapping_add(off as u32), chunk));
                    off += n;
                }
            }
            let had_any = !resend.is_empty();
            for (seq, chunk) in resend {
                kip.tcp.retransmits += 1;
                send_segment(kip, ci, seq, flags::ACK, chunk, k);
            }
            // An unacked FIN is retransmitted too.
            let fin = {
                let c = &kip.tcp.conns[ci];
                c.fin_seq.filter(|f| c.snd_una <= *f)
            };
            if let Some(f) = fin {
                kip.tcp.retransmits += 1;
                send_segment(kip, ci, f, flags::FIN | flags::ACK, Vec::new(), k);
            }
            if had_any || fin.is_some() {
                arm(kip, ci, k);
            }
        }
        ConnState::Closed => {}
    }
}

fn send_ack(kip: &mut KernelIp, ci: usize, k: &mut KernelCtx<'_>) {
    let seq = kip.tcp.conns[ci].snd_nxt;
    send_segment(kip, ci, seq, flags::ACK, Vec::new(), k);
}

fn send_segment(
    kip: &mut KernelIp,
    ci: usize,
    seq: u32,
    flag_bits: u8,
    data: Vec<u8>,
    k: &mut KernelCtx<'_>,
) {
    let (remote_ip, remote_eth, seg) = {
        let c = &kip.tcp.conns[ci];
        (
            c.remote_ip,
            c.remote_eth,
            Segment {
                src_port: c.local_port,
                dst_port: c.remote_port,
                seq,
                ack: c.rcv_nxt,
                flags: flag_bits,
                window: TCP_WINDOW as u16,
                data,
            },
        )
    };
    if seg.data.is_empty() {
        k.charge("tcp:output", PURE_ACK_COST);
    } else {
        let out_cost = k.costs().transport_input; // output ≈ input
        k.charge("tcp:output", out_cost);
        k.charge("tcp:cksum", cksum_cost(seg.data.len()));
    }
    crate::ip::ip_output_raw(kip.ip, k, PROTO_TCP, remote_ip, remote_eth, &seg.encode());
}

fn arm(kip: &mut KernelIp, ci: usize, k: &mut KernelCtx<'_>) {
    if let Some(t) = kip.tcp.conns[ci].timer.take() {
        k.cancel_timer(t);
    }
    kip.tcp.conns[ci].timer = Some(k.set_timer(TCP_RTO, TCP_TIMER_BASE + ci as u64));
}

fn disarm(kip: &mut KernelIp, ci: usize, k: &mut KernelCtx<'_>) {
    if let Some(t) = kip.tcp.conns[ci].timer.take() {
        k.cancel_timer(t);
    }
}

fn conn_by_sock(kip: &KernelIp, sock: SockId) -> Option<usize> {
    kip.tcp
        .conns
        .iter()
        .position(|c| c.sock == sock && c.state != ConnState::Closed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segment_round_trip() {
        let s = Segment {
            src_port: 2048,
            dst_port: 23,
            seq: 0xDEAD_BEEF,
            ack: 0x1234_5678,
            flags: flags::ACK | flags::FIN,
            window: 4096,
            data: vec![1, 2, 3],
        };
        assert_eq!(Segment::decode(&s.encode()), Some(s));
    }

    #[test]
    fn decode_rejects_short_or_optioned() {
        assert!(Segment::decode(&[0; 10]).is_none());
        let mut b = Segment {
            src_port: 1,
            dst_port: 2,
            seq: 0,
            ack: 0,
            flags: 0,
            window: 0,
            data: vec![],
        }
        .encode();
        b[12] = 6 << 4; // options present: unsupported
        assert!(Segment::decode(&b).is_none());
    }

    #[test]
    fn wire_sizes_match_the_paper() {
        // 14 + 20 + 20 + 1024 = 1078-byte packets (§6.4).
        assert_eq!(14 + crate::ip::IP_HEADER + TCP_HEADER + MSS_DEFAULT, 1078);
    }
}
