//! VMTP — Cheriton's Versatile Message Transaction Protocol (§5.2, §6.3).
//!
//! The paper's most direct comparison: "The only interesting protocol for
//! which there is both a packet-filter based implementation and a
//! kernel-resident implementation is VMTP … while there are minor
//! differences in the actual protocols implemented … they follow
//! essentially the same pattern of packet transport."
//!
//! We make that literally true: this module holds the wire format and the
//! *pure* client/server transaction machines; `vmtp_user` embeds them in
//! user processes over the packet filter, and `vmtp_kernel` embeds the
//! very same machines in a kernel-resident protocol module. The packet
//! pattern on the wire is identical — only where the domain crossings
//! happen differs, which is exactly what tables 6-2/6-3 measure.
//!
//! Transaction shape: a client *invokes* an operation on a server entity;
//! the request is a single packet; the response is a *packet group* of up
//! to [`MAX_GROUP`] packets (a 16 KByte segment, as in the paper's
//! file-read workload). The response acknowledges the request; the client
//! acks the group, and recovers missing group members with a selective
//! retry mask.

use pf_net::frame;
use pf_net::medium::Medium;
use pf_sim::time::SimDuration;
use std::collections::HashMap;

/// Ethernet type for VMTP (V-system era encapsulation, directly over the
/// data link).
pub const VMTP_ETHERTYPE: u16 = 0x805C;

/// VMTP wire header length in bytes (after the data-link header).
pub const VMTP_HEADER: usize = 24;

/// Payload bytes per packet.
pub const DATA_PER_PACKET: usize = 1024;

/// Maximum packets in a response group (one 16 KByte VMTP segment + slop).
pub const MAX_GROUP: usize = 32;

/// A VMTP segment: the paper's bulk test repeatedly reads one 16 KByte
/// file segment.
pub const SEGMENT_BYTES: usize = 16 * 1024;

/// Client retransmission timer token.
pub const VMTP_RTO_TOKEN: u64 = 0x7319;

/// Client backpressure-pacing timer token (delays the next transaction
/// after a kernel backpressure notification).
pub const VMTP_PACE_TOKEN: u64 = 0x7A3E;

/// Header flag bit: the body carries a trailing 16-bit checksum.
///
/// The paper's VMTP implementations "do not" checksum (§6.3), so plain
/// bodies stay byte-identical to the original wire format and the flag is
/// opt-in: the chaos experiments turn it on to survive injected bit flips.
pub const FLAG_CHECKSUM: u8 = 0x01;

/// One's-complement add-and-left-cycle checksum over `b` (the same
/// add-and-rotate family Pup uses), never the all-ones sentinel.
pub fn vmtp_checksum(b: &[u8]) -> u16 {
    let mut sum: u16 = 0;
    let mut i = 0;
    while i < b.len() {
        let hi = b[i] as u16;
        let lo = if i + 1 < b.len() { b[i + 1] as u16 } else { 0 };
        let word = (hi << 8) | lo;
        let (s, carry) = sum.overflowing_add(word);
        sum = s.wrapping_add(u16::from(carry));
        sum = sum.rotate_left(1);
        i += 2;
    }
    if sum == 0xFFFF {
        0
    } else {
        sum
    }
}

/// Packet kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VmtpType {
    /// Client → server invocation.
    Request,
    /// Server → client response-group member.
    Response,
    /// Client → server group acknowledgment (transaction complete).
    Ack,
    /// Client → server selective retransmission request (missing mask in
    /// `opcode`).
    Retry,
}

impl VmtpType {
    fn code(self) -> u8 {
        match self {
            VmtpType::Request => 1,
            VmtpType::Response => 2,
            VmtpType::Ack => 3,
            VmtpType::Retry => 4,
        }
    }

    fn decode(code: u8) -> Option<Self> {
        Some(match code {
            1 => VmtpType::Request,
            2 => VmtpType::Response,
            3 => VmtpType::Ack,
            4 => VmtpType::Retry,
            _ => return None,
        })
    }
}

/// A decoded VMTP packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VmtpPacket {
    /// Destination entity (demultiplexing key; at a fixed offset so the
    /// packet filter can test it).
    pub dst_entity: u32,
    /// Source entity.
    pub src_entity: u32,
    /// Transaction identifier.
    pub trans: u32,
    /// Packet kind.
    pub ptype: VmtpType,
    /// Index of this packet within its group.
    pub index: u8,
    /// Number of packets in the group.
    pub count: u8,
    /// Operation code (requests), or retry mask (retries).
    pub opcode: u32,
    /// Payload.
    pub data: Vec<u8>,
}

impl VmtpPacket {
    /// Encodes the VMTP body (header + data), no data-link header.
    pub fn encode_body(&self) -> Vec<u8> {
        self.encode_body_opts(false)
    }

    /// Encodes the body, optionally appending a trailing 16-bit checksum
    /// (and setting [`FLAG_CHECKSUM`] so receivers verify it).
    pub fn encode_body_opts(&self, checksummed: bool) -> Vec<u8> {
        let mut b = Vec::with_capacity(self.body_len(checksummed));
        self.encode_body_into(&mut b, checksummed);
        b
    }

    /// The length of the encoded body.
    fn body_len(&self, checksummed: bool) -> usize {
        VMTP_HEADER + self.data.len() + if checksummed { 2 } else { 0 }
    }

    /// Appends the body to `b`: [`Self::encode_body_opts`]'s bytes, the
    /// checksum taken over the body's own range of `b`.
    pub fn encode_body_into(&self, b: &mut Vec<u8>, checksummed: bool) {
        let start = b.len();
        b.extend_from_slice(&self.dst_entity.to_be_bytes());
        b.extend_from_slice(&self.src_entity.to_be_bytes());
        b.extend_from_slice(&self.trans.to_be_bytes());
        b.push(self.ptype.code());
        b.push(self.index);
        b.push(self.count);
        b.push(if checksummed { FLAG_CHECKSUM } else { 0 });
        b.extend_from_slice(&self.opcode.to_be_bytes());
        b.extend_from_slice(&(self.data.len() as u32).to_be_bytes());
        b.extend_from_slice(&self.data);
        if checksummed {
            let sum = vmtp_checksum(&b[start..]);
            b.extend_from_slice(&sum.to_be_bytes());
        }
    }

    /// Encodes as a complete frame on `medium`.
    pub fn encode_frame(&self, medium: &Medium, eth_dst: u64, eth_src: u64) -> Vec<u8> {
        self.encode_frame_opts(medium, eth_dst, eth_src, false)
    }

    /// Encodes as a complete frame, optionally checksummed, the body
    /// written straight into it.
    pub fn encode_frame_opts(
        &self,
        medium: &Medium,
        eth_dst: u64,
        eth_src: u64,
        checksummed: bool,
    ) -> Vec<u8> {
        frame::build_with(
            medium,
            eth_dst,
            eth_src,
            VMTP_ETHERTYPE,
            self.body_len(checksummed),
            |f| self.encode_body_into(f, checksummed),
        )
        .expect("VMTP packet fits the medium")
    }

    /// Decodes a VMTP body. Bodies carrying [`FLAG_CHECKSUM`] are
    /// verified; a corrupt or truncated checksummed body decodes to
    /// `None` (the frame is discarded, retransmission recovers it).
    pub fn decode_body(b: &[u8]) -> Option<VmtpPacket> {
        if b.len() < VMTP_HEADER {
            return None;
        }
        let dlen = u32::from_be_bytes([b[20], b[21], b[22], b[23]]) as usize;
        if b.len() < VMTP_HEADER + dlen {
            return None;
        }
        if b[15] & FLAG_CHECKSUM != 0 {
            let end = VMTP_HEADER + dlen;
            let tail = b.get(end..end + 2)?;
            let want = u16::from_be_bytes([tail[0], tail[1]]);
            if vmtp_checksum(&b[..end]) != want {
                return None;
            }
        }
        Some(VmtpPacket {
            dst_entity: u32::from_be_bytes([b[0], b[1], b[2], b[3]]),
            src_entity: u32::from_be_bytes([b[4], b[5], b[6], b[7]]),
            trans: u32::from_be_bytes([b[8], b[9], b[10], b[11]]),
            ptype: VmtpType::decode(b[12])?,
            index: b[13],
            count: b[14],
            opcode: u32::from_be_bytes([b[16], b[17], b[18], b[19]]),
            data: b[VMTP_HEADER..VMTP_HEADER + dlen].to_vec(),
        })
    }

    /// Decodes a complete frame, returning the packet and the data-link
    /// source address (for replying).
    pub fn decode_frame(medium: &Medium, frame_bytes: &[u8]) -> Option<(VmtpPacket, u64)> {
        let h = frame::parse(medium, frame_bytes).ok()?;
        if h.ethertype != VMTP_ETHERTYPE {
            return None;
        }
        let body = frame::payload(medium, frame_bytes).ok()?;
        Some((Self::decode_body(body)?, h.src))
    }

    /// A packet-filter program accepting VMTP packets for `entity` on the
    /// 10 Mb Ethernet (type at word 6; dst entity at words 7-8).
    pub fn entity_filter(priority: u8, entity: u32) -> pf_filter::program::FilterProgram {
        use pf_filter::program::Assembler;
        use pf_filter::word::BinaryOp;
        Assembler::new(priority)
            .pushword(8)
            .pushlit_op(BinaryOp::Cand, (entity & 0xFFFF) as u16)
            .pushword(7)
            .pushlit_op(BinaryOp::Cand, (entity >> 16) as u16)
            .pushword(6)
            .pushlit_op(BinaryOp::Eq, VMTP_ETHERTYPE)
            .finish()
    }
}

/// An action a VMTP machine asks its embedding to perform, pushed onto the
/// vector the embedding lends each machine call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VEffect {
    /// Transmit to the given data-link address.
    Send(VmtpPacket, u64),
    /// Arm the retransmission timer.
    SetTimer(SimDuration, u64),
    /// Cancel the retransmission timer.
    CancelTimer(u64),
    /// Client: the current transaction completed with this response.
    Complete {
        /// Transaction id.
        trans: u32,
        /// Reassembled response data.
        data: Vec<u8>,
    },
    /// Client: the current transaction was abandoned after exhausting
    /// `max_retries` backed-off retransmissions.
    Failed {
        /// Transaction id.
        trans: u32,
    },
    /// Server: deliver this request to the service (it answers via
    /// [`ServerMachine::respond`]).
    DeliverRequest {
        /// Requesting client entity.
        client: u32,
        /// The client's data-link address.
        client_eth: u64,
        /// Transaction id.
        trans: u32,
        /// Operation code.
        opcode: u32,
        /// Request payload.
        data: Vec<u8>,
    },
}

/// The client side of sequential VMTP transactions.
#[derive(Debug)]
pub struct ClientMachine {
    entity: u32,
    server_entity: u32,
    server_eth: u64,
    rto: SimDuration,
    /// Upper bound on the backed-off retransmission timeout.
    rto_cap: SimDuration,
    /// Consecutive unanswered retransmissions before giving up.
    max_retries: u32,
    /// Consecutive timeouts without progress (the backoff exponent).
    backoff: u32,
    /// Pacing delay the embedding should insert before the next
    /// transaction: doubled (capped at `rto_cap`) by each kernel
    /// backpressure notification, halved by each completed transaction —
    /// the transactional analogue of a window, so a saturated server port
    /// sees a converging request rate instead of a retry storm.
    pace: SimDuration,
    /// Whether the current transaction has already raised the pace —
    /// like TCP's one-window-reduction-per-RTT rule, every crossing of
    /// the mark within one response group is a single overload episode.
    paced_this_trans: bool,
    next_trans: u32,
    pending: Option<PendingTrans>,
    /// The last completed transaction's `received`, emptied, for the next.
    spare_received: Vec<Option<Vec<u8>>>,
    /// Requests retransmitted and retry masks sent.
    pub retries: u64,
    /// Transactions completed.
    pub completed: u64,
    /// Transactions abandoned after retry exhaustion.
    pub giveups: u64,
    /// Backpressure notifications honored (each raises the pacing delay).
    pub backpressure_events: u64,
}

#[derive(Debug)]
struct PendingTrans {
    trans: u32,
    request: VmtpPacket,
    received: Vec<Option<Vec<u8>>>,
    got_any: bool,
}

impl ClientMachine {
    /// Creates a client entity talking to `server_entity` at `server_eth`.
    pub fn new(entity: u32, server_entity: u32, server_eth: u64, rto: SimDuration) -> Self {
        ClientMachine {
            entity,
            server_entity,
            server_eth,
            rto,
            rto_cap: SimDuration::from_nanos(rto.as_nanos().saturating_mul(16)),
            max_retries: 16,
            backoff: 0,
            pace: SimDuration::ZERO,
            paced_this_trans: false,
            next_trans: 1,
            pending: None,
            spare_received: Vec::new(),
            retries: 0,
            completed: 0,
            giveups: 0,
            backpressure_events: 0,
        }
    }

    /// Overrides the retry policy (backoff cap and give-up threshold).
    pub fn with_retry_policy(mut self, rto_cap: SimDuration, max_retries: u32) -> Self {
        self.set_retry_policy(rto_cap, max_retries);
        self
    }

    /// In-place variant of [`Self::with_retry_policy`] for embeddings.
    pub fn set_retry_policy(&mut self, rto_cap: SimDuration, max_retries: u32) {
        self.rto_cap = rto_cap;
        self.max_retries = max_retries;
    }

    /// The currently effective (backed-off, capped) retransmission
    /// timeout.
    pub fn current_rto(&self) -> SimDuration {
        crate::bsp::backed_off(self.rto, self.rto_cap, self.backoff)
    }

    /// This client's entity identifier.
    pub fn entity(&self) -> u32 {
        self.entity
    }

    /// Whether a transaction is outstanding.
    pub fn busy(&self) -> bool {
        self.pending.is_some()
    }

    /// The pacing delay the embedding should insert before its next
    /// [`Self::invoke`]; zero when the client is unthrottled.
    pub fn pacing_delay(&self) -> SimDuration {
        self.pace
    }

    /// Responds to a kernel backpressure notification (this client's port
    /// queue crossed its high-water mark): raises the pacing delay —
    /// `rto/2` from a standing start, doubling thereafter, capped at
    /// `rto_cap`. Completed transactions halve it back down, so the
    /// request rate converges on the service rate.
    pub fn on_backpressure(&mut self) {
        self.backpressure_events += 1;
        // One pace increase per transaction, however many times the
        // queue re-crosses the mark while a response group drains.
        if self.paced_this_trans {
            return;
        }
        self.paced_this_trans = true;
        let next = if self.pace == SimDuration::ZERO {
            self.rto.as_nanos() / 2
        } else {
            self.pace.as_nanos().saturating_mul(2)
        };
        self.pace = SimDuration::from_nanos(next.min(self.rto_cap.as_nanos()));
    }

    /// Starts a transaction, pushing its effects onto `fx`. Transactions
    /// are sequential: panics if one is outstanding (the paper's workloads
    /// are strictly request-response).
    pub fn invoke(&mut self, opcode: u32, data: Vec<u8>, fx: &mut Vec<VEffect>) {
        assert!(self.pending.is_none(), "sequential transactions only");
        self.paced_this_trans = false;
        let trans = self.next_trans;
        self.next_trans += 1;
        let request = VmtpPacket {
            dst_entity: self.server_entity,
            src_entity: self.entity,
            trans,
            ptype: VmtpType::Request,
            index: 0,
            count: 1,
            opcode,
            data,
        };
        self.pending = Some(PendingTrans {
            trans,
            request: request.clone(),
            received: std::mem::take(&mut self.spare_received),
            got_any: false,
        });
        fx.push(VEffect::Send(request, self.server_eth));
        fx.push(VEffect::SetTimer(self.rto, VMTP_RTO_TOKEN));
    }

    /// Handles a packet addressed to this entity, pushing the effects onto
    /// `fx`.
    pub fn on_packet(&mut self, pkt: &VmtpPacket, fx: &mut Vec<VEffect>) {
        let Some(p) = self.pending.as_mut() else {
            return;
        };
        if pkt.ptype != VmtpType::Response || pkt.trans != p.trans {
            return;
        }
        let count = usize::from(pkt.count).clamp(1, MAX_GROUP);
        if p.received.len() != count {
            p.received.clear();
            p.received.resize(count, None);
        }
        p.got_any = true;
        // A response member for the live transaction is forward progress:
        // restore the base RTO.
        self.backoff = 0;
        let idx = usize::from(pkt.index);
        if idx < count && p.received[idx].is_none() {
            p.received[idx] = Some(pkt.data.clone());
        }
        if p.received.iter().all(Option::is_some) {
            let mut p = self.pending.take().expect("checked above");
            self.completed += 1;
            // Forward progress decays the backpressure pacing.
            self.pace = SimDuration::from_nanos(self.pace.as_nanos() / 2);
            let mut data = Vec::new();
            for seg in p.received.drain(..).flatten() {
                data.extend(seg);
            }
            self.spare_received = p.received;
            let ack = VmtpPacket {
                dst_entity: self.server_entity,
                src_entity: self.entity,
                trans: p.trans,
                ptype: VmtpType::Ack,
                index: 0,
                count: 1,
                opcode: 0,
                data: Vec::new(),
            };
            fx.push(VEffect::CancelTimer(VMTP_RTO_TOKEN));
            fx.push(VEffect::Send(ack, self.server_eth));
            fx.push(VEffect::Complete {
                trans: p.trans,
                data,
            });
        }
    }

    /// Handles the retransmission timer, pushing the effects onto `fx`:
    /// resend the request if nothing arrived, otherwise request exactly the
    /// missing group members.
    pub fn on_timer(&mut self, token: u64, fx: &mut Vec<VEffect>) {
        if token != VMTP_RTO_TOKEN {
            return;
        }
        let Some(p) = self.pending.as_ref() else {
            return;
        };
        if self.backoff >= self.max_retries {
            // Exhausted: abandon the transaction instead of retrying
            // forever across a dead or partitioned wire.
            let trans = p.trans;
            self.pending = None;
            self.backoff = 0;
            self.giveups += 1;
            fx.push(VEffect::Failed { trans });
            return;
        }
        self.backoff += 1;
        self.retries += 1;
        let pkt = if !p.got_any {
            p.request.clone()
        } else {
            let mut mask: u32 = 0;
            for (i, seg) in p.received.iter().enumerate() {
                if seg.is_none() {
                    mask |= 1 << i;
                }
            }
            VmtpPacket {
                dst_entity: self.server_entity,
                src_entity: self.entity,
                trans: p.trans,
                ptype: VmtpType::Retry,
                index: 0,
                count: 1,
                opcode: mask,
                data: Vec::new(),
            }
        };
        fx.push(VEffect::Send(pkt, self.server_eth));
        fx.push(VEffect::SetTimer(self.current_rto(), VMTP_RTO_TOKEN));
    }
}

/// The server side: delivers requests up, segments and caches responses.
#[derive(Debug, Default)]
pub struct ServerMachine {
    entity: u32,
    /// The last answer per client entity.
    cache: HashMap<u32, Answer>,
    /// Duplicate requests answered from the cache.
    pub dup_requests: u64,
}

/// A client's last response group: replayed for duplicate requests and
/// retry masks until the client acks it, its buffer refilled by the next.
#[derive(Debug, Default)]
struct Answer {
    /// The transaction it answers.
    trans: u32,
    /// The client's data-link address.
    eth: u64,
    group: Vec<VmtpPacket>,
    /// Not yet acked: duplicates and retries are answered from `group`.
    live: bool,
}

impl ServerMachine {
    /// Creates a server machine for `entity`.
    pub fn new(entity: u32) -> Self {
        ServerMachine {
            entity,
            cache: HashMap::new(),
            dup_requests: 0,
        }
    }

    /// Handles a packet addressed to this entity, pushing the effects onto
    /// `fx`. `eth_src` is the data-link source, kept for replies.
    pub fn on_packet(&mut self, pkt: &VmtpPacket, eth_src: u64, fx: &mut Vec<VEffect>) {
        let answer = self.cache.get_mut(&pkt.src_entity);
        let answer = answer.filter(|a| a.live && a.trans == pkt.trans);
        match (pkt.ptype, answer) {
            (VmtpType::Request, Some(a)) => {
                // Duplicate request: replay the whole group.
                self.dup_requests += 1;
                fx.extend(a.group.iter().map(|g| VEffect::Send(g.clone(), a.eth)));
            }
            (VmtpType::Request, None) => fx.push(VEffect::DeliverRequest {
                client: pkt.src_entity,
                client_eth: eth_src,
                trans: pkt.trans,
                opcode: pkt.opcode,
                data: pkt.data.clone(),
            }),
            (VmtpType::Retry, Some(a)) => {
                let missing = a
                    .group
                    .iter()
                    .filter(|g| pkt.opcode & (1 << u32::from(g.index)) != 0);
                fx.extend(missing.map(|g| VEffect::Send(g.clone(), a.eth)));
            }
            (VmtpType::Ack, Some(a)) => a.live = false,
            _ => {}
        }
    }

    /// Answers a previously delivered request: segments `data` into a
    /// packet group, caches it, and pushes a send of each member onto `fx`.
    pub fn respond(
        &mut self,
        client: u32,
        client_eth: u64,
        trans: u32,
        data: Vec<u8>,
        fx: &mut Vec<VEffect>,
    ) {
        let count = data.len().div_ceil(DATA_PER_PACKET).max(1);
        assert!(
            count <= MAX_GROUP,
            "response exceeds one VMTP segment group"
        );
        let a = self.cache.entry(client).or_default();
        (a.trans, a.eth, a.live) = (trans, client_eth, true);
        a.group.clear();
        a.group.extend((0..count).map(|i| {
            let lo = i * DATA_PER_PACKET;
            let hi = (lo + DATA_PER_PACKET).min(data.len());
            VmtpPacket {
                dst_entity: client,
                src_entity: self.entity,
                trans,
                ptype: VmtpType::Response,
                index: i as u8,
                count: count as u8,
                opcode: 0,
                data: data[lo.min(data.len())..hi].to_vec(),
            }
        }));
        fx.extend(a.group.iter().map(|g| VEffect::Send(g.clone(), client_eth)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn medium() -> Medium {
        Medium::standard_10mb()
    }

    #[test]
    fn wire_round_trip() {
        let p = VmtpPacket {
            dst_entity: 0x1234_5678,
            src_entity: 0x9ABC_DEF0,
            trans: 42,
            ptype: VmtpType::Response,
            index: 3,
            count: 16,
            opcode: 7,
            data: vec![1, 2, 3, 4],
        };
        let f = p.encode_frame(&medium(), 0x0B, 0x0A);
        let (q, src) = VmtpPacket::decode_frame(&medium(), &f).unwrap();
        assert_eq!(p, q);
        assert_eq!(src, 0x0A);
    }

    #[test]
    fn entity_filter_matches() {
        use pf_filter::interp::CheckedInterpreter;
        use pf_filter::packet::PacketView;
        let interp = CheckedInterpreter::default();
        let filt = VmtpPacket::entity_filter(10, 0x0001_0002);
        let mk = |dst: u32| {
            VmtpPacket {
                dst_entity: dst,
                src_entity: 9,
                trans: 1,
                ptype: VmtpType::Request,
                index: 0,
                count: 1,
                opcode: 0,
                data: vec![],
            }
            .encode_frame(&medium(), 0x0B, 0x0A)
        };
        assert!(interp.eval(&filt, PacketView::new(&mk(0x0001_0002))));
        assert!(!interp.eval(&filt, PacketView::new(&mk(0x0001_0003))));
        assert!(!interp.eval(&filt, PacketView::new(&mk(0x0002_0002))));
    }

    /// The effects one machine call pushes onto an empty vector.
    fn effects(call: impl FnOnce(&mut Vec<VEffect>)) -> Vec<VEffect> {
        let mut fx = Vec::new();
        call(&mut fx);
        fx
    }

    /// The packets among `fx`'s sends.
    fn sent(fx: Vec<VEffect>) -> Vec<VmtpPacket> {
        let sends = fx.into_iter().filter_map(|e| match e {
            VEffect::Send(p, _) => Some(p),
            _ => None,
        });
        sends.collect()
    }

    #[test]
    fn minimal_transaction() {
        let mut c = ClientMachine::new(1, 2, 0x0B, SimDuration::from_millis(100));
        let mut s = ServerMachine::new(2);
        let fx = effects(|fx| c.invoke(0, Vec::new(), fx));
        let VEffect::Send(req, _) = &fx[0] else {
            panic!("request first")
        };
        let fx = effects(|fx| s.on_packet(req, 0x0A, fx));
        let VEffect::DeliverRequest {
            client,
            trans,
            client_eth,
            ..
        } = &fx[0]
        else {
            panic!("deliver")
        };
        let fx = effects(|fx| s.respond(*client, *client_eth, *trans, Vec::new(), fx));
        assert_eq!(fx.len(), 1, "zero-byte response is one packet");
        let VEffect::Send(resp, _) = &fx[0] else {
            panic!()
        };
        let fx = effects(|fx| c.on_packet(resp, fx));
        assert!(fx
            .iter()
            .any(|e| matches!(e, VEffect::Complete { data, .. } if data.is_empty())));
        assert!(fx
            .iter()
            .any(|e| matches!(e, VEffect::Send(p, _) if p.ptype == VmtpType::Ack)));
        assert!(!c.busy());
    }

    #[test]
    fn segment_read_reassembles() {
        let mut c = ClientMachine::new(1, 2, 0x0B, SimDuration::from_millis(100));
        let mut s = ServerMachine::new(2);
        let payload: Vec<u8> = (0..SEGMENT_BYTES).map(|i| (i % 241) as u8).collect();
        let fx = effects(|fx| c.invoke(1, Vec::new(), fx));
        let VEffect::Send(req, _) = &fx[0] else {
            panic!()
        };
        effects(|fx| s.on_packet(req, 0x0A, fx));
        let group = sent(effects(|fx| {
            s.respond(1, 0x0A, req.trans, payload.clone(), fx)
        }));
        assert_eq!(group.len(), SEGMENT_BYTES / DATA_PER_PACKET);
        let mut complete = None;
        for p in group {
            for fx in effects(|fx| c.on_packet(&p, fx)) {
                if let VEffect::Complete { data, .. } = fx {
                    complete = Some(data);
                }
            }
        }
        assert_eq!(complete.unwrap(), payload);
    }

    #[test]
    fn out_of_order_group_reassembles() {
        let mut c = ClientMachine::new(1, 2, 0x0B, SimDuration::from_millis(100));
        let mut s = ServerMachine::new(2);
        let payload = vec![9u8; 3 * DATA_PER_PACKET];
        let fx = effects(|fx| c.invoke(1, Vec::new(), fx));
        let VEffect::Send(req, _) = &fx[0] else {
            panic!()
        };
        effects(|fx| s.on_packet(req, 0x0A, fx));
        let mut group = sent(effects(|fx| {
            s.respond(1, 0x0A, req.trans, payload.clone(), fx)
        }));
        group.reverse();
        let mut complete = None;
        for p in &group {
            for fx in effects(|fx| c.on_packet(p, fx)) {
                if let VEffect::Complete { data, .. } = fx {
                    complete = Some(data);
                }
            }
        }
        assert_eq!(complete.unwrap(), payload);
    }

    #[test]
    fn lost_group_member_recovered_by_retry_mask() {
        let mut c = ClientMachine::new(1, 2, 0x0B, SimDuration::from_millis(100));
        let mut s = ServerMachine::new(2);
        let payload = vec![7u8; 4 * DATA_PER_PACKET];
        let fx = effects(|fx| c.invoke(1, Vec::new(), fx));
        let VEffect::Send(req, _) = &fx[0] else {
            panic!()
        };
        effects(|fx| s.on_packet(req, 0x0A, fx));
        let group = sent(effects(|fx| {
            s.respond(1, 0x0A, req.trans, payload.clone(), fx)
        }));
        // Deliver all but member 2.
        for p in group.iter().filter(|p| p.index != 2) {
            assert!(effects(|fx| c.on_packet(p, fx)).is_empty());
        }
        // Timeout: client asks for exactly member 2.
        let fx = effects(|fx| c.on_timer(VMTP_RTO_TOKEN, fx));
        let retry = fx
            .iter()
            .find_map(|e| match e {
                VEffect::Send(p, _) if p.ptype == VmtpType::Retry => Some(p.clone()),
                _ => None,
            })
            .expect("retry sent");
        assert_eq!(retry.opcode, 1 << 2);
        let resent = sent(effects(|fx| s.on_packet(&retry, 0x0A, fx)));
        assert_eq!(resent.len(), 1);
        assert_eq!(resent[0].index, 2);
        let fx = effects(|fx| c.on_packet(&resent[0], fx));
        assert!(fx.iter().any(|e| matches!(e, VEffect::Complete { .. })));
        assert_eq!(c.retries, 1);
    }

    #[test]
    fn duplicate_request_replayed_from_cache() {
        let mut s = ServerMachine::new(2);
        let req = VmtpPacket {
            dst_entity: 2,
            src_entity: 1,
            trans: 5,
            ptype: VmtpType::Request,
            index: 0,
            count: 1,
            opcode: 0,
            data: vec![],
        };
        effects(|fx| s.on_packet(&req, 0x0A, fx));
        effects(|fx| s.respond(1, 0x0A, 5, vec![1u8; 10], fx));
        // Lost response: the client retransmits its request.
        let fx = effects(|fx| s.on_packet(&req, 0x0A, fx));
        assert_eq!(fx.len(), 1, "cached group replayed, handler not re-run");
        assert_eq!(s.dup_requests, 1);
    }

    #[test]
    fn ack_clears_cache() {
        let mut s = ServerMachine::new(2);
        let req = VmtpPacket {
            dst_entity: 2,
            src_entity: 1,
            trans: 5,
            ptype: VmtpType::Request,
            index: 0,
            count: 1,
            opcode: 0,
            data: vec![],
        };
        effects(|fx| s.on_packet(&req, 0x0A, fx));
        effects(|fx| s.respond(1, 0x0A, 5, vec![1u8; 10], fx));
        let ack = VmtpPacket {
            ptype: VmtpType::Ack,
            ..req.clone()
        };
        effects(|fx| s.on_packet(&ack, 0x0A, fx));
        // A duplicate request after the ack is treated as new.
        let fx = effects(|fx| s.on_packet(&req, 0x0A, fx));
        assert!(matches!(fx[0], VEffect::DeliverRequest { .. }));
    }

    #[test]
    fn a_later_answer_replaces_the_cached_group() {
        let mut s = ServerMachine::new(2);
        let req = |trans, ptype, opcode| VmtpPacket {
            dst_entity: 2,
            src_entity: 1,
            trans,
            ptype,
            index: 0,
            count: 1,
            opcode,
            data: vec![],
        };
        effects(|fx| s.respond(1, 0x0A, 5, vec![1; 3 * DATA_PER_PACKET], fx));
        effects(|fx| s.on_packet(&req(5, VmtpType::Ack, 0), 0x0A, fx));
        let fx = effects(|fx| s.respond(1, 0x0C, 6, vec![2; 10], fx));
        assert_eq!(sent(fx).len(), 1);
        // The acked transaction's members are gone, the live one's answer.
        let stale = effects(|fx| s.on_packet(&req(5, VmtpType::Retry, 0b111), 0x0A, fx));
        assert!(stale.is_empty());
        let fx = effects(|fx| s.on_packet(&req(6, VmtpType::Request, 0), 0x0A, fx));
        assert!(matches!(&fx[..], [VEffect::Send(p, 0x0C)] if p.trans == 6 && p.data == [2; 10]));
        assert_eq!(s.dup_requests, 1);
    }

    #[test]
    fn request_retransmitted_before_any_response() {
        let mut c = ClientMachine::new(1, 2, 0x0B, SimDuration::from_millis(100));
        effects(|fx| c.invoke(9, vec![1, 2], fx));
        let fx = effects(|fx| c.on_timer(VMTP_RTO_TOKEN, fx));
        let VEffect::Send(p, _) = &fx[0] else {
            panic!()
        };
        assert_eq!(p.ptype, VmtpType::Request);
        assert_eq!(p.opcode, 9);
        assert_eq!(p.data, vec![1, 2]);
    }

    #[test]
    fn checksummed_round_trip_and_corruption_rejection() {
        let p = VmtpPacket {
            dst_entity: 0x1234_5678,
            src_entity: 0x9ABC_DEF0,
            trans: 42,
            ptype: VmtpType::Response,
            index: 3,
            count: 16,
            opcode: 7,
            data: vec![1, 2, 3, 4, 5],
        };
        let body = p.encode_body_opts(true);
        assert_eq!(body.len(), VMTP_HEADER + 5 + 2);
        assert_eq!(VmtpPacket::decode_body(&body).unwrap(), p);
        // A frame's checksum covers its body alone.
        let f = p.encode_frame_opts(&medium(), 0x0B, 0x0A, true);
        assert_eq!(frame::payload(&medium(), &f).unwrap(), &body[..]);
        // Any single bit flip anywhere in the body must be caught (the
        // flags byte itself is covered: clearing the checksum flag changes
        // the advertised length check or simply skips verification of a
        // body whose tail bytes then confuse nothing — test the data and
        // header regions explicitly).
        for byte in 0..body.len() {
            for bit in 0..8 {
                let mut m = body.clone();
                m[byte] ^= 1 << bit;
                let decoded = VmtpPacket::decode_body(&m);
                if let Some(q) = decoded {
                    // The only survivable flips are ones that clear the
                    // checksum flag itself (reverting to the unchecksummed
                    // format, where the tail reads as slack) — the packet
                    // content must still match in that case.
                    assert_eq!((byte, q.data), (15, p.data.clone()));
                }
            }
        }
    }

    #[test]
    fn truncated_checksummed_bodies_never_decode_or_panic() {
        let p = VmtpPacket {
            dst_entity: 1,
            src_entity: 2,
            trans: 3,
            ptype: VmtpType::Request,
            index: 0,
            count: 1,
            opcode: 9,
            data: vec![7; 100],
        };
        let body = p.encode_body_opts(true);
        for len in 0..body.len() {
            assert!(
                VmtpPacket::decode_body(&body[..len]).is_none(),
                "prefix of {len} bytes must not decode"
            );
        }
    }

    #[test]
    fn client_backs_off_and_gives_up() {
        let mut c = ClientMachine::new(1, 2, 0x0B, SimDuration::from_millis(100))
            .with_retry_policy(SimDuration::from_millis(350), 3);
        effects(|fx| c.invoke(0, Vec::new(), fx));
        let mut rtos = Vec::new();
        for _ in 0..3 {
            let fx = effects(|fx| c.on_timer(VMTP_RTO_TOKEN, fx));
            rtos.extend(fx.iter().filter_map(|e| match e {
                VEffect::SetTimer(d, _) => Some(d.as_micros()),
                _ => None,
            }));
        }
        assert_eq!(rtos, vec![200_000, 350_000, 350_000], "doubling, capped");
        let fx = effects(|fx| c.on_timer(VMTP_RTO_TOKEN, fx));
        assert!(matches!(fx[..], [VEffect::Failed { trans: 1 }]));
        assert!(!c.busy(), "abandoned transaction cleared");
        assert_eq!(c.giveups, 1);
        // The client is reusable after a give-up.
        let fx = effects(|fx| c.invoke(0, Vec::new(), fx));
        assert!(matches!(fx[0], VEffect::Send(ref p, _) if p.trans == 2));
    }

    #[test]
    fn stale_response_ignored() {
        let mut c = ClientMachine::new(1, 2, 0x0B, SimDuration::from_millis(100));
        let fx = effects(|fx| c.invoke(0, Vec::new(), fx));
        let VEffect::Send(req, _) = &fx[0] else {
            panic!()
        };
        let stale = VmtpPacket {
            dst_entity: 1,
            src_entity: 2,
            trans: req.trans + 100,
            ptype: VmtpType::Response,
            index: 0,
            count: 1,
            opcode: 0,
            data: vec![1],
        };
        assert!(effects(|fx| c.on_packet(&stale, fx)).is_empty());
        assert!(c.busy());
    }
}
