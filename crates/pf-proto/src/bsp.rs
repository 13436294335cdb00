//! BSP — the Pup Byte Stream Protocol, implemented at user level over the
//! packet filter (§5.1, measured in §6.4).
//!
//! The protocol proper is implemented as *pure state machines*
//! ([`SenderMachine`], [`ReceiverMachine`]) that consume Pups and timer
//! ticks and emit [`Effect`]s; thin adapters
//! ([`BspSenderApp`](crate::bsp_app::BspSenderApp),
//! [`BspReceiverApp`](crate::bsp_app::BspReceiverApp)) bind those machines
//! to the simulated kernel's
//! packet-filter system calls. This keeps the protocol unit-testable
//! without the simulator and lets the telnet experiment reuse the same
//! machines in streaming mode.
//!
//! Protocol shape (go-back-N, packet-sequenced):
//!
//! * connection: `RFC` → `OPEN` (retransmitted on timeout);
//! * data: `DATA`/`ADATA` packets carry a sequence number in the Pup id;
//!   `ADATA` ("acknowledgment requested") marks the last packet of a
//!   window burst, and the receiver answers it — these acks are exactly
//!   the "overhead packets" of figure 2-3 that a user-level implementation
//!   pays domain crossings for;
//! * acks are cumulative: the id is the next expected sequence number;
//!   out-of-order data is dropped and re-acked (go-back-N);
//! * close: `END` → `END_REPLY`, both retransmittable.
//!
//! "Pup (hence BSP) allows a maximum packet size of 568 bytes" (§6.4):
//! segments default to [`crate::pup::MAX_PUP_DATA`].

use crate::pup::{types, Pup, PupAddr, MAX_PUP_DATA};
use pf_sim::time::SimDuration;
use std::borrow::Cow;
use std::collections::VecDeque;

/// The sender's retransmission-timer token.
pub const RTO_TOKEN: u64 = 0xB59;

/// BSP tuning parameters.
#[derive(Debug, Clone)]
pub struct BspConfig {
    /// Window size in packets.
    pub window: usize,
    /// Data bytes per packet.
    pub segment: usize,
    /// Base retransmission timeout. Consecutive timeouts without forward
    /// progress back off exponentially from here.
    pub rto: SimDuration,
    /// Upper bound on the backed-off retransmission timeout.
    pub rto_cap: SimDuration,
    /// Consecutive unanswered retransmissions before the sender gives up
    /// and fails the channel (`Effect::Failed`).
    pub max_retries: u32,
    /// Whether to compute real Pup checksums (the paper's implementations
    /// did not — §6.3: "TCP checksums all data, whereas these
    /// implementations of VMTP do not", likewise BSP).
    pub checksummed: bool,
    /// In push mode, partial segments are sent as soon as the window
    /// allows (character streams); otherwise only full segments are sent
    /// until the stream is finished (bulk transfer).
    pub push: bool,
    /// Whether the endpoint uses received-packet batching. The original
    /// Stanford BSP code predates the batching feature (§3), so the table
    /// 6-6 measurements run with this off.
    pub batch: bool,
}

impl Default for BspConfig {
    fn default() -> Self {
        BspConfig {
            window: 4,
            segment: MAX_PUP_DATA,
            rto: SimDuration::from_millis(200),
            rto_cap: SimDuration::from_secs(3),
            max_retries: 16,
            checksummed: false,
            push: false,
            batch: true,
        }
    }
}

/// The exponentially backed-off timeout: `base << exponent`, capped.
///
/// Shared by BSP and VMTP so both stacks degrade the same way under
/// sustained loss or partition.
pub(crate) fn backed_off(base: SimDuration, cap: SimDuration, exponent: u32) -> SimDuration {
    let shifted = base.as_nanos().saturating_mul(1u64 << exponent.min(20));
    SimDuration::from_nanos(shifted.min(cap.as_nanos().max(base.as_nanos())))
}

/// An action a machine asks its host environment to perform.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Effect {
    /// Transmit this Pup.
    Send(Pup),
    /// (Re)arm the retransmission timer.
    SetTimer(SimDuration, u64),
    /// Cancel the retransmission timer.
    CancelTimer(u64),
    /// In-order payload bytes for the application (receiver only).
    Deliver(Vec<u8>),
    /// The connection is established (sender only).
    Connected,
    /// The stream is fully closed.
    Closed,
    /// The sender exhausted `max_retries` backed-off retransmissions and
    /// gave up (sender only; the channel is dead).
    Failed,
}

/// Sender connection state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SendState {
    Idle,
    Connecting,
    Established,
    Ending,
    Closed,
    Failed,
}

/// Counters the experiments harvest.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SenderStats {
    /// Data packets transmitted (including retransmissions).
    pub data_packets: u64,
    /// Retransmitted packets.
    pub retransmits: u64,
    /// Cumulative acks processed.
    pub acks: u64,
    /// Payload bytes acknowledged.
    pub bytes_acked: u64,
    /// Channels abandoned after `max_retries` consecutive timeouts.
    pub giveups: u64,
    /// Backpressure notifications honored (each halves the effective
    /// window).
    pub backpressure_events: u64,
}

/// The BSP sending endpoint as a pure state machine.
#[derive(Debug)]
pub struct SenderMachine {
    cfg: BspConfig,
    local: PupAddr,
    remote: PupAddr,
    state: SendState,
    /// Next sequence number to assign.
    next_seq: u32,
    /// Lowest unacknowledged sequence number.
    base: u32,
    /// Sent, unacknowledged segments as `(seq, len)` spans over the front
    /// of `buffer`, in sequence order: a retransmission re-slices them.
    inflight: VecDeque<(u32, usize)>,
    /// Bytes the spans in `inflight` cover.
    inflight_bytes: usize,
    /// Unacknowledged bytes: the in-flight spans, then the bytes offered
    /// but not yet packetized. An ack drains its spans off the front.
    buffer: VecDeque<u8>,
    /// The application has finished offering data.
    eof: bool,
    end_seq: Option<u32>,
    timer_armed: bool,
    /// Consecutive retransmission timeouts without forward progress; the
    /// exponent of the backed-off RTO, reset whenever an ack advances,
    /// the connection opens, or the close completes.
    backoff: u32,
    /// Consecutive stale (non-advancing) acks seen; the third triggers a
    /// go-back retransmission. Reacting to *every* stale ack amplifies:
    /// each retransmitted duplicate provokes another stale ack, which
    /// would trigger another full-window resend, and so on without bound.
    dup_acks: u32,
    /// Effective window in packets: starts at `cfg.window`, halves on each
    /// kernel backpressure notification (never below 1), and recovers one
    /// packet per advancing ack — AIMD, so a saturated receiver port turns
    /// overload into bounded queueing instead of overflow churn.
    cwnd: usize,
    /// Statistics.
    pub stats: SenderStats,
}

impl SenderMachine {
    /// Creates a sender for `local` → `remote`.
    pub fn new(local: PupAddr, remote: PupAddr, cfg: BspConfig) -> Self {
        let cwnd = cfg.window;
        SenderMachine {
            cfg,
            local,
            remote,
            state: SendState::Idle,
            next_seq: 1,
            base: 1,
            inflight: VecDeque::new(),
            inflight_bytes: 0,
            buffer: VecDeque::new(),
            eof: false,
            end_seq: None,
            timer_armed: false,
            backoff: 0,
            dup_acks: 0,
            cwnd,
            stats: SenderStats::default(),
        }
    }

    /// Whether the stream is fully closed.
    pub fn is_closed(&self) -> bool {
        self.state == SendState::Closed
    }

    /// Whether the sender gave up after exhausting its retries.
    pub fn is_failed(&self) -> bool {
        self.state == SendState::Failed
    }

    /// The currently effective (backed-off, capped) retransmission
    /// timeout.
    pub fn current_rto(&self) -> SimDuration {
        backed_off(self.cfg.rto, self.cfg.rto_cap, self.backoff)
    }

    /// Whether the connection is established.
    pub fn is_established(&self) -> bool {
        matches!(self.state, SendState::Established | SendState::Ending)
    }

    /// Packets currently in flight.
    pub fn inflight(&self) -> usize {
        self.inflight.len()
    }

    /// The effective (backpressure-adjusted) window in packets.
    pub fn effective_window(&self) -> usize {
        self.cwnd
    }

    /// Responds to a kernel backpressure notification (the receiver port's
    /// queue crossed its high-water mark): halves the effective window,
    /// never below one packet. The window recovers one packet per
    /// advancing ack, so throughput converges on what the receiver drains
    /// instead of retry-storming a full queue.
    pub fn on_backpressure(&mut self) {
        self.stats.backpressure_events += 1;
        self.cwnd = (self.cwnd / 2).max(1);
    }

    /// Bytes offered but not yet packetized.
    pub fn buffered_bytes(&self) -> usize {
        self.buffer.len() - self.inflight_bytes
    }

    /// Initiates the connection.
    pub fn connect(&mut self) -> Vec<Effect> {
        assert_eq!(self.state, SendState::Idle, "connect() once");
        self.state = SendState::Connecting;
        let mut fx = vec![Effect::Send(self.rfc())];
        self.arm(&mut fx);
        fx
    }

    /// Offers payload bytes to the stream.
    pub fn offer(&mut self, data: &[u8]) -> Vec<Effect> {
        assert!(!self.eof, "offer() after finish()");
        self.buffer.extend(data);
        self.pumped()
    }

    /// Offers payload bytes the caller hands over: into an empty buffer
    /// they move without a copy (`VecDeque::from` a `Vec` keeps its
    /// allocation), so the send buffer *is* the payload.
    pub fn offer_owned(&mut self, data: Vec<u8>) -> Vec<Effect> {
        assert!(!self.eof, "offer() after finish()");
        if self.buffer.is_empty() {
            self.buffer = VecDeque::from(data);
        } else {
            self.buffer.extend(data);
        }
        self.pumped()
    }

    fn pumped(&mut self) -> Vec<Effect> {
        let mut fx = Vec::new();
        self.pump(&mut fx);
        fx
    }

    /// Declares end of stream; the machine closes once everything is
    /// acknowledged.
    pub fn finish(&mut self) -> Vec<Effect> {
        self.eof = true;
        let mut fx = Vec::new();
        self.pump(&mut fx);
        self.maybe_end(&mut fx);
        fx
    }

    /// Handles a received Pup addressed to this endpoint.
    pub fn on_pup(&mut self, pup: &Pup) -> Vec<Effect> {
        let mut fx = Vec::new();
        match (self.state, pup.ptype) {
            (SendState::Connecting, types::BSP_OPEN) => {
                self.state = SendState::Established;
                self.backoff = 0;
                self.disarm(&mut fx);
                fx.push(Effect::Connected);
                self.pump(&mut fx);
                self.maybe_end(&mut fx);
            }
            (SendState::Established | SendState::Ending, types::BSP_ACK) => {
                self.stats.acks += 1;
                let acked_to = pup.id;
                if acked_to > self.base {
                    let mut acked = 0;
                    while let Some(&(seq, len)) = self.inflight.front() {
                        if seq >= acked_to {
                            break;
                        }
                        self.inflight.pop_front();
                        acked += len;
                    }
                    self.buffer.drain(..acked);
                    self.inflight_bytes -= acked;
                    self.stats.bytes_acked += acked as u64;
                    self.base = acked_to;
                    self.dup_acks = 0;
                    self.backoff = 0;
                    // Additive recovery from backpressure shrinkage: one
                    // packet of window per advancing ack.
                    self.cwnd = (self.cwnd + 1).min(self.cfg.window);
                    // Fresh progress: restart (or clear) the timer.
                    self.disarm(&mut fx);
                    if !self.inflight.is_empty() || self.end_seq.is_some() {
                        self.arm(&mut fx);
                    }
                } else if acked_to == self.base && acked_to < self.next_seq {
                    // A re-ack of exactly the current base: the receiver
                    // may be missing the base segment, or this may be the
                    // echo of a duplicate we ourselves retransmitted. Only
                    // a *third* consecutive stale ack goes back and
                    // resends — reacting to every one amplifies without
                    // bound. Acks older than the base carry no signal at
                    // all: a path switch mid-transfer (fabric failover)
                    // reorders in-flight acks, and an ack overtaken by a
                    // newer one is evidence of rerouting, not of loss.
                    self.dup_acks += 1;
                    if self.dup_acks >= 3 {
                        self.dup_acks = 0;
                        self.retransmit(&mut fx);
                    }
                }
                self.pump(&mut fx);
                self.maybe_end(&mut fx);
            }
            (SendState::Established | SendState::Ending, types::BSP_THROTTLE) => {
                self.on_backpressure();
            }
            (SendState::Ending, types::BSP_END_REPLY) => {
                self.state = SendState::Closed;
                self.backoff = 0;
                self.disarm(&mut fx);
                fx.push(Effect::Closed);
            }
            _ => {} // stray or duplicate control traffic
        }
        fx
    }

    /// Handles the retransmission timer.
    pub fn on_timer(&mut self, token: u64) -> Vec<Effect> {
        let mut fx = Vec::new();
        if token != RTO_TOKEN {
            return fx;
        }
        self.timer_armed = false;
        if matches!(
            self.state,
            SendState::Connecting | SendState::Established | SendState::Ending
        ) {
            if self.backoff >= self.cfg.max_retries {
                // Exhausted: fail the channel instead of retrying forever.
                self.state = SendState::Failed;
                self.stats.giveups += 1;
                fx.push(Effect::Failed);
                return fx;
            }
            self.backoff += 1;
        }
        match self.state {
            SendState::Connecting => {
                self.stats.retransmits += 1;
                fx.push(Effect::Send(self.rfc()));
                self.arm(&mut fx);
            }
            SendState::Established => {
                self.retransmit(&mut fx);
            }
            SendState::Ending => {
                self.stats.retransmits += 1;
                fx.push(Effect::Send(self.end_pup()));
                self.arm(&mut fx);
            }
            _ => {}
        }
        fx
    }

    fn rfc(&self) -> Pup {
        Pup::new(types::BSP_RFC, 0, self.remote, self.local, Vec::new())
    }

    fn end_pup(&self) -> Pup {
        Pup::new(
            types::BSP_END,
            self.end_seq.expect("END sent"),
            self.remote,
            self.local,
            Vec::new(),
        )
    }

    /// The `n` buffered bytes from offset `at`, which lie in at most two
    /// runs of the ring.
    fn segment(&self, at: usize, n: usize) -> Vec<u8> {
        let (head, tail) = self.buffer.as_slices();
        let (lo, hi) = (at.min(head.len()), (at + n).min(head.len()));
        let (lo_t, hi_t) = (at - lo, at + n - hi);
        [&head[lo..hi], &tail[lo_t..hi_t]].concat()
    }

    /// Sends as much of the buffer as the window allows.
    fn pump(&mut self, fx: &mut Vec<Effect>) {
        if self.state != SendState::Established {
            return;
        }
        loop {
            let unsent = self.buffered_bytes();
            let window_open = (self.next_seq - self.base) < self.cwnd as u32;
            let full = unsent >= self.cfg.segment;
            let flushable = unsent > 0 && (self.eof || self.cfg.push);
            if !window_open || !(full || flushable) {
                break;
            }
            let n = unsent.min(self.cfg.segment);
            let chunk = self.segment(self.inflight_bytes, n);
            let seq = self.next_seq;
            self.next_seq += 1;
            self.inflight.push_back((seq, n));
            self.inflight_bytes += n;
            // Ask for an ack when this fills the window or drains the
            // buffer — the end of a burst either way.
            let burst_end = (self.next_seq - self.base) >= self.cwnd as u32 || unsent == n;
            let ptype = if burst_end {
                types::BSP_ADATA
            } else {
                types::BSP_DATA
            };
            let pup = Pup::new(ptype, seq, self.remote, self.local, chunk);
            self.stats.data_packets += 1;
            fx.push(Effect::Send(pup));
            if !self.timer_armed {
                self.arm(fx);
            }
        }
    }

    /// Go-back-N: resend everything in flight, last packet asking for ack.
    fn retransmit(&mut self, fx: &mut Vec<Effect>) {
        let Some(&(last, _)) = self.inflight.back() else {
            return;
        };
        let mut at = 0;
        for &(seq, len) in &self.inflight {
            let ptype = if seq == last {
                types::BSP_ADATA
            } else {
                types::BSP_DATA
            };
            let seg = self.segment(at, len);
            at += len;
            self.stats.retransmits += 1;
            self.stats.data_packets += 1;
            fx.push(Effect::Send(Pup::new(
                ptype,
                seq,
                self.remote,
                self.local,
                seg,
            )));
        }
        self.disarm(fx);
        self.arm(fx);
    }

    /// Sends END once everything is delivered and acknowledged.
    fn maybe_end(&mut self, fx: &mut Vec<Effect>) {
        if self.state == SendState::Established
            && self.eof
            && self.buffer.is_empty()
            && self.inflight.is_empty()
            && self.end_seq.is_none()
        {
            self.end_seq = Some(self.next_seq);
            self.state = SendState::Ending;
            fx.push(Effect::Send(self.end_pup()));
            self.disarm(fx);
            self.arm(fx);
        }
    }

    fn arm(&mut self, fx: &mut Vec<Effect>) {
        self.timer_armed = true;
        fx.push(Effect::SetTimer(self.current_rto(), RTO_TOKEN));
    }

    fn disarm(&mut self, fx: &mut Vec<Effect>) {
        if self.timer_armed {
            self.timer_armed = false;
            fx.push(Effect::CancelTimer(RTO_TOKEN));
        }
    }
}

/// Receiver statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReceiverStats {
    /// In-order data packets delivered.
    pub delivered_packets: u64,
    /// Payload bytes delivered in order.
    pub delivered_bytes: u64,
    /// Duplicate packets discarded.
    pub duplicates: u64,
    /// Out-of-order packets discarded (go-back-N).
    pub out_of_order: u64,
    /// Acks sent.
    pub acks_sent: u64,
    /// Throttle packets sent in response to kernel backpressure.
    pub throttles_sent: u64,
}

/// The BSP receiving endpoint as a pure state machine.
#[derive(Debug)]
pub struct ReceiverMachine {
    local: PupAddr,
    /// Next expected sequence number.
    expected: u32,
    /// Whether the stream has closed.
    closed: bool,
    /// The sending peer, learned from the first packet seen (where
    /// kernel-backpressure throttles are addressed).
    peer: Option<PupAddr>,
    /// Statistics.
    pub stats: ReceiverStats,
}

impl ReceiverMachine {
    /// Creates a receiver listening on `local`.
    pub fn new(local: PupAddr) -> Self {
        ReceiverMachine {
            local,
            expected: 1,
            closed: false,
            peer: None,
            stats: ReceiverStats::default(),
        }
    }

    /// Whether the stream has closed.
    pub fn is_closed(&self) -> bool {
        self.closed
    }

    /// Responds to the kernel's backpressure notification on this
    /// endpoint's port: sends the peer a `BSP_THROTTLE` so the sender
    /// shrinks its window instead of overflowing the queue. A no-op until
    /// a peer is known.
    pub fn on_backpressure(&mut self) -> Vec<Effect> {
        let mut fx = Vec::new();
        if let Some(peer) = self.peer {
            self.stats.throttles_sent += 1;
            fx.push(Effect::Send(Pup::new(
                types::BSP_THROTTLE,
                self.expected,
                peer,
                self.local,
                Vec::new(),
            )));
        }
        fx
    }

    /// Handles a received Pup addressed to this endpoint.
    pub fn on_pup(&mut self, pup: &Pup) -> Vec<Effect> {
        self.receive(pup, Cow::Borrowed(&pup.data))
    }

    /// Handles a received Pup the caller hands over: in-order data moves
    /// into `Effect::Deliver` instead of being copied there.
    pub fn on_pup_owned(&mut self, mut pup: Pup) -> Vec<Effect> {
        let data = std::mem::take(&mut pup.data);
        self.receive(&pup, Cow::Owned(data))
    }

    /// Handles `pup` carrying `data`: the owned entry has taken the data
    /// out of `pup.data`, the borrowed one lends it.
    fn receive(&mut self, pup: &Pup, data: Cow<'_, [u8]>) -> Vec<Effect> {
        let mut fx = Vec::new();
        self.peer = Some(pup.src);
        match pup.ptype {
            types::BSP_RFC => {
                fx.push(Effect::Send(Pup::new(
                    types::BSP_OPEN,
                    0,
                    pup.src,
                    self.local,
                    Vec::new(),
                )));
            }
            types::BSP_DATA | types::BSP_ADATA => {
                if pup.id == self.expected {
                    self.expected += 1;
                    self.stats.delivered_packets += 1;
                    self.stats.delivered_bytes += data.len() as u64;
                    fx.push(Effect::Deliver(data.into_owned()));
                    if pup.ptype == types::BSP_ADATA {
                        self.ack(pup.src, &mut fx);
                    }
                } else if pup.id < self.expected {
                    self.stats.duplicates += 1;
                    self.ack(pup.src, &mut fx);
                } else {
                    // A gap: drop and re-ack what we expect (go-back-N).
                    self.stats.out_of_order += 1;
                    self.ack(pup.src, &mut fx);
                }
            }
            types::BSP_END => {
                if pup.id == self.expected && !self.closed {
                    self.closed = true;
                    fx.push(Effect::Closed);
                }
                // Always answer (covers a lost END_REPLY).
                if pup.id <= self.expected {
                    fx.push(Effect::Send(Pup::new(
                        types::BSP_END_REPLY,
                        pup.id,
                        pup.src,
                        self.local,
                        Vec::new(),
                    )));
                }
            }
            _ => {}
        }
        fx
    }

    fn ack(&mut self, to: PupAddr, fx: &mut Vec<Effect>) {
        self.stats.acks_sent += 1;
        fx.push(Effect::Send(Pup::new(
            types::BSP_ACK,
            self.expected,
            to,
            self.local,
            Vec::new(),
        )));
    }
}

#[cfg(test)]
mod machine_tests {
    use super::*;

    fn addrs() -> (PupAddr, PupAddr) {
        (PupAddr::new(1, 0x0A, 0x100), PupAddr::new(1, 0x0B, 0x200))
    }

    /// Runs sender and receiver to completion over a perfect in-order
    /// channel, returning delivered bytes.
    fn run_lossless(payload: &[u8], cfg: BspConfig) -> Vec<u8> {
        let (sa, ra) = addrs();
        let mut s = SenderMachine::new(sa, ra, cfg);
        let mut r = ReceiverMachine::new(ra);
        let mut delivered = Vec::new();
        let mut to_recv: VecDeque<Pup> = VecDeque::new();
        let mut to_send: VecDeque<Pup> = VecDeque::new();

        let handle = |fx: Vec<Effect>, to_other: &mut VecDeque<Pup>, delivered: &mut Vec<u8>| {
            for e in fx {
                match e {
                    Effect::Send(p) => to_other.push_back(p),
                    Effect::Deliver(d) => delivered.extend(d),
                    _ => {}
                }
            }
        };

        handle(s.connect(), &mut to_recv, &mut delivered);
        handle(s.offer(payload), &mut to_recv, &mut delivered);
        handle(s.finish(), &mut to_recv, &mut delivered);
        let mut steps = 0;
        while !(s.is_closed() && to_recv.is_empty() && to_send.is_empty()) {
            steps += 1;
            assert!(steps < 100_000, "machine livelock");
            if let Some(p) = to_recv.pop_front() {
                handle(r.on_pup(&p), &mut to_send, &mut delivered);
            }
            if let Some(p) = to_send.pop_front() {
                handle(s.on_pup(&p), &mut to_recv, &mut delivered);
            }
        }
        assert!(r.is_closed());
        delivered
    }

    #[test]
    fn lossless_transfer_delivers_exact_stream() {
        let payload: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        let got = run_lossless(&payload, BspConfig::default());
        assert_eq!(got, payload);
    }

    #[test]
    fn empty_stream_closes() {
        let got = run_lossless(&[], BspConfig::default());
        assert!(got.is_empty());
    }

    #[test]
    fn single_byte_stream() {
        let got = run_lossless(
            &[42],
            BspConfig {
                push: true,
                ..Default::default()
            },
        );
        assert_eq!(got, vec![42]);
    }

    #[test]
    fn segments_respect_max_size() {
        let (sa, ra) = addrs();
        let mut s = SenderMachine::new(sa, ra, BspConfig::default());
        let _ = s.connect();
        let open = Pup::new(types::BSP_OPEN, 0, sa, ra, Vec::new());
        let _ = s.on_pup(&open);
        let fx = s.offer(&vec![0u8; 5000]);
        for e in fx {
            if let Effect::Send(p) = e {
                assert!(p.data.len() <= MAX_PUP_DATA);
            }
        }
    }

    #[test]
    fn window_limits_inflight() {
        let (sa, ra) = addrs();
        let cfg = BspConfig {
            window: 3,
            segment: 100,
            ..Default::default()
        };
        let mut s = SenderMachine::new(sa, ra, cfg);
        let _ = s.connect();
        let _ = s.on_pup(&Pup::new(types::BSP_OPEN, 0, sa, ra, Vec::new()));
        let fx = s.offer(&vec![0u8; 10_000]);
        let sent = fx.iter().filter(|e| matches!(e, Effect::Send(_))).count();
        assert_eq!(sent, 3, "window of 3 caps the burst");
        assert_eq!(s.inflight(), 3);
    }

    #[test]
    fn burst_end_requests_ack() {
        let (sa, ra) = addrs();
        let cfg = BspConfig {
            window: 3,
            segment: 100,
            ..Default::default()
        };
        let mut s = SenderMachine::new(sa, ra, cfg);
        let _ = s.connect();
        let _ = s.on_pup(&Pup::new(types::BSP_OPEN, 0, sa, ra, Vec::new()));
        let fx = s.offer(&vec![0u8; 10_000]);
        let types_sent: Vec<u8> = fx
            .iter()
            .filter_map(|e| match e {
                Effect::Send(p) => Some(p.ptype),
                _ => None,
            })
            .collect();
        assert_eq!(
            types_sent,
            vec![types::BSP_DATA, types::BSP_DATA, types::BSP_ADATA],
            "only the last packet of the burst demands an ack"
        );
    }

    #[test]
    fn retransmit_on_timeout_is_go_back_n() {
        let (sa, ra) = addrs();
        let cfg = BspConfig {
            window: 2,
            segment: 10,
            ..Default::default()
        };
        let mut s = SenderMachine::new(sa, ra, cfg);
        let _ = s.connect();
        let _ = s.on_pup(&Pup::new(types::BSP_OPEN, 0, sa, ra, Vec::new()));
        let _ = s.offer(&[1u8; 20]);
        assert_eq!(s.inflight(), 2);
        let fx = s.on_timer(RTO_TOKEN);
        let resent: Vec<u32> = fx
            .iter()
            .filter_map(|e| match e {
                Effect::Send(p) => Some(p.id),
                _ => None,
            })
            .collect();
        assert_eq!(resent, vec![1, 2]);
        assert_eq!(s.stats.retransmits, 2);
    }

    #[test]
    fn reordered_stale_acks_are_not_loss_evidence() {
        let (sa, ra) = addrs();
        let cfg = BspConfig {
            window: 4,
            segment: 10,
            ..Default::default()
        };
        let mut s = SenderMachine::new(sa, ra, cfg);
        let _ = s.connect();
        let _ = s.on_pup(&Pup::new(types::BSP_OPEN, 0, sa, ra, Vec::new()));
        let _ = s.offer(&[7u8; 40]);
        assert_eq!(s.inflight(), 4);
        // The cumulative ack for 1..3 arrives first; the per-segment acks
        // it overtook (a path switch reordered them) straggle in after.
        let ack = |n: u32| Pup::new(types::BSP_ACK, n, ra, sa, Vec::new());
        let _ = s.on_pup(&ack(3));
        for old in [2u32, 1, 2, 1, 2, 1] {
            let _ = s.on_pup(&ack(old));
        }
        assert_eq!(
            s.stats.retransmits, 0,
            "overtaken acks are rerouting evidence, not loss evidence"
        );
        // Re-acks of the *current* base still mean the base is missing:
        // the third one goes back and resends.
        for _ in 0..3 {
            let _ = s.on_pup(&ack(3));
        }
        assert!(s.stats.retransmits > 0, "true dup-ack signal still fires");
        assert_eq!(s.stats.giveups, 0);
    }

    /// A transfer that survives a mid-stream path switch: at the flip
    /// point every queued packet in both directions is duplicated and
    /// the copies delivered in reverse order (old path drains late while
    /// the new path races ahead). The stream must complete with no
    /// give-up.
    #[test]
    fn transfer_survives_path_switch_reordering() {
        let (sa, ra) = addrs();
        let cfg = BspConfig {
            window: 4,
            segment: 100,
            ..Default::default()
        };
        let payload: Vec<u8> = (0..2_000u32).map(|i| (i % 241) as u8).collect();
        let mut s = SenderMachine::new(sa, ra, cfg);
        let mut r = ReceiverMachine::new(ra);
        let mut delivered = Vec::new();
        let mut to_recv: VecDeque<Pup> = VecDeque::new();
        let mut to_send: VecDeque<Pup> = VecDeque::new();
        let handle = |fx: Vec<Effect>, out: &mut VecDeque<Pup>, delivered: &mut Vec<u8>| {
            for e in fx {
                match e {
                    Effect::Send(p) => out.push_back(p),
                    Effect::Deliver(d) => delivered.extend(d),
                    _ => {}
                }
            }
        };
        handle(s.connect(), &mut to_recv, &mut delivered);
        handle(s.offer(&payload), &mut to_recv, &mut delivered);
        handle(s.finish(), &mut to_recv, &mut delivered);
        let mut steps = 0u32;
        let mut flipped = false;
        while !(s.is_closed() && to_recv.is_empty() && to_send.is_empty()) {
            steps += 1;
            assert!(steps < 100_000, "machine livelock");
            if steps == 10 && !flipped {
                flipped = true;
                let reroute = |q: &mut VecDeque<Pup>| {
                    let dup: Vec<Pup> = q.iter().rev().cloned().collect();
                    q.extend(dup);
                };
                reroute(&mut to_recv);
                reroute(&mut to_send);
            }
            if let Some(p) = to_recv.pop_front() {
                handle(r.on_pup(&p), &mut to_send, &mut delivered);
            }
            if let Some(p) = to_send.pop_front() {
                handle(s.on_pup(&p), &mut to_recv, &mut delivered);
            }
        }
        assert!(flipped, "the path switch actually happened");
        assert_eq!(delivered, payload, "exact stream despite dup + reorder");
        assert_eq!(s.stats.giveups, 0);
        assert!(r.is_closed());
    }

    #[test]
    fn receiver_drops_out_of_order_and_reacks() {
        let (sa, ra) = addrs();
        let mut r = ReceiverMachine::new(ra);
        // Sequence 2 arrives before 1.
        let fx = r.on_pup(&Pup::new(types::BSP_ADATA, 2, ra, sa, vec![2]));
        assert!(fx
            .iter()
            .any(|e| matches!(e, Effect::Send(p) if p.ptype == types::BSP_ACK && p.id == 1)));
        assert!(!fx.iter().any(|e| matches!(e, Effect::Deliver(_))));
        assert_eq!(r.stats.out_of_order, 1);
        // Now 1 arrives: delivered; 2 must be retransmitted by the sender.
        let fx = r.on_pup(&Pup::new(types::BSP_DATA, 1, ra, sa, vec![1]));
        assert!(fx
            .iter()
            .any(|e| matches!(e, Effect::Deliver(d) if d == &vec![1u8])));
    }

    #[test]
    fn receiver_discards_duplicates() {
        let (sa, ra) = addrs();
        let mut r = ReceiverMachine::new(ra);
        let p = Pup::new(types::BSP_ADATA, 1, ra, sa, vec![7]);
        let _ = r.on_pup(&p);
        let fx = r.on_pup(&p);
        assert!(!fx.iter().any(|e| matches!(e, Effect::Deliver(_))));
        assert_eq!(r.stats.duplicates, 1);
        assert_eq!(r.stats.delivered_bytes, 1);
    }

    #[test]
    fn third_stale_ack_triggers_fast_retransmit() {
        let (sa, ra) = addrs();
        let cfg = BspConfig {
            window: 4,
            segment: 10,
            ..Default::default()
        };
        let mut s = SenderMachine::new(sa, ra, cfg);
        let _ = s.connect();
        let _ = s.on_pup(&Pup::new(types::BSP_OPEN, 0, sa, ra, Vec::new()));
        let _ = s.offer(&[1u8; 40]);
        // Two stale acks: patience (duplicates may just be echoes).
        let stale = Pup::new(types::BSP_ACK, 1, sa, ra, Vec::new());
        assert!(!s
            .on_pup(&stale)
            .iter()
            .any(|e| matches!(e, Effect::Send(_))));
        assert!(!s
            .on_pup(&stale)
            .iter()
            .any(|e| matches!(e, Effect::Send(_))));
        // The third goes back and resends the window.
        let fx = s.on_pup(&stale);
        let resent = fx.iter().filter(|e| matches!(e, Effect::Send(_))).count();
        assert_eq!(resent, 4, "whole window resent on the third stale ack");
    }

    #[test]
    fn end_reply_lost_is_recovered() {
        let (sa, ra) = addrs();
        let mut r = ReceiverMachine::new(ra);
        let end = Pup::new(types::BSP_END, 1, ra, sa, Vec::new());
        let fx1 = r.on_pup(&end);
        assert!(fx1.iter().any(|e| matches!(e, Effect::Closed)));
        // The sender never got END_REPLY and retransmits END: the closed
        // receiver must answer again, without a second Closed.
        let fx2 = r.on_pup(&end);
        assert!(fx2
            .iter()
            .any(|e| matches!(e, Effect::Send(p) if p.ptype == types::BSP_END_REPLY)));
        assert!(!fx2.iter().any(|e| matches!(e, Effect::Closed)));
    }

    #[test]
    fn rfc_retransmitted_until_open() {
        let (sa, ra) = addrs();
        let mut s = SenderMachine::new(sa, ra, BspConfig::default());
        let _ = s.connect();
        let fx = s.on_timer(RTO_TOKEN);
        assert!(fx
            .iter()
            .any(|e| matches!(e, Effect::Send(p) if p.ptype == types::BSP_RFC)));
        assert!(!s.is_established());
        let _ = s.on_pup(&Pup::new(types::BSP_OPEN, 0, sa, ra, Vec::new()));
        assert!(s.is_established());
    }

    #[test]
    fn timeouts_back_off_exponentially_to_the_cap() {
        let (sa, ra) = addrs();
        let cfg = BspConfig {
            rto: SimDuration::from_millis(100),
            rto_cap: SimDuration::from_millis(450),
            ..Default::default()
        };
        let mut s = SenderMachine::new(sa, ra, cfg);
        let _ = s.connect();
        let mut rtos = Vec::new();
        for _ in 0..4 {
            let fx = s.on_timer(RTO_TOKEN);
            rtos.extend(fx.iter().filter_map(|e| match e {
                Effect::SetTimer(d, _) => Some(d.as_micros()),
                _ => None,
            }));
        }
        assert_eq!(
            rtos,
            vec![200_000, 400_000, 450_000, 450_000],
            "doubling from the base, then pinned at the cap"
        );
    }

    #[test]
    fn progress_resets_the_backoff() {
        let (sa, ra) = addrs();
        let cfg = BspConfig {
            window: 2,
            segment: 10,
            ..Default::default()
        };
        let mut s = SenderMachine::new(sa, ra, cfg);
        let _ = s.connect();
        let _ = s.on_pup(&Pup::new(types::BSP_OPEN, 0, sa, ra, Vec::new()));
        let _ = s.offer(&[1u8; 20]);
        let _ = s.on_timer(RTO_TOKEN);
        let _ = s.on_timer(RTO_TOKEN);
        assert!(s.current_rto() > s.cfg.rto);
        // An advancing ack restores the base RTO.
        let _ = s.on_pup(&Pup::new(types::BSP_ACK, 2, sa, ra, Vec::new()));
        assert_eq!(s.current_rto(), s.cfg.rto);
    }

    #[test]
    fn retry_exhaustion_fails_the_channel() {
        let (sa, ra) = addrs();
        let cfg = BspConfig {
            max_retries: 3,
            ..Default::default()
        };
        let mut s = SenderMachine::new(sa, ra, cfg);
        let _ = s.connect();
        for _ in 0..3 {
            let fx = s.on_timer(RTO_TOKEN);
            assert!(fx
                .iter()
                .any(|e| matches!(e, Effect::Send(p) if p.ptype == types::BSP_RFC)));
        }
        let fx = s.on_timer(RTO_TOKEN);
        assert!(fx.iter().any(|e| matches!(e, Effect::Failed)));
        assert!(!fx.iter().any(|e| matches!(e, Effect::Send(_))));
        assert!(s.is_failed());
        assert_eq!(s.stats.giveups, 1);
        // A failed channel is inert.
        assert!(s.on_timer(RTO_TOKEN).is_empty());
    }

    #[test]
    fn throttle_halves_the_window_and_acks_recover_it() {
        let (sa, ra) = addrs();
        let cfg = BspConfig {
            window: 8,
            segment: 10,
            ..Default::default()
        };
        let mut s = SenderMachine::new(sa, ra, cfg);
        let _ = s.connect();
        let _ = s.on_pup(&Pup::new(types::BSP_OPEN, 0, sa, ra, Vec::new()));
        assert_eq!(s.effective_window(), 8);
        // Receiver-side kernel backpressure arrives as a THROTTLE pup.
        let throttle = Pup::new(types::BSP_THROTTLE, 1, sa, ra, Vec::new());
        let _ = s.on_pup(&throttle);
        assert_eq!(s.effective_window(), 4);
        let _ = s.on_pup(&throttle);
        let _ = s.on_pup(&throttle);
        let _ = s.on_pup(&throttle);
        assert_eq!(s.effective_window(), 1, "never below one packet");
        assert_eq!(s.stats.backpressure_events, 4);
        // The shrunken window caps the burst.
        let fx = s.offer(&[1u8; 80]);
        let sent = fx.iter().filter(|e| matches!(e, Effect::Send(_))).count();
        assert_eq!(sent, 1, "one packet in flight under full throttle");
        // Advancing acks recover the window additively.
        let _ = s.on_pup(&Pup::new(types::BSP_ACK, 2, sa, ra, Vec::new()));
        assert_eq!(s.effective_window(), 2);
        let _ = s.on_pup(&Pup::new(types::BSP_ACK, 4, sa, ra, Vec::new()));
        assert_eq!(s.effective_window(), 3);
    }

    #[test]
    fn receiver_reflects_backpressure_to_the_learned_peer() {
        let (sa, ra) = addrs();
        let mut r = ReceiverMachine::new(ra);
        // No peer yet: nothing to throttle.
        assert!(r.on_backpressure().is_empty());
        let _ = r.on_pup(&Pup::new(types::BSP_ADATA, 1, ra, sa, vec![7]));
        let fx = r.on_backpressure();
        assert!(fx.iter().any(
            |e| matches!(e, Effect::Send(p) if p.ptype == types::BSP_THROTTLE && p.dst == sa)
        ));
        assert_eq!(r.stats.throttles_sent, 1);
    }

    /// Segment boundaries are what they were when `pump` drained a byte at
    /// a time — whole segments off the front of the stream while the window
    /// has room — wherever in its ring the buffer's head happens to be.
    #[test]
    fn segments_cut_from_a_wrapped_buffer_are_byte_exact() {
        let (sa, ra) = addrs();
        let cfg = BspConfig {
            window: 3,
            segment: 100,
            ..Default::default()
        };
        let (window, segment) = (cfg.window, cfg.segment);
        let mut s = SenderMachine::new(sa, ra, cfg);
        let _ = s.connect();
        let _ = s.on_pup(&Pup::new(types::BSP_OPEN, 0, sa, ra, Vec::new()));

        let stream: Vec<u8> = (0..20_000u32).map(|i| (i * 7 % 251) as u8).collect();
        let mut offered = 0;
        let mut sent: Vec<Vec<u8>> = Vec::new();
        let mut next_ack = 1u32;
        let mut most_buffered = 0;
        let mut laps_worth = 0;
        let take = |fx: Vec<Effect>, sent: &mut Vec<Vec<u8>>| {
            for e in fx {
                match e {
                    Effect::Send(p) if p.ptype != types::BSP_END => {
                        assert_eq!(p.id as usize, sent.len() + 1, "in sequence");
                        sent.push(p.data);
                    }
                    _ => {}
                }
            }
        };
        // Uneven offers against a draining window: the buffer's head walks
        // round its ring, so segments straddle the wrap.
        for chunk in [37usize, 211, 5, 149, 83].iter().cycle() {
            if offered == stream.len() {
                break;
            }
            let hi = (offered + chunk).min(stream.len());
            take(s.offer(&stream[offered..hi]), &mut sent);
            offered = hi;
            most_buffered = most_buffered.max(s.buffer.len());
            if s.inflight() == window {
                next_ack += 1;
                let ack = Pup::new(types::BSP_ACK, next_ack, sa, ra, Vec::new());
                take(s.on_pup(&ack), &mut sent);
                laps_worth += segment;
            }
        }
        take(s.finish(), &mut sent);
        while s.inflight() > 0 {
            next_ack += 1;
            let ack = Pup::new(types::BSP_ACK, next_ack, sa, ra, Vec::new());
            take(s.on_pup(&ack), &mut sent);
        }
        // The ring never held more than `most_buffered` bytes (it grows by
        // doubling, so its capacity is under twice that), yet far more went
        // through it.
        let ring = 2 * most_buffered;
        assert!(
            laps_worth >= 3 * ring,
            "{laps_worth} bytes through a {ring}-byte ring"
        );
        // Full segments until the stream runs out, as when they were
        // drained a byte at a time.
        let want: Vec<&[u8]> = stream.chunks(segment).collect();
        assert_eq!(sent.len(), want.len());
        for (i, (got, want)) in sent.iter().zip(want).enumerate() {
            assert_eq!(got, want, "segment {}", i + 1);
        }
    }

    /// Go-back-N re-slices its spans from the send buffer: a segment whose
    /// span straddles the ring's wrap goes out again byte for byte as it
    /// first went.
    #[test]
    fn go_back_n_resends_a_span_across_the_wrap_byte_for_byte() {
        let (sa, ra) = addrs();
        let cfg = BspConfig {
            window: 4,
            segment: 100,
            ..Default::default()
        };
        let segment = cfg.segment;
        let mut s = SenderMachine::new(sa, ra, cfg);
        let _ = s.connect();
        let _ = s.on_pup(&Pup::new(types::BSP_OPEN, 0, sa, ra, Vec::new()));
        let stream: Vec<u8> = (0..50_000u32).map(|i| (i * 13 % 251) as u8).collect();
        // Data Pups by sequence number, first transmissions only.
        let mut sent: Vec<Vec<u8>> = Vec::new();
        let take = |fx: Vec<Effect>, sent: &mut Vec<Vec<u8>>| {
            for e in fx {
                if let Effect::Send(p) = e {
                    if p.id as usize == sent.len() + 1 {
                        sent.push(p.data);
                    }
                }
            }
        };
        let straddles = |s: &SenderMachine| {
            let head = s.buffer.as_slices().0.len();
            let mut at = 0;
            s.inflight.iter().any(|&(_, len)| {
                at += len;
                at - len < head && head < at
            })
        };
        // Offer in uneven chunks and ack two segments whenever the window
        // is full, until an in-flight span crosses the wrap.
        let mut offered = 0;
        for chunk in [130usize, 70, 290, 45].iter().cycle() {
            if straddles(&s) || offered == stream.len() {
                break;
            }
            let hi = (offered + chunk).min(stream.len());
            take(s.offer(&stream[offered..hi]), &mut sent);
            offered = hi;
            if s.inflight() == 4 && !straddles(&s) {
                let ack = Pup::new(types::BSP_ACK, s.base + 2, sa, ra, Vec::new());
                take(s.on_pup(&ack), &mut sent);
            }
        }
        assert!(straddles(&s), "a span crosses the ring's wrap");
        // The base segment is lost: the timer fires and every span goes
        // out again.
        let fx = s.on_timer(RTO_TOKEN);
        let resent: Vec<Pup> = fx
            .into_iter()
            .filter_map(|e| match e {
                Effect::Send(p) => Some(p),
                _ => None,
            })
            .collect();
        assert_eq!(resent.len(), 4);
        for p in &resent {
            let seq = p.id as usize;
            assert_eq!(p.data, sent[seq - 1], "segment {seq} as first sent");
            assert_eq!(p.data, stream[(seq - 1) * segment..seq * segment]);
        }
        assert_eq!(resent[3].ptype, types::BSP_ADATA);
    }

    #[test]
    fn push_mode_sends_partial_segments() {
        let (sa, ra) = addrs();
        let cfg = BspConfig {
            push: true,
            segment: 100,
            ..Default::default()
        };
        let mut s = SenderMachine::new(sa, ra, cfg);
        let _ = s.connect();
        let _ = s.on_pup(&Pup::new(types::BSP_OPEN, 0, sa, ra, Vec::new()));
        let fx = s.offer(b"abc");
        assert!(fx
            .iter()
            .any(|e| matches!(e, Effect::Send(p) if p.data == b"abc".to_vec())));
    }

    #[test]
    fn bulk_mode_waits_for_full_segments() {
        let (sa, ra) = addrs();
        let cfg = BspConfig {
            push: false,
            segment: 100,
            ..Default::default()
        };
        let mut s = SenderMachine::new(sa, ra, cfg);
        let _ = s.connect();
        let _ = s.on_pup(&Pup::new(types::BSP_OPEN, 0, sa, ra, Vec::new()));
        let fx = s.offer(b"abc");
        assert!(!fx.iter().any(|e| matches!(e, Effect::Send(_))));
        // finish() flushes the remainder.
        let fx = s.finish();
        assert!(fx
            .iter()
            .any(|e| matches!(e, Effect::Send(p) if p.data == b"abc".to_vec())));
    }
}
