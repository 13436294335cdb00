//! Packet-filter process adapters for the BSP state machines.
//!
//! These are the §5.1 user-level protocol processes: each opens a
//! packet-filter port, binds a figure-3-9-style socket filter, and maps
//! [`Effect`]s from the pure machines onto system calls. Per-packet
//! user-level protocol processing is charged via [`ProcCtx::compute`], so
//! the measured cost of user-level implementation includes the work the
//! kernel would otherwise have done in `tcp_input`-style routines.

use crate::bsp::{BspConfig, Effect, ReceiverMachine, SenderMachine};
use crate::pup::{Pup, PupAddr};
use pf_kernel::app::App;
use pf_kernel::types::{Fd, PortConfig, ReadError, ReadMode, RecvPacket, TimerId};
use pf_kernel::world::ProcCtx;
use pf_net::medium::Medium;
use pf_sim::time::{SimDuration, SimTime};

/// User-level protocol processing charged per packet handled (send or
/// receive) — header construction/parsing, window bookkeeping. Roughly
/// what a kernel implementation spends in its protocol input routine.
pub const USER_PROTO_COST: SimDuration = SimDuration::from_micros(350);

/// Software Pup checksum cost per byte, charged on send and on receive
/// when the configuration asks for checksummed Pups.
pub const CKSUM_PER_BYTE_NS: u64 = 600;

fn cksum_cost(bytes: usize) -> SimDuration {
    SimDuration::from_nanos(CKSUM_PER_BYTE_NS * bytes as u64)
}

/// Shared adapter plumbing: a port plus retransmission-timer bookkeeping.
struct Endpoint {
    fd: Option<Fd>,
    timer: Option<TimerId>,
    checksummed: bool,
}

impl Endpoint {
    fn new(checksummed: bool) -> Self {
        Endpoint {
            fd: None,
            timer: None,
            checksummed,
        }
    }

    /// Charges receive-side checksum verification for one Pup.
    fn charge_rx_cksum(&self, k: &mut ProcCtx<'_>, bytes: usize) {
        if self.checksummed && bytes > 0 {
            k.compute("user:pup-cksum", cksum_cost(bytes));
        }
    }

    fn open(&mut self, k: &mut ProcCtx<'_>, local: PupAddr, batch: bool, mark: Option<usize>) {
        let fd = k.pf_open();
        k.pf_set_filter(fd, Pup::socket_filter(10, local.socket));
        k.pf_configure(
            fd,
            PortConfig {
                read_mode: if batch {
                    ReadMode::Batch
                } else {
                    ReadMode::Single
                },
                backpressure_mark: mark,
                ..Default::default()
            },
        );
        self.fd = Some(fd);
        k.pf_read(fd);
    }

    /// Applies machine effects that do not feed back into the machine;
    /// returns the feedback events (connected / closed / bytes delivered:
    /// a count — the bytes themselves are in the machine's `Effect::Deliver`).
    fn apply(&mut self, fx: Vec<Effect>, k: &mut ProcCtx<'_>) -> Feedback {
        let medium = Medium::experimental_3mb();
        let mut fb = Feedback::default();
        for e in fx {
            match e {
                Effect::Send(pup) => {
                    k.compute("user:bsp", USER_PROTO_COST);
                    if self.checksummed && !pup.data.is_empty() {
                        k.compute("user:pup-cksum", cksum_cost(pup.data.len()));
                    }
                    let frame = pup.encode_frame(&medium, self.checksummed);
                    let _ = k.pf_write_owned(self.fd.expect("port open"), frame);
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
                Effect::Deliver(data) => fb.delivered += data.len(),
                Effect::Connected => fb.connected = true,
                Effect::Closed => fb.closed = true,
                Effect::Failed => fb.failed = true,
            }
        }
        fb
    }
}

#[derive(Default)]
struct Feedback {
    connected: bool,
    closed: bool,
    failed: bool,
    delivered: usize,
}

/// A user-level BSP bulk sender: connects, streams `payload`, closes.
pub struct BspSenderApp {
    local: PupAddr,
    remote: PupAddr,
    /// The payload not yet handed to the machine (a memory source hands
    /// it all over at once).
    payload: Vec<u8>,
    offered: usize,
    /// If set, the payload is read from a chunked source (a disk file):
    /// each chunk of the given size costs the given time before it can be
    /// offered to the protocol (table 6-6's FTP variant).
    source: Option<(usize, SimDuration)>,
    machine: SenderMachine,
    ep: Endpoint,
    batch: bool,
    /// When the connection was initiated.
    pub started_at: Option<SimTime>,
    /// When the stream fully closed.
    pub closed_at: Option<SimTime>,
    /// When the sender gave up (retry exhaustion), if it did.
    pub failed_at: Option<SimTime>,
    /// Received frames discarded because they failed to decode (bad
    /// checksum, truncated header, not a Pup).
    pub discards: u64,
}

impl BspSenderApp {
    /// Creates a sender that will stream `payload` to `remote`.
    pub fn new(local: PupAddr, remote: PupAddr, payload: Vec<u8>, cfg: BspConfig) -> Self {
        let checksummed = cfg.checksummed;
        let batch = cfg.batch;
        BspSenderApp {
            machine: SenderMachine::new(local, remote, cfg),
            local,
            remote,
            payload,
            offered: 0,
            source: None,
            ep: Endpoint::new(checksummed),
            batch,
            started_at: None,
            closed_at: None,
            failed_at: None,
            discards: 0,
        }
    }

    /// Reads the payload from a chunked source: each `chunk`-byte read
    /// costs `cost` (e.g. a disk file instead of memory).
    pub fn with_chunked_source(mut self, chunk: usize, cost: SimDuration) -> Self {
        self.source = Some((chunk, cost));
        self
    }

    /// Sender-machine statistics.
    pub fn stats(&self) -> crate::bsp::SenderStats {
        self.machine.stats
    }

    /// Whether the transfer completed.
    pub fn is_done(&self) -> bool {
        self.closed_at.is_some()
    }

    /// Whether the sender gave up after exhausting its retries.
    pub fn is_failed(&self) -> bool {
        self.failed_at.is_some()
    }

    fn drive(&mut self, fx: Vec<Effect>, k: &mut ProcCtx<'_>) {
        let fb = self.ep.apply(fx, k);
        if fb.connected {
            self.offer_more(k);
        }
        if fb.closed {
            self.closed_at = Some(k.now());
        }
        if fb.failed {
            self.failed_at = Some(k.now());
        }
    }

    /// Offers payload to the machine: everything at once from memory —
    /// moved in, so the machine's send buffer is the payload — or chunk by
    /// chunk (with per-chunk cost) from a simulated disk source.
    fn offer_more(&mut self, k: &mut ProcCtx<'_>) {
        if self.offered >= self.payload.len() {
            return;
        }
        match self.source {
            None => {
                let payload = std::mem::take(&mut self.payload);
                self.offered = payload.len();
                let fx = self.machine.offer_owned(payload);
                let _ = self.ep.apply(fx, k);
            }
            Some((chunk, cost)) => {
                // Keep one chunk ahead of the protocol.
                while self.offered < self.payload.len() && self.machine.buffered_bytes() < chunk {
                    let hi = (self.offered + chunk).min(self.payload.len());
                    k.compute("user:disk-read", cost);
                    let fx = self.machine.offer(&self.payload[self.offered..hi]);
                    self.offered = hi;
                    let _ = self.ep.apply(fx, k);
                }
            }
        }
        if self.offered >= self.payload.len() {
            let fx = self.machine.finish();
            let _ = self.ep.apply(fx, k);
        }
    }
}

impl App for BspSenderApp {
    fn start(&mut self, k: &mut ProcCtx<'_>) {
        let _ = self.remote;
        let batch = self.batch;
        self.ep.open(k, self.local, batch, None);
        self.started_at = Some(k.now());
        let fx = self.machine.connect();
        self.drive(fx, k);
    }

    fn on_packets(&mut self, fd: Fd, packets: Vec<RecvPacket>, k: &mut ProcCtx<'_>) {
        let medium = Medium::experimental_3mb();
        for p in packets {
            k.compute("user:bsp", USER_PROTO_COST);
            match Pup::decode_frame(&medium, &p.bytes) {
                Ok(pup) => {
                    let fx = self.machine.on_pup(&pup);
                    self.drive(fx, k);
                }
                Err(_) => self.discards += 1,
            }
        }
        if self.machine.is_established() {
            self.offer_more(k);
        }
        k.pf_read(fd);
    }

    fn on_timer(&mut self, token: u64, k: &mut ProcCtx<'_>) {
        self.ep.timer = None;
        let fx = self.machine.on_timer(token);
        self.drive(fx, k);
    }

    fn on_read_error(&mut self, fd: Fd, _err: ReadError, k: &mut ProcCtx<'_>) {
        k.pf_read(fd);
    }
}

/// A user-level BSP receiver: listens, counts delivered bytes, optionally
/// charging a per-byte consumer cost (the telnet display, a disk write…).
pub struct BspReceiverApp {
    local: PupAddr,
    machine: ReceiverMachine,
    ep: Endpoint,
    batch: bool,
    /// Queue depth at which the kernel should notify this receiver of
    /// backpressure; reflected to the sender as a `BSP_THROTTLE`.
    backpressure_mark: Option<usize>,
    /// Cost charged per delivered payload byte (consumer processing).
    pub per_byte_cost: SimDuration,
    /// Total payload bytes delivered in order.
    pub bytes: u64,
    /// Time of the first delivered byte.
    pub first_byte_at: Option<SimTime>,
    /// When the stream closed.
    pub closed_at: Option<SimTime>,
    /// Received frames discarded because they failed to decode (bad
    /// checksum, truncated header, not a Pup).
    pub discards: u64,
}

impl BspReceiverApp {
    /// Creates a receiver listening on `local`.
    pub fn new(local: PupAddr, cfg: BspConfig) -> Self {
        let checksummed = cfg.checksummed;
        let batch = cfg.batch;
        BspReceiverApp {
            machine: ReceiverMachine::new(local),
            local,
            ep: Endpoint::new(checksummed),
            batch,
            backpressure_mark: None,
            per_byte_cost: SimDuration::ZERO,
            bytes: 0,
            first_byte_at: None,
            closed_at: None,
            discards: 0,
        }
    }

    /// Sets the per-byte consumer cost.
    pub fn with_per_byte_cost(mut self, cost: SimDuration) -> Self {
        self.per_byte_cost = cost;
        self
    }

    /// Asks the kernel to notify this receiver when its port queue reaches
    /// `mark` packets; the notification is reflected to the sender as a
    /// `BSP_THROTTLE` so its window shrinks instead of the queue
    /// overflowing.
    pub fn with_backpressure_mark(mut self, mark: usize) -> Self {
        self.backpressure_mark = Some(mark);
        self
    }

    /// Receiver-machine statistics.
    pub fn stats(&self) -> crate::bsp::ReceiverStats {
        self.machine.stats
    }

    /// Whether the stream has closed.
    pub fn is_done(&self) -> bool {
        self.closed_at.is_some()
    }

    /// Achieved throughput in bytes/second of virtual time, if complete.
    pub fn throughput_bps(&self) -> Option<f64> {
        let start = self.first_byte_at?;
        let end = self.closed_at?;
        let secs = end.since(start).as_secs_f64();
        (secs > 0.0).then(|| self.bytes as f64 / secs)
    }
}

impl App for BspReceiverApp {
    fn start(&mut self, k: &mut ProcCtx<'_>) {
        let batch = self.batch;
        let mark = self.backpressure_mark;
        self.ep.open(k, self.local, batch, mark);
    }

    fn on_backpressure(&mut self, _fd: Fd, _depth: usize, k: &mut ProcCtx<'_>) {
        let fx = self.machine.on_backpressure();
        let _ = self.ep.apply(fx, k);
    }

    fn on_packets(&mut self, fd: Fd, packets: Vec<RecvPacket>, k: &mut ProcCtx<'_>) {
        let medium = Medium::experimental_3mb();
        for p in packets {
            k.compute("user:bsp", USER_PROTO_COST);
            let pup = match Pup::decode_frame(&medium, &p.bytes) {
                Ok(pup) => pup,
                Err(_) => {
                    self.discards += 1;
                    continue;
                }
            };
            self.ep.charge_rx_cksum(k, pup.data.len());
            let fx = self.machine.on_pup_owned(pup);
            let fb = self.ep.apply(fx, k);
            if fb.delivered > 0 {
                if self.first_byte_at.is_none() {
                    self.first_byte_at = Some(k.now());
                }
                self.bytes += fb.delivered as u64;
                if self.per_byte_cost > SimDuration::ZERO {
                    let total = SimDuration::from_nanos(
                        self.per_byte_cost.as_nanos() * fb.delivered as u64,
                    );
                    k.compute("user:consume", total);
                }
            }
            if fb.closed {
                self.closed_at = Some(k.now());
            }
        }
        k.pf_read(fd);
    }

    fn on_read_error(&mut self, fd: Fd, _err: ReadError, k: &mut ProcCtx<'_>) {
        k.pf_read(fd);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pf_kernel::world::World;
    use pf_net::segment::FaultModel;
    use pf_sim::cost::CostModel;
    use pf_sim::SimClock;

    fn setup(
        payload_len: usize,
        faults: FaultModel,
        cfg: BspConfig,
    ) -> (
        World,
        pf_kernel::types::HostId,
        pf_kernel::types::ProcId,
        pf_kernel::types::HostId,
        pf_kernel::types::ProcId,
    ) {
        let mut w = World::new(7);
        let seg = w.add_segment(Medium::experimental_3mb(), faults);
        let a = w.add_host("sender", seg, 0x0A, CostModel::microvax_ii());
        let b = w.add_host("receiver", seg, 0x0B, CostModel::microvax_ii());
        let src = PupAddr::new(1, 0x0A, 0x300);
        let dst = PupAddr::new(1, 0x0B, 0x400);
        let payload: Vec<u8> = (0..payload_len).map(|i| (i % 253) as u8).collect();
        let rx = w.spawn(b, Box::new(BspReceiverApp::new(dst, cfg.clone())));
        let tx = w.spawn(a, Box::new(BspSenderApp::new(src, dst, payload, cfg)));
        (w, a, tx, b, rx)
    }

    #[test]
    fn bulk_transfer_over_simulated_kernel() {
        let (mut w, a, tx, b, rx) = setup(50_000, FaultModel::default(), BspConfig::default());
        w.run();
        let s = w.app_ref::<BspSenderApp>(a, tx).unwrap();
        let r = w.app_ref::<BspReceiverApp>(b, rx).unwrap();
        assert!(s.is_done(), "sender closed");
        assert!(r.is_done(), "receiver closed");
        assert_eq!(r.bytes, 50_000);
        assert_eq!(s.stats().retransmits, 0, "lossless run");
        // Throughput lands in the tens of KB/s on MicroVAX-II costs
        // (§6.4 measured 38 KB/s for BSP).
        let tput = r.throughput_bps().unwrap();
        assert!(
            (10_000.0..120_000.0).contains(&tput),
            "throughput {tput:.0} B/s"
        );
    }

    #[test]
    fn transfer_survives_packet_loss() {
        let faults = FaultModel {
            loss: 0.05,
            duplication: 0.0,
            ..FaultModel::default()
        };
        let (mut w, a, tx, b, rx) = setup(20_000, faults, BspConfig::default());
        w.run_until(pf_sim::time::SimTime(60_000_000_000)); // 60 s cap
        let s = w.app_ref::<BspSenderApp>(a, tx).unwrap();
        let r = w.app_ref::<BspReceiverApp>(b, rx).unwrap();
        assert!(s.is_done(), "sender recovered from loss");
        assert_eq!(r.bytes, 20_000, "exact byte stream despite loss");
        assert!(s.stats().retransmits > 0, "loss forced retransmissions");
    }

    #[test]
    fn transfer_survives_duplication() {
        let faults = FaultModel {
            loss: 0.0,
            duplication: 0.1,
            ..FaultModel::default()
        };
        let (mut w, _a, _tx, b, rx) = setup(20_000, faults, BspConfig::default());
        w.run_until(pf_sim::time::SimTime(60_000_000_000));
        let r = w.app_ref::<BspReceiverApp>(b, rx).unwrap();
        assert_eq!(r.bytes, 20_000, "duplicates filtered");
        assert!(r.stats().duplicates > 0);
    }

    #[test]
    fn transfer_survives_corruption_with_checksums() {
        let faults = FaultModel {
            corruption: 0.2,
            ..FaultModel::default()
        };
        let cfg = BspConfig {
            checksummed: true,
            ..BspConfig::default()
        };
        let (mut w, a, tx, b, rx) = setup(20_000, faults, cfg);
        w.run_until(pf_sim::time::SimTime(60_000_000_000));
        let s = w.app_ref::<BspSenderApp>(a, tx).unwrap();
        let r = w.app_ref::<BspReceiverApp>(b, rx).unwrap();
        assert!(s.is_done(), "sender recovered from corruption");
        assert_eq!(r.bytes, 20_000, "exact byte stream despite bit flips");
        assert!(
            s.discards + r.discards > 0,
            "checksums caught corrupt frames"
        );
    }

    #[test]
    fn transfer_survives_truncation_and_reorder() {
        let faults = FaultModel {
            truncation: 0.1,
            reorder: 0.2,
            ..FaultModel::default()
        };
        let cfg = BspConfig {
            checksummed: true,
            ..BspConfig::default()
        };
        let (mut w, a, tx, b, rx) = setup(20_000, faults, cfg);
        w.run_until(pf_sim::time::SimTime(60_000_000_000));
        let s = w.app_ref::<BspSenderApp>(a, tx).unwrap();
        let r = w.app_ref::<BspReceiverApp>(b, rx).unwrap();
        assert!(s.is_done(), "sender recovered from truncation + reorder");
        assert_eq!(r.bytes, 20_000);
    }

    #[test]
    fn sender_gives_up_across_a_permanent_partition() {
        let faults = FaultModel {
            loss: 1.0,
            ..FaultModel::default()
        };
        let cfg = BspConfig {
            max_retries: 4,
            ..BspConfig::default()
        };
        let (mut w, a, tx, _b, _rx) = setup(1_000, faults, cfg);
        w.run_until(pf_sim::time::SimTime(120_000_000_000));
        let s = w.app_ref::<BspSenderApp>(a, tx).unwrap();
        assert!(s.is_failed(), "retry cap turns a dead wire into a failure");
        assert!(!s.is_done());
        assert_eq!(s.stats().giveups, 1);
    }

    /// Acceptance: a backpressured sender converges instead of
    /// retry-storming. A window far wider than the receiver's port queue
    /// against a slow consumer overflows the queue and forces
    /// retransmissions; with a backpressure mark the kernel's signal is
    /// reflected as `BSP_THROTTLE`, the sender's window halves, and the
    /// overload becomes bounded latency instead of drops.
    #[test]
    fn backpressured_sender_converges_instead_of_retry_storming() {
        let run = |mark: Option<usize>| {
            let mut w = World::new(7);
            let seg = w.add_segment(Medium::experimental_3mb(), FaultModel::default());
            let a = w.add_host("sender", seg, 0x0A, CostModel::microvax_ii());
            let b = w.add_host("receiver", seg, 0x0B, CostModel::microvax_ii());
            let cfg = BspConfig {
                window: 48,
                segment: 100,
                ..BspConfig::default()
            };
            let src = PupAddr::new(1, 0x0A, 0x300);
            let dst = PupAddr::new(1, 0x0B, 0x400);
            let payload: Vec<u8> = (0..20_000).map(|i| (i % 251) as u8).collect();
            let mut r = BspReceiverApp::new(dst, cfg.clone())
                .with_per_byte_cost(SimDuration::from_micros(50));
            if let Some(m) = mark {
                r = r.with_backpressure_mark(m);
            }
            let rx = w.spawn(b, Box::new(r));
            let tx = w.spawn(a, Box::new(BspSenderApp::new(src, dst, payload, cfg)));
            w.run_until(pf_sim::time::SimTime(300_000_000_000));
            let s = w.app_ref::<BspSenderApp>(a, tx).unwrap();
            let r = w.app_ref::<BspReceiverApp>(b, rx).unwrap();
            assert!(s.is_done(), "transfer finished (mark {mark:?})");
            assert_eq!(r.bytes, 20_000, "exact byte stream (mark {mark:?})");
            let c = w.counters(b);
            (
                s.stats(),
                r.stats(),
                c.drops_queue_full + c.drops_interface,
                c.backpressure_signals,
            )
        };

        let (storm_tx, _storm_rx, storm_drops, storm_signals) = run(None);
        let (calm_tx, calm_rx, calm_drops, calm_signals) = run(Some(8));

        // Unthrottled: the 48-segment bursts overrun the receiver's kernel
        // queues (the NIC ring first, at these rates) and every loss costs
        // a go-back-N storm of retransmissions.
        assert!(storm_drops > 100, "wide window floods the receiver");
        assert!(storm_tx.retransmits > 100, "drops force a retry storm");
        assert_eq!(storm_signals, 0);
        assert_eq!(storm_tx.backpressure_events, 0);

        // Throttled: the kernel's mark crossing reaches the sender and the
        // window converges to what the receiver can absorb.
        assert!(calm_signals > 0, "kernel signaled the mark crossing");
        assert!(calm_rx.throttles_sent > 0, "receiver reflected it");
        assert!(calm_tx.backpressure_events > 0, "sender honored it");
        assert!(
            calm_drops * 4 < storm_drops,
            "backpressure cut drops: {calm_drops} vs {storm_drops}"
        );
        assert!(
            calm_tx.retransmits * 4 < storm_tx.retransmits,
            "and retransmissions: {} vs {}",
            calm_tx.retransmits,
            storm_tx.retransmits
        );
    }

    #[test]
    fn two_concurrent_streams_demultiplex_by_socket() {
        let mut w = World::new(7);
        let seg = w.add_segment(Medium::experimental_3mb(), FaultModel::default());
        let a = w.add_host("sender", seg, 0x0A, CostModel::microvax_ii());
        let b = w.add_host("receiver", seg, 0x0B, CostModel::microvax_ii());
        let cfg = BspConfig::default();
        let rx1 = w.spawn(
            b,
            Box::new(BspReceiverApp::new(
                PupAddr::new(1, 0x0B, 0x111),
                cfg.clone(),
            )),
        );
        let rx2 = w.spawn(
            b,
            Box::new(BspReceiverApp::new(
                PupAddr::new(1, 0x0B, 0x222),
                cfg.clone(),
            )),
        );
        w.spawn(
            a,
            Box::new(BspSenderApp::new(
                PupAddr::new(1, 0x0A, 0x501),
                PupAddr::new(1, 0x0B, 0x111),
                vec![1u8; 5_000],
                cfg.clone(),
            )),
        );
        w.spawn(
            a,
            Box::new(BspSenderApp::new(
                PupAddr::new(1, 0x0A, 0x502),
                PupAddr::new(1, 0x0B, 0x222),
                vec![2u8; 7_000],
                cfg,
            )),
        );
        w.run();
        let r1 = w.app_ref::<BspReceiverApp>(b, rx1).unwrap();
        let r2 = w.app_ref::<BspReceiverApp>(b, rx2).unwrap();
        assert_eq!(r1.bytes, 5_000);
        assert_eq!(r2.bytes, 7_000);
        assert!(r1.is_done() && r2.is_done());
    }
}
