//! The packet-filter (user-level) VMTP implementation (§5.2, §6.3).
//!
//! "The first implementation used the packet filter. The user-level
//! implementation allowed rapid development of the protocol specification
//! through experimentation with easily-modified code."
//!
//! [`VmtpUserClient`] and [`VmtpUserServer`] embed the pure machines from
//! [`crate::vmtp`] in ordinary user processes: every protocol packet —
//! including acks, retries, and duplicate suppression — crosses the
//! kernel/user boundary, which is precisely the §6.3 penalty being
//! measured. The client can also take its *received* packets from a pipe
//! instead of its own port, reproducing the interposed user-level
//! demultiplexer of table 6-5.

use crate::vmtp::{
    ClientMachine, ServerMachine, VEffect, VmtpPacket, SEGMENT_BYTES, VMTP_PACE_TOKEN,
    VMTP_RTO_TOKEN,
};
use pf_kernel::app::App;
use pf_kernel::types::{Fd, PipeId, PortConfig, ReadError, ReadMode, RecvPacket, TimerId};
use pf_kernel::world::ProcCtx;
use pf_net::medium::Medium;
use pf_sim::time::{SimDuration, SimTime};

/// Kernel-side input-queue bound for VMTP ports — the historical packet
/// filter defaulted to a small per-port queue, and its overflow under
/// unbatched reads is what makes table 6-4's batching effect so large.
pub const VMTP_PORT_QUEUE: usize = 3;

/// VMTP retransmission timeout — above a full response group's service
/// time (so an in-progress group never triggers a spurious retry) but
/// tight enough that queue-overflow losses are recovered quickly.
pub const VMTP_RTO: SimDuration = SimDuration::from_millis(150);

/// User-level VMTP protocol processing per packet handled (header
/// crunching, transaction table, group bookkeeping — work a kernel
/// implementation does in its input routine).
pub const USER_VMTP_COST: SimDuration = SimDuration::from_micros(700);

/// Cost of the server's file-system read for one request: a `read(2)` from
/// the buffer cache ("the same segment of a file, which therefore stayed
/// in the file system buffer cache", §6.3), excluding the per-byte copy,
/// which is charged separately.
pub const FS_READ_FIXED: SimDuration = SimDuration::from_micros(1_200);

/// Per-byte cost of copying file data out of the buffer cache.
pub const FS_READ_PER_BYTE_NS: u64 = 1_000;

/// The file-read service semantics shared by every VMTP variant in this
/// reproduction: `opcode` is the number of bytes to read; the response is
/// that many bytes of the cached segment.
pub fn file_read_response(opcode: u32) -> Vec<u8> {
    let n = (opcode as usize).min(SEGMENT_BYTES);
    (0..n).map(|i| (i % 239) as u8).collect()
}

/// The cost of serving one file-read request of `n` bytes.
pub fn fs_read_cost(n: usize) -> SimDuration {
    FS_READ_FIXED + SimDuration::from_nanos(FS_READ_PER_BYTE_NS * n as u64)
}

/// How the client receives its packets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClientInput {
    /// Directly from its own packet-filter port (kernel demultiplexing).
    PacketFilter,
    /// From a pipe fed by a separate demultiplexing process (table 6-5).
    Pipe,
}

/// A sequential-transaction workload definition.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Number of transactions to run.
    pub ops: u64,
    /// Bytes requested per transaction (0 = the minimal operation of
    /// table 6-2; [`SEGMENT_BYTES`] = the bulk reads of table 6-3).
    pub response_bytes: u32,
}

/// The user-level VMTP client process.
pub struct VmtpUserClient {
    entity: u32,
    machine: ClientMachine,
    workload: Workload,
    input: ClientInput,
    batch: bool,
    checksummed: bool,
    /// Queue depth at which the kernel should notify this client of
    /// backpressure; the machine answers by raising its pacing delay.
    backpressure_mark: Option<usize>,
    /// Cost charged per received response payload byte (consumer
    /// processing), as [`crate::bsp_app::BspReceiverApp::with_per_byte_cost`].
    per_byte_cost: SimDuration,
    fd: Option<Fd>,
    timer: Option<TimerId>,
    /// Effect vectors to lend the machine, one a call in progress.
    spare_fx: Vec<Vec<VEffect>>,
    /// Completed transactions.
    pub completed: u64,
    /// Response payload bytes received across all transactions.
    pub bytes: u64,
    /// Received frames discarded (bad checksum, truncated, not VMTP).
    pub discards: u64,
    /// Time the first transaction was issued.
    pub started_at: Option<SimTime>,
    /// Time the last transaction completed.
    pub finished_at: Option<SimTime>,
    /// Time the machine gave up on a transaction, if it did (the workload
    /// stops there).
    pub failed_at: Option<SimTime>,
}

impl VmtpUserClient {
    /// Creates a client that runs `workload` against `server_entity` at
    /// data-link address `server_eth`.
    pub fn new(entity: u32, server_entity: u32, server_eth: u64, workload: Workload) -> Self {
        VmtpUserClient {
            entity,
            machine: ClientMachine::new(entity, server_entity, server_eth, VMTP_RTO),
            workload,
            input: ClientInput::PacketFilter,
            batch: true,
            checksummed: false,
            backpressure_mark: None,
            per_byte_cost: SimDuration::ZERO,
            fd: None,
            timer: None,
            spare_fx: Vec::new(),
            completed: 0,
            bytes: 0,
            discards: 0,
            started_at: None,
            finished_at: None,
            failed_at: None,
        }
    }

    /// Sends checksummed VMTP packets and relies on the wire checksum to
    /// reject corrupt responses (the chaos experiments; the paper's
    /// implementations did not checksum).
    pub fn with_checksums(mut self) -> Self {
        self.checksummed = true;
        self
    }

    /// Overrides the machine's retry policy (backoff cap, give-up
    /// threshold).
    pub fn with_retry_policy(mut self, cap: pf_sim::time::SimDuration, max_retries: u32) -> Self {
        self.machine.set_retry_policy(cap, max_retries);
        self
    }

    /// Transactions the machine abandoned.
    pub fn machine_giveups(&self) -> u64 {
        self.machine.giveups
    }

    /// Receive via a demultiplexing process and pipe instead (table 6-5).
    pub fn via_pipe(mut self) -> Self {
        self.input = ClientInput::Pipe;
        self
    }

    /// Asks the kernel to notify this client when its port queue reaches
    /// `mark` packets; the machine responds by pacing its transactions.
    pub fn with_backpressure_mark(mut self, mark: usize) -> Self {
        self.backpressure_mark = Some(mark);
        self
    }

    /// Backpressure notifications the machine has honored.
    pub fn machine_backpressure_events(&self) -> u64 {
        self.machine.backpressure_events
    }

    /// Sets the per-byte consumer cost charged for received response
    /// payload (writing the segment out, checksumming it, displaying
    /// it…).
    pub fn with_per_byte_cost(mut self, cost: SimDuration) -> Self {
        self.per_byte_cost = cost;
        self
    }

    /// Disables received-packet batching (table 6-4's ablation).
    pub fn without_batching(mut self) -> Self {
        self.batch = false;
        self
    }

    /// Whether the whole workload completed.
    pub fn is_done(&self) -> bool {
        self.finished_at.is_some()
    }

    /// Mean elapsed time per operation, if complete.
    pub fn per_op(&self) -> Option<SimDuration> {
        let start = self.started_at?;
        let end = self.finished_at?;
        Some(SimDuration::from_nanos(
            end.since(start).as_nanos() / self.workload.ops.max(1),
        ))
    }

    /// Bulk data rate in bytes/second, if complete.
    pub fn throughput_bps(&self) -> Option<f64> {
        let start = self.started_at?;
        let end = self.finished_at?;
        let secs = end.since(start).as_secs_f64();
        (secs > 0.0).then(|| self.bytes as f64 / secs)
    }

    /// Retries performed by the protocol machine.
    pub fn machine_retries(&self) -> u64 {
        self.machine.retries
    }

    /// The filter this client's port (or its demultiplexer) should use.
    pub fn filter(&self) -> pf_filter::program::FilterProgram {
        VmtpPacket::entity_filter(10, self.entity)
    }

    /// Runs one machine call on a lent effect vector and applies what it
    /// pushed.
    fn drive(
        &mut self,
        k: &mut ProcCtx<'_>,
        call: impl FnOnce(&mut ClientMachine, &mut Vec<VEffect>),
    ) {
        let mut fx = self.spare_fx.pop().unwrap_or_default();
        call(&mut self.machine, &mut fx);
        self.apply(&mut fx, k);
        self.spare_fx.push(fx);
    }

    fn next_transaction(&mut self, k: &mut ProcCtx<'_>) {
        let bytes = self.workload.response_bytes;
        self.drive(k, |m, fx| m.invoke(bytes, Vec::new(), fx));
    }

    fn apply(&mut self, fx: &mut Vec<VEffect>, k: &mut ProcCtx<'_>) {
        let medium = Medium::standard_10mb();
        let (_, my_eth) = k.link_info();
        for e in fx.drain(..) {
            match e {
                VEffect::Send(pkt, eth_dst) => {
                    k.compute("user:vmtp", USER_VMTP_COST);
                    let f = pkt.encode_frame_opts(&medium, eth_dst, my_eth, self.checksummed);
                    let _ = k.pf_write_owned(self.fd.expect("port open"), f);
                }
                VEffect::SetTimer(d, token) => {
                    if let Some(t) = self.timer.take() {
                        k.cancel_timer(t);
                    }
                    self.timer = Some(k.set_timer(d, token));
                }
                VEffect::CancelTimer(_) => {
                    if let Some(t) = self.timer.take() {
                        k.cancel_timer(t);
                    }
                }
                VEffect::Failed { .. } => {
                    // Retry exhaustion: stop the workload and record when.
                    self.failed_at = Some(k.now());
                }
                VEffect::Complete { data, .. } => {
                    self.completed += 1;
                    self.bytes += data.len() as u64;
                    if self.completed >= self.workload.ops {
                        self.finished_at = Some(k.now());
                    } else {
                        let pace = self.machine.pacing_delay();
                        if pace > SimDuration::ZERO {
                            // Backpressured: delay the next transaction
                            // instead of re-filling the saturated queue.
                            k.set_timer(pace, VMTP_PACE_TOKEN);
                        } else {
                            self.next_transaction(k);
                        }
                    }
                }
                VEffect::DeliverRequest { .. } => unreachable!("client machine"),
            }
        }
    }

    fn on_frame(&mut self, bytes: &[u8], k: &mut ProcCtx<'_>) {
        k.compute("user:vmtp", USER_VMTP_COST);
        let medium = Medium::standard_10mb();
        match VmtpPacket::decode_frame(&medium, bytes) {
            Some((pkt, _src)) => {
                if self.per_byte_cost > SimDuration::ZERO && !pkt.data.is_empty() {
                    let total = SimDuration::from_nanos(
                        self.per_byte_cost.as_nanos() * pkt.data.len() as u64,
                    );
                    k.compute("user:consume", total);
                }
                self.drive(k, |m, fx| m.on_packet(&pkt, fx));
            }
            None => self.discards += 1,
        }
    }
}

impl App for VmtpUserClient {
    fn start(&mut self, k: &mut ProcCtx<'_>) {
        let fd = k.pf_open();
        match self.input {
            ClientInput::PacketFilter => {
                k.pf_set_filter(fd, VmtpPacket::entity_filter(10, self.entity));
                k.pf_configure(
                    fd,
                    PortConfig {
                        read_mode: if self.batch {
                            ReadMode::Batch
                        } else {
                            ReadMode::Single
                        },
                        max_queue: VMTP_PORT_QUEUE,
                        backpressure_mark: self.backpressure_mark,
                        ..Default::default()
                    },
                );
                k.pf_read(fd);
            }
            ClientInput::Pipe => {
                // Transmit-only port; reception arrives via the pipe.
            }
        }
        self.fd = Some(fd);
        self.started_at = Some(k.now());
        self.next_transaction(k);
    }

    fn on_packets(&mut self, fd: Fd, packets: Vec<RecvPacket>, k: &mut ProcCtx<'_>) {
        for p in packets {
            self.on_frame(&p.bytes, k);
        }
        k.pf_read(fd);
    }

    fn on_pipe_data(&mut self, _pipe: PipeId, data: Vec<u8>, k: &mut ProcCtx<'_>) {
        self.on_frame(&data, k);
    }

    fn on_timer(&mut self, token: u64, k: &mut ProcCtx<'_>) {
        if token == VMTP_PACE_TOKEN {
            // The backpressure pacing delay elapsed: issue the next
            // transaction (unless the workload ended meanwhile).
            if self.finished_at.is_none() && self.failed_at.is_none() && !self.machine.busy() {
                self.next_transaction(k);
            }
            return;
        }
        self.timer = None;
        if token == VMTP_RTO_TOKEN {
            self.drive(k, |m, fx| m.on_timer(token, fx));
        }
    }

    fn on_backpressure(&mut self, _fd: Fd, _depth: usize, _k: &mut ProcCtx<'_>) {
        self.machine.on_backpressure();
    }

    fn on_read_error(&mut self, fd: Fd, _err: ReadError, k: &mut ProcCtx<'_>) {
        k.pf_read(fd);
    }
}

/// The user-level VMTP file-read server process.
pub struct VmtpUserServer {
    entity: u32,
    machine: ServerMachine,
    batch: bool,
    checksummed: bool,
    fd: Option<Fd>,
    /// Effect vectors to lend the machine, one a call in progress.
    spare_fx: Vec<Vec<VEffect>>,
    /// Requests served (handler invocations; duplicates excluded).
    pub served: u64,
    /// Received frames discarded (bad checksum, truncated, not VMTP).
    pub discards: u64,
}

impl VmtpUserServer {
    /// Creates a server for `entity`.
    pub fn new(entity: u32) -> Self {
        VmtpUserServer {
            entity,
            machine: ServerMachine::new(entity),
            batch: true,
            checksummed: false,
            fd: None,
            spare_fx: Vec::new(),
            served: 0,
            discards: 0,
        }
    }

    /// Disables received-packet batching.
    pub fn without_batching(mut self) -> Self {
        self.batch = false;
        self
    }

    /// Sends checksummed VMTP packets (see
    /// [`VmtpUserClient::with_checksums`]).
    pub fn with_checksums(mut self) -> Self {
        self.checksummed = true;
        self
    }

    /// Runs one machine call on a lent effect vector and applies what it
    /// pushed.
    fn drive(
        &mut self,
        k: &mut ProcCtx<'_>,
        call: impl FnOnce(&mut ServerMachine, &mut Vec<VEffect>),
    ) {
        let mut fx = self.spare_fx.pop().unwrap_or_default();
        call(&mut self.machine, &mut fx);
        self.apply(&mut fx, k);
        self.spare_fx.push(fx);
    }

    fn apply(&mut self, fx: &mut Vec<VEffect>, k: &mut ProcCtx<'_>) {
        let medium = Medium::standard_10mb();
        let (_, my_eth) = k.link_info();
        for e in fx.drain(..) {
            match e {
                VEffect::Send(pkt, eth_dst) => {
                    k.compute("user:vmtp", USER_VMTP_COST);
                    let f = pkt.encode_frame_opts(&medium, eth_dst, my_eth, self.checksummed);
                    let _ = k.pf_write_owned(self.fd.expect("port open"), f);
                }
                VEffect::DeliverRequest {
                    client,
                    client_eth,
                    trans,
                    opcode,
                    ..
                } => {
                    self.served += 1;
                    let response = file_read_response(opcode);
                    k.compute("user:fsread", fs_read_cost(response.len()));
                    self.drive(k, |m, fx| {
                        m.respond(client, client_eth, trans, response, fx)
                    });
                }
                VEffect::SetTimer(..) | VEffect::CancelTimer(_) => {}
                VEffect::Complete { .. } | VEffect::Failed { .. } => {
                    unreachable!("server machine")
                }
            }
        }
    }
}

impl App for VmtpUserServer {
    fn start(&mut self, k: &mut ProcCtx<'_>) {
        let fd = k.pf_open();
        k.pf_set_filter(fd, VmtpPacket::entity_filter(10, self.entity));
        k.pf_configure(
            fd,
            PortConfig {
                read_mode: if self.batch {
                    ReadMode::Batch
                } else {
                    ReadMode::Single
                },
                max_queue: VMTP_PORT_QUEUE,
                ..Default::default()
            },
        );
        self.fd = Some(fd);
        k.pf_read(fd);
    }

    fn on_packets(&mut self, fd: Fd, packets: Vec<RecvPacket>, k: &mut ProcCtx<'_>) {
        let medium = Medium::standard_10mb();
        for p in packets {
            k.compute("user:vmtp", USER_VMTP_COST);
            match VmtpPacket::decode_frame(&medium, &p.bytes) {
                Some((pkt, eth_src)) => self.drive(k, |m, fx| m.on_packet(&pkt, eth_src, fx)),
                None => self.discards += 1,
            }
        }
        k.pf_read(fd);
    }

    fn on_read_error(&mut self, fd: Fd, _err: ReadError, k: &mut ProcCtx<'_>) {
        k.pf_read(fd);
    }
}

/// The interposed user-level demultiplexing process of table 6-5: receives
/// packets matching a filter from its own packet-filter port and relays
/// them, one pipe write per packet, to a destination process.
pub struct DemuxProcess {
    filter: pf_filter::program::FilterProgram,
    target: pf_kernel::types::ProcId,
    batch: bool,
    max_queue: usize,
    fd: Option<Fd>,
    pipe: Option<PipeId>,
    /// Packets relayed.
    pub relayed: u64,
}

impl DemuxProcess {
    /// Creates a demultiplexer that relays packets matching `filter` to
    /// `target`.
    pub fn new(
        filter: pf_filter::program::FilterProgram,
        target: pf_kernel::types::ProcId,
    ) -> Self {
        DemuxProcess {
            filter,
            target,
            batch: true,
            max_queue: 64,
            fd: None,
            pipe: None,
            relayed: 0,
        }
    }

    /// Disables received-packet batching.
    pub fn without_batching(mut self) -> Self {
        self.batch = false;
        self
    }

    /// Sets the kernel-side input-queue bound for the demultiplexer's port.
    pub fn with_queue(mut self, frames: usize) -> Self {
        self.max_queue = frames;
        self
    }
}

impl App for DemuxProcess {
    fn start(&mut self, k: &mut ProcCtx<'_>) {
        let fd = k.pf_open();
        k.pf_set_filter(fd, self.filter.clone());
        k.pf_configure(
            fd,
            PortConfig {
                read_mode: if self.batch {
                    ReadMode::Batch
                } else {
                    ReadMode::Single
                },
                max_queue: self.max_queue,
                ..Default::default()
            },
        );
        self.fd = Some(fd);
        self.pipe = Some(k.pipe_to(self.target));
        k.pf_read(fd);
    }

    fn on_packets(&mut self, fd: Fd, packets: Vec<RecvPacket>, k: &mut ProcCtx<'_>) {
        for p in packets {
            self.relayed += 1;
            k.pipe_write(self.pipe.expect("pipe created"), p.bytes);
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
    use pf_kernel::types::{HostId, ProcId};
    use pf_kernel::world::World;
    use pf_net::segment::FaultModel;
    use pf_sim::cost::CostModel;
    use pf_sim::SimClock;

    const SERVER_ENTITY: u32 = 0x20;
    const CLIENT_ENTITY: u32 = 0x10;
    const SERVER_ETH: u64 = 0x0B;

    fn world() -> (World, HostId, HostId) {
        let mut w = World::new(11);
        let seg = w.add_segment(Medium::standard_10mb(), FaultModel::default());
        let c = w.add_host("client", seg, 0x0A, CostModel::microvax_ii());
        let s = w.add_host("server", seg, SERVER_ETH, CostModel::microvax_ii());
        (w, c, s)
    }

    fn run_client(
        mut w: World,
        c: HostId,
        client: VmtpUserClient,
        cap_secs: u64,
    ) -> (World, HostId, ProcId) {
        let p = w.spawn(c, Box::new(client));
        w.run_until(SimTime(cap_secs * 1_000_000_000));
        (w, c, p)
    }

    #[test]
    fn minimal_transactions_complete() {
        let (mut w, c, s) = world();
        w.spawn(s, Box::new(VmtpUserServer::new(SERVER_ENTITY)));
        let client = VmtpUserClient::new(
            CLIENT_ENTITY,
            SERVER_ENTITY,
            SERVER_ETH,
            Workload {
                ops: 20,
                response_bytes: 0,
            },
        );
        let (w, c, p) = run_client(w, c, client, 30);
        let app = w.app_ref::<VmtpUserClient>(c, p).unwrap();
        assert!(app.is_done(), "completed {}", app.completed);
        let per_op = app.per_op().unwrap();
        // §6.3 measured 14.7 ms per minimal operation for the
        // packet-filter implementation; the band here is generous and the
        // bench pins it tighter.
        assert!(
            (5.0..40.0).contains(&per_op.as_millis_f64()),
            "per-op {per_op}"
        );
    }

    #[test]
    fn bulk_segment_reads_complete() {
        let (mut w, c, s) = world();
        w.spawn(s, Box::new(VmtpUserServer::new(SERVER_ENTITY)));
        let client = VmtpUserClient::new(
            CLIENT_ENTITY,
            SERVER_ENTITY,
            SERVER_ETH,
            Workload {
                ops: 8,
                response_bytes: SEGMENT_BYTES as u32,
            },
        );
        let (w, c, p) = run_client(w, c, client, 120);
        let app = w.app_ref::<VmtpUserClient>(c, p).unwrap();
        assert!(app.is_done());
        assert_eq!(app.bytes, 8 * SEGMENT_BYTES as u64);
        let tput = app.throughput_bps().unwrap() / 1024.0;
        assert!((30.0..400.0).contains(&tput), "throughput {tput:.0} KB/s");
    }

    #[test]
    fn transactions_survive_loss() {
        let mut w = World::new(13);
        let seg = w.add_segment(
            Medium::standard_10mb(),
            FaultModel {
                loss: 0.05,
                duplication: 0.0,
                ..FaultModel::default()
            },
        );
        let c = w.add_host("client", seg, 0x0A, CostModel::microvax_ii());
        let s = w.add_host("server", seg, SERVER_ETH, CostModel::microvax_ii());
        w.spawn(s, Box::new(VmtpUserServer::new(SERVER_ENTITY)));
        let client = VmtpUserClient::new(
            CLIENT_ENTITY,
            SERVER_ENTITY,
            SERVER_ETH,
            Workload {
                ops: 5,
                response_bytes: 4096,
            },
        );
        let p = w.spawn(c, Box::new(client));
        w.run_until(SimTime(120 * 1_000_000_000));
        let app = w.app_ref::<VmtpUserClient>(c, p).unwrap();
        assert!(
            app.is_done(),
            "finished despite loss ({} done)",
            app.completed
        );
        assert_eq!(app.bytes, 5 * 4096);
        assert!(app.machine.retries > 0, "loss forced retries");
    }

    /// Acceptance: a backpressured VMTP client converges instead of
    /// retry-storming. Unbatched bulk reads overflow the 3-packet port
    /// queue every response group; with a backpressure mark the kernel's
    /// signal raises the machine's pacing delay, spacing transactions so
    /// leftover response segments drain before the next burst lands.
    #[test]
    fn backpressured_client_paces_and_converges() {
        let run = |mark: Option<usize>| {
            let (mut w, c, s) = world();
            w.spawn(s, Box::new(VmtpUserServer::new(SERVER_ENTITY)));
            // A slow consumer (2 µs/byte) cannot drain a response group at
            // arrival rate with unbatched reads: the 3-packet queue
            // overflows and lost segments force whole-group retries.
            let mut client = VmtpUserClient::new(
                CLIENT_ENTITY,
                SERVER_ENTITY,
                SERVER_ETH,
                Workload {
                    ops: 12,
                    response_bytes: SEGMENT_BYTES as u32,
                },
            )
            .without_batching()
            .with_per_byte_cost(SimDuration::from_micros(2));
            if let Some(m) = mark {
                client = client.with_backpressure_mark(m);
            }
            let p = w.spawn(c, Box::new(client));
            w.run_until(SimTime(600 * 1_000_000_000));
            let app = w.app_ref::<VmtpUserClient>(c, p).unwrap();
            assert!(app.is_done(), "completed {} (mark {mark:?})", app.completed);
            assert_eq!(app.bytes, 12 * SEGMENT_BYTES as u64);
            (
                app.machine_retries(),
                app.machine_backpressure_events(),
                app.machine.pacing_delay(),
                app.per_op().unwrap(),
                w.counters(c).backpressure_signals,
            )
        };

        let (storm_retries, _, _, storm_per_op, storm_signals) = run(None);
        let (paced_retries, paced_events, paced_pace, paced_per_op, paced_signals) = run(Some(2));

        // Unpaced: every response group overruns the 3-packet queue and
        // lost segments must be retried.
        assert!(storm_retries > 0, "overflow forces retries");
        assert_eq!(storm_signals, 0);

        // Paced: the client honors the kernel's signal, the pace settles
        // (one raise per transaction, halved per completion) instead of
        // ratcheting to the cap, and convergence costs neither retries
        // nor unbounded latency.
        assert!(paced_signals > 0, "kernel signaled the mark crossing");
        assert!(paced_events > 0, "client honored the signal");
        assert!(
            paced_retries <= storm_retries,
            "pacing did not add retries: {paced_retries} vs {storm_retries}"
        );
        assert!(
            paced_pace <= VMTP_RTO,
            "pace converged near rto/2, not the cap: {paced_pace}"
        );
        assert!(
            paced_per_op.as_nanos() < storm_per_op.as_nanos() * 3 / 2,
            "bounded latency: {paced_per_op} vs {storm_per_op}"
        );
    }

    #[test]
    fn demux_process_path_works_and_costs_more() {
        // Direct delivery.
        let (mut w1, c1, s1) = world();
        w1.spawn(s1, Box::new(VmtpUserServer::new(SERVER_ENTITY)));
        let direct = VmtpUserClient::new(
            CLIENT_ENTITY,
            SERVER_ENTITY,
            SERVER_ETH,
            Workload {
                ops: 10,
                response_bytes: 0,
            },
        );
        let (w1, c1, p1) = run_client(w1, c1, direct, 60);
        let direct_per_op = w1
            .app_ref::<VmtpUserClient>(c1, p1)
            .unwrap()
            .per_op()
            .unwrap();

        // Via an interposed demultiplexing process.
        let (mut w2, c2, s2) = world();
        w2.spawn(s2, Box::new(VmtpUserServer::new(SERVER_ENTITY)));
        let client = VmtpUserClient::new(
            CLIENT_ENTITY,
            SERVER_ENTITY,
            SERVER_ETH,
            Workload {
                ops: 10,
                response_bytes: 0,
            },
        )
        .via_pipe();
        let filter = client.filter();
        let p2 = w2.spawn(c2, Box::new(client));
        let d = w2.spawn(c2, Box::new(DemuxProcess::new(filter, p2)));
        w2.run_until(SimTime(60 * 1_000_000_000));
        let app = w2.app_ref::<VmtpUserClient>(c2, p2).unwrap();
        assert!(app.is_done());
        let demux_per_op = app.per_op().unwrap();
        assert!(w2.app_ref::<DemuxProcess>(c2, d).unwrap().relayed >= 10);

        // Table 6-5: user-level demultiplexing adds ~20% latency for
        // minimal operations.
        assert!(
            demux_per_op > direct_per_op,
            "demux {demux_per_op} vs direct {direct_per_op}"
        );
        let ratio = demux_per_op.as_nanos() as f64 / direct_per_op.as_nanos() as f64;
        assert!(
            ratio < 2.0,
            "small-message penalty is modest, got {ratio:.2}"
        );
    }
}
