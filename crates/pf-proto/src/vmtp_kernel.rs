//! The kernel-resident VMTP implementation (§6.3's comparison point).
//!
//! The same [`crate::vmtp`] machines as the user-level variant, embedded
//! in a [`KernelProtocol`]: protocol packets — responses, acks, retries,
//! duplicate suppression — are confined to the kernel (figure 2-3), and a
//! user process crosses the domain boundary only twice per *transaction*
//! (request in, completion out) instead of twice per *packet*.

use crate::vmtp::{ClientMachine, ServerMachine, VEffect, VmtpPacket, VMTP_ETHERTYPE};
use crate::vmtp_user::{file_read_response, fs_read_cost, Workload};
use pf_kernel::app::App;
use pf_kernel::kproto::KernelProtocol;
use pf_kernel::types::{ProcId, SockId};
use pf_kernel::world::{KernelCtx, ProcCtx};
use pf_net::medium::Medium;
use pf_sim::queue::EventHandle;
use pf_sim::time::{SimDuration, SimTime};
use std::collections::HashMap;

/// Kernel VMTP input processing per packet (no data checksum — §6.3).
pub const VMTP_KIN: SimDuration = SimDuration::from_micros(950);

/// Kernel VMTP output processing per packet.
pub const VMTP_KOUT: SimDuration = SimDuration::from_micros(850);

/// User request ops.
pub mod ops {
    /// Register as the server for entity `meta[0]`.
    pub const LISTEN: u32 = 1;
    /// Start a transaction: `meta = [server_entity, server_eth,
    /// response_bytes, client_entity]`, `data` = request payload.
    pub const INVOKE: u32 = 2;
    /// Answer a delivered request: `meta = [client, trans, client_eth, 0]`,
    /// `data` = response payload.
    pub const RESPOND: u32 = 3;
    /// Completion to a server: a request arrived;
    /// `meta = [client, trans, opcode, client_eth]`.
    pub const REQUEST: u32 = 10;
    /// Completion to a client: the transaction finished; `meta[0]` = trans.
    pub const DONE: u32 = 11;
    /// Completion to a client: the transaction was abandoned after retry
    /// exhaustion; `meta[0]` = trans.
    pub const FAILED: u32 = 12;
}

struct ClientSlot {
    machine: ClientMachine,
    timer: Option<EventHandle>,
}

/// Kernel-resident VMTP.
#[derive(Default)]
pub struct KernelVmtp {
    clients: HashMap<SockId, ClientSlot>,
    /// Server entity → (machine, owning socket).
    servers: HashMap<u32, (ServerMachine, SockId)>,
    /// The effect vector lent to every machine call; `apply_*` drain it
    /// (no effect's handling calls a machine again).
    fx: Vec<VEffect>,
    /// Packets processed by the kernel input routine.
    pub packets_in: u64,
    /// Frames discarded by the input routine (undecodable or corrupt).
    pub discards: u64,
    /// Client transactions abandoned after retry exhaustion.
    pub giveups: u64,
}

impl KernelVmtp {
    /// Creates the protocol module.
    pub fn new() -> Self {
        Self::default()
    }

    fn apply_client(&mut self, sock: SockId, k: &mut KernelCtx<'_>) {
        let medium = Medium::standard_10mb();
        let (_, my_eth) = k.link_info();
        let mut fx = std::mem::take(&mut self.fx);
        for e in fx.drain(..) {
            match e {
                VEffect::Send(pkt, eth_dst) => {
                    k.charge("vmtp:output", VMTP_KOUT);
                    k.transmit(pkt.encode_frame(&medium, eth_dst, my_eth));
                }
                VEffect::SetTimer(d, _) => {
                    let slot = self.clients.get_mut(&sock).expect("client slot");
                    if let Some(h) = slot.timer.take() {
                        k.cancel_timer(h);
                    }
                    slot.timer = Some(k.set_timer(d, sock.0 as u64));
                }
                VEffect::CancelTimer(_) => {
                    let slot = self.clients.get_mut(&sock).expect("client slot");
                    if let Some(h) = slot.timer.take() {
                        k.cancel_timer(h);
                    }
                }
                VEffect::Complete { trans, data } => {
                    k.complete(sock, ops::DONE, data, [u64::from(trans), 0, 0, 0]);
                }
                VEffect::Failed { trans } => {
                    self.giveups += 1;
                    k.complete(sock, ops::FAILED, Vec::new(), [u64::from(trans), 0, 0, 0]);
                }
                VEffect::DeliverRequest { .. } => unreachable!("client machine"),
            }
        }
        self.fx = fx;
    }

    fn apply_server(&mut self, entity: u32, k: &mut KernelCtx<'_>) {
        let medium = Medium::standard_10mb();
        let (_, my_eth) = k.link_info();
        let mut fx = std::mem::take(&mut self.fx);
        for e in fx.drain(..) {
            match e {
                VEffect::Send(pkt, eth_dst) => {
                    k.charge("vmtp:output", VMTP_KOUT);
                    k.transmit(pkt.encode_frame(&medium, eth_dst, my_eth));
                }
                VEffect::DeliverRequest {
                    client,
                    client_eth,
                    trans,
                    opcode,
                    data,
                } => {
                    let (_, sock) = self.servers[&entity];
                    k.complete(
                        sock,
                        ops::REQUEST,
                        data,
                        [
                            u64::from(client),
                            u64::from(trans),
                            u64::from(opcode),
                            client_eth,
                        ],
                    );
                }
                VEffect::SetTimer(..) | VEffect::CancelTimer(_) => {}
                VEffect::Complete { .. } | VEffect::Failed { .. } => {
                    unreachable!("server machine")
                }
            }
        }
        self.fx = fx;
    }
}

impl KernelProtocol for KernelVmtp {
    fn name(&self) -> &'static str {
        "vmtp"
    }

    fn claims(&self, ethertype: u16) -> bool {
        ethertype == VMTP_ETHERTYPE
    }

    fn input(&mut self, frame: Vec<u8>, k: &mut KernelCtx<'_>) {
        let medium = Medium::standard_10mb();
        let Some((pkt, eth_src)) = VmtpPacket::decode_frame(&medium, &frame) else {
            self.discards += 1;
            return;
        };
        self.packets_in += 1;
        k.charge("vmtp:input", VMTP_KIN);
        let dst = pkt.dst_entity;
        if let Some((machine, _)) = self.servers.get_mut(&dst) {
            machine.on_packet(&pkt, eth_src, &mut self.fx);
            self.apply_server(dst, k);
            return;
        }
        // Route to the client socket whose machine owns this entity.
        let target = self
            .clients
            .iter()
            .find(|(_, slot)| slot.machine.entity() == dst)
            .map(|(s, _)| *s);
        if let Some(sock) = target {
            let slot = self.clients.get_mut(&sock).expect("slot");
            slot.machine.on_packet(&pkt, &mut self.fx);
            self.apply_client(sock, k);
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
            ops::LISTEN => {
                let entity = meta[0] as u32;
                self.servers
                    .insert(entity, (ServerMachine::new(entity), sock));
            }
            ops::INVOKE => {
                let server_entity = meta[0] as u32;
                let server_eth = meta[1];
                let response_bytes = meta[2] as u32;
                let client_entity = meta[3] as u32;
                let slot = self.clients.entry(sock).or_insert_with(|| ClientSlot {
                    machine: ClientMachine::new(
                        client_entity,
                        server_entity,
                        server_eth,
                        SimDuration::from_millis(200),
                    ),
                    timer: None,
                });
                slot.machine.invoke(response_bytes, data, &mut self.fx);
                self.apply_client(sock, k);
            }
            ops::RESPOND => {
                let client = meta[0] as u32;
                let trans = meta[1] as u32;
                let client_eth = meta[2];
                // Find the server machine owned by this socket.
                let entity = self
                    .servers
                    .iter()
                    .find(|(_, (_, s))| *s == sock)
                    .map(|(e, _)| *e);
                if let Some(entity) = entity {
                    let (machine, _) = self.servers.get_mut(&entity).expect("found");
                    machine.respond(client, client_eth, trans, data, &mut self.fx);
                    self.apply_server(entity, k);
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, token: u64, k: &mut KernelCtx<'_>) {
        let sock = SockId(token as usize);
        let Some(slot) = self.clients.get_mut(&sock) else {
            return;
        };
        slot.timer = None;
        slot.machine
            .on_timer(crate::vmtp::VMTP_RTO_TOKEN, &mut self.fx);
        self.apply_client(sock, k);
    }

    fn sock_closed(&mut self, sock: SockId, k: &mut KernelCtx<'_>) {
        if let Some(slot) = self.clients.remove(&sock) {
            if let Some(h) = slot.timer {
                k.cancel_timer(h);
            }
        }
        self.servers.retain(|_, (_, s)| *s != sock);
    }
}

/// A client process using the kernel-resident VMTP: one system call per
/// transaction, one completion per transaction.
pub struct KVmtpClient {
    entity: u32,
    server_entity: u32,
    server_eth: u64,
    workload: Workload,
    sock: Option<SockId>,
    /// Completed transactions.
    pub completed: u64,
    /// Response bytes received.
    pub bytes: u64,
    /// First invoke time.
    pub started_at: Option<SimTime>,
    /// Last completion time.
    pub finished_at: Option<SimTime>,
}

impl KVmtpClient {
    /// Creates a client for `workload` against `server_entity`@`server_eth`.
    pub fn new(entity: u32, server_entity: u32, server_eth: u64, workload: Workload) -> Self {
        KVmtpClient {
            entity,
            server_entity,
            server_eth,
            workload,
            sock: None,
            completed: 0,
            bytes: 0,
            started_at: None,
            finished_at: None,
        }
    }

    /// Whether the workload completed.
    pub fn is_done(&self) -> bool {
        self.finished_at.is_some()
    }

    /// Mean elapsed time per operation, if complete.
    pub fn per_op(&self) -> Option<SimDuration> {
        Some(SimDuration::from_nanos(
            self.finished_at?.since(self.started_at?).as_nanos() / self.workload.ops.max(1),
        ))
    }

    /// Bulk rate in bytes/second, if complete.
    pub fn throughput_bps(&self) -> Option<f64> {
        let secs = self.finished_at?.since(self.started_at?).as_secs_f64();
        (secs > 0.0).then(|| self.bytes as f64 / secs)
    }

    fn invoke(&mut self, k: &mut ProcCtx<'_>) {
        k.ksock_request(
            self.sock.expect("sock open"),
            ops::INVOKE,
            Vec::new(),
            [
                u64::from(self.server_entity),
                self.server_eth,
                u64::from(self.workload.response_bytes),
                u64::from(self.entity),
            ],
        );
    }
}

impl App for KVmtpClient {
    fn start(&mut self, k: &mut ProcCtx<'_>) {
        self.sock = Some(k.ksock_open("vmtp").expect("vmtp registered"));
        self.started_at = Some(k.now());
        self.invoke(k);
    }

    fn on_socket(
        &mut self,
        _sock: SockId,
        op: u32,
        data: Vec<u8>,
        _meta: [u64; 4],
        k: &mut ProcCtx<'_>,
    ) {
        if op != ops::DONE {
            return;
        }
        self.completed += 1;
        self.bytes += data.len() as u64;
        if self.completed >= self.workload.ops {
            self.finished_at = Some(k.now());
        } else {
            self.invoke(k);
        }
    }
}

/// A file-read server process over the kernel-resident VMTP.
pub struct KVmtpServer {
    entity: u32,
    sock: Option<SockId>,
    /// Requests served.
    pub served: u64,
}

impl KVmtpServer {
    /// Creates a server for `entity`.
    pub fn new(entity: u32) -> Self {
        KVmtpServer {
            entity,
            sock: None,
            served: 0,
        }
    }
}

impl App for KVmtpServer {
    fn start(&mut self, k: &mut ProcCtx<'_>) {
        let sock = k.ksock_open("vmtp").expect("vmtp registered");
        k.ksock_request(
            sock,
            ops::LISTEN,
            Vec::new(),
            [u64::from(self.entity), 0, 0, 0],
        );
        self.sock = Some(sock);
    }

    fn on_socket(
        &mut self,
        sock: SockId,
        op: u32,
        _data: Vec<u8>,
        meta: [u64; 4],
        k: &mut ProcCtx<'_>,
    ) {
        if op != ops::REQUEST {
            return;
        }
        self.served += 1;
        let response = file_read_response(meta[2] as u32);
        // The kernel-resident implementation hands buffer-cache pages to
        // the protocol without a separate user-space copy of the file
        // data; only the fixed file-system lookup cost applies here. (The
        // user-level server cannot avoid its read(2) copy — one of the
        // §6.3 penalties of living outside the kernel.)
        k.compute("user:fsread", fs_read_cost(0));
        k.ksock_request(sock, ops::RESPOND, response, [meta[0], meta[1], meta[3], 0]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vmtp::SEGMENT_BYTES;
    use crate::vmtp_user::{VmtpUserClient, VmtpUserServer};
    use pf_kernel::types::HostId;
    use pf_kernel::world::World;
    use pf_net::segment::FaultModel;
    use pf_sim::cost::CostModel;
    use pf_sim::SimClock;

    const SERVER_ENTITY: u32 = 0x20;
    const CLIENT_ENTITY: u32 = 0x10;
    const SERVER_ETH: u64 = 0x0B;

    fn kernel_world(costs: CostModel) -> (World, HostId, HostId) {
        let mut w = World::new(17);
        let seg = w.add_segment(Medium::standard_10mb(), FaultModel::default());
        let c = w.add_host("client", seg, 0x0A, costs.clone());
        let s = w.add_host("server", seg, SERVER_ETH, costs);
        w.register_protocol(c, Box::new(KernelVmtp::new()));
        w.register_protocol(s, Box::new(KernelVmtp::new()));
        (w, c, s)
    }

    fn run_kernel(ops: u64, response_bytes: u32, costs: CostModel) -> (SimDuration, f64) {
        let (mut w, c, s) = kernel_world(costs);
        w.spawn(s, Box::new(KVmtpServer::new(SERVER_ENTITY)));
        let p = w.spawn(
            c,
            Box::new(KVmtpClient::new(
                CLIENT_ENTITY,
                SERVER_ENTITY,
                SERVER_ETH,
                Workload {
                    ops,
                    response_bytes,
                },
            )),
        );
        w.run_until(SimTime(300 * 1_000_000_000));
        let app = w.app_ref::<KVmtpClient>(c, p).unwrap();
        assert!(app.is_done(), "completed {}", app.completed);
        (app.per_op().unwrap(), app.throughput_bps().unwrap_or(0.0))
    }

    #[test]
    fn kernel_minimal_transactions() {
        let (per_op, _) = run_kernel(20, 0, CostModel::microvax_ii());
        // §6.3: Unix kernel VMTP 7.44 ms per minimal operation.
        assert!(
            (3.0..15.0).contains(&per_op.as_millis_f64()),
            "per-op {per_op}"
        );
    }

    #[test]
    fn kernel_bulk_reads() {
        let (_, tput) = run_kernel(16, SEGMENT_BYTES as u32, CostModel::microvax_ii());
        let kbs = tput / 1024.0;
        // §6.3: Unix kernel VMTP 336 KB/s bulk.
        assert!((100.0..800.0).contains(&kbs), "throughput {kbs:.0} KB/s");
    }

    #[test]
    fn kernel_is_faster_than_user_level() {
        // The paper's headline §6.3 result: user-level VMTP pays about 2×
        // on minimal RTT.
        let (kernel_per_op, _) = run_kernel(20, 0, CostModel::microvax_ii());

        let mut w = World::new(17);
        let seg = w.add_segment(Medium::standard_10mb(), FaultModel::default());
        let c = w.add_host("client", seg, 0x0A, CostModel::microvax_ii());
        let s = w.add_host("server", seg, SERVER_ETH, CostModel::microvax_ii());
        w.spawn(s, Box::new(VmtpUserServer::new(SERVER_ENTITY)));
        let p = w.spawn(
            c,
            Box::new(VmtpUserClient::new(
                CLIENT_ENTITY,
                SERVER_ENTITY,
                SERVER_ETH,
                Workload {
                    ops: 20,
                    response_bytes: 0,
                },
            )),
        );
        w.run_until(SimTime(300 * 1_000_000_000));
        let user_per_op = w
            .app_ref::<VmtpUserClient>(c, p)
            .unwrap()
            .per_op()
            .expect("user workload done");

        let ratio = user_per_op.as_nanos() as f64 / kernel_per_op.as_nanos() as f64;
        assert!(
            (1.3..4.0).contains(&ratio),
            "user {user_per_op} vs kernel {kernel_per_op} (ratio {ratio:.2})"
        );
    }

    #[test]
    fn v_kernel_profile_is_at_least_as_fast() {
        let (unix, _) = run_kernel(20, 0, CostModel::microvax_ii());
        let (v, _) = run_kernel(20, 0, CostModel::v_kernel());
        assert!(v <= unix, "V kernel {v} vs Unix {unix}");
    }

    #[test]
    fn kernel_transactions_survive_loss() {
        let mut w = World::new(23);
        let seg = w.add_segment(
            Medium::standard_10mb(),
            FaultModel {
                loss: 0.05,
                duplication: 0.02,
                ..FaultModel::default()
            },
        );
        let c = w.add_host("client", seg, 0x0A, CostModel::microvax_ii());
        let s = w.add_host("server", seg, SERVER_ETH, CostModel::microvax_ii());
        w.register_protocol(c, Box::new(KernelVmtp::new()));
        w.register_protocol(s, Box::new(KernelVmtp::new()));
        w.spawn(s, Box::new(KVmtpServer::new(SERVER_ENTITY)));
        let p = w.spawn(
            c,
            Box::new(KVmtpClient::new(
                CLIENT_ENTITY,
                SERVER_ENTITY,
                SERVER_ETH,
                Workload {
                    ops: 10,
                    response_bytes: 4096,
                },
            )),
        );
        w.run_until(SimTime(300 * 1_000_000_000));
        let app = w.app_ref::<KVmtpClient>(c, p).unwrap();
        assert!(app.is_done(), "completed {}", app.completed);
        assert_eq!(app.bytes, 10 * 4096);
    }
}
