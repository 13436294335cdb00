//! `lan_paper`'s system: the paper's own environment. MicroVAX-II hosts
//! with other active processes, user-level BSP streams in the table 6-6
//! configuration and a promiscuous monitor on a 3 Mb/s Experimental
//! Ethernet, and user-level VMTP transactions on a 10 Mb/s Ethernet.
//!
//! Two wires, not one: the BSP apps speak the 3 Mb/s encapsulation and the
//! VMTP apps the 10 Mb/s one (as in the paper's measurements, and as
//! `tests/busy_ethernet.rs` arranges them), so they cannot share a segment.

use super::{run_world, world_counts, WorldCounts};
use crate::stats::Log2Hist;
use pf_kernel::types::{HostId, ProcId};
use pf_kernel::World;
use pf_monitor::capture::CaptureApp;
use pf_net::medium::Medium;
use pf_net::segment::{FaultModel, SegmentId};
use pf_proto::bsp::BspConfig;
use pf_proto::bsp_app::{BspReceiverApp, BspSenderApp};
use pf_proto::pup::PupAddr;
use pf_proto::vmtp_user::{VmtpUserClient, VmtpUserServer, Workload};
use pf_sim::cost::CostModel;

/// Generated inputs and sizes of one `lan_paper` system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LanParams {
    pub seed: u64,
    /// One payload per BSP sender→receiver pair.
    pub payloads: Vec<Vec<u8>>,
    /// Minimal transactions per VMTP client/server pair.
    pub vmtp_ops: Vec<u64>,
    /// Frames the monitor stores before it only counts.
    pub capture_cap: usize,
}

/// Buffers deep enough that the monitor loses nothing: it is slower than
/// the wire it watches, and the check is that it accounts for every frame.
const MONITOR_BUFFERS: usize = 1 << 20;

/// Table 6-6's configuration: the 1982 Stanford BSP checksums in software,
/// predates received-packet batching and runs a window of two 568-byte Pups.
pub(super) fn table_6_6() -> BspConfig {
    BspConfig {
        window: 2,
        checksummed: true,
        batch: false,
        ..Default::default()
    }
}

pub struct Lan {
    w: World,
    hosts: Vec<HostId>,
    segments: [SegmentId; 2],
    streams: Vec<Stream>,
    clients: Vec<(HostId, ProcId, u64)>,
    monitor: (HostId, ProcId),
}

struct Stream {
    sender: (HostId, ProcId),
    receiver: (HostId, ProcId),
    bytes: u64,
}

/// How one BSP stream ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamOutcome {
    pub done: bool,
    pub failed: bool,
    pub bytes_delivered: u64,
    pub bytes_offered: u64,
}

/// What a finished `lan_paper` run reports, as plain numbers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LanOutcome {
    pub streams: Vec<StreamOutcome>,
    /// `(completed, asked, give-ups)` per VMTP client.
    pub transactions: Vec<(u64, u64, u64)>,
    pub retransmits: u64,
    pub captured: u64,
    pub overflowed: u64,
    /// Frames transmitted on the monitored wire.
    pub wire_frames: u64,
    pub counts: WorldCounts,
}

impl Lan {
    /// Takes the inputs by value: each payload moves into its sender.
    pub fn build(p: LanParams) -> Self {
        let costs = CostModel::microvax_ii();
        let mut w = World::new(p.seed);
        let eth3 = w.add_segment(Medium::experimental_3mb(), FaultModel::default());
        let eth10 = w.add_segment(Medium::standard_10mb(), FaultModel::default());
        let mut hosts = Vec::new();
        let mut add_host = |w: &mut World, name: String, seg, addr| {
            let h = w.add_host(name, seg, addr, costs.clone());
            // The measured machines were timesharing systems (§6.5.1).
            w.set_contended(h, true);
            hosts.push(h);
            h
        };

        // The monitor starts first: a capture that starts late misses frames.
        let mon = add_host(&mut w, "monitor".into(), eth3, 0x7F);
        w.set_nic_capacity(mon, MONITOR_BUFFERS);
        let cap = CaptureApp::promiscuous(p.capture_cap).with_queue_len(MONITOR_BUFFERS);
        let monitor = (mon, w.spawn(mon, Box::new(cap)));

        let cfg = table_6_6();
        let mut streams = Vec::new();
        for (i, payload) in p.payloads.into_iter().enumerate() {
            let i8 = u8::try_from(i).expect("a 3 Mb/s wire addresses 254 stations");
            let (tx_addr, rx_addr) = (0x10 + i8, 0x40 + i8);
            let tx = add_host(&mut w, format!("bsp-tx{i}"), eth3, u64::from(tx_addr));
            let rx = add_host(&mut w, format!("bsp-rx{i}"), eth3, u64::from(rx_addr));
            let src = PupAddr::new(1, tx_addr, 0x300 + i as u32);
            let dst = PupAddr::new(1, rx_addr, 0x400 + i as u32);
            let receiver = (
                rx,
                w.spawn(rx, Box::new(BspReceiverApp::new(dst, cfg.clone()))),
            );
            let bytes = payload.len() as u64;
            let sender = BspSenderApp::new(src, dst, payload, cfg.clone());
            streams.push(Stream {
                sender: (tx, w.spawn(tx, Box::new(sender))),
                receiver,
                bytes,
            });
        }

        let mut clients = Vec::new();
        for (i, &ops) in p.vmtp_ops.iter().enumerate() {
            let (client_eth, server_eth) = (0x100 + i as u64, 0x200 + i as u64);
            let (client_entity, server_entity) = (0x1000 + i as u32, 0x2000 + i as u32);
            let c = add_host(&mut w, format!("vmtp-c{i}"), eth10, client_eth);
            let s = add_host(&mut w, format!("vmtp-s{i}"), eth10, server_eth);
            w.spawn(s, Box::new(VmtpUserServer::new(server_entity)));
            let workload = Workload {
                ops,
                response_bytes: 0,
            };
            let client = VmtpUserClient::new(client_entity, server_entity, server_eth, workload);
            clients.push((c, w.spawn(c, Box::new(client)), ops));
        }

        Lan {
            w,
            hosts,
            segments: [eth3, eth10],
            streams,
            clients,
            monitor,
        }
    }

    /// Closed loop: runs until every stream and transaction has ended and
    /// the monitor has drained. Returns the events processed.
    pub fn run(&mut self, steps: Option<&mut Log2Hist>) -> u64 {
        run_world(&mut self.w, None, steps)
    }

    /// `(link address, promiscuous)` of every station on the monitored wire.
    pub fn wire_stations(&self) -> Vec<(u64, bool)> {
        let mut stations = vec![(0x7F, true)];
        for i in 0..self.streams.len() as u64 {
            stations.extend([(0x10 + i, false), (0x40 + i, false)]);
        }
        stations
    }

    /// The captured trace's frames, for the layer replays.
    pub fn captured_frames(&self) -> Vec<Vec<u8>> {
        let (h, p) = self.monitor;
        let cap = self.w.app_ref::<CaptureApp>(h, p).expect("the monitor");
        cap.trace.iter().map(|c| c.bytes.clone()).collect()
    }

    pub fn outcome(&self) -> LanOutcome {
        let w = &self.w;
        let mut retransmits = 0;
        let streams = self
            .streams
            .iter()
            .map(|s| {
                let tx = w
                    .app_ref::<BspSenderApp>(s.sender.0, s.sender.1)
                    .expect("a sender");
                let rx = w
                    .app_ref::<BspReceiverApp>(s.receiver.0, s.receiver.1)
                    .expect("a receiver");
                retransmits += tx.stats().retransmits;
                StreamOutcome {
                    done: rx.is_done() && tx.is_done(),
                    failed: tx.is_failed(),
                    bytes_delivered: rx.bytes,
                    bytes_offered: s.bytes,
                }
            })
            .collect();
        let transactions = self
            .clients
            .iter()
            .map(|&(h, p, ops)| {
                let c = w.app_ref::<VmtpUserClient>(h, p).expect("a client");
                retransmits += c.machine_retries();
                (c.completed, ops, c.machine_giveups())
            })
            .collect();
        let cap = w
            .app_ref::<CaptureApp>(self.monitor.0, self.monitor.1)
            .expect("the monitor");
        LanOutcome {
            streams,
            transactions,
            retransmits,
            captured: cap.captured() as u64,
            overflowed: cap.overflowed,
            wire_frames: w.network().transmitted_on(self.segments[0]),
            counts: world_counts(w, &self.hosts, &[], &self.segments),
        }
    }
}
