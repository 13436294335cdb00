//! `overload_flood`'s system: one MicroVAX-II host under the §7 decision
//! table with full overload armor (interrupt→polling switchover, admission
//! gate with a junk-port quota, backpressure marks), as bench_overload's
//! `full` tier configures it. A protected stream and a junk flood arrive
//! through `World::inject_frame`.

use super::{run_world, world_counts, Engine, FilterSpec, WorldCounts};
use crate::stats::Log2Hist;
use pf_filter::samples;
use pf_kernel::app::App;
use pf_kernel::types::{Fd, HostId, PortConfig, ProcId, ReadMode, RecvPacket};
use pf_kernel::world::{OverloadConfig, ProcCtx};
use pf_kernel::{AdmissionConfig, AdmissionQuota, World};
use pf_net::medium::Medium;
use pf_net::segment::{FaultModel, SegmentId};
use pf_sim::cost::CostModel;
use pf_sim::time::{SimDuration, SimTime};

/// Destination socket of the protected (high-priority) stream.
const WANTED_SOCK: u16 = 35;
/// Destination socket of the best-effort flood.
const JUNK_SOCK: u16 = 99;
const NIC_RING: usize = 256;
/// Application work per protected packet consumed.
const CONSUME: SimDuration = SimDuration::from_micros(200);
const PORT_QUEUE: usize = 64;
const BACKPRESSURE_MARK: usize = 48;

/// A 16-frame high-water mark and a poll tick whose demux ceiling
/// (16 frames / 8 ms) sits above the protected rate.
const ARMOR: OverloadConfig = OverloadConfig {
    hi_watermark: 16,
    lo_watermark: 4,
    poll_batch: 16,
    poll_interval: SimDuration::from_millis(8),
};

/// A trickle: nearly the whole flood is shed at the NIC for one probe each.
pub(super) const JUNK_QUOTA: AdmissionQuota = AdmissionQuota {
    rate_pps: 50,
    burst: 32,
};

/// A Pup frame link-addressed to the flooded host.
fn frame_to_host(sock: u16) -> Vec<u8> {
    let mut f = samples::pup_packet_3mb(samples::PUP_ETHERTYPE_3MB, 0, sock, 1);
    f[0] = 0x0B;
    f[1] = 0x0A;
    f
}

/// The two ports' filters: one socket test each, whose leading comparison
/// doubles as the admission signature, at priorities on either side of
/// `AdmissionConfig::default()`'s protection line (192).
pub const WANTED_FILTER: FilterSpec = FilterSpec::SocketEq {
    priority: 200,
    socket: WANTED_SOCK,
};
pub const JUNK_FILTER: FilterSpec = FilterSpec::SocketEq {
    priority: 10,
    socket: JUNK_SOCK,
};

struct Consumer {
    got: u64,
}

impl App for Consumer {
    fn start(&mut self, k: &mut ProcCtx<'_>) {
        let fd = k.pf_open();
        assert!(k.pf_set_filter(fd, WANTED_FILTER.program()));
        k.pf_configure(
            fd,
            PortConfig {
                read_mode: ReadMode::Batch,
                max_queue: PORT_QUEUE,
                timestamp: true,
                backpressure_mark: Some(BACKPRESSURE_MARK),
                ..Default::default()
            },
        );
        k.pf_read(fd);
    }

    fn on_packets(&mut self, fd: Fd, packets: Vec<RecvPacket>, k: &mut ProcCtx<'_>) {
        self.got += packets.len() as u64;
        k.compute("user:consume", CONSUME.times(packets.len() as u64));
        k.pf_read(fd);
    }
}

/// Owns the junk port and never reads it: junk that survives admission
/// piles up and drops after demultiplexing.
struct JunkSink;

impl App for JunkSink {
    fn start(&mut self, k: &mut ProcCtx<'_>) {
        let fd = k.pf_open();
        assert!(k.pf_set_filter(fd, JUNK_FILTER.program()));
        k.pf_configure(
            fd,
            PortConfig {
                max_queue: PORT_QUEUE,
                backpressure_mark: Some(BACKPRESSURE_MARK),
                ..Default::default()
            },
        );
        k.pf_set_quota(fd, Some(JUNK_QUOTA));
    }
}

pub struct Flood {
    w: World,
    host: HostId,
    seg: SegmentId,
    consumer: ProcId,
    wanted: Vec<u8>,
    junk: Vec<u8>,
}

/// What a finished `overload_flood` run reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FloodOutcome {
    /// Protected packets the consumer read.
    pub consumed: u64,
    /// Frames still parked in a port queue (they count as delivered).
    pub queued: u64,
    pub counts: WorldCounts,
}

impl Flood {
    /// Nominal capacity of the unarmored receive path, packets per second:
    /// interrupt cost, one engine probe and the demux bookkeeping, which the
    /// kernel pays even for a frame it then drops. Offered load is a
    /// multiple of this.
    pub fn capacity_pps() -> u64 {
        let m = CostModel::microvax_ii();
        let per =
            m.driver_rx_cost(frame_to_host(WANTED_SOCK).len()) + m.dtree_probe + m.pf_bookkeeping;
        1_000_000_000 / per.as_nanos().max(1)
    }

    /// A sample of the offered mix, for the layer replays: one protected
    /// frame among the flood, in the proportion the generator offers.
    pub fn sample_frames(junk_per_wanted: usize) -> Vec<Vec<u8>> {
        let mut frames = vec![frame_to_host(WANTED_SOCK)];
        frames.extend(std::iter::repeat_n(
            frame_to_host(JUNK_SOCK),
            junk_per_wanted,
        ));
        frames
    }

    pub fn build(seed: u64) -> Self {
        let mut w = World::new(seed);
        let seg = w.add_segment(Medium::experimental_3mb(), FaultModel::default());
        let host = w.add_host("flooded", seg, 0x0B, CostModel::microvax_ii());
        w.set_nic_capacity(host, NIC_RING);
        w.set_demux_engine(host, Engine::DecisionTable.kernel());
        w.set_overload_armor(host, Some(ARMOR));
        w.set_admission_control(host, Some(AdmissionConfig::default()));
        let consumer = w.spawn(host, Box::new(Consumer { got: 0 }));
        w.spawn(host, Box::new(JunkSink));
        Flood {
            w,
            host,
            seg,
            consumer,
            wanted: frame_to_host(WANTED_SOCK),
            junk: frame_to_host(JUNK_SOCK),
        }
    }

    /// One frame of the protected stream or of the flood, arriving at
    /// `at_ns`.
    pub fn offer(&mut self, at_ns: u64, wanted: bool) {
        let frame = if wanted { &self.wanted } else { &self.junk };
        self.w
            .inject_frame(self.host, frame.clone(), SimTime(at_ns));
    }

    /// Runs through simulated time `ns`; returns the events processed.
    pub fn run_until(&mut self, ns: u64, steps: Option<&mut Log2Hist>) -> u64 {
        run_world(&mut self.w, Some(SimTime(ns)), steps)
    }

    /// Runs until nothing is pending, so no frame is left in the backlog.
    pub fn drain(&mut self, steps: Option<&mut Log2Hist>) -> u64 {
        run_world(&mut self.w, None, steps)
    }

    pub fn outcome(&self) -> FloodOutcome {
        let dev = self.w.device(self.host);
        FloodOutcome {
            consumed: self
                .w
                .app_ref::<Consumer>(self.host, self.consumer)
                .expect("the consumer")
                .got,
            queued: dev
                .order()
                .iter()
                .map(|&p| dev.port(p).queue.len() as u64)
                .sum(),
            counts: world_counts(&self.w, &[self.host], &[], &[self.seg]),
        }
    }
}
