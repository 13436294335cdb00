//! The packet-filter device on its own: `PfDevice` behind its public
//! `open`/`set_filter`/`close`/`demux`, the bare `GeomSet` under it, the
//! `CheckedInterpreter` oracle beside it, and the one-host World that gives
//! the device workloads their simulated-time numbers.

use super::{run_world, world_counts, Engine, WorldCounts};
use pf_filter::interp::CheckedInterpreter;
use pf_filter::packet::PacketView;
use pf_filter::program::{Assembler, FilterProgram};
use pf_filter::samples;
use pf_filter::word::BinaryOp;
use pf_ir::GeomSet;
use pf_kernel::app::App;
use pf_kernel::types::{Fd, PortConfig, ProcId, ReadMode, RecvPacket};
use pf_kernel::world::ProcCtx;
use pf_kernel::{PfDevice, World};
use pf_net::medium::Medium;
use pf_net::segment::FaultModel;
use pf_sim::cost::CostModel;
use pf_sim::time::SimTime;

/// Pup's Ethernet type on the 3 Mb/s Experimental Ethernet (figure 3-7).
pub const PUP_ETHERTYPE: u16 = samples::PUP_ETHERTYPE_3MB;

/// The priority of the paper's examples. The filters of one device never
/// overlap and are bound highest priority first, so at most one accepts a
/// frame and priority order is bind order.
const PRIORITY: u8 = 10;

/// A filter the benchmark binds, described by value so that generators do
/// not depend on the filter crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FilterSpec {
    /// The figure 3-9 idiom: destination socket `CAND`, then Ethernet type
    /// `EQ`.
    Exact { ethertype: u16, socket: u16 },
    /// `samples::socket_range_filter`: Pup frames whose destination socket
    /// lies in `lo..=hi`. No equality literal to index on.
    Range { lo: u16, hi: u16 },
    /// Figure 3-9 itself, for a 32-bit Pup socket: what a BSP endpoint binds.
    PupSocket { socket: u32 },
    /// One Ethernet-type test at packet word `word`: `routed_fabric`'s sink.
    Ethertype { word: u8, ethertype: u16 },
    /// One socket test at an explicit priority: `overload_flood`'s two
    /// ports, on either side of the admission gate's protection line.
    SocketEq { priority: u8, socket: u16 },
}

impl FilterSpec {
    pub(super) fn program(self) -> FilterProgram {
        match self {
            FilterSpec::Exact { ethertype, socket } => Assembler::new(PRIORITY)
                .pushword(samples::WORD_DSTSOCKET_LO)
                .pushlit_op(BinaryOp::Cand, socket)
                .pushword(samples::WORD_ETHERTYPE)
                .pushlit_op(BinaryOp::Eq, ethertype)
                .finish(),
            FilterSpec::Range { lo, hi } => samples::socket_range_filter(PRIORITY, lo, hi),
            FilterSpec::PupSocket { socket } => {
                samples::pup_socket_filter(PRIORITY, (socket >> 16) as u16, socket as u16)
            }
            FilterSpec::Ethertype { word, ethertype } => Assembler::new(PRIORITY)
                .pushword(word)
                .pushlit_op(BinaryOp::Eq, ethertype)
                .finish(),
            FilterSpec::SocketEq { priority, socket } => Assembler::new(priority)
                .pushword(samples::WORD_DSTSOCKET_LO)
                .pushlit_op(BinaryOp::Eq, socket)
                .finish(),
        }
    }
}

/// A minimum-size Pup frame (figure 3-7 layout, one data word) for the
/// given Ethernet type and destination socket.
pub fn pup_frame(ethertype: u16, socket: u16) -> Vec<u8> {
    samples::pup_packet_3mb(ethertype, 0, socket, 1)
}

/// What one `demux` call decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Demuxed {
    /// The accepting port, if any (benchmark ports never deliver to lower
    /// priorities, so there is at most one).
    pub port: Option<usize>,
    /// Threaded-code operations the compiled engine executed.
    pub ir_ops: u32,
}

/// What the oracle decided for one frame, and the work it took.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OracleWalk {
    pub port: Option<usize>,
    pub evals: u64,
    pub instructions: u64,
}

/// A bare `PfDevice`, with a shadow copy of what is bound for the oracle.
#[derive(Debug)]
pub struct Device {
    dev: PfDevice,
    bound: Vec<Option<FilterProgram>>,
    oracle: CheckedInterpreter,
}

impl Device {
    /// An empty device with `engine` selected before the first bind, so
    /// every bind pays what binding costs under that engine.
    pub fn new(engine: Engine) -> Self {
        let mut dev = PfDevice::new();
        dev.set_engine(engine.kernel());
        Device {
            dev,
            bound: Vec::new(),
            oracle: CheckedInterpreter::default(),
        }
    }

    /// A device under `engine` with `specs` bound in order: port `i` holds
    /// `specs[i]`.
    pub fn with_filters(engine: Engine, specs: &[FilterSpec]) -> Self {
        let mut dev = Device::new(engine);
        for &spec in specs {
            dev.bind(spec);
        }
        dev
    }

    /// Opens a port and binds `spec` to it; returns the port index.
    pub fn bind(&mut self, spec: FilterSpec) -> usize {
        let program = spec.program();
        let port = self.dev.open((ProcId(0), Fd(self.bound.len())));
        let clean = self.dev.set_filter(port, program.clone());
        assert!(clean, "benchmark filters validate");
        assert_eq!(
            port,
            self.bound.len(),
            "the device numbers ports in open order"
        );
        self.bound.push(Some(program));
        port
    }

    pub fn close(&mut self, port: usize) {
        self.dev.close(port);
        self.bound[port] = None;
    }

    pub fn open_ports(&self) -> usize {
        self.dev.open_ports()
    }

    pub fn demux(&mut self, frame: &[u8]) -> Demuxed {
        let out = self.dev.demux(frame);
        debug_assert!(out.accepted.len() <= 1);
        Demuxed {
            port: out.accepted.first().copied(),
            ir_ops: out.ir_ops,
        }
    }

    /// The reference answer: the checked interpreter applied to each bound
    /// filter in priority order until one accepts.
    pub fn oracle(&self, frame: &[u8]) -> OracleWalk {
        let view = PacketView::new(frame);
        let mut walk = OracleWalk::default();
        for (port, program) in self.bound.iter().enumerate() {
            let Some(program) = program else { continue };
            let (accepted, stats) = self.oracle.eval_with_stats(program, view);
            walk.evals += 1;
            walk.instructions += u64::from(stats.instructions);
            if accepted {
                walk.port = Some(port);
                break;
            }
        }
        walk
    }

    /// Frames accepted so far, by port.
    pub fn accepts(&self) -> Vec<u64> {
        (0..self.bound.len())
            .map(|p| self.dev.port(p).accepts)
            .collect()
    }
}

/// The bare `GeomSet` the `Geom` engine wraps, keyed by bind order.
#[derive(Debug, Default)]
pub struct BareGeom {
    set: GeomSet,
}

impl BareGeom {
    pub fn insert(&mut self, id: u32, spec: FilterSpec) {
        self.set.insert(id, spec.program());
    }

    pub fn remove(&mut self, id: u32) -> bool {
        self.set.remove(id)
    }

    /// `(first match, candidates evaluated, operations executed)`.
    pub fn matches(&mut self, frame: &[u8]) -> (Option<u32>, u32, u32) {
        let (ids, stats) = self.set.matches_with_stats(PacketView::new(frame));
        (
            ids.first().copied(),
            stats.filters_evaluated,
            stats.ops_executed,
        )
    }
}

/// Owns every port of the simulated pass: binds them all at start and reads
/// whatever arrives, as a process demultiplexing for many sockets would.
struct PortHolder {
    specs: Vec<FilterSpec>,
    consumed: u64,
}

impl App for PortHolder {
    fn start(&mut self, k: &mut ProcCtx<'_>) {
        for spec in &self.specs {
            let fd = k.pf_open();
            assert!(k.pf_set_filter(fd, spec.program()));
            k.pf_configure(
                fd,
                PortConfig {
                    read_mode: ReadMode::Batch,
                    ..Default::default()
                },
            );
            k.pf_read(fd);
        }
    }

    fn on_packets(&mut self, fd: Fd, packets: Vec<RecvPacket>, k: &mut ProcCtx<'_>) {
        self.consumed += packets.len() as u64;
        k.pf_read(fd);
    }
}

/// Result of the simulated pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimPass {
    /// Frames accepted by each port, in bind order.
    pub accepts: Vec<u64>,
    /// Frames the owning process read.
    pub consumed: u64,
    /// Simulated CPU time spent after every port was bound.
    pub busy_ns: u64,
    pub counts: WorldCounts,
}

/// Gap between injected frames: above the MicroVAX-II's per-frame receive
/// cost, so the simulated pass measures cost per frame and not queueing.
const SIM_PASS_GAP_NS: u64 = 5_000_000;

/// Passes `frames` through a one-host World that holds the same ports under
/// the same engine as the bare device, via `World::inject_frame`.
pub fn sim_pass(engine: Engine, specs: &[FilterSpec], frames: &[&[u8]], seed: u64) -> SimPass {
    let mut w = World::new(seed);
    let seg = w.add_segment(Medium::experimental_3mb(), FaultModel::default());
    let host = w.add_host("demux", seg, 0x01, CostModel::microvax_ii());
    w.set_demux_engine(host, engine.kernel());
    let holder = w.spawn(
        host,
        Box::new(PortHolder {
            specs: specs.to_vec(),
            consumed: 0,
        }),
    );
    // Let the binds finish, so their system calls are not charged to frames.
    run_world(&mut w, None, None);
    let bound_at = w.cpu(host).free_at();
    let busy_before = w.cpu(host).busy_time().as_nanos();
    for (i, frame) in frames.iter().enumerate() {
        let at = SimTime(bound_at.as_nanos() + (i as u64 + 1) * SIM_PASS_GAP_NS);
        w.inject_frame(host, frame.to_vec(), at);
    }
    run_world(&mut w, None, None);
    let counts = world_counts(&w, &[host], &[], &[seg]);
    SimPass {
        accepts: (0..specs.len())
            .map(|p| w.device(host).port(p).accepts)
            .collect(),
        consumed: w
            .app_ref::<PortHolder>(host, holder)
            .expect("the port holder")
            .consumed,
        busy_ns: counts.busy_ns - busy_before,
        counts,
    }
}
