//! The simulated world: hosts, processes, the event loop, and the system
//! call surface.
//!
//! A [`World`] owns the network, a set of hosts (each a machine with a
//! packet-filter device, optional kernel-resident protocols, user
//! processes, pipes, and timers), and one deterministic event queue. All
//! virtual time comes from two places: the network's transmission delays
//! and each host's [`pf_sim::cpu::Cpu`]s charged through its
//! [`pf_sim::cost::CostModel`]. A host has one CPU, as the paper's did,
//! until [`World::set_rss`] gives it one core per receive queue
//! ([`crate::rss`]).
//!
//! User processes implement [`crate::app::App`] and talk to their kernel
//! through [`ProcCtx`]; kernel-resident protocols implement
//! [`crate::kproto::KernelProtocol`] and use [`KernelCtx`].

use crate::app::App;
use crate::device::{
    AdmissionConfig, AdmissionQuota, AdmissionVerdict, DemuxEngine, DemuxOutcome, EnqueueOutcome,
    PendingRead, PfDevice, PortIdx,
};
use crate::kproto::KernelProtocol;
use crate::rss::RssConfig;
use crate::types::{
    BlockPolicy, Fd, HostId, PipeId, PortConfig, PortStats, ProcId, ReadError, ReadMode,
    RecvPacket, RouterId, SockId, TimerId,
};
use pf_filter::program::FilterProgram;
use pf_net::frame;
use pf_net::medium::Medium;
use pf_net::segment::{Delivery, FaultModel, Network, SegmentId, StationId};
use pf_net::topology::{Forwarder, ForwarderStats, Route};
use pf_sim::clock::SimClock;
use pf_sim::cost::CostModel;
use pf_sim::counters::Counters;
use pf_sim::cpu::Cpu;
use pf_sim::profile::Profiler;
use pf_sim::queue::{EventHandle, EventQueue};
use pf_sim::time::{SimDuration, SimTime};
use std::any::Any;
use std::collections::VecDeque;

/// Default NIC receive-ring capacity (frames buffered ahead of the driver).
pub const DEFAULT_NIC_CAPACITY: usize = 32;

/// The receive-livelock armor: interrupt→polling switchover parameters.
///
/// Under per-packet interrupts an arrival rate beyond the demux capacity
/// lets driver work consume the whole CPU — every frame is charged at
/// arrival, and user processes starve behind the backlog (receive
/// livelock). With armor enabled, once the NIC ring occupancy reaches
/// `hi_watermark` the host stops taking per-packet interrupts: frames are
/// buffered by the device for free (DMA) and a periodic poll tick drains at
/// most `poll_batch` of them, bounding kernel receive work to roughly
/// `poll_batch`-frames-worth per `poll_interval` and guaranteeing the
/// remainder of each interval to user processes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OverloadConfig {
    /// NIC ring occupancy that switches the receive path to polling.
    pub hi_watermark: usize,
    /// Backlog depth at (or below) which a poll tick finishes the backlog
    /// off and drops back to per-packet interrupts.
    pub lo_watermark: usize,
    /// Maximum frames demultiplexed per poll tick (the bounded per-tick
    /// demux work budget).
    pub poll_batch: usize,
    /// Interval between poll ticks.
    pub poll_interval: SimDuration,
}

impl Default for OverloadConfig {
    fn default() -> Self {
        OverloadConfig {
            hi_watermark: 16,
            lo_watermark: 4,
            poll_batch: 8,
            poll_interval: SimDuration::from_micros(20_000),
        }
    }
}

/// Errors from the transmit path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendError {
    /// The frame is shorter than the medium's data-link header.
    FrameTooShort,
    /// The frame exceeds the medium's maximum packet size.
    FrameTooLong,
    /// The descriptor does not name an open port.
    BadDescriptor,
}

impl core::fmt::Display for SendError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SendError::FrameTooShort => write!(f, "frame shorter than data-link header"),
            SendError::FrameTooLong => write!(f, "frame exceeds maximum packet size"),
            SendError::BadDescriptor => write!(f, "bad descriptor"),
        }
    }
}

impl std::error::Error for SendError {}

/// Simulation events.
enum Event {
    /// First scheduling of a process.
    Start { host: HostId, proc: ProcId },
    /// A frame has fully arrived at a host's network interface. `seq` is
    /// this event's own tie-break (`EventQueue::next_seq` when scheduled).
    FrameArrival {
        host: HostId,
        frame: Vec<u8>,
        seq: u64,
    },
    /// Completion of a packet-filter read.
    DeliverPackets {
        host: HostId,
        proc: ProcId,
        fd: Fd,
        packets: Vec<RecvPacket>,
    },
    /// A read failed: timeout (validated by generation) or would-block.
    ReadFail {
        host: HostId,
        proc: ProcId,
        fd: Fd,
        err: ReadError,
        port: PortIdx,
        generation: Option<u64>,
    },
    /// Signal delivery for a `signal_on_input` port.
    Signal { host: HostId, proc: ProcId, fd: Fd },
    /// A user timer fired.
    Timer {
        host: HostId,
        proc: ProcId,
        token: u64,
    },
    /// Pipe data reaching its reader.
    PipeDeliver {
        host: HostId,
        proc: ProcId,
        pipe: PipeId,
        data: Vec<u8>,
    },
    /// A kernel-socket completion reaching its owner. `(op, data, meta)`,
    /// 64 bytes no other event carries, sit behind a box.
    SocketDeliver {
        host: HostId,
        proc: ProcId,
        sock: SockId,
        completion: Box<(u32, Vec<u8>, [u64; 4])>,
    },
    /// A kernel-protocol timer fired.
    KTimer {
        host: HostId,
        proto: usize,
        token: u64,
    },
    /// A polled drain pass on a host core whose receive path is in polling
    /// mode.
    PollTick { host: HostId, core: usize },
    /// A frame demultiplexed on another core has reached the core of the
    /// process owning `port`, which reads it now.
    Handoff { host: HostId, port: PortIdx },
    /// A frame injected for transmission from a host's NIC at a scheduled
    /// time (the flow-generator entry point).
    Transmit { host: HostId, frame: Vec<u8> },
    /// A frame has fully arrived at one of a router's interfaces and
    /// awaits the forwarding decision.
    RouterForward {
        router: RouterId,
        iface: usize,
        frame: Vec<u8>,
    },
    /// A scheduled router crash or recovery takes effect (routing-plane
    /// fault injection).
    RouterState { router: RouterId, up: bool },
    /// A scheduled link outage or restoration takes effect.
    LinkState { segment: SegmentId, up: bool },
    /// A router's periodic forwarder tick (liveness probing, protocol
    /// timers); rescheduled every `Forwarder::tick_interval`.
    RouterTick { router: RouterId },
    /// A backpressure notification reaching the owner of a port whose
    /// queue crossed its high-water mark.
    Backpressure {
        host: HostId,
        proc: ProcId,
        fd: Fd,
        depth: usize,
    },
}

/// The event queue's slab stamps each payload with a `u64`: at 56 bytes an
/// occupied slot is one 64-byte cache line.
#[cfg(target_pointer_width = "64")]
const _: () = assert!(std::mem::size_of::<Event>() == 56);

/// The odd multiplier of [`World::history_digest`]'s fold (FNV-1a's
/// 64-bit prime).
const DIGEST_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Event {
    /// What [`World::history_digest`] folds for this event popped at `at`:
    /// the time, xored with the variant, the host, router or segment it
    /// concerns, and the length of the frame it carries (0 for the events
    /// that carry none), packed into the high bits.
    fn digest_key(&self, at: SimTime) -> u64 {
        let (variant, id, len) = match self {
            Event::Start { host, .. } => (0, host.0, 0),
            Event::FrameArrival { host, frame, .. } => (1, host.0, frame.len()),
            Event::DeliverPackets { host, .. } => (2, host.0, 0),
            Event::ReadFail { host, .. } => (3, host.0, 0),
            Event::Signal { host, .. } => (4, host.0, 0),
            Event::Timer { host, .. } => (5, host.0, 0),
            Event::PipeDeliver { host, .. } => (6, host.0, 0),
            Event::SocketDeliver { host, .. } => (7, host.0, 0),
            Event::KTimer { host, .. } => (8, host.0, 0),
            Event::PollTick { host, .. } => (9, host.0, 0),
            Event::Transmit { host, frame } => (10, host.0, frame.len()),
            Event::RouterForward { router, frame, .. } => (11, router.0, frame.len()),
            Event::RouterState { router, .. } => (12, router.0, 0),
            Event::LinkState { segment, .. } => (13, segment.0, 0),
            Event::RouterTick { router } => (14, router.0, 0),
            Event::Backpressure { host, .. } => (15, host.0, 0),
            Event::Handoff { host, .. } => (16, host.0, 0),
        };
        at.0 ^ (variant << 59) ^ ((id as u64) << 43) ^ ((len as u64) << 32)
    }
}

/// The first descriptor a process is handed; 0–2 are taken, as on Unix.
const FIRST_FD: usize = 3;

struct ProcSlot {
    app: Option<Box<dyn App>>,
    /// The process's descriptor table: descriptors are dense from
    /// [`FIRST_FD`] and only `pf_open` hands them out, so entry
    /// `fd - FIRST_FD` is the port behind `fd` (`None` once closed).
    ports: Vec<Option<PortIdx>>,
    /// The core the process runs on, fixed by its first filter that pins
    /// ([`RssConfig::placement_of`]); core 0 until then.
    core: Option<usize>,
}

struct Sock {
    owner: ProcId,
    proto: usize,
    open: bool,
}

struct Pipe {
    reader: ProcId,
    open: bool,
}

/// One core of a host: its CPU and its receive queue.
#[derive(Default)]
struct Core {
    cpu: Cpu,
    /// The receive ring: `(completion time, tie-break)` of each frame the
    /// driver was charged for and `frame_arrival` has not retired, oldest
    /// first (`Cpu::free_at` only grows). The tie-break is the one an event
    /// scheduled at the charge would have had, so an arrival retires what
    /// would have fired before it. A frame is taken in only while fewer than
    /// `nic_capacity` are here: that is the ring's memory bound.
    rx_ring: VecDeque<(SimTime, u64)>,
    /// Frames buffered by the device while in polling mode, awaiting a
    /// poll tick (the NIC ring, repurposed: no CPU is charged to park a
    /// frame here).
    rx_backlog: VecDeque<Vec<u8>>,
    /// Whether the receive path is currently in polling mode.
    polling: bool,
    /// Whether a `PollTick` is already scheduled (at most one outstanding).
    poll_scheduled: bool,
}

/// One simulated machine.
pub(crate) struct Host {
    pub(crate) name: String,
    pub(crate) station: StationId,
    pub(crate) costs: CostModel,
    /// One core per receive queue of `rss`; core 0 is the paper's CPU.
    cores: Vec<Core>,
    rss: RssConfig,
    pub(crate) counters: Counters,
    pub(crate) device: PfDevice,
    /// The demux outcome `pf_demux` fills for every frame.
    outcome: DemuxOutcome,
    procs: Vec<ProcSlot>,
    /// The process the CPU last ran (context-switch accounting).
    current: Option<ProcId>,
    protocols: Vec<Option<Box<dyn KernelProtocol>>>,
    socks: Vec<Sock>,
    pipes: Vec<Pipe>,
    /// Frames each core's receive queue holds at most.
    pub(crate) nic_capacity: usize,
    /// Receive-livelock armor parameters; `None` leaves the paper's pure
    /// interrupt-driven receive path.
    overload: Option<OverloadConfig>,
    /// Model "other active processes" (§6.5.1): every wakeup of a blocked
    /// process costs two context switches (in, and later out) instead of
    /// depending on which process last ran.
    contended: bool,
    tx_free_at: SimTime,
}

impl Host {
    /// The open packet-filter port behind `proc`'s descriptor `fd`.
    fn port_of(&self, proc: ProcId, fd: Fd) -> Option<PortIdx> {
        let entry = fd.0.checked_sub(FIRST_FD)?;
        *self.procs[proc.0].ports.get(entry)?
    }

    /// The core `proc` runs on.
    fn core_of(&self, proc: ProcId) -> usize {
        self.procs[proc.0].core.unwrap_or(0)
    }

    /// Charges the context-switch cost of waking `proc` from a blocked
    /// state at `now` to `core`, the one it runs on; returns the completion
    /// time of the charged work.
    ///
    /// On a contended host (other active processes, §6.5.1) a wakeup costs
    /// two switches — one to the woken process and one away when it blocks
    /// again; otherwise a switch is charged only when another process held
    /// the CPU.
    fn charge_wakeup_switch(&mut self, now: SimTime, proc: ProcId, core: usize) -> SimTime {
        let switches = if self.contended {
            2
        } else {
            usize::from(self.current != Some(proc))
        };
        let mut t = now;
        for _ in 0..switches {
            self.counters.context_switches += 1;
            let cs = self.costs.context_switch;
            t = self.cores[core].cpu.charge("kern:swtch", now, cs);
        }
        self.current = Some(proc);
        t
    }
}

/// Who owns a network station: a host's NIC or one router interface.
#[derive(Debug, Clone, Copy)]
enum StationOwner {
    Host(usize),
    Router { router: usize, iface: usize },
}

/// One simulated router: a kernel-resident packet switch whose forwarding
/// plane is supplied through [`pf_net::topology::Forwarder`]. A router has
/// a CPU (forwarding decisions cost `CostModel::ip_forward`) and one
/// station per attached segment, each serialized independently for
/// transmission — store-and-forward latency falls out of the event loop.
struct Router {
    name: String,
    stations: Vec<StationId>,
    forwarder: Box<dyn Forwarder>,
    cpu: Cpu,
    costs: CostModel,
    counters: RouterCounters,
    /// Per-interface NIC availability (transmit serialization).
    tx_free_at: Vec<SimTime>,
    /// Fail-stop state: while down the router forwards nothing, emits
    /// nothing, and its forwarder sees no ticks. Forwarder state
    /// survives the outage (fail-stop with stable storage).
    up: bool,
    /// Cached `Forwarder::tick_interval` (the tick keeps rescheduling
    /// itself through outages so recovery needs no re-arming).
    tick_interval: Option<SimDuration>,
    /// The forwarder's stats as of the last call into it; the next call's
    /// resilience work is priced from the difference.
    seen: ForwarderStats,
}

/// Event-loop-level counters for one router (the forwarding plane keeps
/// its own [`ForwarderStats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouterCounters {
    /// Frames that arrived at any of the router's interfaces.
    pub frames_in: u64,
    /// Frames transmitted out of any interface.
    pub frames_out: u64,
    /// Frames that arrived while the router was crashed and were
    /// silently dropped (a dead router blackholes, it does not NAK).
    pub frames_dropped_down: u64,
}

/// The simulation: network, hosts, routers, processes, and the event loop.
pub struct World {
    events: EventQueue<Event>,
    net: Network,
    hosts: Vec<Host>,
    routers: Vec<Router>,
    /// `StationId.0` → owning host or router interface.
    station_owner: Vec<StationOwner>,
    /// Where `Network::transmit_owned` leaves its deliveries for `fan_out`:
    /// emptied before the event ends, its capacity kept for the next one.
    deliveries: Vec<Delivery>,
    /// Likewise, where a forwarder leaves its `(interface, frame)` outputs
    /// for `router_transmit`.
    forwards: Vec<(usize, Vec<u8>)>,
    /// The running fold of every event popped so far
    /// ([`World::history_digest`]).
    digest: u64,
}

impl World {
    /// Creates an empty world with a deterministic network seed.
    pub fn new(seed: u64) -> Self {
        World {
            events: EventQueue::new(),
            net: Network::new(seed),
            hosts: Vec::new(),
            routers: Vec::new(),
            station_owner: Vec::new(),
            deliveries: Vec::new(),
            forwards: Vec::new(),
            digest: 0,
        }
    }

    /// A 64-bit fold of the run's history so far: each popped event's
    /// time, variant, host or router and frame length, in pop order. Two
    /// runs that end with equal digests almost surely fired the same
    /// events in the same order, which equal end-state counters do not
    /// show.
    pub fn history_digest(&self) -> u64 {
        self.digest
    }

    /// Adds a network segment.
    pub fn add_segment(&mut self, medium: Medium, faults: FaultModel) -> SegmentId {
        self.net.add_segment(medium, faults)
    }

    /// Adds a host attached to `segment` with link address `addr`.
    pub fn add_host(
        &mut self,
        name: impl Into<String>,
        segment: SegmentId,
        addr: u64,
        costs: CostModel,
    ) -> HostId {
        let station = self.net.add_station(segment, addr);
        debug_assert_eq!(station.0, self.station_owner.len());
        let id = HostId(self.hosts.len());
        self.station_owner.push(StationOwner::Host(id.0));
        self.hosts.push(Host {
            name: name.into(),
            station,
            costs,
            cores: vec![Core::default()],
            rss: RssConfig::single_queue(),
            counters: Counters::new(),
            device: PfDevice::new(),
            outcome: DemuxOutcome::default(),
            procs: Vec::new(),
            current: None,
            protocols: Vec::new(),
            socks: Vec::new(),
            pipes: Vec::new(),
            nic_capacity: DEFAULT_NIC_CAPACITY,
            overload: None,
            contended: false,
            tx_free_at: SimTime::ZERO,
        });
        id
    }

    /// Adds a router with one station per `(segment, link address)` pair,
    /// running `forwarder` as its kernel-resident forwarding plane. Each
    /// forwarding decision costs `costs.ip_forward` on the router's CPU;
    /// each interface transmits serially like a host NIC.
    pub fn add_router(
        &mut self,
        name: impl Into<String>,
        ifaces: Vec<(SegmentId, u64)>,
        forwarder: Box<dyn Forwarder>,
        costs: CostModel,
    ) -> RouterId {
        assert!(!ifaces.is_empty(), "a router needs at least one interface");
        let id = RouterId(self.routers.len());
        let mut stations = Vec::with_capacity(ifaces.len());
        for (iface, (segment, addr)) in ifaces.into_iter().enumerate() {
            let station = self.net.add_station(segment, addr);
            debug_assert_eq!(station.0, self.station_owner.len());
            self.station_owner.push(StationOwner::Router {
                router: id.0,
                iface,
            });
            stations.push(station);
        }
        let tx_free_at = vec![SimTime::ZERO; stations.len()];
        let tick_interval = forwarder.tick_interval();
        let seen = forwarder.stats();
        self.routers.push(Router {
            name: name.into(),
            stations,
            forwarder,
            cpu: Cpu::new(),
            costs,
            counters: RouterCounters::default(),
            tx_free_at,
            up: true,
            tick_interval,
            seen,
        });
        if let Some(interval) = tick_interval {
            let now = self.events.now();
            self.events
                .schedule(now + interval, Event::RouterTick { router: id });
        }
        id
    }

    /// Spawns a process on a host; its [`App::start`] runs at the current
    /// virtual time.
    pub fn spawn(&mut self, host: HostId, app: Box<dyn App>) -> ProcId {
        let h = &mut self.hosts[host.0];
        let proc = ProcId(h.procs.len());
        h.procs.push(ProcSlot {
            app: Some(app),
            ports: Vec::new(),
            core: None,
        });
        let now = self.events.now();
        self.events.schedule(now, Event::Start { host, proc });
        proc
    }

    /// Registers a kernel-resident protocol on a host (figure 3-3's
    /// coexistence model).
    pub fn register_protocol(&mut self, host: HostId, proto: Box<dyn KernelProtocol>) {
        self.hosts[host.0].protocols.push(Some(proto));
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.events.now()
    }

    /// A host's event counters.
    pub fn counters(&self, host: HostId) -> &Counters {
        &self.hosts[host.0].counters
    }

    /// A host's gprof-style profiler (core 0's).
    pub fn profiler(&self, host: HostId) -> &Profiler {
        self.cpu(host).profiler()
    }

    /// A host's CPU (for utilization queries): core 0, the only one unless
    /// [`World::set_rss`] gave it more.
    pub fn cpu(&self, host: HostId) -> &Cpu {
        self.core_cpu(host, 0)
    }

    /// The CPU of one of a host's cores.
    pub fn core_cpu(&self, host: HostId, core: usize) -> &Cpu {
        &self.hosts[host.0].cores[core].cpu
    }

    /// A host's packet-filter device (introspection for tests/monitors).
    pub fn device(&self, host: HostId) -> &PfDevice {
        &self.hosts[host.0].device
    }

    /// A host's configured name.
    pub fn host_name(&self, host: HostId) -> &str {
        &self.hosts[host.0].name
    }

    /// A router's configured name.
    pub fn router_name(&self, router: RouterId) -> &str {
        &self.routers[router.0].name
    }

    /// A router's event-loop counters.
    pub fn router_counters(&self, router: RouterId) -> RouterCounters {
        self.routers[router.0].counters
    }

    /// A router's forwarding-plane statistics.
    pub fn router_stats(&self, router: RouterId) -> ForwarderStats {
        self.routers[router.0].forwarder.stats()
    }

    /// A router's CPU (for utilization queries).
    pub fn router_cpu(&self, router: RouterId) -> &Cpu {
        &self.routers[router.0].cpu
    }

    /// Installs or replaces one route in a router's forwarding plane
    /// (routing churn, from the control plane's point of view). Returns
    /// whether the forwarder accepted the update.
    pub fn update_route(&mut self, router: RouterId, route: Route) -> bool {
        self.routers[router.0].forwarder.update_route(route)
    }

    /// Crashes (`up = false`) or recovers (`up = true`) a router
    /// immediately. A crashed router silently drops every arriving frame
    /// and its forwarder receives no ticks; forwarder state survives the
    /// outage.
    pub fn set_router_up(&mut self, router: RouterId, up: bool) {
        self.routers[router.0].up = up;
    }

    /// Whether a router is currently up.
    pub fn router_up(&self, router: RouterId) -> bool {
        self.routers[router.0].up
    }

    /// Sets a segment's administrative link state immediately (see
    /// [`Network::set_link_state`]).
    pub fn set_link_state(&mut self, segment: SegmentId, up: bool) {
        self.net.set_link_state(segment, up);
    }

    /// Schedules a router crash or recovery at virtual time `at`
    /// (routing-plane fault injection).
    pub fn schedule_router_state(&mut self, router: RouterId, up: bool, at: SimTime) {
        self.events.schedule(at, Event::RouterState { router, up });
    }

    /// Schedules a link outage or restoration at virtual time `at`.
    pub fn schedule_link_state(&mut self, segment: SegmentId, up: bool, at: SimTime) {
        self.events.schedule(at, Event::LinkState { segment, up });
    }

    /// A segment's fault-injection tally (losses, duplicates,
    /// corruptions, partition and link-down drops).
    pub fn segment_faults(&self, segment: SegmentId) -> pf_net::segment::FaultCounters {
        self.net.faults_on(segment)
    }

    /// Sets a host's NIC receive-ring capacity (per receive queue).
    pub fn set_nic_capacity(&mut self, host: HostId, frames: usize) {
        self.hosts[host.0].nic_capacity = frames;
    }

    /// Gives a host `rss.queues` cores, one receive queue each, and steers
    /// every arriving frame to one of them ([`RssConfig::steer`]). The host
    /// keeps its one packet-filter device; the cores decide only where
    /// work is charged ([`crate::rss`]). Call it before the host's
    /// processes bind filters: a process placed earlier stays on core 0.
    pub fn set_rss(&mut self, host: HostId, rss: RssConfig) {
        assert!(rss.queues >= 1, "need at least one receive queue");
        let h = &mut self.hosts[host.0];
        h.cores.resize_with(rss.queues, Core::default);
        h.rss = rss;
    }

    /// Models other active processes on the host (§6.5.1): every wakeup of
    /// a blocked process then costs two context switches.
    pub fn set_contended(&mut self, host: HostId, on: bool) {
        self.hosts[host.0].contended = on;
    }

    /// Arms (or disarms) the receive-livelock armor on a host: once the
    /// NIC ring occupancy reaches the high-water mark the receive path
    /// stops taking per-packet interrupts and drains bounded batches from
    /// a periodic poll tick instead. Disarming drains any buffered backlog
    /// immediately and returns to per-packet interrupts.
    pub fn set_overload_armor(&mut self, host: HostId, config: Option<OverloadConfig>) {
        self.hosts[host.0].overload = config;
        if config.is_none() {
            let now = self.events.now();
            for core in 0..self.hosts[host.0].cores.len() {
                let h = &mut self.hosts[host.0];
                if h.cores[core].polling {
                    h.cores[core].polling = false;
                    h.counters.rx_mode_switches += 1;
                }
                // Nothing parks a frame while the host takes interrupts,
                // so the backlog only shrinks from here.
                while let Some(frame) = self.hosts[host.0].cores[core].rx_backlog.pop_front() {
                    self.receive_upcall(host, core, frame, now);
                }
            }
        }
    }

    /// A host's overload-armor parameters, if armed.
    pub fn overload_armor(&self, host: HostId) -> Option<OverloadConfig> {
        self.hosts[host.0].overload
    }

    /// Whether any of a host's cores is currently polling its receive
    /// queue.
    pub fn rx_polling(&self, host: HostId) -> bool {
        self.hosts[host.0].cores.iter().any(|c| c.polling)
    }

    /// Arms (or disarms) the admission gate on a host's packet-filter
    /// device: a cheap pre-demux probe that classifies each arriving frame
    /// by the bound filters' leading literal test and sheds best-effort
    /// traffic against per-port token buckets before any filter runs.
    pub fn set_admission_control(&mut self, host: HostId, config: Option<AdmissionConfig>) {
        self.hosts[host.0].device.set_admission_control(config);
    }

    /// Bounds candidates evaluated per packet under a host's geom engine
    /// ([`PfDevice::set_geom_candidate_cap`]): the overlap-bomb
    /// mitigation. Inert under every other engine.
    pub fn set_geom_candidate_cap(&mut self, host: HostId, cap: Option<usize>) {
        self.hosts[host.0].device.set_geom_candidate_cap(cap);
    }

    /// Enables or disables the §3.2 adaptive reordering of equal-priority
    /// filters on a host's packet-filter device (an ablation knob; on by
    /// default).
    pub fn set_adaptive_reorder(&mut self, host: HostId, on: bool) {
        self.hosts[host.0].device.set_adaptive_reorder(on);
    }

    /// Selects a host's demultiplexing engine: the paper's sequential
    /// interpreter loop (the default) or §7's compiled decision table.
    pub fn set_demux_engine(&mut self, host: HostId, engine: DemuxEngine) {
        self.hosts[host.0].device.set_engine(engine);
    }

    /// Sets (or clears) the per-evaluation filter instruction budget on a
    /// host's packet-filter device. Filters that could exceed the budget
    /// are quarantined: excluded from the compiled engines and served by
    /// the budgeted checked interpreter (graceful degradation instead of a
    /// runaway demultiplexer).
    pub fn set_filter_budget(&mut self, host: HostId, budget: Option<u32>) {
        let h = &mut self.hosts[host.0];
        let newly = h.device.set_instruction_budget(budget);
        h.counters.filters_quarantined += u64::from(newly);
    }

    /// The network (e.g. for segment statistics).
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Downcasts a process's [`App`] to its concrete type, for harvesting
    /// results after a run.
    pub fn app_ref<T: App>(&self, host: HostId, proc: ProcId) -> Option<&T> {
        let app = self.hosts[host.0].procs[proc.0].app.as_deref()?;
        (app as &dyn Any).downcast_ref::<T>()
    }

    /// Downcasts a host's registered kernel protocol by concrete type.
    pub fn protocol_ref<T: KernelProtocol>(&self, host: HostId) -> Option<&T> {
        self.hosts[host.0]
            .protocols
            .iter()
            .filter_map(|p| p.as_deref())
            .find_map(|p| (p as &dyn Any).downcast_ref::<T>())
    }

    /// Injects a frame as if it arrived from the wire at time `at` (test
    /// and trace-replay hook).
    pub fn inject_frame(&mut self, host: HostId, frame: Vec<u8>, at: SimTime) {
        let seq = self.events.next_seq();
        self.events
            .schedule(at, Event::FrameArrival { host, frame, seq });
    }

    /// Schedules `frame` for transmission from `host`'s NIC at time `at`:
    /// the flow-generator entry point. The driver transmit cost is charged
    /// at `at`; the NIC serializes with any concurrent sends.
    pub fn send_frame_at(&mut self, host: HostId, frame: Vec<u8>, at: SimTime) {
        self.events.schedule(at, Event::Transmit { host, frame });
    }

    fn dispatch(&mut self, now: SimTime, event: Event) {
        match event {
            Event::Start { host, proc } => {
                self.invoke_app(host, proc, |app, k| app.start(k));
            }
            Event::FrameArrival { host, frame, seq } => self.frame_arrival(host, frame, now, seq),
            Event::DeliverPackets {
                host,
                proc,
                fd,
                packets,
            } => {
                self.invoke_app(host, proc, |app, k| app.on_packets(fd, packets, k));
            }
            Event::ReadFail {
                host,
                proc,
                fd,
                err,
                port,
                generation,
            } => {
                if let Some(generation) = generation {
                    // A timeout: only valid if that exact read is still
                    // pending (completions cancel the event, but be safe;
                    // a port closed since has none).
                    let device = &mut self.hosts[host.0].device;
                    match &device.port(port).pending {
                        Some(pr) if pr.generation == generation => {
                            device.port_mut(port).pending = None;
                        }
                        _ => return,
                    }
                }
                self.invoke_app(host, proc, |app, k| app.on_read_error(fd, err, k));
            }
            Event::Signal { host, proc, fd } => {
                self.invoke_app(host, proc, |app, k| app.on_signal(fd, k));
            }
            Event::Timer { host, proc, token } => {
                self.invoke_app(host, proc, |app, k| app.on_timer(token, k));
            }
            Event::PipeDeliver {
                host,
                proc,
                pipe,
                data,
            } => {
                self.invoke_app(host, proc, |app, k| app.on_pipe_data(pipe, data, k));
            }
            Event::SocketDeliver {
                host,
                proc,
                sock,
                completion,
            } => {
                let (op, data, meta) = *completion;
                self.invoke_app(host, proc, |app, k| app.on_socket(sock, op, data, meta, k));
            }
            Event::KTimer { host, proto, token } => {
                self.invoke_proto(host, 0, proto, |p, k| p.on_timer(token, k));
            }
            Event::PollTick { host, core } => self.poll_tick(host, core, now),
            Event::Handoff { host, port } => self.wake_owner(host, port, now),
            Event::Transmit { host, frame } => {
                let h = &mut self.hosts[host.0];
                let cost = h.costs.driver_tx_cost(frame.len());
                let done = h.cores[0].cpu.charge("kern:if-output", now, cost);
                self.transmit_frame(host, frame, done);
            }
            Event::RouterForward {
                router,
                iface,
                frame,
            } => self.router_forward(router, iface, frame, now),
            Event::RouterState { router, up } => {
                self.routers[router.0].up = up;
            }
            Event::LinkState { segment, up } => {
                self.net.set_link_state(segment, up);
            }
            Event::RouterTick { router } => self.router_tick(router, now),
            Event::Backpressure {
                host,
                proc,
                fd,
                depth,
            } => {
                self.invoke_app(host, proc, |app, k| app.on_backpressure(fd, depth, k));
            }
        }
    }

    /// Runs an app callback with the syscall context, using the take/put
    /// pattern so the app and the world can be borrowed simultaneously.
    fn invoke_app(
        &mut self,
        host: HostId,
        proc: ProcId,
        f: impl FnOnce(&mut dyn App, &mut ProcCtx<'_>),
    ) {
        let slot = &mut self.hosts[host.0].procs[proc.0];
        let Some(mut app) = slot.app.take() else {
            return;
        };
        let core = slot.core.unwrap_or(0);
        {
            let mut ctx = ProcCtx {
                world: self,
                host,
                proc,
                core,
            };
            f(app.as_mut(), &mut ctx);
        }
        self.hosts[host.0].procs[proc.0].app = Some(app);
    }

    /// Runs a kernel-protocol callback with the kernel context, charging
    /// its work to `core`.
    fn invoke_proto(
        &mut self,
        host: HostId,
        core: usize,
        proto: usize,
        f: impl FnOnce(&mut dyn KernelProtocol, &mut KernelCtx<'_>),
    ) {
        let Some(mut p) = self.hosts[host.0].protocols[proto].take() else {
            return;
        };
        {
            let mut ctx = KernelCtx {
                world: self,
                host,
                proto,
                core,
            };
            f(p.as_mut(), &mut ctx);
        }
        self.hosts[host.0].protocols[proto] = Some(p);
    }

    /// The receive path: steering → driver → kernel protocol or packet
    /// filter, on the core the frame steers to.
    ///
    /// In polling mode (overload armor engaged) the frame is parked in the
    /// core's backlog for free — the poll tick pays the driver cost in
    /// batches; under per-packet interrupts the full driver receive cost is
    /// charged here, and sustained ring occupancy at the high-water mark
    /// flips the core into polling mode.
    fn frame_arrival(&mut self, host: HostId, frame: Vec<u8>, now: SimTime, seq: u64) {
        let h = &mut self.hosts[host.0];
        h.counters.packets_received += 1;
        let core = h.rss.steer(&frame);
        if core != 0 {
            h.counters.frames_steered += 1;
        }
        let c = &mut h.cores[core];
        if c.polling {
            if c.rx_backlog.len() >= h.nic_capacity {
                h.counters.drops_interface += 1;
                return;
            }
            c.rx_backlog.push_back(frame);
            if !c.poll_scheduled {
                c.poll_scheduled = true;
                let interval = h.overload.map(|c| c.poll_interval).unwrap_or_default();
                self.events
                    .schedule(now + interval, Event::PollTick { host, core });
            }
            return;
        }
        while c.rx_ring.front().is_some_and(|&done| done <= (now, seq)) {
            c.rx_ring.pop_front();
        }
        if c.rx_ring.len() >= h.nic_capacity {
            h.counters.drops_interface += 1;
            return;
        }
        let cost = h.costs.driver_rx_cost(frame.len());
        let done = c.cpu.charge("driver:rx", now, cost);
        // Read, not taken: what is scheduled next fires after it.
        c.rx_ring.push_back((done, self.events.next_seq()));
        debug_assert!(c.rx_ring.len() <= h.nic_capacity);
        if let Some(cfg) = h.overload {
            if c.rx_ring.len() >= cfg.hi_watermark {
                // The driver can no longer keep up with per-packet
                // interrupts: switch to polling. Frames already charged
                // keep their scheduled processing; new arrivals park in
                // the backlog until the first poll tick.
                c.polling = true;
                h.counters.rx_mode_switches += 1;
                if !c.poll_scheduled {
                    c.poll_scheduled = true;
                    self.events
                        .schedule(now + cfg.poll_interval, Event::PollTick { host, core });
                }
            }
        }
        self.receive_upcall(host, core, frame, now);
    }

    /// Hands one received frame up the stack on `core`: kernel-resident
    /// protocols get first claim on the Ethernet type (figure 3-3);
    /// everything else runs the admission gate (when armed) and then the
    /// packet filter.
    ///
    /// Returns whether the frame consumed demultiplexing work (claimed by
    /// a kernel protocol or passed into the filter ladder). A gate-shed
    /// frame returns `false`: it cost one probe and nothing else, which is
    /// what lets the poll tick shed a flood without spending its bounded
    /// demux batch on frames that were never going to be delivered.
    fn receive_upcall(&mut self, host: HostId, core: usize, frame: Vec<u8>, now: SimTime) -> bool {
        let h = &mut self.hosts[host.0];
        if h.rss.queues > 1 {
            let c = h.costs.rss_hash;
            h.cores[core].cpu.charge("driver:rss", now, c);
        }
        let medium = *self.net.medium_of(h.station);
        if let Ok(header) = frame::parse(&medium, &frame) {
            let claimed = h
                .protocols
                .iter()
                .position(|p| p.as_deref().is_some_and(|p| p.claims(header.ethertype)));
            if let Some(pi) = claimed {
                self.invoke_proto(host, core, pi, |p, k| p.input(frame, k));
                return true;
            }
        }

        // The admission gate: one cheap probe ahead of the filter ladder;
        // shed frames never reach a filter (drop-at-NIC).
        let h = &mut self.hosts[host.0];
        if h.device.admission_control().is_some() {
            let c = h.costs.admission_probe;
            h.cores[core].cpu.charge("pf:admit", now, c);
            match h.device.admit(&frame, now) {
                AdmissionVerdict::Shed { .. } => {
                    h.counters.drops_admission += 1;
                    return false;
                }
                AdmissionVerdict::ShedMimic { .. } => {
                    // Attributed separately: an adversarial drop, not
                    // quota exhaustion.
                    h.counters.drops_mimicry_shed += 1;
                    return false;
                }
                AdmissionVerdict::Admit => {}
            }
        }

        self.pf_demux(host, core, frame, now);
        true
    }

    /// One polled drain pass of `core`'s backlog: charges the fixed batch
    /// cost, hands frames up the stack until `poll_batch` of them have
    /// consumed real demux work (each at the cheap per-packet polling
    /// cost), and either re-arms the tick or — when the backlog has fallen
    /// to the low-water mark — finishes it off and returns to per-packet
    /// interrupts.
    ///
    /// Frames the admission gate sheds cost only the probe and do *not*
    /// count against the batch: the gate runs at line rate, so a flood of
    /// doomed best-effort frames cannot starve admitted traffic of the
    /// tick's bounded demultiplexing budget.
    fn poll_tick(&mut self, host: HostId, core: usize, now: SimTime) {
        let h = &mut self.hosts[host.0];
        let c = &mut h.cores[core];
        c.poll_scheduled = false;
        let Some(cfg) = h.overload.filter(|_| c.polling) else {
            return;
        };
        h.counters.poll_batches += 1;
        c.cpu.charge("driver:poll", now, h.costs.poll_batch);
        let mut demuxed = 0usize;
        while demuxed < cfg.poll_batch {
            let Some(frame) = self.hosts[host.0].cores[core].rx_backlog.pop_front() else {
                break;
            };
            if self.receive_upcall(host, core, frame, now) {
                demuxed += 1;
                let h = &mut self.hosts[host.0];
                let c = h.costs.poll_per_packet;
                h.cores[core].cpu.charge("driver:poll", now, c);
            }
        }
        let h = &mut self.hosts[host.0];
        let c = &mut h.cores[core];
        if c.rx_backlog.len() > cfg.lo_watermark {
            c.poll_scheduled = true;
            self.events
                .schedule(now + cfg.poll_interval, Event::PollTick { host, core });
            return;
        }
        c.polling = false;
        h.counters.rx_mode_switches += 1;
        while let Some(frame) = self.hosts[host.0].cores[core].rx_backlog.pop_front() {
            let h = &mut self.hosts[host.0];
            let c = h.costs.poll_per_packet;
            h.cores[core].cpu.charge("driver:poll", now, c);
            self.receive_upcall(host, core, frame, now);
        }
    }

    /// The packet-filter demultiplexing path (figure 4-1 + §3.2) on `core`.
    fn pf_demux(&mut self, host: HostId, core: usize, frame: Vec<u8>, now: SimTime) {
        // Delivery changes the device while it walks the outcome, so the
        // host lends its own (and gets it back, grown vectors and all).
        let mut outcome = std::mem::take(&mut self.hosts[host.0].outcome);
        self.hosts[host.0].device.demux_into(&frame, &mut outcome);
        self.pf_deliver(host, core, frame, &outcome, now);
        self.hosts[host.0].outcome = outcome;
    }

    /// Charges a demultiplexed frame's engine work to `core` and queues the
    /// frame on the ports that accepted it. A port whose owner runs on
    /// another core is reached by a cross-core wakeup, paid here, and read
    /// there by a [`Event::Handoff`] when the wakeup lands.
    fn pf_deliver(
        &mut self,
        host: HostId,
        core: usize,
        mut frame: Vec<u8>,
        outcome: &DemuxOutcome,
        now: SimTime,
    ) {
        {
            let h = &mut self.hosts[host.0];
            let cpu = &mut h.cores[core].cpu;
            outcome.charge_engine_work(
                h.device.engine(),
                h.device.index_probes(),
                &h.costs,
                &mut h.counters,
                |routine, cost| {
                    cpu.charge(routine, now, cost);
                },
            );
        }
        if outcome.accepted.is_empty() {
            let h = &mut self.hosts[host.0];
            h.counters.drops_no_match += 1;
            // Feed the gate's mimicry-pressure statistic: this frame was
            // admitted (possibly on a protected signature) yet matched no
            // filter. Drives gate-signature re-selection when armed.
            if h.device.admission_control().is_some() && h.device.note_unmatched_admit(&frame) {
                h.counters.gate_resignature_events += 1;
            }
            return;
        }
        // The last acceptor takes the frame itself; only the ports before it
        // (deliver-to-lower) are handed copies.
        let last = outcome.accepted.len() - 1;
        for (i, &idx) in outcome.accepted.iter().enumerate() {
            let h = &mut self.hosts[host.0];
            let cpu = &mut h.cores[core].cpu;
            cpu.charge("pf:input", now, h.costs.pf_bookkeeping);
            let stamp = if h.device.port(idx).config.timestamp {
                cpu.charge("kern:microtime", now, h.costs.microtime);
                h.counters.timestamps += 1;
                Some(now)
            } else {
                None
            };
            let dropped_before = h.device.port(idx).drops;
            let pkt = RecvPacket {
                bytes: if i == last {
                    std::mem::take(&mut frame)
                } else {
                    frame.clone()
                },
                stamp,
                dropped_before,
            };
            let outcome = h.device.port_mut(idx).enqueue(pkt);
            let enqueued = outcome != EnqueueOutcome::Rejected;
            if enqueued {
                h.counters.packets_delivered += 1;
            }
            if outcome != EnqueueOutcome::Stored {
                h.counters.drops_queue_full += 1;
            }
            // Backpressure: the first enqueue at or above the mark
            // notifies the owner; re-armed when a read drains the queue
            // back below it.
            let p = h.device.port_mut(idx);
            let (proc, fd) = p.owner;
            if let Some(mark) = p.config.backpressure_mark {
                if p.queue.len() >= mark && !p.backpressured {
                    p.backpressured = true;
                    let depth = p.queue.len();
                    h.counters.backpressure_signals += 1;
                    h.counters.domain_crossings += 1;
                    let t = cpu.charge("kern:backpressure", now, h.costs.wakeup);
                    self.events.schedule(
                        t,
                        Event::Backpressure {
                            host,
                            proc,
                            fd,
                            depth,
                        },
                    );
                }
            }
            if !enqueued {
                continue;
            }
            if h.core_of(proc) == core {
                self.wake_owner(host, idx, now);
            } else {
                let sent = h.cores[core]
                    .cpu
                    .charge("mc:wakeup", now, h.costs.mc_wakeup);
                h.counters.cross_core_wakeups += 1;
                self.events
                    .schedule(sent, Event::Handoff { host, port: idx });
            }
        }
    }

    /// Tells the owner of `idx`, on its own core, that packets are queued
    /// there: completes its blocked read, or signals it.
    fn wake_owner(&mut self, host: HostId, idx: PortIdx, now: SimTime) {
        let h = &mut self.hosts[host.0];
        let port = h.device.port(idx);
        if port.queue.is_empty() {
            // A handoff whose packets an earlier read already took.
        } else if port.pending.is_some() {
            self.complete_read(host, idx, true);
        } else if port.config.signal_on_input {
            let (proc, fd) = port.owner;
            h.counters.signals_delivered += 1;
            h.counters.domain_crossings += 1;
            let cost = h.costs.wakeup + h.costs.context_switch;
            h.counters.context_switches += 1;
            h.current = Some(proc);
            let core = h.core_of(proc);
            let t = h.cores[core].cpu.charge("kern:psignal", now, cost);
            self.events.schedule(t, Event::Signal { host, proc, fd });
        }
    }

    /// Completes a read on `port`: drains packets per the read mode,
    /// charges wakeup/switch/copy costs to the reader's core, and
    /// schedules the delivery.
    ///
    /// `was_blocked` selects whether wakeup and context-switch costs apply
    /// (they do not when a read finds data already queued).
    fn complete_read(&mut self, host: HostId, idx: PortIdx, was_blocked: bool) {
        let now = self.events.now();
        let h = &mut self.hosts[host.0];
        let port = h.device.port_mut(idx);
        if let Some(pending) = port.pending.take() {
            if let Some(t) = pending.timeout {
                self.events.cancel(t);
            }
        }
        let (proc, fd) = port.owner;
        let n = match port.config.read_mode {
            ReadMode::Single => 1,
            ReadMode::Batch => port.queue.len().max(1),
        };
        let packets: Vec<RecvPacket> = port.queue.drain(..n.min(port.queue.len())).collect();
        debug_assert!(!packets.is_empty(), "complete_read requires queued data");
        if let Some(mark) = port.config.backpressure_mark {
            if port.queue.len() < mark {
                port.backpressured = false;
            }
        }

        let core = h.core_of(proc);
        let mut t = now;
        if was_blocked {
            let wake = h.costs.wakeup;
            t = h.cores[core].cpu.charge("kern:wakeup", now, wake);
        }
        // On a contended host the reader was preempted between packets even
        // if its read found data queued, so dispatch costs apply either way.
        if was_blocked || h.contended {
            t = t.max(h.charge_wakeup_switch(now, proc, core));
        }
        for p in &packets {
            h.counters.copies += 1;
            h.counters.bytes_copied += p.bytes.len() as u64;
            let c = h.costs.copy(p.bytes.len());
            t = h.cores[core].cpu.charge("pf:read-copyout", now, c);
        }
        self.events.schedule(
            t,
            Event::DeliverPackets {
                host,
                proc,
                fd,
                packets,
            },
        );
    }

    /// Shared transmit path: serializes on the host's NIC and fans the
    /// frame out as arrival events at the receiving stations.
    fn transmit_frame(&mut self, host: HostId, frame: Vec<u8>, earliest: SimTime) {
        let h = &mut self.hosts[host.0];
        let start = earliest.max(h.tx_free_at);
        h.tx_free_at = self
            .net
            .transmit_owned(h.station, frame, start, &mut self.deliveries);
        h.counters.packets_sent += 1;
        self.fan_out();
    }

    /// Schedules each pending delivery at its owning station: hosts take a
    /// `FrameArrival` (the driver receive path), router interfaces take a
    /// `RouterForward` (the forwarding path). The frame buffer moves from
    /// the delivery into the event.
    fn fan_out(&mut self) {
        for d in self.deliveries.drain(..) {
            let event = match self.station_owner[d.station.0] {
                StationOwner::Host(h) => Event::FrameArrival {
                    host: HostId(h),
                    frame: d.frame,
                    seq: self.events.next_seq(),
                },
                StationOwner::Router { router, iface } => Event::RouterForward {
                    router: RouterId(router),
                    iface,
                    frame: d.frame,
                },
            };
            self.events.schedule(d.arrival, event);
        }
    }

    /// The router receive-and-forward path: charge the forwarding decision
    /// on the router's CPU, hand the frame to the forwarding plane, and
    /// transmit each output serialized on its interface. A crashed
    /// router silently drops the frame without charging anything (its CPU
    /// is not executing).
    ///
    /// Resilience work the forwarding plane did while handling the frame
    /// is priced by diffing its [`ForwarderStats`] against the last call's:
    /// control-frame processing costs `lsu_process` each and a triggered
    /// route recomputation costs `route_recompute`, on top of the
    /// unconditional `ip_forward` decision.
    fn router_forward(&mut self, router: RouterId, iface: usize, frame: Vec<u8>, now: SimTime) {
        let r = &mut self.routers[router.0];
        if !r.up {
            r.counters.frames_dropped_down += 1;
            return;
        }
        r.counters.frames_in += 1;
        let cost = r.costs.ip_forward;
        let mut decided = r.cpu.charge("ip:forward", now, cost);
        r.forwarder.forward_owned(iface, frame, &mut self.forwards);
        let before = std::mem::replace(&mut r.seen, r.forwarder.stats());
        let control = r.seen.control_in - before.control_in;
        if control > 0 {
            let c = r.costs.lsu_process.times(control);
            decided = r.cpu.charge("ip:control", now, c);
        }
        let recomputes = r.seen.reconvergences - before.reconvergences;
        if recomputes > 0 {
            let c = r.costs.route_recompute.times(recomputes);
            decided = r.cpu.charge("ip:reconverge", now, c);
        }
        self.router_transmit(router, decided);
    }

    /// One periodic forwarder tick: reschedules itself unconditionally
    /// (so outages need no re-arming), then — if the router is up — runs
    /// the forwarding plane's timer work, charges the probing and
    /// recomputation it did (stats diff, as in `router_forward`), and
    /// transmits whatever control frames it emitted.
    fn router_tick(&mut self, router: RouterId, now: SimTime) {
        let Some(interval) = self.routers[router.0].tick_interval else {
            return;
        };
        self.events
            .schedule(now + interval, Event::RouterTick { router });
        let r = &mut self.routers[router.0];
        if !r.up {
            return;
        }
        self.forwards.extend(r.forwarder.tick(now));
        let before = std::mem::replace(&mut r.seen, r.forwarder.stats());
        let mut decided = now;
        let hellos = r.seen.hellos_sent - before.hellos_sent;
        if hellos > 0 {
            let c = r.costs.hello_emit.times(hellos);
            decided = r.cpu.charge("ip:hello", now, c);
        }
        let recomputes = r.seen.reconvergences - before.reconvergences;
        if recomputes > 0 {
            let c = r.costs.route_recompute.times(recomputes);
            decided = r.cpu.charge("ip:reconverge", now, c);
        }
        self.router_transmit(router, decided);
    }

    /// Transmits the pending forwarder outputs, each serialized on its
    /// interface.
    fn router_transmit(&mut self, router: RouterId, decided: SimTime) {
        let mut outs = std::mem::take(&mut self.forwards);
        for (out_iface, out_frame) in outs.drain(..) {
            let r = &mut self.routers[router.0];
            let start = decided.max(r.tx_free_at[out_iface]);
            r.tx_free_at[out_iface] = self.net.transmit_owned(
                r.stations[out_iface],
                out_frame,
                start,
                &mut self.deliveries,
            );
            r.counters.frames_out += 1;
            self.fan_out();
        }
        self.forwards = outs;
    }
}

/// The unified run-loop: [`SimClock::run`] and [`SimClock::run_until`]
/// drive the world exactly as the old inherent methods did.
impl SimClock for World {
    fn now(&self) -> SimTime {
        self.events.now()
    }

    fn next_event_time(&mut self) -> Option<SimTime> {
        self.events.peek_time()
    }

    fn step(&mut self) -> bool {
        match self.events.pop() {
            Some((t, ev)) => {
                self.digest = (self.digest ^ ev.digest_key(t)).wrapping_mul(DIGEST_PRIME);
                self.dispatch(t, ev);
                true
            }
            None => false,
        }
    }
}

/// The system-call surface handed to a user process during a callback.
///
/// Every method charges the costs a 4.3BSD kernel would: system-call
/// overhead, kernel↔user copies, context switches on wakeups, and the
/// packet-filter device's own bookkeeping — all per the host's
/// [`CostModel`].
pub struct ProcCtx<'a> {
    world: &'a mut World,
    host: HostId,
    proc: ProcId,
    /// The core the process runs on, where its calls are charged.
    core: usize,
}

impl ProcCtx<'_> {
    fn h(&mut self) -> &mut Host {
        &mut self.world.hosts[self.host.0]
    }

    /// The CPU of the core this process runs on.
    fn cpu(&mut self) -> &mut Cpu {
        let core = self.core;
        &mut self.h().cores[core].cpu
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.world.events.now()
    }

    /// This process's id.
    pub fn proc_id(&self) -> ProcId {
        self.proc
    }

    /// This host's id.
    pub fn host_id(&self) -> HostId {
        self.host
    }

    /// The data-link description and this host's link address (§3.3's
    /// status information).
    pub fn link_info(&self) -> (Medium, u64) {
        let station = self.world.hosts[self.host.0].station;
        (
            *self.world.net.medium_of(station),
            self.world.net.addr_of(station),
        )
    }

    /// Charges one system call's entry/exit overhead.
    fn charge_syscall(&mut self, routine: &'static str) -> SimTime {
        let now = self.world.events.now();
        let h = self.h();
        h.counters.syscalls += 1;
        h.counters.domain_crossings += 2;
        let c = h.costs.syscall;
        self.cpu().charge(routine, now, c)
    }

    /// Charges user-level computation (protocol processing in the process,
    /// display work, etc.) against this host's CPU; returns the completion
    /// time. No domain crossing is involved.
    pub fn compute(&mut self, routine: &'static str, cost: SimDuration) -> SimTime {
        let now = self.world.events.now();
        self.cpu().charge(routine, now, cost)
    }

    /// The host's cost model (so user-level protocol code can scale its
    /// own processing costs to the machine it runs on).
    pub fn costs(&self) -> &CostModel {
        &self.world.hosts[self.host.0].costs
    }

    /// Opens a packet-filter port; returns its descriptor.
    pub fn pf_open(&mut self) -> Fd {
        self.charge_syscall("pf:open");
        let proc = self.proc;
        let h = self.h();
        let fd = Fd(FIRST_FD + h.procs[proc.0].ports.len());
        let idx = h.device.open((proc, fd));
        h.procs[proc.0].ports.push(Some(idx));
        fd
    }

    /// Closes a packet-filter port.
    pub fn pf_close(&mut self, fd: Fd) {
        self.charge_syscall("pf:close");
        let proc = self.proc;
        let h = self.h();
        if let Some(idx) = h.port_of(proc, fd) {
            h.device.close(idx);
            h.procs[proc.0].ports[fd.0 - FIRST_FD] = None;
        }
    }

    /// Binds a filter to a port — "at a cost comparable to that of
    /// receiving a packet" (§3.1).
    ///
    /// Returns `false` when the filter was quarantined at bind time (it
    /// failed validation or could exceed the host's instruction budget);
    /// the port still works, served by the checked interpreter.
    pub fn pf_set_filter(&mut self, fd: Fd, filter: FilterProgram) -> bool {
        self.charge_syscall("pf:ioctl");
        let now = self.world.events.now();
        let proc = self.proc;
        let cost = self.h().costs.pf_bookkeeping;
        self.cpu().charge("pf:ioctl", now, cost);
        let h = &mut self.world.hosts[self.host.0];
        if let Some(idx) = h.port_of(proc, fd) {
            let slot = &mut h.procs[proc.0];
            if slot.core.is_none() {
                slot.core = h.rss.placement_of(&filter);
                self.core = slot.core.unwrap_or(0);
            }
            let clean = h.device.set_filter(idx, filter);
            if !clean {
                h.counters.filters_quarantined += 1;
            }
            clean
        } else {
            false
        }
    }

    /// Updates a port's configuration (§3.3's `ioctl` controls).
    pub fn pf_configure(&mut self, fd: Fd, config: PortConfig) {
        self.charge_syscall("pf:ioctl");
        let proc = self.proc;
        let h = self.h();
        if let Some(idx) = h.port_of(proc, fd) {
            h.device.port_mut(idx).config = config;
        }
    }

    /// Overrides the admission gate's quota for this port (`None` returns
    /// the port to the gate's default quota). Takes effect only while the
    /// host has admission control armed.
    pub fn pf_set_quota(&mut self, fd: Fd, quota: Option<AdmissionQuota>) {
        self.charge_syscall("pf:ioctl");
        let proc = self.proc;
        let h = self.h();
        if let Some(idx) = h.port_of(proc, fd) {
            h.device.set_port_quota(idx, quota);
        }
    }

    /// Dropped-packet count for a port (§3.3 status information).
    pub fn pf_drops(&mut self, fd: Fd) -> u64 {
        let proc = self.proc;
        let h = self.h();
        h.port_of(proc, fd)
            .map_or(0, |idx| h.device.port(idx).drops)
    }

    /// Full status snapshot for a port (§3.3 status information plus the
    /// degradation counters: quarantine state and budget overruns).
    pub fn pf_port_stats(&mut self, fd: Fd) -> Option<PortStats> {
        let proc = self.proc;
        let h = self.h();
        let idx = h.port_of(proc, fd)?;
        Some(h.device.port(idx).stats())
    }

    /// Whether `fd` names one of this process's open packet-filter ports.
    fn check_fd(&self, fd: Fd) -> Result<(), SendError> {
        let h = &self.world.hosts[self.host.0];
        h.port_of(self.proc, fd)
            .map(|_| ())
            .ok_or(SendError::BadDescriptor)
    }

    /// Whether a frame of `len` bytes fits the medium.
    fn check_frame_len(&self, len: usize) -> Result<(), SendError> {
        let (medium, _) = self.link_info();
        match len {
            _ if len < medium.header_len => Err(SendError::FrameTooShort),
            _ if len > medium.max_packet => Err(SendError::FrameTooLong),
            _ => Ok(()),
        }
    }

    /// One written frame, the system call paid for: copy in, output work,
    /// driver, wire. The copy is a charge; the buffer itself moves.
    fn queue_for_transmit(&mut self, frame: Vec<u8>) {
        let (now, core) = (self.world.events.now(), self.core);
        let h = self.h();
        h.counters.copies += 1;
        h.counters.bytes_copied += frame.len() as u64;
        let cpu = &mut h.cores[core].cpu;
        cpu.charge("pf:write-copyin", now, h.costs.copy(frame.len()));
        cpu.charge("pf:output", now, h.costs.pf_send_fixed);
        let done = cpu.charge("driver:tx", now, h.costs.driver_tx_cost(frame.len()));
        self.world.transmit_frame(self.host, frame, done);
    }

    /// Transmits a complete frame (data-link header included) — §3's
    /// packet transmission: "control returns to the user once the packet is
    /// queued for transmission"; delivery is unreliable. Takes the buffer:
    /// it is the one that reaches the wire.
    ///
    /// # Errors
    ///
    /// Returns a [`SendError`] if `fd` is not an open port or the frame
    /// violates the medium's size limits; nothing is charged.
    pub fn pf_write_owned(&mut self, fd: Fd, frame: Vec<u8>) -> Result<(), SendError> {
        self.check_fd(fd)?;
        self.check_frame_len(frame.len())?;
        self.charge_syscall("pf:write");
        self.queue_for_transmit(frame);
        Ok(())
    }

    /// [`pf_write_owned`](Self::pf_write_owned), errors included, for a
    /// caller that keeps its frame.
    pub fn pf_write(&mut self, fd: Fd, frame_bytes: &[u8]) -> Result<(), SendError> {
        self.pf_write_owned(fd, frame_bytes.to_vec())
    }

    /// Transmits several complete frames in one system call — §7's
    /// proposed *write-batching* option ("a write-batching option (to send
    /// several packets in one system call) might also improve
    /// performance"). One syscall's entry/exit overhead covers the whole
    /// batch; per-frame copy, output, and driver costs still apply.
    ///
    /// # Errors
    ///
    /// Returns [`SendError::BadDescriptor`], charging nothing, if `fd` is
    /// not an open port. Otherwise returns the first frame's size
    /// violation, if any; frames before it are already queued (matching
    /// `writev` semantics).
    pub fn pf_write_batch(&mut self, fd: Fd, frames: &[Vec<u8>]) -> Result<(), SendError> {
        self.check_fd(fd)?;
        self.charge_syscall("pf:writev");
        for frame_bytes in frames {
            self.check_frame_len(frame_bytes.len())?;
            self.queue_for_transmit(frame_bytes.clone());
        }
        Ok(())
    }

    /// Arms a read on a packet-filter port. Completion arrives as
    /// [`App::on_packets`] (or [`App::on_read_error`] on timeout /
    /// would-block), per the port's configuration.
    pub fn pf_read(&mut self, fd: Fd) {
        self.charge_syscall("pf:read");
        let proc = self.proc;
        let host = self.host;
        let Some(idx) = self.world.hosts[host.0].port_of(proc, fd) else {
            return;
        };
        let has_data = !self.world.hosts[host.0].device.port(idx).queue.is_empty();
        if has_data {
            self.world.complete_read(host, idx, false);
            return;
        }
        let block = self.world.hosts[host.0].device.port(idx).config.block;
        match block {
            BlockPolicy::NonBlocking => {
                let now = self.world.events.now();
                self.world.events.schedule(
                    now,
                    Event::ReadFail {
                        host,
                        proc,
                        fd,
                        err: ReadError::WouldBlock,
                        port: idx,
                        generation: None,
                    },
                );
            }
            BlockPolicy::Blocking | BlockPolicy::Timeout(_) => {
                let generation = {
                    let port = self.world.hosts[host.0].device.port_mut(idx);
                    let g = port.next_generation;
                    port.next_generation += 1;
                    g
                };
                let timeout = if let BlockPolicy::Timeout(d) = block {
                    let at = self.world.events.now() + d;
                    Some(self.world.events.schedule(
                        at,
                        Event::ReadFail {
                            host,
                            proc,
                            fd,
                            err: ReadError::TimedOut,
                            port: idx,
                            generation: Some(generation),
                        },
                    ))
                } else {
                    None
                };
                self.world.hosts[host.0].device.port_mut(idx).pending = Some(PendingRead {
                    generation,
                    timeout,
                });
            }
        }
    }

    /// Puts this host's interface in promiscuous mode (network monitors).
    pub fn set_promiscuous(&mut self, on: bool) {
        let station = self.world.hosts[self.host.0].station;
        self.world.net.station(station).set_promiscuous(on);
    }

    /// Joins an Ethernet multicast group (the V-system's group IPC).
    pub fn join_multicast(&mut self, group: u64) {
        let station = self.world.hosts[self.host.0].station;
        self.world.net.station(station).join_multicast(group);
    }

    /// Sets a one-shot timer; [`App::on_timer`] fires with `token`.
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) -> TimerId {
        let (host, proc) = (self.host, self.proc);
        let at = self.world.events.now() + delay;
        TimerId(
            self.world
                .events
                .schedule(at, Event::Timer { host, proc, token }),
        )
    }

    /// Cancels a pending timer; `false` if it already fired or was cancelled.
    pub fn cancel_timer(&mut self, id: TimerId) -> bool {
        self.world.events.cancel(id.0)
    }

    /// Creates a pipe whose read end belongs to `reader`.
    pub fn pipe_to(&mut self, reader: ProcId) -> PipeId {
        let h = self.h();
        let id = PipeId(h.pipes.len());
        h.pipes.push(Pipe { reader, open: true });
        id
    }

    /// Writes `data` into a pipe. Unix has no shared memory here (§6.5.1):
    /// the data is copied in on write and out on the reader's read, with a
    /// wakeup and context switch in between. Both ends' system calls are
    /// charged.
    pub fn pipe_write(&mut self, pipe: PipeId, data: Vec<u8>) {
        let (host, core) = (self.host, self.core);
        self.charge_syscall("pipe:write");
        let now = self.world.events.now();
        let h = self.h();
        if !h.pipes.get(pipe.0).is_some_and(|p| p.open) {
            return;
        }
        let reader = h.pipes[pipe.0].reader;
        h.counters.copies += 2;
        h.counters.bytes_copied += 2 * data.len() as u64;
        let c_in = h.costs.copy(data.len());
        h.cores[core].cpu.charge("pipe:copyin", now, c_in);
        let c_ovh = h.costs.pipe_overhead + h.costs.wakeup;
        h.cores[core].cpu.charge("pipe:overhead", now, c_ovh);
        h.charge_wakeup_switch(now, reader, core);
        // The reader's read(2): syscall + copy out.
        h.counters.syscalls += 1;
        h.counters.domain_crossings += 2;
        let c_sys = h.costs.syscall;
        h.cores[core].cpu.charge("pipe:read", now, c_sys);
        let c_out = h.costs.copy(data.len());
        let t = h.cores[core].cpu.charge("pipe:copyout", now, c_out);
        self.world.events.schedule(
            t,
            Event::PipeDeliver {
                host,
                proc: reader,
                pipe,
                data,
            },
        );
    }

    /// Opens a kernel-protocol socket by protocol name; `None` if no such
    /// protocol is registered on this host.
    pub fn ksock_open(&mut self, proto_name: &str) -> Option<SockId> {
        self.charge_syscall("sock:open");
        let proc = self.proc;
        let h = self.h();
        let proto = h
            .protocols
            .iter()
            .position(|p| p.as_deref().is_some_and(|p| p.name() == proto_name))?;
        let id = SockId(h.socks.len());
        h.socks.push(Sock {
            owner: proc,
            proto,
            open: true,
        });
        Some(id)
    }

    /// Closes a kernel socket.
    pub fn ksock_close(&mut self, sock: SockId) {
        self.charge_syscall("sock:close");
        let host = self.host;
        let Some(s) = self.world.hosts[host.0].socks.get_mut(sock.0) else {
            return;
        };
        if !s.open {
            return;
        }
        s.open = false;
        let proto = s.proto;
        self.world
            .invoke_proto(host, self.core, proto, |p, k| p.sock_closed(sock, k));
    }

    /// Issues a protocol-defined request on a kernel socket, transferring
    /// `data` into the kernel. Completions arrive via [`App::on_socket`].
    pub fn ksock_request(&mut self, sock: SockId, op: u32, data: Vec<u8>, meta: [u64; 4]) {
        self.charge_syscall("sock:request");
        let host = self.host;
        let proc = self.proc;
        let now = self.world.events.now();
        let Some(s) = self.world.hosts[host.0].socks.get(sock.0) else {
            return;
        };
        if !s.open {
            return;
        }
        let proto = s.proto;
        if !data.is_empty() {
            let h = &mut self.world.hosts[host.0];
            h.counters.copies += 1;
            h.counters.bytes_copied += data.len() as u64;
            let c = h.costs.copy(data.len());
            h.cores[self.core].cpu.charge("sock:copyin", now, c);
        }
        self.world.invoke_proto(host, self.core, proto, |p, k| {
            p.user_request(proc, sock, op, data, meta, k)
        });
    }
}

/// The facilities the kernel gives a kernel-resident protocol.
pub struct KernelCtx<'a> {
    world: &'a mut World,
    host: HostId,
    proto: usize,
    /// The core the protocol's work is charged to: the one that received
    /// the frame, the calling process's, or core 0 for a timer.
    core: usize,
}

impl KernelCtx<'_> {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.world.events.now()
    }

    /// This host's id.
    pub fn host_id(&self) -> HostId {
        self.host
    }

    /// The host's cost model.
    pub fn costs(&self) -> &CostModel {
        &self.world.hosts[self.host.0].costs
    }

    /// The data-link description and this host's link address.
    pub fn link_info(&self) -> (Medium, u64) {
        let station = self.world.hosts[self.host.0].station;
        (
            *self.world.net.medium_of(station),
            self.world.net.addr_of(station),
        )
    }

    /// Charges protocol processing time under `routine`; returns the
    /// completion time.
    pub fn charge(&mut self, routine: &'static str, cost: SimDuration) -> SimTime {
        let now = self.world.events.now();
        let h = &mut self.world.hosts[self.host.0];
        h.cores[self.core].cpu.charge(routine, now, cost)
    }

    /// Mutable access to the host's counters.
    pub fn counters_mut(&mut self) -> &mut Counters {
        &mut self.world.hosts[self.host.0].counters
    }

    /// Transmits a frame from kernel context (charges driver costs). Takes
    /// the buffer: it is the one that reaches the wire.
    pub fn transmit(&mut self, frame: Vec<u8>) {
        let now = self.world.events.now();
        let host = self.host;
        let h = &mut self.world.hosts[host.0];
        let c = h.costs.driver_tx_cost(frame.len());
        let done = h.cores[self.core].cpu.charge("driver:tx", now, c);
        self.world.transmit_frame(host, frame, done);
    }

    /// Sets a kernel timer; [`KernelProtocol::on_timer`] fires with `token`.
    ///
    /// [`KernelProtocol::on_timer`]: crate::kproto::KernelProtocol::on_timer
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) -> EventHandle {
        let at = self.world.events.now() + delay;
        let host = self.host;
        let proto = self.proto;
        self.world
            .events
            .schedule(at, Event::KTimer { host, proto, token })
    }

    /// Cancels a kernel timer scheduled with [`KernelCtx::set_timer`].
    pub fn cancel_timer(&mut self, handle: EventHandle) -> bool {
        self.world.events.cancel(handle)
    }

    /// Completes a user operation on `sock`: wakes the owner (context
    /// switch), copies `data` out, and delivers [`App::on_socket`], the
    /// three charged to the owner's core.
    ///
    /// [`App::on_socket`]: crate::app::App::on_socket
    pub fn complete(&mut self, sock: SockId, op: u32, data: Vec<u8>, meta: [u64; 4]) {
        let now = self.world.events.now();
        let host = self.host;
        let Some(s) = self.world.hosts[host.0].socks.get(sock.0) else {
            return;
        };
        if !s.open {
            return;
        }
        let proc = s.owner;
        let h = &mut self.world.hosts[host.0];
        let wake = h.costs.wakeup;
        let core = h.core_of(proc);
        let mut t = h.cores[core].cpu.charge("kern:wakeup", now, wake);
        t = t.max(h.charge_wakeup_switch(now, proc, core));
        h.counters.domain_crossings += 1;
        if !data.is_empty() {
            h.counters.copies += 1;
            h.counters.bytes_copied += data.len() as u64;
            let c = h.costs.copy(data.len());
            t = h.cores[core].cpu.charge("sock:copyout", now, c);
        }
        self.world.events.schedule(
            t,
            Event::SocketDeliver {
                host,
                proc,
                sock,
                completion: Box::new((op, data, meta)),
            },
        );
    }

    /// The owner of a socket.
    pub fn sock_owner(&self, sock: SockId) -> Option<ProcId> {
        self.world.hosts[self.host.0]
            .socks
            .get(sock.0)
            .filter(|s| s.open)
            .map(|s| s.owner)
    }
}
