//! The system under test, seen from outside.
//!
//! Every call into the library crates is in this module and its
//! sub-modules; the rest of the benchmark sees plain data (byte vectors,
//! counts, nanoseconds). Each layer is measured by timing calls into its
//! public functions. Nothing here adds a switch, an environment variable or
//! a probe to a crate, so what is timed is what any caller gets.
//!
//! The public surface used (listed in the README as well): `World`,
//! `SimClock`, `App`/`ProcCtx`, `PfDevice`,
//! `DemuxEngine::{Sequential, DecisionTable, Geom}`, `GeomSet`,
//! `CheckedInterpreter`, `EventQueue`, `Cpu`, `Network`, `Topology`,
//! `IpRouter`/`deploy`, the BSP and VMTP apps and machines,
//! `CaptureApp`/`decode`/`TraceStats`, and `flowgen`.
//!
//! Traffic is simulated in-process: no frame crosses a real link or the
//! host's loopback interface.

mod device;
mod fabric;
mod flood;
mod lan;
mod replay;

pub use device::{pup_frame, sim_pass, Device, FilterSpec, SimPass, PUP_ETHERTYPE};
pub use fabric::{flow_schedule, Fabric, FabricParams, FlowPacket, SINK_FILTER};
pub use flood::{Flood, JUNK_FILTER, WANTED_FILTER};
pub use lan::{Lan, LanParams};
pub use replay::{DeviceLayers, Replayer, Wire};

use crate::stats::Log2Hist;
use pf_kernel::types::{HostId, RouterId};
use pf_kernel::{DemuxEngine, SimClock, World};
use pf_net::segment::SegmentId;
use pf_sim::time::SimTime;
use std::time::Instant;

/// The demultiplexing engines the benchmark names: the paper's loop, its §7
/// decision table, and the bulk engine ROADMAP keeps. The other engines and
/// the queue backend are deliberately not named: ROADMAP retires them, and a
/// change that claims a gain may not edit the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    Sequential,
    DecisionTable,
    Geom,
}

impl Engine {
    fn kernel(self) -> DemuxEngine {
        match self {
            Engine::Sequential => DemuxEngine::Sequential,
            Engine::DecisionTable => DemuxEngine::DecisionTable,
            Engine::Geom => DemuxEngine::Geom,
        }
    }
}

/// Runs `w` until its queue is empty, or through `deadline` when given.
/// Returns the number of `step()` calls that did work. With `steps`, takes
/// one timestamp per `SimClock::step` boundary, so that consecutive stamps
/// pair up around every call, and records the differences.
fn run_world(w: &mut World, deadline: Option<SimTime>, steps: Option<&mut Log2Hist>) -> u64 {
    let due = |w: &mut World| match deadline {
        Some(d) => w.next_event_time().is_some_and(|t| t <= d),
        None => true,
    };
    let mut events = 0;
    match steps {
        None => {
            while due(w) && w.step() {
                events += 1;
            }
        }
        Some(steps) => {
            let mut last = Instant::now();
            while due(w) && w.step() {
                let now = Instant::now();
                steps.record((now - last).as_nanos() as u64);
                last = now;
                events += 1;
            }
        }
    }
    events
}

/// One host's receive-side tallies. Conservation: every frame a station
/// received was delivered to a port or dropped for exactly one named reason.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HostCounts {
    pub received: u64,
    pub delivered: u64,
    pub drops_interface: u64,
    pub drops_admission: u64,
    pub drops_queue_full: u64,
    pub drops_no_match: u64,
}

impl HostCounts {
    pub fn dropped(&self) -> u64 {
        self.drops_interface + self.drops_admission + self.drops_queue_full + self.drops_no_match
    }

    /// Frames neither delivered nor dropped for a named reason (0 when the
    /// host conserves frames; every benchmark port accepts a frame at most
    /// once, so deliveries count frames).
    pub fn unaccounted(&self) -> u64 {
        self.received.abs_diff(self.delivered + self.dropped())
    }
}

/// Simulated-time prefixes of `Profiler::time_with_prefix`, in the order of
/// [`WorldCounts::prefix_ns`].
pub const SIM_PREFIXES: [&str; 5] = ["driver", "pf", "kern", "user", "ip"];

/// What a finished World reports about itself. Every field is simulated or
/// counted, so one seed gives one value.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorldCounts {
    pub hosts: Vec<HostCounts>,
    pub router_frames_in: u64,
    pub forwards: u64,
    /// Router drops: no route, TTL expired, not routable.
    pub router_drops: [u64; 3],
    pub transmits: u64,
    /// Σ calls over every profiler: one per `Cpu::charge`.
    pub charges: u64,
    /// Σ `Cpu::busy_time` over hosts and routers.
    pub busy_ns: u64,
    pub prefix_ns: [u64; 5],
    /// `(routine, calls, mean cost in ns)`, most-called first: the mix the
    /// `Cpu::charge` replay repeats.
    pub routines: Vec<(&'static str, u64, u64)>,
    pub sim_end_ns: u64,
}

impl WorldCounts {
    /// Frames received by any station: the numerator of `frames_per_s`.
    pub fn frames(&self) -> u64 {
        self.hosts.iter().map(|h| h.received).sum::<u64>() + self.router_frames_in
    }

    pub fn total(&self, f: impl Fn(&HostCounts) -> u64) -> u64 {
        self.hosts.iter().map(f).sum()
    }
}

fn world_counts(
    w: &World,
    hosts: &[HostId],
    routers: &[RouterId],
    segments: &[SegmentId],
) -> WorldCounts {
    let mut c = WorldCounts {
        sim_end_ns: w.now().as_nanos(),
        ..Default::default()
    };
    let mut merged = pf_sim::profile::Profiler::new();
    let mut cpus = Vec::new();
    for &h in hosts {
        let k = w.counters(h);
        // Mimicry sheds are an admission drop with its own counter.
        c.hosts.push(HostCounts {
            received: k.packets_received,
            delivered: k.packets_delivered,
            drops_interface: k.drops_interface,
            drops_admission: k.drops_admission + k.drops_mimicry_shed,
            drops_queue_full: k.drops_queue_full,
            drops_no_match: k.drops_no_match,
        });
        cpus.push(w.cpu(h));
    }
    for &r in routers {
        c.router_frames_in += w.router_counters(r).frames_in;
        let s = w.router_stats(r);
        c.forwards += s.forwarded;
        c.router_drops[0] += s.no_route;
        c.router_drops[1] += s.ttl_expired;
        c.router_drops[2] += s.not_routable;
        cpus.push(w.router_cpu(r));
    }
    for cpu in cpus {
        c.busy_ns += cpu.busy_time().as_nanos();
        merged.merge(cpu.profiler());
    }
    for (i, prefix) in SIM_PREFIXES.iter().enumerate() {
        c.prefix_ns[i] = merged.time_with_prefix(&format!("{prefix}:")).as_nanos();
    }
    c.routines = merged
        .flat_profile()
        .into_iter()
        .map(|(name, s)| (name, s.calls, s.per_call().as_nanos()))
        .collect();
    // `flat_profile` orders by time with the name as tie-break; re-order by
    // calls so the replay's mix does not depend on the cost model.
    c.routines.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    c.charges = c.routines.iter().map(|r| r.1).sum();
    c.transmits = segments
        .iter()
        .map(|&s| w.network().transmitted_on(s))
        .sum();
    c
}
