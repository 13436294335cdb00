//! Layer replays: each feeds one layer's public entry point the workload's
//! own frames, outside the timed run, and reports what a call costs when
//! nothing disturbs it (the fast decile of many timed chunks of calls).
//! A replay is the layer in vitro; the counts of the run say how often the
//! layer was entered in situ.

use super::device::{BareGeom, Device, FilterSpec};
use super::fabric::{FlowPacket, Plan};
use super::flood::{JUNK_FILTER, JUNK_QUOTA, WANTED_FILTER};
use super::lan::table_6_6;
use super::Engine;
use crate::rng::Rng;
use pf_kernel::types::{Fd, ProcId, RecvPacket};
use pf_kernel::{AdmissionConfig, PfDevice};
use pf_monitor::capture::Captured;
use pf_monitor::decode::decode;
use pf_monitor::stats::TraceStats;
use pf_net::medium::Medium;
use pf_net::segment::{FaultModel, Network, StationId};
use pf_net::topology::{Forwarder, NodeKind};
use pf_proto::bsp::{Effect, ReceiverMachine, SenderMachine};
use pf_proto::pup::{Pup, PupAddr};
use pf_proto::router::IpRouter;
use pf_sim::cpu::Cpu;
use pf_sim::queue::EventQueue;
use pf_sim::time::{SimDuration, SimTime};
use std::collections::{HashMap, VecDeque};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The data-link encapsulation a frame uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wire {
    Mb3,
    Mb10,
}

impl Wire {
    fn medium(self) -> Medium {
        match self {
            Wire::Mb3 => Medium::experimental_3mb(),
            Wire::Mb10 => Medium::standard_10mb(),
        }
    }
}

/// Runs the replays of one traced run: each gets `budget` of wall time.
#[derive(Debug, Clone, Copy)]
pub struct Replayer {
    pub budget: Duration,
}

/// Cost of the three engines and of binding, for one filter population.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DeviceLayers {
    pub geom_ns: f64,
    pub sequential_ns: f64,
    pub dtree_ns: f64,
    /// Threaded-code operations per frame under `Geom` (exact).
    pub ops_per_frame: f64,
    pub bind_us: f64,
    pub close_us: f64,
}

/// The bare `GeomSet` under the `Geom` engine.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct GeomLayers {
    pub match_ns: f64,
    /// Members evaluated per accepted frame (exact): 1 is a perfect index.
    pub candidates_per_frame: f64,
    pub insert_us: f64,
    pub remove_us: f64,
}

/// The checked-interpreter oracle over the same population and frames.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CheckedLayers {
    pub ns_per_eval: f64,
    /// Instructions a priority-order walk executes per frame (exact).
    pub instructions_per_frame: f64,
}

/// `Network::transmit`, with what each call fanned out.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TransmitLayers {
    pub ns_per_call: f64,
    pub deliveries_per_transmit: f64,
    pub bytes_copied_per_transmit: f64,
}

/// `routed_fabric`'s transmit and forward calls along real paths.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PathLayers {
    pub transmit: TransmitLayers,
    pub forward_ns: f64,
    /// The frames as the destination hosts received them.
    pub delivered: Vec<Vec<u8>>,
}

impl Replayer {
    /// Undisturbed nanoseconds per call of `call`, over chunks of `chunk` calls
    /// repeated until the budget is spent (at least three chunks).
    fn time_calls(&self, chunk: usize, mut call: impl FnMut(usize)) -> f64 {
        let mut per_call = Vec::new();
        let mut i = 0;
        let started = Instant::now();
        while per_call.len() < 3 || started.elapsed() < self.budget {
            let t = Instant::now();
            for _ in 0..chunk {
                call(i);
                i += 1;
            }
            per_call.push(t.elapsed().as_nanos() as f64 / chunk as f64);
        }
        crate::stats::undisturbed(&mut per_call, false)
    }

    /// Undisturbed microseconds of the first and of the second half of a
    /// two-step operation (`step(item, second half?)`), done on one item
    /// after another until the budget is spent (at least three, at most
    /// `items`).
    fn time_halves(&self, items: usize, mut step: impl FnMut(usize, bool)) -> (f64, f64) {
        let mut us = [Vec::new(), Vec::new()];
        let started = Instant::now();
        for item in 0..items {
            if item >= 3 && started.elapsed() >= self.budget {
                break;
            }
            for (half, samples) in us.iter_mut().enumerate() {
                let t = Instant::now();
                step(item, half == 1);
                samples.push(t.elapsed().as_nanos() as f64 / 1e3);
            }
        }
        let [first, second] = &mut us;
        (
            crate::stats::undisturbed(first, false),
            crate::stats::undisturbed(second, false),
        )
    }

    /// The classic hold model on a default `EventQueue`: `pending` events
    /// stand in the queue while one is popped and one scheduled per
    /// operation, so the horizon slides and the population stays.
    pub fn queue_hold(&self, pending: usize, seed: u64) -> f64 {
        let mut rng = Rng::new(seed, 0x9E0E);
        let mut q: EventQueue<u32> = EventQueue::new();
        for i in 0..pending.max(1) {
            q.schedule(SimTime(rng.below(1_000_000_000)), i as u32);
        }
        self.time_calls(1024, |_| {
            let (t, v) = q.pop().expect("the population never drains");
            q.schedule(SimTime(t.as_nanos() + 1 + rng.below(1_000_000)), v);
        })
    }

    /// `Cpu::charge` with the routine mix of the run: `routines` is
    /// `(name, calls, mean cost)`, most-called first.
    pub fn charge_mix(&self, routines: &[(&'static str, u64, u64)]) -> f64 {
        let total: u64 = routines.iter().map(|r| r.1).sum();
        if total == 0 {
            return 0.0;
        }
        // A 4096-call cycle with each routine in proportion to its calls,
        // interleaved rather than grouped.
        let mut cycle: Vec<(&'static str, SimDuration)> = Vec::with_capacity(4096);
        for &(name, calls, ns) in routines {
            let share = ((calls as u128 * 4096).div_ceil(total as u128)) as usize;
            cycle.extend(std::iter::repeat_n(
                (name, SimDuration::from_nanos(ns)),
                share,
            ));
        }
        let mut rng = Rng::new(total, 0xC4A6);
        for i in (1..cycle.len()).rev() {
            cycle.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let mut cpu = Cpu::new();
        let mut now = SimTime::ZERO;
        self.time_calls(1024, |i| {
            let (name, cost) = cycle[i % cycle.len()];
            now = cpu.charge(name, now, cost);
        })
    }

    /// `frame::parse`, as the receive upcall runs it on every frame.
    pub fn parse_frames(&self, wire: Wire, frames: &[Vec<u8>]) -> f64 {
        if frames.is_empty() {
            return 0.0;
        }
        let medium = wire.medium();
        self.time_calls(1024, |i| {
            let _ = black_box(pf_net::frame::parse(
                &medium,
                black_box(&frames[i % frames.len()]),
            ));
        })
    }

    fn demux_ns(&self, dev: &mut Device, frames: &[Vec<u8>], chunk: usize) -> f64 {
        self.time_calls(chunk, |i| {
            black_box(dev.demux(&frames[i % frames.len()]));
        })
    }

    /// `PfDevice::demux` under the three named engines on the same filters
    /// and frames, and `open`+`set_filter` / `close` at full population
    /// under `Geom`.
    pub fn device_layers(&self, specs: &[FilterSpec], frames: &[Vec<u8>]) -> DeviceLayers {
        if frames.is_empty() {
            return DeviceLayers::default();
        }
        let build = |engine| Device::with_filters(engine, specs);
        let mut out = DeviceLayers::default();
        let mut geom = build(Engine::Geom);
        out.geom_ns = self.demux_ns(&mut geom, frames, 1024);
        let ops: u64 = frames.iter().map(|f| u64::from(geom.demux(f).ir_ops)).sum();
        out.ops_per_frame = ops as f64 / frames.len() as f64;
        // Close a port and bind its filter again, a few times, timing each
        // half: the population stays full, as in `demux_range_churn`.
        (out.close_us, out.bind_us) = self.time_halves(specs.len(), |port, again| {
            if again {
                geom.bind(specs[port]);
            } else {
                geom.close(port);
            }
        });
        out.dtree_ns = self.demux_ns(&mut build(Engine::DecisionTable), frames, 1024);
        // The paper's loop walks every filter: far fewer calls fit a chunk.
        out.sequential_ns = self.demux_ns(&mut build(Engine::Sequential), frames, 64);
        out
    }

    /// The bare `GeomSet`: match, and insert/remove at full population.
    pub fn geom_layers(&self, specs: &[FilterSpec], frames: &[Vec<u8>]) -> GeomLayers {
        if frames.is_empty() {
            return GeomLayers::default();
        }
        let mut set = BareGeom::default();
        for (id, &s) in specs.iter().enumerate() {
            set.insert(id as u32, s);
        }
        let mut out = GeomLayers {
            match_ns: self.time_calls(1024, |i| {
                black_box(set.matches(&frames[i % frames.len()]));
            }),
            ..Default::default()
        };
        let (mut evaluated, mut accepted) = (0u64, 0u64);
        for f in frames {
            let (first, candidates, _) = set.matches(f);
            evaluated += u64::from(candidates);
            accepted += u64::from(first.is_some());
        }
        out.candidates_per_frame = evaluated as f64 / accepted.max(1) as f64;
        (out.remove_us, out.insert_us) = self.time_halves(specs.len(), |id, again| {
            if again {
                set.insert(id as u32, specs[id]);
            } else {
                assert!(set.remove(id as u32));
            }
        });
        out
    }

    /// The checked interpreter walking the population in priority order.
    pub fn checked_layers(&self, specs: &[FilterSpec], frames: &[Vec<u8>]) -> CheckedLayers {
        if frames.is_empty() {
            return CheckedLayers::default();
        }
        // The sequential engine binds for free and carries the shadow list.
        let dev = Device::with_filters(Engine::Sequential, specs);
        let (mut evals, mut instructions) = (0u64, 0u64);
        for f in frames {
            let walk = dev.oracle(f);
            evals += walk.evals;
            instructions += walk.instructions;
        }
        let per_walk = self.time_calls(64, |i| {
            black_box(dev.oracle(&frames[i % frames.len()]));
        });
        CheckedLayers {
            ns_per_eval: per_walk * frames.len() as f64 / evals.max(1) as f64,
            instructions_per_frame: instructions as f64 / frames.len() as f64,
        }
    }

    /// `Port::enqueue`, with the frame copy the demux path makes for each
    /// accepting port; the queue is emptied whenever it fills, as reads do.
    pub fn enqueue_frames(&self, frames: &[Vec<u8>]) -> f64 {
        if frames.is_empty() {
            return 0.0;
        }
        let mut dev = PfDevice::new();
        let port = dev.open((ProcId(0), Fd(0)));
        let depth = dev.port(port).config.max_queue;
        self.time_calls(1024, |i| {
            let p = dev.port_mut(port);
            if i % depth == 0 {
                p.queue.clear();
            }
            black_box(p.enqueue(RecvPacket {
                bytes: frames[i % frames.len()].clone(),
                stamp: None,
                dropped_before: 0,
            }));
        })
    }

    /// `PfDevice::admit` on `overload_flood`'s two-port gate, with frames
    /// `gap_ns` apart so the junk bucket refills as it does in the run.
    pub fn admit_frames(&self, frames: &[Vec<u8>], gap_ns: u64) -> f64 {
        if frames.is_empty() {
            return 0.0;
        }
        let mut dev = PfDevice::new();
        dev.set_engine(Engine::DecisionTable.kernel());
        let wanted = dev.open((ProcId(0), Fd(0)));
        dev.set_filter(wanted, WANTED_FILTER.program());
        let junk = dev.open((ProcId(1), Fd(0)));
        dev.set_filter(junk, JUNK_FILTER.program());
        dev.set_admission_control(Some(AdmissionConfig::default()));
        dev.set_port_quota(junk, Some(JUNK_QUOTA));
        self.time_calls(1024, |i| {
            black_box(dev.admit(&frames[i % frames.len()], SimTime(i as u64 * gap_ns)));
        })
    }

    /// `Network::transmit` on a fresh 3 Mb/s wire with the given
    /// `(address, promiscuous)` stations; each frame leaves from the
    /// station its source byte names.
    pub fn lan_transmit(&self, stations: &[(u64, bool)], frames: &[Vec<u8>]) -> TransmitLayers {
        if frames.is_empty() {
            return TransmitLayers::default();
        }
        let mut net = Network::new(0);
        let seg = net.add_segment(Medium::experimental_3mb(), FaultModel::default());
        let mut by_addr = HashMap::new();
        for &(addr, promiscuous) in stations {
            let id = net.add_station(seg, addr);
            net.station(id).set_promiscuous(promiscuous);
            by_addr.insert(addr, id);
        }
        let calls: Vec<(StationId, &[u8])> = frames
            .iter()
            .filter_map(|f| Some((*by_addr.get(&u64::from(*f.get(1)?))?, f.as_slice())))
            .collect();
        self.transmit_calls(&mut net, &calls)
    }

    fn transmit_calls(&self, net: &mut Network, calls: &[(StationId, &[u8])]) -> TransmitLayers {
        if calls.is_empty() {
            return TransmitLayers::default();
        }
        let (mut deliveries, mut bytes) = (0u64, 0u64);
        for &(station, frame) in calls {
            let (_, out) = net.transmit(station, frame, SimTime::ZERO);
            deliveries += out.len() as u64;
            bytes += out.iter().map(|d| d.frame.len() as u64).sum::<u64>();
        }
        TransmitLayers {
            ns_per_call: self.time_calls(1024, |i| {
                let (station, frame) = calls[i % calls.len()];
                black_box(net.transmit(station, frame, SimTime(i as u64)));
            }),
            deliveries_per_transmit: deliveries as f64 / calls.len() as f64,
            bytes_copied_per_transmit: bytes as f64 / calls.len() as f64,
        }
    }

    /// Walks each packet hop by hop over a fresh `Topology::instantiate`
    /// and `IpRouter::for_node` forwarders, recording every transmit and
    /// forward call, then times the two lists: the mix of LAN and ring
    /// hops is the run's own.
    pub fn fabric_paths(&self, plan: &Plan, packets: &[FlowPacket]) -> PathLayers {
        if packets.is_empty() {
            return PathLayers::default();
        }
        let topo = &plan.topo;
        let mut net = Network::new(0);
        let inst = topo.instantiate(&mut net);
        let mut owner = HashMap::new();
        for (node, stations) in inst.stations.iter().enumerate() {
            for (iface, s) in stations.iter().enumerate() {
                owner.insert(*s, (node, iface));
            }
        }
        let mut routers: HashMap<usize, IpRouter> = plan
            .routers
            .iter()
            .map(|&n| (n.0, IpRouter::for_node(topo, n)))
            .collect();
        let mut transmits: Vec<(StationId, Vec<u8>)> = Vec::new();
        let mut forwards: Vec<(usize, usize, Vec<u8>)> = Vec::new();
        let mut delivered = Vec::new();
        for p in packets {
            let mut hop = (inst.stations[plan.hosts[p.src].0][0], plan.frame(p));
            loop {
                let (_, mut out) = net.transmit(hop.0, &hop.1, SimTime::ZERO);
                transmits.push(hop);
                let d = out.pop().expect("a unicast frame reaches its station");
                let (node, iface) = owner[&d.station];
                if topo.kind(pf_net::NodeId(node)) == NodeKind::Host {
                    delivered.push(d.frame);
                    break;
                }
                let router = routers.get_mut(&node).expect("a router node");
                let (out_iface, out_frame) = router
                    .forward(iface, &d.frame)
                    .pop()
                    .expect("a static route covers every subnet");
                forwards.push((node, iface, d.frame));
                hop = (inst.stations[node][out_iface], out_frame);
            }
        }
        let calls: Vec<(StationId, &[u8])> =
            transmits.iter().map(|(s, f)| (*s, f.as_slice())).collect();
        let forward_ns = if forwards.is_empty() {
            0.0
        } else {
            self.time_calls(1024, |i| {
                let (node, iface, frame) = &forwards[i % forwards.len()];
                black_box(
                    routers
                        .get_mut(node)
                        .expect("a router node")
                        .forward(*iface, frame),
                );
            })
        };
        PathLayers {
            transmit: self.transmit_calls(&mut net, &calls),
            forward_ns,
            delivered,
        }
    }

    /// A BSP sender and receiver machine in lockstep over a lossless wire,
    /// every Pup encoded to a frame and decoded back, in the table 6-6
    /// configuration. Returns nanoseconds per Pup (both ends' work).
    pub fn bsp_lockstep(&self, bytes: usize) -> f64 {
        let mut per_pup = Vec::new();
        let started = Instant::now();
        while per_pup.len() < 3 || started.elapsed() < self.budget {
            let t = Instant::now();
            let pups = bsp_transfer(bytes);
            per_pup.push(t.elapsed().as_nanos() as f64 / pups as f64);
        }
        crate::stats::undisturbed(&mut per_pup, false)
    }

    /// `decode::decode` on every captured frame plus one
    /// `TraceStats::analyze` over the trace, per frame.
    pub fn monitor_decode(&self, wire: Wire, frames: &[Vec<u8>]) -> f64 {
        if frames.is_empty() {
            return 0.0;
        }
        let medium = wire.medium();
        let trace: Vec<Captured> = frames
            .iter()
            .map(|f| Captured {
                stamp: None,
                bytes: f.clone(),
                dropped_before: 0,
            })
            .collect();
        let per_trace = self.time_calls(1, |_| {
            for c in &trace {
                black_box(decode(&medium, &c.bytes));
            }
            black_box(TraceStats::analyze(&medium, &trace));
        });
        per_trace / trace.len() as f64
    }

    /// `flowgen::generate`, per packet generated.
    pub fn flowgen(&self, flows: usize, hosts: usize, seed: u64) -> f64 {
        let mut packets = 1;
        let per_schedule = self.time_calls(1, |_| {
            packets = black_box(super::fabric::flow_schedule(flows, hosts, seed))
                .len()
                .max(1);
        });
        per_schedule / packets as f64
    }
}

/// The lossless wire between the two machines of [`bsp_transfer`].
struct Lockstep {
    medium: Medium,
    checksummed: bool,
    /// `(to the receiver?, frame)` in flight.
    wire: VecDeque<(bool, Vec<u8>)>,
    connected: bool,
    delivered: usize,
}

impl Lockstep {
    fn absorb(&mut self, fx: Vec<Effect>, from_sender: bool) {
        for e in fx {
            match e {
                Effect::Send(pup) => {
                    let frame = pup.encode_frame(&self.medium, self.checksummed);
                    self.wire.push_back((from_sender, frame));
                }
                Effect::Deliver(data) => self.delivered += data.len(),
                Effect::Connected => self.connected = true,
                // No loss, so no timer ever needs to fire.
                _ => {}
            }
        }
    }
}

/// Moves `bytes` from a sender machine to a receiver machine; returns the
/// Pups that crossed the wire.
fn bsp_transfer(bytes: usize) -> u64 {
    let cfg = table_6_6();
    let (src, dst) = (PupAddr::new(1, 0x10, 0x300), PupAddr::new(1, 0x40, 0x400));
    let payload = vec![0x5Au8; bytes];
    let mut link = Lockstep {
        medium: Medium::experimental_3mb(),
        checksummed: cfg.checksummed,
        wire: VecDeque::new(),
        connected: false,
        delivered: 0,
    };
    let mut tx = SenderMachine::new(src, dst, cfg);
    let mut rx = ReceiverMachine::new(dst);
    let (mut offered, mut pups) = (false, 0u64);
    link.absorb(tx.connect(), true);
    while let Some((to_receiver, frame)) = link.wire.pop_front() {
        pups += 1;
        let pup = Pup::decode_frame(&link.medium, &frame).expect("a lossless wire");
        let fx = if to_receiver {
            rx.on_pup(&pup)
        } else {
            tx.on_pup(&pup)
        };
        link.absorb(fx, !to_receiver);
        if link.connected && !offered {
            offered = true;
            link.absorb(tx.offer(&payload), true);
            link.absorb(tx.finish(), true);
        }
    }
    assert!(
        tx.is_closed() && rx.is_closed(),
        "the lockstep transfer closes"
    );
    assert_eq!(link.delivered, bytes, "the lockstep transfer is byte-exact");
    pups
}
