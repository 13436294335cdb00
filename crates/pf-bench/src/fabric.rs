//! The routed-fabric campaign (`BENCH_fabric.json`): [`flowgen`]
//! workloads over rings of routers, fault-free and under router/link
//! chaos.
//!
//! Every cell builds the standard `ring_topology`, synthesizes a flowgen
//! schedule and injects it as IP-over-Ethernet frames from the hosts. The
//! artifact has two sections, and each is its own referee.
//!
//! **`steady`** sweeps ring size × flow count with no fault schedule, under
//! plain static routers ([`deploy`]): Poisson arrivals, elephants and mice,
//! a 20% incast hot spot on host 0, all three transports, and two mid-run
//! flips of router 0's route to the antipodal LAN. Each cell runs once and
//! asserts **exact routed delivery**: every host receives precisely the
//! packets addressed to it, with no interface drop, no routing black hole,
//! no TTL death and no unroutable frame, at every size up to 256 nodes ×
//! 100k flows. Its row records `World::history_digest`, so the committed
//! artifact holds the run's history, not only its totals.
//!
//! **`rows`** attaches a [`FabricSchedule`] (router kill, link flap train,
//! or a partition that isolates one router and later heals) and runs each
//! cell twice: once with plain static routers ([`deploy`]) and once with
//! the hardened resilience plane ([`deploy_hardened`] — hello probing,
//! backup failover, LSU flooding, residual reconvergence):
//!
//! * **Undefended blackholes are exact**: with no control plane and no
//!   stochastic faults, every lost packet is accounted one-for-one at
//!   the dead router (`frames_dropped_down`) or the downed link
//!   (`link_down_drops`) — delivered + blackholed == injected, always.
//! * **Hardened recovery is bounded**: after the detection/flooding
//!   window (`conv_bound`), ≥ 99% of packets whose endpoints survive
//!   are delivered; every router's `last_route_change_ns` falls inside
//!   the scenario's convergence deadline; route churn and triggered
//!   reconvergences stay under closed-form caps.
//! * **No loops, ever**: the sum of `ttl_expired` across all routers
//!   is asserted zero in every cell — backup next-hops are strictly
//!   downhill and LSU floods precede rerouted data FIFO-wise, so even
//!   transient disagreement never cycles a packet to death.

use crate::flowgen::{self, Arrival, FlowPacket, FlowSpec, Pattern, SizeMix, Transport};
use crate::json::Json;
use pf_kernel::World;
use pf_net::fabric::FabricSchedule;
use pf_net::medium::Medium;
use pf_net::segment::FaultModel;
use pf_net::topology::Route;
use pf_net::{LinkId, NodeId, Topology};
use pf_proto::router::{
    deploy, deploy_hardened, ip_frame, DeployedTopology, DEAD_INTERVAL, HELLO_INTERVAL,
};
use pf_sim::cost::CostModel;
use pf_sim::time::{SimDuration, SimTime};
use pf_sim::SimClock;

/// Default workload seed (spells "flow seed", squinting).
pub const DEFAULT_SEED: u64 = 0xF10E_5EED;

/// A ring of `nodes/4` routers, each with a 3-host LAN: the sweep's
/// standard shape. Returns the frozen plan plus the router and host
/// node ids (hosts in endpoint order).
pub(crate) fn ring_topology(nodes: usize) -> (Topology, Vec<NodeId>, Vec<NodeId>) {
    assert!(nodes >= 2, "need at least one router and one host");
    let r_count = (nodes / 4).max(1);
    let h_count = nodes - r_count;
    let mut b = Topology::builder();
    let routers: Vec<NodeId> = (0..r_count).map(|i| b.router(format!("r{i}"))).collect();
    let hosts: Vec<NodeId> = (0..h_count).map(|i| b.host(format!("h{i}"))).collect();
    let m = Medium::standard_10mb();
    // Ring links first (link ids 0..r_count), then one LAN per router
    // (link id r_count + r) — the churn flips and the fault scenarios
    // depend on this order.
    if r_count >= 3 {
        for i in 0..r_count {
            b.link(
                routers[i],
                routers[(i + 1) % r_count],
                m,
                FaultModel::default(),
            );
        }
    } else if r_count == 2 {
        b.link(routers[0], routers[1], m, FaultModel::default());
    }
    for (r, router) in routers.iter().enumerate() {
        let mut members = vec![*router];
        members.extend(hosts.iter().skip(r).step_by(r_count));
        if members.len() >= 2 {
            b.lan(&members, m, FaultModel::default());
        }
    }
    (b.build(), routers, hosts)
}

/// When the first fault hits (traffic starts at ~0 and runs to ~2.3s,
/// so there is ample pre-fault and post-fault signal).
const T_FAULT: SimTime = SimTime(1_000_000_000);
/// The asserted reconvergence deadline after the last fault
/// transition: dead interval (60ms) + two hello ticks (40ms) of
/// detection skew, plus LSU flood-and-recompute propagation across
/// the ring diameter — route recompute dominates the per-hop cost at
/// 2ms ([`CostModel::microvax_ii`]'s `route_recompute`; queueing
/// behind hellos and the 20ms stamp quantization eat the rest of the
/// 4ms/hop allowance), so the bound scales with hop count instead of
/// pretending detection is the whole story.
fn conv_bound(r_count: usize) -> SimDuration {
    SimDuration::from_millis(100 + 4 * (r_count as u64 / 2).max(1))
}
/// Virtual-time horizon the world runs to (hardened routers tick
/// forever, so runs are bounded by time, not queue exhaustion).
const DRAIN_AT: SimTime = SimTime(3_000_000_000);

/// The three chaos shapes the campaign sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// Ring router 1 crashes at `T_FAULT` (1 s) and never comes back.
    RouterKill,
    /// Ring link 0 flaps: 100ms down / 150ms up, three cycles.
    LinkFlap,
    /// Ring links 0 and 1 go down together at `T_FAULT` (isolating
    /// router 1 and its LAN) and heal at `T_FAULT + 600ms`.
    Partition,
}

impl Scenario {
    /// Artifact label.
    pub fn name(self) -> &'static str {
        match self {
            Scenario::RouterKill => "router_kill",
            Scenario::LinkFlap => "link_flap",
            Scenario::Partition => "partition_heal",
        }
    }

    fn schedule(self, routers: &[NodeId]) -> FabricSchedule {
        let mut s = FabricSchedule::new();
        match self {
            Scenario::RouterKill => s.router_outage(routers[1], T_FAULT, None),
            Scenario::LinkFlap => s.link_flaps(
                LinkId(0),
                T_FAULT,
                SimDuration::from_millis(100),
                SimDuration::from_millis(150),
                3,
            ),
            Scenario::Partition => s.partition(
                &[LinkId(0), LinkId(1)],
                T_FAULT,
                Some(SimTime(T_FAULT.0 + 600_000_000)),
            ),
        }
        s
    }

    /// Instant of the last schedule transition.
    fn last_transition(self) -> SimTime {
        match self {
            Scenario::RouterKill => T_FAULT,
            // Downs at 1.0/1.25/1.5s, ups at 1.1/1.35/1.6s.
            Scenario::LinkFlap => SimTime(T_FAULT.0 + 600_000_000),
            Scenario::Partition => SimTime(T_FAULT.0 + 600_000_000),
        }
    }

    /// Fault-state transitions, for the churn/reconvergence caps.
    fn transitions(self) -> u64 {
        match self {
            Scenario::RouterKill => 1,
            Scenario::LinkFlap => 6,
            Scenario::Partition => 4,
        }
    }

    /// The instant by which a hardened fabric of `r_count` routers
    /// must have settled.
    fn check_at(self, r_count: usize) -> SimTime {
        SimTime(self.last_transition().0 + conv_bound(r_count).0)
    }
}

/// One `rows` entry: a (scenario × size × deploy) cell.
#[derive(Debug, Clone)]
pub struct FabricPoint {
    pub(crate) scenario: &'static str,
    /// "undefended" or "hardened".
    pub deploy: &'static str,
    pub nodes: usize,
    pub routers: usize,
    pub links: usize,
    /// Workload packets injected.
    pub packets: usize,
    /// Packets received by their addressed host by the horizon.
    pub delivered: u64,
    pub(crate) delivered_frac: f64,
    /// Packets swallowed by the scenario's blackhole (dead-router drops
    /// plus down-link drops; exact for undefended, diagnostic for
    /// hardened where control traffic also hits the blackhole).
    pub(crate) blackholed: u64,
    /// Packets sent after the settle deadline with both endpoints on
    /// surviving LANs.
    pub(crate) expected_after_check: u64,
    /// Packets delivered after the settle deadline.
    pub(crate) delivered_after_check: u64,
    /// delivered_after_check / expected_after_check.
    pub(crate) recovered_frac: f64,
    pub ttl_expired: u64,
    pub no_route: u64,
    pub hellos_sent: u64,
    pub control_in: u64,
    pub neighbors_lost: u64,
    pub neighbors_recovered: u64,
    pub failovers: u64,
    pub reconvergences: u64,
    pub route_churn: u64,
    /// Latest route-table change across all routers, relative to the
    /// first fault, milliseconds (0 when no table ever changed).
    pub(crate) convergence_ms: f64,
    /// `World::history_digest` at the horizon.
    pub history_digest: u64,
    pub(crate) wall_ms: f64,
}

/// One `steady` row: a fault-free (size × flows) cell under static routes.
#[derive(Debug, Clone)]
pub struct SteadyPoint {
    /// Total nodes (routers + hosts).
    pub nodes: usize,
    /// Router count (ring size).
    pub routers: usize,
    /// Host count.
    pub hosts: usize,
    /// Segment count (ring links + host LANs).
    pub links: usize,
    /// Flows synthesized.
    pub flows: usize,
    /// Packets scheduled (elephants make this > flows).
    pub packets: usize,
    /// Route flips injected mid-run.
    pub churn_events: usize,
    /// Packets received by their addressed host (asserted: all of them).
    pub delivered: u64,
    /// Router forward operations summed over the run.
    pub forwarded: u64,
    /// Final virtual time, nanoseconds.
    pub sim_end_ns: u64,
    /// `World::history_digest` at the end of the run.
    pub history_digest: u64,
    /// Wall-clock run time, milliseconds.
    pub(crate) wall_ms: f64,
}

/// The full campaign artifact.
#[derive(Debug, Clone)]
pub struct FabricReport {
    pub seed: u64,
    pub smoke: bool,
    pub(crate) hello_ms: u64,
    pub(crate) dead_ms: u64,
    /// Convergence-deadline formula: base + per-hop × ring diameter.
    pub(crate) conv_base_ms: u64,
    pub(crate) conv_per_hop_ms: u64,
    pub rows: Vec<FabricPoint>,
    pub steady: Vec<SteadyPoint>,
}

/// Everything simulated that a run produced (wall time excluded).
#[derive(Debug, Clone, Default)]
struct RunOutcome {
    received: Vec<u64>,
    snapshots: Vec<Vec<u64>>,
    dropped_down: u64,
    cut_link_drops: u64,
    forwarded: u64,
    ttl_expired: u64,
    no_route: u64,
    hellos_sent: u64,
    control_in: u64,
    neighbors_lost: u64,
    neighbors_recovered: u64,
    failovers: u64,
    reconvergences: u64,
    route_churn: u64,
    last_change_ns: u64,
    /// Routers whose forwarder ran at least one reconvergence.
    reconverged_routers: usize,
    digest: u64,
}

fn fault_spec(flows: usize) -> FlowSpec {
    FlowSpec {
        flows,
        // Spread arrivals across the whole pre/during/post-fault
        // horizon instead of front-loading them.
        arrival: Arrival::Poisson {
            rate_fps: flows as f64 / 2.2,
        },
        sizes: SizeMix::Fixed(2),
        pattern: Pattern::Uniform,
        transports: vec![Transport::Udp, Transport::Bsp, Transport::Vmtp],
        payload: 64,
        packet_gap_ns: 200_000,
        churn_events: 0,
        start: SimTime(1_000),
    }
}

/// The `steady` workload: Poisson flow arrivals scaled to the flow count,
/// a bimodal size mix, a 20% incast hot spot on host 0, all three
/// transports cycled, and two route flips whenever the ring is big enough
/// to have antipodal paths.
fn steady_spec(flows: usize, routers: usize) -> FlowSpec {
    FlowSpec {
        flows,
        arrival: Arrival::Poisson {
            rate_fps: flows as f64 * 50.0,
        },
        sizes: SizeMix::ElephantsAndMice {
            mice: 1,
            elephants: 4,
            elephant_fraction: 0.1,
        },
        pattern: Pattern::Incast { fraction: 0.2 },
        transports: vec![Transport::Udp, Transport::Bsp, Transport::Vmtp],
        payload: 64,
        packet_gap_ns: 200_000,
        churn_events: if routers >= 4 && routers.is_multiple_of(2) {
            2
        } else {
            0
        },
        start: SimTime(1_000),
    }
}

fn ip_proto(t: Transport) -> u8 {
    match t {
        Transport::Udp => 17,
        Transport::Bsp => 99,
        Transport::Vmtp => 81,
    }
}

/// A cell's own seed: the campaign's, mixed with the cell's shape.
fn cell_seed(seed: u64, nodes: usize, flows: usize) -> u64 {
    seed ^ ((nodes as u64) << 32) ^ flows as u64
}

/// A world running `topo` — hardened routers if `hardened`, plain static
/// ones otherwise — with `packets` scheduled as IP frames of TTL `ttl` from
/// their source hosts. Every host's NIC ring is deep enough for the
/// incast victim's standing backlog, so an interface drop is a routing
/// fault, not luck.
fn loaded_world(
    topo: &Topology,
    hosts: &[NodeId],
    packets: &[FlowPacket],
    hardened: bool,
    ttl: u8,
    seed: u64,
) -> (World, DeployedTopology) {
    let mut w = World::new(seed);
    let costs = CostModel::microvax_ii();
    let d = if hardened {
        deploy_hardened(topo, &mut w, &costs)
    } else {
        deploy(topo, &mut w, &costs)
    };
    for h in hosts {
        w.set_nic_capacity(d.host(*h), 1 << 20);
    }
    for p in packets {
        let (src, dst) = (hosts[p.src], hosts[p.dst]);
        let payload = vec![0xA5; p.payload];
        let frame = ip_frame(topo, src, dst, ip_proto(p.transport), ttl, &payload);
        w.send_frame_at(d.host(src), frame, p.at);
    }
    (w, d)
}

/// Per-host receive counts, the routers' stats summed and the history
/// digest, asserting what every cell of both sections must hold: no
/// host's NIC overran and no router saw an unroutable frame.
fn outcome(w: &World, d: &DeployedTopology, routers: &[NodeId], hosts: &[NodeId]) -> RunOutcome {
    let mut out = RunOutcome {
        received: hosts
            .iter()
            .map(|h| w.counters(d.host(*h)).packets_received)
            .collect(),
        digest: w.history_digest(),
        ..RunOutcome::default()
    };
    for (i, h) in hosts.iter().enumerate() {
        let overruns = w.counters(d.host(*h)).drops_interface;
        assert_eq!(overruns, 0, "host {i}: a NIC overrun");
    }
    for r in routers {
        let id = d.router(*r);
        let s = w.router_stats(id);
        out.forwarded += s.forwarded;
        out.ttl_expired += s.ttl_expired;
        out.no_route += s.no_route;
        out.hellos_sent += s.hellos_sent;
        out.control_in += s.control_in;
        out.neighbors_lost += s.neighbors_lost;
        out.neighbors_recovered += s.neighbors_recovered;
        out.failovers += s.failovers;
        out.reconvergences += s.reconvergences;
        out.route_churn += s.route_churn;
        out.last_change_ns = out.last_change_ns.max(s.last_route_change_ns);
        if s.reconvergences > 0 {
            out.reconverged_routers += 1;
        }
        out.dropped_down += w.router_counters(id).frames_dropped_down;
        assert_eq!(s.not_routable, 0, "every injected frame is routable");
    }
    out
}

/// Router 0's route to the antipodal router's LAN: clockwise over ring
/// link 0, or counter-clockwise over the last ring link. Router 0 sits
/// exactly between these two equal-cost paths, so flipping between them
/// keeps delivery exact.
fn antipodal_route(topo: &Topology, routers: &[NodeId], counter: bool) -> Route {
    let r_count = routers.len();
    let (iface, neighbor) = if counter { (1, r_count - 1) } else { (0, 1) };
    let link = LinkId(if counter { r_count - 1 } else { 0 });
    let next_hop = topo
        .interfaces(routers[neighbor])
        .iter()
        .find(|i| i.link == link)
        .expect("the neighbor is on the ring link")
        .ip;
    Route {
        prefix: topo.subnet(LinkId(r_count + r_count / 2)),
        len: 24,
        iface,
        next_hop: Some(next_hop),
    }
}

/// Runs one `steady` cell: injects the whole schedule, runs it to the
/// end (pausing at each churn instant to flip router 0's antipodal
/// route), and asserts exact, drop-free delivery.
fn run_steady(nodes: usize, flows: usize, seed: u64) -> SteadyPoint {
    let (topo, routers, hosts) = ring_topology(nodes);
    let spec = steady_spec(flows, routers.len());
    let seed = cell_seed(seed, nodes, flows);
    let packets = flowgen::generate(&spec, hosts.len(), seed);
    let churn = flowgen::churn_times(&spec, &packets);
    let (mut w, d) = loaded_world(&topo, &hosts, &packets, false, 64, seed);

    let started = std::time::Instant::now();
    for (k, &at) in churn.iter().enumerate() {
        SimClock::run_until(&mut w, at);
        let route = antipodal_route(&topo, &routers, k % 2 == 1);
        assert!(
            w.update_route(d.router(routers[0]), route),
            "router 0 must accept the churn route"
        );
    }
    SimClock::run(&mut w);
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;

    let out = outcome(&w, &d, &routers, &hosts);
    let cell = format!("steady {nodes} nodes/{flows} flows");
    assert_eq!(out.no_route, 0, "{cell}: static routes cover every subnet");
    assert_eq!(out.ttl_expired, 0, "{cell}: TTL 64 outlives the ring");
    let mut expected = vec![0u64; hosts.len()];
    for p in &packets {
        expected[p.dst] += 1;
    }
    assert_eq!(
        out.received, expected,
        "{cell}: every host receives exactly its addressed packets"
    );
    SteadyPoint {
        nodes,
        routers: routers.len(),
        hosts: hosts.len(),
        links: topo.link_count(),
        flows,
        packets: packets.len(),
        churn_events: spec.churn_events,
        delivered: sum(&out.received),
        forwarded: out.forwarded,
        sim_end_ns: w.now().0,
        history_digest: out.digest,
        wall_ms,
    }
}

/// The router on a host's LAN (ring LANs have exactly one).
fn lan_router(topo: &Topology, host: NodeId) -> NodeId {
    let link = topo.interfaces(host)[0].link;
    *topo
        .members(link)
        .iter()
        .find(|m| topo.kind(**m) == pf_net::topology::NodeKind::Router)
        .expect("every LAN hangs off a router")
}

/// Builds the cell's world (with the scenario's fault schedule
/// attached), injects the workload, runs it with snapshots at the
/// scenario's checkpoints, and collects the outcome.
fn run_cell(
    scenario: Scenario,
    hardened: bool,
    nodes: usize,
    flows: usize,
    seed: u64,
) -> (RunOutcome, f64) {
    let (base, routers, hosts) = ring_topology(nodes);
    let topo = base.with_fabric(scenario.schedule(&routers));
    let seed = cell_seed(seed, nodes, flows);
    let packets = flowgen::generate(&fault_spec(flows), hosts.len(), seed);
    // A reroute can double a packet's path mid-flight (forward progress
    // toward the cut, then the full detour the other way around the
    // ring): 64-router rings legitimately need ~95 hops. With TTL 255
    // covering any single detour, every TTL expiry left is a genuine
    // forwarding loop — which the campaign asserts never happens.
    let (mut w, d) = loaded_world(&topo, &hosts, &packets, hardened, 255, seed);

    let check = scenario.check_at(routers.len());
    let snapshot_times: Vec<SimTime> = match scenario {
        Scenario::RouterKill | Scenario::LinkFlap => vec![check],
        Scenario::Partition => vec![
            SimTime(T_FAULT.0 + conv_bound(routers.len()).0),
            scenario.last_transition(),
            check,
        ],
    };

    let started = std::time::Instant::now();
    let mut snapshots = Vec::new();
    for &at in &snapshot_times {
        SimClock::run_until(&mut w, at);
        snapshots.push(
            hosts
                .iter()
                .map(|h| w.counters(d.host(*h)).packets_received)
                .collect::<Vec<u64>>(),
        );
    }
    SimClock::run_until(&mut w, DRAIN_AT);
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;

    let mut out = outcome(&w, &d, &routers, &hosts);
    out.snapshots = snapshots;
    let cut_links: &[usize] = match scenario {
        Scenario::RouterKill => &[],
        Scenario::LinkFlap => &[0],
        Scenario::Partition => &[0, 1],
    };
    for &l in cut_links {
        out.cut_link_drops += w.segment_faults(d.segments[l]).link_down_drops;
    }
    (out, wall_ms)
}

/// Per-cell derived expectations from the static plan: which packets
/// must still be deliverable after the fabric settles.
struct CellPlan {
    packets: usize,
    /// Packets sent at/after the settle deadline whose endpoints both
    /// survive the scenario's end state.
    expected_after_check: u64,
    /// Partition only: surviving (non-isolated) packets sent inside the
    /// converged-partition window, with 50ms of in-flight margin.
    expected_during: u64,
}

fn plan_cell(scenario: Scenario, nodes: usize, flows: usize, seed: u64) -> CellPlan {
    let (topo, routers, hosts) = ring_topology(nodes);
    let packets = flowgen::generate(
        &fault_spec(flows),
        hosts.len(),
        cell_seed(seed, nodes, flows),
    );
    let victim = routers[1];
    let check = scenario.check_at(routers.len());
    let mut expected_after_check = 0;
    let mut expected_during = 0;
    for p in &packets {
        let src = hosts[p.src];
        let dst = hosts[p.dst];
        let involves_victim = lan_router(&topo, src) == victim || lan_router(&topo, dst) == victim;
        // End state: the kill leaves the victim's LAN dark forever;
        // flap and partition both end fully healed.
        let survives_end = scenario != Scenario::RouterKill || !involves_victim;
        if p.at >= check && survives_end {
            expected_after_check += 1;
        }
        if scenario == Scenario::Partition
            && !involves_victim
            && p.at >= SimTime(T_FAULT.0 + conv_bound(routers.len()).0)
            && p.at < SimTime(scenario.last_transition().0 - 50_000_000)
        {
            // Surviving-path traffic the hardened fabric must carry
            // *through* the partition (detour around the isolated
            // router), not merely after the heal.
            expected_during += 1;
        }
    }
    CellPlan {
        packets: packets.len(),
        expected_after_check,
        expected_during,
    }
}

fn sum(v: &[u64]) -> u64 {
    v.iter().sum()
}

/// Runs the campaign. `smoke` shrinks both grids for CI; every assert
/// still fires. Panics (never lies) when steady delivery is not exact,
/// undefended loss accounting is inexact, hardened recovery misses its
/// bound, any TTL expires, or churn exceeds its cap.
pub fn sweep(smoke: bool, seed: u64) -> FabricReport {
    let (steady_nodes, steady_flows): (&[usize], &[usize]) = if smoke {
        (&[4, 16], &[1_000])
    } else {
        (&[4, 16, 64, 256], &[1_000, 10_000, 100_000])
    };
    let steady = steady_nodes
        .iter()
        .flat_map(|&nodes| steady_flows.iter().map(move |&flows| (nodes, flows)))
        .map(|(nodes, flows)| run_steady(nodes, flows, seed))
        .collect();

    let node_sizes: &[usize] = if smoke { &[16] } else { &[16, 64, 256] };
    let scenarios = [
        Scenario::RouterKill,
        Scenario::LinkFlap,
        Scenario::Partition,
    ];
    let mut rows = Vec::new();

    for &nodes in node_sizes {
        let flows = if smoke { 200 } else { 8 * nodes };
        let (shape, routers, _) = ring_topology(nodes);
        let (r_count, links) = (routers.len(), shape.link_count());
        for scenario in scenarios {
            let plan = plan_cell(scenario, nodes, flows, seed);
            let mut runs = Vec::new();
            for hardened in [false, true] {
                let (out, wall_ms) = run_cell(scenario, hardened, nodes, flows, seed);
                let delivered = sum(&out.received);
                let delivered_after = delivered - sum(out.snapshots.last().unwrap());
                rows.push(FabricPoint {
                    scenario: scenario.name(),
                    deploy: if hardened { "hardened" } else { "undefended" },
                    nodes,
                    routers: r_count,
                    links,
                    packets: plan.packets,
                    delivered,
                    delivered_frac: delivered as f64 / plan.packets as f64,
                    blackholed: out.dropped_down + out.cut_link_drops,
                    expected_after_check: plan.expected_after_check,
                    delivered_after_check: delivered_after,
                    recovered_frac: delivered_after as f64
                        / (plan.expected_after_check as f64).max(1.0),
                    ttl_expired: out.ttl_expired,
                    no_route: out.no_route,
                    hellos_sent: out.hellos_sent,
                    control_in: out.control_in,
                    neighbors_lost: out.neighbors_lost,
                    neighbors_recovered: out.neighbors_recovered,
                    failovers: out.failovers,
                    reconvergences: out.reconvergences,
                    route_churn: out.route_churn,
                    convergence_ms: if out.last_change_ns == 0 {
                        0.0
                    } else {
                        (out.last_change_ns.saturating_sub(T_FAULT.0)) as f64 / 1e6
                    },
                    history_digest: out.digest,
                    wall_ms,
                });
                runs.push(out);
            }
            assert_cell(scenario, nodes, r_count, links, &plan, &runs[0], &runs[1]);
        }
    }

    FabricReport {
        seed,
        smoke,
        hello_ms: HELLO_INTERVAL.as_nanos() / 1_000_000,
        dead_ms: DEAD_INTERVAL.as_nanos() / 1_000_000,
        conv_base_ms: 100,
        conv_per_hop_ms: 4,
        rows,
        steady,
    }
}

/// The fault scenarios' referee: every recovery claim, checked per cell
/// of `r_count` routers and `links` links.
fn assert_cell(
    scenario: Scenario,
    nodes: usize,
    r_count: usize,
    links: usize,
    plan: &CellPlan,
    undef: &RunOutcome,
    hard: &RunOutcome,
) {
    let name = scenario.name();

    // No loops, anywhere, ever: strictly-downhill backups plus
    // FIFO-ordered LSU wavefronts mean reconvergence never cycles a
    // packet; static tables trivially cannot.
    assert_eq!(undef.ttl_expired, 0, "{name}/{nodes}: undefended TTL loop");
    assert_eq!(hard.ttl_expired, 0, "{name}/{nodes}: hardened TTL loop");

    // Plain routers have no resilience plane at all.
    assert_eq!(
        (undef.hellos_sent, undef.control_in, undef.reconvergences),
        (0, 0, 0),
        "{name}/{nodes}: undefended routers must stay silent"
    );

    // Undefended loss accounting is exact: every missing packet is at
    // the blackhole, nothing else drops.
    let undef_delivered = sum(&undef.received);
    let blackholed = undef.dropped_down + undef.cut_link_drops;
    assert_eq!(
        undef_delivered + blackholed,
        plan.packets as u64,
        "{name}/{nodes}: undefended conservation (delivered {} + blackholed {})",
        undef_delivered,
        blackholed
    );
    assert!(
        blackholed > 0,
        "{name}/{nodes}: the fault must actually eat traffic"
    );
    assert_eq!(
        undef.no_route, 0,
        "{name}/{nodes}: static routes never miss"
    );

    // The hardened fabric detects, fails over, floods, reconverges.
    assert!(hard.hellos_sent > 0 && hard.control_in > 0);
    assert!(
        hard.neighbors_lost >= 1,
        "{name}/{nodes}: the dead adjacency must be detected"
    );
    assert!(hard.reconvergences >= 1 && hard.route_churn >= 1);

    // Recovery: after the settle deadline, ≥99% of surviving-path
    // traffic is delivered.
    let hard_delivered = sum(&hard.received);
    let hard_after = hard_delivered - sum(hard.snapshots.last().unwrap());
    assert!(
        hard_after as f64 >= 0.99 * plan.expected_after_check as f64,
        "{name}/{nodes}: hardened recovered {}/{} post-settle packets",
        hard_after,
        plan.expected_after_check
    );
    assert!(
        plan.expected_after_check > 0,
        "{name}/{nodes}: the cell must have post-settle traffic to judge"
    );

    // Convergence is bounded: no route table changes after the
    // scenario's deadline.
    let deadline = scenario.check_at(r_count);
    assert!(
        hard.last_change_ns > 0 && hard.last_change_ns <= deadline.0,
        "{name}/{nodes}: last route change at {}ns, deadline {}ns",
        hard.last_change_ns,
        deadline.0
    );

    // Churn and reconvergence stay under closed-form caps: per fault
    // transition, a router reconverges only on fresh LSUs (at most a
    // handful per transition) and each pass rewrites at most one route
    // per subnet.
    let cap_churn = scenario.transitions() * r_count as u64 * links as u64 * 3;
    let cap_reconv = scenario.transitions() * r_count as u64 * 6;
    assert!(
        hard.route_churn <= cap_churn,
        "{name}/{nodes}: churn {} exceeds cap {}",
        hard.route_churn,
        cap_churn
    );
    assert!(
        hard.reconvergences <= cap_reconv,
        "{name}/{nodes}: {} reconvergences exceed cap {}",
        hard.reconvergences,
        cap_reconv
    );

    match scenario {
        Scenario::RouterKill => {
            // Dead forever: hardened strictly beats undefended, the
            // victim's neighbors failed over, and every surviving
            // router reconverged.
            assert!(
                hard_delivered > undef_delivered,
                "{name}/{nodes}: hardened {} must beat undefended {}",
                hard_delivered,
                undef_delivered
            );
            assert!(hard.failovers >= 1, "backup next-hops must engage");
            assert_eq!(
                hard.reconverged_routers,
                r_count - 1,
                "{name}/{nodes}: every surviving router reconverges"
            );
        }
        Scenario::LinkFlap => {
            // Both endpoints of the flapping link die and recover each
            // cycle; the fabric must track all three rounds.
            assert!(
                hard.neighbors_recovered >= hard.neighbors_lost.min(4),
                "{name}/{nodes}: flap recoveries must be observed"
            );
            assert!(
                hard_delivered >= undef_delivered,
                "{name}/{nodes}: rerouting around a flap never loses more"
            );
        }
        Scenario::Partition => {
            assert!(
                hard_delivered > undef_delivered,
                "{name}/{nodes}: the detour around the isolated router pays"
            );
            // During the converged partition window, surviving-path
            // traffic flows around the cut: snapshot[1] (heal) minus
            // snapshot[0] (fault + bound) bounds it from below.
            let during = sum(&hard.snapshots[1]) - sum(&hard.snapshots[0]);
            assert!(
                during as f64 >= 0.99 * plan.expected_during as f64,
                "{name}/{nodes}: {} delivered during partition, expected ≥99% of {}",
                during,
                plan.expected_during
            );
            assert!(
                hard.neighbors_recovered >= 4,
                "{name}/{nodes}: both cut adjacencies must heal (both ends)"
            );
        }
    }
}

impl FabricPoint {
    fn json(&self) -> Json {
        Json::object([
            ("scenario", self.scenario.into()),
            ("deploy", self.deploy.into()),
            ("nodes", self.nodes.into()),
            ("routers", self.routers.into()),
            ("links", self.links.into()),
            ("packets", self.packets.into()),
            ("delivered", self.delivered.into()),
            ("delivered_frac", Json::Float(self.delivered_frac, 3)),
            ("blackholed", self.blackholed.into()),
            ("expected_after_check", self.expected_after_check.into()),
            ("delivered_after_check", self.delivered_after_check.into()),
            ("recovered_frac", Json::Float(self.recovered_frac, 3)),
            ("ttl_expired", self.ttl_expired.into()),
            ("no_route", self.no_route.into()),
            ("hellos_sent", self.hellos_sent.into()),
            ("control_in", self.control_in.into()),
            ("neighbors_lost", self.neighbors_lost.into()),
            ("neighbors_recovered", self.neighbors_recovered.into()),
            ("failovers", self.failovers.into()),
            ("reconvergences", self.reconvergences.into()),
            ("route_churn", self.route_churn.into()),
            ("convergence_ms", Json::Float(self.convergence_ms, 3)),
            ("history_digest", self.history_digest.into()),
            ("wall_ms", Json::Wall(self.wall_ms, 3)),
        ])
    }
}

impl SteadyPoint {
    fn json(&self) -> Json {
        let secs = (self.wall_ms / 1e3).max(1e-9);
        Json::object([
            ("nodes", self.nodes.into()),
            ("routers", self.routers.into()),
            ("hosts", self.hosts.into()),
            ("links", self.links.into()),
            ("flows", self.flows.into()),
            ("packets", self.packets.into()),
            ("churn_events", self.churn_events.into()),
            ("delivered", self.delivered.into()),
            (
                "delivery_frac",
                Json::Float(self.delivered as f64 / self.packets as f64, 3),
            ),
            ("forwarded", self.forwarded.into()),
            ("sim_end_ns", self.sim_end_ns.into()),
            ("history_digest", self.history_digest.into()),
            ("wall_ms", Json::Wall(self.wall_ms, 3)),
            ("pkts_per_sec", Json::Wall(self.packets as f64 / secs, 3)),
        ])
    }
}

impl FabricReport {
    /// The campaign's artifact: the hardened deployment's timers, the
    /// claims each section asserted, and every cell.
    pub fn json(&self) -> Json {
        let asserts = [
            "undefended losses equal blackhole drops exactly",
            "hardened delivers >=99% of surviving-path traffic post-settle",
            "zero TTL expiries in every cell",
            "route changes stop by the convergence deadline",
            "churn and reconvergences under closed-form caps",
        ];
        let steady_asserts = [
            "exact routed delivery per host",
            "zero no-route, TTL, unroutable and NIC-overrun drops",
        ];
        Json::object([
            ("campaign", "fabric".into()),
            ("seed", self.seed.into()),
            ("smoke", self.smoke.into()),
            ("hello_ms", self.hello_ms.into()),
            ("dead_ms", self.dead_ms.into()),
            ("conv_base_ms", self.conv_base_ms.into()),
            ("conv_per_hop_ms", self.conv_per_hop_ms.into()),
            ("asserts", Json::array(asserts, Json::from)),
            ("rows", Json::array(&self.rows, FabricPoint::json)),
            ("steady_asserts", Json::array(steady_asserts, Json::from)),
            ("steady", Json::array(&self.steady, SteadyPoint::json)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_shape_matches_the_sweep_contract() {
        let (topo, routers, hosts) = ring_topology(16);
        assert_eq!(routers.len(), 4);
        assert_eq!(hosts.len(), 12);
        // 4 ring links + 4 host LANs.
        assert_eq!(topo.link_count(), 8);
        assert_eq!(topo.node_count(), 16);
        // Every host can reach every other host's IP.
        for a in &hosts {
            for b in &hosts {
                if a != b {
                    assert!(topo.first_hop(*a, topo.ip(*b)).is_some());
                }
            }
        }
    }

    #[test]
    fn tiny_ring_degenerates_to_one_lan() {
        let (topo, routers, hosts) = ring_topology(4);
        assert_eq!(routers.len(), 1);
        assert_eq!(hosts.len(), 3);
        assert_eq!(topo.link_count(), 1, "one router, no ring: a single LAN");
    }

    #[test]
    fn schedules_match_the_scenario_contract() {
        let (_, routers, _) = ring_topology(16);
        let kill = Scenario::RouterKill.schedule(&routers);
        assert_eq!(kill.len(), 1);
        let flap = Scenario::LinkFlap.schedule(&routers);
        assert_eq!(flap.len(), 6, "three down/up cycles");
        let part = Scenario::Partition.schedule(&routers);
        assert_eq!(part.len(), 4, "two links down, two links healed");
        assert_eq!(
            part.events().last().unwrap().at,
            Scenario::Partition.last_transition()
        );
    }

    #[test]
    fn a_steady_cell_with_churn_delivers_exactly_and_replays() {
        // 16 nodes → 4 routers, so the churn path (run_until +
        // update_route) is exercised, on a workload small enough for
        // debug builds. The cell asserts exact delivery itself.
        let first = run_steady(16, 300, 0xD0_0D);
        assert_eq!(first.churn_events, 2);
        assert!(first.forwarded > 0, "inter-LAN traffic crossed the ring");
        assert_eq!(first.delivered as usize, first.packets);
        let again = run_steady(16, 300, 0xD0_0D);
        assert_eq!(
            (again.sim_end_ns, again.history_digest),
            (first.sim_end_ns, first.history_digest)
        );
    }

    #[test]
    fn smoke_cell_router_kill_recovers_hardened_only() {
        // One small end-to-end cell through the real machinery.
        let plan = plan_cell(Scenario::RouterKill, 16, 120, 0xFAB);
        let (undef, _) = run_cell(Scenario::RouterKill, false, 16, 120, 0xFAB);
        let (hard, _) = run_cell(Scenario::RouterKill, true, 16, 120, 0xFAB);
        assert_eq!(
            sum(&undef.received) + undef.dropped_down,
            plan.packets as u64,
            "undefended conservation"
        );
        assert!(sum(&hard.received) > sum(&undef.received));
        assert_eq!(hard.ttl_expired, 0);
        assert!(hard.failovers >= 1 && hard.reconvergences >= 1);
        let after = sum(&hard.received) - sum(hard.snapshots.last().unwrap());
        assert!(after as f64 >= 0.99 * plan.expected_after_check as f64);
    }
}
