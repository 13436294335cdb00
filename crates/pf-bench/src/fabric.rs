//! The fault-tolerant-fabric campaign (`BENCH_fabric.json`): routed
//! topologies under router/link chaos, undefended versus hardened,
//! with the recovery claims asserted inside the sweep.
//!
//! Each cell builds the standard ring-of-routers topology, attaches a
//! [`FabricSchedule`] (router kill, link flap train, or a partition
//! that isolates one router and later heals), drives a flowgen
//! workload through it, and runs the same world twice: once with plain
//! static routers ([`deploy`]) and once with the hardened resilience
//! plane ([`deploy_hardened`] — hello probing, backup failover, LSU
//! flooding, residual reconvergence). The sweep is its own referee:
//!
//! * **Undefended blackholes are exact**: with no control plane and no
//!   stochastic faults, every lost packet is accounted one-for-one at
//!   the dead router (`frames_dropped_down`) or the downed link
//!   (`link_down_drops`) — delivered + blackholed == injected, always.
//! * **Hardened recovery is bounded**: after the detection/flooding
//!   window ([`conv_bound`]), ≥ 99% of packets whose endpoints survive
//!   are delivered; every router's `last_route_change_ns` falls inside
//!   the scenario's convergence deadline; route churn and triggered
//!   reconvergences stay under closed-form caps.
//! * **No loops, ever**: the sum of `ttl_expired` across all routers
//!   is asserted zero in every cell — backup next-hops are strictly
//!   downhill and LSU floods precede rerouted data FIFO-wise, so even
//!   transient disagreement never cycles a packet to death.

use crate::flowgen::{self, Arrival, FlowSpec, Pattern, SizeMix, Transport};
use crate::json::Json;
use crate::netbench::ring_topology;
use pf_kernel::World;
use pf_net::fabric::FabricSchedule;
use pf_net::frame;
use pf_net::{LinkId, NodeId, Topology};
use pf_proto::ip::{encode_ip, IpHeader, IP_ETHERTYPE};
use pf_proto::router::{deploy, deploy_hardened, HelloConfig};
use pf_sim::cost::CostModel;
use pf_sim::time::{SimDuration, SimTime};
use pf_sim::SimClock;
use std::collections::HashMap;

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
    /// Ring router 1 crashes at [`T_FAULT`] and never comes back.
    RouterKill,
    /// Ring link 0 flaps: 100ms down / 150ms up, three cycles.
    LinkFlap,
    /// Ring links 0 and 1 go down together at [`T_FAULT`] (isolating
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

/// One campaign row: a (scenario × size × deploy) cell.
#[derive(Debug, Clone)]
pub struct FabricPoint {
    pub scenario: &'static str,
    /// "undefended" or "hardened".
    pub deploy: &'static str,
    pub nodes: usize,
    pub routers: usize,
    pub links: usize,
    /// Workload packets injected.
    pub packets: usize,
    /// Packets received by their addressed host by the horizon.
    pub delivered: u64,
    pub delivered_frac: f64,
    /// Packets swallowed by the scenario's blackhole (dead-router drops
    /// plus down-link drops; exact for undefended, diagnostic for
    /// hardened where control traffic also hits the blackhole).
    pub blackholed: u64,
    /// Packets sent after the settle deadline with both endpoints on
    /// surviving LANs.
    pub expected_after_check: u64,
    /// Packets delivered after the settle deadline.
    pub delivered_after_check: u64,
    /// delivered_after_check / expected_after_check.
    pub recovered_frac: f64,
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
    pub convergence_ms: f64,
    pub wall_ms: f64,
}

/// The full campaign artifact.
#[derive(Debug, Clone)]
pub struct FabricReport {
    pub seed: u64,
    pub smoke: bool,
    pub hello_ms: u64,
    pub dead_ms: u64,
    /// Convergence-deadline formula: base + per-hop × ring diameter.
    pub conv_base_ms: u64,
    pub conv_per_hop_ms: u64,
    pub rows: Vec<FabricPoint>,
}

/// Everything simulated that a run produced (wall time excluded).
#[derive(Debug, Clone)]
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
}

fn cell_spec(flows: usize) -> FlowSpec {
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

fn ip_proto(t: Transport) -> u8 {
    match t {
        Transport::Udp => 17,
        Transport::Bsp => 99,
        Transport::Vmtp => 81,
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

/// The router sequence a packet takes under the static plan, by
/// walking the plan route tables from the source's LAN router.
fn plan_path(
    topo: &Topology,
    ip2router: &HashMap<u32, NodeId>,
    src_host: NodeId,
    dst_ip: u32,
) -> Vec<NodeId> {
    let mut cur = lan_router(topo, src_host);
    let mut path = vec![cur];
    loop {
        let r = topo
            .route_table(cur)
            .lookup(dst_ip)
            .expect("the plan covers every subnet");
        match r.next_hop {
            None => return path,
            Some(nh) => {
                cur = *ip2router.get(&nh).expect("next hop is a router iface");
                path.push(cur);
            }
        }
    }
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
    let cell_seed = seed ^ ((nodes as u64) << 32) ^ flows as u64;
    let packets = flowgen::generate(&cell_spec(flows), hosts.len(), cell_seed);

    let mut w = World::new(cell_seed);
    let costs = CostModel::microvax_ii();
    let d = if hardened {
        deploy_hardened(&topo, &mut w, &costs, HelloConfig::default())
    } else {
        deploy(&topo, &mut w, &costs)
    };
    for h in &hosts {
        w.set_nic_capacity(d.host(*h), 1 << 20);
    }

    for p in &packets {
        let src = hosts[p.src];
        let dst_ip = topo.ip(hosts[p.dst]);
        let (iface, next_eth) = topo.first_hop(src, dst_ip).expect("ring is connected");
        let src_if = topo.interfaces(src)[iface];
        let packet = encode_ip(
            &IpHeader {
                proto: ip_proto(p.transport),
                // A reroute can double a packet's path mid-flight
                // (forward progress toward the cut, then the full
                // detour the other way around the ring): 64-router
                // rings legitimately need ~95 hops. With the budget
                // covering any single detour, every TTL expiry left is
                // a genuine forwarding loop — which the campaign
                // asserts never happens.
                ttl: 255,
                src: topo.ip(src),
                dst: dst_ip,
                total_len: 0,
            },
            &vec![0xA5u8; p.payload],
        );
        let f = frame::build(
            topo.medium(src_if.link),
            next_eth,
            src_if.eth,
            IP_ETHERTYPE,
            &packet,
        )
        .expect("frame fits the medium");
        w.send_frame_at(d.host(src), f, p.at);
    }

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

    let received: Vec<u64> = hosts
        .iter()
        .map(|h| w.counters(d.host(*h)).packets_received)
        .collect();
    for (i, h) in hosts.iter().enumerate() {
        assert_eq!(
            w.counters(d.host(*h)).drops_interface,
            0,
            "host {i}: NIC overruns would corrupt the loss accounting"
        );
    }
    let mut out = RunOutcome {
        received,
        snapshots,
        dropped_down: 0,
        cut_link_drops: 0,
        forwarded: 0,
        ttl_expired: 0,
        no_route: 0,
        hellos_sent: 0,
        control_in: 0,
        neighbors_lost: 0,
        neighbors_recovered: 0,
        failovers: 0,
        reconvergences: 0,
        route_churn: 0,
        last_change_ns: 0,
        reconverged_routers: 0,
    };
    for r in &routers {
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
    let cell_seed = seed ^ ((nodes as u64) << 32) ^ flows as u64;
    let packets = flowgen::generate(&cell_spec(flows), hosts.len(), cell_seed);
    let mut ip2router = HashMap::new();
    for r in &routers {
        for i in topo.interfaces(*r) {
            ip2router.insert(i.ip, *r);
        }
    }
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
            let path = plan_path(&topo, &ip2router, src, topo.ip(dst));
            let _ = path; // endpoints decide survival; path kept for clarity
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

/// Runs the campaign. `smoke` shrinks the grid for CI; every assert
/// still fires. Panics (never lies) when undefended loss accounting is
/// inexact, hardened recovery misses its bound, any TTL expires, or
/// churn exceeds its cap.
pub fn sweep(smoke: bool, seed: u64) -> FabricReport {
    let node_sizes: &[usize] = if smoke { &[16] } else { &[16, 64, 256] };
    let scenarios = [
        Scenario::RouterKill,
        Scenario::LinkFlap,
        Scenario::Partition,
    ];
    let cfg = HelloConfig::default();
    let mut rows = Vec::new();

    for &nodes in node_sizes {
        let flows = if smoke { 200 } else { 8 * nodes };
        for scenario in scenarios {
            let plan = plan_cell(scenario, nodes, flows, seed);
            let mut cell: HashMap<&'static str, RunOutcome> = HashMap::new();
            for hardened in [false, true] {
                let deploy_name = if hardened { "hardened" } else { "undefended" };
                let (out, wall_ms) = run_cell(scenario, hardened, nodes, flows, seed);
                let (topo_shape, routers, _) = ring_topology(nodes);
                let delivered = sum(&out.received);
                let delivered_after = delivered - sum(out.snapshots.last().unwrap());
                rows.push(FabricPoint {
                    scenario: scenario.name(),
                    deploy: deploy_name,
                    nodes,
                    routers: routers.len(),
                    links: topo_shape.link_count(),
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
                    wall_ms,
                });
                cell.insert(deploy_name, out);
            }
            assert_cell(
                scenario,
                nodes,
                &plan,
                &cell["undefended"],
                &cell["hardened"],
                &cfg,
            );
        }
    }

    FabricReport {
        seed,
        smoke,
        hello_ms: cfg.hello_interval.as_nanos() / 1_000_000,
        dead_ms: cfg.dead_interval.as_nanos() / 1_000_000,
        conv_base_ms: 100,
        conv_per_hop_ms: 4,
        rows,
    }
}

/// The campaign's referee: every recovery claim, checked per cell.
fn assert_cell(
    scenario: Scenario,
    nodes: usize,
    plan: &CellPlan,
    undef: &RunOutcome,
    hard: &RunOutcome,
    _cfg: &HelloConfig,
) {
    let name = scenario.name();
    let (_, routers, _) = ring_topology(nodes);
    let r_count = routers.len() as u64;
    let links = {
        let (topo, _, _) = ring_topology(nodes);
        topo.link_count() as u64
    };

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
    let deadline = scenario.check_at(routers.len());
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
    let cap_churn = scenario.transitions() * r_count * links * 3;
    let cap_reconv = scenario.transitions() * r_count * 6;
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
                routers.len() - 1,
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
            ("wall_ms", Json::Wall(self.wall_ms, 3)),
        ])
    }
}

impl FabricReport {
    /// The campaign's artifact: the hardened deployment's timers, the
    /// claims the sweep asserted, and every cell.
    pub fn json(&self) -> Json {
        let asserts = [
            "undefended losses equal blackhole drops exactly",
            "hardened delivers >=99% of surviving-path traffic post-settle",
            "zero TTL expiries in every cell",
            "route changes stop by the convergence deadline",
            "churn and reconvergences under closed-form caps",
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
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_paths_walk_the_ring() {
        let (topo, routers, hosts) = ring_topology(16);
        let mut ip2router = HashMap::new();
        for r in &routers {
            for i in topo.interfaces(*r) {
                ip2router.insert(i.ip, *r);
            }
        }
        // hosts[0] hangs off router 0, hosts[1] off router 1 (LANs are
        // dealt round-robin).
        let path = plan_path(&topo, &ip2router, hosts[0], topo.ip(hosts[1]));
        assert_eq!(path.first(), Some(&routers[0]));
        assert_eq!(path.last(), Some(&routers[1]));
        // Same-LAN traffic never leaves the first router.
        let path = plan_path(&topo, &ip2router, hosts[0], topo.ip(hosts[4]));
        assert_eq!(path, vec![routers[0]]);
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
