//! Multi-segment topologies: hosts and routers wired into an internet.
//!
//! A [`Topology`] is a *plan*: nodes (hosts and routers), links between
//! them (each link becomes one [`Network`] segment), deterministic
//! IP/link addressing, and shortest-path forwarding tables computed at
//! build time. The plan is substrate-agnostic — `pf-net` can
//! [`instantiate`](Topology::instantiate) it into a bare [`Network`] for
//! link-layer tests, and `pf-proto` deploys it into a full `World` with
//! kernel-resident IP routers (`pf_proto::router`).
//!
//! ## Addressing
//!
//! Link *l* becomes the /24 subnet `10.⌊l/256⌋.(l mod 256).0`; the *k*-th
//! member of the link gets host byte `k + 1` and link-layer address
//! `k + 1` on that segment (link addresses only need to be unique per
//! segment; `0` is avoided because it is the experimental medium's
//! broadcast address). IPs are globally unique, so the topology carries
//! one static ARP map from IP to link address.
//!
//! ## Forwarding
//!
//! Each router gets a [`RouteTable`] of longest-prefix-match routes
//! computed by a deterministic multi-source BFS per destination subnet
//! (hosts do not forward; a frame's first hop is its LAN's
//! lowest-indexed router). The table is static data — the *execution*
//! of forwarding (TTL decrement, re-encapsulation, cost accounting)
//! lives behind the [`Forwarder`] trait so the kernel simulation can
//! plug in the IP implementation without `pf-net` depending on it.

use std::collections::{HashMap, HashSet};

use pf_sim::time::{SimDuration, SimTime};

use crate::fabric::FabricSchedule;
use crate::medium::Medium;
use crate::segment::{FaultModel, Network, SegmentId, StationHandle, StationId};

/// Identifies a node (host or router) within a [`Topology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(pub usize);

/// Identifies a link (one shared segment) within a [`Topology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LinkId(pub usize);

/// What a node does with frames that are not addressed to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// End system: sources and sinks traffic, never forwards.
    Host,
    /// Packet switch: runs a [`Forwarder`] over its interfaces.
    Router,
}

/// One node's attachment to one link.
#[derive(Debug, Clone, Copy)]
pub struct Interface {
    /// The link this interface sits on.
    pub link: LinkId,
    /// The interface's IP address (globally unique).
    pub ip: u32,
    /// The interface's link-layer address (unique per segment).
    pub eth: u64,
}

/// A longest-prefix-match route entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Route {
    /// Network prefix (host bits zero).
    pub prefix: u32,
    /// Prefix length in bits (0..=32).
    pub len: u8,
    /// Which of the owning node's interfaces the packet leaves on.
    pub iface: usize,
    /// IP of the next-hop router, or `None` when the destination subnet
    /// is directly attached (deliver straight to the destination's
    /// link address).
    pub next_hop: Option<u32>,
}

fn prefix_mask(len: u8) -> u32 {
    if len == 0 {
        0
    } else {
        u32::MAX << (32 - u32::from(len))
    }
}

/// A static longest-prefix-match forwarding table.
///
/// Entries are kept sorted longest-prefix-first, and by prefix within one
/// length. Beside each sits its key, `(32 − len) << 32 | prefix`, so that
/// order is the keys' ascending order and [`lookup`](RouteTable::lookup)
/// is one integer binary search per prefix length in use: a ring router's
/// hundred-odd /24s cost seven probes, not a scan.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RouteTable {
    routes: Vec<Route>,
    /// `route_key` of `routes[i]` at `i`.
    keys: Vec<u64>,
    /// Bit `len` set for every prefix length some route has.
    lengths: u64,
}

fn route_key(prefix: u32, len: u8) -> u64 {
    u64::from(32 - len) << 32 | u64::from(prefix)
}

impl RouteTable {
    /// An empty table (every lookup misses).
    pub fn new() -> Self {
        RouteTable::default()
    }

    /// Inserts a route, replacing any existing entry with the same
    /// prefix and length. Returns `true` when an entry was replaced.
    pub fn set(&mut self, route: Route) -> bool {
        debug_assert_eq!(
            route.prefix & prefix_mask(route.len),
            route.prefix,
            "host bits must be zero in a route prefix"
        );
        match self.keys.binary_search(&route_key(route.prefix, route.len)) {
            Ok(i) => {
                self.routes[i] = route;
                true
            }
            Err(i) => {
                self.keys.insert(i, route_key(route.prefix, route.len));
                self.routes.insert(i, route);
                self.lengths |= 1 << route.len;
                false
            }
        }
    }

    /// The most specific route matching `dst`, if any.
    pub fn lookup(&self, dst: u32) -> Option<&Route> {
        let mut lengths = self.lengths;
        while lengths != 0 {
            let len = 63 - lengths.leading_zeros() as u8;
            lengths ^= 1 << len;
            let want = route_key(dst & prefix_mask(len), len);
            let i = self.keys.partition_point(|&k| k < want);
            if self.keys.get(i) == Some(&want) {
                return Some(&self.routes[i]);
            }
        }
        None
    }

    /// All routes, longest prefix first.
    pub fn routes(&self) -> &[Route] {
        &self.routes
    }
}

/// Counters a [`Forwarder`] keeps about its own drops and successes,
/// plus the resilience-plane tallies a hardened forwarder maintains
/// (all zero for plain static forwarders).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ForwarderStats {
    /// Frames re-emitted on an outgoing interface.
    pub forwarded: u64,
    /// Packets dropped because the TTL reached zero.
    pub ttl_expired: u64,
    /// Packets dropped for lack of a matching route (or unresolvable
    /// next hop).
    pub no_route: u64,
    /// Frames dropped because they were not well-formed routable
    /// packets (bad encapsulation, non-IP ethertype, parse errors).
    pub not_routable: u64,
    /// Neighbor-liveness hellos emitted.
    pub hellos_sent: u64,
    /// Routing-control frames received and consumed (hellos + updates).
    pub control_in: u64,
    /// Neighbor routers declared dead after a missed dead-interval.
    pub neighbors_lost: u64,
    /// Dead neighbors heard from again.
    pub neighbors_recovered: u64,
    /// Route entries switched to a precomputed loop-free backup at the
    /// instant a neighbor died (fast local failover, before any
    /// recomputation).
    pub failovers: u64,
    /// Route-table entries changed by reconvergence (installed, revised,
    /// or withdrawn) — the campaign's bounded-churn counter.
    pub route_churn: u64,
    /// Triggered route recomputations over the residual topology.
    pub reconvergences: u64,
    /// Sim-time in nanoseconds of the most recent route-table change
    /// (zero when the table never changed) — the convergence clock.
    pub last_route_change_ns: u64,
}

/// The forwarding plane of a router node.
///
/// The kernel simulation hands every frame arriving on a router's
/// interface to `forward_owned`, charges the router CPU, and transmits
/// whatever comes back; nothing coming back drops the frame (TTL expiry,
/// no route, unparseable). The IP implementation lives in
/// `pf_proto::router`; `pf-net` only defines the boundary.
pub trait Forwarder {
    /// Process one received frame, pushing the `(out_interface,
    /// out_frame)` pairs to transmit onto `out`; pushing nothing drops the
    /// frame. The forwarder owns `frame` and may re-emit the buffer it
    /// arrived in.
    fn forward_owned(&mut self, iface: usize, frame: Vec<u8>, out: &mut Vec<(usize, Vec<u8>)>);

    /// The borrowed form of [`forward_owned`](Forwarder::forward_owned),
    /// for callers that keep their frame: returns the pairs to transmit.
    fn forward(&mut self, iface: usize, frame: &[u8]) -> Vec<(usize, Vec<u8>)> {
        let mut out = Vec::new();
        self.forward_owned(iface, frame.to_vec(), &mut out);
        out
    }

    /// Drop/success counters (zero by default).
    fn stats(&self) -> ForwarderStats {
        ForwarderStats::default()
    }

    /// Replace a route at runtime (routing churn). Returns `false` when
    /// the forwarder does not support route updates.
    fn update_route(&mut self, route: Route) -> bool {
        let _ = route;
        false
    }

    /// Periodic work (liveness probing, protocol timers). The kernel
    /// simulation calls this every [`tick_interval`](Forwarder::tick_interval)
    /// while the router is up; returned `(out_interface, out_frame)`
    /// pairs are transmitted like forwarded traffic. The default
    /// forwarder is purely reactive and emits nothing.
    fn tick(&mut self, now: SimTime) -> Vec<(usize, Vec<u8>)> {
        let _ = now;
        Vec::new()
    }

    /// How often [`tick`](Forwarder::tick) wants to run; `None` (the
    /// default) disables ticking entirely.
    fn tick_interval(&self) -> Option<SimDuration> {
        None
    }
}

#[derive(Debug, Clone)]
struct NodeSpec {
    name: String,
    kind: NodeKind,
}

#[derive(Debug, Clone)]
struct LinkSpec {
    members: Vec<NodeId>,
    medium: Medium,
    faults: FaultModel,
}

/// Incremental builder for a [`Topology`]; see [`Topology::builder`].
#[derive(Debug, Default)]
pub struct TopologyBuilder {
    nodes: Vec<NodeSpec>,
    links: Vec<LinkSpec>,
    fabric: FabricSchedule,
}

impl TopologyBuilder {
    /// Adds an end system.
    pub fn host(&mut self, name: impl Into<String>) -> NodeId {
        self.add_node(name.into(), NodeKind::Host)
    }

    /// Adds a packet switch.
    pub fn router(&mut self, name: impl Into<String>) -> NodeId {
        self.add_node(name.into(), NodeKind::Router)
    }

    fn add_node(&mut self, name: String, kind: NodeKind) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(NodeSpec { name, kind });
        id
    }

    /// Adds a point-to-point link (a two-station segment).
    pub fn link(&mut self, a: NodeId, b: NodeId, medium: Medium, faults: FaultModel) -> LinkId {
        self.lan(&[a, b], medium, faults)
    }

    /// Adds a shared multi-drop segment joining all `members`.
    pub fn lan(&mut self, members: &[NodeId], medium: Medium, faults: FaultModel) -> LinkId {
        assert!(members.len() >= 2, "a link needs at least two members");
        for m in members {
            assert!(m.0 < self.nodes.len(), "unknown node {:?}", m);
        }
        if medium.addr_len == 1 {
            assert!(
                members.len() <= 254,
                "one-byte link addresses limit a segment to 254 stations"
            );
        }
        let id = LinkId(self.links.len());
        self.links.push(LinkSpec {
            members: members.to_vec(),
            medium,
            faults,
        });
        id
    }

    /// Attaches a routing-plane fault schedule to the plan. Deployments
    /// that honor schedules (e.g. `pf_proto::router::deploy`) replay it
    /// against the running world; the bare [`Network`] substrate from
    /// [`Topology::instantiate`] ignores it.
    pub fn fabric(&mut self, schedule: FabricSchedule) {
        self.fabric = schedule;
    }

    /// Assigns addresses, computes every router's shortest-path route
    /// table, and freezes the plan.
    ///
    /// # Panics
    ///
    /// Panics if a host is on zero or multiple links (end systems have
    /// exactly one interface) or a router has no links.
    pub fn build(self) -> Topology {
        let mut ifaces: Vec<Vec<Interface>> = vec![Vec::new(); self.nodes.len()];
        let mut arp = HashMap::new();
        for (l, link) in self.links.iter().enumerate() {
            let subnet = subnet_of(LinkId(l));
            for (k, member) in link.members.iter().enumerate() {
                let ip = subnet | (k as u32 + 1);
                let eth = k as u64 + 1;
                ifaces[member.0].push(Interface {
                    link: LinkId(l),
                    ip,
                    eth,
                });
                arp.insert(ip, eth);
            }
        }
        for (n, node) in self.nodes.iter().enumerate() {
            match node.kind {
                NodeKind::Host => assert_eq!(
                    ifaces[n].len(),
                    1,
                    "host {:?} must sit on exactly one link",
                    node.name
                ),
                NodeKind::Router => {
                    assert!(!ifaces[n].is_empty(), "router {:?} has no links", node.name)
                }
            }
        }
        let (routes, backups) = compute_routes(
            &self.nodes,
            &self.links,
            &ifaces,
            &|_, _| false,
            downhill_parents,
        );
        Topology {
            nodes: self.nodes,
            links: self.links,
            ifaces,
            routes,
            backups,
            arp,
            fabric: self.fabric,
        }
    }
}

fn subnet_of(link: LinkId) -> u32 {
    let l = link.0 as u32;
    (10 << 24) | ((l >> 8) << 16) | ((l & 0xFF) << 8)
}

/// Per-destination-subnet multi-source BFS over the router graph,
/// skipping `blocked` router-router adjacencies (the residual graph).
/// Deterministic: frontier and adjacency are walked in index order, and
/// the first (shortest, lowest-index) parent wins.
///
/// Besides the primary tables this also derives *backup* tables: for a
/// router at BFS distance `d ≥ 1`, the backup next-hop is the next
/// downhill parent in priority order — a *different* neighbor router at
/// distance `d − 1`. Because both primary and backup strictly decrease
/// the distance to the destination, any mixture of routers using
/// primaries and routers using backups is loop-free (each hop is
/// strictly downhill); equal-distance alternates are deliberately never
/// used, because two equal-cost neighbors may point at each other.
fn compute_routes(
    nodes: &[NodeSpec],
    links: &[LinkSpec],
    ifaces: &[Vec<Interface>],
    blocked: &dyn Fn(NodeId, NodeId) -> bool,
    parents_of: DownhillParents,
) -> (Vec<RouteTable>, Vec<RouteTable>) {
    let mut tables = vec![RouteTable::new(); nodes.len()];
    let mut backups = vec![RouteTable::new(); nodes.len()];
    let mut parents = Vec::new();
    let iface_on = |n: usize, l: LinkId| -> Option<(usize, &Interface)> {
        ifaces[n].iter().enumerate().find(|(_, i)| i.link == l)
    };
    for (dst_l, _) in links.iter().enumerate() {
        let dst_link = LinkId(dst_l);
        let subnet = subnet_of(dst_link);
        let mut dist: Vec<Option<u32>> = vec![None; nodes.len()];
        let mut frontier: Vec<usize> = Vec::new();
        // Routers directly on the destination link deliver directly.
        for m in &links[dst_l].members {
            if nodes[m.0].kind == NodeKind::Router {
                let (idx, _) = iface_on(m.0, dst_link).expect("member has iface");
                tables[m.0].set(Route {
                    prefix: subnet,
                    len: 24,
                    iface: idx,
                    next_hop: None,
                });
                dist[m.0] = Some(0);
                frontier.push(m.0);
            }
        }
        frontier.sort_unstable();
        while !frontier.is_empty() {
            let mut next = Vec::new();
            for &v in &frontier {
                for vi in &ifaces[v] {
                    for u in &links[vi.link.0].members {
                        let u = u.0;
                        if u == v
                            || nodes[u].kind != NodeKind::Router
                            || dist[u].is_some()
                            || blocked(NodeId(v), NodeId(u))
                        {
                            continue;
                        }
                        let (uidx, _) = iface_on(u, vi.link).expect("member has iface");
                        tables[u].set(Route {
                            prefix: subnet,
                            len: 24,
                            iface: uidx,
                            next_hop: Some(vi.ip),
                        });
                        dist[u] = Some(dist[v].expect("in frontier") + 1);
                        next.push(u);
                    }
                }
            }
            next.sort_unstable();
            next.dedup();
            frontier = next;
        }
        // Backup next-hops: each reached router's downhill parents in the
        // priority order the BFS used (parent index, then the parent's
        // interface order) — the first is the primary, the first with a
        // *different* parent node becomes the backup.
        for u in 0..nodes.len() {
            if dist[u].is_none_or(|d| d == 0) {
                continue; // unreached, or directly attached: no downhill alternate
            }
            parents_of(links, ifaces, blocked, &dist, u, &mut parents);
            // A second link to the same parent is not a useful backup
            // against that parent dying.
            let Some(&(primary, _)) = parents.first() else {
                continue;
            };
            if let Some(&(v, j)) = parents.iter().find(|&&(v, _)| v != primary) {
                let vi = &ifaces[v][j];
                let (uidx, _) = iface_on(u, vi.link).expect("member has iface");
                backups[u].set(Route {
                    prefix: subnet,
                    len: 24,
                    iface: uidx,
                    next_hop: Some(vi.ip),
                });
            }
        }
    }
    (tables, backups)
}

/// Fills `out` with router `u`'s downhill parents toward one destination:
/// every `(parent, parent's interface)` such that the parent is at BFS
/// distance `dist[u] − 1`, the interface's link holds `u`, and the
/// adjacency is not blocked, sorted — the BFS's priority order.
type DownhillParents = fn(
    &[LinkSpec],
    &[Vec<Interface>],
    &dyn Fn(NodeId, NodeId) -> bool,
    &[Option<u32>],
    usize,
    &mut Vec<(usize, usize)>,
);

/// [`DownhillParents`] over `u`'s own links' members: O(degree).
fn downhill_parents(
    links: &[LinkSpec],
    ifaces: &[Vec<Interface>],
    blocked: &dyn Fn(NodeId, NodeId) -> bool,
    dist: &[Option<u32>],
    u: usize,
    out: &mut Vec<(usize, usize)>,
) {
    out.clear();
    let want = dist[u].map(|d| d - 1);
    for ui in &ifaces[u] {
        for &NodeId(v) in &links[ui.link.0].members {
            // Hosts have no distance, and `u` is not at `want`.
            if dist[v] != want || blocked(NodeId(v), NodeId(u)) {
                continue;
            }
            for (j, vi) in ifaces[v].iter().enumerate() {
                if vi.link == ui.link {
                    out.push((v, j));
                }
            }
        }
    }
    out.sort_unstable();
    out.dedup();
}

/// A frozen network plan; see the module docs for the model.
#[derive(Debug, Clone)]
pub struct Topology {
    nodes: Vec<NodeSpec>,
    links: Vec<LinkSpec>,
    ifaces: Vec<Vec<Interface>>,
    routes: Vec<RouteTable>,
    backups: Vec<RouteTable>,
    arp: HashMap<u32, u64>,
    fabric: FabricSchedule,
}

impl Topology {
    /// Starts an empty plan.
    pub fn builder() -> TopologyBuilder {
        TopologyBuilder::default()
    }

    /// Number of nodes (hosts + routers).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of links (segments).
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// The node's display name.
    pub fn name(&self, node: NodeId) -> &str {
        &self.nodes[node.0].name
    }

    /// Whether the node forwards.
    pub fn kind(&self, node: NodeId) -> NodeKind {
        self.nodes[node.0].kind
    }

    /// The node's interfaces in attachment order.
    pub fn interfaces(&self, node: NodeId) -> &[Interface] {
        &self.ifaces[node.0]
    }

    /// A host's (single) IP address; for routers, the first interface's.
    pub fn ip(&self, node: NodeId) -> u32 {
        self.ifaces[node.0][0].ip
    }

    /// The /24 subnet a link was assigned.
    pub fn subnet(&self, link: LinkId) -> u32 {
        subnet_of(link)
    }

    /// A link's members, in attachment order.
    pub fn members(&self, link: LinkId) -> &[NodeId] {
        &self.links[link.0].members
    }

    /// A link's medium.
    pub fn medium(&self, link: LinkId) -> &Medium {
        &self.links[link.0].medium
    }

    /// A link's fault model.
    pub fn faults(&self, link: LinkId) -> &FaultModel {
        &self.links[link.0].faults
    }

    /// A node's computed route table (empty for hosts).
    pub fn route_table(&self, node: NodeId) -> &RouteTable {
        &self.routes[node.0]
    }

    /// A node's precomputed loop-free backup next-hops: for every
    /// destination subnet the router reaches at BFS distance `d ≥ 1`,
    /// the next strictly-downhill parent through a *different* neighbor
    /// router, when one exists. Installing a backup entry over the
    /// primary still moves every packet strictly closer to the
    /// destination, so mixed primary/backup forwarding cannot loop.
    pub fn backup_route_table(&self, node: NodeId) -> &RouteTable {
        &self.backups[node.0]
    }

    /// Recomputes every node's shortest-path table on the residual
    /// graph with the given undirected router-router adjacencies
    /// removed (a dead router is expressed as all of its adjacencies;
    /// a dead link as the pair of routers it joined). Destinations with
    /// no surviving path simply get no route.
    pub fn routes_avoiding(&self, blocked_pairs: &[(NodeId, NodeId)]) -> Vec<RouteTable> {
        let norm = |a: NodeId, b: NodeId| (a.0.min(b.0), a.0.max(b.0));
        let set: HashSet<(usize, usize)> = blocked_pairs.iter().map(|&(a, b)| norm(a, b)).collect();
        let blocked = move |a: NodeId, b: NodeId| set.contains(&norm(a, b));
        compute_routes(
            &self.nodes,
            &self.links,
            &self.ifaces,
            &blocked,
            downhill_parents,
        )
        .0
    }

    /// The plan's routing-plane fault schedule (empty unless set via
    /// [`TopologyBuilder::fabric`]).
    pub fn fabric_schedule(&self) -> &FabricSchedule {
        &self.fabric
    }

    /// Returns the plan with `schedule` attached — for callers that
    /// obtain a finished [`Topology`] from a shape helper and want to
    /// bolt a fault schedule on afterwards.
    pub fn with_fabric(mut self, schedule: FabricSchedule) -> Self {
        self.fabric = schedule;
        self
    }

    /// The global static ARP map (IP → per-segment link address).
    pub fn arp(&self) -> &HashMap<u32, u64> {
        &self.arp
    }

    /// Where a frame from `node` to `dst_ip` goes on the wire first:
    /// `(interface index, destination link address)`. Direct for
    /// on-subnet destinations, otherwise the LAN's lowest-indexed
    /// router. `None` when the destination is unreachable from here.
    pub fn first_hop(&self, node: NodeId, dst_ip: u32) -> Option<(usize, u64)> {
        for (idx, i) in self.ifaces[node.0].iter().enumerate() {
            if dst_ip & 0xFFFF_FF00 == subnet_of(i.link) {
                return Some((idx, *self.arp.get(&dst_ip)?));
            }
        }
        // Off-subnet: hand to the first router on our first link.
        let (idx, i) = (0, self.ifaces[node.0].first()?);
        let gw = self.links[i.link.0]
            .members
            .iter()
            .find(|m| m.0 != node.0 && self.nodes[m.0].kind == NodeKind::Router)?;
        let gw_iface = self.ifaces[gw.0].iter().find(|gi| gi.link == i.link)?;
        Some((idx, gw_iface.eth))
    }

    /// Materializes the plan into `net`: one segment per link, one
    /// station per interface, in index order. The returned map gives
    /// [`StationHandle`]s for every station.
    pub fn instantiate(&self, net: &mut Network) -> InstantiatedTopology {
        let segments: Vec<SegmentId> = self
            .links
            .iter()
            .map(|l| net.add_segment(l.medium, l.faults))
            .collect();
        let stations: Vec<Vec<StationId>> = self
            .ifaces
            .iter()
            .map(|ifs| {
                ifs.iter()
                    .map(|i| net.add_station(segments[i.link.0], i.eth))
                    .collect()
            })
            .collect();
        InstantiatedTopology { segments, stations }
    }
}

/// Id map produced by [`Topology::instantiate`].
#[derive(Debug, Clone)]
pub struct InstantiatedTopology {
    /// Segment id per link, in link order.
    pub segments: Vec<SegmentId>,
    /// Station ids per node, in interface order.
    pub stations: Vec<Vec<StationId>>,
}

impl InstantiatedTopology {
    /// The [`StationHandle`] for one node interface.
    pub fn station<'a>(
        &self,
        net: &'a mut Network,
        node: NodeId,
        iface: usize,
    ) -> StationHandle<'a> {
        net.station(self.stations[node.0][iface])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m() -> Medium {
        Medium::standard_10mb()
    }

    fn f() -> FaultModel {
        FaultModel::default()
    }

    #[test]
    fn lpm_prefers_the_longest_prefix() {
        let mut t = RouteTable::new();
        t.set(Route {
            prefix: 0,
            len: 0,
            iface: 0,
            next_hop: None,
        });
        t.set(Route {
            prefix: 0x0A01_0000,
            len: 16,
            iface: 1,
            next_hop: None,
        });
        t.set(Route {
            prefix: 0x0A01_0200,
            len: 24,
            iface: 2,
            next_hop: None,
        });
        assert_eq!(t.lookup(0x0A01_0203).unwrap().iface, 2, "/24 wins");
        assert_eq!(t.lookup(0x0A01_0503).unwrap().iface, 1, "/16 next");
        assert_eq!(t.lookup(0x0B00_0001).unwrap().iface, 0, "default last");
    }

    #[test]
    fn set_replaces_same_prefix_routes() {
        let mut t = RouteTable::new();
        let r = Route {
            prefix: 0x0A00_0100,
            len: 24,
            iface: 0,
            next_hop: None,
        };
        assert!(!t.set(r));
        assert!(t.set(Route { iface: 3, ..r }));
        assert_eq!(t.routes().len(), 1);
        assert_eq!(t.lookup(0x0A00_0101).unwrap().iface, 3);
    }

    /// The specification of `lookup`: the first match in a table kept
    /// longest-prefix-first.
    fn linear_lookup(t: &RouteTable, dst: u32) -> Option<&Route> {
        t.routes()
            .iter()
            .find(|r| dst & prefix_mask(r.len) == r.prefix)
    }

    #[test]
    fn binary_search_lookup_agrees_with_the_linear_scan() {
        let mut rng = pf_sim::rng::SplitMix64::new(0x10C4);
        for table in 0..200 {
            let mut t = RouteTable::new();
            // A few "sites" so that prefixes nest and probes land near
            // routes; every other table also carries a default route.
            let sites: Vec<u32> = (0..4).map(|_| rng.next_u64() as u32).collect();
            if table % 2 == 0 {
                t.set(Route {
                    prefix: 0,
                    len: 0,
                    iface: 99,
                    next_hop: None,
                });
            }
            for i in 0..rng.below(160) as usize {
                let len = [32, 32, 24, 24, 24, 16, 8, rng.below(33) as u8][rng.below(8) as usize];
                let near = sites[rng.below(4) as usize] ^ (rng.next_u64() as u32 & 0x0003_FFFF);
                let prefix = near & prefix_mask(len);
                // Re-setting an existing (prefix, len) must replace it.
                let present = t
                    .routes()
                    .iter()
                    .any(|r| (r.prefix, r.len) == (prefix, len));
                let replaced = t.set(Route {
                    prefix,
                    len,
                    iface: i,
                    next_hop: rng.chance(0.5).then_some(near),
                });
                assert_eq!(replaced, present, "set({prefix:#010x}/{len})");
                let order = |r: &Route| (std::cmp::Reverse(r.len), r.prefix);
                assert!(t.routes().windows(2).all(|w| order(&w[0]) < order(&w[1])));
                let keys: Vec<u64> = t
                    .routes()
                    .iter()
                    .map(|r| route_key(r.prefix, r.len))
                    .collect();
                assert_eq!(t.keys, keys);
                let lengths = t.routes().iter().fold(0u64, |m, r| m | 1 << r.len);
                assert_eq!(t.lengths, lengths);
            }
            for _ in 0..400 {
                let dst = match rng.below(3) {
                    0 => rng.next_u64() as u32,
                    1 => sites[rng.below(4) as usize] ^ (rng.next_u64() as u32 & 0x0003_FFFF),
                    _ => t
                        .routes()
                        .get(rng.below(t.routes().len() as u64) as usize)
                        .map_or(0, |r| {
                            r.prefix | (rng.next_u64() as u32 & !prefix_mask(r.len))
                        }),
                };
                assert_eq!(t.lookup(dst), linear_lookup(&t, dst), "dst {dst:#010x}");
            }
        }
    }

    #[test]
    fn line_topology_routes_toward_the_far_lan() {
        // h1 — r1 — r2 — h2 : three links, two routers.
        let mut b = Topology::builder();
        let h1 = b.host("h1");
        let r1 = b.router("r1");
        let r2 = b.router("r2");
        let h2 = b.host("h2");
        let l0 = b.link(h1, r1, m(), f());
        let _l1 = b.link(r1, r2, m(), f());
        let l2 = b.link(r2, h2, m(), f());
        let t = b.build();

        // r1 reaches h2's subnet through r2, one hop away.
        let route = t.route_table(r1).lookup(t.ip(h2)).expect("route");
        assert_eq!(route.len, 24);
        let next = route.next_hop.expect("not directly attached");
        let r2_on_l1 = t.interfaces(r2).iter().find(|i| i.link.0 == 1).unwrap();
        assert_eq!(next, r2_on_l1.ip);
        // r2 delivers h2's subnet directly.
        let direct = t.route_table(r2).lookup(t.ip(h2)).expect("route");
        assert_eq!(direct.next_hop, None);
        assert_eq!(t.subnet(l2) | 2, t.ip(h2));

        // h1's first hop toward h2 is r1's address on the shared LAN.
        let (iface, eth) = t.first_hop(h1, t.ip(h2)).expect("reachable");
        assert_eq!(iface, 0);
        let r1_on_l0 = t.interfaces(r1).iter().find(|i| i.link == l0).unwrap();
        assert_eq!(eth, r1_on_l0.eth);
        // On-subnet destinations resolve straight to the peer.
        let (_, direct_eth) = t.first_hop(h1, t.ip(r1)).expect("on subnet");
        assert_eq!(direct_eth, r1_on_l0.eth);
    }

    #[test]
    fn addressing_is_unique_and_deterministic() {
        let mut b = Topology::builder();
        let r = b.router("r");
        let hosts: Vec<NodeId> = (0..5).map(|i| b.host(format!("h{i}"))).collect();
        let mut members = vec![r];
        members.extend(&hosts);
        b.lan(&members, m(), f());
        let t = b.build();
        let mut ips: Vec<u32> = (0..t.node_count()).map(|n| t.ip(NodeId(n))).collect();
        ips.sort_unstable();
        ips.dedup();
        assert_eq!(ips.len(), 6, "every interface IP is unique");
        assert_eq!(t.ip(r), (10 << 24) | 1, "first member gets host byte 1");
    }

    #[test]
    fn instantiate_attaches_stations_with_plan_addresses() {
        let mut b = Topology::builder();
        let h1 = b.host("h1");
        let r = b.router("r");
        let h2 = b.host("h2");
        b.lan(&[h1, r], m(), f());
        b.lan(&[r, h2], m(), f());
        let t = b.build();
        let mut net = Network::new(0);
        let inst = t.instantiate(&mut net);
        assert_eq!(inst.segments.len(), 2);
        assert_eq!(inst.stations[r.0].len(), 2, "router has two stations");
        let mut station = inst.station(&mut net, h1, 0);
        assert_eq!(station.addr(), t.interfaces(h1)[0].eth);
        station.set_promiscuous(true);
        station.join_multicast(0x80);
    }

    #[test]
    fn ring_routes_are_shortest_path() {
        // Four routers in a ring; each with one host LAN.
        let mut b = Topology::builder();
        let routers: Vec<NodeId> = (0..4).map(|i| b.router(format!("r{i}"))).collect();
        let hosts: Vec<NodeId> = (0..4).map(|i| b.host(format!("h{i}"))).collect();
        for i in 0..4 {
            b.link(routers[i], routers[(i + 1) % 4], m(), f());
        }
        let lans: Vec<LinkId> = (0..4)
            .map(|i| b.lan(&[routers[i], hosts[i]], m(), f()))
            .collect();
        let t = b.build();
        // r0 to h1's LAN: one hop via r1 (not two hops the other way).
        let r = t.route_table(routers[0]).lookup(t.ip(hosts[1])).unwrap();
        let next = r.next_hop.expect("one hop away");
        assert!(t.interfaces(routers[1]).iter().any(|i| i.ip == next));
        // r0 to its own LAN: direct.
        assert_eq!(
            t.route_table(routers[0])
                .lookup(t.ip(hosts[0]))
                .unwrap()
                .next_hop,
            None
        );
        let _ = lans;
    }

    /// Four routers in a ring, each with one host LAN.
    fn ring4() -> (Topology, Vec<NodeId>, Vec<NodeId>) {
        let mut b = Topology::builder();
        let routers: Vec<NodeId> = (0..4).map(|i| b.router(format!("r{i}"))).collect();
        let hosts: Vec<NodeId> = (0..4).map(|i| b.host(format!("h{i}"))).collect();
        for i in 0..4 {
            b.link(routers[i], routers[(i + 1) % 4], m(), f());
        }
        for i in 0..4 {
            b.lan(&[routers[i], hosts[i]], m(), f());
        }
        (b.build(), routers, hosts)
    }

    fn ip_of(t: &Topology, node: NodeId, hop: Option<u32>) -> bool {
        t.interfaces(node).iter().any(|i| Some(i.ip) == hop)
    }

    #[test]
    fn backup_next_hops_are_strictly_downhill_alternates() {
        let (t, routers, hosts) = ring4();
        // r2 reaches h0's LAN at distance 2 through two downhill
        // parents (r1 and r3, both at distance 1): primary is the
        // lower-indexed r1, backup the alternate r3.
        let dst = t.ip(hosts[0]);
        let prim = t.route_table(routers[2]).lookup(dst).expect("primary");
        let back = t
            .backup_route_table(routers[2])
            .lookup(dst)
            .expect("backup");
        assert_ne!(prim.next_hop, back.next_hop);
        assert!(ip_of(&t, routers[1], prim.next_hop), "primary via r1");
        assert!(ip_of(&t, routers[3], back.next_hop), "backup via r3");
        // r0 sits one hop from h1's LAN and its only distance-0
        // neighbor there is r1: no strictly-downhill alternate exists
        // (the equal-cost detour via r3 is deliberately not offered).
        assert!(t
            .backup_route_table(routers[0])
            .lookup(t.ip(hosts[1]))
            .is_none());
    }

    #[test]
    fn routes_avoiding_reroutes_around_dead_adjacencies() {
        let (t, routers, hosts) = ring4();
        let dst = t.ip(hosts[1]);
        // With the r0–r1 adjacency dead, r0 reaches h1's LAN the long
        // way around, next hop r3.
        let residual = t.routes_avoiding(&[(routers[0], routers[1])]);
        let r = residual[routers[0].0].lookup(dst).expect("rerouted");
        assert!(ip_of(&t, routers[3], r.next_hop), "detour via r3");
        // With *all* of r1's adjacencies dead (a dead router), nobody
        // else has a route to its LAN — no path is honestly no route.
        let dead_r1 = [(routers[0], routers[1]), (routers[1], routers[2])];
        let residual = t.routes_avoiding(&dead_r1);
        for r in [routers[0], routers[2], routers[3]] {
            assert!(residual[r.0].lookup(dst).is_none(), "{r:?} has no path");
        }
        // r1 itself still delivers its directly-attached LAN.
        assert!(residual[routers[1].0].lookup(dst).is_some());
    }

    #[test]
    fn fabric_schedule_rides_the_plan() {
        use crate::fabric::{FabricAction, FabricSchedule};
        let mut b = Topology::builder();
        let h = b.host("h");
        let r = b.router("r");
        b.link(h, r, m(), f());
        let mut sched = FabricSchedule::new();
        sched.router_outage(r, SimTime(100), Some(SimTime(200)));
        b.fabric(sched);
        let t = b.build();
        let ev = t.fabric_schedule().events();
        assert_eq!(ev.len(), 2);
        assert_eq!(ev[0].action, FabricAction::RouterDown(r));
    }

    /// The backup search `downhill_parents` replaced: a scan of every
    /// node for one at the right distance (so a router) with a link to `u`.
    fn downhill_parents_by_scan(
        links: &[LinkSpec],
        ifaces: &[Vec<Interface>],
        blocked: &dyn Fn(NodeId, NodeId) -> bool,
        dist: &[Option<u32>],
        u: usize,
        out: &mut Vec<(usize, usize)>,
    ) {
        out.clear();
        let want = dist[u].map(|d| d - 1);
        for v in 0..dist.len() {
            if dist[v] != want {
                continue;
            }
            for (j, vi) in ifaces[v].iter().enumerate() {
                if links[vi.link.0].members.contains(&NodeId(u)) && !blocked(NodeId(v), NodeId(u)) {
                    out.push((v, j));
                }
            }
        }
    }

    /// Primary and backup tables from the walk over a router's own links
    /// equal the all-node scan's, with `blocked_pairs` removed (and then
    /// `routes_avoiding`'s tables equal them too). Returns the backup
    /// routes found, so a caller can see the comparison was not vacuous.
    fn assert_walk_matches_scan(t: &Topology, blocked_pairs: &[(NodeId, NodeId)]) -> usize {
        let norm = |a: NodeId, b: NodeId| (a.0.min(b.0), a.0.max(b.0));
        let set: HashSet<(usize, usize)> = blocked_pairs.iter().map(|&(a, b)| norm(a, b)).collect();
        let blocked = |a: NodeId, b: NodeId| set.contains(&norm(a, b));
        let run = |parents: DownhillParents| {
            compute_routes(&t.nodes, &t.links, &t.ifaces, &blocked, parents)
        };
        let (walk, scan) = (run(downhill_parents), run(downhill_parents_by_scan));
        assert!(walk == scan, "primaries or backups differ");
        assert!(
            t.routes_avoiding(blocked_pairs) == scan.0,
            "residual tables differ"
        );
        scan.1.iter().map(|b| b.routes().len()).sum()
    }

    /// `n` routers in a ring, each with one host LAN.
    fn ring(n: usize) -> (Topology, Vec<NodeId>) {
        let mut b = Topology::builder();
        let routers: Vec<NodeId> = (0..n).map(|i| b.router(format!("r{i}"))).collect();
        for i in 0..n {
            b.link(routers[i], routers[(i + 1) % n], m(), f());
            let h = b.host(format!("h{i}"));
            b.lan(&[routers[i], h], m(), f());
        }
        (b.build(), routers)
    }

    #[test]
    fn backups_from_own_links_match_the_all_node_scan_on_rings() {
        for n in [4, 16, 64, 256] {
            let (t, routers) = ring(n);
            assert!(assert_walk_matches_scan(&t, &[]) > 0, "ring of {n}");
            // A dead adjacency and a dead router (all its adjacencies).
            let dead = [
                (routers[0], routers[1]),
                (routers[n / 2 - 1], routers[n / 2]),
                (routers[n / 2], routers[n / 2 + 1]),
            ];
            // A cut ring is a path: one parent each, so no backup is left.
            assert_eq!(assert_walk_matches_scan(&t, &dead), 0, "ring of {n}, cut");
        }
    }

    #[test]
    fn backups_from_own_links_match_the_all_node_scan_over_parallel_links() {
        let mut b = Topology::builder();
        let r: Vec<NodeId> = (0..4).map(|i| b.router(format!("r{i}"))).collect();
        for (x, y) in [(0, 1), (0, 1), (1, 2), (2, 3), (2, 3), (3, 0)] {
            b.link(r[x], r[y], m(), f());
        }
        let hosts: Vec<NodeId> = (0..5).map(|i| b.host(format!("h{i}"))).collect();
        for i in 0..4 {
            b.link(r[i], hosts[i], m(), f());
        }
        b.lan(&[r[1], r[3], r[0], hosts[4]], m(), f());
        let t = b.build();
        assert!(assert_walk_matches_scan(&t, &[]) > 0);
        assert!(assert_walk_matches_scan(&t, &[(r[0], r[1]), (r[3], r[2])]) > 0);
    }

    #[test]
    fn backups_from_own_links_match_the_all_node_scan_on_a_seeded_plan() {
        let mut rng = pf_sim::rng::SplitMix64::new(0xB4C6);
        for _ in 0..8 {
            let mut b = Topology::builder();
            let r: Vec<NodeId> = (0..24).map(|i| b.router(format!("r{i}"))).collect();
            let pick = |rng: &mut pf_sim::rng::SplitMix64| r[rng.below(24) as usize];
            let mut pairs = Vec::new();
            // A random tree, then random links (parallel ones included)
            // and LANs of three or four routers.
            for i in 1..24 {
                let parent = r[rng.below(i as u64) as usize];
                b.link(r[i], parent, m(), f());
                pairs.push((r[i], parent));
            }
            for _ in 0..20 {
                let mut members = vec![pick(&mut rng)];
                let size = if rng.chance(0.3) { 3 + rng.below(2) } else { 2 };
                while members.len() < size as usize {
                    let x = pick(&mut rng);
                    if !members.contains(&x) {
                        pairs.push((members[0], x));
                        members.push(x);
                    }
                }
                b.lan(&members, m(), f());
            }
            for i in 0..12 {
                let h = b.host(format!("h{i}"));
                let x = pick(&mut rng);
                b.link(x, h, m(), f());
            }
            let t = b.build();
            assert!(assert_walk_matches_scan(&t, &[]) > 0);
            let blocked: Vec<(NodeId, NodeId)> = (0..6)
                .map(|_| pairs[rng.below(pairs.len() as u64) as usize])
                .collect();
            assert_walk_matches_scan(&t, &blocked);
        }
    }
}
