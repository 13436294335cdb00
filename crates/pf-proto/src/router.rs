//! The IP forwarding plane for topology routers, and the glue that
//! deploys a `pf_net::Topology` into a running `World`.
//!
//! `pf-net` defines the [`Forwarder`] boundary but deliberately knows
//! nothing about IP; this module supplies the implementation using the
//! same wire codecs as the kernel-resident stack ([`crate::ip`]):
//! decapsulate, TTL-check and decrement, longest-prefix-match against a
//! static [`RouteTable`], resolve the next hop through the topology's
//! static ARP map, and re-encapsulate on the outgoing medium. A router
//! node in the `World` charges `CostModel::ip_forward` per hop and
//! serializes transmissions per interface, so store-and-forward latency
//! and per-link bandwidth are modeled end to end.

use std::collections::HashMap;

use pf_kernel::{HostId, RouterId, World};
use pf_net::fabric::FabricAction;
use pf_net::medium::Medium;
use pf_net::topology::{Forwarder, ForwarderStats, NodeId, NodeKind, Route, RouteTable, Topology};
use pf_net::{frame, SegmentId};
use pf_sim::time::{SimDuration, SimTime};
use pf_sim::CostModel;

use crate::ip::{decode_ip, encode_ip, put_ip_header, IpHeader, IP_ETHERTYPE, IP_HEADER};

/// Ethertype of the resilience plane's control frames (hellos and
/// link-state updates). Chosen outside the IP/ARP range so plain
/// forwarders count stray control traffic as `not_routable` instead of
/// misparsing it.
pub const CONTROL_ETHERTYPE: u16 = 0x07F0;

const MSG_HELLO: u8 = 1;
const MSG_LSU: u8 = 2;
/// Link-state records per flooded frame (chunked so a full database
/// sync never exceeds a medium's maximum packet size).
const LSU_CHUNK: usize = 40;

/// How often each hardened router interface emits a hello (and how often
/// the dead-interval scan runs — the forwarder tick).
pub const HELLO_INTERVAL: SimDuration = SimDuration::from_millis(20);

/// Silence on a neighbor after which it is declared dead: several hello
/// intervals, so that one lost hello is not a failure.
pub const DEAD_INTERVAL: SimDuration = SimDuration::from_millis(60);

/// One router-neighbor adjacency as the liveness prober sees it.
#[derive(Debug, Clone)]
struct Neighbor {
    /// Which of our interfaces shares a link with this neighbor.
    iface: usize,
    /// The neighbor's topology node index.
    node: u16,
    /// The neighbor's link address on the shared segment (hello
    /// destination).
    eth: u64,
    /// The neighbor's IP on the shared segment (matches our route
    /// table's `next_hop` entries through it).
    ip: u32,
    /// Last time we heard any control frame from it.
    last_heard: SimTime,
    alive: bool,
}

/// One link-state record: `origin` asserts, with per-origin sequence
/// number `seq`, that the undirected router adjacency `(a, b)` is
/// currently `up`. Only an adjacency's endpoints originate records
/// about it; a pair is treated as down while *any* origin's freshest
/// record says down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LsRecord {
    origin: u16,
    seq: u32,
    a: u16,
    b: u16,
    up: bool,
}

/// The per-router resilience plane: hello/dead-interval neighbor
/// probing, link-state flooding, precomputed-backup failover, and
/// triggered route recomputation over the residual topology.
#[derive(Debug)]
struct ControlPlane {
    /// Our topology node index.
    node: u16,
    /// The full plan, kept for residual-graph recomputation (the
    /// static topology is the baseline link-state database; floods
    /// carry only failure deltas).
    topo: Topology,
    neighbors: Vec<Neighbor>,
    /// Precomputed strictly-downhill backup next-hops.
    backups: RouteTable,
    /// Failure database: normalized pair → per-origin freshest record.
    adj: HashMap<(u16, u16), HashMap<u16, (u32, bool)>>,
    /// Our own origination sequence (survives crashes: fail-stop with
    /// stable storage).
    my_seq: u32,
    /// Last tick instant; a gap longer than the dead interval means we
    /// were crashed, and neighbor timers get a grace reset on revival.
    last_tick: SimTime,
    /// Best known current time (ticks and control-frame stamps).
    clock: SimTime,
}

fn encode_control(msg: u8, origin: u16, sent_at: SimTime, records: &[LsRecord]) -> Vec<u8> {
    let mut p = Vec::with_capacity(12 + records.len() * 11);
    p.push(msg);
    p.extend_from_slice(&origin.to_be_bytes());
    p.extend_from_slice(&sent_at.as_nanos().to_be_bytes());
    if msg == MSG_LSU {
        debug_assert!(records.len() <= LSU_CHUNK);
        p.push(records.len() as u8);
        for r in records {
            p.extend_from_slice(&r.origin.to_be_bytes());
            p.extend_from_slice(&r.seq.to_be_bytes());
            p.extend_from_slice(&r.a.to_be_bytes());
            p.extend_from_slice(&r.b.to_be_bytes());
            p.push(u8::from(r.up));
        }
    }
    p
}

fn decode_control(body: &[u8]) -> Option<(u8, u16, SimTime, Vec<LsRecord>)> {
    if body.len() < 11 {
        return None;
    }
    let msg = body[0];
    let origin = u16::from_be_bytes([body[1], body[2]]);
    let sent_at = SimTime(u64::from_be_bytes(body[3..11].try_into().ok()?));
    let mut records = Vec::new();
    if msg == MSG_LSU {
        let count = usize::from(*body.get(11)?);
        let mut off = 12;
        for _ in 0..count {
            let rec = body.get(off..off + 11)?;
            records.push(LsRecord {
                origin: u16::from_be_bytes([rec[0], rec[1]]),
                seq: u32::from_be_bytes(rec[2..6].try_into().ok()?),
                a: u16::from_be_bytes([rec[6], rec[7]]),
                b: u16::from_be_bytes([rec[8], rec[9]]),
                up: rec[10] != 0,
            });
            off += 11;
        }
    }
    Some((msg, origin, sent_at, records))
}

impl ControlPlane {
    fn new(topo: &Topology, node: NodeId) -> Self {
        let mut neighbors = Vec::new();
        for (vi, iface) in topo.interfaces(node).iter().enumerate() {
            for &m in topo.members(iface.link) {
                if m == node || topo.kind(m) != NodeKind::Router {
                    continue;
                }
                let peer = topo
                    .interfaces(m)
                    .iter()
                    .find(|pi| pi.link == iface.link)
                    .expect("neighbor has an interface on the shared link");
                neighbors.push(Neighbor {
                    iface: vi,
                    node: m.0 as u16,
                    eth: peer.eth,
                    ip: peer.ip,
                    last_heard: SimTime::ZERO,
                    alive: true,
                });
            }
        }
        ControlPlane {
            node: node.0 as u16,
            topo: topo.clone(),
            neighbors,
            backups: topo.backup_route_table(node).clone(),
            adj: HashMap::new(),
            my_seq: 0,
            last_tick: SimTime::ZERO,
            clock: SimTime::ZERO,
        }
    }

    /// Self-originates the next-sequence record about our adjacency with
    /// `peer`.
    fn originate(&mut self, peer: u16, up: bool) -> LsRecord {
        self.my_seq += 1;
        LsRecord {
            origin: self.node,
            seq: self.my_seq,
            a: self.node.min(peer),
            b: self.node.max(peer),
            up,
        }
    }

    /// Merges records into the database; returns the subset that was
    /// actually news (per-origin sequence strictly advanced), which is
    /// exactly what gets re-flooded.
    fn apply(&mut self, records: &[LsRecord]) -> Vec<LsRecord> {
        let mut fresh = Vec::new();
        for &r in records {
            let per = self.adj.entry((r.a.min(r.b), r.a.max(r.b))).or_default();
            let e = per.entry(r.origin).or_insert((0, true));
            if r.seq > e.0 {
                *e = (r.seq, r.up);
                fresh.push(r);
            }
        }
        fresh
    }

    /// Adjacencies to exclude from route computation, sorted so the
    /// result never depends on hash-map iteration order.
    fn blocked_pairs(&self) -> Vec<(NodeId, NodeId)> {
        let mut pairs: Vec<(u16, u16)> = self
            .adj
            .iter()
            .filter(|(_, per)| per.values().any(|&(_, up)| !up))
            .map(|(&p, _)| p)
            .collect();
        pairs.sort_unstable();
        pairs
            .into_iter()
            .map(|(a, b)| (NodeId(usize::from(a)), NodeId(usize::from(b))))
            .collect()
    }

    /// Every database record, sorted, for a full sync to a revived
    /// neighbor.
    fn all_records(&self) -> Vec<LsRecord> {
        let mut pairs: Vec<_> = self.adj.iter().collect();
        pairs.sort_by_key(|&(&p, _)| p);
        let mut records = Vec::new();
        for (&(a, b), per) in pairs {
            let mut origins: Vec<(&u16, &(u32, bool))> = per.iter().collect();
            origins.sort_by_key(|&(&o, _)| o);
            for (&origin, &(seq, up)) in origins {
                records.push(LsRecord {
                    origin,
                    seq,
                    a,
                    b,
                    up,
                });
            }
        }
        records
    }
}

/// One router interface as the forwarding plane sees it.
#[derive(Debug, Clone)]
pub struct RouterIface {
    /// Medium of the attached segment (frames are re-encapsulated for
    /// it on the way out).
    pub medium: Medium,
    /// The interface's own link-layer address (used as the source of
    /// forwarded frames).
    pub eth: u64,
    /// The interface's IP address.
    pub ip: u32,
}

/// A static-routed IP forwarder: the packet-switch half of the
/// kernel-resident IP stack.
#[derive(Debug)]
pub struct IpRouter {
    ifaces: Vec<RouterIface>,
    table: RouteTable,
    /// Static IP → link-address map covering every next hop and every
    /// directly-attached destination, sorted by IP.
    arp: Vec<(u32, u64)>,
    /// Per interface, the `arp` entry last sent to. A point-to-point link
    /// has one neighbor, so transit traffic resolves here and leaves the
    /// full map (every router holds the whole internet's) cold.
    resolved: Vec<Option<(u32, u64)>>,
    stats: ForwarderStats,
    /// `Some` for hardened routers: the liveness/flooding/reconvergence
    /// machinery. Plain static routers carry `None` and never tick.
    control: Option<ControlPlane>,
}

impl IpRouter {
    /// Builds a forwarder from explicit interfaces, routes, and ARP
    /// entries.
    pub fn new(ifaces: Vec<RouterIface>, table: RouteTable, arp: HashMap<u32, u64>) -> Self {
        let mut arp: Vec<(u32, u64)> = arp.into_iter().collect();
        arp.sort_unstable();
        IpRouter {
            resolved: vec![None; ifaces.len()],
            ifaces,
            table,
            arp,
            stats: ForwarderStats::default(),
            control: None,
        }
    }

    /// Builds the forwarder for one router node of a topology, with the
    /// node's computed route table and the global ARP map.
    pub fn for_node(topo: &Topology, node: pf_net::NodeId) -> Self {
        assert_eq!(topo.kind(node), NodeKind::Router, "node is not a router");
        let ifaces = topo
            .interfaces(node)
            .iter()
            .map(|i| RouterIface {
                medium: *topo.medium(i.link),
                eth: i.eth,
                ip: i.ip,
            })
            .collect();
        IpRouter::new(ifaces, topo.route_table(node).clone(), topo.arp().clone())
    }

    /// Builds a hardened forwarder for one router node: the static
    /// plane of [`for_node`](IpRouter::for_node) plus a resilience
    /// plane that probes neighbor liveness, fails over to precomputed
    /// loop-free backups the instant a neighbor dies, floods link-state
    /// updates, and reconverges over the residual topology.
    pub(crate) fn for_node_hardened(topo: &Topology, node: pf_net::NodeId) -> Self {
        let mut r = IpRouter::for_node(topo, node);
        r.control = Some(ControlPlane::new(topo, node));
        r
    }

    /// The current route table (longest prefix first).
    pub fn route_table(&self) -> &RouteTable {
        &self.table
    }

    fn control_frame(
        &self,
        cp: &ControlPlane,
        iface: usize,
        dst_eth: u64,
        msg: u8,
        records: &[LsRecord],
    ) -> Option<Vec<u8>> {
        let payload = encode_control(msg, cp.node, cp.clock, records);
        let out = &self.ifaces[iface];
        frame::build(&out.medium, dst_eth, out.eth, CONTROL_ETHERTYPE, &payload).ok()
    }

    /// Unicasts `records` (chunked) to every router neighbor except
    /// those on `except` — split-horizon re-flooding.
    fn flood(
        &self,
        cp: &ControlPlane,
        records: &[LsRecord],
        except: Option<usize>,
    ) -> Vec<(usize, Vec<u8>)> {
        let mut out = Vec::new();
        for n in &cp.neighbors {
            if except == Some(n.iface) {
                continue;
            }
            for chunk in records.chunks(LSU_CHUNK) {
                if let Some(f) = self.control_frame(cp, n.iface, n.eth, MSG_LSU, chunk) {
                    out.push((n.iface, f));
                }
            }
        }
        out
    }

    /// Fast local failover: every route currently pointing at the dead
    /// neighbor switches to its precomputed strictly-downhill backup,
    /// before any flooding or recomputation happens.
    fn failover_around(&mut self, cp: &ControlPlane, dead: usize) {
        let dead_ip = cp.neighbors[dead].ip;
        let switched: Vec<Route> = self
            .table
            .routes()
            .iter()
            .filter(|r| r.next_hop == Some(dead_ip))
            .filter_map(|r| {
                cp.backups
                    .routes()
                    .iter()
                    .find(|b| b.prefix == r.prefix && b.len == r.len && b.next_hop != Some(dead_ip))
                    .copied()
            })
            .collect();
        for b in switched {
            self.table.set(b);
            self.stats.failovers += 1;
            self.stats.route_churn += 1;
            self.stats.last_route_change_ns = cp.clock.as_nanos();
        }
    }

    /// Recomputes this node's routes over the residual topology (all
    /// known-down adjacencies excluded) and installs the result,
    /// counting changed entries as churn.
    fn reconverge(&mut self, cp: &ControlPlane) {
        let blocked = cp.blocked_pairs();
        let tables = cp.topo.routes_avoiding(&blocked);
        let new = &tables[usize::from(cp.node)];
        let mut churn = 0u64;
        for r in new.routes() {
            if !self.table.routes().contains(r) {
                churn += 1;
            }
        }
        for r in self.table.routes() {
            if !new
                .routes()
                .iter()
                .any(|n| n.prefix == r.prefix && n.len == r.len)
            {
                churn += 1;
            }
        }
        self.stats.reconvergences += 1;
        if churn > 0 {
            self.stats.route_churn += churn;
            self.stats.last_route_change_ns = cp.clock.as_nanos();
            self.table = new.clone();
        }
    }

    fn run_tick(&mut self, cp: &mut ControlPlane, now: SimTime) -> Vec<(usize, Vec<u8>)> {
        // Revival grace: a tick gap longer than the dead interval means
        // we were crashed, and every liveness timer is stale. Reset them
        // instead of declaring the whole neighborhood dead at once.
        if cp.last_tick > SimTime::ZERO && now.saturating_since(cp.last_tick) > DEAD_INTERVAL {
            for n in &mut cp.neighbors {
                n.last_heard = now;
            }
        }
        cp.last_tick = now;
        cp.clock = cp.clock.max(now);
        let mut out = Vec::new();
        // Hellos to every router neighbor — dead ones included; that is
        // how a healed link or revived router is re-detected.
        for i in 0..cp.neighbors.len() {
            let (iface, eth) = (cp.neighbors[i].iface, cp.neighbors[i].eth);
            if let Some(f) = self.control_frame(cp, iface, eth, MSG_HELLO, &[]) {
                self.stats.hellos_sent += 1;
                out.push((iface, f));
            }
        }
        // Dead-interval scan: silence past the configured bound kills
        // the adjacency — failover immediately, then tell the fabric.
        let mut news = Vec::new();
        for i in 0..cp.neighbors.len() {
            let (alive, heard, node) = {
                let n = &cp.neighbors[i];
                (n.alive, n.last_heard, n.node)
            };
            if alive && now.saturating_since(heard) > DEAD_INTERVAL {
                cp.neighbors[i].alive = false;
                self.stats.neighbors_lost += 1;
                self.failover_around(cp, i);
                news.push(cp.originate(node, false));
            }
        }
        if !news.is_empty() {
            let fresh = cp.apply(&news);
            out.extend(self.flood(cp, &fresh, None));
            self.reconverge(cp);
        }
        out
    }

    fn handle_control(
        &mut self,
        cp: &mut ControlPlane,
        iface: usize,
        body: &[u8],
    ) -> Vec<(usize, Vec<u8>)> {
        self.stats.control_in += 1;
        let Some((msg, origin, sent_at, records)) = decode_control(body) else {
            self.stats.not_routable += 1;
            return Vec::new();
        };
        cp.clock = cp.clock.max(sent_at);
        let mut out = Vec::new();
        // Any control frame from a neighbor proves it alive.
        let mut revived = None;
        if let Some(i) = cp
            .neighbors
            .iter()
            .position(|n| n.node == origin && n.iface == iface)
        {
            cp.neighbors[i].last_heard = cp.clock;
            if !cp.neighbors[i].alive {
                cp.neighbors[i].alive = true;
                self.stats.neighbors_recovered += 1;
                revived = Some(i);
            }
        }
        match msg {
            MSG_HELLO => {}
            MSG_LSU => {
                let fresh = cp.apply(&records);
                if !fresh.is_empty() {
                    out.extend(self.flood(cp, &fresh, Some(iface)));
                    self.reconverge(cp);
                }
            }
            _ => self.stats.not_routable += 1,
        }
        if let Some(i) = revived {
            let peer = cp.neighbors[i].node;
            let rec = cp.originate(peer, true);
            let fresh = cp.apply(&[rec]);
            out.extend(self.flood(cp, &fresh, None));
            // Full database sync so a neighbor that was partitioned away
            // (or crashed) catches up on everything it missed.
            let (nb_iface, nb_eth) = (cp.neighbors[i].iface, cp.neighbors[i].eth);
            for chunk in cp.all_records().chunks(LSU_CHUNK) {
                if let Some(f) = self.control_frame(cp, nb_iface, nb_eth, MSG_LSU, chunk) {
                    out.push((nb_iface, f));
                }
            }
            self.reconverge(cp);
        }
        out
    }
}

impl Forwarder for IpRouter {
    fn forward_owned(&mut self, iface: usize, mut frame: Vec<u8>, out: &mut Vec<(usize, Vec<u8>)>) {
        let in_medium = self.ifaces[iface].medium;
        let Ok(h) = frame::parse(&in_medium, &frame) else {
            self.stats.not_routable += 1;
            return;
        };
        let body = &frame[in_medium.header_len..];
        if h.ethertype == CONTROL_ETHERTYPE {
            // A plain router has no resilience plane; control traffic is
            // just an unroutable ethertype to it.
            match self.control.take() {
                Some(mut cp) => {
                    out.extend(self.handle_control(&mut cp, iface, body));
                    self.control = Some(cp);
                }
                None => self.stats.not_routable += 1,
            }
            return;
        }
        if h.ethertype != IP_ETHERTYPE {
            self.stats.not_routable += 1;
            return;
        }
        let Some((ih, payload)) = decode_ip(body) else {
            self.stats.not_routable += 1;
            return;
        };
        // RFC 791 discipline: a packet arriving with TTL <= 1 cannot be
        // forwarded another hop.
        if ih.ttl <= 1 {
            self.stats.ttl_expired += 1;
            return;
        }
        let Some(route) = self.table.lookup(ih.dst).copied() else {
            self.stats.no_route += 1;
            return;
        };
        let next_ip = route.next_hop.unwrap_or(ih.dst);
        let next_eth = match self.resolved[route.iface] {
            Some((ip, eth)) if ip == next_ip => eth,
            _ => {
                let Ok(at) = self.arp.binary_search_by_key(&next_ip, |&(ip, _)| ip) else {
                    self.stats.no_route += 1;
                    return;
                };
                self.resolved[route.iface] = Some(self.arp[at]);
                self.arp[at].1
            }
        };
        let out_ih = IpHeader {
            ttl: ih.ttl - 1,
            ..ih
        };
        let port = &self.ifaces[route.iface];
        let link = &port.medium;
        let sent = if (link.kind, link.header_len) == (in_medium.kind, in_medium.header_len) {
            // Same encapsulation on both sides: the frame leaves in the
            // buffer it arrived in, cut to the datagram, with the link
            // addresses and the IP header written over where they stand —
            // byte for byte what `encode_ip` + `frame::build` would make.
            let payload_len = payload.len();
            frame.truncate(link.header_len + IP_HEADER + payload_len);
            frame::readdress(link, &mut frame, next_eth, port.eth).map(|()| {
                put_ip_header(&mut frame[link.header_len..], &out_ih, payload_len);
                frame
            })
        } else {
            let packet = encode_ip(&out_ih, payload);
            frame::build(link, next_eth, port.eth, IP_ETHERTYPE, &packet)
        };
        match sent {
            Ok(out_frame) => {
                self.stats.forwarded += 1;
                out.push((route.iface, out_frame));
            }
            Err(_) => self.stats.not_routable += 1,
        }
    }

    fn stats(&self) -> ForwarderStats {
        self.stats
    }

    fn update_route(&mut self, route: Route) -> bool {
        self.table.set(route);
        true
    }

    fn tick(&mut self, now: SimTime) -> Vec<(usize, Vec<u8>)> {
        let Some(mut cp) = self.control.take() else {
            return Vec::new();
        };
        let out = self.run_tick(&mut cp, now);
        self.control = Some(cp);
        out
    }

    fn tick_interval(&self) -> Option<SimDuration> {
        self.control.as_ref().map(|_| HELLO_INTERVAL)
    }
}

/// Ids handed back by [`deploy`], indexed by topology node/link.
#[derive(Debug, Clone)]
pub struct DeployedTopology {
    /// Segment id per topology link, in link order.
    pub segments: Vec<SegmentId>,
    /// Host id per node (`None` for router nodes).
    pub hosts: Vec<Option<HostId>>,
    /// Router id per node (`None` for host nodes).
    pub routers: Vec<Option<RouterId>>,
}

impl DeployedTopology {
    /// The host id of a topology node known to be a host.
    pub fn host(&self, node: pf_net::NodeId) -> HostId {
        self.hosts[node.0].expect("node is a host")
    }

    /// The router id of a topology node known to be a router.
    pub fn router(&self, node: pf_net::NodeId) -> RouterId {
        self.routers[node.0].expect("node is a router")
    }
}

/// What host `src` hands its NIC to send `payload` to node `dst`: an IP
/// datagram addressed to `src`'s first hop toward `dst`, framed for the
/// medium of the interface it leaves by.
///
/// # Panics
///
/// If the plan gives `src` no route to `dst`, or the datagram does not fit
/// that medium.
pub fn ip_frame(
    topo: &Topology,
    src: NodeId,
    dst: NodeId,
    proto: u8,
    ttl: u8,
    payload: &[u8],
) -> Vec<u8> {
    let dst_ip = topo.ip(dst);
    let (iface, next_eth) = topo.first_hop(src, dst_ip).expect("dst is reachable");
    let out = topo.interfaces(src)[iface];
    let header = IpHeader {
        proto,
        ttl,
        src: topo.ip(src),
        dst: dst_ip,
        total_len: 0,
    };
    frame::build(
        topo.medium(out.link),
        next_eth,
        out.eth,
        IP_ETHERTYPE,
        &encode_ip(&header, payload),
    )
    .expect("the datagram fits the medium")
}

/// Materializes a [`Topology`] into `world`: one segment per link, one
/// host per host node (station on its LAN), and one router per router
/// node running an [`IpRouter`] over all its interfaces. Any
/// [`FabricSchedule`](pf_net::FabricSchedule) attached to the plan is
/// replayed against the world as scheduled router/link state flips.
pub fn deploy(topo: &Topology, world: &mut World, costs: &CostModel) -> DeployedTopology {
    deploy_with(topo, world, costs, false)
}

/// Like [`deploy`], but every router runs the hardened forwarder
/// (`IpRouter::for_node_hardened`): liveness probing, backup
/// failover, link-state flooding, and bounded reconvergence, on
/// [`HELLO_INTERVAL`] and [`DEAD_INTERVAL`].
pub fn deploy_hardened(topo: &Topology, world: &mut World, costs: &CostModel) -> DeployedTopology {
    deploy_with(topo, world, costs, true)
}

fn deploy_with(
    topo: &Topology,
    world: &mut World,
    costs: &CostModel,
    hardened: bool,
) -> DeployedTopology {
    let segments: Vec<SegmentId> = (0..topo.link_count())
        .map(|l| {
            let link = pf_net::LinkId(l);
            world.add_segment(*topo.medium(link), *topo.faults(link))
        })
        .collect();
    let mut hosts = vec![None; topo.node_count()];
    let mut routers = vec![None; topo.node_count()];
    for n in 0..topo.node_count() {
        let node = pf_net::NodeId(n);
        match topo.kind(node) {
            NodeKind::Host => {
                let i = topo.interfaces(node)[0];
                hosts[n] =
                    Some(world.add_host(topo.name(node), segments[i.link.0], i.eth, costs.clone()));
            }
            NodeKind::Router => {
                let fwd: Box<dyn Forwarder> = if hardened {
                    Box::new(IpRouter::for_node_hardened(topo, node))
                } else {
                    Box::new(IpRouter::for_node(topo, node))
                };
                let stations: Vec<(SegmentId, u64)> = topo
                    .interfaces(node)
                    .iter()
                    .map(|i| (segments[i.link.0], i.eth))
                    .collect();
                routers[n] = Some(world.add_router(topo.name(node), stations, fwd, costs.clone()));
            }
        }
    }
    for ev in topo.fabric_schedule().events() {
        match ev.action {
            FabricAction::RouterDown(n) => {
                let r = routers[n.0].expect("fabric schedule names a router node");
                world.schedule_router_state(r, false, ev.at);
            }
            FabricAction::RouterUp(n) => {
                let r = routers[n.0].expect("fabric schedule names a router node");
                world.schedule_router_state(r, true, ev.at);
            }
            FabricAction::LinkDown(l) => world.schedule_link_state(segments[l.0], false, ev.at),
            FabricAction::LinkUp(l) => world.schedule_link_state(segments[l.0], true, ev.at),
        }
    }
    DeployedTopology {
        segments,
        hosts,
        routers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pf_net::segment::FaultModel;

    fn one_hop_router() -> (IpRouter, Medium) {
        let m = Medium::standard_10mb();
        let mut table = RouteTable::new();
        table.set(Route {
            prefix: 0x0A00_0200,
            len: 24,
            iface: 1,
            next_hop: None,
        });
        let arp = HashMap::from([(0x0A00_0202u32, 0x22u64), (0x0A00_0102, 0x33)]);
        let r = IpRouter::new(
            vec![
                RouterIface {
                    medium: m,
                    eth: 0x11,
                    ip: 0x0A00_0101,
                },
                RouterIface {
                    medium: m,
                    eth: 0x12,
                    ip: 0x0A00_0201,
                },
            ],
            table,
            arp,
        );
        (r, m)
    }

    fn ip_frame(m: &Medium, dst_eth: u64, ttl: u8, dst_ip: u32) -> Vec<u8> {
        let packet = encode_ip(
            &IpHeader {
                proto: 17,
                ttl,
                src: 0x0A00_0102,
                dst: dst_ip,
                total_len: 0,
            },
            b"payload",
        );
        frame::build(m, dst_eth, 0x33, IP_ETHERTYPE, &packet).unwrap()
    }

    #[test]
    fn forwards_with_ttl_decrement_and_rewritten_link_header() {
        let (mut r, m) = one_hop_router();
        let f = ip_frame(&m, 0x11, 30, 0x0A00_0202);
        let out = r.forward(0, &f);
        assert_eq!(out.len(), 1);
        let (iface, of) = &out[0];
        assert_eq!(*iface, 1);
        let h = frame::parse(&m, of).unwrap();
        assert_eq!(h.dst, 0x22, "delivered to the destination's eth");
        assert_eq!(h.src, 0x12, "sourced from the out interface");
        let (ih, payload) = decode_ip(frame::payload(&m, of).unwrap()).unwrap();
        assert_eq!(ih.ttl, 29, "TTL decremented");
        assert_eq!(payload, b"payload");
        assert_eq!(r.stats().forwarded, 1);
    }

    #[test]
    fn drops_on_ttl_expiry_and_missing_route() {
        let (mut r, m) = one_hop_router();
        assert!(r.forward(0, &ip_frame(&m, 0x11, 1, 0x0A00_0202)).is_empty());
        assert_eq!(r.stats().ttl_expired, 1);
        assert!(r
            .forward(0, &ip_frame(&m, 0x11, 30, 0x0B00_0001))
            .is_empty());
        assert_eq!(r.stats().no_route, 1);
        // Non-IP traffic is not routable.
        let junk = frame::build(&m, 0x11, 0x33, 0x0806, b"arp?").unwrap();
        assert!(r.forward(0, &junk).is_empty());
        assert_eq!(r.stats().not_routable, 1);
    }

    /// The forwarding decision as it stood before frames were forwarded in
    /// place — decapsulate, then build the datagram and the frame afresh,
    /// the IP header spelled out byte by byte — over `r`'s tables, counting
    /// into `stats`. Kept as the specification of the owned path.
    fn reference_forward(
        r: &IpRouter,
        stats: &mut ForwarderStats,
        iface: usize,
        frame_bytes: &[u8],
    ) -> Vec<(usize, Vec<u8>)> {
        let in_medium = r.ifaces[iface].medium;
        let routable = frame::parse(&in_medium, frame_bytes)
            .ok()
            .filter(|h| h.ethertype == IP_ETHERTYPE)
            .and_then(|_| decode_ip(&frame_bytes[in_medium.header_len..]));
        let Some((ih, payload)) = routable else {
            stats.not_routable += 1;
            return Vec::new();
        };
        if ih.ttl <= 1 {
            stats.ttl_expired += 1;
            return Vec::new();
        }
        let route = r.table.routes().iter().find(|r| {
            let mask = u32::MAX.checked_shl(32 - u32::from(r.len)).unwrap_or(0);
            ih.dst & mask == r.prefix
        });
        let next = route.and_then(|route| {
            let next_ip = route.next_hop.unwrap_or(ih.dst);
            let arp = r.arp.iter().find(|&&(ip, _)| ip == next_ip)?;
            Some((route.iface, arp.1))
        });
        let Some((out_iface, next_eth)) = next else {
            stats.no_route += 1;
            return Vec::new();
        };
        let mut packet = vec![0x45, 0];
        packet.extend_from_slice(&((IP_HEADER + payload.len()) as u16).to_be_bytes());
        packet.extend_from_slice(&[0, 0, 0, 0, ih.ttl - 1, ih.proto, 0, 0]);
        packet.extend_from_slice(&ih.src.to_be_bytes());
        packet.extend_from_slice(&ih.dst.to_be_bytes());
        packet.extend_from_slice(payload);
        let out = &r.ifaces[out_iface];
        match frame::build(&out.medium, next_eth, out.eth, IP_ETHERTYPE, &packet) {
            Ok(f) => {
                stats.forwarded += 1;
                vec![(out_iface, f)]
            }
            Err(_) => {
                stats.not_routable += 1;
                Vec::new()
            }
        }
    }

    /// Interfaces: 0 and 1 on 10 Mb/s, 2 on 3 Mb/s, 3 on a 10 Mb/s link
    /// with a 120-byte maximum packet. One /24 behind each of 1–3 (2's via
    /// a next hop), a host route out of 0 and one out of 2, and ARP entries
    /// that are missing (.9) or too wide for 2's one-byte addresses (.7).
    fn four_port_router() -> IpRouter {
        let m10 = Medium::standard_10mb();
        let small = Medium {
            max_packet: 120,
            ..m10
        };
        let media = [m10, m10, Medium::experimental_3mb(), small];
        let ifaces = (0..4u32).map(|i| RouterIface {
            medium: media[i as usize],
            eth: 0x10 + u64::from(i),
            ip: 0x0A00_0001 | (i << 8),
        });
        let mut table = RouteTable::new();
        let mut arp = HashMap::new();
        for (iface, next_hop) in [(1, None), (2, Some(0x0A00_02FE)), (3, None)] {
            let prefix = 0x0A00_0000 | (iface as u32) << 8;
            table.set(Route {
                prefix,
                len: 24,
                iface,
                next_hop,
            });
            for host in 1..=8u32 {
                arp.insert(prefix | host, 0x20 + u64::from(host));
            }
        }
        arp.insert(0x0A00_02FE, 0x7E);
        arp.insert(0x0A00_0207, 0x0200_0000_0007);
        for (host, iface) in [(0x0A00_0105, 0), (0x0A00_0207, 2)] {
            table.set(Route {
                prefix: host,
                len: 32,
                iface,
                next_hop: None,
            });
        }
        IpRouter::new(ifaces.collect(), table, arp)
    }

    #[test]
    fn owned_forward_is_byte_identical_to_decapsulate_and_rebuild() {
        let mut r = four_port_router();
        let mut want_stats = ForwarderStats::default();
        let mut rng = pf_sim::rng::SplitMix64::new(0x1F0D);
        let mut out = Vec::new();
        for step in 0..20_000 {
            let iface = rng.below(4) as usize;
            let medium = r.ifaces[iface].medium;
            let dst = 0x0A00_0000 | (rng.below(5) as u32) << 8 | rng.below(10) as u32;
            let ih = IpHeader {
                proto: rng.next_u64() as u8,
                ttl: [0, 1, 2, 64, 255][rng.below(5) as usize],
                src: rng.next_u64() as u32,
                dst,
                total_len: 0,
            };
            // Mostly small; sometimes past the 120-byte link, sometimes
            // past the 3 Mb/s maximum.
            let len = [
                rng.below(40),
                rng.below(40),
                90 + rng.below(40),
                560 + rng.below(60),
            ][rng.below(4) as usize] as usize;
            let mut packet = encode_ip(&ih, &vec![step as u8; len.min(medium.max_packet - 40)]);
            // What a sender may set and a hop must not echo: TOS, id,
            // fragment and checksum bytes.
            for at in [1, 4, 5, 6, 7, 10, 11] {
                packet[at] = rng.next_u64() as u8;
            }
            let ethertype = match rng.below(12) {
                0 => CONTROL_ETHERTYPE,
                1 => 0x0806,
                _ => IP_ETHERTYPE,
            };
            let mut f = frame::build(&medium, r.ifaces[iface].eth, 0x33, ethertype, &packet)
                .expect("sized to fit the arrival medium");
            match rng.below(10) {
                // Trailing bytes past `total_len` stay behind.
                0 | 1 => f.extend_from_slice(&[0xEE; 7][..1 + rng.below(7) as usize]),
                // Runts of every length, cut anywhere.
                2 => f.truncate(rng.below(f.len() as u64) as usize),
                // A version/IHL byte or a length the decoder refuses.
                3 => f[medium.header_len + [0, 2][rng.below(2) as usize]] ^= 0x40,
                _ => {}
            }
            let want = reference_forward(&r, &mut want_stats, iface, &f);
            // Control frames are the plain router's `not_routable` too.
            let got = if step % 2 == 0 {
                r.forward(iface, &f)
            } else {
                out.clear();
                r.forward_owned(iface, f, &mut out);
                out.clone()
            };
            assert_eq!(
                got, want,
                "step {step}, arriving on {iface} for {dst:#010x}"
            );
            assert_eq!(r.stats(), want_stats, "step {step}");
        }
        let s = r.stats();
        let seen = [s.forwarded, s.ttl_expired, s.no_route, s.not_routable];
        assert!(seen.iter().all(|&n| n > 500), "every outcome met: {s:?}");
    }

    #[test]
    fn a_same_medium_hop_reuses_the_arriving_buffer() {
        let (mut r, m) = one_hop_router();
        let f = ip_frame(&m, 0x11, 30, 0x0A00_0202);
        let buffer = f.as_ptr();
        let mut out = Vec::new();
        r.forward_owned(0, f, &mut out);
        assert_eq!(out[0].1.as_ptr(), buffer);
    }

    #[test]
    fn update_route_redirects_traffic() {
        let (mut r, m) = one_hop_router();
        assert!(r.update_route(Route {
            prefix: 0x0A00_0200,
            len: 24,
            iface: 0,
            next_hop: Some(0x0A00_0102),
        }));
        let out = r.forward(0, &ip_frame(&m, 0x11, 30, 0x0A00_0202));
        assert_eq!(out[0].0, 0, "rerouted out the updated interface");
    }

    #[test]
    fn for_node_builds_from_topology_tables() {
        let mut b = Topology::builder();
        let h1 = b.host("h1");
        let r1 = b.router("r1");
        let r2 = b.router("r2");
        let h2 = b.host("h2");
        b.link(h1, r1, Medium::standard_10mb(), FaultModel::default());
        b.link(r1, r2, Medium::standard_10mb(), FaultModel::default());
        b.link(r2, h2, Medium::standard_10mb(), FaultModel::default());
        let t = b.build();
        let mut fwd = IpRouter::for_node(&t, r1);
        let m = Medium::standard_10mb();
        let first_hop_eth = t.interfaces(r1)[0].eth;
        let f = ip_frame(&m, first_hop_eth, 30, t.ip(h2));
        let out = fwd.forward(0, &f);
        assert_eq!(out.len(), 1, "r1 forwards toward r2");
        assert_eq!(out[0].0, 1, "out the r1–r2 link");
    }

    /// Four routers in a ring, each with one host LAN. Router r_i's
    /// interfaces are (in order): toward r_{i-1}, toward r_{i+1}, host
    /// LAN — except r0, whose first two are toward r1 then r3 (link
    /// creation order).
    fn ring4() -> (Topology, [pf_net::NodeId; 4], [pf_net::NodeId; 4]) {
        let mut b = Topology::builder();
        let r: Vec<_> = (0..4).map(|i| b.router(format!("r{i}"))).collect();
        let h: Vec<_> = (0..4).map(|i| b.host(format!("h{i}"))).collect();
        for i in 0..4 {
            b.link(
                r[i],
                r[(i + 1) % 4],
                Medium::standard_10mb(),
                FaultModel::default(),
            );
        }
        for i in 0..4 {
            b.link(h[i], r[i], Medium::standard_10mb(), FaultModel::default());
        }
        (
            b.build(),
            [r[0], r[1], r[2], r[3]],
            [h[0], h[1], h[2], h[3]],
        )
    }

    fn ms(n: u64) -> SimTime {
        SimTime(n * 1_000_000)
    }

    /// A hello frame from `from` as it would arrive on `iface` of a
    /// router attached to `link`.
    fn hello_from(
        topo: &Topology,
        from: pf_net::NodeId,
        to: pf_net::NodeId,
        at: SimTime,
    ) -> Vec<u8> {
        let fi = topo
            .interfaces(from)
            .iter()
            .find(|i| topo.members(i.link).contains(&to))
            .unwrap();
        let ti = topo
            .interfaces(to)
            .iter()
            .find(|i| i.link == fi.link)
            .unwrap();
        let body = encode_control(MSG_HELLO, from.0 as u16, at, &[]);
        frame::build(
            topo.medium(fi.link),
            ti.eth,
            fi.eth,
            CONTROL_ETHERTYPE,
            &body,
        )
        .unwrap()
    }

    #[test]
    fn dead_interval_failover_floods_and_reconverges() {
        let (t, r, h) = ring4();
        // r2's interfaces: 0 → r1, 1 → r3, 2 → its host LAN.
        let mut fwd = IpRouter::for_node_hardened(&t, r[2]);
        assert_eq!(fwd.tick_interval(), Some(SimDuration::from_millis(20)));
        assert_eq!(
            fwd.route_table().lookup(t.ip(h[1])).unwrap().iface,
            0,
            "baseline: h1's LAN reached through r1"
        );
        // r3 keeps saying hello; r1 goes silent from the start.
        let mut lost_at = None;
        for tick in 1..=5u64 {
            let now = ms(20 * tick);
            let out = fwd.tick(now);
            assert!(
                out.len() >= 2,
                "every tick emits a hello per router neighbor"
            );
            if fwd.stats().neighbors_lost > 0 && lost_at.is_none() {
                lost_at = Some(now);
                assert!(
                    out.len() > 2,
                    "the death tick also floods a link-state update"
                );
            }
            let hello = hello_from(&t, r[3], r[2], now);
            fwd.forward(1, &hello);
        }
        let s = fwd.stats();
        assert_eq!(
            lost_at,
            Some(ms(80)),
            "r1 dead one tick past the 60ms bound"
        );
        assert_eq!(s.neighbors_lost, 1);
        assert!(s.failovers >= 1, "backup next-hop installed at detection");
        assert!(s.reconvergences >= 1);
        assert!(s.route_churn >= 1);
        assert_eq!(s.last_route_change_ns, ms(80).as_nanos());
        assert_eq!(
            fwd.route_table().lookup(t.ip(h[1])).unwrap().iface,
            1,
            "h1's LAN rerouted the long way around, through r3"
        );
        assert_eq!(s.hellos_sent, 10, "probing never stops, dead or alive");

        // Revival: r1 speaks again — up-LSU, database sync, reconverge.
        let out = fwd.forward(0, &hello_from(&t, r[1], r[2], ms(100)));
        let s = fwd.stats();
        assert_eq!(s.neighbors_recovered, 1);
        assert!(
            out.len() >= 3,
            "up-LSU to both neighbors plus a database sync to the revived one"
        );
        assert_eq!(
            fwd.route_table().lookup(t.ip(h[1])).unwrap().iface,
            0,
            "healed adjacency wins the route back"
        );
    }

    #[test]
    fn remote_lsu_reroutes_and_refloods_split_horizon() {
        let (t, r, h) = ring4();
        // r0's interfaces: 0 → r1, 1 → r3, 2 → its host LAN.
        let mut fwd = IpRouter::for_node_hardened(&t, r[0]);
        assert_eq!(fwd.route_table().lookup(t.ip(h[2])).unwrap().iface, 0);
        let rec = LsRecord {
            origin: r[1].0 as u16,
            seq: 1,
            a: r[1].0 as u16,
            b: r[2].0 as u16,
            up: false,
        };
        let body = encode_control(MSG_LSU, r[1].0 as u16, ms(50), &[rec]);
        let fi = t.interfaces(r[1])[0]; // r1's iface on the r0–r1 link
        let ti = t.interfaces(r[0])[0];
        let f = frame::build(t.medium(fi.link), ti.eth, fi.eth, CONTROL_ETHERTYPE, &body).unwrap();
        let out = fwd.forward(0, &f);
        assert_eq!(
            fwd.route_table().lookup(t.ip(h[2])).unwrap().iface,
            1,
            "r0 detours around the dead r1–r2 adjacency via r3"
        );
        assert_eq!(out.len(), 1, "refloods to r3 only");
        assert_eq!(
            out[0].0, 1,
            "split horizon: never back out the arrival iface"
        );
        let s = fwd.stats();
        assert_eq!((s.control_in, s.reconvergences), (1, 1));
        assert_eq!(
            s.last_route_change_ns,
            ms(50).as_nanos(),
            "stamped from the update"
        );

        // The same record again is stale: no reflood, no recompute.
        let out = fwd.forward(0, &f);
        assert!(out.is_empty());
        let s = fwd.stats();
        assert_eq!((s.control_in, s.reconvergences), (2, 1));
    }

    #[test]
    fn revival_grace_resets_liveness_timers_after_own_outage() {
        let (t, r, _h) = ring4();
        let mut fwd = IpRouter::for_node_hardened(&t, r[2]);
        fwd.forward(1, &hello_from(&t, r[3], r[2], ms(15)));
        fwd.tick(ms(20));
        // A 300ms tick gap models our own crash and restart: stale
        // timers must not condemn the whole neighborhood.
        fwd.tick(ms(320));
        assert_eq!(fwd.stats().neighbors_lost, 0, "grace reset after revival");
        // But a genuinely silent neighbor still dies afterwards.
        for tick in 17..=21u64 {
            fwd.tick(ms(20 * tick));
        }
        assert_eq!(
            fwd.stats().neighbors_lost,
            2,
            "both silent neighbors die post-grace"
        );
    }
}
