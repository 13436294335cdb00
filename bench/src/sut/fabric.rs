//! `routed_fabric`'s system: a ring of routers, each with a small host LAN,
//! built with `Topology::builder()` and `deploy`, loaded with a `flowgen`
//! schedule whose every send is pre-scheduled (open loop in simulated time).

use super::{run_world, world_counts, FilterSpec, WorldCounts};
use crate::stats::Log2Hist;
use pf_bench::flowgen::{self, Arrival, FlowSpec, Pattern, SizeMix, Transport};
use pf_kernel::app::App;
use pf_kernel::types::{Fd, HostId, PortConfig, ProcId, ReadMode, RecvPacket, RouterId};
use pf_kernel::world::ProcCtx;
use pf_kernel::World;
use pf_net::medium::Medium;
use pf_net::segment::{FaultModel, SegmentId};
use pf_net::{NodeId, Topology};
use pf_proto::ip::{encode_ip, IpHeader, IP_ETHERTYPE, PROTO_UDP};
use pf_proto::router::deploy;
use pf_sim::cost::CostModel;
use pf_sim::time::SimTime;

/// One scheduled send: who sends how much to whom, when.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowPacket {
    pub at_ns: u64,
    /// Host indices into the fabric's host list.
    pub src: usize,
    pub dst: usize,
    pub payload: usize,
}

/// The smallest-packet case: per-packet cost dominates.
const PAYLOAD: usize = 64;

/// `flowgen`'s schedule for `flows` flows among `hosts` hosts: Poisson
/// arrivals, one elephant (4 packets) to nine mice (1 packet), a fifth of
/// the flows converging on host 0, no churn.
pub fn flow_schedule(flows: usize, hosts: usize, seed: u64) -> Vec<FlowPacket> {
    let spec = FlowSpec {
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
        transports: vec![Transport::Udp],
        payload: PAYLOAD,
        packet_gap_ns: 200_000,
        churn_events: 0,
        start: SimTime(1_000),
    };
    flowgen::generate(&spec, hosts, seed)
        .into_iter()
        .map(|p| FlowPacket {
            at_ns: p.at.as_nanos(),
            src: p.src,
            dst: p.dst,
            payload: p.payload,
        })
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FabricParams {
    pub seed: u64,
    pub routers: usize,
    pub hosts_per_lan: usize,
}

/// The benchmark's own receiver: one filter (IP's Ethernet type on the
/// 10 Mb/s encapsulation), batched reads, a count.
struct SinkApp {
    got: u64,
}

/// IP's Ethernet type sits in packet word 6 of a 10 Mb/s frame.
pub const SINK_FILTER: FilterSpec = FilterSpec::Ethertype {
    word: 6,
    ethertype: IP_ETHERTYPE,
};

/// The incast victim's backlog stands in its port queue and NIC ring; deep
/// buffers keep "delivered equals addressed" a property of routing.
const DEEP: usize = 1 << 20;

impl App for SinkApp {
    fn start(&mut self, k: &mut ProcCtx<'_>) {
        let fd = k.pf_open();
        assert!(k.pf_set_filter(fd, SINK_FILTER.program()));
        k.pf_configure(
            fd,
            PortConfig {
                read_mode: ReadMode::Batch,
                max_queue: DEEP,
                ..Default::default()
            },
        );
        k.pf_read(fd);
    }

    fn on_packets(&mut self, fd: Fd, packets: Vec<RecvPacket>, k: &mut ProcCtx<'_>) {
        self.got += packets.len() as u64;
        k.pf_read(fd);
    }
}

/// The frozen plan: shared by the live World and the layer replays.
pub struct Plan {
    pub(super) topo: Topology,
    pub(super) routers: Vec<NodeId>,
    pub(super) hosts: Vec<NodeId>,
}

impl Plan {
    pub fn new(p: &FabricParams) -> Self {
        let mut b = Topology::builder();
        let routers: Vec<NodeId> = (0..p.routers).map(|i| b.router(format!("r{i}"))).collect();
        let hosts: Vec<NodeId> = (0..p.routers * p.hosts_per_lan)
            .map(|i| b.host(format!("h{i}")))
            .collect();
        let m = Medium::standard_10mb();
        for i in 0..p.routers {
            b.link(
                routers[i],
                routers[(i + 1) % p.routers],
                m,
                FaultModel::default(),
            );
        }
        for (r, router) in routers.iter().enumerate() {
            let mut members = vec![*router];
            members.extend(hosts.iter().skip(r).step_by(p.routers));
            b.lan(&members, m, FaultModel::default());
        }
        Plan {
            topo: b.build(),
            routers,
            hosts,
        }
    }

    pub fn host_count(&self) -> usize {
        self.hosts.len()
    }

    /// The wire frame of one scheduled send, addressed to its first hop.
    pub fn frame(&self, p: &FlowPacket) -> Vec<u8> {
        let topo = &self.topo;
        let src = self.hosts[p.src];
        let dst_ip = topo.ip(self.hosts[p.dst]);
        let (iface, next_eth) = topo.first_hop(src, dst_ip).expect("a ring is connected");
        let src_if = topo.interfaces(src)[iface];
        let header = IpHeader {
            proto: PROTO_UDP,
            ttl: 64,
            src: topo.ip(src),
            dst: dst_ip,
            total_len: 0,
        };
        let packet = encode_ip(&header, &vec![0xA5u8; p.payload]);
        pf_net::frame::build(
            topo.medium(src_if.link),
            next_eth,
            src_if.eth,
            IP_ETHERTYPE,
            &packet,
        )
        .expect("the frame fits the medium")
    }
}

pub struct Fabric {
    w: World,
    plan: Plan,
    hosts: Vec<HostId>,
    routers: Vec<RouterId>,
    segments: Vec<SegmentId>,
    sinks: Vec<ProcId>,
    /// Packets addressed to each host.
    expected: Vec<u64>,
}

/// What a finished `routed_fabric` run reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FabricOutcome {
    /// `(addressed, received by the station, read by the sink)` per host.
    pub per_host: Vec<(u64, u64, u64)>,
    pub counts: WorldCounts,
}

impl Fabric {
    /// Topology, deploy, one sink per host, and every send scheduled.
    pub fn build(p: &FabricParams, packets: &[FlowPacket]) -> Self {
        let plan = Plan::new(p);
        let mut w = World::new(p.seed);
        let d = deploy(&plan.topo, &mut w, &CostModel::microvax_ii());
        let hosts: Vec<HostId> = plan.hosts.iter().map(|&n| d.host(n)).collect();
        let routers: Vec<RouterId> = plan.routers.iter().map(|&n| d.router(n)).collect();
        let sinks = hosts
            .iter()
            .map(|&h| {
                w.set_nic_capacity(h, DEEP);
                w.spawn(h, Box::new(SinkApp { got: 0 }))
            })
            .collect();
        let mut expected = vec![0u64; hosts.len()];
        for p in packets {
            expected[p.dst] += 1;
            w.send_frame_at(hosts[p.src], plan.frame(p), SimTime(p.at_ns));
        }
        Fabric {
            w,
            plan,
            hosts,
            routers,
            segments: d.segments,
            sinks,
            expected,
        }
    }

    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// Runs until the last frame is read. Returns the events processed.
    pub fn run(&mut self, steps: Option<&mut Log2Hist>) -> u64 {
        run_world(&mut self.w, None, steps)
    }

    pub fn outcome(&self) -> FabricOutcome {
        let counts = world_counts(&self.w, &self.hosts, &self.routers, &self.segments);
        let per_host = (0..self.hosts.len())
            .map(|i| {
                let sink = self
                    .w
                    .app_ref::<SinkApp>(self.hosts[i], self.sinks[i])
                    .expect("a sink");
                (self.expected[i], counts.hosts[i].received, sink.got)
            })
            .collect();
        FabricOutcome { per_host, counts }
    }
}
