//! §6.1: kernel per-packet processing time, gprof style.
//!
//! "A 4.3BSD Unix kernel was configured to collect the CPU time spent in
//! and number of calls made to each kernel subroutine. … During the
//! profiling period, the system handled 1.3 million packets. 21% of these
//! packets were processed by the packet filter; of the remainder, 69% were
//! IP packets and 10% were ARP packets."
//!
//! Headline numbers to reproduce:
//!
//! * packet filter: **1.57 ms** per packet, **41%** of it evaluating
//!   filter predicates, the average packet tested against **6.3**
//!   predicates; crude model **0.8 ms + 0.122 ms × predicates**;
//! * kernel IP: **1.77 ms** per packet through the transport layer,
//!   **0.49 ms** in the IP layer alone.

use crate::report::Report;
use pf_kernel::app::App;
use pf_kernel::types::{Fd, PortConfig, ReadError, ReadMode, RecvPacket, SockId};
use pf_kernel::world::{ProcCtx, World};
use pf_net::frame;
use pf_net::medium::Medium;
use pf_net::segment::FaultModel;
use pf_proto::arp::{oper, ArpPacket, KernelArp, ARP_ETHERTYPE};
use pf_proto::ip::{encode_ip, encode_udp, IpHeader, KernelIp, IP_ETHERTYPE, PROTO_TCP, PROTO_UDP};
use pf_proto::tcp::Segment;
use pf_sim::cost::CostModel;
use pf_sim::rng::SplitMix64;
use pf_sim::time::{SimDuration, SimTime};
use pf_sim::SimClock;

/// Packets in the synthetic profiling trace (the paper's 1.3 M scaled to
/// a laptop-friendly count; per-packet averages are what matter).
const TRACE: usize = 10_000;

/// Active packet-filter ports in the main run — uniform traffic over 12
/// ports tests (12+1)/2 = 6.5 predicates on average, the paper's 6.3.
const PORTS: usize = 12;

/// Traffic mix per §6.1: 21% packet filter, 69% IP, 10% ARP.
const PF_SHARE: f64 = 0.21;
const IP_SHARE: f64 = 0.69;

/// Per-run measurements.
#[derive(Debug, Clone, Copy)]
pub struct ProfileResult {
    /// Packet-filter CPU time per pf packet, ms.
    pub pf_ms_per_packet: f64,
    /// Fraction of pf time spent evaluating filters.
    pub filter_fraction: f64,
    /// Mean predicates applied per pf packet.
    pub predicates_per_packet: f64,
    /// IP-layer CPU time per IP packet, ms.
    pub ip_layer_ms: f64,
    /// IP + transport + delivery CPU time per IP packet, ms.
    pub transport_ms: f64,
    /// ARP CPU time per ARP packet, ms.
    pub arp_ms: f64,
}

/// A pf sink process for one Pup socket.
struct PupSink {
    socket: u16,
    fd: Option<Fd>,
    got: u64,
}

impl App for PupSink {
    fn start(&mut self, k: &mut ProcCtx<'_>) {
        let fd = k.pf_open();
        k.pf_set_filter(
            fd,
            pf_filter::samples::pup_socket_filter(10, 0, self.socket),
        );
        k.pf_configure(
            fd,
            PortConfig {
                read_mode: ReadMode::Batch,
                max_queue: 4096,
                ..Default::default()
            },
        );
        self.fd = Some(fd);
        k.pf_read(fd);
    }
    fn on_packets(&mut self, fd: Fd, packets: Vec<RecvPacket>, k: &mut ProcCtx<'_>) {
        self.got += packets.len() as u64;
        k.pf_read(fd);
    }
    fn on_read_error(&mut self, fd: Fd, _e: ReadError, k: &mut ProcCtx<'_>) {
        k.pf_read(fd);
    }
}

/// A UDP sink over the kernel stack.
struct UdpSink {
    got: u64,
}

impl App for UdpSink {
    fn start(&mut self, k: &mut ProcCtx<'_>) {
        let sock = k.ksock_open("ip").expect("ip registered");
        k.ksock_request(sock, pf_proto::ip::ops::UDP_BIND, Vec::new(), [53, 0, 0, 0]);
    }
    fn on_socket(&mut self, _s: SockId, op: u32, _d: Vec<u8>, _m: [u64; 4], _k: &mut ProcCtx<'_>) {
        if op == pf_proto::ip::ops::UDP_RECV {
            self.got += 1;
        }
    }
}

/// Runs the profiling workload with `ports` active pf ports; returns the
/// result plus raw (predicates, pf ms) for model fitting.
pub fn run(ports: usize) -> ProfileResult {
    let medium = Medium::experimental_3mb();
    let mut w = World::new(88);
    let seg = w.add_segment(medium, FaultModel::default());
    let h = w.add_host("profiled", seg, 0x0B, CostModel::microvax_ii());
    w.set_nic_capacity(h, 1 << 20);
    w.register_protocol(h, Box::new(KernelIp::new(11)));
    w.register_protocol(h, Box::new(KernelArp::new(11)));
    for i in 0..ports {
        w.spawn(
            h,
            Box::new(PupSink {
                socket: i as u16,
                fd: None,
                got: 0,
            }),
        );
    }
    w.spawn(h, Box::new(UdpSink { got: 0 }));

    // Setup, then snapshot the profiler baseline.
    w.run_until(SimTime(5_000_000));
    let base = w.profiler(h).clone();
    let base_counters = *w.counters(h);

    let mut rng = SplitMix64::new(2026);
    let (mut n_pf, mut n_ip, mut n_arp) = (0u64, 0u64, 0u64);
    let spacing = SimDuration::from_micros(2_500);
    let t0 = SimTime(10_000_000);
    for i in 0..TRACE {
        let at = t0 + spacing.times(i as u64);
        let dice = rng.next_f64();
        if dice < PF_SHARE {
            n_pf += 1;
            let sock = rng.below(ports as u64) as u16;
            let f = pf_filter::samples::pup_packet_3mb(2, 0, sock, 1);
            w.inject_frame(h, f, at);
        } else if dice < PF_SHARE + IP_SHARE {
            n_ip += 1;
            // The paper's IP traffic was a TCP-heavy mix; model it as
            // half UDP datagrams to a bound socket, half TCP data
            // segments (charged through `tcp_input` with checksums, like
            // the stream traffic a timesharing VAX carried).
            let l4_and_proto = if rng.chance(0.5) {
                (encode_udp(9999, 53, &[0u8; 64]), PROTO_UDP)
            } else {
                let seg = Segment {
                    src_port: 1023,
                    dst_port: 513,
                    seq: i as u32,
                    ack: 0,
                    flags: pf_proto::tcp::flags::ACK,
                    window: 4096,
                    data: vec![0u8; 512],
                };
                (seg.encode(), PROTO_TCP)
            };
            let ip = encode_ip(
                &IpHeader {
                    proto: l4_and_proto.1,
                    ttl: 30,
                    src: 10,
                    dst: 11,
                    total_len: 0,
                },
                &l4_and_proto.0,
            );
            let f = frame::build(&medium, 0x0B, 0x0A, IP_ETHERTYPE, &ip).expect("fits");
            w.inject_frame(h, f, at);
        } else {
            n_arp += 1;
            let arp = ArpPacket {
                oper: oper::ARP_REQUEST,
                sha: 0x0A,
                spa: 10,
                tha: 0,
                tpa: 11,
            };
            let f = arp.encode_frame(&medium, ARP_ETHERTYPE, medium.broadcast, 0x0A);
            w.inject_frame(h, f, at);
        }
    }
    w.run();

    let prof = w.profiler(h).clone();
    // Subtract the setup baseline.
    let delta = |name: &str| {
        SimDuration::from_nanos(prof.stats(name).time.as_nanos() - base.stats(name).time.as_nanos())
    };
    let counters = *w.counters(h) - base_counters;

    let pf_time = delta("pf:filter") + delta("pf:input") + delta("pf:read-copyout");
    let filter_time = delta("pf:filter");
    let ip_layer = delta("ip:input");
    let transport = ip_layer
        + delta("udp:input")
        + delta("tcp:input")
        + delta("tcp:cksum")
        + delta("sock:copyout")
        + delta("kern:wakeup");
    let arp_time = delta("arp:input");

    ProfileResult {
        pf_ms_per_packet: pf_time.as_millis_f64() / n_pf as f64,
        filter_fraction: filter_time.as_nanos() as f64 / pf_time.as_nanos().max(1) as f64,
        predicates_per_packet: counters.filters_applied as f64 / n_pf as f64,
        ip_layer_ms: ip_layer.as_millis_f64() / n_ip as f64,
        transport_ms: transport.as_millis_f64() / n_ip as f64,
        arp_ms: arp_time.as_millis_f64() / n_arp as f64,
    }
}

/// Fits the §6.1 linear model (pf ms = a + b × predicates) by sweeping the
/// number of active ports; returns (intercept, slope).
pub fn fit_model() -> (f64, f64) {
    let samples: Vec<(f64, f64)> = [2usize, 4, 8, 12, 16, 20]
        .into_iter()
        .map(|ports| {
            let r = run(ports);
            (r.predicates_per_packet, r.pf_ms_per_packet)
        })
        .collect();
    let n = samples.len() as f64;
    let sx: f64 = samples.iter().map(|s| s.0).sum();
    let sy: f64 = samples.iter().map(|s| s.1).sum();
    let sxx: f64 = samples.iter().map(|s| s.0 * s.0).sum();
    let sxy: f64 = samples.iter().map(|s| s.0 * s.1).sum();
    let slope = (n * sxy - sx * sy) / (n * sxx - sx * sx);
    let intercept = (sy - slope * sx) / n;
    (intercept, slope)
}

/// Builds the §6.1 report.
pub fn report_section_6_1() -> Report {
    let r12 = run(PORTS);
    let (a, b) = fit_model();
    let mut r = Report::new("Section 6.1", "Kernel per-packet processing time")
        .headers(&["quantity", "paper", "measured"]);
    r.row(&[
        "pf time per packet".into(),
        "1.57 ms".into(),
        format!("{:.2} ms", r12.pf_ms_per_packet),
    ]);
    r.row(&[
        "share evaluating filters".into(),
        "41%".into(),
        format!("{:.0}%", 100.0 * r12.filter_fraction),
    ]);
    r.row(&[
        "predicates per packet".into(),
        "6.3".into(),
        format!("{:.1}", r12.predicates_per_packet),
    ]);
    // The paper states the model as one expression, `0.8 + 0.122n ms`; a
    // cell compares one number, so each coefficient gets its row.
    r.row(&[
        "linear model: fixed cost".into(),
        "0.8 ms".into(),
        format!("{a:.2} ms"),
    ]);
    r.row(&[
        "linear model: slope".into(),
        "0.122 ms / pred".into(),
        format!("{b:.3} ms / pred"),
    ]);
    r.row(&[
        "IP-layer time per packet".into(),
        "0.49 ms".into(),
        format!("{:.2} ms", r12.ip_layer_ms),
    ]);
    r.row(&[
        "IP through transport".into(),
        "1.77 ms".into(),
        format!("{:.2} ms", r12.transport_ms),
    ]);
    r.row(&[
        "ARP time per packet".into(),
        "(profiled)".into(),
        format!("{:.2} ms", r12.arp_ms),
    ]);
    r.note("traffic mix 21% pf / 69% IP / 10% ARP, as in the paper's trace");
    r.note("IP traffic is half UDP datagrams, half checksummed TCP segments");
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn section_6_1_headline_numbers() {
        let r = run(PORTS);
        // pf per-packet time near 1.57 ms.
        assert!(
            (1.0..2.3).contains(&r.pf_ms_per_packet),
            "pf per-packet {:.2} ms (paper 1.57)",
            r.pf_ms_per_packet
        );
        // ~41% of it in filter evaluation.
        assert!(
            (0.25..0.60).contains(&r.filter_fraction),
            "filter fraction {:.2} (paper 0.41)",
            r.filter_fraction
        );
        // ~6.3 predicates per packet with 12 active ports.
        assert!(
            (5.5..7.5).contains(&r.predicates_per_packet),
            "predicates {:.1} (paper 6.3)",
            r.predicates_per_packet
        );
        // IP layer ~0.49 ms.
        assert!(
            (0.40..0.60).contains(&r.ip_layer_ms),
            "IP layer {:.2} ms (paper 0.49)",
            r.ip_layer_ms
        );
        // The kernel-resident IP path is about 3x cheaper than pf per
        // packet ("the kernel-resident IP layer is about three times
        // faster than the packet filter at processing an average packet").
        let ratio = r.pf_ms_per_packet / r.ip_layer_ms;
        assert!(
            (2.0..4.5).contains(&ratio),
            "pf/IP-layer ratio {ratio:.1} (paper ~3.2)"
        );
    }

    #[test]
    fn linear_model_matches_paper_shape() {
        let (a, b) = fit_model();
        // Paper: 0.8 ms + 0.122 ms per predicate.
        assert!((0.5..1.2).contains(&a), "intercept {a:.2} (paper 0.8)");
        assert!((0.08..0.18).contains(&b), "slope {b:.3} (paper 0.122)");
    }
}
