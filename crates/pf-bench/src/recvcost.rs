//! The shared receive-path harness: tables 6-8, 6-9, 6-10, figures
//! 2-1/2-2 and 3-4/3-5, and the §6.5 break-even sweep all drive packets
//! into one host and measure what reception costs.

use crate::report::Report;
use pf_filter::samples;
use pf_kernel::app::App;
use pf_kernel::types::{Fd, PipeId, PortConfig, ProcId, ReadError, ReadMode, RecvPacket};
use pf_kernel::world::{ProcCtx, World};
use pf_proto::vmtp_user::DemuxProcess;
use pf_sim::cost::CostModel;
use pf_sim::counters::Counters;
use pf_sim::rng::SplitMix64;
use pf_sim::time::{SimDuration, SimTime};
use pf_sim::SimClock;

/// Where demultiplexing happens (§6.5's comparison).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DemuxMode {
    /// The packet filter in the kernel delivers directly.
    Kernel,
    /// A user-level demultiplexing process relays through a pipe.
    UserProcess,
}

/// Harness configuration.
#[derive(Debug, Clone)]
pub struct RecvConfig {
    /// Total frame size in bytes.
    pub frame_bytes: usize,
    /// Packets to inject.
    pub count: usize,
    /// Received-packet batching enabled.
    pub batching: bool,
    /// Kernel or user-process demultiplexing.
    pub mode: DemuxMode,
    /// Filter length in instructions for the receiving port; `None` binds
    /// the zero-length accept-all filter (table 6-8/6-9's "without any
    /// real decision-making").
    pub filter_instructions: Option<usize>,
    /// Number of active ports with distinct socket filters (break-even
    /// sweep); traffic is spread uniformly over them. `1` plus
    /// `filter_instructions: None` is the plain single-receiver setup.
    pub(crate) active_filters: usize,
    /// Injection spacing in microseconds (must be below the per-packet
    /// processing cost to saturate the receive path).
    pub(crate) spacing_us: u64,
    /// The kernel demultiplexing engine (sequential loop or §7's decision
    /// table).
    pub engine: pf_kernel::device::DemuxEngine,
}

impl Default for RecvConfig {
    fn default() -> Self {
        RecvConfig {
            frame_bytes: 128,
            count: 400,
            batching: false,
            mode: DemuxMode::Kernel,
            filter_instructions: None,
            active_filters: 1,
            spacing_us: 450,
            engine: pf_kernel::device::DemuxEngine::Sequential,
        }
    }
}

/// Harness results.
#[derive(Debug, Clone)]
pub struct RecvResult {
    /// Elapsed milliseconds per received packet (saturated).
    pub(crate) per_packet_ms: f64,
    /// Packets actually delivered to the final process.
    pub delivered: usize,
    /// Counter deltas over the measurement interval.
    pub counters: Counters,
    /// System calls per packet.
    pub(crate) syscalls_per_packet: f64,
    /// Context switches per packet.
    pub(crate) context_switches_per_packet: f64,
    /// Data copies per packet.
    pub(crate) copies_per_packet: f64,
}

/// A counting sink on a packet-filter port.
struct Sink {
    filter: pf_filter::program::FilterProgram,
    batching: bool,
    fd: Option<Fd>,
    got: usize,
    last_at: SimTime,
}

impl Sink {
    fn new(filter: pf_filter::program::FilterProgram, batching: bool) -> Self {
        Sink {
            filter,
            batching,
            fd: None,
            got: 0,
            last_at: SimTime::ZERO,
        }
    }
}

impl App for Sink {
    fn start(&mut self, k: &mut ProcCtx<'_>) {
        let fd = k.pf_open();
        k.pf_set_filter(fd, self.filter.clone());
        k.pf_configure(
            fd,
            PortConfig {
                read_mode: if self.batching {
                    ReadMode::Batch
                } else {
                    ReadMode::Single
                },
                max_queue: 100_000,
                ..Default::default()
            },
        );
        self.fd = Some(fd);
        k.pf_read(fd);
    }

    fn on_packets(&mut self, fd: Fd, packets: Vec<RecvPacket>, k: &mut ProcCtx<'_>) {
        self.got += packets.len();
        self.last_at = k.now();
        k.pf_read(fd);
    }

    fn on_read_error(&mut self, fd: Fd, _e: ReadError, k: &mut ProcCtx<'_>) {
        k.pf_read(fd);
    }
}

/// The far end of the user-level demultiplexer's pipe.
struct PipeSink {
    got: usize,
    last_at: SimTime,
}

impl App for PipeSink {
    fn start(&mut self, _k: &mut ProcCtx<'_>) {}
    fn on_pipe_data(&mut self, _p: PipeId, _d: Vec<u8>, k: &mut ProcCtx<'_>) {
        self.got += 1;
        self.last_at = k.now();
    }
}

/// A Pup frame of exactly `frame_bytes` bytes to socket `sock`.
fn test_frame(frame_bytes: usize, sock: u16) -> Vec<u8> {
    // Header (4) + Pup header (20) + data + checksum (2) = frame_bytes.
    let data = vec![0xEEu8; frame_bytes.saturating_sub(26)];
    let mut f = samples::pup_packet_3mb_with_data(2, 1, 0, sock, 1, &data);
    f.truncate(frame_bytes);
    f
}

/// Runs the harness.
pub fn run(cfg: &RecvConfig) -> RecvResult {
    let mut w = World::new(99);
    let seg = w.add_segment(
        pf_net::medium::Medium::experimental_3mb(),
        pf_net::segment::FaultModel::default(),
    );
    let h = w.add_host("receiver", seg, 0x0B, CostModel::microvax_ii());
    w.set_nic_capacity(h, cfg.count + 10);
    // The paper measured on machines with other active processes: a
    // wakeup costs two context switches (§6.5.1).
    w.set_contended(h, true);
    w.set_demux_engine(h, cfg.engine);

    enum Target {
        Sinks(Vec<ProcId>),
        Pipe(ProcId),
    }

    let target = match cfg.mode {
        DemuxMode::Kernel => {
            let mut sinks = Vec::new();
            for i in 0..cfg.active_filters {
                let filter = match cfg.filter_instructions {
                    Some(n) => {
                        assert_eq!(cfg.active_filters, 1, "padded filters are single-port");
                        samples::padded_accept_filter(10, n)
                    }
                    None if cfg.active_filters == 1 => pf_filter::program::FilterProgram::empty(10),
                    None => samples::pup_socket_filter(10, 0, i as u16),
                };
                sinks.push(w.spawn(h, Box::new(Sink::new(filter, cfg.batching))));
            }
            Target::Sinks(sinks)
        }
        DemuxMode::UserProcess => {
            let fin = w.spawn(
                h,
                Box::new(PipeSink {
                    got: 0,
                    last_at: SimTime::ZERO,
                }),
            );
            let demux = DemuxProcess::new(pf_filter::program::FilterProgram::empty(10), fin)
                .with_queue(cfg.count + 10);
            let demux = if cfg.batching {
                demux
            } else {
                demux.without_batching()
            };
            w.spawn(h, Box::new(demux));
            Target::Pipe(fin)
        }
    };

    // Let setup complete, then snapshot counters.
    w.run_until(SimTime(5_000_000));
    let before = *w.counters(h);
    let t0 = SimTime(10_000_000);

    let mut rng = SplitMix64::new(4242);
    for i in 0..cfg.count {
        let sock = if cfg.active_filters > 1 {
            rng.below(cfg.active_filters as u64) as u16
        } else {
            0
        };
        let at = t0 + SimDuration::from_micros(cfg.spacing_us * i as u64);
        w.inject_frame(h, test_frame(cfg.frame_bytes, sock), at);
    }
    w.run();

    let after = *w.counters(h);
    let counters = after - before;
    let (delivered, last_at) = match target {
        Target::Sinks(sinks) => {
            let mut total = 0usize;
            let mut last = SimTime::ZERO;
            for s in sinks {
                let app = w.app_ref::<Sink>(h, s).expect("sink");
                total += app.got;
                last = last.max(app.last_at);
            }
            (total, last)
        }
        Target::Pipe(fin) => {
            let app = w.app_ref::<PipeSink>(h, fin).expect("pipe sink");
            (app.got, app.last_at)
        }
    };
    assert_eq!(delivered, cfg.count, "all packets must be delivered");

    let n = cfg.count as f64;
    RecvResult {
        per_packet_ms: last_at.since(t0).as_millis_f64() / n,
        delivered,
        counters,
        syscalls_per_packet: counters.syscalls as f64 / n,
        context_switches_per_packet: counters.context_switches as f64 / n,
        copies_per_packet: counters.copies as f64 / n,
    }
}

/// Table 6-8: per-packet receive cost without batching.
pub(crate) fn report_table_6_8() -> Report {
    let paper = [(128usize, 2.3, 5.0), (1500, 4.0, 9.0)];
    let mut r =
        Report::new("Table 6-8", "Per-packet cost of user-level demultiplexing").headers(&[
            "packet size",
            "kernel (paper)",
            "kernel (measured)",
            "user (paper)",
            "user (measured)",
        ]);
    for (size, p_k, p_u) in paper {
        // The 3 Mb experimental Ethernet tops out at 600-byte frames; the
        // paper's 1500-byte rows used the 10 Mb net. Frame size only
        // enters through copy costs, which are medium-independent, so the
        // harness keeps one medium and injects synthetic frames.
        let kernel = run(&RecvConfig {
            frame_bytes: size.min(1500),
            mode: DemuxMode::Kernel,
            spacing_us: 900,
            ..Default::default()
        });
        let user = run(&RecvConfig {
            frame_bytes: size.min(1500),
            mode: DemuxMode::UserProcess,
            spacing_us: 1_800,
            ..Default::default()
        });
        r.row(&[
            format!("{size} bytes"),
            format!("{p_k:.1} ms"),
            format!("{:.2} ms", kernel.per_packet_ms),
            format!("{p_u:.1} ms"),
            format!("{:.2} ms", user.per_packet_ms),
        ]);
    }
    r.note("user-level demultiplexing roughly doubles per-packet cost");
    r
}

/// Table 6-9: the same with received-packet batching.
pub(crate) fn report_table_6_9() -> Report {
    let paper = [(128usize, 2.4, 1.9), (1500, 3.5, 5.9)];
    let mut r = Report::new(
        "Table 6-9",
        "Per-packet cost of user-level demultiplexing, with batching",
    )
    .headers(&[
        "packet size",
        "kernel (paper)",
        "kernel (measured)",
        "user (paper)",
        "user (measured)",
    ]);
    for (size, p_k, p_u) in paper {
        let kernel = run(&RecvConfig {
            frame_bytes: size,
            batching: true,
            mode: DemuxMode::Kernel,
            spacing_us: 400,
            ..Default::default()
        });
        let user = run(&RecvConfig {
            frame_bytes: size,
            batching: true,
            mode: DemuxMode::UserProcess,
            spacing_us: 900,
            ..Default::default()
        });
        r.row(&[
            format!("{size} bytes"),
            format!("{p_k:.1} ms"),
            format!("{:.2} ms", kernel.per_packet_ms),
            format!("{p_u:.1} ms"),
            format!("{:.2} ms", user.per_packet_ms),
        ]);
    }
    r.note("batching shrinks the penalty but cannot remove the extra copies");
    r
}

/// Table 6-10: cost of interpreting filters of various lengths.
pub(crate) fn report_table_6_10() -> Report {
    let paper = [(0usize, 1.9), (1, 2.0), (9, 2.2), (21, 2.5)];
    let mut r = Report::new("Table 6-10", "Cost of interpreting packet filters").headers(&[
        "filter length",
        "paper",
        "measured",
    ]);
    for (len, p) in paper {
        let res = run(&RecvConfig {
            frame_bytes: 128,
            batching: true,
            filter_instructions: Some(len),
            spacing_us: 400,
            ..Default::default()
        });
        r.row(&[
            format!("{len} instructions"),
            format!("{p:.1} ms"),
            format!("{:.2} ms", res.per_packet_ms),
        ]);
    }
    r.note("~28 µs per filter instruction, on top of a fixed receive path");
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(cfg: RecvConfig) -> RecvResult {
        run(&RecvConfig { count: 120, ..cfg })
    }

    #[test]
    fn kernel_demux_cost_matches_table_6_8() {
        let r = quick(RecvConfig {
            spacing_us: 900,
            ..Default::default()
        });
        assert!(
            (1.7..3.0).contains(&r.per_packet_ms),
            "kernel 128B: {:.2} ms (paper 2.3)",
            r.per_packet_ms
        );
    }

    #[test]
    fn user_demux_roughly_doubles_cost() {
        let k = quick(RecvConfig {
            spacing_us: 900,
            ..Default::default()
        });
        let u = quick(RecvConfig {
            mode: DemuxMode::UserProcess,
            spacing_us: 1_800,
            ..Default::default()
        });
        let ratio = u.per_packet_ms / k.per_packet_ms;
        assert!((1.6..3.0).contains(&ratio), "ratio {ratio:.2} (paper ~2.2)");
    }

    #[test]
    fn larger_packets_cost_more() {
        let small = quick(RecvConfig {
            spacing_us: 900,
            ..Default::default()
        });
        let big = quick(RecvConfig {
            frame_bytes: 1500,
            spacing_us: 2_000,
            ..Default::default()
        });
        // Paper: 2.3 → 4.0 ms; the delta is dominated by 1 µs/byte copying.
        let delta = big.per_packet_ms - small.per_packet_ms;
        assert!(
            (1.0..2.6).contains(&delta),
            "delta {delta:.2} ms (paper 1.7)"
        );
    }

    #[test]
    fn batching_amortizes_wakeups() {
        let plain = quick(RecvConfig {
            spacing_us: 400,
            ..Default::default()
        });
        let batched = quick(RecvConfig {
            batching: true,
            spacing_us: 400,
            ..Default::default()
        });
        assert!(
            batched.syscalls_per_packet < plain.syscalls_per_packet,
            "batched {} vs plain {} syscalls/packet",
            batched.syscalls_per_packet,
            plain.syscalls_per_packet
        );
        assert!(batched.per_packet_ms < plain.per_packet_ms);
    }

    #[test]
    fn filter_length_adds_linear_cost() {
        let t = |n| {
            quick(RecvConfig {
                batching: true,
                filter_instructions: Some(n),
                spacing_us: 400,
                ..Default::default()
            })
            .per_packet_ms
        };
        let t0 = t(0);
        let t21 = t(21);
        let delta = t21 - t0;
        // Paper: 1.9 → 2.5 ms, i.e. ~0.6 ms for 21 instructions.
        assert!((0.4..0.8).contains(&delta), "21-instr delta {delta:.2} ms");
    }

    #[test]
    fn figure_2_counters_kernel_vs_user() {
        // Figures 2-1/2-2: the user-level demultiplexer pays extra context
        // switches, system calls, and copies on every packet.
        let k = quick(RecvConfig {
            spacing_us: 900,
            ..Default::default()
        });
        let u = quick(RecvConfig {
            mode: DemuxMode::UserProcess,
            spacing_us: 1_800,
            ..Default::default()
        });
        assert!(u.context_switches_per_packet >= k.context_switches_per_packet + 0.9);
        assert!(u.syscalls_per_packet >= k.syscalls_per_packet + 1.9);
        assert!(u.copies_per_packet >= k.copies_per_packet + 1.9);
    }
}
