//! The host's per-frame path between the wire and the process: the receive
//! ring's tie-breaks, an armored host under a sliced open-loop flood, timer
//! handles that outlive their timer, and what one BSP data Pup costs the
//! heap.
//!
//! The receive ring is not in the event queue: a host retires the driver
//! completions that are due when the next frame arrives. The literals in
//! `ring_ties_fire_in_schedule_order` were recorded at the commit where
//! every completion was still an event of its own, so they pin the order
//! that event would have fired in — after everything scheduled before it at
//! the same instant, before everything scheduled after.

use packet_filter::filter::samples;
use packet_filter::kernel::app::App;
use packet_filter::kernel::types::{Fd, HostId, PortConfig, ReadMode, RecvPacket, TimerId};
use packet_filter::kernel::world::{OverloadConfig, ProcCtx, World};
use packet_filter::kernel::{AdmissionConfig, AdmissionQuota, DemuxEngine};
use packet_filter::net::medium::Medium;
use packet_filter::net::segment::FaultModel;
use packet_filter::proto::bsp::BspConfig;
use packet_filter::proto::bsp_app::{BspReceiverApp, BspSenderApp};
use packet_filter::proto::pup::PupAddr;
use packet_filter::sim::cost::CostModel;
use packet_filter::sim::rng::SplitMix64;
use packet_filter::sim::time::{SimDuration, SimTime};
use packet_filter::SimClock;

#[path = "support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{count_during, Counting};

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Reads socket 35 for ever.
struct Reader;

impl App for Reader {
    fn start(&mut self, k: &mut ProcCtx<'_>) {
        let fd = k.pf_open();
        k.pf_set_filter(fd, samples::pup_socket_filter(10, 0, 35));
        k.pf_read(fd);
    }

    fn on_packets(&mut self, fd: Fd, _packets: Vec<RecvPacket>, k: &mut ProcCtx<'_>) {
        k.pf_read(fd);
    }
}

/// `(drops_interface, rx_mode_switches, packets_delivered, busy ns)` of one
/// host after rounds of bursts aimed at its ring's ties.
///
/// A round starts on an idle CPU at `t`: one frame at `t`, whose driver
/// completion is therefore exactly `t + driver_rx_cost`, then `fillers`
/// frames inside that interval (each completes later, behind the first
/// frame's filter and wakeup work), then frames *at* the completion time.
/// Those scheduled before the run reaches `t` precede the completion and
/// find its slot taken; those scheduled after it follow the completion and
/// find it free. Wanted frames (socket 35) and unwanted ones (36) alternate
/// between the two sides so that swapping which side is dropped shows in
/// `packets_delivered` too.
fn ring_ties(capacity: usize, armor: bool) -> (u64, u64, u64, u64) {
    let costs = CostModel::microvax_ii();
    let mut w = World::new(11);
    let seg = w.add_segment(Medium::experimental_3mb(), FaultModel::default());
    let h = w.add_host("ring", seg, 0x0B, costs.clone());
    w.set_nic_capacity(h, capacity);
    if armor {
        w.set_overload_armor(
            h,
            Some(OverloadConfig {
                hi_watermark: capacity,
                lo_watermark: 1,
                poll_batch: 2,
                poll_interval: SimDuration::from_micros(1_000),
            }),
        );
    }
    w.spawn(h, Box::new(Reader));

    let wanted = samples::pup_packet_3mb(2, 0, 35, 1);
    let unwanted = samples::pup_packet_3mb(2, 0, 36, 1);
    let done = costs.driver_rx_cost(wanted.len());
    // (frames at the tie scheduled before the completing frame runs, after)
    let patterns = [(1, 0), (0, 1), (1, 1), (2, 1), (1, 2)];
    let mut round = 0u64;
    for fillers in [capacity - 2, capacity - 1] {
        for (before, after) in patterns {
            round += 1;
            let t = SimTime(round * 1_000_000_000);
            let side = |i: usize| [&wanted, &unwanted][(i + round as usize) % 2];
            w.inject_frame(h, wanted.clone(), t);
            for i in 0..fillers {
                w.inject_frame(h, wanted.clone(), t + SimDuration::from_nanos(1 + i as u64));
            }
            for i in 0..before {
                w.inject_frame(h, side(i).clone(), t + done);
            }
            w.run_until(t);
            for i in 0..after {
                w.inject_frame(h, side(i + 1).clone(), t + done);
            }
        }
    }
    w.run();
    let c = w.counters(h);
    (
        c.drops_interface,
        c.rx_mode_switches,
        c.packets_delivered,
        w.cpu(h).busy_time().as_nanos(),
    )
}

#[test]
fn ring_ties_fire_in_schedule_order() {
    let recorded = [
        ((2, false), (8, 0, 20, 38_852_800)),
        ((2, true), (2, 18, 23, 43_220_000)),
        ((3, false), (8, 0, 30, 55_596_800)),
        ((3, true), (0, 18, 35, 62_812_000)),
        ((4, false), (8, 0, 40, 72_340_800)),
        ((4, true), (0, 18, 45, 79_556_000)),
    ];
    for ((capacity, armor), want) in recorded {
        assert_eq!(
            ring_ties(capacity, armor),
            want,
            "capacity {capacity}, armor {armor}"
        );
    }
}

/// Reads socket 35 in batches at priority 200 (above the admission gate's
/// protection line) and works 200 µs on every packet.
struct Consumer;

impl App for Consumer {
    fn start(&mut self, k: &mut ProcCtx<'_>) {
        let fd = k.pf_open();
        k.pf_set_filter(fd, samples::pup_socket_filter(200, 0, 35));
        k.pf_configure(
            fd,
            PortConfig {
                read_mode: ReadMode::Batch,
                max_queue: 64,
                backpressure_mark: Some(48),
                ..Default::default()
            },
        );
        k.pf_read(fd);
    }

    fn on_packets(&mut self, fd: Fd, packets: Vec<RecvPacket>, k: &mut ProcCtx<'_>) {
        k.compute(
            "user:consume",
            SimDuration::from_micros(200).times(packets.len() as u64),
        );
        k.pf_read(fd);
    }
}

/// Owns socket 99's port under a trickle quota and never reads it.
struct JunkSink;

impl App for JunkSink {
    fn start(&mut self, k: &mut ProcCtx<'_>) {
        let fd = k.pf_open();
        k.pf_set_filter(fd, samples::pup_socket_filter(10, 0, 99));
        k.pf_configure(
            fd,
            PortConfig {
                max_queue: 64,
                backpressure_mark: Some(48),
                ..Default::default()
            },
        );
        k.pf_set_quota(
            fd,
            Some(AdmissionQuota {
                rate_pps: 50,
                burst: 32,
            }),
        );
    }
}

/// `(packets_delivered, drops_admission, drops_queue_full,
/// rx_mode_switches, poll_batches, end time in ns)` of one fully armored
/// host under the benchmark's `overload_flood` in miniature: per 250 ms
/// slice, a protected stream (272 pps) is scheduled whole and *then* a
/// junk stream (8,500 pps) over the same interval, each periodic with its
/// arrivals jittered inside their own period, and the world runs to the
/// slice's end before the next slice is offered. So the event queue is
/// handed two interleaved sorted streams a slice, on top of whatever poll
/// ticks and reads the last slice left pending.
fn sliced_flood() -> (u64, u64, u64, u64, u64, u64) {
    const SLICE_NS: u64 = 250_000_000;
    const START_NS: u64 = 1_000_000;
    let mut w = World::new(7);
    let seg = w.add_segment(Medium::experimental_3mb(), FaultModel::default());
    let h = w.add_host("flooded", seg, 0x0B, CostModel::microvax_ii());
    w.set_nic_capacity(h, 256);
    w.set_demux_engine(h, DemuxEngine::DecisionTable);
    w.set_overload_armor(
        h,
        Some(OverloadConfig {
            hi_watermark: 16,
            lo_watermark: 4,
            poll_batch: 16,
            poll_interval: SimDuration::from_millis(8),
        }),
    );
    w.set_admission_control(h, Some(AdmissionConfig::default()));
    w.spawn(h, Box::new(Consumer));
    w.spawn(h, Box::new(JunkSink));

    let mut rng = SplitMix64::new(0xF100D);
    for slice in 0..6u64 {
        let start = START_NS + slice * SLICE_NS;
        for (per_slice, sock) in [(68, 35), (2_125, 99)] {
            let frame = samples::pup_packet_3mb(2, 0, sock, 1);
            let period = SLICE_NS / per_slice;
            for k in 0..per_slice {
                let at = start + k * period + rng.below(period);
                w.inject_frame(h, frame.clone(), SimTime(at));
            }
        }
        w.run_until(SimTime(start + SLICE_NS));
    }
    let end = w.run();
    let c = w.counters(h);
    (
        c.packets_delivered,
        c.drops_admission,
        c.drops_queue_full,
        c.rx_mode_switches,
        c.poll_batches,
        end.as_nanos(),
    )
}

/// Literals recorded where the event queue was one binary heap: how the
/// queue stores these events may change, the order they fire in may not.
#[test]
fn a_sliced_flood_fires_in_the_order_one_heap_gave_it() {
    assert_eq!(sliced_flood(), (472, 12_644, 42, 306, 154, 1_508_746_875));
}

/// Sets timer A; when A fires sets B; when B fires reports.
#[derive(Default)]
struct StaleTimer {
    a: Option<TimerId>,
    fired: Vec<u64>,
    cancel_of_fired_a: Option<bool>,
}

impl App for StaleTimer {
    fn start(&mut self, k: &mut ProcCtx<'_>) {
        self.a = Some(k.set_timer(SimDuration::from_micros(10), 1));
    }

    fn on_timer(&mut self, token: u64, k: &mut ProcCtx<'_>) {
        self.fired.push(token);
        if token == 1 {
            // A has fired, so B takes the storage A's event had.
            k.set_timer(SimDuration::from_micros(10), 2);
            self.cancel_of_fired_a = Some(k.cancel_timer(self.a.expect("set at start")));
        }
    }
}

#[test]
fn a_fired_timers_handle_cancels_nothing() {
    let mut w = World::new(1);
    let seg = w.add_segment(Medium::experimental_3mb(), FaultModel::default());
    let h = w.add_host("timers", seg, 0x0A, CostModel::microvax_ii());
    let p = w.spawn(h, Box::new(StaleTimer::default()));
    w.run();
    let app = w.app_ref::<StaleTimer>(h, p).expect("the app");
    assert_eq!(app.cancel_of_fired_a, Some(false), "A already fired");
    assert_eq!(app.fired, [1, 2], "and B, in A's old slot, still fires");
}

/// `(heap allocations, allocations of at least a segment)` per BSP data Pup
/// between `SenderMachine::offer` and `BspReceiverApp`, on a lossless
/// two-host wire in table 6-6's configuration, in the steady state (the
/// difference between a long transfer and a short one, so connection
/// set-up, the payload and the buffers that only grow cancel).
fn heap_per_data_pup() -> (f64, f64) {
    let cfg = BspConfig {
        window: 2,
        checksummed: true,
        batch: false,
        ..Default::default()
    };
    let segment = cfg.segment;
    let transfer = |pups: usize| {
        let mut w = World::new(5);
        let seg = w.add_segment(Medium::experimental_3mb(), FaultModel::default());
        let hosts: [HostId; 2] = [0x0A, 0x0B]
            .map(|addr| w.add_host(format!("h{addr}"), seg, addr, CostModel::microvax_ii()));
        let (src, dst) = (PupAddr::new(1, 0x0A, 0x300), PupAddr::new(1, 0x0B, 0x400));
        let rx = w.spawn(hosts[1], Box::new(BspReceiverApp::new(dst, cfg.clone())));
        let payload = vec![0x5A; pups * segment];
        w.spawn(
            hosts[0],
            Box::new(BspSenderApp::new(src, dst, payload, cfg.clone())),
        );
        let counted = count_during(segment, || {
            w.run();
        });
        let r = w.app_ref::<BspReceiverApp>(hosts[1], rx).expect("the app");
        assert_eq!(r.bytes, (pups * segment) as u64, "lossless");
        assert_eq!(r.stats().delivered_packets, pups as u64);
        counted
    };
    let (short, long) = (64, 576);
    let (a, b) = (transfer(short), transfer(long));
    let per = |x: u64, y: u64| (y - x) as f64 / (long - short) as f64;
    (per(a.0, b.0), per(a.1, b.1))
}

/// Measured where `pf_write` still copied: 15.5 allocations per data Pup,
/// 8.0 of them payload-sized — the segment collected out of the send
/// buffer, its clone into the Pup, the encoded body, the built frame,
/// `pf_write`'s copy of that frame, the decoded Pup's data, the receiver
/// machine's `Deliver`, and `Endpoint::apply`'s copy of that into its
/// feedback. Now: 13.0 and 6.0. `pf_write_owned` takes the frame it is
/// handed and the feedback carries a count. `pump`'s collect was one
/// allocation then and is one now: what changed there is a byte-at-a-time
/// drain becoming two `memcpy`s, which an allocator cannot see and
/// `bsp.rs`'s own tests pin byte for byte. Later PRs took the total to
/// 10.0 without touching the payload; then the encoded body and the built
/// frame became one buffer (`Pup::encode_frame` writes the body into the
/// frame): 8.5 and 5.0. Then the sender kept its in-flight segments as
/// spans over its send buffer instead of copies, and the receiver moved
/// the decoded Pup's data into `Deliver` instead of cloning it: 6.5 and
/// 3.0 — the segment cut for the Pup, the frame it is encoded into, and
/// the decoded Pup's data.
#[test]
fn a_data_pup_costs_the_heap_two_copies_fewer() {
    let (allocations, payload_sized) = heap_per_data_pup();
    assert!(
        allocations <= 6.5,
        "{allocations:.2} allocations per data Pup (was 8.5, and 15.5 at first)"
    );
    assert!(
        payload_sized <= 3.0,
        "{payload_sized:.2} payload-sized allocations per data Pup (was 5.0, and 8.0 at first)"
    );
}

/// A BSP sender handed an `n`-byte payload makes no allocation of `n` bytes
/// or more while the world runs: the payload becomes the send buffer, and
/// what is in flight is spans over it, not a second copy.
#[test]
fn a_bsp_sender_never_copies_its_payload() {
    let n = 256 * 1024;
    let cfg = BspConfig::default();
    let mut w = World::new(5);
    let seg = w.add_segment(Medium::experimental_3mb(), FaultModel::default());
    let hosts: [HostId; 2] = [0x0A, 0x0B]
        .map(|addr| w.add_host(format!("h{addr}"), seg, addr, CostModel::microvax_ii()));
    let (src, dst) = (PupAddr::new(1, 0x0A, 0x300), PupAddr::new(1, 0x0B, 0x400));
    let rx = w.spawn(hosts[1], Box::new(BspReceiverApp::new(dst, cfg.clone())));
    let payload: Vec<u8> = (0..n).map(|i| (i % 251) as u8).collect();
    w.spawn(
        hosts[0],
        Box::new(BspSenderApp::new(src, dst, payload, cfg)),
    );
    let (_, payload_sized) = count_during(n, || {
        w.run();
    });
    let r = w.app_ref::<BspReceiverApp>(hosts[1], rx).expect("the app");
    assert_eq!(r.bytes, n as u64, "lossless");
    assert_eq!(
        payload_sized, 0,
        "allocations of the payload's size or more"
    );
}
