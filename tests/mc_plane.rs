//! A host with N cores (`World::set_rss`), held to three contracts: every
//! frame is delivered or dropped once, under one named counter, however
//! many cores share the receive path; a frame demultiplexed on one core
//! for a reader on another pays one cross-core wakeup there and is copied
//! out on the reader's core; and six `campaign mc` cells charge what they
//! were recorded charging.

use packet_filter::filter::program::FilterProgram;
use packet_filter::filter::samples;
use packet_filter::kernel::app::App;
use packet_filter::kernel::types::{Fd, HostId, PortConfig, ReadMode, RecvPacket};
use packet_filter::kernel::world::{OverloadConfig, ProcCtx, World};
use packet_filter::kernel::{DemuxEngine, RssConfig};
use packet_filter::net::medium::Medium;
use packet_filter::net::segment::FaultModel;
use packet_filter::sim::cost::CostModel;
use packet_filter::sim::time::{SimDuration, SimTime};
use packet_filter::SimClock;

/// The packet word `pf_bench::mc` hashes: the low destination socket.
const HASH_WORD: u16 = 8;

fn pup(sock: u16) -> Vec<u8> {
    samples::pup_packet_3mb(2, 0, sock, 1)
}

/// Binds one filter and reads it in batches of up to `max_queue`,
/// working 200 µs on every packet (`pf_bench::adversary::AdvConsumer`); a
/// deaf reader binds and never reads.
struct Reader {
    filter: FilterProgram,
    max_queue: usize,
    deaf: bool,
    got: u64,
}

impl Reader {
    fn new(filter: FilterProgram, max_queue: usize) -> Box<Self> {
        Box::new(Reader {
            filter,
            max_queue,
            deaf: false,
            got: 0,
        })
    }
}

impl App for Reader {
    fn start(&mut self, k: &mut ProcCtx<'_>) {
        let fd = k.pf_open();
        k.pf_set_filter(fd, self.filter.clone());
        k.pf_configure(
            fd,
            PortConfig {
                read_mode: ReadMode::Batch,
                max_queue: self.max_queue,
                ..Default::default()
            },
        );
        if !self.deaf {
            k.pf_read(fd);
        }
    }

    fn on_packets(&mut self, fd: Fd, packets: Vec<RecvPacket>, k: &mut ProcCtx<'_>) {
        self.got += packets.len() as u64;
        k.compute(
            "user:consume",
            SimDuration::from_micros(200).times(packets.len() as u64),
        );
        k.pf_read(fd);
    }
}

/// A one-host world whose host has `cores` cores hashing [`HASH_WORD`].
fn host_with_cores(cores: usize) -> (World, HostId) {
    let mut w = World::new(1);
    let seg = w.add_segment(Medium::experimental_3mb(), FaultModel::default());
    let h = w.add_host("mc", seg, 0x0B, CostModel::microvax_ii());
    if cores > 1 {
        w.set_rss(h, RssConfig::multi_queue(cores, vec![HASH_WORD]));
    }
    (w, h)
}

#[test]
fn every_frame_is_delivered_or_dropped_once_at_four_and_eight_cores() {
    for cores in [4usize, 8] {
        let (mut w, h) = host_with_cores(cores);
        w.set_nic_capacity(h, 8);
        // 32 readers, and 8 owners that never read a queue of 4; no filter
        // overlaps another, so each frame has one acceptor at most.
        let readers: Vec<_> = (0..32)
            .map(|i| {
                w.spawn(
                    h,
                    Reader::new(samples::pup_socket_filter(10, 0, 100 + i), 64),
                )
            })
            .collect();
        for i in 0..8 {
            let mut deaf = Reader::new(samples::pup_socket_filter(10, 0, 200 + i), 4);
            deaf.deaf = true;
            w.spawn(h, deaf);
        }
        // Every tenth frame is for a deaf owner and every tenth wanted by
        // no one, 250 µs apart: faster than the cores can take them.
        let frames = 4_000u64;
        for i in 0..frames {
            let sock = match i % 10 {
                0 => 200 + (i / 10 % 8) as u16,
                1 => 9_000 + (i % 97) as u16,
                _ => 100 + (i % 32) as u16,
            };
            w.inject_frame(h, pup(sock), SimTime(1_000 + i * 250_000));
        }
        w.run();

        let c = *w.counters(h);
        assert_eq!(c.packets_received, frames, "{cores} cores");
        assert_eq!(
            c.packets_delivered + c.drops_interface + c.drops_queue_full + c.drops_no_match,
            frames,
            "{cores} cores: {c:?}"
        );
        assert!(
            c.drops_interface > 0 && c.drops_queue_full > 0 && c.drops_no_match > 0,
            "{cores} cores: every drop reason is exercised: {c:?}"
        );
        assert_eq!(c.drops_admission + c.drops_mimicry_shed, 0);
        // Delivered means queued on a port: read by a reader, or still
        // sitting in a deaf owner's queue.
        let read: u64 = readers
            .iter()
            .map(|&r| w.app_ref::<Reader>(h, r).expect("a reader").got)
            .sum();
        let device = w.device(h);
        let queued: usize = (0..device.open_ports())
            .map(|p| device.port(p).queue.len())
            .sum();
        assert_eq!(read + queued as u64, c.packets_delivered, "{cores} cores");
        assert!(c.frames_steered > 0 && c.cross_core_wakeups == 0);
    }
}

#[test]
fn a_frame_for_a_reader_on_another_core_costs_one_wakeup_and_is_copied_out_there() {
    let (mut w, h) = host_with_cores(2);
    // A socket range pins nothing on a socket-word hash: the reader runs
    // on core 0.
    w.spawn(
        h,
        Reader::new(samples::socket_range_filter(10, 100, 199), 64),
    );
    let rss = RssConfig::multi_queue(2, vec![HASH_WORD]);
    let on = |core| {
        (100..200)
            .find(|&s| rss.steer(&pup(s)) == core)
            .expect("a socket")
    };
    w.inject_frame(h, pup(on(1)), SimTime(1_000_000));
    w.run();

    let calls = |w: &World, core, routine| w.core_cpu(h, core).profiler().stats(routine).calls;
    assert_eq!(w.counters(h).cross_core_wakeups, 1);
    assert_eq!(
        (calls(&w, 1, "mc:wakeup"), calls(&w, 0, "mc:wakeup")),
        (1, 0)
    );
    // Received and demultiplexed on core 1, read on core 0.
    assert_eq!(
        (calls(&w, 1, "driver:rx"), calls(&w, 1, "pf:input")),
        (1, 1)
    );
    assert_eq!(
        (
            calls(&w, 0, "pf:read-copyout"),
            calls(&w, 1, "pf:read-copyout")
        ),
        (1, 0)
    );
    assert_eq!(
        (calls(&w, 0, "kern:wakeup"), calls(&w, 1, "kern:wakeup")),
        (1, 0)
    );

    // A frame steered to the reader's own core takes no wakeup.
    w.inject_frame(h, pup(on(0)), SimTime(100_000_000));
    w.run();
    assert_eq!(w.counters(h).cross_core_wakeups, 1);
    assert_eq!(calls(&w, 0, "pf:read-copyout"), 2);
}

/// `pf_bench::mc::burst`: 100 µs spacing, every 20th frame junk on a
/// socket only the wildcard wants, each stamped with its emission time.
fn burst(n: u64) -> impl Iterator<Item = (SimTime, Vec<u8>)> {
    (0..n).map(|i| {
        let sock = if i % 20 == 19 {
            40_000 + (i % 977) as u16
        } else {
            100 + (i % 128) as u16
        };
        let at = SimTime((i + 1) * 100_000);
        let frame = samples::pup_packet_3mb_with_data(2, 1, 0, sock, 1, &at.0.to_be_bytes());
        (at, frame)
    })
}

/// What one `BENCH_mc.json` cell is computed from, recorded from the
/// `World` run when N-core hosts replaced the separate multi-core
/// pipeline.
struct Cell {
    engine: DemuxEngine,
    cores: usize,
    poll_batch: usize,
    delivered: u64,
    drops_interface: u64,
    drops_queue_full: u64,
    poll_batches: u64,
    rx_mode_switches: u64,
    frames_steered: u64,
    cross_core_wakeups: u64,
    syscalls: u64,
    busy_ns: &'static [u64],
}

const FRAMES: u64 = 2_400;

#[rustfmt::skip]
const CELLS: [Cell; 6] = [
    Cell { engine: DemuxEngine::Geom, cores: 1, poll_batch: 1,
           delivered: 391, drops_interface: 2_009, drops_queue_full: 0, poll_batches: 371,
           rx_mode_switches: 2, frames_steered: 0, cross_core_wakeups: 0, syscalls: 849,
           busy_ns: &[1_003_950_800] },
    Cell { engine: DemuxEngine::Geom, cores: 1, poll_batch: 32,
           delivered: 2_368, drops_interface: 0, drops_queue_full: 32, poll_batches: 114,
           rx_mode_switches: 228, frames_steered: 0, cross_core_wakeups: 0, syscalls: 813,
           busy_ns: &[3_965_337_200] },
    Cell { engine: DemuxEngine::Geom, cores: 4, poll_batch: 32,
           delivered: 2_389, drops_interface: 0, drops_queue_full: 11, poll_batches: 395,
           rx_mode_switches: 790, frames_steered: 1_733, cross_core_wakeups: 91, syscalls: 984,
           busy_ns: &[1_283_855_600, 814_220_400, 1_148_354_800, 905_228_000] },
    Cell { engine: DemuxEngine::DecisionTable, cores: 1, poll_batch: 1,
           delivered: 391, drops_interface: 2_009, drops_queue_full: 0, poll_batches: 371,
           rx_mode_switches: 2, frames_steered: 0, cross_core_wakeups: 0, syscalls: 858,
           busy_ns: &[921_786_800] },
    Cell { engine: DemuxEngine::DecisionTable, cores: 1, poll_batch: 32,
           delivered: 2_370, drops_interface: 0, drops_queue_full: 30, poll_batches: 114,
           rx_mode_switches: 228, frames_steered: 0, cross_core_wakeups: 0, syscalls: 821,
           busy_ns: &[3_445_501_200] },
    Cell { engine: DemuxEngine::DecisionTable, cores: 4, poll_batch: 32,
           delivered: 2_390, drops_interface: 0, drops_queue_full: 10, poll_batches: 394,
           rx_mode_switches: 788, frames_steered: 1_733, cross_core_wakeups: 92, syscalls: 1006,
           busy_ns: &[1_137_243_600, 711_277_200, 998_175_600, 788_382_800] },
];

#[test]
fn six_campaign_cells_charge_what_they_were_recorded_charging() {
    let mut goodput = Vec::new();
    for cell in &CELLS {
        let ctx = format!("{:?} {}c/pb{}", cell.engine, cell.cores, cell.poll_batch);
        let (mut w, h) = host_with_cores(cell.cores);
        w.set_nic_capacity(h, 256);
        w.set_demux_engine(h, cell.engine);
        w.set_overload_armor(
            h,
            Some(OverloadConfig {
                hi_watermark: 16,
                lo_watermark: 4,
                poll_batch: cell.poll_batch,
                poll_interval: SimDuration::from_millis(2),
            }),
        );
        for i in 0..128u16 {
            w.spawn(
                h,
                Reader::new(samples::pup_socket_filter(10, 0, 100 + i), 64),
            );
        }
        w.spawn(h, Reader::new(samples::accept_all(1), 64));
        for (at, frame) in burst(FRAMES) {
            w.inject_frame(h, frame, at);
        }
        w.run();

        let c = w.counters(h);
        let got = (
            c.packets_delivered,
            c.drops_interface,
            c.drops_queue_full,
            c.poll_batches,
            c.rx_mode_switches,
            c.frames_steered,
            c.cross_core_wakeups,
            c.syscalls,
        );
        let want = (
            cell.delivered,
            cell.drops_interface,
            cell.drops_queue_full,
            cell.poll_batches,
            cell.rx_mode_switches,
            cell.frames_steered,
            cell.cross_core_wakeups,
            cell.syscalls,
        );
        assert_eq!(got, want, "{ctx}: counters");
        let cpus: Vec<_> = (0..cell.cores).map(|k| w.core_cpu(h, k)).collect();
        let busy: Vec<u64> = cpus.iter().map(|c| c.busy_time().as_nanos()).collect();
        assert_eq!(busy, cell.busy_ns, "{ctx}: per-core busy");

        // The relations the literals imply: the wildcard catches all junk,
        // so every frame is delivered or dropped at a full queue.
        assert_eq!(c.drops_no_match, 0, "{ctx}");
        assert_eq!(
            c.packets_delivered + c.drops_interface + c.drops_queue_full,
            FRAMES,
            "{ctx}: conservation"
        );
        let finish = cpus.iter().map(|c| c.free_at()).max().expect("a core");
        goodput.push(
            c.packets_delivered as f64 / finish.saturating_since(SimTime::ZERO).as_secs_f64(),
        );
    }
    // Cells 2 and 5 are 4 cores beside cells 1 and 4, one core each.
    for (one, four) in [(1, 2), (4, 5)] {
        assert!(
            goodput[four] >= 3.0 * goodput[one],
            "4 cores must deliver >= 3x one core: {goodput:?}"
        );
    }
}
