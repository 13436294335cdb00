//! The multi-core data plane, held to two contracts no artifact shows on
//! its own: a frame is judged by the shard the NIC steered it to however
//! often it is stolen, and batching is a property of the cost model alone
//! — one `pf:dispatch` per group, every frame through `PfDevice::demux` —
//! pinned to literals recorded from the batch walks this replaced.

use packet_filter::filter::samples;
use packet_filter::kernel::mc::{McConfig, McPipeline, Placement, RssConfig};
use packet_filter::kernel::world::OverloadConfig;
use packet_filter::sim::counters::Counters;
use packet_filter::sim::time::{SimDuration, SimTime};
use packet_filter::{DemuxEngine, SimClock};

/// The packet word `pf_bench::mc` hashes: the low destination socket.
const HASH_WORD: u16 = 8;

fn pup(sock: u16) -> Vec<u8> {
    samples::pup_packet_3mb(2, 0, sock, 1)
}

#[test]
fn a_frame_stolen_twice_is_still_judged_by_its_own_shard() {
    for cores in [4usize, 8] {
        let mut cfg = McConfig::single_core(DemuxEngine::Geom);
        cfg.batch = 4;
        cfg.steal = true;
        cfg.nic_ring = 4096;
        cfg.rss = RssConfig::multi_queue(cores, vec![HASH_WORD]);
        let mut pl = McPipeline::new(cfg);
        // One pinned filter and a burst on its queue alone: every other
        // core is idle, steals from the owner, and is stolen from in turn.
        let h = pl.add_filter(samples::pup_socket_filter(10, 0, 35));
        assert!(matches!(pl.placement(h), Placement::Pinned { .. }));
        pl.schedule_arrivals((0..1_000).map(|_| (SimTime::ZERO, pup(35))));
        SimClock::run(&mut pl);
        let total = pl.report().total;
        assert!(total.queue_steals > 0, "{cores} cores: nothing was stolen");
        assert_eq!(total.packets_delivered, 1_000, "{cores} cores");
        assert_eq!(total.drops_no_match, 0, "{cores} cores");
    }
}

/// `pf_bench::mc::burst`: 100 µs spacing, every 20th frame junk on a
/// socket only the replicated wildcard wants.
fn burst(n: usize) -> Vec<(SimTime, Vec<u8>)> {
    (0..n)
        .map(|i| {
            let sock = if i % 20 == 19 {
                40_000 + (i as u16 % 977)
            } else {
                100 + (i as u16 % 128)
            };
            (SimTime(i as u64 * 100_000), pup(sock))
        })
        .collect()
}

/// What one `BENCH_mc.json` cell is computed from, as the last commit
/// with a batch walk in the device produced it. Counters not listed
/// were zero.
struct Cell {
    engine: DemuxEngine,
    cores: usize,
    batch: usize,
    delivered: u64,
    drops_interface: u64,
    filter_instructions: u64,
    poll_batches: u64,
    rx_mode_switches: u64,
    frames_steered: u64,
    cross_core_wakeups: u64,
    queue_steals: u64,
    groups: u64,
    finish_ns: u64,
    busy_ns: &'static [u64],
    p99_ns: u64,
}

const FRAMES: u64 = 2_400;

#[rustfmt::skip]
const CELLS: [Cell; 6] = [
    Cell { engine: DemuxEngine::Geom, cores: 1, batch: 1,
           delivered: 472, drops_interface: 1928, filter_instructions: 3160, poll_batches: 30,
           rx_mode_switches: 2, frames_steered: 0, cross_core_wakeups: 0, queue_steals: 0,
           groups: 472, finish_ns: 537_160_800, busy_ns: &[537_160_800], p99_ns: 307_662_800 },
    Cell { engine: DemuxEngine::Geom, cores: 1, batch: 32,
           delivered: 494, drops_interface: 1906, filter_instructions: 3308, poll_batches: 15,
           rx_mode_switches: 2, frames_steered: 0, cross_core_wakeups: 0, queue_steals: 0,
           groups: 17, finish_ns: 538_889_600, busy_ns: &[538_889_600], p99_ns: 308_873_600 },
    Cell { engine: DemuxEngine::Geom, cores: 4, batch: 32,
           delivered: 1926, drops_interface: 474, filter_instructions: 12_870, poll_batches: 59,
           rx_mode_switches: 12, frames_steered: 1733, cross_core_wakeups: 89, queue_steals: 0,
           groups: 72, finish_ns: 540_902_400,
           busy_ns: &[532_758_000, 521_946_000, 540_702_400, 525_772_800], p99_ns: 310_122_000 },
    Cell { engine: DemuxEngine::DecisionTable, cores: 1, batch: 1,
           delivered: 514, drops_interface: 1886, filter_instructions: 0, poll_batches: 32,
           rx_mode_switches: 2, frames_steered: 0, cross_core_wakeups: 0, queue_steals: 0,
           groups: 514, finish_ns: 498_740_800, busy_ns: &[498_740_800], p99_ns: 262_130_800 },
    Cell { engine: DemuxEngine::DecisionTable, cores: 1, batch: 32,
           delivered: 525, drops_interface: 1875, filter_instructions: 0, poll_batches: 16,
           rx_mode_switches: 2, frames_steered: 0, cross_core_wakeups: 0, queue_steals: 0,
           groups: 18, finish_ns: 484_305_200, busy_ns: &[484_305_200], p99_ns: 260_685_200 },
    Cell { engine: DemuxEngine::DecisionTable, cores: 4, batch: 32,
           delivered: 2060, drops_interface: 340, filter_instructions: 0, poll_batches: 65,
           rx_mode_switches: 18, frames_steered: 1733, cross_core_wakeups: 124, queue_steals: 3,
           groups: 81, finish_ns: 487_484_400,
           busy_ns: &[486_730_000, 477_640_800, 487_284_400, 481_680_000], p99_ns: 259_946_000 },
];

#[test]
fn batching_lives_in_the_cost_model_and_charges_what_the_batch_walks_did() {
    for cell in &CELLS {
        let ctx = format!("{:?} {}c/b{}", cell.engine, cell.cores, cell.batch);
        let mut cfg = McConfig::single_core(cell.engine);
        cfg.batch = cell.batch;
        cfg.rss = if cell.cores == 1 {
            RssConfig::single_queue()
        } else {
            RssConfig::multi_queue(cell.cores, vec![HASH_WORD])
        };
        cfg.steal = cell.cores > 1;
        cfg.armor = Some(OverloadConfig {
            hi_watermark: 16,
            lo_watermark: 4,
            poll_batch: cell.batch.max(16),
            poll_interval: SimDuration::from_millis(2),
        });
        let mut pl = McPipeline::new(cfg);
        for i in 0..128u16 {
            pl.add_filter(samples::pup_socket_filter(10, 0, 100 + i));
        }
        pl.add_filter(samples::accept_all(1));
        pl.schedule_arrivals(burst(FRAMES as usize));
        SimClock::run(&mut pl);
        let r = pl.report();

        let expect = Counters {
            packets_received: FRAMES,
            packets_delivered: cell.delivered,
            drops_interface: cell.drops_interface,
            filter_instructions: cell.filter_instructions,
            poll_batches: cell.poll_batches,
            rx_mode_switches: cell.rx_mode_switches,
            frames_steered: cell.frames_steered,
            cross_core_wakeups: cell.cross_core_wakeups,
            queue_steals: cell.queue_steals,
            batches_executed: cell.groups,
            ..Counters::new()
        };
        assert_eq!(r.total, expect, "{ctx}: total");
        assert_eq!(r.finish, SimTime(cell.finish_ns), "{ctx}: finish");
        let busy: Vec<u64> = r.busy.iter().map(|b| b.as_nanos()).collect();
        assert_eq!(busy, cell.busy_ns, "{ctx}: per-core busy");
        assert_eq!(r.latency_quantile(0.99).as_nanos(), cell.p99_ns, "{ctx}");

        // One dispatch launch per group, on the core that ran the group.
        for core in 0..cell.cores {
            assert_eq!(
                pl.pool().core(core).profiler().stats("pf:dispatch").calls,
                pl.counters(core).batches_executed,
                "{ctx}: core {core} dispatches"
            );
        }
    }
}
