//! The device's incremental engine maintenance, held to references that do
//! not share it: a seeded churn differential per compiled engine (harness
//! in `support/device_churn.rs`), and complexity pins that count rebuilds,
//! tombstones and live heap bytes instead of reading a clock.

#[path = "support/counting_alloc.rs"]
mod counting_alloc;
#[path = "support/device_churn.rs"]
mod device_churn;

#[global_allocator]
static ALLOCATOR: counting_alloc::Counting = counting_alloc::Counting;

use packet_filter::filter::packet::PacketView;
use packet_filter::filter::samples;
use packet_filter::ir::GeomSet;
use packet_filter::kernel::types::{Fd, ProcId};
use packet_filter::{DemuxEngine, PfDevice};

const COMPILED: [DemuxEngine; 2] = [DemuxEngine::DecisionTable, DemuxEngine::Geom];

#[test]
fn churned_device_matches_a_fresh_build_and_the_oracle_dtree() {
    device_churn::run(DemuxEngine::DecisionTable, 0x5EED_0001, 2_000);
}

#[test]
fn churned_device_matches_a_fresh_build_and_the_oracle_geom() {
    device_churn::run(DemuxEngine::Geom, 0x5EED_0004, 2_000);
}

/// One disjoint 4-socket range or one exact socket per slot, all of one
/// priority: the shape of the benchmark's `demux_range_churn`.
fn slot_filter(slot: usize) -> packet_filter::filter::program::FilterProgram {
    let base = (slot * 8) as u16;
    if slot.is_multiple_of(4) {
        samples::pup_socket_filter(10, 0, base)
    } else {
        samples::socket_range_filter(10, base, base + 3)
    }
}

#[test]
fn fresh_binds_and_closes_never_rebuild_the_engine() {
    for engine in COMPILED {
        let mut dev = PfDevice::new();
        dev.set_engine(engine);
        let mut live: Vec<usize> = Vec::new();
        for slot in 0..512 {
            let p = dev.open((ProcId(0), Fd(slot)));
            assert!(dev.set_filter(p, slot_filter(slot)));
            live.push(p);
        }
        for churn in 0..64 {
            dev.close(live.remove((churn * 37) % live.len()));
            let p = dev.open((ProcId(0), Fd(512 + churn)));
            assert!(dev.set_filter(p, slot_filter(512 + churn)));
            live.push(p);
        }
        let built = dev.engine_stats().engine_rebuilds;
        assert!(
            built <= 1,
            "{engine:?}: {built} rebuilds, only set_engine may"
        );
        // The index still answers: the newest port takes its own socket.
        let newest = *live.last().expect("512 live ports");
        let frame = samples::pup_packet_3mb(samples::PUP_ETHERTYPE_3MB, 0, (575 * 8) as u16, 1);
        assert_eq!(dev.demux(&frame).accepted, vec![newest], "{engine:?}");

        // Rebinding a port that others of its class follow, or the newest
        // port of the class, is exact in place: the set orders ties by
        // port index, as the device does.
        assert!(dev.set_filter(live[0], slot_filter(600)));
        assert_eq!(
            dev.engine_stats().engine_rebuilds,
            built,
            "{engine:?}: mid-class rebind"
        );
        assert!(dev.set_filter(newest, slot_filter(601)));
        assert_eq!(dev.engine_stats().engine_rebuilds, built, "{engine:?}");
    }
}

#[test]
fn a_closed_port_costs_the_device_four_bytes() {
    const STANDING: usize = 512;
    const CYCLES: usize = 50_000;
    let mut dev = PfDevice::new();
    dev.set_engine(DemuxEngine::Geom);
    let mut live: Vec<usize> = Vec::with_capacity(STANDING);
    let mut opened = 0;
    // Runs `cycles` close/open/bind cycles (opens alone until the device
    // is full); returns the fewest live heap bytes seen after one.
    let mut churn = |cycles: usize| {
        let mut floor = i64::MAX;
        for _ in 0..cycles {
            if live.len() == STANDING {
                dev.close(live.swap_remove((opened * 37) % STANDING));
            }
            let p = dev.open((ProcId(0), Fd(opened)));
            assert!(dev.set_filter(p, slot_filter(opened)));
            live.push(p);
            opened += 1;
            floor = floor.min(counting_alloc::live_bytes());
        }
        floor
    };
    // Fill the device and churn it until every structure whose size
    // follows the standing population has reached it. The geom set's slab
    // and index breathe with its compactions — one every `STANDING`
    // removes or so — so the heap is read at its lowest over two such
    // periods, which is the same phase of that cycle wherever it is taken.
    churn(3 * STANDING);
    let before = churn(2 * STANDING);
    churn(CYCLES - 2 * STANDING);
    let after = churn(2 * STANDING);
    let per_cycle = (after - before) as f64 / CYCLES as f64;
    // The port table's index, and nothing else, grows with ports ever
    // opened (a whole `Port` is 264 bytes).
    assert!(per_cycle <= 8.0, "{per_cycle:.1} live bytes per cycle");

    assert_eq!(dev.open_ports(), STANDING);
    let gone = (0..opened)
        .find(|p| !live.contains(p))
        .expect("closed ports");
    assert!(!dev.port(gone).open && dev.port(gone).filter.is_none());
    assert!(dev.set_filter(gone, slot_filter(gone)), "a clean program");
    assert!(dev.port(gone).filter.is_none(), "bound to nothing");
    assert_eq!(dev.open_ports(), STANDING);
}

#[test]
fn geom_churn_never_holds_more_tombstones_than_members() {
    let mut set = GeomSet::new();
    let mut live: Vec<u32> = (0..512).collect();
    for &id in &live {
        set.insert(id, slot_filter(id as usize));
    }
    for churn in 0..4_096u32 {
        let gone = live.remove((churn as usize * 37) % live.len());
        assert!(set.remove(gone));
        assert!(set.tombstones() <= set.len(), "after remove {churn}");
        let id = 512 + churn;
        set.insert(id, slot_filter(id as usize));
        live.push(id);
        assert!(set.tombstones() <= set.len(), "after insert {churn}");
        assert_eq!(set.len(), 512);
    }
    let frame =
        samples::pup_packet_3mb(samples::PUP_ETHERTYPE_3MB, 0, ((512 + 4_095) * 8) as u16, 1);
    assert_eq!(
        set.first_match(PacketView::new(&frame)),
        Some(512 + 4_095),
        "the index still answers after 4,096 churns"
    );
}
