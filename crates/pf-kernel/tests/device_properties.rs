// Property suites need the external `proptest` crate; the default build is
// hermetic (offline), so this whole file is gated behind a feature. See the
// crate manifest for how to restore the dev-dependency.
#![cfg(feature = "proptest-tests")]

//! Property tests for the packet-filter device: the figure 4-1 demux loop
//! is equivalent to the §7 decision-table engine on arbitrary filter
//! populations, and queue bounds hold under arbitrary churn.

use pf_filter::dtree::FilterSet;
use pf_filter::program::FilterProgram;
use pf_filter::samples;
use pf_kernel::device::{DemuxEngine, PfDevice};
use pf_kernel::types::{Fd, ProcId, RecvPacket};
use proptest::prelude::*;

/// A population of socket/type/garbage filters.
fn filters() -> impl Strategy<Value = Vec<FilterProgram>> {
    prop::collection::vec(
        prop_oneof![
            (0u16..4, 20u16..40, 0u8..30)
                .prop_map(|(hi, lo, p)| samples::pup_socket_filter(p, hi, lo)),
            (0u16..6, 0u8..30).prop_map(|(et, p)| samples::ethertype_filter(p, et)),
            (0u8..30).prop_map(samples::accept_all),
            (0u8..30).prop_map(samples::reject_all),
            prop::collection::vec(any::<u16>(), 0..12)
                .prop_map(|w| FilterProgram::from_words(7, w)),
        ],
        0..10,
    )
}

proptest! {
    /// The device's first-match demultiplexing agrees with the decision
    /// table (modulo adaptive reordering, which is only allowed to permute
    /// *equal-priority* filters; we disable it to pin insertion order).
    #[test]
    fn demux_agrees_with_decision_table(
        fs in filters(),
        pkt_et in 0u16..6,
        pkt_sock in 18u16..42,
        pkt_type in 0u8..120,
    ) {
        let mut dev = PfDevice::new();
        dev.set_adaptive_reorder(false);
        let mut set = FilterSet::new();
        for (i, f) in fs.iter().enumerate() {
            let idx = dev.open((ProcId(i), Fd(0)));
            dev.set_filter(idx, f.clone());
            set.insert(i as u32, f.clone());
        }
        let pkt = samples::pup_packet_3mb(pkt_et, 0, pkt_sock, pkt_type);
        let outcome = dev.demux(&pkt);
        let expected = set.first_match(pf_filter::packet::PacketView::new(&pkt));
        prop_assert_eq!(
            outcome.accepted.first().map(|&i| i as u32),
            expected,
            "device vs decision table"
        );
        // Without deliver-to-lower, at most one port accepts.
        prop_assert!(outcome.accepted.len() <= 1);
    }

    /// Queue bounds hold under arbitrary enqueue sequences, and the drop
    /// count accounts exactly for the overflow.
    #[test]
    fn queue_bound_and_drop_accounting(
        max_queue in 1usize..20,
        arrivals in 0usize..60,
    ) {
        let mut dev = PfDevice::new();
        let idx = dev.open((ProcId(0), Fd(0)));
        dev.set_filter(idx, samples::accept_all(10));
        dev.port_mut(idx).config.max_queue = max_queue;
        for i in 0..arrivals {
            let pkt = RecvPacket {
                bytes: vec![i as u8],
                stamp: None,
                dropped_before: dev.port(idx).drops,
            };
            let _ = dev.port_mut(idx).enqueue(pkt);
        }
        let q = dev.port(idx).queue.len();
        let d = dev.port(idx).drops as usize;
        prop_assert!(q <= max_queue);
        prop_assert_eq!(q + d, arrivals);
        // The dropped_before marks are monotone.
        let marks: Vec<u64> = dev.port(idx).queue.iter().map(|p| p.dropped_before).collect();
        prop_assert!(marks.windows(2).all(|w| w[0] <= w[1]));
    }

    /// Adaptive reordering never changes *what* is accepted when all
    /// filters accept disjoint packet sets (the §3.2 contract: same
    /// priority requires disjoint filters).
    #[test]
    fn adaptive_reordering_preserves_disjoint_semantics(
        socks in prop::collection::hash_set(20u16..60, 1..8),
        traffic in prop::collection::vec(20u16..60, 0..400),
    ) {
        let socks: Vec<u16> = socks.into_iter().collect();
        let build = |adaptive: bool| {
            let mut dev = PfDevice::new();
            dev.set_adaptive_reorder(adaptive);
            for (i, &s) in socks.iter().enumerate() {
                let idx = dev.open((ProcId(i), Fd(0)));
                dev.set_filter(idx, samples::pup_socket_filter(10, 0, s));
            }
            dev
        };
        let mut with = build(true);
        let mut without = build(false);
        for &s in &traffic {
            let pkt = samples::pup_packet_3mb(2, 0, s, 1);
            let a = with.demux(&pkt).accepted.clone();
            let b = without.demux(&pkt).accepted.clone();
            prop_assert_eq!(a, b, "same destination regardless of ordering");
        }
    }
}

proptest! {
    /// The §7 decision-table engine and the figure 4-1 sequential loop
    /// deliver to exactly the same ports, including under the §3.2
    /// deliver-to-lower option, on arbitrary filter populations.
    #[test]
    fn table_engine_equivalent_to_sequential(
        fs in filters(),
        copy_all in prop::collection::vec(any::<bool>(), 10),
        traffic in prop::collection::vec((0u16..6, 18u16..42, 0u8..120), 0..60),
    ) {
        let build = |engine: DemuxEngine| {
            let mut dev = PfDevice::new();
            dev.set_adaptive_reorder(false);
            dev.set_engine(engine);
            for (i, f) in fs.iter().enumerate() {
                let idx = dev.open((ProcId(i), Fd(0)));
                dev.set_filter(idx, f.clone());
                dev.port_mut(idx).config.deliver_to_lower = copy_all[i % copy_all.len()];
            }
            dev
        };
        let mut seq = build(DemuxEngine::Sequential);
        let mut tab = build(DemuxEngine::DecisionTable);
        let mut geom = build(DemuxEngine::Geom);
        for (et, sock, ptype) in traffic {
            let pkt = samples::pup_packet_3mb(et, 0, sock, ptype);
            let expect = seq.demux(&pkt).accepted.clone();
            prop_assert_eq!(
                &tab.demux(&pkt).accepted,
                &expect,
                "table: et={} sock={} type={}", et, sock, ptype
            );
            prop_assert_eq!(
                &geom.demux(&pkt).accepted,
                &expect,
                "geom: et={} sock={} type={}", et, sock, ptype
            );
        }
    }
}
