//! Determinism under fault schedules: a hardened routed fabric driven
//! through a router kill and a link-flap train must replay bit-identically
//! across reruns at the same seed (harness in
//! `tests/support/fabric_chaos.rs`).

#[path = "../../../tests/support/fabric_chaos.rs"]
mod fabric_chaos;

/// Routers in the ring (and hosts beside them).
const RING: usize = 4;

#[test]
fn chaos_history_is_identical_across_reruns() {
    let first = fabric_chaos::run(RING, 0x00DE_7EC7);
    let again = fabric_chaos::run(RING, 0x00DE_7EC7);
    assert_eq!(first, again, "reruns at one seed must be bit-identical");

    // And the history is not vacuous: the chaos actually happened.
    let lost: u64 = first.router_stats.iter().map(|s| s.3).sum();
    let recovered: u64 = first.router_stats.iter().map(|s| s.4).sum();
    let reconverged: u64 = first.router_stats.iter().map(|s| s.6).sum();
    assert!(lost >= 2, "kill + flaps must cost adjacencies (got {lost})");
    assert!(recovered >= 2, "revivals must re-form adjacencies");
    assert!(reconverged >= 4, "every event wave triggers reconvergence");
    assert!(first.received.iter().sum::<u64>() > 0);
}

#[test]
fn different_seeds_still_converge_to_the_same_routed_outcome() {
    // The seed perturbs fault-model draws, not the schedule or the
    // workload: with loss-free links every seed delivers the same
    // packet counts even though event interleaving details may differ.
    let a = fabric_chaos::run(RING, 1);
    let b = fabric_chaos::run(RING, 2);
    assert_eq!(a.received, b.received);
    assert_eq!(a.router_frames, b.router_frames);
}
