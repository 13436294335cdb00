//! Event order is a correctness property: the same seed must give the
//! same history. A 16-node hardened fabric (8 routers in a ring, a host
//! beside each) is run twice through a router kill and a link-flap train
//! (harness in `support/fabric_chaos.rs`), and everything observable — end
//! time, per-host received, per-router control-plane stats and frame
//! counts — must match exactly.

#[path = "support/fabric_chaos.rs"]
mod fabric_chaos;

#[test]
fn a_hardened_fabric_under_faults_replays_identically() {
    let first = fabric_chaos::run(8, 0x5EED_D373);
    let again = fabric_chaos::run(8, 0x5EED_D373);
    assert_eq!(first, again, "reruns at one seed must be bit-identical");

    // The comparison is not vacuous: the faults cost adjacencies, the
    // fabric reconverged, and traffic got through.
    let lost: u64 = first.router_stats.iter().map(|s| s.3).sum();
    let reconverged: u64 = first.router_stats.iter().map(|s| s.6).sum();
    assert!(lost >= 2, "kill + flaps must cost adjacencies (got {lost})");
    assert!(reconverged >= 4, "every event wave triggers reconvergence");
    assert!(first.received.iter().sum::<u64>() > 0);
}
