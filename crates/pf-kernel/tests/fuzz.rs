// Structured fuzzing for the pre-demux admission gate: arbitrary
// filter sets, gate configurations, reconfiguration churn, and packet
// soup must never panic, and the gate's verdicts must stay conservation-
// accurate (every shed charged to exactly one port counter) and
// bit-reproducible from the seed. Beside it, the device-level churn
// differential of the facade's tests/device_churn.rs at fuzz length, and
// the port-queue and adaptive-reordering contracts on seeded inputs. All
// randomness comes from the in-tree `pf_sim::rng::SplitMix64`, so a
// failure reproduces from the constant seed. Each target runs 1,000
// seeded iterations under the debug profile and 10,000 under
// `cargo test --release`.

#[path = "../../../tests/support/device_churn.rs"]
mod device_churn;

use pf_filter::samples;
use pf_kernel::device::{AdmissionConfig, AdmissionQuota, AdmissionVerdict, DemuxEngine, PfDevice};
use pf_kernel::types::{Fd, ProcId, RecvPacket};
use pf_sim::rng::SplitMix64;
use pf_sim::time::SimTime;

const ITERS: u32 = if cfg!(debug_assertions) {
    1_000
} else {
    10_000
};

/// A random filter drawn from every admission-signature class the gate
/// distinguishes: leading-equality, range, ethertype, signatureless
/// accept-all, and reject-all.
fn fuzz_filter(rng: &mut SplitMix64) -> pf_filter::program::FilterProgram {
    let prio = rng.next_u64() as u8;
    match rng.below(5) {
        0 => samples::pup_socket_filter(prio, rng.next_u64() as u16, rng.next_u64() as u16),
        1 => {
            let a = rng.next_u64() as u16;
            let b = rng.next_u64() as u16;
            samples::socket_range_filter(prio, a.min(b), a.max(b))
        }
        2 => samples::ethertype_filter(prio, rng.next_u64() as u16),
        3 => samples::accept_all(prio),
        _ => samples::reject_all(prio),
    }
}

/// Packet soup biased toward PUP shapes (so gate signatures actually
/// cover a good fraction) with raw byte noise mixed in.
fn fuzz_packet(rng: &mut SplitMix64) -> Vec<u8> {
    if rng.chance(0.6) {
        samples::pup_packet_3mb(
            rng.next_u64() as u16,
            rng.next_u64() as u16,
            rng.next_u64() as u16,
            rng.next_u64() as u8,
        )
    } else {
        (0..rng.below(64)).map(|_| rng.next_u64() as u8).collect()
    }
}

fn fuzz_config(rng: &mut SplitMix64) -> AdmissionConfig {
    AdmissionConfig {
        mimicry_threshold: rng.chance(0.4).then(|| 1 + rng.below(16) as u32),
        refill_jitter_key: rng.chance(0.4).then(|| rng.next_u64()),
    }
}

/// A per-port quota: a tight one, a generous one, or none (the gate's
/// default). Whether a port is protected comes from its filter's random
/// priority.
fn fuzz_quota(rng: &mut SplitMix64) -> Option<AdmissionQuota> {
    match rng.below(3) {
        0 => Some(AdmissionQuota {
            rate_pps: 1 + rng.below(100),
            burst: 1 + rng.below(8),
        }),
        1 => Some(AdmissionQuota {
            rate_pps: 1 + rng.below(10_000),
            burst: 1 + rng.below(128),
        }),
        _ => None,
    }
}

/// One fuzzed episode: a device with a random port set and gate
/// config, a stream of packets through `admit`/`note_unmatched_admit`,
/// and occasional mid-stream reconfiguration. Returns a digest of every
/// verdict for the determinism cross-check.
fn gate_episode(seed: u64, iters: u32) -> Vec<u64> {
    let mut rng = SplitMix64::new(seed);
    let mut d = PfDevice::new();
    let mut ports = Vec::new();
    for i in 0..(2 + rng.below(6)) {
        let idx = d.open((ProcId(i as usize), Fd(0)));
        if rng.chance(0.85) {
            d.set_filter(idx, fuzz_filter(&mut rng));
        }
        ports.push(idx);
    }
    d.set_admission_control(Some(fuzz_config(&mut rng)));
    for &p in &ports {
        d.set_port_quota(p, fuzz_quota(&mut rng));
    }

    let mut digest = Vec::new();
    let mut now = SimTime(0);
    let mut admitted = 0u64;
    let mut shed = 0u64;
    let mut mimic_shed = 0u64;
    for i in 0..iters {
        now = SimTime(now.0 + rng.below(2_000_000));
        let pkt = fuzz_packet(&mut rng);
        let drops_before: Vec<u64> = ports.iter().map(|&p| d.port(p).admission_drops).collect();
        match d.admit(&pkt, now) {
            AdmissionVerdict::Admit => {
                admitted += 1;
                digest.push(u64::MAX);
                // The demux feedback loop: some admitted frames match
                // no filter, which is the mimicry-pressure signal.
                if rng.chance(0.3) {
                    d.note_unmatched_admit(&pkt);
                }
            }
            AdmissionVerdict::Shed { port } => {
                shed += 1;
                digest.push(port as u64);
                let after: Vec<u64> = ports.iter().map(|&p| d.port(p).admission_drops).collect();
                for (j, &p) in ports.iter().enumerate() {
                    let expect = drops_before[j] + u64::from(p == port);
                    assert_eq!(
                        after[j], expect,
                        "a shed charges exactly its own port's counter"
                    );
                }
            }
            AdmissionVerdict::ShedMimic { port } => {
                mimic_shed += 1;
                digest.push(port as u64 | (1 << 32));
                assert!(
                    d.admission_control()
                        .expect("gate is on")
                        .mimicry_threshold
                        .is_some(),
                    "mimic sheds require the mimicry defense"
                );
            }
        }
        // Mid-stream churn: retune quotas, swap filters, toggle the
        // whole gate. The rebuilt gate must keep absorbing traffic.
        if i % 997 == 0 && rng.chance(0.5) {
            let p = ports[rng.below(ports.len() as u64) as usize];
            match rng.below(3) {
                0 => d.set_port_quota(p, fuzz_quota(&mut rng)),
                1 => {
                    d.set_filter(p, fuzz_filter(&mut rng));
                }
                _ => d.set_admission_control(Some(fuzz_config(&mut rng))),
            }
        }
    }
    assert_eq!(
        admitted + shed + mimic_shed,
        u64::from(iters),
        "every offered frame gets exactly one verdict"
    );
    let counter_sheds: u64 = ports.iter().map(|&p| d.port(p).admission_drops).sum();
    assert!(
        counter_sheds >= shed,
        "port counters never lose quota sheds (reconfigs only add)"
    );
    digest
}

/// The gate is total and conservation-accurate over arbitrary filter
/// sets, configs, packets, clocks, and live reconfiguration.
#[test]
fn admission_gate_totality_and_conservation() {
    for round in 0..4u64 {
        gate_episode(0x6A7E_0000 + round, ITERS / 4);
    }
}

/// With the gate off, every frame is admitted and no admission drop is
/// ever charged.
#[test]
fn disabled_gate_admits_everything() {
    let mut rng = SplitMix64::new(0x6A7E_0FF0);
    let mut d = PfDevice::new();
    let a = d.open((ProcId(1), Fd(0)));
    d.set_filter(a, samples::pup_socket_filter(10, 0, 35));
    let mut now = SimTime(0);
    for _ in 0..ITERS {
        now = SimTime(now.0 + rng.below(1_000));
        let pkt = fuzz_packet(&mut rng);
        assert_eq!(d.admit(&pkt, now), AdmissionVerdict::Admit);
        assert!(!d.note_unmatched_admit(&pkt));
    }
    assert_eq!(d.port(a).admission_drops, 0);
}

/// The verdict stream is a pure function of the seed: two identically
/// seeded episodes (including jittered refills and mimicry
/// re-selection) produce identical verdicts.
#[test]
fn admission_gate_is_deterministic() {
    for round in 0..3u64 {
        let seed = 0x6A7E_DE7E + round;
        assert_eq!(
            gate_episode(seed, ITERS / 2),
            gate_episode(seed, ITERS / 2),
            "seed {seed:#x} must replay bit-identically"
        );
    }
}

/// Incremental engine maintenance over an `ITERS`-step bind/rebind/close/
/// quarantine/budget history per compiled engine: after every step the
/// device answers like one built from scratch and like the checked
/// interpreter, and its quarantine count equals a recount.
#[test]
fn device_churn_matches_fresh_build_and_oracle() {
    for (n, engine) in [DemuxEngine::DecisionTable, DemuxEngine::Geom]
        .into_iter()
        .enumerate()
    {
        device_churn::run(engine, 0xC4_0000 + n as u64, ITERS);
    }
}

/// A port's queue never outgrows its bound under any arrival count, the
/// drop counter accounts exactly for the overflow, and the
/// `dropped_before` marks of what is queued never go backwards.
#[test]
fn queue_bound_and_drop_accounting() {
    let mut rng = SplitMix64::new(0x6A7E_9E0E);
    for _ in 0..ITERS / 10 {
        let max_queue = 1 + rng.below(19) as usize;
        let arrivals = rng.below(60) as usize;
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
        let port = dev.port(idx);
        assert_eq!(port.queue.len(), arrivals.min(max_queue));
        assert_eq!(port.queue.len() + port.drops as usize, arrivals);
        let marks: Vec<u64> = port.queue.iter().map(|p| p.dropped_before).collect();
        assert!(marks.windows(2).all(|w| w[0] <= w[1]));
    }
}

/// Adaptive reordering never changes *who* gets a packet when filters of
/// one priority accept disjoint packet sets (the §3.2 contract: the same
/// priority requires disjoint filters).
#[test]
fn adaptive_reordering_preserves_disjoint_semantics() {
    let mut rng = SplitMix64::new(0x6A7E_ADA9);
    let mut reordered = 0;
    for case in 0..ITERS / 50 {
        // One to seven distinct sockets: the head of a partial shuffle.
        let mut socks: Vec<u16> = (20..60).collect();
        let n = 1 + rng.below(7) as usize;
        for i in 0..n {
            let j = i + rng.below((socks.len() - i) as u64) as usize;
            socks.swap(i, j);
        }
        socks.truncate(n);
        let build = |adaptive: bool| {
            let mut dev = PfDevice::new();
            dev.set_adaptive_reorder(adaptive);
            for (i, &s) in socks.iter().enumerate() {
                let idx = dev.open((ProcId(i), Fd(0)));
                dev.set_filter(idx, samples::pup_socket_filter(10, 0, s));
            }
            dev
        };
        let (mut with, mut without) = (build(true), build(false));
        for frame in 0..rng.below(400) {
            // Three frames in four to the last-bound socket, so that the
            // adaptive device has a reason to reorder.
            let sock = if frame % 4 != 0 {
                socks[socks.len() - 1]
            } else {
                20 + rng.below(40) as u16
            };
            let pkt = samples::pup_packet_3mb(2, 0, sock, 1);
            assert_eq!(
                with.demux(&pkt).accepted,
                without.demux(&pkt).accepted,
                "case {case} frame {frame}: socket {sock}"
            );
        }
        reordered += u32::from(with.order() != without.order());
    }
    assert!(reordered > 0, "no case ever reordered");
}
