//! Seeded churn differential for `PfDevice` under a compiled engine.
//!
//! The device updates its compiled set in place on bind, close and
//! quarantine, and falls back to a full rebuild only for rebinds that land
//! mid-class. This harness drives a device through a random history of
//! exactly those operations and, after every step, holds it to two
//! references that share none of that machinery: a device built from
//! scratch with the live ports, and a `CheckedInterpreter` walk in
//! `(priority, insertion)` order.
//!
//! Shared by the facade's `tests/device_churn.rs` (tier-1) and the
//! 10k-step lane in `crates/pf-kernel/tests/fuzz.rs` (`#[path]` include),
//! so it names the crates directly rather than through the facade.

use pf_filter::interp::CheckedInterpreter;
use pf_filter::packet::PacketView;
use pf_filter::program::{Assembler, FilterProgram};
use pf_filter::samples;
use pf_filter::word::BinaryOp;
use pf_kernel::device::{DemuxEngine, PfDevice};
use pf_kernel::types::{Fd, ProcId};
use pf_sim::rng::SplitMix64;

/// Live ports stay at or under this, so that a from-scratch reference
/// device per step stays cheap.
const MAX_LIVE: usize = 12;
/// Sockets the filters and the probes draw from: few, so that filters of
/// one priority overlap all the time.
const SOCKETS: u64 = 24;
const PRIORITIES: [u8; 5] = [5, 10, 10, 10, 20];
const BUDGETS: [Option<u32>; 5] = [None, Some(4), Some(7), Some(9), Some(64)];

/// What the harness knows about one port index, open or closed.
struct Shadow {
    /// `None` once closed, or while open and never bound.
    filter: Option<FilterProgram>,
    open: bool,
    deliver_to_lower: bool,
}

impl Shadow {
    fn priority(&self) -> Option<u8> {
        self.filter.as_ref().map(FilterProgram::priority)
    }
}

/// An exact, a range or a catch-all filter over the shared socket space.
fn valid_filter(rng: &mut SplitMix64, priority: u8) -> FilterProgram {
    let a = rng.below(SOCKETS) as u16;
    match rng.below(8) {
        0..=2 => samples::pup_socket_filter(priority, 0, a),
        3..=6 => {
            let b = rng.below(SOCKETS) as u16;
            samples::socket_range_filter(priority, a.min(b), a.max(b))
        }
        _ => samples::accept_all(priority),
    }
}

/// A program the validator rejects (a reserved encoding after a
/// short-circuit) but the checked interpreter accepts for every socket
/// except `sock`: the `CNAND` terminates true before the bad word.
fn invalid_filter(priority: u8, sock: u16) -> FilterProgram {
    let mut words = Assembler::new(priority)
        .pushword(samples::WORD_DSTSOCKET_LO)
        .pushlit_op(BinaryOp::Cnand, sock)
        .finish()
        .words()
        .to_vec();
    words.push(15 << 6);
    FilterProgram::from_words(priority, words)
}

fn probes() -> Vec<Vec<u8>> {
    let mut frames: Vec<Vec<u8>> = (0..SOCKETS + 2)
        .step_by(2)
        .map(|s| samples::pup_packet_3mb(samples::PUP_ETHERTYPE_3MB, 0, s as u16, 1))
        .collect();
    frames.push(samples::pup_packet_3mb(0x0800, 0, 3, 1));
    frames.push(frames[1][..9].to_vec());
    frames.push(Vec::new());
    frames
}

fn bind(dev: &mut PfDevice, shadow: &mut [Shadow], i: usize, f: FilterProgram) {
    dev.set_filter(i, f.clone());
    shadow[i].filter = Some(f);
}

/// Picks one element of `of`, if there is any.
fn pick(rng: &mut SplitMix64, of: &[usize]) -> Option<usize> {
    (!of.is_empty()).then(|| of[rng.below(of.len() as u64) as usize])
}

/// Drives a device under `engine` through `steps` seeded operations,
/// checking it against both references after every one.
///
/// # Panics
///
/// On the first disagreement, naming the engine, the step and the probe.
pub fn run(engine: DemuxEngine, seed: u64, steps: u32) {
    let mut rng = SplitMix64::new(seed);
    let mut dev = PfDevice::new();
    dev.set_engine(engine);
    let mut shadow: Vec<Shadow> = Vec::new();
    let mut budget: Option<u32> = None;
    let probes = probes();

    // A step that finds no port to act on is drawn again, not counted.
    let mut step = 0;
    while step < steps {
        let live: Vec<usize> = (0..shadow.len()).filter(|&i| shadow[i].open).collect();
        let closed: Vec<usize> = (0..shadow.len()).filter(|&i| !shadow[i].open).collect();
        // A live, bound port is last in its class when no later-opened live
        // port shares its priority.
        let last_in_class = |i: usize| {
            !live
                .iter()
                .any(|&j| j > i && shadow[j].priority() == shadow[i].priority())
        };
        let bound: Vec<usize> = live
            .iter()
            .copied()
            .filter(|&i| shadow[i].filter.is_some())
            .collect();
        let (lasts, mids): (Vec<usize>, Vec<usize>) =
            bound.iter().partition(|&&i| last_in_class(i));

        // Opens are twice as likely as closes, so the population climbs to
        // `MAX_LIVE` and is pushed back from there.
        let op = if live.len() >= MAX_LIVE {
            6
        } else {
            rng.below(10)
        };
        let what = match op {
            0 | 9 => {
                let i = dev.open((ProcId(0), Fd(shadow.len())));
                assert_eq!(i, shadow.len(), "ports are numbered in open order");
                shadow.push(Shadow {
                    filter: None,
                    open: true,
                    deliver_to_lower: false,
                });
                let prio = PRIORITIES[rng.below(5) as usize];
                let f = valid_filter(&mut rng, prio);
                bind(&mut dev, &mut shadow, i, f);
                "open+bind"
            }
            1 | 2 => {
                let Some(i) = pick(&mut rng, if op == 1 { &lasts } else { &mids }) else {
                    continue;
                };
                let prio = shadow[i].priority().expect("bound");
                let f = valid_filter(&mut rng, prio);
                bind(&mut dev, &mut shadow, i, f);
                "rebind, same priority"
            }
            3 => {
                let Some(i) = pick(&mut rng, &bound) else {
                    continue;
                };
                let old = shadow[i].priority();
                let prio = *PRIORITIES
                    .iter()
                    .cycle()
                    .skip(rng.below(5) as usize)
                    .find(|&&p| Some(p) != old)
                    .expect("more than one priority");
                let f = valid_filter(&mut rng, prio);
                bind(&mut dev, &mut shadow, i, f);
                "rebind, new priority"
            }
            4 => {
                let Some(i) = pick(&mut rng, &live) else {
                    continue;
                };
                let prio = PRIORITIES[rng.below(5) as usize];
                let f = invalid_filter(prio, rng.below(SOCKETS) as u16);
                bind(&mut dev, &mut shadow, i, f);
                "bind invalid"
            }
            5 => {
                // A closed index, or one the device never handed out.
                let i = pick(&mut rng, &closed).unwrap_or(shadow.len());
                let f = valid_filter(&mut rng, 20);
                dev.set_filter(i, f);
                "bind on a closed index"
            }
            6 => {
                let Some(i) = pick(&mut rng, &live) else {
                    continue;
                };
                dev.close(i);
                shadow[i].open = false;
                shadow[i].filter = None;
                "close"
            }
            7 => {
                budget = BUDGETS[rng.below(5) as usize];
                dev.set_instruction_budget(budget);
                "set_instruction_budget"
            }
            _ => {
                let Some(i) = pick(&mut rng, &live) else {
                    continue;
                };
                shadow[i].deliver_to_lower ^= true;
                dev.port_mut(i).config.deliver_to_lower = shadow[i].deliver_to_lower;
                "toggle deliver_to_lower"
            }
        };
        let ctx = format!("{engine:?} seed {seed} step {step} ({what})");
        step += 1;

        // Reference (i): a device built from scratch with the live ports.
        let live: Vec<usize> = (0..shadow.len()).filter(|&i| shadow[i].open).collect();
        let mut fresh = PfDevice::new();
        fresh.set_engine(engine);
        fresh.set_instruction_budget(budget);
        for &i in &live {
            let p = fresh.open((ProcId(0), Fd(i)));
            if let Some(f) = &shadow[i].filter {
                fresh.set_filter(p, f.clone());
            }
            fresh.port_mut(p).config.deliver_to_lower = shadow[i].deliver_to_lower;
        }
        // Reference (ii): the checked interpreter, in (priority, insertion)
        // order, under the same budget.
        let mut walk: Vec<usize> = live
            .iter()
            .copied()
            .filter(|&i| shadow[i].filter.is_some())
            .collect();
        walk.sort_by_key(|&i| (core::cmp::Reverse(shadow[i].priority()), i));
        let interp = CheckedInterpreter::default();
        let oracle = |frame: &[u8]| {
            let mut accepted = Vec::new();
            for &i in &walk {
                let f = shadow[i].filter.as_ref().expect("bound");
                let view = PacketView::new(frame);
                let hit = match budget {
                    Some(b) => interp.eval_budgeted(f, view, b).0,
                    None => interp.eval(f, view),
                };
                if hit {
                    accepted.push(i);
                    if !shadow[i].deliver_to_lower {
                        break;
                    }
                }
            }
            accepted
        };

        for (n, frame) in probes.iter().enumerate() {
            let out = dev.demux(frame);
            let rebuilt: Vec<usize> = fresh
                .demux(frame)
                .accepted
                .iter()
                .map(|&p| live[p])
                .collect();
            assert_eq!(out.accepted, rebuilt, "{ctx}, probe {n}: vs a fresh device");
            assert_eq!(
                out.accepted,
                oracle(frame),
                "{ctx}, probe {n}: vs the oracle"
            );
        }
        let order = dev.order();
        assert_eq!(order.len(), live.len(), "{ctx}: open ports");
        let recount = order
            .iter()
            .filter(|&&i| dev.port(i).quarantined.is_some())
            .count();
        assert_eq!(
            dev.engine_stats().quarantined_ports,
            recount,
            "{ctx}: quarantine count"
        );
    }
}
