//! `demux_exact` and `demux_range_churn`: a bare packet-filter device under
//! the `Geom` engine. All of the timed region is pf-kernel's device plus
//! pf-ir; no other crate contributes.

use super::{host_layers, Cfg, Checks, Exact, Workload};
use crate::metrics::Table;
use crate::rng::Rng;
use crate::stats::Log2Hist;
use crate::sut::{self, Device, Engine, FilterSpec, Replayer, Wire, PUP_ETHERTYPE};
use crate::trace::Tracer;
use std::collections::HashSet;
use std::hint::black_box;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// 8 Ethernet types × 64 sockets, each bound exactly; reads only.
    Exact,
    /// Three quarters range filters, one quarter exact, and a port closed
    /// and another opened and bound every `churn_every` frames.
    RangeChurn,
}

/// Sizes, frozen: changing one changes what every later number means.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    pub ports: usize,
    /// Pre-built frames, cycled.
    pub frames: usize,
    /// Frames passed to `demux` per rep.
    pub rep_frames: usize,
    /// `RangeChurn`: frames between two churns.
    pub churn_every: usize,
    /// Frames of the simulated pass.
    pub sim_frames: usize,
}

impl Sizes {
    fn of(kind: Kind, smoke: bool) -> Self {
        match (kind, smoke) {
            (_, true) => Sizes {
                ports: 32,
                frames: 256,
                rep_frames: 2048,
                churn_every: if kind == Kind::RangeChurn { 512 } else { 0 },
                sim_frames: 300,
            },
            (Kind::Exact, false) => Sizes {
                ports: 512,
                frames: 4096,
                rep_frames: 1 << 18,
                churn_every: 0,
                sim_frames: 20_000,
            },
            // 16 churns a rep: about as much wall in binds as in lookups.
            (Kind::RangeChurn, false) => Sizes {
                ports: 512,
                frames: 4096,
                rep_frames: 16 * 8192,
                churn_every: 8192,
                sim_frames: 20_000,
            },
        }
    }
}

/// Every 64th frame is checked against the oracle.
const VERIFY_STRIDE: usize = 64;
/// Ethernet types of `demux_exact`'s filters.
const ETHERTYPES: u16 = 8;
/// `RangeChurn` gives each port a slot of this many sockets; filters of
/// different slots cannot overlap, so at most one accepts a frame.
const SLOT: u16 = 32;
const SLOT_BASE: u16 = 64;

/// Filters to bind, in order, and frames to cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Inputs {
    pub specs: Vec<FilterSpec>,
    pub frames: Vec<Vec<u8>>,
}

/// The filter of `slot`: exact for every fourth slot, else a range 4 to 16
/// sockets wide placed at random around the slot's probe sockets.
fn slot_filter(slot: usize, rng: &mut Rng) -> FilterSpec {
    let base = SLOT_BASE + slot as u16 * SLOT;
    if slot.is_multiple_of(4) {
        FilterSpec::Exact {
            ethertype: PUP_ETHERTYPE,
            socket: base + 15,
        }
    } else {
        // Always covers base+15..=base+18, so probes hit whatever is bound.
        let width = 4 + rng.below(13) as u16;
        let lo = base + 15 - rng.below(u64::from(width) - 3) as u16;
        FilterSpec::Range {
            lo,
            hi: lo + width - 1,
        }
    }
}

/// `items` in a seeded random order.
fn shuffled<T: Copy, const N: usize>(items: &[T; N], rng: &mut Rng) -> impl Iterator<Item = T> {
    let mut items = *items;
    for i in (1..N).rev() {
        items.swap(i, rng.below(i as u64 + 1) as usize);
    }
    items.into_iter()
}

/// Generates the inputs of one device workload from the seed alone.
pub fn inputs(kind: Kind, sizes: &Sizes, seed: u64) -> Inputs {
    let mut rng = Rng::new(seed, kind as u64 + 0xD0);
    let mut specs = Vec::with_capacity(sizes.ports);
    let mut frames = Vec::with_capacity(sizes.frames);
    match kind {
        Kind::Exact => {
            let per_type = sizes.ports.div_ceil(usize::from(ETHERTYPES));
            let mut bound = HashSet::new();
            while specs.len() < sizes.ports {
                let ethertype = PUP_ETHERTYPE + (specs.len() / per_type) as u16;
                let socket = 1 + rng.below(0xFFFE) as u16;
                if bound.insert((ethertype, socket)) {
                    specs.push(FilterSpec::Exact { ethertype, socket });
                }
            }
            // Of every eight frames six match exactly one filter and two
            // stray: a bound socket under a foreign type, or an unbound one.
            while frames.len() < sizes.frames {
                frames.extend(
                    shuffled(
                        &[true, true, true, true, true, true, false, false],
                        &mut rng,
                    )
                    .map(|hit| {
                        let FilterSpec::Exact { ethertype, socket } =
                            specs[rng.below(specs.len() as u64) as usize]
                        else {
                            unreachable!("only exact filters here")
                        };
                        match (hit, rng.below(2)) {
                            (true, _) => sut::pup_frame(ethertype, socket),
                            (false, 0) => sut::pup_frame(PUP_ETHERTYPE + ETHERTYPES + 1, socket),
                            (false, _) => loop {
                                let stray = 1 + rng.below(0xFFFE) as u16;
                                if !bound.contains(&(ethertype, stray)) {
                                    break sut::pup_frame(ethertype, stray);
                                }
                            },
                        }
                    }),
                );
            }
        }
        Kind::RangeChurn => {
            specs.extend((0..sizes.ports).map(|slot| slot_filter(slot, &mut rng)));
            let base = |slot: usize| SLOT_BASE + slot as u16 * SLOT;
            let (exact_slots, range_slots): (Vec<usize>, Vec<usize>) =
                (0..sizes.ports).partition(|s| s % 4 == 0);
            let pick = |slots: &[usize], rng: &mut Rng| {
                base(slots[rng.below(slots.len() as u64) as usize])
            };
            let beyond = base(sizes.ports);
            // Of every eight frames four probe a range, two hit an exact
            // filter and two stray: a bound socket under a foreign type, or
            // a socket beyond every slot.
            while frames.len() < sizes.frames {
                frames.extend(shuffled(&[0, 0, 0, 0, 1, 1, 2, 2], &mut rng).map(|kind| {
                    match (kind, rng.below(2)) {
                        (0, _) => sut::pup_frame(
                            PUP_ETHERTYPE,
                            pick(&range_slots, &mut rng) + 15 + rng.below(4) as u16,
                        ),
                        (1, _) => sut::pup_frame(PUP_ETHERTYPE, pick(&exact_slots, &mut rng) + 15),
                        (_, 0) => {
                            sut::pup_frame(PUP_ETHERTYPE + 1, pick(&range_slots, &mut rng) + 15)
                        }
                        (_, _) => sut::pup_frame(
                            PUP_ETHERTYPE,
                            beyond + rng.below(u64::from(0xFFFF - beyond)) as u16,
                        ),
                    }
                }));
            }
        }
    }
    frames.truncate(sizes.frames);
    Inputs { specs, frames }
}

pub struct Demux {
    kind: Kind,
    seed: u64,
    sizes: Sizes,
}

pub struct Sys {
    inputs: Inputs,
    dev: Device,
    /// Port and filter now bound in each slot (bind order at first).
    live: Vec<(usize, FilterSpec)>,
    /// Decides which slot churns next and what it binds.
    churn: Rng,
    /// Frames accepted in the last rep.
    accepted: u64,
    /// Oracle disagreements found so far.
    disagreements: u64,
}

impl Demux {
    pub fn exact(cfg: &Cfg) -> Self {
        Self::new(Kind::Exact, cfg)
    }

    pub fn range_churn(cfg: &Cfg) -> Self {
        Self::new(Kind::RangeChurn, cfg)
    }

    fn new(kind: Kind, cfg: &Cfg) -> Self {
        Demux {
            kind,
            seed: cfg.seed,
            sizes: Sizes::of(kind, cfg.smoke),
        }
    }

    /// Closes one seeded-random slot's port and binds a fresh filter of the
    /// slot's kind on a new port.
    fn churn(&self, sys: &mut Sys) {
        let slot = sys.churn.below(sys.live.len() as u64) as usize;
        let spec = slot_filter(slot, &mut sys.churn);
        sys.dev.close(sys.live[slot].0);
        sys.live[slot] = (sys.dev.bind(spec), spec);
    }

    /// Frames from `from` up to the next churn, or to `end`.
    fn block_end(&self, from: usize, end: usize) -> usize {
        match self.sizes.churn_every {
            0 => end,
            every => (from + every).min(end),
        }
    }
}

impl Workload for Demux {
    type Sys = Sys;

    fn name(&self) -> &'static str {
        match self.kind {
            Kind::Exact => "demux_exact",
            Kind::RangeChurn => "demux_range_churn",
        }
    }

    fn runs_once(&self) -> bool {
        false
    }

    fn setup(&self, tr: &mut Tracer) -> Sys {
        let inputs = tr.scope("setup.inputs", |_| {
            inputs(self.kind, &self.sizes, self.seed)
        });
        let dev = tr.scope("setup.bind", |_| {
            Device::with_filters(Engine::Geom, &inputs.specs)
        });
        let live = inputs.specs.iter().copied().enumerate().collect();
        Sys {
            inputs,
            dev,
            live,
            churn: Rng::new(self.seed, 0xC4),
            accepted: 0,
            disagreements: 0,
        }
    }

    fn run(&self, sys: &mut Sys, calls: Option<&mut Log2Hist>) -> u64 {
        let n = sys.inputs.frames.len();
        let end = self.sizes.rep_frames;
        let mut accepted = 0u64;
        let mut calls = calls;
        let mut i = 0;
        while i < end {
            let stop = self.block_end(i, end);
            match calls.as_deref_mut() {
                None => {
                    for k in i..stop {
                        accepted += u64::from(
                            black_box(sys.dev.demux(&sys.inputs.frames[k % n]))
                                .port
                                .is_some(),
                        );
                    }
                }
                Some(steps) => {
                    let mut last = Instant::now();
                    for k in i..stop {
                        accepted += u64::from(
                            black_box(sys.dev.demux(&sys.inputs.frames[k % n]))
                                .port
                                .is_some(),
                        );
                        let now = Instant::now();
                        steps.record((now - last).as_nanos() as u64);
                        last = now;
                    }
                }
            }
            i = stop;
            if self.sizes.churn_every > 0 {
                self.churn(sys);
            }
        }
        sys.accepted = accepted;
        0
    }

    fn settle(&self, sys: &Sys, events: u64, checks: &mut Checks) -> Exact {
        checks.expect_eq(
            sys.dev.open_ports() as u64,
            self.sizes.ports as u64,
            "open ports",
        );
        Exact {
            frames: self.sizes.rep_frames as u64,
            events,
            digest: sys.accepted,
            ..Default::default()
        }
    }

    fn finish(
        &self,
        sys: &mut Sys,
        exact: &mut Exact,
        checks: &mut Checks,
        tr: &mut Tracer,
    ) -> u64 {
        // One more rep, untimed, with every 64th frame checked against a
        // priority-order walk of the checked interpreter. The checked frame
        // shifts by one each cycle so that every frame gets its turn.
        let span = tr.begin("verify.oracle");
        let n = sys.inputs.frames.len();
        let (mut checked, mut bad) = (0u64, 0u64);
        let mut i = 0;
        while i < self.sizes.rep_frames {
            let stop = self.block_end(i, self.sizes.rep_frames);
            for k in i..stop {
                let frame = &sys.inputs.frames[k % n];
                let got = sys.dev.demux(frame).port;
                if (k + k / n).is_multiple_of(VERIFY_STRIDE) {
                    checked += 1;
                    bad += u64::from(got != sys.dev.oracle(frame).port);
                }
            }
            i = stop;
            if self.sizes.churn_every > 0 {
                self.churn(sys);
            }
        }
        checks.count(checked, bad, || {
            "demux disagrees with the checked interpreter".into()
        });
        sys.disagreements = bad;
        tr.end(span);

        // The simulated pass: the ports now bound, under the same engine, in
        // a one-host World. It must deliver to the same ports as the bare
        // device does.
        let span = tr.begin("verify.sim_pass");
        let specs: Vec<FilterSpec> = sys.live.iter().map(|&(_, s)| s).collect();
        let frames: Vec<&[u8]> = (0..self.sizes.sim_frames)
            .map(|k| sys.inputs.frames[k % n].as_slice())
            .collect();
        let before = sys.dev.accepts();
        for f in &frames {
            sys.dev.demux(f);
        }
        let after = sys.dev.accepts();
        let bare: Vec<u64> = sys
            .live
            .iter()
            .map(|&(port, _)| after[port] - before[port])
            .collect();
        let sim = sut::sim_pass(Engine::Geom, &specs, &frames, self.seed);
        let differing = bare
            .iter()
            .zip(&sim.accepts)
            .filter(|(a, b)| a != b)
            .count();
        checks.count(specs.len() as u64, differing as u64, || {
            "the World path and the bare device accept on different ports".into()
        });
        let host = sim.counts.hosts[0];
        checks.expect_eq(
            host.received,
            frames.len() as u64,
            "simulated pass: frames received",
        );
        checks.expect_eq(
            host.unaccounted(),
            0,
            "simulated pass: frames neither delivered nor dropped",
        );
        checks.expect_eq(sim.consumed, host.delivered, "simulated pass: frames read");
        exact.expected = bare.iter().sum();
        exact.delivered = host.delivered;
        // Only simulated time comes from this pass: the timed region has no
        // World, so its event, charge, transmit and drop counts stay 0.
        exact.counts.busy_ns = sim.busy_ns;
        exact.counts.prefix_ns = sim.counts.prefix_ns;
        tr.end(span);
        frames.len() as u64
    }

    fn layers(
        &self,
        sys: &mut Sys,
        _exact: &Exact,
        _rep_wall_s: f64,
        r: &Replayer,
        tr: &mut Tracer,
        t: &mut Table,
    ) {
        let specs: Vec<FilterSpec> = sys.live.iter().map(|&(_, s)| s).collect();
        host_layers(r, tr, Wire::Mb3, &specs, &sys.inputs.frames, t);
        t.set("pf-filter.oracle_disagreements", sys.disagreements as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_repeat_for_a_seed_and_differ_for_another() {
        for kind in [Kind::Exact, Kind::RangeChurn] {
            let sizes = Sizes::of(kind, true);
            let a = inputs(kind, &sizes, 7);
            assert_eq!(a, inputs(kind, &sizes, 7), "{kind:?}");
            let b = inputs(kind, &sizes, 8);
            assert_ne!(a.specs, b.specs, "{kind:?}");
            assert_ne!(a.frames, b.frames, "{kind:?}");
            assert_eq!((a.specs.len(), a.frames.len()), (sizes.ports, sizes.frames));
        }
    }

    #[test]
    fn three_frames_in_four_match_exactly_one_filter() {
        for kind in [Kind::Exact, Kind::RangeChurn] {
            let sizes = Sizes::of(kind, true);
            let inputs = inputs(kind, &sizes, 3);
            let dev = Device::with_filters(Engine::Sequential, &inputs.specs);
            let hits = inputs
                .frames
                .iter()
                .filter(|f| dev.oracle(f).port.is_some())
                .count();
            assert_eq!(hits * 4, inputs.frames.len() * 3, "{kind:?}");
        }
    }

    #[test]
    fn a_churned_slot_still_accepts_its_probes() {
        let mut rng = Rng::new(1, 2);
        for slot in 0..64 {
            let base = SLOT_BASE + slot as u16 * SLOT;
            match slot_filter(slot, &mut rng) {
                FilterSpec::Exact { socket, .. } => assert_eq!(socket, base + 15),
                FilterSpec::Range { lo, hi } => {
                    assert!(
                        base <= lo && lo <= base + 15 && base + 18 <= hi && hi < base + SLOT,
                        "{lo}..={hi} in slot {slot}"
                    );
                    assert!((4..=16).contains(&(hi - lo + 1)));
                }
                other => panic!("{other:?}"),
            }
        }
    }
}
