//! `overload_flood`: an open loop at eight times the unarmored receive
//! capacity of one fully armored MicroVAX-II host.
//!
//! The only workload where most frames leave the fast path (NIC ring →
//! polling backlog → admission shed) and where drops are the expected
//! outcome. `sim_delivered_frac` is the protected stream's goodput, so a
//! speed-up that sheds wanted frames shows.

use super::{host_layers, residual_frac, Cfg, Checks, Exact, Workload};
use crate::metrics::Table;
use crate::rng::Rng;
use crate::stats::Log2Hist;
use crate::sut::{Flood, Replayer, Wire, JUNK_FILTER, WANTED_FILTER};
use crate::trace::Tracer;

/// Sizes, frozen: changing one changes what every later number means.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    /// One-second slices of simulated time. Frames go in a slice at a time
    /// between `run_until` calls, so memory stays flat however long the
    /// flood lasts.
    pub slices: u64,
    /// Offered load as a multiple of `Flood::capacity_pps`.
    pub load: u64,
}

impl Sizes {
    fn of(smoke: bool) -> Self {
        Sizes {
            slices: if smoke { 1 } else { 40 },
            load: 8,
        }
    }
}

const SLICE_NS: u64 = 1_000_000_000;
/// The first frame arrives after the two processes have bound their ports.
const START_NS: u64 = 1_000_000;

/// Offered rates in packets per second: `(protected stream, flood)`. The
/// protected stream is a quarter of capacity, so the flood is always the
/// larger part.
pub fn rates(sizes: &Sizes) -> (u64, u64) {
    let capacity = Flood::capacity_pps();
    let wanted = (capacity / 4).max(1);
    (wanted, sizes.load * capacity - wanted)
}

/// Generates slice `index`'s arrivals from the seed alone: `(time in ns,
/// protected?)`. Each stream is periodic with every arrival jittered inside
/// its own period, so streams never reorder and never bunch across slices.
pub fn slice(sizes: &Sizes, seed: u64, index: u64) -> Vec<(u64, bool)> {
    let (wanted, junk) = rates(sizes);
    let mut rng = Rng::new(seed, 0xF100D + index);
    let start = START_NS + index * SLICE_NS;
    let mut arrivals = Vec::with_capacity((wanted + junk) as usize);
    for (pps, protected) in [(wanted, true), (junk, false)] {
        let period = SLICE_NS / pps;
        arrivals.extend((0..pps).map(|k| (start + k * period + rng.below(period), protected)));
    }
    arrivals
}

pub struct OverloadFlood {
    seed: u64,
    sizes: Sizes,
}

impl OverloadFlood {
    pub fn new(cfg: &Cfg) -> Self {
        OverloadFlood {
            seed: cfg.seed,
            sizes: Sizes::of(cfg.smoke),
        }
    }

    fn offered(&self) -> (u64, u64) {
        let (wanted, junk) = rates(&self.sizes);
        (wanted * self.sizes.slices, junk * self.sizes.slices)
    }
}

pub struct Sys {
    flood: Flood,
    /// Arrivals by slice, generated ahead so that the timed region is the
    /// system's work and not the generator's.
    arrivals: Vec<Vec<(u64, bool)>>,
}

impl Workload for OverloadFlood {
    type Sys = Sys;

    fn name(&self) -> &'static str {
        "overload_flood"
    }

    fn runs_once(&self) -> bool {
        true
    }

    fn setup(&self, tr: &mut Tracer) -> Sys {
        let arrivals = tr.scope("setup.inputs", |_| {
            (0..self.sizes.slices)
                .map(|i| slice(&self.sizes, self.seed, i))
                .collect()
        });
        let flood = tr.scope("setup.world", |_| Flood::build(self.seed));
        Sys { flood, arrivals }
    }

    fn run(&self, sys: &mut Sys, mut calls: Option<&mut Log2Hist>) -> u64 {
        let mut events = 0;
        for (index, arrivals) in sys.arrivals.iter().enumerate() {
            for &(at_ns, protected) in arrivals {
                sys.flood.offer(at_ns, protected);
            }
            events += sys.flood.run_until(
                START_NS + (index as u64 + 1) * SLICE_NS,
                calls.as_deref_mut(),
            );
        }
        events + sys.flood.drain(calls)
    }

    fn settle(&self, sys: &Sys, events: u64, checks: &mut Checks) -> Exact {
        let o = sys.flood.outcome();
        let host = o.counts.hosts[0];
        let (wanted, junk) = self.offered();
        // offered = delivered + Σ named drops + still on its way: after the
        // drain nothing is on its way, and `queued` frames sit in a port
        // queue, where they already count as delivered.
        checks.count(
            wanted + junk,
            (wanted + junk).abs_diff(host.received) + host.unaccounted(),
            || {
                format!(
                    "offered {} frames, accounted for otherwise: {host:?}",
                    wanted + junk
                )
            },
        );
        checks.expect(o.consumed + o.queued <= host.delivered, || {
            format!(
                "{} read + {} queued exceed {} delivered",
                o.consumed, o.queued, host.delivered
            )
        });
        Exact {
            frames: o.counts.frames(),
            events,
            delivered: o.consumed,
            expected: wanted,
            digest: o.counts.sim_end_ns,
            layer: Vec::new(),
            counts: o.counts,
        }
    }

    fn layers(
        &self,
        _sys: &mut Sys,
        exact: &Exact,
        rep_wall_s: f64,
        r: &Replayer,
        tr: &mut Tracer,
        t: &mut Table,
    ) {
        let c = &exact.counts;
        let (wanted, junk) = rates(&self.sizes);
        let frames = Flood::sample_frames((junk / wanted) as usize);
        let queue = tr.scope("layers.pf-sim.queue", |_| {
            r.queue_hold((wanted + junk) as usize, self.seed)
        });
        let charge = tr.scope("layers.pf-sim.charge", |_| r.charge_mix(&c.routines));
        let admit = tr.scope("layers.pf-kernel.admit", |_| {
            r.admit_frames(&frames, SLICE_NS / (wanted + junk))
        });
        let host = host_layers(r, tr, Wire::Mb3, &[WANTED_FILTER, JUNK_FILTER], &frames, t);
        t.set("pf-sim.queue_ns_per_op", queue);
        t.set("pf-sim.charge_ns_per_call", charge);
        t.set("pf-kernel.admit_ns_per_frame", admit);

        // The host runs the §7 decision table behind the admission gate:
        // every frame taken in is parsed and probed, the admitted ones are
        // demultiplexed.
        let h = c.hosts[0];
        let taken_in = h.received - h.drops_interface;
        t.set(
            "pf-kernel.world_residual_frac",
            residual_frac(
                &[
                    (queue, exact.events),
                    (charge, c.charges),
                    (host.parse_ns, taken_in),
                    (admit, taken_in),
                    (host.device.dtree_ns, taken_in - h.drops_admission),
                    (host.enqueue_ns, h.delivered + h.drops_queue_full),
                ],
                rep_wall_s,
            ),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slices_repeat_for_a_seed_differ_for_another_and_tile_time() {
        let sizes = Sizes::of(true);
        let a = slice(&sizes, 7, 0);
        assert_eq!(a, slice(&sizes, 7, 0));
        assert_ne!(a, slice(&sizes, 8, 0));
        assert_ne!(a, slice(&sizes, 7, 1));
        let (wanted, junk) = rates(&sizes);
        assert_eq!(a.len() as u64, wanted + junk);
        assert_eq!(a.iter().filter(|x| x.1).count() as u64, wanted);
        assert_eq!(wanted + junk, sizes.load * Flood::capacity_pps());
        for index in 0..2 {
            let (lo, hi) = (
                START_NS + index * SLICE_NS,
                START_NS + (index + 1) * SLICE_NS,
            );
            assert!(
                slice(&sizes, 7, index)
                    .iter()
                    .all(|&(t, _)| (lo..hi).contains(&t)),
                "slice {index} stays in its second"
            );
        }
    }
}
