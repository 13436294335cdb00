//! `routed_fabric`: an open loop in simulated time, every send
//! pre-scheduled, over a ring of routers with a small host LAN each.
//!
//! The event queue with every send pending, `Network::transmit` with its
//! fan-out and copies over about 17 hops a packet, and `IpRouter::forward`
//! do most of the work. Each host runs one one-filter sink, so the engines
//! and the protocols do almost nothing.

use super::{host_layers, residual_frac, Cfg, Checks, Exact, Workload};
use crate::metrics::Table;
use crate::stats::Log2Hist;
use crate::sut::{self, Fabric, FabricParams, FlowPacket, Replayer, Wire, SINK_FILTER};
use crate::trace::Tracer;

/// Sizes, frozen: changing one changes what every later number means.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    pub routers: usize,
    pub hosts_per_lan: usize,
    pub flows: usize,
    /// Packets whose paths the layer replays walk.
    pub replay_packets: usize,
}

impl Sizes {
    fn of(smoke: bool) -> Self {
        if smoke {
            Sizes {
                routers: 4,
                hosts_per_lan: 3,
                flows: 120,
                replay_packets: 40,
            }
        } else {
            // 256 nodes. Three tenths of the 100k flows the issue's probe ran
            // (about 39k packets), so that a dozen reps fit a run. The
            // calendar queue re-buckets at powers of two of its population,
            // so peak memory steps with the seed; of the sizes tried (12k to
            // 40k flows) this one steps least (about 2% between quartiles).
            Sizes {
                routers: 64,
                hosts_per_lan: 3,
                flows: 30_000,
                replay_packets: 512,
            }
        }
    }

    fn hosts(&self) -> usize {
        self.routers * self.hosts_per_lan
    }
}

/// Generates the packet schedule from the seed alone (by `flowgen`).
pub fn inputs(sizes: &Sizes, seed: u64) -> Vec<FlowPacket> {
    sut::flow_schedule(sizes.flows, sizes.hosts(), seed)
}

pub struct RoutedFabric {
    seed: u64,
    sizes: Sizes,
}

pub struct Sys {
    packets: Vec<FlowPacket>,
    fabric: Fabric,
}

impl RoutedFabric {
    pub fn new(cfg: &Cfg) -> Self {
        RoutedFabric {
            seed: cfg.seed,
            sizes: Sizes::of(cfg.smoke),
        }
    }
}

impl Workload for RoutedFabric {
    type Sys = Sys;

    fn name(&self) -> &'static str {
        "routed_fabric"
    }

    fn runs_once(&self) -> bool {
        true
    }

    fn setup(&self, tr: &mut Tracer) -> Sys {
        let packets = tr.scope("setup.flowgen", |_| inputs(&self.sizes, self.seed));
        let params = FabricParams {
            seed: self.seed,
            routers: self.sizes.routers,
            hosts_per_lan: self.sizes.hosts_per_lan,
        };
        let fabric = tr.scope("setup.deploy_and_schedule", |_| {
            Fabric::build(&params, &packets)
        });
        Sys { packets, fabric }
    }

    fn run(&self, sys: &mut Sys, calls: Option<&mut Log2Hist>) -> u64 {
        sys.fabric.run(calls)
    }

    fn settle(&self, sys: &Sys, events: u64, checks: &mut Checks) -> Exact {
        let o = sys.fabric.outcome();
        let addressed: u64 = o.per_host.iter().map(|h| h.0).sum();
        let astray: u64 = o
            .per_host
            .iter()
            .map(|&(want, received, read)| want.abs_diff(received) + want.abs_diff(read))
            .sum();
        checks.count(addressed, astray, || {
            "packets not received and read by the host they were addressed to".into()
        });
        for (drops, why) in
            o.counts
                .router_drops
                .iter()
                .zip(["no route", "TTL expired", "not routable"])
        {
            checks.expect_eq(*drops, 0, &format!("router drops, {why}"));
        }
        for (i, h) in o.counts.hosts.iter().enumerate() {
            checks.expect_eq(
                h.unaccounted(),
                0,
                &format!("host {i}: frames neither delivered nor dropped"),
            );
        }
        Exact {
            frames: o.counts.frames(),
            events,
            delivered: o.per_host.iter().map(|h| h.2).sum(),
            expected: addressed,
            digest: o.counts.sim_end_ns,
            layer: Vec::new(),
            counts: o.counts,
        }
    }

    fn layers(
        &self,
        sys: &mut Sys,
        exact: &Exact,
        rep_wall_s: f64,
        r: &Replayer,
        tr: &mut Tracer,
        t: &mut Table,
    ) {
        let c = &exact.counts;
        let sample = &sys.packets[..self.sizes.replay_packets.min(sys.packets.len())];
        let flowgen = tr.scope("layers.pf-bench.flowgen", |_| {
            r.flowgen(self.sizes.flows, self.sizes.hosts(), self.seed)
        });
        let queue = tr.scope("layers.pf-sim.queue", |_| {
            r.queue_hold(sys.packets.len(), self.seed)
        });
        let charge = tr.scope("layers.pf-sim.charge", |_| r.charge_mix(&c.routines));
        let paths = tr.scope("layers.pf-net.transmit+pf-proto.forward", |_| {
            r.fabric_paths(sys.fabric.plan(), sample)
        });
        let host = host_layers(r, tr, Wire::Mb10, &[SINK_FILTER], &paths.delivered, t);

        t.set("pf-bench.flowgen_ns_per_packet", flowgen);
        t.set("pf-sim.queue_ns_per_op", queue);
        t.set("pf-sim.charge_ns_per_call", charge);
        t.set("pf-net.transmit_ns_per_call", paths.transmit.ns_per_call);
        t.set(
            "pf-net.deliveries_per_transmit",
            paths.transmit.deliveries_per_transmit,
        );
        t.set(
            "pf-net.bytes_copied_per_transmit",
            paths.transmit.bytes_copied_per_transmit,
        );
        t.set("pf-proto.forward_ns_per_call", paths.forward_ns);

        // Hosts run the paper's sequential loop on one filter.
        let taken_in = c.total(|h| h.received - h.drops_interface);
        let enqueued = c.total(|h| h.delivered + h.drops_queue_full);
        t.set(
            "pf-kernel.world_residual_frac",
            residual_frac(
                &[
                    (queue, exact.events),
                    (charge, c.charges),
                    (paths.transmit.ns_per_call, c.transmits),
                    (paths.forward_ns, c.forwards),
                    (host.parse_ns, taken_in),
                    (host.device.sequential_ns, taken_in),
                    (host.enqueue_ns, enqueued),
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
    fn inputs_repeat_for_a_seed_and_differ_for_another() {
        let sizes = Sizes::of(true);
        let a = inputs(&sizes, 7);
        assert_eq!(a, inputs(&sizes, 7));
        assert_ne!(a, inputs(&sizes, 8));
        assert!(a.len() >= sizes.flows, "at least one packet per flow");
        assert!(a.iter().all(|p| p.src != p.dst
            && p.src < sizes.hosts()
            && p.dst < sizes.hosts()
            && p.payload == 64));
        assert!(
            a.windows(2).all(|w| w[0].at_ns <= w[1].at_ns),
            "time-ordered"
        );
    }
}
