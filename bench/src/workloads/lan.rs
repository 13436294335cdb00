//! `lan_paper`: a closed loop in the paper's own environment.
//!
//! BSP streams in the table 6-6 configuration and a promiscuous monitor
//! share the 3 Mb/s wire; user-level VMTP clients run minimal transactions
//! against their servers on the 10 Mb/s wire; every host is a contended
//! MicroVAX-II with one or two filters. The protocol machines, port
//! enqueue/read/wakeup/copyout, the app callbacks and `Cpu::charge` do most
//! of the work; the event queue holds tens of events, and the router and
//! the bulk engines are idle.

use super::{host_layers, residual_frac, Cfg, Checks, Exact, Workload};
use crate::metrics::Table;
use crate::rng::Rng;
use crate::stats::Log2Hist;
use crate::sut::{FilterSpec, Lan, LanParams, Replayer, Wire};
use crate::trace::Tracer;

/// Sizes, frozen: changing one changes what every later number means.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    /// BSP sender→receiver pairs, and as many VMTP client/server pairs.
    pub pairs: usize,
    /// Bytes each BSP pair moves, before the seeded few per cent on top.
    pub stream_bytes: usize,
    /// Minimal transactions per VMTP pair, before the seeded few per cent.
    pub transactions: u64,
    pub capture_cap: usize,
}

impl Sizes {
    fn of(smoke: bool) -> Self {
        if smoke {
            Sizes {
                pairs: 2,
                stream_bytes: 6_000,
                transactions: 6,
                capture_cap: 40,
            }
        } else {
            Sizes {
                pairs: 8,
                stream_bytes: 1024 * 1024,
                transactions: 4096,
                capture_cap: 10_000,
            }
        }
    }
}

/// Generates the payloads and transaction counts from the seed alone.
pub fn inputs(sizes: &Sizes, seed: u64) -> LanParams {
    let mut rng = Rng::new(seed, 0x1A);
    let payloads = (0..sizes.pairs)
        .map(|_| {
            let len = sizes.stream_bytes + rng.below(sizes.stream_bytes as u64 / 32 + 1) as usize;
            // Never grown past `len`: that would double the buffer for most
            // lengths, and the sender keeps it for the whole run.
            let mut bytes = Vec::with_capacity(len);
            while bytes.len() < len {
                let word = rng.next_u64().to_le_bytes();
                bytes.extend_from_slice(&word[..word.len().min(len - bytes.len())]);
            }
            bytes
        })
        .collect();
    let vmtp_ops = (0..sizes.pairs)
        .map(|_| sizes.transactions + rng.below(sizes.transactions / 32 + 1))
        .collect();
    LanParams {
        seed,
        payloads,
        vmtp_ops,
        capture_cap: sizes.capture_cap,
    }
}

pub struct LanPaper {
    seed: u64,
    sizes: Sizes,
}

impl LanPaper {
    pub fn new(cfg: &Cfg) -> Self {
        LanPaper {
            seed: cfg.seed,
            sizes: Sizes::of(cfg.smoke),
        }
    }
}

impl Workload for LanPaper {
    type Sys = Lan;

    fn name(&self) -> &'static str {
        "lan_paper"
    }

    fn runs_once(&self) -> bool {
        true
    }

    fn setup(&self, tr: &mut Tracer) -> Lan {
        let params = tr.scope("setup.inputs", |_| inputs(&self.sizes, self.seed));
        tr.scope("setup.world", |_| Lan::build(params))
    }

    fn run(&self, sys: &mut Lan, calls: Option<&mut Log2Hist>) -> u64 {
        sys.run(calls)
    }

    fn settle(&self, sys: &Lan, events: u64, checks: &mut Checks) -> Exact {
        let o = sys.outcome();
        for (i, s) in o.streams.iter().enumerate() {
            checks.expect(
                s.done && !s.failed && s.bytes_delivered == s.bytes_offered,
                || format!("BSP stream {i} is not done and byte-exact: {s:?}"),
            );
        }
        for (i, &(completed, asked, giveups)) in o.transactions.iter().enumerate() {
            checks.count(asked, asked - completed.min(asked) + giveups, || {
                format!("VMTP client {i}: {completed} of {asked} transactions, {giveups} give-ups")
            });
        }
        checks.expect_eq(
            o.captured + o.overflowed,
            o.wire_frames,
            "monitor captured+overflowed vs frames on its wire",
        );
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
            delivered: o.counts.total(|h| h.delivered),
            expected: o.counts.total(|h| h.received),
            digest: o.streams.iter().map(|s| s.bytes_delivered).sum::<u64>()
                + o.transactions.iter().map(|t| t.0).sum::<u64>(),
            layer: vec![
                ("pf-proto.retransmits", o.retransmits as f64),
                ("pf-monitor.captured", o.captured as f64),
                ("pf-monitor.overflowed", o.overflowed as f64),
            ],
            counts: o.counts,
        }
    }

    fn layers(
        &self,
        sys: &mut Lan,
        exact: &Exact,
        rep_wall_s: f64,
        r: &Replayer,
        tr: &mut Tracer,
        t: &mut Table,
    ) {
        let c = &exact.counts;
        let trace = sys.captured_frames();
        // What receiver 0 sees: the frames addressed to it, and its filter.
        let to_rx0: Vec<Vec<u8>> = trace
            .iter()
            .filter(|f| f.first() == Some(&0x40))
            .cloned()
            .collect();
        let specs = [FilterSpec::PupSocket { socket: 0x400 }];

        let queue = tr.scope("layers.pf-sim.queue", |_| r.queue_hold(64, self.seed));
        let charge = tr.scope("layers.pf-sim.charge", |_| r.charge_mix(&c.routines));
        let tx = tr.scope("layers.pf-net.transmit", |_| {
            r.lan_transmit(&sys.wire_stations(), &trace)
        });
        let bsp = tr.scope("layers.pf-proto.bsp", |_| {
            r.bsp_lockstep(self.sizes.stream_bytes.min(64 * 1024))
        });
        let host = host_layers(r, tr, Wire::Mb3, &specs, &to_rx0, t);
        let decode = tr.scope("layers.pf-monitor.decode", |_| {
            r.monitor_decode(Wire::Mb3, &trace)
        });

        t.set("pf-sim.queue_ns_per_op", queue);
        t.set("pf-sim.charge_ns_per_call", charge);
        t.set("pf-net.transmit_ns_per_call", tx.ns_per_call);
        t.set("pf-net.deliveries_per_transmit", tx.deliveries_per_transmit);
        t.set(
            "pf-net.bytes_copied_per_transmit",
            tx.bytes_copied_per_transmit,
        );
        t.set("pf-proto.bsp_ns_per_pup", bsp);
        t.set("pf-monitor.decode_ns_per_frame", decode);

        // Hosts run the paper's sequential loop. Every frame a station took
        // in was parsed and demultiplexed once, every delivery enqueued once;
        // a Pup's machine work is counted once per Pup on the BSP wire.
        let taken_in = c.total(|h| h.received - h.drops_interface);
        let enqueued = c.total(|h| h.delivered + h.drops_queue_full);
        let pups = sys.outcome().wire_frames;
        t.set(
            "pf-kernel.world_residual_frac",
            residual_frac(
                &[
                    (queue, exact.events),
                    (charge, c.charges),
                    (tx.ns_per_call, c.transmits),
                    (host.parse_ns, taken_in),
                    (host.device.sequential_ns, taken_in),
                    (host.enqueue_ns, enqueued),
                    (bsp, pups),
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
        let b = inputs(&sizes, 8);
        assert_ne!(a.payloads, b.payloads);
        assert_eq!(a.payloads.len(), sizes.pairs);
        assert!(a.payloads.iter().all(|p| (sizes.stream_bytes
            ..=sizes.stream_bytes + sizes.stream_bytes / 32)
            .contains(&p.len())));
        assert!(a.vmtp_ops.iter().all(|&n| n >= sizes.transactions));
    }
}
