//! The pure BSP and VMTP machines over an adversarial channel: seeded
//! loss, duplication and local reordering, one fate per carried packet.
//! BSP must deliver the exact byte stream and VMTP the exact response of
//! every transaction, or the run trips its livelock bound. No simulator is
//! involved, so hundreds of channel schedules run in milliseconds; the
//! release profile runs ten times as many as the debug one.

use pf_proto::bsp::{BspConfig, Effect, ReceiverMachine, SenderMachine, RTO_TOKEN};
use pf_proto::pup::{Pup, PupAddr};
use pf_proto::vmtp::{ClientMachine, ServerMachine, VEffect, VmtpPacket, VMTP_RTO_TOKEN};
use pf_sim::rng::SplitMix64;
use pf_sim::time::SimDuration;
use std::collections::VecDeque;

const CASES: u64 = if cfg!(debug_assertions) { 64 } else { 640 };

/// One channel decision per carried packet.
#[derive(Debug, Clone, Copy)]
enum Fate {
    Deliver,
    Drop,
    Duplicate,
    /// Lands ahead of the packet queued before it (local reordering).
    Delay,
}

/// A scripted channel. Fates are consumed in order; once the script is
/// exhausted the channel turns reliable, so every run terminates.
struct Channel {
    fates: Vec<Fate>,
    next: usize,
}

impl Channel {
    /// Up to `max_len` fates, two in three of them `Deliver`.
    fn seeded(rng: &mut SplitMix64, max_len: u64) -> Self {
        let fates = (0..rng.below(max_len))
            .map(|_| match rng.below(9) {
                0 => Fate::Drop,
                1 => Fate::Duplicate,
                2 => Fate::Delay,
                _ => Fate::Deliver,
            })
            .collect();
        Channel { fates, next: 0 }
    }

    /// `.` delivers, `x` drops, `2` duplicates, `<` delays.
    fn scripted(script: &str) -> Self {
        let fates = script
            .chars()
            .map(|c| match c {
                '.' => Fate::Deliver,
                'x' => Fate::Drop,
                '2' => Fate::Duplicate,
                '<' => Fate::Delay,
                other => panic!("no fate is written {other:?}"),
            })
            .collect();
        Channel { fates, next: 0 }
    }

    fn carry<T: Clone>(&mut self, pkt: T, queue: &mut VecDeque<T>) {
        let fate = self.fates.get(self.next).copied().unwrap_or(Fate::Deliver);
        self.next += 1;
        match fate {
            Fate::Deliver => queue.push_back(pkt),
            Fate::Drop => {}
            Fate::Duplicate => {
                queue.push_back(pkt.clone());
                queue.push_back(pkt);
            }
            Fate::Delay => {
                let last = queue.pop_back();
                queue.push_back(pkt);
                queue.extend(last);
            }
        }
    }
}

fn seeded_bytes(rng: &mut SplitMix64, len: u64) -> Vec<u8> {
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

/// Drives a BSP sender and receiver to completion through `channel`;
/// returns the bytes the receiver delivered.
fn bsp_transfer(payload: &[u8], cfg: BspConfig, mut channel: Channel) -> Vec<u8> {
    let sa = PupAddr::new(1, 0x0A, 0x100);
    let ra = PupAddr::new(1, 0x0B, 0x200);
    let mut s = SenderMachine::new(sa, ra, cfg);
    let mut r = ReceiverMachine::new(ra);
    let mut delivered = Vec::new();
    let mut to_recv: VecDeque<Pup> = VecDeque::new();
    let mut to_send: VecDeque<Pup> = VecDeque::new();

    let mut opening = s.connect();
    opening.extend(s.offer(payload));
    opening.extend(s.finish());
    for e in opening {
        if let Effect::Send(p) = e {
            channel.carry(p, &mut to_recv);
        }
    }

    let mut steps = 0u32;
    while !s.is_closed() {
        steps += 1;
        assert!(steps < 200_000, "livelock");
        assert!(!s.is_failed(), "the sender gave up");
        if let Some(p) = to_recv.pop_front() {
            for e in r.on_pup(&p) {
                match e {
                    Effect::Send(p) => channel.carry(p, &mut to_send),
                    Effect::Deliver(d) => delivered.extend(d),
                    _ => {}
                }
            }
        }
        if let Some(p) = to_send.pop_front() {
            for e in s.on_pup(&p) {
                if let Effect::Send(p) = e {
                    channel.carry(p, &mut to_recv);
                }
            }
        }
        // Everything in flight has drained and the sender is still open:
        // its retransmission timer fires.
        if to_recv.is_empty() && to_send.is_empty() && !s.is_closed() {
            for e in s.on_timer(RTO_TOKEN) {
                if let Effect::Send(p) = e {
                    channel.carry(p, &mut to_recv);
                }
            }
        }
    }
    delivered
}

#[test]
fn bsp_delivers_the_exact_stream_over_an_adversarial_channel() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0xB5B0_0000 + case);
        let payload_len = rng.below(4_000);
        let payload = seeded_bytes(&mut rng, payload_len);
        let cfg = BspConfig {
            window: 1 + rng.below(5) as usize,
            segment: [64, 200, 546][rng.below(3) as usize],
            ..Default::default()
        };
        let ctx = format!("case {case}: window {} segment {}", cfg.window, cfg.segment);
        let channel = Channel::seeded(&mut rng, 200);
        assert!(bsp_transfer(&payload, cfg, channel) == payload, "{ctx}");
    }
}

#[test]
fn bsp_push_mode_also_survives() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0xB5B1_0000 + case);
        let payload_len = 1 + rng.below(999);
        let payload = seeded_bytes(&mut rng, payload_len);
        let cfg = BspConfig {
            push: true,
            segment: 100,
            ..Default::default()
        };
        let channel = Channel::seeded(&mut rng, 100);
        assert!(
            bsp_transfer(&payload, cfg, channel) == payload,
            "case {case}"
        );
    }
}

/// The one schedule this suite's property-test ancestor had saved as a
/// regression: 3,256 bytes in 64-byte segments under a window of five,
/// with these 81 fates. (The saved bytes were random; the machines never
/// read them.)
#[test]
fn bsp_survives_the_saved_window_5_segment_64_schedule() {
    let payload = seeded_bytes(&mut SplitMix64::new(0xB5B2_0000), 3_256);
    let cfg = BspConfig {
        window: 5,
        segment: 64,
        ..Default::default()
    };
    let channel = Channel::scripted(
        "....<.2.2...2..xx...<..2..x..xx<2...<xx......x<...2...2x.......x.2.<.<...22....x.",
    );
    assert_eq!(channel.fates.len(), 81);
    assert!(bsp_transfer(&payload, cfg, channel) == payload);
}

/// The effects one machine call pushes onto an empty vector.
fn effects(call: impl FnOnce(&mut Vec<VEffect>)) -> Vec<VEffect> {
    let mut fx = Vec::new();
    call(&mut fx);
    fx
}

/// Sequential transactions against a file-read server: every one
/// completes with exactly the requested bytes, in order, whatever the
/// channel does.
#[test]
fn vmtp_transactions_complete_exactly() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0x7319_0000 + case);
        let ops = 1 + rng.below(4) as u32;
        let response: Vec<u8> = (0..rng.below(5_000)).map(|i| (i % 239) as u8).collect();
        let mut channel = Channel::seeded(&mut rng, 120);
        let ctx = format!("case {case}: {ops} ops of {} bytes", response.len());

        let mut client = ClientMachine::new(1, 2, 0x0B, SimDuration::from_millis(100));
        let mut server = ServerMachine::new(2);
        let mut to_server: VecDeque<VmtpPacket> = VecDeque::new();
        let mut to_client: VecDeque<VmtpPacket> = VecDeque::new();
        let mut completed = 0u32;
        // A `Send` effect's data-link address is dropped: each queue has
        // one reader.
        let sends = |fx: Vec<VEffect>| {
            fx.into_iter().filter_map(|e| match e {
                VEffect::Send(p, _eth) => Some(p),
                _ => None,
            })
        };

        for p in sends(effects(|fx| client.invoke(0, Vec::new(), fx))) {
            channel.carry(p, &mut to_server);
        }
        let mut steps = 0u32;
        while completed < ops {
            steps += 1;
            assert!(steps < 100_000, "{ctx}: livelock");

            if let Some(p) = to_server.pop_front() {
                for e in effects(|fx| server.on_packet(&p, 0x0A, fx)) {
                    let answer = match e {
                        VEffect::DeliverRequest {
                            client,
                            client_eth,
                            trans,
                            ..
                        } => effects(|fx| {
                            server.respond(client, client_eth, trans, response.clone(), fx)
                        }),
                        other => vec![other],
                    };
                    for p in sends(answer) {
                        channel.carry(p, &mut to_client);
                    }
                }
            }

            if let Some(p) = to_client.pop_front() {
                for e in effects(|fx| client.on_packet(&p, fx)) {
                    let next = match e {
                        VEffect::Complete { data, .. } => {
                            assert!(data == response, "{ctx}: response bytes");
                            completed += 1;
                            if completed == ops {
                                break;
                            }
                            effects(|fx| client.invoke(0, Vec::new(), fx))
                        }
                        VEffect::Failed { .. } => panic!("{ctx}: the client gave up"),
                        other => vec![other],
                    };
                    for p in sends(next) {
                        channel.carry(p, &mut to_server);
                    }
                }
            }

            // Quiescent but unfinished: the client's timer fires.
            if to_server.is_empty() && to_client.is_empty() && completed < ops {
                for p in sends(effects(|fx| client.on_timer(VMTP_RTO_TOKEN, fx))) {
                    channel.carry(p, &mut to_server);
                }
            }
        }
        assert!(!client.busy(), "{ctx}");
    }
}
