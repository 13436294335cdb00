//! Model tests for the simulation substrate: the event queue against a
//! naive sorted list under seeded schedule/pop/peek/cancel interleavings —
//! times scattered about the clock, then interleaved sorted streams, the
//! input the queue's runs take — and CPU-accounting monotonicity. Hermetic:
//! all randomness is the in-tree `SplitMix64`, so a failure reproduces from
//! its seed. The debug profile runs 2k steps per seed, `cargo test --release`
//! 20k.

use pf_sim::cpu::Cpu;
use pf_sim::queue::{EventHandle, EventQueue};
use pf_sim::rng::SplitMix64;
use pf_sim::time::{SimDuration, SimTime};

const STEPS: usize = if cfg!(debug_assertions) {
    2_000
} else {
    20_000
};

/// `queue.rs`'s `MIN_TOMBSTONES`: the tombstone count compaction tolerates
/// whatever the live population.
const MIN_TOMBSTONES: usize = 16;

/// The specification: pending `(time, id)` pairs, popped smallest first.
/// Ids are issued in schedule order, so they are the tie-break.
#[derive(Default)]
struct Model {
    pending: Vec<(SimTime, usize)>,
    now: SimTime,
}

impl Model {
    fn schedule(&mut self, at: SimTime, id: usize) {
        self.pending.push((at.max(self.now), id));
        self.pending.sort_unstable();
    }

    fn pop(&mut self) -> Option<(SimTime, usize)> {
        if self.pending.is_empty() {
            return None;
        }
        let first = self.pending.remove(0);
        self.now = first.0;
        Some(first)
    }

    fn cancel(&mut self, id: usize) -> bool {
        let at = self.pending.iter().position(|&(_, i)| i == id);
        at.map(|i| self.pending.remove(i)).is_some()
    }
}

/// One seeded interleaving. Every handle ever issued is kept, so cancels
/// hit pending events, events that already fired, events already cancelled
/// and handles whose slab slot has since gone to a later event alike; the
/// model says which of them may return `true`.
fn run_against_model(seed: u64) {
    let mut rng = SplitMix64::new(seed);
    let mut q: EventQueue<usize> = EventQueue::new();
    let mut model = Model::default();
    let mut handles: Vec<EventHandle> = Vec::new();
    // Phases of growth, churn and drain, so slots are recycled.
    for step in 0..STEPS {
        let bias = [6, 3, 1][(step * 3 / STEPS) % 3];
        match rng.below(10) {
            r if r < bias => {
                // Mostly near the clock, sometimes far ahead, sometimes in
                // the past (clamped to `now`).
                let spread = [1 << 10, 1 << 20, 1 << 34][rng.below(3) as usize];
                let at = SimTime((q.now().as_nanos() + rng.below(spread)).saturating_sub(512));
                // Ids and the queue's tie-breaks are both issued in
                // schedule order: the one read ahead is this event's.
                let id = handles.len();
                assert_eq!(q.next_seq(), id as u64);
                handles.push(q.schedule(at, id));
                assert_eq!(q.next_seq(), id as u64 + 1, "one schedule, one step");
                model.schedule(at, id);
            }
            6 | 7 if !handles.is_empty() => {
                let id = rng.below(handles.len() as u64) as usize;
                let cancelled = q.cancel(handles[id]);
                assert_eq!(cancelled, model.cancel(id), "cancel of event {id}");
                assert!(!q.cancel(handles[id]), "a second cancel is always false");
                if cancelled {
                    // Compaction runs inside `cancel`: right after one,
                    // tombstones never outnumber max(live, MIN_TOMBSTONES).
                    assert!(
                        q.stored_len() <= 2 * q.len() + 2 * MIN_TOMBSTONES,
                        "{} keys stored for {} live",
                        q.stored_len(),
                        q.len()
                    );
                }
            }
            8 => assert_eq!(q.peek_time(), model.pending.first().map(|p| p.0)),
            _ => assert_eq!(q.pop(), model.pop()),
        }
        assert_eq!(q.len(), model.pending.len(), "len() excludes tombstones");
        assert_eq!(q.is_empty(), model.pending.is_empty());
        assert_eq!(q.now(), model.now);
        assert_eq!(q.next_seq(), handles.len() as u64, "only schedule moves it");
    }
    loop {
        let (got, want) = (q.pop(), model.pop());
        assert_eq!(got, want);
        if got.is_none() {
            break;
        }
    }
    for (id, h) in handles.iter().enumerate() {
        assert!(!q.cancel(*h), "event {id} fired or was cancelled long ago");
    }
    assert_eq!((q.len(), q.stored_len()), (0, 0));
}

#[test]
fn queue_matches_the_sorted_list_model() {
    for seed in 0..4 {
        run_against_model(0x51AB ^ seed);
    }
}

/// One seeded interleaving of what open-loop drivers and timers offer: 1 to
/// 6 streams, each scheduling at its own nondecreasing clock, singly or in
/// equal-time bursts, with one key in eight a straggler behind its stream.
/// Cancels mostly pick a recent handle, whose key is still pending inside
/// whichever store took it. Same model, same rules as `run_against_model`.
fn run_streams_against_model(seed: u64) {
    let mut rng = SplitMix64::new(seed);
    let mut q: EventQueue<usize> = EventQueue::new();
    let mut model = Model::default();
    let mut handles: Vec<EventHandle> = Vec::new();
    let mut streams = vec![0u64; 1 + rng.below(6) as usize];
    // Phases of growth, churn and drain, so runs empty and are taken again.
    for step in 0..STEPS {
        let bias = [8, 5, 2][step * 3 / STEPS];
        match rng.below(16) {
            r if r < bias => {
                let s = rng.below(streams.len() as u64) as usize;
                let gap = [0, 1 << 8, 1 << 16][rng.below(3) as usize];
                streams[s] = streams[s].max(q.now().as_nanos()) + rng.below(gap + 1);
                for _ in 0..[1, 1, 1, 5][rng.below(4) as usize] {
                    let behind = if rng.below(8) == 0 {
                        rng.below(1 << 14)
                    } else {
                        0
                    };
                    let at = SimTime(streams[s].saturating_sub(behind));
                    let id = handles.len();
                    handles.push(q.schedule(at, id));
                    model.schedule(at, id);
                }
            }
            8..=10 if !handles.is_empty() => {
                let span = if rng.below(4) == 0 {
                    handles.len()
                } else {
                    handles.len().min(256)
                };
                let id = handles.len() - 1 - rng.below(span as u64) as usize;
                let cancelled = q.cancel(handles[id]);
                assert_eq!(cancelled, model.cancel(id), "cancel of event {id}");
                assert!(!q.cancel(handles[id]), "a second cancel is always false");
                if cancelled {
                    assert!(
                        q.stored_len() <= 2 * q.len() + 2 * MIN_TOMBSTONES,
                        "{} keys stored for {} live",
                        q.stored_len(),
                        q.len()
                    );
                }
            }
            11 | 12 => assert_eq!(q.peek_time(), model.pending.first().map(|p| p.0)),
            _ => assert_eq!(q.pop(), model.pop()),
        }
        assert_eq!(q.len(), model.pending.len(), "len() excludes tombstones");
        assert_eq!(q.now(), model.now);
        assert_eq!(q.next_seq(), handles.len() as u64, "only schedule moves it");
    }
    loop {
        assert_eq!(q.peek_time(), model.pending.first().map(|p| p.0));
        let (got, want) = (q.pop(), model.pop());
        assert_eq!(got, want);
        if got.is_none() {
            break;
        }
    }
    for (id, h) in handles.iter().enumerate() {
        assert!(!q.cancel(*h), "event {id} fired or was cancelled long ago");
    }
    assert_eq!((q.len(), q.stored_len()), (0, 0));
}

#[test]
fn interleaved_sorted_streams_match_the_sorted_list_model() {
    for seed in 0..8 {
        run_streams_against_model(0x5EED ^ seed);
    }
}

/// The three ways a handle goes stale, spelled out once on a tiny queue.
#[test]
fn stale_handles_never_cancel_anything() {
    let mut q = EventQueue::new();
    let fired = q.schedule(SimTime(10), "fired");
    assert_eq!(q.pop(), Some((SimTime(10), "fired")));
    assert!(!q.cancel(fired), "cancel after pop");
    // The freed slot goes to the next event; the old handle must not
    // reach it.
    let heir = q.schedule(SimTime(20), "heir");
    assert!(!q.cancel(fired), "stale handle, slot recycled");
    assert_eq!(q.len(), 1);
    assert!(q.cancel(heir));
    assert!(!q.cancel(heir), "double cancel");
    let next = q.schedule(SimTime(30), "next");
    assert!(!q.cancel(heir), "cancelled handle, slot recycled");
    assert_eq!((q.len(), q.stored_len()), (1, 2), "one tombstone stored");
    assert_eq!(q.pop(), Some((SimTime(30), "next")));
    assert!(!q.cancel(next));
    assert_eq!((q.len(), q.stored_len()), (0, 0));
}

/// CPU charges serialize: completion times are nondecreasing and every
/// charge's completion covers its own cost; total busy time is the sum of
/// costs.
#[test]
fn cpu_accounting_is_serial() {
    let mut rng = SplitMix64::new(0xC9A1);
    for _ in 0..50 {
        let mut cpu = Cpu::new();
        let mut last_done = SimTime::ZERO;
        let mut total = 0u64;
        for _ in 0..rng.below(100) {
            let (at, cost_us) = (rng.below(100_000), rng.below(5_000));
            let done = cpu.charge("work", SimTime(at), SimDuration::from_micros(cost_us));
            assert!(done >= last_done, "completions nondecreasing");
            assert!(done.as_nanos() >= at + cost_us * 1_000);
            last_done = done;
            total += cost_us;
        }
        assert_eq!(cpu.busy_time().as_micros(), total);
        assert_eq!(cpu.profiler().stats("work").time.as_micros(), total);
    }
}
