//! Deterministic future event list.
//!
//! Events fire in timestamp order; events with equal timestamps fire in
//! the order they were scheduled (a monotonic sequence number breaks
//! ties), so every simulation run is exactly reproducible.
//!
//! Payloads sit in a slab; what is ordered is 16-byte keys, each one
//! integer `time << 64 | seq << 24 | slot` (so one wide compare is the
//! `(time, seq, slot)` order) in exactly one of `RUNS + 1` stores. A key
//! whose time is not before the tail of one of the `RUNS` append-only
//! sorted runs is appended there in O(1) — `seq` only grows, so such a key
//! is the run's greatest — and any other goes to the one `BinaryHeap`,
//! O(log n). The next event is the least of the runs' fronts and the
//! heap's top, so the firing order is that of a single heap over all the
//! keys, and input no run takes is stored exactly as that heap would store
//! it. Open-loop generators and `now + constant` timers are sorted by
//! construction: they fill the runs, and the heap keeps only what arrives
//! out of order.
//!
//! A slot is stamped with the `seq` of the event it holds, so a key or an
//! [`EventHandle`] names a live event exactly when its slot still carries
//! its `seq` *and* a payload. Cancelling drops the payload and frees the
//! slot at once; the key stays where it is as a counted tombstone until it
//! surfaces at `pop`/`peek_time`. When tombstones outnumber live keys the
//! queue compacts every store in O(n), so a schedule/cancel churn loop
//! holds memory proportional to the *live* population, not the all-time
//! schedule count.
//!
//! The packing bounds a queue to fewer than 2^24 events pending at once
//! and 2^40 scheduled over its life; `schedule` asserts both.

use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Handle to a scheduled event, usable for cancellation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventHandle {
    seq: u64,
    slot: u32,
}

/// What the stores order: firing time, tie-break and slab slot packed as
/// `at << 64 | seq << SLOT_BITS | slot`, so the derived order is theirs.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Key(u128);

/// A key's low bits: the slab slot.
const SLOT_BITS: u32 = 24;
/// Slab slots a key can name, so events pending at once.
const SLOTS: usize = 1 << SLOT_BITS;
/// Tie-breaks a key can carry, so events one queue ever schedules.
const SEQS: u64 = 1 << (64 - SLOT_BITS);

impl Key {
    fn new(at: SimTime, seq: u64, slot: u32) -> Key {
        Key(u128::from(at.0) << 64 | u128::from(seq) << SLOT_BITS | u128::from(slot))
    }

    fn at(self) -> SimTime {
        SimTime((self.0 >> 64) as u64)
    }

    fn seq(self) -> u64 {
        self.0 as u64 >> SLOT_BITS
    }

    fn slot(self) -> u32 {
        self.0 as u32 & (SLOTS as u32 - 1)
    }
}

/// A slab entry: event `seq`'s payload until it fires or is cancelled.
struct Slot<E> {
    seq: u64,
    event: Option<E>,
}

/// Tombstones tolerated whatever the live population, so a small queue
/// does not compact on every other cancel.
const MIN_TOMBSTONES: usize = 16;

/// Sorted runs beside the heap. A driver that offers a slice of k sorted
/// streams one after the other and then runs needs k runs for the streams
/// and more for the timers its events set behind their far tails; the
/// benchmark's flood is k = 2, where one run takes 3% of the schedules, two
/// take 97% and four take all of them. Every `pop` reads each run's front,
/// so the count stays small.
const RUNS: usize = 4;
/// `least`'s name for the heap, after the runs' indices.
const HEAP: usize = RUNS;

/// A discrete-event queue over event payloads of type `E`.
///
/// # Examples
///
/// ```
/// use pf_sim::queue::EventQueue;
/// use pf_sim::time::{SimDuration, SimTime};
///
/// let mut q: EventQueue<&str> = EventQueue::new();
/// q.schedule(SimTime(2_000), "late");
/// q.schedule(SimTime(1_000), "early");
/// let (t, e) = q.pop().unwrap();
/// assert_eq!((t, e), (SimTime(1_000), "early"));
/// ```
pub struct EventQueue<E> {
    /// Each run ascending front to back. With the heap they hold one key
    /// per live event plus the counted tombstones.
    runs: [VecDeque<Key>; RUNS],
    /// `BinaryHeap` is a max-heap; reversed keys make it earliest-first.
    heap: BinaryHeap<Reverse<Key>>,
    slots: Vec<Slot<E>>,
    /// Slab slots whose event fired or was cancelled, ready for reuse.
    free: Vec<u32>,
    /// Stored keys whose event was cancelled.
    tombstones: usize,
    next_seq: u64,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at time zero.
    pub fn new() -> Self {
        EventQueue {
            runs: std::array::from_fn(|_| VecDeque::new()),
            heap: BinaryHeap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            tombstones: 0,
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// The timestamp of the most recently popped event (the current virtual
    /// time).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The tie-break the next [`schedule`](Self::schedule) will give: where
    /// work a caller keeps out of the queue would stand in the firing order.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// Scheduling in the past is clamped to the current time: the event
    /// fires next, preserving determinism rather than panicking (callers
    /// computing `now + cost` never hit this; it guards direct misuse).
    ///
    /// # Panics
    ///
    /// Panics on the 2^40th event a queue schedules, and on the 2^24th
    /// pending at once: a key has no room for more.
    pub fn schedule(&mut self, at: SimTime, event: E) -> EventHandle {
        let at = at.max(self.now);
        let seq = self.next_seq;
        assert!(
            seq < SEQS,
            "under 2^40 events scheduled over a queue's life"
        );
        self.next_seq += 1;
        let slot = self.free.pop().unwrap_or_else(|| {
            assert!(
                self.slots.len() < SLOTS,
                "under 2^24 events pending at once"
            );
            self.slots.push(Slot { seq, event: None });
            (self.slots.len() - 1) as u32
        });
        self.slots[slot as usize] = Slot {
            seq,
            event: Some(event),
        };
        let key = Key::new(at, seq, slot);
        match self.run_for(at) {
            Some(run) => self.runs[run].push_back(key),
            None => self.heap.push(Reverse(key)),
        }
        EventHandle { seq, slot }
    }

    /// The run a new key at `at` extends: the one whose tail is latest
    /// among those not after `at` (best fit, so a stream keeps the run it
    /// started and leaves earlier tails to earlier keys), an empty run when
    /// no tail fits — `None` orders before every `Some` — and `None` when
    /// there is neither. The new key's `seq` exceeds every stored one, so
    /// `tail.at <= at` is the whole test.
    fn run_for(&self, at: SimTime) -> Option<usize> {
        let mut best: Option<(usize, Option<SimTime>)> = None;
        for (i, run) in self.runs.iter().enumerate() {
            let tail = run.back().map(|k| k.at());
            if tail <= Some(at) && best.is_none_or(|(_, b)| tail > b) {
                best = Some((i, tail));
            }
        }
        best.map(|(i, _)| i)
    }

    /// The store holding the least key, and that key.
    fn least(&self) -> Option<(usize, Key)> {
        let mut least = self.heap.peek().map(|k| (HEAP, k.0));
        for (i, run) in self.runs.iter().enumerate() {
            if let Some(&k) = run.front() {
                if least.is_none_or(|(_, l)| k < l) {
                    least = Some((i, k));
                }
            }
        }
        least
    }

    /// Removes the key `least` found in `store`.
    fn remove_least(&mut self, store: usize) {
        if store == HEAP {
            self.heap.pop();
        } else {
            self.runs[store].pop_front();
        }
    }

    /// Takes event `seq` out of `slot` and frees the slot. `None`: it has
    /// fired or been cancelled, whoever holds the slot now.
    fn take(&mut self, seq: u64, slot: u32) -> Option<E> {
        let s = &mut self.slots[slot as usize];
        let event = s.event.take_if(|_| s.seq == seq)?;
        self.free.push(slot);
        Some(event)
    }

    /// Cancels a previously scheduled event. Returns `true` if the event
    /// had not yet fired or been cancelled.
    pub fn cancel(&mut self, handle: EventHandle) -> bool {
        // The payload goes now; the key is skipped when it surfaces.
        let cancelled = self.take(handle.seq, handle.slot).is_some();
        if cancelled {
            self.tombstones += 1;
            self.maybe_compact();
        }
        cancelled
    }

    /// Removes and returns the earliest pending event, advancing `now`.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        while let Some((store, k)) = self.least() {
            self.remove_least(store);
            if let Some(event) = self.take(k.seq(), k.slot()) {
                self.now = k.at();
                return Some((k.at(), event));
            }
            self.tombstones -= 1;
        }
        None
    }

    fn is_live(slots: &[Slot<E>], k: &Key) -> bool {
        let s = &slots[k.slot() as usize];
        s.seq == k.seq() && s.event.is_some()
    }

    /// The timestamp of the next pending event, if any.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        // Pop tombstones off the front first.
        loop {
            let (store, k) = self.least()?;
            if Self::is_live(&self.slots, &k) {
                return Some(k.at());
            }
            self.remove_least(store);
            self.tombstones -= 1;
        }
    }

    /// Number of pending (non-cancelled) events.
    pub fn len(&self) -> usize {
        self.stored_len() - self.tombstones
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Keys physically stored, *including* tombstones not yet reclaimed.
    /// Exposed so tests can pin that schedule/cancel churn keeps storage
    /// proportional to the live population.
    pub fn stored_len(&self) -> usize {
        self.heap.len() + self.runs.iter().map(VecDeque::len).sum::<usize>()
    }

    /// Drops the tombstones once they outnumber live keys. Each compaction
    /// removes more than it keeps, so it amortizes to O(1) per cancel.
    fn maybe_compact(&mut self) {
        if self.tombstones <= self.len().max(MIN_TOMBSTONES) {
            return;
        }
        self.heap.retain(|k| Self::is_live(&self.slots, &k.0));
        for run in &mut self.runs {
            run.retain(|k| Self::is_live(&self.slots, k));
        }
        self.tombstones = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn orders_by_time() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(30), 3);
        q.schedule(SimTime(10), 1);
        q.schedule(SimTime(20), 2);
        assert_eq!(q.pop(), Some((SimTime(10), 1)));
        assert_eq!(q.pop(), Some((SimTime(20), 2)));
        assert_eq!(q.pop(), Some((SimTime(30), 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn equal_times_fire_in_schedule_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(SimTime(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((SimTime(5), i)));
        }
    }

    #[test]
    fn now_advances_with_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(42), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime(42));
    }

    #[test]
    fn past_events_are_clamped() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(100), "a");
        q.pop();
        q.schedule(SimTime(50), "late"); // in the past
        assert_eq!(q.pop(), Some((SimTime(100), "late")));
    }

    #[test]
    fn cancellation() {
        let mut q = EventQueue::new();
        let h1 = q.schedule(SimTime(10), 1);
        let h2 = q.schedule(SimTime(20), 2);
        assert!(q.cancel(h1));
        assert!(!q.cancel(h1), "double cancel reports false");
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_time(), Some(SimTime(20)));
        assert_eq!(q.pop(), Some((SimTime(20), 2)));
        assert!(!q.cancel(h2), "already fired");
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(10), 1);
        assert_eq!(q.pop(), Some((SimTime(10), 1)));
        q.schedule(q.now() + SimDuration::from_nanos(5), 2);
        assert_eq!(q.pop(), Some((SimTime(15), 2)));
    }

    #[test]
    fn schedule_after_long_idle_advance() {
        // After a long jump of the clock, near-future scheduling must still
        // order correctly.
        let mut q = EventQueue::new();
        q.schedule(SimTime(100_000_000_000), "far");
        assert_eq!(q.pop(), Some((SimTime(100_000_000_000), "far")));
        let base = SimTime(100_000_000_000);
        q.schedule(base + SimDuration::from_micros(5), "b");
        q.schedule(base + SimDuration::from_micros(1), "a");
        assert_eq!(q.pop(), Some((base + SimDuration::from_micros(1), "a")));
        assert_eq!(q.pop(), Some((base + SimDuration::from_micros(5), "b")));
    }

    /// Regression for the unbounded-bookkeeping bug: a schedule/cancel
    /// churn loop must hold storage proportional to the live population,
    /// not the all-time schedule count.
    #[test]
    fn churn_holds_memory_flat() {
        let mut q = EventQueue::new();
        // A stable population of live timers that keeps getting
        // rescheduled — the pattern World's kernel timers produce.
        let mut live: Vec<EventHandle> =
            (0..64).map(|i| q.schedule(SimTime(1_000 + i), i)).collect();
        for round in 0..50_000u64 {
            let h = live.remove((round % 64) as usize);
            assert!(q.cancel(h));
            live.push(q.schedule(SimTime(2_000 + round), round));
            assert_eq!(q.len(), 64);
            assert!(
                q.stored_len() <= 2 * q.len() + 2 * MIN_TOMBSTONES,
                "stored {} entries for {} live after {} churn rounds",
                q.stored_len(),
                q.len(),
                round + 1
            );
        }
    }

    /// What an open-loop driver offers: a whole sorted stream, then a second
    /// one over the same interval. Neither touches the heap.
    #[test]
    fn two_interleaved_sorted_streams_leave_the_heap_empty() {
        let mut q = EventQueue::new();
        for stream in 0..2u64 {
            for k in 0..100u64 {
                q.schedule(SimTime(1_000 + 20 * k + 7 * stream), (stream, k));
            }
        }
        // Best fit: the second stream's last key is past the first's tail
        // and goes there, which is as sorted as its own run.
        assert!(q.heap.is_empty());
        assert_eq!((q.runs[0].len(), q.runs[1].len()), (101, 99));
        // A timer set while the streams are pending lies behind both tails
        // and takes a run of its own; one past the tails extends the later.
        q.schedule(SimTime(10), (2, 0));
        q.schedule(SimTime(2_987), (2, 1));
        assert!(q.heap.is_empty());
        assert_eq!((q.runs[0].len(), q.runs[2].len()), (102, 1));
        assert!(q.runs[3].is_empty());
        assert_eq!(q.pop(), Some((SimTime(10), (2, 0))));
        for k in 0..100 {
            for stream in 0..2 {
                let at = SimTime(1_000 + 20 * k + 7 * stream);
                assert_eq!(q.pop(), Some((at, (stream, k))));
            }
        }
        assert_eq!(q.pop(), Some((SimTime(2_987), (2, 1))));
        assert_eq!((q.pop(), q.stored_len()), (None, 0));
    }

    /// With every run's tail in the far future, input that is not monotone
    /// is stored as the one heap always stored it, and fires in `(at, seq)`
    /// order among the runs' keys.
    #[test]
    fn a_descending_sequence_behind_far_tails_lands_in_the_heap() {
        let mut q = EventQueue::new();
        for run in 0..RUNS as u64 {
            // Descending, so no tail fits the next and each opens a run.
            q.schedule(SimTime(1_000_000 - run), u64::MAX - run);
        }
        assert!(q.heap.is_empty() && q.runs.iter().all(|r| r.len() == 1));
        for i in 0..50u64 {
            q.schedule(SimTime(500 - 10 * (i / 2)), i);
        }
        assert_eq!(q.heap.len(), 50);
        assert!(q.runs.iter().all(|r| r.len() == 1));
        // Pairs share a time and fire in schedule order, later pairs first.
        for pair in (0..25u64).rev() {
            for i in [2 * pair, 2 * pair + 1] {
                assert_eq!(q.pop(), Some((SimTime(500 - 10 * pair), i)));
            }
        }
        for run in (0..RUNS as u64).rev() {
            assert_eq!(q.pop(), Some((SimTime(1_000_000 - run), u64::MAX - run)));
        }
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn compaction_drops_tombstones_from_runs() {
        let mut q = EventQueue::new();
        let handles: Vec<EventHandle> = (0..100).map(|i| q.schedule(SimTime(10 + i), i)).collect();
        q.schedule(SimTime(5), 100); // behind the run's tail: a second run
        assert_eq!((q.runs[0].len(), q.runs[1].len()), (100, 1));
        // The 51st cancel leaves 51 tombstones to 50 live keys.
        for h in &handles[10..60] {
            assert!(q.cancel(*h));
        }
        assert_eq!((q.runs[0].len(), q.tombstones), (100, 50));
        assert!(q.cancel(handles[60]));
        assert_eq!((q.runs[0].len(), q.tombstones), (49, 0));
        assert_eq!((q.len(), q.stored_len()), (50, 50));
        assert_eq!(q.pop(), Some((SimTime(5), 100)));
        for i in (0..10).chain(61..100) {
            assert_eq!(q.pop(), Some((SimTime(10 + i), i)));
        }
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn len_excludes_cancelled_entries() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime(10), ());
        q.schedule(SimTime(20), ());
        assert_eq!(q.len(), 2);
        q.cancel(a);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    /// A key keeps all 40 bits of `seq`: ties between runs, between a run
    /// and the heap, cancels and a compaction all straddle `seq = 2^32`,
    /// where a key that kept 32 bits would put the later events first.
    #[test]
    fn keys_order_across_the_2_pow_32_seq_boundary() {
        let mut q = EventQueue::new();
        let b = 1u64 << 32;
        q.next_seq = b - 3;
        let handles: Vec<EventHandle> = [100, 300, 100, 250, 100, 175, 150, 100, 100, 50, 100]
            .into_iter()
            .enumerate()
            .map(|(i, at)| q.schedule(SimTime(at), i))
            .collect();
        assert_eq!(q.next_seq, b + 8);
        // Runs hold (100, 300), (100, 250), (100, 175) and (150), keyed
        // b - 3 .. b + 3; the heap holds the rest, keyed b + 4 and up.
        let lens: Vec<usize> = q.runs.iter().map(VecDeque::len).collect();
        assert_eq!((lens, q.heap.len()), (vec![2, 2, 2, 1], 4));
        assert!(q.cancel(handles[2]) && q.cancel(handles[8]));
        // Fifteen more (behind run 0's tail) and cancelled: the last
        // cancel compacts, keeping live keys from both sides of 2^32.
        let fillers: Vec<EventHandle> = (0..15).map(|i| q.schedule(SimTime(400 + i), 99)).collect();
        for h in fillers {
            assert!(q.cancel(h));
        }
        assert_eq!((q.tombstones, q.stored_len(), q.len()), (0, 9, 9));
        let order: Vec<(u64, usize)> = std::iter::from_fn(|| q.pop())
            .map(|(t, i)| (t.0, i))
            .collect();
        assert_eq!(
            order,
            [
                (50, 9),
                (100, 0),
                (100, 4),
                (100, 7),
                (100, 10),
                (150, 6),
                (175, 5),
                (250, 3),
                (300, 1)
            ]
        );
    }

    #[test]
    #[should_panic(expected = "under 2^40 events scheduled")]
    fn the_2_pow_40th_schedule_panics() {
        let mut q = EventQueue::new();
        q.next_seq = SEQS - 1;
        q.schedule(SimTime(1), ()); // the last tie-break a key can carry
        q.schedule(SimTime(1), ());
    }
}
