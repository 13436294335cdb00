//! Deterministic future event list with two interchangeable backends.
//!
//! Events fire in timestamp order; events with equal timestamps fire in
//! the order they were scheduled (a monotonic sequence number breaks
//! ties), so every simulation run is exactly reproducible. The ordering
//! contract is identical under both backends:
//!
//! * [`QueueBackend::Calendar`] (the default) — a calendar queue after
//!   Brown (CACM 1988): a power-of-two array of time-bucketed bins, each
//!   holding a small binary heap. `schedule` is O(1) amortized and `pop`
//!   is O(1) when the event population is dense in time (the common case
//!   for packet workloads: every in-flight frame has a near-future
//!   arrival). Because two events with equal timestamps always land in
//!   the same bucket, the per-bucket heap's `(time, seq)` order *is* the
//!   global order — the tie-break is preserved exactly.
//! * [`QueueBackend::Heap`] — the classic global `BinaryHeap`, O(log n)
//!   per operation. Kept as the reference implementation for
//!   differential tests and as the comparison arm of `bench_net`'s
//!   event-core sweep.
//!
//! Payloads sit in a slab and the backends order 24-byte `(time, seq,
//! slot)` keys. A slot is stamped with the `seq` of the event it holds, so
//! a key or an [`EventHandle`] names a live event exactly when its slot
//! still carries its `seq` *and* a payload. Cancelling drops the payload
//! and frees the slot at once; the key stays as a counted tombstone until
//! it surfaces at `pop`/`peek_time`. When tombstones outnumber live keys
//! the queue compacts in O(n), so a schedule/cancel churn loop holds memory
//! proportional to the *live* population, not the all-time schedule count.

use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Handle to a scheduled event, usable for cancellation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventHandle {
    seq: u64,
    slot: u32,
}

/// Which storage strategy an [`EventQueue`] uses. The observable
/// pop-stream is identical; only the cost profile differs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum QueueBackend {
    /// Bucketed calendar queue: O(1) amortized when events are dense in
    /// time, degrades toward a bucket scan when they are sparse.
    #[default]
    Calendar,
    /// Single global binary heap: O(log n) always.
    Heap,
}

impl QueueBackend {
    /// Short stable name, used as the backend label in bench artifacts.
    pub fn name(self) -> &'static str {
        match self {
            QueueBackend::Calendar => "calendar",
            QueueBackend::Heap => "heap",
        }
    }
}

/// What the backends order, by field: firing time, tie-break, slab slot.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    at: SimTime,
    seq: u64,
    slot: u32,
}

/// `BinaryHeap` is a max-heap; reversed keys make it earliest-first.
type MinHeap = BinaryHeap<Reverse<Key>>;

/// A slab entry: event `seq`'s payload until it fires or is cancelled.
struct Slot<E> {
    seq: u64,
    event: Option<E>,
}

/// Smallest bucket count the calendar shrinks to.
const MIN_BUCKETS: usize = 16;
/// Largest bucket count the calendar grows to.
const MAX_BUCKETS: usize = 1 << 20;
/// Bucket-width ceiling (ns). Keeps the year-scan window arithmetic far
/// from u64 overflow even with a million buckets.
const MAX_WIDTH: u64 = 1 << 40;
/// Bucket width before the first rebuild gives a sample to estimate
/// from: ~1 µs, matching the cost model's typical event spacing.
const INITIAL_WIDTH: u64 = 1_024;

struct Calendar {
    buckets: Vec<MinHeap>,
    /// Nanoseconds of simulated time per bucket (`>= 1`).
    width: u64,
    /// Total stored keys (tombstones included).
    len: usize,
    /// Bucket the dequeue scan starts from.
    cur_slot: usize,
    /// Exclusive upper bound of `cur_slot`'s current one-year window.
    cur_top: u64,
    /// Where `peek` found the minimum, for the `pop_min` that follows it.
    found: Option<usize>,
}

impl Calendar {
    fn new() -> Self {
        Calendar {
            buckets: (0..MIN_BUCKETS).map(|_| BinaryHeap::new()).collect(),
            width: INITIAL_WIDTH,
            len: 0,
            cur_slot: 0,
            cur_top: INITIAL_WIDTH,
            found: None,
        }
    }

    fn slot_of(&self, at: u64) -> usize {
        ((at / self.width) as usize) & (self.buckets.len() - 1)
    }

    /// Exclusive top of the bucket window containing `at`.
    fn window_top(&self, at: u64) -> u64 {
        (at / self.width)
            .saturating_add(1)
            .saturating_mul(self.width)
    }

    fn push(&mut self, k: Key) {
        let slot = self.slot_of(k.at.0);
        // The dequeue scan assumes every stored time is at or after the
        // cursor window's start. An insert earlier than that (legal any
        // time `now` trails the stored minimum) pulls the cursor back to
        // its own window, re-establishing the invariant.
        if k.at.0 < self.cur_top.saturating_sub(self.width) {
            self.cur_slot = slot;
            self.cur_top = self.window_top(k.at.0);
        }
        self.buckets[slot].push(Reverse(k));
        self.len += 1;
        self.found = None; // the new key may be the minimum
        if self.len > 2 * self.buckets.len() && self.buckets.len() < MAX_BUCKETS {
            self.rebuild(|_| true);
        }
    }

    /// Bucket holding the globally-minimal `(time, seq)` key.
    ///
    /// Scans one "year" (every bucket once) from the cursor, accepting a
    /// bucket top only if it falls inside that bucket's current window —
    /// a key in a later year waits for a later lap. If a whole year
    /// turns up nothing (sparse population), falls back to a direct
    /// search over all bucket tops: the documented heap-like degradation
    /// mode.
    fn min_slot(&self) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        let n = self.buckets.len();
        let mut slot = self.cur_slot;
        let mut top = self.cur_top;
        for _ in 0..n {
            if self.buckets[slot].peek().is_some_and(|k| k.0.at.0 < top) {
                return Some(slot);
            }
            slot = (slot + 1) & (n - 1);
            top = top.saturating_add(self.width);
        }
        let tops = self.buckets.iter().enumerate();
        tops.filter_map(|(i, b)| Some((b.peek()?.0, i)))
            .min()
            .map(|(_, i)| i)
    }

    fn peek(&mut self) -> Option<Key> {
        self.found = self.min_slot();
        self.buckets[self.found?].peek().map(|k| k.0)
    }

    fn pop_min(&mut self) -> Option<Key> {
        let slot = self.found.take().or_else(|| self.min_slot())?;
        let k = self.buckets[slot]
            .pop()
            .expect("min_slot bucket nonempty")
            .0;
        self.len -= 1;
        self.cur_slot = slot;
        self.cur_top = self.window_top(k.at.0);
        if self.len < self.buckets.len() / 4 && self.buckets.len() > MIN_BUCKETS {
            self.rebuild(|_| true);
        }
        Some(k)
    }

    /// Re-buckets the keys `keep` passes into a calendar sized and widthed
    /// for them. O(n), but every threshold crossing that triggers it moved
    /// Ω(n) keys, so the amortized cost per operation stays O(1).
    fn rebuild(&mut self, keep: impl Fn(&Key) -> bool) {
        let old = std::mem::take(&mut self.buckets).into_iter().flatten();
        let keys: Vec<Key> = old.map(|k| k.0).filter(keep).collect();
        let n = keys
            .len()
            .next_power_of_two()
            .clamp(MIN_BUCKETS, MAX_BUCKETS);
        self.width = estimate_width(&keys);
        self.buckets = (0..n).map(|_| BinaryHeap::new()).collect();
        self.len = keys.len();
        self.found = None;
        // Restart the scan at the earliest key's own window: every stored
        // time is >= it, so nothing hides behind the cursor.
        let min = keys.iter().map(|k| k.at.0).min().unwrap_or(0);
        for k in keys {
            let slot = self.slot_of(k.at.0);
            self.buckets[slot].push(Reverse(k));
        }
        self.cur_slot = self.slot_of(min);
        self.cur_top = self.window_top(min);
    }
}

/// Bucket width ≈ 3× the mean inter-event gap, estimated from a
/// deterministic sample's interquartile span (robust to a few outliers
/// at either extreme). Brown's rule of thumb: a handful of events per
/// bucket keeps both the per-bucket heaps and the year scan short.
fn estimate_width(keys: &[Key]) -> u64 {
    if keys.len() < 2 {
        return INITIAL_WIDTH;
    }
    let m = keys.len().min(64);
    let stride = keys.len() / m;
    let mut sample: Vec<u64> = (0..m).map(|i| keys[i * stride].at.0).collect();
    sample.sort_unstable();
    let lo = sample[m / 4];
    let hi = sample[(3 * m) / 4];
    // The middle half of the sample spans roughly half the population.
    let gap = (hi - lo) / ((keys.len() as u64) / 2).max(1);
    (3 * gap).clamp(1, MAX_WIDTH)
}

enum Store {
    Heap(MinHeap),
    Calendar(Calendar),
}

impl Store {
    fn len(&self) -> usize {
        match self {
            Store::Heap(h) => h.len(),
            Store::Calendar(c) => c.len,
        }
    }

    fn push(&mut self, k: Key) {
        match self {
            Store::Heap(h) => h.push(Reverse(k)),
            Store::Calendar(c) => c.push(k),
        }
    }

    fn peek(&mut self) -> Option<Key> {
        match self {
            Store::Heap(h) => h.peek().map(|k| k.0),
            Store::Calendar(c) => c.peek(),
        }
    }

    fn pop_min(&mut self) -> Option<Key> {
        match self {
            Store::Heap(h) => h.pop().map(|k| k.0),
            Store::Calendar(c) => c.pop_min(),
        }
    }

    /// Drops every key `keep` rejects.
    fn retain(&mut self, keep: impl Fn(&Key) -> bool) {
        match self {
            Store::Heap(h) => h.retain(|k| keep(&k.0)),
            Store::Calendar(c) => c.rebuild(keep),
        }
    }
}

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
    store: Store,
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
    /// Creates an empty queue at time zero on the default backend.
    pub fn new() -> Self {
        Self::with_backend(QueueBackend::default())
    }

    /// Creates an empty queue on an explicitly chosen backend.
    pub fn with_backend(backend: QueueBackend) -> Self {
        let store = match backend {
            QueueBackend::Heap => Store::Heap(BinaryHeap::new()),
            QueueBackend::Calendar => Store::Calendar(Calendar::new()),
        };
        EventQueue {
            store,
            slots: Vec::new(),
            free: Vec::new(),
            tombstones: 0,
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// Which backend this queue stores events in.
    pub fn backend(&self) -> QueueBackend {
        match self.store {
            Store::Heap(_) => QueueBackend::Heap,
            Store::Calendar(_) => QueueBackend::Calendar,
        }
    }

    /// The timestamp of the most recently popped event (the current virtual
    /// time).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// Scheduling in the past is clamped to the current time: the event
    /// fires next, preserving determinism rather than panicking (callers
    /// computing `now + cost` never hit this; it guards direct misuse).
    pub fn schedule(&mut self, at: SimTime, event: E) -> EventHandle {
        let at = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slots.push(Slot { seq, event: None });
            u32::try_from(self.slots.len() - 1).expect("under 2^32 events pending at once")
        });
        self.slots[slot as usize] = Slot {
            seq,
            event: Some(event),
        };
        self.store.push(Key { at, seq, slot });
        EventHandle { seq, slot }
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
        while let Some(k) = self.store.pop_min() {
            if let Some(event) = self.take(k.seq, k.slot) {
                self.now = k.at;
                return Some((k.at, event));
            }
            self.tombstones -= 1;
        }
        None
    }

    fn is_live(slots: &[Slot<E>], k: &Key) -> bool {
        let s = &slots[k.slot as usize];
        s.seq == k.seq && s.event.is_some()
    }

    /// The timestamp of the next pending event, if any.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        // Pop tombstones off the front first.
        loop {
            let k = self.store.peek()?;
            if Self::is_live(&self.slots, &k) {
                return Some(k.at);
            }
            self.store.pop_min();
            self.tombstones -= 1;
        }
    }

    /// Number of pending (non-cancelled) events.
    pub fn len(&self) -> usize {
        self.store.len() - self.tombstones
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Keys physically stored, *including* tombstones not yet reclaimed.
    /// Exposed so tests can pin that schedule/cancel churn keeps storage
    /// proportional to the live population.
    pub fn stored_len(&self) -> usize {
        self.store.len()
    }

    /// Drops the tombstones once they outnumber live keys. Each compaction
    /// removes more than it keeps, so it amortizes to O(1) per cancel.
    fn maybe_compact(&mut self) {
        if self.tombstones <= self.len().max(MIN_BUCKETS) {
            return;
        }
        self.store.retain(|k| Self::is_live(&self.slots, k));
        self.tombstones = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;
    use crate::time::SimDuration;

    fn both_backends() -> [QueueBackend; 2] {
        [QueueBackend::Calendar, QueueBackend::Heap]
    }

    #[test]
    fn default_backend_is_calendar() {
        assert_eq!(EventQueue::<u32>::new().backend(), QueueBackend::Calendar);
    }

    #[test]
    fn orders_by_time() {
        for backend in both_backends() {
            let mut q = EventQueue::with_backend(backend);
            q.schedule(SimTime(30), 3);
            q.schedule(SimTime(10), 1);
            q.schedule(SimTime(20), 2);
            assert_eq!(q.pop(), Some((SimTime(10), 1)));
            assert_eq!(q.pop(), Some((SimTime(20), 2)));
            assert_eq!(q.pop(), Some((SimTime(30), 3)));
            assert_eq!(q.pop(), None);
        }
    }

    #[test]
    fn equal_times_fire_in_schedule_order() {
        for backend in both_backends() {
            let mut q = EventQueue::with_backend(backend);
            for i in 0..100 {
                q.schedule(SimTime(5), i);
            }
            for i in 0..100 {
                assert_eq!(q.pop(), Some((SimTime(5), i)));
            }
        }
    }

    #[test]
    fn now_advances_with_pop() {
        for backend in both_backends() {
            let mut q = EventQueue::with_backend(backend);
            q.schedule(SimTime(42), ());
            assert_eq!(q.now(), SimTime::ZERO);
            q.pop();
            assert_eq!(q.now(), SimTime(42));
        }
    }

    #[test]
    fn past_events_are_clamped() {
        for backend in both_backends() {
            let mut q = EventQueue::with_backend(backend);
            q.schedule(SimTime(100), "a");
            q.pop();
            q.schedule(SimTime(50), "late"); // in the past
            assert_eq!(q.pop(), Some((SimTime(100), "late")));
        }
    }

    #[test]
    fn cancellation() {
        for backend in both_backends() {
            let mut q = EventQueue::with_backend(backend);
            let h1 = q.schedule(SimTime(10), 1);
            let h2 = q.schedule(SimTime(20), 2);
            assert!(q.cancel(h1));
            assert!(!q.cancel(h1), "double cancel reports false");
            assert_eq!(q.len(), 1);
            assert_eq!(q.peek_time(), Some(SimTime(20)));
            assert_eq!(q.pop(), Some((SimTime(20), 2)));
            assert!(!q.cancel(h2), "already fired");
        }
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        for backend in both_backends() {
            let mut q = EventQueue::with_backend(backend);
            q.schedule(SimTime(10), 1);
            assert_eq!(q.pop(), Some((SimTime(10), 1)));
            q.schedule(q.now() + SimDuration::from_nanos(5), 2);
            assert_eq!(q.pop(), Some((SimTime(15), 2)));
        }
    }

    #[test]
    fn calendar_survives_growth_and_drain_of_a_large_population() {
        let mut q = EventQueue::with_backend(QueueBackend::Calendar);
        let mut rng = SplitMix64::new(7);
        for i in 0..20_000u64 {
            q.schedule(SimTime(rng.below(1 << 32)), i);
        }
        let mut last = SimTime::ZERO;
        let mut n = 0usize;
        while let Some((at, _)) = q.pop() {
            assert!(at >= last, "pops must be time-ordered");
            last = at;
            n += 1;
        }
        assert_eq!(n, 20_000);
    }

    #[test]
    fn calendar_handles_sparse_far_future_events() {
        // Events much farther apart than any bucket year: exercises the
        // direct-search fallback after an empty lap.
        let mut q = EventQueue::with_backend(QueueBackend::Calendar);
        q.schedule(SimTime(1), "near");
        q.schedule(SimTime(3_600_000_000_000), "hour");
        q.schedule(SimTime(86_400_000_000_000), "day");
        assert_eq!(q.pop(), Some((SimTime(1), "near")));
        assert_eq!(q.pop(), Some((SimTime(3_600_000_000_000), "hour")));
        assert_eq!(q.pop(), Some((SimTime(86_400_000_000_000), "day")));
    }

    #[test]
    fn schedule_after_long_idle_advance() {
        // Popping a far-future event moves the calendar cursor a long
        // way; later near-cursor scheduling must still order correctly.
        for backend in both_backends() {
            let mut q = EventQueue::with_backend(backend);
            q.schedule(SimTime(100_000_000_000), "far");
            assert_eq!(q.pop(), Some((SimTime(100_000_000_000), "far")));
            let base = SimTime(100_000_000_000);
            q.schedule(base + SimDuration::from_micros(5), "b");
            q.schedule(base + SimDuration::from_micros(1), "a");
            assert_eq!(q.pop(), Some((base + SimDuration::from_micros(1), "a")));
            assert_eq!(q.pop(), Some((base + SimDuration::from_micros(5), "b")));
        }
    }

    /// The backends must pop byte-identical `(time, value)` streams
    /// under randomized schedule/cancel/peek/pop interleavings — the
    /// deterministic twin of the feature-gated property suite in
    /// tests/properties.rs.
    #[test]
    fn calendar_and_heap_pop_identical_streams() {
        for seed in 0..8u64 {
            let mut cal = EventQueue::with_backend(QueueBackend::Calendar);
            let mut heap = EventQueue::with_backend(QueueBackend::Heap);
            let mut rng = SplitMix64::new(0xD1FF ^ seed);
            let mut handles = Vec::new();
            for i in 0..4_000u64 {
                match rng.below(10) {
                    0..=5 => {
                        let at = SimTime(rng.below(1 << 20));
                        let hc = cal.schedule(at, i);
                        let hh = heap.schedule(at, i);
                        handles.push((hc, hh));
                    }
                    6 => {
                        if !handles.is_empty() {
                            let k = rng.below(handles.len() as u64) as usize;
                            let (hc, hh) = handles.swap_remove(k);
                            assert_eq!(cal.cancel(hc), heap.cancel(hh));
                        }
                    }
                    7 => assert_eq!(cal.peek_time(), heap.peek_time()),
                    _ => assert_eq!(cal.pop(), heap.pop()),
                }
                assert_eq!(cal.len(), heap.len());
                assert_eq!(cal.now(), heap.now());
            }
            loop {
                let (a, b) = (cal.pop(), heap.pop());
                assert_eq!(a, b);
                if a.is_none() {
                    break;
                }
            }
        }
    }

    /// Regression for the unbounded-bookkeeping bug: a schedule/cancel
    /// churn loop must hold storage proportional to the live population,
    /// not the all-time schedule count.
    #[test]
    fn churn_holds_memory_flat() {
        for backend in both_backends() {
            let mut q = EventQueue::with_backend(backend);
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
                    q.stored_len() <= 2 * q.len() + 2 * MIN_BUCKETS,
                    "stored {} entries for {} live after {} churn rounds",
                    q.stored_len(),
                    q.len(),
                    round + 1
                );
            }
        }
    }

    #[test]
    fn len_excludes_cancelled_entries() {
        for backend in both_backends() {
            let mut q = EventQueue::with_backend(backend);
            let a = q.schedule(SimTime(10), ());
            q.schedule(SimTime(20), ());
            assert_eq!(q.len(), 2);
            q.cancel(a);
            assert_eq!(q.len(), 1);
            assert!(!q.is_empty());
        }
    }
}
