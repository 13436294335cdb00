//! A gprof-style profiler for virtual CPU time.
//!
//! §6.1 of the paper configured a 4.3BSD kernel "to collect the CPU time
//! spent in and number of calls made to each kernel subroutine" and
//! formatted the result with `gprof`. [`Profiler`] collects the same two
//! quantities per named routine of the simulated kernel, and its report is
//! what the `section_6_1` experiment prints.

use crate::time::SimDuration;
use std::fmt;

/// Per-routine call counts and cumulative virtual CPU time.
///
/// A host charges a dozen or so routines, millions of times, each by a
/// string literal: the table is a short array, and a row is found by the
/// literal's address before its text (two crates may each carry a copy).
#[derive(Debug, Clone)]
pub struct Profiler {
    routines: Vec<(&'static str, RoutineStats)>,
    /// Each literal seen, by address and length, with its row:
    /// open-addressed by the address and probed linearly. Nothing is ever
    /// evicted, so after its first charge a literal is always a hit; past
    /// `MEMO_HELD` literals a new one pays the search on every charge.
    /// Rows never move. Inline and 768 bytes: a `Cpu` of another size
    /// moved where glibc placed a freed `World`'s chunks, and with that
    /// whether it trimmed the heap between two `overload_flood` set-ups
    /// (four to six times the page faults, twice the set-up time).
    memo: [MemoSlot; MEMO_SLOTS],
}

/// One memo entry; `addr` 0 (no literal's) marks it empty.
#[derive(Debug, Clone, Copy)]
struct MemoSlot {
    addr: usize,
    len: u32,
    row: u32,
}

const MEMO_SLOTS: usize = 48;
/// At most three quarters full, so every probe meets an empty slot.
const MEMO_HELD: usize = MEMO_SLOTS / 4 * 3;

/// Where the probe for the literal at `addr` starts: the address, mixed,
/// scaled onto the slots by its top 32 bits.
#[inline]
fn memo_slot(addr: usize) -> usize {
    let mixed = (addr as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (((mixed >> 32) * MEMO_SLOTS as u64) >> 32) as usize
}

/// The slot a probe visits after `slot`.
#[inline]
fn memo_next(slot: usize) -> usize {
    if slot + 1 == MEMO_SLOTS {
        0
    } else {
        slot + 1
    }
}

impl Default for Profiler {
    fn default() -> Self {
        let empty = MemoSlot {
            addr: 0,
            len: 0,
            row: 0,
        };
        Profiler {
            routines: Vec::new(),
            memo: [empty; MEMO_SLOTS],
        }
    }
}

/// Statistics for one profiled routine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoutineStats {
    /// Number of calls recorded.
    pub calls: u64,
    /// Total virtual CPU time.
    pub time: SimDuration,
}

impl RoutineStats {
    /// Mean time per call (zero if never called).
    pub fn per_call(&self) -> SimDuration {
        match self.time.as_nanos().checked_div(self.calls) {
            Some(ns) => SimDuration::from_nanos(ns),
            None => SimDuration::ZERO,
        }
    }
}

impl Profiler {
    /// Creates an empty profiler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `calls` calls costing `time` in all to `routine`'s row. A memo
    /// hit is inlined into the caller; the search is not.
    #[inline]
    fn add(&mut self, routine: &'static str, calls: u64, time: SimDuration) {
        let at = match self.memo_probe(routine) {
            Some(row) => row,
            None => self.find_row(routine),
        };
        let row = &mut self.routines[at].1;
        row.calls += calls;
        row.time += time;
    }

    /// `routine`'s memoised row, if its probe finds it before an empty
    /// slot.
    #[inline]
    fn memo_probe(&self, routine: &'static str) -> Option<usize> {
        let addr = routine.as_ptr() as usize;
        let mut slot = memo_slot(addr);
        loop {
            let m = self.memo[slot];
            if m.addr == addr && m.len as usize == routine.len() {
                return Some(m.row as usize);
            }
            if m.addr == 0 {
                return None;
            }
            slot = memo_next(slot);
        }
    }

    /// `routine`'s row — found by address, then by text, else appended —
    /// memoised while the memo has room.
    #[cold]
    #[inline(never)]
    fn find_row(&mut self, routine: &'static str) -> usize {
        let rows = &mut self.routines;
        let by_address = rows.iter().position(|r| std::ptr::eq(r.0, routine));
        let at = by_address
            .or_else(|| rows.iter().position(|r| r.0 == routine))
            .unwrap_or_else(|| {
                rows.push((routine, RoutineStats::default()));
                rows.len() - 1
            });
        let held = self.memo.iter().filter(|m| m.addr != 0).count();
        let key = (u32::try_from(routine.len()), u32::try_from(at));
        if let ((Ok(len), Ok(row)), true) = (key, held < MEMO_HELD) {
            let addr = routine.as_ptr() as usize;
            let mut slot = memo_slot(addr);
            while self.memo[slot].addr != 0 {
                slot = memo_next(slot);
            }
            self.memo[slot] = MemoSlot { addr, len, row };
        }
        at
    }

    /// Records one call to `routine` costing `time`.
    #[inline]
    pub fn record(&mut self, routine: &'static str, time: SimDuration) {
        self.add(routine, 1, time);
    }

    /// Statistics for one routine (zeroes if never recorded).
    pub fn stats(&self, routine: &str) -> RoutineStats {
        let row = self.routines.iter().find(|(name, _)| *name == routine);
        row.map_or_else(RoutineStats::default, |(_, s)| *s)
    }

    /// Rows whose routine name starts with `prefix`.
    fn with_prefix<'a>(&'a self, prefix: &'a str) -> impl Iterator<Item = &'a RoutineStats> {
        let rows = self.routines.iter();
        rows.filter(move |(name, _)| name.starts_with(prefix))
            .map(|(_, s)| s)
    }

    /// Total time across routines whose name starts with `prefix`.
    pub fn time_with_prefix(&self, prefix: &str) -> SimDuration {
        SimDuration::from_nanos(self.with_prefix(prefix).map(|s| s.time.as_nanos()).sum())
    }

    /// Total calls across routines whose name starts with `prefix`.
    pub fn calls_with_prefix(&self, prefix: &str) -> u64 {
        self.with_prefix(prefix).map(|s| s.calls).sum()
    }

    /// Total recorded virtual CPU time.
    pub fn total_time(&self) -> SimDuration {
        self.time_with_prefix("")
    }

    /// All routines, sorted by descending cumulative time (the gprof flat
    /// profile ordering).
    pub fn flat_profile(&self) -> Vec<(&'static str, RoutineStats)> {
        let mut v = self.routines.clone();
        v.sort_by(|a, b| b.1.time.cmp(&a.1.time).then(a.0.cmp(b.0)));
        v
    }

    /// Merges another profiler's samples into this one.
    pub fn merge(&mut self, other: &Profiler) {
        for (name, s) in &other.routines {
            self.add(name, s.calls, s.time);
        }
    }
}

impl fmt::Display for Profiler {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let total = self.total_time();
        writeln!(
            f,
            "{:>6}  {:>12}  {:>10}  {:>10}  routine",
            "%time", "cumulative", "calls", "ms/call"
        )?;
        for (name, s) in self.flat_profile() {
            let pct = if total.as_nanos() == 0 {
                0.0
            } else {
                100.0 * s.time.as_nanos() as f64 / total.as_nanos() as f64
            };
            writeln!(
                f,
                "{:>5.1}%  {:>9.3} ms  {:>10}  {:>10.3}  {}",
                pct,
                s.time.as_millis_f64(),
                s.calls,
                s.per_call().as_millis_f64(),
                name
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_aggregates() {
        let mut p = Profiler::new();
        p.record("pf:filter", SimDuration::from_micros(100));
        p.record("pf:filter", SimDuration::from_micros(50));
        p.record("ip:input", SimDuration::from_micros(490));
        let s = p.stats("pf:filter");
        assert_eq!(s.calls, 2);
        assert_eq!(s.time, SimDuration::from_micros(150));
        assert_eq!(s.per_call(), SimDuration::from_micros(75));
        assert_eq!(p.total_time(), SimDuration::from_micros(640));
    }

    #[test]
    fn prefix_aggregation() {
        let mut p = Profiler::new();
        p.record("pf:filter", SimDuration::from_micros(10));
        p.record("pf:input", SimDuration::from_micros(20));
        p.record("ip:input", SimDuration::from_micros(40));
        assert_eq!(p.time_with_prefix("pf:"), SimDuration::from_micros(30));
        assert_eq!(p.calls_with_prefix("pf:"), 2);
    }

    #[test]
    fn flat_profile_sorted_by_time() {
        let mut p = Profiler::new();
        p.record("small", SimDuration::from_micros(1));
        p.record("big", SimDuration::from_micros(100));
        let flat = p.flat_profile();
        assert_eq!(flat[0].0, "big");
        assert_eq!(flat[1].0, "small");
    }

    #[test]
    fn unknown_routine_is_zero() {
        let p = Profiler::new();
        assert_eq!(p.stats("nothing"), RoutineStats::default());
        assert_eq!(p.stats("nothing").per_call(), SimDuration::ZERO);
    }

    #[test]
    fn merge_adds() {
        let mut a = Profiler::new();
        a.record("x", SimDuration::from_micros(5));
        let mut b = Profiler::new();
        b.record("x", SimDuration::from_micros(7));
        b.record("y", SimDuration::from_micros(1));
        a.merge(&b);
        assert_eq!(a.stats("x").time, SimDuration::from_micros(12));
        assert_eq!(a.stats("y").calls, 1);
    }

    /// `n` four-byte routines cut from one leaked string: distinct texts
    /// at addresses four bytes apart.
    fn cut_routines(n: usize) -> Vec<&'static str> {
        let names: String = (0..n).map(|i| format!("{i:03}:")).collect();
        let names: &'static str = Box::leak(names.into_boxed_str());
        (0..n).map(|i| &names[4 * i..4 * i + 4]).collect()
    }

    #[test]
    fn one_text_at_two_addresses_is_one_row() {
        // Two crates each carry their own copy of a literal.
        const TWICE: &str = "pf:filter|pf:filter";
        let (a, b) = (&TWICE[..9], &TWICE[10..]);
        assert!(a == b && !std::ptr::eq(a, b));
        let mut p = Profiler::new();
        for _ in 0..3 {
            p.record(a, SimDuration::from_micros(2));
            p.record(b, SimDuration::from_micros(5));
        }
        assert_eq!(p.flat_profile().len(), 1);
        assert_eq!(p.stats("pf:filter").calls, 6);
        assert_eq!(p.stats("pf:filter").time, SimDuration::from_micros(21));
    }

    #[test]
    fn routines_sharing_a_memo_slot_keep_exact_rows() {
        // As many as the memo holds, two of which start their probe at one
        // slot.
        let pool = &cut_routines(400);
        let start = |r: &str| memo_slot(r.as_ptr() as usize);
        let (a, b) = (0..pool.len())
            .flat_map(|i| (0..i).map(move |j| (pool[i], pool[j])))
            .find(|&(a, b)| start(a) == start(b))
            .expect("a pair whose probes start at one slot");
        let others = pool.iter().filter(|&&r| r != a && r != b);
        let routines: Vec<&'static str> = [a, b]
            .into_iter()
            .chain(others.copied())
            .take(MEMO_HELD)
            .collect();
        let mut p = Profiler::new();
        // Interleaved, so routines whose probes start at one slot
        // alternate on every round.
        for round in 1..=5u64 {
            for (i, r) in routines.iter().enumerate() {
                p.record(r, SimDuration::from_nanos(round * (i as u64 + 1)));
            }
        }
        assert!(
            routines.iter().all(|r| p.memo_probe(r).is_some()),
            "no literal was evicted"
        );
        for (i, r) in routines.iter().enumerate() {
            let s = p.stats(r);
            assert_eq!(s.calls, 5, "{r}");
            assert_eq!(s.time, SimDuration::from_nanos(15 * (i as u64 + 1)), "{r}");
        }
        assert_eq!(p.flat_profile().len(), routines.len());
    }

    #[test]
    fn the_memo_stays_768_bytes() {
        assert_eq!(std::mem::size_of::<[MemoSlot; MEMO_SLOTS]>(), 768);
    }

    #[test]
    fn literals_past_the_memo_and_prefixes_keep_exact_rows() {
        // More literals than the memo holds: the rest pay the search.
        let routines = cut_routines(100);
        // First, a literal and its own prefix: one address, two texts.
        const FILTER: &str = "pf:filter";
        let all: Vec<&'static str> = [FILTER, &FILTER[..4]].into_iter().chain(routines).collect();
        let mut p = Profiler::new();
        for round in 1..=3u64 {
            for r in &all {
                p.record(r, SimDuration::from_nanos(round));
            }
        }
        let held: Vec<bool> = all.iter().map(|r| p.memo_probe(r).is_some()).collect();
        assert!(held[0] && held[1], "both memoised");
        assert_eq!(held.iter().filter(|&&h| h).count(), MEMO_HELD);
        for r in &all {
            assert_eq!(p.stats(r).calls, 3, "{r}");
            assert_eq!(p.stats(r).time, SimDuration::from_nanos(6), "{r}");
        }
        assert_eq!(p.flat_profile().len(), 102);
    }

    #[test]
    fn merge_and_clone_of_a_memoised_profiler_agree_with_stats() {
        let routines = cut_routines(40);
        let mut a = Profiler::new();
        let mut b = Profiler::new();
        for (i, r) in routines.iter().enumerate() {
            a.record(r, SimDuration::from_nanos(i as u64));
            // The other way round, so `b`'s rows and memo differ from `a`'s.
            b.record(routines[routines.len() - 1 - i], SimDuration::from_nanos(7));
        }
        let mut copy = a.clone();
        copy.merge(&b);
        // The clone's memo is its own: charging it leaves `a` alone.
        copy.record(routines[0], SimDuration::from_nanos(100));
        for (i, r) in routines.iter().enumerate() {
            let extra = if i == 0 { (1, 100) } else { (0, 0) };
            assert_eq!(a.stats(r).calls, 1);
            assert_eq!(copy.stats(r).calls, 2 + extra.0, "{r}");
            let want = i as u64 + 7 + extra.1;
            assert_eq!(copy.stats(r).time, SimDuration::from_nanos(want), "{r}");
        }
        assert_eq!(
            copy.total_time(),
            a.total_time() + b.total_time() + SimDuration::from_nanos(100)
        );
    }

    #[test]
    fn display_contains_headers() {
        let mut p = Profiler::new();
        p.record("pf:filter", SimDuration::from_micros(100));
        let s = p.to_string();
        assert!(s.contains("%time"));
        assert!(s.contains("pf:filter"));
    }
}
