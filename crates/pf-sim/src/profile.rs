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
#[derive(Debug, Clone, Default)]
pub struct Profiler {
    routines: Vec<(&'static str, RoutineStats)>,
    /// The row last found for a literal, direct-mapped by its address: a
    /// hit skips the search. Rows never move.
    memo: [Option<(&'static str, u32)>; MEMO_SLOTS],
}

const MEMO_SLOTS: usize = 32;

/// Where `routine` sits in the memo: the top bits of its address, mixed.
#[inline]
fn memo_slot(routine: &'static str) -> usize {
    let mixed = (routine.as_ptr() as usize as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (mixed >> (64 - MEMO_SLOTS.trailing_zeros())) as usize
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
        let slot = memo_slot(routine);
        let at = match self.memo[slot] {
            Some((name, row)) if std::ptr::eq(name, routine) => row as usize,
            _ => self.find_row(routine, slot),
        };
        let row = &mut self.routines[at].1;
        row.calls += calls;
        row.time += time;
    }

    /// `routine`'s row — found by address, then by text, else appended —
    /// memoised in `slot`.
    #[cold]
    #[inline(never)]
    fn find_row(&mut self, routine: &'static str, slot: usize) -> usize {
        let rows = &mut self.routines;
        let by_address = rows.iter().position(|r| std::ptr::eq(r.0, routine));
        let at = by_address
            .or_else(|| rows.iter().position(|r| r.0 == routine))
            .unwrap_or_else(|| {
                rows.push((routine, RoutineStats::default()));
                rows.len() - 1
            });
        self.memo[slot] = Some((routine, at as u32));
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

    /// Forty four-byte routines cut from one literal: distinct texts at
    /// addresses four bytes apart.
    fn cut_routines() -> Vec<&'static str> {
        const NAMES: &str = "r00:r01:r02:r03:r04:r05:r06:r07:r08:r09:\
                             r10:r11:r12:r13:r14:r15:r16:r17:r18:r19:\
                             r20:r21:r22:r23:r24:r25:r26:r27:r28:r29:\
                             r30:r31:r32:r33:r34:r35:r36:r37:r38:r39:";
        (0..40).map(|i| &NAMES[4 * i..4 * i + 4]).collect()
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
        let routines = cut_routines();
        assert!(routines.len() > MEMO_SLOTS, "so two of them share a slot");
        let shared = (0..routines.len())
            .any(|i| (0..i).any(|j| memo_slot(routines[i]) == memo_slot(routines[j])));
        assert!(shared);
        let mut p = Profiler::new();
        // Interleaved, so routines sharing a slot evict each other on
        // every round.
        for round in 1..=5u64 {
            for (i, r) in routines.iter().enumerate() {
                p.record(r, SimDuration::from_nanos(round * (i as u64 + 1)));
            }
        }
        for (i, r) in routines.iter().enumerate() {
            let s = p.stats(r);
            assert_eq!(s.calls, 5, "{r}");
            assert_eq!(s.time, SimDuration::from_nanos(15 * (i as u64 + 1)), "{r}");
        }
        assert_eq!(p.flat_profile().len(), routines.len());
    }

    #[test]
    fn merge_and_clone_of_a_memoised_profiler_agree_with_stats() {
        let routines = cut_routines();
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
