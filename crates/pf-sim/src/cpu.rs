//! Single-CPU serialization of virtual work.
//!
//! Every host in the simulation has one processor (the paper's VAXes did,
//! too, except the Pyramid port) unless it is given one per receive queue,
//! each a [`Cpu`] of its own. Work items — interrupt service, filter
//! interpretation, copies, protocol processing — execute serially: a work
//! item requested at time *t* starts at `max(t, cpu_free)` and completes
//! `cost` later. This is what makes throughput experiments (tables 6-3
//! through 6-9) come out right: when packets arrive faster than the
//! per-packet CPU cost, the CPU saturates and the completion rate, not the
//! arrival rate, limits throughput.

use crate::profile::Profiler;
use crate::time::{SimDuration, SimTime};

/// A single simulated CPU with a profiler attached.
#[derive(Debug, Default)]
pub struct Cpu {
    free_at: SimTime,
    busy: SimDuration,
    profiler: Profiler,
}

impl Cpu {
    /// A CPU idle since time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Charges `cost` of work for `routine`, requested at `now`.
    ///
    /// Returns the completion time: `max(now, free) + cost`. Schedule any
    /// dependent event at the returned time.
    #[inline]
    pub fn charge(&mut self, routine: &'static str, now: SimTime, cost: SimDuration) -> SimTime {
        let start = now.max(self.free_at);
        self.free_at = start + cost;
        self.busy += cost;
        self.profiler.record(routine, cost);
        self.free_at
    }

    /// When the CPU next becomes idle.
    pub fn free_at(&self) -> SimTime {
        self.free_at
    }

    /// Total busy time accumulated.
    pub fn busy_time(&self) -> SimDuration {
        self.busy
    }

    /// Utilization over the interval `[0, now]` (clamped to 1.0).
    pub fn utilization(&self, now: SimTime) -> f64 {
        if now.as_nanos() == 0 {
            0.0
        } else {
            (self.busy.as_nanos() as f64 / now.as_nanos() as f64).min(1.0)
        }
    }

    /// The attached profiler.
    pub fn profiler(&self) -> &Profiler {
        &self.profiler
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serializes_work() {
        let mut cpu = Cpu::new();
        let t1 = cpu.charge("a", SimTime(0), SimDuration::from_micros(100));
        assert_eq!(t1, SimTime(100_000));
        // Requested before the CPU is free: queues behind.
        let t2 = cpu.charge("b", SimTime(50_000), SimDuration::from_micros(100));
        assert_eq!(t2, SimTime(200_000));
        // Requested after the CPU is free: starts immediately.
        let t3 = cpu.charge("c", SimTime(500_000), SimDuration::from_micros(10));
        assert_eq!(t3, SimTime(510_000));
    }

    #[test]
    fn tracks_busy_and_utilization() {
        let mut cpu = Cpu::new();
        cpu.charge("a", SimTime(0), SimDuration::from_micros(300));
        cpu.charge("a", SimTime(0), SimDuration::from_micros(200));
        assert_eq!(cpu.busy_time(), SimDuration::from_micros(500));
        let u = cpu.utilization(SimTime(1_000_000));
        assert!((u - 0.5).abs() < 1e-9, "{u}");
        assert_eq!(cpu.utilization(SimTime::ZERO), 0.0);
    }

    #[test]
    fn profiles_by_routine() {
        let mut cpu = Cpu::new();
        cpu.charge("pf:filter", SimTime(0), SimDuration::from_micros(28));
        cpu.charge("pf:filter", SimTime(0), SimDuration::from_micros(28));
        assert_eq!(cpu.profiler().stats("pf:filter").calls, 2);
    }
}
