//! The unified run-loop abstraction every simulation driver implements.
//!
//! A driver exposes *one* step of progress plus the time of its next
//! event, and the default `run`/`run_until` methods drive it. `World` —
//! hosts of one core or many, routed topologies, protocol stacks — is the
//! driver, so callers can pause any simulation at a deadline, interleave
//! external actions (fault injection, routing churn), and resume.

use crate::time::SimTime;

/// A simulation that advances one discrete event at a time.
///
/// Implementors supply [`now`](SimClock::now),
/// [`next_event_time`](SimClock::next_event_time), and
/// [`step`](SimClock::step); the `run`/`run_until` drivers come for
/// free and behave identically across every implementor.
pub trait SimClock {
    /// Current virtual time: the timestamp of the last processed event.
    fn now(&self) -> SimTime;

    /// Timestamp of the next event, or `None` when the simulation has
    /// quiesced. Takes `&mut self` because lazily-cancelled queue
    /// entries are reclaimed while peeking.
    fn next_event_time(&mut self) -> Option<SimTime>;

    /// Process exactly one event. Returns `false` when there was
    /// nothing left to do (the clock did not advance).
    fn step(&mut self) -> bool;

    /// Run until no events remain; returns the final virtual time.
    fn run(&mut self) -> SimTime {
        while self.step() {}
        self.now()
    }

    /// Run while the next event is at or before `deadline`; returns the
    /// virtual time reached. Events after the deadline stay queued, so
    /// the simulation can be resumed (possibly after mutating it — this
    /// is how routing churn and fault windows are injected mid-run).
    fn run_until(&mut self, deadline: SimTime) -> SimTime {
        while let Some(t) = self.next_event_time() {
            if t > deadline {
                break;
            }
            self.step();
        }
        self.now()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::EventQueue;

    /// Minimal driver: pops integers off a queue and sums them.
    struct Toy {
        events: EventQueue<u64>,
        sum: u64,
    }

    impl SimClock for Toy {
        fn now(&self) -> SimTime {
            self.events.now()
        }
        fn next_event_time(&mut self) -> Option<SimTime> {
            self.events.peek_time()
        }
        fn step(&mut self) -> bool {
            match self.events.pop() {
                Some((_, v)) => {
                    self.sum += v;
                    true
                }
                None => false,
            }
        }
    }

    #[test]
    fn run_drains_everything() {
        let mut toy = Toy {
            events: EventQueue::new(),
            sum: 0,
        };
        for i in 1..=4 {
            toy.events.schedule(SimTime(i * 100), i);
        }
        assert_eq!(toy.run(), SimTime(400));
        assert_eq!(toy.sum, 10);
        assert!(!toy.step(), "drained clock reports no progress");
    }

    #[test]
    fn run_until_stops_at_the_deadline_and_resumes() {
        let mut toy = Toy {
            events: EventQueue::new(),
            sum: 0,
        };
        for i in 1..=4 {
            toy.events.schedule(SimTime(i * 100), i);
        }
        assert_eq!(toy.run_until(SimTime(250)), SimTime(200));
        assert_eq!(toy.sum, 3, "only events at or before the deadline ran");
        // Mutate mid-run (what churn injection does), then resume.
        toy.events.schedule(SimTime(300), 10);
        assert_eq!(toy.run(), SimTime(400));
        assert_eq!(toy.sum, 20);
    }

    #[test]
    fn run_until_includes_events_exactly_at_the_deadline() {
        let mut toy = Toy {
            events: EventQueue::new(),
            sum: 0,
        };
        toy.events.schedule(SimTime(100), 1);
        toy.events.schedule(SimTime(200), 2);
        assert_eq!(toy.run_until(SimTime(200)), SimTime(200));
        assert_eq!(toy.sum, 3);
    }
}
