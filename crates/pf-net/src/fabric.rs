//! Routing-plane fault schedules: router crashes, link outages, flaps,
//! and multi-link partitions.
//!
//! The per-segment [`FaultModel`](crate::segment::FaultModel) perturbs
//! individual deliveries; a [`FabricSchedule`] perturbs the *fabric*
//! itself — whole routers fail-stop and recover, whole links go
//! administratively dead and come back. The schedule is pure data
//! (time-sorted [`FabricEvent`]s over topology [`NodeId`]/[`LinkId`]s),
//! so it composes with every per-link fault model: the topology layer
//! carries it as part of the plan and the kernel simulation replays it
//! against the deployed world.
//!
//! Schedules are hand-built (targeted outages, flap trains, partitions):
//! `campaign fabric`'s scenarios write theirs from the ring's node and
//! link ids, so a fault campaign replays bit-identically at a fixed
//! `--seed`.

use pf_sim::time::{SimDuration, SimTime};

use crate::topology::{LinkId, NodeId};

/// One routing-plane state change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FabricAction {
    /// The router fail-stops: it forwards nothing and emits nothing
    /// until a matching [`FabricAction::RouterUp`].
    RouterDown(NodeId),
    /// The router recovers with its forwarder state intact (fail-stop
    /// with stable storage).
    RouterUp(NodeId),
    /// The link goes dead: every delivery on its segment is dropped.
    LinkDown(LinkId),
    /// The link comes back.
    LinkUp(LinkId),
}

/// One scheduled action.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FabricEvent {
    /// When the action takes effect.
    pub at: SimTime,
    /// What happens.
    pub action: FabricAction,
}

/// A deterministic, time-sorted plan of routing-plane faults.
#[derive(Debug, Clone, Default)]
pub struct FabricSchedule {
    events: Vec<FabricEvent>,
}

impl FabricSchedule {
    /// An empty schedule (no routing-plane faults).
    pub fn new() -> Self {
        FabricSchedule::default()
    }

    /// Number of scheduled actions.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the schedule holds no actions.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Adds one action at `at`.
    pub fn push(&mut self, at: SimTime, action: FabricAction) {
        self.events.push(FabricEvent { at, action });
    }

    /// Kills `node` at `down`; recovers it at `up` when given.
    pub fn router_outage(&mut self, node: NodeId, down: SimTime, up: Option<SimTime>) {
        self.push(down, FabricAction::RouterDown(node));
        if let Some(up) = up {
            assert!(up > down, "recovery must follow the crash");
            self.push(up, FabricAction::RouterUp(node));
        }
    }

    /// Takes `link` down at `down`; restores it at `up` when given.
    /// Called by this crate's `tests/fuzz.rs`; `link_flaps` and `partition` build on it.
    pub fn link_outage(&mut self, link: LinkId, down: SimTime, up: Option<SimTime>) {
        self.push(down, FabricAction::LinkDown(link));
        if let Some(up) = up {
            assert!(up > down, "restore must follow the outage");
            self.push(up, FabricAction::LinkUp(link));
        }
    }

    /// A flap train: `cycles` repetitions of down-for-`down_for`,
    /// up-for-`up_for`, starting at `first_down`. The link ends up.
    pub fn link_flaps(
        &mut self,
        link: LinkId,
        first_down: SimTime,
        down_for: SimDuration,
        up_for: SimDuration,
        cycles: u32,
    ) {
        assert!(down_for > SimDuration::ZERO, "a flap must have width");
        let mut t = first_down;
        for _ in 0..cycles {
            self.link_outage(link, t, Some(t + down_for));
            t = t + down_for + up_for;
        }
    }

    /// A multi-link partition: every listed link goes down at `down`
    /// and (when given) heals at `heal`. Cutting a topology's only
    /// inter-region links this way splits the fabric into segments
    /// that cannot reach each other.
    pub fn partition(&mut self, links: &[LinkId], down: SimTime, heal: Option<SimTime>) {
        for &l in links {
            self.link_outage(l, down, heal);
        }
    }

    /// The scheduled events sorted by time (stable: same-instant events
    /// keep insertion order, so "kill then immediately revive" replays
    /// in the order it was written).
    pub fn events(&self) -> Vec<FabricEvent> {
        let mut ev = self.events.clone();
        ev.sort_by_key(|e| e.at);
        ev
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_come_back_time_sorted_and_stable() {
        let mut s = FabricSchedule::new();
        s.router_outage(NodeId(3), SimTime(500), Some(SimTime(900)));
        s.link_outage(LinkId(1), SimTime(100), None);
        s.push(SimTime(500), FabricAction::LinkDown(LinkId(7)));
        let ev = s.events();
        assert_eq!(ev.len(), 4);
        assert_eq!(ev[0].action, FabricAction::LinkDown(LinkId(1)));
        // Same-instant events keep insertion order.
        assert_eq!(ev[1].action, FabricAction::RouterDown(NodeId(3)));
        assert_eq!(ev[2].action, FabricAction::LinkDown(LinkId(7)));
        assert_eq!(ev[3].action, FabricAction::RouterUp(NodeId(3)));
    }

    #[test]
    fn flap_train_alternates_and_ends_up() {
        let mut s = FabricSchedule::new();
        s.link_flaps(
            LinkId(0),
            SimTime(1_000),
            SimDuration::from_nanos(100),
            SimDuration::from_nanos(400),
            3,
        );
        let ev = s.events();
        assert_eq!(ev.len(), 6);
        for (i, e) in ev.iter().enumerate() {
            let expect_down = i % 2 == 0;
            match e.action {
                FabricAction::LinkDown(l) => {
                    assert!(expect_down);
                    assert_eq!(l, LinkId(0));
                }
                FabricAction::LinkUp(l) => {
                    assert!(!expect_down);
                    assert_eq!(l, LinkId(0));
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(ev[5].at, SimTime(1_000 + 3 * 100 + 2 * 400));
    }

    #[test]
    fn partition_cuts_every_listed_link() {
        let mut s = FabricSchedule::new();
        s.partition(&[LinkId(2), LinkId(5)], SimTime(10), Some(SimTime(20)));
        let ev = s.events();
        let downs = ev
            .iter()
            .filter(|e| matches!(e.action, FabricAction::LinkDown(_)))
            .count();
        let ups = ev
            .iter()
            .filter(|e| matches!(e.action, FabricAction::LinkUp(_)))
            .count();
        assert_eq!((downs, ups), (2, 2));
    }
}
