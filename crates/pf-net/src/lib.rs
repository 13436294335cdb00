//! Simulated Ethernet data links and multi-segment topologies.
//!
//! The paper's packet filter "provides a raw interface to Ethernets and
//! similar network data link layers"; its measurements use both the
//! 3 Mbit/s Experimental Ethernet and the 10 Mbit/s standard Ethernet.
//! This crate simulates those links: medium descriptions ([`medium`]),
//! frame encode/decode ([`frame`]), shared-bus segments with address
//! filtering, broadcast/multicast, promiscuous mode, bandwidth-accurate
//! timing, and deterministic fault injection ([`segment`]), plus the
//! [`topology`] layer that wires segments into routed internets of
//! hosts and routers (the forwarding plane itself plugs in through
//! [`topology::Forwarder`]; the IP implementation lives in `pf-proto`).

#![forbid(unsafe_code)]

pub mod fabric;
pub mod frame;
pub mod medium;
pub mod segment;
pub mod topology;

pub use fabric::{FabricAction, FabricEvent, FabricSchedule};
pub use frame::{FrameError, Header};
pub use medium::{Medium, MediumKind};
pub use segment::{
    Delivery, FaultCounters, FaultModel, Network, SegmentId, StationHandle, StationId,
};
pub use topology::{
    Forwarder, ForwarderStats, Interface, LinkId, NodeId, NodeKind, Route, RouteTable, Topology,
    TopologyBuilder,
};
