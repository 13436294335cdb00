//! The simulated 4.3BSD-like host and its packet-filter pseudo-device.
//!
//! This crate is the paper's §4 ("Implementation") plus the operating
//! system around it, rebuilt on the `pf-sim` substrate:
//!
//! * [`device`] — the packet-filter character-special device: ports,
//!   per-filter priorities, the figure 4-1 demultiplexing loop and the
//!   two compiled sets that can stand in for it ([`DemuxEngine`]: the §7
//!   decision table and the geometric classifier, one per-packet path
//!   through each), adaptive same-priority reordering, bounded per-port
//!   input queues, the deliver-to-lower-priority option;
//! * [`world`] — hosts, user processes, the event loop, and the system
//!   call surface (open/close/read/write/ioctl on packet-filter ports,
//!   pipes, timers, signals, kernel sockets), all charged against the
//!   calibrated cost model;
//! * [`rss`] — receive-side scaling: the cores of a host, which frame and
//!   which process each one is charged for;
//! * [`app`] — the event-driven user-process trait;
//! * [`kproto`] — the hook kernel-resident protocols (in `pf-proto`)
//!   implement, so both networking models coexist as in figure 3-3.

#![forbid(unsafe_code)]

pub mod app;
pub mod device;
pub mod kproto;
pub mod rss;
pub mod types;
pub mod world;

pub use app::App;
pub use device::{
    AdmissionConfig, AdmissionQuota, AdmissionVerdict, DemuxEngine, EngineStats, PfDevice, PortIdx,
};
pub use kproto::KernelProtocol;
pub use pf_sim::SimClock;
pub use rss::RssConfig;
pub use types::{
    BlockPolicy, Fd, HostId, PipeId, PortConfig, ProcId, ReadError, ReadMode, RecvPacket, RouterId,
    SockId, TimerId,
};
pub use world::{
    KernelCtx, OverloadConfig, ProcCtx, RouterCounters, SendError, World, DEFAULT_NIC_CAPACITY,
};
