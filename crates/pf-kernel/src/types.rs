//! Identifiers and small value types shared across the simulated kernel.

use pf_sim::time::{SimDuration, SimTime};

/// A simulated host (one machine on the network).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HostId(pub usize);

/// A simulated router node (a kernel-resident packet switch with no user
/// processes, forwarding between its attached segments).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RouterId(pub usize);

/// A simulated user process on some host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProcId(pub usize);

/// A file descriptor naming an open packet-filter port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fd(pub usize);

/// A kernel-protocol socket descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SockId(pub usize);

/// A pipe descriptor (the user-level demultiplexing experiments' IPC).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PipeId(pub usize);

/// A pending-timer handle: the timer's event in the queue, whose stamp makes
/// the handle of a fired or cancelled timer name nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerId(pub(crate) pf_sim::queue::EventHandle);

/// How a `read` on a packet-filter port behaves when packets are queued.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReadMode {
    /// Return the first queued packet only.
    #[default]
    Single,
    /// Return all queued packets in one system call (§3: "this is useful
    /// for high-volume communications because it can amortize the overhead
    /// of performing a system call over several packets").
    Batch,
}

/// How a `read` behaves when *no* packets are queued (§3.3: "the timeout
/// duration for blocking reads (or optionally, immediate return or
/// indefinite blocking)").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BlockPolicy {
    /// Block until a packet arrives.
    #[default]
    Blocking,
    /// Block, but fail with a timeout error after this long.
    Timeout(SimDuration),
    /// Return a would-block error immediately.
    NonBlocking,
}

/// What to do when a packet arrives at a full per-port input queue.
///
/// §3.3 only specifies *that* overflows drop and are counted; which end of
/// the queue loses is a policy choice. Drop-tail keeps the oldest packets
/// (a reader catching up sees history); drop-oldest keeps the newest (a
/// monitor sampling current traffic prefers recency).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverflowPolicy {
    /// Reject the arriving packet; the queue is unchanged.
    #[default]
    DropTail,
    /// Evict the oldest queued packet to make room for the arrival.
    DropOldest,
}

/// Per-port status snapshot (§3.3's status information, extended with the
/// degradation counters).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PortStats {
    /// Packets dropped at this port's queue (overflow, either policy).
    pub drops: u64,
    /// Packets this port's filter accepted.
    pub accepts: u64,
    /// Packets currently queued awaiting a read.
    pub queued: usize,
    /// Whether the port's filter is quarantined (served by the checked
    /// interpreter instead of the compiled engines).
    pub quarantined: bool,
    /// Filter evaluations terminated by the instruction budget.
    pub budget_overruns: u64,
    /// Packets classified to this port but shed by the admission gate
    /// before demultiplexing (drop-at-NIC; `drops` counts drop-after-demux
    /// queue overflows).
    /// Part of ROADMAP item 2(a)'s drop ledger; read by `tests/overload.rs`.
    pub admission_drops: u64,
}

/// Per-port configuration (§3.3's control information).
#[derive(Debug, Clone, Copy)]
pub struct PortConfig {
    /// Read batching mode.
    pub read_mode: ReadMode,
    /// Behavior of reads on an empty queue.
    pub block: BlockPolicy,
    /// Maximum length of the per-port input queue.
    pub max_queue: usize,
    /// Which packet loses when the queue is full.
    pub overflow: OverflowPolicy,
    /// Deliver packets accepted by this port's filter to lower-priority
    /// filters as well (§3.2's monitoring/multicast option).
    pub deliver_to_lower: bool,
    /// Deliver a signal to the owning process upon packet reception.
    /// Public so that other crates build a `PortConfig` with `..Default::default()`.
    pub signal_on_input: bool,
    /// Mark each received packet with a timestamp (costs `microtime`).
    pub timestamp: bool,
    /// Queue depth at which the kernel notifies the owning process of
    /// backpressure (once per crossing; re-armed when the queue drains
    /// below the mark). `None` disables the notification.
    pub backpressure_mark: Option<usize>,
}

impl Default for PortConfig {
    fn default() -> Self {
        PortConfig {
            read_mode: ReadMode::Single,
            block: BlockPolicy::Blocking,
            max_queue: 32,
            overflow: OverflowPolicy::DropTail,
            deliver_to_lower: false,
            signal_on_input: false,
            timestamp: false,
            backpressure_mark: None,
        }
    }
}

/// A packet as delivered to a user process (§3.3: optionally marked with a
/// timestamp and a count of packets lost to queue overflows).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecvPacket {
    /// The complete packet, including the data-link header.
    pub bytes: Vec<u8>,
    /// Arrival timestamp, if the port requested stamping.
    pub stamp: Option<SimTime>,
    /// Packets this port had dropped (queue overflow) before this one.
    pub dropped_before: u64,
}

/// Why a read completed without data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadError {
    /// The configured timeout expired with no packet.
    TimedOut,
    /// The port is non-blocking and the queue was empty.
    WouldBlock,
}

impl core::fmt::Display for ReadError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ReadError::TimedOut => write!(f, "read timed out"),
            ReadError::WouldBlock => write!(f, "would block"),
        }
    }
}

impl std::error::Error for ReadError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_defaults() {
        let c = PortConfig::default();
        assert_eq!(c.read_mode, ReadMode::Single);
        assert_eq!(c.block, BlockPolicy::Blocking);
        assert_eq!(c.overflow, OverflowPolicy::DropTail);
        assert!(!c.deliver_to_lower);
        assert!(!c.timestamp);
        assert!(c.max_queue > 0);
    }

    #[test]
    fn read_error_display() {
        assert_eq!(ReadError::TimedOut.to_string(), "read timed out");
        assert_eq!(ReadError::WouldBlock.to_string(), "would block");
    }
}
