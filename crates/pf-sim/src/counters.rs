//! Event counters for the quantities the paper's figures are about.
//!
//! Figures 2-1/2-2/2-3 and 3-4/3-5 are cost diagrams counting context
//! switches, system calls, domain crossings, and data copies per packet;
//! [`Counters`] tracks exactly those, and the `figures` experiment prints
//! them.

use core::fmt;
use core::ops::{Add, Sub};

/// Cumulative event counts for one simulated host.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Process-to-process context switches.
    pub context_switches: u64,
    /// System calls issued by user processes.
    pub syscalls: u64,
    /// Kernel↔user domain crossings (two per system call, plus signal
    /// deliveries; figure 2-3's currency).
    pub domain_crossings: u64,
    /// Kernel↔user (or pipe) data copies.
    pub copies: u64,
    /// Bytes moved by those copies.
    pub bytes_copied: u64,
    /// Frames handed to a network interface for transmission.
    pub packets_sent: u64,
    /// Frames received from the network by the host.
    pub packets_received: u64,
    /// Packets accepted by some filter and queued to a port.
    pub packets_delivered: u64,
    /// Packets dropped because a port's input queue was full.
    pub drops_queue_full: u64,
    /// Packets rejected by every filter.
    pub drops_no_match: u64,
    /// Packets dropped by the network interface itself (overrun).
    pub drops_interface: u64,
    /// Filter predicates applied (§6.1: "the average packet is tested
    /// against 6.3 predicates").
    pub filters_applied: u64,
    /// Filter instructions interpreted.
    pub filter_instructions: u64,
    /// Signals delivered to processes.
    pub signals_delivered: u64,
    /// Received-packet timestamps taken (each costs `microtime`).
    pub timestamps: u64,
    /// Filters quarantined (failed bind-time validation or could exceed
    /// the instruction budget); quarantined filters are served by the
    /// checked interpreter instead of the compiled engines.
    pub filters_quarantined: u64,
    /// Filter evaluations terminated by the per-evaluation instruction
    /// budget (each rejects its packet).
    pub filter_budget_overruns: u64,
    /// Packets shed at the NIC by the admission gate, before any filter
    /// ran (drop-at-NIC; `drops_no_match`/`drops_queue_full` count
    /// drop-after-demux).
    pub drops_admission: u64,
    /// Polled drain passes executed while the receive path was in
    /// polling mode.
    pub poll_batches: u64,
    /// Receive-path mode switches (interrupt→polling and back).
    pub rx_mode_switches: u64,
    /// Backpressure notifications posted to port owners when a port
    /// queue crossed its high-water mark.
    pub backpressure_signals: u64,
    /// Frames steered to a non-default receive queue by the RSS hash
    /// (single-queue configurations never increment this).
    pub frames_steered: u64,
    /// Cross-core wakeups: a demultiplexing core delivered to a reader
    /// running on another core.
    pub cross_core_wakeups: u64,
    /// Frames shed at the NIC as signature mimics: they wore a protected
    /// port's admission signature but failed a word the protected filter
    /// provably requires. Kept separate from `drops_admission` — these
    /// are adversarial drops, not quota exhaustion.
    pub drops_mimicry_shed: u64,
    /// Gate-signature re-selections: a protected gate entry under
    /// mimicry pressure widened its signature to verify the filter's
    /// remaining required words.
    pub gate_resignature_events: u64,
}

impl Counters {
    /// A zeroed counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Average filter predicates applied per received packet.
    pub fn filters_per_packet(&self) -> f64 {
        if self.packets_received == 0 {
            0.0
        } else {
            self.filters_applied as f64 / self.packets_received as f64
        }
    }
}

/// Generates the element-wise `Add` and `Sub` from one list of field
/// names. Both build the result with an exhaustive struct literal, so a
/// field added to [`Counters`] but not to the list does not compile.
macro_rules! elementwise {
    ($($field:ident),* $(,)?) => {
        impl Add for Counters {
            type Output = Counters;

            /// Element-wise sum: the counts of two hosts (or cores) taken
            /// together.
            fn add(self, rhs: Counters) -> Counters {
                Counters {
                    $($field: self.$field + rhs.$field),*
                }
            }
        }

        impl Sub for Counters {
            type Output = Counters;

            /// Element-wise difference: `end - start` gives the counts for an
            /// interval.
            fn sub(self, rhs: Counters) -> Counters {
                Counters {
                    $($field: self.$field - rhs.$field),*
                }
            }
        }

        /// A counter set whose fields are `base + 1, base + 2, …` in list
        /// order: every field set, no two alike.
        #[cfg(test)]
        fn numbered(base: u64) -> Counters {
            let mut n = base;
            Counters {
                $($field: {
                    n += 1;
                    n
                }),*
            }
        }
    };
}

elementwise!(
    context_switches,
    syscalls,
    domain_crossings,
    copies,
    bytes_copied,
    packets_sent,
    packets_received,
    packets_delivered,
    drops_queue_full,
    drops_no_match,
    drops_interface,
    filters_applied,
    filter_instructions,
    signals_delivered,
    timestamps,
    filters_quarantined,
    filter_budget_overruns,
    drops_admission,
    poll_batches,
    rx_mode_switches,
    backpressure_signals,
    frames_steered,
    cross_core_wakeups,
    drops_mimicry_shed,
    gate_resignature_events,
);

impl fmt::Display for Counters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "context switches:    {}", self.context_switches)?;
        writeln!(f, "system calls:        {}", self.syscalls)?;
        writeln!(f, "domain crossings:    {}", self.domain_crossings)?;
        writeln!(
            f,
            "data copies:         {} ({} bytes)",
            self.copies, self.bytes_copied
        )?;
        writeln!(f, "packets sent:        {}", self.packets_sent)?;
        writeln!(f, "packets received:    {}", self.packets_received)?;
        writeln!(f, "packets delivered:   {}", self.packets_delivered)?;
        writeln!(
            f,
            "packets dropped:     {} queue-full, {} no-match, {} interface, {} admission",
            self.drops_queue_full, self.drops_no_match, self.drops_interface, self.drops_admission
        )?;
        writeln!(
            f,
            "filters applied:     {} ({} instructions)",
            self.filters_applied, self.filter_instructions
        )?;
        writeln!(f, "signals delivered:   {}", self.signals_delivered)?;
        writeln!(f, "timestamps taken:    {}", self.timestamps)?;
        writeln!(
            f,
            "filters quarantined: {} ({} budget overruns)",
            self.filters_quarantined, self.filter_budget_overruns
        )?;
        writeln!(
            f,
            "overload armor:      {} poll batches, {} mode switches, {} backpressure signals",
            self.poll_batches, self.rx_mode_switches, self.backpressure_signals
        )?;
        writeln!(
            f,
            "multi-core:          {} steered, {} cross-core wakeups",
            self.frames_steered, self.cross_core_wakeups
        )?;
        write!(
            f,
            "adversary armor:     {} mimics shed, {} gate re-signatures",
            self.drops_mimicry_shed, self.gate_resignature_events
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn difference() {
        let mut a = Counters::new();
        a.syscalls = 10;
        a.copies = 4;
        let mut b = a;
        b.syscalls = 25;
        b.copies = 9;
        let d = b - a;
        assert_eq!(d.syscalls, 15);
        assert_eq!(d.copies, 5);
        assert_eq!(d.context_switches, 0);
    }

    #[test]
    fn sum_then_difference_is_the_identity_on_every_field() {
        let (a, b) = (numbered(1_000), numbered(0));
        let sum = a + b;
        assert_eq!(sum - b, a);
        assert_eq!(sum - a, b);
        assert_eq!(sum.context_switches, 1_001 + 1);
        assert_eq!(sum.gate_resignature_events, 1_025 + 25);
    }

    #[test]
    fn filters_per_packet() {
        let mut c = Counters::new();
        assert_eq!(c.filters_per_packet(), 0.0);
        c.packets_received = 10;
        c.filters_applied = 63;
        assert!((c.filters_per_packet() - 6.3).abs() < 1e-9);
    }

    #[test]
    fn display_mentions_key_counters() {
        let c = Counters::new();
        let s = c.to_string();
        assert!(s.contains("context switches"));
        assert!(s.contains("domain crossings"));
    }
}
