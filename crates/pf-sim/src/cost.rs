//! The calibrated cost model.
//!
//! The paper measured VAX-11/780 and MicroVAX-II machines; we have neither,
//! so the simulation charges virtual CPU time from a [`CostModel`] whose
//! default constants are calibrated from the overhead costs the paper
//! itself reports:
//!
//! * §6.5.2: "a MicroVAX-II running Ultrix 1.2 requires about 0.4 mSec of
//!   CPU time to switch between processes, and about 0.5 mSec of CPU time
//!   to transfer a short packet between the kernel and a process …
//!   data copying requires about 1 mSec/Kbyte";
//! * table 6-10 / §6.1: filter interpretation costs roughly
//!   `0.122 mSec × predicates` — about 28 µs per instruction plus ~50 µs of
//!   per-filter setup for a typical 2–3-instruction-per-field predicate;
//! * §6.1: IP-layer input processing is ~0.49 mSec, rising to ~1.77 mSec
//!   through UDP/TCP; §7: `microtime` costs ~70 µs.
//!
//! Each knob is public so experiments can model the paper's other machines
//! (e.g. the V kernel's cheaper context switches) or ablate a cost.

use crate::time::SimDuration;

/// Virtual-CPU cost constants for a simulated host.
#[derive(Debug, Clone)]
pub struct CostModel {
    /// Process-to-process context switch (§6.5.2: 0.4 ms).
    pub context_switch: SimDuration,
    /// System-call entry/exit overhead, excluding data transfer.
    pub syscall: SimDuration,
    /// Fixed part of one kernel↔user data transfer (§6.5.2: a short-packet
    /// transfer totals ~0.5 ms; the fixed part is what is left after the
    /// per-byte cost of 128 bytes).
    pub copy_base: SimDuration,
    /// Per-byte part of a data copy (§6.5.2: ~1 ms/KByte).
    pub copy_per_byte_ns: u64,
    /// Network-interface receive interrupt + driver bookkeeping, fixed.
    pub driver_rx: SimDuration,
    /// Driver per-byte receive cost (buffer chaining).
    pub driver_rx_per_byte_ns: u64,
    /// Driver transmit cost, fixed (queueing a frame for transmission).
    pub driver_tx: SimDuration,
    /// Driver per-byte transmit cost.
    pub driver_tx_per_byte_ns: u64,
    /// Packet-filter bookkeeping per delivered packet: queueing, wakeup
    /// bookkeeping, and the 4.3BSD header-restore work §7 grumbles about.
    pub pf_bookkeeping: SimDuration,
    /// Packet-filter fixed transmit-path cost above the driver (the paper:
    /// cheaper than UDP since "it does not need to choose a route … or
    /// compute a checksum").
    pub pf_send_fixed: SimDuration,
    /// Per-filter-application setup cost (fetching the filter, stack init).
    pub filter_setup: SimDuration,
    /// Per-instruction filter interpretation cost.
    pub filter_instr: SimDuration,
    /// One decision-table hash probe (per filter *shape*) for the §7
    /// compiled-demultiplexer engine.
    pub dtree_probe: SimDuration,
    /// `microtime()` for received-packet timestamps (§7: ~70 µs).
    pub microtime: SimDuration,
    /// Kernel IP input processing, IP layer only (§6.1: ~0.49 ms).
    pub ip_input: SimDuration,
    /// Additional input processing from IP up through UDP/TCP
    /// (§6.1: ~1.77 ms total).
    pub transport_input: SimDuration,
    /// Kernel UDP output processing above IP and the driver: socket
    /// layer, route choice, header construction (calibrated so that the
    /// whole UDP send path — syscall + copy + this + `ip_input`-sized IP
    /// output work + driver — reproduces table 6-1's 3.1 ms at 128 bytes).
    pub udp_send_fixed: SimDuration,
    /// Kernel ARP input processing.
    pub arp_input: SimDuration,
    /// Pipe transfer overhead beyond its two copies (wakeup, locking) —
    /// §6.3 blames "the poor IPC facilities in 4.3BSD".
    pub pipe_overhead: SimDuration,
    /// Scheduler work to make a blocked process runnable.
    pub wakeup: SimDuration,
    /// Fixed cost to schedule one polled drain pass when the receive path
    /// has switched from per-packet interrupts to polling (the softirq-like
    /// dispatch that replaces N interrupt entries with one).
    pub poll_batch: SimDuration,
    /// Per-packet driver cost under polling: buffer handoff without the
    /// interrupt entry/exit, so much cheaper than `driver_rx`.
    pub poll_per_packet: SimDuration,
    /// One admission-gate probe ahead of the filter ladder: a token-bucket
    /// check plus at most one packet-word load, charged per arriving frame
    /// while the gate is enabled.
    pub admission_probe: SimDuration,
    /// One RSS steering hash over a frame's configured header words (a few
    /// word loads plus integer mixing), charged per received frame on a
    /// host with more than one receive queue. A single-queue host charges
    /// nothing — its steering is the identity.
    pub rss_hash: SimDuration,
    /// Cross-core wakeup (IPI send plus the cache-line bounce of the
    /// handoff) when a demultiplexing core delivers to a reader running on
    /// another core. Much cheaper than a full context switch: the target
    /// core does not change address spaces.
    pub mc_wakeup: SimDuration,
    /// One geometric-classifier tuple probe: a hash on the tuple key plus
    /// a logarithmic descent of that tuple's interval structure. Charged
    /// per probed tuple per packet — dearer than a flat decision-table
    /// hash probe (`dtree_probe`) because of the descent, far cheaper
    /// than interpreting a member filter.
    pub geom_probe: SimDuration,
    /// One routed IP forward on a gateway node: header validation, TTL
    /// decrement, route lookup, and re-encapsulation — the switching half
    /// of `ip_input` without the socket-layer delivery work.
    pub ip_forward: SimDuration,
    /// Emitting one neighbor-liveness hello on a router interface:
    /// building and queueing a tiny control frame. Probing must be far
    /// cheaper than forwarding, or the cure costs more than the disease.
    pub hello_emit: SimDuration,
    /// Processing one received routing-control frame (hello bookkeeping
    /// or a link-state update: sequence check, adjacency-map update,
    /// re-flood decision).
    pub lsu_process: SimDuration,
    /// One triggered route recomputation over the residual topology —
    /// the expensive, rare event of the resilience plane (a full
    /// shortest-path pass, dearer than any single forward).
    pub route_recompute: SimDuration,
}

impl CostModel {
    /// The MicroVAX-II / Ultrix 1.2 calibration (the paper's main testbed).
    pub fn microvax_ii() -> Self {
        CostModel {
            context_switch: SimDuration::from_micros(400),
            syscall: SimDuration::from_micros(150),
            copy_base: SimDuration::from_micros(370),
            copy_per_byte_ns: 1_000, // 1 µs/byte ≈ 1 ms/KByte
            driver_rx: SimDuration::from_micros(300),
            driver_rx_per_byte_ns: 400,
            driver_tx: SimDuration::from_micros(200),
            driver_tx_per_byte_ns: 250,
            pf_bookkeeping: SimDuration::from_micros(600),
            pf_send_fixed: SimDuration::from_micros(1_050),
            filter_setup: SimDuration::from_micros(50),
            filter_instr: SimDuration::from_micros(28),
            dtree_probe: SimDuration::from_micros(25),
            microtime: SimDuration::from_micros(70),
            ip_input: SimDuration::from_micros(490),
            transport_input: SimDuration::from_micros(1_280),
            udp_send_fixed: SimDuration::from_micros(1_750),
            arp_input: SimDuration::from_micros(200),
            pipe_overhead: SimDuration::from_micros(450),
            wakeup: SimDuration::from_micros(100),
            poll_batch: SimDuration::from_micros(150),
            poll_per_packet: SimDuration::from_micros(60),
            admission_probe: SimDuration::from_micros(8),
            rss_hash: SimDuration::from_micros(2),
            mc_wakeup: SimDuration::from_micros(150),
            geom_probe: SimDuration::from_micros(30),
            ip_forward: SimDuration::from_micros(250),
            hello_emit: SimDuration::from_micros(20),
            lsu_process: SimDuration::from_micros(80),
            route_recompute: SimDuration::from_micros(2_000),
        }
    }

    /// A V-kernel-like profile: the same datapath costs but much cheaper
    /// process switching and domain crossing, for the table 6-2/6-3
    /// "V kernel" rows and the §2 observation that cheap context switches
    /// shrink the packet filter's advantage.
    pub fn v_kernel() -> Self {
        CostModel {
            context_switch: SimDuration::from_micros(100),
            syscall: SimDuration::from_micros(50),
            wakeup: SimDuration::from_micros(40),
            ..Self::microvax_ii()
        }
    }

    /// One kernel↔user copy of `bytes` bytes.
    pub fn copy(&self, bytes: usize) -> SimDuration {
        self.copy_base + SimDuration::from_nanos(self.copy_per_byte_ns * bytes as u64)
    }

    /// Driver receive processing for a frame of `bytes` bytes.
    pub fn driver_rx_cost(&self, bytes: usize) -> SimDuration {
        self.driver_rx + SimDuration::from_nanos(self.driver_rx_per_byte_ns * bytes as u64)
    }

    /// Driver transmit processing for a frame of `bytes` bytes.
    pub fn driver_tx_cost(&self, bytes: usize) -> SimDuration {
        self.driver_tx + SimDuration::from_nanos(self.driver_tx_per_byte_ns * bytes as u64)
    }

    /// Interpreting one filter that executed `instructions` instructions.
    pub fn filter_cost(&self, instructions: u32) -> SimDuration {
        self.filter_setup + self.filter_instr.times(u64::from(instructions))
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::microvax_ii()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_packet_copy_is_about_half_a_millisecond() {
        // §6.5.2's headline number.
        let m = CostModel::microvax_ii();
        let c = m.copy(128).as_micros();
        assert!((450..=550).contains(&c), "copy(128B) = {c} µs");
    }

    #[test]
    fn copy_scales_at_about_1ms_per_kbyte() {
        let m = CostModel::microvax_ii();
        let delta = m.copy(1152).as_micros() - m.copy(128).as_micros();
        assert!((900..=1100).contains(&delta), "1 KB delta = {delta} µs");
    }

    #[test]
    fn filter_cost_matches_6_1_model() {
        // §6.1: ~0.122 ms per predicate tested, for a typical short filter.
        let m = CostModel::microvax_ii();
        let typical = m.filter_cost(3).as_micros(); // 2-3 instructions/field
        assert!(
            (100..=150).contains(&typical),
            "typical predicate = {typical} µs"
        );
    }

    #[test]
    fn table_6_10_shape() {
        // Going from a 0-instruction to a 21-instruction filter added
        // ~0.6 ms in table 6-10.
        let m = CostModel::microvax_ii();
        let delta = m.filter_cost(21).as_micros() - m.filter_cost(0).as_micros();
        assert!(
            (500..=700).contains(&delta),
            "21-instruction delta = {delta} µs"
        );
    }

    #[test]
    fn polled_receive_amortizes_interrupt_cost() {
        // The point of the interrupt→polling switchover: one polled batch
        // of N frames must cost less than N interrupt entries, and the
        // admission probe must be far cheaper than even one filter
        // instruction so shedding at the gate actually saves work.
        let m = CostModel::microvax_ii();
        let batch = m.poll_batch + m.poll_per_packet.times(16);
        assert!(batch < m.driver_rx.times(16), "polling must amortize");
        assert!(m.admission_probe < m.filter_instr);
    }

    #[test]
    fn a_cross_core_wakeup_sits_between_a_hash_and_a_switch() {
        // Handing a frame to a reader on another core is dearer than
        // steering it but cheaper than a full context switch: the target
        // core does not change address spaces.
        let m = CostModel::microvax_ii();
        assert!(m.mc_wakeup < m.context_switch);
        assert!(m.mc_wakeup > m.rss_hash);
    }

    #[test]
    fn geom_probe_sits_between_dtree_and_interpretation() {
        // A tuple probe is a hash plus a log-depth descent: costlier than
        // the decision table's flat hash probe, but a probed tuple must be
        // far cheaper than interpreting even one short member filter —
        // that gap is the whole point of the geometric classifier.
        let m = CostModel::microvax_ii();
        assert!(m.geom_probe > m.dtree_probe);
        assert!(m.geom_probe < m.filter_cost(1));
        // Forwarding skips the socket-layer half of input processing.
        assert!(m.ip_forward < m.ip_input);
    }

    #[test]
    fn resilience_costs_keep_probing_cheap_and_recompute_rare_but_dear() {
        // A hello is a tiny fixed-format frame: much cheaper than a
        // forward, or steady-state probing would dominate the router.
        // Control-frame processing sits between a hello and a forward,
        // and a full route recomputation — the rare, triggered event —
        // must dwarf any single forward so convergence shows up as a
        // visible CPU spike rather than free magic.
        let m = CostModel::microvax_ii();
        assert!(m.hello_emit < m.lsu_process);
        assert!(m.lsu_process < m.ip_forward);
        assert!(m.route_recompute > m.ip_forward.times(4));
    }

    #[test]
    fn v_kernel_switches_cheaply() {
        let v = CostModel::v_kernel();
        let u = CostModel::microvax_ii();
        assert!(v.context_switch < u.context_switch);
        assert_eq!(v.copy(128), u.copy(128), "datapath costs unchanged");
    }
}
