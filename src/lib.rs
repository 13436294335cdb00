//! Facade crate for the SOSP '87 packet-filter reproduction.
//!
//! Re-exports the workspace crates under one roof so examples, integration
//! tests, and downstream users can depend on a single `packet-filter`
//! package. See the individual crates for detail:
//!
//! * [`filter`] — the filter language and its execution engines (the
//!   paper's core contribution);
//! * [`ir`] — the control-flow-graph filter IR: optimizing passes, a
//!   threaded-code engine and the geometric classifier — surfaces 5 and 6;
//! * [`sim`] — the deterministic simulated Unix-like kernel substrate;
//! * [`net`] — simulated Ethernets and network interfaces;
//! * [`kernel`] — the packet-filter pseudo-device driver, its three
//!   demultiplexing engines ([`DemuxEngine`]: the paper's loop, its §7
//!   decision table, the geometric classifier) and the baselines it is
//!   evaluated against;
//! * [`proto`] — the Pup/BSP, VMTP, IP/UDP/TCP-lite, ARP/RARP protocol
//!   implementations used in the paper's evaluation;
//! * [`monitor`] — network-monitoring tools (§5.4).
//!
//! # Example
//!
//! Figure 3-9 of the paper, built by the run-time "library procedure" and
//! evaluated against a Pup packet:
//!
//! ```
//! use packet_filter::filter::builder::Expr;
//! use packet_filter::filter::interp::CheckedInterpreter;
//! use packet_filter::filter::packet::PacketView;
//! use packet_filter::filter::samples;
//!
//! let filter = Expr::word(8).eq(35)
//!     .and(Expr::word(7).eq(0))
//!     .and(Expr::word(1).eq(2))
//!     .compile(10)
//!     .expect("static filter compiles");
//! assert_eq!(filter.words(), samples::fig_3_9_pup_socket_35().words());
//!
//! let pkt = samples::pup_packet_3mb(2, 0, 35, 1);
//! assert!(CheckedInterpreter.eval(&filter, PacketView::new(&pkt)));
//! ```

#![forbid(unsafe_code)]

pub use pf_filter as filter;
pub use pf_ir as ir;
pub use pf_kernel as kernel;
pub use pf_monitor as monitor;
pub use pf_net as net;
pub use pf_proto as proto;
pub use pf_sim as sim;

// The working set for embedding the device: construct it, pick an engine
// with its setters, observe with one stats struct, and iterate execution
// surfaces generically.
pub use pf_ir::{singleton_engines, singleton_surface_count, FilterEngine};
pub use pf_kernel::{DemuxEngine, EngineStats, PfDevice};
// The one run-loop: `World`, and any other clocked model, drives through
// this trait.
pub use pf_sim::SimClock;
