//! Network monitoring over the packet filter (§5.4 of the paper).
//!
//! "For the developer or maintainer of network software, no tool is as
//! valuable as a network monitor." This crate is the integrated monitor
//! the paper argues for: a capture process over a promiscuous,
//! non-diverting, timestamping packet-filter port ([`capture`]),
//! protocol decoders producing trace lines ([`mod@decode`]), and trace
//! analyses ([`stats`]).

#![forbid(unsafe_code)]

pub mod capture;
pub mod decode;
pub mod stats;

pub use capture::{CaptureApp, Captured};
pub use decode::{decode, Decoded};
pub use stats::TraceStats;
