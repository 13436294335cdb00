//! Deterministic discrete-event simulation substrate.
//!
//! The paper's evaluation ran on VAX-11/780 and MicroVAX-II machines; this
//! crate is the substitute substrate: virtual time ([`time`]), a
//! deterministic event queue ([`queue`]), the unified run-loop trait every
//! simulation driver implements ([`clock`]), a single-CPU work serializer
//! with a gprof-style profiler ([`cpu`], [`profile`]), the calibrated cost
//! model ([`cost`]), event counters for the paper's figure quantities
//! ([`counters`]), and a reproducible PRNG ([`rng`]).
//!
//! The simulated Unix-like host, its scheduler, and the packet-filter
//! device itself live in `pf-kernel`, layered on these pieces.

#![forbid(unsafe_code)]

pub mod clock;
pub mod cost;
pub mod counters;
pub mod cpu;
pub mod profile;
pub mod queue;
pub mod rng;
pub mod time;

pub use clock::SimClock;
pub use cost::CostModel;
pub use counters::Counters;
pub use cpu::Cpu;
pub use profile::Profiler;
pub use queue::{EventHandle, EventQueue};
pub use rng::SplitMix64;
pub use time::{SimDuration, SimTime};
