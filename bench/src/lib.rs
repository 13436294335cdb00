//! The repository's benchmark: five workloads on two clocks (host time and
//! simulated time), end-to-end and per-layer metrics, and a traced run.
//!
//! See `bench/README.md` for the glossary and how to read the numbers. The
//! system under test is reached only through [`sut`].

pub mod cli;
pub mod compare;
pub mod json;
pub mod metrics;
pub mod rng;
pub mod stats;
pub mod sut;
pub mod trace;
pub mod workloads;
