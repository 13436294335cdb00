//! pf-ir: a control-flow-graph IR for packet filters, with optimizing
//! passes and a flat threaded-code execution engine.
//!
//! The paper's CSPF language (§3) is a stack machine: compact, trivially
//! safe, and — as §6 measures — expensive to interpret, because every
//! boolean connective pushes and pops intermediate truth values that a
//! conventional compiler would keep in registers or branch on directly.
//! This crate is surfaces four and five of the workspace's execution
//! ladder, and its one compiler: §7's "compiling filters into machine
//! code" rung is [`IrFilter`]. It *compiles* validated stack programs
//! into a small SSA-ish register IR ([`ir`]), optimizes the result
//! ([`opt`]), flattens it into threaded code that evaluates with no
//! operand stack at all ([`exec`]), and indexes sets of such programs
//! geometrically ([`geom`]).
//!
//! The pipeline:
//!
//! 1. **Translate** ([`translate::translate`]) — stack traffic becomes
//!    virtual registers (exact depths are statically known, courtesy of
//!    [`pf_filter::validate::ValidatedProgram`]); short-circuit operators
//!    become conditional branches to shared accept/reject blocks.
//! 2. **Optimize** ([`opt::optimize`]) — constant folding, redundant-load
//!    and common-subexpression elimination, branch threading, dead-block
//!    and dead-code removal, dense register renumbering. A folded
//!    operator takes its value from [`pf_filter::word::BinaryOp::apply`],
//!    as the threaded code does at run time.
//! 3. **Lower** ([`exec::IrFilter`]) — blocks flatten into one threaded
//!    opcode vector; compare-and-branch sequences fuse into single
//!    `guard` opcodes.
//! 4. **Classify geometrically** ([`geom::GeomSet`], the fifth surface)
//!    — members are indexed by the *interval* constraints their compiled
//!    code provably requires (`packet[w] ∈ [lo,hi]`; equality is the
//!    degenerate case). Members keyed on an equality are filed in an
//!    exact-tuple directory — one hash bucket per joint value of *all*
//!    the words their exact atoms constrain, one probe per distinct
//!    word-set — and members keyed on a proper interval in a sparse
//!    segment tree per word, so the paper's port demultiplexers cost one
//!    probe whatever the population and port-*range* rules — which have
//!    no equality literal to key on — still demultiplex in
//!    O(#tuples · log U) index work instead of O(n) member walks.
//!
//! Semantics are pinned to the checked interpreter: translation consumes
//! only validated programs, runtime faults (out-of-bounds indirect loads,
//! zero divisors) reject exactly as the interpreter does, and packets
//! shorter than the validator's static minimum fall back to
//! [`pf_filter::interp::CheckedInterpreter`] verbatim. The differential
//! suites in `tests/` hold all five execution surfaces to one verdict,
//! iterating them generically through the [`engine::FilterEngine`] trait
//! and [`engine::singleton_engines`] factory.

#![forbid(unsafe_code)]

pub mod engine;
pub mod exec;
pub mod geom;
pub mod ir;
pub mod opt;
pub mod translate;

pub use engine::{singleton_engines, singleton_surface_count, FilterEngine};
pub use exec::{IrEvalStats, IrFilter};
pub use geom::{GeomSet, GeomStats};
