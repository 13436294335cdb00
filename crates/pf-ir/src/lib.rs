//! pf-ir: a control-flow-graph IR for packet filters, with optimizing
//! passes and a flat threaded-code execution engine.
//!
//! The paper's CSPF language (§3) is a stack machine: compact, trivially
//! safe, and — as §6 measures — expensive to interpret, because every
//! boolean connective pushes and pops intermediate truth values that a
//! conventional compiler would keep in registers or branch on directly.
//! This crate is surfaces five through seven of the workspace's
//! execution ladder: it *compiles* validated stack programs into a small
//! SSA-ish register IR ([`ir`]), optimizes the result ([`opt`]), flattens
//! it into threaded code that evaluates with no operand stack at all
//! ([`exec`]), and — behind the off-by-default `jit` cargo feature — emits
//! straight-line native machine code per CFG block (the `jit` module,
//! surface seven).
//!
//! The pipeline:
//!
//! 1. **Translate** ([`translate::translate`]) — stack traffic becomes
//!    virtual registers (exact depths are statically known, courtesy of
//!    [`pf_filter::validate::ValidatedProgram`]); short-circuit operators
//!    become conditional branches to shared accept/reject blocks.
//! 2. **Optimize** ([`opt::optimize`]) — constant folding, redundant-load
//!    and common-subexpression elimination, branch threading, dead-block
//!    and dead-code removal, dense register renumbering.
//! 3. **Lower** ([`exec::IrFilter`]) — blocks flatten into one threaded
//!    opcode vector; compare-and-branch sequences fuse into single
//!    `guard` opcodes.
//! 4. **Classify geometrically** ([`geom::GeomSet`], the sixth surface)
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
//! 5. **JIT** (`jit::JitFilter`, the seventh surface, cargo feature `jit`)
//!    — each threaded program's blocks are template-expanded into native
//!    x86-64 or aarch64 code in an mmap'd W^X buffer; programs or
//!    platforms the emitter cannot handle fall back to the threaded
//!    engine per filter, invisibly to callers. It is a single-filter
//!    surface: one mapping per filter, so no kernel engine walks a set
//!    of them (EXPERIMENTS.md, "Retired, and why (PR 19)").
//!
//! Semantics are pinned to the checked interpreter: translation consumes
//! only validated programs, runtime faults (out-of-bounds indirect loads,
//! zero divisors) reject exactly as the interpreter does, and packets
//! shorter than the validator's static minimum fall back to
//! [`pf_filter::interp::CheckedInterpreter`] verbatim. The differential
//! suites in `tests/` hold every execution surface — seven with the `jit`
//! feature on — to one verdict, iterating them generically through the
//! [`engine::FilterEngine`] trait and [`engine::singleton_engines`]
//! factory.

pub mod engine;
pub mod exec;
pub mod geom;
pub mod ir;
#[cfg(feature = "jit")]
pub mod jit;
pub mod opt;
pub mod translate;

pub use engine::{singleton_engines, singleton_surface_count, FilterEngine};
pub use exec::{IrEvalStats, IrFilter};
pub use geom::{required_constraints, GeomSet, GeomStats, Interval};
#[cfg(feature = "jit")]
pub use jit::JitFilter;
