//! The packet-filter language and its execution engines.
//!
//! This crate implements the core contribution of Mogul, Rashid & Accetta,
//! *The Packet Filter: An Efficient Mechanism for User-level Network Code*
//! (SOSP 1987): a small stack-based predicate language over received
//! packets, in which user processes describe which packets they want, and
//! the interpreter a kernel uses to evaluate those predicates.
//!
//! There is one language: the paper's instruction set (figure 3-6) plus
//! the extensions §7 proposes for variable-format headers, the indirect
//! push `PUSHIND` and the arithmetic operators `ADD` … `RSH`. It is
//! stated once, in [`word`]: the encoding, the mnemonics
//! ([`asm`] reads back what `Display` prints), the value of every
//! operator ([`word::BinaryOp::apply`]) and of every named constant
//! ([`word::StackAction::constant`]). Every engine below evaluates with
//! that code, and a non-terminating short-circuit operator always pushes
//! its result (§3.1).
//!
//! The crate provides the paper's execution engines and the set engine
//! §7 proposes:
//!
//! 1. [`interp::CheckedInterpreter`] — the paper's production interpreter,
//!    with per-instruction validity, stack, and packet-bounds checks (§4);
//! 2. [`validate::ValidatedProgram`] — the static checks hoisted to filter
//!    bind time (§7): it runs the checked interpreter's loop with the
//!    stack checks compiled out, and every packet read still checked;
//! 3. [`dtree::FilterSet`] — a whole *set* of active filters compiled into
//!    a shared discrimination tree (§7, "compile the set of active filters
//!    into a decision table").
//!
//! §7's remaining rung, "compiling filters into machine code", is
//! `pf_ir::IrFilter` (sibling crate): programs translated to a
//! register-based control-flow-graph IR, optimized, and lowered to
//! threaded code; `pf_ir` builds its set engine (`GeomSet`) on top of it.
//!
//! Filters are built three ways: raw words
//! ([`program::FilterProgram::from_words`]), the fluent
//! [`program::Assembler`], or the predicate-expression
//! [`builder`] DSL, which plays the role of the paper's run-time
//! "library procedure" and performs the short-circuit optimization of
//! figure 3-9 automatically.
//!
//! # Example
//!
//! ```
//! use pf_filter::builder::Expr;
//! use pf_filter::interp::CheckedInterpreter;
//! use pf_filter::packet::PacketView;
//! use pf_filter::samples;
//!
//! // "Pup packets addressed to socket 35", as a predicate expression.
//! let filter = Expr::word(1).eq(2)
//!     .and(Expr::word(7).eq(0))
//!     .and(Expr::word(8).eq(35))
//!     .compile(10)
//!     .unwrap();
//!
//! let pkt = samples::pup_packet_3mb(2, 0, 35, 1);
//! assert!(CheckedInterpreter.eval(&filter, PacketView::new(&pkt)));
//! ```

#![forbid(unsafe_code)]

pub mod asm;
pub mod builder;
pub mod dtree;
pub mod error;
pub mod form;
pub mod interp;
pub mod packet;
pub mod program;
pub mod samples;
pub mod validate;
pub mod word;

pub use error::{RuntimeError, ValidateError};
pub use interp::{CheckedInterpreter, EvalStats};
pub use packet::PacketView;
pub use program::{Assembler, FilterProgram};
pub use word::{BinaryOp, Instr, StackAction};
