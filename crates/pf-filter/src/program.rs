//! Filter programs: the wire format, an assembler, and a disassembler.
//!
//! A filter is "a data structure including an array of 16-bit words" plus a
//! priority (§3.1, §3.2). This module holds that raw representation
//! ([`FilterProgram`]), a fluent [`Assembler`] used the way the paper's
//! run-time "library procedure" was, and a disassembler for debugging and
//! display.

use crate::word::{BinaryOp, Instr, StackAction};
use core::fmt;

/// Maximum program length in 16-bit words (instructions plus literals).
///
/// The historical implementation bounded filter length similarly; the exact
/// limit is an implementation constant, not part of the paper's interface.
pub const MAX_PROGRAM_WORDS: usize = 256;

/// Default filter priority, matching the paper's examples (`10, …`).
pub const DEFAULT_PRIORITY: u8 = 10;

/// A filter program: a priority and an array of 16-bit instruction words.
///
/// This is the exact artifact a user process binds to a packet-filter port
/// (the paper's `struct enfilter`). It is *unvalidated*; see
/// [`crate::validate::ValidatedProgram`] for the bind-time-checked form and
/// [`crate::interp::CheckedInterpreter`] for direct checked evaluation.
///
/// # Examples
///
/// Figure 3-8's filter, which accepts Pup packets with types 1..=100:
///
/// ```
/// use pf_filter::program::FilterProgram;
/// use pf_filter::samples;
///
/// let f: FilterProgram = samples::fig_3_8_pup_type_range();
/// assert_eq!(f.priority(), 10);
/// assert_eq!(f.len_words(), 12); // the paper's "length" field
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FilterProgram {
    priority: u8,
    words: Vec<u16>,
}

impl FilterProgram {
    /// Creates a program from raw words.
    ///
    /// No validation is performed; undecodable words simply cause the packet
    /// to be rejected at evaluation time (or are reported by the validator).
    pub fn from_words(priority: u8, words: Vec<u16>) -> Self {
        FilterProgram { priority, words }
    }

    /// An empty program. Evaluates to *reject* (empty stack at exit).
    pub fn empty(priority: u8) -> Self {
        FilterProgram {
            priority,
            words: Vec::new(),
        }
    }

    /// The filter's priority (larger = applied earlier; §3.2).
    pub fn priority(&self) -> u8 {
        self.priority
    }

    /// Replaces the priority, returning the modified program.
    pub fn with_priority(mut self, priority: u8) -> Self {
        self.priority = priority;
        self
    }

    /// The raw instruction words.
    pub fn words(&self) -> &[u16] {
        &self.words
    }

    /// Program length in 16-bit words (the paper's "length" field counts
    /// instructions *and* literals).
    pub fn len_words(&self) -> usize {
        self.words.len()
    }

    /// Whether the program has no words.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Number of *instructions* (excluding literal words). Undecodable words
    /// are counted as instructions, since that is how evaluation meets them.
    pub fn len_instructions(&self) -> usize {
        self.disassemble()
            .iter()
            .filter(|i| !matches!(i, DisasmItem::Literal(_)))
            .count()
    }

    /// Disassembles the program for display or analysis.
    ///
    /// Literal words following `PUSHLIT` instructions are reported as
    /// [`DisasmItem::Literal`]; words that do not decode are reported as
    /// [`DisasmItem::Undecodable`].
    pub fn disassemble(&self) -> Vec<DisasmItem> {
        let mut out = Vec::with_capacity(self.words.len());
        let mut i = 0usize;
        while i < self.words.len() {
            let w = self.words[i];
            match Instr::decode(w) {
                Some(instr) => {
                    out.push(DisasmItem::Instr(instr));
                    i += 1;
                    if instr.takes_literal() {
                        if let Some(&lit) = self.words.get(i) {
                            out.push(DisasmItem::Literal(lit));
                            i += 1;
                        }
                        // A trailing PUSHLIT with no literal is left for the
                        // validator/interpreter to report.
                    }
                }
                None => {
                    out.push(DisasmItem::Undecodable(w));
                    i += 1;
                }
            }
        }
        out
    }
}

impl fmt::Display for FilterProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "filter(priority={}, length={}):",
            self.priority,
            self.words.len()
        )?;
        let mut pending_lit_for: Option<Instr> = None;
        for (idx, item) in self.disassemble().into_iter().enumerate() {
            match item {
                DisasmItem::Instr(i) => {
                    if i.takes_literal() {
                        pending_lit_for = Some(i);
                    } else {
                        writeln!(f, "  [{idx:3}] {i}")?;
                    }
                }
                DisasmItem::Literal(v) => {
                    let i = pending_lit_for.take().expect("literal follows PUSHLIT");
                    writeln!(f, "  [{:3}] {i}, {v}", idx - 1)?;
                }
                DisasmItem::Undecodable(w) => {
                    writeln!(f, "  [{idx:3}] ??? {w:#06x}")?;
                }
            }
        }
        if let Some(i) = pending_lit_for {
            writeln!(f, "  [end] {i}, <missing literal>")?;
        }
        Ok(())
    }
}

/// One element of a disassembly listing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DisasmItem {
    /// A decoded instruction.
    Instr(Instr),
    /// The literal word following a `PUSHLIT`.
    Literal(u16),
    /// A word with a reserved encoding.
    Undecodable(u16),
}

/// A fluent assembler for filter programs.
///
/// This plays the role of the paper's run-time "library procedure" at the
/// instruction level; for predicate-level construction see
/// [`crate::builder`].
///
/// # Examples
///
/// Figure 3-9's short-circuit filter:
///
/// ```
/// use pf_filter::program::Assembler;
/// use pf_filter::word::BinaryOp;
///
/// let f = Assembler::new(10)
///     .pushword(8).pushlit_op(BinaryOp::Cand, 35) // low word of socket == 35
///     .pushword(7).pushzero_op(BinaryOp::Cand)    // high word of socket == 0
///     .pushword(1).pushlit_op(BinaryOp::Eq, 2)    // packet type == Pup
///     .finish();
/// assert_eq!(f.len_words(), 8); // the paper's "length 8"
/// ```
#[derive(Debug, Clone)]
pub struct Assembler {
    priority: u8,
    words: Vec<u16>,
}

impl Assembler {
    /// Starts a program with the given priority.
    pub fn new(priority: u8) -> Self {
        Assembler {
            priority,
            words: Vec::new(),
        }
    }

    /// Appends a raw word.
    pub fn raw(mut self, word: u16) -> Self {
        self.words.push(word);
        self
    }

    /// Appends an instruction (and no literal).
    pub fn instr(mut self, instr: Instr) -> Self {
        self.words.push(instr.encode());
        self
    }

    /// `PUSHWORD+n` with no operator.
    pub fn pushword(self, n: u8) -> Self {
        self.instr(Instr::push(StackAction::PushWord(n)))
    }

    /// `PUSHWORD+n | op`.
    pub fn pushword_op(self, n: u8, op: BinaryOp) -> Self {
        self.instr(Instr::new(StackAction::PushWord(n), op))
    }

    /// `PUSHLIT, lit` with no operator.
    pub fn pushlit(mut self, lit: u16) -> Self {
        self.words.push(Instr::push(StackAction::PushLit).encode());
        self.words.push(lit);
        self
    }

    /// `PUSHLIT | op, lit` — push the literal, then apply `op`.
    pub fn pushlit_op(mut self, op: BinaryOp, lit: u16) -> Self {
        self.words
            .push(Instr::new(StackAction::PushLit, op).encode());
        self.words.push(lit);
        self
    }

    /// `PUSHZERO | op`.
    pub fn pushzero_op(self, op: BinaryOp) -> Self {
        self.instr(Instr::new(StackAction::PushZero, op))
    }

    /// `PUSHZERO`.
    pub fn pushzero(self) -> Self {
        self.instr(Instr::push(StackAction::PushZero))
    }

    /// `PUSHONE`.
    pub fn pushone(self) -> Self {
        self.instr(Instr::push(StackAction::PushOne))
    }

    /// A bare stack action.
    pub fn push(self, action: StackAction) -> Self {
        self.instr(Instr::push(action))
    }

    /// A bare stack action combined with an operator.
    pub fn push_op(self, action: StackAction, op: BinaryOp) -> Self {
        self.instr(Instr::new(action, op))
    }

    /// A bare operator (`NOPUSH`).
    pub fn op(self, op: BinaryOp) -> Self {
        self.instr(Instr::op(op))
    }

    /// Current length in words.
    pub fn len_words(&self) -> usize {
        self.words.len()
    }

    /// Finishes assembly.
    pub fn finish(self) -> FilterProgram {
        FilterProgram::from_words(self.priority, self.words)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::samples;

    #[test]
    fn fig_3_8_has_paper_length() {
        // The paper's figure 3-8 declares "priority and length" = 10, 12.
        let f = samples::fig_3_8_pup_type_range();
        assert_eq!(f.priority(), 10);
        assert_eq!(f.len_words(), 12);
    }

    #[test]
    fn fig_3_9_has_paper_length() {
        // Figure 3-9 declares 10, 8.
        let f = samples::fig_3_9_pup_socket_35();
        assert_eq!(f.priority(), 10);
        assert_eq!(f.len_words(), 8);
    }

    #[test]
    fn disassemble_round_trip_fig_3_8() {
        let f = samples::fig_3_8_pup_type_range();
        let items = f.disassemble();
        // 10 instructions + 2 literals.
        assert_eq!(items.len(), 12);
        let lits: Vec<u16> = items
            .iter()
            .filter_map(|i| match i {
                DisasmItem::Literal(v) => Some(*v),
                _ => None,
            })
            .collect();
        assert_eq!(lits, vec![2, 100]);
        assert_eq!(f.len_instructions(), 10);
    }

    #[test]
    fn undecodable_words_are_reported() {
        // Operator code 14 is reserved.
        let f = FilterProgram::from_words(0, vec![14 << 6]);
        assert_eq!(f.disassemble(), vec![DisasmItem::Undecodable(14 << 6)]);
    }

    #[test]
    fn trailing_pushlit_without_literal() {
        let f = Assembler::new(0).push(StackAction::PushLit).finish();
        let items = f.disassemble();
        assert_eq!(items.len(), 1);
        assert!(matches!(items[0], DisasmItem::Instr(_)));
    }

    #[test]
    fn display_contains_mnemonics() {
        let f = samples::fig_3_9_pup_socket_35();
        let s = f.to_string();
        assert!(s.contains("PUSHWORD+8"), "{s}");
        assert!(s.contains("CAND"), "{s}");
        assert!(s.contains("35"), "{s}");
    }

    #[test]
    fn with_priority_replaces() {
        let f = FilterProgram::empty(10).with_priority(99);
        assert_eq!(f.priority(), 99);
    }
}
