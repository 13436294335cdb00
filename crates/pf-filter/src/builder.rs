//! Predicate-expression builder: the paper's run-time "library procedure".
//!
//! "In normal use, the filters are not directly constructed by the
//! programmer, but are 'compiled' at run time by a library procedure"
//! (§3.1). [`Expr`] is that library procedure: a small predicate-expression
//! tree over packet words and constants that compiles to a
//! [`FilterProgram`], applying the short-circuit optimization of figure 3-9
//! automatically (leading equality conjuncts become `CAND` chains, leading
//! equality disjuncts become `COR` chains).
//!
//! Order your tests by selectivity, as §3.2 advises — "the DstSocket field
//! is checked before the packet type field, since in most packets the
//! DstSocket is likely not to match" — the compiler preserves conjunct
//! order.

use crate::error::ValidateError;
use crate::program::{FilterProgram, MAX_PROGRAM_WORDS};
use crate::validate;
use crate::word::{BinaryOp, Instr, StackAction, MAX_PUSHWORD_INDEX};
use core::fmt;

/// An error constructing a filter program from an expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// The compiled program failed validation (e.g. exceeds
    /// [`MAX_PROGRAM_WORDS`] or the evaluation stack).
    Validate(ValidateError),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::Validate(e) => write!(f, "compiled program invalid: {e}"),
        }
    }
}

impl std::error::Error for BuildError {}

impl From<ValidateError> for BuildError {
    fn from(e: ValidateError) -> Self {
        BuildError::Validate(e)
    }
}

/// The §7 arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Division (rejects on zero divisor).
    Div,
    /// Remainder (rejects on zero divisor).
    Mod,
    /// Left shift by `rhs & 0xF`.
    Lsh,
    /// Right shift by `rhs & 0xF`.
    Rsh,
}

impl ArithOp {
    fn binary_op(self) -> BinaryOp {
        match self {
            ArithOp::Add => BinaryOp::Add,
            ArithOp::Sub => BinaryOp::Sub,
            ArithOp::Mul => BinaryOp::Mul,
            ArithOp::Div => BinaryOp::Div,
            ArithOp::Mod => BinaryOp::Mod,
            ArithOp::Lsh => BinaryOp::Lsh,
            ArithOp::Rsh => BinaryOp::Rsh,
        }
    }
}

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<` (unsigned)
    Lt,
    /// `<=` (unsigned)
    Le,
    /// `>` (unsigned)
    Gt,
    /// `>=` (unsigned)
    Ge,
}

impl CmpOp {
    fn binary_op(self) -> BinaryOp {
        match self {
            CmpOp::Eq => BinaryOp::Eq,
            CmpOp::Ne => BinaryOp::Neq,
            CmpOp::Lt => BinaryOp::Lt,
            CmpOp::Le => BinaryOp::Le,
            CmpOp::Gt => BinaryOp::Gt,
            CmpOp::Ge => BinaryOp::Ge,
        }
    }
}

/// A predicate or value expression over a received packet.
///
/// Value expressions produce 16-bit words (packet words, constants, masks,
/// arithmetic); predicate expressions produce booleans (comparisons,
/// conjunction, disjunction, negation). The distinction is by convention —
/// the filter language itself has a single word type, and any non-zero
/// final value accepts.
///
/// # Examples
///
/// Figure 3-8 as an expression:
///
/// ```
/// use pf_filter::builder::Expr;
///
/// let pup_type = Expr::word(3).mask(0x00FF);
/// let filter = Expr::word(1).eq(2)
///     .and(pup_type.clone().gt(0))
///     .and(pup_type.le(100))
///     .compile(10)
///     .unwrap();
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expr {
    /// The `n`th 16-bit word of the packet.
    Word(u16),
    /// A literal constant.
    Lit(u16),
    /// The packet word whose index is the value of the inner expression
    /// (§7: `PUSHIND`).
    WordAt(Box<Expr>),
    /// Bitwise AND of two values.
    BitAnd(Box<Expr>, Box<Expr>),
    /// Bitwise OR of two values.
    BitOr(Box<Expr>, Box<Expr>),
    /// Bitwise XOR of two values.
    BitXor(Box<Expr>, Box<Expr>),
    /// Arithmetic on two values (§7).
    Arith(ArithOp, Box<Expr>, Box<Expr>),
    /// Comparison of two values, producing a boolean.
    Cmp(CmpOp, Box<Expr>, Box<Expr>),
    /// Logical conjunction of two predicates.
    And(Box<Expr>, Box<Expr>),
    /// Logical disjunction of two predicates.
    Or(Box<Expr>, Box<Expr>),
    /// Logical negation (`e == 0`).
    Not(Box<Expr>),
}

impl From<u16> for Expr {
    fn from(v: u16) -> Self {
        Expr::Lit(v)
    }
}

impl Expr {
    /// The `n`th 16-bit word of the packet.
    pub fn word(n: u16) -> Expr {
        Expr::Word(n)
    }

    /// A literal constant.
    pub fn lit(v: u16) -> Expr {
        Expr::Lit(v)
    }

    /// The packet word indexed by this expression's value (§7).
    /// Part of ROADMAP item 8's expression front end; the workspace's
    /// `tests/engine_agreement.rs` builds with it today.
    pub fn word_at(index: Expr) -> Expr {
        Expr::WordAt(Box::new(index))
    }

    /// Bitwise-AND with a mask (the figure 3-8 field-extraction idiom).
    pub fn mask(self, m: u16) -> Expr {
        Expr::BitAnd(Box::new(self), Box::new(Expr::Lit(m)))
    }

    /// `self == rhs`.
    pub fn eq(self, rhs: impl Into<Expr>) -> Expr {
        Expr::Cmp(CmpOp::Eq, Box::new(self), Box::new(rhs.into()))
    }

    /// `self != rhs`.
    /// Part of ROADMAP item 8's expression front end; `tests/reference.rs` builds with it today.
    pub fn ne(self, rhs: impl Into<Expr>) -> Expr {
        Expr::Cmp(CmpOp::Ne, Box::new(self), Box::new(rhs.into()))
    }

    /// `self < rhs`, unsigned.
    /// Part of ROADMAP item 8's expression front end; the workspace's
    /// `tests/engine_agreement.rs` builds with it today.
    pub fn lt(self, rhs: impl Into<Expr>) -> Expr {
        Expr::Cmp(CmpOp::Lt, Box::new(self), Box::new(rhs.into()))
    }

    /// `self <= rhs`, unsigned.
    /// Part of ROADMAP item 8's expression front end; `tests/reference.rs` builds with it today.
    pub fn le(self, rhs: impl Into<Expr>) -> Expr {
        Expr::Cmp(CmpOp::Le, Box::new(self), Box::new(rhs.into()))
    }

    /// `self > rhs`, unsigned.
    /// Part of ROADMAP item 8's expression front end; `tests/reference.rs` builds with it today.
    pub fn gt(self, rhs: impl Into<Expr>) -> Expr {
        Expr::Cmp(CmpOp::Gt, Box::new(self), Box::new(rhs.into()))
    }

    /// `self >= rhs`, unsigned.
    /// Part of ROADMAP item 8's expression front end; `tests/reference.rs` builds with it today.
    pub fn ge(self, rhs: impl Into<Expr>) -> Expr {
        Expr::Cmp(CmpOp::Ge, Box::new(self), Box::new(rhs.into()))
    }

    /// Logical conjunction.
    pub fn and(self, rhs: Expr) -> Expr {
        Expr::And(Box::new(self), Box::new(rhs))
    }

    /// Logical disjunction.
    pub fn or(self, rhs: Expr) -> Expr {
        Expr::Or(Box::new(self), Box::new(rhs))
    }

    /// Logical negation.
    // Deliberately named like the operator it mirrors; `Expr` does not
    // implement the `Not`/`BitAnd`/`BitOr` traits because the DSL methods
    // take `impl Into<Expr>` and build predicate trees, not values.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Expr {
        Expr::Not(Box::new(self))
    }

    /// Bitwise AND of two values.
    /// Part of ROADMAP item 8's expression front end; `tests/reference.rs` builds with it today.
    #[allow(clippy::should_implement_trait)]
    pub fn bitand(self, rhs: impl Into<Expr>) -> Expr {
        Expr::BitAnd(Box::new(self), Box::new(rhs.into()))
    }

    /// Bitwise OR of two values.
    /// Part of ROADMAP item 8's expression front end; `tests/reference.rs` builds with it today.
    #[allow(clippy::should_implement_trait)]
    pub fn bitor(self, rhs: impl Into<Expr>) -> Expr {
        Expr::BitOr(Box::new(self), Box::new(rhs.into()))
    }

    /// Arithmetic (§7).
    /// Part of ROADMAP item 8's expression front end; the workspace's
    /// `tests/engine_agreement.rs` builds with it today.
    pub fn arith(self, op: ArithOp, rhs: impl Into<Expr>) -> Expr {
        Expr::Arith(op, Box::new(self), Box::new(rhs.into()))
    }

    /// Compiles, applying the short-circuit optimization to the top-level
    /// conjunction or disjunction. A word index above
    /// [`MAX_PUSHWORD_INDEX`] lowers to `PUSHLIT n; PUSHIND`.
    ///
    /// # Errors
    ///
    /// Returns a [`BuildError`] if the result fails validation.
    pub fn compile(&self, priority: u8) -> Result<FilterProgram, BuildError> {
        let mut c = Compiler { words: Vec::new() };
        c.emit_top(self)?;
        if c.words.len() > MAX_PROGRAM_WORDS {
            return Err(BuildError::Validate(ValidateError::TooLong {
                words: c.words.len(),
            }));
        }
        let program = FilterProgram::from_words(priority, c.words);
        // Re-validate to catch stack-depth issues.
        validate::check(&program)?;
        Ok(program)
    }
}

struct Compiler {
    words: Vec<u16>,
}

impl Compiler {
    /// Emits the whole predicate; top level gets short-circuit treatment.
    fn emit_top(&mut self, e: &Expr) -> Result<(), BuildError> {
        match e {
            Expr::And(..) => {
                let mut conjuncts = Vec::new();
                flatten(e, &mut conjuncts, true);
                // The *leading run* of equality conjuncts becomes a CAND
                // chain (figure 3-9's shape); operand order is preserved, so
                // callers control selectivity ordering (§3.2). Only the
                // leading run is converted: a CAND after a plain conjunct
                // would orphan the value that conjunct left on the stack.
                let last = conjuncts.len() - 1;
                let leading = count_leading_eqs(&conjuncts[..last]);
                for c in &conjuncts[..leading] {
                    let Expr::Cmp(CmpOp::Eq, a, b) = c else {
                        unreachable!()
                    };
                    self.emit_value(a)?;
                    self.emit_with_op(b, BinaryOp::Cand)?;
                }
                for c in &conjuncts[leading..] {
                    self.emit_value(c)?;
                }
                // Combine the plain (non-CAND) conjuncts. Any TRUE words the
                // continuing CANDs pushed sit harmlessly below the result —
                // the verdict is the top of stack.
                let plain = conjuncts.len() - leading;
                for _ in 0..plain.saturating_sub(1) {
                    self.push_instr(Instr::op(BinaryOp::And));
                }
                Ok(())
            }
            Expr::Or(..) => {
                let mut disjuncts = Vec::new();
                flatten(e, &mut disjuncts, false);
                // Dual of the And case: leading equality disjuncts become a
                // COR chain that accepts immediately on match.
                let last = disjuncts.len() - 1;
                let leading = count_leading_eqs(&disjuncts[..last]);
                for d in &disjuncts[..leading] {
                    let Expr::Cmp(CmpOp::Eq, a, b) = d else {
                        unreachable!()
                    };
                    self.emit_value(a)?;
                    self.emit_with_op(b, BinaryOp::Cor)?;
                }
                for d in &disjuncts[leading..] {
                    self.emit_value(d)?;
                }
                let plain = disjuncts.len() - leading;
                for _ in 0..plain.saturating_sub(1) {
                    self.push_instr(Instr::op(BinaryOp::Or));
                }
                Ok(())
            }
            other => self.emit_value(other),
        }
    }

    /// Emits code leaving the expression's value on top of the stack.
    fn emit_value(&mut self, e: &Expr) -> Result<(), BuildError> {
        match e {
            Expr::Word(_) | Expr::Lit(_) | Expr::WordAt(_) => self.emit_push(e),
            Expr::BitAnd(a, b) => self.emit_binary(a, b, BinaryOp::And),
            Expr::BitOr(a, b) => self.emit_binary(a, b, BinaryOp::Or),
            Expr::BitXor(a, b) => self.emit_binary(a, b, BinaryOp::Xor),
            Expr::Arith(op, a, b) => self.emit_binary(a, b, op.binary_op()),
            Expr::Cmp(op, a, b) => self.emit_binary(a, b, op.binary_op()),
            Expr::And(a, b) => self.emit_binary(a, b, BinaryOp::And),
            Expr::Or(a, b) => self.emit_binary(a, b, BinaryOp::Or),
            Expr::Not(a) => {
                // NOT e == (e == 0).
                self.emit_value(a)?;
                self.push_instr(Instr::new(StackAction::PushZero, BinaryOp::Eq));
                Ok(())
            }
        }
    }

    /// Emits `a`, then `b` with `op` folded into `b`'s final push when
    /// possible, else a bare operator instruction.
    fn emit_binary(&mut self, a: &Expr, b: &Expr, op: BinaryOp) -> Result<(), BuildError> {
        self.emit_value(a)?;
        self.emit_with_op(b, op)
    }

    /// Emits `e` and applies `op` afterwards, folding `op` into the final
    /// instruction when that instruction carries no operator.
    fn emit_with_op(&mut self, e: &Expr, op: BinaryOp) -> Result<(), BuildError> {
        let before = self.words.len();
        self.emit_value(e)?;
        // Fold: the last emitted instruction must be a plain push (NOP op)
        // and not a literal word. Track by re-scanning from `before`: we
        // only fold when `e` compiled to a single push (possibly + literal).
        if let Some(folded) = self.try_fold(before) {
            self.words[folded] = {
                let instr = Instr::decode(self.words[folded]).expect("just emitted");
                Instr::new(instr.action, op).encode()
            };
        } else {
            self.push_instr(Instr::op(op));
        }
        Ok(())
    }

    /// Returns the index of the instruction word to fold an operator into,
    /// if the code emitted since `before` is a single operator-free push.
    fn try_fold(&self, before: usize) -> Option<usize> {
        let emitted = &self.words[before..];
        let first = Instr::decode(*emitted.first()?)?;
        let expect_len = if first.takes_literal() { 2 } else { 1 };
        if emitted.len() != expect_len {
            return None;
        }
        (first.op == BinaryOp::Nop && first.action.pushes()).then_some(before)
    }

    fn emit_push(&mut self, e: &Expr) -> Result<(), BuildError> {
        match e {
            Expr::Word(n) => {
                if *n <= MAX_PUSHWORD_INDEX {
                    self.push_instr(Instr::push(StackAction::PushWord(*n as u8)));
                } else {
                    // Lower to PUSHLIT index; PUSHIND.
                    self.push_instr(Instr::push(StackAction::PushLit));
                    self.words.push(*n);
                    self.push_instr(Instr::push(StackAction::PushInd));
                }
                Ok(())
            }
            Expr::Lit(v) => {
                match StackAction::for_constant(*v) {
                    Some(action) => self.push_instr(Instr::push(action)),
                    None => {
                        self.push_instr(Instr::push(StackAction::PushLit));
                        self.words.push(*v);
                    }
                }
                Ok(())
            }
            Expr::WordAt(idx) => {
                self.emit_value(idx)?;
                self.push_instr(Instr::push(StackAction::PushInd));
                Ok(())
            }
            _ => unreachable!("emit_push called on non-push expression"),
        }
    }

    fn push_instr(&mut self, i: Instr) {
        self.words.push(i.encode());
    }
}

/// Counts the leading operands that are equality comparisons.
fn count_leading_eqs(operands: &[Expr]) -> usize {
    operands
        .iter()
        .take_while(|c| matches!(c, Expr::Cmp(CmpOp::Eq, _, _)))
        .count()
}

/// Flattens nested `And`/`Or` chains into an ordered operand list.
fn flatten(e: &Expr, out: &mut Vec<Expr>, conj: bool) {
    match (e, conj) {
        (Expr::And(a, b), true) => {
            flatten(a, out, true);
            flatten(b, out, true);
        }
        (Expr::Or(a, b), false) => {
            flatten(a, out, false);
            flatten(b, out, false);
        }
        _ => out.push(e.clone()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::CheckedInterpreter;
    use crate::packet::PacketView;
    use crate::samples;
    use crate::validate::ValidatedProgram;
    use crate::word::StackAction;

    fn accepts(prog: &FilterProgram, pkt: &[u8]) -> bool {
        CheckedInterpreter.eval(prog, PacketView::new(pkt))
    }

    #[test]
    fn simple_equality() {
        let f = Expr::word(1).eq(2).compile(10).unwrap();
        assert!(accepts(&f, &samples::pup_packet_3mb(2, 0, 35, 1)));
        assert!(!accepts(&f, &samples::pup_packet_3mb(3, 0, 35, 1)));
    }

    #[test]
    fn fig_3_8_equivalent_expression() {
        let pup_type = Expr::word(3).mask(0x00FF);
        let f = Expr::word(1)
            .eq(2)
            .and(pup_type.clone().gt(0))
            .and(pup_type.le(100))
            .compile(10)
            .unwrap();
        let reference = samples::fig_3_8_pup_type_range();
        for ethertype in [2u16, 3] {
            for ptype in [0u8, 1, 50, 100, 101] {
                let pkt = samples::pup_packet_3mb(ethertype, 0, 35, ptype);
                assert_eq!(
                    accepts(&f, &pkt),
                    accepts(&reference, &pkt),
                    "ethertype={ethertype} ptype={ptype}"
                );
            }
        }
    }

    #[test]
    fn fig_3_9_equivalent_expression_uses_cand() {
        let f = Expr::word(8)
            .eq(35)
            .and(Expr::word(7).eq(0))
            .and(Expr::word(1).eq(2))
            .compile(10)
            .unwrap();
        // Leading equality conjuncts must compile to CANDs.
        let has_cand = f
            .disassemble()
            .iter()
            .any(|i| matches!(i, crate::program::DisasmItem::Instr(x) if x.op == BinaryOp::Cand));
        assert!(has_cand, "{f}");
        let reference = samples::fig_3_9_pup_socket_35();
        for (et, hi, lo) in [(2u16, 0u16, 35u16), (2, 0, 36), (2, 1, 35), (3, 0, 35)] {
            let pkt = samples::pup_packet_3mb(et, hi, lo, 1);
            assert_eq!(accepts(&f, &pkt), accepts(&reference, &pkt));
        }
    }

    #[test]
    fn or_chain_uses_cor() {
        let f = Expr::word(1)
            .eq(2)
            .or(Expr::word(1).eq(6))
            .or(Expr::word(1).eq(8))
            .compile(10)
            .unwrap();
        let has_cor = f
            .disassemble()
            .iter()
            .any(|i| matches!(i, crate::program::DisasmItem::Instr(x) if x.op == BinaryOp::Cor));
        assert!(has_cor, "{f}");
        for (et, expect) in [(2u16, true), (6, true), (8, true), (7, false)] {
            let pkt = samples::pup_packet_3mb(et, 0, 35, 1);
            assert_eq!(accepts(&f, &pkt), expect, "ethertype {et}");
        }
    }

    #[test]
    fn mixed_and_or() {
        // (type == 2 || type == 6) && socket_lo == 35
        let f = Expr::word(1)
            .eq(2)
            .or(Expr::word(1).eq(6))
            .and(Expr::word(8).eq(35))
            .compile(10)
            .unwrap();
        assert!(accepts(&f, &samples::pup_packet_3mb(2, 0, 35, 1)));
        assert!(accepts(&f, &samples::pup_packet_3mb(6, 0, 35, 1)));
        assert!(!accepts(&f, &samples::pup_packet_3mb(7, 0, 35, 1)));
        assert!(!accepts(&f, &samples::pup_packet_3mb(2, 0, 36, 1)));
    }

    #[test]
    fn non_eq_conjunct_before_eq_is_preserved() {
        // A non-equality first conjunct must not be orphaned on the stack
        // when later equality conjuncts could short-circuit.
        let f = Expr::word(3)
            .mask(0xFF)
            .gt(50)
            .and(Expr::word(1).eq(2))
            .and(Expr::word(8).eq(35))
            .compile(10)
            .unwrap();
        // gt fails, eqs hold: must reject.
        assert!(!accepts(&f, &samples::pup_packet_3mb(2, 0, 35, 10)));
        // all hold: accept.
        assert!(accepts(&f, &samples::pup_packet_3mb(2, 0, 35, 60)));
        // gt holds, eq fails: reject.
        assert!(!accepts(&f, &samples::pup_packet_3mb(3, 0, 35, 60)));
    }

    #[test]
    fn not_compiles_to_eq_zero() {
        let f = Expr::word(1).eq(2).not().compile(10).unwrap();
        assert!(!accepts(&f, &samples::pup_packet_3mb(2, 0, 35, 1)));
        assert!(accepts(&f, &samples::pup_packet_3mb(3, 0, 35, 1)));
    }

    #[test]
    fn named_constants_are_used() {
        let f = Expr::word(0).mask(0x00FF).eq(0).compile(10).unwrap();
        let uses_00ff = f.disassemble().iter().any(|i| {
            matches!(i, crate::program::DisasmItem::Instr(x) if x.action == StackAction::Push00FF)
        });
        assert!(uses_00ff, "{f}");
    }

    #[test]
    fn comparisons_fold_into_literal_push() {
        // word(0) <= 100 should be 3 words: PUSHWORD, PUSHLIT|LE, 100.
        let f = Expr::word(0).le(100).compile(0).unwrap();
        assert_eq!(f.words().len(), 3, "{f}");
    }

    #[test]
    fn arithmetic_works() {
        let f = Expr::word(0)
            .arith(ArithOp::Add, 1)
            .eq(0x1235)
            .compile(0)
            .unwrap();
        assert!(accepts(&f, &[0x12, 0x34]));
        assert!(!accepts(&f, &[0x12, 0x35]));
    }

    #[test]
    fn big_word_index_lowers_to_pushind() {
        let f = Expr::word(100).eq(0xCAFE).compile(0).unwrap();
        let mut pkt = vec![0u8; 202];
        pkt[200] = 0xCA;
        pkt[201] = 0xFE;
        assert!(accepts(&f, &pkt));
        pkt[201] = 0xFF;
        assert!(!accepts(&f, &pkt));
    }

    #[test]
    fn indirect_expression() {
        // word[word[0]] == 0xCAFE — the §7 variable-offset-header use case.
        let f = Expr::word_at(Expr::word(0)).eq(0xCAFE).compile(0).unwrap();
        assert!(accepts(&f, &[0x00, 0x02, 0x00, 0x00, 0xCA, 0xFE]));
        assert!(!accepts(&f, &[0x00, 0x01, 0x00, 0x00, 0xCA, 0xFE]));
    }

    #[test]
    fn compiled_programs_validate() {
        let exprs = [
            Expr::word(1).eq(2),
            Expr::word(8)
                .eq(35)
                .and(Expr::word(7).eq(0))
                .and(Expr::word(1).eq(2)),
            Expr::word(3)
                .mask(0xFF)
                .gt(0)
                .and(Expr::word(3).mask(0xFF).le(100)),
            Expr::word(1).eq(2).or(Expr::word(1).eq(6)),
            Expr::word(1).eq(2).not(),
        ];
        for e in exprs {
            let p = e.compile(10).expect("compiles");
            ValidatedProgram::new(p).expect("validates");
        }
    }
}
