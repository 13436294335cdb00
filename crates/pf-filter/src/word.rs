//! Instruction-word encoding for the packet-filter language.
//!
//! A filter program is an array of 16-bit words (figure 3-6 of the paper).
//! Each word is normally an *instruction* with two fields:
//!
//! ```text
//!         10 bits              6 bits
//!   +------------------+----------------+
//!   |  Binary Operator |  Stack Action  |
//!   +------------------+----------------+
//! ```
//!
//! A [`StackAction`] may push a constant or a word of the received packet
//! onto the evaluation stack; a [`BinaryOp`] pops the top two words and
//! pushes a result. The stack action executes *first*, then the binary
//! operator — this matches the paper's examples, where
//! `PUSHLIT | EQ, 2` pushes the literal `2` and then compares.
//!
//! If the stack action is [`StackAction::PushLit`], the *following* word of
//! the program is the literal constant to push, and is not itself decoded as
//! an instruction.
//!
//! The numeric encodings below are this crate's canonical encoding. They
//! follow the field layout of the paper exactly; the concrete opcode numbers
//! of the historical 4.3BSD `enet.h` differed slightly and are not part of
//! any stable interface the paper defines.

use core::fmt;

/// Number of bits in the stack-action field (the low bits of a word).
pub const STACK_ACTION_BITS: u32 = 6;

/// Bit mask selecting the stack-action field.
pub const STACK_ACTION_MASK: u16 = (1 << STACK_ACTION_BITS) - 1;

/// First stack-action code used by `PUSHWORD+n` (so `n = code - PUSHWORD_BASE`).
pub const PUSHWORD_BASE: u16 = 16;

/// Largest packet-word index expressible by `PUSHWORD+n` (6-bit field).
pub const MAX_PUSHWORD_INDEX: u16 = STACK_ACTION_MASK - PUSHWORD_BASE; // 47

/// The stack-action field of an instruction word.
///
/// Executed before the instruction's [`BinaryOp`]. Every variant except
/// [`StackAction::NoPush`] pushes exactly one 16-bit word on the stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StackAction {
    /// Push nothing.
    NoPush,
    /// Push the literal constant stored in the following program word.
    PushLit,
    /// Push the constant `0`.
    PushZero,
    /// Push the constant `1`.
    PushOne,
    /// Push the constant `0xFFFF`.
    PushFFFF,
    /// Push the constant `0xFF00`.
    PushFF00,
    /// Push the constant `0x00FF`.
    Push00FF,
    /// §7 extension: pop the top of stack and push the packet word it
    /// indexes ("indirect push", for variable-format headers).
    PushInd,
    /// Push the `n`th 16-bit word of the received packet (`PUSHWORD+n`).
    PushWord(u8),
}

impl StackAction {
    /// Decodes a stack-action field value.
    ///
    /// Returns `None` for reserved encodings.
    pub fn decode(code: u16) -> Option<Self> {
        Some(match code {
            0 => StackAction::NoPush,
            1 => StackAction::PushLit,
            2 => StackAction::PushZero,
            3 => StackAction::PushOne,
            4 => StackAction::PushFFFF,
            5 => StackAction::PushFF00,
            6 => StackAction::Push00FF,
            7 => StackAction::PushInd,
            PUSHWORD_BASE..=STACK_ACTION_MASK => {
                StackAction::PushWord((code - PUSHWORD_BASE) as u8)
            }
            _ => return None,
        })
    }

    /// Encodes this stack action into its 6-bit field value.
    ///
    /// # Panics
    ///
    /// Panics if a [`StackAction::PushWord`] index exceeds
    /// [`MAX_PUSHWORD_INDEX`]; use [`StackAction::try_encode`] for a fallible
    /// version.
    pub fn encode(self) -> u16 {
        self.try_encode()
            .expect("PUSHWORD index out of range for 6-bit stack-action field")
    }

    /// Encodes this stack action, returning `None` if a
    /// [`StackAction::PushWord`] index does not fit the 6-bit field.
    pub fn try_encode(self) -> Option<u16> {
        Some(match self {
            StackAction::NoPush => 0,
            StackAction::PushLit => 1,
            StackAction::PushZero => 2,
            StackAction::PushOne => 3,
            StackAction::PushFFFF => 4,
            StackAction::PushFF00 => 5,
            StackAction::Push00FF => 6,
            StackAction::PushInd => 7,
            StackAction::PushWord(n) => {
                if u16::from(n) > MAX_PUSHWORD_INDEX {
                    return None;
                }
                PUSHWORD_BASE + u16::from(n)
            }
        })
    }

    /// Whether this action pushes a word on the stack.
    pub fn pushes(self) -> bool {
        !matches!(self, StackAction::NoPush)
    }

    /// Whether this action consumes the following program word as a literal.
    pub fn takes_literal(self) -> bool {
        matches!(self, StackAction::PushLit)
    }

    /// Whether this action is a §7 extension to the paper's figure 3-6.
    pub fn is_extended(self) -> bool {
        matches!(self, StackAction::PushInd)
    }

    /// The word this action pushes when it names a constant: `0`, `1`,
    /// `0xFFFF`, `0xFF00` or `0x00FF`. `None` for every other action.
    pub fn constant(self) -> Option<u16> {
        Some(match self {
            StackAction::PushZero => 0,
            StackAction::PushOne => 1,
            StackAction::PushFFFF => 0xFFFF,
            StackAction::PushFF00 => 0xFF00,
            StackAction::Push00FF => 0x00FF,
            _ => return None,
        })
    }

    /// The action that pushes `value` as a named constant, if one does.
    pub fn for_constant(value: u16) -> Option<Self> {
        (0..PUSHWORD_BASE)
            .filter_map(StackAction::decode)
            .find(|a| a.constant() == Some(value))
    }
}

impl fmt::Display for StackAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StackAction::NoPush => write!(f, "NOPUSH"),
            StackAction::PushLit => write!(f, "PUSHLIT"),
            StackAction::PushZero => write!(f, "PUSHZERO"),
            StackAction::PushOne => write!(f, "PUSHONE"),
            StackAction::PushFFFF => write!(f, "PUSHFFFF"),
            StackAction::PushFF00 => write!(f, "PUSHFF00"),
            StackAction::Push00FF => write!(f, "PUSH00FF"),
            StackAction::PushInd => write!(f, "PUSHIND"),
            StackAction::PushWord(n) => write!(f, "PUSHWORD+{n}"),
        }
    }
}

/// The binary-operator field of an instruction word.
///
/// All operators except [`BinaryOp::Nop`] pop the top two stack words —
/// `T1` (top) and `T2` (below it) — and push one result `R`.
///
/// Comparison operators push `1` for TRUE and `0` for FALSE, comparing the
/// words as unsigned 16-bit integers (`R := T2 < T1` for `LT`, etc.).
///
/// `AND`, `OR` and `XOR` are *bitwise* — this is what makes the masking
/// idiom of figure 3-8 (`PUSH00FF | AND` to extract a byte-wide field) work.
/// For the purpose of *accepting* a packet, any non-zero value is TRUE.
///
/// The four short-circuit operators (`COR`, `CAND`, `CNOR`, `CNAND`) all
/// evaluate `R := (T2 == T1)` and then either terminate the whole filter
/// immediately with a fixed verdict, or push `R` and continue:
///
/// | operator | terminates with | when `R` is |
/// |----------|-----------------|-------------|
/// | `COR`    | accept          | TRUE        |
/// | `CAND`   | reject          | FALSE       |
/// | `CNOR`   | reject          | TRUE        |
/// | `CNAND`  | accept          | FALSE       |
///
/// The arithmetic and shift operators are §7 extensions to figure 3-6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinaryOp {
    /// No effect on the stack.
    Nop,
    /// `R := (T2 == T1)`.
    Eq,
    /// `R := (T2 != T1)`.
    Neq,
    /// `R := (T2 < T1)`, unsigned.
    Lt,
    /// `R := (T2 <= T1)`, unsigned.
    Le,
    /// `R := (T2 > T1)`, unsigned.
    Gt,
    /// `R := (T2 >= T1)`, unsigned.
    Ge,
    /// `R := T2 & T1` (bitwise).
    And,
    /// `R := T2 | T1` (bitwise).
    Or,
    /// `R := T2 ^ T1` (bitwise).
    Xor,
    /// Short-circuit OR: accept immediately if `T2 == T1`.
    Cor,
    /// Short-circuit AND: reject immediately if `T2 != T1`.
    Cand,
    /// Short-circuit NOR: reject immediately if `T2 == T1`.
    Cnor,
    /// Short-circuit NAND: accept immediately if `T2 != T1`.
    Cnand,
    /// §7 extension: `R := T2 + T1` (wrapping).
    Add,
    /// §7 extension: `R := T2 - T1` (wrapping).
    Sub,
    /// §7 extension: `R := T2 * T1` (wrapping).
    Mul,
    /// §7 extension: `R := T2 / T1`; division by zero is a runtime error.
    Div,
    /// §7 extension: `R := T2 % T1`; division by zero is a runtime error.
    Mod,
    /// §7 extension: `R := T2 << T1` (shift count masked to 0–15).
    Lsh,
    /// §7 extension: `R := T2 >> T1` (shift count masked to 0–15).
    Rsh,
}

impl BinaryOp {
    /// Decodes a binary-operator field value.
    ///
    /// Returns `None` for reserved encodings.
    pub fn decode(code: u16) -> Option<Self> {
        Some(match code {
            0 => BinaryOp::Nop,
            1 => BinaryOp::Eq,
            2 => BinaryOp::Neq,
            3 => BinaryOp::Lt,
            4 => BinaryOp::Le,
            5 => BinaryOp::Gt,
            6 => BinaryOp::Ge,
            7 => BinaryOp::And,
            8 => BinaryOp::Or,
            9 => BinaryOp::Xor,
            10 => BinaryOp::Cor,
            11 => BinaryOp::Cand,
            12 => BinaryOp::Cnor,
            13 => BinaryOp::Cnand,
            16 => BinaryOp::Add,
            17 => BinaryOp::Sub,
            18 => BinaryOp::Mul,
            19 => BinaryOp::Div,
            20 => BinaryOp::Mod,
            21 => BinaryOp::Lsh,
            22 => BinaryOp::Rsh,
            _ => return None,
        })
    }

    /// Encodes this operator into its 10-bit field value.
    pub fn encode(self) -> u16 {
        match self {
            BinaryOp::Nop => 0,
            BinaryOp::Eq => 1,
            BinaryOp::Neq => 2,
            BinaryOp::Lt => 3,
            BinaryOp::Le => 4,
            BinaryOp::Gt => 5,
            BinaryOp::Ge => 6,
            BinaryOp::And => 7,
            BinaryOp::Or => 8,
            BinaryOp::Xor => 9,
            BinaryOp::Cor => 10,
            BinaryOp::Cand => 11,
            BinaryOp::Cnor => 12,
            BinaryOp::Cnand => 13,
            BinaryOp::Add => 16,
            BinaryOp::Sub => 17,
            BinaryOp::Mul => 18,
            BinaryOp::Div => 19,
            BinaryOp::Mod => 20,
            BinaryOp::Lsh => 21,
            BinaryOp::Rsh => 22,
        }
    }

    /// Whether this operator pops two words (i.e. is not `NOP`).
    pub fn pops(self) -> bool {
        !matches!(self, BinaryOp::Nop)
    }

    /// Whether this is one of the four short-circuit operators.
    pub fn is_short_circuit(self) -> bool {
        matches!(
            self,
            BinaryOp::Cor | BinaryOp::Cand | BinaryOp::Cnor | BinaryOp::Cnand
        )
    }

    /// Whether this operator is a §7 extension to the paper's figure 3-6.
    pub fn is_extended(self) -> bool {
        matches!(
            self,
            BinaryOp::Add
                | BinaryOp::Sub
                | BinaryOp::Mul
                | BinaryOp::Div
                | BinaryOp::Mod
                | BinaryOp::Lsh
                | BinaryOp::Rsh
        )
    }

    /// The value `R` this operator computes from `T2` and `T1`: the one
    /// statement of the operators' meaning every engine evaluates.
    ///
    /// Comparisons give `1` or `0`; `ADD`, `SUB` and `MUL` wrap; `LSH`
    /// and `RSH` mask the shift count to its low 4 bits. `DIV` and `MOD`
    /// by zero give `None`, the runtime fault that rejects the packet. A
    /// short-circuit operator gives `R = (T2 == T1)`, the word it pushes
    /// when it does not terminate ([`BinaryOp::short_circuit_rule`]).
    /// `NOP` pops nothing; its value is `T1`, the word it leaves on top.
    // Inlinable across crates: pf-ir's threaded code applies it per packet.
    #[inline]
    pub fn apply(self, t2: u16, t1: u16) -> Option<u16> {
        Some(match self {
            BinaryOp::Nop => t1,
            BinaryOp::Eq | BinaryOp::Cor | BinaryOp::Cand | BinaryOp::Cnor | BinaryOp::Cnand => {
                u16::from(t2 == t1)
            }
            BinaryOp::Neq => u16::from(t2 != t1),
            BinaryOp::Lt => u16::from(t2 < t1),
            BinaryOp::Le => u16::from(t2 <= t1),
            BinaryOp::Gt => u16::from(t2 > t1),
            BinaryOp::Ge => u16::from(t2 >= t1),
            BinaryOp::And => t2 & t1,
            BinaryOp::Or => t2 | t1,
            BinaryOp::Xor => t2 ^ t1,
            BinaryOp::Add => t2.wrapping_add(t1),
            BinaryOp::Sub => t2.wrapping_sub(t1),
            BinaryOp::Mul => t2.wrapping_mul(t1),
            BinaryOp::Div => t2.checked_div(t1)?,
            BinaryOp::Mod => t2.checked_rem(t1)?,
            BinaryOp::Lsh => t2 << (t1 & 0xF),
            BinaryOp::Rsh => t2 >> (t1 & 0xF),
        })
    }

    /// Whether [`BinaryOp::apply`] can fault (`DIV` and `MOD`), so that
    /// no engine may drop the operator as dead code.
    pub fn can_fault(self) -> bool {
        matches!(self, BinaryOp::Div | BinaryOp::Mod)
    }

    /// For a short-circuit operator, returns `(terminate_when, verdict)`:
    /// the filter terminates with `verdict` when `R == terminate_when`.
    ///
    /// Returns `None` for non-short-circuit operators.
    pub fn short_circuit_rule(self) -> Option<(bool, bool)> {
        Some(match self {
            BinaryOp::Cor => (true, true),
            BinaryOp::Cand => (false, false),
            BinaryOp::Cnor => (true, false),
            BinaryOp::Cnand => (false, true),
            _ => return None,
        })
    }
}

impl fmt::Display for BinaryOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinaryOp::Nop => "NOP",
            BinaryOp::Eq => "EQ",
            BinaryOp::Neq => "NEQ",
            BinaryOp::Lt => "LT",
            BinaryOp::Le => "LE",
            BinaryOp::Gt => "GT",
            BinaryOp::Ge => "GE",
            BinaryOp::And => "AND",
            BinaryOp::Or => "OR",
            BinaryOp::Xor => "XOR",
            BinaryOp::Cor => "COR",
            BinaryOp::Cand => "CAND",
            BinaryOp::Cnor => "CNOR",
            BinaryOp::Cnand => "CNAND",
            BinaryOp::Add => "ADD",
            BinaryOp::Sub => "SUB",
            BinaryOp::Mul => "MUL",
            BinaryOp::Div => "DIV",
            BinaryOp::Mod => "MOD",
            BinaryOp::Lsh => "LSH",
            BinaryOp::Rsh => "RSH",
        };
        f.write_str(s)
    }
}

/// A decoded instruction word: one stack action plus one binary operator.
///
/// # Examples
///
/// ```
/// use pf_filter::word::{BinaryOp, Instr, StackAction};
///
/// // `PUSHWORD+1` with no operator, as in figure 3-8.
/// let i = Instr::new(StackAction::PushWord(1), BinaryOp::Nop);
/// let w = i.encode();
/// assert_eq!(Instr::decode(w), Some(i));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Instr {
    /// The stack action, executed first.
    pub action: StackAction,
    /// The binary operator, executed after the stack action.
    pub op: BinaryOp,
}

impl Instr {
    /// Creates an instruction from its two fields.
    pub fn new(action: StackAction, op: BinaryOp) -> Self {
        Instr { action, op }
    }

    /// An instruction that only performs a stack action.
    pub fn push(action: StackAction) -> Self {
        Instr::new(action, BinaryOp::Nop)
    }

    /// An instruction that only performs a binary operation.
    pub fn op(op: BinaryOp) -> Self {
        Instr::new(StackAction::NoPush, op)
    }

    /// Decodes an instruction word; `None` if either field is reserved.
    pub fn decode(word: u16) -> Option<Self> {
        let action = StackAction::decode(word & STACK_ACTION_MASK)?;
        let op = BinaryOp::decode(word >> STACK_ACTION_BITS)?;
        Some(Instr { action, op })
    }

    /// Encodes this instruction into a 16-bit word.
    pub fn encode(self) -> u16 {
        (self.op.encode() << STACK_ACTION_BITS) | self.action.encode()
    }

    /// Whether this instruction consumes the next program word as a literal.
    pub fn takes_literal(self) -> bool {
        self.action.takes_literal()
    }

    /// Whether this instruction uses any §7 extension.
    pub fn is_extended(self) -> bool {
        self.action.is_extended() || self.op.is_extended()
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.action, self.op) {
            (a, BinaryOp::Nop) => write!(f, "{a}"),
            (StackAction::NoPush, op) => write!(f, "{op}"),
            (a, op) => write!(f, "{a} | {op}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stack_action_round_trip() {
        let all = [
            StackAction::NoPush,
            StackAction::PushLit,
            StackAction::PushZero,
            StackAction::PushOne,
            StackAction::PushFFFF,
            StackAction::PushFF00,
            StackAction::Push00FF,
            StackAction::PushInd,
            StackAction::PushWord(0),
            StackAction::PushWord(7),
            StackAction::PushWord(47),
        ];
        for a in all {
            assert_eq!(StackAction::decode(a.encode()), Some(a), "{a}");
        }
    }

    #[test]
    fn pushword_range() {
        assert_eq!(StackAction::PushWord(47).try_encode(), Some(63));
        assert_eq!(StackAction::PushWord(48).try_encode(), None);
    }

    #[test]
    #[should_panic(expected = "PUSHWORD index out of range")]
    fn pushword_encode_panics_out_of_range() {
        let _ = StackAction::PushWord(48).encode();
    }

    #[test]
    fn reserved_stack_actions_decode_to_none() {
        for code in 8..PUSHWORD_BASE {
            assert_eq!(StackAction::decode(code), None, "code {code}");
        }
    }

    #[test]
    fn binary_op_round_trip() {
        for code in 0u16..1024 {
            if let Some(op) = BinaryOp::decode(code) {
                assert_eq!(op.encode(), code);
            }
        }
    }

    #[test]
    fn reserved_binary_ops() {
        assert_eq!(BinaryOp::decode(14), None);
        assert_eq!(BinaryOp::decode(15), None);
        assert_eq!(BinaryOp::decode(23), None);
        assert_eq!(BinaryOp::decode(1023), None);
    }

    #[test]
    fn instr_round_trip() {
        let i = Instr::new(StackAction::Push00FF, BinaryOp::And);
        assert_eq!(Instr::decode(i.encode()), Some(i));
        let i = Instr::new(StackAction::PushWord(3), BinaryOp::Cand);
        assert_eq!(Instr::decode(i.encode()), Some(i));
    }

    #[test]
    fn instr_field_layout_matches_paper() {
        // Low 6 bits stack action, high 10 bits operator.
        let i = Instr::new(StackAction::PushLit, BinaryOp::Eq);
        let w = i.encode();
        assert_eq!(w & STACK_ACTION_MASK, 1);
        assert_eq!(w >> STACK_ACTION_BITS, 1);
    }

    #[test]
    fn short_circuit_rules_match_paper_table() {
        assert_eq!(BinaryOp::Cor.short_circuit_rule(), Some((true, true)));
        assert_eq!(BinaryOp::Cand.short_circuit_rule(), Some((false, false)));
        assert_eq!(BinaryOp::Cnor.short_circuit_rule(), Some((true, false)));
        assert_eq!(BinaryOp::Cnand.short_circuit_rule(), Some((false, true)));
        assert_eq!(BinaryOp::Eq.short_circuit_rule(), None);
    }

    #[test]
    fn apply_faults_on_zero_divisors_and_masks_shift_counts() {
        assert_eq!(BinaryOp::Div.apply(7, 0), None);
        assert_eq!(BinaryOp::Mod.apply(7, 0), None);
        assert_eq!(BinaryOp::Lsh.apply(1, 16), Some(1));
        assert_eq!(BinaryOp::Rsh.apply(0x8000, 17), Some(0x4000));
        assert_eq!(BinaryOp::Sub.apply(3, 7), Some(0xFFFC));
        assert_eq!(BinaryOp::Cnand.apply(5, 5), Some(1));
    }

    #[test]
    fn named_constants_round_trip() {
        for v in [0, 1, 0xFFFF, 0xFF00, 0x00FF] {
            let a = StackAction::for_constant(v).expect("named");
            assert_eq!(a.constant(), Some(v), "{a}");
        }
        assert_eq!(StackAction::for_constant(2), None);
        assert_eq!(StackAction::PushLit.constant(), None);
    }

    #[test]
    fn display_forms() {
        assert_eq!(
            Instr::push(StackAction::PushWord(3)).to_string(),
            "PUSHWORD+3"
        );
        assert_eq!(Instr::op(BinaryOp::And).to_string(), "AND");
        assert_eq!(
            Instr::new(StackAction::PushLit, BinaryOp::Eq).to_string(),
            "PUSHLIT | EQ"
        );
    }

    #[test]
    fn extended_classification() {
        assert!(Instr::push(StackAction::PushInd).is_extended());
        assert!(Instr::op(BinaryOp::Add).is_extended());
        assert!(!Instr::new(StackAction::PushLit, BinaryOp::Cand).is_extended());
    }
}
