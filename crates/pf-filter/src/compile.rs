//! Filter compilation to a flat micro-op array.
//!
//! §7 of the paper: "Even more speed could be gained by compiling filters
//! into machine code, at the cost of greatly increased implementation
//! complexity." We stay in safe Rust, so "machine code" here means the
//! next-best thing a portable implementation can do: after bind-time
//! validation ([`crate::validate`]), each filter is lowered once into a
//! dense array of pre-decoded micro-operations with `PUSHLIT` literals
//! folded in, and common three-instruction idioms — *push packet word,
//! push literal, compare* — fused into single micro-ops. Per-packet
//! evaluation then does no instruction decoding, no literal fetches, and no
//! safety checks beyond one up-front packet-length comparison.
//!
//! The engine ladder of `paper-report ablations` times this engine against
//! the checked and validated interpreters, reproducing the §7 improvement
//! ladder with real wall-clock numbers.

use crate::error::ValidateError;
use crate::interp;
use crate::packet::PacketView;
use crate::program::FilterProgram;
use crate::validate::ValidatedProgram;
use crate::word::{BinaryOp, Instr, StackAction};

/// A six-way comparison kind for fused compare micro-ops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// `==`
    Eq,
    /// `!=`
    Neq,
    /// `<` (unsigned)
    Lt,
    /// `<=` (unsigned)
    Le,
    /// `>` (unsigned)
    Gt,
    /// `>=` (unsigned)
    Ge,
}

impl Cmp {
    fn apply(self, t2: u16, t1: u16) -> bool {
        match self {
            Cmp::Eq => t2 == t1,
            Cmp::Neq => t2 != t1,
            Cmp::Lt => t2 < t1,
            Cmp::Le => t2 <= t1,
            Cmp::Gt => t2 > t1,
            Cmp::Ge => t2 >= t1,
        }
    }

    fn from_op(op: BinaryOp) -> Option<Self> {
        Some(match op {
            BinaryOp::Eq => Cmp::Eq,
            BinaryOp::Neq => Cmp::Neq,
            BinaryOp::Lt => Cmp::Lt,
            BinaryOp::Le => Cmp::Le,
            BinaryOp::Gt => Cmp::Gt,
            BinaryOp::Ge => Cmp::Ge,
            _ => return None,
        })
    }
}

/// One pre-decoded micro-operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MicroOp {
    /// Push a constant (literals and the named constants, pre-folded).
    PushConst(u16),
    /// Push packet word `n` (bounds proven by the up-front length check).
    PushWord(u16),
    /// Pop an index, push the packet word it names (dynamic check).
    PushInd,
    /// Pop two, push comparison result.
    Cmp(Cmp),
    /// Pop two, push bitwise AND.
    BitAnd,
    /// Pop two, push bitwise OR.
    BitOr,
    /// Pop two, push bitwise XOR.
    BitXor,
    /// Pop two, compare for equality; terminate with `verdict` when the
    /// result equals `when`, else push the result.
    Sc { when: bool, verdict: bool },
    /// Fused `PUSHWORD+n; PUSHLIT|cmp, lit`: push `(pkt[n] cmp lit)`.
    WordCmpConst { word: u16, lit: u16, cmp: Cmp },
    /// Fused `PUSHWORD+n; PUSHLIT|sc, lit` short-circuit test against a
    /// packet word.
    WordScConst {
        word: u16,
        lit: u16,
        when: bool,
        verdict: bool,
    },
    /// Pop two, push arithmetic result (§7).
    Add,
    /// See [`MicroOp::Add`].
    Sub,
    /// See [`MicroOp::Add`].
    Mul,
    /// Pop two, divide; reject on zero divisor.
    Div,
    /// Pop two, remainder; reject on zero divisor.
    Mod,
    /// Pop two, shift left by `t1 & 0xF`.
    Lsh,
    /// Pop two, shift right by `t1 & 0xF`.
    Rsh,
}

/// A filter compiled to micro-ops.
///
/// Construct via [`CompiledFilter::compile`] (which validates first) or
/// [`CompiledFilter::from_validated`]. Semantics are identical to the
/// checked interpreter; short packets take the same checked fallback as
/// [`ValidatedProgram::eval`].
///
/// # Examples
///
/// ```
/// use pf_filter::compile::CompiledFilter;
/// use pf_filter::packet::PacketView;
/// use pf_filter::samples;
///
/// let c = CompiledFilter::compile(samples::fig_3_9_pup_socket_35()).unwrap();
/// let pkt = samples::pup_packet_3mb(2, 0, 35, 1);
/// assert!(c.eval(PacketView::new(&pkt)));
/// ```
#[derive(Debug, Clone)]
pub struct CompiledFilter {
    validated: ValidatedProgram,
    ops: Vec<MicroOp>,
}

impl CompiledFilter {
    /// Validates and compiles.
    ///
    /// # Errors
    ///
    /// Returns the validation error if the program is statically defective.
    pub fn compile(program: FilterProgram) -> Result<Self, ValidateError> {
        Ok(Self::from_validated(ValidatedProgram::new(program)?))
    }

    /// Compiles an already-validated program.
    pub fn from_validated(validated: ValidatedProgram) -> Self {
        let ops = lower(&validated);
        CompiledFilter { validated, ops }
    }

    /// The validated program this was compiled from.
    pub fn validated(&self) -> &ValidatedProgram {
        &self.validated
    }

    /// The filter's priority.
    pub fn priority(&self) -> u8 {
        self.validated.priority()
    }

    /// Number of micro-ops after lowering and fusion.
    pub fn micro_ops(&self) -> usize {
        self.ops.len()
    }

    /// Evaluates against a packet; `true` means *accept*.
    pub fn eval(&self, packet: PacketView<'_>) -> bool {
        if packet.word_len() < self.validated.min_packet_words() {
            return interp::eval_words(self.validated.program().words(), packet).0;
        }
        self.eval_fast(packet)
    }

    fn eval_fast(&self, packet: PacketView<'_>) -> bool {
        // Zero-length filters accept everything (historical semantics).
        if self.ops.is_empty() && self.validated.program().is_empty() {
            return true;
        }
        let mut stack = [0u16; interp::STACK_SIZE];
        let mut depth = 0usize;

        macro_rules! pop2 {
            () => {{
                let t1 = stack[depth - 1];
                let t2 = stack[depth - 2];
                depth -= 2;
                (t2, t1)
            }};
        }
        macro_rules! push {
            ($v:expr) => {{
                stack[depth] = $v;
                depth += 1;
            }};
        }

        for op in &self.ops {
            match *op {
                MicroOp::PushConst(c) => push!(c),
                MicroOp::PushWord(n) => push!(packet.word(usize::from(n)).unwrap_or(0)),
                MicroOp::PushInd => {
                    let idx = usize::from(stack[depth - 1]);
                    match packet.word(idx) {
                        Some(v) => stack[depth - 1] = v,
                        None => return false,
                    }
                }
                MicroOp::Cmp(c) => {
                    let (t2, t1) = pop2!();
                    push!(u16::from(c.apply(t2, t1)));
                }
                MicroOp::BitAnd => {
                    let (t2, t1) = pop2!();
                    push!(t2 & t1);
                }
                MicroOp::BitOr => {
                    let (t2, t1) = pop2!();
                    push!(t2 | t1);
                }
                MicroOp::BitXor => {
                    let (t2, t1) = pop2!();
                    push!(t2 ^ t1);
                }
                MicroOp::Sc { when, verdict } => {
                    let (t2, t1) = pop2!();
                    let r = t2 == t1;
                    if r == when {
                        return verdict;
                    }
                    push!(u16::from(r));
                }
                MicroOp::WordCmpConst { word, lit, cmp } => {
                    let v = packet.word(usize::from(word)).unwrap_or(0);
                    push!(u16::from(cmp.apply(v, lit)));
                }
                MicroOp::WordScConst {
                    word,
                    lit,
                    when,
                    verdict,
                } => {
                    let v = packet.word(usize::from(word)).unwrap_or(0);
                    let r = v == lit;
                    if r == when {
                        return verdict;
                    }
                    push!(u16::from(r));
                }
                MicroOp::Add => {
                    let (t2, t1) = pop2!();
                    push!(t2.wrapping_add(t1));
                }
                MicroOp::Sub => {
                    let (t2, t1) = pop2!();
                    push!(t2.wrapping_sub(t1));
                }
                MicroOp::Mul => {
                    let (t2, t1) = pop2!();
                    push!(t2.wrapping_mul(t1));
                }
                MicroOp::Div => {
                    let (t2, t1) = pop2!();
                    if t1 == 0 {
                        return false;
                    }
                    push!(t2 / t1);
                }
                MicroOp::Mod => {
                    let (t2, t1) = pop2!();
                    if t1 == 0 {
                        return false;
                    }
                    push!(t2 % t1);
                }
                MicroOp::Lsh => {
                    let (t2, t1) = pop2!();
                    push!(t2 << (t1 & 0xF));
                }
                MicroOp::Rsh => {
                    let (t2, t1) = pop2!();
                    push!(t2 >> (t1 & 0xF));
                }
            }
        }
        depth > 0 && stack[depth - 1] != 0
    }
}

/// Lowers a validated program to micro-ops, fusing the
/// `PUSHWORD; PUSHLIT|op` idiom.
fn lower(validated: &ValidatedProgram) -> Vec<MicroOp> {
    let words = validated.program().words();
    let mut ops: Vec<MicroOp> = Vec::new();
    let mut pc = 0usize;

    while pc < words.len() {
        let instr = Instr::decode(words[pc]).expect("validated program decodes");
        pc += 1;

        // Stack action.
        match instr.action {
            StackAction::NoPush => {}
            StackAction::PushLit => {
                let lit = words[pc];
                pc += 1;
                ops.push(MicroOp::PushConst(lit));
            }
            StackAction::PushZero => ops.push(MicroOp::PushConst(0)),
            StackAction::PushOne => ops.push(MicroOp::PushConst(1)),
            StackAction::PushFFFF => ops.push(MicroOp::PushConst(0xFFFF)),
            StackAction::PushFF00 => ops.push(MicroOp::PushConst(0xFF00)),
            StackAction::Push00FF => ops.push(MicroOp::PushConst(0x00FF)),
            StackAction::PushWord(n) => ops.push(MicroOp::PushWord(u16::from(n))),
            StackAction::PushInd => ops.push(MicroOp::PushInd),
        }

        // Binary operator, with peephole fusion against the just-emitted
        // pushes: `PushWord(n), PushConst(c), <cmp>` → `WordCmpConst`.
        if instr.op.pops() {
            let fused = try_fuse(&mut ops, instr.op);
            if !fused {
                ops.push(match instr.op {
                    BinaryOp::Eq
                    | BinaryOp::Neq
                    | BinaryOp::Lt
                    | BinaryOp::Le
                    | BinaryOp::Gt
                    | BinaryOp::Ge => MicroOp::Cmp(Cmp::from_op(instr.op).expect("comparison op")),
                    BinaryOp::And => MicroOp::BitAnd,
                    BinaryOp::Or => MicroOp::BitOr,
                    BinaryOp::Xor => MicroOp::BitXor,
                    BinaryOp::Cor | BinaryOp::Cand | BinaryOp::Cnor | BinaryOp::Cnand => {
                        let (when, verdict) =
                            instr.op.short_circuit_rule().expect("short-circuit op");
                        MicroOp::Sc { when, verdict }
                    }
                    BinaryOp::Add => MicroOp::Add,
                    BinaryOp::Sub => MicroOp::Sub,
                    BinaryOp::Mul => MicroOp::Mul,
                    BinaryOp::Div => MicroOp::Div,
                    BinaryOp::Mod => MicroOp::Mod,
                    BinaryOp::Lsh => MicroOp::Lsh,
                    BinaryOp::Rsh => MicroOp::Rsh,
                    BinaryOp::Nop => unreachable!("NOP does not pop"),
                });
            }
        }
    }
    ops
}

/// Attempts to fuse the trailing `PushWord, PushConst` pair with `op`.
/// Returns `true` if a fused micro-op was emitted.
fn try_fuse(ops: &mut Vec<MicroOp>, op: BinaryOp) -> bool {
    let n = ops.len();
    if n < 2 {
        return false;
    }
    let (MicroOp::PushWord(word), MicroOp::PushConst(lit)) = (ops[n - 2], ops[n - 1]) else {
        return false;
    };
    if let Some(cmp) = Cmp::from_op(op) {
        ops.truncate(n - 2);
        ops.push(MicroOp::WordCmpConst { word, lit, cmp });
        return true;
    }
    if let Some((when, verdict)) = op.short_circuit_rule() {
        ops.truncate(n - 2);
        ops.push(MicroOp::WordScConst {
            word,
            lit,
            when,
            verdict,
        });
        return true;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::CheckedInterpreter;
    use crate::program::Assembler;
    use crate::samples;

    #[test]
    fn matches_checked_on_paper_filters() {
        let checked = CheckedInterpreter;
        for f in [
            samples::fig_3_8_pup_type_range(),
            samples::fig_3_9_pup_socket_35(),
            samples::accept_all(1),
            samples::reject_all(1),
            samples::ethertype_filter(1, 2),
        ] {
            let c = CompiledFilter::compile(f.clone()).unwrap();
            for ethertype in [2u16, 3] {
                for sock in [35u16, 36, 0] {
                    for ptype in [0u8, 1, 100, 101] {
                        let pkt = samples::pup_packet_3mb(ethertype, 0, sock, ptype);
                        let view = PacketView::new(&pkt);
                        assert_eq!(checked.eval(&f, view), c.eval(view), "{f}");
                    }
                }
            }
        }
    }

    #[test]
    fn fusion_shrinks_fig_3_9() {
        // Fig 3-9 is three word-vs-literal tests: 6 instructions (8 words)
        // fuse to exactly 3 micro-ops.
        let c = CompiledFilter::compile(samples::fig_3_9_pup_socket_35()).unwrap();
        assert_eq!(c.micro_ops(), 3);
    }

    #[test]
    fn fusion_handles_comparisons() {
        let f = Assembler::new(0)
            .pushword(0)
            .pushlit_op(BinaryOp::Gt, 5)
            .finish();
        let c = CompiledFilter::compile(f).unwrap();
        assert_eq!(c.micro_ops(), 1);
        assert!(c.eval(PacketView::new(&[0x00, 0x06])));
        assert!(!c.eval(PacketView::new(&[0x00, 0x05])));
    }

    #[test]
    fn no_fusion_across_non_adjacent_pushes() {
        // PUSHZERO between the word push and the literal push: no fusion.
        let f = Assembler::new(0)
            .pushword(0)
            .pushzero()
            .op(BinaryOp::Or)
            .pushlit_op(BinaryOp::Eq, 0x1234)
            .finish();
        let c = CompiledFilter::compile(f).unwrap();
        assert!(c.eval(PacketView::new(&[0x12, 0x34])));
        assert!(!c.eval(PacketView::new(&[0x12, 0x35])));
    }

    #[test]
    fn short_packet_fallback() {
        let c = CompiledFilter::compile(samples::fig_3_9_pup_socket_35()).unwrap();
        assert!(!c.eval(PacketView::new(&[0x01, 0x02])));
    }

    #[test]
    fn section_7_arithmetic_compiles() {
        let f = Assembler::new(0)
            .pushword(0)
            .pushlit_op(BinaryOp::Add, 1)
            .pushlit_op(BinaryOp::Eq, 0x1235)
            .finish();
        let c = CompiledFilter::compile(f).unwrap();
        assert!(c.eval(PacketView::new(&[0x12, 0x34])));
        assert!(!c.eval(PacketView::new(&[0x12, 0x33])));
    }

    #[test]
    fn fused_short_circuit_terminates() {
        let c = CompiledFilter::compile(samples::fig_3_9_pup_socket_35()).unwrap();
        // Wrong socket low word: the fused CAND must reject.
        let pkt = samples::pup_packet_3mb(2, 0, 99, 1);
        assert!(!c.eval(PacketView::new(&pkt)));
    }

    #[test]
    fn empty_program_accepts() {
        let c = CompiledFilter::compile(FilterProgram::empty(0)).unwrap();
        assert!(c.eval(PacketView::new(&[1, 2])));
        assert_eq!(c.micro_ops(), 0);
    }
}
