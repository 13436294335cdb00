//! The checked filter interpreter (§4 of the paper).
//!
//! "The filter interpreter is straightforward, but must be carefully coded
//! since its inner loop is quite busy. It simply iterates through the
//! 'instruction words' of a filter (there are no branch instructions),
//! evaluating the filter predicate using a small stack."
//!
//! This module implements the paper's *production* interpreter: during
//! evaluation of each instruction it "verifies that the instruction is
//! valid, that it doesn't overflow or underflow the evaluation stack, and
//! that it doesn't refer to a field outside the current packet" (§7). Its
//! loop is also the §7 rung that hoists those checks to bind time:
//! [`crate::validate::ValidatedProgram`] runs the same loop with the
//! checks its proof makes redundant compiled out.
//!
//! The language is one language: the paper's instruction set (figure 3-6)
//! plus its §7 extensions for variable-format headers — the indirect push
//! `PUSHIND` and the arithmetic operators `ADD` … `RSH`. What each
//! operator computes is [`crate::word::BinaryOp::apply`]'s. A short-circuit operator
//! that does not terminate the filter pushes its result `R` and continues
//! (§3.1). Only the reserved encodings fail to decode.

use crate::error::RuntimeError;
use crate::packet::PacketView;
use crate::program::FilterProgram;
use crate::word::{Instr, StackAction};

/// Depth of the evaluation stack, in 16-bit words.
///
/// "A small stack" (§4); the exact size is an implementation constant.
pub const STACK_SIZE: usize = 32;

/// Counters describing one filter evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EvalStats {
    /// Instruction words executed (literals not counted).
    pub instructions: u32,
    /// Whether a short-circuit operator terminated evaluation early.
    pub short_circuited: bool,
    /// The runtime fault that ended evaluation, if any (implies reject).
    pub error: Option<RuntimeError>,
}

/// The runtime-checked interpreter.
///
/// # Examples
///
/// ```
/// use pf_filter::interp::CheckedInterpreter;
/// use pf_filter::packet::PacketView;
/// use pf_filter::samples;
///
/// let interp = CheckedInterpreter;
/// let filter = samples::fig_3_9_pup_socket_35();
/// // A 3Mb-Ethernet Pup packet addressed to socket 35:
/// let pkt = samples::pup_packet_3mb(2, 0, 35, 1);
/// assert!(interp.eval(&filter, PacketView::new(&pkt)));
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct CheckedInterpreter;

impl CheckedInterpreter {
    /// Evaluates `filter` against `packet`; `true` means *accept*.
    ///
    /// Runtime faults reject the packet, per §4 ("or an error is detected").
    pub fn eval(&self, filter: &FilterProgram, packet: PacketView<'_>) -> bool {
        self.eval_with_stats(filter, packet).0
    }

    /// Evaluates and also reports execution counters.
    pub fn eval_with_stats(
        &self,
        filter: &FilterProgram,
        packet: PacketView<'_>,
    ) -> (bool, EvalStats) {
        run::<true>(filter.words(), packet, None)
    }

    /// Evaluates under an instruction budget: if more than `budget`
    /// instruction words would execute, evaluation terminates with a
    /// [`RuntimeError::BudgetExceeded`] fault and the packet is rejected.
    ///
    /// The filter language has no branches, so a filter either always fits
    /// the budget or can always exceed it; the budget turns a runaway (or
    /// hostile) filter into a bounded, rejecting one instead of letting it
    /// monopolize the demultiplexer.
    pub fn eval_budgeted(
        &self,
        filter: &FilterProgram,
        packet: PacketView<'_>,
        budget: u32,
    ) -> (bool, EvalStats) {
        run::<true>(filter.words(), packet, Some(budget))
    }
}

/// Evaluates raw program words against a packet, under an optional
/// instruction budget: the language's one evaluation loop.
///
/// With `CHECKED` it is the paper's production interpreter (§4), checking
/// every instruction as it runs. Without, it is the validated rung (§7):
/// the caller holds a [`crate::validate::ValidatedProgram`]'s proof that
/// every word decodes, every `PUSHLIT` has its literal and the stack never
/// overflows or underflows, so the stack checks compile out. Every packet
/// read's bounds and a zero divisor stay dynamic either way.
///
/// Inlined into each caller so that a caller that discards the counters
/// and passes no budget (the validated rung) does not pay for them:
/// called out of line, the validated rung reads no faster than the
/// checked one.
#[inline(always)]
pub(crate) fn run<const CHECKED: bool>(
    words: &[u16],
    packet: PacketView<'_>,
    budget: Option<u32>,
) -> (bool, EvalStats) {
    let mut stats = EvalStats::default();
    // A zero-length filter accepts every packet, as in the historical
    // implementation (a port wanting everything binds an empty filter and
    // pays no interpretation cost — the table 6-10 zero-length row).
    if words.is_empty() {
        return (true, stats);
    }
    let mut stack = [0u16; STACK_SIZE];
    let mut depth = 0usize;
    let mut pc = 0usize;

    macro_rules! fault {
        ($e:expr) => {{
            stats.error = Some($e);
            return (false, stats);
        }};
    }
    macro_rules! push {
        ($offset:expr, $v:expr) => {{
            if CHECKED && depth == STACK_SIZE {
                fault!(RuntimeError::StackOverflow { offset: $offset });
            }
            stack[depth] = $v;
            depth += 1;
        }};
    }

    while pc < words.len() {
        let offset = pc;
        let raw = words[pc];
        pc += 1;
        let Some(instr) = Instr::decode(raw) else {
            fault!(RuntimeError::BadInstruction { offset, word: raw });
        };
        stats.instructions += 1;
        if let Some(limit) = budget {
            if stats.instructions > limit {
                fault!(RuntimeError::BudgetExceeded { limit });
            }
        }

        // Stack action first (§3.1: push, then the binary operation).
        match instr.action {
            StackAction::NoPush => {}
            StackAction::PushLit => {
                let Some(&lit) = words.get(pc) else {
                    fault!(RuntimeError::MissingLiteral { offset });
                };
                pc += 1;
                push!(offset, lit);
            }
            StackAction::PushWord(n) => push!(offset, {
                let index = usize::from(n);
                let Some(v) = packet.word(index) else {
                    fault!(RuntimeError::OutOfPacket { offset, index });
                };
                v
            }),
            StackAction::PushInd => {
                if CHECKED && depth == 0 {
                    fault!(RuntimeError::StackUnderflow { offset });
                }
                let index = usize::from(stack[depth - 1]);
                let Some(v) = packet.word(index) else {
                    fault!(RuntimeError::OutOfPacket { offset, index });
                };
                stack[depth - 1] = v;
            }
            named => push!(offset, named.constant().unwrap_or_default()),
        }

        // Then the binary operator.
        if instr.op.pops() {
            if CHECKED && depth < 2 {
                fault!(RuntimeError::StackUnderflow { offset });
            }
            let t1 = stack[depth - 1];
            let t2 = stack[depth - 2];
            let Some(r) = instr.op.apply(t2, t1) else {
                fault!(RuntimeError::DivideByZero { offset });
            };
            if let Some((terminate_when, verdict)) = instr.op.short_circuit_rule() {
                if (r != 0) == terminate_when {
                    stats.short_circuited = true;
                    return (verdict, stats);
                }
            }
            // Pop two, push R (a continuing short circuit pushes it too).
            depth -= 1;
            stack[depth - 1] = r;
        }
    }

    // "If the value remaining on top of the stack is non-zero, the filter is
    // deemed to have accepted the packet." An empty stack rejects.
    let accept = depth > 0 && stack[depth - 1] != 0;
    (accept, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::Assembler;
    use crate::samples;
    use crate::word::BinaryOp;

    fn interp() -> CheckedInterpreter {
        CheckedInterpreter
    }

    fn eval_on(prog: &FilterProgram, bytes: &[u8]) -> bool {
        interp().eval(prog, PacketView::new(bytes))
    }

    #[test]
    fn empty_program_accepts_everything() {
        // Historical semantics: a zero-length filter accepts all packets.
        let f = FilterProgram::empty(10);
        assert!(eval_on(&f, &[1, 2, 3, 4]));
        assert!(eval_on(&f, &[]));
    }

    #[test]
    fn pushone_accepts_everything() {
        let f = Assembler::new(10).pushone().finish();
        assert!(eval_on(&f, &[]));
        assert!(eval_on(&f, &[0; 64]));
    }

    #[test]
    fn pushzero_rejects_everything() {
        let f = Assembler::new(10).pushzero().finish();
        assert!(!eval_on(&f, &[1, 2]));
    }

    #[test]
    fn top_of_stack_nonzero_accepts() {
        // Any non-zero top-of-stack value accepts, not just 1.
        let f = Assembler::new(10).pushlit(0xBEEF).finish();
        assert!(eval_on(&f, &[]));
    }

    #[test]
    fn comparisons_are_unsigned() {
        // 0x8000 > 0x0001 unsigned (would be negative signed).
        let f = Assembler::new(10)
            .pushlit(0x8000)
            .pushlit_op(BinaryOp::Gt, 1)
            .finish();
        assert!(eval_on(&f, &[]));
    }

    #[test]
    fn each_comparison_op() {
        let cases = [
            (BinaryOp::Eq, 5u16, 5u16, true),
            (BinaryOp::Eq, 5, 6, false),
            (BinaryOp::Neq, 5, 6, true),
            (BinaryOp::Neq, 5, 5, false),
            (BinaryOp::Lt, 4, 5, true),
            (BinaryOp::Lt, 5, 5, false),
            (BinaryOp::Le, 5, 5, true),
            (BinaryOp::Le, 6, 5, false),
            (BinaryOp::Gt, 6, 5, true),
            (BinaryOp::Gt, 5, 5, false),
            (BinaryOp::Ge, 5, 5, true),
            (BinaryOp::Ge, 4, 5, false),
        ];
        for (op, t2, t1, expect) in cases {
            let f = Assembler::new(0).pushlit(t2).pushlit_op(op, t1).finish();
            assert_eq!(eval_on(&f, &[]), expect, "{t2} {op} {t1}");
        }
    }

    #[test]
    fn bitwise_ops() {
        // AND is bitwise: 0x0F0F & 0x00FF = 0x000F (non-zero: accept).
        let f = Assembler::new(0)
            .pushlit(0x0F0F)
            .push_op(StackAction::Push00FF, BinaryOp::And)
            .finish();
        assert!(eval_on(&f, &[]));
        // 0xFF00 & 0x00FF = 0 (reject) — bitwise, not logical.
        let f = Assembler::new(0)
            .push(StackAction::PushFF00)
            .push_op(StackAction::Push00FF, BinaryOp::And)
            .finish();
        assert!(!eval_on(&f, &[]));
        // XOR of equal values = 0.
        let f = Assembler::new(0)
            .pushlit(0xAAAA)
            .pushlit_op(BinaryOp::Xor, 0xAAAA)
            .finish();
        assert!(!eval_on(&f, &[]));
        // OR.
        let f = Assembler::new(0)
            .pushzero()
            .pushlit_op(BinaryOp::Or, 0x10)
            .finish();
        assert!(eval_on(&f, &[]));
    }

    #[test]
    fn masking_idiom_from_fig_3_8() {
        // Word value 0x1234; PUSH00FF | AND extracts 0x34.
        let f = Assembler::new(0)
            .pushword(0)
            .push_op(StackAction::Push00FF, BinaryOp::And)
            .pushlit_op(BinaryOp::Eq, 0x34)
            .finish();
        assert!(eval_on(&f, &[0x12, 0x34]));
        assert!(!eval_on(&f, &[0x12, 0x35]));
    }

    #[test]
    fn pushword_reads_packet() {
        let f = Assembler::new(0)
            .pushword(1)
            .pushlit_op(BinaryOp::Eq, 0x0203)
            .finish();
        assert!(eval_on(&f, &[0x00, 0x01, 0x02, 0x03]));
        assert!(!eval_on(&f, &[0x00, 0x01, 0x02, 0x04]));
    }

    #[test]
    fn out_of_packet_rejects_with_error() {
        let f = Assembler::new(0).pushword(5).finish();
        let (accept, stats) = interp().eval_with_stats(&f, PacketView::new(&[0; 4]));
        assert!(!accept);
        assert_eq!(
            stats.error,
            Some(RuntimeError::OutOfPacket {
                offset: 0,
                index: 5
            })
        );
    }

    #[test]
    fn stack_underflow_rejects() {
        let f = Assembler::new(0).op(BinaryOp::And).finish();
        let (accept, stats) = interp().eval_with_stats(&f, PacketView::new(&[]));
        assert!(!accept);
        assert!(matches!(
            stats.error,
            Some(RuntimeError::StackUnderflow { .. })
        ));
    }

    #[test]
    fn stack_overflow_rejects() {
        let mut a = Assembler::new(0);
        for _ in 0..=STACK_SIZE {
            a = a.pushone();
        }
        let (accept, stats) = interp().eval_with_stats(&a.finish(), PacketView::new(&[]));
        assert!(!accept);
        assert!(matches!(
            stats.error,
            Some(RuntimeError::StackOverflow { .. })
        ));
    }

    #[test]
    fn missing_literal_rejects() {
        let f = Assembler::new(0).push(StackAction::PushLit).finish();
        let (accept, stats) = interp().eval_with_stats(&f, PacketView::new(&[]));
        assert!(!accept);
        assert!(matches!(
            stats.error,
            Some(RuntimeError::MissingLiteral { offset: 0 })
        ));
    }

    #[test]
    fn bad_instruction_rejects() {
        let f = FilterProgram::from_words(0, vec![15 << 6]);
        let (accept, stats) = interp().eval_with_stats(&f, PacketView::new(&[]));
        assert!(!accept);
        assert!(matches!(
            stats.error,
            Some(RuntimeError::BadInstruction { .. })
        ));
    }

    #[test]
    fn fig_3_8_semantics() {
        // Accepts Pup packets (type == 2) with 0 < PupType <= 100.
        let f = samples::fig_3_8_pup_type_range();
        for (ptype, pup_type, expect) in [
            (2u16, 1u8, true),
            (2, 100, true),
            (2, 50, true),
            (2, 0, false),
            (2, 101, false),
            (3, 50, false),
        ] {
            let pkt = samples::pup_packet_3mb_typed(ptype, pup_type, 0, 35, 1);
            assert_eq!(
                eval_on(&f, &pkt),
                expect,
                "ethertype={ptype} puptype={pup_type}"
            );
        }
    }

    #[test]
    fn fig_3_9_semantics() {
        let f = samples::fig_3_9_pup_socket_35();
        // DstSocket == 35 and type == Pup: accept.
        assert!(eval_on(&f, &samples::pup_packet_3mb(2, 0, 35, 1)));
        // Wrong low word of socket: reject (via CAND short-circuit).
        assert!(!eval_on(&f, &samples::pup_packet_3mb(2, 0, 36, 1)));
        // Wrong high word of socket: reject.
        assert!(!eval_on(&f, &samples::pup_packet_3mb(2, 1, 35, 1)));
        // Right socket, wrong type: reject at final EQ.
        assert!(!eval_on(&f, &samples::pup_packet_3mb(3, 0, 35, 1)));
    }

    #[test]
    fn fig_3_9_short_circuits_on_wrong_socket() {
        let f = samples::fig_3_9_pup_socket_35();
        let pkt = samples::pup_packet_3mb(2, 0, 36, 1);
        let (accept, stats) = interp().eval_with_stats(&f, PacketView::new(&pkt));
        assert!(!accept);
        assert!(stats.short_circuited);
        // Only the first two instructions ran (PUSHWORD+8, PUSHLIT|CAND).
        assert_eq!(stats.instructions, 2);
    }

    #[test]
    fn continuing_short_circuit_pushes_r() {
        // A CAND that does not terminate leaves R = TRUE on the stack, and
        // that word is the verdict when nothing follows it.
        let f = Assembler::new(0)
            .pushword(0)
            .pushlit_op(BinaryOp::Cand, 0x1111)
            .finish();
        assert!(eval_on(&f, &[0x11, 0x11]));
        assert!(!eval_on(&f, &[0x22, 0x22]));
        // A continuing COR leaves R = FALSE, which a following operator
        // can pop.
        let f = Assembler::new(0)
            .pushword(0)
            .pushlit_op(BinaryOp::Cor, 0x1111)
            .pushzero_op(BinaryOp::Or)
            .finish();
        let (accept, stats) = interp().eval_with_stats(&f, PacketView::new(&[0x22, 0x22]));
        assert!(!accept);
        assert_eq!(stats.error, None, "OR popped R and the zero");
    }

    #[test]
    fn cor_terminates_true_on_match() {
        let f = Assembler::new(0)
            .pushword(0)
            .pushlit_op(BinaryOp::Cor, 0x1111)
            .pushzero() // only reached when word0 != 0x1111
            .finish();
        assert!(eval_on(&f, &[0x11, 0x11]));
        assert!(!eval_on(&f, &[0x22, 0x22]));
    }

    #[test]
    fn cnor_terminates_false_on_match() {
        let f = Assembler::new(0)
            .pushword(0)
            .pushlit_op(BinaryOp::Cnor, 0x1111)
            .pushone() // only reached when word0 != 0x1111
            .finish();
        assert!(!eval_on(&f, &[0x11, 0x11]));
        assert!(eval_on(&f, &[0x22, 0x22]));
    }

    #[test]
    fn cnand_terminates_true_on_mismatch() {
        let f = Assembler::new(0)
            .pushword(0)
            .pushlit_op(BinaryOp::Cnand, 0x1111)
            .pushzero() // only reached when word0 == 0x1111
            .finish();
        assert!(eval_on(&f, &[0x22, 0x22]));
        assert!(!eval_on(&f, &[0x11, 0x11]));
    }

    #[test]
    fn extended_arithmetic() {
        let cases = [
            (BinaryOp::Add, 2u16, 3u16, 5u16),
            (BinaryOp::Sub, 7, 3, 4),
            (BinaryOp::Sub, 3, 7, 0xFFFC), // wrapping
            (BinaryOp::Mul, 6, 7, 42),
            (BinaryOp::Div, 42, 6, 7),
            (BinaryOp::Mod, 43, 6, 1),
            (BinaryOp::Lsh, 1, 4, 16),
            (BinaryOp::Rsh, 0x0100, 8, 1),
        ];
        for (op, t2, t1, want) in cases {
            let f = Assembler::new(0)
                .pushlit(t2)
                .pushlit_op(op, t1)
                .pushlit_op(BinaryOp::Eq, want)
                .finish();
            assert!(eval_on(&f, &[]), "{t2} {op} {t1} != {want}");
        }
    }

    #[test]
    fn divide_by_zero_rejects() {
        let f = Assembler::new(0)
            .pushlit(4)
            .pushzero_op(BinaryOp::Div)
            .finish();
        let (accept, stats) = interp().eval_with_stats(&f, PacketView::new(&[]));
        assert!(!accept);
        assert!(matches!(
            stats.error,
            Some(RuntimeError::DivideByZero { .. })
        ));
    }

    #[test]
    fn indirect_push() {
        // Word 0 holds an index; PUSHIND loads the word it names.
        let f = Assembler::new(0)
            .pushword(0)
            .push(StackAction::PushInd)
            .pushlit_op(BinaryOp::Eq, 0xCAFE)
            .finish();
        // Packet: word0 = 2, word1 = junk, word2 = 0xCAFE.
        assert!(eval_on(&f, &[0, 2, 0, 0, 0xCA, 0xFE]));
        assert!(!eval_on(&f, &[0, 1, 0, 0, 0xCA, 0xFE]));
        // Index past packet end: reject.
        assert!(!eval_on(&f, &[0, 9, 0, 0, 0xCA, 0xFE]));
    }

    #[test]
    fn indirect_push_on_empty_stack_underflows() {
        let f = Assembler::new(0).push(StackAction::PushInd).finish();
        let (accept, stats) = interp().eval_with_stats(&f, PacketView::new(&[0, 0]));
        assert!(!accept);
        assert!(matches!(
            stats.error,
            Some(RuntimeError::StackUnderflow { .. })
        ));
    }

    #[test]
    fn nop_is_inert() {
        let f = Assembler::new(0).pushone().op(BinaryOp::Nop).finish();
        assert!(eval_on(&f, &[]));
    }

    #[test]
    fn budget_rejects_overlong_evaluation() {
        let f = samples::fig_3_8_pup_type_range(); // 10 instructions
        let pkt = samples::pup_packet_3mb(2, 0, 35, 1);
        let (accept, stats) = interp().eval_budgeted(&f, PacketView::new(&pkt), 5);
        assert!(!accept);
        assert_eq!(stats.error, Some(RuntimeError::BudgetExceeded { limit: 5 }));
        assert_eq!(
            stats.instructions, 6,
            "stopped at the first over-budget word"
        );
    }

    #[test]
    fn budget_large_enough_is_invisible() {
        let f = samples::fig_3_8_pup_type_range();
        let pkt = samples::pup_packet_3mb(2, 0, 35, 1);
        let (unbounded, s0) = interp().eval_with_stats(&f, PacketView::new(&pkt));
        let (bounded, s1) = interp().eval_budgeted(&f, PacketView::new(&pkt), 10);
        assert_eq!(unbounded, bounded);
        assert_eq!(s0, s1);
    }

    #[test]
    fn budget_counts_executed_not_static_instructions() {
        // Short-circuits before the budget is reached: accepted even though
        // the program is statically longer than the budget.
        let f = samples::fig_3_9_pup_socket_35();
        let pkt = samples::pup_packet_3mb(2, 0, 36, 1); // CAND rejects at instr 2
        let (accept, stats) = interp().eval_budgeted(&f, PacketView::new(&pkt), 3);
        assert!(!accept);
        assert!(stats.short_circuited, "terminated by CAND, not the budget");
        assert_eq!(stats.error, None);
    }

    #[test]
    fn stats_count_instructions_not_literals() {
        let f = samples::fig_3_8_pup_type_range();
        let pkt = samples::pup_packet_3mb(2, 0, 35, 1);
        let (accept, stats) = interp().eval_with_stats(&f, PacketView::new(&pkt));
        assert!(accept);
        // Twelve words, two of them literals.
        assert_eq!(stats.instructions, 10);
        assert!(!stats.short_circuited);
        assert_eq!(stats.error, None);
    }
}
