//! Bind-time filter validation and the fast (check-free) interpreter.
//!
//! §7 of the paper: "During evaluation of each filter instruction, the
//! interpreter verifies that the instruction is valid, that it doesn't
//! overflow or underflow the evaluation stack, and that it doesn't refer to
//! a field outside the current packet. Since the filter language does not
//! include branching instructions, all these tests can be performed ahead
//! of time (except for indirect-push instructions); this might significantly
//! speed filter evaluation."
//!
//! [`ValidatedProgram`] implements exactly that: binding a filter runs a
//! single linear static analysis (instruction validity, exact stack depths,
//! the maximum packet word referenced), after which per-packet evaluation
//! needs only one packet-length comparison up front. If a packet is too
//! short for the fast path — where the static analysis cannot promise the
//! bounds check — evaluation falls back to the checked interpreter so the
//! two engines are *observationally identical* (a property test in this
//! crate verifies this on arbitrary programs and packets).

use crate::error::ValidateError;
use crate::interp::{self, STACK_SIZE};
use crate::packet::PacketView;
use crate::program::{FilterProgram, MAX_PROGRAM_WORDS};
use crate::word::{BinaryOp, Instr, StackAction};

/// A filter program that passed bind-time validation, with the metadata the
/// fast interpreter needs.
///
/// # Examples
///
/// ```
/// use pf_filter::packet::PacketView;
/// use pf_filter::samples;
/// use pf_filter::validate::ValidatedProgram;
///
/// let v = ValidatedProgram::new(samples::fig_3_9_pup_socket_35()).unwrap();
/// let pkt = samples::pup_packet_3mb(2, 0, 35, 1);
/// assert!(v.eval(PacketView::new(&pkt)));
/// assert_eq!(v.min_packet_words(), 9); // touches words 1, 7, 8
/// ```
#[derive(Debug, Clone)]
pub struct ValidatedProgram {
    program: FilterProgram,
    /// Packet length (in words) below which the fast path cannot run.
    min_packet_words: usize,
    /// Whether the program contains `PUSHIND` (dynamic bounds checks stay).
    uses_indirect: bool,
    /// Whether the program contains `DIV`/`MOD` (dynamic divisor checks stay).
    uses_division: bool,
    /// Maximum stack depth reached (exact; the language has no branches).
    max_stack_depth: usize,
    /// Number of instructions (excluding literal words).
    instructions: usize,
}

impl ValidatedProgram {
    /// Validates `program`.
    ///
    /// # Errors
    ///
    /// Returns the first static defect found, as a [`ValidateError`].
    pub fn new(program: FilterProgram) -> Result<Self, ValidateError> {
        let words = program.words();
        if words.len() > MAX_PROGRAM_WORDS {
            return Err(ValidateError::TooLong { words: words.len() });
        }

        let mut depth: usize = 0;
        let mut max_depth: usize = 0;
        let mut max_word: Option<usize> = None;
        let mut uses_indirect = false;
        let mut uses_division = false;
        let mut instructions = 0usize;

        let mut pc = 0usize;
        while pc < words.len() {
            let offset = pc;
            let raw = words[pc];
            pc += 1;
            let instr =
                Instr::decode(raw).ok_or(ValidateError::BadInstruction { offset, word: raw })?;
            instructions += 1;

            // Stack action.
            match instr.action {
                StackAction::NoPush => {}
                StackAction::PushLit => {
                    if pc >= words.len() {
                        return Err(ValidateError::MissingLiteral { offset });
                    }
                    pc += 1;
                    if depth == STACK_SIZE {
                        return Err(ValidateError::StackOverflow { offset });
                    }
                    depth += 1;
                }
                StackAction::PushInd => {
                    if depth == 0 {
                        return Err(ValidateError::StackUnderflow { offset, depth });
                    }
                    uses_indirect = true;
                    // Pops the index, pushes the value: depth unchanged.
                }
                StackAction::PushWord(n) => {
                    if depth == STACK_SIZE {
                        return Err(ValidateError::StackOverflow { offset });
                    }
                    depth += 1;
                    let idx = usize::from(n);
                    max_word = Some(max_word.map_or(idx, |m| m.max(idx)));
                }
                _ => {
                    if depth == STACK_SIZE {
                        return Err(ValidateError::StackOverflow { offset });
                    }
                    depth += 1;
                }
            }
            max_depth = max_depth.max(depth);

            // Binary operator.
            if instr.op.pops() {
                if depth < 2 {
                    return Err(ValidateError::StackUnderflow { offset, depth });
                }
                // Pop two, push one; a short-circuit operator that
                // continues pushes R too.
                depth -= 1;
                if matches!(instr.op, BinaryOp::Div | BinaryOp::Mod) {
                    uses_division = true;
                }
            }
        }

        Ok(ValidatedProgram {
            min_packet_words: max_word.map_or(0, |m| m + 1),
            program,
            uses_indirect,
            uses_division,
            max_stack_depth: max_depth,
            instructions,
        })
    }

    /// The underlying program.
    pub fn program(&self) -> &FilterProgram {
        &self.program
    }

    /// The filter's priority.
    pub fn priority(&self) -> u8 {
        self.program.priority()
    }

    /// Minimum packet length (in 16-bit words) for the fast path. Shorter
    /// packets are evaluated via the checked fallback.
    pub fn min_packet_words(&self) -> usize {
        self.min_packet_words
    }

    /// Whether the program uses the §7 indirect push.
    pub fn uses_indirect(&self) -> bool {
        self.uses_indirect
    }

    /// Whether the program uses `DIV`/`MOD` (divisor checks stay dynamic).
    pub fn uses_division(&self) -> bool {
        self.uses_division
    }

    /// Exact maximum evaluation-stack depth.
    pub fn max_stack_depth(&self) -> usize {
        self.max_stack_depth
    }

    /// Number of instructions (excluding literal words).
    pub fn instructions(&self) -> usize {
        self.instructions
    }

    /// Evaluates against a packet; `true` means *accept*.
    ///
    /// Runs the check-free inner loop when the packet is long enough for
    /// every static `PUSHWORD`; otherwise falls back to the checked
    /// interpreter (so short packets behave identically to §4's engine).
    /// `PUSHIND` and division keep their dynamic checks in all cases.
    pub fn eval(&self, packet: PacketView<'_>) -> bool {
        if packet.word_len() < self.min_packet_words {
            return interp::eval_words(self.program.words(), packet).0;
        }
        self.eval_fast(packet)
    }

    /// The check-free inner loop. Requires the packet to satisfy
    /// [`ValidatedProgram::min_packet_words`].
    fn eval_fast(&self, packet: PacketView<'_>) -> bool {
        debug_assert!(packet.word_len() >= self.min_packet_words);
        let words = self.program.words();
        // Zero-length filters accept everything (historical semantics).
        if words.is_empty() {
            return true;
        }
        let mut stack = [0u16; STACK_SIZE];
        let mut depth = 0usize;
        let mut pc = 0usize;

        while pc < words.len() {
            let raw = words[pc];
            pc += 1;
            // Validation proved every word decodes.
            let instr = match Instr::decode(raw) {
                Some(i) => i,
                None => {
                    debug_assert!(false, "validated program failed to decode");
                    return false;
                }
            };

            match instr.action {
                StackAction::NoPush => {}
                StackAction::PushLit => {
                    let lit = words[pc];
                    pc += 1;
                    stack[depth] = lit;
                    depth += 1;
                }
                StackAction::PushZero => {
                    stack[depth] = 0;
                    depth += 1;
                }
                StackAction::PushOne => {
                    stack[depth] = 1;
                    depth += 1;
                }
                StackAction::PushFFFF => {
                    stack[depth] = 0xFFFF;
                    depth += 1;
                }
                StackAction::PushFF00 => {
                    stack[depth] = 0xFF00;
                    depth += 1;
                }
                StackAction::Push00FF => {
                    stack[depth] = 0x00FF;
                    depth += 1;
                }
                StackAction::PushWord(n) => {
                    // Bounds proven by the single up-front length check.
                    stack[depth] = packet.word(usize::from(n)).unwrap_or(0);
                    depth += 1;
                }
                StackAction::PushInd => {
                    // Dynamic index: the one check that cannot be hoisted.
                    let idx = usize::from(stack[depth - 1]);
                    match packet.word(idx) {
                        Some(v) => stack[depth - 1] = v,
                        None => return false,
                    }
                }
            }

            if instr.op.pops() {
                let t1 = stack[depth - 1];
                let t2 = stack[depth - 2];
                depth -= 2;
                let r: u16 = match instr.op {
                    BinaryOp::Eq => u16::from(t2 == t1),
                    BinaryOp::Neq => u16::from(t2 != t1),
                    BinaryOp::Lt => u16::from(t2 < t1),
                    BinaryOp::Le => u16::from(t2 <= t1),
                    BinaryOp::Gt => u16::from(t2 > t1),
                    BinaryOp::Ge => u16::from(t2 >= t1),
                    BinaryOp::And => t2 & t1,
                    BinaryOp::Or => t2 | t1,
                    BinaryOp::Xor => t2 ^ t1,
                    BinaryOp::Cor | BinaryOp::Cand | BinaryOp::Cnor | BinaryOp::Cnand => {
                        let r = t2 == t1;
                        let (when, verdict) =
                            instr.op.short_circuit_rule().expect("short-circuit op");
                        if r == when {
                            return verdict;
                        }
                        u16::from(r)
                    }
                    BinaryOp::Add => t2.wrapping_add(t1),
                    BinaryOp::Sub => t2.wrapping_sub(t1),
                    BinaryOp::Mul => t2.wrapping_mul(t1),
                    BinaryOp::Div => {
                        if t1 == 0 {
                            return false;
                        }
                        t2 / t1
                    }
                    BinaryOp::Mod => {
                        if t1 == 0 {
                            return false;
                        }
                        t2 % t1
                    }
                    BinaryOp::Lsh => t2 << (t1 & 0xF),
                    BinaryOp::Rsh => t2 >> (t1 & 0xF),
                    BinaryOp::Nop => unreachable!("NOP does not pop"),
                };
                stack[depth] = r;
                depth += 1;
            }
        }

        depth > 0 && stack[depth - 1] != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::CheckedInterpreter;
    use crate::program::Assembler;
    use crate::samples;

    #[test]
    fn validates_paper_examples() {
        for f in [
            samples::fig_3_8_pup_type_range(),
            samples::fig_3_9_pup_socket_35(),
            samples::accept_all(1),
            samples::reject_all(1),
        ] {
            ValidatedProgram::new(f).expect("paper example must validate");
        }
    }

    #[test]
    fn metadata_for_fig_3_9() {
        let v = ValidatedProgram::new(samples::fig_3_9_pup_socket_35()).unwrap();
        assert_eq!(v.min_packet_words(), 9);
        assert!(!v.uses_indirect());
        assert_eq!(v.instructions(), 6);
        // Depth trace (a continuing CAND pushes TRUE):
        // [w8] [w8,35] -> [1] -> [1,w7] [1,w7,0] -> [1,1] -> [1,1,w1]
        // [1,1,w1,2] -> [1,1,eq]; the maximum is 4.
        assert_eq!(v.max_stack_depth(), 4);
        assert_eq!(v.priority(), 10);
    }

    #[test]
    fn rejects_bad_instruction() {
        let p = FilterProgram::from_words(0, vec![15 << 6]);
        assert!(matches!(
            ValidatedProgram::new(p),
            Err(ValidateError::BadInstruction { offset: 0, .. })
        ));
    }

    #[test]
    fn reserved_operators_fail_and_section_7_ones_validate() {
        for op in [14u16, 15, 23, 1023] {
            let raw = (op << 6) | 3; // PUSHONE | op
            let p =
                FilterProgram::from_words(0, vec![Instr::push(StackAction::PushOne).encode(), raw]);
            assert!(
                matches!(
                    ValidatedProgram::new(p),
                    Err(ValidateError::BadInstruction { offset: 1, .. })
                ),
                "op {op}"
            );
        }
        let p = Assembler::new(0)
            .pushone()
            .pushone()
            .op(BinaryOp::Add)
            .finish();
        assert_eq!(ValidatedProgram::new(p).unwrap().max_stack_depth(), 2);
    }

    #[test]
    fn rejects_underflow() {
        let p = Assembler::new(0).pushone().op(BinaryOp::And).finish();
        assert!(matches!(
            ValidatedProgram::new(p),
            Err(ValidateError::StackUnderflow {
                offset: 1,
                depth: 1
            })
        ));
    }

    #[test]
    fn rejects_overflow() {
        let mut a = Assembler::new(0);
        for _ in 0..=STACK_SIZE {
            a = a.pushone();
        }
        assert!(matches!(
            ValidatedProgram::new(a.finish()),
            Err(ValidateError::StackOverflow { .. })
        ));
    }

    #[test]
    fn rejects_missing_literal() {
        let p = Assembler::new(0).push(StackAction::PushLit).finish();
        assert!(matches!(
            ValidatedProgram::new(p),
            Err(ValidateError::MissingLiteral { offset: 0 })
        ));
    }

    #[test]
    fn a_continuing_short_circuit_leaves_one_word() {
        // A continuing CAND pushes R, so the two bare ANDs that follow
        // find three words between them and validate.
        let p = Assembler::new(0)
            .pushword(0)
            .pushlit_op(BinaryOp::Cand, 1)
            .pushone()
            .pushone()
            .op(BinaryOp::And)
            .op(BinaryOp::And)
            .finish();
        assert!(ValidatedProgram::new(p).is_ok());
    }

    #[test]
    fn fast_eval_matches_checked_on_paper_filters() {
        let checked = CheckedInterpreter;
        for f in [
            samples::fig_3_8_pup_type_range(),
            samples::fig_3_9_pup_socket_35(),
        ] {
            let v = ValidatedProgram::new(f.clone()).unwrap();
            for ethertype in [2u16, 3] {
                for sock in [35u16, 36] {
                    for ptype in [0u8, 1, 50, 100, 101] {
                        let pkt = samples::pup_packet_3mb(ethertype, 0, sock, ptype);
                        let view = PacketView::new(&pkt);
                        assert_eq!(checked.eval(&f, view), v.eval(view));
                    }
                }
            }
        }
    }

    #[test]
    fn short_packet_falls_back_and_matches_checked() {
        let f = samples::fig_3_9_pup_socket_35();
        let v = ValidatedProgram::new(f.clone()).unwrap();
        let checked = CheckedInterpreter;
        // 4-byte packet: word 8 is out of bounds; both engines must reject.
        let pkt = [0x01u8, 0x02, 0x00, 0x02];
        let view = PacketView::new(&pkt);
        assert_eq!(checked.eval(&f, view), v.eval(view));
        assert!(!v.eval(view));
    }

    #[test]
    fn short_packet_short_circuit_accept_preserved() {
        // COR accepts before a later out-of-bounds PUSHWORD would fault:
        // the fallback must preserve that acceptance.
        let f = Assembler::new(0)
            .pushword(0)
            .pushlit_op(BinaryOp::Cor, 0x1111)
            .pushword(40)
            .finish();
        let v = ValidatedProgram::new(f.clone()).unwrap();
        let pkt = [0x11u8, 0x11]; // one word; word 40 would fault
        assert!(v.eval(PacketView::new(&pkt)));
        assert!(CheckedInterpreter.eval(&f, PacketView::new(&pkt)));
    }

    #[test]
    fn empty_program_accepts() {
        let v = ValidatedProgram::new(FilterProgram::empty(0)).unwrap();
        assert!(v.eval(PacketView::new(&[1, 2, 3])));
        assert_eq!(v.min_packet_words(), 0);
    }

    #[test]
    fn indirect_is_flagged_and_checked_dynamically() {
        let p = Assembler::new(0)
            .pushword(0)
            .push(StackAction::PushInd)
            .pushlit_op(BinaryOp::Eq, 0xCAFE)
            .finish();
        let v = ValidatedProgram::new(p).unwrap();
        assert!(v.uses_indirect());
        assert!(v.eval(PacketView::new(&[0, 2, 0, 0, 0xCA, 0xFE])));
        assert!(!v.eval(PacketView::new(&[0, 99, 0, 0, 0xCA, 0xFE])));
    }

    #[test]
    fn too_long_program_rejected() {
        let words = vec![Instr::push(StackAction::PushZero).encode(); MAX_PROGRAM_WORDS + 1];
        assert!(matches!(
            ValidatedProgram::new(FilterProgram::from_words(0, words)),
            Err(ValidateError::TooLong { .. })
        ));
    }
}
