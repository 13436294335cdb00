//! Bind-time filter validation: the §7 rung with the checks hoisted.
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
//! runs the checked interpreter's own loop with the stack checks compiled
//! out. Every packet read keeps its bounds check, so a short packet
//! faults exactly as it does in §4's engine and the two rungs are
//! *observationally identical*.

use crate::error::ValidateError;
use crate::interp::{self, STACK_SIZE};
use crate::packet::PacketView;
use crate::program::{FilterProgram, MAX_PROGRAM_WORDS};
use crate::word::{Instr, StackAction};

/// A filter program that passed bind-time validation, with the packet
/// length every static `PUSHWORD` needs.
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
    facts: Facts,
}

/// What validation proves about a program, found by [`check`] without
/// taking the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Facts {
    /// Packet length (in words) that covers every static `PUSHWORD`.
    min_packet_words: usize,
    /// Number of instructions (excluding literal words).
    instructions: usize,
}

impl Facts {
    /// Packet length (in 16-bit words) that covers every static
    /// `PUSHWORD`.
    pub fn min_packet_words(&self) -> usize {
        self.min_packet_words
    }

    /// Number of instructions (excluding literal words).
    pub fn instructions(&self) -> usize {
        self.instructions
    }
}

/// Validates `program` in place: the single linear walk behind
/// [`ValidatedProgram::new`], for a caller that needs the verdict and the
/// facts but not a validated copy.
///
/// # Errors
///
/// Returns the first static defect found, as a [`ValidateError`].
pub fn check(program: &FilterProgram) -> Result<Facts, ValidateError> {
    let words = program.words();
    if words.len() > MAX_PROGRAM_WORDS {
        return Err(ValidateError::TooLong { words: words.len() });
    }

    let mut depth: usize = 0;
    let mut max_word: Option<usize> = None;
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
            StackAction::PushInd => {
                // Pops the index, pushes the value: depth unchanged.
                if depth == 0 {
                    return Err(ValidateError::StackUnderflow { offset, depth });
                }
            }
            action => {
                if action.takes_literal() {
                    if pc >= words.len() {
                        return Err(ValidateError::MissingLiteral { offset });
                    }
                    pc += 1;
                }
                if let StackAction::PushWord(n) = action {
                    max_word = max_word.max(Some(usize::from(n)));
                }
                if depth == STACK_SIZE {
                    return Err(ValidateError::StackOverflow { offset });
                }
                depth += 1;
            }
        }

        // Binary operator: pop two, push one; a short-circuit operator
        // that continues pushes R too.
        if instr.op.pops() {
            if depth < 2 {
                return Err(ValidateError::StackUnderflow { offset, depth });
            }
            depth -= 1;
        }
    }

    Ok(Facts {
        min_packet_words: max_word.map_or(0, |m| m + 1),
        instructions,
    })
}

impl ValidatedProgram {
    /// Validates `program`.
    ///
    /// # Errors
    ///
    /// Returns the first static defect found, as a [`ValidateError`].
    pub fn new(program: FilterProgram) -> Result<Self, ValidateError> {
        let facts = check(&program)?;
        Ok(ValidatedProgram { program, facts })
    }

    /// `program` with the facts [`check`] found for it, without walking it
    /// again (a debug build does, and panics on a mismatch): a caller that
    /// checked in place keeps a copy only when it needs one.
    pub fn with_facts(program: FilterProgram, facts: Facts) -> Self {
        debug_assert_eq!(check(&program), Ok(facts), "facts of another program");
        ValidatedProgram { program, facts }
    }

    /// The underlying program.
    pub fn program(&self) -> &FilterProgram {
        &self.program
    }

    /// The underlying program, by value.
    pub fn into_program(self) -> FilterProgram {
        self.program
    }

    /// The filter's priority.
    pub fn priority(&self) -> u8 {
        self.program.priority()
    }

    /// Packet length (in 16-bit words) that covers every static
    /// `PUSHWORD`. The compiled rungs (`pf_ir`) run check-free only on
    /// packets at least this long.
    pub fn min_packet_words(&self) -> usize {
        self.facts.min_packet_words
    }

    /// Number of instructions (excluding literal words).
    pub fn instructions(&self) -> usize {
        self.facts.instructions
    }

    /// Evaluates against a packet; `true` means *accept*.
    ///
    /// Runs the interpreter's loop without the stack checks validation
    /// proved. Packet reads, `PUSHIND` and division keep their dynamic
    /// checks.
    pub fn eval(&self, packet: PacketView<'_>) -> bool {
        interp::run::<false>(self.program.words(), packet, None).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::CheckedInterpreter;
    use crate::program::Assembler;
    use crate::samples;
    use crate::word::BinaryOp;

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
        assert_eq!(v.instructions(), 6);
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
        assert!(ValidatedProgram::new(p).is_ok());
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
    fn short_packets_fault_as_in_the_checked_interpreter() {
        // 4-byte packet: word 8 is out of bounds; both engines must reject.
        let f = samples::fig_3_9_pup_socket_35();
        let v = ValidatedProgram::new(f.clone()).unwrap();
        let pkt = [0x01u8, 0x02, 0x00, 0x02];
        assert!(!v.eval(PacketView::new(&pkt)));
        assert!(!CheckedInterpreter.eval(&f, PacketView::new(&pkt)));

        // COR accepts before a later out-of-bounds PUSHWORD would fault.
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
    fn indirect_is_checked_dynamically() {
        let p = Assembler::new(0)
            .pushword(0)
            .push(StackAction::PushInd)
            .pushlit_op(BinaryOp::Eq, 0xCAFE)
            .finish();
        let v = ValidatedProgram::new(p).unwrap();
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
