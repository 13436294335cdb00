//! Compatibility with the historical 4.3BSD/ULTRIX `enet.h` encoding.
//!
//! The paper's `struct enfilter` examples (figures 3-8 and 3-9) were
//! written against the CMU/Stanford header, whose concrete opcode numbers
//! differ from this crate's canonical encoding (the *field layout* — 10-bit
//! operator over 6-bit stack action — is the same). This module translates
//! filter words between the two, so historical filters can be loaded
//! verbatim and filters built here can be exported for comparison against
//! archived traces.
//!
//! Historical encoding (from `enet.h` / ULTRIX `packetfilter(4)`):
//!
//! ```text
//! stack actions: ENF_NOPUSH=0, ENF_PUSHLIT=1, ENF_PUSHZERO=2,
//!                ENF_PUSHWORD=16 (+n)
//!                (ENF_PUSHONE/FFFF/FF00/00FF at 3..6, as here)
//! operators:     ENF_NOP=(0<<6), ENF_EQ=(1<<6), ENF_LT=(2<<6),
//!                ENF_LE=(3<<6), ENF_GT=(4<<6), ENF_GE=(5<<6),
//!                ENF_AND=(6<<6), ENF_OR=(7<<6), ENF_XOR=(8<<6),
//!                ENF_COR=(9<<6), ENF_CAND=(10<<6), ENF_CNOR=(11<<6),
//!                ENF_CNAND=(12<<6), ENF_NEQ=(13<<6)
//! ```
//!
//! The differences are confined to operator numbering: historically `NEQ`
//! came *last* (13) and the comparisons started at 2.

use crate::error::ValidateError;
use crate::program::FilterProgram;
use crate::word::{BinaryOp, Instr, StackAction, STACK_ACTION_BITS, STACK_ACTION_MASK};

/// Historical operator codes (the `ENF_*` values, pre-shifted right).
fn historical_to_op(code: u16) -> Option<BinaryOp> {
    Some(match code {
        0 => BinaryOp::Nop,
        1 => BinaryOp::Eq,
        2 => BinaryOp::Lt,
        3 => BinaryOp::Le,
        4 => BinaryOp::Gt,
        5 => BinaryOp::Ge,
        6 => BinaryOp::And,
        7 => BinaryOp::Or,
        8 => BinaryOp::Xor,
        9 => BinaryOp::Cor,
        10 => BinaryOp::Cand,
        11 => BinaryOp::Cnor,
        12 => BinaryOp::Cnand,
        13 => BinaryOp::Neq,
        _ => return None,
    })
}

fn op_to_historical(op: BinaryOp) -> Option<u16> {
    Some(match op {
        BinaryOp::Nop => 0,
        BinaryOp::Eq => 1,
        BinaryOp::Lt => 2,
        BinaryOp::Le => 3,
        BinaryOp::Gt => 4,
        BinaryOp::Ge => 5,
        BinaryOp::And => 6,
        BinaryOp::Or => 7,
        BinaryOp::Xor => 8,
        BinaryOp::Cor => 9,
        BinaryOp::Cand => 10,
        BinaryOp::Cnor => 11,
        BinaryOp::Cnand => 12,
        BinaryOp::Neq => 13,
        // The §7 extensions postdate the historical header.
        _ => return None,
    })
}

/// Historical stack-action codes. Identical to ours except that the
/// historical header had no `PUSHIND` (code 7 was reserved).
fn historical_to_action(code: u16) -> Option<StackAction> {
    match code {
        7 => None, // reserved historically
        _ => StackAction::decode(code),
    }
}

/// An error translating a historical filter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompatError {
    /// A word used a reserved historical encoding.
    BadWord {
        /// Word offset.
        offset: usize,
        /// The raw word.
        word: u16,
    },
    /// The translated program failed validation.
    Invalid(ValidateError),
}

impl core::fmt::Display for CompatError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CompatError::BadWord { offset, word } => {
                write!(
                    f,
                    "undecodable historical word {word:#06x} at offset {offset}"
                )
            }
            CompatError::Invalid(e) => write!(f, "translated filter invalid: {e}"),
        }
    }
}

impl std::error::Error for CompatError {}

/// Imports a historical `struct enfilter` (priority + instruction words)
/// into the canonical encoding.
///
/// # Errors
///
/// Returns [`CompatError::BadWord`] for reserved historical encodings, or
/// [`CompatError::Invalid`] if the result fails bind-time validation.
pub fn import_enfilter(priority: u8, words: &[u16]) -> Result<FilterProgram, CompatError> {
    let mut out = Vec::with_capacity(words.len());
    let mut i = 0usize;
    while i < words.len() {
        let w = words[i];
        let action_code = w & STACK_ACTION_MASK;
        let op_code = w >> STACK_ACTION_BITS;
        let action =
            historical_to_action(action_code).ok_or(CompatError::BadWord { offset: i, word: w })?;
        let op = historical_to_op(op_code).ok_or(CompatError::BadWord { offset: i, word: w })?;
        out.push(Instr::new(action, op).encode());
        i += 1;
        if action.takes_literal() {
            if let Some(&lit) = words.get(i) {
                out.push(lit);
                i += 1;
            }
            // A trailing PUSHLIT is left for validation to reject.
        }
    }
    let program = FilterProgram::from_words(priority, out);
    crate::validate::ValidatedProgram::new(program.clone()).map_err(CompatError::Invalid)?;
    Ok(program)
}

/// Exports a canonical program as historical `enfilter` words.
///
/// Returns `None` if the program uses §7 extensions (which the historical
/// header cannot express) or contains undecodable words.
pub fn export_enfilter(program: &FilterProgram) -> Option<Vec<u16>> {
    let words = program.words();
    let mut out = Vec::with_capacity(words.len());
    let mut i = 0usize;
    while i < words.len() {
        let instr = Instr::decode(words[i])?;
        if instr.is_extended() {
            return None;
        }
        let op = op_to_historical(instr.op)?;
        out.push((op << STACK_ACTION_BITS) | instr.action.encode());
        i += 1;
        if instr.takes_literal() {
            out.push(*words.get(i)?);
            i += 1;
        }
    }
    Some(out)
}

/// Historical `ENF_*` constants, for writing figure-3-8-style literals in
/// tests and documentation.
pub mod enf {
    /// `ENF_NOPUSH`
    pub const NOPUSH: u16 = 0;
    /// `ENF_PUSHLIT`
    pub const PUSHLIT: u16 = 1;
    /// `ENF_PUSHZERO`
    pub const PUSHZERO: u16 = 2;
    /// `ENF_PUSHONE`
    pub const PUSHONE: u16 = 3;
    /// `ENF_PUSHFFFF`
    pub const PUSHFFFF: u16 = 4;
    /// `ENF_PUSHFF00`
    pub const PUSHFF00: u16 = 5;
    /// `ENF_PUSH00FF`
    pub const PUSH00FF: u16 = 6;
    /// `ENF_PUSHWORD` (add the word index)
    pub const PUSHWORD: u16 = 16;
    /// `ENF_NOP`
    pub const NOP: u16 = 0 << 6;
    /// `ENF_EQ`
    pub const EQ: u16 = 1 << 6;
    /// `ENF_LT`
    pub const LT: u16 = 2 << 6;
    /// `ENF_LE`
    pub const LE: u16 = 3 << 6;
    /// `ENF_GT`
    pub const GT: u16 = 4 << 6;
    /// `ENF_GE`
    pub const GE: u16 = 5 << 6;
    /// `ENF_AND`
    pub const AND: u16 = 6 << 6;
    /// `ENF_OR`
    pub const OR: u16 = 7 << 6;
    /// `ENF_XOR`
    pub const XOR: u16 = 8 << 6;
    /// `ENF_COR`
    pub const COR: u16 = 9 << 6;
    /// `ENF_CAND`
    pub const CAND: u16 = 10 << 6;
    /// `ENF_CNOR`
    pub const CNOR: u16 = 11 << 6;
    /// `ENF_CNAND`
    pub const CNAND: u16 = 12 << 6;
    /// `ENF_NEQ`
    pub const NEQ: u16 = 13 << 6;
}

#[cfg(test)]
mod tests {
    use super::enf::*;
    use super::*;
    use crate::interp::CheckedInterpreter;
    use crate::packet::PacketView;
    use crate::samples;

    /// Figure 3-8 typed exactly as the paper prints it, in historical
    /// constants.
    fn paper_fig_3_8() -> Vec<u16> {
        vec![
            PUSHWORD + 1,
            PUSHLIT | EQ,
            2,
            PUSHWORD + 3,
            PUSH00FF | AND,
            PUSHZERO | GT,
            PUSHWORD + 3,
            PUSH00FF | AND,
            PUSHLIT | LE,
            100,
            AND,
            AND,
        ]
    }

    /// Figure 3-9, ditto.
    fn paper_fig_3_9() -> Vec<u16> {
        vec![
            PUSHWORD + 8,
            PUSHLIT | CAND,
            35,
            PUSHWORD + 7,
            PUSHZERO | CAND,
            PUSHWORD + 1,
            PUSHLIT | EQ,
            2,
        ]
    }

    #[test]
    fn imported_fig_3_8_behaves_like_the_native_one() {
        let imported = import_enfilter(10, &paper_fig_3_8()).unwrap();
        let native = samples::fig_3_8_pup_type_range();
        let interp = CheckedInterpreter;
        for et in [2u16, 3] {
            for ptype in [0u8, 1, 50, 100, 101] {
                let pkt = samples::pup_packet_3mb(et, 0, 35, ptype);
                assert_eq!(
                    interp.eval(&imported, PacketView::new(&pkt)),
                    interp.eval(&native, PacketView::new(&pkt)),
                    "et={et} ptype={ptype}"
                );
            }
        }
    }

    #[test]
    fn imported_fig_3_9_behaves_like_the_native_one() {
        let imported = import_enfilter(10, &paper_fig_3_9()).unwrap();
        let native = samples::fig_3_9_pup_socket_35();
        let interp = CheckedInterpreter;
        for (et, hi, lo) in [(2u16, 0u16, 35u16), (2, 0, 36), (2, 1, 35), (3, 0, 35)] {
            let pkt = samples::pup_packet_3mb(et, hi, lo, 1);
            assert_eq!(
                interp.eval(&imported, PacketView::new(&pkt)),
                interp.eval(&native, PacketView::new(&pkt))
            );
        }
    }

    #[test]
    fn paper_lengths_match() {
        // "priority and length" 10, 12 and 10, 8.
        assert_eq!(paper_fig_3_8().len(), 12);
        assert_eq!(paper_fig_3_9().len(), 8);
    }

    #[test]
    fn export_round_trips() {
        for native in [
            samples::fig_3_8_pup_type_range(),
            samples::fig_3_9_pup_socket_35(),
            samples::ethertype_filter(10, 2),
            samples::accept_all(1),
        ] {
            let exported = export_enfilter(&native).expect("classic program exports");
            let back = import_enfilter(native.priority(), &exported).unwrap();
            assert_eq!(back.words(), native.words(), "{native}");
        }
    }

    #[test]
    fn extended_programs_do_not_export() {
        use crate::program::Assembler;
        use crate::word::BinaryOp;
        let p = Assembler::new(0)
            .pushone()
            .pushone()
            .op(BinaryOp::Add)
            .finish();
        assert_eq!(export_enfilter(&p), None);
    }

    #[test]
    fn reserved_historical_words_are_rejected() {
        // Operator code 14 was unassigned historically.
        assert!(matches!(
            import_enfilter(0, &[14 << 6]),
            Err(CompatError::BadWord { offset: 0, .. })
        ));
        // Stack action 7 was reserved (no PUSHIND in 1987).
        assert!(matches!(
            import_enfilter(0, &[7]),
            Err(CompatError::BadWord { offset: 0, .. })
        ));
    }

    #[test]
    fn invalid_translations_are_caught() {
        // A lone AND underflows: imports must validate.
        assert!(matches!(
            import_enfilter(0, &[AND]),
            Err(CompatError::Invalid(_))
        ));
    }
}
