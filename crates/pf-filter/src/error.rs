//! Error types for filter validation and evaluation.

use core::fmt;

/// A static (bind-time) defect in a filter program.
///
/// The paper's implementation checked these conditions on every instruction
/// during evaluation; §7 observes that, because the language has no branch
/// instructions, they can all be verified once when the filter is bound
/// (except packet-bounds checks for indirect pushes). [`crate::validate`]
/// implements that ahead-of-time verification and reports these errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValidateError {
    /// The program is longer than [`crate::program::MAX_PROGRAM_WORDS`].
    TooLong {
        /// Number of 16-bit words in the offending program.
        words: usize,
    },
    /// A word decoded to a reserved stack-action or operator encoding.
    BadInstruction {
        /// Word offset of the undecodable instruction.
        offset: usize,
        /// The raw word.
        word: u16,
    },
    /// A `PUSHLIT` at the final program word has no following literal.
    MissingLiteral {
        /// Word offset of the `PUSHLIT` instruction.
        offset: usize,
    },
    /// A binary operator would pop from a stack with fewer than two words.
    StackUnderflow {
        /// Word offset of the offending instruction.
        offset: usize,
        /// Stack depth before the instruction executed.
        depth: usize,
    },
    /// A push would exceed [`crate::interp::STACK_SIZE`].
    StackOverflow {
        /// Word offset of the offending instruction.
        offset: usize,
    },
}

impl fmt::Display for ValidateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidateError::TooLong { words } => {
                write!(f, "filter program too long ({words} words)")
            }
            ValidateError::BadInstruction { offset, word } => {
                write!(f, "undecodable instruction {word:#06x} at word {offset}")
            }
            ValidateError::MissingLiteral { offset } => {
                write!(f, "PUSHLIT at word {offset} has no following literal")
            }
            ValidateError::StackUnderflow { offset, depth } => write!(
                f,
                "operator at word {offset} underflows the stack (depth {depth})"
            ),
            ValidateError::StackOverflow { offset } => {
                write!(f, "push at word {offset} overflows the evaluation stack")
            }
        }
    }
}

impl std::error::Error for ValidateError {}

/// A runtime fault during filter evaluation.
///
/// Per §4 of the paper, a fault terminates evaluation and the packet is
/// *rejected* by this filter — faults are never fatal to the demultiplexer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuntimeError {
    /// A word decoded to a reserved encoding (checked interpreter only).
    BadInstruction {
        /// Word offset of the undecodable instruction.
        offset: usize,
        /// The raw word.
        word: u16,
    },
    /// A `PUSHLIT` at the final program word has no following literal.
    MissingLiteral {
        /// Word offset of the `PUSHLIT` instruction.
        offset: usize,
    },
    /// A binary operator popped from a stack with fewer than two words.
    StackUnderflow {
        /// Word offset of the offending instruction.
        offset: usize,
    },
    /// A push exceeded [`crate::interp::STACK_SIZE`].
    StackOverflow {
        /// Word offset of the offending instruction.
        offset: usize,
    },
    /// A `PUSHWORD`/`PUSHIND` referenced a word beyond the packet.
    OutOfPacket {
        /// Word offset of the offending instruction.
        offset: usize,
        /// The packet-word index that was requested.
        index: usize,
    },
    /// `DIV` or `MOD` with a zero divisor.
    DivideByZero {
        /// Word offset of the offending instruction.
        offset: usize,
    },
    /// Evaluation exceeded the caller-imposed instruction budget.
    BudgetExceeded {
        /// The budget, in instruction words.
        limit: u32,
    },
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::BadInstruction { offset, word } => {
                write!(f, "undecodable instruction {word:#06x} at word {offset}")
            }
            RuntimeError::MissingLiteral { offset } => {
                write!(f, "PUSHLIT at word {offset} has no following literal")
            }
            RuntimeError::StackUnderflow { offset } => {
                write!(f, "stack underflow at word {offset}")
            }
            RuntimeError::StackOverflow { offset } => {
                write!(f, "stack overflow at word {offset}")
            }
            RuntimeError::OutOfPacket { offset, index } => write!(
                f,
                "reference to packet word {index} beyond packet end, at word {offset}"
            ),
            RuntimeError::DivideByZero { offset } => {
                write!(f, "division by zero at word {offset}")
            }
            RuntimeError::BudgetExceeded { limit } => {
                write!(f, "evaluation exceeded the {limit}-instruction budget")
            }
        }
    }
}

impl std::error::Error for RuntimeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = ValidateError::BadInstruction {
            offset: 3,
            word: 0x3FF0,
        };
        assert!(e.to_string().contains("0x3ff0"));
        assert!(e.to_string().contains("word 3"));
        let e = RuntimeError::OutOfPacket {
            offset: 1,
            index: 99,
        };
        assert!(e.to_string().contains("99"));
    }
}
