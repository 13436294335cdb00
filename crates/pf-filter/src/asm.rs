//! A textual assembler for filter programs.
//!
//! Parses the mnemonic syntax the paper's figures use, so filters can be
//! written in config files, fed to monitoring tools, or round-tripped
//! through text. A mnemonic is whatever [`StackAction`] or [`BinaryOp`]
//! prints for its encoding; the parser keeps no table of its own:
//!
//! ```text
//! PUSHWORD+8, PUSHLIT|CAND, 35,
//! PUSHWORD+7, PUSHZERO|CAND,
//! PUSHWORD+1, PUSHLIT|EQ, 2
//! ```
//!
//! Commas and newlines both separate items; `#` and `/* … */`-free `//`
//! comments run to end of line; literals may be decimal or `0x…` hex.

use crate::program::FilterProgram;
use crate::word::{
    BinaryOp, Instr, StackAction, MAX_PUSHWORD_INDEX, PUSHWORD_BASE, STACK_ACTION_BITS,
};

/// A parse error with line information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl core::fmt::Display for ParseError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        line,
        message: message.into(),
    }
}

fn parse_action(tok: &str, line: usize) -> Result<StackAction, ParseError> {
    let t = tok.to_ascii_uppercase();
    if let Some(n) = t.strip_prefix("PUSHWORD+") {
        let n: u16 = n
            .parse()
            .map_err(|_| err(line, format!("bad PUSHWORD index `{n}`")))?;
        if n > MAX_PUSHWORD_INDEX {
            return Err(err(
                line,
                format!("PUSHWORD index {n} exceeds {MAX_PUSHWORD_INDEX}"),
            ));
        }
        return Ok(StackAction::PushWord(n as u8));
    }
    (0..PUSHWORD_BASE)
        .filter_map(StackAction::decode)
        .find(|a| a.to_string() == t)
        .ok_or_else(|| err(line, format!("unknown stack action `{t}`")))
}

fn parse_op(tok: &str, line: usize) -> Result<BinaryOp, ParseError> {
    let t = tok.to_ascii_uppercase();
    (0..=u16::MAX >> STACK_ACTION_BITS)
        .filter_map(BinaryOp::decode)
        .find(|op| op.to_string() == t)
        .ok_or_else(|| err(line, format!("unknown operator `{t}`")))
}

fn parse_literal(tok: &str, line: usize) -> Result<u16, ParseError> {
    let v = if let Some(hex) = tok.strip_prefix("0x").or_else(|| tok.strip_prefix("0X")) {
        u16::from_str_radix(hex, 16)
    } else {
        tok.parse()
    };
    v.map_err(|_| err(line, format!("bad literal `{tok}`")))
}

/// Parses a filter program from mnemonic text.
///
/// # Errors
///
/// Returns a [`ParseError`] pointing at the offending line.
///
/// # Examples
///
/// ```
/// use pf_filter::asm::parse;
/// use pf_filter::samples;
///
/// let program = parse(10, "
///     // figure 3-9: Pups for socket 35, socket tested first
///     PUSHWORD+8, PUSHLIT|CAND, 35,
///     PUSHWORD+7, PUSHZERO|CAND,
///     PUSHWORD+1, PUSHLIT|EQ, 2
/// ").unwrap();
/// assert_eq!(program.words(), samples::fig_3_9_pup_socket_35().words());
/// ```
pub fn parse(priority: u8, text: &str) -> Result<FilterProgram, ParseError> {
    let mut words = Vec::new();
    let mut expect_literal_from: Option<usize> = None;
    for (lineno, raw_line) in text.lines().enumerate() {
        let line = lineno + 1;
        let code = raw_line
            .split_once('#')
            .map_or(raw_line, |(c, _)| c)
            .split_once("//")
            .map_or_else(
                || raw_line.split_once('#').map_or(raw_line, |(c, _)| c),
                |(c, _)| c,
            );
        for tok in code.split(',').map(str::trim).filter(|t| !t.is_empty()) {
            if expect_literal_from.is_some() {
                words.push(parse_literal(tok, line)?);
                expect_literal_from = None;
                continue;
            }
            // `ACTION|OP`, bare ACTION, or bare OP. Tokens shaped like a
            // stack action are parsed as one so their specific errors
            // (e.g. an out-of-range PUSHWORD index) surface.
            let instr = if let Some((a, o)) = tok.split_once('|') {
                Instr::new(parse_action(a.trim(), line)?, parse_op(o.trim(), line)?)
            } else if tok.to_ascii_uppercase().starts_with("PUSH")
                || tok.eq_ignore_ascii_case("NOPUSH")
            {
                Instr::push(parse_action(tok, line)?)
            } else {
                Instr::op(parse_op(tok, line)?)
            };
            words.push(instr.encode());
            if instr.takes_literal() {
                expect_literal_from = Some(line);
            }
        }
    }
    if let Some(line) = expect_literal_from {
        return Err(err(line, "PUSHLIT missing its literal"));
    }
    Ok(FilterProgram::from_words(priority, words))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::samples;

    #[test]
    fn parses_fig_3_8() {
        let p = parse(
            10,
            "PUSHWORD+1, PUSHLIT|EQ, 2,
             PUSHWORD+3, PUSH00FF|AND,
             PUSHZERO|GT,
             PUSHWORD+3, PUSH00FF|AND,
             PUSHLIT|LE, 100,
             AND,
             AND",
        )
        .unwrap();
        assert_eq!(p.words(), samples::fig_3_8_pup_type_range().words());
    }

    #[test]
    fn display_round_trips_through_parse() {
        for native in [
            samples::fig_3_8_pup_type_range(),
            samples::fig_3_9_pup_socket_35(),
            samples::ethertype_filter(7, 0x800),
        ] {
            // Display prints one item per line with offsets; strip them.
            let text: String = native
                .to_string()
                .lines()
                .skip(1) // header
                .map(|l| l.split_once(']').map(|x| x.1).unwrap_or("").trim())
                .collect::<Vec<_>>()
                .join(",\n");
            let parsed = parse(native.priority(), &text).unwrap();
            assert_eq!(parsed.words(), native.words(), "from text:\n{text}");
        }
    }

    #[test]
    fn comments_and_hex() {
        let p = parse(
            0,
            "# leading comment
             PUSHWORD+0, PUSHLIT|EQ, 0xCAFE  # trailing comment
             // a C++-style comment line
            ",
        )
        .unwrap();
        assert_eq!(p.len_words(), 3);
        assert_eq!(p.words()[2], 0xCAFE);
    }

    #[test]
    fn case_insensitive() {
        let a = parse(0, "pushword+1, pushlit|eq, 2").unwrap();
        let b = parse(0, "PUSHWORD+1, PUSHLIT|EQ, 2").unwrap();
        assert_eq!(a.words(), b.words());
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = parse(0, "PUSHONE,\nBOGUS").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("BOGUS"));
        let e = parse(0, "PUSHWORD+99").unwrap_err();
        assert!(e.message.contains("exceeds"));
        let e = parse(0, "PUSHLIT|EQ").unwrap_err();
        assert!(e.message.contains("missing its literal"));
        let e = parse(0, "PUSHLIT|EQ, zebra").unwrap_err();
        assert!(e.message.contains("zebra"));
    }

    #[test]
    fn extended_mnemonics_parse() {
        let p = parse(0, "PUSHWORD+0, PUSHIND, PUSHLIT|ADD, 4").unwrap();
        assert_eq!(p.len_instructions(), 3);
    }
}
