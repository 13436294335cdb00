//! The unified execution-surface API.
//!
//! Every rung of the workspace's execution ladder — the checked
//! interpreter (§4), the same loop with its checks hoisted to bind time,
//! the decision-table set, the compiled filter (§7's "compiling filters",
//! [`IrFilter`]: optimized IR lowered to threaded code) and the
//! geometric (tuple-space) classifier built on it — answers the same
//! question: *which filter, if any, accepts this packet?*
//! [`FilterEngine`] makes that the whole API, so differential suites and
//! bench ladders iterate a `Vec<Box<dyn FilterEngine>>` instead of
//! hand-written per-engine match arms, and a new surface registers by
//! adding one impl to [`singleton_engines`].

use crate::exec::IrFilter;
use crate::geom::GeomSet;
use pf_filter::dtree::FilterSet;
use pf_filter::interp::CheckedInterpreter;
use pf_filter::packet::PacketView;
use pf_filter::program::FilterProgram;
use pf_filter::validate::ValidatedProgram;

/// One execution surface holding one or more compiled filters.
///
/// `matches` returns the id of the highest-priority accepting filter
/// (engines built by [`singleton_engines`] hold a single filter with
/// id 0). Implementations take `&mut self` because the set engines keep
/// per-packet memoization scratch.
pub trait FilterEngine {
    /// Stable engine label, used in reports and test diagnostics.
    fn name(&self) -> &'static str;
    /// Id of the first (highest-priority) filter accepting `packet`.
    fn matches(&mut self, packet: &[u8]) -> Option<u16>;
}

/// Every surface that can bind `program`, in ladder order.
///
/// Always includes the checked interpreter (the reference semantics) and
/// the decision table, which interprets what it cannot fold into a table.
/// The surfaces that need bind-time validation (validated, ir, geom)
/// appear only when the program validates: the kernel keeps an invalid
/// program in its quarantine, on the checked interpreter.
///
/// The length is therefore 2 for an invalid program and
/// [`singleton_surface_count`] (5) for a valid one.
pub fn singleton_engines(program: &FilterProgram) -> Vec<Box<dyn FilterEngine>> {
    let mut engines: Vec<Box<dyn FilterEngine>> = vec![Box::new(CheckedEngine(program.clone()))];
    let validated = ValidatedProgram::new(program.clone()).ok();
    if let Some(v) = &validated {
        engines.push(Box::new(ValidatedEngine(v.clone())));
    }
    let mut set = FilterSet::new();
    set.insert(0, program.clone());
    engines.push(Box::new(DtreeEngine(set)));
    if let Some(v) = &validated {
        engines.push(Box::new(IrEngine(IrFilter::from_validated(v.clone()))));
        let mut geom = GeomSet::new();
        geom.insert(0, program.clone());
        engines.push(Box::new(GeomEngine(geom)));
    }
    engines
}

/// Number of surfaces [`singleton_engines`] yields for a valid program.
pub fn singleton_surface_count() -> usize {
    5
}

struct CheckedEngine(FilterProgram);

impl FilterEngine for CheckedEngine {
    fn name(&self) -> &'static str {
        "checked"
    }
    fn matches(&mut self, packet: &[u8]) -> Option<u16> {
        CheckedInterpreter
            .eval(&self.0, PacketView::new(packet))
            .then_some(0)
    }
}

struct ValidatedEngine(ValidatedProgram);

impl FilterEngine for ValidatedEngine {
    fn name(&self) -> &'static str {
        "validated"
    }
    fn matches(&mut self, packet: &[u8]) -> Option<u16> {
        self.0.eval(PacketView::new(packet)).then_some(0)
    }
}

struct DtreeEngine(FilterSet);

impl FilterEngine for DtreeEngine {
    fn name(&self) -> &'static str {
        "dtree"
    }
    fn matches(&mut self, packet: &[u8]) -> Option<u16> {
        self.0
            .first_match(PacketView::new(packet))
            .map(|id| u16::try_from(id).unwrap_or(u16::MAX))
    }
}

struct IrEngine(IrFilter);

impl FilterEngine for IrEngine {
    fn name(&self) -> &'static str {
        "ir"
    }
    fn matches(&mut self, packet: &[u8]) -> Option<u16> {
        self.0.eval(PacketView::new(packet)).then_some(0)
    }
}

struct GeomEngine(GeomSet);

impl FilterEngine for GeomEngine {
    fn name(&self) -> &'static str {
        "geom"
    }
    fn matches(&mut self, packet: &[u8]) -> Option<u16> {
        self.0
            .first_match(PacketView::new(packet))
            .map(|id| u16::try_from(id).unwrap_or(u16::MAX))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pf_filter::samples;

    #[test]
    fn ladder_order_and_count_for_a_valid_program() {
        let prog = samples::fig_3_9_pup_socket_35();
        let engines = singleton_engines(&prog);
        assert_eq!(engines.len(), singleton_surface_count());
        let names: Vec<&str> = engines.iter().map(|e| e.name()).collect();
        assert_eq!(names, ["checked", "validated", "dtree", "ir", "geom"]);
    }

    #[test]
    fn all_surfaces_agree_on_a_sample() {
        let prog = samples::fig_3_9_pup_socket_35();
        let hit = samples::pup_packet_3mb(2, 0, 35, 1);
        let miss = samples::pup_packet_3mb(2, 0, 36, 1);
        for engine in &mut singleton_engines(&prog) {
            assert_eq!(engine.matches(&hit), Some(0), "{}", engine.name());
            assert_eq!(engine.matches(&miss), None, "{}", engine.name());
        }
    }

    #[test]
    fn a_section_7_program_gets_every_surface() {
        use pf_filter::builder::{ArithOp, Expr};
        // word[word[0] + 1] == 0xCAFE: PUSHIND and ADD.
        let prog = Expr::word_at(Expr::word(0).arith(ArithOp::Add, 1))
            .eq(0xCAFE)
            .compile(0)
            .unwrap();
        let hit = [0, 1, 0, 0, 0xCA, 0xFE];
        let miss = [0, 2, 0, 0, 0xCA, 0xFE];
        let mut engines = singleton_engines(&prog);
        assert_eq!(engines.len(), singleton_surface_count());
        for engine in &mut engines {
            assert_eq!(engine.matches(&hit), Some(0), "{}", engine.name());
            assert_eq!(engine.matches(&miss), None, "{}", engine.name());
        }
    }

    #[test]
    fn invalid_program_gets_the_interpreting_surfaces_only() {
        // An unbalanced stack program the validator rejects; the checked
        // interpreter and the decision table's interpreted list serve it.
        let prog = pf_filter::program::Assembler::new(0)
            .op(pf_filter::word::BinaryOp::Eq)
            .finish();
        assert!(ValidatedProgram::new(prog.clone()).is_err());
        let engines = singleton_engines(&prog);
        let names: Vec<&str> = engines.iter().map(|e| e.name()).collect();
        assert_eq!(names, vec!["checked", "dtree"]);
    }
}
