//! Set-level value numbering: interning *every* word-equality test a
//! member performs — not just its leading guard run — into a shared,
//! lazily-memoized test table.
//!
//! Sharing only each member's *leading* guard run — the common
//! `EtherType == Pup`-style tests at the head of the threaded code — is
//! not enough, because demultiplexing filters repeat tests *everywhere*:
//! figure 3-9 puts the per-port socket test first and the shared ethertype
//! test **last** (so the CANDs exit early on the common mismatch), which a
//! prefix scheme cannot share at all.
//!
//! This module generalizes the sharing to the paper's full §7 "decision
//! table" idea, grown from the IR rather than the dtree:
//!
//! * [`TestTable`] interns each distinct `(packet word, literal)`
//!   equality test across the whole set, with a generation-stamped memo
//!   so a test is evaluated **at most once per packet** — and, because
//!   evaluation is lazy, a test *no member reaches* is never evaluated
//!   at all.
//! * [`value_number`] rewrites a compiled member's threaded code so that
//!   every fused guard branch *and* the terminal load/compare/return
//!   pattern consult the shared table mid-program ([`VnOp::TestBr`],
//!   [`VnOp::TestRet`]), dropping the member's own duplicated
//!   load/constant/compare work — the set-level common-subexpression
//!   elimination ROADMAP asks for.
//! * [`required_tests`] computes which interned tests a member *must*
//!   pass to accept (on the compiled path): the analysis behind
//!   [`crate::set::ShardedVnSet`]'s guard-keyed shard index.
//!
//! Rewritten programs preserve the engine's semantics exactly: registers,
//! faults, and short-circuit behavior are untouched; only redundant
//! test computation is deduplicated.

use crate::exec::{IrFilter, TOp};
use crate::ir::IrBinOp;
use pf_filter::packet::PacketView;
use std::collections::HashMap;

/// Counters from one whole-set evaluation over value-numbered members.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct VnSetStats {
    /// Members whose programs (or checked fallbacks) were evaluated.
    pub filters_evaluated: u32,
    /// Members the shard index proved irrelevant without touching them.
    pub filters_skipped: u32,
    /// Interned tests evaluated fresh against the packet.
    pub tests_evaluated: u32,
    /// Interned tests answered from the per-packet memo.
    pub tests_memoized: u32,
    /// Threaded-code (or fallback interpreter) instructions executed,
    /// including one per fresh test; memoized tests are free.
    pub ops_executed: u32,
}

/// The shared table of interned `(packet word, literal)` equality tests,
/// with a per-packet lazy memo.
///
/// The memo is generation-stamped: [`TestTable::begin_packet`] bumps the
/// generation, and a stale stamp means "not yet evaluated for this
/// packet" — no per-packet clearing of any kind.
#[derive(Debug, Default)]
pub(crate) struct TestTable {
    tests: Vec<(u16, u16)>,
    ids: HashMap<(u16, u16), u32>,
    memo: Vec<(u64, bool)>,
    generation: u64,
}

impl TestTable {
    /// Number of distinct interned tests.
    pub(crate) fn len(&self) -> usize {
        self.tests.len()
    }

    /// The `(word, literal)` pair behind a test id.
    pub(crate) fn test(&self, id: u32) -> (u16, u16) {
        self.tests[id as usize]
    }

    /// Interns a test, returning its stable id.
    pub(crate) fn intern(&mut self, word: u16, lit: u16) -> u32 {
        if let Some(&t) = self.ids.get(&(word, lit)) {
            return t;
        }
        let t = self.tests.len() as u32;
        self.tests.push((word, lit));
        self.ids.insert((word, lit), t);
        self.memo.push((0, false));
        t
    }

    /// Starts a new packet: every memo entry becomes stale at once.
    pub(crate) fn begin_packet(&mut self) {
        self.generation += 1;
    }

    /// The test's verdict for the current packet, evaluating it at most
    /// once per [`TestTable::begin_packet`] generation.
    pub(crate) fn check(
        &mut self,
        test: u32,
        packet: PacketView<'_>,
        stats: &mut VnSetStats,
    ) -> bool {
        let (stamp, result) = self.memo[test as usize];
        if stamp == self.generation {
            stats.tests_memoized += 1;
            return result;
        }
        let (word, lit) = self.tests[test as usize];
        let r = packet.word(usize::from(word)) == Some(lit);
        self.memo[test as usize] = (self.generation, r);
        stats.tests_evaluated += 1;
        stats.ops_executed += 1;
        r
    }

    /// Drops every test not marked live, compacting ids. Returns the
    /// remap (`old id -> new id`; dead entries map to `u32::MAX`).
    pub(crate) fn compact(&mut self, live: &[bool]) -> Vec<u32> {
        let mut remap = vec![u32::MAX; self.tests.len()];
        let mut tests = Vec::new();
        let mut memo = Vec::new();
        self.ids.clear();
        for (old, &(word, lit)) in self.tests.iter().enumerate() {
            if live.get(old).copied().unwrap_or(false) {
                let id = tests.len() as u32;
                remap[old] = id;
                self.ids.insert((word, lit), id);
                tests.push((word, lit));
                // Stamp 0 is permanently stale: the generation counter
                // starts at 0 and begin_packet runs before any check.
                memo.push((0, false));
            }
        }
        self.tests = tests;
        self.memo = memo;
        remap
    }
}

/// One value-numbered threaded-code instruction: [`TOp`] with the fused
/// guard and terminal-compare patterns replaced by shared-table lookups.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum VnOp {
    /// `regs[dst] := value`.
    Const { dst: u16, value: u16 },
    /// `regs[dst] := packet[index]` (bounds proven up front).
    LoadWord { dst: u16, index: u16 },
    /// `regs[dst] := packet[regs[index]]`; out of bounds rejects.
    LoadInd { dst: u16, index: u16 },
    /// `regs[dst] := op(regs[a], regs[b])`; a fault rejects.
    Bin {
        op: IrBinOp,
        dst: u16,
        a: u16,
        b: u16,
    },
    /// Unconditional jump.
    Jump { target: u32 },
    /// Jump when `regs[cond] != 0`, else fall through.
    BranchIf { cond: u16, target: u32 },
    /// Jump when `regs[cond] == 0`, else fall through.
    BranchIfNot { cond: u16, target: u32 },
    /// Memoized test branch: jump when the shared test's verdict equals
    /// `jump_on`, else fall through.
    TestBr {
        test: u32,
        target: u32,
        jump_on: bool,
    },
    /// Terminate accepting iff the shared test's verdict holds (the
    /// value-numbered `load / compare / return` tail).
    TestRet { test: u32 },
    /// Fused range branch carried through from the threaded code: jump
    /// when `packet[word] ∈ [lo, hi]` equals `jump_on_in`. Range tests are
    /// *not* interned — the table memoizes equality verdicts only — so
    /// this executes directly, exactly like the guard it came from.
    RangeBr {
        word: u16,
        lo: u16,
        hi: u16,
        target: u32,
        jump_on_in: bool,
    },
    /// Terminate with a fixed verdict.
    Return { accept: bool },
    /// Terminate accepting iff `regs[reg] != 0`.
    ReturnReg { reg: u16 },
}

/// A member program rewritten against a shared [`TestTable`].
#[derive(Debug, Clone)]
pub(crate) struct VnProgram {
    pub(crate) code: Vec<VnOp>,
    pub(crate) reg_count: usize,
}

impl VnProgram {
    /// Every distinct shared-table test this program consults.
    pub(crate) fn tests_used(&self) -> Vec<u32> {
        let mut out: Vec<u32> = self
            .code
            .iter()
            .filter_map(|op| match *op {
                VnOp::TestBr { test, .. } | VnOp::TestRet { test } => Some(test),
                _ => None,
            })
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Rewrites test ids through a [`TestTable::compact`] remap.
    pub(crate) fn remap_tests(&mut self, remap: &[u32]) {
        for op in &mut self.code {
            match op {
                VnOp::TestBr { test, .. } | VnOp::TestRet { test } => {
                    *test = remap[*test as usize];
                    debug_assert_ne!(*test, u32::MAX, "remapped a dead test");
                }
                _ => {}
            }
        }
    }
}

/// Per-register read counts over threaded code (definitions excluded).
fn use_counts(code: &[TOp], reg_count: usize) -> Vec<u32> {
    let mut uses = vec![0u32; reg_count];
    let mut bump = |r: u16| {
        if let Some(c) = uses.get_mut(usize::from(r)) {
            *c += 1;
        }
    };
    for op in code {
        match *op {
            TOp::LoadInd { index, .. } => bump(index),
            TOp::Bin { a, b, .. } => {
                bump(a);
                bump(b);
            }
            TOp::BranchIf { cond, .. } | TOp::BranchIfNot { cond, .. } => bump(cond),
            TOp::ReturnReg { reg } => bump(reg),
            _ => {}
        }
    }
    uses
}

/// The terminal `load / constant / compare / return` window ending at the
/// `ReturnReg` at `r`, if one exists:
/// `(window start, kept-constant index, word, literal)`.
fn tail_test_window(
    code: &[TOp],
    r: usize,
    uses: &[u32],
    const_val: &HashMap<u16, u16>,
) -> Option<(usize, Option<usize>, u16, u16)> {
    let TOp::ReturnReg { reg } = code[r] else {
        return None;
    };
    compare_window(code, r, reg, uses, const_val)
}

/// The conditional `load / constant / compare / branch` window ending at
/// the branch at `r`, if one exists: `(window start, kept-constant index,
/// word, literal, jump_on)`. These are the equality tests the compiler could *not* fuse
/// into guards — typically because the literal register is shared with a
/// later compare — so without this window they would stay opaque to the
/// table and to [`required_tests`].
fn branch_test_window(
    code: &[TOp],
    r: usize,
    uses: &[u32],
    const_val: &HashMap<u16, u16>,
) -> Option<(usize, Option<usize>, u16, u16, bool)> {
    let (cond, jump_on) = match code[r] {
        TOp::BranchIf { cond, .. } => (cond, true),
        TOp::BranchIfNot { cond, .. } => (cond, false),
        _ => return None,
    };
    let (start, keep, word, lit) = compare_window(code, r, cond, uses, const_val)?;
    Some((start, keep, word, lit, jump_on))
}

/// The `load / constant / compare` window feeding the single-use register
/// `reg` consumed by the op at `r`, with the compare at `r - 1`:
/// `(window start, word, literal)`.
fn compare_window(
    code: &[TOp],
    r: usize,
    reg: u16,
    uses: &[u32],
    const_val: &HashMap<u16, u16>,
) -> Option<(usize, Option<usize>, u16, u16)> {
    if uses[usize::from(reg)] != 1 || r < 2 {
        return None;
    }
    let TOp::Bin {
        op: IrBinOp::Eq,
        dst,
        a,
        b,
    } = code[r - 1]
    else {
        return None;
    };
    if dst != reg {
        return None;
    }
    let used_once = |r: u16| uses.get(usize::from(r)).is_some_and(|&c| c == 1);
    match code[r - 2] {
        // load; compare against a constant register (adjacent and
        // removable, or defined earlier — possibly shared — and kept).
        TOp::LoadWord { dst: rw, index } if used_once(rw) && (rw == a || rw == b) => {
            let other = if rw == a { b } else { a };
            let lit = *const_val.get(&other)?;
            let start = match (r >= 3).then(|| code[r - 3]) {
                Some(TOp::Const { dst: rc, .. }) if rc == other && used_once(rc) => r - 3,
                _ => r - 2,
            };
            Some((start, None, index, lit))
        }
        // constant between the load and the compare. A single-use
        // constant is swallowed with the window; a shared one is kept in
        // place (a later dead-constant sweep removes it if every reader
        // was rewritten away).
        TOp::Const { dst: rc, value } if (rc == a || rc == b) && r >= 3 => {
            let other = if rc == a { b } else { a };
            let TOp::LoadWord { dst: rw, index } = code[r - 3] else {
                return None;
            };
            if rw != other || !used_once(rw) {
                return None;
            }
            let keep = (!used_once(rc)).then_some(r - 2);
            Some((r - 3, keep, index, value))
        }
        _ => None,
    }
}

/// Rewrites a compiled filter's threaded code against the shared table:
/// fused guards become [`VnOp::TestBr`], and the terminal
/// load/compare/return pattern becomes [`VnOp::TestRet`] with its feeding
/// instructions dropped. Each distinct test is interned exactly once
/// set-wide, so members built against one table share ids (and therefore
/// per-packet memoized verdicts) wherever their tests coincide.
pub(crate) fn value_number(filter: &IrFilter, table: &mut TestTable) -> VnProgram {
    let code = filter.code();
    let uses = use_counts(code, filter.reg_count());
    // Branch-target map: rewriting may only swallow instructions nothing
    // jumps into (a target at a window *start* is fine — the whole window
    // is equivalent to the test op replacing it).
    let mut targeted = vec![false; code.len()];
    // Statically known register values (single assignment makes this
    // global), for compares against a shared constant.
    let mut const_val: HashMap<u16, u16> = HashMap::new();
    for op in code {
        match *op {
            TOp::Jump { target }
            | TOp::BranchIf { target, .. }
            | TOp::BranchIfNot { target, .. }
            | TOp::GuardEqBr { target, .. }
            | TOp::GuardNeBr { target, .. }
            | TOp::GuardInBr { target, .. }
            | TOp::GuardOutBr { target, .. } => targeted[target as usize] = true,
            TOp::Const { dst, value } => {
                const_val.insert(dst, value);
            }
            _ => {}
        }
    }

    // Pass 1: find compare windows (terminal and conditional) whose
    // interiors are unjumped.
    let mut drop = vec![false; code.len()];
    let mut tail: HashMap<usize, u32> = HashMap::new();
    let mut branch: HashMap<usize, (u32, bool)> = HashMap::new();
    for r in 0..code.len() {
        if let Some((start, keep, word, lit)) = tail_test_window(code, r, &uses, &const_val) {
            if targeted[start + 1..=r].iter().any(|&t| t) {
                continue;
            }
            drop[start..r].fill(true);
            if let Some(k) = keep {
                drop[k] = false;
            }
            tail.insert(r, table.intern(word, lit));
        } else if let Some((start, keep, word, lit, jump_on)) =
            branch_test_window(code, r, &uses, &const_val)
        {
            if targeted[start + 1..=r].iter().any(|&t| t) {
                continue;
            }
            drop[start..r].fill(true);
            if let Some(k) = keep {
                drop[k] = false;
            }
            branch.insert(r, (table.intern(word, lit), jump_on));
        }
    }

    // Dead-constant sweep: a constant every reader of which was rewritten
    // into a table test has no remaining consumer; ops rewritten to
    // TestBr/TestRet no longer read their condition register.
    let mut read_by_kept = vec![false; filter.reg_count()];
    for (i, op) in code.iter().enumerate() {
        if drop[i] || tail.contains_key(&i) || branch.contains_key(&i) {
            continue;
        }
        match *op {
            TOp::LoadInd { index, .. } => read_by_kept[usize::from(index)] = true,
            TOp::Bin { a, b, .. } => {
                read_by_kept[usize::from(a)] = true;
                read_by_kept[usize::from(b)] = true;
            }
            TOp::BranchIf { cond, .. } | TOp::BranchIfNot { cond, .. } => {
                read_by_kept[usize::from(cond)] = true;
            }
            TOp::ReturnReg { reg } => read_by_kept[usize::from(reg)] = true,
            _ => {}
        }
    }
    for (i, op) in code.iter().enumerate() {
        if let TOp::Const { dst, .. } = *op {
            if !drop[i] && !read_by_kept[usize::from(dst)] {
                drop[i] = true;
            }
        }
    }

    // Pass 2: emit, mapping old instruction indices to new.
    let mut new_index = vec![0u32; code.len()];
    let mut out: Vec<VnOp> = Vec::with_capacity(code.len());
    for (i, op) in code.iter().enumerate() {
        new_index[i] = out.len() as u32;
        if drop[i] {
            continue;
        }
        out.push(match *op {
            TOp::Const { dst, value } => VnOp::Const { dst, value },
            TOp::LoadWord { dst, index } => VnOp::LoadWord { dst, index },
            TOp::LoadInd { dst, index } => VnOp::LoadInd { dst, index },
            TOp::Bin { op, dst, a, b } => VnOp::Bin { op, dst, a, b },
            TOp::Jump { target } => VnOp::Jump { target },
            TOp::BranchIf { cond, target } => match branch.get(&i) {
                Some(&(test, jump_on)) => VnOp::TestBr {
                    test,
                    target,
                    jump_on,
                },
                None => VnOp::BranchIf { cond, target },
            },
            TOp::BranchIfNot { cond, target } => match branch.get(&i) {
                Some(&(test, jump_on)) => VnOp::TestBr {
                    test,
                    target,
                    jump_on,
                },
                None => VnOp::BranchIfNot { cond, target },
            },
            TOp::GuardEqBr { word, lit, target } => VnOp::TestBr {
                test: table.intern(word, lit),
                target,
                jump_on: true,
            },
            TOp::GuardNeBr { word, lit, target } => VnOp::TestBr {
                test: table.intern(word, lit),
                target,
                jump_on: false,
            },
            TOp::GuardInBr {
                word,
                lo,
                hi,
                target,
            } => VnOp::RangeBr {
                word,
                lo,
                hi,
                target,
                jump_on_in: true,
            },
            TOp::GuardOutBr {
                word,
                lo,
                hi,
                target,
            } => VnOp::RangeBr {
                word,
                lo,
                hi,
                target,
                jump_on_in: false,
            },
            TOp::Return { accept } => VnOp::Return { accept },
            TOp::ReturnReg { reg } => match tail.get(&i) {
                Some(&test) => VnOp::TestRet { test },
                None => VnOp::ReturnReg { reg },
            },
        });
    }
    for op in &mut out {
        match op {
            VnOp::Jump { target }
            | VnOp::BranchIf { target, .. }
            | VnOp::BranchIfNot { target, .. }
            | VnOp::TestBr { target, .. }
            | VnOp::RangeBr { target, .. } => *target = new_index[*target as usize],
            _ => {}
        }
    }
    VnProgram {
        code: out,
        reg_count: filter.reg_count(),
    }
}

/// Executes a value-numbered program, answering shared tests through the
/// table's lazy per-packet memo.
///
/// The caller must have checked the packet against the member's
/// `min_packet_words` (short packets take the checked fallback instead,
/// exactly like [`IrFilter::eval_with_stats`]).
pub(crate) fn eval_vn(
    prog: &VnProgram,
    packet: PacketView<'_>,
    table: &mut TestTable,
    stats: &mut VnSetStats,
) -> bool {
    let mut small = [0u16; 32];
    let mut big;
    let regs: &mut [u16] = if prog.reg_count <= small.len() {
        &mut small
    } else {
        big = vec![0u16; prog.reg_count];
        &mut big
    };
    let mut pc = 0usize;
    loop {
        match prog.code[pc] {
            VnOp::Const { dst, value } => {
                regs[usize::from(dst)] = value;
                stats.ops_executed += 1;
                pc += 1;
            }
            VnOp::LoadWord { dst, index } => {
                regs[usize::from(dst)] = packet.word(usize::from(index)).unwrap_or(0);
                stats.ops_executed += 1;
                pc += 1;
            }
            VnOp::LoadInd { dst, index } => {
                stats.ops_executed += 1;
                let idx = usize::from(regs[usize::from(index)]);
                match packet.word(idx) {
                    Some(v) => regs[usize::from(dst)] = v,
                    None => return false,
                }
                pc += 1;
            }
            VnOp::Bin { op, dst, a, b } => {
                stats.ops_executed += 1;
                match op.apply(regs[usize::from(a)], regs[usize::from(b)]) {
                    Some(v) => regs[usize::from(dst)] = v,
                    None => return false,
                }
                pc += 1;
            }
            VnOp::Jump { target } => {
                stats.ops_executed += 1;
                pc = target as usize;
            }
            VnOp::BranchIf { cond, target } => {
                stats.ops_executed += 1;
                pc = if regs[usize::from(cond)] != 0 {
                    target as usize
                } else {
                    pc + 1
                };
            }
            VnOp::BranchIfNot { cond, target } => {
                stats.ops_executed += 1;
                pc = if regs[usize::from(cond)] == 0 {
                    target as usize
                } else {
                    pc + 1
                };
            }
            VnOp::TestBr {
                test,
                target,
                jump_on,
            } => {
                let r = table.check(test, packet, stats);
                pc = if r == jump_on {
                    target as usize
                } else {
                    pc + 1
                };
            }
            VnOp::RangeBr {
                word,
                lo,
                hi,
                target,
                jump_on_in,
            } => {
                stats.ops_executed += 1;
                let inside = packet
                    .word(usize::from(word))
                    .is_some_and(|v| lo <= v && v <= hi);
                pc = if inside == jump_on_in {
                    target as usize
                } else {
                    pc + 1
                };
            }
            VnOp::TestRet { test } => return table.check(test, packet, stats),
            VnOp::Return { accept } => {
                stats.ops_executed += 1;
                return accept;
            }
            VnOp::ReturnReg { reg } => {
                stats.ops_executed += 1;
                return regs[usize::from(reg)] != 0;
            }
        }
    }
}

/// The tests a member *must* pass to accept on the compiled path: test
/// `t` is required iff no accepting return is reachable when `t` is
/// pinned false. Sound and register-blind (a [`VnOp::ReturnReg`] is
/// conservatively treated as a possible accept).
///
/// This is the shard-index soundness argument: if a member requires
/// `packet[d] == lit` and the packet's word `d` is something else, the
/// member cannot match, so a demultiplexer may skip it entirely —
/// *provided* the packet is long enough for the compiled path (short
/// packets take the checked fallback, whose verdict this analysis says
/// nothing about).
pub(crate) fn required_tests(prog: &VnProgram) -> Vec<u32> {
    prog.tests_used()
        .into_iter()
        .filter(|&t| !accept_reachable_without(prog, t))
        .collect()
}

/// Whether any accepting return is reachable with test `t` pinned false.
fn accept_reachable_without(prog: &VnProgram, t: u32) -> bool {
    let mut visited = vec![false; prog.code.len()];
    let mut stack = vec![0usize];
    while let Some(pc) = stack.pop() {
        if visited[pc] {
            continue;
        }
        visited[pc] = true;
        match prog.code[pc] {
            VnOp::Const { .. }
            | VnOp::LoadWord { .. }
            | VnOp::LoadInd { .. }
            | VnOp::Bin { .. } => stack.push(pc + 1),
            VnOp::Jump { target } => stack.push(target as usize),
            VnOp::BranchIf { target, .. }
            | VnOp::BranchIfNot { target, .. }
            | VnOp::RangeBr { target, .. } => {
                stack.push(target as usize);
                stack.push(pc + 1);
            }
            VnOp::TestBr {
                test,
                target,
                jump_on,
            } => {
                if test == t {
                    // Verdict is false: jump iff the op jumps on false.
                    stack.push(if jump_on { pc + 1 } else { target as usize });
                } else {
                    stack.push(target as usize);
                    stack.push(pc + 1);
                }
            }
            VnOp::TestRet { test } => {
                if test != t {
                    return true;
                }
            }
            VnOp::Return { accept } => {
                if accept {
                    return true;
                }
            }
            VnOp::ReturnReg { .. } => return true,
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use pf_filter::program::Assembler;
    use pf_filter::samples;
    use pf_filter::word::BinaryOp;

    fn vn(program: pf_filter::program::FilterProgram) -> (VnProgram, TestTable) {
        let mut table = TestTable::default();
        let f = IrFilter::compile(program).expect("validates");
        let prog = value_number(&f, &mut table);
        (prog, table)
    }

    /// A socket literal colliding with another literal in the same filter
    /// (here `lo = 2`, also the ethertype) defeats the compiler's guard
    /// fusion, leaving a raw load/shared-constant/compare/branch window.
    /// The branch-window rewrite must still intern it — otherwise the
    /// socket test is invisible to [`required_tests`] and the member can
    /// never be sharded on it.
    #[test]
    fn shared_literal_branch_window_is_interned() {
        let (prog, table) = vn(samples::pup_socket_filter(10, 0, 2));
        assert!(
            prog.code.iter().all(|op| !matches!(
                op,
                VnOp::Bin { .. } | VnOp::BranchIf { .. } | VnOp::BranchIfNot { .. }
            )),
            "every compare should be a table test: {:?}",
            prog.code
        );
        let req: Vec<(u16, u16)> = required_tests(&prog)
            .into_iter()
            .map(|t| table.test(t))
            .collect();
        assert!(req.contains(&(8, 2)), "socket test required: {req:?}");
        assert!(req.contains(&(1, 2)), "ethertype test required: {req:?}");
    }

    #[test]
    fn fig_3_9_interns_all_three_tests() {
        // Socket-lo and socket-hi guards *plus* the trailing
        // `EtherType == Pup` compare-return, which sharing only leading
        // guards would miss.
        let (prog, table) = vn(samples::fig_3_9_pup_socket_35());
        assert_eq!(table.len(), 3, "{prog:?}");
        assert_eq!(prog.tests_used().len(), 3);
        assert!(
            prog.code
                .iter()
                .any(|op| matches!(op, VnOp::TestRet { .. })),
            "tail compare value-numbered: {prog:?}"
        );
        // The load/const/compare feeding the old ReturnReg are gone.
        assert!(
            !prog.code.iter().any(|op| matches!(op, VnOp::Bin { .. })),
            "no residual compare: {prog:?}"
        );
    }

    #[test]
    fn members_share_ids_across_one_table() {
        let mut table = TestTable::default();
        let a = IrFilter::compile(samples::pup_socket_filter(10, 0, 35)).unwrap();
        let b = IrFilter::compile(samples::pup_socket_filter(10, 0, 44)).unwrap();
        let pa = value_number(&a, &mut table);
        let pb = value_number(&b, &mut table);
        // Distinct socket tests, shared socket-hi and ethertype tests.
        assert_eq!(table.len(), 4);
        let shared: Vec<u32> = pa
            .tests_used()
            .into_iter()
            .filter(|t| pb.tests_used().contains(t))
            .collect();
        assert_eq!(shared.len(), 2, "hi-word and ethertype shared");
    }

    #[test]
    fn rewritten_program_evaluates_identically() {
        let shapes = [
            samples::fig_3_9_pup_socket_35(),
            samples::fig_3_8_pup_type_range(),
            samples::ethertype_filter(10, 2),
            samples::accept_all(10),
            samples::reject_all(10),
        ];
        for program in shapes {
            let f = IrFilter::compile(program.clone()).unwrap();
            let mut table = TestTable::default();
            let prog = value_number(&f, &mut table);
            for et in [2u16, 3] {
                for sock in [35u16, 44] {
                    let pkt = samples::pup_packet_3mb(et, 0, sock, 1);
                    let view = PacketView::new(&pkt);
                    table.begin_packet();
                    let mut stats = VnSetStats::default();
                    assert_eq!(
                        eval_vn(&prog, view, &mut table, &mut stats),
                        f.eval(view),
                        "et={et} sock={sock} {prog:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn memo_answers_second_consult_for_free() {
        let (prog, mut table) = vn(samples::fig_3_9_pup_socket_35());
        let pkt = samples::pup_packet_3mb(2, 0, 35, 1);
        let view = PacketView::new(&pkt);
        table.begin_packet();
        let mut stats = VnSetStats::default();
        assert!(eval_vn(&prog, view, &mut table, &mut stats));
        assert_eq!(stats.tests_evaluated, 3);
        assert_eq!(stats.tests_memoized, 0);
        // Same packet generation: everything is memoized.
        let mut again = VnSetStats::default();
        assert!(eval_vn(&prog, view, &mut table, &mut again));
        assert_eq!(again.tests_evaluated, 0);
        assert_eq!(again.tests_memoized, 3);
    }

    #[test]
    fn required_tests_cover_cand_chain_and_tail() {
        let (prog, table) = vn(samples::fig_3_9_pup_socket_35());
        let req: Vec<(u16, u16)> = required_tests(&prog)
            .into_iter()
            .map(|t| table.test(t))
            .collect();
        // All three tests are conjunctive: each is required.
        assert_eq!(req.len(), 3, "{req:?}");
        assert!(req.contains(&(8, 35)));
        assert!(req.contains(&(7, 0)));
        assert!(req.contains(&(1, 2)));
    }

    #[test]
    fn cor_alternative_is_not_required() {
        // `word0 == 5 COR word1 == 7`: either test alone can accept, so
        // neither is required.
        let p = Assembler::new(10)
            .pushword(0)
            .pushlit_op(BinaryOp::Cor, 5)
            .pushword(1)
            .pushlit_op(BinaryOp::Eq, 7)
            .finish();
        let (prog, _table) = vn(p);
        assert_eq!(required_tests(&prog), Vec::<u32>::new(), "{prog:?}");
    }

    #[test]
    fn compact_remaps_surviving_tests() {
        let mut table = TestTable::default();
        let a = table.intern(1, 2);
        let b = table.intern(8, 35);
        let c = table.intern(7, 0);
        let mut live = vec![false; 3];
        live[b as usize] = true;
        live[c as usize] = true;
        let remap = table.compact(&live);
        assert_eq!(table.len(), 2);
        assert_eq!(remap[a as usize], u32::MAX);
        assert_eq!(table.test(remap[b as usize]), (8, 35));
        assert_eq!(table.test(remap[c as usize]), (7, 0));
        // Re-interning a dropped test allocates a fresh id.
        assert_eq!(table.intern(1, 2), 2);
    }

    #[test]
    fn lazy_memo_skips_unreached_tests() {
        let (prog, mut table) = vn(samples::fig_3_9_pup_socket_35());
        // Wrong socket: the leading guard fails, so the hi-word and
        // ethertype tests are never evaluated.
        let pkt = samples::pup_packet_3mb(2, 0, 99, 1);
        table.begin_packet();
        let mut stats = VnSetStats::default();
        assert!(!eval_vn(
            &prog,
            PacketView::new(&pkt),
            &mut table,
            &mut stats
        ));
        assert_eq!(stats.tests_evaluated, 1, "only the socket guard ran");
    }
}
