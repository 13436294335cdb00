//! The flat threaded-code execution engine.
//!
//! After optimization the CFG is flattened into one dense instruction
//! array ([`TOp`]): blocks are laid out in order, branch targets become
//! instruction indices, and a transfer to the next instruction costs
//! nothing (fallthrough). A peephole pass then fuses the dominant
//! demultiplexing shape — *load packet word, load constant, compare,
//! branch* — into single guard instructions, so a figure 3-9 style filter
//! executes as a couple of fused word-equality tests with no register
//! traffic at all.
//!
//! Short packets take the same route as [`ValidatedProgram::eval`]: when
//! the packet is shorter than the validator's `min_packet_words`, the
//! whole evaluation falls back to the checked interpreter, preserving the
//! paper's §4 semantics exactly (a short-circuit accept can legitimately
//! precede an out-of-bounds load).

use crate::ir::{BlockId, IrBinOp, IrProgram, Terminator};
use crate::opt::optimize;
use crate::translate::translate;
use pf_filter::error::ValidateError;
use pf_filter::interp::{CheckedInterpreter, InterpConfig};
use pf_filter::packet::PacketView;
use pf_filter::program::FilterProgram;
use pf_filter::validate::ValidatedProgram;
use std::collections::HashMap;

/// One threaded-code instruction. Register and target fields are plain
/// indices; the engine's inner loop is a single `match` over this enum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TOp {
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
    /// Fused guard: jump when `packet[word] == lit`, else fall through.
    GuardEqBr { word: u16, lit: u16, target: u32 },
    /// Fused guard: jump when `packet[word] != lit`, else fall through.
    GuardNeBr { word: u16, lit: u16, target: u32 },
    /// Fused range guard: jump when `lo <= packet[word] <= hi`
    /// (unsigned), else fall through. Produced by fusing an ordering
    /// compare (`Lt`/`Le`/`Gt`/`Ge`) against a constant, and by merging
    /// two adjacent one-sided tests into one two-sided `InRange` check.
    GuardInBr {
        word: u16,
        lo: u16,
        hi: u16,
        target: u32,
    },
    /// Fused range guard: jump when `packet[word]` falls *outside*
    /// `[lo, hi]`, else fall through. The reject-edge dual of
    /// [`TOp::GuardInBr`], the shape a CAND chain of range tests lowers to.
    GuardOutBr {
        word: u16,
        lo: u16,
        hi: u16,
        target: u32,
    },
    /// Terminate with a fixed verdict.
    Return { accept: bool },
    /// Terminate accepting iff `regs[reg] != 0`.
    ReturnReg { reg: u16 },
}

/// Counters from one IR-engine evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IrEvalStats {
    /// Threaded-code instructions executed (or, on the fallback path, the
    /// checked interpreter's instruction count).
    pub ops_executed: u32,
    /// Whether a short packet routed evaluation to the checked fallback.
    pub fell_back: bool,
}

/// A filter compiled to optimized threaded code.
///
/// # Examples
///
/// ```
/// use pf_filter::packet::PacketView;
/// use pf_filter::samples;
/// use pf_ir::exec::IrFilter;
///
/// let f = IrFilter::compile(samples::fig_3_9_pup_socket_35()).unwrap();
/// let pkt = samples::pup_packet_3mb(2, 0, 35, 1);
/// assert!(f.eval(PacketView::new(&pkt)));
/// ```
#[derive(Debug, Clone)]
pub struct IrFilter {
    /// The source program, kept for the short-packet checked fallback.
    program: FilterProgram,
    config: InterpConfig,
    min_packet_words: usize,
    reg_count: usize,
    code: Vec<TOp>,
}

impl IrFilter {
    /// Validates and compiles under the default configuration (classic
    /// dialect, paper-style short circuits).
    ///
    /// # Errors
    ///
    /// Returns the validator's verdict on a malformed program.
    pub fn compile(program: FilterProgram) -> Result<Self, ValidateError> {
        Self::compile_with_config(program, InterpConfig::default())
    }

    /// Validates and compiles under an explicit configuration.
    ///
    /// # Errors
    ///
    /// Returns the validator's verdict on a malformed program.
    pub fn compile_with_config(
        program: FilterProgram,
        config: InterpConfig,
    ) -> Result<Self, ValidateError> {
        Ok(Self::from_validated(&ValidatedProgram::with_config(
            program, config,
        )?))
    }

    /// Compiles an already-validated program: translate to the CFG IR, run
    /// the optimization pipeline, flatten to threaded code.
    pub fn from_validated(validated: &ValidatedProgram) -> Self {
        let mut ir = translate(validated);
        optimize(&mut ir);
        let code = lower(&ir);
        IrFilter {
            program: validated.program().clone(),
            config: validated.config(),
            min_packet_words: validated.min_packet_words(),
            reg_count: ir.reg_count as usize,
            code,
        }
    }

    /// The source program.
    pub fn program(&self) -> &FilterProgram {
        &self.program
    }

    /// The filter's priority.
    pub fn priority(&self) -> u8 {
        self.program.priority()
    }

    /// The configuration the filter was compiled under.
    pub fn config(&self) -> InterpConfig {
        self.config
    }

    /// Packet length (in words) below which evaluation falls back to the
    /// checked interpreter.
    pub fn min_packet_words(&self) -> usize {
        self.min_packet_words
    }

    /// Number of threaded-code instructions.
    pub fn code_len(&self) -> usize {
        self.code.len()
    }

    /// The threaded code itself, for interval analysis ([`crate::geom`]).
    pub(crate) fn code(&self) -> &[TOp] {
        &self.code
    }

    /// Live registers after optimization.
    pub fn reg_count(&self) -> usize {
        self.reg_count
    }

    /// Evaluates against a packet; `true` means *accept*.
    pub fn eval(&self, packet: PacketView<'_>) -> bool {
        self.eval_with_stats(packet).0
    }

    /// Evaluates and reports execution counters.
    pub fn eval_with_stats(&self, packet: PacketView<'_>) -> (bool, IrEvalStats) {
        if packet.word_len() < self.min_packet_words {
            let (accept, stats) =
                CheckedInterpreter::new(self.config).eval_with_stats(&self.program, packet);
            return (
                accept,
                IrEvalStats {
                    ops_executed: stats.instructions,
                    fell_back: true,
                },
            );
        }
        let (accept, ops) = self.exec(packet);
        (
            accept,
            IrEvalStats {
                ops_executed: ops,
                fell_back: false,
            },
        )
    }

    /// The threaded-code inner loop.
    fn exec(&self, packet: PacketView<'_>) -> (bool, u32) {
        // Register file: stack storage for typical filters, heap beyond.
        let mut small = [0u16; 32];
        let mut big;
        let regs: &mut [u16] = if self.reg_count <= small.len() {
            &mut small
        } else {
            big = vec![0u16; self.reg_count];
            &mut big
        };

        let mut pc = 0usize;
        let mut ops = 0u32;
        loop {
            ops += 1;
            match self.code[pc] {
                TOp::Const { dst, value } => {
                    regs[usize::from(dst)] = value;
                    pc += 1;
                }
                TOp::LoadWord { dst, index } => {
                    // In bounds by the min_packet_words precondition.
                    regs[usize::from(dst)] = packet.word(usize::from(index)).unwrap_or(0);
                    pc += 1;
                }
                TOp::LoadInd { dst, index } => {
                    let idx = usize::from(regs[usize::from(index)]);
                    match packet.word(idx) {
                        Some(v) => regs[usize::from(dst)] = v,
                        None => return (false, ops),
                    }
                    pc += 1;
                }
                TOp::Bin { op, dst, a, b } => {
                    match op.apply(regs[usize::from(a)], regs[usize::from(b)]) {
                        Some(v) => regs[usize::from(dst)] = v,
                        None => return (false, ops),
                    }
                    pc += 1;
                }
                TOp::Jump { target } => pc = target as usize,
                TOp::BranchIf { cond, target } => {
                    pc = if regs[usize::from(cond)] != 0 {
                        target as usize
                    } else {
                        pc + 1
                    };
                }
                TOp::BranchIfNot { cond, target } => {
                    pc = if regs[usize::from(cond)] == 0 {
                        target as usize
                    } else {
                        pc + 1
                    };
                }
                TOp::GuardEqBr { word, lit, target } => {
                    pc = if packet.word(usize::from(word)) == Some(lit) {
                        target as usize
                    } else {
                        pc + 1
                    };
                }
                TOp::GuardNeBr { word, lit, target } => {
                    pc = if packet.word(usize::from(word)) == Some(lit) {
                        pc + 1
                    } else {
                        target as usize
                    };
                }
                TOp::GuardInBr {
                    word,
                    lo,
                    hi,
                    target,
                } => {
                    let inside = packet
                        .word(usize::from(word))
                        .is_some_and(|v| lo <= v && v <= hi);
                    pc = if inside { target as usize } else { pc + 1 };
                }
                TOp::GuardOutBr {
                    word,
                    lo,
                    hi,
                    target,
                } => {
                    let inside = packet
                        .word(usize::from(word))
                        .is_some_and(|v| lo <= v && v <= hi);
                    pc = if inside { pc + 1 } else { target as usize };
                }
                TOp::Return { accept } => return (accept, ops),
                TOp::ReturnReg { reg } => return (regs[usize::from(reg)] != 0, ops),
            }
        }
    }

    /// Disassembles the threaded code (debugging and tests).
    pub fn disassemble(&self) -> String {
        let mut out = String::new();
        for (i, op) in self.code.iter().enumerate() {
            out.push_str(&format!("{i:3}: {op:?}\n"));
        }
        out
    }
}

/// Flattens an optimized CFG into threaded code with fused guards.
fn lower(ir: &IrProgram) -> Vec<TOp> {
    // Emit per-block instruction lists with BlockId-valued targets, fuse
    // within each block, then concatenate and patch targets.
    let n = ir.blocks.len();
    let mut chunks: Vec<Vec<TOp>> = Vec::with_capacity(n);
    for (i, block) in ir.blocks.iter().enumerate() {
        let mut out: Vec<TOp> = Vec::with_capacity(block.ops.len() + 2);
        for op in &block.ops {
            out.push(match *op {
                crate::ir::Op::Const { dst, value } => TOp::Const { dst: dst.0, value },
                crate::ir::Op::LoadWord { dst, index } => TOp::LoadWord { dst: dst.0, index },
                crate::ir::Op::LoadInd { dst, index } => TOp::LoadInd {
                    dst: dst.0,
                    index: index.0,
                },
                crate::ir::Op::Bin { dst, op, a, b } => TOp::Bin {
                    op,
                    dst: dst.0,
                    a: a.0,
                    b: b.0,
                },
            });
        }
        let next = BlockId((i + 1) as u32);
        match block.term {
            Terminator::Return(accept) => out.push(TOp::Return { accept }),
            Terminator::ReturnReg(r) => out.push(TOp::ReturnReg { reg: r.0 }),
            Terminator::Jump(t) => {
                if t != next {
                    out.push(TOp::Jump { target: t.0 });
                }
            }
            Terminator::Branch {
                cond,
                if_true,
                if_false,
            } => {
                if if_false == next {
                    out.push(TOp::BranchIf {
                        cond: cond.0,
                        target: if_true.0,
                    });
                } else if if_true == next {
                    out.push(TOp::BranchIfNot {
                        cond: cond.0,
                        target: if_false.0,
                    });
                } else {
                    out.push(TOp::BranchIf {
                        cond: cond.0,
                        target: if_true.0,
                    });
                    out.push(TOp::Jump { target: if_false.0 });
                }
            }
        }
        chunks.push(out);
    }

    fuse_guards(&mut chunks, ir);

    // Concatenate and patch BlockId targets to instruction indices.
    let mut starts = Vec::with_capacity(n);
    let mut len = 0u32;
    for c in &chunks {
        starts.push(len);
        len += c.len() as u32;
    }
    let mut code = Vec::with_capacity(len as usize);
    for c in chunks {
        for mut op in c {
            match &mut op {
                TOp::Jump { target }
                | TOp::BranchIf { target, .. }
                | TOp::BranchIfNot { target, .. }
                | TOp::GuardEqBr { target, .. }
                | TOp::GuardNeBr { target, .. }
                | TOp::GuardInBr { target, .. }
                | TOp::GuardOutBr { target, .. } => {
                    *target = starts[*target as usize];
                }
                _ => {}
            }
            code.push(op);
        }
    }
    loop {
        let before = code.len();
        merge_range_guards(&mut code);
        if code.len() == before {
            break;
        }
    }
    code
}

/// Merges an adjacent pair of same-word, same-target `GuardOutBr`s into a
/// single two-sided range check — the shape a `GE cand LE` chain lowers
/// to: each one-sided test becomes its own out-of-range bail, and the
/// intersection of the two intervals is the `InRange` window. Only fires
/// when no branch lands between the two (merging would change that path).
fn merge_range_guards(code: &mut Vec<TOp>) {
    use std::collections::HashSet;
    let mut targets: HashSet<u32> = HashSet::new();
    for op in code.iter() {
        match *op {
            TOp::Jump { target }
            | TOp::BranchIf { target, .. }
            | TOp::BranchIfNot { target, .. }
            | TOp::GuardEqBr { target, .. }
            | TOp::GuardNeBr { target, .. }
            | TOp::GuardInBr { target, .. }
            | TOp::GuardOutBr { target, .. } => {
                targets.insert(target);
            }
            _ => {}
        }
    }
    // Collapse pairs, recording how many instructions were dropped before
    // each original index so surviving targets can be re-patched.
    let mut out: Vec<TOp> = Vec::with_capacity(code.len());
    let mut new_index = vec![0u32; code.len() + 1];
    let mut i = 0usize;
    while i < code.len() {
        new_index[i] = out.len() as u32;
        if let TOp::GuardOutBr {
            word,
            lo,
            hi,
            target,
        } = code[i]
        {
            if let Some(&TOp::GuardOutBr {
                word: w2,
                lo: lo2,
                hi: hi2,
                target: t2,
            }) = code.get(i + 1)
            {
                if w2 == word && t2 == target && !targets.contains(&((i + 1) as u32)) {
                    let lo = lo.max(lo2);
                    let hi = hi.min(hi2);
                    new_index[i + 1] = out.len() as u32;
                    if lo <= hi {
                        out.push(TOp::GuardOutBr {
                            word,
                            lo,
                            hi,
                            target,
                        });
                    } else {
                        // Empty intersection: always out of range.
                        out.push(TOp::Jump { target });
                    }
                    i += 2;
                    continue;
                }
            }
        }
        out.push(code[i]);
        i += 1;
    }
    new_index[code.len()] = out.len() as u32;
    for op in out.iter_mut() {
        match op {
            TOp::Jump { target }
            | TOp::BranchIf { target, .. }
            | TOp::BranchIfNot { target, .. }
            | TOp::GuardEqBr { target, .. }
            | TOp::GuardNeBr { target, .. }
            | TOp::GuardInBr { target, .. }
            | TOp::GuardOutBr { target, .. } => {
                *target = new_index[*target as usize];
            }
            _ => {}
        }
    }
    *code = out;
}

/// Fuses the `LoadWord / Const / eq / branch` tail of a block into a
/// single guard instruction when the intermediate registers have no other
/// consumers.
fn fuse_guards(chunks: &mut [Vec<TOp>], ir: &IrProgram) {
    let uses = register_use_counts(ir);
    let used_once = |r: u16| uses.get(usize::from(r)).is_some_and(|&c| c == 1);
    // Registers with statically known values, and registers holding a
    // packet word (single assignment makes both maps global); lets a
    // CSE-shared constant or a CSE-shared load fuse without being removed
    // — the dead-definition sweep below reclaims either once every
    // consumer has been fused away.
    let mut const_val: HashMap<u16, u16> = HashMap::new();
    let mut load_val: HashMap<u16, u16> = HashMap::new();
    for chunk in chunks.iter() {
        for op in chunk {
            match *op {
                TOp::Const { dst, value } => {
                    const_val.insert(dst, value);
                }
                TOp::LoadWord { dst, index } => {
                    load_val.insert(dst, index);
                }
                _ => {}
            }
        }
    }
    for chunk in chunks.iter_mut() {
        let k = chunk.len();
        if k < 3 {
            continue;
        }
        let (cond, target, jump_on_cond) = match chunk[k - 1] {
            TOp::BranchIf { cond, target } => (cond, target, true),
            TOp::BranchIfNot { cond, target } => (cond, target, false),
            _ => continue,
        };
        if !used_once(cond) {
            continue;
        }
        let TOp::Bin { op, dst, a, b } = chunk[k - 2] else {
            continue;
        };
        if dst != cond
            || !matches!(
                op,
                IrBinOp::Eq | IrBinOp::Lt | IrBinOp::Le | IrBinOp::Gt | IrBinOp::Ge
            )
        {
            continue;
        }
        // The compare's operands: one register holding a packet word, one
        // holding a constant (each either single-use and removable, or
        // shared and kept — kept definitions that lose their last
        // consumer are reclaimed by the sweep below). `word_is_left`
        // records whether the packet word was `T2` — the ordering
        // operators are not symmetric.
        let (word, lit, word_is_left) = match (
            load_val.get(&a),
            const_val.get(&b),
            load_val.get(&b),
            const_val.get(&a),
        ) {
            (Some(&w), Some(&l), _, _) => (w, l, true),
            (_, _, Some(&w), Some(&l)) => (w, l, false),
            _ => continue,
        };
        let fused = match op {
            IrBinOp::Eq => {
                if jump_on_cond {
                    TOp::GuardEqBr { word, lit, target }
                } else {
                    TOp::GuardNeBr { word, lit, target }
                }
            }
            _ => {
                // Rewrite the ordering compare as an inclusive interval on
                // the packet word. Literal-edge cases (a constantly-false
                // compare) are left unfused; they are rare and correct as-is.
                let interval = match (op, word_is_left) {
                    (IrBinOp::Lt, true) | (IrBinOp::Gt, false) => {
                        lit.checked_sub(1).map(|h| (0, h))
                    }
                    (IrBinOp::Le, true) | (IrBinOp::Ge, false) => Some((0, lit)),
                    (IrBinOp::Gt, true) | (IrBinOp::Lt, false) => {
                        lit.checked_add(1).map(|l| (l, u16::MAX))
                    }
                    (IrBinOp::Ge, true) | (IrBinOp::Le, false) => Some((lit, u16::MAX)),
                    _ => unreachable!("ordering ops only"),
                };
                let Some((lo, hi)) = interval else {
                    continue;
                };
                if jump_on_cond {
                    TOp::GuardInBr {
                        word,
                        lo,
                        hi,
                        target,
                    }
                } else {
                    TOp::GuardOutBr {
                        word,
                        lo,
                        hi,
                        target,
                    }
                }
            }
        };
        // Drop the compare and branch; peel the trailing single-use
        // definitions that fed only this window.
        let mut keep = k - 2;
        while keep > 0 {
            match chunk[keep - 1] {
                TOp::Const { dst, .. } | TOp::LoadWord { dst, .. }
                    if (dst == a || dst == b) && used_once(dst) =>
                {
                    keep -= 1;
                }
                _ => break,
            }
        }
        chunk.truncate(keep);
        chunk.push(fused);
    }
    sweep_dead_definitions(chunks);
}

/// Removes `Const`/`LoadWord` definitions no surviving instruction reads
/// (to fixpoint): a load shared by several compares goes dead only once
/// guard fusion has rewritten *every* consumer. Sound because both ops
/// are pure and registers are single-assignment.
fn sweep_dead_definitions(chunks: &mut [Vec<TOp>]) {
    loop {
        let mut read = std::collections::HashSet::new();
        for chunk in chunks.iter() {
            for op in chunk {
                match *op {
                    TOp::LoadInd { index, .. } => {
                        read.insert(index);
                    }
                    TOp::Bin { a, b, .. } => {
                        read.insert(a);
                        read.insert(b);
                    }
                    TOp::BranchIf { cond, .. } | TOp::BranchIfNot { cond, .. } => {
                        read.insert(cond);
                    }
                    TOp::ReturnReg { reg } => {
                        read.insert(reg);
                    }
                    _ => {}
                }
            }
        }
        let mut removed = false;
        for chunk in chunks.iter_mut() {
            chunk.retain(|op| match *op {
                TOp::Const { dst, .. } | TOp::LoadWord { dst, .. } => {
                    let live = read.contains(&dst);
                    removed |= !live;
                    live
                }
                _ => true,
            });
        }
        if !removed {
            break;
        }
    }
}

/// Per-register consumer counts (operand positions only, definitions
/// excluded), including terminator uses.
fn register_use_counts(ir: &IrProgram) -> Vec<u32> {
    let mut uses = vec![0u32; ir.reg_count as usize];
    let bump = |r: crate::ir::Reg, uses: &mut Vec<u32>| {
        uses[usize::from(r.0)] += 1;
    };
    for b in &ir.blocks {
        for op in &b.ops {
            match *op {
                crate::ir::Op::LoadInd { index, .. } => bump(index, &mut uses),
                crate::ir::Op::Bin { a, b, .. } => {
                    bump(a, &mut uses);
                    bump(b, &mut uses);
                }
                _ => {}
            }
        }
        match b.term {
            Terminator::Branch { cond, .. } => bump(cond, &mut uses),
            Terminator::ReturnReg(r) => bump(r, &mut uses),
            _ => {}
        }
    }
    uses
}

#[cfg(test)]
mod tests {
    use super::*;
    use pf_filter::program::Assembler;
    use pf_filter::samples;
    use pf_filter::word::BinaryOp;

    #[test]
    fn fig_3_9_fuses_to_guards() {
        let f = IrFilter::compile(samples::fig_3_9_pup_socket_35()).unwrap();
        // Two CAND guards fuse; the final EQ feeds the verdict directly.
        let guards = f
            .code
            .iter()
            .filter(|o| matches!(o, TOp::GuardNeBr { .. } | TOp::GuardEqBr { .. }))
            .count();
        assert_eq!(guards, 2, "{}", f.disassemble());
        let pkt = samples::pup_packet_3mb(2, 0, 35, 1);
        assert!(f.eval(PacketView::new(&pkt)));
        let pkt = samples::pup_packet_3mb(2, 0, 36, 1);
        assert!(!f.eval(PacketView::new(&pkt)));
    }

    #[test]
    fn range_filter_fuses_to_single_merged_interval_guard() {
        // GE 100 and LE 200 each fuse to a one-sided GuardOutBr; the
        // post-lower peephole intersects them into one InRange check.
        let f = IrFilter::compile(samples::socket_range_filter(10, 100, 200)).unwrap();
        let outs: Vec<TOp> = f
            .code
            .iter()
            .copied()
            .filter(|o| matches!(o, TOp::GuardOutBr { .. } | TOp::GuardInBr { .. }))
            .collect();
        assert_eq!(outs.len(), 1, "{}", f.disassemble());
        let TOp::GuardOutBr { word, lo, hi, .. } = outs[0] else {
            panic!("expected GuardOutBr: {}", f.disassemble());
        };
        assert_eq!((word, lo, hi), (8, 100, 200), "{}", f.disassemble());
        let checked = CheckedInterpreter::default();
        let prog = samples::socket_range_filter(10, 100, 200);
        for et in [2u16, 3] {
            for sock in [0u16, 99, 100, 150, 200, 201, 65535] {
                let pkt = samples::pup_packet_3mb(et, 0, sock, 1);
                let view = PacketView::new(&pkt);
                assert_eq!(
                    f.eval(view),
                    checked.eval(&prog, view),
                    "et={et} sock={sock}"
                );
                assert_eq!(f.eval(view), et == 2 && (100..=200).contains(&sock));
            }
        }
    }

    #[test]
    fn short_packet_falls_back_to_checked() {
        let f = IrFilter::compile(samples::fig_3_9_pup_socket_35()).unwrap();
        let (accept, stats) = f.eval_with_stats(PacketView::new(&[0x11, 0x22]));
        assert!(!accept);
        assert!(stats.fell_back);
    }

    #[test]
    fn short_circuit_accept_survives_short_packet() {
        // COR accepts before the out-of-bounds load; fallback preserves it.
        let p = Assembler::new(0)
            .pushword(0)
            .pushlit_op(BinaryOp::Cor, 0x1111)
            .pushword(40)
            .finish();
        let f = IrFilter::compile(p).unwrap();
        assert!(f.eval(PacketView::new(&[0x11, 0x11])));
    }

    #[test]
    fn empty_program_accepts() {
        let f = IrFilter::compile(pf_filter::program::FilterProgram::empty(0)).unwrap();
        assert!(f.eval(PacketView::new(&[])));
        assert!(f.eval(PacketView::new(&[1, 2, 3])));
    }

    #[test]
    fn constant_filter_compiles_to_single_return() {
        let p = Assembler::new(0)
            .pushlit(5)
            .pushlit_op(BinaryOp::Eq, 5)
            .finish();
        let f = IrFilter::compile(p).unwrap();
        assert_eq!(f.code_len(), 1, "{}", f.disassemble());
        assert!(f.eval(PacketView::new(&[])));
    }

    #[test]
    fn fig_3_8_matches_checked_interpreter() {
        let prog = samples::fig_3_8_pup_type_range();
        let f = IrFilter::compile(prog.clone()).unwrap();
        let checked = CheckedInterpreter::default();
        for ethertype in [2u16, 3] {
            for ptype in [0u8, 1, 50, 100, 101] {
                let pkt = samples::pup_packet_3mb_typed(ethertype, ptype, 0, 35, 1);
                let view = PacketView::new(&pkt);
                assert_eq!(checked.eval(&prog, view), f.eval(view));
            }
        }
    }
}
