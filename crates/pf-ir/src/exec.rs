//! The flat threaded-code execution engine.
//!
//! After optimization the CFG is flattened into one dense instruction
//! array (`TOp`): blocks are laid out in order, branch targets become
//! instruction indices, and a transfer to the next instruction costs
//! nothing (fallthrough). A peephole pass then fuses the dominant
//! demultiplexing shape — *load packet word, load constant, compare,
//! branch* — into single guard instructions, so a figure 3-9 style filter
//! executes as a couple of fused word-equality tests with no register
//! traffic at all.
//!
//! Most demultiplexing filters are then a *plain conjunction*: a path of
//! word-interval tests, each rejecting at once when it fails, ending in an
//! accept. `lower`'s output is walked once for that shape, and when it
//! matches, the filter also keeps it as a `Conjunction` — an ordered
//! inline list of `(word, lo, hi, ops if this test fails)` plus the ops of
//! an accept — which evaluation runs instead of the threaded code. The
//! op counts are read off the threaded path the list replaces, so verdict
//! and `ops_executed` are the threaded code's on every packet; any other
//! program runs as threaded code.
//!
//! Short packets take the same route as [`ValidatedProgram::eval`]: when
//! the packet is shorter than the validator's `min_packet_words`, the
//! whole evaluation falls back to the checked interpreter, preserving the
//! paper's §4 semantics exactly (a short-circuit accept can legitimately
//! precede an out-of-bounds load).

use crate::ir::{BlockId, IrProgram, Terminator};
use crate::opt::optimize;
use crate::translate::translate;
use pf_filter::error::ValidateError;
use pf_filter::form::Interval;
use pf_filter::interp::CheckedInterpreter;
use pf_filter::packet::PacketView;
use pf_filter::program::FilterProgram;
use pf_filter::validate::ValidatedProgram;
use pf_filter::word::BinaryOp;

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
        op: BinaryOp,
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

/// Most tests a [`Conjunction`] holds; a longer conjunction runs as
/// threaded code. The widest filter of the samples and the suites tests
/// six words.
const CONJUNCTION_TESTS: usize = 8;

/// One test of a [`Conjunction`]: `packet[word] ∈ [lo, hi]`, and the
/// threaded-code instructions executed when the evaluation rejects here.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct WordTest {
    pub(crate) interval: Interval,
    fail_ops: u16,
}

/// A filter whose threaded code is a plain conjunction of word-interval
/// tests, as an ordered list kept inline (no heap): a packet is accepted
/// iff it passes every test, and the first test it fails decides the
/// rejection and its op count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Conjunction {
    tests: [WordTest; CONJUNCTION_TESTS],
    len: u8,
    accept_ops: u16,
}

impl Conjunction {
    /// The tests, in the order the threaded code runs them.
    pub(crate) fn tests(&self) -> &[WordTest] {
        &self.tests[..usize::from(self.len)]
    }

    /// The mask of the tests `proven` does not hold: a bit per test, in
    /// order.
    pub(crate) fn unproven(&self, proven: impl Fn(&Interval) -> bool) -> u8 {
        self.tests()
            .iter()
            .enumerate()
            .filter(|(_, t)| !proven(&t.interval))
            .fold(0, |mask, (i, _)| mask | 1 << i)
    }

    /// Runs the tests `mask` selects, in order, for the verdict and the op
    /// count of the threaded code — exact whenever every test left out
    /// passes. The packet must be at least the filter's
    /// [`IrFilter::min_packet_words`] long.
    #[inline]
    pub(crate) fn run(&self, packet: PacketView<'_>, mask: u8) -> (bool, u32) {
        let mut left = mask;
        while left != 0 {
            let t = self.tests[left.trailing_zeros() as usize];
            left &= left - 1;
            let Interval { word, lo, hi } = t.interval;
            if !packet
                .word(usize::from(word))
                .is_some_and(|v| lo <= v && v <= hi)
            {
                return (false, u32::from(t.fail_ops));
            }
        }
        (true, u32::from(self.accept_ops))
    }

    /// Every test.
    fn all(&self) -> u8 {
        ((1u16 << self.len) - 1) as u8
    }

    /// Appends a test; `None` when the list is full.
    fn push(&mut self, interval: Interval, fail_ops: u32) -> Option<()> {
        let slot = self.tests.get_mut(usize::from(self.len))?;
        *slot = WordTest {
            interval,
            fail_ops: u16::try_from(fail_ops).ok()?,
        };
        self.len += 1;
        Some(())
    }
}

/// Counters from one IR-engine evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IrEvalStats {
    /// Threaded-code instructions executed (or, on the fallback path, the
    /// checked interpreter's instruction count).
    pub ops_executed: u32,
    /// Whether a short packet routed evaluation to the checked fallback.
    pub(crate) fell_back: bool,
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
    min_packet_words: usize,
    reg_count: usize,
    code: Vec<TOp>,
    /// The code as a test list, when it is a plain conjunction.
    conjunction: Option<Conjunction>,
}

impl IrFilter {
    /// Validates and compiles.
    ///
    /// # Errors
    ///
    /// Returns the validator's verdict on a malformed program.
    pub fn compile(program: FilterProgram) -> Result<Self, ValidateError> {
        Ok(Self::from_validated(ValidatedProgram::new(program)?))
    }

    /// Compiles an already-validated program: translate to the CFG IR, run
    /// the optimization pipeline, flatten to threaded code. The filter
    /// keeps the program for its short-packet fallback.
    pub(crate) fn from_validated(validated: ValidatedProgram) -> Self {
        let mut ir = translate(&validated);
        optimize(&mut ir);
        let operands = Operands::of(&ir);
        let code = lower(&ir, &operands);
        IrFilter {
            min_packet_words: validated.min_packet_words(),
            program: validated.into_program(),
            reg_count: ir.reg_count as usize,
            conjunction: conjunction(&code, operands),
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

    /// Packet length (in words) below which evaluation falls back to the
    /// checked interpreter.
    pub fn min_packet_words(&self) -> usize {
        self.min_packet_words
    }

    /// The code as a plain conjunction of word tests, if it is one.
    pub(crate) fn conjunction(&self) -> Option<&Conjunction> {
        self.conjunction.as_ref()
    }

    /// Evaluates against a packet; `true` means *accept*.
    pub fn eval(&self, packet: PacketView<'_>) -> bool {
        self.eval_with_stats(packet).0
    }

    /// Evaluates and reports execution counters.
    pub fn eval_with_stats(&self, packet: PacketView<'_>) -> (bool, IrEvalStats) {
        if packet.word_len() < self.min_packet_words {
            let (accept, stats) = CheckedInterpreter.eval_with_stats(&self.program, packet);
            return (
                accept,
                IrEvalStats {
                    ops_executed: stats.instructions,
                    fell_back: true,
                },
            );
        }
        let (accept, ops) = match &self.conjunction {
            Some(c) => c.run(packet, c.all()),
            None => self.exec(packet),
        };
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

/// Every instruction's branch target, for rewriting.
fn target_mut(op: &mut TOp) -> Option<&mut u32> {
    match op {
        TOp::Jump { target }
        | TOp::BranchIf { target, .. }
        | TOp::BranchIfNot { target, .. }
        | TOp::GuardEqBr { target, .. }
        | TOp::GuardNeBr { target, .. }
        | TOp::GuardInBr { target, .. }
        | TOp::GuardOutBr { target, .. } => Some(target),
        _ => None,
    }
}

/// Flattens an optimized CFG into threaded code with fused guards.
fn lower(ir: &IrProgram, operands: &Operands) -> Vec<TOp> {
    // Emit each block after the last with BlockId-valued targets, fuse its
    // tail, then sweep dead definitions and patch targets to instruction
    // indices.
    let mut uses = register_use_counts(ir);
    let mut code: Vec<TOp> = Vec::with_capacity(ir.op_count() + 2 * ir.blocks.len());
    // Each block's first instruction, and one past the last block's.
    let mut starts: Vec<u32> = Vec::with_capacity(ir.blocks.len() + 1);
    for (i, block) in ir.blocks.iter().enumerate() {
        let start = code.len();
        starts.push(start as u32);
        code.extend(block.ops.iter().map(|op| match *op {
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
        }));
        let next = BlockId((i + 1) as u32);
        match block.term {
            Terminator::Return(accept) => code.push(TOp::Return { accept }),
            Terminator::ReturnReg(r) => code.push(TOp::ReturnReg { reg: r.0 }),
            Terminator::Jump(t) if t != next => code.push(TOp::Jump { target: t.0 }),
            Terminator::Jump(_) => {}
            Terminator::Branch {
                cond,
                if_true,
                if_false,
            } => {
                if if_false == next {
                    code.push(TOp::BranchIf {
                        cond: cond.0,
                        target: if_true.0,
                    });
                } else if if_true == next {
                    code.push(TOp::BranchIfNot {
                        cond: cond.0,
                        target: if_false.0,
                    });
                } else {
                    code.push(TOp::BranchIf {
                        cond: cond.0,
                        target: if_true.0,
                    });
                    code.push(TOp::Jump { target: if_false.0 });
                }
            }
        }
        fuse_guard(&mut code, start, &uses, operands);
    }
    starts.push(code.len() as u32);
    sweep_dead_definitions(&mut code, &mut starts, &mut uses);
    for target in code.iter_mut().filter_map(target_mut) {
        *target = starts[*target as usize];
    }
    merge_range_guards(&mut code);
    code
}

/// Merges each adjacent pair of same-word, same-target `GuardOutBr`s into
/// a single two-sided range check — the shape a `GE cand LE` chain lowers
/// to: each one-sided test becomes its own out-of-range bail, and the
/// intersection of the two intervals is the `InRange` window — until no
/// pair is left. Only fires when no branch lands between the two (merging
/// would change that path).
fn merge_range_guards(code: &mut Vec<TOp>) {
    // By instruction, and one past the last (where a branch may land):
    // whether a branch lands there, and its place once the pairs before
    // it are collapsed.
    let mut at = vec![(false, 0u32); code.len() + 1];
    loop {
        let len = code.len();
        at.fill((false, 0));
        for op in code.iter_mut() {
            if let Some(&mut t) = target_mut(op) {
                at[t as usize].0 = true;
            }
        }
        let (mut kept, mut i) = (0, 0);
        while i < len {
            at[i].1 = kept as u32;
            let mut op = code[i];
            if let (
                TOp::GuardOutBr {
                    word,
                    lo,
                    hi,
                    target,
                },
                Some(&TOp::GuardOutBr {
                    word: w2,
                    lo: lo2,
                    hi: hi2,
                    target: t2,
                }),
            ) = (op, code.get(i + 1))
            {
                if w2 == word && t2 == target && !at[i + 1].0 {
                    let (lo, hi) = (lo.max(lo2), hi.min(hi2));
                    at[i + 1].1 = kept as u32;
                    op = if lo <= hi {
                        TOp::GuardOutBr {
                            word,
                            lo,
                            hi,
                            target,
                        }
                    } else {
                        // Empty intersection: always out of range.
                        TOp::Jump { target }
                    };
                    i += 1;
                }
            }
            code[kept] = op;
            kept += 1;
            i += 1;
        }
        at[len].1 = kept as u32;
        if kept == len {
            return;
        }
        code.truncate(kept);
        for target in code.iter_mut().filter_map(target_mut) {
            *target = at[*target as usize].1;
        }
    }
}

/// What a register holds, where one instruction decides it: the literal
/// of a `Const`, the packet word of a `LoadWord` — and, once
/// [`conjunction`] has walked it, the test a compare makes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Operand {
    Other,
    Literal(u16),
    Word(u16),
    Test(Interval),
}

/// Every register's [`Operand`], by register. Registers are
/// single-assignment, so one entry each serves every path.
struct Operands(Vec<Operand>);

impl Operands {
    fn of(ir: &IrProgram) -> Self {
        let mut regs = vec![Operand::Other; ir.reg_count as usize];
        for op in ir.blocks.iter().flat_map(|b| &b.ops) {
            match *op {
                crate::ir::Op::Const { dst, value } => {
                    regs[usize::from(dst.0)] = Operand::Literal(value)
                }
                crate::ir::Op::LoadWord { dst, index } => {
                    regs[usize::from(dst.0)] = Operand::Word(index)
                }
                _ => {}
            }
        }
        Operands(regs)
    }

    /// The interval `packet[word] ∈ [lo, hi]` (unsigned) on which the
    /// compare `op(regs[a], regs[b])` is true, when one operand holds a
    /// packet word and the other a literal. `None` for any other operator
    /// or operands, and for an ordering compare no word passes (`< 0`,
    /// `> 0xFFFF`).
    fn compare_interval(&self, op: BinaryOp, a: u16, b: u16) -> Option<Interval> {
        match (self.0[usize::from(a)], self.0[usize::from(b)]) {
            (Operand::Word(w), Operand::Literal(l)) => Interval::of_compare(op, w, l, true),
            (Operand::Literal(l), Operand::Word(w)) => Interval::of_compare(op, w, l, false),
            _ => None,
        }
    }
}

/// The threaded code as a [`Conjunction`], when it is a plain one: from
/// the entry, one path of straight-line `Const`/`LoadWord`, word-literal
/// compares and `Jump`s, on which every branch — a fused guard, or a
/// `BranchIf`/`BranchIfNot` on a compare — continues when its interval
/// holds and otherwise reaches `Return { accept: false }` through jumps
/// alone, ending in `Return { accept: true }` or a `ReturnReg` of a
/// compare. Each test's op count is the path's up to the rejection. Any
/// other instruction on the path (`LoadInd`, a compare that is no interval
/// test, a branch on anything else) leaves the program threaded.
fn conjunction(code: &[TOp], mut operands: Operands) -> Option<Conjunction> {
    // The test of a compare register defined so far on the path.
    let test = |operands: &Operands, r: u16| match operands.0[usize::from(r)] {
        Operand::Test(t) => Some(t),
        _ => None,
    };
    let mut conj = Conjunction::default();
    let mut ops = 0u32;
    let mut pc = 0usize;
    // The path is acyclic, so it visits each instruction at most once.
    for _ in 0..code.len() {
        ops += 1;
        // The test a branch makes, and where it goes when the test passes
        // and when it fails.
        let (test, pass, fail) = match *code.get(pc)? {
            TOp::Const { .. } | TOp::LoadWord { .. } => {
                pc += 1;
                continue;
            }
            TOp::Bin { op, dst, a, b } => {
                operands.0[usize::from(dst)] = Operand::Test(operands.compare_interval(op, a, b)?);
                pc += 1;
                continue;
            }
            TOp::Jump { target } => {
                pc = target as usize;
                continue;
            }
            TOp::GuardEqBr { word, lit, target } => {
                (Interval::exact(word, lit), target as usize, pc + 1)
            }
            TOp::GuardNeBr { word, lit, target } => {
                (Interval::exact(word, lit), pc + 1, target as usize)
            }
            TOp::GuardInBr {
                word,
                lo,
                hi,
                target,
            } => (Interval { word, lo, hi }, target as usize, pc + 1),
            TOp::GuardOutBr {
                word,
                lo,
                hi,
                target,
            } => (Interval { word, lo, hi }, pc + 1, target as usize),
            TOp::BranchIf { cond, target } => (test(&operands, cond)?, target as usize, pc + 1),
            TOp::BranchIfNot { cond, target } => (test(&operands, cond)?, pc + 1, target as usize),
            TOp::ReturnReg { reg } => {
                conj.push(test(&operands, reg)?, ops)?;
                conj.accept_ops = u16::try_from(ops).ok()?;
                return Some(conj);
            }
            TOp::Return { accept: true } => {
                conj.accept_ops = u16::try_from(ops).ok()?;
                return Some(conj);
            }
            TOp::Return { accept: false } | TOp::LoadInd { .. } => return None,
        };
        conj.push(test, ops + reject_ops(code, fail)?)?;
        pc = pass;
    }
    None
}

/// The instructions executed from `pc` when they reach
/// `Return { accept: false }` through jumps alone, the return included.
fn reject_ops(code: &[TOp], mut pc: usize) -> Option<u32> {
    for ops in 1..=code.len() as u32 {
        match *code.get(pc)? {
            TOp::Jump { target } => pc = target as usize,
            TOp::Return { accept: false } => return Some(ops),
            _ => return None,
        }
    }
    None
}

/// Fuses the `LoadWord / Const / eq / branch` tail of the block that
/// starts at `start` and ends the code into a single guard instruction
/// when the intermediate registers have no other consumers. A CSE-shared
/// constant or load fuses without being removed: the dead-definition
/// sweep reclaims either once every consumer has been fused away.
fn fuse_guard(code: &mut Vec<TOp>, start: usize, uses: &[u32], operands: &Operands) {
    let used_once = |r: u16| uses.get(usize::from(r)).is_some_and(|&c| c == 1);
    let k = code.len() - start;
    if k < 3 {
        return;
    }
    let chunk = &code[start..];
    let (cond, target, jump_on_cond) = match chunk[k - 1] {
        TOp::BranchIf { cond, target } => (cond, target, true),
        TOp::BranchIfNot { cond, target } => (cond, target, false),
        _ => return,
    };
    if !used_once(cond) {
        return;
    }
    let TOp::Bin { op, dst, a, b } = chunk[k - 2] else {
        return;
    };
    if dst != cond {
        return;
    }
    // The compare's operands: one register holding a packet word, one
    // holding a constant (each either single-use and removable, or shared
    // and kept). A constantly-false ordering compare is left unfused; it
    // is rare and correct as-is.
    let Some(Interval { word, lo, hi }) = operands.compare_interval(op, a, b) else {
        return;
    };
    let fused = match (op, jump_on_cond) {
        (BinaryOp::Eq, true) => TOp::GuardEqBr {
            word,
            lit: lo,
            target,
        },
        (BinaryOp::Eq, false) => TOp::GuardNeBr {
            word,
            lit: lo,
            target,
        },
        (_, true) => TOp::GuardInBr {
            word,
            lo,
            hi,
            target,
        },
        (_, false) => TOp::GuardOutBr {
            word,
            lo,
            hi,
            target,
        },
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
    code.truncate(start + keep);
    code.push(fused);
}

/// Removes `Const`/`LoadWord` definitions no surviving instruction reads
/// (to fixpoint), moving each block's start (`starts`, by block, then one
/// past the end) along: a load shared by several compares goes dead only
/// once guard fusion has rewritten *every* consumer. Sound because both
/// ops are pure and registers are single-assignment. `reads` is recounted
/// over the code each round.
fn sweep_dead_definitions(code: &mut Vec<TOp>, starts: &mut [u32], reads: &mut [u32]) {
    loop {
        reads.fill(0);
        for op in code.iter() {
            let (a, b) = match *op {
                TOp::LoadInd { index, .. } => (Some(index), None),
                TOp::Bin { a, b, .. } => (Some(a), Some(b)),
                TOp::BranchIf { cond, .. } | TOp::BranchIfNot { cond, .. } => (Some(cond), None),
                TOp::ReturnReg { reg } => (Some(reg), None),
                _ => continue,
            };
            for r in a.into_iter().chain(b) {
                reads[usize::from(r)] += 1;
            }
        }
        let dead = |op: &TOp| match *op {
            TOp::Const { dst, .. } | TOp::LoadWord { dst, .. } => reads[usize::from(dst)] == 0,
            _ => false,
        };
        if !code.iter().any(dead) {
            return;
        }
        let (mut kept, mut block) = (0, 0);
        for at in 0..=code.len() {
            while starts.get(block) == Some(&(at as u32)) {
                starts[block] = kept as u32;
                block += 1;
            }
            if at < code.len() && !dead(&code[at]) {
                code[kept] = code[at];
                kept += 1;
            }
        }
        code.truncate(kept);
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
#[path = "../../pf-filter/tests/support/soup.rs"]
mod soup;

#[cfg(test)]
mod tests {
    use super::*;
    use pf_filter::builder::Expr;
    use pf_filter::form::{Disjunct, Form};
    use pf_filter::program::Assembler;
    use pf_filter::samples;
    use pf_filter::word::{BinaryOp, StackAction};
    use pf_sim::rng::SplitMix64;

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
        let checked = CheckedInterpreter;
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
        assert_eq!(f.code.len(), 1, "{}", f.disassemble());
        assert!(f.eval(PacketView::new(&[])));
    }

    #[test]
    fn fig_3_8_matches_checked_interpreter() {
        let prog = samples::fig_3_8_pup_type_range();
        let f = IrFilter::compile(prog.clone()).unwrap();
        let checked = CheckedInterpreter;
        for ethertype in [2u16, 3] {
            for ptype in [0u8, 1, 50, 100, 101] {
                let pkt = samples::pup_packet_3mb_typed(ethertype, ptype, 0, 35, 1);
                let view = PacketView::new(&pkt);
                assert_eq!(checked.eval(&prog, view), f.eval(view));
            }
        }
    }

    /// `f` with its conjunction set aside: the threaded code alone.
    fn threaded(f: &IrFilter) -> IrFilter {
        IrFilter {
            conjunction: None,
            ..f.clone()
        }
    }

    /// Packets of every byte length from empty to two words past `f`'s
    /// minimum, odd counts included. Each writes every test's word — half
    /// of them all inside their intervals, the rest at an end, just
    /// outside one, or anywhere — so that each test both passes and fails.
    fn probe_packets(f: &IrFilter, rng: &mut SplitMix64) -> Vec<Vec<u8>> {
        let tests: Vec<Interval> = f.conjunction().map_or(Vec::new(), |c| {
            c.tests().iter().map(|t| t.interval).collect()
        });
        let mut packets = Vec::new();
        for len in 0..=2 * (f.min_packet_words() + 2) + 1 {
            for _ in 0..4 {
                let mut p: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
                let all_pass = rng.chance(0.5);
                for iv in &tests {
                    let inside = iv.lo + rng.below(u64::from(iv.hi - iv.lo) + 1) as u16;
                    let v = match if all_pass { 0 } else { rng.below(6) } {
                        0 => inside,
                        1 => iv.lo,
                        2 => iv.hi,
                        3 => iv.lo.wrapping_sub(1),
                        4 => iv.hi.wrapping_add(1),
                        _ => rng.next_u64() as u16,
                    };
                    if let Some(at) =
                        p.get_mut(2 * usize::from(iv.word)..2 * usize::from(iv.word) + 2)
                    {
                        at.copy_from_slice(&v.to_be_bytes());
                    }
                }
                packets.push(p);
            }
        }
        packets
    }

    /// `f` and its threaded code give one verdict and one op count on
    /// every [`probe_packets`] packet.
    fn assert_pinned(f: &IrFilter, rng: &mut SplitMix64, ctx: &str) {
        let reference = threaded(f);
        for p in probe_packets(f, rng) {
            let view = PacketView::new(&p);
            assert_eq!(
                f.eval_with_stats(view),
                reference.eval_with_stats(view),
                "{ctx}, {} bytes: {p:?}\n{}",
                p.len(),
                f.disassemble()
            );
        }
    }

    /// A word test as `(word, lo, hi, ops when it rejects)`.
    fn test_tuple(t: &WordTest) -> (u16, u16, u16, u16) {
        (t.interval.word, t.interval.lo, t.interval.hi, t.fail_ops)
    }

    #[test]
    fn fig_3_9_is_a_conjunction_of_three_word_tests() {
        let f = IrFilter::compile(samples::fig_3_9_pup_socket_35()).unwrap();
        let c = f.conjunction().expect("a CAND chain");
        // Two guards that reject one instruction later, then the load,
        // constant, compare and return of the ethertype test.
        let tests: Vec<_> = c.tests().iter().map(test_tuple).collect();
        assert_eq!(tests, [(8, 35, 35, 2), (7, 0, 0, 3), (1, 2, 2, 6)]);
        assert_eq!(c.accept_ops, 6);
    }

    #[test]
    fn conjunction_form_runs_op_for_op_with_the_threaded_code_on_the_samples() {
        let wide = Assembler::new(10)
            .pushword(8)
            .pushlit_op(BinaryOp::Cand, 35)
            .pushword(7)
            .pushlit_op(BinaryOp::Cand, 0)
            .pushword(6)
            .pushlit_op(BinaryOp::Cand, 0x0A0B)
            .pushword(4)
            .pushlit_op(BinaryOp::Cand, 0xBEEF)
            .pushword(0)
            .pushlit_op(BinaryOp::Cand, 0x0102)
            .pushword(1)
            .pushlit_op(BinaryOp::Eq, 2)
            .finish();
        // One compare both branched on and returned: CSE shares it, so it
        // stays an unfused compare under a `BranchIfNot`.
        let shared = Assembler::new(10)
            .pushword(8)
            .pushlit_op(BinaryOp::Ge, 100)
            .pushzero_op(BinaryOp::Cnor)
            .pushword(1)
            .pushlit_op(BinaryOp::Cand, 2)
            .pushword(8)
            .pushlit_op(BinaryOp::Ge, 100)
            .finish();
        let corpus = [
            ("fig 3-9", samples::fig_3_9_pup_socket_35(), true),
            ("socket 1:35", samples::pup_socket_filter(3, 1, 35), true),
            ("range", samples::socket_range_filter(10, 100, 200), true),
            ("point range", samples::socket_range_filter(10, 7, 7), true),
            (
                "full range",
                samples::socket_range_filter(10, 0, u16::MAX),
                true,
            ),
            ("ethertype", samples::ethertype_filter(5, 2), true),
            ("accept all", samples::accept_all(1), true),
            ("empty", FilterProgram::empty(0), true),
            ("padded", samples::padded_accept_filter(0, 9), true),
            ("six words", wide, true),
            ("shared compare", shared, true),
            ("fig 3-8", samples::fig_3_8_pup_type_range(), false),
            ("reject all", samples::reject_all(1), false),
        ];
        let mut rng = SplitMix64::new(0xC04A_0001);
        for (name, program, conjunctive) in corpus {
            let f = IrFilter::compile(program).unwrap();
            assert_eq!(
                f.conjunction().is_some(),
                conjunctive,
                "{name}\n{}",
                f.disassemble()
            );
            assert_eq!(agrees_with_form(&f, name), conjunctive, "{name}");
            assert_pinned(&f, &mut rng, name);
        }
    }

    /// Whether `f` is a conjunction the form answers; when it is, its
    /// tests are the form's one disjunct.
    fn agrees_with_form(f: &IrFilter, ctx: &str) -> bool {
        let form = Form::of(f.program());
        let (Some(c), Some(disjuncts)) = (f.conjunction(), form.disjuncts()) else {
            return false;
        };
        let atoms = c.tests().iter().map(|t| t.interval).collect();
        let tests = Disjunct {
            atoms,
            max_read: None,
        };
        assert_eq!(disjuncts.len(), 1, "{ctx}: {form:?}");
        assert_eq!(disjuncts[0].normalized(), tests.normalized(), "{ctx}");
        true
    }

    #[test]
    fn programs_outside_the_fragment_stay_threaded() {
        let word_eq = |w: u16, lit: u16| Expr::word(w).eq(lit);
        let cases = [
            ("OR", word_eq(1, 2).or(word_eq(1, 3)).compile(1).unwrap()),
            (
                "COR",
                Assembler::new(1)
                    .pushword(1)
                    .pushlit_op(BinaryOp::Cor, 2)
                    .pushword(1)
                    .pushlit_op(BinaryOp::Eq, 3)
                    .finish(),
            ),
            (
                "Div",
                Assembler::new(1)
                    .pushword(1)
                    .pushlit_op(BinaryOp::Div, 2)
                    .pushlit_op(BinaryOp::Eq, 3)
                    .finish(),
            ),
            (
                "LoadInd",
                Assembler::new(1)
                    .pushword(1)
                    .pushlit_op(BinaryOp::Cand, 2)
                    .pushlit(3)
                    .push_op(StackAction::PushInd, BinaryOp::Nop)
                    .pushlit_op(BinaryOp::Eq, 3)
                    .finish(),
            ),
            (
                "BranchIf on a masked word",
                Assembler::new(1)
                    .pushword(3)
                    .push_op(StackAction::Push00FF, BinaryOp::And)
                    .pushzero_op(BinaryOp::Cnor)
                    .pushword(1)
                    .pushlit_op(BinaryOp::Eq, 2)
                    .finish(),
            ),
            (
                "Lt 0",
                Assembler::new(1)
                    .pushword(8)
                    .pushzero_op(BinaryOp::Lt)
                    .pushzero_op(BinaryOp::Cnor)
                    .pushword(1)
                    .pushlit_op(BinaryOp::Eq, 2)
                    .finish(),
            ),
            (
                "Gt 0xFFFF",
                Assembler::new(1)
                    .pushword(1)
                    .pushlit_op(BinaryOp::Cand, 2)
                    .pushword(8)
                    .push_op(StackAction::PushFFFF, BinaryOp::Gt)
                    .finish(),
            ),
        ];
        let mut rng = SplitMix64::new(0xC04A_0002);
        for (name, program) in cases {
            let f = IrFilter::compile(program).unwrap();
            assert!(f.conjunction().is_none(), "{name}\n{}", f.disassemble());
            assert_pinned(&f, &mut rng, name);
        }
    }

    #[test]
    fn conjunction_form_runs_op_for_op_with_the_threaded_code_on_seeded_programs() {
        let programs = if cfg!(debug_assertions) { 300 } else { 3_000 };
        let mut rng = SplitMix64::new(0xC04A_0003);
        let (mut conjunctive, mut threaded, mut agreed) = (0u32, 0u32, 0u32);
        for case in 0..programs {
            let program = super::soup::clause_program(&mut rng);
            let Ok(f) = IrFilter::compile(program) else {
                continue;
            };
            if f.conjunction().is_some() {
                conjunctive += 1;
            } else {
                threaded += 1;
            }
            agreed += u32::from(agrees_with_form(&f, &format!("case {case}")));
            assert_pinned(&f, &mut rng, &format!("case {case}"));
        }
        // The generator must reach both paths, and the form answer most
        // conjunctions.
        assert!(2 * agreed > conjunctive, "{agreed} of {conjunctive} agreed");
        assert!(
            conjunctive > programs / 5,
            "{conjunctive} conjunctive, {threaded} threaded"
        );
        assert!(
            threaded > programs / 2,
            "{conjunctive} conjunctive, {threaded} threaded"
        );
    }
}
