//! The register-based control-flow-graph IR for packet predicates.
//!
//! A CSPF stack program is straight-line code whose only control transfer
//! is the short-circuit operators' early exit. Lowered into this IR, stack
//! traffic becomes virtual registers ([`Reg`]) and each short-circuit
//! operator becomes an explicit conditional [`Terminator::Branch`] between
//! basic blocks — the representation every optimization in [`crate::opt`]
//! works on, and the one [`crate::exec`] flattens into threaded code.
//!
//! Registers are single-assignment: the translator allocates a fresh
//! register for every value it defines, and the optimizer only ever
//! *aliases* one register to an equivalent earlier one. Several passes rely
//! on this (liveness needs no reaching-definitions analysis).

use core::fmt;
use pf_filter::word::BinaryOp;

/// A virtual register holding one 16-bit word.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Reg(pub u16);

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Identifies a basic block within an [`IrProgram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId(pub u32);

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{}", self.0)
    }
}

/// One non-terminating IR operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `dst := value`.
    Const {
        /// Destination register.
        dst: Reg,
        /// The constant.
        value: u16,
    },
    /// `dst := packet[index]`; the static packet-length check performed
    /// once per evaluation proves this in bounds.
    LoadWord {
        /// Destination register.
        dst: Reg,
        /// Packet word index.
        index: u16,
    },
    /// `dst := packet[regs[index]]`, dynamically bounds-checked; out of
    /// bounds is a runtime fault → reject.
    LoadInd {
        /// Destination register.
        dst: Reg,
        /// Register holding the packet word index.
        index: Reg,
    },
    /// `dst := op.apply(a, b)` with `a = T2`, `b = T1`. Never `NOP` or a
    /// short-circuit operator: the translator rewrites the short circuits
    /// into an `EQ` plus a [`Terminator::Branch`].
    Bin {
        /// Destination register.
        dst: Reg,
        /// The operator.
        op: BinaryOp,
        /// Left operand (`T2`).
        a: Reg,
        /// Right operand (`T1`, top of stack).
        b: Reg,
    },
}

impl Op {
    /// The register this operation defines.
    pub fn dst(&self) -> Reg {
        match *self {
            Op::Const { dst, .. }
            | Op::LoadWord { dst, .. }
            | Op::LoadInd { dst, .. }
            | Op::Bin { dst, .. } => dst,
        }
    }

    /// Whether executing this operation can fault (terminate evaluation
    /// with *reject*). Faulting operations are never dead code.
    pub fn can_fault(&self) -> bool {
        match *self {
            Op::LoadInd { .. } => true,
            Op::Bin { op, .. } => op.can_fault(),
            Op::Const { .. } | Op::LoadWord { .. } => false,
        }
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Op::Const { dst, value } => write!(f, "{dst} = {value:#06x}"),
            Op::LoadWord { dst, index } => write!(f, "{dst} = pkt[{index}]"),
            Op::LoadInd { dst, index } => write!(f, "{dst} = pkt[{index}]!"),
            Op::Bin { dst, op, a, b } => write!(f, "{dst} = {op} {a}, {b}"),
        }
    }
}

/// How a basic block ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Terminator {
    /// Unconditional transfer.
    Jump(BlockId),
    /// Two-way transfer on `cond != 0`.
    Branch {
        /// The condition register.
        cond: Reg,
        /// Successor when `cond != 0`.
        if_true: BlockId,
        /// Successor when `cond == 0`.
        if_false: BlockId,
    },
    /// Terminate with a fixed verdict (`true` = accept).
    Return(bool),
    /// Terminate accepting iff the register is non-zero (the stack
    /// language's "top of stack non-zero" rule).
    ReturnReg(Reg),
}

impl fmt::Display for Terminator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Terminator::Jump(t) => write!(f, "jump {t}"),
            Terminator::Branch {
                cond,
                if_true,
                if_false,
            } => {
                write!(f, "br {cond} ? {if_true} : {if_false}")
            }
            Terminator::Return(true) => write!(f, "accept"),
            Terminator::Return(false) => write!(f, "reject"),
            Terminator::ReturnReg(r) => write!(f, "ret {r}"),
        }
    }
}

impl Terminator {
    /// The blocks this terminator can transfer to.
    pub fn successors(&self) -> impl Iterator<Item = BlockId> + '_ {
        let (a, b) = match *self {
            Terminator::Jump(t) => (Some(t), None),
            Terminator::Branch {
                if_true, if_false, ..
            } => (Some(if_true), Some(if_false)),
            Terminator::Return(_) | Terminator::ReturnReg(_) => (None, None),
        };
        a.into_iter().chain(b)
    }
}

/// A basic block: straight-line operations plus one terminator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    /// The operations, in execution order.
    pub ops: Vec<Op>,
    /// How the block ends.
    pub term: Terminator,
}

/// A whole predicate as a CFG. Entry is always block 0.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IrProgram {
    /// The basic blocks; [`BlockId`]s index this vector.
    pub blocks: Vec<Block>,
    /// Number of virtual registers (register indices are `0..reg_count`).
    pub reg_count: u32,
}

impl IrProgram {
    /// Total operation count across all blocks (terminators excluded).
    pub fn op_count(&self) -> usize {
        self.blocks.iter().map(|b| b.ops.len()).sum()
    }
}

impl fmt::Display for IrProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, b) in self.blocks.iter().enumerate() {
            writeln!(f, "b{i}:")?;
            for op in &b.ops {
                writeln!(f, "  {op}")?;
            }
            writeln!(f, "  {}", b.term)?;
        }
        Ok(())
    }
}
