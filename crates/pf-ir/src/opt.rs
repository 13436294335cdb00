//! Optimization passes over the CFG IR.
//!
//! The pipeline run by [`optimize`]:
//!
//! 1. **Constant folding, propagation, and redundant-load elimination** —
//!    one forward pass carrying register facts along single-predecessor
//!    chains (the only CFG shape translation produces): constants fold
//!    through operators, repeated loads of the same packet word reuse the
//!    first load's register (the packet is immutable during evaluation),
//!    repeated constants and identical pure operations are value-numbered,
//!    and branches whose condition became constant turn into jumps.
//! 2. **Branch threading and dead-block removal** — jumps through empty
//!    blocks, or blocks whose operations are all dead, are retargeted,
//!    branches with equal arms collapse, and blocks unreachable from the
//!    entry are deleted.
//! 3. **Dead-code elimination** — operations whose result is never used are
//!    removed, *except* those that can fault (indirect loads, division):
//!    a fault rejects the packet, so removing one would change verdicts.
//! 4. **Register renumbering** — compacts the register file so the
//!    execution engine sizes its register array to live registers only.
//!
//! Passes rely on the translator's single-assignment discipline: every
//! register has exactly one definition, so aliasing a register to an
//! equivalent earlier one is sound wherever the earlier definition
//! dominates (guaranteed, because facts only flow along single-pred
//! chains).

use crate::ir::{Block, BlockId, IrProgram, Op, Reg, Terminator};
use pf_filter::word::BinaryOp;

/// Runs the full pass pipeline in place.
pub fn optimize(program: &mut IrProgram) {
    fold_and_reuse(program);
    invert_zero_eq_branches(program);
    thread_branches(program);
    remove_dead_blocks(program);
    eliminate_dead_code(program);
    renumber_registers(program);
}

/// A value some register already holds: a packet word, a constant, or a
/// pure operation's result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Value {
    Word(u16),
    Const(u16),
    Bin(BinaryOp, Reg, Reg),
}

/// What the forward pass knows. `regs` — each register's alias (itself,
/// or an earlier register holding its value) and its value when known —
/// is indexed by register, sized once, and global: single assignment
/// makes either fact sound wherever the register can be read. `values`,
/// the register holding each value, holds only along the chain being
/// walked; a program is at most `MAX_PROGRAM_WORDS` words, so it is a
/// table found by a scan.
struct Facts {
    regs: Vec<(Reg, Option<u16>)>,
    values: Vec<(Value, Reg)>,
}

impl Facts {
    fn resolve(&self, r: Reg) -> Reg {
        // An alias is always a register that kept its definition.
        self.regs[usize::from(r.0)].0
    }

    fn konst(&self, r: Reg) -> Option<u16> {
        self.regs[usize::from(r.0)].1
    }

    /// Records that `dst` holds `value`; `false` when an earlier register
    /// already does, and `dst` now aliases it.
    fn define(&mut self, dst: Reg, value: Value) -> bool {
        if let Some(&(_, prev)) = self.values.iter().find(|(v, _)| *v == value) {
            self.regs[usize::from(dst.0)].0 = prev;
            return false;
        }
        self.values.push((value, dst));
        if let Value::Const(c) = value {
            self.regs[usize::from(dst.0)].1 = Some(c);
        }
        true
    }
}

/// Constant folding, constant/copy propagation, redundant-load
/// elimination, value numbering, and constant-branch folding.
fn fold_and_reuse(program: &mut IrProgram) {
    // A block inherits the facts of the block before it when that is its
    // only predecessor: every block translation makes but the return
    // blocks, which hold no operations. Any other block starts afresh.
    let mut preds: Vec<(u32, usize)> = vec![(0, usize::MAX); program.blocks.len()];
    for (i, b) in program.blocks.iter().enumerate() {
        for s in b.term.successors() {
            let p = &mut preds[s.0 as usize];
            *p = (p.0 + 1, i);
        }
    }
    let regs = program.reg_count as usize;
    let mut facts = Facts {
        regs: (0..regs).map(|r| (Reg(r as u16), None)).collect(),
        values: Vec::with_capacity(program.op_count()),
    };
    for (i, block) in program.blocks.iter_mut().enumerate() {
        if preds[i] != (1, i.wrapping_sub(1)) {
            facts.values.clear();
        }
        let mut kept = 0;
        for at in 0..block.ops.len() {
            let op = block.ops[at];
            let op = match op {
                Op::Const { dst, value } => facts.define(dst, Value::Const(value)).then_some(op),
                Op::LoadWord { dst, index } => facts.define(dst, Value::Word(index)).then_some(op),
                Op::LoadInd { dst, index } => Some(Op::LoadInd {
                    dst,
                    index: facts.resolve(index),
                }),
                Op::Bin { dst, op, a, b } => {
                    let a = facts.resolve(a);
                    let b = facts.resolve(b);
                    let (ka, kb) = (facts.konst(a), facts.konst(b));
                    let folded = match (ka, kb) {
                        (Some(x), Some(y)) => op.apply(x, y),
                        _ => same_operand_identity(op, a, b),
                    };
                    if let Some(value) = folded {
                        facts
                            .define(dst, Value::Const(value))
                            .then_some(Op::Const { dst, value })
                    } else if ka.is_some() && kb.is_some() {
                        // Constant zero divisor: a guaranteed fault. Keep
                        // the operation; it rejects at runtime.
                        Some(Op::Bin { dst, op, a, b })
                    } else {
                        facts
                            .define(dst, Value::Bin(op, a, b))
                            .then_some(Op::Bin { dst, op, a, b })
                    }
                }
            };
            if let Some(op) = op {
                block.ops[kept] = op;
                kept += 1;
            }
        }
        block.ops.truncate(kept);

        // Terminator: propagate aliases; fold constant branches.
        block.term = match block.term {
            Terminator::Branch {
                cond,
                if_true,
                if_false,
            } => {
                let cond = facts.resolve(cond);
                match facts.konst(cond) {
                    Some(0) => Terminator::Jump(if_false),
                    Some(_) => Terminator::Jump(if_true),
                    None => Terminator::Branch {
                        cond,
                        if_true,
                        if_false,
                    },
                }
            }
            Terminator::ReturnReg(r) => {
                let r = facts.resolve(r);
                match facts.konst(r) {
                    Some(v) => Terminator::Return(v != 0),
                    None => Terminator::ReturnReg(r),
                }
            }
            t => t,
        };
    }
}

/// Folds operations whose operands are the *same register* (equal values
/// by definition), regardless of whether the value is known.
fn same_operand_identity(op: BinaryOp, a: Reg, b: Reg) -> Option<u16> {
    if a != b {
        return None;
    }
    Some(match op {
        BinaryOp::Eq | BinaryOp::Le | BinaryOp::Ge => 1,
        BinaryOp::Neq | BinaryOp::Lt | BinaryOp::Gt => 0,
        BinaryOp::Xor | BinaryOp::Sub => 0,
        _ => return None,
    })
}

/// Rewrites `branch (x == 0) ? A : B` into `branch x ? B : A`.
///
/// Every short-circuit operator translates to an `Eq` feeding a branch,
/// so a comparison result conjoined via `CNOR 0` — the idiom a *range*
/// test (`GE lo`, `LE hi`) must use, since the short-circuit operators
/// themselves only test equality — reaches its branch through a
/// redundant compare-with-zero. Dropping it exposes the ordering compare
/// directly to the guard-fusion pass in [`crate::exec`], which is what
/// turns a port-range filter into fused interval guards. Sound
/// unconditionally (`x == 0` nonzero exactly when `x` is zero), but
/// applied only when `x` is itself an *ordering* compare: inverting a
/// plain `packet[w] == 0` test would strip a perfectly fusable equality
/// guard (the `PUSHZERO | CAND` idiom of figure 3-9). The orphaned `Eq`
/// and `Const 0` fall to dead-code elimination.
fn invert_zero_eq_branches(program: &mut IrProgram) {
    /// How a register is defined, where that matters here.
    #[derive(Clone, Copy)]
    enum Def {
        Other,
        Const(u16),
        Eq(Reg, Reg),
        Ordering,
    }
    // Single assignment: one global definition array suffices, and any
    // operand of an op dominating a branch dominates the branch too.
    let mut defs = vec![Def::Other; program.reg_count as usize];
    for op in program.blocks.iter().flat_map(|b| &b.ops) {
        defs[usize::from(op.dst().0)] = match *op {
            Op::Const { value, .. } => Def::Const(value),
            Op::Bin {
                op: BinaryOp::Eq,
                a,
                b,
                ..
            } => Def::Eq(a, b),
            Op::Bin {
                op: BinaryOp::Lt | BinaryOp::Le | BinaryOp::Gt | BinaryOp::Ge,
                ..
            } => Def::Ordering,
            _ => Def::Other,
        };
    }
    let def = |r: Reg| defs[usize::from(r.0)];
    for block in &mut program.blocks {
        if let Terminator::Branch {
            cond,
            if_true,
            if_false,
        } = block.term
        {
            let Def::Eq(a, b) = def(cond) else {
                continue;
            };
            let other = match (def(a), def(b)) {
                (_, Def::Const(0)) => a,
                (Def::Const(0), _) => b,
                _ => continue,
            };
            if !matches!(def(other), Def::Ordering) {
                continue;
            }
            block.term = Terminator::Branch {
                cond: other,
                if_true: if_false,
                if_false: if_true,
            };
        }
    }
}

/// Retargets control transfers through empty forwarding blocks and
/// collapses branches whose arms agree. A transfer may also skip the
/// block those forwarders lead to when every operation in it is dead and
/// none can fault; a block that defines a register something reachable
/// reads, or that can fault, is never skipped.
fn thread_branches(program: &mut IrProgram) {
    let reachable = reachable_blocks(program);
    let live = live_registers(program, |i| reachable[i]);
    // Each block's final terminator, and whether the block holding it can
    // be skipped.
    let finals: Vec<(BlockId, Terminator, bool)> = (0..program.blocks.len())
        .map(|i| {
            let (last, term) = final_terminator(&program.blocks, BlockId(i as u32));
            let ops = &program.blocks[last.0 as usize].ops;
            let skippable = ops
                .iter()
                .all(|op| !live[usize::from(op.dst().0)] && !op.can_fault());
            (last, term, skippable)
        })
        .collect();
    let target_of = |id: BlockId| -> BlockId {
        match finals[id.0 as usize] {
            (_, Terminator::Jump(t), true) => t,
            (last, Terminator::Jump(_), false) => last,
            _ => id,
        }
    };
    for i in 0..program.blocks.len() {
        program.blocks[i].term = match program.blocks[i].term {
            Terminator::Jump(t) => {
                // Jumping to an empty returning block *is* that return.
                match finals[t.0 as usize] {
                    (_, ret @ (Terminator::Return(_) | Terminator::ReturnReg(_)), true)
                        if program.blocks[t.0 as usize].ops.is_empty() =>
                    {
                        ret
                    }
                    _ => Terminator::Jump(target_of(t)),
                }
            }
            Terminator::Branch {
                cond,
                if_true,
                if_false,
            } => {
                let if_true = target_of(if_true);
                let if_false = target_of(if_false);
                if if_true == if_false {
                    Terminator::Jump(if_true)
                } else {
                    Terminator::Branch {
                        cond,
                        if_true,
                        if_false,
                    }
                }
            }
            t => t,
        };
    }
}

/// The first block reached from `id` after skipping empty jump-only
/// blocks, and its terminator.
fn final_terminator(blocks: &[Block], mut id: BlockId) -> (BlockId, Terminator) {
    // The CFG is acyclic by construction, but bound the walk anyway.
    for _ in 0..blocks.len() {
        let b = &blocks[id.0 as usize];
        if !b.ops.is_empty() {
            return (id, b.term);
        }
        match b.term {
            Terminator::Jump(t) => id = t,
            t => return (id, t),
        }
    }
    (id, blocks[id.0 as usize].term)
}

/// Which blocks the entry reaches. Every edge goes forward — translation
/// makes them so and no pass turns one back — so one sweep in block order
/// finds them all.
fn reachable_blocks(program: &IrProgram) -> Vec<bool> {
    let mut reachable = vec![false; program.blocks.len()];
    reachable[0] = true;
    for (i, b) in program.blocks.iter().enumerate() {
        if reachable[i] {
            for s in b.term.successors() {
                debug_assert!(s.0 as usize > i, "a backward edge b{i} -> {s}");
                reachable[s.0 as usize] = true;
            }
        }
    }
    reachable
}

/// Deletes blocks unreachable from the entry and compacts ids.
fn remove_dead_blocks(program: &mut IrProgram) {
    let reachable = reachable_blocks(program);
    if reachable.iter().all(|&r| r) {
        return;
    }
    // Each block's id once the unreachable ones before it are gone.
    let remap: Vec<u32> = reachable
        .iter()
        .scan(0, |next, &r| {
            let id = *next;
            *next += u32::from(r);
            Some(id)
        })
        .collect();
    let mut i = 0;
    program.blocks.retain(|_| {
        i += 1;
        reachable[i - 1]
    });
    let map = |id: BlockId| BlockId(remap[id.0 as usize]);
    for b in &mut program.blocks {
        b.term = match b.term {
            Terminator::Jump(t) => Terminator::Jump(map(t)),
            Terminator::Branch {
                cond,
                if_true,
                if_false,
            } => Terminator::Branch {
                cond,
                if_true: map(if_true),
                if_false: map(if_false),
            },
            t => t,
        };
    }
}

/// Removes operations whose results are unused. Faulting operations
/// (indirect loads, division) are roots: their *execution* is observable.
fn eliminate_dead_code(program: &mut IrProgram) {
    // Every block is reachable: dead-block removal just ran.
    let live = live_registers(program, |_| true);
    for b in &mut program.blocks {
        b.ops
            .retain(|op| live[usize::from(op.dst().0)] || op.can_fault());
    }
}

/// Which registers a block reachable from the entry reads — in a
/// terminator, or as an operand of a live or faulting operation.
fn live_registers(program: &IrProgram, reachable: impl Fn(usize) -> bool) -> Vec<bool> {
    let blocks = || {
        let blocks = program.blocks.iter().enumerate();
        blocks.filter_map(|(i, b)| reachable(i).then_some(b))
    };
    let mut live = vec![false; program.reg_count as usize];
    for b in blocks() {
        match b.term {
            Terminator::Branch { cond, .. } => live[usize::from(cond.0)] = true,
            Terminator::ReturnReg(r) => live[usize::from(r.0)] = true,
            _ => {}
        }
    }
    // Single assignment + acyclic CFG: one reverse sweep per fixpoint
    // round marks operands of live or faulting operations.
    loop {
        let mut changed = false;
        for b in blocks() {
            for op in b.ops.iter().rev() {
                let is_live = live[usize::from(op.dst().0)] || op.can_fault();
                if !is_live {
                    continue;
                }
                let uses: [Option<Reg>; 2] = match *op {
                    Op::Const { .. } | Op::LoadWord { .. } => [None, None],
                    Op::LoadInd { index, .. } => [Some(index), None],
                    Op::Bin { a, b, .. } => [Some(a), Some(b)],
                };
                for r in uses.into_iter().flatten() {
                    let slot = &mut live[usize::from(r.0)];
                    if !*slot {
                        *slot = true;
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    live
}

/// Renumbers registers densely so the engine's register file is minimal.
fn renumber_registers(program: &mut IrProgram) {
    let mut map: Vec<Option<Reg>> = vec![None; program.reg_count as usize];
    let mut next: u16 = 0;
    let mut renumber = |r: Reg| -> Reg {
        *map[usize::from(r.0)].get_or_insert_with(|| {
            next += 1;
            Reg(next - 1)
        })
    };
    for b in &mut program.blocks {
        for op in &mut b.ops {
            *op = match *op {
                Op::Const { dst, value } => Op::Const {
                    dst: renumber(dst),
                    value,
                },
                Op::LoadWord { dst, index } => Op::LoadWord {
                    dst: renumber(dst),
                    index,
                },
                Op::LoadInd { dst, index } => {
                    let index = renumber(index);
                    Op::LoadInd {
                        dst: renumber(dst),
                        index,
                    }
                }
                Op::Bin { dst, op, a, b } => {
                    let a = renumber(a);
                    let b = renumber(b);
                    Op::Bin {
                        dst: renumber(dst),
                        op,
                        a,
                        b,
                    }
                }
            };
        }
        b.term = match b.term {
            Terminator::Branch {
                cond,
                if_true,
                if_false,
            } => Terminator::Branch {
                cond: renumber(cond),
                if_true,
                if_false,
            },
            Terminator::ReturnReg(r) => Terminator::ReturnReg(renumber(r)),
            t => t,
        };
    }
    program.reg_count = u32::from(next);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::IrFilter;
    use crate::translate::translate;
    use pf_filter::interp::CheckedInterpreter;
    use pf_filter::packet::PacketView;
    use pf_filter::program::Assembler;
    use pf_filter::samples;
    use pf_filter::validate::ValidatedProgram;
    use pf_filter::word::{BinaryOp, StackAction};

    fn optimized(program: pf_filter::program::FilterProgram) -> IrProgram {
        let v = ValidatedProgram::new(program).unwrap();
        let mut ir = translate(&v);
        optimize(&mut ir);
        ir
    }

    #[test]
    fn threading_keeps_a_block_whose_loads_are_read_later() {
        // The CNOR's condition folds (0xFFFF != 1), so the block that
        // loads word 0 ends in a jump; its load feeds the final XOR, so
        // the CAND's branch must not skip it.
        let p = Assembler::new(0)
            .pushword(1)
            .pushlit_op(BinaryOp::Cand, 2)
            .pushword(0)
            .push(StackAction::PushFFFF)
            .pushlit_op(BinaryOp::Cnor, 1)
            .op(BinaryOp::Xor)
            .finish();
        let f = IrFilter::compile(p.clone()).unwrap();
        for pkt in [[0x12, 0x34, 0, 2], [0, 0, 0, 2], [0x12, 0x34, 0, 3]] {
            let view = PacketView::new(&pkt);
            assert_eq!(f.eval(view), CheckedInterpreter.eval(&p, view), "{pkt:?}");
        }
        assert!(f.eval(PacketView::new(&[0x12, 0x34, 0, 2])));
    }

    #[test]
    fn constant_predicate_folds_to_return() {
        // PUSHLIT 5, PUSHLIT 5, EQ — a constant TRUE.
        let p = Assembler::new(0)
            .pushlit(5)
            .pushlit_op(BinaryOp::Eq, 5)
            .finish();
        let ir = optimized(p);
        assert_eq!(ir.op_count(), 0, "fully folded: {ir}");
        assert_eq!(ir.blocks[0].term, Terminator::Return(true));
    }

    #[test]
    fn redundant_loads_are_eliminated() {
        // Same packet word pushed twice and compared: always TRUE, and the
        // second load must first have been reused for the fold to see it.
        let p = Assembler::new(0)
            .pushword(3)
            .pushword(3)
            .op(BinaryOp::Eq)
            .finish();
        let ir = optimized(p);
        assert_eq!(ir.blocks[0].term, Terminator::Return(true), "{ir}");
        assert_eq!(ir.op_count(), 0);
    }

    #[test]
    fn cand_chain_constants_are_swept() {
        // Figure 3-9: the TRUEs pushed by continuing CANDs never reach
        // the verdict; they must be dead-coded away, leaving just loads,
        // constants, and compares on the live path.
        let ir = optimized(samples::fig_3_9_pup_socket_35());
        for b in &ir.blocks {
            for op in &b.ops {
                // No continuation Const{1} survives: each block is exactly
                // one guard computation.
                assert!(
                    !matches!(op, Op::Const { value: 1, .. }),
                    "dead continuation constant survived: {ir}"
                );
            }
        }
    }

    #[test]
    fn dead_blocks_after_constant_branch_are_removed() {
        // PUSHLIT 1, PUSHLIT 1, CAND → never terminates (1 == 1 but CAND
        // terminates on FALSE); continuation is a constant TRUE verdict.
        let p = Assembler::new(0)
            .pushlit(1)
            .pushlit_op(BinaryOp::Cand, 1)
            .finish();
        let ir = optimized(p);
        assert_eq!(ir.blocks.len(), 1, "reject block unreachable: {ir}");
        assert_eq!(ir.blocks[0].term, Terminator::Return(true));
    }

    #[test]
    fn cnor_zero_wrapper_compare_is_inverted_away() {
        // Each `GE/LE … CNOR 0` must branch on the ordering compare
        // itself; the Eq-with-zero wrapper and its constant die as dead
        // code, leaving exactly three compares (ge, le, terminal eq).
        let ir = optimized(samples::socket_range_filter(10, 100, 200));
        let mut ops: Vec<BinaryOp> = Vec::new();
        for b in &ir.blocks {
            for op in &b.ops {
                if let Op::Bin { op, .. } = op {
                    ops.push(*op);
                }
            }
        }
        ops.sort_by_key(|o| format!("{o:?}"));
        assert_eq!(ops, vec![BinaryOp::Eq, BinaryOp::Ge, BinaryOp::Le], "{ir}");
    }

    #[test]
    fn faulting_division_is_not_dead_code() {
        // Constant 4 / 0 faults → the whole filter must reject even though
        // the quotient is unused (an accept-all sits on the stack below).
        let p = Assembler::new(0)
            .pushone()
            .pushlit(4)
            .pushzero_op(BinaryOp::Div)
            .finish();
        let v = ValidatedProgram::new(p).unwrap();
        let mut ir = translate(&v);
        optimize(&mut ir);
        assert!(
            ir.blocks.iter().any(|b| b.ops.iter().any(|o| matches!(
                o,
                Op::Bin {
                    op: BinaryOp::Div,
                    ..
                }
            ))),
            "guaranteed-faulting div removed: {ir}"
        );
    }

    #[test]
    fn registers_are_renumbered_densely() {
        let ir = optimized(samples::fig_3_9_pup_socket_35());
        let mut seen = std::collections::HashSet::new();
        for b in &ir.blocks {
            for op in &b.ops {
                seen.insert(op.dst().0);
            }
        }
        assert!(seen.iter().all(|&r| u32::from(r) < ir.reg_count));
        // Three compare blocks, each a load + a distinct literal + an eq.
        assert!(
            ir.reg_count <= 9,
            "compact register file, got {}",
            ir.reg_count
        );
    }
}
