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

use crate::ir::{Block, BlockId, IrBinOp, IrProgram, Op, Reg, Terminator};
use std::collections::HashMap;

/// Runs the full pass pipeline in place.
pub fn optimize(program: &mut IrProgram) {
    fold_and_reuse(program);
    invert_zero_eq_branches(program);
    thread_branches(program);
    remove_dead_blocks(program);
    eliminate_dead_code(program);
    renumber_registers(program);
}

/// Forward dataflow facts at one program point.
#[derive(Debug, Default, Clone)]
struct Facts {
    /// Registers with statically known values.
    konst: HashMap<Reg, u16>,
    /// Packet word index → register already holding that word.
    loads: HashMap<u16, Reg>,
    /// Constant value → register already holding it.
    consts_by_value: HashMap<u16, Reg>,
    /// Pure operation `(op, a, b)` → register already holding its result.
    bins: HashMap<(IrBinOp, Reg, Reg), Reg>,
}

/// Constant folding, constant/copy propagation, redundant-load
/// elimination, value numbering, and constant-branch folding.
fn fold_and_reuse(program: &mut IrProgram) {
    // Predecessor map, to know when a block inherits its predecessor's
    // facts (exactly one predecessor, already processed).
    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); program.blocks.len()];
    for (i, b) in program.blocks.iter().enumerate() {
        for s in b.term.successors() {
            preds[s.0 as usize].push(i);
        }
    }

    // `alias` is global: single-assignment makes replacements sound at
    // every point the replacement's definition dominates, and facts only
    // flow where that holds.
    let mut alias: HashMap<Reg, Reg> = HashMap::new();
    let resolve = |alias: &HashMap<Reg, Reg>, mut r: Reg| -> Reg {
        while let Some(&n) = alias.get(&r) {
            r = n;
        }
        r
    };

    let mut exit_facts: Vec<Option<Facts>> = vec![None; program.blocks.len()];
    for i in 0..program.blocks.len() {
        let mut facts = match preds[i].as_slice() {
            [p] if *p < i => exit_facts[*p].clone().unwrap_or_default(),
            _ => Facts::default(),
        };

        let ops = std::mem::take(&mut program.blocks[i].ops);
        let mut kept: Vec<Op> = Vec::with_capacity(ops.len());
        for op in ops {
            match op {
                Op::Const { dst, value } => {
                    if let Some(&prev) = facts.consts_by_value.get(&value) {
                        alias.insert(dst, prev);
                    } else {
                        facts.konst.insert(dst, value);
                        facts.consts_by_value.insert(value, dst);
                        kept.push(op);
                    }
                }
                Op::LoadWord { dst, index } => {
                    if let Some(&prev) = facts.loads.get(&index) {
                        alias.insert(dst, prev);
                    } else {
                        facts.loads.insert(index, dst);
                        kept.push(op);
                    }
                }
                Op::LoadInd { dst, index } => {
                    let index = resolve(&alias, index);
                    kept.push(Op::LoadInd { dst, index });
                }
                Op::Bin { dst, op, a, b } => {
                    let a = resolve(&alias, a);
                    let b = resolve(&alias, b);
                    let ka = facts.konst.get(&a).copied();
                    let kb = facts.konst.get(&b).copied();
                    let folded = match (ka, kb) {
                        (Some(x), Some(y)) => op.apply(x, y),
                        _ => same_operand_identity(op, a, b),
                    };
                    if let Some(value) = folded {
                        if let Some(&prev) = facts.consts_by_value.get(&value) {
                            alias.insert(dst, prev);
                        } else {
                            facts.konst.insert(dst, value);
                            facts.consts_by_value.insert(value, dst);
                            kept.push(Op::Const { dst, value });
                        }
                    } else if ka.is_some() && kb.is_some() {
                        // Constant zero divisor: a guaranteed fault. Keep
                        // the operation; it rejects at runtime.
                        kept.push(Op::Bin { dst, op, a, b });
                    } else if let Some(&prev) = facts.bins.get(&(op, a, b)) {
                        alias.insert(dst, prev);
                    } else {
                        facts.bins.insert((op, a, b), dst);
                        kept.push(Op::Bin { dst, op, a, b });
                    }
                }
            }
        }
        program.blocks[i].ops = kept;

        // Terminator: propagate aliases; fold constant branches.
        program.blocks[i].term = match program.blocks[i].term {
            Terminator::Branch {
                cond,
                if_true,
                if_false,
            } => {
                let cond = resolve(&alias, cond);
                match facts.konst.get(&cond) {
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
                let r = resolve(&alias, r);
                match facts.konst.get(&r) {
                    Some(&v) => Terminator::Return(v != 0),
                    None => Terminator::ReturnReg(r),
                }
            }
            t => t,
        };

        exit_facts[i] = Some(facts);
    }
}

/// Folds operations whose operands are the *same register* (equal values
/// by definition), regardless of whether the value is known.
fn same_operand_identity(op: IrBinOp, a: Reg, b: Reg) -> Option<u16> {
    if a != b {
        return None;
    }
    Some(match op {
        IrBinOp::Eq | IrBinOp::Le | IrBinOp::Ge => 1,
        IrBinOp::Neq | IrBinOp::Lt | IrBinOp::Gt => 0,
        IrBinOp::Xor | IrBinOp::Sub => 0,
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
    // Single assignment: one global definition map suffices, and any
    // operand of an op dominating a branch dominates the branch too.
    let mut konst: HashMap<Reg, u16> = HashMap::new();
    let mut eq_def: HashMap<Reg, (Reg, Reg)> = HashMap::new();
    let mut ordering_result: Vec<Reg> = Vec::new();
    for b in &program.blocks {
        for op in &b.ops {
            match *op {
                Op::Const { dst, value } => {
                    konst.insert(dst, value);
                }
                Op::Bin { dst, op, a, b } => {
                    if op == IrBinOp::Eq {
                        eq_def.insert(dst, (a, b));
                    }
                    if matches!(op, IrBinOp::Lt | IrBinOp::Le | IrBinOp::Gt | IrBinOp::Ge) {
                        ordering_result.push(dst);
                    }
                }
                _ => {}
            }
        }
    }
    for block in &mut program.blocks {
        if let Terminator::Branch {
            cond,
            if_true,
            if_false,
        } = block.term
        {
            let Some(&(a, b)) = eq_def.get(&cond) else {
                continue;
            };
            let other = if konst.get(&b) == Some(&0) {
                a
            } else if konst.get(&a) == Some(&0) {
                b
            } else {
                continue;
            };
            if !ordering_result.contains(&other) {
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
    let live = live_registers(program);
    let skippable: Vec<bool> = program
        .blocks
        .iter()
        .map(|b| {
            b.ops
                .iter()
                .all(|op| !live[usize::from(op.dst().0)] && !op.can_fault())
        })
        .collect();
    let finals: Vec<(BlockId, Terminator)> = (0..program.blocks.len())
        .map(|i| final_terminator(&program.blocks, BlockId(i as u32)))
        .collect();
    let target_of = |id: BlockId| -> BlockId {
        match finals[id.0 as usize] {
            (last, Terminator::Jump(t)) if skippable[last.0 as usize] => t,
            (last, Terminator::Jump(_)) => last,
            _ => id,
        }
    };
    for i in 0..program.blocks.len() {
        program.blocks[i].term = match program.blocks[i].term {
            Terminator::Jump(t) => {
                // Jumping to an empty returning block *is* that return.
                match finals[t.0 as usize] {
                    (last, ret @ (Terminator::Return(_) | Terminator::ReturnReg(_)))
                        if program.blocks[t.0 as usize].ops.is_empty()
                            && skippable[last.0 as usize] =>
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

/// Which blocks the entry reaches.
fn reachable_blocks(program: &IrProgram) -> Vec<bool> {
    let mut reachable = vec![false; program.blocks.len()];
    let mut work = vec![BlockId(0)];
    while let Some(id) = work.pop() {
        let i = id.0 as usize;
        if !std::mem::replace(&mut reachable[i], true) {
            work.extend(program.blocks[i].term.successors());
        }
    }
    reachable
}

/// Deletes blocks unreachable from the entry and compacts ids.
fn remove_dead_blocks(program: &mut IrProgram) {
    let n = program.blocks.len();
    let reachable = reachable_blocks(program);
    if reachable.iter().all(|&r| r) {
        return;
    }
    let mut remap: Vec<Option<BlockId>> = vec![None; n];
    let mut kept: Vec<Block> = Vec::new();
    for (i, block) in std::mem::take(&mut program.blocks).into_iter().enumerate() {
        if reachable[i] {
            remap[i] = Some(BlockId(kept.len() as u32));
            kept.push(block);
        }
    }
    let map = |id: BlockId| remap[id.0 as usize].expect("successor reachable");
    for b in &mut kept {
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
    program.blocks = kept;
}

/// Removes operations whose results are unused. Faulting operations
/// (indirect loads, division) are roots: their *execution* is observable.
fn eliminate_dead_code(program: &mut IrProgram) {
    let live = live_registers(program);
    for b in &mut program.blocks {
        b.ops
            .retain(|op| live[usize::from(op.dst().0)] || op.can_fault());
    }
}

/// Which registers a block reachable from the entry reads — in a
/// terminator, or as an operand of a live or faulting operation.
fn live_registers(program: &IrProgram) -> Vec<bool> {
    let reachable = reachable_blocks(program);
    let blocks = || {
        program
            .blocks
            .iter()
            .zip(&reachable)
            .filter_map(|(b, &r)| r.then_some(b))
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
    let mut map: HashMap<Reg, Reg> = HashMap::new();
    let mut next: u16 = 0;
    let renumber = |r: Reg, map: &mut HashMap<Reg, Reg>, next: &mut u16| -> Reg {
        *map.entry(r).or_insert_with(|| {
            let n = Reg(*next);
            *next += 1;
            n
        })
    };
    for b in &mut program.blocks {
        for op in &mut b.ops {
            *op = match *op {
                Op::Const { dst, value } => Op::Const {
                    dst: renumber(dst, &mut map, &mut next),
                    value,
                },
                Op::LoadWord { dst, index } => Op::LoadWord {
                    dst: renumber(dst, &mut map, &mut next),
                    index,
                },
                Op::LoadInd { dst, index } => {
                    let index = renumber(index, &mut map, &mut next);
                    Op::LoadInd {
                        dst: renumber(dst, &mut map, &mut next),
                        index,
                    }
                }
                Op::Bin { dst, op, a, b } => {
                    let a = renumber(a, &mut map, &mut next);
                    let b = renumber(b, &mut map, &mut next);
                    Op::Bin {
                        dst: renumber(dst, &mut map, &mut next),
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
                cond: renumber(cond, &mut map, &mut next),
                if_true,
                if_false,
            },
            Terminator::ReturnReg(r) => Terminator::ReturnReg(renumber(r, &mut map, &mut next)),
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
        let mut ops: Vec<IrBinOp> = Vec::new();
        for b in &ir.blocks {
            for op in &b.ops {
                if let Op::Bin { op, .. } = op {
                    ops.push(*op);
                }
            }
        }
        ops.sort_by_key(|o| format!("{o:?}"));
        assert_eq!(ops, vec![IrBinOp::Eq, IrBinOp::Ge, IrBinOp::Le], "{ir}");
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
                    op: IrBinOp::Div,
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
