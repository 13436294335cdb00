//! Translation from validated CSPF stack programs to the CFG IR.
//!
//! The stack language has no branches, so at every instruction the stack
//! depth is statically exact — [`ValidatedProgram`] already proved it. That
//! makes translation a single forward pass with a *symbolic* stack of
//! registers: each push allocates a fresh register, each operator pops two
//! registers and defines one.
//!
//! The interesting part is the short-circuit operators. `T2 op-sc T1`
//! computes `r := (T2 == T1)` and either terminates the whole filter with a
//! fixed verdict or continues. Here that becomes an `eq` plus a
//! conditional branch: one side goes to a shared accept/reject return
//! block, the other to a fresh continuation block. When evaluation
//! *continues*, `r`'s value is statically known (a continuing `COR` implies
//! `r = 0`, a continuing `CAND` implies `r = 1`), so the push of `r` the
//! paper prescribes on continuation (§3.1) is emitted as a **constant** —
//! which is what lets the optimizer fold the dead `TRUE`s a CAND chain
//! leaves behind.

use crate::ir::{Block, BlockId, IrProgram, Op, Reg, Terminator};
use pf_filter::interp::STACK_SIZE;
use pf_filter::validate::ValidatedProgram;
use pf_filter::word::{BinaryOp, Instr, StackAction};

/// Placeholder id for the shared accept block, patched at the end so the
/// return blocks sort after every chain block in layout order.
const ACCEPT: BlockId = BlockId(u32::MAX - 1);
/// Placeholder id for the shared reject block.
const REJECT: BlockId = BlockId(u32::MAX);

/// Translates a validated program into an (unoptimized) CFG.
///
/// Translation cannot fail: validation already rejected every program whose
/// stack traffic or encoding is malformed, and the dynamic faults that
/// remain (indirect loads out of bounds, zero divisors) are represented as
/// checked IR operations.
///
/// The caller is responsible for the short-packet precondition: the
/// generated `LoadWord`s are only safe when
/// `packet.word_len() >= validated.min_packet_words()` (the execution
/// engine falls back to the checked interpreter below that, exactly like
/// [`ValidatedProgram::eval`]).
pub fn translate(validated: &ValidatedProgram) -> IrProgram {
    let words = validated.program().words();

    // The historical "zero-length filter accepts everything" rule.
    if words.is_empty() {
        return IrProgram {
            blocks: vec![Block {
                ops: Vec::new(),
                term: Terminator::Return(true),
            }],
            reg_count: 0,
        };
    }

    // Sized once: a block per short-circuit operator (a literal word that
    // decodes as one over-counts) and three; two operations an instruction.
    let ends = |w: &&u16| Instr::decode(**w).is_some_and(|i| i.op.short_circuit_rule().is_some());
    let mut blocks: Vec<Block> = Vec::with_capacity(words.iter().filter(ends).count() + 3);
    let mut ops: Vec<Op> = Vec::with_capacity(2 * words.len());
    let mut stack: Vec<Reg> = Vec::with_capacity(STACK_SIZE);
    let mut next_reg: u32 = 0;
    let fresh = |next_reg: &mut u32| {
        let r = Reg(u16::try_from(*next_reg).expect("register count fits u16"));
        *next_reg += 1;
        r
    };

    let mut pc = 0usize;
    while pc < words.len() {
        let instr = Instr::decode(words[pc]).expect("validated program decodes");
        pc += 1;

        match instr.action {
            StackAction::NoPush => {}
            StackAction::PushLit => {
                let lit = words[pc];
                pc += 1;
                let dst = fresh(&mut next_reg);
                ops.push(Op::Const { dst, value: lit });
                stack.push(dst);
            }
            StackAction::PushWord(n) => {
                let dst = fresh(&mut next_reg);
                ops.push(Op::LoadWord {
                    dst,
                    index: u16::from(n),
                });
                stack.push(dst);
            }
            StackAction::PushInd => {
                let index = stack.pop().expect("validated stack depth");
                let dst = fresh(&mut next_reg);
                ops.push(Op::LoadInd { dst, index });
                stack.push(dst);
            }
            named => {
                let value = named.constant().expect("a named constant");
                let dst = fresh(&mut next_reg);
                ops.push(Op::Const { dst, value });
                stack.push(dst);
            }
        }

        if instr.op.pops() {
            let b = stack.pop().expect("validated stack depth");
            let a = stack.pop().expect("validated stack depth");
            if let Some((terminate_when, verdict)) = instr.op.short_circuit_rule() {
                // r := (T2 == T1); terminate with `verdict` when
                // r == terminate_when, else fall into the continuation.
                let r = fresh(&mut next_reg);
                ops.push(Op::Bin {
                    dst: r,
                    op: BinaryOp::Eq,
                    a,
                    b,
                });
                let exit = if verdict { ACCEPT } else { REJECT };
                let cont = BlockId(blocks.len() as u32 + 1);
                let term = if terminate_when {
                    Terminator::Branch {
                        cond: r,
                        if_true: exit,
                        if_false: cont,
                    }
                } else {
                    Terminator::Branch {
                        cond: r,
                        if_true: cont,
                        if_false: exit,
                    }
                };
                // A copy of exactly the block's size; `ops` keeps its room.
                blocks.push(Block {
                    ops: ops.to_vec(),
                    term,
                });
                ops.clear();
                // Continuing implies r == !terminate_when, a constant.
                let dst = fresh(&mut next_reg);
                ops.push(Op::Const {
                    dst,
                    value: u16::from(!terminate_when),
                });
                stack.push(dst);
            } else {
                let dst = fresh(&mut next_reg);
                ops.push(Op::Bin {
                    dst,
                    op: instr.op,
                    a,
                    b,
                });
                stack.push(dst);
            }
        }
    }

    // End of program: accept iff a non-empty stack's top is non-zero.
    let term = match stack.last() {
        Some(&top) => Terminator::ReturnReg(top),
        None => Terminator::Return(false),
    };
    blocks.push(Block { ops, term });

    patch_return_blocks(&mut blocks);
    IrProgram {
        blocks,
        reg_count: next_reg,
    }
}

/// Replaces the `ACCEPT`/`REJECT` placeholders with real blocks appended
/// after the chain, so layout order keeps continuations as fallthroughs.
fn patch_return_blocks(blocks: &mut Vec<Block>) {
    let mut accept: Option<BlockId> = None;
    let mut reject: Option<BlockId> = None;
    let mut resolve = |placeholder: BlockId, blocks: &mut Vec<Block>| -> BlockId {
        let slot = if placeholder == ACCEPT {
            &mut accept
        } else {
            &mut reject
        };
        *slot.get_or_insert_with(|| {
            let id = BlockId(blocks.len() as u32);
            blocks.push(Block {
                ops: Vec::new(),
                term: Terminator::Return(placeholder == ACCEPT),
            });
            id
        })
    };
    for i in 0..blocks.len() {
        let term = blocks[i].term;
        if let Terminator::Branch {
            cond,
            if_true,
            if_false,
        } = term
        {
            let if_true = if if_true >= ACCEPT {
                resolve(if_true, blocks)
            } else {
                if_true
            };
            let if_false = if if_false >= ACCEPT {
                resolve(if_false, blocks)
            } else {
                if_false
            };
            blocks[i].term = Terminator::Branch {
                cond,
                if_true,
                if_false,
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pf_filter::program::{Assembler, FilterProgram};
    use pf_filter::samples;
    use pf_filter::word::BinaryOp;

    fn ir_of(program: FilterProgram) -> IrProgram {
        let v = ValidatedProgram::new(program).unwrap();
        translate(&v)
    }

    #[test]
    fn empty_program_is_single_accept() {
        let ir = ir_of(FilterProgram::empty(0));
        assert_eq!(ir.blocks.len(), 1);
        assert_eq!(ir.blocks[0].term, Terminator::Return(true));
    }

    #[test]
    fn straight_line_program_is_one_block() {
        let ir = ir_of(samples::fig_3_8_pup_type_range());
        // No short-circuit operators → a single block ending in ret.
        assert_eq!(ir.blocks.len(), 1);
        assert!(matches!(ir.blocks[0].term, Terminator::ReturnReg(_)));
    }

    #[test]
    fn cand_chain_creates_branches_to_shared_reject() {
        let ir = ir_of(samples::fig_3_9_pup_socket_35());
        // Two CANDs → two chain blocks + final block + one shared reject.
        assert_eq!(ir.blocks.len(), 4);
        let branches: Vec<_> = ir
            .blocks
            .iter()
            .filter_map(|b| match b.term {
                Terminator::Branch { if_false, .. } => Some(if_false),
                _ => None,
            })
            .collect();
        assert_eq!(branches.len(), 2);
        assert_eq!(branches[0], branches[1], "reject block is shared");
        let reject = branches[0];
        assert_eq!(ir.blocks[reject.0 as usize].term, Terminator::Return(false));
    }

    #[test]
    fn paper_continuation_pushes_known_constant() {
        // A continuing CAND pushes TRUE; the continuation block must
        // therefore start with `Const 1`.
        let p = Assembler::new(0)
            .pushword(0)
            .pushlit_op(BinaryOp::Cand, 7)
            .finish();
        let ir = ir_of(p);
        let cont = &ir.blocks[1];
        assert!(
            matches!(cont.ops[0], Op::Const { value: 1, .. }),
            "continuation starts with Const 1, got {:?}",
            cont.ops
        );
        // And the verdict is that constant.
        assert!(matches!(cont.term, Terminator::ReturnReg(_)));
    }

    #[test]
    fn indirect_push_becomes_checked_load() {
        let p = Assembler::new(0)
            .pushword(0)
            .push(StackAction::PushInd)
            .finish();
        let ir = ir_of(p);
        assert!(ir.blocks[0]
            .ops
            .iter()
            .any(|o| matches!(o, Op::LoadInd { .. })));
    }
}
