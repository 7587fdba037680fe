//! Function inlining (applied at `-O3`).
//!
//! Only small, single-block, call-free callees are inlined.  That covers the
//! helper-function idiom common in the MiBench-like workloads (bit tricks,
//! small fixed-point helpers) while keeping the transformation simple enough
//! to be obviously semantics-preserving: the callee body is spliced in with
//! its registers and frame slots renamed into the caller's namespace.

use bsg_ir::types::{FuncId, Reg};
use bsg_ir::visa::{Address, Inst, MemBase, Operand, Terminator};
use bsg_ir::Program;

/// Maximum number of instructions in an inlinable callee.
pub const MAX_INLINE_INSTS: usize = 24;

/// Inlines eligible call sites; returns the number of calls inlined.
pub fn inline_small_functions(program: &mut Program) -> usize {
    let mut inlined = 0;
    let num_functions = program.functions.len();
    for caller_idx in 0..num_functions {
        while let Some((block_idx, inst_idx, callee_id)) = find_inlinable_call(program, caller_idx)
        {
            splice(program, caller_idx, block_idx, inst_idx, callee_id);
            inlined += 1;
        }
    }
    inlined
}

/// Returns `true` if `callee` may be inlined at all.
fn eligible(program: &Program, callee: FuncId, caller_idx: usize) -> bool {
    if callee.index() == caller_idx {
        return false;
    }
    let f = program.function(callee);
    f.blocks.len() == 1
        && f.blocks[0].insts.len() <= MAX_INLINE_INSTS
        && matches!(f.blocks[0].term, Terminator::Return(_))
        && f.blocks[0]
            .insts
            .iter()
            .all(|i| !matches!(i, Inst::Call { .. }))
}

fn find_inlinable_call(program: &Program, caller_idx: usize) -> Option<(usize, usize, FuncId)> {
    let caller = &program.functions[caller_idx];
    for (bi, block) in caller.blocks.iter().enumerate() {
        for (ii, inst) in block.insts.iter().enumerate() {
            if let Inst::Call { func, .. } = inst {
                if eligible(program, *func, caller_idx) {
                    return Some((bi, ii, *func));
                }
            }
        }
    }
    None
}

fn splice(
    program: &mut Program,
    caller_idx: usize,
    block_idx: usize,
    inst_idx: usize,
    callee_id: FuncId,
) {
    let callee = program.function(callee_id).clone();
    let caller = &mut program.functions[caller_idx];

    let reg_base = caller.num_regs;
    let frame_base = caller.frame_words as i64;
    caller.num_regs += callee.num_regs;
    caller.frame_words += callee.frame_words;

    let rename_reg = |r: Reg| Reg(r.0 + reg_base);
    let rename_addr = |a: Address| Address {
        base: a.base,
        offset: if a.base == MemBase::Frame {
            a.offset + frame_base
        } else {
            a.offset
        },
        index: a.index.map(rename_reg),
        scale: a.scale,
    };
    let rename_operand = |op: Operand| match op {
        Operand::Reg(r) => Operand::Reg(rename_reg(r)),
        Operand::Mem(a) => Operand::Mem(rename_addr(a)),
        other => other,
    };
    let rename_inst = |inst: &Inst| -> Inst {
        match inst {
            Inst::Bin {
                op,
                ty,
                dst,
                lhs,
                rhs,
            } => Inst::Bin {
                op: *op,
                ty: *ty,
                dst: rename_reg(*dst),
                lhs: rename_operand(*lhs),
                rhs: rename_operand(*rhs),
            },
            Inst::Un { op, ty, dst, src } => Inst::Un {
                op: *op,
                ty: *ty,
                dst: rename_reg(*dst),
                src: rename_operand(*src),
            },
            Inst::Mov { dst, src } => Inst::Mov {
                dst: rename_reg(*dst),
                src: rename_operand(*src),
            },
            Inst::Load { dst, addr, ty } => Inst::Load {
                dst: rename_reg(*dst),
                addr: rename_addr(*addr),
                ty: *ty,
            },
            Inst::Store { src, addr, ty } => Inst::Store {
                src: rename_operand(*src),
                addr: rename_addr(*addr),
                ty: *ty,
            },
            Inst::Call { func, args, dst } => Inst::Call {
                func: *func,
                args: args.iter().map(|a| rename_operand(*a)).collect(),
                dst: dst.map(rename_reg),
            },
            Inst::Print { src } => Inst::Print {
                src: rename_operand(*src),
            },
        }
    };

    // Build the replacement sequence: parameter copies, renamed body, result copy.
    let block = &mut caller.blocks[block_idx];
    let call = block.insts[inst_idx].clone();
    let Inst::Call { args, dst, .. } = call else {
        unreachable!("find_inlinable_call found a call")
    };

    let mut seq = Vec::new();
    for (param, arg) in callee.params.iter().zip(&args) {
        seq.push(Inst::Mov {
            dst: rename_reg(*param),
            src: *arg,
        });
    }
    for inst in &callee.blocks[0].insts {
        seq.push(rename_inst(inst));
    }
    if let Some(d) = dst {
        let src = match &callee.blocks[0].term {
            Terminator::Return(Some(op)) => rename_operand(*op),
            _ => Operand::ImmInt(0),
        };
        seq.push(Inst::Mov { dst: d, src });
    }

    block.insts.splice(inst_idx..=inst_idx, seq);
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsg_ir::program::{Function, Program};
    use bsg_ir::types::Ty;
    use bsg_ir::visa::BinOp;

    /// callee(a) { return a * 2 + 1 }
    fn make_callee() -> Function {
        let mut f = Function::new("callee");
        let a = f.fresh_reg();
        let t0 = f.fresh_reg();
        let t1 = f.fresh_reg();
        f.params = vec![a];
        f.blocks[0].insts = vec![
            Inst::Bin {
                op: BinOp::Mul,
                ty: Ty::Int,
                dst: t0,
                lhs: a.into(),
                rhs: Operand::ImmInt(2),
            },
            Inst::Bin {
                op: BinOp::Add,
                ty: Ty::Int,
                dst: t1,
                lhs: t0.into(),
                rhs: Operand::ImmInt(1),
            },
        ];
        f.blocks[0].term = Terminator::Return(Some(t1.into()));
        f
    }

    fn make_program(callee: Function) -> Program {
        let mut p = Program::new();
        let mut main = Function::new("main");
        let r = main.fresh_reg();
        main.blocks[0].insts = vec![Inst::Call {
            func: FuncId(1),
            args: vec![Operand::ImmInt(20)],
            dst: Some(r),
        }];
        main.blocks[0].term = Terminator::Return(Some(r.into()));
        p.add_function(main);
        p.add_function(callee);
        p
    }

    #[test]
    fn inlines_single_block_callee_and_remains_valid() {
        let mut p = make_program(make_callee());
        let inlined = inline_small_functions(&mut p);
        assert_eq!(inlined, 1);
        assert!(p.validate().is_empty(), "{:?}", p.validate());
        let main = &p.functions[0];
        assert!(
            main.blocks[0]
                .insts
                .iter()
                .all(|i| !matches!(i, Inst::Call { .. })),
            "the call must be gone"
        );
        // param mov + 2 body insts + result mov
        assert_eq!(main.blocks[0].insts.len(), 4);
        assert!(main.num_regs >= 4);
    }

    #[test]
    fn multi_block_callees_are_not_inlined() {
        let mut callee = make_callee();
        callee.add_block();
        let mut p = make_program(callee);
        assert_eq!(inline_small_functions(&mut p), 0);
    }

    #[test]
    fn recursive_calls_are_not_inlined() {
        let mut p = Program::new();
        let mut f = Function::new("main");
        let r = f.fresh_reg();
        f.blocks[0].insts = vec![Inst::Call {
            func: FuncId(0),
            args: vec![],
            dst: Some(r),
        }];
        f.blocks[0].term = Terminator::Return(Some(r.into()));
        p.add_function(f);
        assert_eq!(inline_small_functions(&mut p), 0);
    }

    #[test]
    fn oversized_callees_are_not_inlined() {
        let mut callee = Function::new("callee");
        let a = callee.fresh_reg();
        callee.params = vec![a];
        let mut prev = a;
        for _ in 0..(MAX_INLINE_INSTS + 1) {
            let next = callee.fresh_reg();
            callee.blocks[0].insts.push(Inst::Bin {
                op: BinOp::Add,
                ty: Ty::Int,
                dst: next,
                lhs: prev.into(),
                rhs: Operand::ImmInt(1),
            });
            prev = next;
        }
        callee.blocks[0].term = Terminator::Return(Some(prev.into()));
        let mut p = make_program(callee);
        assert_eq!(inline_small_functions(&mut p), 0);
    }

    #[test]
    fn frame_slots_are_renumbered() {
        let mut callee = Function::new("callee");
        let a = callee.fresh_reg();
        let t = callee.fresh_reg();
        callee.params = vec![a];
        let slot = callee.fresh_frame_slot();
        callee.blocks[0].insts = vec![
            Inst::Store {
                src: a.into(),
                addr: Address::frame(slot),
                ty: Ty::Int,
            },
            Inst::Load {
                dst: t,
                addr: Address::frame(slot),
                ty: Ty::Int,
            },
        ];
        callee.blocks[0].term = Terminator::Return(Some(t.into()));

        let mut p = make_program(callee);
        // Give the caller an existing frame slot so the offset is visible.
        p.functions[0].frame_words = 3;
        inline_small_functions(&mut p);
        let main = &p.functions[0];
        assert_eq!(main.frame_words, 4);
        let store = main.blocks[0]
            .insts
            .iter()
            .find(|i| matches!(i, Inst::Store { .. }))
            .unwrap();
        if let Inst::Store { addr, .. } = store {
            assert_eq!(addr.offset, 3, "callee slot 0 becomes caller slot 3");
        }
    }
}
