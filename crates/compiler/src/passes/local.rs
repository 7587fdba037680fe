//! Block-local scalar optimizations: copy propagation, constant folding,
//! strength reduction and common-subexpression / redundant-load elimination.
//!
//! All four walk one basic block at a time and never move instructions, so
//! they are trivially control-flow safe; the cross-block opportunities they
//! miss are largely irrelevant for the first-order effects the paper's
//! figures depend on (the dominant effect is register promotion at `-O1`).

use bsg_ir::eval::{eval_bin, eval_un};
use bsg_ir::types::{Reg, Ty, Value};
use bsg_ir::visa::{Address, BinOp, Inst, Operand, Terminator};
use bsg_ir::Program;
use std::collections::HashMap;

/// Rewrites uses of registers that are plain copies of another register or of
/// an immediate.  Also folds branches whose condition became a known
/// constant.  Returns the number of operands rewritten.
pub fn propagate_copies(program: &mut Program) -> usize {
    let mut rewritten = 0;
    for f in &mut program.functions {
        for block in &mut f.blocks {
            // reg -> operand it is currently a copy of
            let mut copies: HashMap<Reg, Operand> = HashMap::new();

            let resolve =
                |copies: &HashMap<Reg, Operand>, op: &mut Operand, count: &mut usize| match op {
                    Operand::Reg(r) => {
                        if let Some(replacement) = copies.get(r) {
                            *op = *replacement;
                            *count += 1;
                        }
                    }
                    Operand::Mem(addr) => {
                        if let Some(idx) = addr.index {
                            match copies.get(&idx) {
                                Some(Operand::Reg(r2)) => {
                                    addr.index = Some(*r2);
                                    *count += 1;
                                }
                                Some(Operand::ImmInt(c)) => {
                                    addr.offset += *c * addr.scale;
                                    addr.index = None;
                                    *count += 1;
                                }
                                _ => {}
                            }
                        }
                    }
                    _ => {}
                };
            let resolve_addr =
                |copies: &HashMap<Reg, Operand>, addr: &mut Address, count: &mut usize| {
                    if let Some(idx) = addr.index {
                        match copies.get(&idx) {
                            Some(Operand::Reg(r2)) => {
                                addr.index = Some(*r2);
                                *count += 1;
                            }
                            Some(Operand::ImmInt(c)) => {
                                addr.offset += *c * addr.scale;
                                addr.index = None;
                                *count += 1;
                            }
                            _ => {}
                        }
                    }
                };
            let invalidate = |copies: &mut HashMap<Reg, Operand>, def: Reg| {
                copies.remove(&def);
                copies.retain(|_, v| v.as_reg() != Some(def));
            };

            for inst in &mut block.insts {
                // First rewrite the uses with the facts gathered so far.
                match inst {
                    Inst::Bin { lhs, rhs, .. } => {
                        resolve(&copies, lhs, &mut rewritten);
                        resolve(&copies, rhs, &mut rewritten);
                    }
                    Inst::Un { src, .. } | Inst::Mov { src, .. } | Inst::Print { src } => {
                        resolve(&copies, src, &mut rewritten)
                    }
                    Inst::Load { addr, .. } => resolve_addr(&copies, addr, &mut rewritten),
                    Inst::Store { src, addr, .. } => {
                        resolve(&copies, src, &mut rewritten);
                        resolve_addr(&copies, addr, &mut rewritten);
                    }
                    Inst::Call { args, .. } => {
                        for a in args {
                            resolve(&copies, a, &mut rewritten);
                        }
                    }
                }
                // Then update the copy facts with this instruction's def.
                if let Some(def) = inst.def() {
                    invalidate(&mut copies, def);
                    if let Inst::Mov { dst, src } = inst {
                        if !matches!(src, Operand::Mem(_)) && src.as_reg() != Some(*dst) {
                            copies.insert(*dst, *src);
                        }
                    }
                }
            }

            // Branch folding / condition rewriting with the end-of-block facts.
            if let Terminator::Branch {
                cond,
                taken,
                not_taken,
            } = block.term.clone()
            {
                match copies.get(&cond) {
                    Some(Operand::ImmInt(v)) => {
                        block.term = Terminator::Jump(if *v != 0 { taken } else { not_taken });
                        rewritten += 1;
                    }
                    Some(Operand::Reg(r)) => {
                        block.term = Terminator::Branch {
                            cond: *r,
                            taken,
                            not_taken,
                        };
                        rewritten += 1;
                    }
                    _ => {}
                }
            }
            if let Terminator::Return(Some(op)) = &mut block.term {
                let mut c = 0;
                resolve(&copies, op, &mut c);
                rewritten += c;
            }
        }
    }
    rewritten
}

/// Folds instructions whose operands are all immediates, plus a handful of
/// integer algebraic identities (`x+0`, `x*1`, `x*0`, `x&0`, ...).
/// Returns the number of instructions folded.
pub fn fold_constants(program: &mut Program) -> usize {
    let mut folded = 0;
    for f in &mut program.functions {
        for block in &mut f.blocks {
            for inst in &mut block.insts {
                let replacement = match inst {
                    Inst::Bin {
                        op,
                        ty,
                        dst,
                        lhs,
                        rhs,
                    } => match (operand_value(lhs), operand_value(rhs)) {
                        (Some(a), Some(b)) => Some(Inst::Mov {
                            dst: *dst,
                            src: value_operand(eval_bin(*op, *ty, a, b)),
                        }),
                        _ => algebraic_identity(*op, *ty, *dst, lhs, rhs),
                    },
                    Inst::Un { op, ty, dst, src } => operand_value(src).map(|v| Inst::Mov {
                        dst: *dst,
                        src: value_operand(eval_un(*op, *ty, v)),
                    }),
                    _ => None,
                };
                if let Some(new_inst) = replacement {
                    *inst = new_inst;
                    folded += 1;
                }
            }
        }
    }
    folded
}

/// Rewrites integer multiplications by powers of two into shifts.
/// Returns the number of instructions rewritten.
pub fn reduce_strength(program: &mut Program) -> usize {
    let mut reduced = 0;
    for f in &mut program.functions {
        for block in &mut f.blocks {
            for inst in &mut block.insts {
                if let Inst::Bin {
                    op: op @ BinOp::Mul,
                    ty: Ty::Int,
                    lhs,
                    rhs,
                    ..
                } = inst
                {
                    // Normalize the constant to the right-hand side.
                    if matches!(lhs, Operand::ImmInt(_)) && !matches!(rhs, Operand::ImmInt(_)) {
                        std::mem::swap(lhs, rhs);
                    }
                    if let Operand::ImmInt(c) = rhs {
                        if *c > 1 && (*c as u64).is_power_of_two() {
                            *rhs = Operand::ImmInt((*c as u64).trailing_zeros() as i64);
                            *op = BinOp::Shl;
                            reduced += 1;
                        }
                    }
                }
            }
        }
    }
    reduced
}

/// Local common-subexpression and redundant-load elimination.
/// Returns the number of instructions replaced by register copies.
pub fn eliminate_common_subexpressions(program: &mut Program) -> usize {
    #[derive(Hash, PartialEq, Eq, Clone)]
    enum Key {
        Bin(BinOp, Ty, OperandKey, OperandKey),
        Un(bsg_ir::visa::UnOp, Ty, OperandKey),
        Load(MemKey),
    }
    #[derive(Hash, PartialEq, Eq, Clone, Copy)]
    enum OperandKey {
        Reg(u32),
        Int(i64),
        Float(u64),
    }
    #[derive(Hash, PartialEq, Eq, Clone, Copy)]
    struct MemKey {
        base: bsg_ir::visa::MemBase,
        offset: i64,
        index: Option<u32>,
        scale: i64,
    }

    fn operand_key(op: &Operand) -> Option<OperandKey> {
        match op {
            Operand::Reg(r) => Some(OperandKey::Reg(r.0)),
            Operand::ImmInt(v) => Some(OperandKey::Int(*v)),
            Operand::ImmFloat(v) => Some(OperandKey::Float(v.to_bits())),
            Operand::Mem(_) => None,
        }
    }
    fn mem_key(a: &Address) -> MemKey {
        MemKey {
            base: a.base,
            offset: a.offset,
            index: a.index.map(|r| r.0),
            scale: a.scale,
        }
    }
    fn key_mentions(key: &Key, reg: Reg) -> bool {
        let opk = OperandKey::Reg(reg.0);
        match key {
            Key::Bin(_, _, a, b) => *a == opk || *b == opk,
            Key::Un(_, _, a) => *a == opk,
            Key::Load(m) => m.index == Some(reg.0),
        }
    }

    let mut removed = 0;
    for f in &mut program.functions {
        for block in &mut f.blocks {
            let mut available: HashMap<Key, Reg> = HashMap::new();
            for inst in &mut block.insts {
                // Compute this instruction's key before considering its def.
                let key = match inst {
                    Inst::Bin {
                        op, ty, lhs, rhs, ..
                    } => {
                        match (operand_key(lhs), operand_key(rhs)) {
                            (Some(mut a), Some(mut b)) => {
                                if op.is_commutative() {
                                    // Canonical order for commutative operators.
                                    let ord = |k: &OperandKey| match k {
                                        OperandKey::Reg(r) => (0u8, *r as i64, 0u64),
                                        OperandKey::Int(v) => (1, *v, 0),
                                        OperandKey::Float(bits) => (2, 0, *bits),
                                    };
                                    if ord(&b) < ord(&a) {
                                        std::mem::swap(&mut a, &mut b);
                                    }
                                }
                                Some(Key::Bin(*op, *ty, a, b))
                            }
                            _ => None,
                        }
                    }
                    Inst::Un { op, ty, src, .. } => operand_key(src).map(|k| Key::Un(*op, *ty, k)),
                    Inst::Load { addr, .. } => Some(Key::Load(mem_key(addr))),
                    _ => None,
                };

                let mut cacheable: Option<(Key, Reg)> = None;
                if let (Some(k), Some(dst)) = (key, inst.def()) {
                    if let Some(&prev) = available.get(&k) {
                        if prev != dst {
                            *inst = Inst::Mov {
                                dst,
                                src: prev.into(),
                            };
                            removed += 1;
                        }
                    } else {
                        cacheable = Some((k, dst));
                    }
                }

                // Memory writes and calls invalidate cached loads.
                if inst.writes_memory() || matches!(inst, Inst::Call { .. }) {
                    available.retain(|k, _| !matches!(k, Key::Load(_)));
                }
                // A redefined register invalidates both cached results held in
                // it and cached expressions computed from its old value.
                if let Some(d) = inst.def() {
                    available.retain(|k, v| *v != d && !key_mentions(k, d));
                }
                // Record the new fact last so self-referential defs like
                // `r1 = r1 + r2` are never cached.
                if let Some((k, dst)) = cacheable {
                    if !key_mentions(&k, dst) {
                        available.insert(k, dst);
                    }
                }
            }
        }
    }

    removed
}

fn operand_value(op: &Operand) -> Option<Value> {
    match op {
        Operand::ImmInt(v) => Some(Value::Int(*v)),
        Operand::ImmFloat(v) => Some(Value::Float(*v)),
        _ => None,
    }
}

fn value_operand(v: Value) -> Operand {
    match v {
        Value::Int(i) => Operand::ImmInt(i),
        Value::Float(f) => Operand::ImmFloat(f),
    }
}

fn algebraic_identity(op: BinOp, ty: Ty, dst: Reg, lhs: &Operand, rhs: &Operand) -> Option<Inst> {
    if ty != Ty::Int {
        return None; // NaN / signed-zero semantics make float identities unsafe.
    }
    let lhs_const = match lhs {
        Operand::ImmInt(v) => Some(*v),
        _ => None,
    };
    let rhs_const = match rhs {
        Operand::ImmInt(v) => Some(*v),
        _ => None,
    };
    let mov = |src: Operand| Some(Inst::Mov { dst, src });
    match (op, lhs_const, rhs_const) {
        (BinOp::Add, Some(0), None) => mov(*rhs),
        (BinOp::Add, None, Some(0))
        | (BinOp::Sub, None, Some(0))
        | (BinOp::Shl, None, Some(0))
        | (BinOp::Shr, None, Some(0))
        | (BinOp::Or, None, Some(0))
        | (BinOp::Xor, None, Some(0)) => mov(*lhs),
        (BinOp::Mul, Some(1), None) => mov(*rhs),
        (BinOp::Mul, None, Some(1)) | (BinOp::Div, None, Some(1)) => mov(*lhs),
        (BinOp::Mul, Some(0), None)
        | (BinOp::Mul, None, Some(0))
        | (BinOp::And, None, Some(0))
        | (BinOp::And, Some(0), None) => mov(Operand::ImmInt(0)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsg_ir::program::{Function, Global};
    use bsg_ir::types::GlobalId;
    use bsg_ir::visa::UnOp;

    fn single_block_program(build: impl FnOnce(&mut Function) -> Vec<Inst>) -> Program {
        let mut p = Program::new();
        p.add_global(Global::zeroed("g", 64));
        let mut f = Function::new("main");
        let insts = build(&mut f);
        f.blocks[0].insts = insts;
        p.add_function(f);
        p
    }

    #[test]
    fn copies_feed_constant_folding() {
        let mut p = single_block_program(|f| {
            let r0 = f.fresh_reg();
            let r1 = f.fresh_reg();
            let r2 = f.fresh_reg();
            vec![
                Inst::Mov {
                    dst: r0,
                    src: Operand::ImmInt(6),
                },
                Inst::Mov {
                    dst: r1,
                    src: r0.into(),
                },
                Inst::Bin {
                    op: BinOp::Mul,
                    ty: Ty::Int,
                    dst: r2,
                    lhs: r1.into(),
                    rhs: Operand::ImmInt(7),
                },
                Inst::Print { src: r2.into() },
            ]
        });
        let copies = propagate_copies(&mut p);
        assert!(copies >= 2);
        let folded = fold_constants(&mut p);
        assert_eq!(folded, 1);
        assert!(matches!(
            p.functions[0].blocks[0].insts[2],
            Inst::Mov {
                src: Operand::ImmInt(42),
                ..
            }
        ));
    }

    #[test]
    fn branch_on_constant_condition_is_folded_to_a_jump() {
        let mut p = single_block_program(|f| {
            let c = f.fresh_reg();
            vec![Inst::Mov {
                dst: c,
                src: Operand::ImmInt(0),
            }]
        });
        let b1 = p.functions[0].add_block();
        let b2 = p.functions[0].add_block();
        let cond = Reg(0);
        p.functions[0].blocks[0].term = Terminator::Branch {
            cond,
            taken: b1,
            not_taken: b2,
        };
        propagate_copies(&mut p);
        assert_eq!(p.functions[0].blocks[0].term, Terminator::Jump(b2));
    }

    #[test]
    fn strength_reduction_rewrites_power_of_two_multiplies_only() {
        let mut p = single_block_program(|f| {
            let r0 = f.fresh_reg();
            let r1 = f.fresh_reg();
            let r2 = f.fresh_reg();
            let r3 = f.fresh_reg();
            vec![
                Inst::Bin {
                    op: BinOp::Mul,
                    ty: Ty::Int,
                    dst: r1,
                    lhs: r0.into(),
                    rhs: Operand::ImmInt(8),
                },
                Inst::Bin {
                    op: BinOp::Mul,
                    ty: Ty::Int,
                    dst: r2,
                    lhs: Operand::ImmInt(16),
                    rhs: r0.into(),
                },
                Inst::Bin {
                    op: BinOp::Mul,
                    ty: Ty::Int,
                    dst: r3,
                    lhs: r0.into(),
                    rhs: Operand::ImmInt(6),
                },
            ]
        });
        assert_eq!(reduce_strength(&mut p), 2);
        assert!(matches!(
            p.functions[0].blocks[0].insts[0],
            Inst::Bin {
                op: BinOp::Shl,
                rhs: Operand::ImmInt(3),
                ..
            }
        ));
        assert!(matches!(
            p.functions[0].blocks[0].insts[1],
            Inst::Bin {
                op: BinOp::Shl,
                rhs: Operand::ImmInt(4),
                ..
            }
        ));
        assert!(matches!(
            p.functions[0].blocks[0].insts[2],
            Inst::Bin { op: BinOp::Mul, .. }
        ));
    }

    #[test]
    fn algebraic_identities() {
        let mut p = single_block_program(|f| {
            let r0 = f.fresh_reg();
            let r1 = f.fresh_reg();
            let r2 = f.fresh_reg();
            vec![
                Inst::Bin {
                    op: BinOp::Add,
                    ty: Ty::Int,
                    dst: r1,
                    lhs: r0.into(),
                    rhs: Operand::ImmInt(0),
                },
                Inst::Bin {
                    op: BinOp::Mul,
                    ty: Ty::Int,
                    dst: r2,
                    lhs: r0.into(),
                    rhs: Operand::ImmInt(0),
                },
                Inst::Bin {
                    op: BinOp::Add,
                    ty: Ty::Float,
                    dst: r2,
                    lhs: r0.into(),
                    rhs: Operand::ImmFloat(0.0),
                },
            ]
        });
        assert_eq!(fold_constants(&mut p), 2, "float identity must not fold");
    }

    #[test]
    fn cse_removes_repeated_expressions_and_loads() {
        let g = GlobalId(0);
        let mut p = single_block_program(|f| {
            let a = f.fresh_reg();
            let b = f.fresh_reg();
            let x = f.fresh_reg();
            let y = f.fresh_reg();
            let l1 = f.fresh_reg();
            let l2 = f.fresh_reg();
            let l3 = f.fresh_reg();
            vec![
                Inst::Bin {
                    op: BinOp::Add,
                    ty: Ty::Int,
                    dst: x,
                    lhs: a.into(),
                    rhs: b.into(),
                },
                Inst::Bin {
                    op: BinOp::Add,
                    ty: Ty::Int,
                    dst: y,
                    lhs: b.into(),
                    rhs: a.into(),
                },
                Inst::Load {
                    dst: l1,
                    addr: Address::global(g, 3),
                    ty: Ty::Int,
                },
                Inst::Load {
                    dst: l2,
                    addr: Address::global(g, 3),
                    ty: Ty::Int,
                },
                Inst::Store {
                    src: x.into(),
                    addr: Address::global(g, 0),
                    ty: Ty::Int,
                },
                Inst::Load {
                    dst: l3,
                    addr: Address::global(g, 3),
                    ty: Ty::Int,
                },
            ]
        });
        let removed = eliminate_common_subexpressions(&mut p);
        assert_eq!(removed, 2, "commutative add and one redundant load");
        assert!(matches!(
            p.functions[0].blocks[0].insts[1],
            Inst::Mov { .. }
        ));
        assert!(matches!(
            p.functions[0].blocks[0].insts[3],
            Inst::Mov { .. }
        ));
        // The load after the store must NOT be removed.
        assert!(matches!(
            p.functions[0].blocks[0].insts[5],
            Inst::Load { .. }
        ));
    }

    #[test]
    fn cse_invalidates_when_an_operand_is_redefined() {
        let mut p = single_block_program(|f| {
            let a = f.fresh_reg();
            let x = f.fresh_reg();
            let y = f.fresh_reg();
            vec![
                Inst::Bin {
                    op: BinOp::Add,
                    ty: Ty::Int,
                    dst: x,
                    lhs: a.into(),
                    rhs: Operand::ImmInt(1),
                },
                Inst::Bin {
                    op: BinOp::Add,
                    ty: Ty::Int,
                    dst: a,
                    lhs: a.into(),
                    rhs: Operand::ImmInt(5),
                },
                Inst::Bin {
                    op: BinOp::Add,
                    ty: Ty::Int,
                    dst: y,
                    lhs: a.into(),
                    rhs: Operand::ImmInt(1),
                },
            ]
        });
        assert_eq!(eliminate_common_subexpressions(&mut p), 0);
        let _ = (Reg(0), UnOp::Neg);
    }

    #[test]
    fn constant_unary_folds() {
        let mut p = single_block_program(|f| {
            let r = f.fresh_reg();
            vec![Inst::Un {
                op: UnOp::Neg,
                ty: Ty::Int,
                dst: r,
                src: Operand::ImmInt(5),
            }]
        });
        assert_eq!(fold_constants(&mut p), 1);
        assert!(matches!(
            p.functions[0].blocks[0].insts[0],
            Inst::Mov {
                src: Operand::ImmInt(-5),
                ..
            }
        ));
    }
}
