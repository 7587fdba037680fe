//! Human-readable textual dump of VISA programs, for debugging and for the
//! experiment binaries that want to show lowered code.

use crate::program::{Function, Program};
use crate::visa::{Inst, Terminator};
use std::fmt::Write;

/// Renders a whole program.
pub fn dump_program(p: &Program) -> String {
    let mut out = String::new();
    for (i, g) in p.globals.iter().enumerate() {
        let _ = writeln!(out, "global g{i} {} [{} x {}]", g.name, g.elems, g.ty);
    }
    for f in &p.functions {
        out.push_str(&dump_function(f));
    }
    out
}

/// Renders a single function.
pub fn dump_function(f: &Function) -> String {
    let mut out = String::new();
    let params: Vec<String> = f.params.iter().map(|r| r.to_string()).collect();
    let _ = writeln!(
        out,
        "fn {}({}) regs={} frame={} {{",
        f.name,
        params.join(", "),
        f.num_regs,
        f.frame_words
    );
    for (id, b) in f.iter_blocks() {
        let _ = writeln!(out, "{id}:");
        for inst in &b.insts {
            let _ = writeln!(out, "    {}", dump_inst(inst));
        }
        let _ = writeln!(out, "    {}", dump_terminator(&b.term));
    }
    out.push_str("}\n");
    out
}

/// Renders one instruction.
pub fn dump_inst(inst: &Inst) -> String {
    match inst {
        Inst::Bin {
            op,
            ty,
            dst,
            lhs,
            rhs,
        } => format!("{dst} = {lhs} {op} {rhs} ({ty})"),
        Inst::Un { op, ty, dst, src } => format!("{dst} = {op} {src} ({ty})"),
        Inst::Mov { dst, src } => format!("{dst} = {src}"),
        Inst::Load { dst, addr, ty } => format!("{dst} = load {addr} ({ty})"),
        Inst::Store { src, addr, ty } => format!("store {src} -> {addr} ({ty})"),
        Inst::Call { func, args, dst } => {
            let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
            match dst {
                Some(d) => format!("{d} = call {func}({})", args.join(", ")),
                None => format!("call {func}({})", args.join(", ")),
            }
        }
        Inst::Print { src } => format!("print {src}"),
    }
}

/// Renders one terminator.
pub fn dump_terminator(term: &Terminator) -> String {
    match term {
        Terminator::Jump(b) => format!("jump {b}"),
        Terminator::Branch {
            cond,
            taken,
            not_taken,
        } => {
            format!("branch {cond} ? {taken} : {not_taken}")
        }
        Terminator::Return(Some(v)) => format!("return {v}"),
        Terminator::Return(None) => "return".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{Global, Program};
    use crate::types::Ty;
    use crate::visa::{Address, BinOp, Operand};
    use crate::{Function, GlobalId};

    #[test]
    fn dump_contains_every_piece() {
        let mut p = Program::new();
        p.add_global(Global::zeroed("buf", 8));
        let mut f = Function::new("main");
        let r0 = f.fresh_reg();
        let r1 = f.fresh_reg();
        f.blocks[0].insts = vec![
            Inst::Mov {
                dst: r0,
                src: Operand::ImmInt(2),
            },
            Inst::Bin {
                op: BinOp::Mul,
                ty: Ty::Int,
                dst: r1,
                lhs: r0.into(),
                rhs: Operand::ImmInt(3),
            },
            Inst::Load {
                dst: r0,
                addr: Address::global(GlobalId(0), 1),
                ty: Ty::Int,
            },
            Inst::Store {
                src: r1.into(),
                addr: Address::global(GlobalId(0), 0),
                ty: Ty::Int,
            },
            Inst::Print { src: r1.into() },
            Inst::Call {
                func: crate::FuncId(0),
                args: vec![],
                dst: Some(r0),
            },
        ];
        f.blocks[0].term = Terminator::Return(Some(r1.into()));
        p.add_function(f);
        let text = dump_program(&p);
        assert!(text.contains("global g0 buf"));
        assert!(text.contains("fn main"));
        assert!(text.contains("r1 = r0 * 3"));
        assert!(text.contains("load"));
        assert!(text.contains("store"));
        assert!(text.contains("print"));
        assert!(text.contains("call"));
        assert!(text.contains("return r1"));
        // Display impl on Program goes through dump_program.
        assert_eq!(text, p.to_string());
    }

    #[test]
    fn terminator_rendering() {
        assert_eq!(
            dump_terminator(&Terminator::Jump(crate::BlockId(3))),
            "jump bb3"
        );
        assert_eq!(dump_terminator(&Terminator::Return(None)), "return");
        let b = Terminator::Branch {
            cond: crate::Reg(1),
            taken: crate::BlockId(2),
            not_taken: crate::BlockId(4),
        };
        assert_eq!(dump_terminator(&b), "branch r1 ? bb2 : bb4");
    }
}
