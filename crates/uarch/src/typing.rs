//! Static register-type inference for the untagged register file.
//!
//! The predecoded engine wants to keep registers in raw `i64`/`f64` banks
//! instead of the 16-byte tagged [`Value`], but the VISA semantics are
//! defined over dynamic tags (`Value::as_int` truncates floats,
//! `Value::is_true` differs between `Int(0)` and `Float(-0.0)`, and printed
//! or returned values are compared tag-and-all by the differential suite).
//! Storing a register untagged is therefore only sound when *every* value
//! that can ever reach the register has one statically-known tag.
//!
//! This module computes that property as a forward fixpoint over a four-point
//! lattice (`Bot < {Int, Float} < Top`) covering:
//!
//! * **registers** — joined over every instruction that may write them,
//!   including call-argument writes from every call site, call-return writes
//!   (joined with the callee's return lattice) and the implicit `Int(0)`
//!   frame initialization for registers that may be read before written
//!   (decided by a per-function liveness pass);
//! * **memory regions** — one lattice point per global array and one per
//!   **frame slot** (statically-addressed frame accesses resolve to their
//!   wrapped slot at analysis time; register-indexed accesses conservatively
//!   touch every slot), joined over initial contents and every store, so a
//!   load's destination register inherits a known tag when the addressed
//!   region provably holds one type.  Per-slot granularity is what lets a
//!   float local in a `-O0` frame untag: its `Int(0)` zero-init joins only
//!   when a **slot-level liveness pass** shows the slot may be read before
//!   written, so a slot that is always stored first can be all-float even
//!   though the frame as a whole never is;
//! * **returns** — one lattice point per function, joined over its `Return`
//!   operands.
//!
//! A register whose lattice value is `Int` or `Float` is assigned to the
//! matching untagged bank; `Top` (or any register the analysis cannot pin
//! down, e.g. the destination of a call whose callee may abort mid-run and
//! leave the register unwritten) stays in the tagged `Value` bank.  The
//! differential test suite is the proof obligation: fused/untagged execution
//! must be bit-identical to the legacy tagged interpreter on every program,
//! so the analysis errs on the side of `Top` wherever retention or dynamic
//! typing could be observed.

use bsg_ir::program::{GlobalInit, Program};
use bsg_ir::types::{Ty, Value};
use bsg_ir::visa::{BinOp, Inst, MemBase, Operand, Terminator, UnOp};

/// Which physical bank a register lives in (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RegBank {
    /// Untagged `i64` bank: every reaching value is `Value::Int`.
    Int,
    /// Untagged `f64` bank: every reaching value is `Value::Float`.
    Float,
    /// Tagged `Value` bank (type not statically known).
    Tagged,
}

/// The inference lattice: `Bot < Int, Float < Top`.  Shared with
/// [`crate::verify`], which re-runs the same inference over the decoded step
/// array so the two computations cannot drift.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Lat {
    Bot,
    Int,
    Float,
    Top,
}

impl Lat {
    pub(crate) fn join(self, other: Lat) -> Lat {
        match (self, other) {
            (Lat::Bot, x) | (x, Lat::Bot) => x,
            (a, b) if a == b => a,
            _ => Lat::Top,
        }
    }

    fn of_ty(ty: Ty) -> Lat {
        match ty {
            Ty::Int => Lat::Int,
            Ty::Float => Lat::Float,
        }
    }

    fn bank(self) -> RegBank {
        match self {
            // `Bot` means the register is never written and never read before
            // a write on any executable path; any bank works, and the int
            // bank's `0` matches the frame's `Value::Int(0)` initialization.
            Lat::Bot | Lat::Int => RegBank::Int,
            Lat::Float => RegBank::Float,
            Lat::Top => RegBank::Tagged,
        }
    }
}

/// Static result type of `eval_bin(op, ty, ..)`: float arithmetic produces
/// floats, but float comparisons and float bitwise/shift operations produce
/// integers (see `bsg_ir::eval`).
pub(crate) fn bin_result(op: BinOp, ty: Ty) -> Lat {
    match ty {
        Ty::Int => Lat::Int,
        Ty::Float => match op {
            BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Rem => Lat::Float,
            _ => Lat::Int,
        },
    }
}

/// Static result type of `eval_un(op, ty, ..)`.
pub(crate) fn un_result(op: UnOp, ty: Ty) -> Lat {
    match op {
        UnOp::Neg | UnOp::Abs => Lat::of_ty(ty),
        UnOp::Not | UnOp::LogicalNot | UnOp::ToInt => Lat::Int,
        UnOp::ToFloat | UnOp::Sqrt | UnOp::Sin | UnOp::Cos | UnOp::Log => Lat::Float,
    }
}

/// Initial-contents lattice of a global array, without materializing it.
fn global_init_lat(g: &bsg_ir::program::Global) -> Lat {
    match &g.init {
        GlobalInit::Zero => {
            if g.elems == 0 {
                Lat::Bot
            } else {
                // `Global::initial_values` fills with `Value::default()`
                // (= `Int(0)`) regardless of the declared element type.
                Lat::Int
            }
        }
        GlobalInit::Iota | GlobalInit::Random { .. } => {
            if g.elems == 0 {
                Lat::Bot
            } else {
                Lat::of_ty(g.ty)
            }
        }
        GlobalInit::Values(vs) => {
            let used = vs.len().min(g.elems);
            let mut lat = if vs.len() < g.elems {
                Lat::Int // the zero padding
            } else {
                Lat::Bot
            };
            for v in &vs[..used] {
                lat = lat.join(match v {
                    Value::Int(_) => Lat::Int,
                    Value::Float(_) => Lat::Float,
                });
            }
            lat
        }
    }
}

/// Per-function liveness at function entry: the registers that may be read
/// before any write on some path from the entry block, i.e. the registers
/// whose implicit `Int(0)` frame initialization is observable.
///
/// `Call` destinations deliberately do **not** kill: a callee that aborts
/// (budget/depth) returns `None` and the destination register keeps its prior
/// value, so a read after the call may still observe the implicit init.
fn entry_live(f: &bsg_ir::program::Function) -> Vec<bool> {
    let nregs = f.num_regs as usize;
    let nblocks = f.blocks.len();
    let mut live_in: Vec<Vec<bool>> = vec![vec![false; nregs]; nblocks];
    let mut changed = true;
    while changed {
        changed = false;
        // Reverse order converges faster for reducible CFGs; correctness
        // only needs the fixpoint.
        for bi in (0..nblocks).rev() {
            let block = &f.blocks[bi];
            // live-out = union of successors' live-in.
            let mut live: Vec<bool> = vec![false; nregs];
            for succ in block.term.successors() {
                for (slot, s) in live.iter_mut().zip(&live_in[succ.index()]) {
                    *slot |= s;
                }
            }
            // Terminator uses.
            for r in block.term.uses() {
                if let Some(slot) = live.get_mut(r.0 as usize) {
                    *slot = true;
                }
            }
            // Body, backward.
            for inst in block.insts.iter().rev() {
                let kills = match inst {
                    // A call may leave its destination unwritten; treat the
                    // def as conditional (no kill).
                    Inst::Call { .. } => None,
                    other => other.def(),
                };
                if let Some(d) = kills {
                    if let Some(slot) = live.get_mut(d.0 as usize) {
                        *slot = false;
                    }
                }
                for r in inst.uses() {
                    if let Some(slot) = live.get_mut(r.0 as usize) {
                        *slot = true;
                    }
                }
            }
            if live != live_in[bi] {
                live_in[bi] = live;
                changed = true;
            }
        }
    }
    live_in.swap_remove(f.entry.index())
}

/// Number of analyzable frame slots of a function.  Frame accesses wrap
/// modulo `frame_words.max(1)` at run time (see `exec`), so the analysis
/// domain has at least one slot and a *static* offset resolves to exactly
/// one slot.
fn slot_count(f: &bsg_ir::program::Function) -> usize {
    (f.frame_words.max(1)) as usize
}

/// The slot a statically-addressed frame access resolves to, or `None` when
/// the access is register-indexed (dynamic: may touch any slot).
fn static_slot(addr: &bsg_ir::visa::Address, nslots: usize) -> Option<usize> {
    if addr.index.is_some() {
        None
    } else {
        Some(addr.offset.rem_euclid(nslots as i64) as usize)
    }
}

/// Per-function liveness of **frame slots** at function entry: the slots that
/// may be read before any static store on some path, i.e. the slots whose
/// implicit `Int(0)` initialization is observable.  Register-indexed loads
/// read every slot; register-indexed stores kill nothing (the written slot is
/// unknown).  Frames are per-activation, so calls neither read nor write the
/// caller's slots.
fn frame_entry_live(f: &bsg_ir::program::Function) -> Vec<bool> {
    let nslots = slot_count(f);
    let nblocks = f.blocks.len();
    // gen of one operand read: mark the slots a frame-mem operand may read.
    let gen_operand = |live: &mut [bool], op: &Operand| {
        if let Operand::Mem(a) = op {
            if a.base == MemBase::Frame {
                match static_slot(a, nslots) {
                    Some(s) => live[s] = true,
                    None => live.iter_mut().for_each(|l| *l = true),
                }
            }
        }
    };
    let mut live_in: Vec<Vec<bool>> = vec![vec![false; nslots]; nblocks];
    let mut changed = true;
    while changed {
        changed = false;
        for bi in (0..nblocks).rev() {
            let block = &f.blocks[bi];
            let mut live: Vec<bool> = vec![false; nslots];
            for succ in block.term.successors() {
                for (slot, s) in live.iter_mut().zip(&live_in[succ.index()]) {
                    *slot |= s;
                }
            }
            if let Terminator::Return(Some(op)) = &block.term {
                gen_operand(&mut live, op);
            }
            for inst in block.insts.iter().rev() {
                // Kill first (applies to the post-instruction state), then
                // gen: an instruction that reads and writes the same slot
                // (e.g. `store frame[2] <- frame[2]`) reads it first.
                if let Inst::Store { addr, .. } = inst {
                    if addr.base == MemBase::Frame {
                        if let Some(s) = static_slot(addr, nslots) {
                            live[s] = false;
                        }
                    }
                }
                match inst {
                    Inst::Bin { lhs, rhs, .. } => {
                        gen_operand(&mut live, lhs);
                        gen_operand(&mut live, rhs);
                    }
                    Inst::Un { src, .. } | Inst::Mov { src, .. } | Inst::Print { src } => {
                        gen_operand(&mut live, src);
                    }
                    Inst::Load { addr, .. } => {
                        gen_operand(&mut live, &Operand::Mem(*addr));
                    }
                    Inst::Store { src, .. } => gen_operand(&mut live, src),
                    Inst::Call { args, .. } => {
                        for a in args {
                            gen_operand(&mut live, a);
                        }
                    }
                }
            }
            if live != live_in[bi] {
                live_in[bi] = live;
                changed = true;
            }
        }
    }
    live_in.swap_remove(f.entry.index())
}

/// Result of the whole-program type inference.
pub(crate) struct TypeInfo {
    /// Bank of each `(function, register)`.
    pub regs: Vec<Vec<RegBank>>,
    /// Bank of each `(function, frame slot)` (`slot_count` entries per
    /// function).  `Int`/`Float` when every value that can reach the slot —
    /// including the `Int(0)` zero-init where the slot-liveness pass shows it
    /// observable — has that one tag; `Tagged` otherwise.
    pub frame_slots: Vec<Vec<RegBank>>,
    /// Whether each `(function, register)`'s implicit `Int(0)` initialization
    /// is observable (read-before-write on some path, per the liveness pass).
    /// Registers where it is not may keep stale values on frame acquisition:
    /// every read is provably preceded by a write.
    pub reg_init: Vec<Vec<bool>>,
    /// The same observability per `(function, frame slot)`.
    pub slot_init: Vec<Vec<bool>>,
}

/// Infers one [`RegBank`] per `(function, register)` and per `(function,
/// frame slot)` for `program` (see the module docs for the lattice and its
/// soundness argument).
pub(crate) fn infer(program: &Program) -> TypeInfo {
    let nfuncs = program.functions.len();
    let mut regs: Vec<Vec<Lat>> = program
        .functions
        .iter()
        .map(|f| vec![Lat::Bot; f.num_regs as usize])
        .collect();
    let mut globals: Vec<Lat> = program.globals.iter().map(global_init_lat).collect();
    // Per-slot frame lattices.  Slots start at `Bot`; the `Int(0)` zero-init
    // joins below only where the slot-liveness pass shows a read may observe
    // it, which is what lets always-stored-first float locals untag.
    let mut frames: Vec<Vec<Lat>> = program
        .functions
        .iter()
        .map(|f| vec![Lat::Bot; slot_count(f)])
        .collect();
    let mut slot_init: Vec<Vec<bool>> = Vec::with_capacity(nfuncs);
    for (fi, f) in program.functions.iter().enumerate() {
        let live = frame_entry_live(f);
        for (s, live) in live.iter().enumerate() {
            if *live {
                frames[fi][s] = Lat::Int;
            }
        }
        slot_init.push(live);
    }
    let mut rets: Vec<Lat> = vec![Lat::Bot; nfuncs];

    // Which functions have call sites, and whether any call site omits
    // argument `i` (leaving the parameter at its `Int(0)` init).
    let mut has_caller = vec![false; nfuncs];
    let mut short_args: Vec<usize> = vec![usize::MAX; nfuncs]; // min args passed
    for f in &program.functions {
        for b in &f.blocks {
            for inst in &b.insts {
                if let Inst::Call { func, args, .. } = inst {
                    if let (Some(h), Some(s)) = (
                        has_caller.get_mut(func.index()),
                        short_args.get_mut(func.index()),
                    ) {
                        *h = true;
                        *s = (*s).min(args.len());
                    }
                }
            }
        }
    }

    // Seed the implicit `Int(0)` initialization where it may be observed.
    let mut reg_init: Vec<Vec<bool>> = program
        .functions
        .iter()
        .map(|f| vec![false; f.num_regs as usize])
        .collect();
    for (fi, f) in program.functions.iter().enumerate() {
        let live = entry_live(f);
        for (ri, lat) in regs[fi].iter_mut().enumerate() {
            let is_param_pos = f.params.iter().position(|p| p.0 as usize == ri);
            let live_here = live.get(ri).copied().unwrap_or(false);
            if !live_here {
                continue;
            }
            match is_param_pos {
                // Non-parameter read-before-write: sees the frame init.
                None => {
                    *lat = lat.join(Lat::Int);
                    reg_init[fi][ri] = true;
                }
                Some(pos) => {
                    // Parameters are written by the caller — unless this is
                    // the entry function (called with no arguments), the
                    // function has no callers, or some call site passes too
                    // few arguments.
                    let covered =
                        has_caller[fi] && short_args[fi] > pos && program.entry.index() != fi;
                    if !covered {
                        *lat = lat.join(Lat::Int);
                        reg_init[fi][ri] = true;
                    }
                }
            }
        }
    }

    // Forward fixpoint over every def in the program.
    let mut changed = true;
    while changed {
        changed = false;
        let join_into = |slot: &mut Lat, v: Lat, changed: &mut bool| {
            let next = slot.join(v);
            if next != *slot {
                *slot = next;
                *changed = true;
            }
        };
        for fi in 0..nfuncs {
            for bi in 0..program.functions[fi].blocks.len() {
                // Lattice value a frame read at `a` may observe: the one
                // addressed slot when static, the join of every slot when
                // register-indexed.
                let frame_read_lat = |frames: &Vec<Vec<Lat>>, a: &bsg_ir::visa::Address| -> Lat {
                    match static_slot(a, frames[fi].len()) {
                        Some(s) => frames[fi][s],
                        None => frames[fi].iter().fold(Lat::Bot, |acc, l| acc.join(*l)),
                    }
                };
                let operand_lat = |regs: &Vec<Vec<Lat>>,
                                   globals: &Vec<Lat>,
                                   frames: &Vec<Vec<Lat>>,
                                   op: &Operand|
                 -> Lat {
                    match op {
                        Operand::Reg(r) => regs[fi].get(r.0 as usize).copied().unwrap_or(Lat::Top),
                        Operand::ImmInt(_) => Lat::Int,
                        Operand::ImmFloat(_) => Lat::Float,
                        Operand::Mem(a) => match a.base {
                            MemBase::Global(g) => {
                                globals.get(g.index()).copied().unwrap_or(Lat::Top)
                            }
                            MemBase::Frame => frame_read_lat(frames, a),
                        },
                    }
                };
                for ii in 0..program.functions[fi].blocks[bi].insts.len() {
                    let inst = &program.functions[fi].blocks[bi].insts[ii];
                    match inst {
                        Inst::Bin { op, ty, dst, .. } => {
                            let v = bin_result(*op, *ty);
                            join_into(&mut regs[fi][dst.0 as usize], v, &mut changed);
                        }
                        Inst::Un { op, ty, dst, .. } => {
                            let v = un_result(*op, *ty);
                            join_into(&mut regs[fi][dst.0 as usize], v, &mut changed);
                        }
                        Inst::Mov { dst, src } => {
                            let v = operand_lat(&regs, &globals, &frames, src);
                            join_into(&mut regs[fi][dst.0 as usize], v, &mut changed);
                        }
                        Inst::Load { dst, addr, .. } => {
                            let v = match addr.base {
                                MemBase::Global(g) => {
                                    globals.get(g.index()).copied().unwrap_or(Lat::Top)
                                }
                                MemBase::Frame => frame_read_lat(&frames, addr),
                            };
                            join_into(&mut regs[fi][dst.0 as usize], v, &mut changed);
                        }
                        Inst::Store { src, addr, .. } => {
                            let v = operand_lat(&regs, &globals, &frames, src);
                            match addr.base {
                                MemBase::Global(g) => {
                                    if let Some(slot) = globals.get_mut(g.index()) {
                                        join_into(slot, v, &mut changed);
                                    }
                                }
                                MemBase::Frame => {
                                    // A static store reaches exactly one
                                    // slot; a dynamic store may reach any.
                                    match static_slot(addr, frames[fi].len()) {
                                        Some(s) => {
                                            join_into(&mut frames[fi][s], v, &mut changed);
                                        }
                                        None => {
                                            for s in 0..frames[fi].len() {
                                                join_into(&mut frames[fi][s], v, &mut changed);
                                            }
                                        }
                                    }
                                }
                            }
                        }
                        Inst::Call { func, args, dst } => {
                            let ci = func.index();
                            if ci < nfuncs {
                                let params = program.functions[ci].params.clone();
                                for (i, p) in params.iter().enumerate() {
                                    let v = match args.get(i) {
                                        Some(a) => operand_lat(&regs, &globals, &frames, a),
                                        None => continue, // seeded via short_args
                                    };
                                    if let Some(slot) = regs[ci].get_mut(p.0 as usize) {
                                        join_into(slot, v, &mut changed);
                                    }
                                }
                                if let Some(d) = dst {
                                    let v = rets[ci];
                                    join_into(&mut regs[fi][d.0 as usize], v, &mut changed);
                                }
                            } else if let Some(d) = dst {
                                join_into(&mut regs[fi][d.0 as usize], Lat::Top, &mut changed);
                            }
                        }
                        Inst::Print { .. } => {}
                    }
                }
                if let Terminator::Return(Some(op)) = &program.functions[fi].blocks[bi].term {
                    let v = operand_lat(&regs, &globals, &frames, op);
                    join_into(&mut rets[fi], v, &mut changed);
                }
            }
        }
    }

    TypeInfo {
        regs: regs
            .into_iter()
            .map(|f| f.into_iter().map(Lat::bank).collect())
            .collect(),
        frame_slots: frames
            .into_iter()
            .map(|f| {
                f.into_iter()
                    .map(|lat| match lat {
                        // `Bot` = never read (any read joins either the
                        // seeded init or a store): the int bank's 0 matches
                        // the `Int(0)` init, so the choice is unobservable.
                        Lat::Bot | Lat::Int => RegBank::Int,
                        Lat::Float => RegBank::Float,
                        Lat::Top => RegBank::Tagged,
                    })
                    .collect()
            })
            .collect(),
        reg_init,
        slot_init,
    }
}

/// Test/compat shim: just the register banks.
#[cfg(test)]
fn reg_banks(program: &Program) -> Vec<Vec<RegBank>> {
    infer(program).regs
}

/// Test shim: the per-slot frame banks of function 0.
#[cfg(test)]
fn frame_banks(program: &Program) -> Vec<RegBank> {
    infer(program).frame_slots.swap_remove(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsg_ir::program::{Function, Global};
    use bsg_ir::types::FuncId;
    use bsg_ir::visa::Address;

    #[test]
    fn int_loop_registers_are_int_banked() {
        // s = 0; i = 0; while (i < 10) { s += i; i += 1 }
        let mut p = Program::new();
        let mut f = Function::new("main");
        let s = f.fresh_reg();
        let i = f.fresh_reg();
        let c = f.fresh_reg();
        f.blocks[0].insts = vec![
            Inst::Mov {
                dst: s,
                src: Operand::ImmInt(0),
            },
            Inst::Mov {
                dst: i,
                src: Operand::ImmInt(0),
            },
            Inst::Bin {
                op: BinOp::Lt,
                ty: Ty::Int,
                dst: c,
                lhs: i.into(),
                rhs: Operand::ImmInt(10),
            },
        ];
        f.blocks[0].term = Terminator::Return(Some(s.into()));
        p.add_function(f);
        let banks = reg_banks(&p);
        assert_eq!(banks[0], vec![RegBank::Int, RegBank::Int, RegBank::Int]);
    }

    #[test]
    fn float_arithmetic_registers_are_float_banked() {
        let mut p = Program::new();
        let mut f = Function::new("main");
        let x = f.fresh_reg();
        let y = f.fresh_reg();
        f.blocks[0].insts = vec![
            Inst::Mov {
                dst: x,
                src: Operand::ImmFloat(1.5),
            },
            Inst::Bin {
                op: BinOp::Mul,
                ty: Ty::Float,
                dst: y,
                lhs: x.into(),
                rhs: Operand::ImmFloat(2.0),
            },
        ];
        f.blocks[0].term = Terminator::Return(Some(y.into()));
        p.add_function(f);
        let banks = reg_banks(&p);
        assert_eq!(banks[0], vec![RegBank::Float, RegBank::Float]);
    }

    #[test]
    fn mixed_writes_fall_back_to_tagged() {
        let mut p = Program::new();
        let mut f = Function::new("main");
        let x = f.fresh_reg();
        let b1 = f.add_block();
        f.blocks[0].insts = vec![Inst::Mov {
            dst: x,
            src: Operand::ImmFloat(1.0),
        }];
        f.blocks[0].term = Terminator::Jump(b1);
        f.blocks[b1.index()].insts = vec![Inst::Mov {
            dst: x,
            src: Operand::ImmInt(1),
        }];
        f.blocks[b1.index()].term = Terminator::Return(Some(x.into()));
        p.add_function(f);
        assert_eq!(reg_banks(&p)[0], vec![RegBank::Tagged]);
    }

    #[test]
    fn read_before_write_of_a_float_register_is_tagged() {
        // x is read (returned) along a path where only the implicit Int(0)
        // init reaches it, but a float is written on the other path.
        let mut p = Program::new();
        let mut f = Function::new("main");
        let c = f.fresh_reg();
        let x = f.fresh_reg();
        let wr = f.add_block();
        let out = f.add_block();
        f.blocks[0].insts = vec![Inst::Mov {
            dst: c,
            src: Operand::ImmInt(0),
        }];
        f.blocks[0].term = Terminator::Branch {
            cond: c,
            taken: wr,
            not_taken: out,
        };
        f.blocks[wr.index()].insts = vec![Inst::Mov {
            dst: x,
            src: Operand::ImmFloat(2.5),
        }];
        f.blocks[wr.index()].term = Terminator::Jump(out);
        f.blocks[out.index()].term = Terminator::Return(Some(x.into()));
        p.add_function(f);
        assert_eq!(reg_banks(&p)[0][x.0 as usize], RegBank::Tagged);
    }

    #[test]
    fn loads_from_an_int_global_stay_int_banked() {
        let mut p = Program::new();
        let g = p.add_global(Global::zeroed("g", 8));
        let mut f = Function::new("main");
        let v = f.fresh_reg();
        f.blocks[0].insts = vec![
            Inst::Store {
                src: Operand::ImmInt(3),
                addr: Address::global(g, 0),
                ty: Ty::Int,
            },
            Inst::Load {
                dst: v,
                addr: Address::global(g, 0),
                ty: Ty::Int,
            },
        ];
        f.blocks[0].term = Terminator::Return(Some(v.into()));
        p.add_function(f);
        assert_eq!(reg_banks(&p)[0], vec![RegBank::Int]);
    }

    #[test]
    fn a_float_store_poisons_the_global_region() {
        let mut p = Program::new();
        let g = p.add_global(Global::zeroed("g", 8));
        let mut f = Function::new("main");
        let v = f.fresh_reg();
        f.blocks[0].insts = vec![
            Inst::Store {
                src: Operand::ImmFloat(1.5),
                addr: Address::global(g, 3),
                ty: Ty::Float,
            },
            Inst::Load {
                dst: v,
                addr: Address::global(g, 0),
                ty: Ty::Int,
            },
        ];
        f.blocks[0].term = Terminator::Return(Some(v.into()));
        p.add_function(f);
        // Int(0) init joined with Float store -> Top -> tagged load dst.
        assert_eq!(reg_banks(&p)[0], vec![RegBank::Tagged]);
    }

    #[test]
    fn call_results_and_params_flow_across_functions() {
        // helper(k) { return k + 1 }  main { r = helper(2); return r }
        let mut p = Program::new();
        let mut main = Function::new("main");
        let r = main.fresh_reg();
        main.blocks[0].insts = vec![Inst::Call {
            func: FuncId(1),
            args: vec![Operand::ImmInt(2)],
            dst: Some(r),
        }];
        main.blocks[0].term = Terminator::Return(Some(r.into()));
        p.add_function(main);
        let mut helper = Function::new("helper");
        let k = helper.fresh_reg();
        let t = helper.fresh_reg();
        helper.params = vec![k];
        helper.blocks[0].insts = vec![Inst::Bin {
            op: BinOp::Add,
            ty: Ty::Int,
            dst: t,
            lhs: k.into(),
            rhs: Operand::ImmInt(1),
        }];
        helper.blocks[0].term = Terminator::Return(Some(t.into()));
        p.add_function(helper);
        let banks = reg_banks(&p);
        assert_eq!(banks[1], vec![RegBank::Int, RegBank::Int]);
        assert_eq!(banks[0], vec![RegBank::Int]);
    }

    #[test]
    fn float_returning_call_dst_is_tagged_for_retention() {
        // helper() { return 1.5 }  main { r = helper(); return r }
        // The callee may abort (budget/depth) leaving r at its Int(0) init,
        // so r cannot live in the float bank.
        let mut p = Program::new();
        let mut main = Function::new("main");
        let r = main.fresh_reg();
        main.blocks[0].insts = vec![Inst::Call {
            func: FuncId(1),
            args: vec![],
            dst: Some(r),
        }];
        main.blocks[0].term = Terminator::Return(Some(r.into()));
        p.add_function(main);
        let mut helper = Function::new("helper");
        helper.blocks[0].term = Terminator::Return(Some(Operand::ImmFloat(1.5)));
        p.add_function(helper);
        assert_eq!(reg_banks(&p)[0], vec![RegBank::Tagged]);
    }

    #[test]
    fn stored_first_float_slot_untags_per_slot() {
        // frame[0] = 2.5; x = frame[0] — the classic -O0 float local.  The
        // slot is always written before read, so the Int(0) init is
        // unobservable and the slot (and the load's destination) untag.
        let mut p = Program::new();
        let mut f = Function::new("main");
        f.frame_words = 2;
        let x = f.fresh_reg();
        f.blocks[0].insts = vec![
            Inst::Store {
                src: Operand::ImmFloat(2.5),
                addr: Address::frame(0),
                ty: Ty::Float,
            },
            Inst::Load {
                dst: x,
                addr: Address::frame(0),
                ty: Ty::Float,
            },
        ];
        f.blocks[0].term = Terminator::Return(Some(x.into()));
        p.add_function(f);
        assert_eq!(frame_banks(&p)[0], RegBank::Float);
        assert_eq!(reg_banks(&p)[0], vec![RegBank::Float]);
    }

    #[test]
    fn read_before_write_float_slot_stays_tagged() {
        // One path loads frame[0] before the float store reaches it: the
        // Int(0) init joins the Float store and the slot must stay tagged.
        let mut p = Program::new();
        let mut f = Function::new("main");
        f.frame_words = 1;
        let c = f.fresh_reg();
        let x = f.fresh_reg();
        let wr = f.add_block();
        let out = f.add_block();
        f.blocks[0].insts = vec![Inst::Mov {
            dst: c,
            src: Operand::ImmInt(0),
        }];
        f.blocks[0].term = Terminator::Branch {
            cond: c,
            taken: wr,
            not_taken: out,
        };
        f.blocks[wr.index()].insts = vec![Inst::Store {
            src: Operand::ImmFloat(1.5),
            addr: Address::frame(0),
            ty: Ty::Float,
        }];
        f.blocks[wr.index()].term = Terminator::Jump(out);
        f.blocks[out.index()].insts = vec![Inst::Load {
            dst: x,
            addr: Address::frame(0),
            ty: Ty::Float,
        }];
        f.blocks[out.index()].term = Terminator::Return(Some(x.into()));
        p.add_function(f);
        assert_eq!(frame_banks(&p)[0], RegBank::Tagged);
        assert_eq!(reg_banks(&p)[0][x.0 as usize], RegBank::Tagged);
    }

    #[test]
    fn mixed_frames_type_slot_by_slot() {
        // frame[0] holds ints, frame[1] holds floats; each untags separately
        // (whole-frame granularity would tag both).
        let mut p = Program::new();
        let mut f = Function::new("main");
        f.frame_words = 2;
        let i = f.fresh_reg();
        let x = f.fresh_reg();
        f.blocks[0].insts = vec![
            Inst::Store {
                src: Operand::ImmInt(7),
                addr: Address::frame(0),
                ty: Ty::Int,
            },
            Inst::Store {
                src: Operand::ImmFloat(0.5),
                addr: Address::frame(1),
                ty: Ty::Float,
            },
            Inst::Load {
                dst: i,
                addr: Address::frame(0),
                ty: Ty::Int,
            },
            Inst::Load {
                dst: x,
                addr: Address::frame(1),
                ty: Ty::Float,
            },
        ];
        f.blocks[0].term = Terminator::Return(Some(i.into()));
        p.add_function(f);
        assert_eq!(frame_banks(&p), vec![RegBank::Int, RegBank::Float]);
        let regs = reg_banks(&p);
        assert_eq!(regs[0][i.0 as usize], RegBank::Int);
        assert_eq!(regs[0][x.0 as usize], RegBank::Float);
    }

    #[test]
    fn dynamic_stores_poison_every_slot() {
        // frame[r] = 1.5 may hit any slot, so the int slot written before it
        // joins Float and degrades to Tagged.
        let mut p = Program::new();
        let mut f = Function::new("main");
        f.frame_words = 2;
        let r = f.fresh_reg();
        f.blocks[0].insts = vec![
            Inst::Store {
                src: Operand::ImmInt(3),
                addr: Address::frame(0),
                ty: Ty::Int,
            },
            Inst::Mov {
                dst: r,
                src: Operand::ImmInt(1),
            },
            Inst::Store {
                src: Operand::ImmFloat(1.5),
                addr: Address {
                    base: MemBase::Frame,
                    offset: 0,
                    index: Some(r),
                    scale: 1,
                },
                ty: Ty::Float,
            },
        ];
        f.blocks[0].term = Terminator::Return(None);
        p.add_function(f);
        // Slot 0 joins Int (static store) with Float (dynamic store) -> Top.
        // Slot 1 is never read, so only the dynamic Float store reaches it:
        // it lands in the float bank, which no read can ever observe.
        assert_eq!(frame_banks(&p), vec![RegBank::Tagged, RegBank::Float]);
    }

    #[test]
    fn static_offsets_wrap_to_their_runtime_slot() {
        // frame_words = 2, so offset 3 wraps to slot 1 (matching the
        // executor's rem_euclid semantics): the float store lands there and
        // slot 1 untags while slot 0 stays at its Bot -> Int default.
        let mut p = Program::new();
        let mut f = Function::new("main");
        f.frame_words = 2;
        let x = f.fresh_reg();
        f.blocks[0].insts = vec![
            Inst::Store {
                src: Operand::ImmFloat(4.25),
                addr: Address::frame(3),
                ty: Ty::Float,
            },
            Inst::Load {
                dst: x,
                addr: Address::frame(1),
                ty: Ty::Float,
            },
        ];
        f.blocks[0].term = Terminator::Return(Some(x.into()));
        p.add_function(f);
        assert_eq!(frame_banks(&p), vec![RegBank::Int, RegBank::Float]);
    }

    #[test]
    fn entry_function_params_include_the_implicit_init() {
        // Entry "main" has a parameter (never supplied): it reads Int(0).
        let mut p = Program::new();
        let mut main = Function::new("main");
        let a = main.fresh_reg();
        main.params = vec![a];
        main.blocks[0].insts = vec![Inst::Bin {
            op: BinOp::Add,
            ty: Ty::Float,
            dst: a,
            lhs: a.into(),
            rhs: Operand::ImmFloat(1.0),
        }];
        main.blocks[0].term = Terminator::Return(Some(a.into()));
        p.add_function(main);
        // a joins Int (implicit init, read before write) and Float (the add).
        assert_eq!(reg_banks(&p)[0], vec![RegBank::Tagged]);
    }
}
