//! Random valid-program generators, shared between the differential property
//! suite (`crates/uarch/tests/differential_prop.rs`) and the `bsg-verify`
//! sweeps.
//!
//! The generators only ever produce *valid* programs (register ids below
//! `num_regs`, call targets and branch targets in range, non-empty globals),
//! matching the invariants `ExecImage` validates at build time — which is
//! exactly what the verifier's zero-false-positive acceptance criterion
//! needs: every generated program must decode to an image `verify_image`
//! accepts.  Programs may loop forever or recurse unboundedly; executions of
//! them therefore carry instruction budgets (the verifier itself never runs
//! them).

use bsg_ir::program::{Function, Global, GlobalInit, Program};
use bsg_ir::types::{BlockId, FuncId, Reg, Ty, Value};
use bsg_ir::visa::{Address, BinOp, Inst, MemBase, Operand, Terminator, UnOp};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Every binary operator the generators draw from.
pub const BIN_OPS: [BinOp; 16] = [
    BinOp::Add,
    BinOp::Sub,
    BinOp::Mul,
    BinOp::Div,
    BinOp::Rem,
    BinOp::And,
    BinOp::Or,
    BinOp::Xor,
    BinOp::Shl,
    BinOp::Shr,
    BinOp::Lt,
    BinOp::Le,
    BinOp::Gt,
    BinOp::Ge,
    BinOp::Eq,
    BinOp::Ne,
];

/// Every unary operator the generators draw from.
pub const UN_OPS: [UnOp; 10] = [
    UnOp::Neg,
    UnOp::Not,
    UnOp::LogicalNot,
    UnOp::ToFloat,
    UnOp::ToInt,
    UnOp::Sqrt,
    UnOp::Sin,
    UnOp::Cos,
    UnOp::Log,
    UnOp::Abs,
];

/// A seeded generator of random valid VISA programs: loops, calls, mixed
/// int/float register pressure, frame and global traffic, folded memory
/// operands.
pub struct Gen {
    /// Generator state (public so callers can pre-draw, e.g. a random global
    /// count, from the same stream — the differential suite does).
    pub rng: SmallRng,
    /// How many globals [`Gen::program`] declares.
    pub nglobals: u32,
}

impl Gen {
    /// A generator seeded from `seed` with `nglobals` globals.
    pub fn from_seed(seed: u64, nglobals: u32) -> Self {
        Gen {
            rng: SmallRng::seed_from_u64(seed),
            nglobals,
        }
    }

    /// A random register below `num_regs`.
    pub fn reg(&mut self, num_regs: u32) -> Reg {
        Reg(self.rng.gen_range(0u32..num_regs))
    }

    /// A random (global or frame, optionally indexed) address.
    pub fn address(&mut self, num_regs: u32) -> Address {
        let base = if self.nglobals > 0 && self.rng.gen_range(0u32..3) > 0 {
            MemBase::Global(bsg_ir::types::GlobalId(
                self.rng.gen_range(0u32..self.nglobals),
            ))
        } else {
            MemBase::Frame
        };
        Address {
            base,
            offset: self.rng.gen_range(-4i64..24),
            index: if self.rng.gen_range(0u32..2) == 0 {
                Some(self.reg(num_regs))
            } else {
                None
            },
            scale: self.rng.gen_range(1i64..4),
        }
    }

    /// A random operand (register-biased).
    pub fn operand(&mut self, num_regs: u32) -> Operand {
        match self.rng.gen_range(0u32..8) {
            0..=3 => Operand::Reg(self.reg(num_regs)),
            4 => Operand::ImmInt(self.rng.gen_range(-40i64..40)),
            5 => Operand::ImmFloat(self.rng.gen_range(-8i64..8) as f64 * 0.75),
            _ => Operand::Mem(self.address(num_regs)),
        }
    }

    /// A random type (int-biased 2:1).
    pub fn ty(&mut self) -> Ty {
        if self.rng.gen_range(0u32..3) == 0 {
            Ty::Float
        } else {
            Ty::Int
        }
    }

    /// A random instruction valid for a function with `num_regs` registers
    /// in a program with `nfuncs` functions.
    pub fn inst(&mut self, num_regs: u32, nfuncs: u32) -> Inst {
        match self.rng.gen_range(0u32..10) {
            0..=2 => Inst::Bin {
                op: BIN_OPS[self.rng.gen_range(0usize..BIN_OPS.len())],
                ty: self.ty(),
                dst: self.reg(num_regs),
                lhs: self.operand(num_regs),
                rhs: self.operand(num_regs),
            },
            3 => Inst::Un {
                op: UN_OPS[self.rng.gen_range(0usize..UN_OPS.len())],
                ty: self.ty(),
                dst: self.reg(num_regs),
                src: self.operand(num_regs),
            },
            4 | 5 => Inst::Mov {
                dst: self.reg(num_regs),
                src: match self.rng.gen_range(0u32..3) {
                    0 => Operand::Reg(self.reg(num_regs)),
                    1 => Operand::ImmInt(self.rng.gen_range(-100i64..100)),
                    _ => Operand::ImmFloat(self.rng.gen_range(-50i64..50) as f64 / 4.0),
                },
            },
            6 => Inst::Load {
                dst: self.reg(num_regs),
                addr: self.address(num_regs),
                ty: self.ty(),
            },
            7 => Inst::Store {
                src: self.operand(num_regs),
                addr: self.address(num_regs),
                ty: self.ty(),
            },
            8 => Inst::Call {
                func: FuncId(self.rng.gen_range(0u32..nfuncs)),
                args: (0..self.rng.gen_range(0usize..4))
                    .map(|_| self.operand(num_regs))
                    .collect(),
                dst: if self.rng.gen_range(0u32..2) == 0 {
                    Some(self.reg(num_regs))
                } else {
                    None
                },
            },
            _ => Inst::Print {
                src: self.operand(num_regs),
            },
        }
    }

    /// A complete random program: globals with mixed initializers, 1–3
    /// functions of 1–4 blocks each, every block non-empty.
    pub fn program(&mut self) -> Program {
        let mut p = Program::new();
        for g in 0..self.nglobals {
            let elems = self.rng.gen_range(1usize..12);
            let init = match self.rng.gen_range(0u32..4) {
                0 => GlobalInit::Zero,
                1 => GlobalInit::Iota,
                2 => GlobalInit::Random {
                    seed: self.rng.gen_range(1u64..1000),
                    modulus: 64,
                },
                _ => GlobalInit::Values(
                    (0..self.rng.gen_range(0usize..elems + 1))
                        .map(|i| {
                            if self.rng.gen_range(0u32..3) == 0 {
                                Value::Float(i as f64 * 1.25)
                            } else {
                                Value::Int(i as i64 * 3 - 4)
                            }
                        })
                        .collect(),
                ),
            };
            let ty = if self.rng.gen_range(0u32..3) == 0 {
                Ty::Float
            } else {
                Ty::Int
            };
            p.add_global(Global {
                name: format!("g{g}"),
                elems,
                ty,
                init,
            });
        }
        let nfuncs = self.rng.gen_range(1u32..4);
        for fi in 0..nfuncs {
            let mut f = Function::new(format!("f{fi}"));
            let num_regs = self.rng.gen_range(1u32..8);
            for _ in 0..num_regs {
                f.fresh_reg();
            }
            f.frame_words = self.rng.gen_range(0u32..8);
            let nparams = self.rng.gen_range(0u32..num_regs.min(3) + 1);
            f.params = (0..nparams).map(Reg).collect();
            let nblocks = self.rng.gen_range(1u32..5);
            for _ in 1..nblocks {
                f.add_block();
            }
            for bi in 0..nblocks {
                // At least one instruction per block: a cycle of empty
                // blocks joined by Jump terminators would execute zero
                // budgeted instructions and never terminate (on any engine —
                // jumps are free by design).
                let ninsts = self.rng.gen_range(1usize..6);
                let insts: Vec<Inst> = (0..ninsts).map(|_| self.inst(num_regs, nfuncs)).collect();
                let term = match self.rng.gen_range(0u32..4) {
                    0 => Terminator::Return(if self.rng.gen_range(0u32..2) == 0 {
                        None
                    } else {
                        Some(self.operand(num_regs))
                    }),
                    1 | 2 => Terminator::Jump(BlockId(self.rng.gen_range(0u32..nblocks))),
                    _ => Terminator::Branch {
                        cond: self.reg(num_regs),
                        taken: BlockId(self.rng.gen_range(0u32..nblocks)),
                        not_taken: BlockId(self.rng.gen_range(0u32..nblocks)),
                    },
                };
                f.blocks[bi as usize].insts = insts;
                f.blocks[bi as usize].term = term;
            }
            p.add_function(f);
        }
        p.entry = FuncId(0);
        p
    }
}

/// Generates an `-O0`-shaped program: a counted loop whose body is made of
/// frame-slot read-modify-write fragments over a **mixed int/float** frame —
/// the exact shapes the per-slot typing untags and the frame-fusion pass
/// collapses (`LoadFCmpBr` headers, `LoadFAluStoreF` int bodies,
/// `LoadFILoadG` index reloads, `StoreFIJump` latches; float bodies run as
/// unfused untagged float-slot steps) — plus register-indexed (dynamic)
/// frame and global traffic, and slots that are deliberately left to their
/// implicit `Int(0)` initialization so the init-observability analysis is
/// exercised in both directions.
pub fn o0_frame_program(seed: u64) -> Program {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut p = Program::new();
    let g = p.add_global(Global {
        name: "g".into(),
        elems: 8,
        ty: Ty::Int,
        init: GlobalInit::Iota,
    });
    let mut f = Function::new("main");
    let nslots = rng.gen_range(2u32..6);
    f.frame_words = nslots;
    // Slot 0 is the int induction variable; the rest choose a type, and a
    // subset skips initialization (read-before-write of the Int(0) init —
    // which forces an uninitialized "float" slot onto the tagged bank).
    let slot_ty: Vec<Ty> = (0..nslots)
        .map(|s| {
            if s == 0 || rng.gen_range(0u32..2) == 0 {
                Ty::Int
            } else {
                Ty::Float
            }
        })
        .collect();
    let header = f.add_block();
    let body = f.add_block();
    let exit = f.add_block();

    let mut init = vec![Inst::Store {
        src: Operand::ImmInt(0),
        addr: Address::frame(0),
        ty: Ty::Int,
    }];
    for s in 1..nslots {
        if rng.gen_range(0u32..4) > 0 {
            init.push(Inst::Store {
                src: match slot_ty[s as usize] {
                    Ty::Int => Operand::ImmInt(rng.gen_range(-9i64..9)),
                    Ty::Float => Operand::ImmFloat(rng.gen_range(-16i64..16) as f64 * 0.25),
                },
                addr: Address::frame(i64::from(s)),
                ty: slot_ty[s as usize],
            });
        }
    }
    f.blocks[0].insts = init;
    f.blocks[0].term = Terminator::Jump(header);

    // Header: reload the induction variable, compare, branch (fuses to
    // LoadFCmpBr).  -O0 style: a fresh register per use.
    let hr = f.fresh_reg();
    let hc = f.fresh_reg();
    f.blocks[header.index()].insts = vec![
        Inst::Load {
            dst: hr,
            addr: Address::frame(0),
            ty: Ty::Int,
        },
        Inst::Bin {
            op: BinOp::Lt,
            ty: Ty::Int,
            dst: hc,
            lhs: hr.into(),
            rhs: Operand::ImmInt(rng.gen_range(2i64..7)),
        },
    ];
    f.blocks[header.index()].term = Terminator::Branch {
        cond: hc,
        taken: body,
        not_taken: exit,
    };

    // Body: random frame-slot fragments.
    let mut insts: Vec<Inst> = Vec::new();
    let int_slots: Vec<u32> = (0..nslots)
        .filter(|s| slot_ty[*s as usize] == Ty::Int)
        .collect();
    let float_slots: Vec<u32> = (0..nslots)
        .filter(|s| slot_ty[*s as usize] == Ty::Float)
        .collect();
    for _ in 0..rng.gen_range(1usize..5) {
        match rng.gen_range(0u32..6) {
            // Int RMW: load slot -> int ALU -> store slot.
            0 | 1 => {
                let s = int_slots[rng.gen_range(0usize..int_slots.len())];
                let (r1, r2) = (f.fresh_reg(), f.fresh_reg());
                insts.push(Inst::Load {
                    dst: r1,
                    addr: Address::frame(i64::from(s)),
                    ty: Ty::Int,
                });
                insts.push(Inst::Bin {
                    op: [BinOp::Add, BinOp::Sub, BinOp::Xor][rng.gen_range(0usize..3)],
                    ty: Ty::Int,
                    dst: r2,
                    lhs: r1.into(),
                    rhs: Operand::ImmInt(rng.gen_range(-5i64..6)),
                });
                insts.push(Inst::Store {
                    src: r2.into(),
                    addr: Address::frame(i64::from(s)),
                    ty: Ty::Int,
                });
            }
            // Float RMW (ALU or unary): load -> op -> store, unfused (no
            // fused shape addresses a float slot).
            2 | 3 if !float_slots.is_empty() => {
                let s = float_slots[rng.gen_range(0usize..float_slots.len())];
                let d = float_slots[rng.gen_range(0usize..float_slots.len())];
                let (r1, r2) = (f.fresh_reg(), f.fresh_reg());
                insts.push(Inst::Load {
                    dst: r1,
                    addr: Address::frame(i64::from(s)),
                    ty: Ty::Float,
                });
                if rng.gen_range(0u32..2) == 0 {
                    insts.push(Inst::Bin {
                        op: [BinOp::Add, BinOp::Mul][rng.gen_range(0usize..2)],
                        ty: Ty::Float,
                        dst: r2,
                        lhs: r1.into(),
                        rhs: Operand::ImmFloat(rng.gen_range(1i64..5) as f64 * 0.5),
                    });
                } else {
                    insts.push(Inst::Un {
                        op: [UnOp::Neg, UnOp::Sqrt, UnOp::Cos][rng.gen_range(0usize..3)],
                        ty: Ty::Float,
                        dst: r2,
                        src: r1.into(),
                    });
                }
                insts.push(Inst::Store {
                    src: r2.into(),
                    addr: Address::frame(i64::from(d)),
                    ty: Ty::Float,
                });
            }
            // Dynamic (register-indexed) frame access: hits the general
            // per-slot bank table at run time.
            4 => {
                let idx = f.fresh_reg();
                let v = f.fresh_reg();
                insts.push(Inst::Load {
                    dst: idx,
                    addr: Address::frame(0),
                    ty: Ty::Int,
                });
                let addr = Address {
                    base: MemBase::Frame,
                    offset: rng.gen_range(-1i64..3),
                    index: Some(idx),
                    scale: rng.gen_range(1i64..3),
                };
                if rng.gen_range(0u32..2) == 0 {
                    insts.push(Inst::Load {
                        dst: v,
                        addr,
                        ty: Ty::Int,
                    });
                    insts.push(Inst::Print { src: v.into() });
                } else {
                    insts.push(Inst::Store {
                        src: Operand::ImmInt(rng.gen_range(0i64..9)),
                        addr,
                        ty: Ty::Int,
                    });
                }
            }
            // Indexed global traffic: an index reload feeding a global load
            // (LoadFILoadG), then an unfused indexed store.
            _ => {
                let idx = f.fresh_reg();
                let v = f.fresh_reg();
                insts.push(Inst::Load {
                    dst: idx,
                    addr: Address::frame(0),
                    ty: Ty::Int,
                });
                insts.push(Inst::Load {
                    dst: v,
                    addr: Address::global_indexed(g, 0, idx, 1),
                    ty: Ty::Int,
                });
                insts.push(Inst::Store {
                    src: v.into(),
                    addr: Address::global_indexed(g, 1, idx, 1),
                    ty: Ty::Int,
                });
            }
        }
    }
    // Latch: induction RMW, then jump (fuses the store into StoreFIJump).
    let (li, ln) = (f.fresh_reg(), f.fresh_reg());
    insts.push(Inst::Load {
        dst: li,
        addr: Address::frame(0),
        ty: Ty::Int,
    });
    insts.push(Inst::Bin {
        op: BinOp::Add,
        ty: Ty::Int,
        dst: ln,
        lhs: li.into(),
        rhs: Operand::ImmInt(1),
    });
    insts.push(Inst::Store {
        src: ln.into(),
        addr: Address::frame(0),
        ty: Ty::Int,
    });
    f.blocks[body.index()].insts = insts;
    f.blocks[body.index()].term = Terminator::Jump(header);

    // Exit: read every slot back (read-before-write for uninitialized ones).
    let mut out = Vec::new();
    for s in 0..nslots {
        let r = f.fresh_reg();
        out.push(Inst::Load {
            dst: r,
            addr: Address::frame(i64::from(s)),
            ty: slot_ty[s as usize],
        });
        out.push(Inst::Print { src: r.into() });
    }
    f.blocks[exit.index()].insts = out;
    f.blocks[exit.index()].term = Terminator::Return(Some(Operand::Mem(Address::frame(
        i64::from(rng.gen_range(0u32..nslots)),
    ))));
    p.add_function(f);
    p
}
