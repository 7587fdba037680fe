//! Differential tests: the predecoded engine — fused *and* unfused — must be
//! observably identical to the legacy tree-walking interpreter: same
//! [`ExecOutcome`], same event stream (instructions, blocks, edges, branches,
//! calls, in the same order, with the same dense indices), and same
//! pipeline result when all three drive the scalar oracle timing model.

use bsg_ir::program::{Function, Global, Program};
use bsg_ir::types::{BlockId, FuncId, Ty, Value};
use bsg_ir::visa::{Address, BinOp, Inst, Operand, Terminator, UnOp};
use bsg_uarch::exec::{
    execute_image, execute_legacy, ExecConfig, ExecOutcome, InstEvent, InstSite, Observer,
};
use bsg_uarch::image::ExecImage;
use bsg_uarch::pipeline::{PipelineConfig, PipelineSim};

/// Records every observer callback verbatim.
#[derive(Debug, Default, Clone, PartialEq)]
struct Recording {
    events: Vec<Event>,
}

#[derive(Debug, Clone, PartialEq)]
enum Event {
    Inst(InstEvent),
    Block(FuncId, BlockId, u32),
    Edge(FuncId, BlockId, BlockId, u32),
    Branch(InstSite, u32, bool),
    Call(FuncId, FuncId),
}

impl Observer for Recording {
    fn on_inst(&mut self, event: &InstEvent) {
        self.events.push(Event::Inst(*event));
    }
    fn on_block(&mut self, func: FuncId, block: BlockId, block_idx: u32) {
        self.events.push(Event::Block(func, block, block_idx));
    }
    fn on_edge(&mut self, func: FuncId, from: BlockId, to: BlockId, edge_idx: u32) {
        self.events.push(Event::Edge(func, from, to, edge_idx));
    }
    fn on_branch(&mut self, site: InstSite, site_id: u32, taken: bool) {
        self.events.push(Event::Branch(site, site_id, taken));
    }
    fn on_call(&mut self, caller: FuncId, callee: FuncId) {
        self.events.push(Event::Call(caller, callee));
    }
}

fn assert_identical(program: &Program, config: &ExecConfig) -> ExecOutcome {
    let fused_image = ExecImage::new(program);
    let unfused_image = ExecImage::unfused(program);
    let mut fused_rec = Recording::default();
    let mut unfused_rec = Recording::default();
    let mut old_rec = Recording::default();
    let fused = execute_image(&fused_image, &mut fused_rec, config);
    let unfused = execute_image(&unfused_image, &mut unfused_rec, config);
    let old = execute_legacy(program, &mut old_rec, config);
    assert_eq!(fused, old, "fused vs legacy outcomes diverge");
    assert_eq!(unfused, old, "unfused vs legacy outcomes diverge");
    for (what, rec) in [("fused", &fused_rec), ("unfused", &unfused_rec)] {
        assert_eq!(
            rec.events.len(),
            old_rec.events.len(),
            "{what} event counts diverge: {} vs {}",
            rec.events.len(),
            old_rec.events.len()
        );
        for (i, (n, o)) in rec.events.iter().zip(&old_rec.events).enumerate() {
            assert_eq!(n, o, "{what} event {i} diverges");
        }
    }

    let mut fused_sim = PipelineSim::from_image(PipelineConfig::ptlsim_2wide(8), &fused_image);
    let mut unfused_sim = PipelineSim::from_image(PipelineConfig::ptlsim_2wide(8), &unfused_image);
    let mut old_sim = PipelineSim::from_image(PipelineConfig::ptlsim_2wide(8), &fused_image);
    execute_image(&fused_image, &mut fused_sim, config);
    execute_image(&unfused_image, &mut unfused_sim, config);
    execute_legacy(program, &mut old_sim, config);
    assert_eq!(
        fused_sim.result(),
        old_sim.result(),
        "fused pipeline results diverge"
    );
    assert_eq!(
        unfused_sim.result(),
        old_sim.result(),
        "unfused pipeline results diverge"
    );
    fused
}

/// Kernel with loops, calls, conditional branches, frame traffic, folded
/// memory operands, prints and float math — every step kind in one program.
fn torture_program() -> Program {
    let mut p = Program::new();
    let g = p.add_global(Global::zeroed("data", 512));

    // helper(k): data[k % 512] += k; return data[k % 512] * 2  (uses frame slot)
    let mut helper = Function::new("helper");
    let k = helper.fresh_reg();
    helper.params = vec![k];
    let idx = helper.fresh_reg();
    let v = helper.fresh_reg();
    let slot = helper.fresh_frame_slot();
    helper.blocks[0].insts = vec![
        Inst::Store {
            src: k.into(),
            addr: Address::frame(slot),
            ty: Ty::Int,
        },
        Inst::Bin {
            op: BinOp::Rem,
            ty: Ty::Int,
            dst: idx,
            lhs: k.into(),
            rhs: Operand::ImmInt(512),
        },
        Inst::Load {
            dst: v,
            addr: Address::global_indexed(g, 0, idx, 1),
            ty: Ty::Int,
        },
        Inst::Bin {
            op: BinOp::Add,
            ty: Ty::Int,
            dst: v,
            lhs: v.into(),
            rhs: Operand::Mem(Address::frame(slot)),
        },
        Inst::Store {
            src: v.into(),
            addr: Address::global_indexed(g, 0, idx, 1),
            ty: Ty::Int,
        },
        Inst::Bin {
            op: BinOp::Mul,
            ty: Ty::Int,
            dst: v,
            lhs: v.into(),
            rhs: Operand::ImmInt(2),
        },
    ];
    helper.blocks[0].term = Terminator::Return(Some(v.into()));

    // main: loop over i, branch on parity, call helper, float accumulate, print.
    let mut main = Function::new("main");
    let i = main.fresh_reg();
    let c = main.fresh_reg();
    let par = main.fresh_reg();
    let acc = main.fresh_reg();
    let f = main.fresh_reg();
    let r = main.fresh_reg();
    let header = main.add_block();
    let even = main.add_block();
    let odd = main.add_block();
    let latch = main.add_block();
    let exit = main.add_block();
    main.blocks[0].insts = vec![
        Inst::Mov {
            dst: i,
            src: Operand::ImmInt(0),
        },
        Inst::Mov {
            dst: acc,
            src: Operand::ImmInt(0),
        },
        Inst::Mov {
            dst: f,
            src: Operand::ImmFloat(1.0),
        },
    ];
    main.blocks[0].term = Terminator::Jump(header);
    main.blocks[header.index()].insts = vec![Inst::Bin {
        op: BinOp::Lt,
        ty: Ty::Int,
        dst: c,
        lhs: i.into(),
        rhs: Operand::ImmInt(300),
    }];
    main.blocks[header.index()].term = Terminator::Branch {
        cond: c,
        taken: even,
        not_taken: exit,
    };
    main.blocks[even.index()].insts = vec![Inst::Bin {
        op: BinOp::And,
        ty: Ty::Int,
        dst: par,
        lhs: i.into(),
        rhs: Operand::ImmInt(1),
    }];
    main.blocks[even.index()].term = Terminator::Branch {
        cond: par,
        taken: odd,
        not_taken: latch,
    };
    main.blocks[odd.index()].insts = vec![
        Inst::Call {
            func: FuncId(1),
            args: vec![i.into()],
            dst: Some(r),
        },
        Inst::Bin {
            op: BinOp::Add,
            ty: Ty::Int,
            dst: acc,
            lhs: acc.into(),
            rhs: r.into(),
        },
        Inst::Un {
            op: UnOp::ToFloat,
            ty: Ty::Float,
            dst: f,
            src: acc.into(),
        },
        Inst::Un {
            op: UnOp::Sqrt,
            ty: Ty::Float,
            dst: f,
            src: f.into(),
        },
    ];
    main.blocks[odd.index()].term = Terminator::Jump(latch);
    main.blocks[latch.index()].insts = vec![
        Inst::Print { src: acc.into() },
        Inst::Bin {
            op: BinOp::Add,
            ty: Ty::Int,
            dst: i,
            lhs: i.into(),
            rhs: Operand::ImmInt(1),
        },
    ];
    main.blocks[latch.index()].term = Terminator::Jump(header);
    main.blocks[exit.index()].term = Terminator::Return(Some(acc.into()));

    p.add_function(main);
    p.add_function(helper);
    p
}

/// f(n) = n <= 1 ? 1 : f(n - 1) + f(n - 2): deep call tree, frame pressure.
fn recursive_program(depth_limit: usize) -> (Program, ExecConfig) {
    let mut p = Program::new();
    let mut f = Function::new("fib");
    let n = f.fresh_reg();
    f.params = vec![n];
    let c = f.fresh_reg();
    let a = f.fresh_reg();
    let b = f.fresh_reg();
    let t = f.fresh_reg();
    let rec = f.add_block();
    let base = f.add_block();
    f.blocks[0].insts = vec![Inst::Bin {
        op: BinOp::Le,
        ty: Ty::Int,
        dst: c,
        lhs: n.into(),
        rhs: Operand::ImmInt(1),
    }];
    f.blocks[0].term = Terminator::Branch {
        cond: c,
        taken: base,
        not_taken: rec,
    };
    f.blocks[rec.index()].insts = vec![
        Inst::Bin {
            op: BinOp::Sub,
            ty: Ty::Int,
            dst: t,
            lhs: n.into(),
            rhs: Operand::ImmInt(1),
        },
        Inst::Call {
            func: FuncId(0),
            args: vec![t.into()],
            dst: Some(a),
        },
        Inst::Bin {
            op: BinOp::Sub,
            ty: Ty::Int,
            dst: t,
            lhs: n.into(),
            rhs: Operand::ImmInt(2),
        },
        Inst::Call {
            func: FuncId(0),
            args: vec![t.into()],
            dst: Some(b),
        },
        Inst::Bin {
            op: BinOp::Add,
            ty: Ty::Int,
            dst: a,
            lhs: a.into(),
            rhs: b.into(),
        },
    ];
    f.blocks[rec.index()].term = Terminator::Return(Some(a.into()));
    f.blocks[base.index()].term = Terminator::Return(Some(Operand::ImmInt(1)));
    p.add_function(f);

    let mut main = Function::new("main");
    let r = main.fresh_reg();
    main.blocks[0].insts = vec![Inst::Call {
        func: FuncId(0),
        args: vec![Operand::ImmInt(12)],
        dst: Some(r),
    }];
    main.blocks[0].term = Terminator::Return(Some(r.into()));
    let main_id = p.add_function(main);
    p.entry = main_id;
    (
        p,
        ExecConfig {
            max_instructions: u64::MAX,
            max_call_depth: depth_limit,
        },
    )
}

#[test]
fn torture_kernel_is_bit_identical() {
    let p = torture_program();
    let out = assert_identical(&p, &ExecConfig::default());
    assert!(out.completed);
    assert!(out.dynamic_instructions > 2_000);
    assert!(!out.printed.is_empty());
}

#[test]
fn recursion_is_bit_identical() {
    let (p, config) = recursive_program(64);
    let out = assert_identical(&p, &config);
    assert!(out.completed);
    assert_eq!(out.return_value, Some(Value::Int(233)), "fib(12)");
}

#[test]
fn call_depth_abort_is_bit_identical() {
    // Depth limit far below the fib(12) call tree: both engines must abort
    // identically, mid-execution.
    let (p, _) = recursive_program(64);
    assert_identical(
        &p,
        &ExecConfig {
            max_instructions: u64::MAX,
            max_call_depth: 5,
        },
    );
}

#[test]
fn instruction_budget_abort_is_bit_identical() {
    let p = torture_program();
    // Sweep budgets so the halt lands on every step kind at least once.
    for budget in [1u64, 2, 3, 5, 7, 10, 23, 100, 101, 102, 103, 997] {
        let out = assert_identical(
            &p,
            &ExecConfig {
                max_instructions: budget,
                max_call_depth: 256,
            },
        );
        assert!(!out.completed, "budget {budget} must halt the run");
    }
}

#[test]
fn zero_call_depth_is_bit_identical() {
    let p = torture_program();
    assert_identical(
        &p,
        &ExecConfig {
            max_instructions: u64::MAX,
            max_call_depth: 0,
        },
    );
}

/// Float-heavy kernel covering every float/unary step shape, untagged and
/// general:
/// reg∘reg, reg∘imm-float, reg∘imm-int, imm∘reg, memory-operand float ops,
/// float comparisons feeding branches, and unary ops with register,
/// immediate and memory sources.
fn float_program() -> Program {
    let mut p = Program::new();
    let g = p.add_global(Global::zeroed("fdata", 64));
    let mut f = Function::new("main");
    let i = f.fresh_reg();
    let c = f.fresh_reg();
    let x = f.fresh_reg();
    let y = f.fresh_reg();
    let z = f.fresh_reg();
    let header = f.add_block();
    let hot = f.add_block();
    let cold = f.add_block();
    let latch = f.add_block();
    let exit = f.add_block();
    f.blocks[0].insts = vec![
        Inst::Mov {
            dst: i,
            src: Operand::ImmInt(0),
        },
        Inst::Mov {
            dst: x,
            src: Operand::ImmFloat(1.5),
        },
        Inst::Store {
            src: Operand::ImmFloat(2.25),
            addr: Address::global(g, 3),
            ty: Ty::Float,
        },
    ];
    f.blocks[0].term = Terminator::Jump(header);
    f.blocks[header.index()].insts = vec![Inst::Bin {
        op: BinOp::Lt,
        ty: Ty::Int,
        dst: c,
        lhs: i.into(),
        rhs: Operand::ImmInt(200),
    }];
    f.blocks[header.index()].term = Terminator::Branch {
        cond: c,
        taken: hot,
        not_taken: exit,
    };
    f.blocks[hot.index()].insts = vec![
        // FloatAlu with an immediate-float rhs.
        Inst::Bin {
            op: BinOp::Mul,
            ty: Ty::Float,
            dst: y,
            lhs: x.into(),
            rhs: Operand::ImmFloat(1.0001),
        },
        // FloatAlu with an immediate-int rhs (int converts via as_float).
        Inst::Bin {
            op: BinOp::Add,
            ty: Ty::Float,
            dst: y,
            lhs: y.into(),
            rhs: Operand::ImmInt(1),
        },
        // FloatAlu: immediate lhs, register rhs.
        Inst::Bin {
            op: BinOp::Sub,
            ty: Ty::Float,
            dst: z,
            lhs: Operand::ImmFloat(100.0),
            rhs: y.into(),
        },
        // FloatAlu: both operands in registers.
        Inst::Bin {
            op: BinOp::Div,
            ty: Ty::Float,
            dst: z,
            lhs: z.into(),
            rhs: y.into(),
        },
        // General FloatBin: folded memory operand stays on the slow path.
        Inst::Bin {
            op: BinOp::Add,
            ty: Ty::Float,
            dst: z,
            lhs: z.into(),
            rhs: Operand::Mem(Address::global(g, 3)),
        },
        // General Un: float register source.
        Inst::Un {
            op: UnOp::Sqrt,
            ty: Ty::Float,
            dst: z,
            src: z.into(),
        },
        Inst::Un {
            op: UnOp::Neg,
            ty: Ty::Float,
            dst: z,
            src: z.into(),
        },
        // General Un: immediate source.
        Inst::Un {
            op: UnOp::Cos,
            ty: Ty::Float,
            dst: x,
            src: Operand::ImmFloat(0.5),
        },
        // Float comparison (general FloatBin producing an int) feeding a
        // branch.
        Inst::Bin {
            op: BinOp::Gt,
            ty: Ty::Float,
            dst: c,
            lhs: y.into(),
            rhs: z.into(),
        },
    ];
    f.blocks[hot.index()].term = Terminator::Branch {
        cond: c,
        taken: latch,
        not_taken: cold,
    };
    f.blocks[cold.index()].insts = vec![
        // Division by a zero float (defined: eval_bin semantics) and an
        // abs of a float register.
        Inst::Bin {
            op: BinOp::Div,
            ty: Ty::Float,
            dst: x,
            lhs: x.into(),
            rhs: Operand::ImmFloat(0.0),
        },
        Inst::Un {
            op: UnOp::Abs,
            ty: Ty::Float,
            dst: x,
            src: x.into(),
        },
    ];
    f.blocks[cold.index()].term = Terminator::Jump(latch);
    f.blocks[latch.index()].insts = vec![
        Inst::Store {
            src: z.into(),
            addr: Address::global_indexed(g, 0, i, 1),
            ty: Ty::Float,
        },
        Inst::Bin {
            op: BinOp::Add,
            ty: Ty::Int,
            dst: i,
            lhs: i.into(),
            rhs: Operand::ImmInt(1),
        },
    ];
    f.blocks[latch.index()].term = Terminator::Jump(header);
    f.blocks[exit.index()].insts = vec![Inst::Un {
        op: UnOp::ToInt,
        ty: Ty::Int,
        dst: i,
        src: z.into(),
    }];
    f.blocks[exit.index()].term = Terminator::Return(Some(i.into()));
    p.add_function(f);
    p
}

#[test]
fn float_and_unary_quickening_is_bit_identical() {
    let p = float_program();
    let out = assert_identical(&p, &ExecConfig::default());
    assert!(out.completed);
    assert!(out.dynamic_instructions > 2_000);
}

#[test]
fn float_kernel_aborts_are_bit_identical() {
    // Halt the run on top of the quickened float steps too.
    let p = float_program();
    for budget in [4u64, 9, 10, 11, 12, 13, 14, 15, 16, 17, 500] {
        let out = assert_identical(
            &p,
            &ExecConfig {
                max_instructions: budget,
                max_call_depth: 256,
            },
        );
        assert!(!out.completed, "budget {budget} must halt the run");
    }
}
