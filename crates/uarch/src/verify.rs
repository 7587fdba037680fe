//! Static verification of [`ExecImage`]s: machine-checks every invariant the
//! unchecked execution core assumes.
//!
//! The executor (`crate::exec`) indexes register banks, frame-slot banks,
//! global memory and the step array without bounds checks (release builds use
//! `get_unchecked`; see the ledger tags on the two `unsafe` blocks there).
//! Decode is what establishes those invariants, and until this module existed
//! the only evidence was code review.  [`verify_image`] re-derives each
//! invariant *from the decoded image alone* — a second, independent
//! implementation that never trusts decode — and fails with a structured
//! [`VerifyError`] naming the violated ledger invariant.
//!
//! The passes, in order:
//!
//! 1. **Structure** ([`invariant::STEP_STRUCTURE`]): the per-function block
//!    tables partition the step array, dense block indices are consistent
//!    with the image-wide tables, bank tables have the lengths the executor
//!    sizes its banks to, and a fused image agrees with its reference (the
//!    unfused decode of the same program) on every table the two share.
//! 2. **Per-step bounds and banks** ([`invariant::REG_BOUNDS`],
//!    [`invariant::REG_BANK`], [`invariant::GLOBAL_BOUNDS`],
//!    [`invariant::FRAME_SLOT_BOUNDS`], [`invariant::FRAME_SLOT_BANK`],
//!    [`invariant::EDGE_TARGET`], [`invariant::CALL_SITE`]): every register,
//!    slot, global and control-flow index in every step of **both** images —
//!    fused variants are checked through their decomposition, so a fused arm
//!    can never reference anything its constituents could not.
//! 3. **Fused replay** ([`invariant::FUSED_REPLAY`],
//!    [`invariant::TERMINATOR_PLACEMENT`]): a symbolic walk of every block of
//!    the fused image, decomposing each superinstruction into its constituent
//!    steps and requiring them to be semantically identical (`f64` compared
//!    bit-for-bit) to the reference's steps at the same pcs.  Because the
//!    executor charges budget, checks halt and emits observer events *per
//!    constituent*, decomposition equality is exactly the
//!    budget-decrement/halt/event-replay equivalence of the fused arm and its
//!    unfused sequence.  Terminator-absorbing shapes must end their block;
//!    non-absorbing shapes must not cross it.
//! 4. **Type dataflow** ([`invariant::REG_BANK`],
//!    [`invariant::FRAME_SLOT_BANK`]): an independent abstract interpretation
//!    over the unfused steps on the `{Bot < Int, Float < Top}` lattice
//!    (shared with `crate::typing`, so the transfer functions cannot drift),
//!    proving every untagged `i64` bank assignment covers only proven-int
//!    values and every `f64` bank only proven-float values, on every path.
//! 5. **Zero-fill elision** ([`invariant::ZERO_FILL_ELISION`]): the backward
//!    liveness facts that let `FramePool::acquire` skip zero-filling are
//!    re-derived; any register or slot that may observe its initial value
//!    must be covered by the function's zero-fill flags.
//!
//! The verifier runs at decode time only — [`ExecImage::new`] invokes it
//! under `debug_assertions` or `--cfg bsg_safe_core`, and the `bsg-verify`
//! binary sweeps the workload registry and random programs in CI — so the
//! hot execute loop never pays for it.
//!
//! The [`Corruption`] kit provides programmatic image corruptors used by the
//! mutation self-test: each corruptor breaks exactly one invariant in an
//! otherwise-valid image, and the suite asserts the verifier rejects every
//! mutant while accepting every valid image (zero false positives).

use crate::image::{
    EdgeTarget, ExecImage, FloatAlu, FloatSrc, FrameSlot, FuncImage, GlobalMem, IntAlu, IntSrc,
    Step,
};
use crate::typing::{bin_result, un_result, Lat, RegBank};
use bsg_ir::types::{Reg, Value};
use bsg_ir::visa::{BinOp, Inst, MemBase, Operand, Terminator};
use bsg_ir::Program;
use std::collections::HashMap;
use std::fmt;

/// Named invariants of the unchecked execution core.  Every `unsafe` block in
/// the workspace cites one or more of these ids in a `// SAFETY(ledger: ...)`
/// tag, and `bsg-verify --audit-unsafe` cross-checks the citations against
/// [`checked_invariants`] — an `unsafe` block can only cite an invariant this
/// module actually proves.
pub mod invariant {
    /// Block tables partition the step array; dense indices are consistent.
    pub const STEP_STRUCTURE: &str = "step-structure";
    /// Terminators sit exactly at `term_pc` slots; bodies hold none.
    pub const TERMINATOR_PLACEMENT: &str = "terminator-placement";
    /// Every jump/branch target resolves to a real block's first step, with
    /// consistent dense block/edge indices.
    pub const EDGE_TARGET: &str = "edge-target";
    /// Every register index is `< num_regs` of its function.
    pub const REG_BOUNDS: &str = "reg-bounds";
    /// Untagged bank accesses agree with the per-function bank tables, and
    /// the bank tables agree with an independent type inference.
    pub const REG_BANK: &str = "reg-bank";
    /// Every global reference stays within its array's flattened slice.
    pub const GLOBAL_BOUNDS: &str = "global-bounds";
    /// Every statically-resolved frame slot is `< frame_words.max(1)`.
    pub const FRAME_SLOT_BOUNDS: &str = "frame-slot-bounds";
    /// Untagged slot accesses agree with the per-slot bank tables, and the
    /// tables agree with an independent per-slot type inference.
    pub const FRAME_SLOT_BANK: &str = "frame-slot-bank";
    /// Any register/slot that may observe its initial value is covered by
    /// the function's zero-fill flags (`FramePool::acquire` elides the rest).
    pub const ZERO_FILL_ELISION: &str = "zero-fill-elision";
    /// Call targets index the function table; argument ranges index the pool.
    pub const CALL_SITE: &str = "call-site";
    /// Every fused superinstruction decomposes into constituents semantically
    /// identical to the reference decode's steps (budget/halt/event replay).
    pub const FUSED_REPLAY: &str = "fused-replay";
}

/// All invariant ids [`verify_image`] actually checks, in pass order.
/// `bsg-verify --audit-unsafe` rejects any `SAFETY(ledger: ...)` citation
/// outside this list.
pub fn checked_invariants() -> &'static [&'static str] {
    &[
        invariant::STEP_STRUCTURE,
        invariant::TERMINATOR_PLACEMENT,
        invariant::EDGE_TARGET,
        invariant::REG_BOUNDS,
        invariant::REG_BANK,
        invariant::GLOBAL_BOUNDS,
        invariant::FRAME_SLOT_BOUNDS,
        invariant::FRAME_SLOT_BANK,
        invariant::ZERO_FILL_ELISION,
        invariant::CALL_SITE,
        invariant::FUSED_REPLAY,
    ]
}

/// A violated invariant: which one, where, and why.
#[derive(Debug, Clone)]
pub struct VerifyError {
    /// The violated ledger invariant (one of [`checked_invariants`]).
    pub invariant: &'static str,
    /// Function index the violation was found in, when attributable.
    pub func: Option<u32>,
    /// Step index the violation was found at, when attributable.
    pub pc: Option<u32>,
    /// Human-readable description of the violation.
    pub detail: String,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invariant `{}` violated", self.invariant)?;
        if let Some(fi) = self.func {
            write!(f, " in fn{fi}")?;
        }
        if let Some(pc) = self.pc {
            write!(f, " at pc {pc}")?;
        }
        write!(f, ": {}", self.detail)
    }
}

impl std::error::Error for VerifyError {}

/// Summary of a successful verification.
#[derive(Debug, Clone, Copy)]
pub struct VerifyReport {
    /// Steps checked (the image; a distinct reference doubles this).
    pub steps: usize,
    /// Functions checked.
    pub funcs: usize,
    /// Fused superinstructions replayed against the reference.
    pub fused: usize,
}

fn fail(
    invariant: &'static str,
    func: Option<u32>,
    pc: Option<u32>,
    detail: String,
) -> VerifyError {
    VerifyError {
        invariant,
        func,
        pc,
        detail,
    }
}

/// Panics with a decode-time diagnostic when `program` references an index
/// the executor would have to bounds-check at run time.  This is the
/// program-level (pre-decode) half of validation — the single source of truth
/// `image::build` delegates to; [`verify_image`] then re-proves the same
/// facts (and more) over the decoded image itself.
pub(crate) fn validate_program(program: &Program) {
    let nfuncs = program.functions.len();
    let nglobals = program.globals.len();
    assert!(
        program.entry.index() < nfuncs,
        "entry function {} out of range ({nfuncs} functions)",
        program.entry
    );
    for (fi, f) in program.functions.iter().enumerate() {
        let nregs = f.num_regs;
        let check_reg = |r: Reg, what: &str| {
            assert!(
                r.0 < nregs,
                "function {fi} ({}): {what} register {r} out of range (num_regs = {nregs})",
                f.name
            );
        };
        for p in &f.params {
            check_reg(*p, "parameter");
        }
        assert!(
            f.entry.index() < f.blocks.len(),
            "function {fi} ({}): entry block {} out of range",
            f.name,
            f.entry
        );
        let check_addr = |a: &bsg_ir::visa::Address| {
            if let MemBase::Global(g) = a.base {
                assert!(
                    g.index() < nglobals,
                    "function {fi} ({}): global {g} out of range",
                    f.name
                );
                assert!(
                    program.globals[g.index()].elems > 0,
                    "function {fi} ({}): memory access to zero-length global {g}",
                    f.name
                );
            }
        };
        let check_operand = |op: &Operand| {
            if let Operand::Mem(a) = op {
                check_addr(a);
            }
        };
        for b in &f.blocks {
            for inst in &b.insts {
                if let Some(d) = inst.def() {
                    check_reg(d, "destination");
                }
                for u in inst.uses() {
                    check_reg(u, "source");
                }
                match inst {
                    Inst::Bin { lhs, rhs, .. } => {
                        check_operand(lhs);
                        check_operand(rhs);
                    }
                    Inst::Un { src, .. } | Inst::Mov { src, .. } | Inst::Print { src } => {
                        check_operand(src)
                    }
                    Inst::Load { addr, .. } => check_addr(addr),
                    Inst::Store { src, addr, .. } => {
                        check_operand(src);
                        check_addr(addr);
                    }
                    Inst::Call { func, args, .. } => {
                        assert!(
                            func.index() < nfuncs,
                            "function {fi} ({}): call target {func} out of range",
                            f.name
                        );
                        for a in args {
                            check_operand(a);
                        }
                    }
                }
            }
            for u in b.term.uses() {
                check_reg(u, "terminator source");
            }
            if let Terminator::Return(Some(op)) = &b.term {
                check_operand(op);
            }
            for succ in b.term.successors() {
                assert!(
                    succ.index() < f.blocks.len(),
                    "function {fi} ({}): branch target {succ} out of range",
                    f.name
                );
            }
        }
    }
}

/// Statically proves every invariant the unchecked execution core assumes
/// about `image` (see the module docs for the pass list).  `reference` is the
/// unfused decode of the same program ([`ExecImage::unfused`]); pass `image`
/// itself when `image` is unfused.  Returns a summary on success; the first
/// violated invariant otherwise.  Cost is linear-ish in image size (the
/// dataflow fixpoint converges in a few sweeps) and is paid at decode/CI time
/// only — never on the execute loop.
pub fn verify_image(image: &ExecImage, reference: &ExecImage) -> Result<VerifyReport, VerifyError> {
    let has_reference = !std::ptr::eq(image, reference);

    check_structure(image)?;
    let mut replayed = 0;
    if has_reference {
        check_structure(reference)?;
        check_reference_match(image, reference)?;
        check_shape(reference, false)?;
        check_shape(image, true)?;
        replayed = check_replay(image, reference)?;
    } else {
        // An image verified against itself must be entirely unfused: the
        // replay proof needs a reference to decompose fused steps against.
        check_shape(image, false)?;
    }

    let checker = StepChecker::new(image);
    checker.check_all()?;
    if has_reference {
        StepChecker::new(reference).check_all()?;
    }

    check_dataflow(reference)?;

    // The replay walk independently counted the fused superinstructions it
    // proved; the image's own tally must agree (a drift here would mean the
    // dispatch loop and the fusion pass disagree about what is fused).
    if replayed != image.num_fused() {
        return Err(fail(
            invariant::FUSED_REPLAY,
            None,
            None,
            format!(
                "replay proved {replayed} fused steps but the image reports {}",
                image.num_fused()
            ),
        ));
    }

    Ok(VerifyReport {
        steps: image.steps.len(),
        funcs: image.funcs.len(),
        fused: replayed,
    })
}

fn is_terminator(step: &Step) -> bool {
    matches!(
        step,
        Step::Jump(_) | Step::Branch { .. } | Step::Return { .. }
    )
}

// ---------------------------------------------------------------------------
// Pass 1: structure.
// ---------------------------------------------------------------------------

fn check_structure(img: &ExecImage) -> Result<(), VerifyError> {
    use invariant::*;
    let nsteps = img.steps.len();
    let e = |d: String| fail(STEP_STRUCTURE, None, None, d);
    if img.num_sites() != nsteps {
        return Err(e(format!(
            "site table length {} != step count {nsteps}",
            img.num_sites()
        )));
    }
    if (img.entry as usize) >= img.funcs.len() {
        return Err(e(format!(
            "entry function {} out of range ({} functions)",
            img.entry,
            img.funcs.len()
        )));
    }
    let mut next_pc: u32 = 0;
    let mut next_block: u32 = 0;
    for (fi, f) in img.funcs.iter().enumerate() {
        let fe = |d: String| fail(STEP_STRUCTURE, Some(fi as u32), None, d);
        let nb = f.block_pc.len();
        if nb == 0 || f.term_pc.len() != nb {
            return Err(fe(format!(
                "block tables malformed ({nb} starts, {} terminators)",
                f.term_pc.len()
            )));
        }
        if f.block_idx_base != next_block {
            return Err(fe(format!(
                "block_idx_base {} != running block count {next_block}",
                f.block_idx_base
            )));
        }
        if f.block_idx_base as usize + nb > img.num_blocks() {
            return Err(fe(format!(
                "dense block indices {}..{} exceed block-key table ({})",
                f.block_idx_base,
                f.block_idx_base as usize + nb,
                img.num_blocks()
            )));
        }
        for b in 0..nb {
            if f.block_pc[b] != next_pc {
                return Err(fe(format!(
                    "block {b} starts at pc {} (expected {next_pc})",
                    f.block_pc[b]
                )));
            }
            if f.term_pc[b] < f.block_pc[b] || (f.term_pc[b] as usize) >= nsteps {
                return Err(fe(format!(
                    "block {b} terminator pc {} outside [{}, {nsteps})",
                    f.term_pc[b], f.block_pc[b]
                )));
            }
            next_pc = f.term_pc[b] + 1;
            let key = img.block_key(f.block_idx_base + b as u32);
            if key.0.index() != fi || key.1.index() != b {
                return Err(fe(format!(
                    "block key for dense index {} is ({}, {}), expected (fn{fi}, bb{b})",
                    f.block_idx_base + b as u32,
                    key.0,
                    key.1
                )));
            }
        }
        if f.entry_block.index() >= nb {
            return Err(fe(format!("entry block {} out of range", f.entry_block)));
        }
        if f.entry_pc != f.block_pc[f.entry_block.index()]
            || f.entry_block_idx != f.block_idx_base + f.entry_block.0
        {
            return Err(fe("entry pc/block index inconsistent".into()));
        }
        if f.banks.len() != f.num_regs as usize {
            return Err(fail(
                REG_BOUNDS,
                Some(fi as u32),
                None,
                format!(
                    "bank table length {} != num_regs {}",
                    f.banks.len(),
                    f.num_regs
                ),
            ));
        }
        if img.max_regs() < f.num_regs {
            return Err(fe(format!(
                "max_regs {} < num_regs {} (register pools undersized)",
                img.max_regs(),
                f.num_regs
            )));
        }
        for p in &f.params {
            if p.0 >= f.num_regs {
                return Err(fail(
                    REG_BOUNDS,
                    Some(fi as u32),
                    None,
                    format!("parameter register {p} out of range"),
                ));
            }
        }
        if f.frame.nslots == 0 || f.slot_banks.len() != f.frame.nslots as usize {
            return Err(fail(
                FRAME_SLOT_BOUNDS,
                Some(fi as u32),
                None,
                format!(
                    "slot-bank table length {} != nslots {} (must be >= 1)",
                    f.slot_banks.len(),
                    f.frame.nslots
                ),
            ));
        }
        for (si, bank) in f.slot_banks.iter().enumerate() {
            let covered = match bank {
                RegBank::Int => f.frame.has_int,
                RegBank::Float => f.frame.has_float,
                RegBank::Tagged => f.frame.has_tagged,
            };
            if !covered {
                return Err(fail(
                    FRAME_SLOT_BOUNDS,
                    Some(fi as u32),
                    None,
                    format!(
                        "slot {si} lives in {bank:?} bank but frame layout omits it (bank unsized)"
                    ),
                ));
            }
        }
        next_block += nb as u32;
    }
    if next_pc as usize != nsteps {
        return Err(e(format!(
            "blocks cover {next_pc} steps, image has {nsteps}"
        )));
    }
    if next_block as usize != img.num_blocks() {
        return Err(e(format!(
            "functions declare {next_block} blocks, image has {}",
            img.num_blocks()
        )));
    }
    Ok(())
}

fn func_image_eq(a: &FuncImage, b: &FuncImage) -> bool {
    a.entry_pc == b.entry_pc
        && a.entry_block == b.entry_block
        && a.entry_block_idx == b.entry_block_idx
        && a.block_idx_base == b.block_idx_base
        && a.block_pc == b.block_pc
        && a.term_pc == b.term_pc
        && a.num_regs == b.num_regs
        && a.params == b.params
        && a.banks == b.banks
        && a.slot_banks == b.slot_banks
        && frame_layout_eq(a, b)
}

fn frame_layout_eq(a: &FuncImage, b: &FuncImage) -> bool {
    let (x, y) = (&a.frame, &b.frame);
    x.nslots == y.nslots
        && x.has_int == y.has_int
        && x.has_float == y.has_float
        && x.has_tagged == y.has_tagged
        && x.zero_reg_ints == y.zero_reg_ints
        && x.zero_reg_tagged == y.zero_reg_tagged
        && x.zero_slots_int == y.zero_slots_int
        && x.zero_slots_tagged == y.zero_slots_tagged
}

fn value_eq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => x == y,
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        _ => false,
    }
}

fn operand_eq(a: &Operand, b: &Operand) -> bool {
    match (a, b) {
        (Operand::Reg(x), Operand::Reg(y)) => x == y,
        (Operand::ImmInt(x), Operand::ImmInt(y)) => x == y,
        (Operand::ImmFloat(x), Operand::ImmFloat(y)) => x.to_bits() == y.to_bits(),
        (Operand::Mem(x), Operand::Mem(y)) => x == y,
        _ => false,
    }
}

fn check_reference_match(img: &ExecImage, base: &ExecImage) -> Result<(), VerifyError> {
    let e = |d: String| fail(invariant::STEP_STRUCTURE, None, None, d);
    if img.steps.len() != base.steps.len() {
        return Err(e(format!(
            "image has {} steps, reference has {}",
            img.steps.len(),
            base.steps.len()
        )));
    }
    if img.entry != base.entry || img.funcs.len() != base.funcs.len() {
        return Err(e("entry/function tables differ from the reference".into()));
    }
    for (fi, (a, b)) in img.funcs.iter().zip(&base.funcs).enumerate() {
        if !func_image_eq(a, b) {
            return Err(fail(
                invariant::STEP_STRUCTURE,
                Some(fi as u32),
                None,
                "function image differs from the reference".into(),
            ));
        }
    }
    if img.global_bounds != base.global_bounds
        || img.layout.global_bases != base.layout.global_bases
        || img.layout.frame_base != base.layout.frame_base
        || img.layout.frame_stride != base.layout.frame_stride
    {
        return Err(e("global layout differs from the reference".into()));
    }
    if img.initial_globals.len() != base.initial_globals.len()
        || !img
            .initial_globals
            .iter()
            .zip(&base.initial_globals)
            .all(|(a, b)| value_eq(a, b))
    {
        return Err(e("initial global values differ from the reference".into()));
    }
    if img.call_args.len() != base.call_args.len()
        || !img
            .call_args
            .iter()
            .zip(&base.call_args)
            .all(|(a, b)| operand_eq(a, b))
    {
        return Err(e("call argument pools differ from the reference".into()));
    }
    Ok(())
}

/// Terminator placement + footprint discipline.  `fused_allowed` is false for
/// unfused images (every step must cover exactly one slot).
fn check_shape(img: &ExecImage, fused_allowed: bool) -> Result<(), VerifyError> {
    for (fi, f) in img.funcs.iter().enumerate() {
        for b in 0..f.block_pc.len() {
            let start = f.block_pc[b] as usize;
            let term = f.term_pc[b] as usize;
            for pc in start..=term {
                let step = &img.steps[pc];
                if pc == term {
                    if !is_terminator(step) {
                        return Err(fail(
                            invariant::TERMINATOR_PLACEMENT,
                            Some(fi as u32),
                            Some(pc as u32),
                            format!("terminator slot of block {b} holds {}", step.variant_name()),
                        ));
                    }
                } else if is_terminator(step) {
                    return Err(fail(
                        invariant::TERMINATOR_PLACEMENT,
                        Some(fi as u32),
                        Some(pc as u32),
                        format!("body slot of block {b} holds {}", step.variant_name()),
                    ));
                } else if !fused_allowed && step.footprint() != Some(1) {
                    return Err(fail(
                        invariant::STEP_STRUCTURE,
                        Some(fi as u32),
                        Some(pc as u32),
                        format!("fused step {} in unfused image", step.variant_name()),
                    ));
                }
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Pass 2: fused replay (decomposition + semantic equality with the reference).
// ---------------------------------------------------------------------------

/// The constituent steps a fused superinstruction replays, in executed order,
/// plus whether the shape absorbs its block's terminator.  `None` for
/// non-fused steps.  This table is the executable specification of every
/// fused arm: the executor charges budget, checks halt and emits observer
/// events once per constituent, so proving the constituents identical to the
/// reference's steps proves the replay protocol equal.
pub(crate) fn decompose(step: &Step) -> Option<(Vec<Step>, bool)> {
    let absorbs = step.footprint().is_none();
    let parts = match step {
        Step::IntPair(a, b) => vec![Step::IntAlu(*a), Step::IntAlu(*b)],
        Step::IntCmpBr {
            a,
            cond,
            taken,
            not_taken,
        } => vec![
            Step::IntAlu(*a),
            Step::Branch {
                cond: *cond,
                bank: RegBank::Int,
                taken: *taken,
                not_taken: *not_taken,
            },
        ],
        Step::LoadGIntAlu { dst, mem, b } => vec![
            Step::LoadGlobal {
                dst: *dst,
                bank: RegBank::Int,
                mem: *mem,
            },
            Step::IntAlu(*b),
        ],
        Step::IntAluLoadG { a, dst, mem } => vec![
            Step::IntAlu(*a),
            Step::LoadGlobal {
                dst: *dst,
                bank: RegBank::Int,
                mem: *mem,
            },
        ],
        Step::LoadFIntAlu { dst, s, b } => {
            vec![Step::LoadFI { dst: *dst, s: *s }, Step::IntAlu(*b)]
        }
        Step::IntAluStoreF { a, src, s } => {
            vec![Step::IntAlu(*a), Step::StoreFI { src: *src, s: *s }]
        }
        Step::LoadFAluStoreF {
            dst,
            ls,
            b,
            src,
            ss,
        } => vec![
            Step::LoadFI { dst: *dst, s: *ls },
            Step::IntAlu(*b),
            Step::StoreFI { src: *src, s: *ss },
        ],
        Step::FloatPair(a, b) => vec![Step::FloatAlu(*a), Step::FloatAlu(*b)],
        Step::LoadFILoadG {
            dst1,
            s1,
            dst2,
            bank2,
            mem,
        } => vec![
            Step::LoadFI { dst: *dst1, s: *s1 },
            Step::LoadGlobal {
                dst: *dst2,
                bank: *bank2,
                mem: *mem,
            },
        ],
        Step::StoreFLoadF { src, ss, dst, ls } => vec![
            Step::StoreFI { src: *src, s: *ss },
            Step::LoadFI { dst: *dst, s: *ls },
        ],
        Step::LoadFPairI { dst1, s1, dst2, s2 } => vec![
            Step::LoadFI { dst: *dst1, s: *s1 },
            Step::LoadFI { dst: *dst2, s: *s2 },
        ],
        Step::LoadFCmpBr {
            dst,
            s,
            a,
            cond,
            taken,
            not_taken,
        } => vec![
            Step::LoadFI { dst: *dst, s: *s },
            Step::IntAlu(*a),
            Step::Branch {
                cond: *cond,
                bank: RegBank::Int,
                taken: *taken,
                not_taken: *not_taken,
            },
        ],
        Step::StoreFIJump { src, s, target } => {
            vec![Step::StoreFI { src: *src, s: *s }, Step::Jump(*target)]
        }
        _ => return None,
    };
    Some((parts, absorbs))
}

fn int_src_eq(a: &IntSrc, b: &IntSrc) -> bool {
    match (a, b) {
        (IntSrc::Reg(x), IntSrc::Reg(y)) => x == y,
        (IntSrc::Imm(x), IntSrc::Imm(y)) => x == y,
        _ => false,
    }
}

fn float_src_eq(a: &FloatSrc, b: &FloatSrc) -> bool {
    match (a, b) {
        (FloatSrc::F(x), FloatSrc::F(y)) | (FloatSrc::I(x), FloatSrc::I(y)) => x == y,
        (FloatSrc::Imm(x), FloatSrc::Imm(y)) => x.to_bits() == y.to_bits(),
        _ => false,
    }
}

fn int_alu_eq(a: &IntAlu, b: &IntAlu) -> bool {
    a.op == b.op && a.dst == b.dst && int_src_eq(&a.lhs, &b.lhs) && int_src_eq(&a.rhs, &b.rhs)
}

fn float_alu_eq(a: &FloatAlu, b: &FloatAlu) -> bool {
    a.op == b.op && a.dst == b.dst && float_src_eq(&a.lhs, &b.lhs) && float_src_eq(&a.rhs, &b.rhs)
}

fn slot_eq(a: &FrameSlot, b: &FrameSlot) -> bool {
    a.slot == b.slot && a.elem == b.elem
}

fn edge_eq(a: &EdgeTarget, b: &EdgeTarget) -> bool {
    a.pc == b.pc && a.block == b.block && a.block_idx == b.block_idx && a.edge_idx == b.edge_idx
}

fn gmem_eq(a: &GlobalMem, b: &GlobalMem) -> bool {
    a.start == b.start
        && a.len == b.len
        && a.mask == b.mask
        && a.base_byte == b.base_byte
        && a.offset == b.offset
        && a.index == b.index
        && a.index_bank == b.index_bank
        && a.scale == b.scale
}

/// Semantic equality of two **unfused** steps, with `f64` immediates compared
/// bit-for-bit (a `PartialEq` derive would make two NaN-carrying steps
/// unequal to themselves).  Any fused variant on either side is unequal.
fn step_sem_eq(a: &Step, b: &Step) -> bool {
    match (a, b) {
        (Step::IntAlu(x), Step::IntAlu(y)) => int_alu_eq(x, y),
        (Step::FloatAlu(x), Step::FloatAlu(y)) => float_alu_eq(x, y),
        (Step::IMovI { dst: d1, imm: i1 }, Step::IMovI { dst: d2, imm: i2 }) => {
            d1 == d2 && i1 == i2
        }
        (Step::IMovRR { dst: d1, src: s1 }, Step::IMovRR { dst: d2, src: s2 }) => {
            d1 == d2 && s1 == s2
        }
        (
            Step::IntBin {
                op: o1,
                dst: d1,
                lhs: l1,
                rhs: r1,
            },
            Step::IntBin {
                op: o2,
                dst: d2,
                lhs: l2,
                rhs: r2,
            },
        )
        | (
            Step::FloatBin {
                op: o1,
                dst: d1,
                lhs: l1,
                rhs: r1,
            },
            Step::FloatBin {
                op: o2,
                dst: d2,
                lhs: l2,
                rhs: r2,
            },
        ) => o1 == o2 && d1 == d2 && operand_eq(l1, l2) && operand_eq(r1, r2),
        (
            Step::Un {
                op: o1,
                ty: t1,
                dst: d1,
                src: s1,
            },
            Step::Un {
                op: o2,
                ty: t2,
                dst: d2,
                src: s2,
            },
        ) => o1 == o2 && t1 == t2 && d1 == d2 && operand_eq(s1, s2),
        (Step::Mov { dst: d1, src: s1 }, Step::Mov { dst: d2, src: s2 }) => {
            d1 == d2 && operand_eq(s1, s2)
        }
        (
            Step::LoadGlobal {
                dst: d1,
                bank: b1,
                mem: m1,
            },
            Step::LoadGlobal {
                dst: d2,
                bank: b2,
                mem: m2,
            },
        ) => d1 == d2 && b1 == b2 && gmem_eq(m1, m2),
        (Step::LoadFI { dst: d1, s: s1 }, Step::LoadFI { dst: d2, s: s2 })
        | (Step::LoadFF { dst: d1, s: s1 }, Step::LoadFF { dst: d2, s: s2 }) => {
            d1 == d2 && slot_eq(s1, s2)
        }
        (Step::StoreFI { src: x1, s: s1 }, Step::StoreFI { src: x2, s: s2 }) => {
            int_src_eq(x1, x2) && slot_eq(s1, s2)
        }
        (Step::StoreFF { src: x1, s: s1 }, Step::StoreFF { src: x2, s: s2 }) => {
            float_src_eq(x1, x2) && slot_eq(s1, s2)
        }
        (
            Step::LoadFrame {
                dst: d1,
                bank: b1,
                mem: m1,
            },
            Step::LoadFrame {
                dst: d2,
                bank: b2,
                mem: m2,
            },
        ) => {
            d1 == d2
                && b1 == b2
                && m1.offset == m2.offset
                && m1.index == m2.index
                && m1.index_bank == m2.index_bank
                && m1.scale == m2.scale
        }
        (Step::StoreGlobal { src: x1, mem: m1 }, Step::StoreGlobal { src: x2, mem: m2 }) => {
            operand_eq(x1, x2) && gmem_eq(m1, m2)
        }
        (Step::StoreFrame { src: x1, mem: m1 }, Step::StoreFrame { src: x2, mem: m2 }) => {
            operand_eq(x1, x2)
                && m1.offset == m2.offset
                && m1.index == m2.index
                && m1.index_bank == m2.index_bank
                && m1.scale == m2.scale
        }
        (
            Step::Call {
                func: f1,
                args_start: s1,
                args_len: l1,
                dst: d1,
            },
            Step::Call {
                func: f2,
                args_start: s2,
                args_len: l2,
                dst: d2,
            },
        ) => f1 == f2 && s1 == s2 && l1 == l2 && d1 == d2,
        (Step::Print { src: s1 }, Step::Print { src: s2 }) => operand_eq(s1, s2),
        (Step::Jump(t1), Step::Jump(t2)) => edge_eq(t1, t2),
        (
            Step::Branch {
                cond: c1,
                bank: b1,
                taken: t1,
                not_taken: n1,
            },
            Step::Branch {
                cond: c2,
                bank: b2,
                taken: t2,
                not_taken: n2,
            },
        ) => c1 == c2 && b1 == b2 && edge_eq(t1, t2) && edge_eq(n1, n2),
        (Step::Return { value: v1 }, Step::Return { value: v2 }) => match (v1, v2) {
            (None, None) => true,
            (Some(x), Some(y)) => operand_eq(x, y),
            _ => false,
        },
        _ => false,
    }
}

/// Walks every block of the fused image, decomposing each superinstruction
/// and requiring its constituents to be semantically identical to the reference's
/// steps at the same pcs.  Returns the number of fused steps replayed.
fn check_replay(img: &ExecImage, base: &ExecImage) -> Result<usize, VerifyError> {
    let mut replayed = 0usize;
    for (fi, f) in img.funcs.iter().enumerate() {
        for b in 0..f.block_pc.len() {
            let start = f.block_pc[b] as usize;
            let term = f.term_pc[b] as usize;
            let mut i = start;
            loop {
                if i > term {
                    return Err(fail(
                        invariant::FUSED_REPLAY,
                        Some(fi as u32),
                        Some(i as u32),
                        format!("dispatch walk overran block {b} (terminator at {term})"),
                    ));
                }
                let step = &img.steps[i];
                if i == term {
                    if !step_sem_eq(step, &base.steps[i]) {
                        return Err(fail(
                            invariant::FUSED_REPLAY,
                            Some(fi as u32),
                            Some(i as u32),
                            format!(
                                "terminator {} differs from reference's {}",
                                step.variant_name(),
                                base.steps[i].variant_name()
                            ),
                        ));
                    }
                    break;
                }
                match decompose(step) {
                    None => {
                        if !step_sem_eq(step, &base.steps[i]) {
                            return Err(fail(
                                invariant::FUSED_REPLAY,
                                Some(fi as u32),
                                Some(i as u32),
                                format!(
                                    "step {} differs from reference's {}",
                                    step.variant_name(),
                                    base.steps[i].variant_name()
                                ),
                            ));
                        }
                        i += 1;
                    }
                    Some((parts, absorbs)) => {
                        replayed += 1;
                        let end = i + parts.len() - 1;
                        if absorbs && end != term {
                            return Err(fail(
                                invariant::FUSED_REPLAY,
                                Some(fi as u32),
                                Some(i as u32),
                                format!(
                                    "terminator-absorbing {} covers pcs {i}..={end} but block {b} \
                                     terminates at {term} (a budget/halt arm would be skipped)",
                                    step.variant_name()
                                ),
                            ));
                        }
                        if !absorbs && end >= term {
                            return Err(fail(
                                invariant::FUSED_REPLAY,
                                Some(fi as u32),
                                Some(i as u32),
                                format!(
                                    "{} covers pcs {i}..={end}, crossing block {b}'s terminator \
                                     at {term}",
                                    step.variant_name()
                                ),
                            ));
                        }
                        for (j, part) in parts.iter().enumerate() {
                            if !step_sem_eq(part, &base.steps[i + j]) {
                                return Err(fail(
                                    invariant::FUSED_REPLAY,
                                    Some(fi as u32),
                                    Some((i + j) as u32),
                                    format!(
                                        "constituent {j} of {} ({}) differs from reference's {}",
                                        step.variant_name(),
                                        part.variant_name(),
                                        base.steps[i + j].variant_name()
                                    ),
                                ));
                            }
                        }
                        if absorbs {
                            break;
                        }
                        i += parts.len();
                    }
                }
            }
        }
    }
    Ok(replayed)
}

// ---------------------------------------------------------------------------
// Pass 3: per-step bounds and bank discipline.
// ---------------------------------------------------------------------------

struct StepChecker<'a> {
    img: &'a ExecImage,
    /// Flattened-store start -> global id, for non-empty globals.
    start_to_gid: HashMap<u32, usize>,
}

impl<'a> StepChecker<'a> {
    fn new(img: &'a ExecImage) -> Self {
        let start_to_gid = img
            .global_bounds
            .iter()
            .enumerate()
            .filter(|(_, (_, len))| *len >= 1)
            .map(|(g, (start, _))| (*start, g))
            .collect();
        Self { img, start_to_gid }
    }

    fn check_all(&self) -> Result<(), VerifyError> {
        for (fi, f) in self.img.funcs.iter().enumerate() {
            for b in 0..f.block_pc.len() {
                let start = f.block_pc[b] as usize;
                let term = f.term_pc[b] as usize;
                for pc in start..=term {
                    self.check_step(fi as u32, f, b as u32, pc as u32, &self.img.steps[pc])?;
                }
            }
        }
        Ok(())
    }

    fn check_step(
        &self,
        fi: u32,
        f: &FuncImage,
        block: u32,
        pc: u32,
        step: &Step,
    ) -> Result<(), VerifyError> {
        if let Some((parts, _)) = decompose(step) {
            for part in &parts {
                self.check_simple(fi, f, block, pc, part)?;
            }
            return Ok(());
        }
        self.check_simple(fi, f, block, pc, step)
    }

    fn reg(
        &self,
        fi: u32,
        f: &FuncImage,
        pc: u32,
        r: u32,
        want: Option<RegBank>,
    ) -> Result<(), VerifyError> {
        let Some(bank) = f.banks.get(r as usize) else {
            return Err(fail(
                invariant::REG_BOUNDS,
                Some(fi),
                Some(pc),
                format!("register r{r} out of range (num_regs = {})", f.num_regs),
            ));
        };
        if let Some(w) = want {
            if *bank != w {
                return Err(fail(
                    invariant::REG_BANK,
                    Some(fi),
                    Some(pc),
                    format!("register r{r} is {bank:?}-banked, step assumes {w:?}"),
                ));
            }
        }
        Ok(())
    }

    fn int_src(&self, fi: u32, f: &FuncImage, pc: u32, s: &IntSrc) -> Result<(), VerifyError> {
        match s {
            IntSrc::Reg(r) => self.reg(fi, f, pc, *r, Some(RegBank::Int)),
            IntSrc::Imm(_) => Ok(()),
        }
    }

    fn float_src(&self, fi: u32, f: &FuncImage, pc: u32, s: &FloatSrc) -> Result<(), VerifyError> {
        match s {
            FloatSrc::F(r) => self.reg(fi, f, pc, *r, Some(RegBank::Float)),
            FloatSrc::I(r) => self.reg(fi, f, pc, *r, Some(RegBank::Int)),
            FloatSrc::Imm(_) => Ok(()),
        }
    }

    fn int_alu(&self, fi: u32, f: &FuncImage, pc: u32, a: &IntAlu) -> Result<(), VerifyError> {
        self.reg(fi, f, pc, a.dst, Some(RegBank::Int))?;
        self.int_src(fi, f, pc, &a.lhs)?;
        self.int_src(fi, f, pc, &a.rhs)
    }

    fn float_alu(&self, fi: u32, f: &FuncImage, pc: u32, a: &FloatAlu) -> Result<(), VerifyError> {
        self.reg(fi, f, pc, a.dst, Some(RegBank::Float))?;
        self.float_src(fi, f, pc, &a.lhs)?;
        self.float_src(fi, f, pc, &a.rhs)
    }

    fn slot(
        &self,
        fi: u32,
        f: &FuncImage,
        pc: u32,
        s: &FrameSlot,
        want: RegBank,
    ) -> Result<(), VerifyError> {
        let nslots = f.slot_banks.len();
        let Some(bank) = f.slot_banks.get(s.slot as usize) else {
            return Err(fail(
                invariant::FRAME_SLOT_BOUNDS,
                Some(fi),
                Some(pc),
                format!("frame slot {} out of range ({nslots} slots)", s.slot),
            ));
        };
        if i64::from(s.slot) != s.elem.rem_euclid(nslots.max(1) as i64) {
            return Err(fail(
                invariant::FRAME_SLOT_BOUNDS,
                Some(fi),
                Some(pc),
                format!(
                    "slot {} is not element {} wrapped modulo {nslots}",
                    s.slot, s.elem
                ),
            ));
        }
        if *bank != want {
            return Err(fail(
                invariant::FRAME_SLOT_BANK,
                Some(fi),
                Some(pc),
                format!(
                    "frame slot {} is {bank:?}-banked, step assumes {want:?}",
                    s.slot
                ),
            ));
        }
        Ok(())
    }

    fn gmem(&self, fi: u32, f: &FuncImage, pc: u32, m: &GlobalMem) -> Result<(), VerifyError> {
        let e = |d: String| fail(invariant::GLOBAL_BOUNDS, Some(fi), Some(pc), d);
        let Some(&gid) = self.start_to_gid.get(&m.start) else {
            return Err(e(format!(
                "no global starts at flattened index {}",
                m.start
            )));
        };
        let (start, len) = self.img.global_bounds[gid];
        if m.len != len || m.len == 0 {
            return Err(e(format!(
                "reference claims {} elements for g{gid}, bounds table says {len}",
                m.len
            )));
        }
        if (start as usize) + (len as usize) > self.img.initial_globals.len() {
            return Err(e(format!(
                "g{gid} slice {start}+{len} exceeds flattened store ({})",
                self.img.initial_globals.len()
            )));
        }
        let expect_mask = if m.len.is_power_of_two() {
            u64::from(m.len) - 1
        } else {
            u64::MAX
        };
        if m.mask != expect_mask {
            return Err(e(format!(
                "wrap mask {:#x} wrong for length {} (expected {expect_mask:#x})",
                m.mask, m.len
            )));
        }
        match self.img.layout.global_bases.get(gid) {
            Some(&base) if base == m.base_byte => {}
            _ => {
                return Err(e(format!(
                    "base byte address {} disagrees with memory layout",
                    m.base_byte
                )))
            }
        }
        if m.index != u32::MAX {
            self.reg(fi, f, pc, m.index, Some(m.index_bank))?;
        }
        Ok(())
    }

    fn operand(&self, fi: u32, f: &FuncImage, pc: u32, op: &Operand) -> Result<(), VerifyError> {
        match op {
            Operand::Reg(r) => self.reg(fi, f, pc, r.0, None),
            Operand::ImmInt(_) | Operand::ImmFloat(_) => Ok(()),
            Operand::Mem(a) => {
                if let MemBase::Global(g) = a.base {
                    let ok = self
                        .img
                        .global_bounds
                        .get(g.index())
                        .is_some_and(|(_, len)| *len >= 1);
                    if !ok {
                        return Err(fail(
                            invariant::GLOBAL_BOUNDS,
                            Some(fi),
                            Some(pc),
                            format!("operand references missing or zero-length global {g}"),
                        ));
                    }
                }
                if let Some(r) = a.index {
                    self.reg(fi, f, pc, r.0, None)?;
                }
                Ok(())
            }
        }
    }

    fn edge(
        &self,
        fi: u32,
        f: &FuncImage,
        block: u32,
        pc: u32,
        t: &EdgeTarget,
    ) -> Result<(), VerifyError> {
        let e = |d: String| fail(invariant::EDGE_TARGET, Some(fi), Some(pc), d);
        let Some(&target_pc) = f.block_pc.get(t.block.index()) else {
            return Err(e(format!("target block {} out of range", t.block)));
        };
        if t.pc != target_pc {
            return Err(e(format!(
                "target pc {} is not the first step of {} (which starts at {target_pc})",
                t.pc, t.block
            )));
        }
        if t.block_idx != f.block_idx_base + t.block.0 {
            return Err(e(format!(
                "dense block index {} inconsistent for {}",
                t.block_idx, t.block
            )));
        }
        if (t.edge_idx as usize) >= self.img.num_edges() {
            return Err(e(format!("edge index {} out of range", t.edge_idx)));
        }
        let (from, to) = self.img.edge_blocks(t.edge_idx);
        if from != f.block_idx_base + block || to != t.block_idx {
            return Err(e(format!(
                "edge {} maps ({from}, {to}), step implies ({}, {})",
                t.edge_idx,
                f.block_idx_base + block,
                t.block_idx
            )));
        }
        Ok(())
    }

    /// Bounds/bank checks for one **unfused** step (fused steps are routed
    /// through [`decompose`] by `check_step`).
    fn check_simple(
        &self,
        fi: u32,
        f: &FuncImage,
        block: u32,
        pc: u32,
        step: &Step,
    ) -> Result<(), VerifyError> {
        match step {
            Step::IntAlu(a) => self.int_alu(fi, f, pc, a),
            Step::FloatAlu(a) => self.float_alu(fi, f, pc, a),
            Step::IMovI { dst, .. } => self.reg(fi, f, pc, *dst, Some(RegBank::Int)),
            Step::IMovRR { dst, src } => {
                self.reg(fi, f, pc, *dst, Some(RegBank::Int))?;
                self.reg(fi, f, pc, *src, Some(RegBank::Int))
            }
            Step::IntBin { dst, lhs, rhs, .. } | Step::FloatBin { dst, lhs, rhs, .. } => {
                self.reg(fi, f, pc, *dst, None)?;
                self.operand(fi, f, pc, lhs)?;
                self.operand(fi, f, pc, rhs)
            }
            Step::Un { dst, src, .. } | Step::Mov { dst, src } => {
                self.reg(fi, f, pc, *dst, None)?;
                self.operand(fi, f, pc, src)
            }
            Step::LoadGlobal { dst, bank, mem } => {
                self.reg(fi, f, pc, *dst, Some(*bank))?;
                self.gmem(fi, f, pc, mem)
            }
            Step::LoadFI { dst, s } => {
                self.reg(fi, f, pc, *dst, Some(RegBank::Int))?;
                self.slot(fi, f, pc, s, RegBank::Int)
            }
            Step::LoadFF { dst, s } => {
                self.reg(fi, f, pc, *dst, Some(RegBank::Float))?;
                self.slot(fi, f, pc, s, RegBank::Float)
            }
            Step::StoreFI { src, s } => {
                self.int_src(fi, f, pc, src)?;
                self.slot(fi, f, pc, s, RegBank::Int)
            }
            Step::StoreFF { src, s } => {
                self.float_src(fi, f, pc, src)?;
                self.slot(fi, f, pc, s, RegBank::Float)
            }
            Step::LoadFrame { dst, bank, mem } => {
                self.reg(fi, f, pc, *dst, Some(*bank))?;
                if mem.index != u32::MAX {
                    self.reg(fi, f, pc, mem.index, Some(mem.index_bank))?;
                }
                Ok(())
            }
            Step::StoreGlobal { src, mem } => {
                self.operand(fi, f, pc, src)?;
                self.gmem(fi, f, pc, mem)
            }
            Step::StoreFrame { src, mem } => {
                self.operand(fi, f, pc, src)?;
                if mem.index != u32::MAX {
                    self.reg(fi, f, pc, mem.index, Some(mem.index_bank))?;
                }
                Ok(())
            }
            Step::Call {
                func,
                args_start,
                args_len,
                dst,
            } => {
                if (*func as usize) >= self.img.funcs.len() {
                    return Err(fail(
                        invariant::CALL_SITE,
                        Some(fi),
                        Some(pc),
                        format!(
                            "call target fn{func} out of range ({} functions)",
                            self.img.funcs.len()
                        ),
                    ));
                }
                let end = (*args_start as usize) + (*args_len as usize);
                if end > self.img.call_args.len() {
                    return Err(fail(
                        invariant::CALL_SITE,
                        Some(fi),
                        Some(pc),
                        format!(
                            "argument range {args_start}..{end} exceeds pool ({})",
                            self.img.call_args.len()
                        ),
                    ));
                }
                for arg in &self.img.call_args[*args_start as usize..end] {
                    self.operand(fi, f, pc, arg)?;
                }
                if *dst != u32::MAX {
                    self.reg(fi, f, pc, *dst, None)?;
                }
                Ok(())
            }
            Step::Print { src } => self.operand(fi, f, pc, src),
            Step::Jump(t) => self.edge(fi, f, block, pc, t),
            Step::Branch {
                cond,
                bank,
                taken,
                not_taken,
            } => {
                self.reg(fi, f, pc, *cond, Some(*bank))?;
                self.edge(fi, f, block, pc, taken)?;
                self.edge(fi, f, block, pc, not_taken)
            }
            Step::Return { value } => {
                if let Some(op) = value {
                    self.operand(fi, f, pc, op)?;
                }
                Ok(())
            }
            // Fused variants are decomposed by `check_step` before reaching
            // here; a fused step arriving means the decomposition table and
            // the step enum drifted apart.
            other => Err(fail(
                invariant::STEP_STRUCTURE,
                Some(fi),
                Some(pc),
                format!(
                    "fused variant {} has no decomposition entry",
                    other.variant_name()
                ),
            )),
        }
    }
}

// ---------------------------------------------------------------------------
// Pass 4/5: independent type dataflow + zero-fill elision proof.
// ---------------------------------------------------------------------------

fn wrap_slot(offset: i64, nslots: usize) -> usize {
    offset.rem_euclid(nslots.max(1) as i64) as usize
}

/// The register an operand reads, mirroring the IR's `op_reg` (memory
/// operands read their index register).
fn op_reg(op: &Operand) -> Option<u32> {
    match op {
        Operand::Reg(r) => Some(r.0),
        Operand::Mem(a) => a.index.map(|r| r.0),
        _ => None,
    }
}

fn int_src_use(s: &IntSrc, f: &mut dyn FnMut(u32)) {
    if let IntSrc::Reg(r) = s {
        f(*r);
    }
}

fn float_src_use(s: &FloatSrc, f: &mut dyn FnMut(u32)) {
    match s {
        FloatSrc::F(r) | FloatSrc::I(r) => f(*r),
        FloatSrc::Imm(_) => {}
    }
}

/// Visits every register `step` reads, mirroring `Inst::uses` /
/// `Terminator::uses` over the decoded form (fused steps recurse through
/// their decomposition).
fn for_each_use(step: &Step, call_args: &[Operand], f: &mut dyn FnMut(u32)) {
    if let Some((parts, _)) = decompose(step) {
        for part in &parts {
            for_each_use(part, call_args, f);
        }
        return;
    }
    let mut op = |o: &Operand| {
        if let Some(r) = op_reg(o) {
            f(r)
        }
    };
    match step {
        Step::IntAlu(a) => {
            int_src_use(&a.lhs, f);
            int_src_use(&a.rhs, f);
        }
        Step::FloatAlu(a) => {
            float_src_use(&a.lhs, f);
            float_src_use(&a.rhs, f);
        }
        Step::IMovRR { src, .. } => f(*src),
        Step::IMovI { .. } | Step::Jump(_) => {}
        Step::IntBin { lhs, rhs, .. } | Step::FloatBin { lhs, rhs, .. } => {
            op(lhs);
            op(rhs);
        }
        Step::Un { src, .. } | Step::Mov { src, .. } | Step::Print { src } => op(src),
        Step::LoadGlobal { mem, .. } if mem.index != u32::MAX => f(mem.index),
        Step::LoadFrame { mem, .. } if mem.index != u32::MAX => f(mem.index),
        Step::LoadGlobal { .. } | Step::LoadFrame { .. } => {}
        Step::LoadFI { .. } | Step::LoadFF { .. } => {}
        Step::StoreFI { src, .. } => int_src_use(src, f),
        Step::StoreFF { src, .. } => float_src_use(src, f),
        Step::StoreGlobal { src, mem } => {
            op(src);
            if mem.index != u32::MAX {
                f(mem.index)
            }
        }
        Step::StoreFrame { src, mem } => {
            op(src);
            if mem.index != u32::MAX {
                f(mem.index)
            }
        }
        Step::Call {
            args_start,
            args_len,
            ..
        } => {
            let start = *args_start as usize;
            let end = (start + *args_len as usize).min(call_args.len());
            for arg in call_args.get(start..end).unwrap_or(&[]) {
                op(arg);
            }
        }
        Step::Branch { cond, .. } => f(*cond),
        Step::Return { value: Some(v) } => op(v),
        Step::Return { value: None } => {}
        // Fused variants were decomposed above.
        _ => {}
    }
}

/// The register `step` defines, for liveness kills.  Calls deliberately
/// return `None` — the typing pass treats a call's destination as a
/// may-write, exactly mirroring `typing::entry_live`.  Unfused steps only
/// (liveness runs on the reference).
fn step_def_kill(step: &Step) -> Option<u32> {
    match step {
        Step::IntAlu(a) => Some(a.dst),
        Step::FloatAlu(a) => Some(a.dst),
        Step::IMovI { dst, .. }
        | Step::IMovRR { dst, .. }
        | Step::IntBin { dst, .. }
        | Step::FloatBin { dst, .. }
        | Step::Un { dst, .. }
        | Step::Mov { dst, .. }
        | Step::LoadGlobal { dst, .. }
        | Step::LoadFI { dst, .. }
        | Step::LoadFF { dst, .. }
        | Step::LoadFrame { dst, .. } => Some(*dst),
        _ => None,
    }
}

fn successors(base: &ExecImage, f: &FuncImage, b: usize) -> [Option<usize>; 2] {
    match &base.steps[f.term_pc[b] as usize] {
        Step::Jump(t) => [Some(t.block.index()), None],
        Step::Branch {
            taken, not_taken, ..
        } => [Some(taken.block.index()), Some(not_taken.block.index())],
        _ => [None, None],
    }
}

/// Registers of `fi` that may be read before written (mirrors
/// `typing::entry_live` over the decoded steps).
fn reg_entry_live(base: &ExecImage, fi: usize) -> Vec<bool> {
    let f = &base.funcs[fi];
    let nregs = f.num_regs as usize;
    let nb = f.block_pc.len();
    let mut live_in = vec![vec![false; nregs]; nb];
    let mut changed = true;
    while changed {
        changed = false;
        for b in (0..nb).rev() {
            let mut live = vec![false; nregs];
            for succ in successors(base, f, b).into_iter().flatten() {
                if let Some(l) = live_in.get(succ) {
                    for (d, v) in live.iter_mut().zip(l) {
                        *d |= v;
                    }
                }
            }
            let start = f.block_pc[b] as usize;
            let term = f.term_pc[b] as usize;
            for pc in (start..=term).rev() {
                let step = &base.steps[pc];
                if let Some(d) = step_def_kill(step) {
                    if let Some(p) = live.get_mut(d as usize) {
                        *p = false;
                    }
                }
                for_each_use(step, &base.call_args, &mut |r| {
                    if let Some(p) = live.get_mut(r as usize) {
                        *p = true;
                    }
                });
            }
            if live != live_in[b] {
                live_in[b] = live;
                changed = true;
            }
        }
    }
    live_in[f.entry_block.index()].clone()
}

/// Frame slots of `fi` that may be read before written (mirrors
/// `typing::frame_entry_live` over the decoded steps): a static load gens its
/// slot, a dynamic load gens all, a static store kills its slot *before*
/// genning its operand reads, and a dynamic store kills nothing.
fn slot_entry_live(base: &ExecImage, fi: usize) -> Vec<bool> {
    let f = &base.funcs[fi];
    let nslots = f.slot_banks.len();
    let nb = f.block_pc.len();
    let mut live_in = vec![vec![false; nslots]; nb];
    let mut changed = true;
    while changed {
        changed = false;
        for b in (0..nb).rev() {
            let mut live = vec![false; nslots];
            for succ in successors(base, f, b).into_iter().flatten() {
                if let Some(l) = live_in.get(succ) {
                    for (d, v) in live.iter_mut().zip(l) {
                        *d |= v;
                    }
                }
            }
            let start = f.block_pc[b] as usize;
            let term = f.term_pc[b] as usize;
            for pc in (start..=term).rev() {
                slot_transfer(&base.steps[pc], &base.call_args, nslots, &mut live);
            }
            if live != live_in[b] {
                live_in[b] = live;
                changed = true;
            }
        }
    }
    live_in[f.entry_block.index()].clone()
}

fn slot_transfer(step: &Step, call_args: &[Operand], nslots: usize, live: &mut [bool]) {
    let gen_op = |op: &Operand, live: &mut [bool]| {
        if let Operand::Mem(a) = op {
            if a.base == MemBase::Frame {
                if a.index.is_some() {
                    live.iter_mut().for_each(|p| *p = true);
                } else if let Some(p) = live.get_mut(wrap_slot(a.offset, nslots)) {
                    *p = true;
                }
            }
        }
    };
    match step {
        Step::StoreFI { s, .. } | Step::StoreFF { s, .. } => {
            if let Some(p) = live.get_mut(s.slot as usize) {
                *p = false;
            }
        }
        Step::StoreFrame { src, mem } => {
            if mem.index == u32::MAX {
                if let Some(p) = live.get_mut(wrap_slot(mem.offset, nslots)) {
                    *p = false;
                }
            }
            gen_op(src, live);
        }
        Step::LoadFI { s, .. } | Step::LoadFF { s, .. } => {
            if let Some(p) = live.get_mut(s.slot as usize) {
                *p = true;
            }
        }
        Step::LoadFrame { mem, .. } => {
            if mem.index == u32::MAX {
                if let Some(p) = live.get_mut(wrap_slot(mem.offset, nslots)) {
                    *p = true;
                }
            } else {
                live.iter_mut().for_each(|p| *p = true);
            }
        }
        Step::IntBin { lhs, rhs, .. } | Step::FloatBin { lhs, rhs, .. } => {
            gen_op(lhs, live);
            gen_op(rhs, live);
        }
        Step::Un { src, .. } | Step::Mov { src, .. } | Step::Print { src } => gen_op(src, live),
        Step::StoreGlobal { src, .. } => gen_op(src, live),
        Step::Call {
            args_start,
            args_len,
            ..
        } => {
            let start = *args_start as usize;
            let end = (start + *args_len as usize).min(call_args.len());
            for arg in call_args.get(start..end).unwrap_or(&[]) {
                gen_op(arg, live);
            }
        }
        Step::Return { value: Some(op) } => gen_op(op, live),
        _ => {}
    }
}

fn value_lat(v: &Value) -> Lat {
    match v {
        Value::Int(_) => Lat::Int,
        Value::Float(_) => Lat::Float,
    }
}

struct Flow<'a> {
    base: &'a ExecImage,
    /// Per-function register lattice points.
    regs: Vec<Vec<Lat>>,
    /// Per-function frame-slot lattice points.
    frames: Vec<Vec<Lat>>,
    /// Per-global region lattice points.
    regions: Vec<Lat>,
    /// Per-function return lattice points.
    rets: Vec<Lat>,
    start_to_gid: HashMap<u32, usize>,
}

impl Flow<'_> {
    fn operand_lat(&self, fi: usize, op: &Operand) -> Lat {
        match op {
            Operand::Reg(r) => self.regs[fi].get(r.0 as usize).copied().unwrap_or(Lat::Top),
            Operand::ImmInt(_) => Lat::Int,
            Operand::ImmFloat(_) => Lat::Float,
            Operand::Mem(a) => match a.base {
                MemBase::Global(g) => self.regions.get(g.index()).copied().unwrap_or(Lat::Top),
                MemBase::Frame => {
                    let slots = &self.frames[fi];
                    if a.index.is_some() {
                        slots.iter().copied().fold(Lat::Bot, Lat::join)
                    } else {
                        slots
                            .get(wrap_slot(a.offset, slots.len()))
                            .copied()
                            .unwrap_or(Lat::Top)
                    }
                }
            },
        }
    }

    fn int_src_lat(&self, fi: usize, s: &IntSrc) -> Lat {
        match s {
            IntSrc::Reg(r) => self.regs[fi].get(*r as usize).copied().unwrap_or(Lat::Top),
            IntSrc::Imm(_) => Lat::Int,
        }
    }

    fn float_src_lat(&self, fi: usize, s: &FloatSrc) -> Lat {
        match s {
            FloatSrc::F(r) | FloatSrc::I(r) => {
                self.regs[fi].get(*r as usize).copied().unwrap_or(Lat::Top)
            }
            FloatSrc::Imm(_) => Lat::Float,
        }
    }

    fn region_lat(&self, mem: &GlobalMem) -> Lat {
        self.start_to_gid
            .get(&mem.start)
            .and_then(|g| self.regions.get(*g))
            .copied()
            .unwrap_or(Lat::Top)
    }
}

fn join_reg(regs: &mut [Lat], r: u32, v: Lat, changed: &mut bool) {
    if let Some(p) = regs.get_mut(r as usize) {
        let j = p.join(v);
        if j != *p {
            *p = j;
            *changed = true;
        }
    }
}

fn join_lat(p: &mut Lat, v: Lat, changed: &mut bool) {
    let j = p.join(v);
    if j != *p {
        *p = j;
        *changed = true;
    }
}

/// Re-runs the whole-program type inference over the unfused steps and
/// checks every bank assignment and zero-fill flag against it (soundness
/// direction: a bank may be *wider* than the recomputed lattice point, never
/// narrower).
fn check_dataflow(base: &ExecImage) -> Result<(), VerifyError> {
    let nfuncs = base.funcs.len();

    // Which functions are called, and the fewest arguments any call passes —
    // params beyond that may observe their initial value (typing seeds them
    // Int); the entry function's params always may.
    let mut has_caller = vec![false; nfuncs];
    let mut short_args = vec![usize::MAX; nfuncs];
    for step in &base.steps {
        if let Step::Call { func, args_len, .. } = step {
            if let Some(h) = has_caller.get_mut(*func as usize) {
                *h = true;
                short_args[*func as usize] = short_args[*func as usize].min(*args_len as usize);
            }
        }
    }

    // Region lattices from the flattened initial values: `Global::initial_values`
    // always materializes exactly `elems` values, so joining the stored tags
    // is precision-identical to typing's `global_init_lat`.
    let regions: Vec<Lat> = base
        .global_bounds
        .iter()
        .map(|&(start, len)| {
            base.initial_globals
                .get(start as usize..(start as usize + len as usize))
                .unwrap_or(&[])
                .iter()
                .map(value_lat)
                .fold(Lat::Bot, Lat::join)
        })
        .collect();

    let mut flow = Flow {
        base,
        regs: base
            .funcs
            .iter()
            .map(|f| vec![Lat::Bot; f.num_regs as usize])
            .collect(),
        frames: base
            .funcs
            .iter()
            .map(|f| vec![Lat::Bot; f.slot_banks.len()])
            .collect(),
        regions,
        rets: vec![Lat::Bot; nfuncs],
        start_to_gid: base
            .global_bounds
            .iter()
            .enumerate()
            .filter(|(_, (_, len))| *len >= 1)
            .map(|(g, (start, _))| (*start, g))
            .collect(),
    };

    // Seed: registers and slots that may observe their initial (zeroed)
    // value join Int, mirroring typing's seeding; remember which, for the
    // zero-fill elision check.
    let mut obs_reg: Vec<Vec<bool>> = Vec::with_capacity(nfuncs);
    let mut obs_slot: Vec<Vec<bool>> = Vec::with_capacity(nfuncs);
    for fi in 0..nfuncs {
        let f = &base.funcs[fi];
        let live = reg_entry_live(base, fi);
        let mut obs = vec![false; f.num_regs as usize];
        for (ri, is_live) in live.iter().enumerate() {
            if !is_live {
                continue;
            }
            let covered = f
                .params
                .iter()
                .position(|p| p.0 as usize == ri)
                .is_some_and(|pos| {
                    has_caller[fi] && short_args[fi] > pos && base.entry as usize != fi
                });
            if !covered {
                obs[ri] = true;
                let p = &mut flow.regs[fi][ri];
                *p = p.join(Lat::Int);
            }
        }
        obs_reg.push(obs);
        let slot_live = slot_entry_live(base, fi);
        for (si, is_live) in slot_live.iter().enumerate() {
            if *is_live {
                let p = &mut flow.frames[fi][si];
                *p = p.join(Lat::Int);
            }
        }
        obs_slot.push(slot_live);
    }

    // Forward fixpoint over the unfused steps, mirroring typing's transfer
    // functions variant by variant.
    let mut changed = true;
    while changed {
        changed = false;
        for fi in 0..nfuncs {
            let nblocks = base.funcs[fi].block_pc.len();
            for b in 0..nblocks {
                let start = base.funcs[fi].block_pc[b] as usize;
                let term = base.funcs[fi].term_pc[b] as usize;
                for pc in start..=term {
                    flow_transfer(&mut flow, fi, &base.steps[pc], &mut changed);
                }
            }
        }
    }

    // Bank tables must cover the recomputed lattice points.
    for (fi, f) in base.funcs.iter().enumerate() {
        for (ri, bank) in f.banks.iter().enumerate() {
            let lat = flow.regs[fi][ri];
            let ok = match bank {
                RegBank::Int => matches!(lat, Lat::Bot | Lat::Int),
                RegBank::Float => matches!(lat, Lat::Bot | Lat::Float),
                RegBank::Tagged => true,
            };
            if !ok {
                return Err(fail(
                    invariant::REG_BANK,
                    Some(fi as u32),
                    None,
                    format!(
                        "register r{ri} is {bank:?}-banked but dataflow proves {lat:?} values \
                         reach it"
                    ),
                ));
            }
        }
        for (si, bank) in f.slot_banks.iter().enumerate() {
            let lat = flow.frames[fi][si];
            let ok = match bank {
                RegBank::Int => matches!(lat, Lat::Bot | Lat::Int),
                RegBank::Float => matches!(lat, Lat::Bot | Lat::Float),
                RegBank::Tagged => true,
            };
            if !ok {
                return Err(fail(
                    invariant::FRAME_SLOT_BANK,
                    Some(fi as u32),
                    None,
                    format!(
                        "frame slot {si} is {bank:?}-banked but dataflow proves {lat:?} values \
                         reach it"
                    ),
                ));
            }
        }

        // Zero-fill elision: every register/slot that may observe its initial
        // value must be covered by the frame layout's zero-fill flags.
        for (ri, obs) in obs_reg[fi].iter().enumerate() {
            if !obs {
                continue;
            }
            let (needed, have) = match f.banks[ri] {
                RegBank::Int => ("zero_reg_ints", f.frame.zero_reg_ints),
                RegBank::Tagged => ("zero_reg_tagged", f.frame.zero_reg_tagged),
                RegBank::Float => {
                    return Err(fail(
                        invariant::ZERO_FILL_ELISION,
                        Some(fi as u32),
                        None,
                        format!(
                            "register r{ri} may observe its initial value yet is float-banked \
                             (the float bank is never zero-filled)"
                        ),
                    ))
                }
            };
            if !have {
                return Err(fail(
                    invariant::ZERO_FILL_ELISION,
                    Some(fi as u32),
                    None,
                    format!(
                        "register r{ri} may observe its initial value but {needed} is unset \
                         (FramePool::acquire would skip the fill)"
                    ),
                ));
            }
        }
        for (si, obs) in obs_slot[fi].iter().enumerate() {
            if !obs {
                continue;
            }
            let (needed, have) = match f.slot_banks[si] {
                RegBank::Int => ("zero_slots_int", f.frame.zero_slots_int),
                RegBank::Tagged => ("zero_slots_tagged", f.frame.zero_slots_tagged),
                RegBank::Float => {
                    return Err(fail(
                        invariant::ZERO_FILL_ELISION,
                        Some(fi as u32),
                        None,
                        format!(
                            "frame slot {si} may observe its initial value yet is float-banked \
                             (the float slot bank is never zero-filled)"
                        ),
                    ))
                }
            };
            if !have {
                return Err(fail(
                    invariant::ZERO_FILL_ELISION,
                    Some(fi as u32),
                    None,
                    format!(
                        "frame slot {si} may observe its initial value but {needed} is unset \
                         (FramePool::acquire would skip the fill)"
                    ),
                ));
            }
        }
    }
    Ok(())
}

/// One forward transfer, mirroring `typing::infer`'s per-inst transfer over
/// the decoded (unfused) step.  Untagged variants use the constant lattice
/// points their decode guards imply (e.g. an `IMovI` folded from a constant
/// `Bin` joins `Int`, which equals `bin_result` for every foldable case).
fn flow_transfer(flow: &mut Flow<'_>, fi: usize, step: &Step, changed: &mut bool) {
    use bsg_ir::types::Ty;
    match step {
        Step::IntAlu(a) => join_reg(&mut flow.regs[fi], a.dst, Lat::Int, changed),
        Step::FloatAlu(a) => {
            let v = bin_result(a.op, Ty::Float);
            join_reg(&mut flow.regs[fi], a.dst, v, changed);
        }
        Step::IMovI { dst, .. } => join_reg(&mut flow.regs[fi], *dst, Lat::Int, changed),
        Step::IMovRR { dst, src } => {
            let v = flow.regs[fi]
                .get(*src as usize)
                .copied()
                .unwrap_or(Lat::Top);
            join_reg(&mut flow.regs[fi], *dst, v, changed);
        }
        Step::IntBin { op, dst, .. } => {
            let v = bin_result(*op, Ty::Int);
            join_reg(&mut flow.regs[fi], *dst, v, changed);
        }
        Step::FloatBin { op, dst, .. } => {
            let v = bin_result(*op, Ty::Float);
            join_reg(&mut flow.regs[fi], *dst, v, changed);
        }
        Step::Un { op, ty, dst, .. } => {
            let v = un_result(*op, *ty);
            join_reg(&mut flow.regs[fi], *dst, v, changed);
        }
        Step::Mov { dst, src } => {
            let v = flow.operand_lat(fi, src);
            join_reg(&mut flow.regs[fi], *dst, v, changed);
        }
        Step::LoadGlobal { dst, mem, .. } => {
            let v = flow.region_lat(mem);
            join_reg(&mut flow.regs[fi], *dst, v, changed);
        }
        Step::LoadFI { dst, s } | Step::LoadFF { dst, s } => {
            let v = flow.frames[fi]
                .get(s.slot as usize)
                .copied()
                .unwrap_or(Lat::Top);
            join_reg(&mut flow.regs[fi], *dst, v, changed);
        }
        Step::LoadFrame { dst, mem, .. } => {
            let v = if mem.index == u32::MAX {
                let slots = &flow.frames[fi];
                slots
                    .get(wrap_slot(mem.offset, slots.len()))
                    .copied()
                    .unwrap_or(Lat::Top)
            } else {
                flow.frames[fi].iter().copied().fold(Lat::Bot, Lat::join)
            };
            join_reg(&mut flow.regs[fi], *dst, v, changed);
        }
        Step::StoreFI { src, s } => {
            let v = flow.int_src_lat(fi, src);
            if let Some(p) = flow.frames[fi].get_mut(s.slot as usize) {
                join_lat(p, v, changed);
            }
        }
        Step::StoreFF { src, s } => {
            let v = flow.float_src_lat(fi, src);
            if let Some(p) = flow.frames[fi].get_mut(s.slot as usize) {
                join_lat(p, v, changed);
            }
        }
        Step::StoreGlobal { src, mem } => {
            let v = flow.operand_lat(fi, src);
            if let Some(&g) = flow.start_to_gid.get(&mem.start) {
                if let Some(p) = flow.regions.get_mut(g) {
                    join_lat(p, v, changed);
                }
            }
        }
        Step::StoreFrame { src, mem } => {
            let v = flow.operand_lat(fi, src);
            if mem.index == u32::MAX {
                let w = wrap_slot(mem.offset, flow.frames[fi].len());
                if let Some(p) = flow.frames[fi].get_mut(w) {
                    join_lat(p, v, changed);
                }
            } else {
                for p in flow.frames[fi].iter_mut() {
                    join_lat(p, v, changed);
                }
            }
        }
        Step::Call {
            func,
            args_start,
            args_len,
            dst,
        } => {
            let ci = *func as usize;
            if ci < flow.base.funcs.len() {
                let params = flow.base.funcs[ci].params.clone();
                for (i, p) in params.iter().enumerate() {
                    if i < *args_len as usize {
                        let arg = &flow.base.call_args[*args_start as usize + i];
                        let v = flow.operand_lat(fi, arg);
                        join_reg(&mut flow.regs[ci], p.0, v, changed);
                    }
                }
                if *dst != u32::MAX {
                    let v = flow.rets[ci];
                    join_reg(&mut flow.regs[fi], *dst, v, changed);
                }
            } else if *dst != u32::MAX {
                join_reg(&mut flow.regs[fi], *dst, Lat::Top, changed);
            }
        }
        Step::Return { value: Some(op) } => {
            let v = flow.operand_lat(fi, op);
            let p = &mut flow.rets[fi];
            join_lat(p, v, changed);
        }
        _ => {}
    }
}

// ---------------------------------------------------------------------------
// Mutation kit: programmatic image corruptors for the self-test.
// ---------------------------------------------------------------------------

/// One way to corrupt an otherwise-valid image, breaking exactly the
/// invariant named in its docs.  The mutation self-test asserts
/// [`verify_image`] rejects every applicable corruption of every valid image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Corruption {
    /// Point the first statically-resolved `FrameSlot` one past the
    /// slot-bank table (breaks `frame-slot-bounds`).
    FrameSlotOutOfRange,
    /// Retype the first untagged access to the opposite bank — e.g. an int
    /// move becomes a float `FloatAlu` writing the same (int-banked)
    /// register (breaks `reg-bank`).
    MistypedBankAccess,
    /// Drop one constituent's budget-decrement/event arm from a fused
    /// terminator-absorbing step — e.g. `IntCmpBr` forgets its ALU and
    /// becomes a bare `Branch` (breaks `fused-replay` /
    /// `terminator-placement`).
    DroppedBudgetArm,
    /// Point the first jump/branch target past the end of the step array
    /// (breaks `edge-target`).
    DanglingJumpTarget,
    /// Point the first destination register at `num_regs` (breaks
    /// `reg-bounds`).
    RegOutOfRange,
    /// Grow the first global reference's length by one element (breaks
    /// `global-bounds`).
    GlobalRegionLie,
    /// Clear a function's zero-fill flags even though some register or slot
    /// may observe its initial value (breaks `zero-fill-elision`).
    ZeroFillElisionLie,
}

/// Every corruption the kit knows, for exhaustive sweeps.
pub const ALL_CORRUPTIONS: [Corruption; 7] = [
    Corruption::FrameSlotOutOfRange,
    Corruption::MistypedBankAccess,
    Corruption::DroppedBudgetArm,
    Corruption::DanglingJumpTarget,
    Corruption::RegOutOfRange,
    Corruption::GlobalRegionLie,
    Corruption::ZeroFillElisionLie,
];

fn first_slot_mut(step: &mut Step) -> Option<&mut FrameSlot> {
    match step {
        Step::LoadFI { s, .. }
        | Step::LoadFF { s, .. }
        | Step::StoreFI { s, .. }
        | Step::StoreFF { s, .. }
        | Step::LoadFIntAlu { s, .. }
        | Step::IntAluStoreF { s, .. }
        | Step::LoadFILoadG { s1: s, .. }
        | Step::StoreFLoadF { ss: s, .. }
        | Step::LoadFPairI { s1: s, .. }
        | Step::LoadFCmpBr { s, .. }
        | Step::StoreFIJump { s, .. }
        | Step::LoadFAluStoreF { ls: s, .. } => Some(s),
        _ => None,
    }
}

fn first_edge_mut(step: &mut Step) -> Option<&mut EdgeTarget> {
    match step {
        Step::Jump(t) | Step::StoreFIJump { target: t, .. } => Some(t),
        Step::Branch { taken: t, .. }
        | Step::IntCmpBr { taken: t, .. }
        | Step::LoadFCmpBr { taken: t, .. } => Some(t),
        _ => None,
    }
}

fn first_dst_mut(step: &mut Step) -> Option<&mut u32> {
    match step {
        Step::IntAlu(a)
        | Step::IntPair(a, _)
        | Step::IntCmpBr { a, .. }
        | Step::IntAluLoadG { a, .. }
        | Step::IntAluStoreF { a, .. } => Some(&mut a.dst),
        Step::FloatAlu(a) | Step::FloatPair(a, _) => Some(&mut a.dst),
        Step::IMovI { dst, .. }
        | Step::IMovRR { dst, .. }
        | Step::IntBin { dst, .. }
        | Step::FloatBin { dst, .. }
        | Step::Un { dst, .. }
        | Step::Mov { dst, .. }
        | Step::LoadGlobal { dst, .. }
        | Step::LoadFI { dst, .. }
        | Step::LoadFF { dst, .. }
        | Step::LoadFrame { dst, .. }
        | Step::LoadGIntAlu { dst, .. }
        | Step::LoadFIntAlu { dst, .. }
        | Step::LoadFCmpBr { dst, .. }
        | Step::LoadFAluStoreF { dst, .. }
        | Step::StoreFLoadF { dst, .. } => Some(dst),
        Step::LoadFILoadG { dst1, .. } | Step::LoadFPairI { dst1, .. } => Some(dst1),
        _ => None,
    }
}

fn first_gmem_mut(step: &mut Step) -> Option<&mut GlobalMem> {
    match step {
        Step::LoadGlobal { mem, .. }
        | Step::StoreGlobal { mem, .. }
        | Step::LoadGIntAlu { mem, .. }
        | Step::IntAluLoadG { mem, .. }
        | Step::LoadFILoadG { mem, .. } => Some(mem),
        _ => None,
    }
}

/// Returns a clone of `image` with `c` applied to the first applicable site,
/// paired with the reference to verify it against (a clone of `reference`,
/// the unfused decode [`verify_image`] takes), or `None` when the image has
/// no applicable site (e.g. no global references for
/// [`Corruption::GlobalRegionLie`]).  The mutant is guaranteed to differ
/// semantically from `image` — the self-test asserts [`verify_image`]
/// rejects the pair.
pub fn corrupt_image(
    image: &ExecImage,
    reference: &ExecImage,
    c: Corruption,
) -> Option<(ExecImage, ExecImage)> {
    let mut img = image.clone();
    let mut reference = reference.clone();
    // Per-function step ranges and table sizes, captured up front so the
    // mutation loop can hold `&mut` steps.
    let ranges: Vec<(usize, usize, u32, u32)> = img
        .funcs
        .iter()
        .map(|f| {
            (
                f.block_pc[0] as usize,
                *f.term_pc.last().unwrap() as usize,
                f.num_regs,
                f.slot_banks.len() as u32,
            )
        })
        .collect();
    let nsteps = img.steps.len();
    let applied = match c {
        Corruption::FrameSlotOutOfRange => ranges.iter().any(|&(start, end, _, nslots)| {
            img.steps[start..=end]
                .iter_mut()
                .any(|step| first_slot_mut(step).map(|s| s.slot = nslots).is_some())
        }),
        Corruption::MistypedBankAccess => img.steps.iter_mut().any(|step| match step {
            Step::IMovI { dst, .. } => {
                *step = Step::FloatAlu(FloatAlu {
                    op: BinOp::Add,
                    dst: *dst,
                    lhs: FloatSrc::Imm(1.0),
                    rhs: FloatSrc::Imm(0.0),
                });
                true
            }
            Step::LoadFI { dst, s } => {
                *step = Step::LoadFF { dst: *dst, s: *s };
                true
            }
            Step::StoreFI { s, .. } => {
                *step = Step::StoreFF {
                    src: FloatSrc::Imm(0.5),
                    s: *s,
                };
                true
            }
            Step::IMovRR { dst, src } => {
                *step = Step::FloatAlu(FloatAlu {
                    op: BinOp::Add,
                    dst: *dst,
                    lhs: FloatSrc::F(*src),
                    rhs: FloatSrc::Imm(0.0),
                });
                true
            }
            _ => false,
        }),
        Corruption::DroppedBudgetArm => img.steps.iter_mut().any(|step| match step {
            Step::StoreFIJump { target, .. } => {
                *step = Step::Jump(*target);
                true
            }
            Step::IntCmpBr {
                cond,
                taken,
                not_taken,
                ..
            } => {
                *step = Step::Branch {
                    cond: *cond,
                    bank: RegBank::Int,
                    taken: *taken,
                    not_taken: *not_taken,
                };
                true
            }
            Step::LoadFCmpBr {
                a,
                cond,
                taken,
                not_taken,
                ..
            } => {
                *step = Step::IntCmpBr {
                    a: *a,
                    cond: *cond,
                    taken: *taken,
                    not_taken: *not_taken,
                };
                true
            }
            _ => false,
        }),
        Corruption::DanglingJumpTarget => img.steps.iter_mut().any(|step| {
            first_edge_mut(step)
                .map(|t| t.pc = nsteps as u32 + 7)
                .is_some()
        }),
        Corruption::RegOutOfRange => ranges.iter().any(|&(start, end, num_regs, _)| {
            img.steps[start..=end]
                .iter_mut()
                .any(|step| first_dst_mut(step).map(|d| *d = num_regs).is_some())
        }),
        Corruption::GlobalRegionLie => img
            .steps
            .iter_mut()
            .any(|step| first_gmem_mut(step).map(|m| m.len += 1).is_some()),
        Corruption::ZeroFillElisionLie => {
            let target = img.funcs.iter().position(|f| {
                f.frame.zero_reg_ints
                    || f.frame.zero_reg_tagged
                    || f.frame.zero_slots_int
                    || f.frame.zero_slots_tagged
            });
            match target {
                None => false,
                Some(fi) => {
                    let clear = |f: &mut FuncImage| {
                        f.frame.zero_reg_ints = false;
                        f.frame.zero_reg_tagged = false;
                        f.frame.zero_slots_int = false;
                        f.frame.zero_slots_tagged = false;
                    };
                    clear(&mut img.funcs[fi]);
                    // Clear the reference too, so the lie is structurally
                    // consistent and only the elision proof can catch it.
                    clear(&mut reference.funcs[fi]);
                    true
                }
            }
        }
    };
    applied.then_some((img, reference))
}
