//! # bsg-compiler — an optimizing compiler from the benchmark-synthesis HLL to the virtual ISA
//!
//! The IISWC 2010 benchmark-synthesis paper generates its synthetic clones in
//! C precisely so that the *compiler* becomes part of the design space being
//! explored: the same clone is compiled at `-O0` … `-O3` with GCC on x86,
//! x86_64 and IA-64 machines.  This crate plays the role of that toolchain
//! for the reproduction: it lowers HLL programs ([`bsg_ir::hll`]) to the
//! virtual ISA ([`bsg_ir::visa`]) at four optimization levels and for three
//! target ISAs, so that original workloads and synthetic clones experience
//! the same first-order compiler effects the paper measures:
//!
//! * `O0` keeps every scalar variable in the stack frame (load before every
//!   use, store after every def), exactly like GCC `-O0`.  This is the level
//!   at which workloads are profiled (§II-A of the paper).
//! * `O1` promotes scalars to registers and runs copy propagation, constant
//!   folding, strength reduction and dead-code elimination — the dynamic
//!   instruction count drops by roughly a third, reproducing Figure 5.
//! * `O2` adds common-subexpression / redundant-load elimination,
//!   loop-invariant code motion and instruction scheduling.
//! * `O3` adds function inlining (and re-schedules).
//!
//! Code generation then specializes the program for a target ISA:
//! x86 folds adjacent loads into memory operands (CISC) and has only a few
//! allocatable registers (more spill traffic), x86_64 has twice as many
//! registers, and IA-64 is a wide in-order EPIC target whose performance is
//! far more sensitive to the scheduling quality delivered by the optimizer —
//! which is what lets the reproduction show the Itanium-specific compiler
//! sensitivity of Figure 11.
//!
//! # Example
//!
//! ```
//! use bsg_compiler::{compile, CompileOptions, OptLevel, TargetIsa};
//! use bsg_ir::build::FunctionBuilder;
//! use bsg_ir::hll::{Expr, HllProgram};
//!
//! let mut f = FunctionBuilder::new("main");
//! f.assign_var("x", Expr::int(3));
//! f.assign_var("y", Expr::add(Expr::var("x"), Expr::int(4)));
//! f.ret(Some(Expr::var("y")));
//! let hll = HllProgram::with_main(f.finish());
//!
//! let o0 = compile(&hll, &CompileOptions::new(OptLevel::O0, TargetIsa::X86))?;
//! let o2 = compile(&hll, &CompileOptions::new(OptLevel::O2, TargetIsa::X86))?;
//! assert!(o2.program.static_inst_count() <= o0.program.static_inst_count());
//! # Ok::<(), bsg_compiler::CompileError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codegen;
pub mod lower;
pub mod passes;
pub mod regalloc;

use bsg_ir::hll::HllProgram;
use bsg_ir::Program;
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

/// Compiler optimization levels, mirroring GCC's `-O0`…`-O3`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum OptLevel {
    /// No optimization; scalars live in memory.
    O0,
    /// Register promotion, copy propagation, constant folding, strength
    /// reduction, dead-code elimination.
    O1,
    /// `O1` plus CSE / redundant-load elimination, loop-invariant code motion
    /// and list scheduling.
    O2,
    /// `O2` plus function inlining.
    O3,
}

impl OptLevel {
    /// All levels in ascending order.
    pub const ALL: [OptLevel; 4] = [OptLevel::O0, OptLevel::O1, OptLevel::O2, OptLevel::O3];
}

impl fmt::Display for OptLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            OptLevel::O0 => "-O0",
            OptLevel::O1 => "-O1",
            OptLevel::O2 => "-O2",
            OptLevel::O3 => "-O3",
        };
        write!(f, "{s}")
    }
}

/// Target instruction-set architectures (Table III of the paper uses x86,
/// x86_64 and IA-64 machines).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TargetIsa {
    /// 32-bit x86: 6 allocatable registers, memory operands folded into ALU ops.
    X86,
    /// x86-64: 14 allocatable registers, memory operands folded into ALU ops.
    X86_64,
    /// IA-64 (EPIC): 24 allocatable registers, pure load/store, statically scheduled.
    Ia64,
}

impl TargetIsa {
    /// All ISAs.
    pub const ALL: [TargetIsa; 3] = [TargetIsa::X86, TargetIsa::X86_64, TargetIsa::Ia64];

    /// Number of allocatable integer registers for the register allocator.
    pub fn allocatable_regs(self) -> usize {
        match self {
            TargetIsa::X86 => 6,
            TargetIsa::X86_64 => 14,
            TargetIsa::Ia64 => 24,
        }
    }

    /// Returns `true` if ALU instructions may take a memory operand (CISC).
    pub fn has_memory_operands(self) -> bool {
        matches!(self, TargetIsa::X86 | TargetIsa::X86_64)
    }

    /// Returns `true` for statically scheduled (EPIC) targets.
    pub fn is_epic(self) -> bool {
        matches!(self, TargetIsa::Ia64)
    }
}

impl fmt::Display for TargetIsa {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TargetIsa::X86 => "x86",
            TargetIsa::X86_64 => "x86_64",
            TargetIsa::Ia64 => "ia64",
        };
        write!(f, "{s}")
    }
}

/// Options controlling a compilation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CompileOptions {
    /// Optimization level.
    pub opt_level: OptLevel,
    /// Target ISA.
    pub isa: TargetIsa,
    /// When `false`, skip ISA-specific code generation (register allocation,
    /// memory-operand folding); the result is the portable optimized VISA
    /// program.  Profiling in the paper is done on the `-O0` binary, which in
    /// this reproduction corresponds to `O0` with codegen enabled.
    pub codegen: bool,
}

impl CompileOptions {
    /// Options with codegen enabled for the given level and ISA.
    pub fn new(opt_level: OptLevel, isa: TargetIsa) -> Self {
        CompileOptions {
            opt_level,
            isa,
            codegen: true,
        }
    }

    /// Portable compilation (no ISA-specific codegen).
    pub fn portable(opt_level: OptLevel) -> Self {
        CompileOptions {
            opt_level,
            isa: TargetIsa::X86,
            codegen: false,
        }
    }
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions::new(OptLevel::O0, TargetIsa::X86)
    }
}

bsg_ir::codec_layout!(enum OptLevel {
    0 => O0,
    1 => O1,
    2 => O2,
    3 => O3,
});

bsg_ir::codec_layout!(enum TargetIsa {
    0 => X86,
    1 => X86_64,
    2 => Ia64,
});

bsg_ir::codec_layout!(struct CompileOptions {
    opt_level,
    isa,
    codegen,
});

/// Errors reported while lowering an HLL program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// A statement references a function that is not defined.
    UnknownFunction(String),
    /// An expression indexes a global array that is not declared.
    UnknownGlobal(String),
    /// A call passes the wrong number of arguments.
    ArityMismatch {
        /// Callee name.
        function: String,
        /// Arguments supplied at the call site.
        supplied: usize,
        /// Parameters the function declares.
        expected: usize,
    },
    /// `break` or `continue` appeared outside of a loop.
    StrayLoopControl(&'static str),
    /// The program has no entry function.
    MissingEntry(String),
    /// The lowered program failed structural validation (internal error).
    Invalid(Vec<String>),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::UnknownFunction(n) => write!(f, "call to unknown function `{n}`"),
            CompileError::UnknownGlobal(n) => write!(f, "reference to unknown global array `{n}`"),
            CompileError::ArityMismatch {
                function,
                supplied,
                expected,
            } => write!(
                f,
                "call to `{function}` with {supplied} arguments, expected {expected}"
            ),
            CompileError::StrayLoopControl(kw) => write!(f, "`{kw}` outside of a loop"),
            CompileError::MissingEntry(n) => write!(f, "entry function `{n}` is not defined"),
            CompileError::Invalid(errors) => {
                write!(
                    f,
                    "lowered program failed validation: {}",
                    errors.join("; ")
                )
            }
        }
    }
}

impl Error for CompileError {}

/// Statistics gathered while compiling, used by the ablation benches and by
/// tests that check each pass actually fires.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CompileStats {
    /// Instructions folded by constant folding.
    pub constants_folded: usize,
    /// Copies propagated.
    pub copies_propagated: usize,
    /// Instructions removed by dead-code elimination.
    pub dead_insts_removed: usize,
    /// Redundant expressions / loads removed by CSE.
    pub cse_removed: usize,
    /// Instructions hoisted by loop-invariant code motion.
    pub licm_hoisted: usize,
    /// Multiplications converted to shifts.
    pub strength_reduced: usize,
    /// Call sites inlined.
    pub calls_inlined: usize,
    /// Instructions reordered by the scheduler.
    pub insts_scheduled: usize,
    /// Loads folded into memory operands by codegen.
    pub loads_folded: usize,
    /// Spill loads/stores inserted by the register allocator.
    pub spill_insts_inserted: usize,
}

impl CompileStats {
    /// Merges another statistics record into this one.
    pub fn merge(&mut self, other: &CompileStats) {
        self.constants_folded += other.constants_folded;
        self.copies_propagated += other.copies_propagated;
        self.dead_insts_removed += other.dead_insts_removed;
        self.cse_removed += other.cse_removed;
        self.licm_hoisted += other.licm_hoisted;
        self.strength_reduced += other.strength_reduced;
        self.calls_inlined += other.calls_inlined;
        self.insts_scheduled += other.insts_scheduled;
        self.loads_folded += other.loads_folded;
        self.spill_insts_inserted += other.spill_insts_inserted;
    }
}

/// The result of a compilation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompiledProgram {
    /// The executable VISA program.
    pub program: Program,
    /// Options the program was compiled with.
    pub options: CompileOptions,
    /// Optimization statistics.
    pub stats: CompileStats,
}

/// Compiles an HLL program at the given optimization level and target ISA.
///
/// # Errors
///
/// Returns a [`CompileError`] if the program references unknown functions or
/// globals, calls a function with the wrong arity, uses `break`/`continue`
/// outside a loop, or lacks the entry function.
pub fn compile(
    hll: &HllProgram,
    options: &CompileOptions,
) -> Result<CompiledProgram, CompileError> {
    let mut stats = CompileStats::default();
    // 1. Lowering.  O0 keeps scalars in memory; O1+ promotes them to registers.
    let mode = if options.opt_level == OptLevel::O0 {
        lower::LowerMode::StackScalars
    } else {
        lower::LowerMode::RegisterScalars
    };
    let mut program = lower::lower(hll, mode)?;

    // 2. Machine-independent optimization.
    passes::run_pipeline(&mut program, options.opt_level, &mut stats);

    // 3. ISA-specific code generation.
    if options.codegen {
        codegen::generate(&mut program, options, &mut stats);
    }

    let errors = program.validate();
    if !errors.is_empty() {
        return Err(CompileError::Invalid(errors));
    }
    Ok(CompiledProgram {
        program,
        options: *options,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsg_ir::build::FunctionBuilder;
    use bsg_ir::hll::{Expr, HllGlobal, HllProgram};

    fn small_program() -> HllProgram {
        let mut p = HllProgram::new();
        p.add_global(HllGlobal::zeroed("buf", 64));
        let mut f = FunctionBuilder::new("main");
        f.assign_var("acc", Expr::int(0));
        f.for_loop("i", Expr::int(0), Expr::int(16), |b| {
            b.assign_index(
                "buf",
                Expr::var("i"),
                Expr::mul(Expr::var("i"), Expr::int(2)),
            );
            b.assign_var(
                "acc",
                Expr::add(Expr::var("acc"), Expr::index("buf", Expr::var("i"))),
            );
        });
        f.ret(Some(Expr::var("acc")));
        p.add_function(f.finish());
        p
    }

    #[test]
    fn compiles_at_every_level_and_isa() {
        let hll = small_program();
        for level in OptLevel::ALL {
            for isa in TargetIsa::ALL {
                let out = compile(&hll, &CompileOptions::new(level, isa)).expect("compiles");
                assert!(out.program.validate().is_empty());
                assert!(out.program.static_inst_count() > 0);
            }
        }
    }

    #[test]
    fn higher_levels_produce_fewer_static_instructions() {
        let hll = small_program();
        let o0 = compile(&hll, &CompileOptions::portable(OptLevel::O0)).unwrap();
        let o2 = compile(&hll, &CompileOptions::portable(OptLevel::O2)).unwrap();
        assert!(
            o2.program.static_inst_count() < o0.program.static_inst_count(),
            "O2 ({}) should be smaller than O0 ({})",
            o2.program.static_inst_count(),
            o0.program.static_inst_count()
        );
    }

    #[test]
    fn unknown_global_is_reported() {
        let mut f = FunctionBuilder::new("main");
        f.assign_index("missing", Expr::int(0), Expr::int(1));
        let hll = HllProgram::with_main(f.finish());
        let err = compile(&hll, &CompileOptions::default()).unwrap_err();
        assert!(matches!(err, CompileError::UnknownGlobal(_)));
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn opt_level_and_isa_display() {
        assert_eq!(OptLevel::O2.to_string(), "-O2");
        assert_eq!(TargetIsa::Ia64.to_string(), "ia64");
        assert!(TargetIsa::X86.has_memory_operands());
        assert!(!TargetIsa::Ia64.has_memory_operands());
        assert!(TargetIsa::Ia64.is_epic());
        assert!(TargetIsa::X86.allocatable_regs() < TargetIsa::X86_64.allocatable_regs());
    }
}
