//! # bsg-profile — statistical workload profiles
//!
//! This crate implements the profiling half of the IISWC 2010 benchmark-
//! synthesis framework (§III-A of the paper): it runs a compiled workload
//! under the functional executor of `bsg-uarch` and collects the *statistical
//! profile* that drives benchmark synthesis:
//!
//! * the **SFGL** — the Statistical Flow Graph with Loop annotation
//!   ([`sfgl::Sfgl`]): basic-block execution counts, edge transition
//!   probabilities, loop entry/iteration counts and function call counts;
//! * per-branch **taken and transition rates** ([`collect::BranchProfile`]),
//!   used to classify branches as easy or hard to predict;
//! * per-access **cache miss-rate classes** ([`collect::MemoryProfile`],
//!   Table I of the paper);
//! * the dynamic **instruction mix** ([`collect::InstructionMix`]); and
//! * per-block **instruction descriptors** consumed by the pattern
//!   recognizer when the synthesizer populates basic blocks with C
//!   statements.
//!
//! Profiles are plain data: they persist and travel through the canonical
//! codec ([`bsg_ir::codec`]), and can be merged for benchmark consolidation.
//!
//! # Example
//!
//! ```
//! use bsg_compiler::{compile, CompileOptions, OptLevel};
//! use bsg_ir::build::FunctionBuilder;
//! use bsg_ir::hll::{Expr, HllProgram};
//! use bsg_profile::{profile_program, ProfileConfig};
//!
//! let mut f = FunctionBuilder::new("main");
//! f.for_loop("i", Expr::int(0), Expr::int(50), |b| {
//!     b.assign_var("s", Expr::add(Expr::var("s"), Expr::var("i")));
//! });
//! f.ret(Some(Expr::var("s")));
//! let hll = HllProgram::with_main(f.finish());
//! // The paper profiles workloads compiled at a low optimization level (-O0).
//! let compiled = compile(&hll, &CompileOptions::portable(OptLevel::O0))?;
//! let profile = profile_program(&compiled.program, "sum", &ProfileConfig::default());
//! assert_eq!(profile.sfgl.loops.len(), 1);
//! assert_eq!(profile.sfgl.loops[0].iterations, 50);
//! # Ok::<(), bsg_compiler::CompileError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod collect;
pub mod sfgl;

pub use collect::{
    class_stride_bytes, miss_rate_class, profile_image, profile_program, profile_program_reference,
    BranchProfile, InstDescriptor, InstructionMix, MemoryProfile, MixObserver, ProfileConfig,
    SiteKey, StatisticalProfile,
};
pub use sfgl::{NodeKey, Sfgl, SfglLoop};
