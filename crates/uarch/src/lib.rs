//! # bsg-uarch — microarchitecture substrate for benchmark synthesis
//!
//! The IISWC 2010 benchmark-synthesis paper evaluates its synthetic clones
//! with a dynamic binary instrumentation tool (Pin), cache simulation, a
//! hybrid branch predictor, detailed cycle-accurate simulation of a 2-wide
//! out-of-order processor (PTLSim), and five real machines spanning three
//! ISAs (Table III).  None of that toolchain is portable, so this crate
//! rebuilds the whole substrate over the workspace's virtual ISA:
//!
//! * [`exec`] — a functional executor with instrumentation hooks (the Pin
//!   stand-in); every other component is an [`exec::Observer`] of it.
//! * [`cache`] — set-associative LRU cache simulation, including the
//!   single-pass multi-configuration sweep used for Figures 7, 8 and 10.
//! * [`branch`] — bimodal, gshare and hybrid branch predictors (Figure 9).
//! * [`pipeline`] — configs and results of the dependence-driven
//!   out-of-order and in-order (EPIC) timing models producing CPI
//!   (Figure 10), plus the scalar model kept as the test oracle.
//! * [`machine`] — the five Table III machine models used to reproduce the
//!   cross-architecture, cross-compiler execution-time trends of Figure 11.
//! * [`batch`] — the production timing model: one functional execution
//!   drives every config's timing state at once (Figure 10's cache sizes
//!   and Figure 11's machines each pay for one interpreter pass, not N),
//!   bit-identical per lane to the scalar oracle in [`pipeline`].
//!
//! # Example
//!
//! ```
//! use bsg_uarch::exec::{execute, CountingObserver, ExecConfig};
//! use bsg_ir::program::{Function, Program};
//! use bsg_ir::visa::{Inst, Operand, Terminator};
//!
//! // A one-instruction program: main() { return 41 + 1; }
//! let mut program = Program::new();
//! let mut main = Function::new("main");
//! let r = main.fresh_reg();
//! main.blocks[0].insts.push(Inst::Bin {
//!     op: bsg_ir::BinOp::Add,
//!     ty: bsg_ir::Ty::Int,
//!     dst: r,
//!     lhs: Operand::ImmInt(41),
//!     rhs: Operand::ImmInt(1),
//! });
//! main.blocks[0].term = Terminator::Return(Some(r.into()));
//! program.add_function(main);
//!
//! let mut counter = CountingObserver::default();
//! let outcome = execute(&program, &mut counter, &ExecConfig::default());
//! assert_eq!(outcome.return_value, Some(bsg_ir::Value::Int(42)));
//! assert_eq!(counter.instructions, 2); // the add and the return
//! ```

// `unsafe` is denied everywhere except the executor's two audited indexing
// helpers (`exec::at` / `exec::at_mut`), which carry explicit `allow`s, a
// `// SAFETY(ledger: ...)` tag naming the [`verify`]-checked invariants they
// rely on, and a `--cfg bsg_safe_core` escape hatch that restores fully
// bounds-checked indexing (a CI job exercises it).
#![deny(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

pub mod batch;
pub mod branch;
pub mod cache;
pub mod cancel;
pub mod exec;
pub mod image;
pub mod machine;
pub mod pipeline;
mod typing;
pub mod verify;

pub use batch::{simulate_image_batch, BatchedPipelineSim};
pub use branch::{Bimodal, BranchStats, GShare, Hybrid, Predictor};
pub use cache::{Cache, CacheConfig, CacheStats, CacheSweep};
pub use cancel::CancelToken;
pub use exec::{
    execute, execute_image, execute_legacy, run, ExecConfig, ExecOutcome, InstEvent, InstSite,
    Observer,
};
pub use image::{ExecImage, SiteMeta};
pub use machine::{MachineConfig, MachineIsa};
pub use pipeline::{simulate, simulate_image, PipelineConfig, PipelineResult};
pub use verify::{verify_image, VerifyError, VerifyReport};
