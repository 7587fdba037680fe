//! # bsg-ir — program representations for benchmark synthesis
//!
//! This crate provides the two program representations used throughout the
//! benchmark-synthesis workspace (a reproduction of *Van Ertvelde & Eeckhout,
//! "Benchmark Synthesis for Architecture and Compiler Exploration", IISWC
//! 2010*):
//!
//! * a C-like **high-level language** ([`hll`]) in which both the original
//!   workloads and the generated synthetic benchmark clones are expressed,
//!   together with a builder API ([`build`]) and a C source emitter
//!   ([`cemit`]); and
//! * a **virtual instruction-set architecture** ([`visa`]) with a
//!   control-flow-graph program container ([`program`]) that the compiler
//!   crate lowers the HLL into and that the microarchitecture simulators
//!   execute.
//!
//! The crate also contains the CFG analyses ([`cfg`]: dominators, natural
//! loops, reverse post-order) shared by the optimizing compiler and by the
//! SFGL profiler.
//!
//! # Example
//!
//! ```
//! use bsg_ir::build::FunctionBuilder;
//! use bsg_ir::hll::{BinOp, Expr, HllProgram};
//!
//! // Build `int main() { s = 0; for (i = 0; i < 10; i++) s = s + i; return s; }`
//! let mut f = FunctionBuilder::new("main");
//! f.assign_var("s", Expr::int(0));
//! f.for_loop("i", Expr::int(0), Expr::int(10), |b| {
//!     b.assign_var("s", Expr::bin(BinOp::Add, Expr::var("s"), Expr::var("i")));
//! });
//! f.ret(Some(Expr::var("s")));
//! let program = HllProgram::with_main(f.finish());
//! let c_source = bsg_ir::cemit::emit_c(&program);
//! assert!(c_source.contains("for ("));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod build;
pub mod cemit;
pub mod cfg;
pub mod codec;
pub mod eval;
pub mod hll;
pub mod pretty;
pub mod program;
pub mod types;
pub mod visa;

pub use program::{Block, Function, Global, Program};
pub use types::{BlockId, FuncId, GlobalId, Reg, Ty, Value};
pub use visa::{Address, BinOp, Inst, InstClass, MemBase, Operand, Terminator, UnOp};
