//! # bsg-runtime — the experiment-harness runtime
//!
//! The paper's evaluation (§V) is a large grid of sweeps: workloads ×
//! optimization levels × ISAs × cache sizes × machine configurations.  Two
//! properties of that grid shape this crate:
//!
//! 1. **The same artifacts are requested over and over.**  Nearly every
//!    figure compiles the same (workload, level, ISA) points and predecodes
//!    the same execution images.  The [`ArtifactStore`] is a content-
//!    addressed, thread-safe cache that builds each artifact exactly once
//!    per process and hands out `Arc`s.
//! 2. **Sweep points have wildly uneven costs.**  `susan` runs an order of
//!    magnitude longer than `crc32`; a static partition of coarse
//!    per-workload units leaves workers idle.  The [`Runtime`] keeps each
//!    batch in one shared queue over scoped threads: every worker takes the
//!    next task in submission order as soon as it is free, so no worker
//!    idles while tasks remain, and results come back in submission order,
//!    so figures can shard their sweeps into fine-grained tasks and still
//!    emit byte-identical text at any worker count.
//!
//! The experiment harness (`bsg-bench`) routes every figure and table
//! through these two components; see that crate for the call sites.
//!
//! Since PR 6 the crate is also the workspace's **fault-isolation layer**:
//! scheduler tasks run under `catch_unwind` and report per-task
//! [`BsgResult`]s ([`Runtime::try_run`]) under an optional per-task
//! deadline ([`Runtime::with_deadline`], the one failure policy), a failed
//! artifact build is final and memoized per key instead of deadlocking
//! waiters ([`store`]), and the disk tier degrades to
//! memory-only caching under injected or real IO faults ([`fault`],
//! `BSG_FAULT`).  The chaos suite (`bsg-bench/tests/fault_injection.rs` and
//! the CI chaos job) holds those properties under injected panics, ENOSPC,
//! torn renames and short writes.

#![forbid(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]
// The fault-isolation contract of this crate is "errors are values": a
// stray `unwrap`/`expect` in non-test code is a latent process abort, which
// is exactly the failure mode PR 6 removed.  CI runs clippy with
// `-D warnings`, so these fire as hard errors there.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod disk;
pub mod error;
pub mod fault;
pub mod scheduler;
pub mod store;

pub use bsg_uarch::cancel::{self, CancelToken};
pub use disk::{DiskCache, DiskStats, KindStats};
pub use error::{panic_message, BsgError, BsgResult};
pub use fault::FaultPlan;
pub use scheduler::{
    apply_workers_flag, install_global_workers, parse_workers, with_workers, Runtime,
};
pub use store::{ArtifactStore, CompiledArtifact, SourceId, StoreStats};
