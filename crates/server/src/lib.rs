//! # bsg-server — benchmark synthesis as a service
//!
//! The paper's pipeline (profile → synthesize → measure) was grown as a
//! batch harness: one process prepares the suite, renders its figures, and
//! exits.  This crate puts the same pipeline behind a daemon so many
//! clients can share one hot artifact store — the `bsg-server` binary
//! serves profile/synthesize/measure/figure/stats requests over a
//! length-prefixed, checksummed wire protocol ([`proto`]), batching
//! concurrent requests through the shared task scheduler with per-request
//! fault isolation ([`server`]), and the `bsg-load` binary drives it with
//! hundreds of concurrent clients and writes `BENCH_server.json`
//! ([`load`]).
//!
//! The server reuses the workspace's canonical codec for every payload and
//! routes figure requests through the exact entry point the batch binaries
//! print, so server-mode output is byte-identical to batch stdout by
//! construction — CI golden-diffs the two.
//!
//! Since PR 10 the service is **overload-safe**: bounded admission with
//! `Overloaded` shedding, per-request preemption deadlines, slow-loris
//! read/write timeouts, client-side retry with backoff ([`client`]), and
//! graceful drain via in-band shutdown or SIGTERM ([`signal`]).  The
//! `--chaos-soak` mode of `bsg-load` holds those properties under
//! adversarial traffic.

// `deny` rather than `forbid` since PR 10: the [`signal`] module carries
// the workspace's only non-engine unsafe (one FFI call registering an
// atomic-store-only signal handler), audited via the bsg-verify
// process-level ledger (`signal-flag-only`).
#![deny(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

pub mod client;
pub mod load;
pub mod proto;
pub mod server;
pub mod signal;

pub use client::{Client, ClientError, RetryPolicy};
pub use load::{
    bench_json, drain_server, load_program, request_for, run_chaos_soak, run_phase, soak_json,
    storm_program, Phase, PhaseReport, SoakOutcome,
};
pub use proto::{read_frame, write_frame, Frame, FrameError, Request, Response, ServerStats};
pub use server::{Server, ServerConfig, ServerHandle};
pub use signal::{install_term_flag, term_requested};
