//! The structured error taxonomy of the runtime.
//!
//! Before this module existed, every fault in the runtime was a process
//! abort: a panicking scheduler task re-panicked out of `join`, a failing
//! artifact builder left its `OnceLock` unset and deadlocked every waiter,
//! and a disk-tier IO error was either swallowed or fatal.  A long-running
//! service (the ROADMAP's `bsg-server` item) cannot be built on any of
//! those behaviours, so faults are now **values**: every isolation boundary
//! (scheduler task, store build slot) converts its failure into a
//! [`BsgError`] and hands it to the caller in submission order, leaving
//! every *other* task and slot untouched; the disk tier absorbs its IO
//! errors as cache misses.
//!
//! The taxonomy is deliberately small — five variants
//! ([`BsgError::InvalidRequest`] and [`BsgError::Overloaded`] guard the
//! server's wire boundary) — and `Clone`-able, because the store
//! memoizes a failure per key and serves the same error value to every
//! waiter (see `store::SlotState`).
//!
//! Errors also cross process boundaries: `bsg-server` replies to a failed
//! request with the canonical byte encoding of its `BsgError`, so the type
//! implements [`Canon`]/[`Decanon`].  The encoding is lossless for every
//! error the runtime itself produces; the `&'static str` field
//! `BuildFailed::kind` is interned back to the store's known kind strings on
//! decode, with a generic fallback for values minted elsewhere.  Wire tag 2
//! belonged to a since-deleted IO variant and stays unused, so every other
//! variant keeps its encoding.

use bsg_ir::codec::{Canon, CanonReader, CanonWrite, Decanon};
use std::any::Any;
use std::fmt;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// `Result` specialized to the runtime's error taxonomy.
pub type BsgResult<T> = Result<T, BsgError>;

/// A fault isolated at one of the runtime's boundaries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BsgError {
    /// A scheduler task (or a section renderer) panicked; the panic was
    /// caught at the task boundary and every other task completed normally.
    TaskPanic {
        /// The panic payload, rendered to text (`&str`/`String` payloads
        /// verbatim; anything else is described generically).
        message: String,
    },
    /// An artifact build failed (builder returned an error or panicked).
    /// Builds are pure functions of their key, so the failure is final: the
    /// error is memoized per key, and every waiter — present and future —
    /// receives this same value instead of blocking on a build that will
    /// never complete.
    BuildFailed {
        /// The artifact table the build belonged to (`compiled`,
        /// `profile`, `synthesis`, `c-text`).
        kind: &'static str,
        /// The content address of the failed key (hex), for correlation
        /// with disk-tier entries and logs.
        key: String,
        /// The underlying failure, rendered to text.
        message: String,
    },
    /// A task exceeded the per-task deadline configured via
    /// [`Runtime::with_deadline`](crate::Runtime::with_deadline).  The deadline is **preemptive** for
    /// executor work: the scheduler installs an ambient cancellation token
    /// around each task and the dispatch loop polls it, halting a runaway
    /// program mid-execution; host-code phases without a poll point are
    /// still caught at completion.  Either way the over-budget result is
    /// replaced by this error deterministically in the result vector.
    DeadlineExceeded {
        /// How long the task actually ran, in milliseconds.
        elapsed_ms: u64,
        /// The configured deadline, in milliseconds.
        deadline_ms: u64,
    },
    /// A request arriving over the server's wire protocol was structurally
    /// well-formed but semantically unserviceable (unknown request kind,
    /// undecodable payload, unknown figure name).  The offending request is
    /// answered with this error; the connection and every other client
    /// stay live.
    InvalidRequest {
        /// What was wrong with the request.
        message: String,
    },
    /// The server's bounded admission queue was full when the request
    /// arrived, so it was shed *before* entering a batch (load shedding is
    /// cheap by construction: no artifact work happens for a shed request).
    /// Explicitly retryable — clients back off and retry idempotent kinds.
    Overloaded {
        /// The queue depth observed at admission time.
        queue_depth: u64,
        /// The configured admission limit the depth collided with.
        limit: u64,
    },
}

impl fmt::Display for BsgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BsgError::TaskPanic { message } => write!(f, "task panicked: {message}"),
            BsgError::BuildFailed { kind, key, message } => {
                write!(f, "{kind} artifact build failed for key {key}: {message}")
            }
            BsgError::DeadlineExceeded {
                elapsed_ms,
                deadline_ms,
            } => write!(
                f,
                "task exceeded its deadline: ran {elapsed_ms} ms against a {deadline_ms} ms budget"
            ),
            BsgError::InvalidRequest { message } => write!(f, "invalid request: {message}"),
            BsgError::Overloaded { queue_depth, limit } => write!(
                f,
                "server overloaded: admission queue at depth {queue_depth} (limit {limit}); \
                 request shed — retry with backoff"
            ),
        }
    }
}

impl std::error::Error for BsgError {}

/// Interns a decoded `BuildFailed::kind` back to the store's `&'static`
/// kind strings; unknown values fall back to `"artifact"`.
fn intern_kind(s: &str) -> &'static str {
    match s {
        "compiled" => "compiled",
        "profile" => "profile",
        "synthesis" => "synthesis",
        "c-text" => "c-text",
        _ => "artifact",
    }
}

// Hand-written: the decode re-interns the `&'static str` fields.
impl Canon for BsgError {
    fn canon(&self, w: &mut dyn CanonWrite) {
        match self {
            BsgError::TaskPanic { message } => {
                w.write(&[0]);
                message.canon(w);
            }
            BsgError::BuildFailed { kind, key, message } => {
                w.write(&[1]);
                kind.canon(w);
                key.canon(w);
                message.canon(w);
            }
            BsgError::DeadlineExceeded {
                elapsed_ms,
                deadline_ms,
            } => {
                w.write(&[3]);
                elapsed_ms.canon(w);
                deadline_ms.canon(w);
            }
            BsgError::InvalidRequest { message } => {
                w.write(&[4]);
                message.canon(w);
            }
            BsgError::Overloaded { queue_depth, limit } => {
                w.write(&[5]);
                queue_depth.canon(w);
                limit.canon(w);
            }
        }
    }
}

impl Decanon for BsgError {
    fn decanon(r: &mut CanonReader<'_>) -> Option<Self> {
        match r.byte()? {
            0 => Some(BsgError::TaskPanic {
                message: String::decanon(r)?,
            }),
            1 => Some(BsgError::BuildFailed {
                kind: intern_kind(&String::decanon(r)?),
                key: String::decanon(r)?,
                message: String::decanon(r)?,
            }),
            3 => Some(BsgError::DeadlineExceeded {
                elapsed_ms: u64::decanon(r)?,
                deadline_ms: u64::decanon(r)?,
            }),
            4 => Some(BsgError::InvalidRequest {
                message: String::decanon(r)?,
            }),
            5 => Some(BsgError::Overloaded {
                queue_depth: u64::decanon(r)?,
                limit: u64::decanon(r)?,
            }),
            _ => None,
        }
    }
}

/// Renders a caught panic payload as text: `&str` and `String` payloads
/// (the overwhelmingly common cases from `panic!`/`assert!`) verbatim,
/// anything else described generically rather than dropped.
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Locks a mutex, recovering the guard from a poisoned lock.
///
/// Every critical section in this crate is panic-free by construction (no
/// user code runs while a lock is held), but a panicking *task* on a worker
/// thread must never cascade into "every other worker panics on
/// `lock().unwrap()`" — which is exactly what `Mutex` poisoning does by
/// default.  The data guarded by these locks (the task queue, slot state
/// machines, memo maps) is valid at every instruction boundary, so
/// recovering the guard is sound.
pub(crate) fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// [`Condvar::wait`] with the same poison recovery as [`lock_unpoisoned`].
pub(crate) fn wait_unpoisoned<'a, T>(
    condvar: &Condvar,
    guard: MutexGuard<'a, T>,
) -> MutexGuard<'a, T> {
    condvar.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panic_messages_render_common_payloads() {
        let caught = std::panic::catch_unwind(|| panic!("plain str")).unwrap_err();
        assert_eq!(panic_message(caught.as_ref()), "plain str");
        let caught = std::panic::catch_unwind(|| panic!("formatted {}", 7)).unwrap_err();
        assert_eq!(panic_message(caught.as_ref()), "formatted 7");
        let caught = std::panic::catch_unwind(|| std::panic::panic_any(42u32)).unwrap_err();
        assert_eq!(panic_message(caught.as_ref()), "non-string panic payload");
    }

    #[test]
    fn errors_display_their_context() {
        let e = BsgError::BuildFailed {
            kind: "compiled",
            key: "deadbeef".into(),
            message: "compile failed".into(),
        };
        let text = e.to_string();
        assert!(text.contains("compiled"));
        assert!(text.contains("deadbeef"));
        assert!(text.contains("compile failed"));
        let d = BsgError::DeadlineExceeded {
            elapsed_ms: 120,
            deadline_ms: 50,
        };
        assert!(d.to_string().contains("120 ms"));
    }

    #[test]
    fn errors_roundtrip_through_the_canonical_codec() {
        let samples = [
            BsgError::TaskPanic {
                message: "boom".into(),
            },
            BsgError::BuildFailed {
                kind: "profile",
                key: "00ff".into(),
                message: "builder failed".into(),
            },
            BsgError::DeadlineExceeded {
                elapsed_ms: 10,
                deadline_ms: 5,
            },
            BsgError::InvalidRequest {
                message: "unknown figure".into(),
            },
            BsgError::Overloaded {
                queue_depth: 257,
                limit: 256,
            },
        ];
        for e in samples {
            let bytes = bsg_ir::codec::to_canon_bytes(&e);
            let back: BsgError =
                bsg_ir::codec::from_canon_bytes(&bytes).expect("canonical error bytes must decode");
            assert_eq!(back, e);
        }
        // Truncated bytes decode to None, never panic.
        let bytes = bsg_ir::codec::to_canon_bytes(&BsgError::TaskPanic {
            message: "boom".into(),
        });
        for cut in 0..bytes.len() {
            assert!(bsg_ir::codec::from_canon_bytes::<BsgError>(&bytes[..cut]).is_none());
        }
    }

    #[test]
    fn poisoned_locks_are_recoverable() {
        let m = std::sync::Arc::new(Mutex::new(5i32));
        let m2 = m.clone();
        let _ = std::thread::spawn(move || {
            let _guard = m2.lock();
            panic!("poison the lock");
        })
        .join();
        assert!(m.is_poisoned(), "the panic above must poison the mutex");
        assert_eq!(*lock_unpoisoned(&m), 5, "the value is still valid");
    }
}
