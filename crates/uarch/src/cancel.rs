//! Cooperative deadlines for the dispatch loop.
//!
//! The scheduler's `DeadlineExceeded` started life as *detection*: the task
//! ran to completion and the overrun was recorded afterwards, so an
//! infinite-loop program under a 50 ms budget still pinned a worker forever.
//! This module makes deadlines *preemptive* without giving the executor any
//! notion of threads or time policy: a [`CancelToken`] is a task's deadline
//! (a start instant, a budget and a latch), installed ambiently
//! (thread-local) by whoever owns the task boundary, and polled by
//! `execute_image`'s bounded dispatch loop every [`POLL_INTERVAL`]
//! instructions.  When the deadline passes, the engine sets its existing
//! `halted` flag and unwinds through the same sync-out paths an exhausted
//! instruction budget uses, so the outcome is an ordinary incomplete
//! [`crate::exec::ExecOutcome`] — the scheduler then converts the (now
//! prompt) overrun into `DeadlineExceeded` exactly as before.
//!
//! The unbounded fast path is untouched: with no ambient token and no
//! instruction budget, `execute_image` still selects the `BOUNDED = false`
//! loop where every poll compiles out (the zero-cost contract the
//! `interp_bench` null path depends on).

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The dispatch loop polls the ambient token once every `POLL_INTERVAL`
/// retired instructions (a power of two, so the check is a mask compare).
/// At interpreter speeds (~10⁸ inst/s) this bounds preemption latency to
/// tens of microseconds while keeping the common case to one AND+branch.
pub const POLL_INTERVAL: u64 = 4096;

/// Mask form of [`POLL_INTERVAL`] for the dispatch loop's `instructions &
/// POLL_MASK == 0` check.
pub const POLL_MASK: u64 = POLL_INTERVAL - 1;

/// One task's wall-clock deadline.  It trips once `budget` has passed since
/// it was created and stays tripped (the latch spares later polls the clock
/// read).
#[derive(Debug)]
pub struct CancelToken {
    cancelled: AtomicBool,
    started: Instant,
    budget: Duration,
}

impl CancelToken {
    /// A token that trips `budget` from now.
    pub fn with_deadline(budget: Duration) -> Self {
        CancelToken {
            cancelled: AtomicBool::new(false),
            started: Instant::now(),
            budget,
        }
    }

    /// Whether the deadline has passed.
    pub fn is_cancelled(&self) -> bool {
        if self.cancelled.load(Ordering::Acquire) {
            return true;
        }
        if self.started.elapsed() >= self.budget {
            self.cancelled.store(true, Ordering::Release);
            return true;
        }
        false
    }

    /// Milliseconds since the token was created (the task's elapsed time,
    /// for rendering `DeadlineExceeded`).
    pub fn elapsed_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }

    /// The budget in milliseconds.
    pub fn deadline_ms(&self) -> u64 {
        self.budget.as_millis() as u64
    }
}

thread_local! {
    /// The ambient token for the current task, installed by the scheduler's
    /// isolation boundary around each task closure.
    static CURRENT: RefCell<Option<Arc<CancelToken>>> = const { RefCell::new(None) };
}

/// Restores the previously ambient token (if any) when dropped, so nested
/// task boundaries (inline nested sweeps) unwind correctly — including on
/// panic.
#[derive(Debug)]
pub struct InstallGuard {
    previous: Option<Arc<CancelToken>>,
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| *c.borrow_mut() = self.previous.take());
    }
}

/// Installs `token` as the current thread's ambient cancellation token until
/// the returned guard drops.  Every `execute_image` call on this thread (and
/// every store build it performs) observes the token.
pub fn install(token: Arc<CancelToken>) -> InstallGuard {
    InstallGuard {
        previous: CURRENT.with(|c| c.borrow_mut().replace(token)),
    }
}

/// The current thread's ambient token, if a task boundary installed one.
pub fn current() -> Option<Arc<CancelToken>> {
    CURRENT.with(|c| c.borrow().clone())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deadline_trips_after_budget() {
        let t = CancelToken::with_deadline(Duration::from_millis(10));
        assert!(!t.is_cancelled());
        std::thread::sleep(Duration::from_millis(20));
        assert!(t.is_cancelled());
        assert!(t.is_cancelled(), "the deadline latches");
        assert_eq!(t.deadline_ms(), 10);
    }

    #[test]
    fn install_is_scoped_and_nestable() {
        assert!(current().is_none());
        let outer = Arc::new(CancelToken::with_deadline(Duration::from_secs(3600)));
        {
            let _g1 = install(outer.clone());
            assert!(Arc::ptr_eq(&current().expect("installed"), &outer));
            let inner = Arc::new(CancelToken::with_deadline(Duration::from_secs(3600)));
            {
                let _g2 = install(inner.clone());
                assert!(Arc::ptr_eq(&current().expect("installed"), &inner));
            }
            assert!(
                Arc::ptr_eq(&current().expect("restored"), &outer),
                "dropping the inner guard restores the outer token"
            );
        }
        assert!(current().is_none(), "dropping the last guard clears");
    }

    #[test]
    fn poll_interval_is_a_power_of_two() {
        assert!(POLL_INTERVAL.is_power_of_two());
        assert_eq!(POLL_MASK, POLL_INTERVAL - 1);
    }
}
