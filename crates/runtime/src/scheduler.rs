//! The sweep scheduler: one shared task queue over scoped worker threads.
//!
//! [`Runtime::try_run`] executes a batch of independent tasks on scoped
//! worker threads.  The batch waits in one `Mutex`-guarded queue in
//! submission order, and each worker takes the next task whenever it
//! finishes its last one, until the queue is empty.  Claiming on demand
//! keeps every worker busy however uneven the task costs are (a long task
//! holds back only the worker running it), and tasks *start* in submission
//! order, so a batch submitted longest-first runs longest-first.  Nothing
//! re-enqueues (nested batches run inline), so per-worker deques and
//! stealing would add nothing; one lock per claimed task is noise next to
//! the task.
//!
//! Results are written back by submission index, so the returned `Vec` is in
//! submission order regardless of worker count or interleaving: a batch run
//! with 1, 2 or 8 workers returns bit-identical results for deterministic
//! tasks (the bench crate's determinism suite enforces this on whole figure
//! texts).
//!
//! A batch may be submitted from inside a task (nested sweeps).  A nested
//! batch executes inline on the calling worker, in submission order: the
//! top-level shard granularity is where parallelism comes from, and running
//! nested batches inline keeps the pool free of lifetime erasure (`unsafe`)
//! and of thread oversubscription while preserving determinism.
//!
//! # Fault isolation
//!
//! Every task runs under `catch_unwind`: a panicking task becomes an
//! `Err(BsgError::TaskPanic)` in *its own* submission slot of
//! [`Runtime::try_run`]'s result vector, and every other task — including
//! ones queued behind it — completes normally.  The infallible
//! [`Runtime::map`] panics if any task failed, but only after the whole
//! batch has drained, so a sweep is never half-executed.
//!
//! A per-task deadline ([`Runtime::with_deadline`]) is the scheduler's only
//! failure policy: the isolation boundary installs a per-task
//! [`CancelToken`] ambiently ([`bsg_uarch::cancel`]), the executor's bounded
//! dispatch loop polls it, and a runaway task is therefore *preempted*
//! mid-execution — the overrun surfaces deterministically as
//! `Err(BsgError::DeadlineExceeded)` in the task's submission slot,
//! promptly instead of whenever the closure happened to finish.  Closures
//! that never enter the executor (pure host code) fall back to a
//! completion-time check.

use crate::error::{lock_unpoisoned, panic_message, BsgError, BsgResult};
use bsg_uarch::cancel::{self, CancelToken};
use std::cell::Cell;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

thread_local! {
    /// Set while the current thread is a pool worker; batches submitted from
    /// a task detect it and execute inline instead of spawning a second pool.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
    /// Scoped worker-count override installed by [`with_workers`].
    static WORKER_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Runs `f` with [`Runtime::current`] pinned to `workers` workers on this
/// thread (restored afterwards, panic-safe via the guard drop).  The
/// determinism suite uses this to prove figure text is bit-identical at 1, 2
/// and 8 workers within one process.
pub fn with_workers<R>(workers: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            WORKER_OVERRIDE.with(|w| w.set(self.0));
        }
    }
    let _restore = Restore(WORKER_OVERRIDE.with(|w| w.replace(Some(workers.max(1)))));
    f()
}

/// Environment variable overriding the default worker count (useful for
/// pinning determinism tests and CI runs to a specific parallelism).
pub const WORKERS_ENV: &str = "BSG_RUNTIME_WORKERS";

/// The process-wide runtime behind [`Runtime::global`], at module scope so
/// [`install_global_workers`] can seed it before first use.
static GLOBAL: OnceLock<Runtime> = OnceLock::new();

/// Installs `workers` as the process-wide [`Runtime::global`] width before
/// its first use.  Returns `false` (and changes nothing) if the global
/// runtime was already initialized — `--workers` flags call this at the top
/// of `main`, where that can only happen if the flag is passed twice.
pub fn install_global_workers(workers: usize) -> bool {
    GLOBAL.set(Runtime::new(workers)).is_ok()
}

/// Applies a `--workers N` CLI value: the same validation (and the same
/// stderr warning shape) as the [`WORKERS_ENV`] path, then
/// [`install_global_workers`].  Invalid values warn and leave the default
/// resolution ([`WORKERS_ENV`] / `available_parallelism`) in place — a
/// typo'd flag must never wedge or abort a run.
pub fn apply_workers_flag(raw: &str) {
    match parse_workers(raw) {
        Ok(n) => {
            if !install_global_workers(n) {
                eprintln!(
                    "warning: ignoring --workers {raw:?} (the global runtime \
                     is already initialized)"
                );
            }
        }
        Err(reason) => {
            eprintln!(
                "warning: ignoring --workers {raw:?} ({reason}); \
                 falling back to {WORKERS_ENV} / available_parallelism"
            );
        }
    }
}

/// Runs one task inside the isolation boundary: under a deadline a
/// per-task [`CancelToken`] is installed ambiently (so the executor and the
/// artifact store observe it), panics are caught and converted, and the
/// deadline is re-checked at completion for host-code overruns the executor
/// never had a chance to preempt.
fn run_isolated<R>(task: impl FnOnce() -> R, deadline: Option<Duration>) -> BsgResult<R> {
    let start = Instant::now();
    let _ambient =
        deadline.map(|budget| cancel::install(Arc::new(CancelToken::with_deadline(budget))));
    match catch_unwind(AssertUnwindSafe(task)) {
        Err(payload) => Err(BsgError::TaskPanic {
            message: panic_message(payload.as_ref()),
        }),
        Ok(value) => match deadline {
            Some(deadline) if start.elapsed() > deadline => Err(BsgError::DeadlineExceeded {
                elapsed_ms: start.elapsed().as_millis() as u64,
                deadline_ms: deadline.as_millis() as u64,
            }),
            _ => Ok(value),
        },
    }
}

/// A task scheduler with a fixed worker budget: each batch is one shared
/// queue that the workers drain in submission order.
///
/// The `Runtime` itself is cheap (a worker count and an optional per-task
/// deadline); threads are scoped to each batch so tasks may borrow from the
/// caller's stack.
#[derive(Debug, Clone, Copy)]
pub struct Runtime {
    workers: usize,
    deadline: Option<Duration>,
}

impl Runtime {
    /// A runtime with exactly `workers` workers (clamped to at least 1) and
    /// no deadline.
    pub fn new(workers: usize) -> Self {
        Runtime {
            workers: workers.max(1),
            deadline: None,
        }
    }

    /// This runtime with a per-task wall-clock budget.  Each task runs under
    /// an ambient [`CancelToken`] carrying the deadline, so the executor's
    /// dispatch loop **preempts** a task that blows it mid-execution, and
    /// the task's result is replaced by [`BsgError::DeadlineExceeded`] in
    /// its submission slot.  Host code that never enters the executor is
    /// caught by a completion-time check (preemption needs a poll point).
    pub fn with_deadline(self, deadline: Duration) -> Runtime {
        Runtime {
            deadline: Some(deadline),
            ..self
        }
    }

    /// The default worker budget: a **valid** [`WORKERS_ENV`] override if
    /// set, else `available_parallelism`.  Invalid overrides (`0`, empty,
    /// non-numeric) are rejected with a warning on stderr rather than
    /// silently wedging the pool at a nonsensical width.
    pub fn default_workers() -> usize {
        let fallback = || std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
        match std::env::var(WORKERS_ENV) {
            Err(_) => fallback(),
            Ok(raw) => match parse_workers(&raw) {
                Ok(n) => n,
                Err(reason) => {
                    eprintln!(
                        "warning: ignoring {WORKERS_ENV}={raw:?} ({reason}); \
                         falling back to available_parallelism"
                    );
                    fallback()
                }
            },
        }
    }

    /// The process-wide runtime used by the experiment harness.  Its width
    /// may be pinned before first use via [`install_global_workers`] (the
    /// `--workers` CLI flag); otherwise it resolves [`Runtime::default_workers`].
    pub fn global() -> &'static Runtime {
        GLOBAL.get_or_init(|| Runtime::new(Runtime::default_workers()))
    }

    /// The runtime sweeps should use right now: the [`with_workers`] override
    /// if one is active on this thread, else [`Runtime::global`].
    pub fn current() -> Runtime {
        WORKER_OVERRIDE
            .with(Cell::get)
            .map(Runtime::new)
            .unwrap_or(*Runtime::global())
    }

    /// This runtime's worker budget.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Executes every task in `tasks` and returns each task's outcome —
    /// value, caught panic, or deadline overrun — in its own submission
    /// slot; one faulting task never aborts, blocks or reorders the others.
    ///
    /// Tasks run concurrently on up to `workers` scoped threads; a batch of
    /// one task, a single-worker runtime, or a nested call from inside a task
    /// all execute inline on the calling thread.
    pub fn try_run<R, F>(&self, tasks: Vec<F>) -> Vec<BsgResult<R>>
    where
        R: Send,
        F: FnOnce() -> R + Send,
    {
        let n = tasks.len();
        let workers = self.workers.min(n);
        if workers <= 1 || IN_WORKER.with(Cell::get) {
            return tasks
                .into_iter()
                .map(|task| run_isolated(task, self.deadline))
                .collect();
        }

        // One queue in submission order: each worker claims the next task
        // until it is empty.  The claim is its own statement so the lock is
        // released before the task runs.  Panics are caught inside
        // `run_isolated`, so a faulting task neither unwinds through this
        // loop nor poisons the queue for its siblings.
        let queue = Mutex::new(tasks.into_iter().enumerate());
        let mut results: Vec<Option<BsgResult<R>>> = (0..n).map(|_| None).collect();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        IN_WORKER.with(|f| f.set(true));
                        let mut out = Vec::new();
                        loop {
                            let next = lock_unpoisoned(&queue).next();
                            let Some((i, task)) = next else { break out };
                            out.push((i, run_isolated(task, self.deadline)));
                        }
                    })
                })
                .collect();
            for handle in handles {
                match handle.join() {
                    Ok(out) => out.into_iter().for_each(|(i, r)| results[i] = Some(r)),
                    // A worker can only panic outside the task boundary (a
                    // bug in the scheduler itself).  Its tasks surface as
                    // missing results instead of unwinding.
                    Err(payload) => eprintln!(
                        "[bsg-runtime] scheduler worker panicked outside a task: {}",
                        panic_message(payload.as_ref())
                    ),
                }
            }
        });
        results
            .into_iter()
            .map(|r| {
                r.unwrap_or(Err(BsgError::TaskPanic {
                    message: "task produced no result (scheduler worker lost)".to_string(),
                }))
            })
            .collect()
    }

    /// Maps `items` through `f` on the scheduler, preserving input order in
    /// the result.
    ///
    /// # Panics
    ///
    /// If any item panicked, `map` panics **after the whole batch has
    /// drained** (every other item still runs to completion; the panic
    /// carries the first failing item's message).  Callers that need
    /// per-item outcomes use [`try_map`](Runtime::try_map) instead.
    pub fn map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        self.try_map(items, f)
            .into_iter()
            .enumerate()
            .map(|(i, r)| r.unwrap_or_else(|e| panic!("scheduler task {i} failed: {e}")))
            .collect()
    }

    /// [`map`](Runtime::map) with per-item fault isolation: each item's
    /// outcome lands in its own submission slot as a [`BsgResult`], so one
    /// panicking item costs exactly one `Err`.
    pub fn try_map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<BsgResult<R>>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        let f = &f;
        self.try_run(
            items
                .into_iter()
                .map(|item| move || f(item))
                .collect::<Vec<_>>(),
        )
    }
}

/// Validates a [`WORKERS_ENV`] / `--workers` override: a positive integer
/// (surrounding whitespace tolerated).  Returns a human-readable rejection
/// reason for everything else, including `0` — a zero-worker pool would
/// wedge every sweep.
pub fn parse_workers(raw: &str) -> Result<usize, &'static str> {
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        return Err("empty value");
    }
    match trimmed.parse::<usize>() {
        Err(_) => Err("not a number"),
        Ok(0) => Err("zero workers would wedge the pool"),
        Ok(n) => Ok(n),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn results_are_in_submission_order_for_every_worker_count() {
        let expected: Vec<usize> = (0..97).map(|i| i * i).collect();
        for workers in [1, 2, 3, 8, 64] {
            let rt = Runtime::new(workers);
            let got = rt.map((0..97).collect(), |i: usize| i * i);
            assert_eq!(got, expected, "workers = {workers}");
        }
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let counter = AtomicU64::new(0);
        let rt = Runtime::new(4);
        let results = rt.map((0..200).collect(), |_: u64| {
            counter.fetch_add(1, Ordering::Relaxed)
        });
        assert_eq!(results.len(), 200);
        assert_eq!(counter.load(Ordering::Relaxed), 200);
        // Each task observed a distinct pre-increment value.
        let mut seen: Vec<u64> = results;
        seen.sort_unstable();
        assert_eq!(seen, (0..200).collect::<Vec<_>>());
    }

    #[test]
    fn nested_runs_execute_inline_and_stay_ordered() {
        let rt = Runtime::new(4);
        let outer = rt.map((0..8).collect(), |i: u64| {
            // A nested sweep from inside a task must not deadlock, spawn a
            // second pool, or reorder its results.
            let inner = Runtime::new(4).map((0..5).collect(), |j: u64| i * 10 + j);
            assert_eq!(inner, (0..5).map(|j| i * 10 + j).collect::<Vec<_>>());
            inner.iter().sum::<u64>()
        });
        assert_eq!(
            outer,
            (0..8)
                .map(|i| (0..5).map(|j| i * 10 + j).sum())
                .collect::<Vec<u64>>()
        );
    }

    #[test]
    fn empty_and_singleton_batches_work() {
        let rt = Runtime::new(8);
        let empty: Vec<i32> = rt.map(Vec::new(), |x: i32| x);
        assert!(empty.is_empty());
        assert_eq!(rt.map(vec![7], |x: i32| x), vec![7]);
    }

    #[test]
    fn a_panicking_task_propagates_instead_of_hanging() {
        // Regression test: the panicking worker must not leave siblings
        // waiting for work that will never be marked done.
        let result = std::panic::catch_unwind(|| {
            Runtime::new(4).map((0..32).collect(), |i: u64| {
                if i == 5 {
                    panic!("task failure");
                }
                i
            })
        });
        assert!(result.is_err(), "the task panic must reach the caller");
    }

    #[test]
    fn try_run_isolates_panics_to_their_submission_slot() {
        for workers in [1usize, 2, 4, 8] {
            let results = Runtime::new(workers).try_run(
                (0..64u64)
                    .map(|i| {
                        move || {
                            if i % 13 == 5 {
                                panic!("injected fault in task {i}");
                            }
                            i * 2
                        }
                    })
                    .collect::<Vec<_>>(),
            );
            assert_eq!(results.len(), 64);
            for (i, r) in results.iter().enumerate() {
                if i % 13 == 5 {
                    match r {
                        Err(BsgError::TaskPanic { message }) => {
                            assert!(message.contains(&format!("task {i}")), "{message}")
                        }
                        other => panic!("task {i} should have panicked, got {other:?}"),
                    }
                } else {
                    assert_eq!(*r, Ok(i as u64 * 2), "workers = {workers}");
                }
            }
        }
    }

    #[test]
    fn a_panicking_task_does_not_poison_siblings_or_drop_their_results() {
        // 4 workers, one early panic: every other task must still produce
        // its value (pre-PR-6, the panic unwound through the worker and all
        // of that worker's completed results were dropped).
        let counter = AtomicU64::new(0);
        let results = Runtime::new(4).try_run(
            (0..100u64)
                .map(|i| {
                    let counter = &counter;
                    move || {
                        if i == 0 {
                            panic!("first task dies immediately");
                        }
                        counter.fetch_add(1, Ordering::Relaxed);
                        i
                    }
                })
                .collect::<Vec<_>>(),
        );
        assert!(results[0].is_err());
        assert_eq!(
            counter.load(Ordering::Relaxed),
            99,
            "all surviving tasks ran"
        );
        assert_eq!(results.iter().filter(|r| r.is_ok()).count(), 99);
    }

    /// main: r0 = 0; loop { r0 += 1 } — runs forever unless preempted.
    fn infinite_loop_image() -> bsg_uarch::ExecImage {
        use bsg_ir::program::{Function, Program};
        use bsg_ir::visa::{BinOp, Inst, Operand, Terminator};
        let mut p = Program::new();
        let mut f = Function::new("main");
        let r = f.fresh_reg();
        f.blocks[0].insts.push(Inst::Bin {
            op: BinOp::Add,
            ty: bsg_ir::types::Ty::Int,
            dst: r,
            lhs: r.into(),
            rhs: Operand::ImmInt(1),
        });
        f.blocks[0].term = Terminator::Jump(f.entry);
        p.add_function(f);
        bsg_uarch::ExecImage::new(&p)
    }

    #[test]
    fn an_infinite_loop_task_is_preempted_by_its_deadline() {
        // The acceptance bar for preemption: a program that never
        // terminates, under a 50 ms budget, must come back as
        // `DeadlineExceeded` promptly — the old completion-time watchdog
        // would hang here forever.
        let image = infinite_loop_image();
        let started = Instant::now();
        let results = Runtime::new(2)
            .with_deadline(Duration::from_millis(50))
            .try_run(vec![move || {
                bsg_uarch::exec::execute_image(
                    &image,
                    &mut bsg_uarch::exec::NullObserver,
                    &bsg_uarch::ExecConfig::default(),
                )
            }]);
        let elapsed = started.elapsed();
        match &results[0] {
            Err(BsgError::DeadlineExceeded { deadline_ms, .. }) => {
                assert_eq!(*deadline_ms, 50)
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        assert!(
            elapsed < Duration::from_millis(150),
            "preemption, not detection: took {elapsed:?} against a 50 ms budget"
        );
    }

    #[test]
    fn deadline_overruns_become_errors_without_disturbing_fast_tasks() {
        let results = Runtime::new(2)
            .with_deadline(Duration::from_millis(20))
            .try_run(
                (0..8u64)
                    .map(|i| {
                        move || {
                            if i == 3 {
                                std::thread::sleep(Duration::from_millis(60));
                            }
                            i
                        }
                    })
                    .collect::<Vec<_>>(),
            );
        for (i, r) in results.iter().enumerate() {
            if i == 3 {
                assert!(
                    matches!(r, Err(BsgError::DeadlineExceeded { .. })),
                    "slow task must be flagged: {r:?}"
                );
            } else {
                assert_eq!(*r, Ok(i as u64));
            }
        }
    }

    #[test]
    fn map_panics_only_after_the_batch_drains() {
        let counter = std::sync::Arc::new(AtomicU64::new(0));
        let c = counter.clone();
        let result = std::panic::catch_unwind(move || {
            Runtime::new(4).map((0..32).collect(), move |i: u64| {
                if i == 2 {
                    panic!("die");
                }
                c.fetch_add(1, Ordering::Relaxed);
                i
            })
        });
        assert!(result.is_err());
        assert_eq!(
            counter.load(Ordering::Relaxed),
            31,
            "map still executed every non-faulting task before re-panicking"
        );
    }

    #[test]
    fn worker_env_override_rejects_invalid_values() {
        // Valid values parse (with whitespace tolerated).
        assert_eq!(parse_workers("4"), Ok(4));
        assert_eq!(parse_workers(" 16 "), Ok(16));
        // `0`, empty and garbage are rejected (the caller then falls back to
        // available_parallelism with a stderr warning).
        assert!(parse_workers("0").is_err());
        assert!(parse_workers("").is_err());
        assert!(parse_workers("   ").is_err());
        assert!(parse_workers("eight").is_err());
        assert!(parse_workers("-2").is_err());
        assert!(parse_workers("4.5").is_err());
        // And the fallback itself never yields zero workers.
        assert!(Runtime::default_workers() >= 1);
    }

    #[test]
    fn a_long_task_does_not_hold_back_the_rest() {
        // One long task at the front of the batch; with static partitioning
        // the rest of its partition would wait behind it.  The schedule must
        // still complete and preserve order.
        let rt = Runtime::new(2);
        let got = rt.map((0..16).collect(), |i: u64| {
            if i == 0 {
                std::thread::sleep(std::time::Duration::from_millis(30));
            }
            i * 3
        });
        assert_eq!(got, (0..16).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn a_batch_starts_in_submission_order() {
        // Task `i` waits until task `i - 1` has started.  Claiming in
        // submission order ends every wait at once; a worker that started a
        // later task first would hold it while nobody starts its predecessor.
        use std::sync::Condvar;
        for workers in [2, 4] {
            let started = Mutex::new(vec![false; 16]);
            let turn = Condvar::new();
            let timed_out = Runtime::new(workers).map((0..16).collect(), |i: usize| {
                let (mut guard, wait) = turn
                    .wait_timeout_while(started.lock().unwrap(), Duration::from_secs(2), |s| {
                        i > 0 && !s[i - 1]
                    })
                    .unwrap();
                guard[i] = true;
                turn.notify_all();
                wait.timed_out()
            });
            assert_eq!(timed_out, vec![false; 16], "workers = {workers}");
        }
    }
}
