//! The bsg-server daemon: accept loop and per-connection reader threads that
//! run their own requests through the shared scheduler and artifact store.
//!
//! # Dispatch and backpressure model
//!
//! Each connection gets a reader thread that parses frames and serves **one
//! outstanding request at a time** — the protocol is strictly
//! request/reply per connection, so a client's own pipeline depth is its
//! concurrency limit and a slow request cannot starve the reader of its
//! own connection.  The reader runs its admitted request itself and writes
//! the reply as soon as that request finishes, so a quick request never
//! waits for an unrelated slow one.  A gate of
//! [`Runtime::workers`] execution slots bounds how many requests run at
//! once (the scheduler's worker budget); an admitted request waits for a
//! free slot, then runs as a one-task [`Runtime::try_run`] batch, inline on
//! its reader thread.  `try_run`'s fault isolation means one poisoned
//! request (panicking build, injected `BSG_FAULT` chaos) costs exactly its
//! own reply.
//!
//! A [`Request::Figure`] runs its sweep from the reader thread too, on up
//! to `workers` scoped scheduler threads of its own, so concurrent figures
//! use at most `workers`² threads: a fixed bound, independent of load.
//!
//! [`Request::Stats`] is served inline without taking a slot: it only
//! snapshots atomic counters, so monitoring stays responsive while every
//! slot is busy with synthesis work.  [`Request::Shutdown`] is inline too:
//! it flips the drain flag and acknowledges immediately.
//!
//! # Overload safety (PR 10)
//!
//! The request path is hardened end to end:
//!
//! - **Admission control.**  Requests admitted but still waiting for a
//!   slot are bounded by [`ServerConfig::queue_max`].  A request arriving
//!   when that many are waiting is shed *before* any artifact work with a
//!   cheap [`BsgError::Overloaded`] reply (connection stays open; the error
//!   is explicitly retryable).
//! - **Per-request deadlines.**  [`ServerConfig::request_deadline`] runs
//!   every request on [`Runtime::with_deadline`], so a runaway request is
//!   *preempted* by its deadline token and replied with
//!   `DeadlineExceeded` instead of pinning a slot.
//! - **Slow-loris defense.**  Connections carry read/write timeouts
//!   ([`ServerConfig::io_timeout`]).  A peer idle *between* frames just
//!   re-arms the read (the reader re-checks the drain flag); a peer
//!   stalled *mid-frame* — or one that won't drain its replies — is
//!   closed and counted as a protocol error.
//! - **Graceful drain.**  An in-band [`Request::Shutdown`] or
//!   [`ServerHandle::request_drain`] (the daemon's SIGTERM path) sets the
//!   one drain flag: the accept loop stops, readers refuse new admissions,
//!   every already-admitted request still runs and is answered, and
//!   [`ServerHandle::stop`] removes the Unix socket once none is waiting
//!   or running.
//!
//! All artifact work goes through the process-global [`ArtifactStore`](bsg_runtime::ArtifactStore), so
//! every client shares one hot memory + disk cache: N clients requesting
//! the same profile cost one build and N−1 hits, and a warm disk tier
//! serves across daemon restarts.

use crate::proto::{
    err_frame, ok_frame, read_frame, write_frame, Frame, FrameError, Request, Response, ServerStats,
};
use bsg_bench::{figure_spec, render_figure, try_render_report};
use bsg_runtime::{BsgError, BsgResult, Runtime};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener};
#[cfg(unix)]
use std::os::unix::net::UnixListener;
#[cfg(unix)]
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

/// Daemon tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Admission limit: requests admitted but still waiting for an
    /// execution slot.  Requests beyond it are shed with
    /// [`BsgError::Overloaded`] instead of growing the wait (and
    /// client-observed latency) without bound.
    pub queue_max: usize,
    /// Per-request execution budget.  `None` (the default) preserves the
    /// batch harness's run-to-completion behaviour; services under
    /// adversarial load set it so one runaway request costs one
    /// `DeadlineExceeded` reply, not a worker.
    pub request_deadline: Option<Duration>,
    /// Per-connection socket read/write timeout (slow-loris defense).
    /// `None` disables socket deadlines (hermetic in-process tests).
    pub io_timeout: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            queue_max: 256,
            request_deadline: None,
            io_timeout: Some(Duration::from_secs(30)),
        }
    }
}

/// Counters and the execution gate shared between the accept loop and the
/// reader threads.
#[derive(Default)]
struct Shared {
    requests_served: AtomicU64,
    /// Requests executed, each as a one-task scheduler batch.
    batches: AtomicU64,
    protocol_errors: AtomicU64,
    /// Requests admitted but still waiting for an execution slot.  The
    /// admission check and the shed decision both read it.
    queue_depth: AtomicU64,
    max_queue_depth: AtomicU64,
    shed_count: AtomicU64,
    preempted_count: AtomicU64,
    /// Graceful-drain flag: stop accepting and admitting, finish what's
    /// admitted.  Set by an in-band [`Request::Shutdown`], by
    /// [`ServerHandle::request_drain`], or by shutdown itself.
    draining: AtomicBool,
    /// Requests executing now; at most the runtime's worker count.
    running: Mutex<usize>,
    /// Wakes one waiting request each time a slot frees.
    slot_freed: Condvar,
}

impl Shared {
    fn stats(&self) -> ServerStats {
        ServerStats {
            workers: Runtime::global().workers() as u64,
            requests_served: self.requests_served.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
            max_queue_depth: self.max_queue_depth.load(Ordering::Relaxed),
            shed_count: self.shed_count.load(Ordering::Relaxed),
            preempted_count: self.preempted_count.load(Ordering::Relaxed),
            store: bsg_runtime::ArtifactStore::global().stats(),
        }
    }

    fn halting(&self) -> bool {
        self.draining.load(Ordering::Relaxed)
    }

    fn running(&self) -> std::sync::MutexGuard<'_, usize> {
        self.running.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Runs one admitted request: waits for one of `runtime.workers()`
    /// execution slots, leaves the admission queue, and runs the request
    /// as a one-task batch inline on this reader thread, with `try_run`'s
    /// panic isolation and, when configured, its per-task deadline.
    fn execute(&self, runtime: &Runtime, request: Request) -> BsgResult<Response> {
        {
            let mut running = self.running();
            while *running >= runtime.workers() {
                running = self
                    .slot_freed
                    .wait(running)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            *running += 1;
        }
        self.queue_depth.fetch_sub(1, Ordering::Relaxed);
        self.batches.fetch_add(1, Ordering::Relaxed);
        let mut results = runtime.try_run(vec![move || handle_request(request)]);
        *self.running() -= 1;
        self.slot_freed.notify_one();

        self.requests_served.fetch_add(1, Ordering::Relaxed);
        let result = results.pop().expect("one result per task").and_then(|r| r);
        if matches!(result, Err(BsgError::DeadlineExceeded { .. })) {
            self.preempted_count.fetch_add(1, Ordering::Relaxed);
        }
        result
    }
}

/// A running daemon.  Dropping the handle stops it.
pub struct ServerHandle {
    local_addr: Option<SocketAddr>,
    #[cfg(unix)]
    unix_path: Option<PathBuf>,
    shared: Arc<Shared>,
    accept: Option<thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound TCP address (`None` for Unix-socket servers).
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.local_addr
    }

    /// A live snapshot of the daemon's counters (the same numbers a
    /// [`Request::Stats`] round-trip returns).
    pub fn stats(&self) -> ServerStats {
        self.shared.stats()
    }

    /// Gracefully drains and stops the daemon: no new connections or
    /// admissions, every already-admitted request is answered, then (on
    /// Unix) the socket file is removed.
    pub fn stop(mut self) {
        self.shutdown();
    }

    /// `true` once a drain has been requested — by an in-band
    /// [`Request::Shutdown`], by [`ServerHandle::request_drain`] (the
    /// daemon's SIGTERM path), or by shutdown itself.  The daemon binary
    /// polls this to know when to call [`ServerHandle::stop`].
    pub fn drain_requested(&self) -> bool {
        self.shared.draining.load(Ordering::Relaxed)
    }

    /// Requests a graceful drain without blocking: the accept loop winds
    /// down and readers refuse new admissions.  Call
    /// [`ServerHandle::stop`] afterwards to wait for admitted work to finish
    /// and release the listener.
    pub fn request_drain(&self) {
        self.shared.draining.store(true, Ordering::Relaxed);
    }

    fn shutdown(&mut self) {
        // Phase 1: stop accepting connections and admitting requests.
        self.shared.draining.store(true, Ordering::Relaxed);
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
        // Phase 2: wait until every admitted request has run, waiting or
        // executing.  The bound keeps a wedged build from hanging Drop
        // forever; admitted work normally finishes in well under a second.
        let deadline = Instant::now() + Duration::from_secs(30);
        while (self.shared.queue_depth.load(Ordering::Relaxed) > 0 || *self.shared.running() > 0)
            && Instant::now() < deadline
        {
            thread::sleep(Duration::from_millis(5));
        }
        #[cfg(unix)]
        if let Some(path) = self.unix_path.take() {
            let _ = std::fs::remove_file(path);
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The listener half of the daemon, over either transport.
enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener),
}

type Conn = (Box<dyn Read + Send>, Box<dyn Write + Send>);

impl Listener {
    fn set_nonblocking(&self, v: bool) -> io::Result<()> {
        match self {
            Listener::Tcp(l) => l.set_nonblocking(v),
            #[cfg(unix)]
            Listener::Unix(l) => l.set_nonblocking(v),
        }
    }

    /// Accepts one connection, returning independently owned reader and
    /// writer halves (reader threads read and write the same socket).
    /// `io_timeout` arms both socket deadlines: a read that times out at a
    /// frame boundary is benign idling, anywhere else it is a slow-loris
    /// stall (see [`crate::proto::FrameError`]).
    fn accept(&self, io_timeout: Option<Duration>) -> io::Result<Conn> {
        match self {
            Listener::Tcp(l) => {
                let (stream, _) = l.accept()?;
                stream.set_nonblocking(false)?;
                stream.set_read_timeout(io_timeout)?;
                stream.set_write_timeout(io_timeout)?;
                let reader = stream.try_clone()?;
                Ok((Box::new(reader), Box::new(stream)))
            }
            #[cfg(unix)]
            Listener::Unix(l) => {
                let (stream, _) = l.accept()?;
                stream.set_nonblocking(false)?;
                stream.set_read_timeout(io_timeout)?;
                stream.set_write_timeout(io_timeout)?;
                let reader = stream.try_clone()?;
                Ok((Box::new(reader), Box::new(stream)))
            }
        }
    }
}

/// Entry points for starting a daemon.
pub struct Server;

impl Server {
    /// Binds a TCP listener (use port 0 for an OS-assigned port; read it
    /// back from [`ServerHandle::local_addr`]) and starts serving.
    pub fn bind_tcp(addr: &str, config: ServerConfig) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        start(Listener::Tcp(listener), Some(local_addr), None, config)
    }

    /// Binds a Unix-domain socket at `path` (removing any stale socket
    /// file first) and starts serving.
    #[cfg(unix)]
    pub fn bind_unix(path: &Path, config: ServerConfig) -> io::Result<ServerHandle> {
        let _ = std::fs::remove_file(path);
        let listener = UnixListener::bind(path)?;
        start(
            Listener::Unix(listener),
            None,
            Some(path.to_path_buf()),
            config,
        )
    }
}

fn start(
    listener: Listener,
    local_addr: Option<SocketAddr>,
    unix_path: Option<std::path::PathBuf>,
    config: ServerConfig,
) -> io::Result<ServerHandle> {
    #[cfg(not(unix))]
    let _ = unix_path;
    listener.set_nonblocking(true)?;
    let shared = Arc::new(Shared::default());
    let runtime = match config.request_deadline {
        Some(budget) => Runtime::global().with_deadline(budget),
        None => *Runtime::global(),
    };

    let accept = {
        let shared = Arc::clone(&shared);
        let queue_max = config.queue_max.max(1) as u64;
        let io_timeout = config.io_timeout;
        thread::spawn(move || {
            while !shared.halting() {
                match listener.accept(io_timeout) {
                    Ok((reader, writer)) => {
                        let shared = Arc::clone(&shared);
                        thread::spawn(move || {
                            serve_connection(reader, writer, &shared, &runtime, queue_max);
                        });
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        thread::sleep(Duration::from_millis(5));
                    }
                    Err(_) => thread::sleep(Duration::from_millis(5)),
                }
            }
        })
    };

    Ok(ServerHandle {
        local_addr,
        #[cfg(unix)]
        unix_path,
        shared,
        accept: Some(accept),
    })
}

/// Serves one request body.  Runs inside a scheduler task, so panics here
/// (including `BSG_FAULT=task-panic=NAME` chaos injection against a
/// profile request's workload name) surface as [`BsgError::TaskPanic`]
/// replies for this request only.
fn handle_request(request: Request) -> BsgResult<Response> {
    let store = bsg_runtime::ArtifactStore::global();
    match request {
        Request::Profile {
            program,
            options,
            name,
            config,
        } => {
            if bsg_runtime::fault::task_panic_target() == Some(name.as_str()) {
                panic!("chaos: injected task panic serving profile {name} (BSG_FAULT)");
            }
            let profile = store.try_profile(&program, &options, &name, &config)?;
            Ok(Response::Profile((*profile).clone()))
        }
        Request::Synthesize {
            profile,
            config,
            target_instructions,
        } => {
            let synthesis = store.try_synthesis(&profile, &config, target_instructions)?;
            Ok(Response::Synthesis((*synthesis).clone()))
        }
        Request::Measure { program, options } => {
            let artifact = store.try_compiled(&program, &options)?;
            let outcome = bsg_uarch::exec::execute_image(
                &artifact.image,
                &mut bsg_uarch::exec::NullObserver,
                &bsg_uarch::exec::ExecConfig::default(),
            );
            Ok(Response::Measure {
                dynamic_instructions: outcome.dynamic_instructions,
            })
        }
        Request::Figure { name } => {
            // The exact entry points the batch binaries print, so the reply
            // is byte-identical to their stdout.  Any fault fails this
            // request rather than shipping a partial figure.
            let (text, faults) = if name == "all_experiments" {
                try_render_report()
            } else if let Some(spec) = figure_spec(&name) {
                render_figure(spec)
            } else {
                return Err(BsgError::InvalidRequest {
                    message: format!("unknown figure {name:?}"),
                });
            };
            match faults.into_iter().next() {
                Some(fault) => Err(fault.into_error()),
                None => Ok(Response::Figure(text)),
            }
        }
        Request::Stats => Err(BsgError::InvalidRequest {
            // Reader threads serve stats inline, without a slot; reaching
            // here with one is a server-side routing bug worth surfacing.
            message: "stats requests are served inline, not dispatched".to_string(),
        }),
        Request::Shutdown => Err(BsgError::InvalidRequest {
            // Same: shutdown flips the drain flag on the reader thread.
            message: "shutdown requests are served inline, not dispatched".to_string(),
        }),
    }
}

/// Reader-thread loop for one connection: parse a frame, decode, admit,
/// reply.  Semantic problems (unknown kind, undecodable payload) get an
/// [`BsgError::InvalidRequest`] reply and the connection stays open; a
/// full admission queue gets an [`BsgError::Overloaded`] reply and the
/// connection stays open; structural problems (bad magic, truncation,
/// checksum, a mid-frame stall) get a best-effort error reply and the
/// connection closes — the stream can no longer be trusted to be
/// frame-aligned.
fn serve_connection(
    mut reader: Box<dyn Read + Send>,
    mut writer: Box<dyn Write + Send>,
    shared: &Shared,
    runtime: &Runtime,
    queue_max: u64,
) {
    loop {
        let frame = match read_frame(&mut reader) {
            Ok(Some(frame)) => frame,
            Ok(None) => return, // clean close at a frame boundary
            Err(FrameError::TimedOut) => {
                // Idle at a frame boundary is benign: re-arm the read.
                // Closing instead once the daemon is halting means idle
                // keep-alive connections can't outlive the drain.
                if shared.halting() {
                    return;
                }
                continue;
            }
            Err(e) => {
                shared.protocol_errors.fetch_add(1, Ordering::Relaxed);
                let error = BsgError::InvalidRequest {
                    message: format!("protocol error: {e}"),
                };
                let _ = write_frame(&mut writer, &err_frame(0, &error));
                return;
            }
        };
        let request_id = frame.request_id;
        let reply: Frame = match Request::decode(frame.kind, &frame.payload) {
            None => {
                shared.protocol_errors.fetch_add(1, Ordering::Relaxed);
                shared.requests_served.fetch_add(1, Ordering::Relaxed);
                err_frame(
                    request_id,
                    &BsgError::InvalidRequest {
                        message: format!(
                            "unservable request: kind {} with {}-byte payload",
                            frame.kind,
                            frame.payload.len()
                        ),
                    },
                )
            }
            Some(Request::Stats) => {
                // Inline fast path; see the module docs.  Deliberately
                // still served while draining — monitoring the drain is
                // exactly when stats matter.
                shared.requests_served.fetch_add(1, Ordering::Relaxed);
                ok_frame(request_id, &Response::Stats(shared.stats()))
            }
            Some(Request::Shutdown) => {
                // Inline: flip the drain flag and acknowledge immediately.
                // The daemon loop (or `ServerHandle::stop`) completes the
                // drain; replying first lets the client confirm receipt
                // without waiting out the queue.
                shared.draining.store(true, Ordering::Relaxed);
                shared.requests_served.fetch_add(1, Ordering::Relaxed);
                ok_frame(request_id, &Response::Shutdown)
            }
            Some(_) if shared.halting() => {
                // Draining: everything already admitted gets answered, but
                // nothing new is admitted.
                shared.requests_served.fetch_add(1, Ordering::Relaxed);
                err_frame(
                    request_id,
                    &BsgError::InvalidRequest {
                        message: "server is shutting down".to_string(),
                    },
                )
            }
            Some(request) => {
                // Admission control: join the wait for a slot or shed.  The
                // increment-then-rollback keeps the check race-free enough
                // that depth can transiently overshoot by the number of
                // racing readers but the queue never *admits* past the
                // limit — and a shed costs two atomics plus an error
                // frame, no artifact work.
                let depth = shared.queue_depth.fetch_add(1, Ordering::Relaxed) + 1;
                if depth > queue_max {
                    shared.queue_depth.fetch_sub(1, Ordering::Relaxed);
                    shared.shed_count.fetch_add(1, Ordering::Relaxed);
                    shared.requests_served.fetch_add(1, Ordering::Relaxed);
                    err_frame(
                        request_id,
                        &BsgError::Overloaded {
                            queue_depth: depth - 1,
                            limit: queue_max,
                        },
                    )
                } else {
                    shared.max_queue_depth.fetch_max(depth, Ordering::Relaxed);
                    match shared.execute(runtime, request) {
                        Ok(response) => ok_frame(request_id, &response),
                        Err(error) => err_frame(request_id, &error),
                    }
                }
            }
        };
        if write_frame(&mut writer, &reply).is_err() {
            return; // client hung up mid-reply (or stalled past the write
                    // timeout — either way the reply can't be delivered)
        }
    }
}
