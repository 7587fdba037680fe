//! The bsg-server daemon: accept loop, per-connection reader threads, and
//! the batching dispatcher that routes request work through the shared
//! scheduler and artifact store.
//!
//! # Dispatch and backpressure model
//!
//! Each connection gets a reader thread that parses frames and serves **one
//! outstanding request at a time** — the protocol is strictly
//! request/reply per connection, so a client's own pipeline depth is its
//! concurrency limit and a slow request cannot starve the reader of its
//! own connection.  Decoded requests are sent to a single dispatcher
//! thread over a channel; the dispatcher drains up to 64 queued requests
//! at a time and runs the batch through [`Runtime::try_run`], so
//! concurrent clients share the scheduler's one task queue instead of each
//! spawning threads.  `try_run`'s per-task fault isolation means one
//! poisoned request (panicking build, injected `BSG_FAULT` chaos) costs
//! exactly its own reply — the rest of the batch completes normally.
//!
//! [`Request::Stats`] is served inline on the reader thread, bypassing the
//! batch entirely: it only snapshots atomic counters, and keeping it off
//! the dispatcher means monitoring stays responsive while the scheduler is
//! saturated with synthesis work.  [`Request::Shutdown`] is inline too: it
//! flips the drain flag and acknowledges immediately.
//!
//! # Overload safety (PR 10)
//!
//! The request path is hardened end to end:
//!
//! - **Admission control.**  The job queue is bounded by
//!   [`ServerConfig::queue_max`].  A request arriving at a full queue is
//!   shed *before* any artifact work with a cheap
//!   [`BsgError::Overloaded`] reply (connection stays open; the error is
//!   explicitly retryable).
//! - **Per-request deadlines.**  [`ServerConfig::request_deadline`] runs
//!   every batch on [`Runtime::with_deadline`], so a runaway request is
//!   *preempted* by its deadline token and replied with
//!   `DeadlineExceeded` instead of pinning a worker.
//! - **Slow-loris defense.**  Connections carry read/write timeouts
//!   ([`ServerConfig::io_timeout`]).  A peer idle *between* frames just
//!   re-arms the read (the reader re-checks the drain flag); a peer
//!   stalled *mid-frame* — or one that won't drain its replies — is
//!   closed and counted as a protocol error.
//! - **Graceful drain.**  An in-band [`Request::Shutdown`] or
//!   [`ServerHandle::request_drain`] (the daemon's SIGTERM path) stops the
//!   accept loop, lets the dispatcher answer everything already admitted,
//!   and removes the Unix socket before exit.
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
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

/// Maximum requests the dispatcher folds into one scheduler batch.  Larger
/// batches amortize scheduler entry; the bound keeps one burst from
/// monopolizing the scheduler for unboundedly long.
const BATCH_MAX: usize = 64;

/// Daemon tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Admission limit: jobs admitted but not yet dispatched.  Requests
    /// beyond it are shed with [`BsgError::Overloaded`] instead of growing
    /// the queue (and client-observed latency) without bound.
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

/// Counters shared between the accept loop, reader threads, and the
/// dispatcher.
#[derive(Default)]
struct Shared {
    requests_served: AtomicU64,
    batches: AtomicU64,
    protocol_errors: AtomicU64,
    /// Jobs admitted (reader incremented) but not yet dequeued by the
    /// dispatcher.  The admission check and the shed decision both read it.
    queue_depth: AtomicU64,
    max_queue_depth: AtomicU64,
    shed_count: AtomicU64,
    preempted_count: AtomicU64,
    /// Graceful-drain flag: stop accepting and admitting, finish what's
    /// queued.  Set by an in-band [`Request::Shutdown`], by
    /// [`ServerHandle::request_drain`], or by shutdown itself.
    draining: AtomicBool,
    /// Hard-stop flag: set by shutdown once the queue has drained.
    stop: AtomicBool,
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
        self.draining.load(Ordering::Relaxed) || self.stop.load(Ordering::Relaxed)
    }
}

/// One queued request: the decoded body plus the rendezvous channel its
/// reader thread is blocked on.
struct Job {
    request: Request,
    reply: mpsc::Sender<BsgResult<Response>>,
}

/// A running daemon.  Dropping the handle stops it.
pub struct ServerHandle {
    local_addr: Option<SocketAddr>,
    #[cfg(unix)]
    unix_path: Option<PathBuf>,
    shared: Arc<Shared>,
    accept: Option<thread::JoinHandle<()>>,
    dispatcher: Option<thread::JoinHandle<()>>,
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
    /// admissions, every already-admitted request is answered, then the
    /// dispatcher exits and (on Unix) the socket file is removed.
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
    /// [`ServerHandle::stop`] afterwards to wait for the queue to empty
    /// and release the listener.
    pub fn request_drain(&self) {
        self.shared.draining.store(true, Ordering::Relaxed);
    }

    fn shutdown(&mut self) {
        // Phase 1: stop accepting connections and admitting jobs.
        self.shared.draining.store(true, Ordering::Relaxed);
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
        // Phase 2: wait for the dispatcher to pick up everything already
        // admitted (replies go out when its in-flight batch completes),
        // then stop it.  The bound keeps a wedged build from hanging Drop
        // forever; the queue normally empties in well under a second.
        let deadline = Instant::now() + Duration::from_secs(30);
        while self.shared.queue_depth.load(Ordering::Relaxed) > 0 && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(5));
        }
        self.shared.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.dispatcher.take() {
            let _ = t.join();
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
    let (jobs_tx, jobs_rx) = mpsc::channel::<Job>();

    let dispatcher = {
        let shared = Arc::clone(&shared);
        let deadline = config.request_deadline;
        thread::spawn(move || dispatch_loop(&jobs_rx, &shared, deadline))
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
                        let jobs = jobs_tx.clone();
                        thread::spawn(move || {
                            serve_connection(reader, writer, &shared, &jobs, queue_max);
                        });
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        thread::sleep(Duration::from_millis(5));
                    }
                    Err(_) => thread::sleep(Duration::from_millis(5)),
                }
            }
            // Dropping jobs_tx here lets the dispatcher drain and exit
            // once every reader thread's clone is gone too.
        })
    };

    Ok(ServerHandle {
        local_addr,
        #[cfg(unix)]
        unix_path,
        shared,
        accept: Some(accept),
        dispatcher: Some(dispatcher),
    })
}

/// The dispatcher: drains queued jobs into bounded batches and runs each
/// batch through the scheduler with per-task fault isolation and, when
/// configured, a per-task preemption deadline.
fn dispatch_loop(jobs: &mpsc::Receiver<Job>, shared: &Shared, deadline: Option<Duration>) {
    let runtime = match deadline {
        Some(budget) => Runtime::global().with_deadline(budget),
        None => *Runtime::global(),
    };
    loop {
        let first = match jobs.recv_timeout(Duration::from_millis(50)) {
            Ok(job) => job,
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if shared.stop.load(Ordering::Relaxed) {
                    return;
                }
                continue;
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => return,
        };
        let mut batch = vec![first];
        while batch.len() < BATCH_MAX {
            match jobs.try_recv() {
                Ok(job) => batch.push(job),
                Err(_) => break,
            }
        }
        // Free the admission slots as soon as the jobs leave the queue:
        // in-flight work is bounded by BATCH_MAX, the queue by queue_max,
        // and the two bounds are independent.
        shared
            .queue_depth
            .fetch_sub(batch.len() as u64, Ordering::Relaxed);
        shared.batches.fetch_add(1, Ordering::Relaxed);

        let (requests, replies): (Vec<Request>, Vec<mpsc::Sender<BsgResult<Response>>>) =
            batch.into_iter().map(|j| (j.request, j.reply)).unzip();
        let tasks: Vec<_> = requests
            .into_iter()
            .map(|request| move || handle_request(request))
            .collect();
        // try_run catches per-task panics, so one poisoned request (a
        // panicking build, injected chaos) yields one Err reply while the
        // rest of the batch completes; the outer/inner results flatten.
        // A deadline installs a per-task token, so a runaway request is
        // preempted mid-execution, not just failed at completion time.
        let results = runtime.try_run(tasks);
        for (result, reply) in results.into_iter().zip(replies) {
            shared.requests_served.fetch_add(1, Ordering::Relaxed);
            let flat = result.and_then(|r| r);
            if matches!(flat, Err(BsgError::DeadlineExceeded { .. })) {
                shared.preempted_count.fetch_add(1, Ordering::Relaxed);
            }
            // A dropped receiver means the reader thread (and its client)
            // went away mid-request; the work is already cached, so the
            // loss is only the reply.
            let _ = reply.send(flat);
        }
    }
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
            // Reader threads serve stats inline; reaching the dispatcher
            // with one is a client-side framing bug worth surfacing.
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
    jobs: &mpsc::Sender<Job>,
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
                // Admission control: reserve a queue slot or shed.  The
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
                    let (tx, rx) = mpsc::channel();
                    if jobs.send(Job { request, reply: tx }).is_err() {
                        // Dispatcher is gone: the daemon is shutting down.
                        shared.queue_depth.fetch_sub(1, Ordering::Relaxed);
                        let error = BsgError::InvalidRequest {
                            message: "server is shutting down".to_string(),
                        };
                        let _ = write_frame(&mut writer, &err_frame(request_id, &error));
                        return;
                    }
                    match rx.recv() {
                        Ok(Ok(response)) => ok_frame(request_id, &response),
                        Ok(Err(error)) => err_frame(request_id, &error),
                        Err(_) => return, // dispatcher died mid-request
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
