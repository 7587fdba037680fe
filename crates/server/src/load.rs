//! The bsg-load harness: simulates many concurrent clients against a
//! running daemon and reports throughput and tail latency per phase.
//!
//! Two phases exercise the two cache temperatures the server cares about:
//!
//! - **cold** — every request carries a nonce-unique program, so every
//!   request is a build; this measures the daemon under synthesis load.
//! - **warm** — all clients hammer a small fixed pool of
//!   [`WARM_SLOTS`] keys, so after one build per slot everything is a
//!   shared-store hit; this measures dispatch + wire overhead, and (when
//!   the daemon restarted on a persistent `BSG_ARTIFACT_DIR`) the disk
//!   tier's hit path.
//!
//! Results go to `BENCH_server.json` via [`bench_json`], in the same
//! hand-rolled-JSON idiom as `BENCH_interp.json`.
//!
//! # Chaos soak (PR 10)
//!
//! [`run_chaos_soak`] mixes healthy retried traffic with adversarial
//! clients — slow-loris writers stalled mid-frame, mid-frame disconnects,
//! deadline-storm requests that must be preempted, optional `BSG_FAULT`
//! poison — then fires an admission burst and reports everything in a
//! [`SoakOutcome`].  The harness binary asserts the overload-safety
//! contract on top: zero healthy-client errors, bounded p99, sheds under
//! burst, loris kills, storm preemption, and a clean in-band drain
//! ([`drain_server`]).  The soak expects a *hardened* daemon (one started
//! with `--io-timeout-ms`, `--request-deadline-ms` and a small
//! `--queue-max`); against a default daemon the loris/preemption/shed
//! assertions have nothing to observe and fail by design.

use crate::client::{Client, RetryPolicy};
use crate::proto::{write_frame, Frame, Request, Response, ServerStats, MAGIC};
use bsg_compiler::{CompileOptions, OptLevel};
use bsg_ir::build::FunctionBuilder;
use bsg_ir::hll::{Expr, HllGlobal, HllProgram};
use bsg_profile::ProfileConfig;
use bsg_runtime::BsgError;
use std::fmt::Write as _;
use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

/// Size of the warm phase's shared key pool.
pub const WARM_SLOTS: usize = 8;

/// A small loop workload whose source content (and therefore every
/// artifact-store key derived from it) is unique per `tag`: the tag picks
/// the accumulator seed and the trip count.
pub fn load_program(tag: u64) -> HllProgram {
    let mut p = HllProgram::new();
    p.add_global(HllGlobal::zeroed("buf", 64));
    let mut f = FunctionBuilder::new("main");
    f.assign_var("acc", Expr::int((tag % 251) as i64));
    let trips = 150 + (tag % 13) as i64;
    f.for_loop("i", Expr::int(0), Expr::int(trips), |b| {
        b.assign_index(
            "buf",
            Expr::var("i"),
            Expr::add(Expr::var("acc"), Expr::var("i")),
        );
        b.assign_var(
            "acc",
            Expr::add(Expr::var("acc"), Expr::index("buf", Expr::var("i"))),
        );
    });
    f.ret(Some(Expr::var("acc")));
    p.add_function(f.finish());
    p
}

/// Which cache temperature a load phase runs at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Nonce-unique keys: every request builds.  The nonce keeps repeated
    /// harness runs against one daemon (or a persistent disk tier) from
    /// accidentally warming each other.
    Cold {
        /// Uniquifier mixed into every key (callers use the wall clock).
        nonce: u64,
    },
    /// A fixed pool of [`WARM_SLOTS`] keys shared by every client.
    Warm,
}

impl Phase {
    /// The phase's label in reports and JSON.
    pub fn label(self) -> &'static str {
        match self {
            Phase::Cold { .. } => "cold",
            Phase::Warm => "warm",
        }
    }
}

/// The request client `client` issues as its `r`-th request of `phase`.
pub fn request_for(phase: Phase, client: usize, r: usize) -> Request {
    match phase {
        Phase::Cold { nonce } => {
            let tag = nonce ^ ((client as u64) << 32) ^ (r as u64);
            if (client + r).is_multiple_of(2) {
                Request::Measure {
                    program: load_program(tag),
                    options: CompileOptions::portable(OptLevel::O1),
                }
            } else {
                Request::Profile {
                    program: load_program(tag),
                    options: CompileOptions::portable(OptLevel::O0),
                    name: format!("load/cold-{client}-{r}"),
                    config: ProfileConfig::default(),
                }
            }
        }
        Phase::Warm => {
            let slot = (client + r) % WARM_SLOTS;
            let program = load_program(slot as u64);
            if slot.is_multiple_of(2) {
                Request::Measure {
                    program,
                    options: CompileOptions::portable(OptLevel::O1),
                }
            } else {
                Request::Profile {
                    program,
                    options: CompileOptions::portable(OptLevel::O0),
                    name: format!("load/warm-{slot}"),
                    config: ProfileConfig::default(),
                }
            }
        }
    }
}

/// One phase's aggregate results.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseReport {
    /// `"cold"` or `"warm"`.
    pub phase: &'static str,
    /// Client threads simulated.
    pub clients: usize,
    /// Requests that completed with an `Ok` reply.
    pub ok: u64,
    /// Requests the server failed with a structured `BsgError` reply.
    pub failures: u64,
    /// Transport-level errors (connect failures, frame errors, closed
    /// connections).  Zero on a healthy run — CI asserts this.
    pub transport_errors: u64,
    /// Wall-clock duration of the phase.
    pub elapsed_secs: f64,
    /// Completed requests (ok + failures) per wall-clock second.
    pub requests_per_sec: f64,
    /// Median request latency, milliseconds.
    pub p50_ms: f64,
    /// 95th-percentile request latency, milliseconds.
    pub p95_ms: f64,
    /// 99th-percentile request latency, milliseconds.
    pub p99_ms: f64,
}

/// Nearest-rank percentile over an ascending-sorted slice (0 for empty):
/// the sample at 1-based rank `ceil(q/100 · n)`.
pub fn percentile(sorted_ms: &[f64], q: f64) -> f64 {
    let n = sorted_ms.len();
    if n == 0 {
        return 0.0;
    }
    let rank = ((q / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    sorted_ms[rank - 1]
}

/// Runs one phase: `clients` threads, each issuing `requests_per_client`
/// requests over its own connection to the TCP daemon at `addr`, all
/// released from a barrier at once.
pub fn run_phase(
    addr: &str,
    clients: usize,
    requests_per_client: usize,
    phase: Phase,
) -> PhaseReport {
    let barrier = Arc::new(Barrier::new(clients + 1));
    let mut handles = Vec::with_capacity(clients);
    for client in 0..clients {
        let addr = addr.to_string();
        let barrier = Arc::clone(&barrier);
        handles.push(thread::spawn(move || {
            let mut latencies_ms = Vec::with_capacity(requests_per_client);
            let mut failures = 0u64;
            let mut transport_errors = 0u64;
            let connection = Client::connect_tcp(&addr);
            barrier.wait();
            let mut connection = match connection {
                Ok(c) => c,
                Err(_) => {
                    // Every request this client would have issued is a
                    // transport error; the phase still completes.
                    return (latencies_ms, failures, requests_per_client as u64);
                }
            };
            for r in 0..requests_per_client {
                let request = request_for(phase, client, r);
                let start = Instant::now();
                match connection.call(&request) {
                    Ok(Ok(_)) => latencies_ms.push(start.elapsed().as_secs_f64() * 1e3),
                    Ok(Err(_)) => {
                        latencies_ms.push(start.elapsed().as_secs_f64() * 1e3);
                        failures += 1;
                    }
                    Err(_) => transport_errors += 1,
                }
            }
            (latencies_ms, failures, transport_errors)
        }));
    }
    barrier.wait();
    let started = Instant::now();
    let mut all_latencies = Vec::with_capacity(clients * requests_per_client);
    let mut failures = 0u64;
    let mut transport_errors = 0u64;
    for handle in handles {
        match handle.join() {
            Ok((latencies, f, t)) => {
                all_latencies.extend(latencies);
                failures += f;
                transport_errors += t;
            }
            Err(_) => transport_errors += requests_per_client as u64,
        }
    }
    let elapsed_secs = started.elapsed().as_secs_f64();
    all_latencies.sort_by(|a, b| a.total_cmp(b));
    let completed = all_latencies.len() as u64;
    PhaseReport {
        phase: phase.label(),
        clients,
        ok: completed - failures,
        failures,
        transport_errors,
        elapsed_secs,
        requests_per_sec: if elapsed_secs > 0.0 {
            completed as f64 / elapsed_secs
        } else {
            0.0
        },
        p50_ms: percentile(&all_latencies, 50.0),
        p95_ms: percentile(&all_latencies, 95.0),
        p99_ms: percentile(&all_latencies, 99.0),
    }
}

/// Serializes phase reports to the `BENCH_server.json` schema.
pub fn bench_json(requests_per_client: usize, phases: &[PhaseReport]) -> String {
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"benchmark\": \"bsg-server load\",");
    let _ = writeln!(json, "  \"requests_per_client\": {requests_per_client},");
    let _ = writeln!(json, "  \"phases\": [");
    for (i, p) in phases.iter().enumerate() {
        let comma = if i + 1 < phases.len() { "," } else { "" };
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"phase\": \"{}\",", p.phase);
        let _ = writeln!(json, "      \"clients\": {},", p.clients);
        let _ = writeln!(json, "      \"ok\": {},", p.ok);
        let _ = writeln!(json, "      \"failures\": {},", p.failures);
        let _ = writeln!(json, "      \"transport_errors\": {},", p.transport_errors);
        let _ = writeln!(json, "      \"elapsed_secs\": {:.3},", p.elapsed_secs);
        let _ = writeln!(
            json,
            "      \"requests_per_sec\": {:.1},",
            p.requests_per_sec
        );
        let _ = writeln!(json, "      \"p50_ms\": {:.3},", p.p50_ms);
        let _ = writeln!(json, "      \"p95_ms\": {:.3},", p.p95_ms);
        let _ = writeln!(json, "      \"p99_ms\": {:.3}", p.p99_ms);
        let _ = writeln!(json, "    }}{comma}");
    }
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");
    json
}

/// A deliberately long-running workload for the deadline storm: tens of
/// millions of dynamic instructions, far past any sane request deadline,
/// so a hardened daemon must *preempt* it (DeadlineExceeded) rather than
/// let it pin a worker.  `tag` varies the content so repeated storms don't
/// share compile-cache keys.
pub fn storm_program(tag: u64) -> HllProgram {
    let mut p = HllProgram::new();
    let mut f = FunctionBuilder::new("main");
    f.assign_var("acc", Expr::int((tag % 97) as i64));
    f.for_loop("i", Expr::int(0), Expr::int(20_000_000), |b| {
        b.assign_var("acc", Expr::add(Expr::var("acc"), Expr::var("i")));
    });
    f.ret(Some(Expr::var("acc")));
    p.add_function(f.finish());
    p
}

/// Everything one chaos soak observed.  The harness binary asserts the
/// overload-safety contract over these numbers; the library only reports.
#[derive(Debug, Clone)]
pub struct SoakOutcome {
    /// Requested soak window, seconds.
    pub seconds: u64,
    /// The healthy clients' aggregate (phase label `"soak-healthy"`).
    /// These clients retry `Overloaded` and transport blips with backoff,
    /// so `failures`/`transport_errors` must be zero against a correct
    /// server.
    pub healthy: PhaseReport,
    /// Burst-phase requests issued (one-shot, no retry).
    pub burst_total: u64,
    /// Burst requests shed with `Overloaded` — the admission control
    /// observable.
    pub burst_sheds: u64,
    /// Burst requests that were admitted and succeeded.
    pub burst_ok: u64,
    /// Burst requests that failed any other way (should be zero).
    pub burst_other_failures: u64,
    /// Deadline-storm requests preempted with `DeadlineExceeded`.
    pub storm_preempted: u64,
    /// Deadline-storm requests that ran to completion (daemon had no
    /// deadline, or a very generous one).
    pub storm_completed: u64,
    /// Deadline-storm transport errors (should be zero).
    pub storm_transport_errors: u64,
    /// Slow-loris connection cycles attempted.
    pub loris_cycles: u64,
    /// Cycles where the server killed the stalled connection — the
    /// io-timeout observable.
    pub loris_kills: u64,
    /// Mid-frame disconnects inflicted.
    pub midframe_disconnects: u64,
    /// `BSG_FAULT` poison requests that failed with the expected
    /// `TaskPanic`.
    pub fault_confirmed: u64,
    /// Poison requests with any other outcome (should be zero when a
    /// fault target was given).
    pub fault_unexpected: u64,
}

/// One slow-loris cycle: open a connection, write a few bytes of a valid
/// frame header, then stall forever.  Returns `true` when the server
/// killed the connection (mid-frame stall detection), `false` when our
/// own read deadline expired first (the server tolerated the stall).
fn loris_cycle(addr: &str, patience: Duration) -> bool {
    let Ok(mut stream) = TcpStream::connect(addr) else {
        return false;
    };
    let _ = stream.set_read_timeout(Some(patience));
    if stream.write_all(&MAGIC[..3]).is_err() {
        return true; // refused mid-write: also a kill
    }
    let mut buf = [0u8; 256];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => return true, // closed on us
            Ok(_) => continue,    // the structured err frame preceding the close
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                return false; // our patience ran out; the server never acted
            }
            Err(_) => return true, // reset counts as a kill
        }
    }
}

/// One mid-frame disconnect: write two thirds of a valid frame, hang up.
fn midframe_disconnect(addr: &str) {
    let mut bytes = Vec::new();
    let _ = write_frame(
        &mut bytes,
        &Frame {
            request_id: 0xDEAD,
            kind: 0,
            payload: vec![7; 48],
        },
    );
    if let Ok(mut stream) = TcpStream::connect(addr) {
        let _ = stream.write_all(&bytes[..bytes.len() * 2 / 3]);
        // Dropping here closes mid-frame; the server counts one protocol
        // error and moves on.
    }
}

/// Runs the full chaos soak against the TCP daemon at `addr` for
/// `seconds`: 4 healthy retried clients, 2 slow-loris writers, 2
/// mid-frame disconnectors, 2 deadline-storm clients, plus (when
/// `fault_target` matches the daemon's `BSG_FAULT=task-panic=NAME`) a
/// poison client — followed by a 64-connection admission burst once the
/// window closes.  No drain is performed; call [`drain_server`] after
/// collecting stats.
pub fn run_chaos_soak(addr: &str, seconds: u64, fault_target: Option<&str>) -> SoakOutcome {
    const HEALTHY: usize = 4;
    let stop = Arc::new(AtomicBool::new(false));
    let started = Instant::now();

    let (healthy, storm, loris, disconnects, fault) = thread::scope(|s| {
        let mut healthy_joins = Vec::new();
        for client in 0..HEALTHY {
            let stop = Arc::clone(&stop);
            healthy_joins.push(s.spawn(move || {
                let mut latencies_ms = Vec::new();
                let mut failures = 0u64;
                let mut transport_errors = 0u64;
                let policy = RetryPolicy {
                    jitter_seed: 0xC0FFEE ^ client as u64,
                    ..RetryPolicy::default()
                };
                let mut connection = None;
                let mut r = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    if connection.is_none() {
                        match Client::connect_tcp(addr) {
                            Ok(c) => connection = Some(c),
                            Err(_) => {
                                transport_errors += 1;
                                thread::sleep(Duration::from_millis(50));
                                continue;
                            }
                        }
                    }
                    let request = request_for(Phase::Warm, client, r);
                    r += 1;
                    let at = Instant::now();
                    match connection
                        .as_mut()
                        .map(|c| c.call_with_retry(&request, &policy))
                    {
                        Some(Ok(Ok(_))) => {
                            latencies_ms.push(at.elapsed().as_secs_f64() * 1e3);
                        }
                        Some(Ok(Err(_))) => {
                            latencies_ms.push(at.elapsed().as_secs_f64() * 1e3);
                            failures += 1;
                        }
                        Some(Err(_)) | None => {
                            transport_errors += 1;
                            connection = None; // reconnect next round
                        }
                    }
                    // Bound the request rate so 30 s of soak stays a few
                    // thousand latency samples per client, not millions.
                    thread::sleep(Duration::from_millis(2));
                }
                (latencies_ms, failures, transport_errors)
            }));
        }

        let mut storm_joins = Vec::new();
        for lane in 0..2u64 {
            let stop = Arc::clone(&stop);
            storm_joins.push(s.spawn(move || {
                let (mut preempted, mut completed, mut transport) = (0u64, 0u64, 0u64);
                let mut tag = lane << 48;
                while !stop.load(Ordering::Relaxed) {
                    let Ok(mut client) = Client::connect_tcp(addr) else {
                        transport += 1;
                        thread::sleep(Duration::from_millis(50));
                        continue;
                    };
                    tag += 1;
                    match client.call(&Request::Measure {
                        program: storm_program(tag),
                        options: CompileOptions::portable(OptLevel::O0),
                    }) {
                        Ok(Err(BsgError::DeadlineExceeded { .. })) => preempted += 1,
                        Ok(Ok(_)) => completed += 1,
                        Ok(Err(BsgError::Overloaded { .. })) => {} // shed: neither
                        Ok(Err(_)) => completed += 1,              // served, just failed
                        Err(_) => transport += 1,
                    }
                }
                (preempted, completed, transport)
            }));
        }

        let mut loris_joins = Vec::new();
        for _ in 0..2 {
            let stop = Arc::clone(&stop);
            loris_joins.push(s.spawn(move || {
                let (mut cycles, mut kills) = (0u64, 0u64);
                while !stop.load(Ordering::Relaxed) {
                    cycles += 1;
                    if loris_cycle(addr, Duration::from_secs(5)) {
                        kills += 1;
                    }
                }
                (cycles, kills)
            }));
        }

        let disconnect_join = {
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                let mut n = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    midframe_disconnect(addr);
                    n += 1;
                    thread::sleep(Duration::from_millis(25));
                }
                n
            })
        };

        let fault_join = fault_target.map(|target| {
            let stop = Arc::clone(&stop);
            let target = target.to_string();
            s.spawn(move || {
                let (mut confirmed, mut unexpected) = (0u64, 0u64);
                let mut tag = 0xFA << 40;
                while !stop.load(Ordering::Relaxed) {
                    let Ok(mut client) = Client::connect_tcp(addr) else {
                        unexpected += 1;
                        thread::sleep(Duration::from_millis(100));
                        continue;
                    };
                    tag += 1;
                    match client.call(&Request::Profile {
                        program: load_program(tag),
                        options: CompileOptions::portable(OptLevel::O0),
                        name: target.clone(),
                        config: ProfileConfig::default(),
                    }) {
                        Ok(Err(BsgError::TaskPanic { message })) if message.contains("chaos") => {
                            confirmed += 1;
                        }
                        Ok(Err(BsgError::Overloaded { .. })) => {} // shed: retry later
                        _ => unexpected += 1,
                    }
                    thread::sleep(Duration::from_millis(250));
                }
                (confirmed, unexpected)
            })
        });

        thread::sleep(Duration::from_secs(seconds));
        stop.store(true, Ordering::Relaxed);

        let mut all_latencies = Vec::new();
        let mut failures = 0u64;
        let mut transport_errors = 0u64;
        for j in healthy_joins {
            let (l, f, t) = j.join().unwrap_or((Vec::new(), 0, 1));
            all_latencies.extend(l);
            failures += f;
            transport_errors += t;
        }
        let mut storm = (0u64, 0u64, 0u64);
        for j in storm_joins {
            let (p, c, t) = j.join().unwrap_or((0, 0, 1));
            storm = (storm.0 + p, storm.1 + c, storm.2 + t);
        }
        let mut loris = (0u64, 0u64);
        for j in loris_joins {
            let (c, k) = j.join().unwrap_or((0, 0));
            loris = (loris.0 + c, loris.1 + k);
        }
        let disconnects = disconnect_join.join().unwrap_or(0);
        let fault = fault_join
            .map(|j| j.join().unwrap_or((0, 1)))
            .unwrap_or((0, 0));

        all_latencies.sort_by(|a, b| a.total_cmp(b));
        let elapsed_secs = started.elapsed().as_secs_f64();
        let completed = all_latencies.len() as u64;
        let healthy = PhaseReport {
            phase: "soak-healthy",
            clients: HEALTHY,
            ok: completed - failures,
            failures,
            transport_errors,
            elapsed_secs,
            requests_per_sec: if elapsed_secs > 0.0 {
                completed as f64 / elapsed_secs
            } else {
                0.0
            },
            p50_ms: percentile(&all_latencies, 50.0),
            p95_ms: percentile(&all_latencies, 95.0),
            p99_ms: percentile(&all_latencies, 99.0),
        };
        (healthy, storm, loris, disconnects, fault)
    });

    // Admission burst, after healthy traffic has stopped so its sheds
    // never pollute the healthy error counts: 64 one-shot connections
    // firing cold (build-heavy) requests at once, no retry.
    const BURST: usize = 64;
    let barrier = Arc::new(Barrier::new(BURST));
    let burst_nonce = started.elapsed().as_nanos() as u64 ^ 0xB1257;
    let (mut burst_sheds, mut burst_ok, mut burst_other) = (0u64, 0u64, 0u64);
    let results: Vec<(u64, u64, u64)> = thread::scope(|s| {
        (0..BURST)
            .map(|client| {
                let barrier = Arc::clone(&barrier);
                s.spawn(move || {
                    let connection = Client::connect_tcp(addr);
                    barrier.wait();
                    let Ok(mut connection) = connection else {
                        return (0u64, 0u64, 1u64);
                    };
                    let request = request_for(Phase::Cold { nonce: burst_nonce }, client, 0);
                    match connection.call(&request) {
                        Ok(Err(BsgError::Overloaded { queue_depth, limit })) => {
                            debug_assert!(queue_depth >= limit);
                            (1, 0, 0)
                        }
                        Ok(Ok(_)) => (0, 1, 0),
                        _ => (0, 0, 1),
                    }
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|j| j.join().unwrap_or((0, 0, 1)))
            .collect()
    });
    for (shed, ok, other) in results {
        burst_sheds += shed;
        burst_ok += ok;
        burst_other += other;
    }

    SoakOutcome {
        seconds,
        healthy,
        burst_total: BURST as u64,
        burst_sheds,
        burst_ok,
        burst_other_failures: burst_other,
        storm_preempted: storm.0,
        storm_completed: storm.1,
        storm_transport_errors: storm.2,
        loris_cycles: loris.0,
        loris_kills: loris.1,
        midframe_disconnects: disconnects,
        fault_confirmed: fault.0,
        fault_unexpected: fault.1,
    }
}

/// Requests an in-band graceful drain and verifies the server honors it:
/// the shutdown is acknowledged, and a subsequent fresh connection is
/// either refused outright or answered with a shutting-down error — never
/// served new work.
pub fn drain_server(addr: &str) -> Result<(), String> {
    let mut client = Client::connect_tcp(addr).map_err(|e| format!("drain connect: {e}"))?;
    match client.call(&Request::Shutdown) {
        Ok(Ok(Response::Shutdown)) => {}
        Ok(Ok(other)) => return Err(format!("shutdown got the wrong body: {other:?}")),
        Ok(Err(e)) => return Err(format!("shutdown request failed: {e}")),
        Err(e) => return Err(format!("shutdown transport: {e}")),
    }
    // The ack races the accept loop noticing the flag; give it a beat.
    thread::sleep(Duration::from_millis(25));
    match Client::connect_tcp(addr) {
        Err(_) => Ok(()), // refused: accept loop is gone
        Ok(mut probe) => match probe.call(&Request::Measure {
            program: load_program(1),
            options: CompileOptions::portable(OptLevel::O0),
        }) {
            Ok(Ok(_)) => Err("server accepted new work after acknowledging shutdown".to_string()),
            _ => Ok(()), // refused with an error or a close: drained
        },
    }
}

/// Serializes a chaos-soak outcome (plus, when available, the server's
/// own final counters) to the `BENCH_server.json` soak schema.
pub fn soak_json(outcome: &SoakOutcome, stats: Option<&ServerStats>) -> String {
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"benchmark\": \"bsg-server chaos soak\",");
    let _ = writeln!(json, "  \"seconds\": {},", outcome.seconds);
    let h = &outcome.healthy;
    let _ = writeln!(json, "  \"healthy\": {{");
    let _ = writeln!(json, "    \"clients\": {},", h.clients);
    let _ = writeln!(json, "    \"ok\": {},", h.ok);
    let _ = writeln!(json, "    \"failures\": {},", h.failures);
    let _ = writeln!(json, "    \"transport_errors\": {},", h.transport_errors);
    let _ = writeln!(json, "    \"requests_per_sec\": {:.1},", h.requests_per_sec);
    let _ = writeln!(json, "    \"p50_ms\": {:.3},", h.p50_ms);
    let _ = writeln!(json, "    \"p95_ms\": {:.3},", h.p95_ms);
    let _ = writeln!(json, "    \"p99_ms\": {:.3}", h.p99_ms);
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"burst\": {{");
    let _ = writeln!(json, "    \"total\": {},", outcome.burst_total);
    let _ = writeln!(json, "    \"sheds\": {},", outcome.burst_sheds);
    let _ = writeln!(json, "    \"ok\": {},", outcome.burst_ok);
    let _ = writeln!(
        json,
        "    \"other_failures\": {}",
        outcome.burst_other_failures
    );
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"storm\": {{");
    let _ = writeln!(json, "    \"preempted\": {},", outcome.storm_preempted);
    let _ = writeln!(json, "    \"completed\": {},", outcome.storm_completed);
    let _ = writeln!(
        json,
        "    \"transport_errors\": {}",
        outcome.storm_transport_errors
    );
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"loris\": {{");
    let _ = writeln!(json, "    \"cycles\": {},", outcome.loris_cycles);
    let _ = writeln!(json, "    \"kills\": {}", outcome.loris_kills);
    let _ = writeln!(json, "  }},");
    let _ = writeln!(
        json,
        "  \"midframe_disconnects\": {},",
        outcome.midframe_disconnects
    );
    let _ = writeln!(json, "  \"fault\": {{");
    let _ = writeln!(json, "    \"confirmed\": {},", outcome.fault_confirmed);
    let _ = writeln!(json, "    \"unexpected\": {}", outcome.fault_unexpected);
    let comma = if stats.is_some() { "," } else { "" };
    let _ = writeln!(json, "  }}{comma}");
    if let Some(stats) = stats {
        let _ = writeln!(json, "  \"server\": {{");
        let _ = writeln!(json, "    \"requests_served\": {},", stats.requests_served);
        let _ = writeln!(json, "    \"protocol_errors\": {},", stats.protocol_errors);
        let _ = writeln!(json, "    \"max_queue_depth\": {},", stats.max_queue_depth);
        let _ = writeln!(json, "    \"shed_count\": {},", stats.shed_count);
        let _ = writeln!(json, "    \"preempted_count\": {}", stats.preempted_count);
        let _ = writeln!(json, "  }}");
    }
    let _ = writeln!(json, "}}");
    json
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_programs_differ_by_tag_and_repeat_by_tag() {
        use bsg_runtime::SourceId;
        assert_eq!(
            SourceId::of(&load_program(3)),
            SourceId::of(&load_program(3))
        );
        assert_ne!(
            SourceId::of(&load_program(3)),
            SourceId::of(&load_program(4))
        );
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 50.0), 50.0);
        assert_eq!(percentile(&sorted, 95.0), 95.0);
        assert_eq!(percentile(&sorted, 99.0), 99.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 50.0), 2.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn bench_json_is_well_formed_enough_to_grep() {
        let json = bench_json(
            4,
            &[PhaseReport {
                phase: "cold",
                clients: 2,
                ok: 8,
                failures: 0,
                transport_errors: 0,
                elapsed_secs: 0.5,
                requests_per_sec: 16.0,
                p50_ms: 1.0,
                p95_ms: 2.0,
                p99_ms: 3.0,
            }],
        );
        assert!(json.contains("\"phase\": \"cold\""));
        assert!(json.contains("\"requests_per_sec\": 16.0"));
        assert!(json.contains("\"p99_ms\": 3.000"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
