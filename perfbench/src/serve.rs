//! `serve_mix`: a fresh `bsg-server` daemon per round, primed with the
//! small suite, under a closed loop of two connections that send about
//! three store hits per build.

use crate::gen::{fresh_program, Mix, Planned};
use crate::layers::Sink;
use crate::metrics::Outcome;
use crate::procfs::{cpu_seconds, peak_rss_mb, Reaped};
use crate::stats::{summarize, Pick};
use bsg_bench::SYNTH_TARGET_INSTRUCTIONS;
use bsg_compiler::{compile, CompileOptions, OptLevel};
use bsg_ir::codec::to_canon_bytes;
use bsg_profile::{ProfileConfig, StatisticalProfile};
use bsg_runtime::StoreStats;
use bsg_server::{Client, Request, Response, Server, ServerConfig, ServerStats};
use bsg_synth::SynthesisConfig;
use bsg_uarch::exec::{execute_legacy, ExecConfig, NullObserver};
use bsg_workloads::{suite, InputSize, Workload};
use std::io::Write as _;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Closed-loop client connections.
pub const CONNECTIONS: u64 = 2;
/// Scheduler workers of the daemon.
pub const WORKERS: usize = 2;
/// Rounds (fresh daemons) of an end-to-end run; `setup_s` is their median.
const ROUNDS: u32 = 4;
/// Requests into a round at which the daemon's peak RSS is read: a fixed
/// amount of work, so the figure does not grow with throughput.
const RSS_AT_REQUESTS: f64 = 8_000.0;
/// Length of the load windows the latency, rate and CPU samples come from.
const WINDOW_S: f64 = 0.25;

/// `main` of the daemon child: serve on a loopback port until an in-band
/// shutdown, or until stdin closes (the parent went away).
pub fn daemon() -> Result<(), String> {
    bsg_runtime::install_global_workers(WORKERS);
    let handle = Server::bind_tcp("127.0.0.1:0", ServerConfig::default())
        .map_err(|e| format!("bind: {e}"))?;
    let addr = handle.local_addr().ok_or("no local address")?;
    println!("listening {addr}");
    let _ = std::io::stdout().flush();
    let (tx, rx) = std::sync::mpsc::channel();
    // Left detached: it blocks on stdin until the parent closes it, which
    // may be never after an in-band shutdown; process exit ends it.
    std::thread::spawn(move || {
        let _ = std::io::copy(&mut std::io::stdin(), &mut std::io::sink());
        let _ = tx.send(());
    });
    while !handle.drain_requested() && rx.try_recv().is_err() {
        std::thread::sleep(Duration::from_millis(10));
    }
    handle.stop();
    Ok(())
}

/// The Profile request the report's preparation makes for `w`.
pub fn profile_request(w: &Workload) -> Request {
    Request::Profile {
        program: w.program.as_ref().clone(),
        options: CompileOptions::portable(OptLevel::O0),
        name: w.name.clone(),
        config: ProfileConfig::default(),
    }
}

/// The Synthesize request the report's preparation makes for `profile`.
pub fn synthesize_request(profile: &StatisticalProfile) -> Request {
    Request::Synthesize {
        profile: profile.clone(),
        config: SynthesisConfig::default(),
        target_instructions: SYNTH_TARGET_INSTRUCTIONS,
    }
}

fn fresh_options(measure: bool) -> CompileOptions {
    CompileOptions::portable(if measure { OptLevel::O1 } else { OptLevel::O0 })
}

/// The build request for fresh program `index`.
pub fn build_request(seed: u64, index: u64, measure: bool) -> Request {
    let program = fresh_program(seed, index);
    if measure {
        Request::Measure {
            program,
            options: fresh_options(true),
        }
    } else {
        Request::Profile {
            program,
            options: fresh_options(false),
            name: format!("fresh/{index}"),
            config: ProfileConfig::default(),
        }
    }
}

/// The first `n` requests connection 0 sends in a run seeded `seed`, given
/// the suite's profiles (the frame-codec replay input).
pub fn mix_requests(
    seed: u64,
    kernels: &[Workload],
    profiles: &[&StatisticalProfile],
    n: usize,
) -> Vec<Request> {
    Mix::new(seed, 0, CONNECTIONS, kernels.len())
        .take(n)
        .map(|p| match p {
            Planned::Hit {
                kernel,
                synth: false,
            } => profile_request(&kernels[kernel]),
            Planned::Hit {
                kernel,
                synth: true,
            } => synthesize_request(profiles[kernel]),
            Planned::Build { index, measure } => build_request(seed, index, measure),
        })
        .collect()
}

/// One call, timed on the client from encode to decoded reply.
pub fn timed_call(
    client: &mut Client<TcpStream>,
    request: &Request,
) -> (f64, Result<Response, String>) {
    let start = Instant::now();
    let reply = client.call(request);
    let ms = start.elapsed().as_secs_f64() * 1e3;
    let reply = match reply {
        Ok(Ok(response)) => Ok(response),
        Ok(Err(e)) => Err(format!("error reply: {e}")),
        Err(e) => Err(format!("transport: {e}")),
    };
    (ms, reply)
}

/// What one connection saw.
#[derive(Default)]
struct ConnLog {
    hit_ms: Vec<f64>,
    build_ms: Vec<f64>,
    /// `(completion time since the load started, latency)` in seconds and
    /// ms, every request.
    done: Vec<(f64, f64)>,
    /// `(index, measure, dynamic instructions)` of every fresh reply, for
    /// the check after the round.
    fresh: Vec<(u64, bool, u64)>,
    reply_bytes: u64,
    problems: Vec<String>,
}

/// One connection's closed loop until `deadline`.
fn drive(
    addr: &str,
    seed: u64,
    conn: u64,
    hot: &[[(Request, Vec<u8>); 2]],
    start: Instant,
    deadline: Instant,
    completed: &AtomicU64,
) -> ConnLog {
    let mut log = ConnLog::default();
    let mut client = match Client::connect_tcp(addr) {
        Ok(c) => c,
        Err(e) => {
            log.problems.push(format!("connect: {e}"));
            return log;
        }
    };
    let mut mix = Mix::new(seed, conn, CONNECTIONS, hot.len());
    while Instant::now() < deadline {
        match mix.next() {
            Some(Planned::Hit { kernel, synth }) => {
                let (request, first) = &hot[kernel][usize::from(synth)];
                let (ms, reply) = timed_call(&mut client, request);
                log.hit_ms.push(ms);
                log.done.push((start.elapsed().as_secs_f64(), ms));
                completed.fetch_add(1, Ordering::Relaxed);
                match reply.map(|r| to_canon_bytes(&r)) {
                    Ok(bytes) if bytes == *first => log.reply_bytes += bytes.len() as u64,
                    Ok(_) => log
                        .problems
                        .push(format!("hot reply for kernel {kernel} changed")),
                    Err(e) => log.problems.push(e),
                }
            }
            Some(Planned::Build { index, measure }) => {
                let request = build_request(seed, index, measure);
                let (ms, reply) = timed_call(&mut client, &request);
                log.build_ms.push(ms);
                log.done.push((start.elapsed().as_secs_f64(), ms));
                completed.fetch_add(1, Ordering::Relaxed);
                match reply {
                    Ok(Response::Measure {
                        dynamic_instructions,
                    }) if measure => {
                        log.reply_bytes += 9;
                        log.fresh.push((index, true, dynamic_instructions));
                    }
                    Ok(Response::Profile(p)) if !measure && p.name == format!("fresh/{index}") => {
                        log.reply_bytes +=
                            to_canon_bytes(&Response::Profile(p.clone())).len() as u64;
                        log.fresh.push((index, false, p.dynamic_instructions));
                    }
                    Ok(other) => log.problems.push(format!(
                        "fresh {index}: unexpected reply {:?}",
                        std::mem::discriminant(&other)
                    )),
                    Err(e) => log.problems.push(e),
                }
            }
            None => break,
        }
    }
    log
}

/// One load window of a round.
struct Window {
    /// Requests completed per second.
    rate: f64,
    /// Median latency of the requests completed in it, ms.
    p50_ms: f64,
    /// Daemon CPU per completed request, ms.
    cpu_ms: f64,
}

/// Everything one round measured.
struct Round {
    setup_s: f64,
    windows: Vec<Window>,
    rss_mb: f64,
    before: ServerStats,
    after: ServerStats,
    logs: Vec<ConnLog>,
}

fn stats(client: &mut Client<TcpStream>) -> Result<ServerStats, String> {
    match timed_call(client, &Request::Stats).1? {
        Response::Stats(s) => Ok(s),
        _ => Err("stats: wrong reply".to_string()),
    }
}

/// One round: start a daemon on `dir`, prime it, load it for
/// `load_seconds`, drain it.
fn round(seed: u64, load_seconds: f64, dir: &Path, kernels: &[Workload]) -> Result<Round, String> {
    let started = Instant::now();
    let mut daemon =
        Reaped::spawn_self(&["daemon"], dir).map_err(|e| format!("spawn daemon: {e}"))?;
    let pid = daemon.id();
    let line = daemon
        .lines()
        .and_then(|mut l| l.next())
        .and_then(Result::ok)
        .ok_or("daemon printed no address")?;
    let addr = line
        .strip_prefix("listening ")
        .ok_or("daemon printed no address")?
        .to_string();
    let mut client = Client::connect_tcp(&addr).map_err(|e| format!("connect: {e}"))?;
    stats(&mut client)?;

    // Prime the hot pool: each kernel's profile, then its synthesis.
    let mut hot = Vec::with_capacity(kernels.len());
    for w in kernels {
        let profile_req = profile_request(w);
        let profile = match timed_call(&mut client, &profile_req).1? {
            Response::Profile(p) => p,
            _ => return Err(format!("priming {}: wrong reply", w.name)),
        };
        let synth_req = synthesize_request(&profile);
        let synth = timed_call(&mut client, &synth_req).1?;
        if !matches!(synth, Response::Synthesis(_)) {
            return Err(format!("priming {}: wrong reply", w.name));
        }
        hot.push([
            (profile_req, to_canon_bytes(&Response::Profile(profile))),
            (synth_req, to_canon_bytes(&synth)),
        ]);
    }
    let setup_s = started.elapsed().as_secs_f64();

    let before = stats(&mut client)?;
    // The load is cut into equal windows of about WINDOW_S; the daemon's
    // CPU time is sampled at each window boundary, and the boundary is
    // where that sample was actually taken.
    let n_windows = (load_seconds / WINDOW_S).floor().max(1.0) as usize;
    let window_s = load_seconds / n_windows as f64;
    let mut cpu = vec![cpu_seconds(Some(pid)).ok_or("daemon cpu")?];
    let start = Instant::now();
    let mut bounds = vec![0.0];
    let completed = AtomicU64::new(0);
    let mut rss_marks: Vec<(f64, f64)> = Vec::new();
    let deadline = start + Duration::from_secs_f64(load_seconds);
    let logs: Vec<ConnLog> = std::thread::scope(|s| {
        let joins: Vec<_> = (0..CONNECTIONS)
            .map(|conn| {
                let (addr, hot, completed) = (&addr, &hot, &completed);
                s.spawn(move || drive(addr, seed, conn, hot, start, deadline, completed))
            })
            .collect();
        for w in 1..=n_windows {
            let boundary = start + Duration::from_secs_f64(w as f64 * window_s);
            std::thread::sleep(boundary.saturating_duration_since(Instant::now()));
            cpu.push(cpu_seconds(Some(pid)).unwrap_or(f64::NAN));
            bounds.push(start.elapsed().as_secs_f64());
            let rss = peak_rss_mb(Some(pid)).unwrap_or(f64::NAN);
            rss_marks.push((completed.load(Ordering::Relaxed) as f64, rss));
        }
        joins
            .into_iter()
            .map(|j| {
                j.join().unwrap_or_else(|_| ConnLog {
                    problems: vec!["client thread panicked".to_string()],
                    ..ConnLog::default()
                })
            })
            .collect()
    });
    let windows = (0..n_windows)
        .filter_map(|w| {
            let span = bounds[w]..bounds[w + 1];
            let ms: Vec<f64> = logs
                .iter()
                .flat_map(|l| &l.done)
                .filter(|(at, _)| span.contains(at))
                .map(|&(_, ms)| ms)
                .collect();
            Some(Window {
                rate: ms.len() as f64 / (span.end - span.start),
                cpu_ms: (cpu[w + 1] - cpu[w]) * 1e3 / ms.len() as f64,
                p50_ms: summarize(&ms)?.median,
            })
        })
        .collect();
    let after = stats(&mut client)?;
    let rss_mb = rss_at(&rss_marks, RSS_AT_REQUESTS);
    let drained = matches!(
        timed_call(&mut client, &Request::Shutdown).1,
        Ok(Response::Shutdown)
    );
    daemon.close_stdin();
    if !(drained && daemon.finish()) {
        return Err("daemon did not drain cleanly".to_string());
    }
    Ok(Round {
        setup_s,
        windows,
        rss_mb,
        before,
        after,
        logs,
    })
}

/// Peak RSS interpolated at `at` completed requests from `(completed, rss)`
/// samples; the last sample when the round never got that far.
fn rss_at(marks: &[(f64, f64)], at: f64) -> f64 {
    let mut prev = (0.0, marks.first().map_or(f64::NAN, |m| m.1));
    for &(n, rss) in marks {
        if n >= at {
            let share = if n > prev.0 {
                (at - prev.0) / (n - prev.0)
            } else {
                1.0
            };
            return prev.1 + (rss - prev.1) * share;
        }
        prev = (n, rss);
    }
    prev.1
}

fn builds(s: &StoreStats) -> u64 {
    s.compiled_builds + s.profile_builds + s.c_text_builds + s.synthesis_builds
}

fn hits(s: &StoreStats) -> u64 {
    s.compiled_hits + s.profile_hits + s.c_text_hits + s.synthesis_hits
}

fn bytes_written(s: &StoreStats) -> u64 {
    s.disk.per_kind.iter().map(|k| k.bytes_written).sum()
}

/// Checks a round against the independent interpreter and the daemon's
/// counters, counting every mismatch in `out`.
fn check(seed: u64, r: &Round, out: &mut Outcome) {
    let (mut measures, mut profiles) = (0u64, 0u64);
    for log in &r.logs {
        out.attempted += (log.hit_ms.len() + log.build_ms.len()) as u64;
        for why in &log.problems {
            out.fail(why.clone());
        }
        for &(index, measure, got) in &log.fresh {
            let program = compile(&fresh_program(seed, index), &fresh_options(measure));
            let want = program.map(|p| {
                execute_legacy(&p.program, &mut NullObserver, &ExecConfig::default())
                    .dynamic_instructions
            });
            if want != Ok(got) {
                out.fail(format!(
                    "fresh {index}: reply {got}, legacy interpreter {want:?}"
                ));
            }
            if measure {
                measures += 1;
            } else {
                profiles += 1;
            }
        }
    }
    let (a, b) = (&r.after, &r.before);
    let d = |f: fn(&ServerStats) -> u64| f(a) - f(b);
    let expect = [
        (
            "compiled builds",
            d(|s| s.store.compiled_builds),
            measures + profiles,
        ),
        ("profile builds", d(|s| s.store.profile_builds), profiles),
        ("synthesis builds", d(|s| s.store.synthesis_builds), 0),
        ("build failures", d(|s| s.store.build_failures), 0),
        ("sheds", d(|s| s.shed_count), 0),
        ("protocol errors", d(|s| s.protocol_errors), 0),
    ];
    for (what, got, want) in expect {
        if got != want {
            out.fail(format!("daemon {what}: {got}, expected {want}"));
        }
    }
}

/// Runs `serve_mix` for `seconds` of load.
pub fn run(seed: u64, seconds: f64, trace: bool, work: &Path, out: &mut Outcome) {
    let kernels = suite(InputSize::Small);
    let rounds = if trace { 2 } else { ROUNDS };
    let mut done = Vec::new();
    let mut last_dir = PathBuf::new();
    for k in 0..rounds {
        let dir = work.join(format!("serve-{k}"));
        let round_seed = seed.wrapping_add(u64::from(k));
        match round(round_seed, seconds / f64::from(rounds), &dir, &kernels) {
            Ok(r) => {
                check(round_seed, &r, out);
                done.push(r);
            }
            Err(e) => {
                out.attempted += 1;
                out.fail(format!("round {k}: {e}"));
            }
        }
        if trace && k + 1 == rounds {
            last_dir = dir;
        } else {
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    let all_ms = |rs: &[Round]| -> Vec<f64> {
        rs.iter()
            .flat_map(|r| &r.logs)
            .flat_map(|l| l.hit_ms.iter().chain(&l.build_ms).copied())
            .collect()
    };
    let per_window = |rs: &[Round], f: fn(&Window) -> f64| -> Vec<f64> {
        rs.iter().flat_map(|r| &r.windows).map(f).collect()
    };
    if let Some(s) = summarize(&all_ms(&done)) {
        let tail = s
            .tail
            .map_or(String::new(), |(q, t)| format!(", p{q} {t:.4} ms"));
        println!(
            "serve_mix    every request: median {:.4} ms{tail}, n={}",
            s.median, s.n
        );
    }
    if !trace {
        // Best window of the run (set-up: the median round): see "Why
        // best-of" in README.md.
        let setups: Vec<f64> = done.iter().map(|r| r.setup_s).collect();
        let rss: Vec<f64> = done.iter().map(|r| r.rss_mb).collect();
        out.set_summary("setup_s", Pick::Median, summarize(&setups));
        out.set_summary(
            "latency_ms",
            Pick::Min,
            summarize(&per_window(&done, |w| w.p50_ms)),
        );
        out.set_summary(
            "ops_per_s",
            Pick::Max,
            summarize(&per_window(&done, |w| w.rate)),
        );
        out.set_summary(
            "cpu_ms_per_op",
            Pick::Min,
            summarize(&per_window(&done, |w| w.cpu_ms)),
        );
        out.set_summary("peak_rss_mb", Pick::Median, summarize(&rss));
        return;
    }
    let [plain, traced] = done.as_slice() else {
        return; // the failed round is already counted
    };
    let best = |r: &Round| {
        summarize(&per_window(std::slice::from_ref(r), |w| w.p50_ms)).map_or(f64::NAN, |s| s.min)
    };
    out.set("trace.latency_ms", best(traced));
    out.set(
        "trace.overhead_pct",
        (best(traced) - best(plain)) / best(plain) * 100.0,
    );
    let logs = &traced.logs;
    let hit: Vec<f64> = logs.iter().flat_map(|l| l.hit_ms.iter().copied()).collect();
    let build: Vec<f64> = logs
        .iter()
        .flat_map(|l| l.build_ms.iter().copied())
        .collect();
    let reply_bytes = logs.iter().map(|l| l.reply_bytes).sum();
    server_metrics(
        &traced.before,
        &traced.after,
        &hit,
        &build,
        reply_bytes,
        out,
    );
    store_metrics(&traced.after.store, &traced.before.store, out);
    crate::report::traced_child(&last_dir, work, Some(seed.wrapping_add(1)), out);
    let _ = std::fs::remove_dir_all(&last_dir);
}

/// The `server` layer metrics of one load: the daemon's counters before
/// and after it, and the client's latencies and reply bytes.
pub fn server_metrics(
    before: &ServerStats,
    after: &ServerStats,
    hit_ms: &[f64],
    build_ms: &[f64],
    reply_bytes: u64,
    sink: &mut dyn Sink,
) {
    let (a, b) = (after, before);
    let served = (a.requests_served - b.requests_served) as f64;
    let batches = (a.batches - b.batches) as f64;
    let requests = (hit_ms.len() + build_ms.len()).max(1) as f64;
    let median = |v: &[f64]| summarize(v).map_or(f64::NAN, |s| s.median);
    sink.emit("server.requests_served", served);
    sink.emit("server.batches", batches);
    sink.emit("server.requests_per_batch", served / batches.max(1.0));
    sink.emit("server.max_queue_depth", a.max_queue_depth as f64);
    sink.emit("server.shed_count", (a.shed_count - b.shed_count) as f64);
    sink.emit(
        "server.protocol_errors",
        (a.protocol_errors - b.protocol_errors) as f64,
    );
    sink.emit("server.reply_bytes", reply_bytes as f64 / requests);
    sink.emit("server.hit_p50_ms", median(hit_ms));
    sink.emit("server.build_p50_ms", median(build_ms));
}

/// `runtime.store.*` and `compiler.compiles` from two store snapshots.
pub fn store_metrics(a: &StoreStats, b: &StoreStats, out: &mut dyn Sink) {
    let mut set = |name: &str, v: f64| out.emit(name, v);
    let built = builds(a) - builds(b);
    let requests = built + hits(a) - hits(b);
    set("runtime.store.requests", requests as f64);
    set("runtime.store.builds", built as f64);
    set(
        "runtime.store.disk_hits",
        (a.disk.hits - b.disk.hits) as f64,
    );
    set(
        "runtime.store.disk_writes",
        (a.disk.writes - b.disk.writes) as f64,
    );
    set(
        "runtime.store.disk_bytes_written",
        (bytes_written(a) - bytes_written(b)) as f64,
    );
    set(
        "runtime.store.hit_ratio",
        (requests - built) as f64 / requests.max(1) as f64,
    );
    set(
        "compiler.compiles",
        (a.compiled_builds - b.compiled_builds) as f64,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rss_is_read_at_a_fixed_request_count() {
        let marks = [(4_000.0, 40.0), (8_000.0, 48.0), (12_000.0, 56.0)];
        assert_eq!(rss_at(&marks, 10_000.0), 52.0);
        assert_eq!(rss_at(&marks, 2_000.0), 40.0);
        // A round that never got that far reports its last sample.
        assert_eq!(rss_at(&marks, 50_000.0), 56.0);
    }
}
