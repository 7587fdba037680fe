#![forbid(unsafe_code)]

//! The bsg-load harness binary: drives a running bsg-server with many
//! concurrent clients and writes `BENCH_server.json`.
//!
//! ```text
//! bsg-load --addr HOST:PORT [--clients N] [--requests N]
//!          [--phases cold,warm|cold|warm|none] [--out FILE]
//!          [--fetch-figure NAME --figure-out FILE]
//!          [--assert-disk-hits] [--fault-probe NAME]
//!          [--chaos-soak SECS [--soak-fault NAME] [--soak-p99-ms MS]]
//! ```
//!
//! Exit status: `0` on a clean run, `1` on any load failure (transport
//! errors, failed requests, a failed assertion or figure fetch, an
//! unconfirmed fault probe), `2` when `--fault-probe NAME` *confirms* the
//! injected fault — the daemon (started under `BSG_FAULT=task-panic=NAME`)
//! failed exactly the targeted request with a `TaskPanic` while healthy
//! requests on the same connection succeeded byte-identically to a local
//! hermetic render.  CI asserts the nonzero exit and the confirmation
//! line.
//!
//! `--chaos-soak SECS` replaces the cold/warm phases with the chaos soak
//! (`bsg_server::run_chaos_soak`): healthy retried traffic mixed with
//! slow-loris writers, mid-frame disconnects, deadline storms and
//! (with `--soak-fault NAME`, matching the daemon's
//! `BSG_FAULT=task-panic=NAME`) poison requests, then an admission burst,
//! an optional figure fetch, a stats scrape, and an in-band graceful
//! drain.  The soak asserts the overload-safety contract — zero healthy
//! failures/transport errors, healthy p99 under `--soak-p99-ms` (default
//! 10000), sheds observed under burst, loris connections killed, storms
//! preempted, clean drain — and expects a *hardened* daemon (small
//! `--queue-max`, `--io-timeout-ms`, `--request-deadline-ms`); against a
//! default daemon these assertions have nothing to observe and fail.
//! Results go to `--out` in the soak JSON schema.

use bsg_runtime::BsgError;
use bsg_server::proto::{Request, Response};
use bsg_server::{run_phase, Client, Phase, PhaseReport};
use std::process::ExitCode;
use std::time::SystemTime;

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse_or<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> T {
    match flag_value(args, flag) {
        None => default,
        Some(raw) => match raw.parse() {
            Ok(v) => v,
            Err(_) => {
                eprintln!("warning: ignoring {flag} {raw:?} (unparseable); using the default");
                default
            }
        },
    }
}

/// Fetches `name` from the server and checks it against the local,
/// in-process render of the same figure — the byte-identity contract.
fn fetch_figure(addr: &str, name: &str, out: Option<&str>) -> Result<(), String> {
    let mut client = Client::connect_tcp(addr).map_err(|e| format!("figure fetch connect: {e}"))?;
    let reply = client
        .call(&Request::Figure {
            name: name.to_string(),
        })
        .map_err(|e| format!("figure fetch transport: {e}"))?
        .map_err(|e| format!("figure request failed: {e}"))?;
    let text = match reply {
        Response::Figure(text) => text,
        other => return Err(format!("figure reply had the wrong body: {other:?}")),
    };
    if let Some(path) = out {
        std::fs::write(path, &text).map_err(|e| format!("writing {path}: {e}"))?;
    }
    Ok(())
}

/// The `--fault-probe` round; `Ok(())` means the injected fault was
/// confirmed: the targeted request failed with `TaskPanic`, and the
/// healthy requests interleaved on the same connection succeeded — the
/// figure one byte-identical to a local hermetic render.
fn fault_probe(addr: &str, target: &str) -> Result<(), String> {
    let mut client = Client::connect_tcp(addr).map_err(|e| format!("probe connect: {e}"))?;

    // Healthy request before the poisoned one.
    let before = client
        .call(&Request::Figure {
            name: "fig02".to_string(),
        })
        .map_err(|e| format!("healthy figure transport: {e}"))?
        .map_err(|e| format!("healthy figure request failed: {e}"))?;
    let spec = bsg_bench::figure_spec("fig02").expect("fig02 is registered");
    let (hermetic, faults) = bsg_bench::render_figure(spec);
    match &before {
        Response::Figure(text) if *text == hermetic && faults.is_empty() => {}
        Response::Figure(_) => {
            return Err("healthy figure reply differs from the hermetic render".to_string())
        }
        other => {
            return Err(format!(
                "healthy figure reply had the wrong body: {other:?}"
            ))
        }
    }

    // The poisoned request: its profile name matches the daemon's
    // BSG_FAULT=task-panic=NAME target, so its scheduler task panics.
    let poisoned = client
        .call(&Request::Profile {
            program: bsg_server::load_program(0xFA01),
            options: bsg_compiler::CompileOptions::portable(bsg_compiler::OptLevel::O0),
            name: target.to_string(),
            config: bsg_profile::ProfileConfig::default(),
        })
        .map_err(|e| format!("poisoned request transport: {e}"))?;
    match poisoned {
        Err(BsgError::TaskPanic { message }) if message.contains("chaos") => {}
        Err(other) => {
            return Err(format!(
                "poisoned request failed, but not as chaos: {other}"
            ))
        }
        Ok(_) => return Err("poisoned request unexpectedly succeeded".to_string()),
    }

    // The connection must survive the poisoned request, and healthy work
    // must still come back byte-identical.
    let after = client
        .call(&Request::Figure {
            name: "fig02".to_string(),
        })
        .map_err(|e| format!("post-fault figure transport: {e}"))?
        .map_err(|e| format!("post-fault figure request failed: {e}"))?;
    match after {
        Response::Figure(text) if text == hermetic => Ok(()),
        Response::Figure(_) => {
            Err("post-fault figure reply differs from the hermetic render".to_string())
        }
        other => Err(format!(
            "post-fault figure reply had the wrong body: {other:?}"
        )),
    }
}

/// Fetches the server's stats reply.
fn server_stats(addr: &str) -> Result<bsg_server::proto::ServerStats, String> {
    let mut client = Client::connect_tcp(addr).map_err(|e| format!("stats connect: {e}"))?;
    let reply = client
        .call(&Request::Stats)
        .map_err(|e| format!("stats transport: {e}"))?
        .map_err(|e| format!("stats request failed: {e}"))?;
    match reply {
        Response::Stats(stats) => Ok(stats),
        other => Err(format!("stats reply had the wrong body: {other:?}")),
    }
}

/// Fetches server stats, printing them and returning the disk hit count.
fn report_stats(addr: &str) -> Result<u64, String> {
    let stats = server_stats(addr)?;
    eprintln!(
        "[bsg-load] server: workers {}, served {}, executed {}, protocol errors {}, \
         shed {}, preempted {}, max queue depth {}",
        stats.workers,
        stats.requests_served,
        stats.batches,
        stats.protocol_errors,
        stats.shed_count,
        stats.preempted_count,
        stats.max_queue_depth
    );
    eprintln!("[bsg-load] server store: {}", stats.store);
    Ok(stats.store.disk.hits)
}

/// The `--chaos-soak` flow: soak, optional figure fetch, stats scrape,
/// in-band drain, then the overload-safety assertions.  Returns the exit
/// code.
fn chaos_soak(args: &[String], addr: &str, seconds: u64, out: &str) -> ExitCode {
    let fault_target = flag_value(args, "--soak-fault");
    let p99_bound_ms: f64 = parse_or(args, "--soak-p99-ms", 10_000.0);

    eprintln!(
        "[bsg-load] chaos soak: {seconds}s against {addr}{}",
        fault_target
            .map(|t| format!(", poisoning {t:?}"))
            .unwrap_or_default()
    );
    let outcome = bsg_server::run_chaos_soak(addr, seconds, fault_target);
    let h = &outcome.healthy;
    eprintln!(
        "[bsg-load] healthy: {:.1} req/s, p50 {:.2} ms, p99 {:.2} ms \
         ({} ok, {} failed, {} transport errors)",
        h.requests_per_sec, h.p50_ms, h.p99_ms, h.ok, h.failures, h.transport_errors
    );
    eprintln!(
        "[bsg-load] burst: {}/{} shed, {} served, {} other failures",
        outcome.burst_sheds, outcome.burst_total, outcome.burst_ok, outcome.burst_other_failures
    );
    eprintln!(
        "[bsg-load] storm: {} preempted, {} completed, {} transport errors; \
         loris: {}/{} killed; {} mid-frame disconnects",
        outcome.storm_preempted,
        outcome.storm_completed,
        outcome.storm_transport_errors,
        outcome.loris_kills,
        outcome.loris_cycles,
        outcome.midframe_disconnects
    );
    if fault_target.is_some() {
        eprintln!(
            "[bsg-load] fault: {} confirmed TaskPanic, {} unexpected outcomes",
            outcome.fault_confirmed, outcome.fault_unexpected
        );
    }

    let mut failed = false;
    // The figure fetch runs between the soak and the drain: replies must
    // stay byte-exact even after all that abuse.
    if let Some(name) = flag_value(args, "--fetch-figure") {
        let figure_out = flag_value(args, "--figure-out");
        match fetch_figure(addr, name, figure_out) {
            Ok(()) => {
                if let Some(path) = figure_out {
                    eprintln!("[bsg-load] wrote server-rendered {name} to {path}");
                }
            }
            Err(e) => {
                eprintln!("bsg-load: post-soak figure fetch failed: {e}");
                failed = true;
            }
        }
    }

    let stats = match server_stats(addr) {
        Ok(stats) => Some(stats),
        Err(e) => {
            eprintln!("bsg-load: post-soak stats failed: {e}");
            failed = true;
            None
        }
    };
    if let Some(stats) = &stats {
        eprintln!(
            "[bsg-load] server: served {}, protocol errors {}, shed {}, preempted {}, \
             max queue depth {}",
            stats.requests_served,
            stats.protocol_errors,
            stats.shed_count,
            stats.preempted_count,
            stats.max_queue_depth
        );
    }

    match bsg_server::drain_server(addr) {
        Ok(()) => eprintln!("[bsg-load] drain acknowledged; new work refused"),
        Err(e) => {
            eprintln!("bsg-load: drain failed: {e}");
            failed = true;
        }
    }

    // The overload-safety contract.
    let mut check = |what: &str, ok: bool| {
        if !ok {
            eprintln!("bsg-load: soak assertion failed: {what}");
            failed = true;
        }
    };
    check(
        "healthy clients saw failures (retries should have absorbed everything)",
        h.failures == 0,
    );
    check(
        "healthy clients saw transport errors",
        h.transport_errors == 0,
    );
    check("healthy clients completed no requests", h.ok > 0);
    check("healthy p99 over bound", h.p99_ms <= p99_bound_ms);
    check(
        "burst produced no Overloaded sheds",
        outcome.burst_sheds > 0,
    );
    check(
        "burst requests failed some way other than shed/served",
        outcome.burst_other_failures == 0,
    );
    check(
        "no slow-loris connection was killed (io timeout not enforced?)",
        outcome.loris_kills > 0,
    );
    check(
        "no deadline storm was preempted (request deadline not enforced?)",
        outcome.storm_preempted > 0,
    );
    if fault_target.is_some() {
        check(
            "no poison request produced the injected TaskPanic",
            outcome.fault_confirmed > 0,
        );
        check(
            "poison requests had unexpected outcomes",
            outcome.fault_unexpected == 0,
        );
    }
    if let Some(stats) = &stats {
        check(
            "server counted no sheds despite client-observed ones",
            stats.shed_count >= outcome.burst_sheds,
        );
        check(
            "server counted no preemptions despite client-observed ones",
            stats.preempted_count >= outcome.storm_preempted,
        );
    }

    let json = bsg_server::soak_json(&outcome, stats.as_ref());
    if let Err(e) = std::fs::write(out, json) {
        eprintln!("bsg-load: failed to write {out}: {e}");
        failed = true;
    } else {
        eprintln!("[bsg-load] wrote {out}");
    }

    if failed {
        ExitCode::FAILURE
    } else {
        eprintln!("[bsg-load] chaos soak clean");
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let Some(addr) = flag_value(&args, "--addr").map(str::to_string) else {
        eprintln!("bsg-load: --addr HOST:PORT is required");
        return ExitCode::FAILURE;
    };
    let clients: usize = parse_or(&args, "--clients", 100);
    let requests: usize = parse_or(&args, "--requests", 4);
    let phases_spec = flag_value(&args, "--phases").unwrap_or("cold,warm");
    let out = flag_value(&args, "--out").unwrap_or("BENCH_server.json");
    if let Some(raw) = flag_value(&args, "--chaos-soak") {
        let Ok(seconds) = raw.parse::<u64>() else {
            eprintln!("bsg-load: --chaos-soak {raw:?} wants a number of seconds");
            return ExitCode::FAILURE;
        };
        return chaos_soak(&args, &addr, seconds, out);
    }
    let nonce = SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0x5eed);

    let mut failed = false;
    let mut reports: Vec<PhaseReport> = Vec::new();
    for label in phases_spec.split(',').filter(|s| !s.is_empty()) {
        let phase = match label {
            "cold" => Phase::Cold { nonce },
            "warm" => Phase::Warm,
            "none" => continue,
            other => {
                eprintln!("bsg-load: unknown phase {other:?} (want cold, warm, or none)");
                return ExitCode::FAILURE;
            }
        };
        let report = run_phase(&addr, clients, requests, phase);
        eprintln!(
            "[bsg-load] {}: {} clients x {} requests -> {:.1} req/s, p50 {:.2} ms, \
             p95 {:.2} ms, p99 {:.2} ms ({} ok, {} failed, {} transport errors)",
            report.phase,
            report.clients,
            requests,
            report.requests_per_sec,
            report.p50_ms,
            report.p95_ms,
            report.p99_ms,
            report.ok,
            report.failures,
            report.transport_errors
        );
        if report.failures > 0 || report.transport_errors > 0 {
            failed = true;
        }
        reports.push(report);
    }
    if !reports.is_empty() {
        let json = bsg_server::bench_json(requests, &reports);
        if let Err(e) = std::fs::write(out, json) {
            eprintln!("bsg-load: failed to write {out}: {e}");
            failed = true;
        } else {
            eprintln!("[bsg-load] wrote {out}");
        }
    }

    if let Some(name) = flag_value(&args, "--fetch-figure") {
        let figure_out = flag_value(&args, "--figure-out");
        match fetch_figure(&addr, name, figure_out) {
            Ok(()) => {
                if let Some(path) = figure_out {
                    eprintln!("[bsg-load] wrote server-rendered {name} to {path}");
                }
            }
            Err(e) => {
                eprintln!("bsg-load: {e}");
                failed = true;
            }
        }
    }

    match report_stats(&addr) {
        Ok(disk_hits) => {
            if args.iter().any(|a| a == "--assert-disk-hits") && disk_hits == 0 {
                eprintln!("bsg-load: --assert-disk-hits failed: the server reported 0 disk hits");
                failed = true;
            }
        }
        Err(e) => {
            eprintln!("bsg-load: {e}");
            failed = true;
        }
    }

    if let Some(target) = flag_value(&args, "--fault-probe") {
        return match fault_probe(&addr, target) {
            Ok(()) => {
                eprintln!(
                    "[bsg-load] fault probe confirmed: only the {target:?} request failed \
                     (TaskPanic), healthy replies byte-identical"
                );
                ExitCode::from(2)
            }
            Err(e) => {
                eprintln!("bsg-load: fault probe NOT confirmed: {e}");
                ExitCode::FAILURE
            }
        };
    }

    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
