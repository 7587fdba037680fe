#![forbid(unsafe_code)]

//! The bsg-server daemon binary.
//!
//! ```text
//! bsg-server [--tcp ADDR] [--unix PATH] [--workers N] [--queue-max N]
//!            [--request-deadline-ms N] [--io-timeout-ms N]
//! ```
//!
//! Defaults to `--tcp 127.0.0.1:0` (an OS-assigned port).  Prints one
//! `listening on ...` line per bound transport to stdout and flushes, so
//! wrappers (CI, bsg-load scripts) can scrape the actual address, then
//! serves until drained.  `--workers N` pins the scheduler width with the
//! same validation as `BSG_RUNTIME_WORKERS`; the artifact store's disk
//! tier follows `BSG_ARTIFACT_DIR` as everywhere else, so a persistent
//! directory gives warm restarts.
//!
//! # Shutdown
//!
//! The daemon drains gracefully on either trigger:
//!
//! * an in-band shutdown request (`Request::Shutdown`) on any connection;
//! * `SIGTERM`/`SIGINT` (the handler only sets a flag; see
//!   `bsg_server::signal`).
//!
//! Draining stops the accept loops, answers everything already admitted,
//! removes Unix socket files, and exits 0.  Socket files are removed even
//! if serving panics (the drop guard below), so a crashed daemon never
//! leaves a stale socket that blocks the next bind.

use bsg_server::{Server, ServerConfig, ServerHandle};
use std::io::Write as _;
use std::process::ExitCode;
use std::time::Duration;

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn ms_flag(args: &[String], flag: &str) -> Option<Duration> {
    let raw = flag_value(args, flag)?;
    match raw.parse::<u64>() {
        Ok(n) if n > 0 => Some(Duration::from_millis(n)),
        _ => {
            eprintln!("warning: ignoring {flag} {raw:?} (want a positive integer of ms)");
            None
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    if let Some(raw) = flag_value(&args, "--workers") {
        bsg_runtime::apply_workers_flag(raw);
    }
    let mut config = ServerConfig::default();
    if let Some(raw) = flag_value(&args, "--queue-max") {
        match raw.parse::<usize>() {
            Ok(n) if n > 0 => config.queue_max = n,
            _ => eprintln!("warning: ignoring --queue-max {raw:?} (want a positive integer)"),
        }
    }
    if let Some(d) = ms_flag(&args, "--request-deadline-ms") {
        config.request_deadline = Some(d);
    }
    if let Some(d) = ms_flag(&args, "--io-timeout-ms") {
        config.io_timeout = Some(d);
    }

    // Flag-only SIGTERM/SIGINT handler, installed before serving so a
    // supervisor's early TERM still drains instead of hard-killing.
    bsg_server::install_term_flag();

    let mut handles: Vec<ServerHandle> = Vec::new();
    let unix_path = flag_value(&args, "--unix").map(std::path::PathBuf::from);
    let tcp_addr = flag_value(&args, "--tcp");
    // TCP is the default transport; --unix alone serves only the socket.
    let tcp_addr = match (tcp_addr, &unix_path) {
        (Some(addr), _) => Some(addr),
        (None, None) => Some("127.0.0.1:0"),
        (None, Some(_)) => None,
    };

    if let Some(addr) = tcp_addr {
        match Server::bind_tcp(addr, config.clone()) {
            Ok(handle) => {
                if let Some(local) = handle.local_addr() {
                    println!("listening on tcp://{local}");
                }
                handles.push(handle);
            }
            Err(e) => {
                eprintln!("bsg-server: failed to bind tcp {addr}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    #[cfg(unix)]
    if let Some(path) = &unix_path {
        match Server::bind_unix(path, config.clone()) {
            Ok(handle) => {
                println!("listening on unix://{}", path.display());
                handles.push(handle);
            }
            Err(e) => {
                eprintln!("bsg-server: failed to bind unix {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    #[cfg(not(unix))]
    if unix_path.is_some() {
        eprintln!("bsg-server: --unix is not supported on this platform");
        return ExitCode::FAILURE;
    }
    let _ = std::io::stdout().flush();

    // Serve until a drain is requested — by SIGTERM/SIGINT or by an
    // in-band Request::Shutdown on any transport.  An in-band request on
    // one transport drains all of them: a daemon asked to shut down
    // should go away entirely, not half-listen.  `ServerHandle`'s Drop
    // runs the same drain, so even a panic on this thread still removes
    // the socket files on unwind.
    loop {
        if bsg_server::term_requested() || handles.iter().any(|h| h.drain_requested()) {
            for handle in &handles {
                handle.request_drain();
            }
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    for handle in handles {
        handle.stop(); // graceful: answers the queue, removes sockets
    }
    ExitCode::SUCCESS
}
