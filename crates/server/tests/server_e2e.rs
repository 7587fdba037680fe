//! End-to-end daemon tests: concurrent clients against in-process servers
//! (each with its own counters, sharing the process-global artifact store
//! and scheduler), plus one test that spawns the real `bsg-server` binary
//! under `BSG_FAULT` chaos injection.

use bsg_compiler::{CompileOptions, OptLevel};
use bsg_runtime::BsgError;
use bsg_server::proto::{
    read_frame, write_frame, Frame, Request, Response, KIND_ERR, KIND_STATS, MAGIC, PROTO_VERSION,
};
use bsg_server::{
    load_program, run_phase, Client, ClientError, FrameError, Phase, Server, ServerConfig,
};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

fn start_tcp() -> (bsg_server::ServerHandle, String) {
    let handle = Server::bind_tcp("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let addr = handle.local_addr().expect("tcp addr").to_string();
    (handle, addr)
}

#[test]
fn concurrent_clients_get_consistent_replies_and_stats() {
    let (handle, addr) = start_tcp();
    const CLIENTS: usize = 8;
    const REQUESTS: usize = 3;
    let results: Vec<u64> = std::thread::scope(|s| {
        let mut joins = Vec::new();
        for _ in 0..CLIENTS {
            let addr = addr.clone();
            joins.push(s.spawn(move || {
                let mut client = Client::connect_tcp(&addr).expect("connect");
                let mut measured = 0u64;
                for _ in 0..REQUESTS {
                    let reply = client
                        .call(&Request::Measure {
                            program: load_program(5),
                            options: CompileOptions::portable(OptLevel::O1),
                        })
                        .expect("transport")
                        .expect("request");
                    match reply {
                        Response::Measure {
                            dynamic_instructions,
                        } => measured = dynamic_instructions,
                        other => panic!("wrong reply body: {other:?}"),
                    }
                }
                measured
            }));
        }
        joins.into_iter().map(|j| j.join().expect("join")).collect()
    });
    // Identical requests must produce identical measurements for every
    // client (they all share one store entry).
    assert!(results[0] > 0);
    assert!(results.iter().all(|&r| r == results[0]));

    let mut client = Client::connect_tcp(&addr).expect("connect");
    let reply = client
        .call(&Request::Stats)
        .expect("transport")
        .expect("request");
    match reply {
        Response::Stats(stats) => {
            assert!(stats.workers > 0);
            assert!(stats.requests_served > (CLIENTS * REQUESTS) as u64);
            assert_eq!(stats.protocol_errors, 0);
        }
        other => panic!("wrong reply body: {other:?}"),
    }
    handle.stop();
}

#[test]
fn served_figures_are_byte_identical_to_the_batch_renderer() {
    let (handle, addr) = start_tcp();
    let mut client = Client::connect_tcp(&addr).expect("connect");
    for name in ["table1", "fig02"] {
        let spec = bsg_bench::figure_spec(name).expect("registered figure");
        let (local, faults) = bsg_bench::render_figure(spec);
        assert_eq!(faults, Vec::new(), "{name} renders cleanly");
        let reply = client
            .call(&Request::Figure {
                name: name.to_string(),
            })
            .expect("transport")
            .expect("request");
        match reply {
            Response::Figure(text) => assert_eq!(
                text, local,
                "server-rendered {name} differs from the batch render"
            ),
            other => panic!("wrong reply body: {other:?}"),
        }
    }
    let unknown = client
        .call(&Request::Figure {
            name: "fig99".to_string(),
        })
        .expect("transport");
    assert!(
        matches!(unknown, Err(BsgError::InvalidRequest { .. })),
        "unknown figures must fail as InvalidRequest, got {unknown:?}"
    );
    handle.stop();
}

#[test]
fn garbage_and_half_frames_do_not_wedge_healthy_clients() {
    let (handle, addr) = start_tcp();

    // Client A: raw garbage.  The server replies with a structured error
    // frame (request id 0: the stream was never frame-aligned) and closes.
    let mut garbage = TcpStream::connect(&addr).expect("connect");
    // More than a header's worth of bytes, so the server's header read
    // completes and fails on the magic rather than blocking for more.
    garbage
        .write_all(b"GET / HTTP/1.1\r\nHost: example.invalid\r\n\r\n")
        .expect("write");
    garbage.flush().expect("flush");
    let reply = read_frame(&mut garbage)
        .expect("reply frame")
        .expect("some");
    assert_eq!(reply.kind, KIND_ERR);
    assert_eq!(reply.request_id, 0);
    // The connection is now closed; the next read sees EOF or a reset
    // (the server closed with unread garbage still in its receive
    // buffer, which surfaces as ECONNRESET on some stacks).
    assert!(matches!(
        read_frame(&mut garbage),
        Ok(None) | Err(FrameError::Io(_)) | Err(FrameError::Truncated)
    ));

    // Client B: half a valid frame, then hang up mid-frame.
    let mut bytes = Vec::new();
    let frame = Frame {
        request_id: 9,
        kind: 0,
        payload: vec![1, 2, 3, 4],
    };
    write_frame(&mut bytes, &frame).expect("encode");
    let mut half = TcpStream::connect(&addr).expect("connect");
    half.write_all(&bytes[..bytes.len() / 2]).expect("write");
    drop(half);

    // Client C: version skew is rejected with a structured reply.
    let mut skewed = Vec::new();
    skewed.extend_from_slice(&MAGIC);
    skewed.extend_from_slice(&(PROTO_VERSION + 1).to_le_bytes());
    skewed.extend_from_slice(&[0u8; 25]);
    let mut skew = TcpStream::connect(&addr).expect("connect");
    skew.write_all(&skewed).expect("write");
    skew.flush().expect("flush");
    let reply = read_frame(&mut skew).expect("reply frame").expect("some");
    assert_eq!(reply.kind, KIND_ERR);

    // A healthy client still gets served.
    let mut healthy = Client::connect_tcp(&addr).expect("connect");
    let reply = healthy
        .call(&Request::Measure {
            program: load_program(6),
            options: CompileOptions::portable(OptLevel::O0),
        })
        .expect("transport")
        .expect("request");
    assert!(matches!(reply, Response::Measure { .. }));

    // An unknown request kind gets an InvalidRequest reply and the
    // connection stays open for the next request.
    let mut mixed = TcpStream::connect(&addr).expect("connect");
    write_frame(
        &mut mixed,
        &Frame {
            request_id: 77,
            kind: 42,
            payload: Vec::new(),
        },
    )
    .expect("write");
    let reply = read_frame(&mut mixed).expect("reply frame").expect("some");
    assert_eq!((reply.kind, reply.request_id), (KIND_ERR, 77));
    let mut still_open = Client::over(mixed);
    let reply = still_open
        .call(&Request::Stats)
        .expect("transport")
        .expect("request");
    let stats = match reply {
        Response::Stats(stats) => stats,
        other => panic!("wrong reply body: {other:?}"),
    };
    // Garbage, truncation, version skew, unknown kind: >= 4 protocol
    // errors on this server instance (its counters are private to it, so
    // the count is not perturbed by other tests).
    assert!(
        stats.protocol_errors >= 4,
        "expected >= 4 protocol errors, got {}",
        stats.protocol_errors
    );
    handle.stop();
}

#[test]
fn oversized_frames_are_rejected_before_allocation() {
    let (handle, addr) = start_tcp();
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&MAGIC);
    bytes.extend_from_slice(&PROTO_VERSION.to_le_bytes());
    bytes.extend_from_slice(&1u64.to_le_bytes()); // request id
    bytes.push(0); // kind
    bytes.extend_from_slice(&u64::MAX.to_le_bytes()); // absurd length
    bytes.extend_from_slice(&0u64.to_le_bytes()); // checksum
    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream.write_all(&bytes).expect("write");
    stream.flush().expect("flush");
    let reply = read_frame(&mut stream).expect("reply frame").expect("some");
    assert_eq!(reply.kind, KIND_ERR);
    assert_eq!(read_frame(&mut stream), Ok(None));
    handle.stop();
}

#[cfg(unix)]
#[test]
fn unix_socket_roundtrip() {
    let path = std::env::temp_dir().join(format!("bsg-e2e-{}.sock", std::process::id()));
    let handle = Server::bind_unix(&path, ServerConfig::default()).expect("bind");
    let mut client = Client::connect_unix(&path).expect("connect");
    let reply = client
        .call(&Request::Measure {
            program: load_program(7),
            options: CompileOptions::portable(OptLevel::O0),
        })
        .expect("transport")
        .expect("request");
    assert!(matches!(reply, Response::Measure { .. }));
    handle.stop();
    assert!(!path.exists(), "stop() must remove the socket file");
}

#[test]
fn load_harness_runs_clean_against_a_warm_server() {
    let (handle, addr) = start_tcp();
    let report = run_phase(&addr, 8, 2, Phase::Warm);
    assert_eq!(report.transport_errors, 0);
    assert_eq!(report.failures, 0);
    assert_eq!(report.ok, 16);
    assert!(report.requests_per_sec > 0.0);
    assert!(report.p50_ms <= report.p95_ms && report.p95_ms <= report.p99_ms);
    handle.stop();
}

#[test]
fn a_phase_clock_covers_every_clients_requests() {
    let (handle, addr) = start_tcp();
    let nonce = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .expect("clock after the epoch")
        .as_nanos() as u64;
    // One request per client: each client's summed latency is its single
    // latency, and p99 over 8 samples is the largest of them.
    let report = run_phase(&addr, 8, 1, Phase::Cold { nonce });
    assert_eq!(report.transport_errors, 0);
    assert_eq!(report.ok + report.failures, 8);
    assert!(
        report.elapsed_secs * 1e3 >= report.p99_ms,
        "phase clock {:.3} ms is shorter than a client's requests ({:.3} ms)",
        report.elapsed_secs * 1e3,
        report.p99_ms
    );
    handle.stop();
}

#[test]
fn a_stopped_server_yields_structured_client_errors() {
    let (handle, addr) = start_tcp();
    handle.stop();
    // Connecting may fail outright or be refused; either way the client
    // sees a structured error, never a hang or panic.
    match Client::connect_tcp(&addr) {
        Err(_) => {}
        Ok(mut client) => {
            let result = client.call(&Request::Stats);
            assert!(matches!(
                result,
                Err(ClientError::ServerClosed) | Err(ClientError::Frame(FrameError::Io(_)))
            ));
        }
    }
}

/// Admission control with exact bookkeeping: hold every execution slot
/// with deadline-storm requests, burst past `queue_max`, and require the
/// client-observed `Overloaded` and `DeadlineExceeded` counts to equal the
/// server's `shed_count` and `preempted_count` *exactly* (this server
/// instance is private to the test, so no other traffic perturbs them).
#[test]
fn overload_sheds_are_counted_exactly_and_healthy_work_resumes() {
    use std::time::Duration;
    let config = ServerConfig {
        queue_max: 1,
        request_deadline: Some(Duration::from_millis(250)),
        io_timeout: None,
    };
    let handle = Server::bind_tcp("127.0.0.1:0", config).expect("bind");
    let addr = handle.local_addr().expect("tcp addr").to_string();

    const BURST: usize = 8;
    let mut observed_sheds = 0u64;
    let mut observed_preempted = 0u64;
    // One storm per execution slot holds it until its deadline preempts
    // it; the burst lands in that window and collides with queue_max = 1.
    // Timing can starve the window on a loaded machine, so retry the
    // round until a shed is observed — the exact-count assertion below
    // holds across rounds because both sides accumulate.
    for _round in 0..3 {
        let storms: Vec<_> = (0..bsg_runtime::Runtime::global().workers())
            .map(|_| {
                let storm_addr = addr.clone();
                std::thread::spawn(move || {
                    let mut client = Client::connect_tcp(&storm_addr).expect("connect");
                    client
                        .call(&Request::Measure {
                            program: bsg_server::storm_program(0x57),
                            options: CompileOptions::portable(OptLevel::O0),
                        })
                        .expect("storm transport")
                })
            })
            .collect();
        std::thread::sleep(Duration::from_millis(60)); // let them take the slots
        let round: Vec<Result<Response, BsgError>> = std::thread::scope(|s| {
            let mut joins = Vec::new();
            for i in 0..BURST {
                let addr = addr.clone();
                joins.push(s.spawn(move || {
                    let mut client = Client::connect_tcp(&addr).expect("connect");
                    client
                        .call(&Request::Measure {
                            program: load_program(0xB000 + i as u64),
                            options: CompileOptions::portable(OptLevel::O0),
                        })
                        .expect("burst transport")
                }));
            }
            joins.into_iter().map(|j| j.join().expect("join")).collect()
        });
        let storm_replies: Vec<_> = storms
            .into_iter()
            .map(|storm| storm.join().expect("storm join"))
            .collect();
        for reply in round.iter().chain(storm_replies.iter()) {
            match reply {
                Err(BsgError::Overloaded { queue_depth, limit }) => {
                    assert!(queue_depth >= limit, "shed below the limit: {reply:?}");
                    observed_sheds += 1;
                }
                Err(BsgError::DeadlineExceeded { .. }) => observed_preempted += 1,
                Ok(Response::Measure { .. }) => {}
                other => panic!("unexpected burst outcome: {other:?}"),
            }
        }
        if observed_sheds > 0 {
            break;
        }
    }
    assert!(
        observed_sheds > 0,
        "the burst never collided with queue_max"
    );

    // Healthy work resumes once the burst is over.
    let mut client = Client::connect_tcp(&addr).expect("connect");
    let reply = client
        .call(&Request::Measure {
            program: load_program(0xB100),
            options: CompileOptions::portable(OptLevel::O0),
        })
        .expect("transport")
        .expect("request");
    assert!(matches!(reply, Response::Measure { .. }));

    let stats = match client
        .call(&Request::Stats)
        .expect("transport")
        .expect("request")
    {
        Response::Stats(stats) => stats,
        other => panic!("wrong reply body: {other:?}"),
    };
    assert_eq!(stats.shed_count, observed_sheds, "shed bookkeeping drifted");
    assert_eq!(
        stats.preempted_count, observed_preempted,
        "preemption bookkeeping drifted"
    );
    assert_eq!(stats.queue_depth, 0, "queue must be empty at quiescence");
    assert!(stats.max_queue_depth >= 1, "the watermark never moved");
    assert!(
        stats.max_queue_depth <= 1 + 1, // queue_max, plus the in-flight dequeue race
        "watermark above the admission limit: {}",
        stats.max_queue_depth
    );
    handle.stop();
}

/// A quick request is answered while a deadline storm still runs on
/// another connection: each request runs on its own connection thread, so
/// it waits for a free execution slot, never for an unrelated request.
#[test]
fn a_quick_request_is_answered_while_a_storm_runs() {
    use std::time::{Duration, Instant};
    let workers = bsg_runtime::Runtime::global().workers();
    if workers < 2 {
        eprintln!("skipped: needs 2 execution slots, the runtime has {workers}");
        return;
    }
    let config = ServerConfig {
        request_deadline: Some(Duration::from_millis(400)),
        io_timeout: None,
        ..ServerConfig::default()
    };
    let handle = Server::bind_tcp("127.0.0.1:0", config).expect("bind");
    let addr = handle.local_addr().expect("tcp addr").to_string();

    let storm_addr = addr.clone();
    let storm = std::thread::spawn(move || {
        let mut client = Client::connect_tcp(&storm_addr).expect("connect");
        client
            .call(&Request::Measure {
                program: bsg_server::storm_program(0x5107),
                options: CompileOptions::portable(OptLevel::O0),
            })
            .expect("storm transport")
    });
    std::thread::sleep(Duration::from_millis(50));

    let t0 = Instant::now();
    let mut quick = Client::connect_tcp(&addr).expect("connect");
    let reply = quick
        .call(&Request::Measure {
            program: load_program(0x5108),
            options: CompileOptions::portable(OptLevel::O0),
        })
        .expect("quick transport");
    let elapsed = t0.elapsed();
    assert!(
        matches!(reply, Ok(Response::Measure { .. })),
        "quick request failed: {reply:?}"
    );
    assert!(
        elapsed < Duration::from_millis(200),
        "quick request waited {elapsed:?} behind the storm"
    );
    assert!(
        !storm.is_finished(),
        "the storm finished first; the quick request proved nothing"
    );

    let storm_reply = storm.join().expect("storm join");
    assert!(
        matches!(
            storm_reply,
            Ok(Response::Measure { .. }) | Err(BsgError::DeadlineExceeded { .. })
        ),
        "storm reply: {storm_reply:?}"
    );
    handle.stop();
}

/// Slow-loris defense: a client dripping one byte per 50 ms neither holds
/// an execution slot nor delays a concurrent healthy client, and a client
/// stalled outright mid-frame is killed by the io timeout (and counted as
/// a protocol error) instead of pinning its reader forever.
#[test]
fn slow_loris_writers_are_contained_and_stalls_are_killed() {
    use std::time::{Duration, Instant};
    let config = ServerConfig {
        io_timeout: Some(Duration::from_millis(300)),
        ..ServerConfig::default()
    };
    let handle = Server::bind_tcp("127.0.0.1:0", config).expect("bind");
    let addr = handle.local_addr().expect("tcp addr").to_string();

    // Loris A drips a valid Stats frame one byte per 50 ms — each byte
    // lands inside the io timeout, so the connection survives; it must
    // simply not interfere with anyone else.
    let drip_addr = addr.clone();
    let drip = std::thread::spawn(move || {
        let mut bytes = Vec::new();
        write_frame(
            &mut bytes,
            &Frame {
                request_id: 1,
                kind: KIND_STATS,
                payload: Vec::new(),
            },
        )
        .expect("encode");
        let mut stream = TcpStream::connect(&drip_addr).expect("connect");
        for chunk in bytes.chunks(1).take(20) {
            stream.write_all(chunk).expect("drip");
            std::thread::sleep(Duration::from_millis(50));
        }
        // Hang up mid-frame: one protocol error, nothing else.
    });

    // Loris B writes three bytes of magic and stalls outright.
    let mut stalled = TcpStream::connect(&addr).expect("connect");
    stalled.write_all(&MAGIC[..3]).expect("write");
    stalled.flush().expect("flush");

    // A healthy client served *while both lorises are mid-abuse* must
    // complete promptly — the lorises never even reach a slot.
    let t0 = Instant::now();
    let mut healthy = Client::connect_tcp(&addr).expect("connect");
    let reply = healthy
        .call(&Request::Measure {
            program: load_program(0x10F15),
            options: CompileOptions::portable(OptLevel::O1),
        })
        .expect("transport")
        .expect("request");
    assert!(matches!(reply, Response::Measure { .. }));
    assert!(
        t0.elapsed() < Duration::from_secs(20),
        "healthy client delayed by loris traffic: {:?}",
        t0.elapsed()
    );

    // The stalled connection is killed by the server's io timeout: we see
    // the structured error frame and/or EOF well before our own (much
    // longer) read patience expires.
    stalled
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("set timeout");
    let killed_at = Instant::now();
    let mut buf = [0u8; 256];
    loop {
        match stalled.read(&mut buf) {
            Ok(0) => break,
            Ok(_) => continue, // the err frame preceding the close
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                panic!("server never killed the stalled connection")
            }
            Err(_) => break, // reset also counts
        }
    }
    assert!(
        killed_at.elapsed() < Duration::from_secs(20),
        "stall kill took implausibly long"
    );

    drip.join().expect("drip join");
    // Both lorises end as counted protocol errors: the stall (mid-frame
    // timeout) and the drip's mid-frame hangup.  Poll briefly — the
    // drip's reader notices the hangup asynchronously.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = match healthy
            .call(&Request::Stats)
            .expect("transport")
            .expect("request")
        {
            Response::Stats(stats) => stats,
            other => panic!("wrong reply body: {other:?}"),
        };
        if stats.protocol_errors >= 2 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "loris abuse never surfaced as protocol errors: {}",
            stats.protocol_errors
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    handle.stop();
}

/// Graceful drain: an in-band shutdown is acknowledged immediately,
/// everything already admitted is still answered, new work is refused,
/// and the Unix socket file is gone after stop.
#[cfg(unix)]
#[test]
fn inband_shutdown_drains_queued_work_and_removes_the_socket() {
    use std::time::Duration;
    let path = std::env::temp_dir().join(format!("bsg-e2e-drain-{}.sock", std::process::id()));
    let config = ServerConfig {
        queue_max: 8,
        request_deadline: Some(Duration::from_millis(400)),
        io_timeout: None,
    };
    let handle = Server::bind_unix(&path, config).expect("bind");

    // Hold a slot with a storm and send a quick request next to it, so the
    // shutdown arrives while admitted work is still running.
    let storm_path = path.clone();
    let storm = std::thread::spawn(move || {
        let mut client = Client::connect_unix(&storm_path).expect("connect");
        client
            .call(&Request::Measure {
                program: bsg_server::storm_program(0xD1),
                options: CompileOptions::portable(OptLevel::O0),
            })
            .expect("storm transport")
    });
    std::thread::sleep(Duration::from_millis(50));
    let queued_path = path.clone();
    let queued = std::thread::spawn(move || {
        let mut client = Client::connect_unix(&queued_path).expect("connect");
        client
            .call(&Request::Measure {
                program: load_program(0xD2),
                options: CompileOptions::portable(OptLevel::O0),
            })
            .expect("queued transport")
    });
    std::thread::sleep(Duration::from_millis(50));

    // In-band shutdown: acked immediately, before the drain completes.
    let mut control = Client::connect_unix(&path).expect("connect");
    let ack = control
        .call(&Request::Shutdown)
        .expect("shutdown transport")
        .expect("shutdown request");
    assert!(matches!(ack, Response::Shutdown), "wrong ack body: {ack:?}");

    // Admitted work is still answered: the storm gets its (preempted or
    // completed) reply, and the queued request completes normally.
    let storm_reply = storm.join().expect("storm join");
    assert!(
        matches!(
            storm_reply,
            Ok(Response::Measure { .. }) | Err(BsgError::DeadlineExceeded { .. })
        ),
        "storm reply lost in the drain: {storm_reply:?}"
    );
    let queued_reply = queued.join().expect("queued join");
    assert!(
        matches!(queued_reply, Ok(Response::Measure { .. })),
        "queued request must be answered during the drain: {queued_reply:?}"
    );

    // New work is refused: the connect fails outright (accept loop gone)
    // or the request is turned away without being served.
    match Client::connect_unix(&path) {
        Err(_) => {}
        Ok(mut probe) => {
            let outcome = probe.call(&Request::Measure {
                program: load_program(0xD3),
                options: CompileOptions::portable(OptLevel::O0),
            });
            assert!(
                !matches!(outcome, Ok(Ok(_))),
                "server served new work after acknowledging shutdown: {outcome:?}"
            );
        }
    }

    handle.stop();
    assert!(!path.exists(), "drain must remove the socket file");
}

/// Spawns the real daemon binary under `BSG_FAULT=task-panic=chaos-target`
/// and proves the injected fault costs exactly the targeted request: the
/// poisoned profile fails with `TaskPanic`, while healthy requests before
/// and after it (on the same connection) succeed with identical replies.
#[test]
fn injected_task_panic_fails_exactly_the_targeted_request() {
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_bsg-server"))
        .arg("--tcp")
        .arg("127.0.0.1:0")
        .env("BSG_FAULT", "task-panic=chaos-target")
        .env(
            "BSG_ARTIFACT_DIR",
            std::env::temp_dir().join(format!("bsg-e2e-fault-{}", std::process::id())),
        )
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn bsg-server");
    let stdout = child.stdout.take().expect("stdout");
    let mut line = String::new();
    BufReader::new(stdout).read_line(&mut line).expect("banner");
    let addr = line
        .trim()
        .strip_prefix("listening on tcp://")
        .expect("listening banner")
        .to_string();

    let run = || {
        let mut client = Client::connect_tcp(&addr).expect("connect");
        let healthy_before = client
            .call(&Request::Measure {
                program: load_program(11),
                options: CompileOptions::portable(OptLevel::O1),
            })
            .expect("transport")
            .expect("healthy request");
        let poisoned = client
            .call(&Request::Profile {
                program: load_program(11),
                options: CompileOptions::portable(OptLevel::O0),
                name: "chaos-target".to_string(),
                config: bsg_profile::ProfileConfig::default(),
            })
            .expect("transport");
        match poisoned {
            Err(BsgError::TaskPanic { message }) => {
                assert!(message.contains("chaos"), "unexpected panic: {message}")
            }
            other => panic!("poisoned request must fail with TaskPanic, got {other:?}"),
        }
        let healthy_after = client
            .call(&Request::Measure {
                program: load_program(11),
                options: CompileOptions::portable(OptLevel::O1),
            })
            .expect("transport")
            .expect("healthy request");
        assert_eq!(
            healthy_before, healthy_after,
            "healthy replies must be identical around the injected fault"
        );
    };
    let result = std::panic::catch_unwind(run);
    let _ = child.kill();
    let _ = child.wait();
    if let Err(panic) = result {
        std::panic::resume_unwind(panic);
    }
}
