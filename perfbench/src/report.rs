//! `report_cold` and `report_warm`: the full `all_experiments` report,
//! rendered by a fresh process per sample against an artifact directory
//! that is empty (cold) or primed by one untimed render (warm).

use crate::layers::{replay, timed, Sink};
use crate::metrics::{Outcome, SECTIONS};
use crate::procfs::{cpu_seconds, fnv64, peak_rss_mb, run_child};
use crate::serve::{
    mix_requests, profile_request, server_metrics, store_metrics, synthesize_request, timed_call,
};
use crate::stats::{summarize, Pick};
use bsg_bench::{try_prepare_suite, WorkloadArtifacts, ALL_EXPERIMENTS, SYNTH_TARGET_INSTRUCTIONS};
use bsg_compiler::{CompileOptions, OptLevel};
use bsg_runtime::{ArtifactStore, StoreStats};
use bsg_server::{Client, Request, Response, Server, ServerConfig};
use bsg_workloads::{InputSize, Workload, WorkloadRegistry};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Digest and length of the report this benchmark was defined against
/// (`fnv64` of the text, then its byte count), recorded from a clean render.
const REFERENCE: &str = include_str!("../report.digest");

/// Renders a run may stop after, at the least.
const MIN_RENDERS: usize = 3;

fn reference() -> (String, String) {
    let mut it = REFERENCE.split_whitespace();
    let digest = it.next().unwrap_or_default().to_string();
    (digest, it.next().unwrap_or_default().to_string())
}

/// Prepares the small suite; every workload must prepare.
fn prepare() -> Result<Vec<WorkloadArtifacts>, String> {
    try_prepare_suite(InputSize::Small, SYNTH_TARGET_INSTRUCTIONS)
        .into_iter()
        .map(|(name, r)| r.map_err(|e| format!("preparing {name}: {e}")))
        .collect()
}

fn store_lines(s: &StoreStats) {
    let builds = s.compiled_builds + s.profile_builds + s.c_text_builds + s.synthesis_builds;
    println!("builds {builds}");
    println!("disk_hits {}", s.disk.hits);
}

/// `main` of a plain render child: prepare, then `try_render_report`.
pub fn child_plain(started: Instant) -> Result<(), String> {
    let arts = prepare()?;
    let setup = started.elapsed().as_secs_f64();
    let (render, (report, faults)) = timed(bsg_bench::try_render_report);
    drop(arts);
    println!("setup_s {setup}");
    println!("report_s {render}");
    println!("cpu_s {}", cpu_seconds(None).ok_or("cpu")?);
    println!("rss_mb {}", peak_rss_mb(None).ok_or("rss")?);
    println!("digest {:016x}", fnv64(report.as_bytes()));
    println!("bytes {}", report.len());
    println!("faults {}", faults.len());
    store_lines(&ArtifactStore::global().stats());
    Ok(())
}

/// Collects replay output as `name value` lines on stdout.
struct Lines(usize);

impl Sink for Lines {
    fn emit(&mut self, name: &str, value: f64) {
        println!("{name} {value}");
    }
    fn fail(&mut self, why: String) {
        self.0 += 1;
        println!("fail.{} {why}", self.0);
    }
}

/// `main` of a traced child: the report's layers timed one call at a time,
/// then the per-layer replay.  `serve_seed` selects `serve_mix`'s requests
/// for the frame codec; without it the report's own requests are replayed
/// through a loopback server as well.
pub fn child_traced(scratch: &Path, serve_seed: Option<u64>) -> Result<(), String> {
    let mut sink = Lines(0);
    let (suite_build, _) = timed(|| {
        WorkloadRegistry::global()
            .specs()
            .iter()
            .map(|s| Workload::from_spec(s, InputSize::Small))
            .collect::<Vec<_>>()
    });
    sink.emit("workloads.suite_build_s", suite_build);
    let (prepare_s, arts) = timed(prepare);
    let arts = arts?;
    sink.emit("bench.prepare_s", prepare_s);
    let mut report = String::new();
    let mut rendered = 0.0;
    for (section, name) in ALL_EXPERIMENTS.iter().zip(SECTIONS) {
        let (secs, text) = timed(|| section.try_render(&arts));
        rendered += secs;
        match text {
            Ok(text) => {
                report.push_str(&text);
                report.push('\n');
            }
            Err(e) => sink.fail(format!("section: {e}")),
        }
        if let Some(name) = name {
            sink.emit(&format!("bench.section_s.{name}"), secs);
        }
    }
    sink.emit("trace.latency_ms", rendered * 1e3);
    if format!("{:016x}", fnv64(report.as_bytes())) != reference().0 {
        sink.fail("traced report differs from the reference".to_string());
    }
    store_metrics(
        &ArtifactStore::global().stats(),
        &StoreStats::default(),
        &mut sink,
    );

    let kernels: Vec<Workload> = arts.iter().map(|a| a.workload.clone()).collect();
    let profiles: Vec<_> = arts.iter().map(|a| a.profile.as_ref()).collect();
    let requests = match serve_seed {
        Some(seed) => mix_requests(seed, &kernels, &profiles, 256),
        None => arts
            .iter()
            .flat_map(|a| {
                [
                    profile_request(&a.workload),
                    synthesize_request(&a.profile),
                    Request::Measure {
                        program: a.workload.program.as_ref().clone(),
                        options: CompileOptions::portable(OptLevel::O1),
                    },
                ]
            })
            .collect(),
    };
    replay(&arts, &requests, scratch, &mut sink);
    if serve_seed.is_none() {
        loopback(&requests, &mut sink)?;
    }
    if sink.0 > 0 {
        return Err(format!("{} replay checks failed", sink.0));
    }
    Ok(())
}

/// The `server` layer on a report workload: the report's requests sent
/// through an in-process loopback server sharing this process's store.
/// Profile and Synthesize are store hits; Measure at -O1 builds.  The hits
/// go round four times.
fn loopback(requests: &[Request], sink: &mut dyn Sink) -> Result<(), String> {
    let handle = Server::bind_tcp("127.0.0.1:0", ServerConfig::default())
        .map_err(|e| format!("loopback bind: {e}"))?;
    let addr = handle.local_addr().ok_or("loopback address")?.to_string();
    let mut client = Client::connect_tcp(&addr).map_err(|e| format!("loopback connect: {e}"))?;
    let before = handle.stats();
    let (mut hit, mut build, mut reply_bytes) = (Vec::new(), Vec::new(), 0u64);
    for round in 0..4 {
        for request in requests {
            let is_build = matches!(request, Request::Measure { .. });
            if is_build && round > 0 {
                continue;
            }
            let (ms, reply) = timed_call(&mut client, request);
            match reply {
                Ok(
                    r @ (Response::Profile(_) | Response::Synthesis(_) | Response::Measure { .. }),
                ) => {
                    reply_bytes += bsg_ir::codec::to_canon_bytes(&r).len() as u64;
                }
                Ok(_) => sink.fail("loopback: wrong reply kind".to_string()),
                Err(e) => sink.fail(format!("loopback: {e}")),
            }
            if is_build { &mut build } else { &mut hit }.push(ms);
        }
    }
    let after = handle.stats();
    handle.stop();
    server_metrics(&before, &after, &hit, &build, reply_bytes, sink);
    Ok(())
}

/// Runs a traced child on `dir` and merges what it prints into `out`,
/// keeping any metric `out` already holds.
pub fn traced_child(dir: &Path, scratch: &Path, serve_seed: Option<u64>, out: &mut Outcome) {
    let seed_arg = serve_seed.map(|s| s.to_string());
    let mut args = vec!["child-traced", "--scratch", scratch.to_str().unwrap_or(".")];
    if let Some(seed) = &seed_arg {
        args.extend(["--serve-seed", seed.as_str()]);
    }
    let Some(lines) = run_child(&args, dir) else {
        out.fail("traced child failed".to_string());
        return;
    };
    for (key, value) in lines {
        if key.starts_with("fail.") {
            out.fail(value);
        } else if out.get(&key).is_none() {
            match value.parse::<f64>() {
                Ok(v) => out.set(&key, v),
                Err(_) => out.fail(format!("{key}: unparsable {value:?}")),
            }
        }
    }
}

/// One plain render child on `dir`, checked; its samples on success.
fn plain_child(dir: &Path, cold: bool, out: &mut Outcome) -> Option<BTreeMap<String, String>> {
    out.attempted += 1;
    let Some(r) = run_child(&["child-plain"], dir) else {
        out.fail("render child failed".to_string());
        return None;
    };
    let (digest, bytes) = reference();
    let field = |k: &str| r.get(k).map(String::as_str).unwrap_or("?");
    let mut problems = Vec::new();
    if field("digest") != digest || field("bytes") != bytes {
        problems.push(format!(
            "report digest {} ({} bytes), reference {digest} ({bytes} bytes)",
            field("digest"),
            field("bytes")
        ));
    }
    if field("faults") != "0" {
        problems.push(format!("{} report faults", field("faults")));
    }
    if cold && field("disk_hits") != "0" {
        problems.push(format!(
            "cold render hit the disk {} times",
            field("disk_hits")
        ));
    }
    if !cold && field("builds") != "0" {
        problems.push(format!("warm render built {} artifacts", field("builds")));
    }
    if problems.is_empty() {
        Some(r)
    } else {
        out.fail(problems.join("; "));
        None
    }
}

/// Runs `report_cold` or `report_warm` for `seconds`.
pub fn run(cold: bool, seconds: f64, trace: bool, work: &Path, out: &mut Outcome) {
    let warm_dir = work.join("warm");
    if !cold {
        // The untimed priming render; as a cold render it is checked too,
        // and every warm render must then match it (and the reference).
        if plain_child(&warm_dir, true, out).is_none() {
            return;
        }
        out.attempted -= 1;
    }
    let dir_for = |k: usize| {
        if cold {
            work.join(format!("cold-{k}"))
        } else {
            warm_dir.clone()
        }
    };
    let started = Instant::now();
    let mut samples: Vec<BTreeMap<String, String>> = Vec::new();
    for k in 0.. {
        let dir = dir_for(k);
        let (secs, r) = timed(|| plain_child(&dir, cold, out));
        if cold {
            let _ = std::fs::remove_dir_all(&dir);
        }
        samples.extend(r.map(|mut r| {
            r.insert("ops_per_s".to_string(), (1.0 / secs).to_string());
            r
        }));
        let enough = trace || (k + 1 >= MIN_RENDERS && started.elapsed().as_secs_f64() >= seconds);
        if enough || out.failed > 0 {
            break;
        }
    }
    let series = |key: &str, scale: f64| -> Vec<f64> {
        samples
            .iter()
            .filter_map(|s| s.get(key)?.parse::<f64>().ok())
            .map(|v| v * scale)
            .collect()
    };
    if trace {
        let plain_ms = series("report_s", 1e3).first().copied().unwrap_or(f64::NAN);
        let dir = dir_for(1);
        traced_child(&dir, work, None, out);
        let traced_ms = out.get("trace.latency_ms").unwrap_or(f64::NAN);
        out.set(
            "trace.overhead_pct",
            (traced_ms - plain_ms) / plain_ms * 100.0,
        );
        return;
    }
    // Best of the run's renders (set-up: their median): see "Why best-of"
    // in README.md.
    out.set_summary("setup_s", Pick::Median, summarize(&series("setup_s", 1.0)));
    out.set_summary("latency_ms", Pick::Min, summarize(&series("report_s", 1e3)));
    out.set_summary("ops_per_s", Pick::Max, summarize(&series("ops_per_s", 1.0)));
    out.set_summary("cpu_ms_per_op", Pick::Min, summarize(&series("cpu_s", 1e3)));
    out.set_summary(
        "peak_rss_mb",
        Pick::Median,
        summarize(&series("rss_mb", 1.0)),
    );
}
