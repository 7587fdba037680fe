//! The per-layer replay of a traced run: each layer's public functions are
//! called from here, on the workload's own prepared artifacts, and timed
//! around the call.  Nothing inside the program is instrumented.
//!
//! Every replay set is fixed by the suite (and, for `serve_mix`, by the
//! seed), so a later change to one layer moves that layer's numbers only.
//! Each replay runs [`PASSES`] times and reports its fastest pass.

use bsg_bench::{target_isa_for, WorkloadArtifacts, SYNTH_TARGET_INSTRUCTIONS};
use bsg_compiler::{compile, CompileOptions, OptLevel, TargetIsa};
use bsg_ir::codec::{from_canon_bytes, to_canon_bytes};
use bsg_ir::Program;
use bsg_profile::{profile_image, ProfileConfig, StatisticalProfile};
use bsg_runtime::{ArtifactStore, DiskCache, SourceId};
use bsg_server::{read_frame, write_frame, Frame, Request};
use bsg_synth::{consolidate, synthesize_with_target, SynthesisConfig, TargetedSynthesis};
use bsg_uarch::branch::{Hybrid, PredictorObserver};
use bsg_uarch::cache::{CacheConfig, CacheObserver};
use bsg_uarch::exec::{execute_image, ExecConfig, NullObserver};
use bsg_uarch::image::ExecImage;
use bsg_uarch::machine::{MachineConfig, MachineIsa};
use bsg_uarch::pipeline::{simulate_image, PipelineConfig};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Seconds `f` takes, and its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let start = Instant::now();
    let r = black_box(f());
    (start.elapsed().as_secs_f64(), r)
}

/// Passes each replay makes; it reports the fastest.
const PASSES: usize = 3;

/// Runs `f` [`PASSES`] times: the fastest pass's seconds, and the last
/// result.
fn best<R>(mut f: impl FnMut() -> R) -> (f64, R) {
    let (mut secs, mut r) = timed(&mut f);
    for _ in 1..PASSES {
        let (s, again) = timed(&mut f);
        secs = secs.min(s);
        r = again;
    }
    (secs, r)
}

/// Where replay results go: `(metric name, value)`, or a failed check.
pub trait Sink {
    /// Records one metric.
    fn emit(&mut self, name: &str, value: f64);
    /// Records a failed check.
    fn fail(&mut self, why: String);
}

impl Sink for crate::metrics::Outcome {
    fn emit(&mut self, name: &str, value: f64) {
        self.set(name, value);
    }
    fn fail(&mut self, why: String) {
        crate::metrics::Outcome::fail(self, why);
    }
}

/// `uarch`: predecode, the functional engine under each observer, and the
/// scalar and batched timing models, on every kernel compiled at -O0 for
/// x86 (the report's main configuration).
fn uarch(arts: &[WorkloadArtifacts], sink: &mut dyn Sink) {
    let x86 = CompileOptions::new(OptLevel::O0, TargetIsa::X86);
    let compiled: Vec<_> = arts.iter().map(|a| a.compiled(&x86, false)).collect();
    let run = ExecConfig::default();

    let (decode, _) = best(|| {
        for c in &compiled {
            black_box(ExecImage::new(&c.program));
        }
    });
    sink.emit("uarch.decode_s", decode);

    let (null, insts) = best(|| {
        compiled
            .iter()
            .map(|c| execute_image(&c.image, &mut NullObserver, &run).dynamic_instructions)
            .sum::<u64>()
    });
    let per_inst = |secs: f64, n: u64| secs * 1e9 / n.max(1) as f64;
    sink.emit("uarch.insts", insts as f64);
    sink.emit("uarch.null_ns_per_inst", per_inst(null, insts));

    let (cache, _) = best(|| {
        for c in &compiled {
            let mut obs = CacheObserver::new([1u64, 2, 4, 8, 16, 32].map(CacheConfig::kb));
            execute_image(&c.image, &mut obs, &run);
            black_box(obs.sweep.results());
        }
    });
    sink.emit("uarch.cache_ns_per_inst", per_inst(cache, insts));

    let (predictor, _) = best(|| {
        for c in &compiled {
            let mut obs = PredictorObserver::new(Hybrid::default_config());
            execute_image(&c.image, &mut obs, &run);
            black_box(obs.stats.accuracy());
        }
    });
    sink.emit("uarch.predictor_ns_per_inst", per_inst(predictor, insts));

    // Figure 10's three cache sizes, one scalar simulation each.
    let (pipeline, timed_insts) = best(|| {
        let mut n = 0;
        for c in &compiled {
            for kb in [8, 16, 32] {
                n += simulate_image(&c.image, PipelineConfig::ptlsim_2wide(kb)).instructions;
            }
        }
        n
    });
    sink.emit(
        "uarch.pipeline_ns_per_inst",
        per_inst(pipeline, timed_insts),
    );

    // Figure 11's machine-axis sweep: Table III grouped by ISA, one batched
    // simulation per (kernel, ISA); ns per executed instruction.
    let machines = MachineConfig::table3();
    let mut isas: Vec<MachineIsa> = Vec::new();
    for m in &machines {
        if !isas.contains(&m.isa) {
            isas.push(m.isa);
        }
    }
    let (mut batch, mut executed) = (0.0, 0u64);
    for isa in isas {
        let options = CompileOptions::new(OptLevel::O0, target_isa_for(isa));
        let configs: Vec<PipelineConfig> = machines
            .iter()
            .filter(|m| m.isa == isa)
            .map(|m| m.pipeline)
            .collect();
        for a in arts {
            let image = &a.compiled(&options, false).image;
            let (secs, results) = best(|| bsg_uarch::batch::simulate_image_batch(image, &configs));
            batch += secs;
            executed += results.first().map_or(0, |r| r.instructions);
        }
    }
    sink.emit("uarch.batch_ns_per_inst", per_inst(batch, executed));
}

/// `similarity`: Moss and JPlag, each on every (original, clone) C pair.
fn similarity(arts: &[WorkloadArtifacts], sink: &mut dyn Sink) {
    let pairs: Vec<(std::sync::Arc<String>, &str)> = arts
        .iter()
        .map(|a| {
            (
                ArtifactStore::global().c_text(&a.workload.program),
                a.synthesis.benchmark.c_source.as_str(),
            )
        })
        .collect();
    let (moss, _) = best(|| {
        for (o, s) in &pairs {
            black_box(bsg_similarity::moss_similarity(o, s));
        }
    });
    let (jplag, _) = best(|| {
        for (o, s) in &pairs {
            black_box(bsg_similarity::jplag_similarity(o, s));
        }
    });
    let tokens: usize = pairs
        .iter()
        .map(|(o, s)| bsg_similarity::tokenize(o).len() + bsg_similarity::tokenize(s).len())
        .sum();
    sink.emit("similarity.moss_s", moss);
    sink.emit("similarity.jplag_s", jplag);
    sink.emit("similarity.tokens", tokens as f64);
}

/// `compiler`, `profile` and `synth`: every kernel compiled at each level
/// for x86, profiled at -O0, and re-synthesized; then the whole suite
/// consolidated.  The re-synthesized clones must match the prepared ones.
fn build_layers(arts: &[WorkloadArtifacts], sink: &mut dyn Sink) {
    let (compile_s, compiles) = best(|| {
        let mut n = 0;
        for a in arts {
            for level in OptLevel::ALL {
                let options = CompileOptions::new(level, TargetIsa::X86);
                if compile(&a.workload.program, &options).is_ok() {
                    n += 1;
                }
            }
        }
        n
    });
    if compiles != arts.len() * OptLevel::ALL.len() {
        sink.fail(format!("compiler replay: {compiles} compiles succeeded"));
    }
    sink.emit("compiler.compile_s", compile_s);

    let portable = CompileOptions::portable(OptLevel::O0);
    let (mut profile_s, mut profiled) = (0.0, 0u64);
    for a in arts {
        let c = a.compiled(&portable, false);
        let (secs, p) = best(|| {
            profile_image(
                &c.program,
                &c.image,
                &a.workload.name,
                &ProfileConfig::default(),
            )
        });
        if p != *a.profile {
            sink.fail(format!("profile replay of {} differs", a.workload.name));
        }
        profile_s += secs;
        profiled += p.dynamic_instructions;
    }
    sink.emit(
        "profile.ns_per_inst",
        profile_s * 1e9 / profiled.max(1) as f64,
    );

    let (synth_s, clones) = best(|| {
        arts.iter()
            .map(|a| {
                synthesize_with_target(
                    &a.profile,
                    &SynthesisConfig::default(),
                    SYNTH_TARGET_INSTRUCTIONS,
                )
            })
            .collect::<Vec<_>>()
    });
    for (a, s) in arts.iter().zip(&clones) {
        if *s != *a.synthesis {
            sink.fail(format!("synthesis replay of {} differs", a.workload.name));
        }
    }
    let clone_insts: u64 = clones.iter().map(|s| s.synthetic_instructions).sum();
    sink.emit("synth.synthesize_s", synth_s);
    sink.emit("synth.clone_insts", clone_insts as f64);
    let (consolidate_s, _) = best(|| consolidate(arts.iter().map(|a| a.profile.as_ref())));
    sink.emit("synth.consolidate_s", consolidate_s);
}

/// `ir` and `runtime.disk`: C emission of every original and clone, and
/// the canonical codec and the disk tier on the artifacts the store moves
/// (profile, synthesis and -O0 compiled program per kernel).
fn ir_and_disk(arts: &[WorkloadArtifacts], scratch: &Path, sink: &mut dyn Sink) {
    let (emit_s, _) = best(|| {
        for a in arts {
            black_box(bsg_ir::cemit::emit_c(&a.workload.program));
            black_box(bsg_ir::cemit::emit_c(&a.synthesis.benchmark.hll));
        }
    });
    sink.emit("ir.emit_c_s", emit_s);

    let portable = CompileOptions::portable(OptLevel::O0);
    let programs: Vec<_> = arts.iter().map(|a| a.compiled(&portable, false)).collect();
    let (encode_s, payloads) = best(|| {
        arts.iter()
            .zip(&programs)
            .map(|(a, c)| {
                [
                    to_canon_bytes(a.profile.as_ref()),
                    to_canon_bytes(a.synthesis.as_ref()),
                    to_canon_bytes(&c.program),
                ]
            })
            .collect::<Vec<_>>()
    });
    let (decode_s, decoded) = best(|| {
        payloads
            .iter()
            .map(|[p, s, c]| {
                (
                    from_canon_bytes::<StatisticalProfile>(p),
                    from_canon_bytes::<TargetedSynthesis>(s),
                    from_canon_bytes::<Program>(c),
                )
            })
            .collect::<Vec<_>>()
    });
    for ((a, c), (p, s, prog)) in arts.iter().zip(&programs).zip(&decoded) {
        if p.as_ref() != Some(a.profile.as_ref())
            || s.as_ref() != Some(a.synthesis.as_ref())
            || prog.as_ref() != Some(&c.program)
        {
            sink.fail(format!("canon round trip of {} differs", a.workload.name));
        }
    }
    sink.emit("ir.encode_s", encode_s);
    sink.emit("ir.decode_s", decode_s);
    let bytes: usize = payloads.iter().flatten().map(Vec::len).sum();
    sink.emit("ir.canon_bytes", bytes as f64);

    let disk = DiskCache::with_cap(scratch.join("disk-replay"), None);
    let kinds = ["profile", "synthesis", "compiled"];
    let entries: Vec<(&str, u128, &Vec<u8>)> = payloads
        .iter()
        .flat_map(|row| {
            kinds
                .iter()
                .zip(row)
                .map(|(k, p)| (*k, SourceId::of(p.as_slice()).as_u128(), p))
        })
        .collect();
    let (store_s, _) = best(|| {
        for (kind, key, payload) in &entries {
            disk.store(kind, *key, payload);
        }
    });
    let (load_s, loaded) = best(|| {
        entries
            .iter()
            .filter(|(kind, key, payload)| disk.load(kind, *key).as_ref() == Some(*payload))
            .count()
    });
    if loaded != entries.len() {
        sink.fail(format!("disk replay loaded {loaded} of {}", entries.len()));
    }
    sink.emit("runtime.disk.store_s", store_s);
    sink.emit("runtime.disk.load_s", load_s);
    let _ = std::fs::remove_dir_all(scratch.join("disk-replay"));
}

/// `server` frame codec: `Request::payload` + `write_frame` to encode and
/// `read_frame` + `Request::decode` to decode, per request of `requests`.
fn frame_codec(requests: &[Request], sink: &mut dyn Sink) {
    let (encode_s, wire) = best(|| {
        requests
            .iter()
            .enumerate()
            .map(|(i, r)| {
                let mut bytes = Vec::new();
                let frame = Frame {
                    request_id: i as u64 + 1,
                    kind: r.kind(),
                    payload: r.payload(),
                };
                write_frame(&mut bytes, &frame).map(|()| bytes)
            })
            .collect::<Vec<_>>()
    });
    let (decode_s, decoded) = best(|| {
        wire.iter()
            .map(|bytes| {
                let bytes = bytes.as_ref().ok()?;
                let frame = read_frame(&mut bytes.as_slice()).ok()??;
                Request::decode(frame.kind, &frame.payload)
            })
            .collect::<Vec<_>>()
    });
    let intact = decoded
        .iter()
        .zip(requests)
        .filter(|(d, r)| d.as_ref() == Some(*r))
        .count();
    if intact != requests.len() {
        sink.fail(format!(
            "frame round trip: {intact} of {} intact",
            requests.len()
        ));
    }
    let n = requests.len().max(1) as f64;
    sink.emit("server.frame_encode_us", encode_s * 1e6 / n);
    sink.emit("server.frame_decode_us", decode_s * 1e6 / n);
}

/// Runs every layer replay on `arts`; `requests` are the workload's own
/// requests for the frame codec, and `scratch` a directory the disk replay
/// may use.
pub fn replay(
    arts: &[WorkloadArtifacts],
    requests: &[Request],
    scratch: &Path,
    sink: &mut dyn Sink,
) {
    uarch(arts, sink);
    similarity(arts, sink);
    build_layers(arts, sink);
    ir_and_disk(arts, scratch, sink);
    frame_codec(requests, sink);
}
