//! Batched-model-vs-oracle differential suite over real workloads.
//!
//! The batched multi-config model is the production timing model, and its
//! contract is **bit-parity** with the scalar oracle
//! [`PipelineSim`]: each lane of [`simulate_image_batch`] — and each
//! one-config [`simulate_image`] — must equal the oracle's result exactly,
//! for every workload in the registry, on both the fused image and the
//! unfused decode of the same program, across the full extended machine
//! roster plus Figure 10's three cache sizes (which exercises lane dedup,
//! shared L1/L2 state and the in-order model).  On top of raw lane parity,
//! Figure 11 text is byte-identical at any worker count, and the static
//! verifier is observer-agnostic — running an image under the batched model
//! changes nothing the reference/replay passes look at.  The report-wide
//! measurement plan, which shares one execution among every request on the
//! same binary, equals one solo run per request on that request's own
//! binary.
//!
//! Tier-1 covers the small-input half of the registry (18 workloads); the
//! tier-2 job (`BSG_LARGE_TESTS=1`) extends the same sweep to the large
//! inputs for the full 36-workload registry.

use bsg_bench::{
    observe, target_isa_for, Observation, Probe, Request, Unit, WorkloadArtifacts, FIG11, SWEEP_KB,
    SYNTH_TARGET_INSTRUCTIONS,
};
use bsg_compiler::{CompileOptions, OptLevel, TargetIsa};
use bsg_profile::MixObserver;
use bsg_runtime::{with_workers, ArtifactStore, CompiledArtifact, Runtime};
use bsg_synth::SynthesisConfig;
use bsg_uarch::batch::simulate_image_batch;
use bsg_uarch::branch::{Hybrid, PredictorObserver};
use bsg_uarch::cache::{CacheConfig, CacheObserver};
use bsg_uarch::exec::{execute_image, ExecConfig, NullObserver};
use bsg_uarch::image::ExecImage;
use bsg_uarch::machine::{MachineConfig, MachineIsa};
use bsg_uarch::pipeline::{simulate_image, PipelineConfig, PipelineResult, PipelineSim};
use bsg_uarch::verify::verify_image;
use bsg_workloads::{suite, InputSize, Workload};
use std::sync::Arc;

fn roster_configs() -> Vec<PipelineConfig> {
    MachineConfig::table3_extended()
        .iter()
        .map(|m| m.pipeline)
        .collect()
}

fn registry_workloads() -> Vec<Workload> {
    let mut workloads = suite(InputSize::Small);
    if std::env::var("BSG_LARGE_TESTS").map(|v| v == "1") == Ok(true) {
        workloads.extend(suite(InputSize::Large));
    } else {
        eprintln!("tier-1: batched differential over the small-input half (set BSG_LARGE_TESTS=1 for all 36)");
    }
    workloads
}

/// The scalar oracle's result for one config over `image`'s event stream.
fn oracle(image: &ExecImage, config: PipelineConfig) -> PipelineResult {
    let mut sim = PipelineSim::from_image(config, image);
    execute_image(image, &mut sim, &ExecConfig::default());
    sim.result()
}

/// Per-lane bit-equality with the oracle over the whole registry, through
/// the public entry points on the fused image and on the unfused decode.
#[test]
fn batched_lanes_equal_the_scalar_oracle_across_the_registry() {
    let configs: Vec<PipelineConfig> = roster_configs()
        .into_iter()
        .chain([8, 16, 32].map(PipelineConfig::ptlsim_2wide))
        .collect();
    for w in registry_workloads() {
        let art =
            ArtifactStore::global().compiled(&w.program, &CompileOptions::portable(OptLevel::O0));
        let expected: Vec<PipelineResult> =
            configs.iter().map(|c| oracle(&art.image, *c)).collect();
        let batched = simulate_image_batch(&art.image, &configs);
        let unfused = simulate_image_batch(&ExecImage::unfused(&art.program), &configs);
        assert_eq!(batched.len(), configs.len());
        assert_eq!(unfused.len(), configs.len());
        for (i, c) in configs.iter().enumerate() {
            let name = &w.name;
            assert_eq!(batched[i], expected[i], "{name}: lane {c:?} diverged");
            assert_eq!(
                unfused[i], expected[i],
                "{name}: unfused-image lane {c:?} diverged"
            );
            assert_eq!(
                simulate_image(&art.image, *c),
                expected[i],
                "{name}: one-lane {c:?} diverged"
            );
        }
    }
}

/// The verifier's reference/replay passes are observer-agnostic: an image that
/// verifies clean still verifies clean (with the identical report) after
/// being executed under the batched observer, which borrows it immutably
/// like every other observer run.
#[test]
fn verifier_accepts_images_executed_under_the_batched_observer() {
    let configs = roster_configs();
    let picks = ["crc32/small", "fft/small"];
    for w in suite(InputSize::Small)
        .into_iter()
        .filter(|w| picks.contains(&w.name.as_str()))
    {
        let art =
            ArtifactStore::global().compiled(&w.program, &CompileOptions::portable(OptLevel::O0));
        let reference = ExecImage::unfused(&art.program);
        let before = verify_image(&art.image, &reference)
            .unwrap_or_else(|e| panic!("{}: image must verify before simulation: {e}", w.name));
        let _ = simulate_image_batch(&art.image, &configs);
        let after = verify_image(&art.image, &reference).unwrap_or_else(|e| {
            panic!(
                "{}: image must verify after batched simulation: {e}",
                w.name
            )
        });
        assert_eq!(
            format!("{before:?}"),
            format!("{after:?}"),
            "{}: verify report changed across a batched run",
            w.name
        );
    }
}

/// Batched Figure 11 text is byte-identical at 1, 2 and 8 workers — the
/// figure-layer face of lane bit-parity.
#[test]
fn batched_fig11_text_is_deterministic_across_worker_counts() {
    let picks = ["adpcm/small", "bitcount/small", "crc32/small"];
    let artifacts: Vec<WorkloadArtifacts> = suite(InputSize::Small)
        .into_iter()
        .filter(|w| picks.contains(&w.name.as_str()))
        .map(|w| WorkloadArtifacts::try_prepare(w, 20_000).expect("workload prepares"))
        .collect();
    let reference = with_workers(1, || FIG11.try_render(&artifacts).expect("fig11 renders"));
    assert!(reference.contains("Itanium 2"), "figure covers the roster");
    for workers in [2usize, 8] {
        let text = with_workers(workers, || {
            FIG11.try_render(&artifacts).expect("fig11 renders")
        });
        assert_eq!(
            text, reference,
            "batched fig11 diverges at {workers} workers"
        );
    }
}

/// The solo reference for one request: `probe` alone on `image`, through
/// the probe's own observer (a one-config batch for a lane).
fn solo(image: &ExecImage, probe: Probe) -> Observation {
    let run = ExecConfig::default();
    match probe {
        Probe::Count => {
            Observation::Count(execute_image(image, &mut NullObserver, &run).dynamic_instructions)
        }
        Probe::Mix => {
            let mut obs = MixObserver::default();
            execute_image(image, &mut obs, &run);
            Observation::Mix(obs.mix())
        }
        Probe::Caches => {
            let mut obs = CacheObserver::new(SWEEP_KB.map(CacheConfig::kb));
            execute_image(image, &mut obs, &run);
            Observation::Caches(obs.sweep.results().into_iter().map(|(_, s)| s).collect())
        }
        Probe::Hybrid => {
            let mut obs = PredictorObserver::new(Hybrid::default_config());
            execute_image(image, &mut obs, &run);
            Observation::Hybrid(obs.stats)
        }
        Probe::Lane(config) => Observation::Lane(simulate_image_batch(image, &[config])[0]),
    }
}

/// The report-wide plan ([`observe`]) hands every request exactly what a
/// solo run of its one probe on its own binary produces, and runs one
/// execution per distinct compiled program.  The requests cover every
/// small-suite kernel (all 36 under `BSG_LARGE_TESTS=1`), its clone and the
/// consolidated clone: count, mix, cache sweep and predictor at every level
/// on x86, Figure 10's lanes at `-O0`, and every extended-roster machine at
/// every level on its own ISA (where `-O0` is one binary across ISAs and
/// `-O3` shares `-O2`'s, and the predictor is read from the lanes' batch).
#[test]
fn the_plan_equals_a_solo_run_per_request_with_one_execution_per_program() {
    let artifacts: Vec<WorkloadArtifacts> = registry_workloads()
        .into_iter()
        .map(|w| {
            WorkloadArtifacts::try_prepare(w, SYNTH_TARGET_INSTRUCTIONS).expect("workload prepares")
        })
        .collect();
    let merged = bsg_synth::consolidate(artifacts.iter().map(|a| a.profile.as_ref()));
    let consolidated = ArtifactStore::global().synthesis(
        &merged,
        &SynthesisConfig::default(),
        SYNTH_TARGET_INSTRUCTIONS * 2,
    );
    let units: Vec<Unit> = (0..artifacts.len())
        .flat_map(|i| [Unit::Original(i), Unit::Synthetic(i)])
        .chain([Unit::synthesized(consolidated)])
        .collect();
    let roster = MachineConfig::table3_extended();
    let mut requests = Vec::new();
    for unit in &units {
        for level in OptLevel::ALL {
            let x86 = CompileOptions::new(level, TargetIsa::X86);
            for probe in [Probe::Count, Probe::Mix, Probe::Caches, Probe::Hybrid] {
                requests.push(Request {
                    unit: unit.clone(),
                    options: x86,
                    probe,
                });
            }
            if level == OptLevel::O0 {
                for kb in [8, 16, 32] {
                    requests.push(Request {
                        unit: unit.clone(),
                        options: x86,
                        probe: Probe::Lane(PipelineConfig::ptlsim_2wide(kb)),
                    });
                }
            }
            if !matches!(unit, Unit::Synthetic(_)) {
                for m in &roster {
                    requests.push(Request {
                        unit: unit.clone(),
                        options: CompileOptions::new(level, target_isa_for(m.isa)),
                        probe: Probe::Lane(m.pipeline),
                    });
                }
            }
        }
    }
    let binary = |r: &Request| -> Arc<CompiledArtifact> {
        match &r.unit {
            Unit::Original(i) => artifacts[*i].compiled(&r.options, false),
            Unit::Synthetic(i) => artifacts[*i].compiled(&r.options, true),
            Unit::Synthesized(id, s) => {
                ArtifactStore::global().compiled_keyed(*id, &s.benchmark.hll, &r.options)
            }
        }
    };

    let observed = observe(&artifacts, &requests);
    let want = Runtime::current().map(requests.iter().collect(), |r| {
        solo(&binary(r).image, r.probe)
    });
    assert_eq!(observed.observations.len(), requests.len());
    for ((r, got), want) in requests.iter().zip(&observed.observations).zip(&want) {
        let got = got.as_ref().expect("no request faults");
        assert_eq!(
            got, want,
            "{:?} at {:?}: the plan diverges from a solo run",
            r.probe, r.options
        );
    }
    let mut distinct: Vec<Arc<CompiledArtifact>> = Vec::new();
    for r in &requests {
        let art = binary(r);
        if !distinct.iter().any(|d| d.program == art.program) {
            distinct.push(art);
        }
    }
    assert_eq!(
        observed.executions,
        distinct.len(),
        "one execution per distinct program"
    );
    for unit in &units {
        let at_o0 = |isa: MachineIsa| {
            binary(&Request {
                unit: unit.clone(),
                options: CompileOptions::new(OptLevel::O0, target_isa_for(isa)),
                probe: Probe::Count,
            })
        };
        let x86 = at_o0(MachineIsa::X86);
        for isa in [MachineIsa::X86_64, MachineIsa::Ia64] {
            assert!(
                at_o0(isa).program == x86.program,
                "-O0 lowers identically on {isa:?}, so Table III shares one binary"
            );
        }
    }
}
