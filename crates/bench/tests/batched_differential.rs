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
//! changes nothing the reference/replay passes look at.  Figure 11's
//! (level, machine) grid, which shares one execution among every cell
//! running the same binary, equals one run per cell on that cell's own
//! binary.
//!
//! Tier-1 covers the small-input half of the registry (18 workloads); the
//! tier-2 job (`BSG_LARGE_TESTS=1`) extends the same sweep to the large
//! inputs for the full 36-workload registry.

use bsg_bench::{
    binary_groups, fig11, machine_axis_times, target_isa_for, WorkloadArtifacts,
    SYNTH_TARGET_INSTRUCTIONS,
};
use bsg_compiler::{CompileOptions, OptLevel};
use bsg_runtime::{with_workers, ArtifactStore, CompiledArtifact, SourceId};
use bsg_synth::SynthesisConfig;
use bsg_uarch::batch::simulate_image_batch;
use bsg_uarch::exec::{execute_image, ExecConfig};
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
        .map(|w| WorkloadArtifacts::prepare(w, 20_000))
        .collect();
    let reference = with_workers(1, || fig11(&artifacts));
    assert!(reference.contains("Itanium 2"), "figure covers the roster");
    for workers in [2usize, 8] {
        let text = with_workers(workers, || fig11(&artifacts));
        assert_eq!(
            text, reference,
            "batched fig11 diverges at {workers} workers"
        );
    }
}

/// The grouped (level, machine) grid equals one [`MachineConfig::run_image`]
/// per cell on that cell's own binary, bit for bit, for every small-suite
/// kernel and the consolidated clone over the extended roster; the grouping
/// is maximal (one group per distinct program among the unit's (level, ISA)
/// compilations); and Table III at `-O0` runs a single binary for every
/// unit.
#[test]
fn grouped_machine_axis_equals_one_run_per_machine() {
    let artifacts: Vec<WorkloadArtifacts> = suite(InputSize::Small)
        .into_iter()
        .map(|w| WorkloadArtifacts::prepare(w, SYNTH_TARGET_INSTRUCTIONS))
        .collect();
    let merged = bsg_synth::consolidate(artifacts.iter().map(|a| a.profile.as_ref()));
    let consolidated = ArtifactStore::global().synthesis(
        &merged,
        &SynthesisConfig::default(),
        SYNTH_TARGET_INSTRUCTIONS * 2,
    );
    let consolidated_id = SourceId::of(&consolidated.benchmark.hll);
    let table3 = MachineConfig::table3();
    let extended = MachineConfig::table3_extended();
    let cells: Vec<(OptLevel, &MachineConfig)> = OptLevel::ALL
        .iter()
        .flat_map(|&level| extended.iter().map(move |m| (level, m)))
        .collect();
    let table3_o0: Vec<(OptLevel, &MachineConfig)> =
        table3.iter().map(|m| (OptLevel::O0, m)).collect();
    let units = artifacts.iter().map(Some).chain(std::iter::once(None));
    for unit in units {
        let name = unit.map_or("consolidated clone", |a| a.workload.name.as_str());
        let compiled_for = |level: OptLevel, isa: MachineIsa| -> Arc<CompiledArtifact> {
            let options = CompileOptions::new(level, target_isa_for(isa));
            match unit {
                Some(a) => a.compiled(&options, false),
                None => ArtifactStore::global().compiled_keyed(
                    consolidated_id,
                    &consolidated.benchmark.hll,
                    &options,
                ),
            }
        };
        let grouped = machine_axis_times(&cells, &compiled_for);
        assert_eq!(grouped.len(), cells.len());
        for (&(level, m), t) in cells.iter().zip(&grouped) {
            let alone = m.run_image(&compiled_for(level, m.isa).image).time_ns;
            assert_eq!(
                t.to_bits(),
                alone.to_bits(),
                "{name} {level} on {}: grouped {t} vs alone {alone}",
                m.name
            );
        }
        let mut distinct: Vec<Arc<CompiledArtifact>> = Vec::new();
        for &(level, m) in &cells {
            let art = compiled_for(level, m.isa);
            if !distinct.iter().any(|d| d.program == art.program) {
                distinct.push(art);
            }
        }
        assert_eq!(
            binary_groups(&cells, &compiled_for).len(),
            distinct.len(),
            "{name}: one group per distinct binary"
        );
        assert_eq!(
            binary_groups(&table3_o0, &compiled_for).len(),
            1,
            "{name}: Table III at -O0 runs one binary"
        );
    }
}
