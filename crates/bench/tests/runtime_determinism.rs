//! Scheduler determinism, registry stability and store correctness at the
//! harness level.
//!
//! The work-stealing scheduler interleaves task *execution* differently at
//! every worker count, but results are keyed by submission index, so
//! everything the harness emits must be bit-identical at any parallelism.
//! These tests pin that down on real figure text — including against golden
//! outputs captured from the **pre-registry, pre-Experiment harness**, so
//! the declarative pipeline refactor is proven to change zero bytes for the
//! paper's original 13 kernels — and prove the artifact store serves
//! artifacts bit-identical to cold builds.
//!
//! CI runs this suite twice — with the default test parallelism and with
//! `--test-threads=1` — to catch scheduler-order flakiness that only shows
//! up under one threading regime.  The full-report golden comparison runs
//! under `BSG_LARGE_TESTS=1` (the tier-2 job); the 3-kernel subset golden
//! runs everywhere.

use bsg_bench::{
    render_report, render_sections, try_prepare_suite, Measure, Observation, Probe, Request,
    Section, Unit, WorkloadArtifacts, ALL_EXPERIMENTS, FIG05, FIG06_O0, FIG09, FIG10,
    SYNTH_TARGET_INSTRUCTIONS,
};
use bsg_compiler::{compile, CompileOptions, OptLevel, TargetIsa};
use bsg_runtime::{with_workers, ArtifactStore, BsgError, Runtime};
use bsg_uarch::cache::CacheConfig;
use bsg_uarch::pipeline::PipelineConfig;
use bsg_workloads::{suite, InputSize, WorkloadRegistry};

/// A small but non-trivial artifact set: three workloads with distinct cost
/// profiles, enough for steals to actually happen at 2 and 8 workers.
fn small_artifact_set() -> Vec<WorkloadArtifacts> {
    let picks = ["adpcm/small", "bitcount/small", "crc32/small"];
    suite(InputSize::Small)
        .into_iter()
        .filter(|w| picks.contains(&w.name.as_str()))
        .map(|w| WorkloadArtifacts::try_prepare(w, 20_000).expect("workload prepares"))
        .collect()
}

/// Renders the figure subset captured in `tests/golden/figures_subset.txt`,
/// its four sections sharing one measurement plan.
fn render_subset(artifacts: &[WorkloadArtifacts]) -> String {
    render_sections(&[FIG05, FIG06_O0, FIG09, FIG10], artifacts)
        .into_iter()
        .map(|text| text.expect("subset sections render"))
        .collect()
}

#[test]
fn runtime_results_keep_submission_order_at_1_2_and_8_workers() {
    let expected: Vec<u64> = (0..61).map(|i| i * 31 % 17).collect();
    for workers in [1usize, 2, 8] {
        let got = Runtime::new(workers).map((0..61).collect(), |i: u64| i * 31 % 17);
        assert_eq!(got, expected, "workers = {workers}");
    }
}

#[test]
fn registry_iteration_order_is_stable_and_keeps_the_legacy_prefix() {
    let reg = WorkloadRegistry::global();
    let names: Vec<&str> = reg.specs().iter().map(|s| s.kernel).collect();
    // The paper's original 13, in their pre-registry order: every figure row
    // and the golden outputs depend on this prefix never moving.
    assert_eq!(
        &names[..13],
        &[
            "adpcm",
            "basicmath",
            "bitcount",
            "crc32",
            "dijkstra",
            "fft",
            "gsm",
            "jpeg",
            "patricia",
            "qsort",
            "sha",
            "stringsearch",
            "susan",
        ],
        "legacy MiBench prefix must stay byte-stable"
    );
    // Iteration order is identical on every call and across input sizes.
    let small: Vec<String> = suite(InputSize::Small)
        .iter()
        .map(|w| w.name.clone())
        .collect();
    let again: Vec<String> = suite(InputSize::Small)
        .iter()
        .map(|w| w.name.clone())
        .collect();
    assert_eq!(small, again);
    let large: Vec<String> = suite(InputSize::Large)
        .iter()
        .map(|w| w.name.clone())
        .collect();
    assert_eq!(
        small
            .iter()
            .map(|n| n.trim_end_matches("/small"))
            .collect::<Vec<_>>(),
        large
            .iter()
            .map(|n| n.trim_end_matches("/large"))
            .collect::<Vec<_>>()
    );
    // The legacy subset the golden files were captured with is recoverable.
    assert_eq!(reg.legacy_suite(InputSize::Small).len(), 13);
}

#[test]
fn suite_programs_are_built_once_and_served_from_the_registry() {
    let reg = WorkloadRegistry::global();
    // Force BOTH input sizes first: once the two memoization cells are
    // filled, the global build counter can never move again, so the
    // no-rebuild assertion below cannot race with concurrent tests that
    // build the other suite.
    let first = suite(InputSize::Small);
    let _ = suite(InputSize::Large);
    let builds = reg.build_count();
    let second = suite(InputSize::Small);
    assert_eq!(reg.build_count(), builds, "no rebuild on repeated suite()");
    for (a, b) in first.iter().zip(second.iter()) {
        assert!(
            std::sync::Arc::ptr_eq(&a.program, &b.program),
            "{} shares one program",
            a.name
        );
    }
    // Build-once at the artifact level, via store stats on a hermetic store:
    // two profile requests for the same workload cost exactly one build.
    let store = ArtifactStore::new();
    let w = &first[3]; // crc32/small
    let opts = CompileOptions::portable(OptLevel::O0);
    let cfg = bsg_profile::ProfileConfig::default();
    let p1 = store.profile(&w.program, &opts, &w.name, &cfg);
    let p2 = store.profile(&w.program, &opts, &w.name, &cfg);
    assert!(std::sync::Arc::ptr_eq(&p1, &p2));
    let stats = store.stats();
    assert_eq!(stats.profile_builds, 1, "{stats}");
    assert_eq!(stats.profile_hits, 1, "{stats}");
}

#[test]
fn figure_text_is_bit_identical_at_1_2_and_8_workers_and_matches_the_golden() {
    let artifacts = small_artifact_set();
    let reference = with_workers(1, || render_subset(&artifacts));
    assert!(reference.contains("crc32"), "figures cover the subset");
    for workers in [2usize, 8] {
        let text = with_workers(workers, || render_subset(&artifacts));
        assert_eq!(text, reference, "figure text diverges at {workers} workers");
    }
    // Captured from the pre-registry, pre-Experiment harness (PR 3): the
    // declarative pipeline must not change a byte of it.
    let golden = include_str!("golden/figures_subset.txt");
    assert_eq!(
        reference, golden,
        "refactored figure text diverges from the pre-refactor golden"
    );
}

/// Tier-2 (`BSG_LARGE_TESTS=1`): the complete `all_experiments` report over
/// the paper's 13 legacy kernels, rendered through the report-wide
/// measurement plan ([`render_report`]) at 1, 2 and 8 workers, against the
/// stdout of the pre-refactor binary.
#[test]
fn legacy13_all_experiments_report_matches_the_pre_refactor_golden() {
    if std::env::var("BSG_LARGE_TESTS").map(|v| v == "1") != Ok(true) {
        eprintln!("skipping tier-2 golden comparison (set BSG_LARGE_TESTS=1)");
        return;
    }
    let golden = include_str!("golden/all_experiments_legacy13.txt");
    let render = || {
        let artifacts: Vec<WorkloadArtifacts> = WorkloadRegistry::global()
            .legacy_suite(InputSize::Small)
            .into_iter()
            .map(|w| {
                WorkloadArtifacts::try_prepare(w, SYNTH_TARGET_INSTRUCTIONS)
                    .expect("workload prepares")
            })
            .collect();
        let (report, faults) = render_report(&artifacts);
        assert_eq!(faults, Vec::new(), "the legacy-13 report renders cleanly");
        report
    };
    for workers in [1usize, 2, 8] {
        let text = with_workers(workers, render);
        assert_eq!(
            text, golden,
            "legacy-13 report diverges from the pre-refactor golden at {workers} workers"
        );
    }
}

#[test]
fn prepare_suite_is_deterministic_across_worker_counts() {
    // Suite preparation is the heaviest sweep; its per-workload synthesis
    // results must not depend on scheduling.
    let names_at = |workers: usize| {
        with_workers(workers, || {
            try_prepare_suite(InputSize::Small, 10_000)
                .into_iter()
                .map(|(_, a)| {
                    let a = a.expect("every workload prepares");
                    (
                        a.workload.name,
                        a.synthesis.reduction_factor,
                        a.synthesis.synthetic_instructions,
                    )
                })
                .collect::<Vec<_>>()
        })
    };
    let reference = names_at(1);
    assert_eq!(reference.len(), suite(InputSize::Small).len());
    assert_eq!(names_at(8), reference);
}

#[test]
fn a_mid_sweep_panic_leaves_every_other_figure_result_byte_identical() {
    // The fault-isolation acceptance bar: inject a panic into one task of a
    // real figure sweep and require every *other* task's figure text to be
    // byte-for-byte what the clean run produced — at every worker count.
    let artifacts = small_artifact_set();
    let victim = "bitcount/small";
    let clean: Vec<String> = with_workers(1, || {
        Runtime::current().map(artifacts.iter().collect(), |a| {
            render_subset(std::slice::from_ref(a))
        })
    });
    for workers in [1usize, 2, 8] {
        let chaotic = with_workers(workers, || {
            Runtime::current().try_map(artifacts.iter().collect(), |a| {
                if a.workload.name == victim {
                    panic!("chaos: injected mid-sweep panic");
                }
                render_subset(std::slice::from_ref(a))
            })
        });
        assert_eq!(chaotic.len(), clean.len());
        for ((a, got), want) in artifacts.iter().zip(&chaotic).zip(&clean) {
            if a.workload.name == victim {
                match got {
                    Err(BsgError::TaskPanic { message }) => {
                        assert!(message.contains("injected mid-sweep panic"), "{message}");
                    }
                    other => panic!("victim slot must be TaskPanic, got {other:?}"),
                }
            } else {
                assert_eq!(
                    got.as_ref().expect("non-faulted tasks succeed"),
                    want,
                    "{} diverged from the clean run at {workers} workers",
                    a.workload.name
                );
            }
        }
    }
}

/// A test section that plans one timing lane with a degenerate L1 on
/// crc32's `-O0` x86 binary: the shared execution of that binary panics
/// while building its lanes.
struct PoisonLane;

impl Measure for PoisonLane {
    fn requests(&self, artifacts: &[WorkloadArtifacts]) -> Vec<Request> {
        let crc32 = artifacts
            .iter()
            .position(|a| a.workload.name == "crc32/small");
        let degenerate = CacheConfig {
            size_bytes: 0,
            ..CacheConfig::kb(8)
        };
        vec![Request {
            unit: Unit::Original(crc32.expect("crc32 is prepared")),
            options: CompileOptions::new(OptLevel::O0, TargetIsa::X86),
            probe: Probe::Lane(PipelineConfig {
                l1: degenerate,
                ..PipelineConfig::ptlsim_2wide(8)
            }),
        }]
    }

    fn render(&self, _: &[WorkloadArtifacts], _: &[Observation]) -> String {
        String::new()
    }
}

/// A test section whose planning panics.
struct PoisonPlan;

impl Measure for PoisonPlan {
    fn requests(&self, _: &[WorkloadArtifacts]) -> Vec<Request> {
        panic!("chaos: injected planning panic")
    }

    fn render(&self, _: &[WorkloadArtifacts], _: &[Observation]) -> String {
        String::new()
    }
}

/// Asserts `text` is a caught panic whose message contains `needle`.
fn assert_panicked(text: &Result<String, BsgError>, needle: &str) {
    match text {
        Err(BsgError::TaskPanic { message }) => assert!(message.contains(needle), "{message}"),
        other => panic!("expected a caught panic ({needle}), got {other:?}"),
    }
}

#[test]
fn a_panicking_execution_or_plan_fails_only_the_sections_that_read_it() {
    // The report's sections plus two poisoned ones: a panic in crc32's
    // shared `-O0` x86 execution must fail exactly the sections that read
    // that binary, a panic in planning exactly its own section, and every
    // other section must render byte-for-byte what a clean run renders.
    let artifacts = small_artifact_set();
    let clean: Vec<String> = with_workers(1, || render_sections(ALL_EXPERIMENTS, &artifacts))
        .into_iter()
        .map(|text| text.expect("clean sections render"))
        .collect();
    let (report, faults) = with_workers(1, || render_report(&artifacts));
    assert_eq!(faults, Vec::new());
    assert_eq!(
        report,
        clean.iter().map(|t| format!("{t}\n")).collect::<String>()
    );
    // fig05, fig06 at -O0, fig07, fig09, fig10 and fig11, by their index in
    // ALL_EXPERIMENTS.
    let readers_of_crc32_o0 = [4, 5, 7, 9, 10, 11];
    let sections: Vec<Section> = ALL_EXPERIMENTS
        .iter()
        .copied()
        .chain([Section::Measure(&PoisonLane), Section::Measure(&PoisonPlan)])
        .collect();
    for workers in [1usize, 2, 8] {
        let got = with_workers(workers, || render_sections(&sections, &artifacts));
        assert_eq!(got.len(), sections.len());
        let (report, poisoned) = got.split_at(ALL_EXPERIMENTS.len());
        assert_panicked(&poisoned[0], "cache smaller than one way");
        assert_panicked(&poisoned[1], "injected planning panic");
        for (i, (text, want)) in report.iter().zip(&clean).enumerate() {
            if readers_of_crc32_o0.contains(&i) {
                assert_panicked(text, "cache smaller than one way");
            } else {
                assert_eq!(
                    text.as_ref().ok(),
                    Some(want),
                    "section {i} diverged from the clean run at {workers} workers"
                );
            }
        }
    }
}

#[test]
fn store_artifacts_are_bit_identical_to_cold_builds_for_a_real_workload() {
    let w = suite(InputSize::Small).remove(3); // crc32/small
    let options = CompileOptions::new(OptLevel::O2, TargetIsa::X86_64);
    let cached = ArtifactStore::global().compiled(&w.program, &options);
    let cold = compile(&w.program, &options).unwrap().program;
    assert_eq!(cached.program, cold, "store hit must equal a cold compile");
    assert_eq!(
        cached.image.num_sites(),
        bsg_uarch::image::ExecImage::new(&cold).num_sites(),
        "predecoded image built from the identical program"
    );
}
