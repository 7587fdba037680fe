//! End-to-end integration tests spanning the whole pipeline:
//! workload -> compile -> profile -> synthesize -> compile clone -> evaluate.

use benchsynth::compiler::{compile, CompileOptions, OptLevel, TargetIsa};
use benchsynth::ir::visa::MixCategory;
use benchsynth::profile::{profile_program, MixObserver, ProfileConfig};
use benchsynth::similarity::SimilarityReport;
use benchsynth::synth::{synthesize_with_target, SynthesisConfig};
use benchsynth::uarch::branch::{Hybrid, PredictorObserver};
use benchsynth::uarch::cache::{CacheConfig, CacheObserver};
use benchsynth::uarch::exec::{self, execute, ExecConfig};
use benchsynth::uarch::machine::MachineConfig;
use benchsynth::uarch::pipeline::simulate;
use benchsynth::workloads::{suite, InputSize, Workload};

const TARGET: u64 = 20_000;

fn prepare(
    workload: &Workload,
) -> (
    benchsynth::profile::StatisticalProfile,
    benchsynth::synth::TargetedSynthesis,
) {
    let o0 = compile(&workload.program, &CompileOptions::portable(OptLevel::O0)).unwrap();
    let profile = profile_program(&o0.program, &workload.name, &ProfileConfig::default());
    let synth = synthesize_with_target(&profile, &SynthesisConfig::default(), TARGET);
    (profile, synth)
}

#[test]
fn synthetic_clones_are_shorter_and_representative_for_the_instruction_mix() {
    for w in suite(InputSize::Small).into_iter().take(5) {
        let (profile, synth) = prepare(&w);
        // Long-running originals must shrink; originals already near the
        // synthesis target (the paper's R = 1 cases) only need to stay in the
        // same ballpark.
        if profile.dynamic_instructions > TARGET * 2 {
            assert!(
                synth.synthetic_instructions < profile.dynamic_instructions,
                "{}: clone must be shorter ({} vs {})",
                w.name,
                synth.synthetic_instructions,
                profile.dynamic_instructions
            );
        } else {
            assert!(
                synth.synthetic_instructions < profile.dynamic_instructions * 3,
                "{}: clone must stay near the original's size",
                w.name
            );
        }
        // Compare the -O0 instruction-mix categories between original and clone.
        let (o, s) = (
            compile(&w.program, &CompileOptions::portable(OptLevel::O0))
                .unwrap()
                .program,
            compile(
                &synth.benchmark.hll,
                &CompileOptions::portable(OptLevel::O0),
            )
            .unwrap()
            .program,
        );
        let mix = |p| {
            let mut obs = MixObserver::default();
            execute(p, &mut obs, &ExecConfig::default());
            obs.mix().category_fractions()
        };
        let om = mix(&o);
        let sm = mix(&s);
        for cat in [MixCategory::Load, MixCategory::Store] {
            let (a, b) = (om[&cat], sm[&cat]);
            assert!(
                (a - b).abs() < 0.25,
                "{}: {cat} fraction diverges too much (original {a:.2}, synthetic {b:.2})",
                w.name
            );
        }
    }
}

#[test]
fn clones_track_cache_and_branch_behaviour_directionally() {
    let w = suite(InputSize::Small).remove(4); // dijkstra: cache-sensitive per the paper
    let (_, synth) = prepare(&w);
    let o = compile(&w.program, &CompileOptions::portable(OptLevel::O0))
        .unwrap()
        .program;
    let s = compile(
        &synth.benchmark.hll,
        &CompileOptions::portable(OptLevel::O0),
    )
    .unwrap()
    .program;
    let hit_rates = |p| {
        let mut obs = CacheObserver::new([1u64, 8, 32].map(CacheConfig::kb));
        execute(p, &mut obs, &ExecConfig::default());
        obs.sweep
            .results()
            .iter()
            .map(|(_, st)| st.hit_rate())
            .collect::<Vec<_>>()
    };
    for rates in [hit_rates(&o), hit_rates(&s)] {
        assert!(
            rates[2] >= rates[0] - 1e-9,
            "hit rate grows with cache size: {rates:?}"
        );
    }
    let accuracy = |p| {
        let mut obs = PredictorObserver::new(Hybrid::default_config());
        execute(p, &mut obs, &ExecConfig::default());
        obs.stats.accuracy()
    };
    assert!(accuracy(&o) > 0.7);
    assert!(accuracy(&s) > 0.7);
}

#[test]
fn clones_compile_and_run_on_every_isa_and_machine() {
    let w = suite(InputSize::Small).remove(0); // adpcm
    let (_, synth) = prepare(&w);
    for isa in TargetIsa::ALL {
        let compiled = compile(
            &synth.benchmark.hll,
            &CompileOptions::new(OptLevel::O2, isa),
        )
        .unwrap();
        let out = exec::run(&compiled.program);
        assert!(out.completed, "clone terminates on {isa}");
    }
    for machine in MachineConfig::table3() {
        let isa = match machine.isa {
            benchsynth::uarch::machine::MachineIsa::X86 => TargetIsa::X86,
            benchsynth::uarch::machine::MachineIsa::X86_64 => TargetIsa::X86_64,
            benchsynth::uarch::machine::MachineIsa::Ia64 => TargetIsa::Ia64,
        };
        let compiled = compile(
            &synth.benchmark.hll,
            &CompileOptions::new(OptLevel::O2, isa),
        )
        .unwrap();
        let timing = simulate(&compiled.program, machine.pipeline);
        assert!(
            machine.time_ns(&timing) > 0.0,
            "{} reports a time",
            machine.name
        );
    }
}

#[test]
fn clones_hide_proprietary_information_from_plagiarism_detectors() {
    for w in suite(InputSize::Small).into_iter().take(4) {
        let (_, synth) = prepare(&w);
        let original_c = benchsynth::ir::cemit::emit_c(&w.program);
        let report = SimilarityReport::compare(&original_c, &synth.benchmark.c_source);
        assert!(
            report.hides_proprietary_information(0.5),
            "{}: moss {:.2} jplag {:.2}",
            w.name,
            report.moss,
            report.jplag
        );
    }
}

#[test]
fn optimization_levels_reduce_instruction_counts_for_original_and_clone() {
    let w = suite(InputSize::Small).remove(3); // crc32
    let (_, synth) = prepare(&w);
    let count = |hll, level| {
        let c = compile(hll, &CompileOptions::new(level, TargetIsa::X86)).unwrap();
        exec::run(&c.program).dynamic_instructions
    };
    let oo0 = count(&w.program, OptLevel::O0);
    let oo2 = count(&w.program, OptLevel::O2);
    let so0 = count(&synth.benchmark.hll, OptLevel::O0);
    let so2 = count(&synth.benchmark.hll, OptLevel::O2);
    assert!(oo2 < oo0, "original shrinks with optimization");
    assert!(so2 < so0, "synthetic shrinks with optimization");
    let org_ratio = oo2 as f64 / oo0 as f64;
    let syn_ratio = so2 as f64 / so0 as f64;
    assert!(
        (org_ratio - syn_ratio).abs() < 0.35,
        "O0->O2 trends track: {org_ratio:.2} vs {syn_ratio:.2}"
    );
}
