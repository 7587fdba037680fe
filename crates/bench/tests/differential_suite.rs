//! Suite-level differential tests: over every compiled workload of the
//! small-input suite, the predecoded engine must produce bit-identical
//! [`ExecOutcome`]s and [`StatisticalProfile`]s versus the legacy
//! `dyn`-dispatch tree-walking path, and the production timing model on the
//! predecoded engine must equal the scalar oracle on the legacy engine.

use bsg_compiler::{compile, CompileOptions, OptLevel, TargetIsa};
use bsg_profile::{profile_image, profile_program, profile_program_reference, ProfileConfig};
use bsg_uarch::exec::{execute, execute_legacy, ExecConfig, NullObserver};
use bsg_uarch::image::ExecImage;
use bsg_uarch::pipeline::{simulate_image, PipelineConfig, PipelineSim};
use bsg_workloads::{suite, InputSize};

fn limit() -> ExecConfig {
    ExecConfig {
        max_instructions: 30_000_000,
        max_call_depth: 128,
    }
}

#[test]
fn exec_outcomes_match_across_the_suite_and_opt_levels() {
    for w in suite(InputSize::Small) {
        for (level, isa) in [
            (OptLevel::O0, TargetIsa::X86),
            (OptLevel::O2, TargetIsa::X86_64),
        ] {
            let compiled = compile(&w.program, &CompileOptions::new(level, isa)).unwrap();
            let new = execute(&compiled.program, &mut NullObserver, &limit());
            let old = execute_legacy(&compiled.program, &mut NullObserver, &limit());
            assert_eq!(new, old, "{} diverges at {level}/{isa}", w.name);
            assert!(new.completed, "{} did not terminate", w.name);
        }
    }
}

#[test]
fn pipeline_results_match_across_the_suite() {
    for w in suite(InputSize::Small) {
        let compiled = compile(&w.program, &CompileOptions::portable(OptLevel::O0)).unwrap();
        let config = PipelineConfig::ptlsim_2wide(16);
        let image = ExecImage::new(&compiled.program);
        let new = simulate_image(&image, config);
        let mut old_sim = PipelineSim::from_image(config, &image);
        execute_legacy(&compiled.program, &mut old_sim, &ExecConfig::default());
        assert_eq!(new, old_sim.result(), "{} pipeline diverges", w.name);
        assert!(new.instructions > 0);
    }
}

#[test]
fn statistical_profiles_match_across_the_suite() {
    for w in suite(InputSize::Small) {
        let compiled = compile(&w.program, &CompileOptions::portable(OptLevel::O0)).unwrap();
        let new = profile_program(&compiled.program, &w.name, &ProfileConfig::default());
        let old = profile_program_reference(&compiled.program, &w.name, &ProfileConfig::default());
        assert_eq!(
            new.sfgl.nodes, old.sfgl.nodes,
            "{} node counts diverge",
            w.name
        );
        assert_eq!(
            new.sfgl.edges, old.sfgl.edges,
            "{} edge counts diverge",
            w.name
        );
        assert_eq!(new.sfgl.loops, old.sfgl.loops, "{} loops diverge", w.name);
        assert_eq!(
            new.sfgl.calls, old.sfgl.calls,
            "{} call counts diverge",
            w.name
        );
        assert_eq!(
            new.branches, old.branches,
            "{} branch profiles diverge",
            w.name
        );
        assert_eq!(new.memory, old.memory, "{} memory profiles diverge", w.name);
        assert_eq!(new.mix, old.mix, "{} mixes diverge", w.name);
        assert_eq!(new, old, "{} profiles diverge", w.name);
    }
}

/// `profile_image` decides from the image which form to profile: handed the
/// store's fused image or the unfused decode, it returns the same profile,
/// and both equal the legacy reference stack's.
#[test]
fn profile_image_is_the_same_on_fused_and_unfused_images() {
    let config = ProfileConfig::default();
    for w in suite(InputSize::Small) {
        let compiled = compile(&w.program, &CompileOptions::portable(OptLevel::O0)).unwrap();
        let program = &compiled.program;
        let fused_image = ExecImage::new(program);
        assert!(fused_image.num_fused() > 0, "{}: nothing fused", w.name);
        let fused = profile_image(program, &fused_image, &w.name, &config);
        let unfused = profile_image(program, &ExecImage::unfused(program), &w.name, &config);
        let reference = profile_program_reference(program, &w.name, &config);
        let name = &w.name;
        assert_eq!(fused, unfused, "{name}: fused vs unfused image profiles");
        assert_eq!(unfused, reference, "{name}: image vs reference profiles");
    }
}

/// Environment variable gating the tier-2 large-input differential sweep.
const LARGE_ENV: &str = "BSG_LARGE_TESTS";

/// Tier-2: the whole differential check over the **large**-input suite.
/// Large inputs execute tens of millions of instructions per workload, so
/// this only runs when `BSG_LARGE_TESTS` is set (CI wires it into a separate
/// job step; locally: `BSG_LARGE_TESTS=1 cargo test -p bsg-bench --release
/// --test differential_suite large`).
#[test]
fn large_suite_outcomes_match_when_enabled() {
    if std::env::var(LARGE_ENV).is_err() {
        eprintln!("skipping large-input differential sweep; set {LARGE_ENV}=1 to run it");
        return;
    }
    for w in suite(InputSize::Large) {
        let compiled = compile(&w.program, &CompileOptions::portable(OptLevel::O0)).unwrap();
        let new = execute(&compiled.program, &mut NullObserver, &limit());
        let old = execute_legacy(&compiled.program, &mut NullObserver, &limit());
        assert_eq!(new, old, "{} diverges on large inputs", w.name);
        assert!(
            new.completed,
            "{} did not terminate on large inputs",
            w.name
        );
        let new_profile = profile_program(&compiled.program, &w.name, &ProfileConfig::default());
        let old_profile =
            profile_program_reference(&compiled.program, &w.name, &ProfileConfig::default());
        assert_eq!(
            new_profile, old_profile,
            "{} profiles diverge on large inputs",
            w.name
        );
    }
}
