//! Automatic reduction-factor selection and benchmark consolidation.
//!
//! The paper chooses the reduction factor *R* empirically so that every
//! synthetic benchmark executes roughly the same number of dynamic
//! instructions (~10 million in the paper; configurable here because the
//! reproduction's experiments run on an interpreter).  This module implements
//! that search by synthesizing, compiling at `-O0`, executing, and adjusting
//! *R* multiplicatively until the measured count lands near the target.
//!
//! It also implements benchmark consolidation (§II-B.e): merging several
//! statistical profiles into one and synthesizing a single clone that is
//! representative of the whole set.

use crate::generate::{synthesize, SynthesisConfig, SyntheticBenchmark};
use crate::scale::initial_reduction_factor;
use bsg_compiler::{compile, CompileOptions, OptLevel};
use bsg_profile::StatisticalProfile;
use bsg_uarch::exec;

/// The outcome of a target-driven synthesis.
#[derive(Debug, Clone, PartialEq)]
pub struct TargetedSynthesis {
    /// The generated benchmark.
    pub benchmark: SyntheticBenchmark,
    /// Dynamic instruction count of the clone at `-O0`.
    pub synthetic_instructions: u64,
    /// Dynamic instruction count of the profiled original.
    pub original_instructions: u64,
    /// The reduction factor finally used.
    pub reduction_factor: u64,
}

impl TargetedSynthesis {
    /// How many times shorter the clone is than the original (Figure 4).
    pub fn instruction_reduction(&self) -> f64 {
        if self.synthetic_instructions == 0 {
            0.0
        } else {
            self.original_instructions as f64 / self.synthetic_instructions as f64
        }
    }
}

bsg_ir::codec_layout!(struct TargetedSynthesis {
    benchmark,
    synthetic_instructions,
    original_instructions,
    reduction_factor,
});

/// Measures the `-O0` dynamic instruction count of a synthetic benchmark,
/// bounded by `cap`.  A candidate clone at a too-small reduction factor can
/// run for orders of magnitude longer than the target (loop-heavy profiles
/// scale non-linearly), so an unbounded measurement can stall the whole
/// harness; a capped run still tells the search everything it needs — "far
/// too long" — and the next iteration raises the factor accordingly.
fn measure(benchmark: &SyntheticBenchmark, cap: u64) -> u64 {
    match compile(&benchmark.hll, &CompileOptions::portable(OptLevel::O0)) {
        Ok(compiled) => {
            let out = exec::execute(
                &compiled.program,
                &mut exec::NullObserver,
                &exec::ExecConfig {
                    max_instructions: cap,
                    ..exec::ExecConfig::default()
                },
            );
            out.dynamic_instructions
        }
        Err(_) => 0,
    }
}

/// Synthesizes a clone whose `-O0` dynamic instruction count is close to
/// `target_instructions`, searching over the reduction factor (§III-D notes
/// the factor is chosen empirically per benchmark; the paper's factors range
/// from 1 to 250).
pub fn synthesize_with_target(
    profile: &StatisticalProfile,
    base: &SynthesisConfig,
    target_instructions: u64,
) -> TargetedSynthesis {
    let target = target_instructions.max(1);
    // Cap candidate measurements well above the acceptance window so the
    // search can distinguish "somewhat long" from "way too long" without ever
    // running an exploded candidate to completion.
    let cap = target.saturating_mul(64).max(1_000_000);
    let mut r = initial_reduction_factor(profile.dynamic_instructions, target);
    let mut best: Option<(u64, SyntheticBenchmark, u64)> = None;

    for _ in 0..5 {
        let mut config = base.clone();
        config.reduction_factor = r;
        let candidate = synthesize(profile, &config);
        let measured = measure(&candidate, cap).max(1);
        let error = measured.abs_diff(target);
        let is_better = best.as_ref().map(|(e, _, _)| error < *e).unwrap_or(true);
        if is_better {
            best = Some((error, candidate, measured));
        }
        let ratio = measured as f64 / target as f64;
        if (0.7..=1.4).contains(&ratio) {
            break;
        }
        // The clone length is roughly inversely proportional to R.
        let next = ((r as f64) * ratio).round() as u64;
        let next = next.clamp(1, profile.dynamic_instructions.max(1));
        if next == r {
            break;
        }
        r = next;
    }

    let (_, benchmark, measured) = best.expect("at least one synthesis attempt");
    TargetedSynthesis {
        reduction_factor: benchmark.stats.reduction_factor,
        original_instructions: profile.dynamic_instructions,
        synthetic_instructions: measured,
        benchmark,
    }
}

/// Merges several profiles into a single consolidated profile (§II-B.e).
///
/// Accepts any iterator of borrowed profiles, so callers holding
/// `Arc<StatisticalProfile>`s from the artifact store can consolidate
/// without cloning every profile up front.
pub fn consolidate<'a, I>(profiles: I) -> StatisticalProfile
where
    I: IntoIterator<Item = &'a StatisticalProfile>,
{
    let mut iter = profiles.into_iter();
    let Some(first) = iter.next() else {
        return StatisticalProfile::default();
    };
    let mut merged = first.clone();
    for p in iter {
        let offset = merged.function_span();
        merged.merge_with_offset(p, offset);
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsg_ir::build::FunctionBuilder;
    use bsg_ir::hll::{Expr, HllGlobal, HllProgram};
    use bsg_profile::{profile_program, ProfileConfig};

    fn profile_of_loop(iters: i64, name: &str) -> StatisticalProfile {
        let mut p = HllProgram::new();
        p.add_global(HllGlobal::zeroed("buf", 4096));
        let mut main = FunctionBuilder::new("main");
        main.for_loop("i", Expr::int(0), Expr::int(iters), |b| {
            b.assign_index(
                "buf",
                Expr::var("i"),
                Expr::add(Expr::var("i"), Expr::int(1)),
            );
            b.assign_var(
                "s",
                Expr::add(Expr::var("s"), Expr::index("buf", Expr::var("i"))),
            );
        });
        main.ret(Some(Expr::var("s")));
        p.add_function(main.finish());
        let compiled = compile(&p, &CompileOptions::portable(OptLevel::O0)).unwrap();
        profile_program(&compiled.program, name, &ProfileConfig::default())
    }

    #[test]
    fn reduction_search_hits_the_target_window() {
        let profile = profile_of_loop(20_000, "big");
        let result = synthesize_with_target(&profile, &SynthesisConfig::default(), 10_000);
        assert!(
            result.synthetic_instructions > 2_000,
            "{}",
            result.synthetic_instructions
        );
        assert!(
            result.synthetic_instructions < 50_000,
            "{}",
            result.synthetic_instructions
        );
        assert!(result.instruction_reduction() > 5.0);
        assert!(result.reduction_factor >= 1);
    }

    #[test]
    fn short_originals_get_a_reduction_factor_of_about_one() {
        // Some MiBench inputs are so short that there is little to reduce
        // (the paper reports factors as low as 1).
        let profile = profile_of_loop(100, "small");
        let result = synthesize_with_target(&profile, &SynthesisConfig::default(), 1_000_000);
        assert!(result.reduction_factor <= 2);
    }

    #[test]
    fn consolidation_produces_a_single_profile_covering_all_inputs() {
        let a = profile_of_loop(500, "a");
        let b = profile_of_loop(800, "b");
        let merged = consolidate([&a, &b]);
        assert_eq!(
            merged.dynamic_instructions,
            a.dynamic_instructions + b.dynamic_instructions
        );
        assert!(merged.name.contains('+'));
        // A clone can be synthesized from the consolidated profile.
        let synth = synthesize(&merged, &SynthesisConfig::with_reduction(10));
        assert!(
            synth.stats.generated_loops >= 2,
            "both originals' loops are represented"
        );
    }

    #[test]
    fn consolidating_nothing_yields_an_empty_profile() {
        let empty = consolidate(std::iter::empty::<&StatisticalProfile>());
        assert_eq!(empty.dynamic_instructions, 0);
    }
}
