//! Mutation self-test: the verifier accepts every valid generated image
//! (zero false positives) and rejects 100% of kit-corrupted mutants (the
//! analysis has teeth).  `verify_image` must *return* `Err` on mutants —
//! a panic would fail the test, which is the point: corrupted images are
//! exactly what the verifier exists to report on gracefully.

use bsg_uarch::image::ExecImage;
use bsg_uarch::verify::{corrupt_image, verify_image, ALL_CORRUPTIONS};
use bsg_verify::gen::{o0_frame_program, Gen};
use proptest::prelude::*;
use rand::Rng;

fn assert_accepts_and_mutants_rejected(
    what: &str,
    program: &bsg_ir::Program,
) -> Result<(), String> {
    let fused = ExecImage::new(program);
    let unfused = ExecImage::unfused(program);
    for (form, image) in [("fused", &fused), ("unfused", &unfused)] {
        if let Err(e) = verify_image(image, &unfused) {
            return Err(format!("false positive on {what} ({form}): {e}"));
        }
    }
    for c in ALL_CORRUPTIONS {
        if let Some((mutant, reference)) = corrupt_image(&fused, &unfused, c) {
            if verify_image(&mutant, &reference).is_ok() {
                return Err(format!("mutant survived on {what}: {c:?}"));
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(30))]

    #[test]
    fn random_images_verify_and_all_mutants_die(seed in 0u64..1_000_000) {
        let mut g = Gen::from_seed(seed, 0);
        g.nglobals = g.rng.gen_range(0u32..3);
        let program = g.program();
        assert_accepts_and_mutants_rejected(&format!("seed {seed}"), &program)?;
    }

    #[test]
    fn o0_frame_images_verify_and_all_mutants_die(seed in 0u64..1_000_000) {
        let program = o0_frame_program(seed);
        assert_accepts_and_mutants_rejected(&format!("o0 seed {seed}"), &program)?;
    }
}

#[test]
fn every_corruption_applies_somewhere() {
    // Each corruption must actually fire on at least one generated image —
    // otherwise the proptest above could pass vacuously for that corruption.
    let mut applied = [false; ALL_CORRUPTIONS.len()];
    for seed in 0..40u64 {
        let mut g = Gen::from_seed(seed, 0);
        g.nglobals = g.rng.gen_range(0u32..3);
        for program in [g.program(), o0_frame_program(seed)] {
            let image = ExecImage::new(&program);
            let reference = ExecImage::unfused(&program);
            for (i, c) in ALL_CORRUPTIONS.into_iter().enumerate() {
                if corrupt_image(&image, &reference, c).is_some() {
                    applied[i] = true;
                }
            }
        }
    }
    for (i, c) in ALL_CORRUPTIONS.into_iter().enumerate() {
        assert!(applied[i], "{c:?} never applied to any generated image");
    }
}
