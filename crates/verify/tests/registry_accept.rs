//! Acceptance: every registry workload's images pass the static verifier at
//! both the profiling (`-O0`) and optimized (`-O2`) levels — the same sweep
//! the `bsg-verify --registry` CLI runs over the full suite in CI, kept here
//! over the small inputs so plain `cargo test` exercises it too.

use bsg_compiler::{compile, CompileOptions, OptLevel, TargetIsa};
use bsg_uarch::image::ExecImage;
use bsg_uarch::verify::verify_image;
use bsg_workloads::{suite, InputSize};

#[test]
fn small_suite_verifies_at_o0_and_o2() {
    for w in suite(InputSize::Small) {
        for level in [OptLevel::O0, OptLevel::O2] {
            let compiled = compile(&w.program, &CompileOptions::new(level, TargetIsa::X86))
                .unwrap_or_else(|e| panic!("{} fails to compile at {level}: {e}", w.name));
            let fused = ExecImage::new(&compiled.program);
            let unfused = ExecImage::unfused(&compiled.program);
            for (form, image) in [("fused", &fused), ("unfused", &unfused)] {
                let report = verify_image(image, &unfused)
                    .unwrap_or_else(|e| panic!("false positive: {}@{level} ({form}): {e}", w.name));
                assert!(report.steps > 0, "{}@{level}: empty image", w.name);
                if form == "fused" {
                    assert_eq!(
                        report.fused,
                        image.num_fused(),
                        "{}@{level}: replay check visited a different number of \
                         fused steps than the image reports",
                        w.name
                    );
                }
            }
        }
    }
}
