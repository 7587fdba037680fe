//! The paper's headline use case: a company distributes a synthetic clone of
//! a proprietary workload to a hardware vendor, who then explores
//! microarchitectures using only the clone.
//!
//! ```text
//! cargo run --release --example proprietary_proxy
//! ```

use benchsynth::compiler::{compile, CompileOptions, OptLevel};
use benchsynth::profile::{profile_program, ProfileConfig};
use benchsynth::synth::{synthesize_with_target, SynthesisConfig};
use benchsynth::uarch::batch::simulate_image_batch;
use benchsynth::uarch::image::ExecImage;
use benchsynth::uarch::pipeline::PipelineConfig;
use benchsynth::workloads::{suite, InputSize};

fn main() {
    // The "proprietary" application: dijkstra stands in for routing software.
    let workload = suite(InputSize::Small).remove(4);
    println!(
        "proprietary workload: {} (never leaves the company)",
        workload.name
    );

    // The company profiles it in-house and ships only the clone.
    let o0 = compile(&workload.program, &CompileOptions::portable(OptLevel::O0)).unwrap();
    let profile = profile_program(&o0.program, &workload.name, &ProfileConfig::default());
    let clone = synthesize_with_target(&profile, &SynthesisConfig::default(), 30_000);
    println!(
        "clone shipped to the vendor: {} C statements, R = {}",
        clone.benchmark.stats.statements, clone.reduction_factor
    );

    // The vendor explores L1 cache sizes using the clone, and the company
    // checks (internally) that the original would rank the designs the same.
    // One execution per program times every size.
    let sizes = [4u64, 8, 16, 32, 64];
    let configs = sizes.map(PipelineConfig::ptlsim_2wide);
    let clone_o0 = compile(
        &clone.benchmark.hll,
        &CompileOptions::portable(OptLevel::O0),
    )
    .unwrap();
    let time = |program| simulate_image_batch(&ExecImage::new(program), &configs);
    let (original, cloned) = (time(&o0.program), time(&clone_o0.program));
    println!(
        "\n{:<10} {:>16} {:>16}",
        "L1 size", "CPI (original)", "CPI (clone)"
    );
    for ((kb, o), c) in sizes.iter().zip(&original).zip(&cloned) {
        println!("{:>6} KB {:>16.3} {:>16.3}", kb, o.cpi(), c.cpi());
    }
    println!("\nThe vendor never sees the original; the clone drives the same design choice.");
}
