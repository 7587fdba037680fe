#![forbid(unsafe_code)]

//! Perf diagnostic: dynamic dispatches by step variant, over the two
//! traffics every interpreter run belongs to.
//!
//! Prepares the small suite, then prints two tables:
//!
//! * **plan**: the requests of every measuring section of
//!   `ALL_EXPERIMENTS` (the report's measurement plan), compiled and merged
//!   into equal programs exactly as `observe` does, each distinct program's
//!   fused image executed once;
//! * **profile**: the small suite's `-O0` originals on
//!   `ExecImage::unfused`, the image `profile_image` runs.
//!
//! Each run counts block entries and credits every dispatch point of the
//! entered block (`ExecImage::step_histogram`).  This is the evidence a
//! step variant is kept on: a fused shape, or a specialized single step
//! with a general fallback, stays only while it carries at least 0.4% of
//! the dispatches in either table, or is a kept fused shape's constituent
//! (DESIGN.md, "Which step variants stay").
//!
//! Run with `cargo run -p bsg-bench --release --bin step_histo`.

use bsg_bench::{
    try_prepare_suite, InputSize, Section, Unit, WorkloadArtifacts, ALL_EXPERIMENTS,
    SYNTH_TARGET_INSTRUCTIONS,
};
use bsg_compiler::{CompileOptions, OptLevel};
use bsg_ir::types::{BlockId, FuncId};
use bsg_runtime::{ArtifactStore, CompiledArtifact};
use bsg_uarch::exec::{execute_image, ExecConfig, Observer};
use bsg_uarch::ExecImage;
use std::collections::HashMap;
use std::sync::Arc;

/// Counts entries per dense block index.
struct BlockCounts(Vec<u64>);

impl Observer for BlockCounts {
    fn on_block(&mut self, _func: FuncId, _block: BlockId, block_idx: u32) {
        self.0[block_idx as usize] += 1;
    }
}

/// Runs every image once and prints its variants' shares of all dispatches.
fn print_table<'a>(title: &str, images: impl IntoIterator<Item = &'a ExecImage>) {
    let mut by_variant: HashMap<&'static str, u64> = HashMap::new();
    let mut programs = 0;
    for image in images {
        programs += 1;
        let mut counts = BlockCounts(vec![0; image.num_blocks()]);
        execute_image(image, &mut counts, &ExecConfig::default());
        for (name, n) in image.step_histogram(&counts.0) {
            *by_variant.entry(name).or_default() += n;
        }
    }
    let mut histo: Vec<_> = by_variant.into_iter().collect();
    histo.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    let total: u64 = histo.iter().map(|(_, n)| n).sum();
    println!("{title}: {programs} distinct programs, {total} dispatches");
    for (name, n) in &histo {
        println!(
            "  {:<18} {:>12}  {:>7.3}%",
            name,
            n,
            *n as f64 / total as f64 * 100.0
        );
    }
}

fn main() {
    let mut artifacts: Vec<WorkloadArtifacts> = Vec::new();
    for (name, result) in try_prepare_suite(InputSize::Small, SYNTH_TARGET_INSTRUCTIONS) {
        match result {
            Ok(a) => artifacts.push(a),
            Err(e) => eprintln!("step_histo: skipping {name}: {e}"),
        }
    }

    // The plan's distinct programs: one per class of equal compilations.
    let store = ArtifactStore::global();
    let mut programs: Vec<Arc<CompiledArtifact>> = Vec::new();
    for section in ALL_EXPERIMENTS {
        let Section::Measure(m) = section else {
            continue;
        };
        for r in m.requests(&artifacts) {
            let art = match &r.unit {
                Unit::Original(i) => artifacts[*i].compiled(&r.options, false),
                Unit::Synthetic(i) => artifacts[*i].compiled(&r.options, true),
                Unit::Synthesized(id, s) => store.compiled_keyed(*id, &s.benchmark.hll, &r.options),
            };
            if !programs.iter().any(|p| p.program == art.program) {
                programs.push(art);
            }
        }
    }
    print_table("plan", programs.iter().map(|art| &art.image));

    // The profiler's traffic: what `WorkloadArtifacts::try_prepare` profiles.
    let profiled: Vec<ExecImage> = artifacts
        .iter()
        .map(|a| {
            let art = a.compiled(&CompileOptions::portable(OptLevel::O0), false);
            ExecImage::unfused(&art.program)
        })
        .collect();
    println!();
    print_table("profile", &profiled);
}
