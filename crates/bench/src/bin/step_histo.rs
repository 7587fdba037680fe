#![forbid(unsafe_code)]

//! Perf diagnostic: the report's dynamic dispatches by step variant.
//!
//! Prepares the small suite, lists the requests of every measuring section
//! of `ALL_EXPERIMENTS` (the report's measurement plan), compiles them and
//! merges equal compiled programs exactly as `observe` does, then executes
//! each distinct program's fused image once with a per-site counting
//! observer and prints every step variant's share of all dispatches.  This
//! is the evidence a fused shape is kept on: it stays only while it carries
//! at least 0.4% of the report's dispatches (DESIGN.md, "Which fused shapes
//! stay").
//!
//! Run with `cargo run -p bsg-bench --release --bin step_histo`.

use bsg_bench::{
    try_prepare_suite, InputSize, Section, Unit, WorkloadArtifacts, ALL_EXPERIMENTS,
    SYNTH_TARGET_INSTRUCTIONS,
};
use bsg_runtime::{ArtifactStore, CompiledArtifact};
use bsg_uarch::exec::{execute_image, ExecConfig, InstEvent, Observer};
use std::collections::HashMap;
use std::sync::Arc;

/// Counts dynamic executions per dense site id.
struct SiteCounts(Vec<u64>);

impl Observer for SiteCounts {
    fn on_inst(&mut self, event: &InstEvent) {
        self.0[event.site_id as usize] += 1;
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

    let mut by_variant: HashMap<&'static str, u64> = HashMap::new();
    for art in &programs {
        let mut counts = SiteCounts(vec![0; art.image.num_sites()]);
        execute_image(&art.image, &mut counts, &ExecConfig::default());
        for (name, n) in art.image.step_histogram(&counts.0) {
            *by_variant.entry(name).or_default() += n;
        }
    }
    let mut histo: Vec<_> = by_variant.into_iter().collect();
    histo.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    let total: u64 = histo.iter().map(|(_, n)| n).sum();
    println!("{} distinct programs, {total} dispatches", programs.len());
    for (name, n) in &histo {
        println!(
            "  {:<18} {:>12}  {:>7.3}%",
            name,
            n,
            *n as f64 / total as f64 * 100.0
        );
    }
}
