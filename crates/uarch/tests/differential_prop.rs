//! Property-based differential sweep: random VISA programs — loops, calls,
//! mixed int/float register pressure, frame and global traffic, folded
//! memory operands — must execute observably identically on all three
//! engines (legacy tree-walk, unfused predecoded, fused predecoded with the
//! untagged register file), including when the instruction budget aborts the
//! run in the middle of a fused superinstruction.
//!
//! The generator only ever produces *valid* programs (register ids below
//! `num_regs`, call targets and branch targets in range, non-empty globals),
//! matching the invariants `ExecImage` validates at build time.  Programs
//! may loop forever or recurse unboundedly; every run therefore carries an
//! instruction budget and a call-depth limit, and outcomes are compared
//! whether or not the run completed.

use bsg_ir::program::Program;
use bsg_ir::types::{BlockId, FuncId};
use bsg_uarch::batch::BatchedPipelineSim;
use bsg_uarch::exec::{execute_image, execute_legacy, ExecConfig, InstEvent, InstSite, Observer};
use bsg_uarch::image::ExecImage;
use bsg_uarch::pipeline::{PipelineConfig, PipelineSim};
use bsg_verify::gen::{o0_frame_program, Gen};
use proptest::prelude::*;
use rand::Rng;

/// Records every observer callback verbatim.
#[derive(Debug, Default, Clone, PartialEq)]
struct Recording {
    events: Vec<Event>,
}

#[derive(Debug, Clone, PartialEq)]
enum Event {
    Inst(InstEvent),
    Block(FuncId, BlockId, u32),
    Edge(FuncId, BlockId, BlockId, u32),
    Branch(InstSite, u32, bool),
    Call(FuncId, FuncId),
}

impl Observer for Recording {
    fn on_inst(&mut self, event: &InstEvent) {
        self.events.push(Event::Inst(*event));
    }
    fn on_block(&mut self, func: FuncId, block: BlockId, block_idx: u32) {
        self.events.push(Event::Block(func, block, block_idx));
    }
    fn on_edge(&mut self, func: FuncId, from: BlockId, to: BlockId, edge_idx: u32) {
        self.events.push(Event::Edge(func, from, to, edge_idx));
    }
    fn on_branch(&mut self, site: InstSite, site_id: u32, taken: bool) {
        self.events.push(Event::Branch(site, site_id, taken));
    }
    fn on_call(&mut self, caller: FuncId, callee: FuncId) {
        self.events.push(Event::Call(caller, callee));
    }
}

/// Runs one program on all three engines under `config` and asserts
/// bit-identical outcomes, event streams and pipeline results.
fn check_identical(program: &Program, config: &ExecConfig) -> Result<(), String> {
    let fused_image = ExecImage::new(program);
    let unfused_image = ExecImage::unfused(program);
    let mut fused_rec = Recording::default();
    let mut unfused_rec = Recording::default();
    let mut old_rec = Recording::default();
    let fused = execute_image(&fused_image, &mut fused_rec, config);
    let unfused = execute_image(&unfused_image, &mut unfused_rec, config);
    let old = execute_legacy(program, &mut old_rec, config);
    if fused != old {
        return Err(format!("fused vs legacy outcome: {fused:?} vs {old:?}"));
    }
    if unfused != old {
        return Err(format!("unfused vs legacy outcome: {unfused:?} vs {old:?}"));
    }
    for (what, rec) in [("fused", &fused_rec), ("unfused", &unfused_rec)] {
        if rec.events.len() != old_rec.events.len() {
            return Err(format!(
                "{what} event count {} vs legacy {}",
                rec.events.len(),
                old_rec.events.len()
            ));
        }
        for (i, (n, o)) in rec.events.iter().zip(&old_rec.events).enumerate() {
            if n != o {
                return Err(format!("{what} event {i}: {n:?} vs {o:?}"));
            }
        }
    }
    let mut fused_sim = PipelineSim::from_image(PipelineConfig::ptlsim_2wide(8), &fused_image);
    let mut old_sim = PipelineSim::from_image(PipelineConfig::ptlsim_2wide(8), &fused_image);
    execute_image(&fused_image, &mut fused_sim, config);
    execute_legacy(program, &mut old_sim, config);
    if fused_sim.result() != old_sim.result() {
        return Err(format!(
            "pipeline: {:?} vs {:?}",
            fused_sim.result(),
            old_sim.result()
        ));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn random_programs_execute_identically_on_all_engines(seed in 0u64..1_000_000) {
        let mut g = Gen::from_seed(seed, 0);
        g.nglobals = g.rng.gen_range(0u32..3);
        let program = g.program();
        // A comfortable budget (runs may still not complete: infinite loops
        // and unbounded recursion are reachable) ...
        let budgets = [20_000u64];
        // ... plus tight budgets sweeping the abort point across every step
        // of the program, including the middle of fused superinstructions.
        let tight = [1u64, 2, 3, 5, 7, 11, 17, 26, 43, 64, 97, 150, 331];
        for budget in budgets.iter().chain(&tight) {
            let config = ExecConfig {
                max_instructions: *budget,
                max_call_depth: 13,
            };
            if let Err(e) = check_identical(&program, &config) {
                return Err(format!("seed {seed} budget {budget}: {e}"));
            }
        }
    }

    #[test]
    fn o0_frame_programs_execute_identically_on_all_engines(seed in 0u64..1_000_000) {
        let program = o0_frame_program(seed);
        // The fused image must actually contain frame superinstructions —
        // this sweep exists to abort budgets *inside* them.
        prop_assert!(ExecImage::new(&program).num_fused() > 0, "generator produced nothing to fuse");
        // A comfortable budget plus a dense sweep of tight budgets: the
        // body fragments are 2-3 budgeted instructions each, so stepping
        // the abort point by one walks it through every constituent of the
        // frame-fused superinstructions (pairs and triples alike).
        let mut budgets: Vec<u64> = (1..40).collect();
        budgets.extend([64, 97, 150, 331, 20_000]);
        for budget in budgets {
            let config = ExecConfig {
                max_instructions: budget,
                max_call_depth: 13,
            };
            if let Err(e) = check_identical(&program, &config) {
                return Err(format!("seed {seed} budget {budget}: {e}"));
            }
        }
    }

    #[test]
    fn batched_lanes_match_scalar_sims_under_budget_aborts(seed in 0u64..1_000_000) {
        // Per-lane bit-parity of the batched multi-config model against N
        // independent scalar simulations, on random frame-fusing programs,
        // with budgets that abort mid-superinstruction — both models see
        // the identical truncated event stream, so every lane must still
        // equal its scalar twin exactly.  The config set deliberately mixes
        // a duplicate (lane dedup), shared L1/L2 shapes, in-order, and a
        // zero-sized ROB.
        let program = o0_frame_program(seed);
        let configs = [
            PipelineConfig::ptlsim_2wide(8),
            PipelineConfig::out_of_order(4, 96, 32, 2048, 15),
            PipelineConfig::epic(6, 16, 256),
            PipelineConfig::ptlsim_2wide(8),
            PipelineConfig::out_of_order(2, 0, 8, 256, 10),
        ];
        for image in [ExecImage::new(&program), ExecImage::unfused(&program)] {
            // 2047..=2049 and 4097 straddle the batched model's 2048-entry
            // replay chunk.
            for budget in [3u64, 7, 26, 97, 331, 2047, 2048, 2049, 4097, 20_000] {
                let config = ExecConfig { max_instructions: budget, max_call_depth: 13 };
                let mut batched = BatchedPipelineSim::from_image(&configs, &image);
                execute_image(&image, &mut batched, &config);
                for ((i, c), lane) in configs.iter().enumerate().zip(batched.results()) {
                    let mut scalar = PipelineSim::from_image(*c, &image);
                    execute_image(&image, &mut scalar, &config);
                    prop_assert_eq!(
                        lane,
                        scalar.result(),
                        "seed {} budget {} lane {} diverged",
                        seed,
                        budget,
                        i
                    );
                }
            }
        }
    }

    #[test]
    fn random_programs_fuse_deterministically(seed in 0u64..1_000_000) {
        // Image building is deterministic: same program, same fusion result.
        let mut g = Gen::from_seed(seed ^ 0xabcdef, 1);
        let program = g.program();
        let a = ExecImage::new(&program);
        let b = ExecImage::new(&program);
        prop_assert_eq!(a.num_fused(), b.num_fused());
        prop_assert_eq!(a.num_sites(), b.num_sites());
        prop_assert_eq!(ExecImage::unfused(&program).num_fused(), 0);
    }
}
